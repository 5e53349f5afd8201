//! Golden output of the deterministic heuristics at a scale where the
//! inter-DBC scan, the per-DBC trace split and the grouping meet real
//! frequency ties: `rtm place --json` over ~22k-access stress and
//! adversarial profiles must reproduce the committed placements byte for
//! byte (the machine-independent `deterministic_slice` of each report).

use rtm_serve::report::deterministic_slice;
use std::process::Command;

/// Runs `rtm place --profile PROFILE --scale 2 --dbcs 8 --json` with
/// `extra` arguments and compares it with `golden`.
fn assert_matches_golden(profile: &str, extra: &[&str], golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_rtm"))
        .args([
            "place",
            "--profile",
            profile,
            "--scale",
            "2",
            "--dbcs",
            "8",
            "--json",
        ])
        .args(extra)
        .output()
        .expect("spawn rtm");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "rtm place --profile {profile} {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = deterministic_slice(&stdout).expect("report has a solution payload");
    let want = deterministic_slice(golden).expect("golden has a solution payload");
    assert!(
        got == want,
        "rtm place --profile {profile} {extra:?} differs from its golden"
    );
}

macro_rules! golden_tests {
    ($($name:ident: $profile:literal, [$($arg:literal),*], $file:literal;)+) => {$(
        #[test]
        fn $name() {
            assert_matches_golden($profile, &[$($arg),*], include_str!(concat!("golden/", $file)));
        }
    )+};
}

golden_tests! {
    stress_afd_ofu: "stress-ctl", ["--strategy", "afd-ofu"], "place_stress-ctl_afd-ofu.json";
    stress_dma_ofu: "stress-ctl", ["--strategy", "dma-ofu"], "place_stress-ctl_dma-ofu.json";
    stress_dma_chen: "stress-ctl", ["--strategy", "dma-chen"], "place_stress-ctl_dma-chen.json";
    stress_dma_sr: "stress-ctl", ["--strategy", "dma-sr"], "place_stress-ctl_dma-sr.json";
    stress_dma_multi_sr: "stress-ctl", ["--strategy", "dma-multi-sr", "--capacity", "1024"],
        "place_stress-ctl_dma-multi-sr.json";
    adversarial_afd_ofu: "adv-sweep", ["--strategy", "afd-ofu"], "place_adv-sweep_afd-ofu.json";
    adversarial_dma_ofu: "adv-sweep", ["--strategy", "dma-ofu"], "place_adv-sweep_dma-ofu.json";
    adversarial_dma_chen: "adv-sweep", ["--strategy", "dma-chen"], "place_adv-sweep_dma-chen.json";
    adversarial_dma_sr: "adv-sweep", ["--strategy", "dma-sr"], "place_adv-sweep_dma-sr.json";
    adversarial_dma_multi_sr: "adv-sweep", ["--strategy", "dma-multi-sr", "--capacity", "1024"],
        "place_adv-sweep_dma-multi-sr.json";
}

/// At the default capacity the profile fills the 8 DBCs almost exactly,
/// so a partly full chain DBC would leave the leftover too little room:
/// the solve must still finish with a complete placement.
#[test]
fn dma_multi_sr_places_a_nearly_full_geometry() {
    let out = Command::new(env!("CARGO_BIN_EXE_rtm"))
        .args([
            "place",
            "--profile",
            "stress-ctl",
            "--scale",
            "2",
            "--dbcs",
            "8",
        ])
        .args(["--strategy", "dma-multi-sr", "--json"])
        .output()
        .expect("spawn rtm");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(deterministic_slice(&String::from_utf8_lossy(&out.stdout)).is_some());
}
