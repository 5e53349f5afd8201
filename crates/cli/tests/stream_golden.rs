//! Golden output of the bounded-memory `--stream` path: `rtm place
//! --stream` and `rtm simulate --stream` must print exactly the committed
//! text (placement, per-DBC shifts, simulator totals) for a fixed profile,
//! scale, budget and seed. Only the wall-clock figure of the
//! `search: … best found after X ms` line may differ.

use std::process::Command;

/// The `--stream` invocation the goldens were recorded with.
const STREAM_ARGS: &str =
    "--profile stress-ctl --scale 0.05 --stream --strategy sa --budget-evals 300 --seed 3";

/// The lines of `output`, with the timing dropped from
/// `search: N evals, best found after X ms`.
fn untimed_lines(output: &str) -> Vec<&str> {
    output
        .lines()
        .map(|line| match line.split_once(", best found after ") {
            Some((head, _)) if line.starts_with("search: ") => head,
            _ => line,
        })
        .collect()
}

/// Runs `rtm <command> STREAM_ARGS` and compares it with `golden`.
fn assert_matches_golden(command: &str, golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_rtm"))
        .arg(command)
        .args(STREAM_ARGS.split(' '))
        .output()
        .expect("spawn rtm");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "rtm {command} --stream failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(untimed_lines(&stdout), untimed_lines(golden));
}

#[test]
fn place_stream_matches_golden() {
    assert_matches_golden("place", include_str!("golden/place_stream_sa.txt"));
}

#[test]
fn simulate_stream_matches_golden() {
    assert_matches_golden("simulate", include_str!("golden/simulate_stream_sa.txt"));
}
