//! Seeded input generation. Every trace the benchmark hands to `rtm` is a
//! pure function of the run's `--seed`: the same seed gives byte-identical
//! trace text, another seed gives other traces.

use rtm_offsetstone::tiers::{
    adversarial_presets, expected_profiles, scaled_dims, stress_profiles,
};
use rtm_offsetstone::{suite, GeneratorConfig};
use rtm_trace::AccessSequence;

/// SplitMix64: a small, fast, well-mixed generator for the benchmark's own
/// choices (request mix, per-trace seeds). The traces themselves come from
/// the repository's generators.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// A seed for the item named `label` (index `i`) of a run seeded `seed`.
pub fn derive(seed: u64, label: &str, i: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    Rng::new(seed ^ h ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// One generated trace: its name, the parsed sequence and the exact text
/// `rtm` receives.
#[derive(Debug, Clone)]
pub struct Input {
    /// Profile name plus the generator seed.
    pub name: String,
    /// The trace as `rtm` parses it.
    pub seq: AccessSequence,
    /// The trace text written to a file or sent inline.
    pub text: String,
}

impl Input {
    fn new(name: String, generated: &AccessSequence) -> Self {
        let text = generated.to_trace_string();
        // Re-parse the text so variable ids follow rtm's first-occurrence
        // interning, exactly as the program under test sees them.
        let seq = AccessSequence::parse(&text).expect("generated trace text parses");
        Self { name, seq, text }
    }

    /// `{"name":…,"accesses":…,"variables":…}` for the run details.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"accesses\":{},\"variables\":{}}}",
            self.name,
            self.seq.len(),
            self.seq.vars().len()
        )
    }
}

/// `compile-suite`: all 31 suite benchmarks, each generated with a seed
/// derived from the run seed.
pub fn suite_traces(seed: u64) -> Vec<Input> {
    suite()
        .iter()
        .map(|b| {
            let s = derive(seed, b.name(), 0);
            Input::new(format!("{}#{s:016x}", b.name()), &b.trace_with_seed(s))
        })
        .collect()
}

/// Suite profiles of 1k–3k accesses, shortest first: the shapes
/// `serve-mix` draws its inline traces from.
pub fn serve_profiles() -> Vec<rtm_offsetstone::BenchmarkProfile> {
    let mut p: Vec<_> = suite()
        .into_iter()
        .map(|b| b.profile().clone())
        .filter(|p| (1_000..=3_000).contains(&p.length))
        .collect();
    p.sort_by_key(|p| (p.length, p.name));
    p
}

/// The `i`-th `serve-mix` trace of kind `label` (`hot`, `fill` or
/// `miss`), an instance of `profile` (see [`serve_profiles`]) seeded from
/// `(seed, label, i)`: distinct `(label, i)` pairs give distinct traces.
pub fn serve_trace(
    seed: u64,
    label: &str,
    i: u64,
    profile: &rtm_offsetstone::BenchmarkProfile,
) -> Input {
    let s = derive(seed, label, i);
    Input::new(
        format!("{}#{s:016x}", profile.name),
        &GeneratorConfig::from(profile).generate(s),
    )
}

/// Accesses per `large-trace` input.
pub const LARGE_ACCESSES: usize = 100_000;

/// `large-trace`: one stress, one expected and one adversarial profile
/// shape, each scaled to about [`LARGE_ACCESSES`] accesses (variables grow
/// by the square root of the scale, as `rtm --scale` does).
pub fn large_traces(seed: u64) -> Vec<Input> {
    let mut out = Vec::new();
    for p in [&stress_profiles()[0], &expected_profiles()[2]] {
        let scale = LARGE_ACCESSES as f64 / p.length as f64;
        let mut cfg = GeneratorConfig::from(p);
        (cfg.variables, cfg.length) = scaled_dims(p.variables, p.length, scale);
        let s = derive(seed, p.name, 0);
        out.push(Input::new(format!("{}#{s:016x}", p.name), &cfg.generate(s)));
    }
    let (name, mut adv) = adversarial_presets().swap_remove(0);
    let scale = LARGE_ACCESSES as f64 / adv.length as f64;
    (adv.variables, adv.length) = scaled_dims(adv.variables, adv.length, scale);
    let s = derive(seed, name, 0);
    out.push(Input::new(format!("{name}#{s:016x}"), &adv.generate(s)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(inputs: &[Input]) -> Vec<&str> {
        inputs.iter().map(|i| i.text.as_str()).collect()
    }

    #[test]
    fn one_seed_gives_identical_inputs_and_another_seed_changes_them() {
        let a = suite_traces(7);
        let b = suite_traces(7);
        let c = suite_traces(8);
        assert_eq!(a.len(), 31);
        assert_eq!(texts(&a), texts(&b));
        assert!(a.iter().zip(&c).all(|(x, y)| x.text != y.text));

        let p = &serve_profiles()[0];
        let x = serve_trace(7, "miss", 3, p);
        assert_eq!(x.text, serve_trace(7, "miss", 3, p).text);
        assert_ne!(x.text, serve_trace(8, "miss", 3, p).text);
        assert_ne!(x.text, serve_trace(7, "miss", 4, p).text);
        assert_ne!(x.text, serve_trace(7, "hot", 3, p).text);
        assert!(serve_profiles()
            .iter()
            .all(|p| (1_000..=3_000).contains(&p.length)));
    }

    #[test]
    fn large_traces_are_seeded_and_about_1e5_accesses() {
        let a = large_traces(1);
        assert_eq!(a.len(), 3);
        for i in &a {
            let n = i.seq.len();
            assert!((95_000..=105_000).contains(&n), "{}: {n}", i.name);
        }
        assert_eq!(texts(&a), texts(&large_traces(1)));
        assert!(a
            .iter()
            .zip(&large_traces(2))
            .all(|(x, y)| x.text != y.text));
    }

    #[test]
    fn rng_is_deterministic_and_bounded() {
        let mut r = Rng::new(42);
        let v: Vec<usize> = (0..100).map(|_| r.below(7)).collect();
        assert!(v.iter().all(|&x| x < 7));
        let mut r2 = Rng::new(42);
        assert_eq!(v, (0..100).map(|_| r2.below(7)).collect::<Vec<_>>());
    }
}
