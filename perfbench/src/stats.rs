//! Percentiles and summaries of measured samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p·n/100)`. A
//! percentile is *reportable* only when at least [`MIN_BEYOND`] samples lie
//! beyond that rank; a tail read off fewer samples is one or two outliers,
//! not a percentile.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (integer percent, 1..=100)
/// among `n ≥ 1` samples. Integer arithmetic, so `p·n/100` never picks up
/// a rounding error.
pub fn nearest_rank(n: usize, p: u32) -> usize {
    let p = p.clamp(1, 100) as usize;
    (p * n).div_ceil(100).clamp(1, n.max(1))
}

/// Samples strictly beyond percentile `p`'s rank among `n` samples.
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn reportable(n: usize, p: u32) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile `p` of `samples` (any order); `None` when empty.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Median as the midpoint of the two middle samples (used for set-up
/// repetitions and per-query summaries, not for latency tails).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive values (a zero is counted as one, so a
/// perfect placement cannot zero the whole mean); `0.0` when empty.
pub fn geomean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| (v.max(1) as f64).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// A latency distribution summary: nearest-rank p50/p90/p99 plus how many
/// samples lie beyond each.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// Sample count.
    pub n: usize,
    /// `(percent, value, samples beyond)` for 50, 90 and 99.
    pub points: Vec<(u32, f64, usize)>,
}

impl Tail {
    /// Summarizes `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let n = samples.len();
        let points = [50, 90, 99]
            .into_iter()
            .map(|p| Some((p, percentile(samples, p)?, beyond(n, p))))
            .collect::<Option<Vec<_>>>()?;
        Some(Self { n, points })
    }

    /// The value at percentile `p` (one of 50, 90, 99).
    pub fn at(&self, p: u32) -> f64 {
        self.points
            .iter()
            .find(|(q, _, _)| *q == p)
            .map_or(0.0, |&(_, v, _)| v)
    }

    /// `{"n":…,"p50":{"value":…,"beyond":…,"reportable":…},…}` for the
    /// run details.
    pub fn to_json(&self) -> String {
        let pts: Vec<String> = self
            .points
            .iter()
            .map(|&(p, v, b)| {
                format!(
                    "\"p{p}\":{{\"value\":{v},\"beyond\":{b},\"reportable\":{}}}",
                    b >= MIN_BEYOND
                )
            })
            .collect();
        format!("{{\"n\":{},{}}}", self.n, pts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), Some(5.0));
        assert_eq!(percentile(&s, 90), Some(9.0));
        assert_eq!(percentile(&s, 99), Some(10.0));
        assert_eq!(percentile(&s, 100), Some(10.0));
        // Order does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 50), Some(5.0));
        assert_eq!(percentile(&[7.5], 99), Some(7.5));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn rank_uses_exact_integer_arithmetic() {
        // 0.99 * 1100 is 1089.0000000000002 in floating point; the rank
        // must still be exactly 1089.
        assert_eq!(nearest_rank(1100, 99), 1089);
        assert_eq!(nearest_rank(1000, 99), 990);
        assert_eq!(nearest_rank(1001, 99), 991);
        assert_eq!(nearest_rank(3, 50), 2);
        assert_eq!(nearest_rank(1, 99), 1);
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        assert!(reportable(1000, 99));
        assert!(!reportable(999, 99));
        // p90 needs 100 samples, p50 needs 20.
        assert!(reportable(100, 90));
        assert!(!reportable(99, 90));
        assert!(reportable(20, 50));
        assert!(!reportable(19, 50));
        assert_eq!(beyond(0, 50), 0);
    }

    #[test]
    fn tail_reports_sample_counts() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = Tail::of(&s).unwrap();
        assert_eq!(t.n, 200);
        assert_eq!(t.at(50), 100.0);
        assert_eq!(t.at(90), 180.0);
        assert_eq!(t.at(99), 198.0);
        let json = t.to_json();
        assert!(json.contains("\"p90\":{\"value\":180,\"beyond\":20,\"reportable\":true}"));
        assert!(json.contains("\"p99\":{\"value\":198,\"beyond\":2,\"reportable\":false}"));
    }

    #[test]
    fn medians_and_geomeans() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert!((geomean(&[1, 100]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[0, 4]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
