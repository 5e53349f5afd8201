//! Per-layer metrics from a traced replay, plus the black-box figures that
//! only the client side can see.
//!
//! A layer with no span in a workload's replay (the serve layers on the
//! CLI workloads, a strategy the workload does not run) reports 0: it did
//! no work there.

use crate::proc::ServeStats;
use crate::replay::Recorder;
use crate::spans::{self_times, Span};
use crate::stats::{mean, median, percentile};
use std::collections::BTreeMap;

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) become 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// Inputs to the per-layer metrics measured outside the replay.
#[derive(Debug, Default)]
pub struct BlackBox {
    /// `cli.overhead_ms`, measured by the CLI workloads' replay.
    pub cli_overhead_ms: f64,
    /// The daemon's `served.elapsed_ms` per successful request.
    pub server_solve_ms: Vec<f64>,
    /// Client latency minus `served.elapsed_ms` per successful request.
    pub server_io_ms: Vec<f64>,
    /// Daemon counter deltas over the window.
    pub serve_stats: ServeStats,
}

/// One traced replay with its untraced twin's wall time.
#[derive(Debug)]
pub struct Traced {
    /// The traced replay.
    pub rec: Recorder,
    /// Requests with an id below this are set-up (not summarized).
    pub window_from: u64,
    /// Wall time of the traced replay.
    pub traced_s: f64,
    /// Wall time of the same replay with span recording off.
    pub untraced_s: f64,
}

impl Traced {
    /// A replay that recorded nothing (the replay failed).
    pub fn empty() -> Self {
        Self {
            rec: Recorder::new(false),
            window_from: 0,
            traced_s: 0.0,
            untraced_s: 0.0,
        }
    }
}

/// The unit of each per-layer metric, in report order.
pub const LAYER_METRICS: [(&str, &str); 32] = [
    ("cli.overhead_ms", "ms"),
    ("trace.parse_ms", "ms"),
    ("trace.parse_mb_per_s", "MB/s"),
    ("heuristics.seeds_ms", "ms"),
    ("heuristics.dma_sr_ms", "ms"),
    ("eval.build_ms", "ms"),
    ("eval.evaluations", "count"),
    ("eval.recompute_share", "share"),
    ("eval.memo_contended", "count"),
    ("search.sa_ms", "ms"),
    ("search.tabu_ms", "ms"),
    ("search.ga_ms", "ms"),
    ("search.portfolio_ms", "ms"),
    ("search.us_per_eval", "us"),
    ("search.best_at_share", "share"),
    ("search.lanes_failed", "count"),
    ("session.warm_over_cold", "ratio"),
    ("sim.run_ms", "ms"),
    ("sim.accesses_per_s", "1/s"),
    ("protocol.parse_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.trace_hit_ratio", "share"),
    ("cache.session_hit_ratio", "share"),
    ("cache.evictions", "count"),
    ("report.emit_us", "us"),
    ("report.bytes", "bytes"),
    ("server.solve_ms", "ms"),
    ("server.io_ms.p50", "ms"),
    ("server.io_ms.p99", "ms"),
    ("server.overloaded", "count"),
    ("tracing.overhead_share", "share"),
    ("tracing.unattributed_share", "share"),
];

const NS_PER_MS: f64 = 1e6;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The largest share of one request's traced wall time that its layer
/// spans may leave uncovered.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// Per-request root span duration and its share not covered by any layer
/// span (the replay's own glue), for window requests.
pub fn attribution(spans: &[Span], window_from: u64) -> Vec<(u64, u64, f64)> {
    let selfs = self_times(spans);
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.request >= window_from)
        .map(|(i, s)| {
            let wall = s.duration_ns();
            (s.request, wall, ratio(selfs[i], wall))
        })
        .collect()
}

/// Mean duration (ms) of window spans named `name`.
fn mean_ms(spans: &[Span], window_from: u64, name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && s.request >= window_from)
        .map(|s| s.duration_ns() as f64 / NS_PER_MS)
        .collect();
    mean(&d)
}

/// `session.warm_over_cold`: per query asked more than once, the median
/// repeat solve time over the first solve time; the median over queries.
fn warm_over_cold(rec: &Recorder) -> f64 {
    let spans = rec.tracer.spans();
    let mut by_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &rec.solves {
        if let (Some(key), Some(i)) = (&s.key, s.span) {
            by_key
                .entry(key)
                .or_default()
                .push(spans[i].duration_ns() as f64);
        }
    }
    let ratios: Vec<f64> = by_key
        .values()
        .filter(|v| v.len() > 1 && v[0] > 0.0)
        .filter_map(|v| Some(median(&v[1..])? / v[0]))
        .collect();
    median(&ratios).unwrap_or(0.0)
}

/// Every per-layer metric, in [`LAYER_METRICS`] order.
pub fn layer_metrics(t: &Traced, bb: &BlackBox) -> Vec<Metric> {
    let spans = t.rec.tracer.spans();
    let w = t.window_from;
    let in_window = |r: u64| r >= w;
    let solves: Vec<_> = t
        .rec
        .solves
        .iter()
        .filter(|s| in_window(s.request))
        .collect();
    let search: Vec<_> = solves
        .iter()
        .filter(|s| s.best_at_share.is_some())
        .collect();

    let parse_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "trace.parse" && in_window(s.request))
        .map(Span::duration_ns)
        .sum();
    let parse_bytes: usize = t
        .rec
        .parsed_bytes
        .iter()
        .filter(|(r, _)| in_window(*r))
        .map(|(_, b)| b)
        .sum();
    let sim_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "sim.run" && in_window(s.request))
        .map(Span::duration_ns)
        .sum();
    let sim_accesses: usize = t
        .rec
        .simulated
        .iter()
        .filter(|(r, _)| in_window(*r))
        .map(|(_, n)| n)
        .sum();

    let e = search.iter().fold([0u64; 6], |mut a, s| {
        a[0] += s.engine.evaluations;
        a[1] += s.engine.dbc_recomputations;
        a[2] += s.engine.dbc_recomputations
            + s.engine.dbc_cache_hits
            + s.engine.subseq_cache_hits
            + s.engine.dbc_inherited;
        a[3] += s.engine.memo_contended;
        a[4] += s.evals;
        a[5] += s.lanes_failed;
        a
    });
    let search_ns: u64 = search
        .iter()
        .filter_map(|s| s.span.map(|i| spans[i].duration_ns()))
        .sum();
    let best_at: Vec<f64> = search.iter().filter_map(|s| s.best_at_share).collect();

    let selfs = self_times(spans);
    let lookups: Vec<f64> = t
        .rec
        .cache_hits
        .iter()
        .filter(|(r, _)| in_window(*r))
        .map(|&(_, i)| selfs[i] as f64 / 1e3)
        .collect();
    let report_bytes: Vec<f64> = t
        .rec
        .report_bytes
        .iter()
        .filter(|(r, _)| in_window(*r))
        .map(|&(_, b)| b as f64)
        .collect();
    let unattributed = attribution(spans, w)
        .into_iter()
        .map(|(_, _, share)| share)
        .fold(0.0, f64::max);
    let st = &bb.serve_stats;

    let values = [
        bb.cli_overhead_ms,
        mean_ms(spans, w, "trace.parse"),
        if parse_ns == 0 {
            0.0
        } else {
            parse_bytes as f64 / 1e6 / (parse_ns as f64 / 1e9)
        },
        mean_ms(spans, w, "heuristics.seeds"),
        mean_ms(spans, w, "solve.dma-sr"),
        mean_ms(spans, w, "eval.build"),
        ratio(e[0], search.len() as u64),
        ratio(e[1], e[2]),
        e[3] as f64,
        mean_ms(spans, w, "solve.sa"),
        mean_ms(spans, w, "solve.tabu"),
        mean_ms(spans, w, "solve.ga"),
        mean_ms(spans, w, "solve.portfolio"),
        ratio(search_ns, e[4]) / 1e3,
        mean(&best_at),
        e[5] as f64,
        warm_over_cold(&t.rec),
        mean_ms(spans, w, "sim.run"),
        if sim_ns == 0 {
            0.0
        } else {
            sim_accesses as f64 / (sim_ns as f64 / 1e9)
        },
        mean_ms(spans, w, "protocol.parse") * 1e3,
        mean(&lookups),
        ratio(st.trace_hits, st.trace_hits + st.trace_misses),
        ratio(st.session_hits, st.session_hits + st.session_misses),
        st.evictions as f64,
        mean_ms(spans, w, "report.emit") * 1e3,
        mean(&report_bytes),
        percentile(&bb.server_solve_ms, 50).unwrap_or(0.0),
        percentile(&bb.server_io_ms, 50).unwrap_or(0.0),
        percentile(&bb.server_io_ms, 99).unwrap_or(0.0),
        st.overloaded as f64,
        if t.untraced_s > 0.0 {
            (t.traced_s - t.untraced_s) / t.untraced_s
        } else {
            0.0
        },
        unattributed,
    ];
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect()
}

/// Mean self time (ms) per window request of every span name, for the run
/// details.
pub fn self_time_table(spans: &[Span], window_from: u64) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let requests = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.request >= window_from)
        .count()
        .max(1);
    let mut table: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(selfs) {
        if s.request >= window_from {
            *table.entry(s.name).or_default() += ns as f64 / NS_PER_MS;
        }
    }
    for v in table.values_mut() {
        *v /= requests as f64;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::replay::Recorder;

    #[test]
    fn every_layer_metric_is_reported_once() {
        let t = Traced {
            rec: Recorder::new(true),
            window_from: 0,
            traced_s: 1.0,
            untraced_s: 1.0,
        };
        let m = layer_metrics(&t, &BlackBox::default());
        assert_eq!(m.len(), LAYER_METRICS.len());
        let mut names: Vec<_> = m.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
        assert!(m.iter().all(|m| m.value.is_finite()));
    }

    #[test]
    fn span_self_times_account_for_each_request() {
        // A real CLI-chain replay: the layer spans must cover nearly all
        // of each request's wall time.
        let dir = std::env::temp_dir().join(format!("perfbench-layers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.txt");
        std::fs::write(&path, "a b a b c a c a d d a i e f e f g e g h g i h i").unwrap();
        let mut rec = Recorder::new(true);
        for (i, q) in [Query::plain(0, "dma-sr"), Query::search(0, "sa", 300, 1)]
            .iter()
            .enumerate()
        {
            rec.cli_request(i as u64, &path, q).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
        let rows = attribution(rec.tracer.spans(), 0);
        assert_eq!(rows.len(), 2);
        for (_, wall, share) in rows {
            assert!(wall > 0);
            assert!(share < 0.25, "unattributed share {share}");
        }
        let table = self_time_table(rec.tracer.spans(), 0);
        for name in [
            "trace.parse",
            "solve.dma-sr",
            "solve.sa",
            "sim.run",
            "report.emit",
        ] {
            assert!(table.contains_key(name), "{name} missing: {table:?}");
        }
    }
}
