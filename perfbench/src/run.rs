//! One benchmark run: a workload's set-up, its measured window, the
//! checks, and (traced) the replay — summarized as the result line.

use crate::batch;
use crate::inputs::Input;
use crate::layers::{self, BlackBox, Metric, Traced};
use crate::serve_mix;
use crate::spans::to_json_lines;
use crate::stats::{median, Tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve-mix", "compile-suite", "large-trace"];

/// The end-to-end metrics and their units, in report order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("latency_ms.p99", "ms"),
    ("throughput_per_s", "1/s"),
    ("shifts_geomean", "shifts"),
    ("ok_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The `rtm` binary under test.
    pub rtm: PathBuf,
    /// Directory for generated inputs and span dumps.
    pub work_dir: PathBuf,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured window length.
    pub seconds: f64,
    /// Report per-layer metrics from a traced replay.
    pub trace: bool,
}

/// What a run prints: a details line, then the result line.
#[derive(Debug)]
pub struct Report {
    /// Seeds, inputs, sample counts, errors.
    pub details: String,
    /// Whether every answer passed its check.
    pub correct: bool,
    /// Requests or invocations attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", rtm_serve::report::json_escape(s))
}

fn json_list(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// The shared end-to-end summary of a black-box window.
struct EndToEnd<'a> {
    latencies_ms: Vec<f64>,
    ok: u64,
    window_s: f64,
    shifts_geomean: f64,
    attempted: u64,
    errors: Vec<&'a str>,
    setup_s: &'a [f64],
    peak_rss_kb: u64,
}

impl EndToEnd<'_> {
    fn metrics(&self) -> Vec<Metric> {
        let tail = Tail::of(&self.latencies_ms);
        let at = |p| tail.as_ref().map_or(0.0, |t| t.at(p));
        let values = [
            at(50),
            at(90),
            at(99),
            self.ok as f64 / self.window_s,
            self.shifts_geomean,
            (self.attempted - self.errors.len() as u64) as f64 / self.attempted.max(1) as f64,
            median(self.setup_s).unwrap_or(0.0),
            self.peak_rss_kb as f64 / 1024.0,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| Metric::new(n, v, u))
            .collect()
    }

    fn details(&self) -> String {
        format!(
            "\"latency_ms\":{},\"window_s\":{},\"setup_s\":{},\"errors\":{}",
            Tail::of(&self.latencies_ms).map_or("null".into(), |t| t.to_json()),
            self.window_s,
            json_list(self.setup_s.iter().map(f64::to_string)),
            json_list(self.errors.iter().take(5).map(|e| json_str(e)))
        )
    }
}

fn inputs_json<'a>(inputs: impl IntoIterator<Item = &'a Input>) -> String {
    json_list(inputs.into_iter().map(Input::to_json))
}

fn write_spans(opts: &Options, spans: &[crate::spans::Span]) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    let path = opts
        .work_dir
        .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
    std::fs::write(&path, to_json_lines(spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn traced_details(opts: &Options, t: &Traced) -> Result<String, String> {
    let spans = t.rec.tracer.spans();
    let path = write_spans(opts, spans)?;
    let table = layers::self_time_table(spans, t.window_from);
    let rows = layers::attribution(spans, t.window_from);
    let worst = rows.iter().map(|r| r.2).fold(0.0, f64::max);
    let mut s = String::new();
    let _ = write!(
        s,
        ",\"attribution\":{{\"requests\":{},\"max_unattributed_share\":{worst},\"tolerance\":{},\"within\":{}}}",
        rows.len(),
        layers::ATTRIBUTION_TOLERANCE,
        worst <= layers::ATTRIBUTION_TOLERANCE
    );
    let _ = write!(
        s,
        ",\"spans\":{},\"spans_file\":{},\"replay_s\":{{\"traced\":{},\"untraced\":{}}},\"self_ms_per_request\":{{",
        spans.len(),
        json_str(&path.display().to_string()),
        t.traced_s,
        t.untraced_s
    );
    let rows: Vec<String> = table.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    s.push_str(&rows.join(","));
    s.push('}');
    Ok(s)
}

/// A replay's outcome: a failed replay counts as a failure and leaves
/// every layer metric at 0; either way the details record it.
fn traced(
    opts: &Options,
    replayed: Result<Traced, String>,
    details: &mut String,
    failed: &mut u64,
) -> Result<Traced, String> {
    let t = replayed.unwrap_or_else(|e| {
        *failed += 1;
        details.push_str(&format!(",\"replay_error\":{}", json_str(&e)));
        Traced::empty()
    });
    details.push_str(&traced_details(opts, &t)?);
    Ok(t)
}

fn run_serve_mix(opts: &Options) -> Result<Report, String> {
    // A traced run gives half of its time to the replay.
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let out = serve_mix::run(&opts.rtm, opts.seed, seconds)?;
    let ok: Vec<&serve_mix::Sample> = out.samples.iter().filter(|s| s.error.is_none()).collect();
    let mut errors: Vec<&str> = out.warmup.1.iter().map(String::as_str).collect();
    errors.extend(out.samples.iter().filter_map(|s| s.error.as_deref()));
    let e2e = EndToEnd {
        latencies_ms: ok.iter().map(|s| s.latency_ms).collect(),
        ok: ok.len() as u64,
        window_s: out.window_s,
        shifts_geomean: serve_mix::shifts_geomean(&out),
        attempted: out.warmup.0 + out.samples.len() as u64,
        errors,
        setup_s: &out.setup_s,
        peak_rss_kb: out.peak_rss_kb,
    };
    let kind_inputs = |reqs: &[serve_mix::Request], kind| {
        inputs_json(reqs.iter().filter(|r| r.kind == kind).map(|r| &*r.input))
    };
    let window: Vec<serve_mix::Request> = out.samples.iter().map(|s| out.mix.nth(s.id)).collect();
    let mut details = format!(
        "\"requests\":{},\"warmup_requests\":{},\"hot_inputs\":{},\"fill_inputs\":{},\"miss_inputs\":{},{}",
        out.samples.len(),
        out.warmup.0,
        inputs_json(out.mix.hot().iter().map(|i| &**i)),
        kind_inputs(&out.mix.warmup(), serve_mix::Kind::Fill),
        kind_inputs(&window, serve_mix::Kind::Miss),
        e2e.details()
    );
    let mut failed = e2e.errors.len() as u64;
    let metrics = if opts.trace {
        let (solve_ms, io_ms) = serve_mix::server_split(&out.samples);
        let bb = BlackBox {
            cli_overhead_ms: 0.0,
            server_solve_ms: solve_ms,
            server_io_ms: io_ms,
            serve_stats: out.stats,
        };
        let t = traced(opts, serve_mix::replay(&out), &mut details, &mut failed)?;
        layers::layer_metrics(&t, &bb)
    } else {
        e2e.metrics()
    };
    Ok(Report {
        details,
        correct: failed == 0,
        attempted: e2e.attempted,
        failed,
        metrics,
    })
}

fn run_batch(opts: &Options) -> Result<Report, String> {
    let dir = opts
        .work_dir
        .join(format!("{}-{}", opts.workload, std::process::id()));
    // A traced run checks one black-box pass and spends the rest of its
    // time on the replay, which runs the binary again beside each query.
    let seconds = if opts.trace { 0.0 } else { opts.seconds };
    let result = batch::run(&opts.rtm, &opts.workload, opts.seed, seconds, &dir);
    let report = result.and_then(|out| batch_report(opts, &out));
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn batch_report(opts: &Options, out: &batch::Outcome) -> Result<Report, String> {
    let ok: Vec<&batch::Sample> = out.samples.iter().filter(|s| s.error.is_none()).collect();
    let mut errors: Vec<&str> = out.warmup_errors.iter().map(String::as_str).collect();
    errors.extend(out.samples.iter().filter_map(|s| s.error.as_deref()));
    let e2e = EndToEnd {
        latencies_ms: ok.iter().map(|s| s.latency_ms).collect(),
        ok: ok.len() as u64,
        window_s: out.window_s,
        shifts_geomean: batch::shifts_geomean(out),
        attempted: 1 + out.samples.len() as u64,
        errors,
        setup_s: &out.setup_s,
        peak_rss_kb: out.samples.iter().map(|s| s.peak_rss_kb).max().unwrap_or(0),
    };
    let passes = out.samples.len() / out.batch.queries.len().max(1);
    let mut by_strategy: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &ok {
        by_strategy
            .entry(out.batch.queries[s.query].strategy)
            .or_default()
            .push(s.latency_ms);
    }
    let by_strategy: Vec<String> = by_strategy
        .iter()
        .filter_map(|(k, v)| Some(format!("\"{k}\":{}", Tail::of(v)?.to_json())))
        .collect();
    let mut details = format!(
        "\"command\":\"{}\",\"queries\":{},\"passes\":{passes},\"inputs\":{},{},\"latency_ms_by_strategy\":{{{}}}",
        out.batch.command,
        out.batch.queries.len(),
        inputs_json(&out.batch.inputs),
        e2e.details(),
        by_strategy.join(",")
    );
    let mut failed = e2e.errors.len() as u64;
    let metrics = if opts.trace {
        let replayed = batch::replay(&opts.rtm, out);
        let cli_overhead_ms = replayed.as_ref().map_or(0.0, |r| r.1);
        let t = traced(opts, replayed.map(|r| r.0), &mut details, &mut failed)?;
        let bb = BlackBox {
            cli_overhead_ms,
            ..BlackBox::default()
        };
        layers::layer_metrics(&t, &bb)
    } else {
        e2e.metrics()
    };
    Ok(Report {
        details,
        correct: failed == 0,
        attempted: e2e.attempted,
        failed,
        metrics,
    })
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload, or a failure that leaves nothing to measure (the
/// binary cannot be started, the work directory cannot be written).
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut report = match opts.workload.as_str() {
        "serve-mix" => run_serve_mix(opts)?,
        "compile-suite" | "large-trace" => run_batch(opts)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    report.details = format!(
        "{{\"details\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},{}}}}}",
        json_str(&opts.workload),
        opts.seed,
        opts.seconds,
        opts.trace,
        report.details
    );
    Ok(report)
}

/// Parses `--rtm PATH --work-dir DIR --workload W --seed N --seconds S
/// --trace 0|1`.
///
/// # Errors
///
/// A missing, unknown or malformed option.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args.into_iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), v);
    }
    let mut take = |k: &str| map.remove(k).ok_or_else(|| format!("missing --{k}"));
    let opts = Options {
        rtm: PathBuf::from(take("rtm")?),
        work_dir: PathBuf::from(take("work-dir")?),
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    };
    if let Some(k) = map.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (expected one of {})",
            opts.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !Path::new(&opts.rtm).is_file() {
        return Err(format!("rtm binary `{}` not found", opts.rtm.display()));
    }
    Ok(opts)
}
