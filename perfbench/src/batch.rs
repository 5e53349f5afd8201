//! The CLI workloads: every query is one `rtm place|simulate --trace F
//! --json` child process, run sequentially in whole passes over the
//! workload's query list.
//!
//! * `compile-suite` — the 31 suite benchmarks under `dma-sr`, `ga`, `sa`
//!   and `portfolio`. Small traces that stay in the engine's caches, so
//!   evaluation, search, GA and RNG do the work; seeding is a few ms of
//!   each solve and no serve code runs.
//! * `large-trace` — three ~10^5-access traces (stress, expected and
//!   adversarial shapes) under `dma-sr` and `sa` (3:2), through
//!   `simulate`. The working set is far beyond the engine's memo reuse:
//!   trace parsing, the heuristics, the evaluation kernel on long position
//!   lists and the simulator replay do the work.

use crate::check;
use crate::inputs::{derive, large_traces, suite_traces, Input, Rng};
use crate::layers::Traced;
use crate::proc::invoke;
use crate::query::{Query, DBCS};
use crate::replay::Recorder;
use crate::stats;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Eval budget of `compile-suite`'s `sa` queries. Sized so that their
/// latencies overlap the GA's: the workload's median then falls inside
/// that overlap instead of on the edge between two strategy groups, where
/// it would be the single slowest `sa` run.
pub const SUITE_SA_EVALS: u64 = 12_000;
/// Per-lane eval budget of `compile-suite`'s `portfolio` queries.
pub const SUITE_PORTFOLIO_EVALS: u64 = 4_000;
/// Eval budget of `large-trace`'s `sa` queries: search is about a third of
/// the solve beside the four heuristic seeds.
pub const LARGE_EVALS: u64 = 3_000;
/// Set-up repetitions per run (their median is `setup_s`).
pub const SETUP_REPEATS: usize = 5;

/// A CLI workload: its inputs, its queries and the `rtm` command.
#[derive(Debug)]
pub struct Batch {
    /// `place` or `simulate`.
    pub command: &'static str,
    /// The generated traces.
    pub inputs: Vec<Input>,
    /// The queries of one pass, in order.
    pub queries: Vec<Query>,
    /// Nominal wall time of one pass on the reference machine (2 CPUs).
    pub pass_seconds: f64,
}

impl Batch {
    /// `compile-suite` for `seed`.
    pub fn compile_suite(seed: u64) -> Self {
        let inputs = suite_traces(seed);
        let s = derive(seed, "search", 0);
        let queries = (0..inputs.len())
            .flat_map(|i| {
                [
                    Query::plain(i, "dma-sr"),
                    Query::plain(i, "ga"),
                    Query::search(i, "sa", SUITE_SA_EVALS, s),
                    Query::search(i, "portfolio", SUITE_PORTFOLIO_EVALS, s),
                ]
            })
            .collect();
        Self {
            command: "place",
            inputs,
            queries,
            pass_seconds: 9.0,
        }
    }

    /// `large-trace` for `seed`.
    pub fn large_trace(seed: u64) -> Self {
        let inputs = large_traces(seed);
        let s = derive(seed, "search", 0);
        // Each trace is placed three times with `dma-sr` and twice with
        // `sa` per pass (repeated compiles of the same module). With three
        // traces, the workload's median then falls in the middle of the
        // slowest trace's `dma-sr` runs; a 1:1 mix would put it on the
        // edge between the two strategies, on a single extreme run.
        let queries = (0..inputs.len())
            .flat_map(|i| {
                [
                    Query::plain(i, "dma-sr"),
                    Query::plain(i, "dma-sr"),
                    Query::plain(i, "dma-sr"),
                    Query::search(i, "sa", LARGE_EVALS, s),
                    Query::search(i, "sa", LARGE_EVALS, s),
                ]
            })
            .collect();
        Self {
            command: "simulate",
            inputs,
            queries,
            pass_seconds: 15.0,
        }
    }

    /// The workload by name.
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        match name {
            "compile-suite" => Some(Self::compile_suite(seed)),
            "large-trace" => Some(Self::large_trace(seed)),
            _ => None,
        }
    }

    /// Query identity: trace name and strategy.
    pub fn key(&self, q: &Query) -> String {
        format!("{}|{}", self.inputs[q.input].name, q.strategy)
    }
}

/// One invocation as measured.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the pass's queries.
    pub query: usize,
    /// Spawn to exit.
    pub latency_ms: f64,
    /// Peak RSS sampled while it ran (kB).
    pub peak_rss_kb: u64,
    /// Why it failed, if it did.
    pub error: Option<String>,
}

/// Everything one CLI-workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The workload.
    pub batch: Batch,
    /// The set-up repetitions' wall times.
    pub setup_s: Vec<f64>,
    /// The trace files of the kept set-up, by input index.
    pub files: Vec<PathBuf>,
    /// Set-up warm-up failures.
    pub warmup_errors: Vec<String>,
    /// Every measured invocation.
    pub samples: Vec<Sample>,
    /// Wall time of the measured passes.
    pub window_s: f64,
    /// Per query index: the first answer's deterministic slice and its
    /// verified shift count.
    pub verified: HashMap<usize, (String, u64)>,
}

fn write_inputs(batch: &Batch, dir: &Path) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    batch
        .inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let path = dir.join(format!("trace-{i:02}.txt"));
            std::fs::write(&path, &input.text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// Checks one invocation's report: the first answer to a query gets the
/// full independent check, later ones must match it byte for byte.
fn check_report(
    batch: &Batch,
    verified: &mut HashMap<usize, (String, u64)>,
    qi: usize,
    report: &str,
) -> Result<(), String> {
    let q = &batch.queries[qi];
    let slice = rtm_serve::report::deterministic_slice(report)
        .ok_or_else(|| format!("{}: malformed report", batch.key(q)))?;
    match verified.get(&qi) {
        Some((s, _)) if s == slice => Ok(()),
        Some(_) => Err(format!(
            "{}: answer differs from the first one",
            batch.key(q)
        )),
        None => {
            let shifts = check::verify(report, &batch.inputs[q.input].seq, DBCS)
                .map_err(|e| format!("{}: {e}", batch.key(q)))?;
            verified.insert(qi, (slice.to_string(), shifts));
            Ok(())
        }
    }
}

/// Runs set-up [`SETUP_REPEATS`] times (generation, file writing, one
/// warm-up invocation), then as many whole passes over the queries as fit
/// `seconds` at the nominal pass time.
///
/// # Errors
///
/// When the work directory cannot be written.
pub fn run(
    rtm: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        let started = Instant::now();
        let batch = Batch::by_name(workload, seed).ok_or("unknown CLI workload")?;
        let files = write_inputs(&batch, &dir.join(format!("setup-{rep}")))?;
        let warm = batch.queries[0].cli_args(batch.command, &files[0]);
        let warm = invoke(rtm, &warm);
        setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPEATS {
            kept = Some((batch, files, warm));
        } else {
            let _ = std::fs::remove_dir_all(dir.join(format!("setup-{rep}")));
        }
    }
    let (batch, files, warm) = kept.expect("at least one set-up");
    let mut verified = HashMap::new();
    let warmup_errors: Vec<String> = match warm {
        Ok(inv) => check_report(&batch, &mut verified, 0, &inv.stdout).err(),
        Err(e) => Some(e),
    }
    .into_iter()
    .collect();

    // Whole passes only, each in a fresh seeded order: every pass has the
    // workload's exact mix. The pass count is fixed by `seconds` and the
    // nominal pass time, not by a clock, so every run of the workload does
    // the same work and its percentiles sit at the same ranks; a slower
    // program takes longer instead of doing less.
    let passes = ((seconds / batch.pass_seconds).round() as u64).max(1);
    let mut samples = Vec::new();
    let started = Instant::now();
    for pass in 0..passes {
        let mut order: Vec<usize> = (0..batch.queries.len()).collect();
        let mut rng = Rng::new(derive(seed, "pass", pass));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for qi in order {
            let q = &batch.queries[qi];
            let sample = match invoke(rtm, &q.cli_args(batch.command, &files[q.input])) {
                Ok(inv) => Sample {
                    query: qi,
                    latency_ms: inv.wall.as_secs_f64() * 1e3,
                    peak_rss_kb: inv.peak_rss_kb,
                    error: check_report(&batch, &mut verified, qi, &inv.stdout).err(),
                },
                Err(e) => Sample {
                    query: qi,
                    latency_ms: 0.0,
                    peak_rss_kb: 0,
                    error: Some(e),
                },
            };
            samples.push(sample);
        }
    }
    let window_s = started.elapsed().as_secs_f64();
    Ok(Outcome {
        batch,
        setup_s,
        files,
        warmup_errors,
        samples,
        window_s,
        verified,
    })
}

/// The in-process replay of one pass's distinct queries through the CLI's
/// call chain. Each query runs three times back to back — through the `rtm` binary, in
/// process with span recording, and in process without — in an order that
/// rotates from query to query, so drift in machine speed cancels out of
/// both the tracing overhead and `cli.overhead_ms`. Returns the traced
/// replay and `cli.overhead_ms`: per query, the binary's wall time minus
/// the untraced in-process one (without the simulator check that `place`
/// does not run), the median over queries.
///
/// # Errors
///
/// The first query whose binary or replayed answer fails or differs from
/// the binary's verified answer.
pub fn replay(rtm: &Path, outcome: &Outcome) -> Result<(Traced, f64), String> {
    let mut traced = Recorder::new(true);
    let mut plain = Recorder::new(false);
    let mut wall = [0.0f64; 2];
    let mut overheads = Vec::new();
    for (qi, q) in outcome.batch.queries.iter().enumerate() {
        // A repeated query replays exactly as its first occurrence did.
        if outcome.batch.queries[..qi].contains(q) {
            continue;
        }
        let key = outcome.batch.key(q);
        let path = &outcome.files[q.input];
        let (mut binary_s, mut plain_s) = (0.0, 0.0);
        for step in 0..3 {
            match (qi + step) % 3 {
                0 => {
                    let inv = invoke(rtm, &q.cli_args(outcome.batch.command, path))?;
                    let same = rtm_serve::report::deterministic_slice(&inv.stdout)
                        .zip(outcome.verified.get(&qi))
                        .is_some_and(|(s, (v, _))| s == v);
                    if !same {
                        return Err(format!("{key}: answer differs from the first one"));
                    }
                    binary_s = inv.wall.as_secs_f64();
                }
                variant => {
                    let on = variant == 1;
                    let rec = if on { &mut traced } else { &mut plain };
                    let started = Instant::now();
                    let shifts = rec.cli_request(qi as u64, path, q)?;
                    let took = started.elapsed().as_secs_f64();
                    wall[usize::from(on)] += took;
                    if !on {
                        plain_s = took;
                    }
                    match outcome.verified.get(&qi) {
                        Some((_, v)) if *v == shifts => {}
                        other => {
                            return Err(format!(
                                "{key}: in-process replay gives {shifts} shifts, rtm {}",
                                other.map_or("no verified answer".into(), |(_, v)| v.to_string())
                            ))
                        }
                    }
                }
            }
        }
        let sim_s = if outcome.batch.command == "place" {
            traced
                .tracer
                .spans()
                .iter()
                .filter(|s| s.name == "sim.run" && s.request == qi as u64)
                .map(|s| s.duration_ns() as f64 / 1e9)
                .sum()
        } else {
            0.0
        };
        overheads.push((binary_s - (plain_s - sim_s)) * 1e3);
    }
    let traced = Traced {
        rec: traced,
        window_from: 0,
        traced_s: wall[1],
        untraced_s: wall[0],
    };
    Ok((traced, stats::median(&overheads).unwrap_or(0.0)))
}

/// `shifts_geomean` over the distinct verified queries.
pub fn shifts_geomean(outcome: &Outcome) -> f64 {
    let mut v: Vec<u64> = outcome.verified.values().map(|(_, s)| *s).collect();
    v.sort_unstable();
    stats::geomean(&v)
}
