//! The load generator: replays a mixed query stream against a live
//! daemon and measures what the serving layer claims to deliver.
//!
//! Three phases per run:
//!
//! 1. **Reference** — every unique query is solved *in process* with a
//!    fresh [`PlacementProblem`](rtm_placement::PlacementProblem) (no
//!    cache, no shared pool): the cold single-shot answers the daemon's
//!    responses must be bit-identical to.
//! 2. **Warmup (sequential)** — each query once over one connection:
//!    cold latencies and cold `dbc_recomputations`, then once more for
//!    the clean warm counts (sequential, so per-solve stat deltas aren't
//!    interleaved by concurrent solves on the same session).
//! 3. **Concurrent** — `clients` connections replay the whole mix
//!    `rounds` times each: client-side latency percentiles, server-side
//!    `elapsed_ms` percentiles (what the deadline gate judges), and a
//!    bit-identity check of every response's deterministic payload
//!    against the phase-1 reference.
//!
//! The result is a [`LoadReport`]; `rtm-bench serve` serializes it to
//! `BENCH_serve.json` and CI greps the verdict fields.

use crate::json;
use crate::protocol::{parse_request, PlaceRequest, Request};
use crate::report::{deterministic_slice, solution_fields, Geometry};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address.
    pub addr: SocketAddr,
    /// Concurrent client connections in phase 3.
    pub clients: usize,
    /// Times each client replays the full query mix.
    pub rounds: usize,
    /// Must match the server's `default_deadline_ms` so the in-process
    /// references resolve identical budgets.
    pub default_deadline_ms: u64,
}

/// Nearest-rank latency percentiles (milliseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed.
    pub max: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `samples` (sorted in place).
    pub fn of(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let at = |p: f64| {
            let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
            samples[rank.clamp(1, samples.len()) - 1]
        };
        Self {
            p50: at(50.0),
            p95: at(95.0),
            p99: at(99.0),
            max: samples[samples.len() - 1],
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Unique queries in the mix.
    pub queries: usize,
    /// Total `place` requests sent (all phases).
    pub requests: u64,
    /// Every response's deterministic payload matched its cold in-process
    /// reference.
    pub identical: bool,
    /// Responses whose payload differed from the reference.
    pub mismatches: u64,
    /// `error:` responses received (expected: none).
    pub errors: u64,
    /// Client-observed round-trip latency, concurrent phase.
    pub client_ms: Percentiles,
    /// Server-reported `elapsed_ms`, concurrent phase (the deadline gate
    /// judges this — it excludes client/socket overhead).
    pub server_ms: Percentiles,
    /// Σ cold `dbc_recomputations` over the mix (first solves).
    pub cold_recomputations: u64,
    /// Σ warm `dbc_recomputations` over the mix (sequential re-solves).
    pub warm_recomputations: u64,
    /// The warm pass recomputed strictly less than the cold pass.
    pub warm_cache_win: bool,
    /// The warm pass took strictly less client wall time than the cold
    /// pass (reported beside `warm_cache_win`, which counts only
    /// recomputations; not a gate).
    pub warm_wall_win: bool,
    /// Cold Σ client latency over the mix (warmup pass), ms.
    pub cold_mix_ms: f64,
    /// Warm Σ client latency over the mix (sequential re-pass), ms.
    pub warm_mix_ms: f64,
    /// trace_hits / (trace_hits + trace_misses) from the daemon's final
    /// `stats`.
    pub trace_hit_rate: f64,
    /// session_hits / (session_hits + session_misses), ditto.
    pub session_hit_rate: f64,
    /// The default deadline the gate compares `server_ms.p99` against.
    pub deadline_ms: u64,
}

/// A connected protocol client (one line out, one line in).
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // One write per request on a TCP_NODELAY socket: no request waits
        // on Nagle for the daemon's delayed ACK.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Self {
            reader,
            writer: stream,
        })
    }

    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| format!("recv: {e}"))?;
        if resp.is_empty() {
            return Err("connection closed by server".into());
        }
        Ok(resp.trim_end().to_string())
    }
}

/// The standard mixed workload: every expected/stress tier crossed with a
/// representative strategy spread — deterministic heuristics, the paper's
/// GA, and seeded eval-budget SA/tabu/portfolio (deterministic budgets, so
/// bit-identity is checkable end to end).
pub fn standard_mix(scale: f64, budget_evals: u64) -> Vec<String> {
    let mut mix = Vec::new();
    for (profile, strategy) in [
        ("expected-ctl", "dma-sr"),
        ("expected-dsp", "dma-sr"),
        ("expected-sci", "dma-chen"),
        ("stress-ctl", "afd-ofu"),
        ("stress-dsp", "dma-ofu"),
    ] {
        mix.push(format!(
            "place profile={profile} scale={scale} strategy={strategy}"
        ));
    }
    mix.push(format!(
        "place profile=expected-ctl scale={scale} strategy=sa seed=11 budget-evals={budget_evals}"
    ));
    mix.push(format!(
        "place profile=expected-dsp scale={scale} strategy=tabu seed=12 budget-evals={budget_evals}"
    ));
    mix.push(format!(
        "place profile=stress-ctl scale={scale} strategy=portfolio seed=13 budget-evals={budget_evals}"
    ));
    mix
}

/// Parses a `place` request line into its [`PlaceRequest`].
fn place_request(line: &str) -> Result<PlaceRequest, String> {
    match parse_request(line).map_err(|e| format!("`{line}`: {e}"))? {
        Request::Place(p) => Ok(*p),
        other => Err(format!("`{line}` is not a place request ({other:?})")),
    }
}

/// Runs the three phases against `config.addr` with the given query mix.
///
/// # Errors
///
/// Connection failures, reference-solve failures, or a malformed mix.
pub fn run(config: &LoadgenConfig, mix: &[String]) -> Result<LoadReport, String> {
    if mix.is_empty() {
        return Err("empty query mix".into());
    }
    // Phase 1: cold in-process references.
    let mut references = Vec::with_capacity(mix.len());
    for line in mix {
        let req = place_request(line)?;
        let (strategy, geom, seq, sol) = req
            .reference_solution(config.default_deadline_ms)
            .map_err(|e| format!("reference for `{line}`: {e}"))?;
        let fields = solution_fields(
            &strategy,
            &Geometry::flat(geom.dbcs, geom.capacity, geom.ports),
            &seq,
            &sol,
        );
        let slice = deterministic_slice(&fields)
            .ok_or_else(|| format!("reference for `{line}` has no payload"))?
            .to_string();
        references.push(slice);
    }

    let requests = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let check = |line: &str, resp: &str| {
        requests.fetch_add(1, Ordering::Relaxed);
        if resp.starts_with("error:") {
            errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = mix.iter().position(|m| m.as_str() == line).unwrap_or(0);
        if deterministic_slice(resp) != Some(references[idx].as_str()) {
            mismatches.fetch_add(1, Ordering::Relaxed);
        }
    };

    // Phase 2: sequential cold + warm passes on one connection.
    let mut client = Client::connect(config.addr)?;
    let pass = |client: &mut Client| -> Result<(u64, f64), String> {
        let mut recomputations = 0u64;
        let mut total_ms = 0.0f64;
        for line in mix {
            let started = Instant::now();
            let resp = client.roundtrip(line)?;
            total_ms += started.elapsed().as_secs_f64() * 1e3;
            check(line, &resp);
            recomputations += json::find_u64(&resp, "dbc_recomputations").unwrap_or(0);
        }
        Ok((recomputations, total_ms))
    };
    let (cold_recomputations, cold_mix_ms) = pass(&mut client)?;
    let (warm_recomputations, warm_mix_ms) = pass(&mut client)?;

    // Phase 3: concurrent replay.
    let mut client_ms = Vec::new();
    let mut server_ms = Vec::new();
    std::thread::scope(|scope| -> Result<(), String> {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|offset| {
                let check = &check;
                scope.spawn(move || -> Result<(Vec<f64>, Vec<f64>), String> {
                    let mut client = Client::connect(config.addr)?;
                    let mut lat = Vec::new();
                    let mut srv = Vec::new();
                    for round in 0..config.rounds.max(1) {
                        // Stagger start offsets so clients collide on
                        // different sessions each round.
                        for i in 0..mix.len() {
                            let line = &mix[(i + offset + round) % mix.len()];
                            let started = Instant::now();
                            let resp = client.roundtrip(line)?;
                            lat.push(started.elapsed().as_secs_f64() * 1e3);
                            check(line, &resp);
                            if let Some(ms) = json::find_f64(&resp, "elapsed_ms") {
                                srv.push(ms);
                            }
                        }
                    }
                    Ok((lat, srv))
                })
            })
            .collect();
        for h in handles {
            let (lat, srv) = h.join().map_err(|_| "load client panicked".to_string())??;
            client_ms.extend(lat);
            server_ms.extend(srv);
        }
        Ok(())
    })?;

    // Final stats snapshot from the daemon.
    let stats = client.roundtrip("stats")?;
    let rate = |hits: &str, misses: &str| {
        let h = json::find_u64(&stats, hits).unwrap_or(0) as f64;
        let m = json::find_u64(&stats, misses).unwrap_or(0) as f64;
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    };

    let mismatches = mismatches.load(Ordering::Relaxed);
    let errors = errors.load(Ordering::Relaxed);
    Ok(LoadReport {
        queries: mix.len(),
        requests: requests.load(Ordering::Relaxed),
        identical: mismatches == 0 && errors == 0,
        mismatches,
        errors,
        client_ms: Percentiles::of(&mut client_ms),
        server_ms: Percentiles::of(&mut server_ms),
        cold_recomputations,
        warm_recomputations,
        warm_cache_win: warm_recomputations < cold_recomputations,
        warm_wall_win: warm_mix_ms < cold_mix_ms,
        cold_mix_ms,
        warm_mix_ms,
        trace_hit_rate: rate("trace_hits", "trace_misses"),
        session_hit_rate: rate("session_hits", "session_misses"),
        deadline_ms: config.default_deadline_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::of(&mut xs);
        assert_eq!((p.p50, p.p95, p.p99, p.max), (50.0, 95.0, 99.0, 100.0));
        let mut one = vec![7.0];
        let p = Percentiles::of(&mut one);
        assert_eq!((p.p50, p.p99), (7.0, 7.0));
    }

    #[test]
    fn standard_mix_parses_and_materializes() {
        for line in standard_mix(0.05, 200) {
            let req = place_request(&line).unwrap();
            req.materialize()
                .unwrap_or_else(|e| panic!("`{line}`: {e}"));
        }
    }

    /// End-to-end smoke: a tiny mix against a live daemon must come back
    /// bit-identical with a measured warm-cache win.
    #[test]
    fn tiny_load_run_is_identical_and_warms_up() {
        let server = Server::bind(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.spawn().unwrap();
        let config = LoadgenConfig {
            addr: handle.addr(),
            clients: 3,
            rounds: 2,
            default_deadline_ms: 10_000,
        };
        let mix = vec![
            "place profile=expected-ctl scale=0.05 strategy=dma-sr".to_string(),
            "place profile=expected-ctl scale=0.05 strategy=sa seed=5 budget-evals=150".to_string(),
            "place profile=stress-ctl scale=0.05 strategy=tabu seed=6 budget-evals=150".to_string(),
        ];
        let report = run(&config, &mix).unwrap();
        assert!(
            report.identical,
            "mismatches={} errors={}",
            report.mismatches, report.errors
        );
        // 2 sequential passes + 3 clients × 2 rounds × 3 queries.
        assert_eq!(report.requests, (2 * 3 + 3 * 2 * 3) as u64);
        assert!(report.warm_cache_win, "{report:?}");
        assert!(report.session_hit_rate > 0.5, "{report:?}");
        handle.shutdown();
    }
}
