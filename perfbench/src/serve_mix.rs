//! `serve-mix`: a closed loop of [`CONNECTIONS`] clients against
//! `rtm serve --threads 2`, each request a suite-sized inline trace.
//!
//! Most requests repeat a small hot set of (trace, strategy) queries, which
//! loads the cache's read path and sets the median. Every
//! [`MISS_EVERY`]-th request carries a never-seen trace: set-up fills the
//! daemon's 64-trace LRU, so every miss in the measured window parses,
//! seeds, builds an engine and evicts, which sets the tail. Closed loop,
//! because the daemon's callers are build steps that wait for their
//! placement.
//!
//! The mix's proportions are fixed, only the trace instances depend on the
//! seed: hot queries repeat in seeded shuffled cycles, and misses walk
//! the profile × strategy table in order. So runs with different seeds
//! measure the same mix, and their spread is the measurement's, not the
//! sampling's.

use crate::check;
use crate::inputs::{derive, serve_profiles, serve_trace, Input, Rng};
use crate::layers::Traced;
use crate::proc::{Client, Daemon, ServeStats};
use crate::query::{Query, DBCS, THREADS};
use crate::replay::Recorder;
use crate::stats;
use rtm_placement::WorkerPool;
use rtm_serve::cache::SessionCache;
use rtm_serve::json;
use rtm_serve::report::deterministic_slice;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client connections (one per CPU of the reference machine).
pub const CONNECTIONS: usize = 2;
/// Traces in the hot set.
pub const HOT_TRACES: usize = 12;
/// The daemon's default cross-request cache capacity (`--max-traces`).
pub const CACHE_TRACES: usize = 64;
/// Every this-many-th request carries a never-seen trace (5%).
pub const MISS_EVERY: u64 = 20;
/// The request mix's strategies, drawn uniformly.
pub const STRATEGIES: [&str; 4] = ["dma-sr", "afd-ofu", "sa", "tabu"];
/// Eval budget of the `sa`/`tabu` requests.
pub const SEARCH_EVALS: u64 = 2_000;

/// Why a request was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A hot-set query (warm-up or window).
    Hot,
    /// A set-up request that fills the daemon's cache.
    Fill,
    /// A never-seen trace in the window.
    Miss,
}

/// One request of the mix.
#[derive(Debug, Clone)]
pub struct Request {
    /// Query identity: trace name and strategy.
    pub key: String,
    /// The query.
    pub query: Query,
    /// The trace it carries.
    pub input: Arc<Input>,
    /// The protocol line.
    pub line: String,
    /// Why it was sent.
    pub kind: Kind,
}

/// The seeded request generator.
#[derive(Debug)]
pub struct Mix {
    seed: u64,
    profiles: Vec<rtm_offsetstone::BenchmarkProfile>,
    hot: Vec<Arc<Input>>,
}

impl Mix {
    /// Generates the hot set for `seed`: instances of [`HOT_TRACES`]
    /// profiles spread evenly over the suite-sized ones.
    pub fn new(seed: u64) -> Self {
        let profiles = serve_profiles();
        let hot = (0..HOT_TRACES)
            .map(|i| {
                let p = &profiles[i * profiles.len() / HOT_TRACES];
                Arc::new(serve_trace(seed, "hot", i as u64, p))
            })
            .collect();
        Self {
            seed,
            profiles,
            hot,
        }
    }

    /// The hot traces.
    pub fn hot(&self) -> &[Arc<Input>] {
        &self.hot
    }

    fn request(&self, input: Arc<Input>, strategy: &'static str, kind: Kind) -> Request {
        let query = if matches!(strategy, "sa" | "tabu") {
            Query::search(0, strategy, SEARCH_EVALS, derive(self.seed, "search", 0))
        } else {
            Query::plain(0, strategy)
        };
        Request {
            key: format!("{}|{strategy}", input.name),
            line: query.serve_line(&input.text),
            query,
            input,
            kind,
        }
    }

    /// Set-up requests: every hot query once (its cold solve), then
    /// `dma-sr` on fresh traces until the daemon's cache is full.
    pub fn warmup(&self) -> Vec<Request> {
        let mut out = Vec::new();
        for input in &self.hot {
            for s in STRATEGIES {
                out.push(self.request(Arc::clone(input), s, Kind::Hot));
            }
        }
        for i in 0..CACHE_TRACES - HOT_TRACES {
            let p = &self.profiles[i % self.profiles.len()];
            let fill = Arc::new(serve_trace(self.seed, "fill", i as u64, p));
            out.push(self.request(fill, "dma-sr", Kind::Fill));
        }
        out
    }

    /// Window request `i`: a deterministic function of the seed and `i`.
    pub fn nth(&self, i: u64) -> Request {
        if i % MISS_EVERY == MISS_EVERY - 1 {
            let k = i / MISS_EVERY;
            let strategy = STRATEGIES[(k % STRATEGIES.len() as u64) as usize];
            // A stride coprime to the profile count visits every profile
            // once per cycle with short and long ones interleaved, so any
            // prefix of the miss stream has the same size mix.
            let n = self.profiles.len();
            let stride = (n * 5 / 8..n).find(|s| gcd(*s, n) == 1).unwrap_or(1);
            let m = (k / STRATEGIES.len() as u64) as usize;
            let p = &self.profiles[m * stride % n];
            let input = Arc::new(serve_trace(self.seed, "miss", k, p));
            return self.request(input, strategy, Kind::Miss);
        }
        // Hot request `j` is position `j % n` of cycle `j / n`, a seeded
        // shuffle of the `n` hot queries.
        let j = i - i / MISS_EVERY;
        let n = (HOT_TRACES * STRATEGIES.len()) as u64;
        let mut order: Vec<usize> = (0..n as usize).collect();
        let mut rng = Rng::new(derive(self.seed, "cycle", j / n));
        for k in (1..order.len()).rev() {
            order.swap(k, rng.below(k + 1));
        }
        let q = order[(j % n) as usize];
        let input = Arc::clone(&self.hot[q / STRATEGIES.len()]);
        self.request(input, STRATEGIES[q % STRATEGIES.len()], Kind::Hot)
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The first answer to each distinct query: its deterministic slice and
/// verified shift count.
#[derive(Debug, Default)]
pub struct Verified(Mutex<HashMap<String, (String, u64, Kind)>>);

impl Verified {
    /// Checks `resp` to `req`: the first answer to a query gets the full
    /// independent check, every later one must match it byte for byte.
    ///
    /// # Errors
    ///
    /// Why the response is wrong.
    pub fn check(&self, req: &Request, resp: &str) -> Result<u64, String> {
        if resp.starts_with("error") {
            return Err(format!("{}: {resp}", req.key));
        }
        let slice =
            deterministic_slice(resp).ok_or_else(|| format!("{}: malformed response", req.key))?;
        let known = self
            .0
            .lock()
            .expect("no verifier panics while holding the map")
            .get(&req.key)
            .map(|(s, shifts, _)| (s == slice, *shifts));
        match known {
            Some((true, shifts)) => Ok(shifts),
            Some((false, _)) => Err(format!("{}: answer differs from the first one", req.key)),
            None => {
                let shifts = check::verify(resp, &req.input.seq, DBCS)
                    .map_err(|e| format!("{}: {e}", req.key))?;
                self.0
                    .lock()
                    .expect("no verifier panics while holding the map")
                    .insert(req.key.clone(), (slice.to_string(), shifts, req.kind));
                Ok(shifts)
            }
        }
    }

    /// Verified shifts of every distinct query of `kind`.
    pub fn shifts(&self, kind: Kind) -> HashMap<String, u64> {
        self.0
            .lock()
            .expect("no verifier panics while holding the map")
            .iter()
            .filter(|(_, (_, _, k))| *k == kind)
            .map(|(key, (_, s, _))| (key.clone(), *s))
            .collect()
    }
}

/// One window request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Window request index.
    pub id: u64,
    /// Send to full response.
    pub latency_ms: f64,
    /// The daemon's own `served.elapsed_ms` (successful responses).
    pub server_ms: Option<f64>,
    /// Why it failed, if it did.
    pub error: Option<String>,
}

/// Runs the closed loop for `seconds`; requests are numbered from 0 in
/// the order the clients take them.
pub fn window(
    addr: SocketAddr,
    mix: &Mix,
    verified: &Verified,
    seconds: f64,
) -> (Vec<Sample>, f64) {
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    let mut client = Client::connect(addr);
                    while Instant::now() < deadline {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        let req = mix.nth(id);
                        let c = match &mut client {
                            Ok(c) => c,
                            Err(e) => {
                                out.push(Sample {
                                    id,
                                    latency_ms: 0.0,
                                    server_ms: None,
                                    error: Some(e.clone()),
                                });
                                std::thread::sleep(Duration::from_millis(10));
                                client = Client::connect(addr);
                                continue;
                            }
                        };
                        let sample = match c.roundtrip(&req.line) {
                            Ok((resp, took)) => {
                                let checked = verified.check(&req, &resp);
                                Sample {
                                    id,
                                    latency_ms: took.as_secs_f64() * 1e3,
                                    server_ms: checked
                                        .is_ok()
                                        .then(|| json::find_f64(&resp, "elapsed_ms"))
                                        .flatten(),
                                    error: checked.err(),
                                }
                            }
                            Err(e) => {
                                client = Client::connect(addr);
                                Sample {
                                    id,
                                    latency_ms: 0.0,
                                    server_ms: None,
                                    error: Some(e),
                                }
                            }
                        };
                        out.push(sample);
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("serve-mix client threads do not panic"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.id);
    (samples, wall)
}

/// Everything one `serve-mix` run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The set-up repetitions' wall times.
    pub setup_s: Vec<f64>,
    /// Warm-up requests sent (the last set-up) and how many failed.
    pub warmup: (u64, Vec<String>),
    /// Window samples, by request index.
    pub samples: Vec<Sample>,
    /// Window wall time.
    pub window_s: f64,
    /// Daemon counter deltas over the window.
    pub stats: ServeStats,
    /// Daemon `VmHWM` at the end of the window (kB).
    pub peak_rss_kb: u64,
    /// Per-query verified answers.
    pub verified: Verified,
    /// The request generator.
    pub mix: Mix,
}

/// Set-up repetitions per run (their median is `setup_s`).
pub const SETUP_REPEATS: usize = 5;

/// Runs set-up [`SETUP_REPEATS`] times (generation, daemon start until
/// `ping`, cache warm-up), then the closed loop for `seconds` against the
/// last daemon.
///
/// # Errors
///
/// When the daemon cannot be started or reached at all.
pub fn run(rtm: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        let started = Instant::now();
        let mix = Mix::new(seed);
        let warm = mix.warmup();
        let daemon = Daemon::start(rtm, THREADS)?;
        let lines: Vec<String> = warm.iter().map(|r| r.line.clone()).collect();
        let resps = Client::connect(daemon.addr())?.pipeline(&lines)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPEATS {
            kept = Some((mix, warm, resps, daemon));
        } else {
            daemon.stop();
        }
    }
    let (mix, warm, resps, daemon) = kept.expect("at least one set-up");
    let verified = Verified::default();
    let warm_errors: Vec<String> = warm
        .iter()
        .zip(&resps)
        .filter_map(|(req, resp)| verified.check(req, resp).err())
        .collect();
    let mut control = Client::connect(daemon.addr())?;
    let before = ServeStats::read(&mut control)?;
    let (samples, window_s) = window(daemon.addr(), &mix, &verified, seconds);
    let after = ServeStats::read(&mut control)?;
    // The `stats` request itself is the only non-window request counted.
    let mut stats = after.since(&before);
    stats.requests = stats.requests.saturating_sub(1);
    let peak_rss_kb = daemon.peak_rss_kb();
    daemon.stop();
    Ok(Outcome {
        setup_s,
        warmup: (warm.len() as u64, warm_errors),
        samples,
        window_s,
        stats,
        peak_rss_kb,
        verified,
        mix,
    })
}

/// One in-process replay of a run's requests (set-up warm-up, then the
/// window's requests in index order) through the daemon's call chain,
/// against a fresh cache like the daemon's. Returns the recorder, the id
/// of the first window request, and the replay's wall time.
fn replay_once(outcome: &Outcome, traced: bool) -> Result<(Recorder, u64, f64), String> {
    let cache = SessionCache::new(Arc::new(WorkerPool::new(THREADS)), CACHE_TRACES);
    let mut rec = Recorder::new(traced);
    let warm = outcome.mix.warmup();
    let window_from = warm.len() as u64;
    let mut verified = outcome.verified.shifts(Kind::Hot);
    verified.extend(outcome.verified.shifts(Kind::Miss));
    let started = Instant::now();
    let requests = warm
        .into_iter()
        .chain(outcome.samples.iter().map(|s| outcome.mix.nth(s.id)));
    for (id, req) in requests.enumerate() {
        let shifts = rec.serve_request(id as u64, &req.key, &req.query, &req.line, &cache)?;
        if let Some(&v) = verified.get(&req.key) {
            if v != shifts {
                return Err(format!(
                    "{}: in-process replay gives {shifts} shifts, the daemon {v}",
                    req.key
                ));
            }
        }
    }
    Ok((rec, window_from, started.elapsed().as_secs_f64()))
}

/// The traced replay, between two untraced ones so that drift in machine
/// speed cancels out of the tracing overhead; the untraced wall time is
/// the mean of the two.
///
/// # Errors
///
/// The first request whose replayed answer fails or differs from the
/// daemon's verified answer.
pub fn replay(outcome: &Outcome) -> Result<Traced, String> {
    let (_, _, before) = replay_once(outcome, false)?;
    let (rec, window_from, traced_s) = replay_once(outcome, true)?;
    let (_, _, after) = replay_once(outcome, false)?;
    Ok(Traced {
        rec,
        window_from,
        traced_s,
        untraced_s: (before + after) / 2.0,
    })
}

/// Server-side latency split of the window: the daemon's solve time and
/// the rest (socket, framing, scheduling), per successful request.
pub fn server_split(samples: &[Sample]) -> (Vec<f64>, Vec<f64>) {
    samples
        .iter()
        .filter_map(|s| s.server_ms.map(|srv| (srv, s.latency_ms - srv)))
        .unzip()
}

/// `shifts_geomean` over the hot set's distinct queries. Misses are
/// checked as well, but how many the window holds depends on its
/// throughput, so they would make the mean depend on speed.
pub fn shifts_geomean(outcome: &Outcome) -> f64 {
    let mut v: Vec<u64> = outcome.verified.shifts(Kind::Hot).into_values().collect();
    v.sort_unstable();
    stats::geomean(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_has_fixed_proportions_and_seeded_instances() {
        let a = Mix::new(1);
        let b = Mix::new(2);
        let reqs: Vec<Request> = (0..400).map(|i| a.nth(i)).collect();
        let misses: Vec<&Request> = reqs.iter().filter(|r| r.kind == Kind::Miss).collect();
        assert_eq!(misses.len(), 20);
        // Every miss is a distinct, never-hot trace.
        let mut names: Vec<&str> = misses.iter().map(|r| r.input.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
        assert!(misses
            .iter()
            .all(|m| a.hot().iter().all(|h| h.name != m.input.name)));
        // Each strategy gets a quarter of the misses and of a full hot cycle.
        for s in STRATEGIES {
            assert_eq!(misses.iter().filter(|r| r.query.strategy == s).count(), 5);
            let hot = reqs[..HOT_TRACES * STRATEGIES.len() + 2]
                .iter()
                .filter(|r| r.kind == Kind::Hot && r.query.strategy == s)
                .count();
            assert!(hot >= HOT_TRACES, "{s}: {hot}");
        }
        // The profile sequence is seed-independent; the instances are not.
        for i in [19, 39, 59] {
            let (x, y) = (a.nth(i), b.nth(i));
            assert_eq!(
                x.input.name.split('#').next(),
                y.input.name.split('#').next()
            );
            assert_ne!(x.input.text, y.input.text);
            assert_eq!(x.line, a.nth(i).line);
        }
        let warm = a.warmup();
        assert_eq!(
            warm.iter().filter(|r| r.kind == Kind::Fill).count() + HOT_TRACES,
            CACHE_TRACES
        );
    }
}
