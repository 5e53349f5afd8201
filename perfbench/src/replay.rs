//! The traced in-process replay: the same seeded requests, sent through
//! the public calls that `rtm place`/`rtm simulate` and the daemon's
//! `place` handler make, with a span around each call.
//!
//! CLI chain: read the trace file → `AccessSequence::parse` →
//! `PlacementProblem` + `Session::new` → `Session::heuristic_seeds` →
//! `Session::engine` → `Session::solve` → `report::solution_fields` →
//! `Simulator::run`.
//!
//! Serve chain: `protocol::parse_request` →
//! `PlaceRequest::{resolve_strategy, canonical_text}` →
//! `SessionCache::get_or_parse` (→ `PlaceRequest::materialize` on a miss) →
//! `PlaceRequest::geometry` → `SessionCache::session` →
//! `Session::{heuristic_seeds, engine, solve}` → `report::solution_fields`.
//!
//! Seeds and engine are computed inside `Session::solve` anyway; calling
//! them first (once per session) only splits their time out of the solve
//! span and leaves every result unchanged.

use crate::query::{Query, DBCS, THREADS};
use crate::spans::Tracer;
use rtm_arch::{ArrayGeometry, RtmGeometry};
use rtm_placement::{EngineStats, LaneStatus, PlacementProblem, Session, Solution, Strategy};
use rtm_serve::cache::SessionCache;
use rtm_serve::protocol::{parse_request, Request};
use rtm_serve::report::{solution_fields, Geometry};
use rtm_serve::server::ServeConfig;
use rtm_sim::Simulator;
use rtm_trace::AccessSequence;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

/// The solve span's name for a strategy.
pub fn solve_span(strategy: &str) -> &'static str {
    match strategy {
        "dma-sr" => "solve.dma-sr",
        "afd-ofu" => "solve.afd-ofu",
        "sa" => "solve.sa",
        "tabu" => "solve.tabu",
        "ga" => "solve.ga",
        "portfolio" => "solve.portfolio",
        other => panic!("the benchmark issues no `{other}` queries"),
    }
}

/// What one replayed solve reported.
#[derive(Debug, Clone)]
pub struct SolveRecord {
    /// Request id.
    pub request: u64,
    /// Serve chain: query identity (trace name and strategy), pairing a
    /// repeated query's solves on one cached session. The CLI chain
    /// builds a fresh session per request and records none.
    pub key: Option<String>,
    /// Index of the solve span (traced replays only).
    pub span: Option<usize>,
    /// Evaluations the search consumed.
    pub evals: u64,
    /// `time_to_best / elapsed` of a search solve.
    pub best_at_share: Option<f64>,
    /// Per-solve engine counters.
    pub engine: EngineStats,
    /// Portfolio lanes that did not complete.
    pub lanes_failed: u64,
}

/// Spans plus the counters measured beside them.
#[derive(Debug)]
pub struct Recorder {
    /// The span recorder (on or off).
    pub tracer: Tracer,
    /// One record per solve.
    pub solves: Vec<SolveRecord>,
    /// `(request id, bytes)` of each trace parse.
    pub parsed_bytes: Vec<(u64, usize)>,
    /// `(request id, accesses)` of each simulator replay.
    pub simulated: Vec<(u64, usize)>,
    /// `(request id, bytes)` of each emitted report.
    pub report_bytes: Vec<(u64, usize)>,
    /// `(request id, span index)` of each `cache.lookup` that hit both
    /// levels.
    pub cache_hits: Vec<(u64, usize)>,
    /// Serve chain: cached sessions (by address) whose seeds and engine
    /// are built.
    warmed: HashSet<usize>,
}

impl Recorder {
    /// A recorder; spans are recorded when `traced`.
    pub fn new(traced: bool) -> Self {
        Self {
            tracer: Tracer::new(traced),
            solves: Vec::new(),
            parsed_bytes: Vec::new(),
            simulated: Vec::new(),
            report_bytes: Vec::new(),
            cache_hits: Vec::new(),
            warmed: HashSet::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let handle = self.tracer.enter(name);
        let out = f(self);
        self.tracer.exit(handle);
        out
    }

    /// Splits seed and engine construction out of the first search solve
    /// on `session`.
    fn warm(&mut self, session: &Session) {
        self.span("heuristics.seeds", |_| {
            std::hint::black_box(session.heuristic_seeds());
        });
        self.span("eval.build", |_| {
            std::hint::black_box(session.engine());
        });
    }

    fn solve(
        &mut self,
        request: u64,
        key: Option<&str>,
        q: &Query,
        strategy: &Strategy,
        session: &Session,
    ) -> Result<Solution, String> {
        let span = self.tracer.spans().len();
        let sol = self
            .span(solve_span(q.strategy), |_| session.solve(strategy))
            .map_err(|e| format!("solve failed: {e}"))?;
        let elapsed = sol.elapsed.as_secs_f64();
        self.solves.push(SolveRecord {
            request,
            key: key.map(str::to_string),
            span: (span < self.tracer.spans().len()).then_some(span),
            evals: sol.evals_consumed,
            best_at_share: (q.is_search() && elapsed > 0.0)
                .then(|| sol.time_to_best.as_secs_f64() / elapsed),
            engine: sol.engine_stats,
            lanes_failed: sol
                .lanes
                .iter()
                .filter(|l| l.status != LaneStatus::Completed)
                .count() as u64,
        });
        Ok(sol)
    }

    fn emit(
        &mut self,
        request: u64,
        strategy: &Strategy,
        geom: &Geometry,
        seq: &AccessSequence,
        sol: &Solution,
    ) {
        let fields = self.span("report.emit", |_| solution_fields(strategy, geom, seq, sol));
        self.report_bytes.push((request, fields.len()));
    }

    /// Replays `rtm <place|simulate> --trace <path> --json …` for `q` and
    /// returns the solution's shift count. The simulator replay runs for
    /// every query: for `simulate` it is part of the command, for `place`
    /// it checks the in-process answer (and callers leave it out of the
    /// CLI-equivalent time).
    ///
    /// # Errors
    ///
    /// Any failure along the chain, or a simulated shift count that
    /// differs from the solution's.
    pub fn cli_request(&mut self, request: u64, path: &Path, q: &Query) -> Result<u64, String> {
        self.tracer.set_request(request);
        // The request's state is dropped after its span closes: the CLI
        // process exits instead of freeing it.
        let (shifts, _state) = self.span("request", |r| {
            let text = r
                .span("cli.read_trace", |_| std::fs::read_to_string(path))
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let seq = r
                .span("trace.parse", |_| AccessSequence::parse(&text))
                .map_err(|e| format!("trace does not parse: {e}"))?;
            r.parsed_bytes.push((request, text.len()));
            // The CLI's flat default capacity: the paper's 4 KiB track,
            // grown to fit the variables.
            let capacity = (4096 * 8 / (DBCS * 32)).max(seq.vars().len().div_ceil(DBCS));
            let (session, array) = r
                .span("session.new", |_| {
                    let array = ArrayGeometry::new(1, RtmGeometry::new(DBCS, 32, capacity, 1)?)?;
                    let problem =
                        PlacementProblem::for_array(seq.clone(), &array).with_threads(THREADS);
                    Ok::<_, rtm_arch::ConfigError>((Session::new(problem), array))
                })
                .map_err(|e| format!("bad geometry: {e}"))?;
            if q.is_search() {
                r.warm(&session);
            }
            let strategy = q.strategy();
            let sol = r.solve(request, None, q, &strategy, &session)?;
            r.emit(
                request,
                &strategy,
                &Geometry::flat(DBCS, capacity, 1),
                &seq,
                &sol,
            );
            let stats = r
                .span("sim.run", |_| {
                    Simulator::for_array(&array).run(&seq, &sol.placement)
                })
                .map_err(|e| format!("simulator rejected the placement: {e}"))?;
            r.simulated.push((request, seq.len()));
            if stats.shifts != sol.shifts {
                return Err(format!(
                    "solution reports {} shifts, the simulator replays {}",
                    sol.shifts, stats.shifts
                ));
            }
            Ok((sol.shifts, (text, seq, session, sol)))
        })?;
        Ok(shifts)
    }

    /// Replays one serve `place` line against `cache` through the calls
    /// the daemon's `place` handler makes, and returns the solution's
    /// shift count.
    ///
    /// # Errors
    ///
    /// What the daemon would answer with an `error:` line.
    pub fn serve_request(
        &mut self,
        request: u64,
        key: &str,
        q: &Query,
        line: &str,
        cache: &SessionCache,
    ) -> Result<u64, String> {
        self.tracer.set_request(request);
        self.span("request", |r| {
            let req = match r
                .span("protocol.parse", |_| parse_request(line))
                .map_err(|e| e.to_string())?
            {
                Request::Place(req) => req,
                other => return Err(format!("not a place request: {other:?}")),
            };
            let (strategy, text) = r.span("protocol.resolve", |_| {
                (
                    req.resolve_strategy(ServeConfig::default().default_deadline_ms),
                    req.canonical_text(),
                )
            });
            let strategy = strategy.map_err(|e| e.to_string())?;
            let lookup = r.tracer.spans().len();
            let (seq, geom, session, trace_hit, session_hit) = r
                .span("cache.lookup", |r| {
                    let (entry, trace_hit) = cache.get_or_parse(&text, || {
                        let seq = r.span("trace.parse", |_| req.materialize());
                        r.parsed_bytes.push((request, text.len()));
                        seq
                    })?;
                    let seq = entry.seq();
                    let geom = req.geometry(&seq)?;
                    let (session, session_hit) = cache.session(&entry, geom);
                    Ok::<_, rtm_serve::protocol::RequestError>((
                        seq,
                        geom,
                        session,
                        trace_hit,
                        session_hit,
                    ))
                })
                .map_err(|e| e.to_string())?;
            if trace_hit && session_hit && lookup < r.tracer.spans().len() {
                r.cache_hits.push((request, lookup));
            }
            let addr = Arc::as_ptr(&session) as usize;
            if !session_hit {
                r.warmed.remove(&addr);
            }
            if q.is_search() && r.warmed.insert(addr) {
                r.warm(&session);
            }
            let sol = r.solve(request, Some(key), q, &strategy, &session)?;
            r.emit(
                request,
                &strategy,
                &Geometry::flat(geom.dbcs, geom.capacity, geom.ports),
                &seq,
                &sol,
            );
            Ok(sol.shifts)
        })
    }
}
