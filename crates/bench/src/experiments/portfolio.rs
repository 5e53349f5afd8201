//! `portfolio` — solution quality vs budget for the anytime search stack,
//! recorded as machine-readable JSON (`BENCH_search.json`) so the search
//! trajectory of the repository is tracked alongside engine throughput
//! (`BENCH_perf.json`).
//!
//! For every selected benchmark the experiment sweeps two geometry axes —
//! port counts at one subarray, then subarray counts at one port — and for
//! each eval budget races the full four-lane portfolio (SA / tabu / GA /
//! random walk, all seeded with the composite heuristics). One race yields
//! *both* the per-lane quality (lanes are independent under an eval
//! budget) and the portfolio quality, plus the incumbent's time-to-best
//! trace.
//!
//! Two invariants are asserted at collection time:
//!
//! * the portfolio's best equals the minimum over its lanes (the racing
//!   contract — the portfolio can never lose to a lane);
//! * the portfolio never loses to the best composite heuristic (every lane
//!   starts from those seeds).

use super::ExperimentResult;
use crate::{geomean_nonzero, ExperimentOpts, Table};
use rtm_arch::{ArrayGeometry, RtmGeometry};
use rtm_offsetstone::suite;
use rtm_placement::{
    Budget, FitnessEngine, Placement, PlacementProblem, Portfolio, PortfolioConfig,
    PortfolioOutcome, Session, Strategy,
};

/// One lane's quality numbers in one race.
#[derive(Debug, Clone)]
pub struct LaneQuality {
    /// Lane name (`sa` / `tabu` / `ga` / `rw`).
    pub name: &'static str,
    /// Best cost the lane reached.
    pub cost: u64,
    /// Evaluations the lane consumed.
    pub evals: u64,
    /// Wall milliseconds to the lane's best.
    pub time_to_best_ms: f64,
}

/// One (benchmark, geometry, budget) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Ports per track.
    pub ports: usize,
    /// Subarrays.
    pub subarrays: usize,
    /// Per-lane eval budget.
    pub budget: u64,
    /// Per-lane quality, in lane order.
    pub lanes: Vec<LaneQuality>,
    /// The portfolio's best cost (= min over lanes).
    pub portfolio_cost: u64,
    /// Winning lane name.
    pub winner: &'static str,
    /// Wall milliseconds to the portfolio's best.
    pub portfolio_time_to_best_ms: f64,
    /// Best composite heuristic and its cost.
    pub best_heuristic: (&'static str, u64),
}

/// The geometry points of the sweep: `(ports, subarrays)`.
fn sweep_points(opts: &ExperimentOpts) -> Vec<(usize, usize)> {
    let mut points: Vec<(usize, usize)> = opts.ports.iter().map(|&p| (p, 1)).collect();
    for &s in &opts.subarrays {
        if s > 1 {
            points.push((1, s));
        }
    }
    points
}

/// The budget sweep: `--budgets` verbatim, else defaults sized by
/// `--quick`.
pub fn budgets(opts: &ExperimentOpts) -> Vec<u64> {
    if !opts.budgets.is_empty() {
        opts.budgets.clone()
    } else if opts.quick {
        vec![500, 2_000]
    } else {
        vec![5_000, 20_000, 50_000]
    }
}

/// One pass over the four composite heuristics: the seed placements
/// ordered best-first (matching `PlacementProblem::heuristic_seeds`) and
/// the best heuristic's `(name, cost)` — a single solve per strategy
/// serves both, and it is computed once per geometry point, not per
/// budget.
fn heuristic_pass(problem: &PlacementProblem) -> (Vec<Placement>, (&'static str, u64)) {
    let mut scored: Vec<(&'static str, u64, Placement)> = [
        Strategy::AfdOfu,
        Strategy::DmaOfu,
        Strategy::DmaChen,
        Strategy::DmaSr,
    ]
    .iter()
    .filter_map(|s| {
        problem
            .solve(s)
            .ok()
            .map(|sol| (s.name(), sol.shifts, sol.placement))
    })
    .collect();
    scored.sort_by_key(|(_, shifts, _)| *shifts);
    let best = (scored[0].0, scored[0].1);
    (scored.into_iter().map(|(_, _, p)| p).collect(), best)
}

/// Everything about one (benchmark, geometry) point that is shared by its
/// budget sweep: computed once, raced once per budget.
struct GeometryRun<'a> {
    name: &'static str,
    problem: &'a PlacementProblem,
    engine: &'a FitnessEngine,
    seeds: &'a [Placement],
    heuristic: (&'static str, u64),
    array: &'a ArrayGeometry,
}

/// Runs one race and folds it into a [`Row`], asserting the collection
/// invariants.
fn measure(run: &GeometryRun<'_>, budget: u64, opts: &ExperimentOpts) -> Row {
    let GeometryRun {
        name,
        problem,
        engine,
        seeds,
        heuristic,
        array,
    } = *run;
    let cfg = PortfolioConfig::new(Budget::evals(budget)).with_seed(opts.seed);
    let out: PortfolioOutcome = Portfolio::new(cfg)
        .with_subarrays(problem.subarrays())
        .run_with_engine(engine, problem.dbcs(), problem.capacity(), seeds)
        .expect("experiment arrays always fit");
    let lanes: Vec<LaneQuality> = out
        .lanes
        .iter()
        .map(|l| {
            // Eval-budget races have no deadline and no faults, so every
            // lane completes with an outcome.
            let o = l.outcome.as_ref().expect("eval-budget lanes complete");
            LaneQuality {
                name: l.spec.name(),
                cost: o.cost,
                evals: o.evals,
                time_to_best_ms: o.time_to_best.as_secs_f64() * 1e3,
            }
        })
        .collect();
    let best = out.best();
    let lane_min = lanes.iter().map(|l| l.cost).min().expect("4 lanes");
    assert_eq!(
        best.cost, lane_min,
        "{name}: portfolio lost to one of its own lanes"
    );
    assert!(
        best.cost <= heuristic.1,
        "{name}: portfolio {} lost to {} {}",
        best.cost,
        heuristic.0,
        heuristic.1
    );
    Row {
        benchmark: name,
        ports: array.ports_per_track(),
        subarrays: array.subarrays(),
        budget,
        lanes,
        portfolio_cost: best.cost,
        winner: out.lanes[out.winner].spec.name(),
        portfolio_time_to_best_ms: best.time_to_best.as_secs_f64() * 1e3,
        best_heuristic: heuristic,
    }
}

/// Collects the full sweep. Benchmarks that cannot fit a geometry point
/// (e.g. mpeg2 in a single subarray at low DBC counts) are skipped there
/// and reported in the skip list.
pub fn collect(opts: &ExperimentOpts) -> (Vec<Row>, Vec<String>) {
    let dbcs = opts.dbcs.first().copied().unwrap_or(4);
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for bench in suite() {
        if !opts.selects(bench.name()) {
            continue;
        }
        let seq = bench.trace();
        for (ports, subarrays) in sweep_points(opts) {
            let sub: RtmGeometry =
                RtmGeometry::paper_4kib_with_ports(dbcs, ports).expect("paper subarray is valid");
            let array = match ArrayGeometry::new(subarrays, sub) {
                Ok(a) if a.fits(seq.vars().len()) => a,
                _ => {
                    skipped.push(format!("{}@{}p{}s", bench.name(), ports, subarrays));
                    continue;
                }
            };
            let problem = PlacementProblem::for_array(seq.clone(), &array);
            let (seeds, heuristic) = heuristic_pass(&problem);
            let session = Session::new(problem.clone());
            let run = GeometryRun {
                name: bench.name(),
                problem: &problem,
                engine: session.engine(),
                seeds: &seeds,
                heuristic,
                array: &array,
            };
            for budget in budgets(opts) {
                rows.push(measure(&run, budget, opts));
            }
        }
    }
    (rows, skipped)
}

/// Benchmarks that have a row at *every* geometry point of the sweep.
///
/// Skipped points (a benchmark too large for one subarray, say) leave the
/// per-point benchmark sets unequal, so any cross-point aggregate over all
/// rows silently compares different workload mixes. Summaries therefore
/// restrict themselves to this intersection; per-point coverage is emitted
/// in the JSON so the restriction is auditable.
pub fn benchmark_intersection(rows: &[Row]) -> Vec<&'static str> {
    let mut points: Vec<(usize, usize)> = rows.iter().map(|r| (r.ports, r.subarrays)).collect();
    points.sort_unstable();
    points.dedup();
    // Rows are grouped by benchmark (collect's outer loop), so consecutive
    // dedup yields each name once, in sweep order.
    let mut names: Vec<&'static str> = rows.iter().map(|r| r.benchmark).collect();
    names.dedup();
    names
        .into_iter()
        .filter(|b| {
            points.iter().all(|&(p, s)| {
                rows.iter()
                    .any(|r| r.benchmark == *b && r.ports == p && r.subarrays == s)
            })
        })
        .collect()
}

/// Row count per geometry point, in sweep order: `((ports, subarrays), n)`.
pub fn point_counts(rows: &[Row]) -> Vec<((usize, usize), usize)> {
    let mut counts: Vec<((usize, usize), usize)> = Vec::new();
    for r in rows {
        let key = (r.ports, r.subarrays);
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => counts.push((key, 1)),
        }
    }
    counts
}

/// Renders the JSON record (`BENCH_search.json`).
pub fn to_json(rows: &[Row], skipped: &[String], opts: &ExperimentOpts) -> String {
    let dbcs = opts.dbcs.first().copied().unwrap_or(4);
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"search\",\n");
    out.push_str(&format!("  \"quick\": {},\n", opts.quick));
    out.push_str(&format!("  \"seed\": {},\n", opts.seed));
    out.push_str(&format!("  \"dbcs\": {dbcs},\n"));
    out.push_str(&format!(
        "  \"budgets\": [{}],\n",
        budgets(opts)
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let quoted: Vec<String> = skipped.iter().map(|s| format!("\"{s}\"")).collect();
    out.push_str(&format!("  \"skipped\": [{}],\n", quoted.join(", ")));
    let points: Vec<String> = point_counts(rows)
        .iter()
        .map(|((p, s), n)| format!("{{\"ports\": {p}, \"subarrays\": {s}, \"rows\": {n}}}"))
        .collect();
    out.push_str(&format!("  \"points\": [{}],\n", points.join(", ")));
    let inter: Vec<String> = benchmark_intersection(rows)
        .iter()
        .map(|b| format!("\"{b}\""))
        .collect();
    out.push_str(&format!(
        "  \"summary_benchmarks\": [{}],\n",
        inter.join(", ")
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"benchmark\": \"{}\", \"ports\": {}, \"subarrays\": {}, \"budget\": {}, ",
            r.benchmark, r.ports, r.subarrays, r.budget
        ));
        out.push_str("\"lanes\": {");
        for (j, l) in r.lanes.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"cost\": {}, \"evals\": {}, \"time_to_best_ms\": {:.3}}}",
                l.name, l.cost, l.evals, l.time_to_best_ms
            ));
        }
        out.push_str("}, ");
        out.push_str(&format!(
            "\"portfolio\": {{\"cost\": {}, \"winner\": \"{}\", \"time_to_best_ms\": {:.3}}}, ",
            r.portfolio_cost, r.winner, r.portfolio_time_to_best_ms
        ));
        out.push_str(&format!(
            "\"best_heuristic\": {{\"name\": \"{}\", \"cost\": {}}}",
            r.best_heuristic.0, r.best_heuristic.1
        ));
        out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the experiment: prints the per-config tables, writes the CSVs and
/// `BENCH_search.json`.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let (rows, skipped) = collect(opts);
    let json = to_json(&rows, &skipped, opts);
    let json_path = opts.out_dir.join("BENCH_search.json");
    if let Some(parent) = json_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&json_path, &json).expect("writing BENCH_search.json");
    println!("wrote {}", json_path.display());
    if !skipped.is_empty() {
        println!("skipped (does not fit geometry): {}", skipped.join(", "));
    }

    let mut quality = Table::new(vec![
        "benchmark".into(),
        "ports".into(),
        "subarrays".into(),
        "budget".into(),
        "sa".into(),
        "tabu".into(),
        "ga".into(),
        "rw".into(),
        "portfolio".into(),
        "winner".into(),
        "best_heur".into(),
        "heur_cost".into(),
    ]);
    for r in &rows {
        let lane = |n: &str| {
            r.lanes
                .iter()
                .find(|l| l.name == n)
                .map_or_else(|| "-".into(), |l| l.cost.to_string())
        };
        quality.row(vec![
            r.benchmark.into(),
            r.ports.to_string(),
            r.subarrays.to_string(),
            r.budget.to_string(),
            lane("sa"),
            lane("tabu"),
            lane("ga"),
            lane("rw"),
            r.portfolio_cost.to_string(),
            r.winner.into(),
            r.best_heuristic.0.into(),
            r.best_heuristic.1.to_string(),
        ]);
    }

    // Summary: per budget, the geomean of portfolio cost over the best
    // heuristic (zero-shift runs counted explicitly, never clamped). Only
    // benchmarks present at every geometry point contribute — skipped
    // points would otherwise make the per-budget mixes incomparable.
    let inter = benchmark_intersection(&rows);
    let excluded: Vec<&str> = rows
        .iter()
        .map(|r| r.benchmark)
        .filter(|b| !inter.contains(b))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    if !excluded.is_empty() {
        println!(
            "summary restricted to {} of {} benchmarks (partial geometry coverage: {})",
            inter.len(),
            inter.len() + excluded.len(),
            excluded.join(", ")
        );
    }
    let mut summary = Table::new(vec![
        "budget".into(),
        "benchmarks".into(),
        "races".into(),
        "geomean_vs_best_heuristic".into(),
        "zero_rows".into(),
        "portfolio_wins".into(),
    ]);
    for budget in budgets(opts) {
        let sel: Vec<&Row> = rows
            .iter()
            .filter(|r| r.budget == budget && inter.contains(&r.benchmark))
            .collect();
        if sel.is_empty() {
            continue;
        }
        let ratios: Vec<f64> = sel
            .iter()
            .map(|r| r.portfolio_cost as f64 / r.best_heuristic.1.max(1) as f64)
            .collect();
        let (gm, zeros) = geomean_nonzero(&ratios);
        let wins = sel
            .iter()
            .filter(|r| r.portfolio_cost < r.best_heuristic.1)
            .count();
        summary.row(vec![
            budget.to_string(),
            inter.len().to_string(),
            sel.len().to_string(),
            format!("{gm:.4}"),
            zeros.to_string(),
            format!("{wins}/{}", sel.len()),
        ]);
    }

    ExperimentResult {
        tables: vec![
            ("search_quality".into(), quality),
            ("search_summary".into(), summary),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            dbcs: vec![4],
            ports: vec![1, 2],
            subarrays: vec![1, 2],
            budgets: vec![120, 400],
            benchmarks: vec!["dct".into()],
            out_dir: std::env::temp_dir().join("rtm-portfolio-test"),
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn collects_the_sweep_and_emits_valid_json() {
        let opts = tiny_opts();
        let (rows, skipped) = collect(&opts);
        // 3 geometry points (1p/1s, 2p/1s, 1p/2s) x 2 budgets.
        assert_eq!(rows.len(), 6);
        assert!(skipped.is_empty(), "dct fits every point: {skipped:?}");
        for r in &rows {
            assert_eq!(r.lanes.len(), 4);
            assert_eq!(
                r.portfolio_cost,
                r.lanes.iter().map(|l| l.cost).min().unwrap()
            );
            assert!(r.portfolio_cost <= r.best_heuristic.1);
            for l in &r.lanes {
                assert!(l.evals <= r.budget, "{} overran its budget", l.name);
            }
        }
        let json = to_json(&rows, &skipped, &opts);
        assert!(json.contains("\"experiment\": \"search\""));
        assert!(json.contains("\"portfolio\""));
        assert!(json.contains("\"best_heuristic\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    fn stub_row(benchmark: &'static str, ports: usize, subarrays: usize, budget: u64) -> Row {
        Row {
            benchmark,
            ports,
            subarrays,
            budget,
            lanes: Vec::new(),
            portfolio_cost: 1,
            winner: "sa",
            portfolio_time_to_best_ms: 0.0,
            best_heuristic: ("dma_ofu", 2),
        }
    }

    #[test]
    fn summary_intersection_excludes_partially_covered_benchmarks() {
        // "big" is missing at the (1, 1) point — like mpeg2 skipped when it
        // cannot fit a single subarray.
        let rows = vec![
            stub_row("small", 1, 1, 100),
            stub_row("small", 2, 1, 100),
            stub_row("big", 2, 1, 100),
        ];
        assert_eq!(benchmark_intersection(&rows), vec!["small"]);
        assert_eq!(point_counts(&rows), vec![((1, 1), 1), ((2, 1), 2)]);
    }

    #[test]
    fn full_coverage_keeps_every_benchmark_in_the_summary() {
        let rows = vec![
            stub_row("a", 1, 1, 100),
            stub_row("a", 1, 2, 100),
            stub_row("b", 1, 1, 100),
            stub_row("b", 1, 2, 100),
        ];
        assert_eq!(benchmark_intersection(&rows), vec!["a", "b"]);
    }

    #[test]
    fn json_reports_per_point_coverage() {
        let opts = tiny_opts();
        let (rows, skipped) = collect(&opts);
        let json = to_json(&rows, &skipped, &opts);
        assert!(json.contains("\"points\": ["));
        assert!(json.contains("\"summary_benchmarks\": [\"dct\"]"));
        // dct fits all 3 geometry points at 2 budgets each.
        assert!(json.contains("{\"ports\": 1, \"subarrays\": 1, \"rows\": 2}"));
    }

    #[test]
    fn budget_defaults_scale_with_quick() {
        let mut opts = ExperimentOpts {
            quick: true,
            ..ExperimentOpts::default()
        };
        assert_eq!(budgets(&opts), vec![500, 2_000]);
        opts.quick = false;
        assert_eq!(budgets(&opts), vec![5_000, 20_000, 50_000]);
        opts.budgets = vec![7];
        assert_eq!(budgets(&opts), vec![7]);
    }

    #[test]
    fn unfitting_geometry_points_are_skipped_not_fatal() {
        let opts = ExperimentOpts {
            quick: true,
            dbcs: vec![16],
            ports: vec![1],
            subarrays: vec![1],
            budgets: vec![60],
            benchmarks: vec!["mpeg2".into()],
            out_dir: std::env::temp_dir().join("rtm-portfolio-skip-test"),
            ..ExperimentOpts::default()
        };
        // mpeg2 (1336 vars) cannot fit one 16-DBC subarray (1024 slots).
        let (rows, skipped) = collect(&opts);
        assert!(rows.is_empty());
        assert_eq!(skipped, vec!["mpeg2@1p1s".to_string()]);
    }
}
