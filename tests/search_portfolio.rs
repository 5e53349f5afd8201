//! Differential test lane for the anytime search stack (`DESIGN.md` §8):
//!
//! (a) every SA / tabu / portfolio solution re-evaluates to its reported
//!     cost under the **naive** engine (no incremental-evaluation drift);
//! (b) the portfolio's best never loses to any individual lane run
//!     standalone under the same eval budget and lane seed;
//! (c) results are bit-identical for a fixed seed across `--threads`
//!     1, 2, 8;
//! (d) a degenerate one-lane portfolio ≡ the underlying solver;
//! plus fixed-seed goldens pinning the deterministic trajectories,
//! all including ≥2-subarray and 2-port problems.

use rtm::placement::random_walk;
use rtm::placement::search::Budget;
use rtm::{
    AccessSequence, ArrayGeometry, Benchmark, FitnessEngine, GaConfig, GeneticPlacer, LaneSpec,
    Placement, PlacementProblem, Portfolio, PortfolioConfig, RtmGeometry, SaConfig, Session,
    SimulatedAnnealing, Strategy, TabuConfig, TabuSearch,
};

const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

fn paper_seq() -> AccessSequence {
    AccessSequence::parse(PAPER_SEQ).unwrap()
}

/// An array problem over the paper-faithful 4 KiB subarray.
fn array_problem(
    seq: &AccessSequence,
    dbcs: usize,
    ports: usize,
    subarrays: usize,
) -> PlacementProblem {
    let sub = RtmGeometry::paper_4kib_with_ports(dbcs, ports).unwrap();
    let array = ArrayGeometry::new(subarrays, sub).unwrap();
    assert!(array.fits(seq.vars().len()));
    PlacementProblem::for_array(seq.clone(), &array)
}

/// (a) Reported costs must re-evaluate exactly under the naive engine —
/// the pre-engine replay path — for every search strategy, across port
/// and subarray counts.
#[test]
fn reported_costs_reevaluate_under_the_naive_engine() {
    let seq = Benchmark::by_name("adpcm").unwrap().trace();
    let budget = Budget::evals(400);
    for (ports, subarrays) in [(1usize, 1usize), (2, 1), (4, 1), (1, 2), (2, 2)] {
        let problem = array_problem(&seq, 4, ports, subarrays);
        let naive = FitnessEngine::reference(seq.clone(), problem.cost_model());
        for strategy in [
            Strategy::Sa(SaConfig::new(budget)),
            Strategy::Tabu(TabuConfig::new(budget)),
            Strategy::Portfolio(PortfolioConfig::new(budget)),
        ] {
            let sol = problem.solve(&strategy).unwrap();
            assert_eq!(
                naive.shift_cost(&sol.placement),
                sol.shifts,
                "{strategy} @ {ports}p/{subarrays}s: naive re-evaluation disagrees"
            );
            let sub = RtmGeometry::paper_4kib_with_ports(4, ports).unwrap();
            let array = ArrayGeometry::new(subarrays, sub).unwrap();
            sol.placement.validate_array(&seq, &array).unwrap();
            assert!(sol.evals_consumed > 0, "{strategy}");
        }
    }
}

/// (b) + (d): each lane of a portfolio race is bit-identical to the
/// standalone solver run with the same budget and the lane's derived seed,
/// and the portfolio's best is exactly the lane minimum.
#[test]
fn portfolio_lanes_match_standalone_solvers_bit_for_bit() {
    let dct = Benchmark::by_name("dct").unwrap().trace();
    let paper = paper_seq();
    // A 2-port flat problem and a 2-subarray hierarchical problem.
    let problems = [array_problem(&dct, 4, 2, 1), array_problem(&paper, 2, 1, 2)];
    for problem in &problems {
        let budget = Budget::evals(600);
        let cfg = PortfolioConfig::new(budget).with_seed(41);
        let seeds = problem.heuristic_seeds();
        let session = Session::new(problem.clone());
        let engine = session.engine();
        let race = Portfolio::new(cfg.clone())
            .with_subarrays(problem.subarrays())
            .run_with_engine(engine, problem.dbcs(), problem.capacity(), &seeds)
            .unwrap();
        assert_eq!(race.lanes.len(), 4);
        // Standalone re-runs, lane by lane.
        for (lane, outcome) in race.lanes.iter().enumerate() {
            let seed = cfg.lane_seed(lane);
            let solo = match outcome.spec {
                LaneSpec::Sa => SimulatedAnnealing::new(SaConfig::new(budget).with_seed(seed))
                    .with_subarrays(problem.subarrays())
                    .run_with_engine(engine, problem.dbcs(), problem.capacity(), &seeds)
                    .unwrap(),
                LaneSpec::Tabu => TabuSearch::new(TabuConfig::new(budget).with_seed(seed))
                    .with_subarrays(problem.subarrays())
                    .run_with_engine(engine, problem.dbcs(), problem.capacity(), &seeds)
                    .unwrap(),
                LaneSpec::Ga => {
                    let out = GeneticPlacer::new(GaConfig::paper().with_seed(seed))
                        .with_subarrays(problem.subarrays())
                        .run_budgeted(
                            engine,
                            problem.dbcs(),
                            problem.capacity(),
                            &seeds,
                            budget,
                            None,
                        )
                        .unwrap();
                    rtm::SearchOutcome {
                        placement: out.best,
                        cost: out.best_cost,
                        evals: out.evaluations as u64,
                        evals_at_best: out.evals_at_best as u64,
                        time_to_best: out.time_to_best,
                        elapsed: out.elapsed,
                        stop: out.stop,
                    }
                }
                LaneSpec::RandomWalk => random_walk::run_budgeted(
                    engine,
                    problem.dbcs(),
                    problem.capacity(),
                    seed,
                    budget,
                    None,
                )
                .unwrap(),
            };
            let raced = outcome
                .outcome
                .as_ref()
                .expect("eval-budget lane completed");
            assert_eq!(
                raced.cost, solo.cost,
                "{} lane diverged from the standalone solver",
                outcome.spec
            );
            assert_eq!(raced.placement, solo.placement, "{}", outcome.spec);
            assert_eq!(raced.evals, solo.evals, "{}", outcome.spec);
        }
        // The racing contract: the portfolio's best is the lane minimum.
        let min = race
            .lanes
            .iter()
            .filter_map(|l| l.outcome.as_ref().map(|o| o.cost))
            .min()
            .unwrap();
        assert_eq!(race.best().cost, min);
    }
}

/// (c) Bit-identical results for a fixed seed across `--threads 1, 2, 8`
/// (pool worker counts), on 2-port, 2-subarray, and combined
/// 2-port/2-subarray problems, through the full `Strategy::solve` path —
/// every searcher that fans work out over the shared [`WorkerPool`]: GA,
/// random walk, the SA/tabu lanes, and the full portfolio race.
#[test]
fn results_are_bit_identical_across_thread_counts() {
    let dct = Benchmark::by_name("dct").unwrap().trace();
    let paper = paper_seq();
    let budget = Budget::evals(500);
    for (seq, ports, subarrays) in [(&dct, 2usize, 1usize), (&paper, 1, 2), (&paper, 2, 2)] {
        for strategy in [
            Strategy::Sa(SaConfig::new(budget)),
            Strategy::Tabu(TabuConfig::new(budget)),
            Strategy::Ga(GaConfig {
                mu: 8,
                lambda: 8,
                generations: 6,
                ..GaConfig::paper()
            }),
            Strategy::RandomWalk(rtm::RandomWalkConfig {
                iterations: 400,
                seed: 17,
            }),
            Strategy::Portfolio(PortfolioConfig::new(budget).with_seed(13)),
        ] {
            let mut baseline: Option<(Placement, u64, u64)> = None;
            for threads in [1usize, 2, 8] {
                let problem =
                    array_problem(seq, if subarrays > 1 { 2 } else { 4 }, ports, subarrays)
                        .with_threads(threads);
                let sol = problem.solve(&strategy).unwrap();
                let got = (sol.placement, sol.shifts, sol.evals_consumed);
                match &baseline {
                    None => baseline = Some(got),
                    Some(want) => {
                        assert_eq!(want.0, got.0, "{strategy} placement @ {threads} threads");
                        assert_eq!(want.1, got.1, "{strategy} shifts @ {threads} threads");
                        assert_eq!(want.2, got.2, "{strategy} evals @ {threads} threads");
                    }
                }
            }
        }
    }
}

/// Fixed-seed goldens on the paper's running example: the deterministic
/// trajectories (costs and consumed budgets) are pinned exactly. With
/// 512-location DBCs the 2-DBC optimum of this trace is **9** shifts
/// (verified against `exact::solve` — the Fig. 3(d) walkthrough's 11 is
/// not optimal at this capacity), and every searcher reaches it from the
/// heuristic seeds within 1 500 evals.
#[test]
fn fixed_seed_goldens_on_the_paper_trace() {
    let problem = PlacementProblem::new(paper_seq(), 2, 512);
    let budget = Budget::evals(1_500);
    let sa = problem.solve(&Strategy::Sa(SaConfig::new(budget))).unwrap();
    let tabu = problem
        .solve(&Strategy::Tabu(TabuConfig::new(budget)))
        .unwrap();
    let folio = problem
        .solve(&Strategy::Portfolio(PortfolioConfig::new(budget)))
        .unwrap();
    let (_, optimum) = rtm::placement::exact::solve(
        problem.seq().unwrap(),
        2,
        512,
        rtm::CostModel::single_port(),
    )
    .unwrap();
    assert_eq!(optimum, 9);
    assert_eq!((sa.shifts, sa.evals_consumed), (9, 1_500));
    assert_eq!((tabu.shifts, tabu.evals_consumed), (9, 1_500));
    assert_eq!(folio.shifts, 9);
    assert_eq!(folio.evals_consumed, 6_000, "4 lanes x 1500 evals");
    // And they are stable across repeated runs (same process, warm caches).
    let again = problem.solve(&Strategy::Sa(SaConfig::new(budget))).unwrap();
    assert_eq!(again.placement, sa.placement);
}

/// Budget semantics through the `Strategy` layer: eval budgets are hard
/// caps (per lane for the portfolio), stall and deadline budgets
/// terminate with valid solutions.
#[test]
fn budgets_cap_and_terminate() {
    let problem = PlacementProblem::new(paper_seq(), 2, 512);
    for n in [1u64, 7, 200] {
        let sa = problem
            .solve(&Strategy::Sa(SaConfig::new(Budget::evals(n))))
            .unwrap();
        assert!(sa.evals_consumed <= n.max(1), "SA overran evals({n})");
        let folio = problem
            .solve(&Strategy::Portfolio(PortfolioConfig::new(Budget::evals(n))))
            .unwrap();
        assert!(
            folio.evals_consumed <= 4 * n.max(1),
            "portfolio overran 4 x evals({n})"
        );
    }
    for budget in [
        Budget::stall(150),
        Budget::wall_clock_ms(25),
        Budget::evals(400).and_stall(100),
    ] {
        for strategy in [
            Strategy::Sa(SaConfig::new(budget)),
            Strategy::Tabu(TabuConfig::new(budget)),
            Strategy::Portfolio(PortfolioConfig::new(budget)),
        ] {
            let sol = problem.solve(&strategy).unwrap();
            sol.placement
                .validate(problem.seq().unwrap(), problem.capacity())
                .unwrap();
            assert_eq!(sol.shifts, problem.evaluate(&sol.placement), "{strategy}");
        }
    }
}

/// Lane selection: a custom lane list races exactly those lanes, and the
/// portfolio result is reproducible.
#[test]
fn custom_lane_lists_race_exactly_those_lanes() {
    let problem = PlacementProblem::new(paper_seq(), 2, 512);
    let cfg = PortfolioConfig::new(Budget::evals(300))
        .with_seed(5)
        .with_lanes(vec![LaneSpec::Tabu, LaneSpec::RandomWalk]);
    let seeds = problem.heuristic_seeds();
    let session = Session::new(problem.clone());
    let engine = session.engine();
    let out = Portfolio::new(cfg)
        .run_with_engine(engine, problem.dbcs(), problem.capacity(), &seeds)
        .unwrap();
    assert_eq!(out.lanes.len(), 2);
    assert_eq!(out.lanes[0].spec, LaneSpec::Tabu);
    assert_eq!(out.lanes[1].spec, LaneSpec::RandomWalk);
    assert_eq!(
        out.total_evals,
        out.lanes
            .iter()
            .filter_map(|l| l.outcome.as_ref().map(|o| o.evals))
            .sum::<u64>()
    );
}
