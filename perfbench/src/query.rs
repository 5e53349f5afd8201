//! One placement query and its three renderings: `rtm` CLI arguments, a
//! serve protocol line, and the library [`Strategy`] the CLI resolves it to.

use rtm_placement::{Budget, GaConfig, PortfolioConfig, SaConfig, Strategy, TabuConfig};
use std::path::Path;

/// DBCs per query (every workload).
pub const DBCS: usize = 8;
/// Worker threads per CLI invocation and for the daemon.
pub const THREADS: usize = 2;

/// A (trace, strategy) query. Search strategies always carry a fixed eval
/// budget and seed, never a wall-clock budget, so answers are
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Index of the trace in the workload's inputs.
    pub input: usize,
    /// CLI strategy name.
    pub strategy: &'static str,
    /// `--budget-evals` / `budget-evals=`.
    pub budget_evals: Option<u64>,
    /// `--seed` / `seed=`.
    pub seed: Option<u64>,
}

impl Query {
    /// A query without budget or seed (heuristics, and the fixed-iteration GA).
    pub fn plain(input: usize, strategy: &'static str) -> Self {
        Self {
            input,
            strategy,
            budget_evals: None,
            seed: None,
        }
    }

    /// A search query with a fixed eval budget and seed.
    pub fn search(input: usize, strategy: &'static str, evals: u64, seed: u64) -> Self {
        Self {
            input,
            strategy,
            budget_evals: Some(evals),
            seed: Some(seed),
        }
    }

    /// Whether the strategy runs the fitness engine (and the heuristic
    /// seeds it starts from).
    pub fn is_search(&self) -> bool {
        matches!(self.strategy, "sa" | "tabu" | "ga" | "portfolio")
    }

    /// `rtm <command> --trace <file> --json …` arguments.
    pub fn cli_args(&self, command: &str, trace: &Path) -> Vec<String> {
        let mut a: Vec<String> = vec![
            command.into(),
            "--trace".into(),
            trace.display().to_string(),
            "--json".into(),
            "--dbcs".into(),
            DBCS.to_string(),
            "--threads".into(),
            THREADS.to_string(),
            "--strategy".into(),
            self.strategy.into(),
        ];
        if let Some(e) = self.budget_evals {
            a.extend(["--budget-evals".into(), e.to_string()]);
        }
        if let Some(s) = self.seed {
            a.extend(["--seed".into(), s.to_string()]);
        }
        a
    }

    /// The serve protocol line carrying `trace_text` inline.
    pub fn serve_line(&self, trace_text: &str) -> String {
        let mut line = format!("place strategy={} dbcs={DBCS}", self.strategy);
        if let Some(e) = self.budget_evals {
            line.push_str(&format!(" budget-evals={e}"));
        }
        if let Some(s) = self.seed {
            line.push_str(&format!(" seed={s}"));
        }
        line.push_str(" :: ");
        // The protocol's only escapes are `\n` and `\\`.
        line.push_str(&trace_text.replace('\\', "\\\\").replace('\n', "\\n"));
        line
    }

    /// The strategy `rtm place` resolves these options to (the CLI's
    /// name table and budget rules).
    pub fn strategy(&self) -> Strategy {
        let budget = Budget::evals(self.budget_evals.unwrap_or(50_000));
        match self.strategy {
            "dma-sr" => Strategy::DmaSr,
            "afd-ofu" => Strategy::AfdOfu,
            "ga" => Strategy::Ga(GaConfig::paper()),
            "sa" => {
                let cfg = SaConfig::new(budget);
                Strategy::Sa(self.seed.map_or(cfg, |s| cfg.with_seed(s)))
            }
            "tabu" => {
                let cfg = TabuConfig::new(budget);
                Strategy::Tabu(self.seed.map_or(cfg, |s| cfg.with_seed(s)))
            }
            "portfolio" => {
                let cfg = PortfolioConfig::new(budget);
                Strategy::Portfolio(match self.seed {
                    Some(s) => cfg.with_seed(s),
                    None => cfg,
                })
            }
            other => panic!("the benchmark issues no `{other}` queries"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_cli_and_serve_forms() {
        let q = Query::search(0, "sa", 500, 9);
        assert_eq!(
            q.cli_args("place", Path::new("t.txt")).join(" "),
            "place --trace t.txt --json --dbcs 8 --threads 2 --strategy sa --budget-evals 500 --seed 9"
        );
        assert_eq!(
            q.serve_line("a b\na"),
            "place strategy=sa dbcs=8 budget-evals=500 seed=9 :: a b\\na"
        );
        let h = Query::plain(1, "dma-sr");
        assert_eq!(h.serve_line("x y"), "place strategy=dma-sr dbcs=8 :: x y");
        assert!(!h.is_search() && q.is_search());
        assert!(matches!(q.strategy(), Strategy::Sa(_)));
    }
}
