use super::dma::scan_chain;
use super::{check_fit, leading_marked, var_mask, InterHeuristic};
use crate::error::PlacementError;
use rtm_trace::{AccessSequence, Liveness, VarId};

/// Multi-chain DMA — the extension the paper sketches as future work
/// (§VI: "we plan to explore placement of more than one sets of disjoint
/// variables in the same DBC and in different DBCs").
///
/// Where [`Dma`](super::Dma) extracts a *single* chain of pairwise-disjoint
/// variables and sends everything else to AFD, `DmaMulti` re-runs the
/// liveness scan of Algorithm 1 on the leftover variables, peeling off up
/// to [`max_chains`](Self::with_max_chains) further chains. Chains are then
/// packed into DBCs first-fit in order of decreasing total access
/// frequency — so several short chains may share one DBC (concatenated in
/// first-use order, each keeping its internal access order) — and the
/// final remainder is dealt AFD-style to the remaining DBCs.
///
/// Every chain of `l` variables stored in access order costs at most
/// `l − 1` shifts *in isolation*; co-located chains add transitions between
/// each other, which is exactly the trade-off the paper wants explored.
///
/// # Example
///
/// ```
/// use rtm_placement::inter::{DmaMulti, InterHeuristic};
/// use rtm_trace::AccessSequence;
///
/// let seq = AccessSequence::parse("g a a g b b g c c g d d g")?;
/// let dist = DmaMulti::new().distribute(&seq, 3, 4)?;
/// assert_eq!(dist.iter().map(Vec::len).sum::<usize>(), 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaMulti {
    max_chains: usize,
}

impl DmaMulti {
    /// Creates the heuristic with the default chain budget (4).
    pub fn new() -> Self {
        Self { max_chains: 4 }
    }

    /// Sets the maximum number of disjoint chains to extract.
    pub fn with_max_chains(mut self, max_chains: usize) -> Self {
        self.max_chains = max_chains.max(1);
        self
    }

    /// Extracts up to `max_chains` disjoint chains; returns `(chains,
    /// leftover)` with the leftover in ascending first-occurrence order.
    pub fn chains(&self, seq: &AccessSequence) -> (Vec<Vec<VarId>>, Vec<VarId>) {
        self.chains_with(&seq.liveness())
    }

    /// [`chains`](Self::chains) with a precomputed liveness table.
    fn chains_with(&self, live: &Liveness) -> (Vec<Vec<VarId>>, Vec<VarId>) {
        let mut remaining = live.by_first_occurrence();
        let mut in_chain = vec![false; live.len()];
        let mut chains = Vec::new();
        for _ in 0..self.max_chains {
            let chain = scan_chain(live, &remaining);
            // Singleton chains no longer pay for a DBC of their own.
            if chain.len() < 2 {
                break;
            }
            for v in &chain {
                in_chain[v.index()] = true;
            }
            remaining.retain(|v| !in_chain[v.index()]);
            chains.push(chain);
            if remaining.is_empty() {
                break;
            }
        }
        (chains, remaining)
    }

    /// [`distribute`](InterHeuristic::distribute) together with the
    /// [`chain_dbc_count`](Self::chain_dbc_count) of the result, from one
    /// chain extraction.
    pub(crate) fn distribute_counted(
        &self,
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
    ) -> Result<(Vec<Vec<VarId>>, usize), PlacementError> {
        let live = seq.liveness();
        let (chains, leftover) = self.chains_with(&live);
        let chain_vars = chains.concat();
        check_fit(chain_vars.len() + leftover.len(), dbcs, capacity)?;
        let dist = deal(&live, seq.len(), chains, leftover, dbcs, capacity);
        let k = leading_marked(&dist, &var_mask(live.len(), &chain_vars));
        Ok((dist, k))
    }
}

impl Default for DmaMulti {
    fn default() -> Self {
        Self::new()
    }
}

impl InterHeuristic for DmaMulti {
    fn name(&self) -> &'static str {
        "DMA-Multi"
    }

    fn distribute(
        &self,
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
    ) -> Result<Vec<Vec<VarId>>, PlacementError> {
        self.distribute_counted(seq, dbcs, capacity)
            .map(|(dist, _)| dist)
    }
}

impl DmaMulti {
    /// Number of leading DBCs that hold chains (and must keep access order)
    /// in a distribution produced by [`distribute`](InterHeuristic::distribute).
    pub fn chain_dbc_count(
        &self,
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
    ) -> Result<usize, PlacementError> {
        self.distribute_counted(seq, dbcs, capacity).map(|(_, k)| k)
    }
}

/// Packs `chains` into DBCs and deals the `leftover` AFD-style over the
/// rest, for a trace of `accesses` accesses (the total fit is already
/// checked).
fn deal(
    live: &Liveness,
    accesses: usize,
    mut chains: Vec<Vec<VarId>>,
    mut leftover: Vec<VarId>,
    dbcs: usize,
    capacity: usize,
) -> Vec<Vec<VarId>> {
    // Give chains a number of DBCs proportional to the access volume
    // they absorb — dedicating too many DBCs to (cheap) chains starves
    // the leftover variables of spread and inflates their arrangement
    // distances.
    let chain_freq: u64 = chains.iter().flatten().map(|&v| live.frequency(v)).sum();
    let total_freq = accesses as u64;
    let share = chain_freq as f64 / total_freq.max(1) as f64;
    let chain_dbcs = if leftover.is_empty() {
        dbcs
    } else {
        // At least one DBC for a non-empty chain set, but always one for
        // the leftover (a single DBC therefore holds only leftover).
        ((dbcs as f64 * share).round() as usize)
            .max(usize::from(!chains.is_empty()))
            .min(dbcs - 1)
    };

    // First-fit-decreasing by summed access frequency.
    chains.sort_by_key(|c| std::cmp::Reverse(c.iter().map(|&v| live.frequency(v)).sum::<u64>()));
    let mut chain_bins: Vec<Vec<Vec<VarId>>> = vec![Vec::new(); chain_dbcs.max(1)];
    let mut bin_fill = vec![0usize; chain_dbcs.max(1)];
    for chain in chains {
        match (0..chain_dbcs).find(|&b| bin_fill[b] + chain.len() <= capacity) {
            Some(b) => {
                bin_fill[b] += chain.len();
                chain_bins[b].push(chain);
            }
            None => {
                // No room anywhere: chain joins the leftover.
                leftover.extend(chain);
            }
        }
    }
    // A partly filled chain bin still takes a whole DBC, so the leftover
    // can overflow the DBCs the bins leave. The least frequent bins then
    // go back to the leftover until it fits: each demotion frees a DBC
    // and adds at most `capacity` variables, and once every bin is
    // demoted the checked total fit holds.
    let mut chain_bins: Vec<Vec<Vec<VarId>>> =
        chain_bins.into_iter().filter(|b| !b.is_empty()).collect();
    while leftover.len() > (dbcs - chain_bins.len()) * capacity {
        let Some(bin) = chain_bins.pop() else { break };
        leftover.extend(bin.into_iter().flatten());
    }
    leftover.sort_by_key(|&v| live.first(v));

    let mut out: Vec<Vec<VarId>> = vec![Vec::new(); dbcs];
    let mut used = 0usize;
    for bin in chain_bins {
        // Chains sharing a DBC are *merged* in global access order:
        // temporally overlapping chains concatenated segment-by-segment
        // would ping-pong the port across whole segments, while the
        // first-use merge keeps temporally adjacent variables spatially
        // adjacent (each chain's internal order is preserved, since a
        // chain is already sorted by first use).
        let mut merged: Vec<VarId> = bin.into_iter().flatten().collect();
        merged.sort_by_key(|&v| live.first(v));
        out[used] = merged;
        used += 1;
    }

    // AFD over the remaining DBCs for the leftover.
    if !leftover.is_empty() {
        leftover.sort_by(|a, b| {
            live.frequency(*b)
                .cmp(&live.frequency(*a))
                .then(a.index().cmp(&b.index()))
        });
        let span = dbcs - used;
        debug_assert!(span > 0, "leftover must have a DBC");
        let mut d = 0usize;
        for v in leftover {
            let mut tries = 0;
            while out[used + d].len() >= capacity {
                d = (d + 1) % span;
                tries += 1;
                debug_assert!(tries <= span, "check_fit guarantees space");
            }
            out[used + d].push(v);
            d = (d + 1) % span;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::placement::Placement;

    /// Workload with two interleaved "streams" of temporaries: a single
    /// scan only harvests one chain, the re-scan gets the second.
    const TWO_STREAM: &str = "g a a g b b g c c g d d g e e g f f g";

    #[test]
    fn extracts_multiple_chains() {
        let seq = AccessSequence::parse(TWO_STREAM).unwrap();
        let multi = DmaMulti::new();
        let (chains, leftover) = multi.chains(&seq);
        assert!(!chains.is_empty());
        let total: usize = chains.iter().map(Vec::len).sum::<usize>() + leftover.len();
        assert_eq!(total, seq.vars().len());
        // Chains are pairwise disjoint internally.
        let live = seq.liveness();
        for chain in &chains {
            for (i, &u) in chain.iter().enumerate() {
                for &v in &chain[i + 1..] {
                    assert!(live.disjoint(u, v));
                }
            }
        }
    }

    #[test]
    fn distribute_is_complete_and_capacity_bounded() {
        let seq = AccessSequence::parse(TWO_STREAM).unwrap();
        for (dbcs, cap) in [(2usize, 8usize), (3, 4), (4, 3)] {
            let dist = DmaMulti::new().distribute(&seq, dbcs, cap).unwrap();
            let p = Placement::from_dbc_lists(dist);
            p.validate(&seq, cap).unwrap();
        }
    }

    #[test]
    fn never_worse_than_single_chain_dma_on_stream_workloads() {
        use super::super::Dma;
        let seq = AccessSequence::parse(TWO_STREAM).unwrap();
        let m = CostModel::single_port();
        let multi = Placement::from_dbc_lists(DmaMulti::new().distribute(&seq, 3, 8).unwrap());
        let single = Placement::from_dbc_lists(Dma.distribute(&seq, 3, 8).unwrap());
        let cm = m.shift_cost(&multi, seq.accesses());
        let cs = m.shift_cost(&single, seq.accesses());
        assert!(cm <= cs, "multi {cm} should be <= single {cs}");
    }

    #[test]
    fn single_dbc_degenerates_gracefully() {
        let seq = AccessSequence::parse("a a b b c c").unwrap();
        let dist = DmaMulti::new().distribute(&seq, 1, 8).unwrap();
        assert_eq!(dist.len(), 1);
        assert_eq!(dist[0].len(), 3);
    }

    #[test]
    fn all_disjoint_uses_all_dbcs() {
        let seq = AccessSequence::parse("a a b b c c d d").unwrap();
        let dist = DmaMulti::new().distribute(&seq, 2, 2).unwrap();
        let total: usize = dist.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
        assert!(dist.iter().all(|l| l.len() <= 2));
    }

    #[test]
    fn max_chains_is_respected() {
        let seq = AccessSequence::parse(TWO_STREAM).unwrap();
        let (chains, _) = DmaMulti::new().with_max_chains(1).chains(&seq);
        assert!(chains.len() <= 1);
    }

    #[test]
    fn chain_dbc_count_reports() {
        let seq = AccessSequence::parse(TWO_STREAM).unwrap();
        let k = DmaMulti::new().chain_dbc_count(&seq, 3, 8).unwrap();
        assert!((1..=2).contains(&k));
    }

    #[test]
    fn rejects_insufficient_capacity() {
        let seq = AccessSequence::parse("a b c d e").unwrap();
        assert!(DmaMulti::new().distribute(&seq, 2, 2).is_err());
    }

    /// One chain `t a b` and five nested leftover variables: the chain's
    /// DBC is only partly full, so the leftover (5) overflows the single
    /// DBC the chain leaves it (capacity 4) although all 8 variables fit
    /// the 2 × 4 geometry.
    const PARTLY_FULL_CHAIN: &str = "p q r s u t t u s r q p a a b b";

    #[test]
    fn partly_full_chain_bin_is_demoted_when_the_leftover_overflows() {
        let seq = AccessSequence::parse(PARTLY_FULL_CHAIN).unwrap();
        let (chains, leftover) = DmaMulti::new().chains(&seq);
        assert_eq!(chains.len(), 1);
        assert_eq!((chains[0].len(), leftover.len()), (3, 5));
        let (dist, k) = DmaMulti::new().distribute_counted(&seq, 2, 4).unwrap();
        Placement::from_dbc_lists(dist).validate(&seq, 4).unwrap();
        assert_eq!(k, 0, "the demoted chain is dealt with the leftover");
        // With room for the leftover the chain keeps its own DBC.
        let (_, k) = DmaMulti::new().distribute_counted(&seq, 2, 5).unwrap();
        assert_eq!(k, 1);
    }

    #[test]
    fn single_dbc_with_chains_and_leftover_places_everything() {
        let seq = AccessSequence::parse(PARTLY_FULL_CHAIN).unwrap();
        let dist = DmaMulti::new().distribute(&seq, 1, 8).unwrap();
        Placement::from_dbc_lists(dist).validate(&seq, 8).unwrap();
    }

    /// [`DmaMulti::chains`] as it was before the near-linear scan: the
    /// quadratic reference scan and a `Vec::contains` filter.
    fn chains_reference(multi: DmaMulti, seq: &AccessSequence) -> (Vec<Vec<VarId>>, Vec<VarId>) {
        let live = seq.liveness();
        let mut remaining = live.by_first_occurrence();
        let mut chains = Vec::new();
        for _ in 0..multi.max_chains {
            let chain = scan_chain_reference(&live, &remaining);
            if chain.len() < 2 {
                break;
            }
            remaining.retain(|v| !chain.contains(v));
            chains.push(chain);
            if remaining.is_empty() {
                break;
            }
        }
        (chains, remaining)
    }

    use crate::inter::dma::tests::scan_chain_reference;
    use crate::test_traces::arb_trace;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Repeated re-scans of the shrinking candidate list — the subsets
        /// `DmaMulti` feeds the scan — extract the reference's chains, and
        /// the chain-DBC count matches the one recomputed from them.
        #[test]
        fn heuristic_oracle_dma_multi_matches_reference(
            seq in arb_trace(40, 300),
            max_chains in 1usize..6,
            dbcs in 1usize..6,
            slack in 0usize..3,
        ) {
            let multi = DmaMulti::new().with_max_chains(max_chains);
            let (chains, leftover) = chains_reference(multi, &seq);
            prop_assert_eq!(multi.chains(&seq), (chains.clone(), leftover));

            let capacity = seq.liveness().by_first_occurrence().len().div_ceil(dbcs).max(1) + slack;
            let (dist, k) = multi.distribute_counted(&seq, dbcs, capacity).unwrap();
            let chain_vars: Vec<VarId> = chains.concat();
            let reference_k = dist
                .iter()
                .take_while(|l| l.first().is_some_and(|v| chain_vars.contains(v)))
                .count();
            prop_assert_eq!(k, reference_k);
            prop_assert!(Placement::from_dbc_lists(dist).validate(&seq, capacity).is_ok());
        }
    }
}
