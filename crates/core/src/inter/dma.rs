use super::{check_fit, leading_marked, var_mask, InterHeuristic};
use crate::error::PlacementError;
use rtm_trace::{AccessSequence, Liveness, VarId};

/// The paper's proposed inter-DBC heuristic (Algorithm 1): *Disjoint Memory
/// Accesses* (DMA).
///
/// The heuristic scans the variables in ascending order of first occurrence
/// and greedily extracts a set `V_dj` of pairwise-disjoint variables that
/// maximizes self accesses: a variable `v` joins `V_dj` if its lifespan
/// starts after the previously selected variable's ends (`F_v > t_min`) and
/// its own access frequency exceeds the summed frequency of the remaining
/// non-disjoint variables strictly nested inside its lifespan
/// (`A_v > Σ_{u ∈ V_ndj, F_u > F_v, L_u < L_v} A_u`).
///
/// `l` disjoint variables stored in one DBC in access order cost at most
/// `l − 1` shifts (§III-B), so `V_dj` fills DBCs `1..K` (`K = ⌈|V_dj|/N⌉`)
/// in first-use order, while `V_ndj` is dealt to the remaining DBCs
/// round-robin by descending frequency (the AFD rule). Intra-DBC heuristics
/// are applied afterwards *only* to the non-disjoint DBCs (lines 22–23).
///
/// # Capacity edge cases (not specified by the paper)
///
/// * If `K` would consume every DBC while non-disjoint variables remain,
///   `K` is capped at `q − 1` and the excess disjoint variables (the ones
///   selected last, i.e. latest first use) are returned to `V_ndj`.
/// * If the non-disjoint side would overflow its `q − K` DBCs, `K` is
///   reduced further until everything fits (possible because total fit is
///   checked up front).
///
/// # Example
///
/// ```
/// use rtm_placement::inter::{Dma, InterHeuristic};
/// use rtm_trace::AccessSequence;
///
/// let seq = AccessSequence::parse("a b a b c a c a d d a i e f e f g e g h g i h i")?;
/// let part = Dma::default().partition(&seq);
/// let names: Vec<&str> = part.disjoint.iter().map(|&v| seq.vars().name(v)).collect();
/// assert_eq!(names, ["b", "c", "d", "e", "h"]); // the paper's V_dj
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dma;

/// The intermediate result of DMA's liveness scan (lines 5–12 of
/// Algorithm 1), exposed for inspection ([`Dma::partition`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaPartition {
    /// Pairwise-disjoint variables, in ascending order of first occurrence.
    pub disjoint: Vec<VarId>,
    /// All remaining variables, in ascending order of first occurrence.
    pub non_disjoint: Vec<VarId>,
}

impl Dma {
    /// Runs the disjointness scan of Algorithm 1 (lines 5–12) without
    /// assigning DBCs.
    pub fn partition(&self, seq: &AccessSequence) -> DmaPartition {
        let live = seq.liveness();
        self.partition_with(&live)
    }

    /// [`partition`](Self::partition) with a precomputed liveness table.
    pub fn partition_with(&self, live: &Liveness) -> DmaPartition {
        let order = live.by_first_occurrence();
        let disjoint = scan_chain(live, &order);
        let selected = var_mask(live.len(), &disjoint);
        let non_disjoint = order.into_iter().filter(|v| !selected[v.index()]).collect();
        DmaPartition {
            disjoint,
            non_disjoint,
        }
    }

    /// [`distribute`](InterHeuristic::distribute) together with the
    /// [`disjoint_dbc_count`](Self::disjoint_dbc_count) of the result, from
    /// one liveness scan.
    pub(crate) fn distribute_counted(
        &self,
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
    ) -> Result<(Vec<Vec<VarId>>, usize), PlacementError> {
        let live = seq.liveness();
        let part = self.partition_with(&live);
        check_fit(
            part.disjoint.len() + part.non_disjoint.len(),
            dbcs,
            capacity,
        )?;
        // The scan's selection, taken before the capacity loop may demote
        // some of it to the non-disjoint side.
        let selected = var_mask(live.len(), &part.disjoint);
        let dist = deal(&live, part, dbcs, capacity);
        let k = leading_marked(&dist, &selected);
        Ok((dist, k))
    }

    /// Number of leading DBCs holding disjoint variables in a distribution
    /// previously produced by [`distribute`](InterHeuristic::distribute).
    ///
    /// Composite strategies use this to know which DBCs must keep their
    /// access order (the disjoint ones) and which may be reordered by an
    /// intra-DBC heuristic.
    pub fn disjoint_dbc_count(
        &self,
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
    ) -> Result<usize, PlacementError> {
        self.distribute_counted(seq, dbcs, capacity).map(|(_, k)| k)
    }
}

/// One pass of Algorithm 1's liveness scan (lines 5–12) over `candidates`
/// (distinct variables in ascending first-occurrence order): extracts a
/// pairwise-disjoint chain maximizing self accesses.
///
/// Line 10 compares `A_v` with the summed frequency of the candidates still
/// in `V_ndj` whose lifespans nest strictly inside `v`'s (`F_u > F_v`,
/// `L_u < L_v`). That sum does not depend on the chain built so far: the
/// scan visits candidates in ascending `F`, so every variable already moved
/// to the chain has `F_u < F_v` and fails the nesting test anyway. All
/// nested sums are therefore computed up front ([`nested_sums`]) and the
/// scan itself is a single linear pass: O(C log C) for `C` candidates.
pub(crate) fn scan_chain(live: &Liveness, candidates: &[VarId]) -> Vec<VarId> {
    let nested = nested_sums(live, candidates);
    let mut chain = Vec::new();
    let mut t_min = 0usize;
    for (&v, &nested_sum) in candidates.iter().zip(&nested) {
        if live.first(v) > t_min && live.frequency(v) > nested_sum {
            chain.push(v);
            t_min = live.last(v);
        }
    }
    chain
}

/// For every candidate `v` (ascending first occurrence), `Σ A_u` over the
/// candidates `u` with `F_u > F_v` and `L_u < L_v`.
///
/// One reverse sweep: walking the candidates by descending `F`, a Fenwick
/// tree holds the frequencies of the candidates already passed (exactly
/// those with `F_u > F_v`), keyed by the rank of `L_u`, so the prefix below
/// `v`'s rank is its nested sum. Keying by rank rather than by trace
/// position keeps the tree at O(C) memory on any trace length. Distinct
/// accessed variables have distinct last occurrences, so ranks are exact;
/// an unaccessed candidate has frequency 0 and adds nothing.
fn nested_sums(live: &Liveness, candidates: &[VarId]) -> Vec<u64> {
    let n = candidates.len();
    let mut by_last: Vec<usize> = (0..n).collect();
    by_last.sort_unstable_by_key(|&i| live.last(candidates[i]));
    let mut rank = vec![0usize; n];
    for (r, &i) in by_last.iter().enumerate() {
        rank[i] = r;
    }
    let mut tree = Fenwick::new(n);
    let mut nested = vec![0u64; n];
    for i in (0..n).rev() {
        nested[i] = tree.prefix(rank[i]);
        tree.add(rank[i], live.frequency(candidates[i]));
    }
    nested
}

/// A Fenwick (binary indexed) tree of sums over the ranks `0..n`.
struct Fenwick(Vec<u64>);

impl Fenwick {
    fn new(n: usize) -> Self {
        Self(vec![0; n + 1])
    }

    /// Adds `value` at `rank`.
    fn add(&mut self, rank: usize, value: u64) {
        let mut i = rank + 1;
        while i < self.0.len() {
            self.0[i] += value;
            i += i & i.wrapping_neg();
        }
    }

    /// The sum over the ranks `0..rank`.
    fn prefix(&self, rank: usize) -> u64 {
        let mut i = rank;
        let mut sum = 0;
        while i > 0 {
            sum += self.0[i];
            i &= i - 1;
        }
        sum
    }
}

impl InterHeuristic for Dma {
    fn name(&self) -> &'static str {
        "DMA"
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

/// Lines 13–21 of Algorithm 1: deals a partition over `dbcs` DBCs of
/// `capacity` locations (the total fit is already checked).
fn deal(live: &Liveness, part: DmaPartition, dbcs: usize, capacity: usize) -> Vec<Vec<VarId>> {
    let DmaPartition {
        mut disjoint,
        mut non_disjoint,
    } = part;
    // K = ceil(|Vdj| / N), capped so the non-disjoint side fits.
    let mut k = disjoint.len().div_ceil(capacity);
    loop {
        let k_eff = if non_disjoint.is_empty() {
            k.min(dbcs)
        } else {
            k.min(dbcs.saturating_sub(1))
        };
        let dj_cap = k_eff * capacity;
        let ndj_cap = (dbcs - k_eff) * capacity;
        if disjoint.len() > dj_cap {
            // Demote the latest-selected disjoint variables.
            let demoted = disjoint.split_off(dj_cap);
            // Keep V_ndj in first-occurrence order.
            non_disjoint.extend(demoted);
            non_disjoint.sort_by_key(|&v| live.first(v));
            k = k_eff;
            continue;
        }
        if non_disjoint.len() > ndj_cap {
            // Shrink the disjoint side to free DBCs (total fit holds, so
            // k > 0 here).
            debug_assert!(k_eff > 0);
            k = k_eff - 1;
            let demoted = disjoint.split_off(k * capacity);
            non_disjoint.extend(demoted);
            non_disjoint.sort_by_key(|&v| live.first(v));
            continue;
        }
        k = k_eff;
        break;
    }

    let mut out: Vec<Vec<VarId>> = vec![Vec::new(); dbcs];

    // Lines 14–17: disjoint variables round-robin over DBCs 0..K in
    // ascending F_v (they arrive already sorted).
    if k > 0 {
        for (i, &v) in disjoint.iter().enumerate() {
            out[i % k].push(v);
        }
    }

    // Lines 18–21: non-disjoint variables round-robin over DBCs K..q in
    // descending A_v (AFD rule; ties by id like `Afd`).
    if !non_disjoint.is_empty() {
        non_disjoint.sort_by(|a, b| {
            live.frequency(*b)
                .cmp(&live.frequency(*a))
                .then(a.index().cmp(&b.index()))
        });
        let span = dbcs - k;
        let mut d = 0usize;
        for v in non_disjoint {
            let mut tries = 0;
            while out[k + d].len() >= capacity {
                d = (d + 1) % span;
                tries += 1;
                debug_assert!(tries <= span, "capacity loop guarantees space");
            }
            out[k + d].push(v);
            d = (d + 1) % span;
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::placement::Placement;

    const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

    fn names(seq: &AccessSequence, l: &[VarId]) -> Vec<String> {
        l.iter().map(|&v| seq.vars().name(v).to_owned()).collect()
    }

    #[test]
    fn partition_selects_paper_set() {
        let s = AccessSequence::parse(PAPER_SEQ).unwrap();
        let p = Dma.partition(&s);
        assert_eq!(names(&s, &p.disjoint), ["b", "c", "d", "e", "h"]);
        assert_eq!(names(&s, &p.non_disjoint), ["a", "i", "f", "g"]);
        // Sum of frequencies of the disjoint set is 11 (paper text).
        let live = s.liveness();
        let sum: u64 = p.disjoint.iter().map(|&v| live.frequency(v)).sum();
        assert_eq!(sum, 11);
    }

    #[test]
    fn distribute_reproduces_fig3d_cost() {
        let s = AccessSequence::parse(PAPER_SEQ).unwrap();
        let dist = Dma.distribute(&s, 2, 512).unwrap();
        assert_eq!(names(&s, &dist[0]), ["b", "c", "d", "e", "h"]);
        // Non-disjoint side in AFD order: a(5), f,g,i by... freq g=3,i=3,f=2,
        // ids: a=0,i=4,f=6? ids follow first occurrence: a,b,c,d,i,e,f,g,h.
        // So i(3) has smaller id than g(3): order a, i, g, f.
        assert_eq!(names(&s, &dist[1]), ["a", "i", "g", "f"]);
        let p = Placement::from_dbc_lists(dist);
        let costs = CostModel::single_port().per_dbc_costs(&p, s.accesses());
        assert_eq!(costs[0], 4); // disjoint DBC, Fig. 3(d)
                                 // total is at most the paper's 11 (paper used layout a,f,g,i = 7;
                                 // AFD order here gives a different but comparable cost).
        let total: u64 = costs.iter().sum();
        assert!(total <= 11, "DMA total {total} should be <= paper's 11");
    }

    #[test]
    fn disjoint_vars_are_pairwise_disjoint() {
        let s = AccessSequence::parse(PAPER_SEQ).unwrap();
        let part = Dma.partition(&s);
        let live = s.liveness();
        for (i, &u) in part.disjoint.iter().enumerate() {
            for &v in &part.disjoint[i + 1..] {
                assert!(live.disjoint(u, v), "{u} and {v} not disjoint");
            }
        }
    }

    #[test]
    fn disjoint_dbc_cost_bound_holds() {
        // l disjoint vars in access order cost at most l-1 shifts.
        let s = AccessSequence::parse("a a a b b c c c c d d e").unwrap();
        let part = Dma.partition(&s);
        let l = part.disjoint.len();
        assert!(l >= 2, "workload should have disjoint vars");
        let dist = Dma.distribute(&s, 2, 512).unwrap();
        let p = Placement::from_dbc_lists(dist);
        let costs = CostModel::single_port().per_dbc_costs(&p, s.accesses());
        assert!(costs[0] <= (l - 1) as u64);
    }

    #[test]
    fn all_disjoint_workload_uses_all_dbcs() {
        let s = AccessSequence::parse("a a b b c c d d").unwrap();
        let part = Dma.partition(&s);
        assert_eq!(part.disjoint.len(), 4);
        assert!(part.non_disjoint.is_empty());
        let dist = Dma.distribute(&s, 2, 2).unwrap();
        assert_eq!(dist[0].len(), 2);
        assert_eq!(dist[1].len(), 2);
    }

    #[test]
    fn overflowing_disjoint_set_is_demoted() {
        // 4 disjoint vars but capacity 2 with 2 DBCs and one non-disjoint
        // var that interleaves with nothing? Make x overlap everything.
        let s = AccessSequence::parse("x a a x b b x c c x d d x").unwrap();
        let part = Dma.partition(&s);
        assert_eq!(part.disjoint.len(), 4);
        assert_eq!(names(&s, &part.non_disjoint), ["x"]);
        // 2 DBCs x capacity 3: K capped at 1 -> 3 disjoint vars kept, one
        // demoted to the non-disjoint DBC.
        let dist = Dma.distribute(&s, 2, 3).unwrap();
        assert!(dist[0].len() <= 3 && dist[1].len() <= 3);
        let total: usize = dist.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn rejects_insufficient_capacity() {
        let s = AccessSequence::parse("a b c d e").unwrap();
        assert!(matches!(
            Dma.distribute(&s, 2, 2),
            Err(PlacementError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn no_disjoint_vars_degenerates_to_afd_layout() {
        // Fully interleaved: no variable is ever disjoint... except the
        // scan may still pick the first one if its frequency dominates.
        let s = AccessSequence::parse("a b c a b c a b c").unwrap();
        let part = Dma.partition(&s);
        // a [1,7], b [2,8], c [3,9]: nothing is *nested* inside a (b and c
        // end after it), so a's nested sum is 0 < 3 and a is selected;
        // t_min=7 then skips b (F=2) and c (F=3). Result: {a} — the scan
        // selects at most a chain even on fully interleaved traces.
        assert_eq!(names(&s, &part.disjoint), ["a"]);
        let dist = Dma.distribute(&s, 2, 8).unwrap();
        let total: usize = dist.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn disjoint_dbc_count_reports_k() {
        let s = AccessSequence::parse(PAPER_SEQ).unwrap();
        assert_eq!(Dma.disjoint_dbc_count(&s, 2, 512).unwrap(), 1);
        let s2 = AccessSequence::parse("a b c a b c").unwrap();
        // disjoint = {a}? a: covers b,c? a [1,4], b [2,5], c [3,6].
        // a: nested = none (b,c end after a) -> selected.
        let part = Dma.partition(&s2);
        assert_eq!(names(&s2, &part.disjoint), ["a"]);
        assert_eq!(Dma.disjoint_dbc_count(&s2, 2, 8).unwrap(), 1);
    }

    #[test]
    fn single_dbc_everything_together() {
        let s = AccessSequence::parse("a a b b").unwrap();
        let dist = Dma.distribute(&s, 1, 8).unwrap();
        assert_eq!(dist.len(), 1);
        assert_eq!(dist[0].len(), 2);
    }

    /// The O(C²) scan [`scan_chain`] replaced: re-sums the nested
    /// frequencies of the candidates still in `V_ndj` for every variable.
    pub(crate) fn scan_chain_reference(live: &Liveness, candidates: &[VarId]) -> Vec<VarId> {
        let mut in_ndj: Vec<bool> = vec![false; live.len()];
        for &v in candidates {
            in_ndj[v.index()] = true;
        }
        let mut chain = Vec::new();
        let mut t_min = 0usize;
        for &v in candidates {
            if live.first(v) > t_min {
                // Σ A_u over u still in V_ndj with F_u > F_v and L_u < L_v.
                let nested_sum: u64 = candidates
                    .iter()
                    .filter(|&&u| {
                        u != v
                            && in_ndj[u.index()]
                            && live.first(u) > live.first(v)
                            && live.last(u) < live.last(v)
                    })
                    .map(|&u| live.frequency(u))
                    .sum();
                if live.frequency(v) > nested_sum {
                    chain.push(v);
                    in_ndj[v.index()] = false;
                    t_min = live.last(v);
                }
            }
        }
        chain
    }

    #[test]
    fn heuristic_oracle_scan_chain_handles_empty_and_single_variable_traces() {
        let empty = AccessSequence::from_ids(rtm_trace::VarTable::new(), Vec::new());
        assert!(scan_chain(&empty.liveness(), &[]).is_empty());
        let single = AccessSequence::parse("a a a").unwrap();
        let live = single.liveness();
        let order = live.by_first_occurrence();
        assert_eq!(scan_chain(&live, &order), order);
        assert_eq!(
            scan_chain(&live, &order),
            scan_chain_reference(&live, &order)
        );
    }

    use crate::test_traces::{arb_trace, sub_list};
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The rank-indexed Fenwick scan selects exactly the reference's
        /// chain over every accessed variable.
        #[test]
        fn heuristic_oracle_scan_chain_matches_reference(seq in arb_trace(40, 300)) {
            let live = seq.liveness();
            let order = live.by_first_occurrence();
            prop_assert_eq!(scan_chain(&live, &order), scan_chain_reference(&live, &order));
        }

        /// Candidate subsets (any sub-list of the first-occurrence order,
        /// the form `DmaMulti` re-scans) select the reference's chain.
        #[test]
        fn heuristic_oracle_scan_chain_matches_reference_on_subsets(
            seq in arb_trace(40, 300),
            keep in vec(any::<bool>(), 1..=16),
        ) {
            let live = seq.liveness();
            let candidates = sub_list(&live.by_first_occurrence(), &keep);
            prop_assert_eq!(
                scan_chain(&live, &candidates),
                scan_chain_reference(&live, &candidates)
            );
        }

        /// The partition and the disjoint-DBC count match the reference
        /// scan's, at geometries from exactly full to roomy.
        #[test]
        fn heuristic_oracle_distribution_matches_reference(
            seq in arb_trace(40, 300),
            dbcs in 1usize..6,
            slack in 0usize..3,
        ) {
            let live = seq.liveness();
            let order = live.by_first_occurrence();
            let disjoint = scan_chain_reference(&live, &order);
            let non_disjoint: Vec<VarId> =
                order.iter().copied().filter(|v| !disjoint.contains(v)).collect();
            let part = Dma.partition(&seq);
            prop_assert_eq!(part.disjoint, disjoint);
            prop_assert_eq!(part.non_disjoint, non_disjoint);

            let capacity = order.len().div_ceil(dbcs).max(1) + slack;
            let (dist, k) = Dma.distribute_counted(&seq, dbcs, capacity).unwrap();
            let reference_k = dist
                .iter()
                .take_while(|l| l.first().is_some_and(|v| disjoint.contains(v)))
                .count();
            prop_assert_eq!(k, reference_k);
        }
    }
}
