use super::{id_bound, IntraHeuristic};
use rtm_trace::VarId;

/// Order of first use (OFU): variables receive offsets in the order they are
/// first accessed.
///
/// This is the intra-DBC baseline paired with AFD in the paper's `AFD-OFU`
/// configuration and with DMA in `DMA-OFU`. It is also the order the DMA
/// heuristic mandates for its *disjoint* DBCs, where it is provably within
/// `l − 1` shifts for `l` disjoint variables (§III-B).
///
/// # Example
///
/// ```
/// use rtm_placement::intra::{IntraHeuristic, Ofu};
/// use rtm_trace::AccessSequence;
///
/// let seq = AccessSequence::parse("c a c b")?;
/// let vars = seq.liveness().by_first_occurrence();
/// let order = Ofu.order(&vars, seq.accesses());
/// let names: Vec<&str> = order.iter().map(|&v| seq.vars().name(v)).collect();
/// assert_eq!(names, ["c", "a", "b"]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ofu;

impl IntraHeuristic for Ofu {
    fn name(&self) -> &'static str {
        "OFU"
    }

    fn order(&self, vars: &[VarId], sub: &[VarId]) -> Vec<VarId> {
        // First uses in the subsequence, then the never-accessed variables.
        let mut seen = vec![false; id_bound(sub, vars)];
        sub.iter()
            .chain(vars)
            .copied()
            .filter(|v| !std::mem::replace(&mut seen[v.index()], true))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intra::test_util::*;

    #[test]
    fn orders_by_first_use() {
        let (s, ids) = trace("b a b c a");
        let order = Ofu.order(&ids, s.accesses());
        let names: Vec<&str> = order.iter().map(|&v| s.vars().name(v)).collect();
        assert_eq!(names, ["b", "a", "c"]);
    }

    #[test]
    fn result_is_permutation() {
        let (s, ids) = trace("x y z y x z z");
        let order = Ofu.order(&ids, s.accesses());
        assert_permutation(&order, &ids);
    }

    #[test]
    fn unaccessed_vars_go_last() {
        let (s, _) = trace("a b");
        let extra = VarId::from_index(7);
        let vars = vec![s.vars().id("b").unwrap(), extra, s.vars().id("a").unwrap()];
        let order = Ofu.order(&vars, s.accesses());
        assert_eq!(order.last(), Some(&extra));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn empty_subsequence_keeps_given_order() {
        let vars: Vec<VarId> = (0..3).map(VarId::from_index).collect();
        let order = Ofu.order(&vars, &[]);
        assert_eq!(order, vars);
    }

    /// [`Ofu::order`] as it was before the seen-set: `Vec::contains`
    /// scans of the growing order.
    fn order_reference(vars: &[VarId], sub: &[VarId]) -> Vec<VarId> {
        let mut seen = Vec::with_capacity(vars.len());
        for &v in sub {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        for &v in vars {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    use crate::test_traces::{arb_trace, sub_list};
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any trace, with any sub-list of its variables plus unaccessed
        /// ids as the DBC's variable list, orders like the reference.
        #[test]
        fn heuristic_oracle_ofu_matches_reference(
            seq in arb_trace(40, 300),
            keep in vec(any::<bool>(), 1..=16),
            extra in vec(0usize..48, 0..=8),
        ) {
            let ids = seq.liveness().by_first_occurrence();
            let vars: Vec<VarId> = sub_list(&ids, &keep)
                .into_iter()
                .chain(extra.into_iter().map(VarId::from_index))
                .collect();
            let sub = seq.restrict_to(|v| vars.contains(&v));
            prop_assert_eq!(Ofu.order(&vars, &sub), order_reference(&vars, &sub));
        }
    }
}
