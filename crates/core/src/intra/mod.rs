//! Intra-DBC placement heuristics: given the set of variables assigned to
//! one DBC and the subsequence of the trace touching them, choose the order
//! (offsets) along the track.
//!
//! The paper evaluates three of them (§IV-A):
//!
//! * [`Ofu`] — order of first use, the trivial baseline;
//! * [`Chen`] — the single-DBC heuristic of Chen et al., TVLSI'16
//!   (frequency organ-pipe);
//! * [`ShiftsReduce`] — Khan et al., 2019 (adjacency-driven bidirectional
//!   grouping with local search).

mod chen;
pub(crate) mod grouping;
mod ofu;
pub mod shifts_reduce;

pub use chen::Chen;
pub use ofu::Ofu;
pub use shifts_reduce::ShiftsReduce;

use rtm_trace::VarId;

/// An intra-DBC ordering heuristic.
///
/// Implementations receive the subsequence `sub` of the full trace restricted
/// to this DBC's variables and must return a permutation of exactly the
/// distinct variables occurring in `sub` (plus, appended at the tail in their
/// given order, any variable of `vars` that never occurs — they cost nothing
/// wherever they sit).
pub trait IntraHeuristic {
    /// Short, stable name (used in experiment tables: `OFU`, `Chen`, `SR`).
    fn name(&self) -> &'static str;

    /// Orders `vars` for one DBC given the restricted subsequence `sub`.
    fn order(&self, vars: &[VarId], sub: &[VarId]) -> Vec<VarId>;
}

/// Appends variables from `vars` that never occur in the ordered result.
///
/// Heuristics derive their order from the subsequence; variables assigned to
/// the DBC but never accessed must still receive offsets.
pub(crate) fn append_unaccessed(mut ordered: Vec<VarId>, vars: &[VarId]) -> Vec<VarId> {
    let mut seen = vec![false; id_bound(&ordered, vars)];
    for v in &ordered {
        seen[v.index()] = true;
    }
    for &v in vars {
        if !std::mem::replace(&mut seen[v.index()], true) {
            ordered.push(v);
        }
    }
    ordered
}

/// One more than the largest id in `a` or `b`: the length of a membership
/// bitmap over both.
fn id_bound(a: &[VarId], b: &[VarId]) -> usize {
    a.iter().chain(b).map(|v| v.index() + 1).max().unwrap_or(0)
}

/// Splits a trace into the subsequences of `lists`: `out[i]` holds, in
/// trace order, the accesses to the variables of `lists[i]`.
///
/// One pass over the trace through a variable → list map, so splitting a
/// trace over all DBCs costs O(|S| + Σ|lists|). The lists must be pairwise
/// disjoint (a distribution's DBCs are); a variable in several lists is
/// attributed to the last.
pub(crate) fn restrict_lists(accesses: &[VarId], lists: &[&[VarId]]) -> Vec<Vec<VarId>> {
    let bound = lists
        .iter()
        .flat_map(|l| l.iter())
        .map(|v| v.index() + 1)
        .max()
        .unwrap_or(0);
    let mut owner = vec![usize::MAX; bound];
    for (i, list) in lists.iter().enumerate() {
        for v in *list {
            owner[v.index()] = i;
        }
    }
    let mut subs = vec![Vec::new(); lists.len()];
    for &v in accesses {
        if let Some(&i) = owner.get(v.index()).filter(|&&i| i != usize::MAX) {
            subs[i].push(v);
        }
    }
    subs
}

#[cfg(test)]
pub(crate) mod test_util {
    use rtm_trace::{AccessSequence, VarId};

    /// Parses a trace and returns `(seq, all ids in first-use order)`.
    pub fn trace(text: &str) -> (AccessSequence, Vec<VarId>) {
        let seq = AccessSequence::parse(text).unwrap();
        let ids = seq.liveness().by_first_occurrence();
        (seq, ids)
    }

    /// Asserts `got` is a permutation of `want`.
    pub fn assert_permutation(got: &[VarId], want: &[VarId]) {
        let mut g: Vec<_> = got.to_vec();
        let mut w: Vec<_> = want.to_vec();
        g.sort_unstable();
        w.sort_unstable();
        assert_eq!(g, w, "not a permutation");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_util::*;

    #[test]
    fn append_unaccessed_keeps_order() {
        let (_, ids) = trace("a b c");
        let ordered = vec![ids[1]];
        let full = append_unaccessed(ordered, &ids);
        assert_eq!(full, vec![ids[1], ids[0], ids[2]]);
    }

    #[test]
    fn heuristics_have_distinct_names() {
        let names = [Ofu.name(), Chen.name(), ShiftsReduce::default().name()];
        assert_eq!(names, ["OFU", "Chen", "SR"]);
    }

    /// [`append_unaccessed`] as it was before the seen-set: a
    /// `Vec::contains` scan of the growing result.
    fn append_unaccessed_reference(mut ordered: Vec<VarId>, vars: &[VarId]) -> Vec<VarId> {
        for &v in vars {
            if !ordered.contains(&v) {
                ordered.push(v);
            }
        }
        ordered
    }

    use crate::test_traces::{arb_trace, sub_list};
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sub-list of first-use order, completed by any sub-list of
        /// the variables (repeats and unaccessed ids included), matches
        /// the reference.
        #[test]
        fn heuristic_oracle_append_unaccessed_matches_reference(
            seq in arb_trace(40, 300),
            keep in vec(any::<bool>(), 1..=16),
            extra in vec(0usize..48, 0..=24),
        ) {
            let ids = seq.liveness().by_first_occurrence();
            let ordered = sub_list(&ids, &keep);
            let vars: Vec<VarId> = extra.into_iter().map(VarId::from_index).chain(ids).collect();
            prop_assert_eq!(
                append_unaccessed(ordered.clone(), &vars),
                append_unaccessed_reference(ordered, &vars)
            );
        }

        /// Splitting a trace over disjoint lists in one pass matches one
        /// `restrict_to` membership filter per list.
        #[test]
        fn heuristic_oracle_restrict_lists_matches_per_list_filters(
            seq in arb_trace(40, 300),
            owner in vec(0usize..5, 1..=48),
        ) {
            let mut lists: Vec<Vec<VarId>> = vec![Vec::new(); 4];
            for i in 0..seq.vars().len() {
                // Owner 4 leaves the variable out of every list.
                if let Some(list) = lists.get_mut(owner[i % owner.len()]) {
                    list.push(VarId::from_index(i));
                }
            }
            let slices: Vec<&[VarId]> = lists.iter().map(Vec::as_slice).collect();
            let reference: Vec<Vec<VarId>> = lists
                .iter()
                .map(|l| seq.restrict_to(|v| l.contains(&v)))
                .collect();
            prop_assert_eq!(restrict_lists(seq.accesses(), &slices), reference);
        }
    }
}
