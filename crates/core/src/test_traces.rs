//! Random traces for the `heuristic_oracle` property tests, which check
//! each near-linear heuristic kernel against the quadratic form it
//! replaced (kept as a test-only reference beside it).

use proptest::collection::vec;
use proptest::prelude::*;
use rtm_trace::{AccessSequence, VarId, VarTable};

/// Number of trace shapes [`arb_trace`] mixes.
const SHAPES: usize = 5;

/// Random traces over at most `max_vars` variables and `max_len` accesses,
/// mixing five shapes:
///
/// 0. uniform accesses;
/// 1. heavy frequency ties — every variable accessed equally often;
/// 2. a single variable;
/// 3. the empty trace (every interned variable unaccessed);
/// 4. a sliding window — short, mostly disjoint lifespans, which gives the
///    DMA scan long chains to find.
pub(crate) fn arb_trace(max_vars: usize, max_len: usize) -> impl Strategy<Value = AccessSequence> {
    (0..SHAPES).prop_flat_map(move |shape| {
        (1..=max_vars).prop_flat_map(move |nvars| {
            vec(any::<u64>(), 0..=max_len).prop_map(move |raw| build(shape, nvars, &raw))
        })
    })
}

fn build(shape: usize, nvars: usize, raw: &[u64]) -> AccessSequence {
    let n = nvars as u64;
    let accesses: Vec<usize> = match shape {
        0 => raw.iter().map(|r| (r % n) as usize).collect(),
        1 => {
            // Every variable `len / nvars` times, in the order of the keys.
            let len = raw.len() - raw.len() % nvars;
            let mut slots: Vec<usize> = (0..len).collect();
            slots.sort_by_key(|&j| (raw[j], j));
            slots.into_iter().map(|j| j % nvars).collect()
        }
        2 => return from_indices(1, &vec![0; raw.len()]),
        3 => Vec::new(),
        _ => {
            let len = raw.len().max(1);
            raw.iter()
                .enumerate()
                .map(|(j, r)| (j * nvars / len + (r % 3) as usize).min(nvars - 1))
                .collect()
        }
    };
    from_indices(nvars, &accesses)
}

fn from_indices(nvars: usize, accesses: &[usize]) -> AccessSequence {
    let mut vars = VarTable::new();
    let ids: Vec<VarId> = (0..nvars).map(|i| vars.intern(&format!("v{i}"))).collect();
    AccessSequence::from_ids(vars, accesses.iter().map(|&i| ids[i]).collect())
}

/// The variables of `vars` whose `keep` bit is set (bits cycle when `keep`
/// is shorter), in their given order — a random sub-list.
pub(crate) fn sub_list(vars: &[VarId], keep: &[bool]) -> Vec<VarId> {
    if keep.is_empty() {
        return Vec::new();
    }
    vars.iter()
        .enumerate()
        .filter(|(i, _)| keep[i % keep.len()])
        .map(|(_, &v)| v)
        .collect()
}
