//! Shared machinery of the graph-based intra-DBC heuristics: a dense local
//! access graph over one DBC's subsequence and the center-out
//! *bidirectional grouping* both Chen and ShiftsReduce build on.
//!
//! Within one DBC (single port, free initial alignment) the exact shift
//! cost of a layout is the **minimum linear arrangement** objective
//! `Σ_{edges {u,v}} w_uv · |pos(u) − pos(v)|` over the access graph, which
//! is what the grouping greedily minimizes.

use rtm_trace::VarId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Dense edge-weight view of one DBC's restricted subsequence.
pub(crate) struct LocalGraph {
    /// Map from VarId to dense local index.
    pub(crate) index: HashMap<VarId, usize>,
    pub(crate) vars: Vec<VarId>,
    /// Adjacency list: local -> (local, weight), sorted for determinism.
    pub(crate) adj: Vec<Vec<(usize, u64)>>,
    pub(crate) freq: Vec<u64>,
}

impl LocalGraph {
    /// Builds the graph of `sub`.
    pub(crate) fn of(sub: &[VarId]) -> Self {
        let mut index = HashMap::new();
        let mut vars = Vec::new();
        for &v in sub {
            index.entry(v).or_insert_with(|| {
                vars.push(v);
                vars.len() - 1
            });
        }
        let n = vars.len();
        let mut weights: HashMap<(usize, usize), u64> = HashMap::new();
        let mut freq = vec![0u64; n];
        for &v in sub {
            freq[index[&v]] += 1;
        }
        for pair in sub.windows(2) {
            let (a, b) = (index[&pair[0]], index[&pair[1]]);
            if a != b {
                let key = (a.min(b), a.max(b));
                *weights.entry(key).or_insert(0) += 1;
            }
        }
        let mut adj = vec![Vec::new(); n];
        for (&(a, b), &w) in &weights {
            adj[a].push((b, w));
            adj[b].push((a, w));
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        Self {
            index,
            vars,
            adj,
            freq,
        }
    }

    /// Number of local vertices.
    pub(crate) fn len(&self) -> usize {
        self.vars.len()
    }

    /// Sum of incident edge weights of `v`.
    pub(crate) fn degree_weight(&self, v: usize) -> u64 {
        self.adj[v].iter().map(|&(_, w)| w).sum()
    }

    /// Arrangement objective Σ w·|pos difference| for a full layout
    /// (`pos` indexed by local vertex).
    pub(crate) fn arrangement_cost(&self, pos: &[usize]) -> u64 {
        let mut total = 0u64;
        for (a, l) in self.adj.iter().enumerate() {
            for &(b, w) in l {
                if a < b {
                    total += w * (pos[a] as i64 - pos[b] as i64).unsigned_abs();
                }
            }
        }
        total
    }
}

/// How the grouping picks its center seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seed {
    /// Highest access frequency (Chen's rule).
    Frequency,
    /// Highest adjacency mass (ShiftsReduce's rule).
    DegreeWeight,
}

/// Center-out bidirectional grouping: seed one vertex, then repeatedly take
/// the unplaced vertex most strongly connected to the placed set and append
/// it to whichever end increases the arrangement objective least.
///
/// Returns the layout as local vertex indices, left to right. Runs in
/// O((n + E) log n) for `n` vertices and `E` edges: the next vertex comes
/// off a max-heap.
pub(crate) fn bidirectional_grouping(g: &LocalGraph, seed: Seed) -> Vec<usize> {
    let n = g.len();
    if n == 0 {
        return Vec::new();
    }
    let seed_vertex = match seed {
        Seed::Frequency => {
            (0..n).max_by_key(|&v| (g.freq[v], g.degree_weight(v), Reverse(g.vars[v])))
        }
        Seed::DegreeWeight => {
            (0..n).max_by_key(|&v| (g.degree_weight(v), g.freq[v], Reverse(g.vars[v])))
        }
    };
    let Some(seed_vertex) = seed_vertex else {
        unreachable!("n > 0 was checked above")
    };

    let mut left: Vec<usize> = Vec::new(); // grows outwards; left[0] next to seed
    let mut right: Vec<usize> = vec![seed_vertex];
    let mut placed = vec![false; n];
    placed[seed_vertex] = true;
    let mut relpos: Vec<i64> = vec![0; n];
    let mut conn: Vec<u64> = vec![0; n];
    for &(b, w) in &g.adj[seed_vertex] {
        conn[b] += w;
    }

    // Max-heap of candidates keyed like the selection rule, with lazy
    // invalidation: a vertex is re-pushed whenever its connection grows, and
    // an entry is stale once its vertex is placed or its `conn` is no longer
    // current (connections only grow). The key is total — variable ids are
    // unique — so each pop is exactly the linear scan's maximum.
    let key = |v: usize, conn: u64| (conn, g.freq[v], Reverse(g.vars[v]), v);
    let mut heap: BinaryHeap<_> = (0..n)
        .filter(|&v| v != seed_vertex)
        .map(|v| key(v, conn[v]))
        .collect();

    for _ in 1..n {
        let next = loop {
            let Some((c, _, _, v)) = heap.pop() else {
                unreachable!("every unplaced vertex has a current heap entry")
            };
            if !placed[v] && c == conn[v] {
                break v;
            }
        };

        let mut cost_left = 0i128;
        let mut cost_right = 0i128;
        let lpos = -(left.len() as i64) - 1;
        let rpos = right.len() as i64;
        for &(b, w) in &g.adj[next] {
            if placed[b] {
                let p = relpos[b];
                cost_left += w as i128 * (lpos - p).abs() as i128;
                cost_right += w as i128 * (rpos - p).abs() as i128;
            }
        }
        if cost_left < cost_right {
            left.push(next);
            relpos[next] = lpos;
        } else {
            right.push(next);
            relpos[next] = rpos;
        }
        placed[next] = true;
        for &(b, w) in &g.adj[next] {
            if !placed[b] {
                conn[b] += w;
                heap.push(key(b, conn[b]));
            }
        }
    }

    left.into_iter().rev().chain(right).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_trace::AccessSequence;

    fn local(text: &str) -> (AccessSequence, LocalGraph) {
        let s = AccessSequence::parse(text).unwrap();
        let g = LocalGraph::of(s.accesses());
        (s, g)
    }

    #[test]
    fn graph_construction() {
        let (_, g) = local("a b a a c");
        assert_eq!(g.len(), 3);
        assert_eq!(g.freq, vec![3, 1, 1]);
        // edges: a-b weight 2, a-c weight 1.
        assert_eq!(g.degree_weight(0), 3);
    }

    #[test]
    fn grouping_covers_all_vertices() {
        let (_, g) = local("a b c d a c b d");
        for seed in [Seed::Frequency, Seed::DegreeWeight] {
            let layout = bidirectional_grouping(&g, seed);
            let mut sorted = layout.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..g.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chain_graph_becomes_path() {
        let (_, g) = local("a b a b b c b c c d c d");
        let layout = bidirectional_grouping(&g, Seed::DegreeWeight);
        // positions of a,b,c,d must form a path in order (or reversed).
        let pos = |v: usize| layout.iter().position(|&x| x == v).unwrap() as i64;
        assert_eq!((pos(0) - pos(1)).abs(), 1);
        assert_eq!((pos(1) - pos(2)).abs(), 1);
        assert_eq!((pos(2) - pos(3)).abs(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = LocalGraph::of(&[]);
        assert!(bidirectional_grouping(&g, Seed::Frequency).is_empty());
    }

    #[test]
    fn arrangement_cost_of_identity() {
        let (_, g) = local("a b a b");
        let pos: Vec<usize> = (0..g.len()).collect();
        assert_eq!(g.arrangement_cost(&pos), 3); // w(a,b)=3, distance 1
    }

    /// [`bidirectional_grouping`] as it was before the heap: a linear
    /// `max_by_key` over all vertices picks each next vertex.
    fn bidirectional_grouping_reference(g: &LocalGraph, seed: Seed) -> Vec<usize> {
        let n = g.len();
        if n == 0 {
            return Vec::new();
        }
        let seed_vertex = match seed {
            Seed::Frequency => (0..n)
                .max_by_key(|&v| (g.freq[v], g.degree_weight(v), std::cmp::Reverse(g.vars[v]))),
            Seed::DegreeWeight => (0..n)
                .max_by_key(|&v| (g.degree_weight(v), g.freq[v], std::cmp::Reverse(g.vars[v]))),
        };
        let Some(seed_vertex) = seed_vertex else {
            unreachable!("n > 0 was checked above")
        };

        let mut left: Vec<usize> = Vec::new(); // grows outwards; left[0] next to seed
        let mut right: Vec<usize> = vec![seed_vertex];
        let mut placed = vec![false; n];
        placed[seed_vertex] = true;
        let mut relpos: Vec<i64> = vec![0; n];
        let mut conn: Vec<u64> = vec![0; n];
        for &(b, w) in &g.adj[seed_vertex] {
            conn[b] += w;
        }

        for _ in 1..n {
            let next = (0..n)
                .filter(|&v| !placed[v])
                .max_by_key(|&v| (conn[v], g.freq[v], std::cmp::Reverse(g.vars[v])));
            let Some(next) = next else {
                unreachable!("fewer than n vertices are placed")
            };

            let mut cost_left = 0i128;
            let mut cost_right = 0i128;
            let lpos = -(left.len() as i64) - 1;
            let rpos = right.len() as i64;
            for &(b, w) in &g.adj[next] {
                if placed[b] {
                    let p = relpos[b];
                    cost_left += w as i128 * (lpos - p).abs() as i128;
                    cost_right += w as i128 * (rpos - p).abs() as i128;
                }
            }
            if cost_left < cost_right {
                left.push(next);
                relpos[next] = lpos;
            } else {
                right.push(next);
                relpos[next] = rpos;
            }
            placed[next] = true;
            for &(b, w) in &g.adj[next] {
                if !placed[b] {
                    conn[b] += w;
                }
            }
        }

        left.into_iter().rev().chain(right).collect()
    }

    use crate::test_traces::arb_trace;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The heap selection lays out every access graph exactly like the
        /// linear scan, under both seed rules.
        #[test]
        fn heuristic_oracle_grouping_matches_reference(seq in arb_trace(40, 300)) {
            let g = LocalGraph::of(seq.accesses());
            for seed in [Seed::Frequency, Seed::DegreeWeight] {
                prop_assert_eq!(
                    bidirectional_grouping(&g, seed),
                    bidirectional_grouping_reference(&g, seed)
                );
            }
        }
    }
}
