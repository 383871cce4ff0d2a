//! Bipartite graph representation and randomized construction.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ExpanderParams;

/// A bipartite graph `G = (V, W, E)` with regular input degree, stored as a
/// flat adjacency array. Inputs are `0..num_inputs`, outputs are
/// `0..num_outputs`.
///
/// Construction is deterministic given the seed, so every process in a
/// distributed execution derives the *same* graph from shared code — the
/// graph is part of the algorithm's code, exactly as in the paper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BipartiteGraph {
    num_inputs: usize,
    num_outputs: usize,
    degree: usize,
    /// `adj[v*degree ..][..degree]` are the neighbours of input `v`.
    adj: Vec<u32>,
}

impl BipartiteGraph {
    /// Builds a graph from an explicit adjacency function.
    ///
    /// # Panics
    ///
    /// Panics if any produced neighbour is out of range, or if
    /// `num_outputs` exceeds `u32::MAX`.
    pub fn from_fn(
        num_inputs: usize,
        num_outputs: usize,
        degree: usize,
        mut neighbors: impl FnMut(usize, usize) -> usize,
    ) -> Self {
        assert!(u32::try_from(num_outputs).is_ok(), "too many outputs");
        let mut adj = Vec::with_capacity(num_inputs * degree);
        for v in 0..num_inputs {
            for i in 0..degree {
                let w = neighbors(v, i);
                assert!(w < num_outputs, "neighbour {w} out of range");
                adj.push(w as u32);
            }
        }
        BipartiteGraph {
            num_inputs,
            num_outputs,
            degree,
            adj,
        }
    }

    /// The randomized construction of Lemma 3: each input independently
    /// picks `Δ` *distinct* uniform neighbours, with `Δ` and `|W|` sized by
    /// `params` for contender capacity `capacity`.
    ///
    /// The output count is [`ExpanderParams::width`], which is never below
    /// the degree.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs == 0`, or if the output count exceeds
    /// `u32::MAX` (checked before anything is allocated).
    #[must_use]
    pub fn random(num_inputs: usize, capacity: usize, params: &ExpanderParams, seed: u64) -> Self {
        assert!(num_inputs > 0, "graph needs at least one input");
        let degree = params.degree(num_inputs, capacity);
        let num_outputs = params.width(num_inputs, capacity);
        let outputs = u32::try_from(num_outputs).expect("too many outputs");
        let edges = num_inputs
            .checked_mul(degree)
            .expect("adjacency size overflows usize");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut adj = Vec::with_capacity(edges);
        for v in 0..num_inputs {
            // Reject a repeat by scanning the ≤ Δ neighbours drawn so far
            // for `v`: cheaper than hashing at every degree used here.
            let drawn = v * degree;
            while adj.len() < drawn + degree {
                let w = rng.gen_range(0..outputs);
                if !adj[drawn..].contains(&w) {
                    adj.push(w);
                }
            }
        }
        BipartiteGraph {
            num_inputs,
            num_outputs,
            degree,
            adj,
        }
    }

    /// Number of inputs `|V|`.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of outputs `|W|`.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Input degree `Δ`.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The neighbours of input `v`, in walk order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_inputs()`.
    #[must_use]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        assert!(v < self.num_inputs, "input {v} out of range");
        &self.adj[v * self.degree..(v + 1) * self.degree]
    }

    /// The neighbourhood `Γ(X)` of an input subset.
    #[must_use]
    pub fn neighborhood(&self, subset: &[usize]) -> HashSet<u32> {
        subset
            .iter()
            .flat_map(|&v| self.neighbors(v).iter().copied())
            .collect()
    }

    /// The *unique-neighbour matching* of Lemma 2: pairs `(v, w)` where
    /// output `w` is adjacent to exactly one member `v` of `subset`, at
    /// most one pair per input. For an `(L, Δ, ε)`-lossless expander and
    /// `|subset| ≤ L` its size exceeds `(1−2ε)|subset|`.
    #[must_use]
    pub fn unique_neighbor_matching(&self, subset: &[usize]) -> Vec<(usize, u32)> {
        let mut owner: std::collections::HashMap<u32, Option<usize>> =
            std::collections::HashMap::new();
        for &v in subset {
            for &w in self.neighbors(v) {
                owner
                    .entry(w)
                    .and_modify(|o| *o = None) // second toucher: not unique
                    .or_insert(Some(v));
            }
        }
        let mut matched: HashSet<usize> = HashSet::new();
        let mut out = Vec::new();
        let mut pairs: Vec<(u32, usize)> = owner
            .into_iter()
            .filter_map(|(w, o)| o.map(|v| (w, v)))
            .collect();
        pairs.sort_unstable();
        for (w, v) in pairs {
            if matched.insert(v) {
                out.push((v, w));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_per_seed() {
        let p = ExpanderParams::compact();
        let a = BipartiteGraph::random(128, 8, &p, 5);
        let b = BipartiteGraph::random(128, 8, &p, 5);
        let c = BipartiteGraph::random(128, 8, &p, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn neighbors_are_distinct_and_in_range() {
        let p = ExpanderParams::compact();
        let g = BipartiteGraph::random(64, 4, &p, 1);
        for v in 0..g.num_inputs() {
            let ns = g.neighbors(v);
            assert_eq!(ns.len(), g.degree());
            let set: HashSet<_> = ns.iter().collect();
            assert_eq!(set.len(), ns.len(), "duplicate neighbour at input {v}");
            assert!(ns.iter().all(|&w| (w as usize) < g.num_outputs()));
        }
    }

    /// FNV-1a over every adjacency list in input order.
    fn fnv(g: &BipartiteGraph) -> u64 {
        (0..g.num_inputs())
            .flat_map(|v| g.neighbors(v).iter().copied())
            .fold(0xcbf2_9ce4_8422_2325, |h, w| {
                (h ^ u64::from(w)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn random_graphs_are_pinned() {
        // The graphs are part of the algorithms' code: a change to the
        // sampler or its generator would silently swap every algorithm.
        let p = ExpanderParams::compact();
        assert_eq!(
            fnv(&BipartiteGraph::random(65_536, 8, &p, 7)),
            0x8bac_d5bb_f2e7_7a08
        );
        assert_eq!(
            fnv(&BipartiteGraph::random(32_896, 256, &p, 7)),
            0xb42c_b90a_4b49_0bc6
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "2^20 inputs: release only")]
    fn large_random_graph_is_pinned() {
        let g = BipartiteGraph::random(1 << 20, 64, &ExpanderParams::compact(), 7);
        assert_eq!(fnv(&g), 0x57de_60c2_1cba_f4ee);
    }

    #[test]
    #[should_panic(expected = "too many outputs")]
    fn random_rejects_output_ids_beyond_u32() {
        // 7·2³⁷ outputs: the check must fire before the 2⁴⁰·Δ-entry
        // adjacency array is allocated.
        let _ = BipartiteGraph::random(1 << 40, 1 << 33, &ExpanderParams::compact(), 0);
    }

    #[test]
    fn from_fn_builds_explicit_graph() {
        let g = BipartiteGraph::from_fn(3, 6, 2, |v, i| 2 * v + i);
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.neighbors(2), &[4, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_fn_rejects_bad_neighbor() {
        let _ = BipartiteGraph::from_fn(1, 2, 1, |_, _| 7);
    }

    #[test]
    fn matching_on_disjoint_graph_is_perfect() {
        // Inputs with disjoint neighbourhoods: everyone matched.
        let g = BipartiteGraph::from_fn(4, 8, 2, |v, i| 2 * v + i);
        let m = g.unique_neighbor_matching(&[0, 1, 2, 3]);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn matching_detects_shared_outputs() {
        // Two inputs with identical neighbourhoods: no unique neighbours.
        let g = BipartiteGraph::from_fn(2, 2, 2, |_, i| i);
        let m = g.unique_neighbor_matching(&[0, 1]);
        assert!(m.is_empty());
        // Alone, input 0 has both outputs unique.
        assert_eq!(g.unique_neighbor_matching(&[0]).len(), 1);
    }

    #[test]
    fn matching_is_a_matching() {
        let p = ExpanderParams::compact();
        let g = BipartiteGraph::random(256, 16, &p, 3);
        let subset: Vec<usize> = (0..16).map(|i| i * 13 % 256).collect();
        let m = g.unique_neighbor_matching(&subset);
        let inputs: HashSet<_> = m.iter().map(|(v, _)| v).collect();
        let outputs: HashSet<_> = m.iter().map(|(_, w)| w).collect();
        assert_eq!(inputs.len(), m.len());
        assert_eq!(outputs.len(), m.len());
        for (v, w) in &m {
            assert!(g.neighbors(*v).contains(w));
        }
    }

    #[test]
    fn neighborhood_size() {
        let g = BipartiteGraph::from_fn(3, 10, 2, |v, i| (3 * v + i) % 10);
        let nb = g.neighborhood(&[0, 1]);
        assert_eq!(nb, HashSet::from([0, 1, 3, 4]));
    }
}
