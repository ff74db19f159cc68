//! Random linear causal graphs (paper Appendix F).
//!
//! A *linear causal graph* is a DAG whose node values obey a linear
//! structural equation model. Nodes are identified with indices `0..k`
//! ordered topologically (edges always point from lower to higher index).
//! Node `k-1` is the designated **effect variable** `V_k`: it has no
//! outgoing edges and at least one incoming edge. Its ancestor roots (no
//! incoming edges) are the **root cause variables** that carry the
//! injected anomaly.

use rand::rngs::StdRng;
use rand::Rng;

/// A DAG with SEM coefficients on its edges.
#[derive(Debug, Clone)]
pub struct CausalGraph {
    /// Number of variables `k`.
    pub k: usize,
    /// `coeff[j]` lists `(i, c_ij)` pairs: parents of `j` and their
    /// coefficients.
    pub parents: Vec<Vec<(usize, f64)>>,
}

impl CausalGraph {
    /// Generate a random graph of `k >= 2` nodes. Each forward pair
    /// `(i, j)` gets an edge with probability `edge_prob`; the effect
    /// variable `k-1` is guaranteed at least one parent. Coefficients are
    /// non-zero integers drawn from `[-10, 10]` (paper App. F).
    pub fn random(k: usize, edge_prob: f64, rng: &mut StdRng) -> CausalGraph {
        assert!(k >= 2, "a causal graph needs at least two variables");
        let mut parents: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k];
        let coeff = |rng: &mut StdRng| -> f64 {
            // Non-zero integer in [-10, 10].
            let magnitude = rng.random_range(1..=10) as f64;
            if rng.random::<bool>() {
                magnitude
            } else {
                -magnitude
            }
        };
        for (j, node_parents) in parents.iter_mut().enumerate().skip(1) {
            for i in 0..j {
                if rng.random::<f64>() < edge_prob {
                    let c = coeff(rng);
                    node_parents.push((i, c));
                }
            }
        }
        #[allow(
            clippy::indexing_slicing,
            reason = "k >= 2 is asserted above and parents has k entries"
        )]
        if parents[k - 1].is_empty() {
            let i = rng.random_range(0..k - 1);
            let c = coeff(rng);
            parents[k - 1].push((i, c));
        }
        CausalGraph { k, parents }
    }

    /// The effect variable's index (`V_k` in the paper).
    pub fn effect_variable(&self) -> usize {
        self.k - 1
    }

    /// Nodes with no incoming edges.
    #[allow(clippy::indexing_slicing, reason = "parents has one entry per variable 0..k")]
    pub fn roots(&self) -> Vec<usize> {
        (0..self.k).filter(|&j| self.parents[j].is_empty()).collect()
    }

    /// Is there a directed path from `from` to `to`?
    #[allow(
        clippy::indexing_slicing,
        reason = "variable ids are below k, the length of parents and seen"
    )]
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        // Walk ancestors of `to` (edges point parent -> child).
        let mut stack = vec![to];
        let mut seen = vec![false; self.k];
        while let Some(node) = stack.pop() {
            if seen[node] {
                continue;
            }
            seen[node] = true;
            for &(parent, _) in &self.parents[node] {
                if parent == from {
                    return true;
                }
                stack.push(parent);
            }
        }
        false
    }

    /// Root ancestors of the effect variable — the paper's root cause
    /// variables `C`.
    pub fn root_causes(&self) -> Vec<usize> {
        let effect = self.effect_variable();
        self.roots().into_iter().filter(|&r| self.reaches(r, effect)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn effect_variable_always_has_a_parent() {
        for seed in 0..50 {
            let g = CausalGraph::random(7, 0.05, &mut rng(seed));
            assert!(!g.parents[g.effect_variable()].is_empty());
        }
    }

    #[test]
    fn coefficients_are_nonzero_integers_in_range() {
        let g = CausalGraph::random(7, 0.9, &mut rng(4));
        for parents in &g.parents {
            for &(_, c) in parents {
                // sherlock-lint: allow(nan-unsafe): exact integrality check is the point
                assert!(c != 0.0 && c.abs() <= 10.0 && c == c.trunc());
            }
        }
    }

    #[test]
    fn edges_point_forward_so_graph_is_acyclic() {
        let g = CausalGraph::random(10, 0.5, &mut rng(9));
        for (j, parents) in g.parents.iter().enumerate() {
            for &(i, _) in parents {
                assert!(i < j);
            }
        }
    }

    #[test]
    fn reachability() {
        // 0 -> 1 -> 3; 2 isolated-ish.
        let g = CausalGraph { k: 4, parents: vec![vec![], vec![(0, 2.0)], vec![], vec![(1, 1.0)]] };
        assert!(g.reaches(0, 3));
        assert!(g.reaches(1, 3));
        assert!(!g.reaches(2, 3));
        assert!(!g.reaches(3, 0));
        assert!(g.reaches(2, 2));
        assert_eq!(g.roots(), vec![0, 2]);
        assert_eq!(g.root_causes(), vec![0]);
    }

    #[test]
    fn root_causes_never_empty() {
        for seed in 0..50 {
            let g = CausalGraph::random(7, 0.3, &mut rng(seed));
            assert!(!g.root_causes().is_empty(), "seed {seed}");
        }
    }
}
