//! k-dist heuristics for choosing DBSCAN's `ε`.
//!
//! Ester et al. suggest inspecting the sorted list of each point's distance
//! to its k-th nearest neighbour to pick `ε`. DBSherlock (paper §7) fixes
//! `minPts = 3`, builds the k-dist list `L_k`, and uses
//! `ε = max(L_k) / 4`, which the authors found empirically robust.

use crate::distance::{euclidean, PairwiseDistances, Point};

/// Distance from point `i` to its `k`-th nearest *other* point
/// (`k = 1` means the nearest neighbour). Points with fewer than `k`
/// neighbours report the distance to their farthest neighbour; singleton
/// inputs, and an `i` out of range, report `0`. Computes the point's
/// `n − 1` distances itself; callers that need every point's k-dist, or
/// the distances again afterwards, read them from one
/// [`PairwiseDistances`] through [`kdist_list_from`] instead.
pub fn kdist_of(points: &[Point], i: usize, k: usize) -> f64 {
    let Some(p) = points.get(i) else { return 0.0 };
    let others = points.iter().enumerate().filter(|&(j, _)| j != i);
    kth_smallest(others.map(|(_, q)| euclidean(p, q)), k)
}

/// Distance from each point to its `k`-th nearest *other* point; see
/// [`kdist_of`].
pub fn kdist_list(points: &[Point], k: usize) -> Vec<f64> {
    (0..points.len()).map(|i| kdist_of(points, i, k)).collect()
}

/// [`kdist_list`] read from precomputed distances. Equal to it bit for bit
/// wherever no distance is NaN (the matrix stores `d(j, i)` for `j < i`,
/// and only a NaN's sign can depend on the argument order).
pub fn kdist_list_from(distances: &PairwiseDistances, k: usize) -> Vec<f64> {
    (0..distances.len())
        .map(|i| {
            let others = distances.distances_from(i).enumerate().filter(|&(j, _)| j != i);
            kth_smallest(others.map(|(_, d)| d), k)
        })
        .collect()
}

/// The `k`-th smallest of `dists` under [`f64::total_cmp`] (`k = 0` counts
/// as 1), or the largest when there are fewer than `k`; `0` when there are
/// none. Keeps the `k` smallest seen so far, sorted, instead of sorting
/// them all: `total_cmp` calls two values equal only when their bits are,
/// so this is the value a full sort would put at index `k − 1`.
fn kth_smallest(dists: impl Iterator<Item = f64>, k: usize) -> f64 {
    let k = k.max(1);
    let mut smallest: Vec<f64> = Vec::with_capacity(k + 1);
    for d in dists {
        let full = smallest.len() == k;
        if full && smallest.last().is_some_and(|last| d.total_cmp(last).is_ge()) {
            continue;
        }
        let at = smallest.partition_point(|kept| kept.total_cmp(&d).is_le());
        smallest.insert(at, d);
        smallest.truncate(k);
    }
    smallest.last().copied().unwrap_or(0.0)
}

/// DBSherlock's `ε` rule: `max(L_k) / 4` (paper §7, with `minPts = 3` so
/// `k = 3`). Returns `None` for inputs too small to cluster.
pub fn epsilon_from_kdist(points: &[Point], k: usize) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let lk = kdist_list(points, k);
    let max = lk.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max.is_finite() && max > 0.0 {
        Some(max / 4.0)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use proptest::prelude::*;

    #[test]
    fn kdist_on_a_line() {
        let points: Vec<Point> = vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0]];
        let l1 = kdist_list(&points, 1);
        assert_eq!(l1, vec![1.0, 1.0, 1.0, 8.0]);
        let l2 = kdist_list(&points, 2);
        assert_eq!(l2, vec![2.0, 1.0, 2.0, 9.0]);
    }

    #[test]
    fn k_exceeding_neighbours_saturates() {
        let points: Vec<Point> = vec![vec![0.0], vec![3.0]];
        assert_eq!(kdist_list(&points, 5), vec![3.0, 3.0]);
        assert_eq!(kdist_list(&[vec![1.0]], 3), vec![0.0]);
        assert_eq!(kdist_of(&points, 7, 1), 0.0);
    }

    #[test]
    fn epsilon_rule_quarters_the_max() {
        let points: Vec<Point> = vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0]];
        let eps = epsilon_from_kdist(&points, 1).unwrap();
        assert_eq!(eps, 2.0);
    }

    #[test]
    fn epsilon_degenerate_inputs() {
        assert_eq!(epsilon_from_kdist(&[], 3), None);
        assert_eq!(epsilon_from_kdist(&[vec![0.0]], 3), None);
        // All-identical points: max k-dist is 0 -> None.
        let same: Vec<Point> = vec![vec![1.0]; 4];
        assert_eq!(epsilon_from_kdist(&same, 3), None);
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        /// The bounded selection returns the sort's k-th distance bit for
        /// bit, on any coordinates (NaN, infinities, ±0.0, duplicates).
        #[test]
        fn kdist_of_matches_the_sorting_oracle(
            tape in prop::collection::vec((0u8..12, -2.0_f64..2.0), 0..90),
            dim in 1usize..4,
            k in 0usize..6,
        ) {
            let points = oracle::points_from_tape(&tape, dim, true);
            let fast: Vec<f64> = (0..points.len()).map(|i| kdist_of(&points, i, k)).collect();
            let slow: Vec<f64> =
                (0..points.len()).map(|i| oracle::kdist_of_sorted(&points, i, k)).collect();
            prop_assert_eq!(bits(&fast), bits(&slow));
        }

        /// k-dists read from the shared matrix equal the per-point scan's
        /// bit for bit on finite points, duplicates included.
        #[test]
        fn matrix_kdists_match_the_per_point_scan(
            tape in prop::collection::vec((0u8..12, -2.0_f64..2.0), 0..90),
            dim in 1usize..4,
            k in 0usize..6,
        ) {
            let points = oracle::points_from_tape(&tape, dim, false);
            let distances = PairwiseDistances::new(&points);
            prop_assert_eq!(bits(&kdist_list_from(&distances, k)), bits(&kdist_list(&points, k)));
        }
    }
}
