//! The clustering kernels as they were before the shared distance matrix:
//! a full sort per k-dist and a fresh distance scan per ε-neighbourhood
//! query. Test builds only; the property tests hold the matrix kernels to
//! them bit for bit.
#![cfg(test)]

use crate::dbscan::{Clustering, Label};
use crate::distance::{euclidean, Point};

/// Sort-based k-dist: every distance from point `i`, sorted under
/// `total_cmp`, read at index `k − 1` (or the last).
pub fn kdist_of_sorted(points: &[Point], i: usize, k: usize) -> f64 {
    let n = points.len();
    let mut dists: Vec<f64> =
        (0..n).filter(|&j| j != i).map(|j| euclidean(&points[i], &points[j])).collect();
    if dists.is_empty() {
        return 0.0;
    }
    dists.sort_by(f64::total_cmp);
    let idx = k.saturating_sub(1).min(dists.len() - 1);
    dists.get(idx).copied().unwrap_or(0.0)
}

/// DBSCAN with one `euclidean` scan over all points per neighbourhood query.
pub fn dbscan_per_query(points: &[Point], eps: f64, min_pts: usize) -> Clustering {
    let n = points.len();
    const UNVISITED: usize = usize::MAX;
    const NOISE: usize = usize::MAX - 1;
    let mut assignment = vec![UNVISITED; n];
    let mut n_clusters = 0usize;

    let neighbours = |i: usize| -> Vec<usize> {
        (0..n).filter(|&j| euclidean(&points[i], &points[j]) <= eps).collect()
    };

    for i in 0..n {
        if assignment[i] != UNVISITED {
            continue;
        }
        let seeds = neighbours(i);
        if seeds.len() < min_pts {
            assignment[i] = NOISE;
            continue;
        }
        let cluster = n_clusters;
        n_clusters += 1;
        assignment[i] = cluster;
        let mut queue: Vec<usize> = seeds;
        let mut cursor = 0;
        while cursor < queue.len() {
            let j = queue[cursor];
            cursor += 1;
            if assignment[j] == NOISE {
                assignment[j] = cluster;
            }
            if assignment[j] != UNVISITED {
                continue;
            }
            assignment[j] = cluster;
            let j_neighbours = neighbours(j);
            if j_neighbours.len() >= min_pts {
                queue.extend(j_neighbours);
            }
        }
    }

    let labels = assignment
        .into_iter()
        .map(|a| if a == NOISE || a == UNVISITED { Label::Noise } else { Label::Cluster(a) })
        .collect();
    Clustering { labels, n_clusters }
}

/// Decode a byte tape into `dim`-dimensional points that stress exact
/// comparisons: coordinates snap to a coarse grid (so distances repeat and
/// ties are common), some are ±0.0, a point may repeat its predecessor, and
/// with `non_finite` some coordinates are NaN of either sign or infinite.
pub fn points_from_tape(tape: &[(u8, f64)], dim: usize, non_finite: bool) -> Vec<Point> {
    let mut points: Vec<Point> = Vec::new();
    for chunk in tape.chunks_exact(dim.max(1)) {
        if let (Some((5, _)), Some(previous)) = (chunk.first(), points.last()) {
            points.push(previous.clone());
            continue;
        }
        let point = chunk
            .iter()
            .map(|&(pick, v)| match pick {
                0 if non_finite => f64::NAN,
                1 if non_finite => -f64::NAN,
                2 if non_finite => f64::INFINITY,
                3 => -0.0,
                4 => 0.0,
                6 | 7 => (v * 4.0).round() / 4.0,
                _ => v,
            })
            .collect();
        points.push(point);
    }
    points
}
