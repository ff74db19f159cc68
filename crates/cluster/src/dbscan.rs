//! DBSCAN density-based clustering (Ester, Kriegel, Sander, Xu — KDD 1996).
//!
//! DBSherlock's automatic anomaly detector (paper §7) clusters normalized
//! telemetry points with DBSCAN (`minPts = 3`, `ε = max(L_k) / 4` from the
//! k-dist list) and flags small clusters as candidate anomalies. This is a
//! faithful, quadratic-time implementation — the detector runs on a few
//! hundred one-second samples, where reading ε-neighbourhoods off one
//! pairwise distance matrix is cheap and an index would be noise.

use crate::distance::{PairwiseDistances, Point};

/// Cluster assignment for one input point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Not density-reachable from any core point.
    Noise,
    /// Member of the cluster with the given id (0-based, dense).
    Cluster(usize),
}

impl Label {
    /// The cluster id, if this point belongs to a cluster.
    pub fn cluster(self) -> Option<usize> {
        match self {
            Label::Noise => None,
            Label::Cluster(id) => Some(id),
        }
    }
}

/// Result of a DBSCAN run.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Per-point labels, parallel to the input.
    pub labels: Vec<Label>,
    /// Number of clusters found.
    pub n_clusters: usize,
}

impl Clustering {
    /// Indices of the points in cluster `id`.
    pub fn members(&self, id: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.cluster() == Some(id))
            .map(|(i, _)| i)
            .collect()
    }

    /// Cluster sizes indexed by cluster id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_clusters];
        for id in self.labels.iter().filter_map(|label| label.cluster()) {
            if let Some(size) = sizes.get_mut(id) {
                *size += 1;
            }
        }
        sizes
    }
}

/// Run DBSCAN over `points` with radius `eps` and density threshold
/// `min_pts` (a point is *core* when at least `min_pts` points — including
/// itself — lie within `eps`). Computes the pairwise distances once; see
/// [`dbscan_precomputed`].
pub fn dbscan(points: &[Point], eps: f64, min_pts: usize) -> Clustering {
    dbscan_precomputed(&PairwiseDistances::new(points), eps, min_pts)
}

/// [`dbscan`] over distances computed beforehand, for callers that also
/// read them for something else (the §7 detector's k-dist list). A
/// point's ε-neighbourhood is every `j` with `d(i, j) <= eps`, in index
/// order, so clusters and their ids are those of a per-query scan.
pub fn dbscan_precomputed(distances: &PairwiseDistances, eps: f64, min_pts: usize) -> Clustering {
    let n = distances.len();
    let neighbours = |i: usize| -> Vec<usize> {
        let within = distances.distances_from(i).enumerate().filter(|&(_, d)| d <= eps);
        within.map(|(j, _)| j).collect()
    };
    let mut assignment = vec![Assignment::Unvisited; n];
    let mut n_clusters = 0usize;
    for i in 0..n {
        if assignment.get(i) != Some(&Assignment::Unvisited) {
            continue;
        }
        let seeds = neighbours(i);
        if seeds.len() < min_pts {
            set(&mut assignment, i, Assignment::Noise);
            continue;
        }
        let cluster = Assignment::Cluster(n_clusters);
        n_clusters += 1;
        set(&mut assignment, i, cluster);
        let mut queue: Vec<usize> = seeds;
        let mut cursor = 0;
        while let Some(&j) = queue.get(cursor) {
            cursor += 1;
            match assignment.get(j) {
                // Border point: density-reachable, joins the cluster.
                Some(Assignment::Noise) => set(&mut assignment, j, cluster),
                Some(Assignment::Unvisited) => {
                    set(&mut assignment, j, cluster);
                    let j_neighbours = neighbours(j);
                    if j_neighbours.len() >= min_pts {
                        queue.extend(j_neighbours);
                    }
                }
                _ => {}
            }
        }
    }
    let labels = assignment
        .into_iter()
        .map(|a| match a {
            Assignment::Cluster(id) => Label::Cluster(id),
            Assignment::Noise | Assignment::Unvisited => Label::Noise,
        })
        .collect();
    Clustering { labels, n_clusters }
}

/// A point's state while DBSCAN runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assignment {
    Unvisited,
    Noise,
    Cluster(usize),
}

fn set(assignment: &mut [Assignment], i: usize, to: Assignment) {
    if let Some(slot) = assignment.get_mut(i) {
        *slot = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean;

    fn blob(center: (f64, f64), n: usize, spread: f64) -> Vec<Point> {
        // Deterministic ring of points around the center.
        (0..n)
            .map(|i| {
                let angle = i as f64 / n as f64 * std::f64::consts::TAU;
                vec![center.0 + spread * angle.cos(), center.1 + spread * angle.sin()]
            })
            .collect()
    }

    #[test]
    fn two_blobs_two_clusters() {
        let mut points = blob((0.0, 0.0), 10, 0.05);
        points.extend(blob((1.0, 1.0), 10, 0.05));
        let c = dbscan(&points, 0.2, 3);
        assert_eq!(c.n_clusters, 2);
        let first = c.labels[0].cluster().unwrap();
        assert!(c.labels[..10].iter().all(|l| l.cluster() == Some(first)));
        let second = c.labels[10].cluster().unwrap();
        assert_ne!(first, second);
        assert!(c.labels[10..].iter().all(|l| l.cluster() == Some(second)));
        assert_eq!(c.sizes(), vec![10, 10]);
    }

    #[test]
    fn isolated_point_is_noise() {
        let mut points = blob((0.0, 0.0), 8, 0.05);
        points.push(vec![5.0, 5.0]);
        let c = dbscan(&points, 0.2, 3);
        assert_eq!(c.labels[8], Label::Noise);
        assert_eq!(c.n_clusters, 1);
        assert_eq!(c.members(0).len(), 8);
    }

    #[test]
    fn min_pts_larger_than_any_neighbourhood_yields_all_noise() {
        let points = blob((0.0, 0.0), 5, 1.0);
        let c = dbscan(&points, 0.01, 3);
        assert_eq!(c.n_clusters, 0);
        assert!(c.labels.iter().all(|&l| l == Label::Noise));
    }

    #[test]
    fn border_point_between_density_centers_joins_a_cluster() {
        // A chain: dense left group, one bridge point within eps of the
        // left core but itself not core.
        let mut points = vec![
            vec![0.0],
            vec![0.05],
            vec![0.1],  // dense core region
            vec![0.28], // border: within 0.2 of 0.1 only
        ];
        points.push(vec![0.07]);
        let c = dbscan(&points, 0.2, 4);
        assert_eq!(c.n_clusters, 1);
        assert_eq!(c.labels[3].cluster(), Some(0));
    }

    #[test]
    fn empty_input() {
        let c = dbscan(&[], 1.0, 3);
        assert_eq!(c.n_clusters, 0);
        assert!(c.labels.is_empty());
    }

    #[test]
    fn every_point_labeled_exactly_once() {
        let mut points = blob((0.0, 0.0), 12, 0.1);
        points.extend(blob((0.5, 0.5), 4, 0.02));
        let c = dbscan(&points, 0.15, 3);
        assert_eq!(c.labels.len(), points.len());
        let clustered: usize = c.sizes().iter().sum();
        let noise = c.labels.iter().filter(|&&l| l == Label::Noise).count();
        assert_eq!(clustered + noise, points.len());
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        /// Matrix DBSCAN labels every point as the per-query scan does, on
        /// any coordinates (NaN, infinities, duplicates), with ε drawn
        /// from the points' own distances so ties at exactly ε occur.
        #[test]
        fn matches_the_per_query_oracle(
            tape in proptest::collection::vec((0u8..12, -2.0_f64..2.0), 0..120),
            dim in 1usize..4,
            pick in 0usize..10_000,
            just_below in proptest::bool::ANY,
            min_pts in 1usize..6,
        ) {
            let points = crate::oracle::points_from_tape(&tape, dim, true);
            let distances = PairwiseDistances::new(&points);
            let all: Vec<f64> =
                (0..points.len()).flat_map(|i| distances.distances_from(i)).collect();
            let at = all.get(pick % all.len().max(1)).copied().unwrap_or(0.5);
            // ε exactly at one of the distances, or one step below it.
            let eps = if just_below { f64::from_bits(at.to_bits().saturating_sub(1)) } else { at };
            let fast = dbscan(&points, eps, min_pts);
            let slow = crate::oracle::dbscan_per_query(&points, eps, min_pts);
            proptest::prop_assert_eq!(&fast.labels, &slow.labels);
            proptest::prop_assert_eq!(fast.n_clusters, slow.n_clusters);
        }

        /// The matrix reads back what a fresh `euclidean` call gives, for
        /// both argument orders, on finite points.
        #[test]
        fn matrix_reads_back_every_distance(
            tape in proptest::collection::vec((0u8..12, -2.0_f64..2.0), 0..60),
            dim in 1usize..4,
        ) {
            let points = crate::oracle::points_from_tape(&tape, dim, false);
            let distances = PairwiseDistances::new(&points);
            for (i, p) in points.iter().enumerate() {
                let row: Vec<f64> = distances.distances_from(i).collect();
                let fresh: Vec<f64> = points.iter().map(|q| euclidean(p, q)).collect();
                proptest::prop_assert_eq!(bits(&row), bits(&fresh));
            }
        }
    }
}
