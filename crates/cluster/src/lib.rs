#![warn(missing_docs)]
// Diagnosis must degrade gracefully, never panic: clippy's panic lints are
// denied in library code (tests may panic freely).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! Density-based clustering primitives for DBSherlock.
//!
//! The paper's automatic anomaly detection (§7) is built on DBSCAN
//! (Ester et al., KDD 1996) with `minPts = 3` and `ε = max(L_k)/4` derived
//! from the k-dist list. This crate provides exactly those pieces, plus the
//! point/distance plumbing, as an independent, reusable library.
//!
//! # Example
//!
//! ```
//! use dbsherlock_cluster::{dbscan, epsilon_from_kdist};
//!
//! // A large group near 0 and a small (3-point) group near 10.
//! let mut points: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 0.1]).collect();
//! points.extend((0..3).map(|i| vec![10.0 + i as f64 * 0.1]));
//! // The small group's 3rd-nearest neighbour lies across the gap, so
//! // max(L_3) ≈ the gap and eps = gap / 4 separates the groups.
//! let eps = epsilon_from_kdist(&points, 3).unwrap();
//! let clustering = dbscan(&points, eps, 3);
//! assert_eq!(clustering.n_clusters, 2);
//! ```

pub mod dbscan;
pub mod distance;
pub mod kdist;
mod oracle;

pub use dbscan::{dbscan, dbscan_precomputed, Clustering, Label};
pub use distance::{euclidean, rows_from_columns, PairwiseDistances, Point};
pub use kdist::{epsilon_from_kdist, kdist_list, kdist_list_from, kdist_of};
