//! Partition spaces: discretized attribute domains (paper §4.1).
//!
//! For a numeric attribute, the domain `[Min, Max]` is cut into `R`
//! equi-width partitions; partition `P_j` contains values with
//! `lb(P_j) <= v < ub(P_j)` (the top partition also accepts `v = Max` so
//! the maximum isn't orphaned). For a categorical attribute there is one
//! partition per distinct value and order is irrelevant.

use dbsherlock_telemetry::Dictionary;

/// Label of one partition (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionLabel {
    /// No tuples, or a mix of normal and abnormal tuples (numeric), or a
    /// tie (categorical).
    Empty,
    /// Exclusively/mostly normal tuples.
    Normal,
    /// Exclusively/mostly abnormal tuples.
    Abnormal,
}

/// The discretized domain of one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionSpace {
    /// Equi-width numeric partitions.
    Numeric {
        /// Domain minimum over the whole dataset.
        min: f64,
        /// Domain maximum over the whole dataset.
        max: f64,
        /// Number of partitions `R`.
        r: usize,
    },
    /// One partition per category id.
    Categorical {
        /// Number of distinct categories.
        n: usize,
    },
}

impl PartitionSpace {
    /// Numeric space from a precomputed `(min, max)` range — e.g. the
    /// memoized `ColumnarSnapshot` cache: `None` for a missing range, a
    /// constant attribute (the paper's limitation (ii): invariants cannot
    /// separate the regions), or a non-finite width.
    pub fn from_numeric_range(range: Option<(f64, f64)>, r: usize) -> Option<PartitionSpace> {
        let (min, max) = range?;
        if max <= min || !(max - min).is_finite() {
            return None;
        }
        Some(PartitionSpace::Numeric { min, max, r: r.max(1) })
    }

    /// Categorical space from a column dictionary: one partition per
    /// distinct category; `None` for an empty dictionary.
    pub fn from_dictionary(dict: &Dictionary) -> Option<PartitionSpace> {
        if dict.is_empty() {
            return None;
        }
        Some(PartitionSpace::Categorical { n: dict.len() })
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        match *self {
            PartitionSpace::Numeric { r, .. } => r,
            PartitionSpace::Categorical { n } => n,
        }
    }

    /// True when there are no partitions (never for built spaces).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width of each numeric partition.
    pub fn width(&self) -> Option<f64> {
        match *self {
            PartitionSpace::Numeric { min, max, r } => Some((max - min) / r as f64),
            PartitionSpace::Categorical { .. } => None,
        }
    }

    /// Partition index of a numeric value; `None` for NaN/∞ or categorical
    /// spaces. Values outside `[min, max]` clamp to the edge partitions
    /// (they can only appear when a predicate learned elsewhere is
    /// evaluated against this space).
    pub fn index_of_num(&self, v: f64) -> Option<usize> {
        self.numeric_binner()?.bin(v)
    }

    /// Monomorphic binner for numeric spaces: resolves the enum dispatch
    /// once so per-row loops in the columnar kernels bin values without
    /// re-matching on the space. `None` for categorical spaces.
    pub fn numeric_binner(&self) -> Option<NumericBinner> {
        match *self {
            PartitionSpace::Numeric { min, max, r } => Some(NumericBinner { min, max, r }),
            PartitionSpace::Categorical { .. } => None,
        }
    }

    /// Lower bound `lb(P_j)` of numeric partition `j`.
    pub fn lower_bound(&self, j: usize) -> Option<f64> {
        match *self {
            PartitionSpace::Numeric { min, max, r } => {
                Some(min + (max - min) / r as f64 * j as f64)
            }
            PartitionSpace::Categorical { .. } => None,
        }
    }

    /// Upper bound `ub(P_j)` of numeric partition `j`.
    pub fn upper_bound(&self, j: usize) -> Option<f64> {
        self.lower_bound(j + 1)
    }

    /// Midpoint of numeric partition `j` (used when testing whether a
    /// partition "satisfies" a predicate in the confidence computation,
    /// Eq. 3 — see `separation::partition_separation_power`). On every
    /// space `from_numeric_range` builds it never decreases in `j`.
    pub fn midpoint(&self, j: usize) -> Option<f64> {
        let lb = self.lower_bound(j)?;
        Some(lb + self.width()? / 2.0)
    }
}

/// Dispatch-free partition binning for one numeric space (see
/// [`PartitionSpace::numeric_binner`]). The floor/clamp expression is
/// shared with [`PartitionSpace::index_of_num`] and is part of the
/// pipeline's bit-identity contract.
#[derive(Debug, Clone, Copy)]
pub struct NumericBinner {
    min: f64,
    max: f64,
    r: usize,
}

impl NumericBinner {
    /// Partition index of `v`; `None` for non-finite values, clamped to
    /// the edge partitions outside `[min, max]`.
    #[inline]
    pub fn bin(&self, v: f64) -> Option<usize> {
        self.bin_and_normalize(v).map(|(j, _)| j)
    }

    /// Partition index of `v` and its Eq. 2 normalization, both from one
    /// quotient `x = (v − min) / (max − min)`: the index is `⌊x·r⌋` clamped
    /// to the edge partitions, the normalization `x` clamped to `[0, 1]`,
    /// which is `stats::normalize(v, min, max)` whenever the width is
    /// positive and finite (every space `from_numeric_range` builds).
    /// `None` for non-finite values.
    #[inline]
    pub fn bin_and_normalize(&self, v: f64) -> Option<(usize, f64)> {
        if !v.is_finite() {
            return None;
        }
        let x = (v - self.min) / (self.max - self.min);
        let idx = (x * self.r as f64).floor() as isize;
        Some((idx.clamp(0, self.r as isize - 1) as usize, x.clamp(0.0, 1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::numeric_dataset as dataset;
    use dbsherlock_telemetry::{Dataset, Region};

    /// Attribute 0's space as a case builds it.
    fn space(d: &Dataset, r: usize) -> Option<PartitionSpace> {
        let none = Region::new();
        crate::label::labelled_space(&d.snapshot(), 0, &none, &none, r).map(|l| l.space)
    }

    #[test]
    fn numeric_space_covers_domain() {
        let d = dataset(&[0.0, 25.0, 100.0]);
        let s = space(&d, 5).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.width(), Some(20.0));
        assert_eq!(s.index_of_num(0.0), Some(0));
        assert_eq!(s.index_of_num(19.999), Some(0));
        assert_eq!(s.index_of_num(20.0), Some(1));
        // Max value lands in the top partition, not out of range.
        assert_eq!(s.index_of_num(100.0), Some(4));
        assert_eq!(s.lower_bound(2), Some(40.0));
        assert_eq!(s.upper_bound(2), Some(60.0));
        assert_eq!(s.midpoint(0), Some(10.0));
    }

    #[test]
    fn out_of_range_values_clamp() {
        let d = dataset(&[0.0, 100.0]);
        let s = space(&d, 4).unwrap();
        assert_eq!(s.index_of_num(-5.0), Some(0));
        assert_eq!(s.index_of_num(500.0), Some(3));
        assert_eq!(s.index_of_num(f64::NAN), None);
    }

    #[test]
    fn constant_attribute_has_no_space() {
        let d = dataset(&[7.0, 7.0, 7.0]);
        assert!(space(&d, 10).is_none());
    }

    #[test]
    fn empty_dataset_has_no_space() {
        let d = dataset(&[]);
        assert!(space(&d, 10).is_none());
        // Nor has an attribute outside the schema.
        let d = dataset(&[0.0, 1.0]);
        let none = Region::new();
        assert!(crate::label::labelled_space(&d.snapshot(), 5, &none, &none, 10).is_none());
    }

    #[test]
    fn categorical_space_one_per_value() {
        let d = crate::fixtures::categorical_dataset(&["a", "b"]);
        let s = space(&d, 99).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.width(), None);
        assert_eq!(s.index_of_num(1.0), None);
    }
}
