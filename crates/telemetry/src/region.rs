//! Row-index regions (the paper's "abnormal" and "normal" regions).
//!
//! The user of DBSherlock selects one or more time ranges of a performance
//! plot as *abnormal*; everything unselected is implicitly *normal*
//! (paper §2.2). A [`Region`] is a sorted, de-duplicated set of row indices
//! with the interval algebra the evaluation needs (complement, perturbation
//! for Appendix C, overlap scoring for Appendix E).

use serde::{Deserialize, Serialize};

/// A sorted set of row indices into a [`Dataset`](crate::dataset::Dataset).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    indices: Vec<usize>,
}

impl Region {
    /// Empty region.
    pub fn new() -> Self {
        Region::default()
    }

    /// Region covering a half-open range of rows.
    pub fn from_range(range: std::ops::Range<usize>) -> Self {
        Region { indices: range.collect() }
    }

    /// Region from arbitrary indices; sorts and de-duplicates.
    pub fn from_indices(indices: impl IntoIterator<Item = usize>) -> Self {
        let mut v: Vec<usize> = indices.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Region { indices: v }
    }

    /// Region from several half-open ranges (possibly overlapping).
    pub fn from_ranges(ranges: impl IntoIterator<Item = std::ops::Range<usize>>) -> Self {
        Region::from_indices(ranges.into_iter().flatten())
    }

    /// The sorted indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of rows in the region.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the region selects no rows.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, row: usize) -> bool {
        self.indices.binary_search(&row).is_ok()
    }

    /// All rows in `0..n` *not* in this region (the implicit normal region).
    pub fn complement(&self, n: usize) -> Region {
        let mut out = Vec::with_capacity(n.saturating_sub(self.len()));
        let mut iter = self.indices.iter().copied().peekable();
        for row in 0..n {
            if iter.peek() == Some(&row) {
                iter.next();
            } else {
                out.push(row);
            }
        }
        Region { indices: out }
    }

    /// The region restricted to rows `< len`.
    ///
    /// Lossy ingestion and alignment repair can shrink a dataset after a
    /// region was defined over it; clipping keeps index-based regions safe
    /// to evaluate against the degraded data.
    #[allow(clippy::indexing_slicing, reason = "partition_point returns cut <= indices.len()")]
    pub fn clip(&self, len: usize) -> Region {
        let cut = self.indices.partition_point(|&row| row < len);
        Region { indices: self.indices[..cut].to_vec() }
    }

    /// Union of two regions.
    pub fn union(&self, other: &Region) -> Region {
        Region::from_indices(self.indices.iter().chain(other.indices.iter()).copied())
    }

    /// Intersection of two regions.
    #[allow(clippy::indexing_slicing, reason = "the loop condition bounds i and j")]
    pub fn intersect(&self, other: &Region) -> Region {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.indices.len() && j < other.indices.len() {
            match self.indices[i].cmp(&other.indices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.indices[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Region { indices: out }
    }

    /// Rows in `self` but not in `other`.
    pub fn difference(&self, other: &Region) -> Region {
        Region {
            indices: self.indices.iter().copied().filter(|row| !other.contains(*row)).collect(),
        }
    }

    /// Intersection-over-union overlap score in `[0, 1]`.
    ///
    /// Used to judge automatically detected regions against ground truth
    /// (Appendix E).
    pub fn iou(&self, other: &Region) -> f64 {
        let inter = self.intersect(other).len();
        let uni = self.union(other).len();
        if uni == 0 {
            0.0
        } else {
            inter as f64 / uni as f64
        }
    }

    /// Maximal runs of consecutive indices, as half-open ranges.
    pub fn intervals(&self) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::new();
        let mut iter = self.indices.iter().copied();
        let Some(first) = iter.next() else { return out };
        let (mut start, mut prev) = (first, first);
        for row in iter {
            if row == prev + 1 {
                prev = row;
            } else {
                out.push(start..prev + 1);
                start = row;
                prev = row;
            }
        }
        out.push(start..prev + 1);
        out
    }

    /// Grow or shrink each contiguous interval symmetrically by `fraction`
    /// of its width, clamping to `0..n`. `fraction = 0.10` reproduces the
    /// "10% longer" input-error experiment of Appendix C; negative values
    /// shrink ("10% shorter").
    ///
    /// Shrinking never eliminates an interval entirely: at least one row
    /// (the interval midpoint) is kept.
    pub fn perturb(&self, fraction: f64, n: usize) -> Region {
        let mut ranges = Vec::new();
        for iv in self.intervals() {
            let width = (iv.end - iv.start) as f64;
            let delta = (width * fraction / 2.0).round() as isize;
            let mut start = iv.start as isize - delta;
            let mut end = iv.end as isize + delta;
            if start >= end {
                // Degenerate shrink: keep the midpoint row.
                let mid = ((iv.start + iv.end - 1) / 2) as isize;
                start = mid;
                end = mid + 1;
            }
            let start = start.clamp(0, n as isize) as usize;
            let end = end.clamp(0, n as isize) as usize;
            if start < end {
                ranges.push(start..end);
            }
        }
        Region::from_ranges(ranges)
    }

    /// A contiguous sub-region of exactly `len` rows whose start is chosen
    /// by `pick(max_start)` (caller supplies randomness; `pick` must return
    /// a value `<= max_start`). Returns the whole region when it has fewer
    /// than `len` rows. Reproduces the "two seconds of the original
    /// abnormal region" experiment of Appendix C.
    #[allow(clippy::indexing_slicing, reason = "start <= len() - len, so start + len <= len()")]
    pub fn contiguous_subregion(&self, len: usize, pick: impl FnOnce(usize) -> usize) -> Region {
        if self.len() <= len {
            return self.clone();
        }
        let max_start = self.len() - len;
        let start = pick(max_start).min(max_start);
        Region { indices: self.indices[start..start + len].to_vec() }
    }
}

impl FromIterator<usize> for Region {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Region::from_indices(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_dedups() {
        let r = Region::from_indices([5, 1, 3, 1]);
        assert_eq!(r.indices(), &[1, 3, 5]);
        assert_eq!(r.len(), 3);
        assert!(r.contains(3));
        assert!(!r.contains(2));
    }

    #[test]
    fn complement_covers_rest() {
        let r = Region::from_range(2..4);
        assert_eq!(r.complement(6).indices(), &[0, 1, 4, 5]);
        assert_eq!(Region::new().complement(3).indices(), &[0, 1, 2]);
    }

    #[test]
    fn set_algebra() {
        let a = Region::from_indices([1, 2, 3]);
        let b = Region::from_indices([3, 4]);
        assert_eq!(a.union(&b).indices(), &[1, 2, 3, 4]);
        assert_eq!(a.intersect(&b).indices(), &[3]);
        assert_eq!(a.difference(&b).indices(), &[1, 2]);
        assert!((a.iou(&b) - 0.25).abs() < 1e-12);
        assert_eq!(Region::new().iou(&Region::new()), 0.0);
    }

    #[test]
    fn clip_drops_out_of_range_rows() {
        let r = Region::from_indices([1, 3, 7, 9]);
        assert_eq!(r.clip(8).indices(), &[1, 3, 7]);
        assert_eq!(r.clip(100), r);
        assert!(r.clip(0).is_empty());
        assert!(r.clip(1).is_empty());
    }

    #[test]
    fn intervals_split_runs() {
        let r = Region::from_indices([0, 1, 2, 5, 7, 8]);
        assert_eq!(r.intervals(), vec![0..3, 5..6, 7..9]);
        assert!(Region::new().intervals().is_empty());
    }

    #[test]
    fn perturb_grows_and_shrinks() {
        let r = Region::from_range(40..60); // width 20
        let longer = r.perturb(0.10, 120);
        assert_eq!(longer.intervals(), vec![39..61]);
        let shorter = r.perturb(-0.10, 120);
        assert_eq!(shorter.intervals(), vec![41..59]);
    }

    #[test]
    fn perturb_clamps_at_edges() {
        let r = Region::from_range(0..10);
        let grown = r.perturb(0.5, 12);
        assert_eq!(grown.intervals(), vec![0..12]);
    }

    #[test]
    fn perturb_never_empties_interval() {
        let r = Region::from_range(10..12);
        let shrunk = r.perturb(-1.0, 100);
        assert_eq!(shrunk.len(), 1);
        assert!(r.contains(shrunk.indices()[0]));
    }

    #[test]
    fn contiguous_subregion_picks_window() {
        let r = Region::from_range(10..30);
        let sub = r.contiguous_subregion(2, |max| {
            assert_eq!(max, 18);
            5
        });
        assert_eq!(sub.indices(), &[15, 16]);
        // Too-short region returned unchanged.
        let small = Region::from_range(0..2);
        assert_eq!(small.contiguous_subregion(5, |_| 0), small);
    }
}
