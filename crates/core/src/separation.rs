//! Separation power (paper Eq. 1) on tuples and on partition spaces.

use std::ops::Range;

use dbsherlock_telemetry::{ColumnView, Dataset, Region};

use crate::partition::{PartitionLabel, PartitionSpace};
use crate::predicate::{Predicate, PredicateOp};

/// Tuple-level separation power (Eq. 1):
/// `SP(Pred) = |Pred(T_A)| / |T_A|  −  |Pred(T_N)| / |T_N|`, in `[-1, 1]`.
/// Unknown attributes score `0`.
pub fn separation_power(
    predicate: &Predicate,
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
) -> f64 {
    let Some(attr_id) = dataset.schema().id_of(&predicate.attr) else {
        return 0.0;
    };
    separation_power_view(predicate, dataset.column(attr_id), abnormal, normal)
}

/// [`separation_power`] over an already-resolved column view: fills the
/// predicate's mask once, then counts hits over both regions — one column
/// scan instead of two row-wise selectivity passes.
pub fn separation_power_view(
    predicate: &Predicate,
    view: ColumnView<'_>,
    abnormal: &Region,
    normal: &Region,
) -> f64 {
    let mut mask = Vec::new();
    predicate.fill_mask(view, &mut mask);
    let frac = |region: &Region| -> f64 {
        let rows = region.indices();
        if rows.is_empty() {
            return 0.0;
        }
        let hits = rows.iter().filter(|&&r| mask.get(r).copied().unwrap_or(false)).count();
        hits as f64 / rows.len() as f64
    };
    frac(abnormal) - frac(normal)
}

/// Partition-space separation power — one term of the causal-model
/// confidence (Eq. 3):
/// `|Pred(P_A)| / |P_A| − |Pred(P_N)| / |P_N|` over the *labeled*
/// partitions of the diagnosis-time dataset. A side with no partitions
/// contributes `0` to its ratio.
///
/// The paper defines `Pred(P)` as "the set of partitions in P that satisfy
/// predicate Pred" without pinning down what it means for an interval
/// partition to satisfy an interval predicate. We test the partition's
/// *midpoint* for numeric spaces (a partition is far narrower than any
/// predicate of interest at the default R, so midpoint vs. overlap is
/// immaterial) and the partition's category label for categorical spaces.
/// A numeric predicate holds on one range of partitions, whose ends are
/// binary-searched (`midpoint_range`); a categorical one is resolved once
/// per dictionary entry. Either way one pass over the labels counts the
/// term.
pub fn partition_separation_power(
    predicate: &Predicate,
    space: &PartitionSpace,
    labels: &[PartitionLabel],
    dataset: &Dataset,
    attr_id: usize,
) -> f64 {
    match space {
        PartitionSpace::Numeric { .. } => {
            match midpoint_range(&predicate.op, space, labels.len()) {
                Some(hits) => eq3_term(labels, |j| hits.contains(&j)),
                // A hand-built space with `max < min`: its midpoints fall in
                // `j`, so each partition is tested on its own.
                None => eq3_term(labels, |j| {
                    space.midpoint(j).is_some_and(|m| predicate.op.matches_num(m))
                }),
            }
        }
        PartitionSpace::Categorical { .. } => {
            let table = match dataset.categorical(attr_id) {
                Ok((_, dict)) => predicate.op.category_table(dict),
                Err(_) => Vec::new(),
            };
            eq3_term(labels, |j| table.get(j).copied().unwrap_or(false))
        }
    }
}

/// The partitions among `0..n` of a numeric `space` whose midpoints
/// satisfy `op`, in O(log n) midpoint tests; `None` when the width is
/// negative, which no built space has. Otherwise midpoints never decrease
/// in `j`, so `Gt(lo)` holds on a suffix of the partitions and `Lt(hi)` on
/// a prefix, and `Between(lo, hi)`, which holds where both do, on the
/// range between. A NaN threshold, or `Between(lo, hi)` with `lo ≥ hi`,
/// gives an empty range.
fn midpoint_range(op: &PredicateOp, space: &PartitionSpace, n: usize) -> Option<Range<usize>> {
    if space.width()? < 0.0 {
        return None;
    }
    let mid = |j: usize| space.midpoint(j).unwrap_or(f64::NAN);
    let first_above = |lo: f64| first_where(n, |j| PredicateOp::Gt(lo).matches_num(mid(j)));
    let first_not_below = |hi: f64| first_where(n, |j| !PredicateOp::Lt(hi).matches_num(mid(j)));
    let (start, end) = match *op {
        PredicateOp::Lt(hi) => (0, first_not_below(hi)),
        PredicateOp::Gt(lo) => (first_above(lo), n),
        PredicateOp::Between(lo, hi) => (first_above(lo), first_not_below(hi)),
        PredicateOp::InSet(_) => (0, 0),
    };
    // `end < start` only where nothing holds, and then the range is empty.
    Some(start..end)
}

/// The first `j` in `0..n` where `past(j)` holds, or `n`: a binary search,
/// so `past` must be false on a prefix of `0..n` and true after it.
fn first_where(n: usize, past: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if past(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// One Eq. 3 term from the labels and which partitions satisfy the
/// predicate, counted in one pass over the labels.
fn eq3_term(labels: &[PartitionLabel], satisfies: impl Fn(usize) -> bool) -> f64 {
    let mut abnormal_total = 0usize;
    let mut abnormal_hits = 0usize;
    let mut normal_total = 0usize;
    let mut normal_hits = 0usize;
    for (j, &label) in labels.iter().enumerate() {
        match label {
            PartitionLabel::Abnormal => {
                abnormal_total += 1;
                abnormal_hits += usize::from(satisfies(j));
            }
            PartitionLabel::Normal => {
                normal_total += 1;
                normal_hits += usize::from(satisfies(j));
            }
            PartitionLabel::Empty => {}
        }
    }
    let ratio = |hits: usize, total: usize| {
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    ratio(abnormal_hits, abnormal_total) - ratio(normal_hits, normal_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::numeric_dataset as dataset;

    #[test]
    fn perfect_separator_scores_one() {
        let d = dataset(&[1.0, 2.0, 3.0, 10.0, 11.0, 12.0]);
        let abnormal = Region::from_range(3..6);
        let normal = Region::from_range(0..3);
        let p = Predicate::gt("x", 5.0);
        assert_eq!(separation_power(&p, &d, &abnormal, &normal), 1.0);
        // Inverted predicate scores -1.
        let q = Predicate::lt("x", 5.0);
        assert_eq!(separation_power(&q, &d, &abnormal, &normal), -1.0);
    }

    #[test]
    fn non_separating_predicate_scores_zero() {
        let d = dataset(&[1.0, 10.0, 1.0, 10.0]);
        let abnormal = Region::from_indices([0, 1]);
        let normal = Region::from_indices([2, 3]);
        let p = Predicate::gt("x", 5.0);
        assert_eq!(separation_power(&p, &d, &abnormal, &normal), 0.0);
    }

    #[test]
    fn separation_power_bounded() {
        let d = dataset(&[1.0, 2.0, 3.0, 4.0]);
        let p = Predicate::gt("x", 2.5);
        let sp = separation_power(&p, &d, &Region::from_range(0..2), &Region::from_range(2..4));
        assert!((-1.0..=1.0).contains(&sp));
    }

    #[test]
    fn partition_satisfaction_uses_midpoints() {
        use crate::partition::PartitionLabel::{Abnormal as A, Empty as E};
        let space = PartitionSpace::Numeric { min: 0.0, max: 100.0, r: 10 };
        let d = dataset(&[0.0, 100.0]);
        let p = Predicate::gt("x", 45.0);
        let only = |j: usize| -> Vec<PartitionLabel> {
            (0..10).map(|i| if i == j { A } else { E }).collect()
        };
        // Partition 4 covers [40,50): midpoint 45 -> not > 45.
        assert_eq!(partition_separation_power(&p, &space, &only(4), &d, 0), 0.0);
        // Partition 5 covers [50,60): midpoint 55 -> satisfied.
        assert_eq!(partition_separation_power(&p, &space, &only(5), &d, 0), 1.0);
    }

    #[test]
    fn partition_separation_power_full_split() {
        use crate::partition::PartitionLabel::{Abnormal as A, Empty as E, Normal as N};
        let space = PartitionSpace::Numeric { min: 0.0, max: 100.0, r: 4 };
        let d = dataset(&[0.0, 100.0]);
        let labels = [N, N, E, A];
        // Predicate matching only the top partition's midpoint (87.5).
        let p = Predicate::gt("x", 80.0);
        let sp = partition_separation_power(&p, &space, &labels, &d, 0);
        assert_eq!(sp, 1.0);
        // A predicate matching everything has zero separation power.
        let all = Predicate::gt("x", -1.0);
        assert_eq!(partition_separation_power(&all, &space, &labels, &d, 0), 0.0);
    }

    #[test]
    fn missing_sides_contribute_zero() {
        use crate::partition::PartitionLabel::{Abnormal as A, Empty as E};
        let space = PartitionSpace::Numeric { min: 0.0, max: 100.0, r: 2 };
        let d = dataset(&[0.0, 100.0]);
        let labels = [E, A];
        let p = Predicate::gt("x", 50.0);
        assert_eq!(partition_separation_power(&p, &space, &labels, &d, 0), 1.0);
    }
}
