//! Filling the gaps between labeled partitions (paper §4.4).
//!
//! After filtering, the space holds blocks of `Normal` / `Abnormal`
//! partitions separated by `Empty` ones. Every `Empty` partition receives
//! the label of the nearer non-Empty side, with the distance to an
//! `Abnormal` neighbour multiplied by the anomaly distance multiplier `δ`
//! (so `δ > 1` pulls boundaries towards the abnormal side, making
//! predicates more specific). Ties go to `Normal`, consistent with the
//! specific-predicate bias of the default `δ = 10`.
//!
//! Special case: if **only Abnormal** partitions survive filtering, naive
//! filling would paint the whole domain abnormal and no predicate direction
//! could be determined. The paper anchors the partition containing the
//! *average attribute value over the normal-region tuples* as `Normal`
//! first, then fills.

use dbsherlock_telemetry::{stats, Region};

use crate::partition::{PartitionLabel, PartitionSpace};

/// Fill gaps in `labels`, honouring the anomaly distance multiplier.
/// `values` (the attribute's numeric column) and `normal` supply the
/// normal-region average for the all-Abnormal special case; an empty slice
/// disables that anchoring.
pub fn fill_gaps_view(
    labels: &[PartitionLabel],
    delta: f64,
    values: &[f64],
    space: &PartitionSpace,
    normal: &Region,
) -> Vec<PartitionLabel> {
    let mut labels = labels.to_vec();
    let has_normal = labels.contains(&PartitionLabel::Normal);
    let has_abnormal = labels.contains(&PartitionLabel::Abnormal);
    if !has_abnormal {
        // Nothing to explain on this attribute; leave as-is (the extractor
        // will find no abnormal block).
        return labels;
    }
    if !has_normal {
        anchor_normal_average(&mut labels, values, space, normal);
    }
    fill(&labels, delta)
}

/// Label the partition containing the normal-region average as `Normal`,
/// regardless of its previous label (§4.4).
fn anchor_normal_average(
    labels: &mut [PartitionLabel],
    values: &[f64],
    space: &PartitionSpace,
    normal: &Region,
) {
    // `normal` may outlive the rows it was defined over (lossy repair
    // shrinks datasets), and surviving cells may be NaN: index defensively
    // and keep only finite values.
    let normal_values: Vec<f64> = normal
        .indices()
        .iter()
        .filter_map(|&r| values.get(r).copied())
        .filter(|v| v.is_finite())
        .collect();
    if normal_values.is_empty() {
        return;
    }
    let avg = stats::mean(&normal_values);
    if let Some(slot) = space.index_of_num(avg).and_then(|j| labels.get_mut(j)) {
        *slot = PartitionLabel::Normal;
    }
}

#[allow(
    clippy::indexing_slicing,
    reason = "labels, left and right all have n entries and j ranges over 0..n"
)]
fn fill(labels: &[PartitionLabel], delta: f64) -> Vec<PartitionLabel> {
    let n = labels.len();
    // Distance (in partitions) to the closest non-Empty partition on each
    // side, and that partition's label.
    let mut left: Vec<Option<(usize, PartitionLabel)>> = vec![None; n];
    let mut last: Option<(usize, PartitionLabel)> = None;
    for j in 0..n {
        if labels[j] != PartitionLabel::Empty {
            last = Some((j, labels[j]));
        } else if let Some((pos, label)) = last {
            left[j] = Some((j - pos, label));
        }
    }
    let mut right: Vec<Option<(usize, PartitionLabel)>> = vec![None; n];
    let mut next: Option<(usize, PartitionLabel)> = None;
    for j in (0..n).rev() {
        if labels[j] != PartitionLabel::Empty {
            next = Some((j, labels[j]));
        } else if let Some((pos, label)) = next {
            right[j] = Some((pos - j, label));
        }
    }

    let weighted = |distance: usize, label: PartitionLabel| -> f64 {
        let d = distance as f64;
        if label == PartitionLabel::Abnormal {
            d * delta
        } else {
            d
        }
    };

    labels
        .iter()
        .enumerate()
        .map(|(j, &label)| {
            if label != PartitionLabel::Empty {
                return label;
            }
            match (left[j], right[j]) {
                (None, None) => PartitionLabel::Empty,
                (Some((_, l)), None) | (None, Some((_, l))) => l,
                (Some((_, ll)), Some((_, lr))) if ll == lr => ll,
                (Some((dl, ll)), Some((dr, lr))) => {
                    let wl = weighted(dl, ll);
                    let wr = weighted(dr, lr);
                    if wl < wr {
                        ll
                    } else if wr < wl {
                        lr
                    } else if ll == PartitionLabel::Normal {
                        // Tie: prefer Normal (specific-predicate bias).
                        ll
                    } else {
                        lr
                    }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionLabel::{Abnormal as A, Empty as E, Normal as N};
    use dbsherlock_telemetry::{AttributeMeta, Dataset, Schema, Value};

    fn dummy_context() -> (Dataset, PartitionSpace, Region) {
        let schema = Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap();
        let mut d = Dataset::new(schema);
        for i in 0..10 {
            d.push_row(i as f64, &[Value::Num(i as f64)]).unwrap();
        }
        let space = PartitionSpace::from_numeric_range(d.numeric_range(0).ok(), 10).unwrap();
        let normal = Region::from_range(0..5);
        (d, space, normal)
    }

    fn run(labels: &[PartitionLabel], delta: f64) -> Vec<PartitionLabel> {
        let (d, space, normal) = dummy_context();
        // Pad/truncate label vec to the space size for the helper call.
        let mut padded = labels.to_vec();
        padded.resize(space.len(), E);
        fill_gaps_view(&padded, delta, d.numeric(0).unwrap(), &space, &normal)
    }

    #[test]
    fn same_label_both_sides() {
        let filled = run(&[N, E, E, N, A, A, A, A, A, A], 10.0);
        assert_eq!(&filled[..4], &[N, N, N, N]);
    }

    #[test]
    fn nearer_side_wins_with_neutral_delta() {
        // N at 0, A at 9; delta = 1: partitions 1..5 closer to N, 5..9
        // closer to A; the exact tie at index 4/5 midpoint goes to Normal.
        let filled = run(&[N, E, E, E, E, E, E, E, E, A], 1.0);
        assert_eq!(filled, vec![N, N, N, N, N, A, A, A, A, A]);
    }

    #[test]
    fn large_delta_pushes_boundary_towards_abnormal() {
        let filled = run(&[N, E, E, E, E, E, E, E, E, A], 10.0);
        // With delta = 10, only partitions essentially adjacent to A stay
        // abnormal: weighted distance to A at index j is (9-j)*10 vs j.
        let abnormal_count = filled.iter().filter(|&&l| l == A).count();
        assert_eq!(abnormal_count, 1, "{filled:?}");
    }

    #[test]
    fn small_delta_spreads_abnormal() {
        let filled = run(&[N, E, E, E, E, E, E, E, E, A], 0.1);
        let abnormal_count = filled.iter().filter(|&&l| l == A).count();
        assert!(abnormal_count >= 8, "{filled:?}");
    }

    #[test]
    fn edge_gaps_take_their_only_neighbour() {
        let filled = run(&[E, E, A, E, E, N, E, E, E, E], 1.0);
        assert_eq!(filled[0], A);
        assert_eq!(filled[1], A);
        assert_eq!(filled[9], N);
    }

    #[test]
    fn no_abnormal_partitions_is_a_noop() {
        let labels = [N, E, E, N, E, E, E, E, E, N];
        let filled = run(&labels, 10.0);
        assert_eq!(filled.to_vec(), labels.to_vec());
    }

    #[test]
    fn all_abnormal_anchors_normal_average() {
        // Normal region rows 0..5 have values 0..4, average 2 -> partition
        // 2 of the 10-wide space is forced Normal.
        let filled = run(&[E, E, E, E, E, E, E, E, E, A], 1.0);
        assert_eq!(filled[2], N);
        assert_eq!(filled[9], A);
        // Everything fills to one of the two labels.
        assert!(filled.iter().all(|&l| l != E));
    }
}
