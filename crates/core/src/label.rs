//! Partition labeling (paper §4.2).
//!
//! Numeric attributes use the *purity* rule: a partition is `Abnormal` only
//! when every tuple it contains lies in the abnormal region, `Normal` only
//! when every tuple lies in the normal region, and `Empty` otherwise
//! (no tuples, or mixed). Categorical attributes — much less noisy — use a
//! *majority* rule on the abnormal/normal counts. Tuples outside both
//! regions are ignored entirely (§4).
//!
//! [`labelled_space`] is the one place a case turns an attribute into a
//! labelled partition space: Algorithm 1 labels every attribute through it
//! and hands the spaces on, and Eq. 3 scores causal models on them. For a
//! numeric attribute the pass that labels each region also takes Eq. 2's
//! normalized mean difference, which Algorithm 1's θ gate reads.
//! [`label_partitions_view`] labels alone, and with
//! [`normalized_mean_difference_view`](crate::extract::normalized_mean_difference_view)
//! is the reference the builder is checked against.

use dbsherlock_telemetry::{AttributeKind, ColumnView, ColumnarSnapshot, Region};

use crate::partition::{NumericBinner, PartitionLabel, PartitionSpace};

/// An attribute's partition space and its labels before filtering (§4.1–4.2),
/// with Eq. 2's mean difference for a numeric attribute: what Algorithm 1
/// gates, filters, fills and extracts from, and what Eq. 3 scores a causal
/// model's predicates on.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledSpace {
    /// The attribute's discretized domain.
    pub space: PartitionSpace,
    /// One label per partition of `space`.
    pub labels: Vec<PartitionLabel>,
    /// Normalized mean difference `|µ_A − µ_N|` (Eq. 2 + §4.5) over the
    /// same regions; `None` for a categorical attribute, and when either
    /// region holds no finite value.
    pub normalized_diff: Option<f64>,
}

/// Build the partition space of `attr_id` with `r` partitions and label it
/// from the `abnormal` and `normal` regions. A numeric space spans the
/// snapshot's memoized finite range, and the same pass over each region
/// takes the normalized mean difference; a categorical space has a
/// partition per dictionary entry. `None` when the attribute cannot be
/// partitioned: an id outside the schema, no finite value, a constant
/// column, or an empty dictionary.
pub fn labelled_space(
    snapshot: &ColumnarSnapshot<'_>,
    attr_id: usize,
    abnormal: &Region,
    normal: &Region,
    r: usize,
) -> Option<LabelledSpace> {
    let view = snapshot.column(attr_id);
    match snapshot.schema().get(attr_id)?.kind {
        AttributeKind::Numeric => {
            let space = PartitionSpace::from_numeric_range(snapshot.numeric_range(attr_id), r)?;
            let binner = space.numeric_binner()?;
            let (labels, normalized_diff) = label_numeric_with_mean_diff(
                view.numeric()?,
                binner,
                space.len(),
                abnormal,
                normal,
            );
            Some(LabelledSpace { space, labels, normalized_diff })
        }
        AttributeKind::Categorical => {
            let space = PartitionSpace::from_dictionary(view.categorical()?.1)?;
            let labels = label_partitions_view(view, &space, abnormal, normal);
            Some(LabelledSpace { space, labels, normalized_diff: None })
        }
    }
}

/// Numeric labels and Eq. 2 in one pass per region: each finite value in
/// the column is divided once ([`NumericBinner::bin_and_normalize`]),
/// counted in its partition and added to its region's normalized sum in
/// the region's index order. Labels and difference are bit for bit those of
/// [`label_partitions_view`] and
/// [`normalized_mean_difference_view`](crate::extract::normalized_mean_difference_view),
/// which divide each value once per kernel.
fn label_numeric_with_mean_diff(
    values: &[f64],
    binner: NumericBinner,
    r: usize,
    abnormal: &Region,
    normal: &Region,
) -> (Vec<PartitionLabel>, Option<f64>) {
    // One region's hits per partition and mean normalized value.
    let scan = |region: &Region| {
        let mut hits = vec![0usize; r];
        let (mut sum, mut count) = (0.0f64, 0usize);
        for &row in region.indices() {
            let Some((j, x)) = values.get(row).and_then(|&v| binner.bin_and_normalize(v)) else {
                continue;
            };
            if let Some(hits) = hits.get_mut(j) {
                *hits += 1;
            }
            sum += x;
            count += 1;
        }
        (hits, (count > 0).then(|| sum / count as f64))
    };
    let (abnormal_hits, abnormal_mean) = scan(abnormal);
    let (normal_hits, normal_mean) = scan(normal);
    let diff = abnormal_mean.zip(normal_mean).map(|(a, n)| (a - n).abs());
    (purity(&abnormal_hits, &normal_hits), diff)
}

/// Columnar labeling kernel: two count passes over the region indices of
/// one attribute-contiguous column, then one purity/majority fold over
/// the hit counts. Kind mismatches between `view` and `space` yield all-
/// `Empty` labels rather than a panic; upstream generation never produces
/// one.
pub fn label_partitions_view(
    view: ColumnView<'_>,
    space: &PartitionSpace,
    abnormal: &Region,
    normal: &Region,
) -> Vec<PartitionLabel> {
    match (space, view) {
        (PartitionSpace::Numeric { .. }, ColumnView::Numeric(v)) => {
            label_numeric(v.as_slice(), space, abnormal, normal)
        }
        (PartitionSpace::Categorical { .. }, ColumnView::Categorical(c)) => {
            label_categorical(c.ids, space, abnormal, normal)
        }
        _ => vec![PartitionLabel::Empty; space.len()],
    }
}

fn label_numeric(
    values: &[f64],
    space: &PartitionSpace,
    abnormal: &Region,
    normal: &Region,
) -> Vec<PartitionLabel> {
    let Some(binner) = space.numeric_binner() else {
        return vec![PartitionLabel::Empty; space.len()];
    };
    let mut abnormal_hits = vec![0usize; space.len()];
    let mut normal_hits = vec![0usize; space.len()];
    // Rows outside the column (possible only on malformed regions) are
    // skipped, like non-finite values.
    for &row in abnormal.indices() {
        if let Some(j) = values.get(row).copied().and_then(|v| binner.bin(v)) {
            if let Some(hits) = abnormal_hits.get_mut(j) {
                *hits += 1;
            }
        }
    }
    for &row in normal.indices() {
        if let Some(j) = values.get(row).copied().and_then(|v| binner.bin(v)) {
            if let Some(hits) = normal_hits.get_mut(j) {
                *hits += 1;
            }
        }
    }
    purity(&abnormal_hits, &normal_hits)
}

/// The purity rule over per-partition hit counts of the two regions.
fn purity(abnormal_hits: &[usize], normal_hits: &[usize]) -> Vec<PartitionLabel> {
    abnormal_hits
        .iter()
        .zip(normal_hits)
        .map(|(&a, &n)| match (a, n) {
            (0, 0) => PartitionLabel::Empty,
            (_, 0) => PartitionLabel::Abnormal,
            (0, _) => PartitionLabel::Normal,
            // Mixed partitions carry no separation signal.
            _ => PartitionLabel::Empty,
        })
        .collect()
}

fn label_categorical(
    ids: &[u32],
    space: &PartitionSpace,
    abnormal: &Region,
    normal: &Region,
) -> Vec<PartitionLabel> {
    let mut abnormal_hits = vec![0usize; space.len()];
    let mut normal_hits = vec![0usize; space.len()];
    for &row in abnormal.indices() {
        if let Some(hits) = ids.get(row).and_then(|&id| abnormal_hits.get_mut(id as usize)) {
            *hits += 1;
        }
    }
    for &row in normal.indices() {
        if let Some(hits) = ids.get(row).and_then(|&id| normal_hits.get_mut(id as usize)) {
            *hits += 1;
        }
    }
    abnormal_hits
        .iter()
        .zip(&normal_hits)
        .map(|(&a, &n)| {
            // Majority rule: P_j(A) > P_j(N) -> Abnormal, < -> Normal,
            // tie (including 0-0) -> Empty (§4.2).
            match a.cmp(&n) {
                std::cmp::Ordering::Greater => PartitionLabel::Abnormal,
                std::cmp::Ordering::Less => PartitionLabel::Normal,
                std::cmp::Ordering::Equal => PartitionLabel::Empty,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{categorical_dataset, numeric_dataset};
    use dbsherlock_telemetry::Dataset;

    /// Labels of attribute 0 through the one builder.
    fn labels(d: &Dataset, r: usize, abnormal: &Region, normal: &Region) -> Vec<PartitionLabel> {
        labelled_space(&d.snapshot(), 0, abnormal, normal, r).unwrap().labels
    }

    #[test]
    fn numeric_purity_rule() {
        // Values 0..10; rows 0..5 normal (values 0-4), rows 5..10 abnormal
        // (values 5-9); 3 partitions over the domain [0,9]: [0,3),[3,6),[6,9].
        let values: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let d = numeric_dataset(&values);
        let abnormal = Region::from_range(5..10);
        let normal = Region::from_range(0..5);
        // Partition 0: values 0,1,2 all normal. Partition 1: values 3,4
        // normal but 5 abnormal -> mixed -> Empty. Partition 2: 6..9 all
        // abnormal.
        assert_eq!(
            labels(&d, 3, &abnormal, &normal),
            vec![PartitionLabel::Normal, PartitionLabel::Empty, PartitionLabel::Abnormal]
        );
    }

    #[test]
    fn rows_outside_both_regions_are_ignored() {
        let d = numeric_dataset(&[0.0, 1.0, 8.0, 9.0]);
        // Row 1 (value 1.0) in neither region: partition 0 stays pure.
        let abnormal = Region::from_indices([2, 3]);
        let normal = Region::from_indices([0]);
        assert_eq!(
            labels(&d, 2, &abnormal, &normal),
            vec![PartitionLabel::Normal, PartitionLabel::Abnormal]
        );
    }

    #[test]
    fn empty_partition_in_the_middle() {
        let d = numeric_dataset(&[0.0, 0.5, 9.5, 10.0]);
        let abnormal = Region::from_indices([2, 3]);
        let normal = Region::from_indices([0, 1]);
        assert_eq!(
            labels(&d, 5, &abnormal, &normal),
            vec![
                PartitionLabel::Normal,
                PartitionLabel::Empty,
                PartitionLabel::Empty,
                PartitionLabel::Empty,
                PartitionLabel::Abnormal
            ]
        );
    }

    #[test]
    fn categorical_majority_rule() {
        // "a" appears twice in abnormal, once in normal -> Abnormal.
        // "b" appears once each -> tie -> Empty.
        // "c" appears only in normal -> Normal.
        let d = categorical_dataset(&["a", "a", "b", "a", "b", "c"]);
        let abnormal = Region::from_indices([0, 1, 2]);
        let normal = Region::from_indices([3, 4, 5]);
        // `r` does not apply to categorical spaces.
        assert_eq!(
            labels(&d, 0, &abnormal, &normal),
            vec![PartitionLabel::Abnormal, PartitionLabel::Empty, PartitionLabel::Normal]
        );
    }
}
