//! Automatic anomaly detection (paper §7).
//!
//! 1. Min–max-normalize every numeric attribute (Eq. 2).
//! 2. Compute each attribute's **potential power** (Eq. 4): the maximum
//!    absolute difference between the attribute's overall median and the
//!    median within any sliding window of size `τ` — a median filter that
//!    responds to abrupt, sustained level shifts while ignoring isolated
//!    spikes. Keep attributes with `PP > PP_t`.
//! 3. Cluster the rows (as points over the selected attributes) with
//!    DBSCAN, `minPts = 3` and `ε = max(L_3)/4` from the k-dist list.
//!    One refinement over the paper's rule: `ε` is floored at twice the
//!    99th percentile of `L_3`, so it never drops below the data's own
//!    local density (with step-shaped anomalies there are no transition
//!    points between the normal and abnormal blobs, `max(L_3)` collapses
//!    to the intra-blob spacing, and the bare `/4` rule would shatter both
//!    blobs into noise).
//! 4. Report the rows of every cluster smaller than 20% of all rows —
//!    anomalies are assumed to be a small minority (§7). Points DBSCAN
//!    labels as noise are not reported, per the paper.

use dbsherlock_cluster::{
    dbscan_precomputed, kdist_list_from, rows_from_columns, Label, PairwiseDistances,
};
use dbsherlock_telemetry::{stats, AttributeKind, Dataset, Region};

use crate::budget::ArmedBudget;
use crate::error::SherlockError;
use crate::exec::try_par_map_indexed;
use crate::params::SherlockParams;

/// Potential power of a normalized series (Eq. 4): the largest absolute
/// deviation of any `tau`-window median from the global median.
///
/// The window slides over one [`stats::SortedWindow`]: each step removes
/// the outgoing value and inserts the incoming one, and the median is read
/// off the sorted slice by [`stats::median_in_place`]'s formula, so every
/// window median has the bits a copy-and-select of the window would give.
pub fn potential_power(normalized: &[f64], tau: usize) -> f64 {
    if normalized.is_empty() || tau == 0 || tau > normalized.len() {
        return 0.0;
    }
    let global = stats::median(normalized);
    let (first, rest) = normalized.split_at(tau);
    let mut window = stats::SortedWindow::with_capacity(tau);
    for &v in first {
        window.insert(v);
    }
    let shift = |window: &stats::SortedWindow| (sorted_median(window.as_slice()) - global).abs();
    let mut best = f64::max(0.0, shift(&window));
    for (&outgoing, &incoming) in normalized.iter().zip(rest) {
        window.remove(outgoing);
        window.insert(incoming);
        best = best.max(shift(&window));
    }
    best
}

/// [`stats::median_in_place`]'s median of a slice sorted under
/// `total_cmp`: the upper middle element, averaged for even lengths with
/// the `f64::max` fold of the lower half (which skips NaNs). The fold's
/// order matters only for which zero it returns when the lower half holds
/// both; then the upper middle is `+0.0` or above, and adding either zero
/// to it gives the same sum. So the result does not depend on how
/// `median_in_place` happens to arrange the lower half.
fn sorted_median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    let Some(&upper) = sorted.get(mid) else { return 0.0 };
    if sorted.len() % 2 == 1 {
        upper
    } else {
        let lower = sorted.iter().take(mid).copied().fold(f64::NEG_INFINITY, f64::max);
        (lower + upper) / 2.0
    }
}

/// Attribute ids whose potential power exceeds `PP_t`, with their
/// normalized columns. The per-attribute median filter is the detector's
/// first O(rows × attrs) stage, so it fans out across the thread budget;
/// collection by index keeps schema order. Budget-checked per attribute;
/// panics are caught at the attribute slot.
fn select_attributes(
    dataset: &Dataset,
    params: &SherlockParams,
    budget: &ArmedBudget,
) -> Result<Vec<(usize, Vec<f64>)>, SherlockError> {
    let numeric = dataset.schema().ids_of_kind(AttributeKind::Numeric);
    let slots = try_par_map_indexed(params.exec, "detect", &numeric, |_, &attr_id| {
        budget.check("detect")?;
        let Some(values) = dataset.numeric(attr_id) else { return Ok(None) };
        let normalized = stats::normalize_slice(values);
        let pp = potential_power(&normalized, params.tau);
        Ok((pp > params.pp_t).then_some((attr_id, normalized)))
    });
    let mut selected = Vec::new();
    for slot in slots {
        if let Some(entry) = slot? {
            selected.push(entry);
        }
    }
    Ok(selected)
}

/// Result of automatic detection.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Proposed abnormal rows.
    pub region: Region,
    /// Attributes (by id) that passed the potential-power filter.
    pub selected_attrs: Vec<usize>,
}

/// Run automatic anomaly detection over `dataset`. Returns `None` when no
/// attribute shows enough potential power or when clustering finds nothing
/// small enough to call anomalous.
///
/// Runs with an unlimited budget, and degrades an internal failure (a
/// caught panic) to `None` — detection is advisory, so "nothing detected"
/// is its graceful floor. Callers that need the distinction, or a real
/// budget, use [`try_detect_anomaly`].
pub fn detect_anomaly(dataset: &Dataset, params: &SherlockParams) -> Option<Detection> {
    try_detect_anomaly(dataset, params, &ArmedBudget::unlimited()).unwrap_or(None)
}

/// [`detect_anomaly`] under a [`DiagnosisBudget`](crate::DiagnosisBudget):
/// cooperative deadline/cancellation checks before each attribute's median
/// filter and each point's row of pairwise distances, size admission up
/// front, and per-slot panic isolation. Within budget, output is identical
/// to [`detect_anomaly`].
pub fn try_detect_anomaly(
    dataset: &Dataset,
    params: &SherlockParams,
    budget: &ArmedBudget,
) -> Result<Option<Detection>, SherlockError> {
    budget.admit(dataset.n_rows(), params.n_partitions)?;
    let selected = select_attributes(dataset, params, budget)?;
    if selected.is_empty() {
        return Ok(None);
    }
    let columns: Vec<&[f64]> = selected.iter().map(|(_, col)| col.as_slice()).collect();
    let points = rows_from_columns(&columns);
    if points.len() < params.min_pts {
        return Ok(None);
    }
    // The O(n²) pairwise distances, the detector's dominant cost: computed
    // once, one independent row per point mapped across the thread budget,
    // and read by both the k-dist list and DBSCAN.
    let indices: Vec<usize> = (0..points.len()).collect();
    let row_slots = try_par_map_indexed(params.exec, "detect", &indices, |_, &i| {
        budget.check("detect")?;
        Ok(PairwiseDistances::row(&points, i))
    });
    let mut distance_rows = Vec::with_capacity(row_slots.len());
    for slot in row_slots {
        distance_rows.push(slot?);
    }
    // Rows built by `PairwiseDistances::row` always fit.
    let Some(distances) = PairwiseDistances::from_rows(&points, distance_rows) else {
        return Ok(None);
    };
    let lk = kdist_list_from(&distances, params.min_pts);
    let max_lk = lk.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max_lk <= 0.0 || !max_lk.is_finite() {
        return Ok(None);
    }
    // The paper's rule with a local-density floor (see module docs): ε
    // never drops below twice the 99th percentile of L_k, so clusters stay
    // internally connected even when there are no transition points to
    // prop up max(L_k).
    let eps = (max_lk / 4.0).max(2.0 * stats::quantile(&lk, 0.99));
    let clustering = dbscan_precomputed(&distances, eps, params.min_pts);
    let n = points.len();
    let max_cluster = (params.max_anomaly_fraction * n as f64) as usize;
    let sizes = clustering.sizes();
    let small = |id: usize| sizes.get(id).is_some_and(|&size| size < max_cluster);
    let rows: Vec<usize> = clustering
        .labels
        .iter()
        .enumerate()
        .filter(|(_, label)| matches!(label, Label::Cluster(id) if small(*id)))
        .map(|(row, _)| row)
        .collect();
    if rows.is_empty() || rows.len() >= n {
        return Ok(None);
    }
    Ok(Some(Detection {
        region: Region::from_indices(rows),
        selected_attrs: selected.into_iter().map(|(id, _)| id).collect(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_telemetry::{AttributeMeta, Schema, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn potential_power_of_level_shift() {
        // 100 points at 0, then 30 at 1: window of 20 inside the shifted
        // block has median 1; global median 0.
        let mut series = vec![0.0; 100];
        series.extend(vec![1.0; 30]);
        assert!((potential_power(&series, 20) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn potential_power_ignores_isolated_spike() {
        // A single-sample spike cannot dominate a 20-sample median.
        let mut series = vec![0.0; 100];
        series[50] = 1.0;
        assert_eq!(potential_power(&series, 20), 0.0);
    }

    #[test]
    fn potential_power_degenerate_inputs() {
        assert_eq!(potential_power(&[], 20), 0.0);
        assert_eq!(potential_power(&[1.0, 2.0], 20), 0.0);
        assert_eq!(potential_power(&[1.0, 2.0, 3.0], 0), 0.0);
    }

    /// Eq. 4 as it was first written: copy each window into a scratch
    /// buffer and select its median. The oracle for the sliding window.
    fn potential_power_select(normalized: &[f64], tau: usize) -> f64 {
        if normalized.is_empty() || tau == 0 || tau > normalized.len() {
            return 0.0;
        }
        let global = stats::median(normalized);
        let mut scratch = vec![0.0; tau];
        let mut best: f64 = 0.0;
        for window in normalized.windows(tau) {
            scratch.copy_from_slice(window);
            let m = stats::median_in_place(&mut scratch);
            best = best.max((m - global).abs());
        }
        best
    }

    /// A series value from a tape cell: NaN of either sign, ±0.0, a
    /// repeated constant, an infinity, or the cell's own number.
    fn awkward(pick: u8, v: f64) -> f64 {
        match pick {
            0 => f64::NAN,
            1 => -f64::NAN,
            2 => 0.0,
            3 => -0.0,
            4 | 5 => 0.5,
            6 => f64::NEG_INFINITY,
            _ => v,
        }
    }

    proptest::proptest! {
        /// The sliding window returns the copy-and-select result bit for
        /// bit: NaN of both signs, ±0.0, constant runs, series shorter
        /// than τ, even and odd τ.
        #[test]
        fn potential_power_matches_copy_and_select(
            tape in proptest::collection::vec((0u8..12, -1.0_f64..2.0), 0..90),
            tau in 0usize..25,
            constant in proptest::bool::ANY,
        ) {
            let series: Vec<f64> = if constant {
                vec![awkward(tape.first().map_or(9, |c| c.0), 0.25); tape.len()]
            } else {
                tape.iter().map(|&(pick, v)| awkward(pick, v)).collect()
            };
            let fast = potential_power(&series, tau);
            let slow = potential_power_select(&series, tau);
            proptest::prop_assert_eq!(fast.to_bits(), slow.to_bits(), "tau {}, {:?}", tau, series);
        }

        /// Both agree on the detector's own input: normalized columns.
        #[test]
        fn potential_power_matches_on_normalized_columns(
            raw in proptest::collection::vec(-50.0_f64..50.0, 0..200),
            tau in 1usize..30,
        ) {
            let normalized = stats::normalize_slice(&raw);
            let fast = potential_power(&normalized, tau);
            let slow = potential_power_select(&normalized, tau);
            proptest::prop_assert_eq!(fast.to_bits(), slow.to_bits());
        }
    }

    /// 300 rows of noisy baseline with a 40-row level shift in two
    /// attributes; one pure-noise attribute.
    fn dataset_with_shift() -> (Dataset, Region) {
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("a"),
            AttributeMeta::numeric("b"),
            AttributeMeta::numeric("noise"),
        ])
        .unwrap();
        let mut d = Dataset::new(schema);
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..300 {
            let shifted = (200..240).contains(&i);
            let a = if shifted { 95.0 } else { 10.0 } + rng.random::<f64>() * 4.0;
            let b = if shifted { 3.0 } else { 70.0 } + rng.random::<f64>() * 4.0;
            // Bell-ish noise: min–max normalization stretches any series
            // to [0, 1], so a realistic noise attribute concentrates its
            // mass near the middle instead of being uniform over the range.
            let noise =
                (rng.random::<f64>() + rng.random::<f64>() + rng.random::<f64>()) / 3.0 * 100.0;
            d.push_row(i as f64, &[Value::Num(a), Value::Num(b), Value::Num(noise)]).unwrap();
        }
        (d, Region::from_range(200..240))
    }

    #[test]
    fn detects_the_shifted_block() {
        let (d, truth) = dataset_with_shift();
        let detection = detect_anomaly(&d, &SherlockParams::default()).unwrap();
        let iou = detection.region.iou(&truth);
        assert!(iou > 0.8, "IoU {iou}, detected {:?}", detection.region.intervals());
        // The pure-noise attribute must not be selected.
        let noise_id = d.schema().id_of("noise").unwrap();
        assert!(!detection.selected_attrs.contains(&noise_id));
        assert_eq!(detection.selected_attrs.len(), 2);
    }

    #[test]
    fn budgeted_detect_matches_unbudgeted_and_enforces_limits() {
        let (d, _) = dataset_with_shift();
        let params = SherlockParams::default();
        let plain = detect_anomaly(&d, &params);
        let budgeted =
            try_detect_anomaly(&d, &params, &crate::budget::ArmedBudget::unlimited()).unwrap();
        assert_eq!(plain, budgeted);
        assert!(plain.is_some());

        let tight = crate::budget::DiagnosisBudget::unlimited().with_max_rows(10).arm();
        assert!(matches!(
            try_detect_anomaly(&d, &params, &tight),
            Err(SherlockError::BudgetExceeded { what: "rows", .. })
        ));
        let expired = crate::budget::DiagnosisBudget::unlimited().with_deadline_ms(0).arm();
        assert!(matches!(
            try_detect_anomaly(&d, &params, &expired),
            Err(SherlockError::DeadlineExceeded { stage: "detect", .. })
        ));
    }

    #[test]
    fn no_detection_on_steady_data() {
        let schema = Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap();
        let mut d = Dataset::new(schema);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..200 {
            d.push_row(i as f64, &[Value::Num(50.0 + rng.random::<f64>())]).unwrap();
        }
        assert!(detect_anomaly(&d, &SherlockParams::default()).is_none());
    }

    #[test]
    fn no_detection_when_anomaly_is_majority() {
        // A 50/50 split: neither cluster is under 20%, no noise points.
        let schema = Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap();
        let mut d = Dataset::new(schema);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..200 {
            let base = if i < 100 { 10.0 } else { 90.0 };
            d.push_row(i as f64, &[Value::Num(base + rng.random::<f64>())]).unwrap();
        }
        let detection = detect_anomaly(&d, &SherlockParams::default());
        if let Some(det) = detection {
            // Only stray noise points may be reported, never a whole half.
            assert!(det.region.len() < 20, "{:?}", det.region.intervals());
        }
    }
}
