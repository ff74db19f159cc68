//! Algorithm 1: predicate generation (paper §4).
//!
//! Per attribute: build the partition space and label it from the abnormal
//! and normal regions ([`labelled_space`], whose pass over each region also
//! takes a numeric attribute's normalized mean difference). A numeric
//! attribute with `|µ_A − µ_N| ≤ θ` stops there; the rest filter noisy
//! partitions, fill the gaps and extract a candidate predicate when the
//! filled space holds a single abnormal block. Categorical attributes skip
//! the gate and the filtering/filling steps and extract straight after
//! labeling. The labelled spaces go on to Eq. 3's ranking.

use dbsherlock_telemetry::{AttributeKind, ColumnarSnapshot, Dataset, Region};

use crate::budget::ArmedBudget;
use crate::error::SherlockError;
use crate::exec::try_par_map_indexed;
use crate::extract::{extract_categorical_view, extract_numeric};
use crate::fill::fill_gaps_view;
use crate::filter::filter_partitions;
use crate::label::{labelled_space, LabelledSpace};
use crate::params::SherlockParams;
use crate::predicate::Predicate;
use crate::separation::separation_power_view;

/// A generated predicate plus the statistics the algorithm computed for it.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedPredicate {
    /// The predicate itself.
    pub predicate: Predicate,
    /// Tuple-level separation power (Eq. 1) on the training data.
    pub separation_power: f64,
    /// Normalized mean difference `|µ_A − µ_N|` (numeric attributes; `1.0`
    /// recorded for categorical ones, which bypass the θ gate).
    pub normalized_diff: f64,
}

/// Ablation switches for the Appendix D step study (Table 6). The real
/// algorithm runs with both steps enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AblationFlags {
    /// Skip §4.3 partition filtering.
    pub skip_filtering: bool,
    /// Skip §4.4 gap filling.
    pub skip_filling: bool,
}

/// Generate the predicate conjunction explaining `abnormal` vs `normal`:
/// [`try_generate_predicates`] over a fresh snapshot, with every step
/// enabled and no budget.
///
/// A panic inside Algorithm 1 is raised again here; it never comes back as
/// an empty conjunction.
#[allow(clippy::panic, reason = "re-raises a pipeline panic caught at an attribute's slot")]
pub fn generate_predicates(
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
) -> Vec<GeneratedPredicate> {
    let snapshot = dataset.snapshot();
    let unlimited = ArmedBudget::unlimited();
    match try_generate_predicates(
        &snapshot,
        abnormal,
        normal,
        params,
        AblationFlags::default(),
        &unlimited,
    ) {
        Ok((predicates, _)) => predicates,
        // An unlimited budget never expires or cancels, so the only error
        // is a panic caught at an attribute's slot.
        Err(e) => panic!("{e}"),
    }
}

/// Algorithm 1 over a pinned [`ColumnarSnapshot`], under a
/// [`DiagnosisBudget`](crate::DiagnosisBudget), with the Appendix D steps
/// switched by `ablation`. Callers running several stages against the same
/// dataset (`Sherlock::explain_*`) build one snapshot per case so every
/// kernel shares the memoized range cache.
///
/// Returns the predicates, in schema order, next to every attribute's
/// [`labelled_space`] indexed by attribute id (`None` where the attribute
/// cannot be partitioned): the partition spaces Eq. 3 scores causal models
/// on for this case. The regions are clipped to the snapshot's rows first
/// (lossy ingestion drops rows); if either clips to nothing there is
/// nothing to generate and both lists are empty. The budget is checked
/// before each attribute's run, and a panic while processing any attribute
/// is caught at that slot. The first failure aborts the case: a partial
/// conjunction would be a *wrong* answer, not a degraded one.
pub fn try_generate_predicates(
    snapshot: &ColumnarSnapshot<'_>,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
    ablation: AblationFlags,
    budget: &ArmedBudget,
) -> Result<(Vec<GeneratedPredicate>, Vec<Option<LabelledSpace>>), SherlockError> {
    let abnormal = &abnormal.clip(snapshot.n_rows());
    let normal = &normal.clip(snapshot.n_rows());
    if abnormal.is_empty() || normal.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    // Each attribute is an independent run of Algorithm 1, so the schema
    // fans out across the thread budget; collecting by index keeps the
    // output in schema order, identical to the serial loop.
    let attr_ids: Vec<usize> = (0..snapshot.schema().len()).collect();
    let per_attr = try_par_map_indexed(params.exec, "generate", &attr_ids, |_, &attr_id| {
        budget.check("generate")?;
        let labelled = labelled_space(snapshot, attr_id, abnormal, normal, params.n_partitions);
        let generated = labelled.as_ref().and_then(|labelled| {
            extract_for_attribute(snapshot, attr_id, labelled, abnormal, normal, params, ablation)
        });
        Ok((generated, labelled))
    });
    let mut predicates = Vec::new();
    let mut spaces = Vec::with_capacity(per_attr.len());
    for slot in per_attr {
        let (generated, labelled) = slot?;
        predicates.extend(generated);
        spaces.push(labelled);
    }
    Ok((predicates, spaces))
}

/// Algorithm 1 for a single attribute after labelling: (numeric) the θ
/// gate, filter and fill, then extract — the unit of work the parallel
/// executor maps over. All inputs come from the snapshot and the
/// attribute's labelled space: one column view, zero per-cell accesses.
fn extract_for_attribute(
    snapshot: &ColumnarSnapshot<'_>,
    attr_id: usize,
    labelled: &LabelledSpace,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
    ablation: AblationFlags,
) -> Option<GeneratedPredicate> {
    let attr = snapshot.schema().get(attr_id)?;
    let view = snapshot.column(attr_id);
    let LabelledSpace { space, labels, normalized_diff } = labelled;
    match attr.kind {
        AttributeKind::Numeric => {
            // θ first: filtering and filling are pure, and wasted on an
            // attribute the gate rejects.
            let d = (*normalized_diff)?;
            if d <= params.theta {
                return None;
            }
            let values = view.numeric()?;
            let filtered =
                if ablation.skip_filtering { labels.clone() } else { filter_partitions(labels) };
            let filled = if ablation.skip_filling {
                filtered
            } else {
                fill_gaps_view(&filtered, params.delta, values, space, normal)
            };
            let predicate = extract_numeric(&attr.name, space, &filled)?;
            let sp = separation_power_view(&predicate, view, abnormal, normal);
            (sp >= params.min_separation_power).then_some(GeneratedPredicate {
                predicate,
                separation_power: sp,
                normalized_diff: d,
            })
        }
        AttributeKind::Categorical => {
            let predicate = extract_categorical_view(&attr.name, view.categorical()?.1, labels)?;
            let sp = separation_power_view(&predicate, view, abnormal, normal);
            (sp >= params.min_separation_power).then_some(GeneratedPredicate {
                predicate,
                separation_power: sp,
                normalized_diff: 1.0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::PredicateOp;
    use dbsherlock_telemetry::{AttributeMeta, Value};

    /// Two numeric attributes: `signal` jumps from ~10 to ~90 in the
    /// abnormal region, `noise` is unrelated; one categorical attribute
    /// flips to "bad" while abnormal.
    fn dataset() -> (Dataset, Region, Region) {
        let attrs = [
            AttributeMeta::numeric("signal"),
            AttributeMeta::numeric("noise"),
            AttributeMeta::categorical("state"),
        ];
        let d = crate::fixtures::build_dataset(attrs, 60, |d, i| {
            let abnormal = (40..50).contains(&i);
            let signal = if abnormal { 90.0 + (i % 5) as f64 } else { 10.0 + (i % 7) as f64 };
            let noise = (i % 13) as f64;
            let state = d
                .intern(2, if abnormal { "bad" } else { "ok" })
                .unwrap_or_else(|e| panic!("fixture intern at row {i} rejected: {e}"));
            vec![Value::Num(signal), Value::Num(noise), state]
        });
        let abnormal = Region::from_range(40..50);
        let normal = abnormal.complement(60);
        (d, abnormal, normal)
    }

    #[test]
    fn finds_signal_and_state_not_noise() {
        let (d, abnormal, normal) = dataset();
        let preds = generate_predicates(&d, &abnormal, &normal, &SherlockParams::default());
        let names: Vec<&str> = preds.iter().map(|p| p.predicate.attr.as_str()).collect();
        assert!(names.contains(&"signal"), "{names:?}");
        assert!(names.contains(&"state"), "{names:?}");
        assert!(!names.contains(&"noise"), "{names:?}");
    }

    #[test]
    fn signal_predicate_separates_perfectly() {
        let (d, abnormal, normal) = dataset();
        let preds = generate_predicates(&d, &abnormal, &normal, &SherlockParams::default());
        let signal = preds.iter().find(|p| p.predicate.attr == "signal").unwrap();
        assert!(signal.separation_power > 0.99, "sp {}", signal.separation_power);
        assert!(signal.normalized_diff > 0.5);
        // Direction: abnormal values are high, so the predicate must be
        // `Gt` (or `Between` anchored high).
        match signal.predicate.op {
            PredicateOp::Gt(x) => assert!(x > 20.0 && x < 90.0, "cut {x}"),
            PredicateOp::Between(lo, _) => assert!(lo > 20.0),
            ref other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn categorical_predicate_collects_bad_state() {
        let (d, abnormal, normal) = dataset();
        let preds = generate_predicates(&d, &abnormal, &normal, &SherlockParams::default());
        let state = preds.iter().find(|p| p.predicate.attr == "state").unwrap();
        assert_eq!(state.predicate.op, PredicateOp::InSet(vec!["bad".to_string()]));
        assert!(state.separation_power > 0.99);
    }

    #[test]
    fn theta_gates_weak_attributes() {
        let (d, abnormal, normal) = dataset();
        // θ = 0.99 rejects even the strong signal.
        let params = SherlockParams::default().with_theta(0.99);
        let preds = generate_predicates(&d, &abnormal, &normal, &params);
        assert!(preds.iter().all(|p| p.predicate.attr != "signal"));
    }

    #[test]
    fn empty_regions_yield_nothing() {
        let (d, abnormal, _) = dataset();
        let params = SherlockParams::default();
        assert!(generate_predicates(&d, &Region::new(), &abnormal, &params).is_empty());
        assert!(generate_predicates(&d, &abnormal, &Region::new(), &params).is_empty());
    }

    #[test]
    fn budgeted_generate_matches_unbudgeted_within_budget() {
        let (d, abnormal, normal) = dataset();
        let params = SherlockParams::default();
        let plain = generate_predicates(&d, &abnormal, &normal, &params);
        let armed = crate::budget::DiagnosisBudget::unlimited().with_deadline_ms(60_000).arm();
        let snapshot = d.snapshot();
        let (budgeted, spaces) = try_generate_predicates(
            &snapshot,
            &abnormal,
            &normal,
            &params,
            AblationFlags::default(),
            &armed,
        )
        .unwrap();
        assert_eq!(plain, budgeted);
        // One labelled space per attribute, indexed by id, as the builder
        // makes it: labels before filtering.
        assert_eq!(spaces.len(), d.schema().len());
        for (attr_id, space) in spaces.iter().enumerate() {
            let built = labelled_space(&snapshot, attr_id, &abnormal, &normal, params.n_partitions);
            assert_eq!(space, &built, "attribute {attr_id}");
            assert!(space.is_some(), "attribute {attr_id}");
        }
    }

    #[test]
    fn blown_deadline_aborts_the_case() {
        let (d, abnormal, normal) = dataset();
        let params = SherlockParams::default();
        let armed = crate::budget::DiagnosisBudget::unlimited().with_deadline_ms(0).arm();
        let result = try_generate_predicates(
            &d.snapshot(),
            &abnormal,
            &normal,
            &params,
            AblationFlags::default(),
            &armed,
        );
        assert!(matches!(result, Err(SherlockError::DeadlineExceeded { stage: "generate", .. })));
    }

    #[test]
    fn ablations_degrade_output() {
        let (d, abnormal, normal) = dataset();
        let params = SherlockParams::default();
        let full = generate_predicates(&d, &abnormal, &normal, &params);
        let (no_fill, _) = try_generate_predicates(
            &d.snapshot(),
            &abnormal,
            &normal,
            &params,
            AblationFlags { skip_filling: true, ..Default::default() },
            &ArmedBudget::unlimited(),
        )
        .unwrap();
        // Without gap filling, the block structure is fragmented by Empty
        // partitions, so the numeric predicate disappears (or at best gets
        // no stronger).
        let full_numeric = full.iter().filter(|p| p.predicate.op.is_numeric()).count();
        let ablated_numeric = no_fill.iter().filter(|p| p.predicate.op.is_numeric()).count();
        assert!(ablated_numeric <= full_numeric);
    }
}
