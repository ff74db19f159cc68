//! Row-wise reference implementations of the diagnosis kernels.
//!
//! This is the pre-columnar hot path, preserved as an executable
//! specification: every kernel walks the dataset cell by cell through a
//! private per-cell accessor, paying the column-enum dispatch per row that
//! the columnar kernels in [`label`](crate::label), [`predicate`](crate::predicate),
//! [`separation`](crate::separation), and [`generate`](crate::generate)
//! hoist out of their loops. The columnar rewrite is required to be
//! **bit-identical** to this module on valid inputs — the determinism
//! proptests diff the two paths, and the scaling benchmark
//! (`columnar_scaling`) uses this module as its scalar baseline.
//!
//! Compiled only for tests and under the `scalar-shim` feature; production
//! builds carry no row-wise code.

use dbsherlock_telemetry::{AttributeKind, ColumnView, Dataset, Region, Value};

use crate::causal::{CausalModel, ModelRepository, RankedCause};
use crate::extract::{extract_categorical_view, extract_numeric};
use crate::fill::fill_gaps_view;
use crate::filter::filter_partitions;
use crate::generate::GeneratedPredicate;
use crate::params::SherlockParams;
use crate::partition::{PartitionLabel, PartitionSpace};
use crate::predicate::Predicate;

/// The cell at `(row, attr_id)`, with the column-enum dispatch paid per
/// call: the access shape every kernel below is built on. `None` outside
/// the dataset.
fn value(dataset: &Dataset, row: usize, attr_id: usize) -> Option<Value> {
    match dataset.column(attr_id) {
        ColumnView::Numeric(v) => v.as_slice().get(row).map(|&x| Value::Num(x)),
        ColumnView::Categorical(c) => c.ids.get(row).map(|&id| Value::Cat(id)),
    }
}

/// The partition space of `attr_id` built from the dataset itself: the
/// range through [`Dataset::numeric_range`], the dictionary through
/// [`Dataset::categorical`]. `None` when the attribute cannot be
/// partitioned.
fn partition_space(dataset: &Dataset, attr_id: usize, r: usize) -> Option<PartitionSpace> {
    match dataset.schema().get(attr_id)?.kind {
        AttributeKind::Numeric => {
            PartitionSpace::from_numeric_range(dataset.numeric_range(attr_id).ok(), r)
        }
        AttributeKind::Categorical => {
            PartitionSpace::from_dictionary(dataset.categorical(attr_id).ok()?.1)
        }
    }
}

/// Does `predicate` hold at `row`? One [`value`] dispatch (and, for
/// categorical attributes, one dictionary lookup) per call. Unknown
/// attributes, kind mismatches and out-of-range rows evaluate to `false`.
pub fn matches_row(predicate: &Predicate, dataset: &Dataset, row: usize) -> bool {
    let Some(attr_id) = dataset.schema().id_of(&predicate.attr) else {
        return false;
    };
    match value(dataset, row, attr_id) {
        Some(Value::Num(v)) => predicate.op.matches_num(v),
        Some(Value::Cat(id)) => {
            let Ok((_, dict)) = dataset.categorical(attr_id) else {
                return false;
            };
            dict.label(id).map(|l| predicate.op.matches_label(l)).unwrap_or(false)
        }
        None => false,
    }
}

/// Fraction of `rows` satisfying `predicate`: one [`matches_row`] per row,
/// with the attribute re-resolved every time.
pub fn selectivity(predicate: &Predicate, dataset: &Dataset, rows: &[usize]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let hits = rows.iter().filter(|&&r| matches_row(predicate, dataset, r)).count();
    hits as f64 / rows.len() as f64
}

/// Row-wise Eq. 1: two independent selectivity passes.
pub fn separation_power(
    predicate: &Predicate,
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
) -> f64 {
    selectivity(predicate, dataset, abnormal.indices())
        - selectivity(predicate, dataset, normal.indices())
}

/// Row-wise §4.2 labeling: one [`value`] dispatch per (region row), then
/// the same purity/majority fold as the columnar kernel.
pub fn label_partitions(
    dataset: &Dataset,
    attr_id: usize,
    space: &PartitionSpace,
    abnormal: &Region,
    normal: &Region,
) -> Vec<PartitionLabel> {
    let partition_of = |row: usize| -> Option<usize> {
        if row >= dataset.n_rows() || attr_id >= dataset.schema().len() {
            return None;
        }
        match (space, value(dataset, row, attr_id)?) {
            (PartitionSpace::Numeric { .. }, Value::Num(v)) => space.index_of_num(v),
            (PartitionSpace::Categorical { .. }, Value::Cat(id)) => {
                ((id as usize) < space.len()).then_some(id as usize)
            }
            _ => None,
        }
    };
    let mut abnormal_hits = vec![0usize; space.len()];
    let mut normal_hits = vec![0usize; space.len()];
    for &row in abnormal.indices() {
        if let Some(hits) = partition_of(row).and_then(|j| abnormal_hits.get_mut(j)) {
            *hits += 1;
        }
    }
    for &row in normal.indices() {
        if let Some(hits) = partition_of(row).and_then(|j| normal_hits.get_mut(j)) {
            *hits += 1;
        }
    }
    abnormal_hits
        .iter()
        .zip(&normal_hits)
        .map(|(&a, &n)| match space {
            // Purity rule: any mix demotes to Empty.
            PartitionSpace::Numeric { .. } => match (a, n) {
                (0, 0) => PartitionLabel::Empty,
                (_, 0) => PartitionLabel::Abnormal,
                (0, _) => PartitionLabel::Normal,
                _ => PartitionLabel::Empty,
            },
            // Majority rule: ties (including 0-0) are Empty.
            PartitionSpace::Categorical { .. } => match a.cmp(&n) {
                std::cmp::Ordering::Greater => PartitionLabel::Abnormal,
                std::cmp::Ordering::Less => PartitionLabel::Normal,
                std::cmp::Ordering::Equal => PartitionLabel::Empty,
            },
        })
        .collect()
}

/// Does partition `j` of `space` satisfy `predicate`? The midpoint for
/// numeric spaces, the category label for categorical ones (see
/// [`partition_separation_power`](crate::separation::partition_separation_power)).
fn partition_satisfies(
    predicate: &Predicate,
    space: &PartitionSpace,
    dataset: &Dataset,
    attr_id: usize,
    j: usize,
) -> bool {
    match space {
        PartitionSpace::Numeric { .. } => {
            space.midpoint(j).map(|m| predicate.op.matches_num(m)).unwrap_or(false)
        }
        PartitionSpace::Categorical { .. } => {
            let Ok((_, dict)) = dataset.categorical(attr_id) else {
                return false;
            };
            dict.label(j as u32).map(|l| predicate.op.matches_label(l)).unwrap_or(false)
        }
    }
}

/// Row-wise partition-space separation power (one Eq. 3 term): one
/// [`partition_satisfies`] call — a midpoint test or a dictionary lookup —
/// per labeled partition.
pub fn partition_separation_power(
    predicate: &Predicate,
    space: &PartitionSpace,
    labels: &[PartitionLabel],
    dataset: &Dataset,
    attr_id: usize,
) -> f64 {
    let mut abnormal_total = 0usize;
    let mut abnormal_hits = 0usize;
    let mut normal_total = 0usize;
    let mut normal_hits = 0usize;
    for (j, &label) in labels.iter().enumerate() {
        let sat = partition_satisfies(predicate, space, dataset, attr_id, j);
        match label {
            PartitionLabel::Abnormal => {
                abnormal_total += 1;
                if sat {
                    abnormal_hits += 1;
                }
            }
            PartitionLabel::Normal => {
                normal_total += 1;
                if sat {
                    normal_hits += 1;
                }
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

/// Buffered Eq. 2: collect the normalized finite values of each region
/// into an intermediate vector, then take its mean (the columnar kernel
/// fuses the normalize-and-sum; the summation order is identical).
pub fn normalized_mean_difference(
    dataset: &Dataset,
    attr_id: usize,
    abnormal: &Region,
    normal: &Region,
) -> Option<f64> {
    let (min, max) = dataset.numeric_range(attr_id).ok()?;
    let mean_of = |region: &Region| -> Option<f64> {
        let values: Vec<f64> = region
            .indices()
            .iter()
            .filter_map(|&r| value(dataset, r, attr_id)?.as_num())
            .filter(|v| v.is_finite())
            .map(|v| dbsherlock_telemetry::stats::normalize(v, min, max))
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(dbsherlock_telemetry::stats::mean(&values))
        }
    };
    let a = mean_of(abnormal)?;
    let n = mean_of(normal)?;
    Some((a - n).abs())
}

/// Row-wise Algorithm 1: a serial loop over the schema, each attribute
/// partitioned, labeled, filtered, filled, and extracted through the
/// per-cell kernels above. Gate order matches the columnar
/// `extract_for_attribute` exactly.
pub fn generate_predicates(
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
) -> Vec<GeneratedPredicate> {
    let abnormal = &abnormal.clip(dataset.n_rows());
    let normal = &normal.clip(dataset.n_rows());
    if abnormal.is_empty() || normal.is_empty() {
        return Vec::new();
    }
    dataset
        .schema()
        .iter()
        .filter_map(|(attr_id, attr)| {
            let space = partition_space(dataset, attr_id, params.n_partitions)?;
            let labels = label_partitions(dataset, attr_id, &space, abnormal, normal);
            match attr.kind {
                AttributeKind::Numeric => {
                    let filtered = filter_partitions(&labels);
                    let values = dataset.numeric(attr_id).unwrap_or(&[]);
                    let filled = fill_gaps_view(&filtered, params.delta, values, &space, normal);
                    let d = normalized_mean_difference(dataset, attr_id, abnormal, normal)?;
                    if d <= params.theta {
                        return None;
                    }
                    let predicate = extract_numeric(&attr.name, &space, &filled)?;
                    let sp = separation_power(&predicate, dataset, abnormal, normal);
                    (sp >= params.min_separation_power).then_some(GeneratedPredicate {
                        predicate,
                        separation_power: sp,
                        normalized_diff: d,
                    })
                }
                AttributeKind::Categorical => {
                    let (_, dict) = dataset.categorical(attr_id).ok()?;
                    let predicate = extract_categorical_view(&attr.name, dict, &labels)?;
                    let sp = separation_power(&predicate, dataset, abnormal, normal);
                    (sp >= params.min_separation_power).then_some(GeneratedPredicate {
                        predicate,
                        separation_power: sp,
                        normalized_diff: 1.0,
                    })
                }
            }
        })
        .collect()
}

/// Row-wise Eq. 3: each predicate rebuilds and relabels its attribute's
/// partition space from scratch (no sharing with generation or between
/// predicates).
pub fn confidence(
    model: &CausalModel,
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
) -> f64 {
    // Keep the chaos tripwire so crash-torture comparisons see identical
    // panics on both paths.
    #[cfg(any(test, feature = "chaos"))]
    crate::chaos::scorer_tripwire(&model.cause, dataset);
    if model.predicates.is_empty() {
        return 0.0;
    }
    let total: f64 = model
        .predicates
        .iter()
        .map(|pred| {
            let Some(attr_id) = dataset.schema().id_of(&pred.attr) else {
                return 0.0;
            };
            let Some(space) = partition_space(dataset, attr_id, params.n_partitions) else {
                return 0.0;
            };
            let labels = label_partitions(dataset, attr_id, &space, abnormal, normal);
            partition_separation_power(pred, &space, &labels, dataset, attr_id)
        })
        .sum();
    total / model.predicates.len() as f64
}

/// Row-wise model's predicted region: a per-row conjunction of
/// [`matches_row`] calls.
pub fn predicted_region(model: &CausalModel, dataset: &Dataset) -> Region {
    if model.predicates.is_empty() {
        return Region::new();
    }
    Region::from_indices(
        (0..dataset.n_rows())
            .filter(|&row| model.predicates.iter().all(|p| matches_row(p, dataset, row))),
    )
}

/// Row-wise ranking: a serial loop of uncached [`confidence`] calls, with
/// the same decreasing-confidence / cause-name tie-break order.
pub fn rank(
    repository: &ModelRepository,
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
) -> Vec<RankedCause> {
    let mut ranked: Vec<RankedCause> = repository
        .models()
        .iter()
        .map(|m| RankedCause {
            cause: m.cause.clone(),
            confidence: confidence(m, dataset, abnormal, normal, params),
        })
        .collect();
    ranked
        .sort_by(|a, b| b.confidence.total_cmp(&a.confidence).then_with(|| a.cause.cmp(&b.cause)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_telemetry::{AttributeMeta, Schema};

    fn dataset() -> (Dataset, Region, Region) {
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("signal"),
            AttributeMeta::categorical("state"),
        ])
        .unwrap();
        let mut d = Dataset::new(schema);
        for i in 0..40 {
            let abnormal = (20..30).contains(&i);
            let signal = if abnormal { 90.0 + (i % 3) as f64 } else { 10.0 + (i % 5) as f64 };
            let state = d.intern(1, if abnormal { "bad" } else { "ok" }).unwrap();
            d.push_row(i as f64, &[Value::Num(signal), state]).unwrap();
        }
        let abnormal = Region::from_range(20..30);
        let normal = abnormal.complement(40);
        (d, abnormal, normal)
    }

    #[test]
    fn scalar_generate_matches_columnar() {
        let (d, abnormal, normal) = dataset();
        let params = SherlockParams::default();
        let scalar = generate_predicates(&d, &abnormal, &normal, &params);
        let columnar = crate::generate::generate_predicates(&d, &abnormal, &normal, &params);
        assert_eq!(scalar, columnar);
        assert!(!scalar.is_empty());
    }

    #[test]
    fn scalar_separation_matches_columnar() {
        let (d, abnormal, normal) = dataset();
        for p in [
            Predicate::gt("signal", 50.0),
            Predicate::lt("signal", 50.0),
            Predicate::between("signal", 5.0, 40.0),
            Predicate::in_set("state", ["bad".to_string()]),
            Predicate::gt("missing", 0.0),
        ] {
            let scalar = separation_power(&p, &d, &abnormal, &normal);
            let columnar = crate::separation::separation_power(&p, &d, &abnormal, &normal);
            assert_eq!(scalar.to_bits(), columnar.to_bits(), "{p}");
        }
    }

    #[test]
    fn scalar_rank_matches_columnar() {
        let (d, abnormal, complement) = dataset();
        let params = SherlockParams::default();
        let model = |cause: &str, predicates: Vec<Predicate>| CausalModel {
            cause: cause.into(),
            predicates,
            merged_from: 1,
        };
        let space = partition_space(&d, 0, params.n_partitions).unwrap();
        let on_midpoint = space.midpoint(params.n_partitions / 3).unwrap();
        let mut repo = ModelRepository::new();
        for m in [
            model("hot", vec![Predicate::gt("signal", 50.0)]),
            model("cold", vec![Predicate::lt("signal", 50.0)]),
            model("bad state", vec![Predicate::in_set("state", ["bad".to_string()])]),
            model("missing", vec![Predicate::gt("missing", 0.0), Predicate::gt("signal", 50.0)]),
            model("twice", vec![Predicate::gt("signal", 50.0), Predicate::lt("signal", 91.0)]),
            model("empty", vec![]),
            // Thresholds the binary-searched Eq. 3 term must treat as the
            // midpoint test does: NaN, infinite, signed zero, a reversed
            // band, and a threshold on a partition midpoint.
            model(
                "nan",
                vec![Predicate::gt("signal", f64::NAN), Predicate::lt("signal", f64::NAN)],
            ),
            model("reversed", vec![Predicate::between("signal", 91.0, 50.0)]),
            model(
                "infinite",
                vec![
                    Predicate::lt("signal", f64::INFINITY),
                    Predicate::gt("signal", f64::NEG_INFINITY),
                    Predicate::between("signal", f64::NEG_INFINITY, 50.0),
                ],
            ),
            model("zero", vec![Predicate::gt("signal", -0.0), Predicate::lt("signal", 0.0)]),
            model("on a midpoint", vec![Predicate::gt("signal", on_midpoint)]),
        ] {
            repo.add(m);
        }
        // An explicit normal region that overlaps the abnormal one: its
        // mixed partitions label Empty, so the scores move.
        let explicit = Region::from_range(15..25);
        let bits = |ranked: Vec<RankedCause>| -> Vec<(String, u64)> {
            ranked.into_iter().map(|c| (c.cause, c.confidence.to_bits())).collect()
        };
        for normal in [&complement, &explicit] {
            let scalar = rank(&repo, &d, &abnormal, normal, &params);
            let columnar = repo.rank(&d, &abnormal, normal, &params);
            assert_eq!(bits(scalar), bits(columnar));
            for m in repo.models() {
                let scalar = confidence(m, &d, &abnormal, normal, &params);
                let columnar = m.confidence(&d, &abnormal, normal, &params);
                assert_eq!(scalar.to_bits(), columnar.to_bits(), "{}", m.cause);
            }
        }
    }

    #[test]
    fn scalar_predicted_region_matches_columnar() {
        let (d, _, _) = dataset();
        let m = CausalModel {
            cause: "hot".into(),
            predicates: vec![
                Predicate::gt("signal", 50.0),
                Predicate::in_set("state", ["bad".to_string()]),
            ],
            merged_from: 1,
        };
        assert_eq!(predicted_region(&m, &d), m.predicted_region(&d));
    }
}
