//! Replicas of `Sherlock::try_explain` and `Sherlock::try_detect`, built
//! from the public stage functions so each call can carry a span. They
//! follow the stage order of `core::diagnose`, `core::generate` and
//! `core::detect` call for call; the traced runs compare their output with
//! the public entry points bit for bit and fail on any difference, so the
//! stage times always belong to the program under test.

use std::time::{Duration, Instant};

use dbsherlock_cluster::{dbscan, kdist_of, rows_from_columns, Label};
use dbsherlock_core::extract::{
    extract_categorical_view, extract_numeric, normalized_mean_difference_view,
};
use dbsherlock_core::fill::fill_gaps_view;
use dbsherlock_core::filter::filter_partitions;
use dbsherlock_core::label::label_partitions_view;
use dbsherlock_core::separation::separation_power_view;
use dbsherlock_core::{
    potential_power, Detection, DomainKnowledge, Explanation, GeneratedPredicate, ModelRepository,
    PartitionSpace, PredicateOp, RankedCause, Sherlock, SherlockParams,
};
use dbsherlock_telemetry::{
    stats, AttributeKind, AttributeMeta, ColumnarSnapshot, Dataset, Region,
};
use serde_json::Value;

use crate::stats::{median, ratio};
use crate::trace::{Stage, Tracer};
use crate::{Outcome, RunConfig};

/// What a `Sherlock` engine holds, for the replica to run against.
pub struct Engine<'a> {
    pub params: &'a SherlockParams,
    pub domain: &'a DomainKnowledge,
    pub repository: &'a ModelRepository,
}

/// Work counts of one explain.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExplainCounts {
    pub attrs: usize,
    pub partitions: usize,
    pub predicates: usize,
    pub kept: usize,
    pub models: usize,
}

/// Work counts of one detection.
#[derive(Debug, Default, Clone, Copy)]
pub struct DetectCounts {
    pub selected_attrs: usize,
    pub points: usize,
}

/// `Sherlock::try_explain(dataset, abnormal, None)`, stage by stage.
pub fn explain(
    tr: &mut Tracer,
    engine: &Engine<'_>,
    dataset: &Dataset,
    abnormal: &Region,
) -> Result<(Explanation, ExplainCounts), String> {
    let params = engine.params;
    let armed = params.budget().arm();
    armed.admit(dataset.n_rows(), params.n_partitions()).map_err(|e| e.to_string())?;
    let n_rows = dataset.n_rows();
    let abnormal = &abnormal.clip(n_rows);
    let normal = &abnormal.complement(n_rows);
    if n_rows == 0 || abnormal.is_empty() || normal.is_empty() {
        return Err("degenerate case: empty dataset or region".into());
    }
    let snapshot = tr.span(Stage::Snapshot, |_| dataset.snapshot());
    let mut counts =
        ExplainCounts { models: engine.repository.models().len(), ..Default::default() };
    let mut raw = Vec::new();
    for (attr_id, attr) in snapshot.schema().iter() {
        armed.check("generate").map_err(|e| e.to_string())?;
        counts.attrs += 1;
        let generated =
            attribute(tr, &snapshot, attr_id, attr, abnormal, normal, params, &mut counts);
        raw.extend(generated);
    }
    counts.predicates = raw.len();
    let predicates = tr.span(Stage::Domain, |_| engine.domain.prune(dataset, raw, params));
    counts.kept = predicates.len();
    let all_causes = tr
        .span(Stage::Rank, |_| {
            engine.repository.try_rank(dataset, abnormal, normal, params, &armed)
        })
        .map_err(|e| e.to_string())?;
    let causes = all_causes.iter().filter(|c| c.confidence >= params.lambda()).cloned().collect();
    Ok((Explanation { predicates, causes, all_causes, interventions: Vec::new() }, counts))
}

/// Algorithm 1 for one attribute, as `core::generate` runs it.
#[allow(clippy::too_many_arguments)]
fn attribute(
    tr: &mut Tracer,
    snapshot: &ColumnarSnapshot<'_>,
    attr_id: usize,
    attr: &AttributeMeta,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
    counts: &mut ExplainCounts,
) -> Option<GeneratedPredicate> {
    let view = snapshot.column(attr_id);
    let space = match attr.kind {
        AttributeKind::Numeric => {
            let range = tr.span(Stage::Snapshot, |_| snapshot.numeric_range(attr_id));
            tr.span(Stage::Partition, |_| {
                PartitionSpace::from_numeric_range(range, params.n_partitions())
            })?
        }
        AttributeKind::Categorical => {
            let dict = view.categorical()?.1;
            tr.span(Stage::Partition, |_| PartitionSpace::from_dictionary(dict))?
        }
    };
    counts.partitions += space.len();
    let labels = tr.span(Stage::Label, |_| label_partitions_view(view, &space, abnormal, normal));
    let (predicate, normalized_diff) = match attr.kind {
        AttributeKind::Numeric => {
            let values = view.numeric()?;
            let filtered = tr.span(Stage::Filter, |_| filter_partitions(&labels));
            let filled = tr.span(Stage::Fill, |_| {
                fill_gaps_view(&filtered, params.delta(), values, &space, normal)
            });
            let d = tr.span(Stage::MeanDiff, |_| {
                let range = snapshot.numeric_range(attr_id)?;
                normalized_mean_difference_view(values, range, abnormal, normal)
            })?;
            if d <= params.theta() {
                return None;
            }
            (tr.span(Stage::Extract, |_| extract_numeric(&attr.name, &space, &filled))?, d)
        }
        AttributeKind::Categorical => {
            let dict = view.categorical()?.1;
            (tr.span(Stage::Extract, |_| extract_categorical_view(&attr.name, dict, &labels))?, 1.0)
        }
    };
    let sp =
        tr.span(Stage::Separation, |_| separation_power_view(&predicate, view, abnormal, normal));
    (sp >= params.min_separation_power()).then_some(GeneratedPredicate {
        predicate,
        separation_power: sp,
        normalized_diff,
    })
}

/// `Sherlock::try_detect(dataset)`, stage by stage.
pub fn detect(
    tr: &mut Tracer,
    params: &SherlockParams,
    dataset: &Dataset,
) -> Result<(Option<Detection>, DetectCounts), String> {
    let armed = params.budget().arm();
    armed.admit(dataset.n_rows(), params.n_partitions()).map_err(|e| e.to_string())?;
    let mut counts = DetectCounts::default();
    let mut selected = Vec::new();
    for attr_id in dataset.schema().ids_of_kind(AttributeKind::Numeric) {
        armed.check("detect").map_err(|e| e.to_string())?;
        let Some(values) = dataset.numeric(attr_id) else { continue };
        let (normalized, pp) = tr.span(Stage::DetectSelect, |_| {
            let normalized = stats::normalize_slice(values);
            let pp = potential_power(&normalized, params.tau());
            (normalized, pp)
        });
        if pp > params.pp_t() {
            selected.push((attr_id, normalized));
        }
    }
    counts.selected_attrs = selected.len();
    if selected.is_empty() {
        return Ok((None, counts));
    }
    let columns: Vec<&[f64]> = selected.iter().map(|(_, col)| col.as_slice()).collect();
    let points = rows_from_columns(&columns);
    counts.points = points.len();
    if points.len() < params.min_pts() {
        return Ok((None, counts));
    }
    let lk = tr.span(Stage::Kdist, |_| {
        let mut lk = Vec::with_capacity(points.len());
        for i in 0..points.len() {
            armed.check("detect").map_err(|e| e.to_string())?;
            lk.push(kdist_of(&points, i, params.min_pts()));
        }
        Ok::<_, String>(lk)
    })?;
    let max_lk = lk.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max_lk <= 0.0 || !max_lk.is_finite() {
        return Ok((None, counts));
    }
    let eps = (max_lk / 4.0).max(2.0 * stats::quantile(&lk, 0.99));
    let clustering = tr.span(Stage::Dbscan, |_| dbscan(&points, eps, params.min_pts()));
    let n = points.len();
    let max_cluster = (params.max_anomaly_fraction() * n as f64) as usize;
    let sizes = clustering.sizes();
    let rows: Vec<usize> = clustering
        .labels
        .iter()
        .enumerate()
        .filter(|(_, label)| matches!(label, Label::Cluster(id) if sizes[*id] < max_cluster))
        .map(|(row, _)| row)
        .collect();
    if rows.is_empty() || rows.len() >= n {
        return Ok((None, counts));
    }
    let detection = Detection {
        region: Region::from_indices(rows),
        selected_attrs: selected.into_iter().map(|(id, _)| id).collect(),
    };
    Ok((Some(detection), counts))
}

/// Bit-for-bit equality of two explanations: predicates (thresholds,
/// separation power, normalized difference) and every cause's confidence
/// compared by `to_bits`.
pub fn same_explanation(a: &Explanation, b: &Explanation) -> bool {
    let same_causes = |x: &[RankedCause], y: &[RankedCause]| {
        x.len() == y.len()
            && x.iter().zip(y).all(|(p, q)| {
                p.cause == q.cause && p.confidence.to_bits() == q.confidence.to_bits()
            })
    };
    a.predicates.len() == b.predicates.len()
        && a.predicates.iter().zip(&b.predicates).all(|(p, q)| {
            p.predicate.attr == q.predicate.attr
                && same_op(&p.predicate.op, &q.predicate.op)
                && p.separation_power.to_bits() == q.separation_power.to_bits()
                && p.normalized_diff.to_bits() == q.normalized_diff.to_bits()
        })
        && same_causes(&a.all_causes, &b.all_causes)
        && same_causes(&a.causes, &b.causes)
}

fn same_op(a: &PredicateOp, b: &PredicateOp) -> bool {
    match (a, b) {
        (PredicateOp::Lt(x), PredicateOp::Lt(y)) | (PredicateOp::Gt(x), PredicateOp::Gt(y)) => {
            x.to_bits() == y.to_bits()
        }
        (PredicateOp::Between(x0, x1), PredicateOp::Between(y0, y1)) => {
            x0.to_bits() == y0.to_bits() && x1.to_bits() == y1.to_bits()
        }
        (PredicateOp::InSet(x), PredicateOp::InSet(y)) => x == y,
        _ => false,
    }
}

/// The stages a replica explain is made of; what is left of `try_explain`
/// after them is the call's own glue.
pub const EXPLAIN_STAGES: [Stage; 10] = [
    Stage::Snapshot,
    Stage::Partition,
    Stage::Label,
    Stage::Filter,
    Stage::Fill,
    Stage::MeanDiff,
    Stage::Extract,
    Stage::Separation,
    Stage::Domain,
    Stage::Rank,
];

/// The traced pass of an explain workload. For `cfg.seconds`, operation `k`
/// explains the case `next(k)` twice, each in a span: first through the
/// public `try_explain`, then through the replica, which must reproduce it
/// bit for bit. Work counts are averaged over the first `count_ops`
/// operations, so a workload that cycles through fixed cases reports the
/// same counts on every run. Returns the explain-stage per-layer metrics
/// and writes the spans.
pub fn trace_explains<'d>(
    cfg: RunConfig,
    sherlock: &Sherlock,
    engine: &Engine<'_>,
    workload: &str,
    count_ops: u64,
    mut next: impl FnMut(u64) -> (&'d Dataset, Region),
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let mut self_ms = Vec::new();
    let mut overhead = Vec::new();
    let mut counts = ExplainCounts::default();
    let mut counted = 0usize;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut k = 0u64;
    while started.elapsed() < budget {
        let (data, abnormal) = next(k);
        tr.begin_op(k);
        let public = tr.span(Stage::TryExplain, |_| sherlock.try_explain(data, &abnormal, None));
        let copy = tr.span(Stage::ReplicaExplain, |tr| explain(tr, engine, data, &abnormal));
        match (public, copy) {
            (Ok(public), Ok((copy, c))) if same_explanation(&public, &copy) => {
                if k < count_ops {
                    counted += 1;
                    counts.attrs += c.attrs;
                    counts.partitions += c.partitions;
                    counts.predicates += c.predicates;
                    counts.kept += c.kept;
                    counts.models += c.models;
                }
            }
            (Err(_), Err(_)) => out.failed += 1,
            _ => return Err(diverged("try_explain", &format!("operation {k}"))),
        }
        let stages: f64 = EXPLAIN_STAGES.iter().map(|&s| tr.op_ms(s)).sum();
        self_ms.push(tr.op_ms(Stage::TryExplain) - stages);
        overhead.push(tr.op_ms(Stage::ReplicaExplain) / tr.op_ms(Stage::TryExplain) - 1.0);
        tr.end_op();
        k += 1;
    }
    out.attempted = k;
    out.correct = out.failed == 0;
    set_explain_stages(&mut out, &tr);
    out.set("core.explain_self_ms", median(&self_ms));
    out.set("bench.trace_overhead_share", median(&overhead));
    let per_op = |total: usize| ratio(total as f64, counted as f64);
    out.set("core.attrs", per_op(counts.attrs));
    out.set("core.partitions", per_op(counts.partitions));
    out.set("core.predicates", per_op(counts.predicates));
    out.set("core.predicates_kept", per_op(counts.kept));
    out.set("core.models", per_op(counts.models));
    out.set("core.yield_share", ratio(counts.predicates as f64, counts.attrs as f64));
    write_spans(&mut out, &tr, workload, cfg.seed)?;
    Ok(out)
}

/// The error a traced pass fails with when a replica and the public call
/// it stands for disagree.
pub fn diverged(call: &str, at: &str) -> String {
    format!(
        "the {call} replica diverged from the public call on {at}; refusing to report stage \
         times of a different program"
    )
}

/// Medians of the explain stages' per-operation totals.
fn set_explain_stages(out: &mut Outcome, tr: &Tracer) {
    for (stage, name) in [
        (Stage::Snapshot, "telemetry.snapshot_ms"),
        (Stage::Partition, "core.partition_ms"),
        (Stage::Label, "core.label_ms"),
        (Stage::Filter, "core.filter_ms"),
        (Stage::Fill, "core.fill_ms"),
        (Stage::MeanDiff, "core.mean_diff_ms"),
        (Stage::Extract, "core.extract_ms"),
        (Stage::Separation, "core.separation_ms"),
        (Stage::Domain, "core.domain_ms"),
        (Stage::Rank, "core.rank_ms"),
    ] {
        out.set(name, median(tr.samples_ms(stage)));
    }
}

/// Write the spans and note where they went.
pub fn write_spans(
    out: &mut Outcome,
    tr: &Tracer,
    workload: &str,
    seed: u64,
) -> Result<(), String> {
    let path = tr.write(&format!("spans-{workload}-seed{seed}.csv"))?;
    out.notes.insert("spans_file".into(), Value::String(path.display().to_string()));
    out.note("spans_not_kept", tr.dropped() as f64);
    Ok(())
}
