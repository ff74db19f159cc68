//! `wide`: row-level kernels. A closed loop on one thread calls
//! `Sherlock::try_explain` on one dataset of 40k rows × 128 numeric
//! attributes plus one categorical, so its columns exceed a 32 MiB L3 and
//! per-call costs vanish. The dataset carries eight planted level shifts,
//! one per cause, each on its own eight attributes; eight causal models
//! hold the planted truth. The loop goes round 50 seeded regions, each a
//! shift (in turn) padded by a seeded few rows on either side, so no two
//! consecutive operations repeat a region or a shift.

use std::collections::BTreeSet;
use std::ops::Range;
use std::time::Instant;

use dbsherlock_core::{
    CausalModel, DomainKnowledge, Explanation, ModelRepository, Predicate, Sherlock,
};
use dbsherlock_telemetry::{AttributeMeta, Dataset, Region, Schema, Value};

use crate::host;
use crate::models;
use crate::replica::{self, Engine};
use crate::rng::Rng;
use crate::stats::{closed_loop, Setups, SETUPS_EACH_SIDE};
use crate::{Outcome, RunConfig};

const ROWS: usize = 40_000;
const NUMERIC: usize = 128;
const CAUSES: usize = 8;
const ATTRS_PER_CAUSE: usize = 8;
/// Baseline rows an operation's region may take in on either side of its
/// shift.
const MAX_PAD: usize = 16;
/// Shift size in units of the baseline noise half-width.
const SHIFT: f64 = 5.0;
/// Regions the loop goes round: a 30 s run explains each about ten times.
const REGIONS: usize = 50;
/// p80 over the regions, each read at the first quartile of its repeats:
/// ten regions lie beyond it.
const TAIL: f64 = 0.8;
const SAMPLE_CAPACITY: usize = 1 << 14;
const LABELS: [&str; 4] = ["idle", "oltp", "batch", "report"];

struct Shift {
    cause: String,
    rows: Range<usize>,
    attrs: BTreeSet<String>,
}

struct State {
    data: Dataset,
    shifts: Vec<Shift>,
    sherlock: Sherlock,
    domain: DomainKnowledge,
}

/// One operation's input: a shift, and the region it is explained
/// through.
struct Op {
    shift: usize,
    region: Region,
}

fn setup(seed: u64) -> Result<State, String> {
    let mut rng = Rng::derive(seed, 1);
    let mut attrs: Vec<AttributeMeta> =
        (0..NUMERIC).map(|a| AttributeMeta::numeric(format!("w{a:03}"))).collect();
    attrs.push(AttributeMeta::categorical("mode"));
    let schema = Schema::from_attrs(attrs).map_err(|e| e.to_string())?;
    let mut data = Dataset::new(schema);
    let labels: Vec<Value> = LABELS
        .iter()
        .map(|l| data.intern(NUMERIC, l))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    let base: Vec<f64> = (0..NUMERIC).map(|_| 10.0 + 990.0 * rng.unit()).collect();
    let noise: Vec<f64> = base.iter().map(|b| 0.05 * b).collect();
    let mut order: Vec<usize> = (0..NUMERIC).collect();
    for i in (1..NUMERIC).rev() {
        order.swap(i, rng.range(0, i + 1));
    }
    // Per attribute: the shift it carries, as (cause, signed offset).
    let mut shifted: Vec<Option<(usize, f64)>> = vec![None; NUMERIC];
    let slot = ROWS / CAUSES;
    let mut shifts = Vec::new();
    let mut repository = ModelRepository::new();
    for cause in 0..CAUSES {
        let len = rng.range(300, 601);
        let start = slot * cause + rng.range(MAX_PAD + 200, slot - len - MAX_PAD - 200);
        let mut names = BTreeSet::new();
        let mut predicates = Vec::new();
        for &a in &order[cause * ATTRS_PER_CAUSE..(cause + 1) * ATTRS_PER_CAUSE] {
            let up = rng.next_u64() & 1 == 1;
            let offset = if up { SHIFT } else { -SHIFT } * 2.0 * noise[a];
            shifted[a] = Some((cause, offset));
            let name = format!("w{a:03}");
            let cut = base[a] + offset / 2.0;
            predicates.push(if up { Predicate::gt(&name, cut) } else { Predicate::lt(&name, cut) });
            names.insert(name);
        }
        let cause_name = format!("planted-{cause}");
        repository.add(CausalModel { cause: cause_name.clone(), predicates, merged_from: 1 });
        shifts.push(Shift { cause: cause_name, rows: start..start + len, attrs: names });
    }

    let mut row = Vec::with_capacity(NUMERIC + 1);
    for r in 0..ROWS {
        row.clear();
        for a in 0..NUMERIC {
            // Bell-shaped noise in (-1, 1) half-widths: the sum of three
            // uniforms, centred.
            let bell = (rng.unit() + rng.unit() + rng.unit()) / 1.5 - 1.0;
            let mut v = base[a] + noise[a] * bell;
            if let Some((cause, offset)) = shifted[a] {
                if shifts[cause].rows.contains(&r) {
                    v += offset;
                }
            }
            row.push(Value::Num(v));
        }
        row.push(labels[rng.range(0, labels.len())]);
        data.push_row(r as f64, &row).map_err(|e| e.to_string())?;
    }
    let domain = DomainKnowledge::none();
    let mut sherlock = Sherlock::new(models::params()).with_domain_knowledge(domain.clone());
    *sherlock.repository_mut() = repository;
    Ok(State { data, shifts, sherlock, domain })
}

/// The seeded regions the loop goes round: region `k` explains shift
/// `k % CAUSES` through its rows padded by a seeded few baseline rows on
/// either side.
fn ops(seed: u64, shifts: &[Shift]) -> Vec<Op> {
    let mut rng = Rng::derive(seed, 2);
    (0..REGIONS)
        .map(|k| {
            let shift = k % shifts.len();
            let rows = &shifts[shift].rows;
            let before = rng.range(0, MAX_PAD);
            let after = rng.range(0, MAX_PAD);
            Op { shift, region: Region::from_range(rows.start - before..rows.end + after) }
        })
        .collect()
}

/// Predicates on exactly the shift's planted attributes, and its cause
/// ranked first.
fn is_correct(explanation: &Explanation, shift: &Shift) -> bool {
    let attrs: BTreeSet<String> =
        explanation.predicates.iter().map(|g| g.predicate.attr.clone()).collect();
    attrs == shift.attrs && explanation.top_cause().map(|c| &c.cause) == Some(&shift.cause)
}

pub fn run(cfg: RunConfig) -> Result<Outcome, String> {
    let mut setups = Setups::default();
    let state = setups.time(SETUPS_EACH_SIDE, || setup(cfg.seed))?;
    let ops = ops(cfg.seed, &state.shifts);
    let (references, right) = reference_pass(&state, &ops);
    let mut failed = references.iter().filter(|r| r.is_none()).count() as u64;
    let measured = closed_loop(cfg.seconds, ops.len(), SAMPLE_CAPACITY, TAIL, |k| {
        let i = k as usize % ops.len();
        let started = Instant::now();
        let result = state.sherlock.try_explain(&state.data, &ops[i].region, None);
        let latency = started.elapsed();
        let reproduced = match (&result, &references[i]) {
            (Ok(e), Some(reference)) => replica::same_explanation(e, reference),
            _ => false,
        };
        if !reproduced {
            failed += 1;
        }
        latency
    });
    let peak_rss_mb = host::peak_rss_mb()?;
    drop(state);
    drop(setups.time(SETUPS_EACH_SIDE, || setup(cfg.seed))?);
    let mut out = Outcome {
        attempted: measured.ops,
        failed,
        correct: failed == 0 && right == ops.len(),
        ..Outcome::default()
    };
    out.set("setup_s", setups.least_disturbed());
    out.set("latency_p50_ms", measured.latency_p50_ms);
    out.set("latency_tail_ms", measured.latency_tail_ms);
    out.set("throughput_per_s", measured.throughput_per_s);
    out.set("correct_share", right as f64 / ops.len() as f64);
    out.set("peak_rss_mb", peak_rss_mb);
    out.note("rows", ROWS as f64);
    out.note("attributes", (NUMERIC + 1) as f64);
    out.note("latency_samples", measured.keys as f64);
    out.note("tail_samples", measured.keys as f64);
    out.note("min_repeats_per_sample", measured.min_repeats as f64);
    out.note("tail_percentile", TAIL);
    out.note("setups", setups.count() as f64);
    Ok(out)
}

/// One untimed explain per region: warms the caches and fixes each
/// region's expected explanation. Returns the references and how many are
/// correct, so `correct_share` is the same on every run of a seed.
fn reference_pass(state: &State, ops: &[Op]) -> (Vec<Option<Explanation>>, usize) {
    let references: Vec<Option<Explanation>> = ops
        .iter()
        .map(|op| state.sherlock.try_explain(&state.data, &op.region, None).ok())
        .collect();
    let right = references
        .iter()
        .zip(ops)
        .filter(|(reference, op)| {
            reference.as_ref().is_some_and(|e| is_correct(e, &state.shifts[op.shift]))
        })
        .count();
    (references, right)
}

/// The traced pass: the seeded regions through the public call and its
/// replica, which must agree on every operation.
pub fn trace(cfg: RunConfig) -> Result<Outcome, String> {
    let state = setup(cfg.seed)?;
    let ops = ops(cfg.seed, &state.shifts);
    let (_, right) = reference_pass(&state, &ops);
    let engine = Engine {
        params: state.sherlock.params(),
        domain: &state.domain,
        repository: state.sherlock.repository(),
    };
    let data = &state.data;
    let n = ops.len();
    let mut out = replica::trace_explains(cfg, &state.sherlock, &engine, "wide", n as u64, |k| {
        (data, ops[k as usize % n].region.clone())
    })?;
    out.correct &= right == n;
    Ok(out)
}
