//! `corpus`: the paper's interactive use. A closed loop on one thread calls
//! `Sherlock::try_explain` on each of the 110 TPC-C-like corpus datasets in
//! turn, with its ground-truth abnormal region, against ten causal models
//! and the MySQL/Linux domain knowledge. Datasets are small (150–200 rows ×
//! 79 attributes) and R = 250 is at least the row count, so per-partition
//! passes, ranking and fixed per-call costs carry the time.

use std::time::Instant;

use dbsherlock_core::{DomainKnowledge, Explanation, Sherlock};

use crate::host;
use crate::models::{self, Case};
use crate::replica::{self, Engine};
use crate::stats::{closed_loop, Setups, SETUPS_EACH_SIDE};
use crate::{Outcome, RunConfig};

/// p90 over the 110 datasets, each read at the first quartile of its
/// repeats: eleven datasets lie beyond it, the slow tenth of the corpus.
const TAIL: f64 = 0.9;
/// Room for a 30 s run of explains twice as fast as today's ~0.6 ms.
const SAMPLE_CAPACITY: usize = 1 << 17;
/// Share of datasets whose true cause must rank first for the run to
/// count as correct; the models are single-dataset models, so a few
/// classes overlap (see the fig7 experiment).
const MIN_CORRECT_SHARE: f64 = 0.8;

struct State {
    cases: Vec<Case>,
    sherlock: Sherlock,
    domain: DomainKnowledge,
}

fn setup(seed: u64) -> State {
    let params = models::params();
    let cases = models::corpus(seed);
    let domain = DomainKnowledge::mysql_linux();
    let mut sherlock = Sherlock::new(params.clone()).with_domain_knowledge(domain.clone());
    *sherlock.repository_mut() = models::table1_models(seed, &params);
    State { cases, sherlock, domain }
}

/// One untimed pass: warms the caches and fixes each dataset's expected
/// explanation. `correct_share` comes from it, so it is the same on every
/// run of a seed. Returns the references and the share.
fn reference_pass(state: &State) -> (Vec<Option<Explanation>>, f64) {
    let references: Vec<Option<Explanation>> = state
        .cases
        .iter()
        .map(|case| state.sherlock.try_explain(&case.data, &case.abnormal, None).ok())
        .collect();
    let right = references
        .iter()
        .zip(&state.cases)
        .filter(|(reference, case)| {
            reference.as_ref().and_then(|e| e.top_cause()).map(|c| c.cause.as_str())
                == Some(case.truth)
        })
        .count();
    let share = right as f64 / state.cases.len() as f64;
    (references, share)
}

pub fn run(cfg: RunConfig) -> Result<Outcome, String> {
    let mut setups = Setups::default();
    let state = setups.time(SETUPS_EACH_SIDE, || Ok(setup(cfg.seed)))?;
    let (references, correct_share) = reference_pass(&state);
    let n = state.cases.len();
    let mut failed = references.iter().filter(|r| r.is_none()).count() as u64;
    let measured = closed_loop(cfg.seconds, n, SAMPLE_CAPACITY, TAIL, |k| {
        let i = k as usize % n;
        let case = &state.cases[i];
        let started = Instant::now();
        let result = state.sherlock.try_explain(&case.data, &case.abnormal, None);
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
    drop(setups.time(SETUPS_EACH_SIDE, || Ok(setup(cfg.seed)))?);
    let mut out = Outcome {
        attempted: measured.ops,
        failed,
        correct: failed == 0 && correct_share >= MIN_CORRECT_SHARE,
        ..Outcome::default()
    };
    out.set("setup_s", setups.least_disturbed());
    out.set("latency_p50_ms", measured.latency_p50_ms);
    out.set("latency_tail_ms", measured.latency_tail_ms);
    out.set("throughput_per_s", measured.throughput_per_s);
    out.set("correct_share", correct_share);
    out.set("peak_rss_mb", peak_rss_mb);
    out.note("datasets", n as f64);
    out.note("latency_samples", measured.keys as f64);
    out.note("tail_samples", measured.keys as f64);
    out.note("min_repeats_per_sample", measured.min_repeats as f64);
    out.note("tail_percentile", TAIL);
    out.note("setups", setups.count() as f64);
    Ok(out)
}

/// The traced pass: the corpus loop through the public call and its
/// replica, which must agree on every dataset.
pub fn trace(cfg: RunConfig) -> Result<Outcome, String> {
    let state = setup(cfg.seed);
    let (_, correct_share) = reference_pass(&state);
    let engine = Engine {
        params: state.sherlock.params(),
        domain: &state.domain,
        repository: state.sherlock.repository(),
    };
    let cases = &state.cases;
    let n = cases.len();
    let mut out =
        replica::trace_explains(cfg, &state.sherlock, &engine, "corpus", n as u64, |k| {
            let case = &cases[k as usize % n];
            (&case.data, case.abnormal.clone())
        })?;
    out.correct &= correct_share >= MIN_CORRECT_SHARE;
    Ok(out)
}
