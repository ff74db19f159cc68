//! Interventional validation of ranked explanations (chaos-driven causal
//! checking, after PerfCE).
//!
//! DBSherlock's causal models are **correlational**: a model's confidence
//! (Eq. 3) says its predicates separate the user's abnormal region from the
//! normal one, not that the named cause *produces* that symptom. This
//! module closes the loop: for each top-ranked candidate cause it asks a
//! simulator-backed [`InterventionRunner`] to **re-inject that fault** and
//! checks whether the *observed* symptom signature reproduces under the
//! intervention.
//!
//! The symptom signature is the explanation's own generated predicates,
//! frozen into a throwaway [`CausalModel`]. Each trial re-runs one candidate
//! fault from a recorded seed and scores that model on the re-run's
//! abnormal/normal split; a no-fault **control** run is scored the same way,
//! and a candidate's confidence is the mean fault-minus-control margin. Only
//! the true cause recreates the observed signature — a wrong candidate's
//! fault moves *different* attributes, so the symptom model's separation
//! collapses to the control level and the candidate is not `reproduced`.
//!
//! Robustness contract (the reason this lives behind the §9 machinery):
//!
//! * every trial runs in its own [`try_par_map_indexed`] slot — a panicking
//!   runner or scorer poisons one trial, never the validation pass;
//! * transient runner failures are retried a **bounded** number of times
//!   ([`InterventionConfig::max_attempts`]), polling the armed
//!   [`DiagnosisBudget`] before every attempt so a blown deadline or raised
//!   [`CancelFlag`](crate::CancelFlag) stops the pass cooperatively;
//! * verdicts are **always populated** for every selected candidate —
//!   failed or out-of-budget trials yield `reproduced: false`, never a
//!   missing entry.

use dbsherlock_telemetry::{splitmix64, Dataset, Region};

use crate::budget::DiagnosisBudget;
use crate::causal::CausalModel;
use crate::diagnose::Explanation;
use crate::error::SherlockError;
use crate::exec::{try_par_map_indexed, ExecPolicy};
use crate::params::SherlockParams;
use crate::store::fnv1a64;

/// Cause label of the throwaway symptom-signature model. Never stored in a
/// repository; spelled so no real cause collides with it.
pub const SYMPTOM_MODEL_CAUSE: &str = "__intervention::observed_symptom__";

/// The outcome of interventionally validating one candidate cause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterventionVerdict {
    /// The injected fault recreated the observed symptom signature.
    pub reproduced: bool,
    /// Trials attempted for this candidate (failed ones included).
    pub trials: u32,
    /// Mean fault-minus-control margin of the symptom model's separation
    /// score, clamped to `[-1, 1]`. Values near `+1` mean the re-injected
    /// fault reproduces the symptom as cleanly as the original incident;
    /// values near `0` mean the fault is indistinguishable from the
    /// no-fault control.
    pub confidence: f64,
}

/// A candidate cause with its verdict and the seed its trials derive from
/// (trial `t` runs on [`trial_seed`]`(seed, t)` — re-running from the
/// recorded seed reproduces every trial bit-for-bit).
#[derive(Debug, Clone, PartialEq)]
pub struct CauseVerdict {
    /// The candidate cause, as ranked in the explanation.
    pub cause: String,
    /// What the intervention concluded.
    pub verdict: InterventionVerdict,
    /// Base seed of this candidate's trial sequence.
    pub seed: u64,
}

/// One scenario re-run under an injected (or absent) fault: the merged
/// telemetry plus the ground-truth abnormal/normal split of the re-run.
#[derive(Debug, Clone)]
pub struct TrialRun {
    /// The re-run's telemetry.
    pub data: Dataset,
    /// Where the injected fault was active (for a control run: where it
    /// *would* have been).
    pub abnormal: Region,
    /// The re-run's normal region.
    pub normal: Region,
}

/// Re-runs scenarios with injected faults on behalf of the intervention
/// engine. Implemented by the simulator crate ([`Sync`] because trials fan
/// out across the exec layer's threads).
pub trait InterventionRunner: Sync {
    /// Can this runner inject the fault `cause` names? Candidates it cannot
    /// inject are skipped (no verdict — nothing was tested).
    fn can_inject(&self, cause: &str) -> bool;

    /// Re-run the scenario with the fault `cause` names injected, seeded by
    /// `seed`. Must be deterministic in `seed`.
    fn inject(&self, cause: &str, seed: u64) -> Result<TrialRun, SherlockError>;

    /// A no-fault control run, seeded by `seed`, with the same regions a
    /// fault run would have. Must be deterministic in `seed`.
    fn control(&self, seed: u64) -> Result<TrialRun, SherlockError>;
}

/// Knobs of one validation pass.
#[derive(Debug, Clone)]
pub struct InterventionConfig {
    /// Trials per candidate (and control runs for the pass).
    pub trials: u32,
    /// Bounded retry budget per trial: a trial gives up after this many
    /// runner failures (each retry re-derives its seed, so a deterministic
    /// failure is not retried into the ground).
    pub max_attempts: u32,
    /// How many of the top-ranked injectable candidates to validate.
    pub top_k: usize,
    /// A candidate is `reproduced` when its mean fault-minus-control margin
    /// reaches this threshold.
    pub reproduce_margin: f64,
    /// Reorder the explanation's cause lists so reproduced candidates rank
    /// first (see [`validate_explanation`] for the exact rule).
    pub promote: bool,
    /// Base seed of the pass; all trial seeds derive from it.
    pub base_seed: u64,
    /// Thread budget for the trial fan-out (order-independent: verdicts are
    /// bit-identical under any policy).
    pub exec: ExecPolicy,
    /// Budget for the whole pass; checked before every trial attempt.
    pub budget: DiagnosisBudget,
}

impl Default for InterventionConfig {
    fn default() -> Self {
        InterventionConfig {
            trials: 3,
            max_attempts: 3,
            top_k: 3,
            reproduce_margin: 0.25,
            promote: true,
            base_seed: 0x1B7E_57A9,
            exec: ExecPolicy::Auto,
            budget: DiagnosisBudget::unlimited(),
        }
    }
}

/// Bookkeeping of one validation pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterventionReport {
    /// Candidates selected for validation (verdicts attached).
    pub candidates: usize,
    /// Total trial slots run (controls included).
    pub trials_run: u32,
    /// Trials that exhausted their attempts (or hit the budget) and were
    /// scored as not-reproducing.
    pub trial_failures: u32,
    /// Trials whose slot caught a panic (runner or scorer) — isolated, not
    /// escaped.
    pub panics_isolated: u32,
    /// Successful-after-retry attempts beyond the first, summed.
    pub retries: u32,
}

/// The seed of trial `t` in a candidate's sequence (attempt 0; retries
/// derive further with [`attempt_seed`]).
pub fn trial_seed(candidate_seed: u64, trial: u32) -> u64 {
    splitmix64(candidate_seed.wrapping_add(trial as u64 + 1))
}

/// The seed of retry `attempt` (0-based) of a trial: attempt 0 uses the
/// trial seed itself, so a clean pass is reproducible from the recorded
/// seed; later attempts re-derive so a seed-deterministic failure is not
/// repeated verbatim.
pub fn attempt_seed(trial_seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        trial_seed
    } else {
        splitmix64(trial_seed ^ ((attempt as u64) << 32))
    }
}

/// One slot of the trial fan-out.
struct TrialSpec {
    /// `None` = control run.
    cause: Option<String>,
    /// Trial seed (attempt 0).
    seed: u64,
}

/// Interventionally validate `explanation` against `runner`.
///
/// Selects the `top_k` highest-ranked causes the runner can inject, runs
/// `trials` fault re-runs per candidate plus `trials` no-fault controls (all
/// trial slots fan out together over `cfg.exec` with per-slot panic
/// isolation), scores each re-run with the explanation's own predicate
/// signature, and attaches one [`CauseVerdict`] per candidate to
/// `explanation.interventions`.
///
/// With `cfg.promote`, reproduced candidates are then promoted in the
/// explanation's ranking: `all_causes` is stably reordered so reproduced
/// causes come first (confidence order preserved within each group), and
/// `causes` is rebuilt as the reproduced causes followed by the previously
/// λ-cleared, non-reproduced ones — an interventionally validated cause
/// outranks the λ gate, because reproduction under injection is stronger
/// evidence than correlational confidence.
///
/// Never fails on trial-level trouble: runner errors, blown budgets, and
/// panics degrade to not-reproduced verdicts (the report counts them).
pub fn validate_explanation(
    explanation: &mut Explanation,
    runner: &dyn InterventionRunner,
    params: &SherlockParams,
    cfg: &InterventionConfig,
) -> InterventionReport {
    explanation.interventions.clear();
    let mut report = InterventionReport::default();
    if explanation.predicates.is_empty() || cfg.trials == 0 {
        // No symptom signature to reproduce (or nothing to run).
        return report;
    }
    let symptom = CausalModel::from_feedback(SYMPTOM_MODEL_CAUSE, &explanation.predicates);

    let candidates: Vec<(String, u64)> = explanation
        .all_causes
        .iter()
        .filter(|c| runner.can_inject(&c.cause) || is_chaos_cause(&c.cause))
        .take(cfg.top_k)
        .map(|c| (c.cause.clone(), splitmix64(cfg.base_seed ^ fnv1a64(&[c.cause.as_bytes()]))))
        .collect();
    report.candidates = candidates.len();
    if candidates.is_empty() {
        return report;
    }

    // Controls first, then each candidate's trials, flattened into one
    // fan-out so every slot gets its own panic-isolation boundary.
    let control_seed = splitmix64(cfg.base_seed ^ 0x0C04_7801);
    let mut specs: Vec<TrialSpec> = (0..cfg.trials)
        .map(|t| TrialSpec { cause: None, seed: trial_seed(control_seed, t) })
        .collect();
    for (cause, cand_seed) in &candidates {
        for t in 0..cfg.trials {
            specs.push(TrialSpec { cause: Some(cause.clone()), seed: trial_seed(*cand_seed, t) });
        }
    }

    let armed = cfg.budget.arm();
    // Each slot: bounded retries around the runner, then one score of the
    // symptom model on the re-run. Returns (separation score, retries used).
    let results = try_par_map_indexed(cfg.exec, "intervene", &specs, |_, spec| {
        #[cfg(any(test, feature = "chaos"))]
        #[allow(clippy::panic, reason = "deliberate chaos tripwire (see chaos module docs)")]
        if spec.cause.as_deref() == Some(crate::chaos::PANIC_INTERVENTION) {
            panic!("chaos: deliberate panic injecting {:?}", crate::chaos::PANIC_INTERVENTION);
        }
        let mut last_err = SherlockError::EmptyInput("intervention trial");
        for attempt in 0..cfg.max_attempts.max(1) {
            armed.check("intervene")?;
            let seed = attempt_seed(spec.seed, attempt);
            let run = match &spec.cause {
                Some(cause) => runner.inject(cause, seed),
                None => runner.control(seed),
            };
            match run {
                Ok(run) => {
                    let n = run.data.n_rows();
                    if n == 0 {
                        return Err(SherlockError::EmptyInput("intervention trial dataset"));
                    }
                    let abnormal = run.abnormal.clip(n);
                    let normal = run.normal.clip(n);
                    if abnormal.is_empty() {
                        return Err(SherlockError::EmptyRegion { what: "abnormal", n_rows: n });
                    }
                    if normal.is_empty() {
                        return Err(SherlockError::EmptyRegion { what: "normal", n_rows: n });
                    }
                    let score = symptom.confidence(&run.data, &abnormal, &normal, params);
                    return Ok((score, attempt));
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    });

    report.trials_run = results.len() as u32;
    for r in &results {
        match r {
            Ok((_, retries)) => report.retries += *retries,
            Err(SherlockError::TaskPanicked { .. }) => {
                report.panics_isolated += 1;
                report.trial_failures += 1;
            }
            Err(_) => report.trial_failures += 1,
        }
    }

    // Control baseline: the symptom model's score on no-fault re-runs.
    let control_scores: Vec<f64> = results
        .iter()
        .take(cfg.trials as usize)
        .filter_map(|r| r.as_ref().ok())
        .map(|&(s, _)| s)
        .collect();
    let control_mean = if control_scores.is_empty() {
        0.0
    } else {
        control_scores.iter().sum::<f64>() / control_scores.len() as f64
    };

    for (ci, (cause, cand_seed)) in candidates.iter().enumerate() {
        let lo = (1 + ci) * cfg.trials as usize;
        let scores: Vec<f64> = results
            .iter()
            .skip(lo)
            .take(cfg.trials as usize)
            .filter_map(|r| r.as_ref().ok())
            .map(|&(s, _)| s)
            .collect();
        let (reproduced, confidence) = if scores.is_empty() {
            (false, 0.0)
        } else {
            let margin = scores.iter().sum::<f64>() / scores.len() as f64 - control_mean;
            let confidence = margin.clamp(-1.0, 1.0);
            (confidence >= cfg.reproduce_margin, confidence)
        };
        explanation.interventions.push(CauseVerdict {
            cause: cause.clone(),
            verdict: InterventionVerdict { reproduced, trials: cfg.trials, confidence },
            seed: *cand_seed,
        });
    }

    if cfg.promote {
        promote(explanation);
    }
    report
}

/// True for the chaos tripwire cause in chaos-enabled builds (lets the
/// bench plant a deliberately panicking candidate without teaching real
/// runners about it); always false in production builds.
fn is_chaos_cause(cause: &str) -> bool {
    #[cfg(any(test, feature = "chaos"))]
    {
        cause == crate::chaos::PANIC_INTERVENTION
    }
    #[cfg(not(any(test, feature = "chaos")))]
    {
        let _ = cause;
        false
    }
}

/// Stable promotion: reproduced causes first in `all_causes`; `causes`
/// rebuilt as reproduced causes (in promoted order) plus the previously
/// λ-cleared non-reproduced ones (original order).
fn promote(explanation: &mut Explanation) {
    let reproduced: Vec<String> = explanation
        .interventions
        .iter()
        .filter(|v| v.verdict.reproduced)
        .map(|v| v.cause.clone())
        .collect();
    let mut promoted = Vec::with_capacity(explanation.all_causes.len());
    let mut rest = Vec::new();
    for c in explanation.all_causes.drain(..) {
        if reproduced.contains(&c.cause) {
            promoted.push(c);
        } else {
            rest.push(c);
        }
    }
    let mut causes = promoted.clone();
    causes.extend(explanation.causes.drain(..).filter(|c| !reproduced.contains(&c.cause)));
    promoted.extend(rest);
    explanation.all_causes = promoted;
    explanation.causes = causes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;

    use dbsherlock_telemetry::{AttributeMeta, Schema, Value};

    use crate::causal::CausalModel;
    use crate::diagnose::Sherlock;
    use crate::predicate::Predicate;

    /// A dataset whose `signal` attribute jumps in rows 30..45 iff `jump`;
    /// deterministic in `seed`.
    fn trial_dataset(jump: bool, seed: u64) -> TrialRun {
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("signal"),
            AttributeMeta::numeric("steady"),
        ])
        .unwrap();
        let mut d = Dataset::new(schema);
        for i in 0..80u64 {
            let abnormal = (30..45).contains(&i);
            let wobble = (splitmix64(seed ^ i) % 97) as f64 / 97.0;
            let base = if abnormal && jump { 80.0 + wobble * 4.0 } else { 5.0 + wobble * 5.0 };
            d.push_row(i as f64, &[Value::Num(base), Value::Num(40.0 + wobble)]).unwrap();
        }
        TrialRun {
            data: d,
            abnormal: Region::from_range(30..45),
            normal: Region::from_range(30..45).complement(80),
        }
    }

    /// Runner that reproduces the symptom only for the causes in
    /// `reproducing`; optionally fails the first `flaky_failures` calls of
    /// every (cause, trial).
    struct MockRunner {
        injectable: Vec<&'static str>,
        reproducing: Vec<&'static str>,
        flaky_failures: u32,
        calls: Mutex<HashMap<u64, u32>>,
    }

    impl MockRunner {
        fn new(injectable: &[&'static str], reproducing: &[&'static str]) -> Self {
            MockRunner {
                injectable: injectable.to_vec(),
                reproducing: reproducing.to_vec(),
                flaky_failures: 0,
                calls: Mutex::new(HashMap::new()),
            }
        }

        fn flaky(mut self, failures: u32) -> Self {
            self.flaky_failures = failures;
            self
        }

        fn maybe_fail(&self, key: u64) -> Result<(), SherlockError> {
            let mut calls = self.calls.lock().unwrap();
            let seen = calls.entry(key).or_insert(0);
            *seen += 1;
            if *seen <= self.flaky_failures {
                return Err(SherlockError::EmptyInput("transient runner failure"));
            }
            Ok(())
        }
    }

    impl InterventionRunner for MockRunner {
        fn can_inject(&self, cause: &str) -> bool {
            self.injectable.contains(&cause)
        }

        fn inject(&self, cause: &str, seed: u64) -> Result<TrialRun, SherlockError> {
            self.maybe_fail(fnv1a64(&[cause.as_bytes()]))?;
            Ok(trial_dataset(self.reproducing.contains(&cause), seed))
        }

        fn control(&self, seed: u64) -> Result<TrialRun, SherlockError> {
            Ok(trial_dataset(false, seed))
        }
    }

    /// An explanation of the `jump` symptom with two stored candidates:
    /// `alpha` ranked first, `zeta` second (both fit correlationally).
    fn explained() -> (Sherlock, Explanation) {
        let incident = trial_dataset(true, 0xA0);
        let mut sherlock = Sherlock::new(SherlockParams::default());
        let first = sherlock.explain(&incident.data, &incident.abnormal, None);
        assert!(!first.predicates.is_empty());
        sherlock.feedback("alpha", &first.predicates);
        sherlock.repository_mut().add(CausalModel {
            cause: "zeta".into(),
            predicates: vec![Predicate::gt("signal", 40.0)],
            merged_from: 1,
        });
        let explanation = sherlock.explain(&incident.data, &incident.abnormal, None);
        assert_eq!(explanation.all_causes.len(), 2);
        assert_eq!(explanation.all_causes[0].cause, "alpha");
        (sherlock, explanation)
    }

    #[test]
    fn true_cause_reproduces_and_wrong_one_does_not() {
        let (sherlock, mut explanation) = explained();
        // Interventionally, only `zeta`'s fault recreates the jump.
        let runner = MockRunner::new(&["alpha", "zeta"], &["zeta"]);
        let cfg = InterventionConfig::default();
        let report = validate_explanation(&mut explanation, &runner, sherlock.params(), &cfg);
        assert_eq!(report.candidates, 2);
        assert_eq!(report.trials_run, 3 * cfg.trials);
        assert_eq!(report.trial_failures, 0);
        assert_eq!(report.panics_isolated, 0);

        assert_eq!(explanation.interventions.len(), 2);
        let alpha = explanation.interventions.iter().find(|v| v.cause == "alpha").unwrap();
        let zeta = explanation.interventions.iter().find(|v| v.cause == "zeta").unwrap();
        assert!(zeta.verdict.reproduced, "true cause must reproduce: {zeta:?}");
        assert!(!alpha.verdict.reproduced, "wrong cause must not: {alpha:?}");
        assert!(zeta.verdict.confidence > alpha.verdict.confidence);
        assert_eq!(zeta.verdict.trials, cfg.trials);

        // Promotion: the validated cause overtakes the correlational top-1.
        assert_eq!(explanation.all_causes[0].cause, "zeta");
        assert_eq!(explanation.causes[0].cause, "zeta");
    }

    #[test]
    fn verdicts_are_deterministic_and_reproducible_from_recorded_seeds() {
        let (sherlock, mut a) = explained();
        let mut b = a.clone();
        let runner = MockRunner::new(&["alpha", "zeta"], &["zeta"]);
        let cfg = InterventionConfig { exec: ExecPolicy::Serial, ..Default::default() };
        let threaded = InterventionConfig { exec: ExecPolicy::Threads(4), ..cfg.clone() };
        validate_explanation(&mut a, &runner, sherlock.params(), &cfg);
        validate_explanation(&mut b, &runner, sherlock.params(), &threaded);
        assert_eq!(a.interventions, b.interventions, "exec policy must not change verdicts");

        // Re-running one recorded trial reproduces the same telemetry.
        let zeta = a.interventions.iter().find(|v| v.cause == "zeta").unwrap();
        let s0 = trial_seed(zeta.seed, 0);
        let once = runner.inject("zeta", attempt_seed(s0, 0)).unwrap();
        let again = runner.inject("zeta", attempt_seed(s0, 0)).unwrap();
        assert_eq!(once.data.numeric(0).unwrap(), again.data.numeric(0).unwrap());
    }

    #[test]
    fn transient_failures_are_retried_within_the_bound() {
        let (sherlock, mut explanation) = explained();
        // Two failures per cause, three attempts allowed: recovery.
        let runner = MockRunner::new(&["alpha", "zeta"], &["zeta"]).flaky(2);
        let cfg = InterventionConfig { trials: 1, ..Default::default() };
        let report = validate_explanation(&mut explanation, &runner, sherlock.params(), &cfg);
        assert_eq!(report.trial_failures, 0, "{report:?}");
        assert!(report.retries >= 2, "{report:?}");
        assert!(explanation.interventions.iter().any(|v| v.verdict.reproduced));
    }

    #[test]
    fn exhausted_retries_degrade_to_populated_unreproduced_verdicts() {
        let (sherlock, mut explanation) = explained();
        // More failures than attempts: every trial of both causes fails.
        let runner = MockRunner::new(&["alpha", "zeta"], &["zeta"]).flaky(99);
        let cfg = InterventionConfig { trials: 2, ..Default::default() };
        let report = validate_explanation(&mut explanation, &runner, sherlock.params(), &cfg);
        // Controls never fail (the mock's flakiness is inject-only):
        // 2 candidates × 2 trials exhaust their attempts.
        assert_eq!(report.trial_failures, 4);
        assert_eq!(explanation.interventions.len(), 2, "verdicts still populated");
        assert!(explanation.interventions.iter().all(|v| !v.verdict.reproduced));
        assert!(explanation.interventions.iter().all(|v| v.verdict.trials == 2));
    }

    #[test]
    fn blown_budget_degrades_cooperatively() {
        let (sherlock, mut explanation) = explained();
        let runner = MockRunner::new(&["alpha", "zeta"], &["zeta"]);
        let cfg = InterventionConfig {
            budget: DiagnosisBudget::unlimited().with_deadline_ms(0),
            ..Default::default()
        };
        let report = validate_explanation(&mut explanation, &runner, sherlock.params(), &cfg);
        assert_eq!(report.trial_failures, report.trials_run);
        assert_eq!(explanation.interventions.len(), 2, "verdicts populated even over budget");
        assert!(explanation.interventions.iter().all(|v| !v.verdict.reproduced));
    }

    #[test]
    fn panicking_candidate_is_isolated_to_its_own_trials() {
        let (mut sherlock, _) = explained();
        sherlock.repository_mut().add(CausalModel {
            cause: crate::chaos::PANIC_INTERVENTION.into(),
            predicates: vec![Predicate::gt("signal", 40.0)],
            merged_from: 1,
        });
        let incident = trial_dataset(true, 0xA0);
        let mut explanation = sherlock.explain(&incident.data, &incident.abnormal, None);
        let runner = MockRunner::new(&["alpha", "zeta"], &["zeta"]);
        let cfg = InterventionConfig::default();
        let report = crate::chaos::quiet_panics(|| {
            validate_explanation(&mut explanation, &runner, sherlock.params(), &cfg)
        });
        assert_eq!(report.candidates, 3);
        assert_eq!(report.panics_isolated, cfg.trials, "{report:?}");
        let chaos = explanation
            .interventions
            .iter()
            .find(|v| v.cause == crate::chaos::PANIC_INTERVENTION)
            .expect("verdict populated for the panicking candidate");
        assert!(!chaos.verdict.reproduced);
        // The healthy candidate's verdict is untouched.
        assert!(explanation
            .interventions
            .iter()
            .any(|v| v.cause == "zeta" && v.verdict.reproduced));
    }

    #[test]
    fn no_predicates_means_no_verdicts() {
        let (sherlock, mut explanation) = explained();
        explanation.predicates.clear();
        let runner = MockRunner::new(&["alpha"], &["alpha"]);
        let report = validate_explanation(
            &mut explanation,
            &runner,
            sherlock.params(),
            &InterventionConfig::default(),
        );
        assert_eq!(report, InterventionReport::default());
        assert!(explanation.interventions.is_empty());
    }

    #[test]
    fn uninjectable_causes_are_skipped_not_failed() {
        let (sherlock, mut explanation) = explained();
        let runner = MockRunner::new(&["zeta"], &["zeta"]);
        let report = validate_explanation(
            &mut explanation,
            &runner,
            sherlock.params(),
            &InterventionConfig::default(),
        );
        assert_eq!(report.candidates, 1);
        assert_eq!(explanation.interventions.len(), 1);
        assert_eq!(explanation.interventions[0].cause, "zeta");
    }
}
