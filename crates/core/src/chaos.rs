//! Chaos hooks for torturing the diagnosis pipeline itself.
//!
//! The telemetry layer's fault injector (PR 1) proves the engine survives
//! corrupted *input*; this module proves it survives corrupted *code paths*.
//! The crash-torture harness (`table5c_crash_recovery`) and the panic-
//! isolation tests need a way to make a real pipeline stage panic on demand
//! — not a mock, the actual model scorer on the actual thread pool — so the
//! per-slot `catch_unwind` boundary in [`crate::exec::try_par_map_indexed`]
//! is exercised exactly where a latent bug would detonate in production.
//!
//! Two in-band triggers, both spelled so no real workload collides with
//! them:
//!
//! * a causal model whose cause label is [`PANIC_CAUSE`] panics when scored;
//! * any model panics when scored against a dataset carrying an attribute
//!   named [`PANIC_ATTR`] (poisons one *case* of a batch rather than one
//!   model).
//!
//! The tripwire only exists in builds with the `chaos` cargo feature (or in
//! this crate's own unit tests). The feature is enabled by the bench
//! harness and the workspace test suites — never by the CLI or any other
//! production consumer — so release builds carry no input-triggerable
//! `panic!` and pay no per-score schema lookup on the ranking hot path: an
//! adversarial CSV whose column happens to be named [`PANIC_ATTR`] is just
//! another attribute there. The tripwire is deliberate, documented behavior
//! — the diagnosis-pipeline analogue of `FaultPlan` — and is the only
//! sanctioned `panic!` in this crate's library code.

#[cfg(any(test, feature = "chaos"))]
use dbsherlock_telemetry::Dataset;

/// Cause label that makes [`CausalModel::confidence`](crate::CausalModel)
/// panic deliberately (in `chaos`-feature builds).
pub const PANIC_CAUSE: &str = "__sherlock_chaos::panic_scorer__";

/// Attribute name that makes scoring any model against the carrying dataset
/// panic deliberately (poisons a whole case; `chaos`-feature builds only).
pub const PANIC_ATTR: &str = "__sherlock_chaos::panic_attr__";

/// Cause label that makes the intervention engine panic inside the trial
/// slot that is about to inject it (poisons one candidate's trials; `chaos`-
/// feature builds only). The per-slot `catch_unwind` boundary must convert
/// the panic into a populated not-reproduced verdict — the bench asserts
/// zero escapes.
pub const PANIC_INTERVENTION: &str = "__sherlock_chaos::panic_intervention__";

/// The scorer's tripwire: panics iff a chaos trigger is present. Called at
/// the top of confidence scoring; a no-op for every real cause and dataset,
/// and compiled out entirely without the `chaos` feature.
#[cfg(any(test, feature = "chaos"))]
#[allow(
    clippy::panic,
    reason = "deliberate chaos tripwire, compiled only into tests and chaos builds"
)]
pub(crate) fn scorer_tripwire(cause: &str, dataset: &Dataset) {
    if cause == PANIC_CAUSE {
        panic!("chaos: deliberate panic scoring model {PANIC_CAUSE:?}");
    }
    if dataset.schema().id_of(PANIC_ATTR).is_some() {
        panic!("chaos: deliberate panic scoring against a {PANIC_ATTR:?} dataset");
    }
}

/// Serialises panic-hook swaps: `take_hook`/`set_hook` mutate process-global
/// state, and the test harness runs tests on parallel threads — two
/// interleaved swaps could capture each other's no-op hook as the
/// "original" and permanently silence panic output for the whole run.
#[cfg(any(test, feature = "chaos"))]
static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` with panic-hook output silenced (the default hook prints every
/// caught panic to stderr, which drowns deliberate-panic tests in noise).
///
/// This is the one sanctioned way to quiet the hook: the swap is guarded by
/// a process-wide lock held until the original hook is restored, so
/// concurrent tests can never trade hooks, and a panic escaping `f` still
/// restores the hook before resuming the unwind. The lock is not
/// reentrant — do not nest `quiet_panics` calls on one thread.
#[cfg(any(test, feature = "chaos"))]
#[allow(
    clippy::disallowed_methods,
    reason = "the one sanctioned panic-hook swap; HOOK_LOCK serialises it"
)]
pub fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let _guard = HOOK_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    std::panic::set_hook(hook);
    match out {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_telemetry::{AttributeMeta, Schema};

    fn dataset_with(attr: &str) -> Dataset {
        Dataset::new(Schema::from_attrs([AttributeMeta::numeric(attr)]).unwrap())
    }

    #[test]
    fn silent_for_real_workloads() {
        scorer_tripwire("lock contention", &dataset_with("cpu_user"));
    }

    #[test]
    #[should_panic(expected = "chaos: deliberate panic scoring model")]
    fn cause_trigger_fires() {
        scorer_tripwire(PANIC_CAUSE, &dataset_with("cpu_user"));
    }

    #[test]
    #[should_panic(expected = "panic_attr")]
    fn attribute_trigger_fires() {
        scorer_tripwire("real cause", &dataset_with(PANIC_ATTR));
    }

    #[test]
    fn quiet_panics_returns_the_closure_value_and_round_trips() {
        assert_eq!(quiet_panics(|| 41 + 1), 42);
        // Sequential swaps under the lock must round-trip cleanly too.
        assert_eq!(quiet_panics(|| "ok"), "ok");
    }

    #[test]
    fn quiet_panics_propagates_an_escaping_panic() {
        let caught = std::panic::catch_unwind(|| quiet_panics(|| panic!("escapes")));
        let payload = caught.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"escapes"));
    }
}
