#![warn(missing_docs)]
// Diagnosis must degrade gracefully, never panic: clippy's panic lints are
// denied in library code (tests may panic freely).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! # dbsherlock
//!
//! A from-scratch Rust reproduction of **"DBSherlock: A Performance
//! Diagnostic Tool for Transactional Databases"** (Yoon, Niu, Mozafari —
//! SIGMOD 2016): a framework that explains user-perceived performance
//! anomalies in OLTP databases as concise predicates over telemetry and as
//! ranked, human-readable causes backed by causal models.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`telemetry`] — typed attributes, aligned tuples, regions, CSV, raw
//!   log alignment (the DBSeer-style preprocessing substrate).
//! * [`simulator`] — a closed-loop OLTP server simulator with the ten
//!   injectable anomaly classes of the paper's Table 1 (the stand-in for
//!   the paper's MySQL-on-Azure testbed).
//! * [`core`] — the DBSherlock algorithm itself: predicate generation,
//!   domain-knowledge pruning, causal models and merging, automatic
//!   anomaly detection.
//! * [`cluster`] — DBSCAN + k-dist, used by the automatic detector.
//! * [`baselines`] — PerfXplain and PerfAugur re-implementations.
//! * [`causal_synth`] — synthetic linear-SEM ground truth (Appendix F).
//!
//! # Quickstart
//!
//! ```
//! use dbsherlock::prelude::*;
//!
//! // Simulate a two-minute TPC-C-like run with a CPU hog in the middle.
//! let labeled = Scenario::new(WorkloadConfig::tpcc_default(), 150, 42)
//!     .with_injection(Injection::new(AnomalyKind::CpuSaturation, 60, 40))
//!     .run();
//!
//! // The DBA marks seconds 60..100 as abnormal and asks for an explanation.
//! let mut sherlock = Sherlock::new(SherlockParams::default());
//! let region = Region::from_range(60..100);
//! let explanation = sherlock.explain(&labeled.data, &region, None);
//! assert!(!explanation.predicates.is_empty());
//!
//! // The DBA confirms the cause; future diagnoses will name it directly.
//! sherlock.feedback("stress-ng CPU hog", &explanation.predicates);
//! let again = sherlock.explain(&labeled.data, &region, None);
//! assert_eq!(again.top_cause().unwrap().cause, "stress-ng CPU hog");
//! ```
//!
//! Heavy traffic goes through the validating builder and the batch entry
//! point, which fans independent cases out across a thread pool with
//! bit-identical results at any thread count:
//!
//! ```
//! use dbsherlock::prelude::*;
//! # let labeled = Scenario::new(WorkloadConfig::tpcc_default(), 150, 42)
//! #     .with_injection(Injection::new(AnomalyKind::CpuSaturation, 60, 40))
//! #     .run();
//! # let region = Region::from_range(60..100);
//!
//! let params = SherlockParams::builder()
//!     .theta(0.05)
//!     .exec(ExecPolicy::Threads(4))
//!     .build()?;
//! let sherlock = Sherlock::new(params);
//! let cases = [Case::new(&labeled.data, &region)];
//! for result in sherlock.explain_batch(&cases) {
//!     let explanation = result?;
//!     assert!(!explanation.predicates.is_empty());
//! }
//! # Ok::<(), dbsherlock::core::SherlockError>(())
//! ```

pub use dbsherlock_baselines as baselines;
pub use dbsherlock_causal_synth as causal_synth;
pub use dbsherlock_cluster as cluster;
pub use dbsherlock_core as core;
pub use dbsherlock_simulator as simulator;
pub use dbsherlock_telemetry as telemetry;

/// The names most programs need, in one import.
pub mod prelude {
    pub use dbsherlock_core::{
        generate_predicates, Accuracy, CancelFlag, Case, CausalModel, DiagnosisBudget,
        DomainKnowledge, ExecPolicy, Explanation, GeneratedPredicate, ModelRepository, ModelStore,
        Predicate, PredicateOp, RankedCause, Rule, Sherlock, SherlockError, SherlockParams,
        SherlockParamsBuilder, StoreReport,
    };
    pub use dbsherlock_simulator::{
        AnomalyKind, Benchmark, Injection, LabeledDataset, NoiseModel, Scenario, ServerConfig,
        WorkloadConfig,
    };
    pub use dbsherlock_telemetry::{
        AttributeKind, AttributeMeta, CategoricalView, ColumnView, ColumnarSnapshot, Dataset,
        NumericView, Region, Schema, Value,
    };
}
