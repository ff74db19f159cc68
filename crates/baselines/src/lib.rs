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

//! Re-implementations of the comparison baselines from the DBSherlock
//! paper: **PerfXplain** (predicate-based explanation of MapReduce job
//! pairs, §8.4) and **PerfAugur** (robust anomaly-region detection,
//! Appendix E). Both are built from scratch against the same telemetry
//! data model DBSherlock consumes, so the head-to-head comparisons of
//! Figures 9 and Table 7 run on identical inputs.

pub mod perfaugur;
pub mod perfxplain;

pub use perfaugur::{detect as perfaugur_detect, PerfAugurConfig, ScoredWindow};
pub use perfxplain::{PerfXplain, PerfXplainConfig, TrainingSet};
