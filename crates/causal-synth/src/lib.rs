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

//! Synthetic linear-SEM causal graphs for ground-truth evaluation of
//! DBSherlock's secondary-symptom pruning (paper Appendix F).
//!
//! Real telemetry has no known ground-truth causal structure, so the paper
//! evaluates domain-knowledge pruning on synthetic data: random DAGs with
//! linear structural equations, an injected anomaly on the root causes of
//! a designated effect variable, and randomly generated domain-knowledge
//! rules whose validity is decided by graph reachability.

pub mod generate;
pub mod graph;

pub use generate::{var_name, SynthConfig, SynthInstance, SynthRule};
pub use graph::CausalGraph;
