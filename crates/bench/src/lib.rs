// Experiment drivers share the library panic policy: helpers must not panic
// outside tests (binaries under src/bin/ may).
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

//! Experiment harness reproducing every table and figure of the DBSherlock
//! paper (SIGMOD 2016).
//!
//! Each binary under `src/bin/` regenerates one artifact (see DESIGN.md's
//! experiment index); `run_all` runs the lot. Quick defaults keep a full
//! sweep in minutes; pass `--full` for paper-scale trial counts, or
//! `--repeats N` for explicit control. EXPERIMENTS.md records
//! paper-vs-measured numbers.

pub mod corpus_cache;
pub mod eval;
pub mod report;

pub use corpus_cache::{long_corpus, of_kind, tpcc_corpus, tpce_corpus, CORPUS_SEED};
pub use eval::{
    diagnose, diagnose_dataset, diagnose_named, diagnose_with_region, merged_model, predicates_for,
    random_split, repository_from, single_model, DiagnosisOutcome, Tally,
};
pub use report::{num, pct, write_json, ExperimentArgs, Table};
