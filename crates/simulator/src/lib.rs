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

//! A discrete-time OLTP database-server simulator with injectable
//! performance anomalies.
//!
//! This crate is the substitute for the DBSherlock paper's evaluation
//! testbed (§8.1): two Azure A3 VMs running MySQL 5.6 under OLTPBench's
//! TPC-C/TPC-E, stressed with stress-ng, mysqldump, and tc. Here the server
//! is a closed-loop queueing model of CPU, disk, network, buffer pool, lock
//! manager, and redo log; the ten anomaly classes of Table 1 perturb the
//! *latent* state, and every emitted metric is derived from the same
//! dynamics with measurement noise on top. See DESIGN.md for the
//! substitution argument.
//!
//! # Example
//!
//! ```
//! use dbsherlock_simulator::{
//!     AnomalyKind, Injection, Scenario, WorkloadConfig,
//! };
//!
//! let labeled = Scenario::new(WorkloadConfig::tpcc_default(), 150, 42)
//!     .with_injection(Injection::new(AnomalyKind::CpuSaturation, 60, 40))
//!     .run();
//! assert_eq!(labeled.data.n_rows(), 150);
//! assert_eq!(labeled.abnormal_region().intervals(), vec![60..100]);
//! let cpu = labeled.data.numeric_by_name("os_cpu_usage").unwrap();
//! assert!(cpu[80] > cpu[10]);
//! ```

pub mod anomaly;
pub mod bufferpool;
pub mod cluster;
pub mod config;
pub mod corpus;
pub mod engine;
pub mod intervene;
pub mod locks;
pub mod metrics;
pub mod noise;
pub mod redo;
pub mod resources;
pub mod scenario;
pub mod txn;

pub use anomaly::{AnomalyKind, Injection, Perturbation};
pub use cluster::{
    cluster_metrics_schema, standard_cluster_scenario, ClusterAnomalyKind, ClusterConfig,
    ClusterInjection, ClusterLabeledDataset, ClusterScenario, CLUSTER_CATEGORICAL_NAMES,
    CLUSTER_NUMERIC_NAMES, CLUSTER_VARIATIONS, MAX_NODES,
};
pub use config::{Benchmark, ServerConfig, WorkloadConfig};
pub use corpus::{
    compound_cases, compound_dataset, generate_corpus, generate_long_corpus, standard_scenario,
    CorpusEntry, EntryId, NORMAL_SECS, VARIATIONS,
};
pub use engine::{Engine, TickOutput};
pub use intervene::ScenarioRunner;
pub use metrics::{metrics_schema, CategoricalMetrics, NumericMetrics, CATEGORICAL_NAMES};
pub use noise::NoiseModel;
pub use scenario::{CorruptedDataset, LabeledDataset, Scenario};
pub use txn::{Mix, StatementProfile, TxnClass};
