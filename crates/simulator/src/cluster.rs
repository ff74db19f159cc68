//! Multi-node cluster scenarios: replicated deployments with injectable
//! distributed-systems anomalies.
//!
//! The single-node model of [`crate::scenario`] reproduces the paper's
//! testbed; real deployments of the same workloads run as replicated
//! clusters, and their characteristic failures (replication lag, leader
//! failover, network partitions, cross-node lock convoys, hot shards) have
//! no single-node analogue. This module simulates `n` nodes of the same
//! closed-loop server model, coordinated by a deterministic cluster-level
//! schedule, and merges the per-node metric streams into **one**
//! aligned-tuple [`Dataset`] with node-namespaced attributes
//! (`node0.os_cpu_usage`, …) plus cluster-level aggregates
//! (`cluster.replication_lag_ms`, …) — exactly the shape DBSherlock's
//! predicate machinery already consumes.
//!
//! # Determinism
//!
//! The cluster schedule (who leads, who lags, which link is severed) is
//! computed *before* any node steps, purely from the scenario seed and the
//! injections. Each node then simulates independently from its own
//! seed-derived RNG against that immutable schedule, so the node fan-out
//! can run on any thread count ([`ClusterScenario::run_with_exec`]) and
//! still produce bit-identical streams — the same contract the diagnosis
//! engine's exec layer keeps, and the determinism proptests assert.

use dbsherlock_core::{par_map_indexed, ExecPolicy, SherlockError};
use dbsherlock_telemetry::{AttributeMeta, Dataset, Region, Schema, Value};
use serde::{Deserialize, Serialize};

use crate::anomaly::Perturbation;
use crate::config::{ServerConfig, WorkloadConfig};
use crate::engine::{Engine, TickOutput};
use crate::metrics::metrics_schema;
use crate::noise::NoiseModel;

/// Most nodes a merged schema supports: beyond this the attribute count
/// (≈ 77 per node) stops being a telemetry stream and starts being a
/// predicate-search denial of service.
pub const MAX_NODES: usize = 16;

/// Cluster-level numeric attributes appended after the per-node streams.
pub const CLUSTER_NUMERIC_NAMES: &[&str] = &[
    "cluster.replication_lag_ms",
    "cluster.replication_lag_avg_ms",
    "cluster.partitioned_links",
    "cluster.leader_changes",
    "cluster.cross_node_lock_wait_ms",
    "cluster.shard_imbalance",
];

/// Cluster-level categorical attributes (election and partition state).
pub const CLUSTER_CATEGORICAL_NAMES: &[&str] =
    &["cluster.election_state", "cluster.partition_state"];

/// Shape of a replicated deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of nodes (leader + replicas).
    pub n_nodes: usize,
    /// Synchronous-commit set size, leader included. A write commits once
    /// `replication_factor` nodes hold it, so elections stall commits
    /// cluster-wide.
    pub replication_factor: usize,
    /// Per-node hardware (all nodes identical, like the paper's A3 VMs).
    pub server: ServerConfig,
    /// Total client workload, sharded across the nodes.
    pub workload: WorkloadConfig,
}

impl ClusterConfig {
    /// The default evaluation cluster: three nodes, quorum of two,
    /// TPC-C-like total workload.
    pub fn three_node(workload: WorkloadConfig) -> Self {
        ClusterConfig {
            n_nodes: 3,
            replication_factor: 2,
            server: ServerConfig::default(),
            workload,
        }
    }

    /// Validate the shape, rejecting configurations that a silent clamp
    /// would mask (mirrors the CLI's `parse_region` contract: bad input is
    /// a typed error, not a guess).
    pub fn validate(&self) -> Result<(), SherlockError> {
        if self.n_nodes == 0 {
            return Err(SherlockError::InvalidParam {
                name: "n_nodes",
                value: "0".to_string(),
                reason: "a cluster needs at least one node",
            });
        }
        if self.n_nodes > MAX_NODES {
            return Err(SherlockError::InvalidParam {
                name: "n_nodes",
                value: self.n_nodes.to_string(),
                reason: "exceeds MAX_NODES; the merged schema would dwarf the telemetry",
            });
        }
        if self.replication_factor == 0 {
            return Err(SherlockError::InvalidParam {
                name: "replication_factor",
                value: "0".to_string(),
                reason: "the commit quorum counts the leader itself; must be at least 1",
            });
        }
        if self.replication_factor > self.n_nodes {
            return Err(SherlockError::InvalidParam {
                name: "replication_factor",
                value: format!("{} (n_nodes = {})", self.replication_factor, self.n_nodes),
                reason: "replication factor cannot exceed the node count",
            });
        }
        Ok(())
    }

    /// The workload one node serves: an even shard of the terminals (the
    /// cluster schedule perturbs shares on top of this baseline).
    fn node_workload(&self) -> WorkloadConfig {
        let mut w = self.workload.clone();
        w.terminals = (w.terminals / self.n_nodes as u32).max(1);
        w
    }
}

/// The five distributed anomaly classes, extending Table 1's ten
/// single-node classes (taxonomy after LogDB's failure survey).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ClusterAnomalyKind {
    /// A replica's apply stream falls behind the leader's commit stream.
    ReplicationLag,
    /// The leader dies; an election stalls commits, then a new leader
    /// absorbs the failed node's traffic.
    LeaderFailover,
    /// One node is severed from its peers: client timeouts, lag build-up.
    NetworkPartition,
    /// Distributed transactions convoy on remotely-held hot locks.
    LockConvoy,
    /// One shard draws a disproportionate share of the traffic.
    HotShard,
}

impl ClusterAnomalyKind {
    /// All five classes, in a fixed catalog order.
    pub const ALL: [ClusterAnomalyKind; 5] = [
        ClusterAnomalyKind::ReplicationLag,
        ClusterAnomalyKind::LeaderFailover,
        ClusterAnomalyKind::NetworkPartition,
        ClusterAnomalyKind::LockConvoy,
        ClusterAnomalyKind::HotShard,
    ];

    /// Human-readable cause label (doubles as the causal-model cause name,
    /// like [`crate::AnomalyKind::name`]).
    pub fn name(self) -> &'static str {
        match self {
            ClusterAnomalyKind::ReplicationLag => "Replication Lag",
            ClusterAnomalyKind::LeaderFailover => "Leader Failover",
            ClusterAnomalyKind::NetworkPartition => "Network Partition",
            ClusterAnomalyKind::LockConvoy => "Cross-Node Lock Convoy",
            ClusterAnomalyKind::HotShard => "Hot-Shard Skew",
        }
    }

    /// What the injection does to the latent cluster state.
    pub fn description(self) -> &'static str {
        match self {
            ClusterAnomalyKind::ReplicationLag => {
                "one replica's apply rate is throttled; its lag integrates upward"
            }
            ClusterAnomalyKind::LeaderFailover => {
                "the leader fails and restarts; leadership moves and stays moved"
            }
            ClusterAnomalyKind::NetworkPartition => {
                "the last node is severed: client RTT spikes, bandwidth collapses"
            }
            ClusterAnomalyKind::LockConvoy => {
                "every node's accesses converge on remotely-held hot rows"
            }
            ClusterAnomalyKind::HotShard => {
                "node 0's shard receives a surge while the others drain"
            }
        }
    }

    /// Whether the experiment matrix varies this class's *duration*
    /// (paper §8.2). A failover is an instantaneous event whose aftermath
    /// we record, so its matrix varies the start offset instead.
    pub fn duration_controllable(self) -> bool {
        !matches!(self, ClusterAnomalyKind::LeaderFailover)
    }
}

impl std::fmt::Display for ClusterAnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One injected cluster anomaly over `[start, start + duration)` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterInjection {
    /// Which anomaly.
    pub kind: ClusterAnomalyKind,
    /// First affected tick (relative to recording start).
    pub start: usize,
    /// Length of the fault window, ticks.
    pub duration: usize,
    /// Severity multiplier (1.0 = the calibrated default).
    pub intensity: f64,
}

impl ClusterInjection {
    /// An injection at default intensity.
    pub fn new(kind: ClusterAnomalyKind, start: usize, duration: usize) -> Self {
        ClusterInjection { kind, start, duration, intensity: 1.0 }
    }

    /// Same injection at a different severity.
    pub fn with_intensity(mut self, intensity: f64) -> Self {
        self.intensity = intensity;
        self
    }

    /// Is `tick` inside the fault window?
    pub fn active_at(&self, tick: usize) -> bool {
        tick >= self.start && tick < self.start + self.duration
    }
}

/// A reproducible multi-node experiment description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterScenario {
    /// Cluster shape and total workload.
    pub config: ClusterConfig,
    /// Injected cluster anomalies.
    pub injections: Vec<ClusterInjection>,
    /// Recorded duration in ticks (seconds).
    pub duration: usize,
    /// Unrecorded per-node warm-up ticks.
    pub warmup: usize,
    /// RNG seed; same seed + config, same merged dataset.
    pub seed: u64,
}

/// splitmix64 finalizer: cheap, seedable, well-mixed — used for per-node
/// seed derivation and sub-millisecond deterministic jitter.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic jitter in `[0, span)` from a mixing key.
fn jitter(key: u64, span: f64) -> f64 {
    (mix64(key) >> 11) as f64 / (1u64 << 53) as f64 * span
}

/// Immutable per-tick cluster directive, computed before any node steps.
#[derive(Debug, Clone)]
struct ClusterTick {
    /// Current leader node.
    leader: usize,
    /// An election is in progress (commits stall cluster-wide).
    electing: bool,
    /// 1.0 on the tick leadership moved, else 0.0.
    leader_changes: f64,
    /// Severed node and severity, if a partition is active.
    partitioned: Option<(usize, f64)>,
    /// Apply lag per node, ms (the leader's is 0).
    lag_ms: Vec<f64>,
    /// Cross-node lock-convoy severity (0 = none).
    convoy: f64,
    /// Hot-shard severity (0 = none).
    hot: f64,
    /// Node that failed this window (traffic moves off it), if any.
    failed: Option<usize>,
}

impl ClusterScenario {
    /// A scenario over `config` with 30 warm-up ticks.
    pub fn new(config: ClusterConfig, duration: usize, seed: u64) -> Self {
        ClusterScenario { config, injections: Vec::new(), duration, warmup: 30, seed }
    }

    /// Add one injection (builder style).
    pub fn with_injection(mut self, injection: ClusterInjection) -> Self {
        self.injections.push(injection);
        self
    }

    /// Validate the whole scenario: the cluster shape, the recording
    /// length, and the fault windows. Interventional re-runs attribute a
    /// symptom to *one* fault, so overlapping windows are rejected rather
    /// than silently merged the way single-node scenarios union them.
    pub fn validate(&self) -> Result<(), SherlockError> {
        self.config.validate()?;
        if self.duration == 0 {
            return Err(SherlockError::InvalidParam {
                name: "duration",
                value: "0".to_string(),
                reason: "a scenario must record at least one tick",
            });
        }
        for inj in &self.injections {
            if inj.duration == 0 {
                return Err(SherlockError::InvalidParam {
                    name: "injections",
                    value: format!("{} at tick {}", inj.kind, inj.start),
                    reason: "fault window is empty",
                });
            }
        }
        let mut windows: Vec<(usize, usize, ClusterAnomalyKind)> =
            self.injections.iter().map(|i| (i.start, i.start + i.duration, i.kind)).collect();
        windows.sort_unstable_by_key(|&(start, end, _)| (start, end));
        for pair in windows.windows(2) {
            let [(a_start, a_end, a_kind), (b_start, _, b_kind)] = *pair else { continue };
            if b_start < a_end {
                return Err(SherlockError::InvalidParam {
                    name: "injections",
                    value: format!(
                        "{a_kind} [{a_start}..{a_end}) overlaps {b_kind} starting at {b_start}"
                    ),
                    reason: "fault windows overlap; each symptom must be attributable to one fault",
                });
            }
        }
        Ok(())
    }

    /// Run serially with the default noise model.
    pub fn run(&self) -> Result<ClusterLabeledDataset, SherlockError> {
        self.run_with(NoiseModel::default(), ExecPolicy::Serial)
    }

    /// Run with the node fan-out on `policy`'s thread budget. Output is
    /// bit-identical across policies.
    pub fn run_with_exec(
        &self,
        policy: ExecPolicy,
    ) -> Result<ClusterLabeledDataset, SherlockError> {
        self.run_with(NoiseModel::default(), policy)
    }

    /// Run with a custom noise model and exec policy.
    pub fn run_with(
        &self,
        noise: NoiseModel,
        policy: ExecPolicy,
    ) -> Result<ClusterLabeledDataset, SherlockError> {
        self.validate()?;
        let n = self.config.n_nodes;
        let schedule = self.coordination();
        let nodes: Vec<usize> = (0..n).collect();
        let traces: Vec<Vec<TickOutput>> =
            par_map_indexed(policy, &nodes, |_, &node| self.run_node(node, &schedule, noise));
        self.assemble(&schedule, &traces)
    }

    /// Derive the per-tick cluster directives from seed + injections.
    /// Pure function of the scenario — shared read-only by every node.
    fn coordination(&self) -> Vec<ClusterTick> {
        let n = self.config.n_nodes;
        let mut leader = 0usize;
        let mut failed: Option<usize> = None;
        // Latent apply backlog per node, decaying geometrically.
        let mut backlog = vec![0.0f64; n];
        let mut schedule = Vec::with_capacity(self.duration);
        for tick in 0..self.duration {
            let mut electing = false;
            let mut leader_changes = 0.0;
            let mut partitioned = None;
            let mut convoy = 0.0;
            let mut hot = 0.0;
            let mut growth = vec![0.0f64; n];
            for inj in self.injections.iter().filter(|i| i.active_at(tick)) {
                let s = inj.intensity;
                match inj.kind {
                    ClusterAnomalyKind::ReplicationLag => {
                        // The replica "furthest" from the leader lags.
                        let lagging = (leader + n - 1) % n;
                        if lagging != leader {
                            if let Some(g) = growth.get_mut(lagging) {
                                *g += 260.0 * s;
                            }
                        }
                    }
                    ClusterAnomalyKind::LeaderFailover => {
                        electing = true;
                        if tick == inj.start && n > 1 {
                            failed = Some(leader);
                            leader = (leader + 1) % n;
                            leader_changes = 1.0;
                        }
                        // The log stream stalls while the election runs.
                        for (node, g) in growth.iter_mut().enumerate() {
                            if node != leader {
                                *g += 70.0 * s;
                            }
                        }
                    }
                    ClusterAnomalyKind::NetworkPartition => {
                        if n > 1 {
                            let isolated = n - 1;
                            partitioned = Some((isolated, s));
                            if isolated != leader {
                                if let Some(g) = growth.get_mut(isolated) {
                                    *g += 190.0 * s;
                                }
                            }
                        }
                    }
                    ClusterAnomalyKind::LockConvoy => convoy += s,
                    ClusterAnomalyKind::HotShard => hot += s,
                }
            }
            // A failed node stays "failed" only while its window is open.
            if !self
                .injections
                .iter()
                .any(|i| i.kind == ClusterAnomalyKind::LeaderFailover && i.active_at(tick))
            {
                failed = None;
            }
            let lag_ms: Vec<f64> = backlog
                .iter_mut()
                .zip(&growth)
                .enumerate()
                .map(|(node, (carry, grown))| {
                    *carry = *carry * 0.55 + grown;
                    if node == leader {
                        *carry = 0.0;
                        0.0
                    } else {
                        // Healthy replicas still show a few ms of jitter, as
                        // real replication monitors do.
                        let base = 2.0
                            + jitter(
                                self.seed ^ ((tick as u64) << 20) ^ ((node as u64) << 4) ^ 0xA11A,
                                6.0,
                            );
                        base + *carry
                    }
                })
                .collect();
            schedule.push(ClusterTick {
                leader,
                electing,
                leader_changes,
                partitioned,
                lag_ms,
                convoy,
                hot,
                failed,
            });
        }
        schedule
    }

    /// Simulate one node's full time series against the shared schedule.
    fn run_node(
        &self,
        node: usize,
        schedule: &[ClusterTick],
        noise: NoiseModel,
    ) -> Vec<TickOutput> {
        let node_seed = mix64(self.seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let workload = self.config.node_workload();
        let mut engine =
            Engine::new(self.config.server.clone(), workload.clone(), noise, node_seed);
        for _ in 0..self.warmup {
            engine.step(&Perturbation::default());
        }
        let base_mix = engine.base_mix().clone();
        let node_terminals = workload.terminals as f64;
        schedule
            .iter()
            .map(|tick| {
                let mut p = Perturbation::default();
                let is_leader = tick.leader == node;
                // Replication fan-out: the leader ships its log to every
                // replica; a tiny steady cost that scales with cluster size.
                if is_leader {
                    p.external_net_mb += 1.5 * (self.config.n_nodes as f64 - 1.0);
                }
                // Election: commits need a quorum, so every node's clients
                // stall, and the candidates burn CPU on the vote rounds.
                if tick.electing {
                    p.rate_multiplier *= 0.25;
                    p.external_cpu += 220.0;
                }
                // A freshly failed node restarts: barely serving, replaying
                // its log from disk.
                if tick.failed == Some(node) {
                    p.rate_multiplier *= 0.15;
                    p.external_disk_mb += 40.0;
                } else if tick.failed.is_some() && is_leader {
                    // The new leader absorbs the failed node's share.
                    p.extra_terminals += node_terminals;
                }
                // Apply backlog: a lagging replica works through its queue —
                // extra apply I/O and CPU proportional to the backlog.
                let lag = tick.lag_ms.get(node).copied().unwrap_or(0.0);
                if lag > 20.0 {
                    p.external_disk_iops += lag * 1.1;
                    p.external_cpu += lag * 0.6;
                    p.bulk_insert_rows += lag * 14.0;
                }
                // Partition: the severed node's clients time out and retry.
                if let Some((isolated, s)) = tick.partitioned {
                    if isolated == node {
                        p.added_rtt_ms += 320.0 * s;
                        p.net_bandwidth_cap_mb = Some(8.0 / s.max(0.5));
                        p.rate_multiplier *= 0.4;
                    } else if is_leader {
                        // The leader retransmits into the void.
                        p.external_net_mb += 6.0 * s;
                    }
                }
                // Cross-node lock convoy: every node's accesses converge on
                // the same hot rows, and each grant pays a network hop.
                if tick.convoy > 0.0 {
                    let c = tick.convoy;
                    p.skew_override = Some(0.9_f64.min(0.55 + 0.3 * c));
                    p.added_rtt_ms += 14.0 * c;
                    if p.mix_override.is_none() {
                        p.mix_override = base_mix
                            .single_class("new_order")
                            .or_else(|| base_mix.single_class("trade_order"));
                    }
                }
                // Hot shard: node 0 surges, the rest drain.
                if tick.hot > 0.0 {
                    let h = tick.hot;
                    if node == 0 {
                        p.extra_terminals += node_terminals * 1.3 * h;
                        p.skew_override = Some(0.85_f64.min(0.5 + 0.35 * h));
                    } else {
                        p.rate_multiplier *= (1.0 - 0.3 * h.min(1.0)).max(0.2);
                    }
                }
                engine.step(&p)
            })
            .collect()
    }

    /// Merge the node traces + schedule into one labeled dataset.
    fn assemble(
        &self,
        schedule: &[ClusterTick],
        traces: &[Vec<TickOutput>],
    ) -> Result<ClusterLabeledDataset, SherlockError> {
        let n = self.config.n_nodes;
        let node_schema = metrics_schema();
        let per_node = node_schema.len();
        let node_numeric =
            node_schema.ids_of_kind(dbsherlock_telemetry::AttributeKind::Numeric).len();
        let mut dataset = Dataset::new(cluster_metrics_schema(n)?);
        for (tick, directive) in schedule.iter().enumerate() {
            let mut values: Vec<Value> = Vec::with_capacity(per_node * n + 8);
            for (node, trace) in traces.iter().enumerate() {
                let Some(out) = trace.get(tick) else { continue };
                values.extend(out.numeric.values().into_iter().map(Value::Num));
                for (offset, label) in out.categorical.labels().iter().enumerate() {
                    let attr_id = node * per_node + node_numeric + offset;
                    values.push(dataset.intern(attr_id, label)?);
                }
            }
            // Cluster-level numerics, in CLUSTER_NUMERIC_NAMES order.
            let replica_lags: Vec<f64> = directive
                .lag_ms
                .iter()
                .enumerate()
                .filter(|&(node, _)| node != directive.leader)
                .map(|(_, lag)| *lag)
                .collect();
            let lag_max = replica_lags.iter().copied().fold(0.0f64, f64::max);
            let lag_avg = if replica_lags.is_empty() {
                0.0
            } else {
                replica_lags.iter().sum::<f64>() / replica_lags.len() as f64
            };
            let severed = match directive.partitioned {
                Some(_) => (n - 1) as f64,
                None => 0.0,
            };
            let lock_wait =
                directive.convoy * 85.0 + jitter(self.seed ^ ((tick as u64) << 18) ^ 0x10CC, 3.0);
            let tps: Vec<f64> = traces
                .iter()
                .filter_map(|t| t.get(tick))
                .map(|o| o.numeric.txn_throughput)
                .collect();
            let total_tps: f64 = tps.iter().sum();
            let imbalance = if total_tps > 0.0 {
                tps.iter().copied().fold(0.0f64, f64::max) * n as f64 / total_tps
            } else {
                1.0
            };
            for v in [lag_max, lag_avg, severed, directive.leader_changes, lock_wait, imbalance] {
                values.push(Value::Num(v));
            }
            // Cluster-level categoricals.
            let base = n * per_node + CLUSTER_NUMERIC_NAMES.len();
            let election = if directive.electing { "electing" } else { "steady" };
            let partition =
                if directive.partitioned.is_some() { "partitioned" } else { "connected" };
            values.push(dataset.intern(base, election)?);
            values.push(dataset.intern(base + 1, partition)?);
            dataset.push_row(tick as f64, &values)?;
        }
        Ok(ClusterLabeledDataset { data: dataset, injections: self.injections.clone() })
    }
}

/// Build the merged cluster schema: each node's full telemetry under a
/// `node<i>.` namespace, then the cluster-level aggregates.
pub fn cluster_metrics_schema(n_nodes: usize) -> Result<Schema, SherlockError> {
    if n_nodes == 0 || n_nodes > MAX_NODES {
        return Err(SherlockError::InvalidParam {
            name: "n_nodes",
            value: n_nodes.to_string(),
            reason: "cluster schema needs 1..=MAX_NODES nodes",
        });
    }
    let node_schema = metrics_schema();
    let mut merged = Schema::new();
    for node in 0..n_nodes {
        merged.push_namespaced(&format!("node{node}"), &node_schema)?;
    }
    for name in CLUSTER_NUMERIC_NAMES {
        merged.push(AttributeMeta::numeric(*name))?;
    }
    for name in CLUSTER_CATEGORICAL_NAMES {
        merged.push(AttributeMeta::categorical(*name))?;
    }
    Ok(merged)
}

/// A merged cluster dataset plus its ground-truth anomaly labels
/// (the multi-node sibling of [`crate::LabeledDataset`]).
#[derive(Debug, Clone)]
pub struct ClusterLabeledDataset {
    /// The merged, node-namespaced aligned telemetry.
    pub data: Dataset,
    /// The injections that produced it.
    pub injections: Vec<ClusterInjection>,
}

impl ClusterLabeledDataset {
    /// Union of all injected anomaly windows, clipped to the dataset.
    pub fn abnormal_region(&self) -> Region {
        let n = self.data.n_rows();
        Region::from_ranges(
            self.injections.iter().map(|inj| inj.start.min(n)..(inj.start + inj.duration).min(n)),
        )
    }

    /// The window of one anomaly kind, if injected.
    pub fn region_of(&self, kind: ClusterAnomalyKind) -> Option<Region> {
        let n = self.data.n_rows();
        let ranges: Vec<_> = self
            .injections
            .iter()
            .filter(|inj| inj.kind == kind)
            .map(|inj| inj.start.min(n)..(inj.start + inj.duration).min(n))
            .collect();
        if ranges.is_empty() {
            None
        } else {
            Some(Region::from_ranges(ranges))
        }
    }

    /// Everything not abnormal.
    pub fn normal_region(&self) -> Region {
        self.abnormal_region().complement(self.data.n_rows())
    }

    /// Distinct anomaly kinds present, in catalog order.
    pub fn kinds(&self) -> Vec<ClusterAnomalyKind> {
        let mut kinds: Vec<ClusterAnomalyKind> = self.injections.iter().map(|i| i.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }
}

/// Window lengths the cluster matrix varies over (a reduced version of the
/// single-node [`crate::VARIATIONS`] — cluster runs cost `n_nodes` engine
/// steps per tick).
pub const CLUSTER_VARIATIONS: &[usize] = &[30, 40, 50, 60, 70];

/// Ticks of normal activity surrounding the fault in a standard cluster
/// scenario (matches the single-node corpus).
pub const CLUSTER_NORMAL_SECS: usize = 120;

/// The standard experiment cell for (kind, variant): a three-node cluster
/// with one fault window, `variant` varying the duration (or the start, for
/// classes whose duration is not controllable) and the seed/intensity.
pub fn standard_cluster_scenario(
    kind: ClusterAnomalyKind,
    variant: usize,
    corpus_seed: u64,
) -> ClusterScenario {
    let slot = variant % CLUSTER_VARIATIONS.len();
    #[allow(clippy::indexing_slicing, reason = "slot < len by the modulo above")]
    let vary = CLUSTER_VARIATIONS[slot];
    let (start, duration) = if kind.duration_controllable() { (60, vary) } else { (vary, 40) };
    let kind_idx = ClusterAnomalyKind::ALL.iter().position(|&k| k == kind).unwrap_or(0);
    let seed = mix64(
        corpus_seed
            .wrapping_mul(0xD1B5_4A32_D192_ED03)
            .wrapping_add((kind_idx as u64) * 131)
            .wrapping_add(variant as u64 + 1),
    );
    // ±15% severity spread, so merged models see the same class at
    // different magnitudes (paper §8.4's training-set diversity).
    let intensity = 0.85 + jitter(seed ^ 0x51DE, 0.3);
    let config = ClusterConfig::three_node(WorkloadConfig::tpcc_default());
    ClusterScenario::new(config, CLUSTER_NORMAL_SECS + start.max(60) + duration - 60, seed)
        .with_injection(ClusterInjection::new(kind, start, duration).with_intensity(intensity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;

    fn quick_config() -> ClusterConfig {
        let mut workload = WorkloadConfig::tpcc_default();
        workload.terminals = 48;
        ClusterConfig::three_node(workload)
    }

    fn quick_scenario(kind: ClusterAnomalyKind) -> ClusterScenario {
        ClusterScenario::new(quick_config(), 120, 7)
            .with_injection(ClusterInjection::new(kind, 50, 40))
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut config = quick_config();
        config.n_nodes = 0;
        assert!(matches!(
            config.validate(),
            Err(SherlockError::InvalidParam { name: "n_nodes", .. })
        ));
        let mut config = quick_config();
        config.replication_factor = 4;
        assert!(matches!(
            config.validate(),
            Err(SherlockError::InvalidParam { name: "replication_factor", .. })
        ));
        let mut config = quick_config();
        config.replication_factor = 0;
        assert!(config.validate().is_err());
        let mut config = quick_config();
        config.n_nodes = MAX_NODES + 1;
        assert!(config.validate().is_err());
        assert!(quick_config().validate().is_ok());
    }

    #[test]
    fn validation_rejects_overlapping_windows() {
        let scenario = ClusterScenario::new(quick_config(), 120, 1)
            .with_injection(ClusterInjection::new(ClusterAnomalyKind::LockConvoy, 40, 30))
            .with_injection(ClusterInjection::new(ClusterAnomalyKind::HotShard, 60, 20));
        let err = scenario.validate().unwrap_err();
        assert!(matches!(err, SherlockError::InvalidParam { name: "injections", .. }));
        assert!(err.to_string().contains("overlap"), "{err}");
        // Back-to-back windows are fine.
        let scenario = ClusterScenario::new(quick_config(), 120, 1)
            .with_injection(ClusterInjection::new(ClusterAnomalyKind::LockConvoy, 40, 20))
            .with_injection(ClusterInjection::new(ClusterAnomalyKind::HotShard, 60, 20));
        assert!(scenario.validate().is_ok());
        // Zero-length windows and zero durations are typed errors, not clamps.
        let scenario = ClusterScenario::new(quick_config(), 120, 1)
            .with_injection(ClusterInjection::new(ClusterAnomalyKind::HotShard, 60, 0));
        assert!(scenario.validate().is_err());
        assert!(ClusterScenario::new(quick_config(), 0, 1).validate().is_err());
    }

    #[test]
    fn run_merges_all_node_streams() {
        let labeled = quick_scenario(ClusterAnomalyKind::HotShard).run().unwrap();
        assert_eq!(labeled.data.n_rows(), 120);
        let schema = labeled.data.schema();
        assert_eq!(schema.len(), cluster_metrics_schema(3).unwrap().len());
        assert!(schema.id_of("node0.os_cpu_usage").is_some());
        assert!(schema.id_of("node2.txn_throughput").is_some());
        assert!(schema.id_of("cluster.replication_lag_ms").is_some());
        assert!(schema.id_of("cluster.partition_state").is_some());
        assert_eq!(labeled.abnormal_region().intervals(), vec![50..90]);
        assert_eq!(labeled.kinds(), vec![ClusterAnomalyKind::HotShard]);
        assert!(labeled.region_of(ClusterAnomalyKind::ReplicationLag).is_none());
    }

    #[test]
    fn run_rejects_invalid_scenarios() {
        let mut scenario = quick_scenario(ClusterAnomalyKind::HotShard);
        scenario.config.replication_factor = 9;
        assert!(scenario.run().is_err());
    }

    /// Mean of a column over a region.
    fn region_mean(labeled: &ClusterLabeledDataset, attr: &str, region: &Region) -> f64 {
        let col = labeled.data.numeric_by_name(attr).unwrap();
        let idx = region.indices();
        idx.iter().map(|&i| col[i]).sum::<f64>() / idx.len() as f64
    }

    #[test]
    fn replication_lag_moves_the_lag_column() {
        let labeled = quick_scenario(ClusterAnomalyKind::ReplicationLag).run().unwrap();
        let abnormal =
            region_mean(&labeled, "cluster.replication_lag_ms", &labeled.abnormal_region());
        let normal = region_mean(&labeled, "cluster.replication_lag_ms", &labeled.normal_region());
        assert!(abnormal > normal * 5.0, "lag: normal {normal:.1} abnormal {abnormal:.1}");
    }

    #[test]
    fn partition_hurts_the_isolated_node_only() {
        let labeled = quick_scenario(ClusterAnomalyKind::NetworkPartition).run().unwrap();
        let abnormal = labeled.abnormal_region();
        let normal = labeled.normal_region();
        let hurt = region_mean(&labeled, "node2.txn_avg_latency_ms", &abnormal)
            / region_mean(&labeled, "node2.txn_avg_latency_ms", &normal);
        let fine = region_mean(&labeled, "node1.txn_avg_latency_ms", &abnormal)
            / region_mean(&labeled, "node1.txn_avg_latency_ms", &normal);
        assert!(hurt > 2.0, "isolated node latency ratio {hurt:.2}");
        assert!(fine < hurt / 2.0, "healthy node ratio {fine:.2} vs isolated {hurt:.2}");
        assert!(region_mean(&labeled, "cluster.partitioned_links", &abnormal) > 1.0);
    }

    #[test]
    fn failover_changes_the_leader_and_stalls_commits() {
        let labeled = quick_scenario(ClusterAnomalyKind::LeaderFailover).run().unwrap();
        let changes = labeled.data.numeric_by_name("cluster.leader_changes").unwrap();
        assert_eq!(changes.iter().filter(|&&c| c > 0.5).count(), 1);
        assert!(changes[50] > 0.5, "leadership moves at the window start");
        // Throughput craters during the election.
        let tps = region_mean(&labeled, "node0.txn_throughput", &labeled.abnormal_region());
        let healthy = region_mean(&labeled, "node0.txn_throughput", &labeled.normal_region());
        assert!(tps < healthy * 0.6, "election tps {tps:.1} vs healthy {healthy:.1}");
    }

    #[test]
    fn hot_shard_skews_throughput_shares() {
        let labeled = quick_scenario(ClusterAnomalyKind::HotShard).run().unwrap();
        let imbalance =
            region_mean(&labeled, "cluster.shard_imbalance", &labeled.abnormal_region());
        let baseline = region_mean(&labeled, "cluster.shard_imbalance", &labeled.normal_region());
        assert!(imbalance > baseline * 1.2, "imbalance {imbalance:.2} baseline {baseline:.2}");
    }

    #[test]
    fn lock_convoy_raises_cross_node_waits_everywhere() {
        let labeled = quick_scenario(ClusterAnomalyKind::LockConvoy).run().unwrap();
        let abnormal = labeled.abnormal_region();
        let normal = labeled.normal_region();
        assert!(
            region_mean(&labeled, "cluster.cross_node_lock_wait_ms", &abnormal)
                > region_mean(&labeled, "cluster.cross_node_lock_wait_ms", &normal) * 5.0
        );
        for node in 0..3 {
            let attr = format!("node{node}.dbms_lock_wait_ms");
            if labeled.data.schema().id_of(&attr).is_some() {
                assert!(
                    region_mean(&labeled, &attr, &abnormal) > region_mean(&labeled, &attr, &normal),
                    "{attr} should rise during the convoy"
                );
            }
        }
    }

    #[test]
    fn exec_policies_are_bit_identical() {
        let scenario = quick_scenario(ClusterAnomalyKind::ReplicationLag);
        let serial = scenario.run_with(NoiseModel::default(), ExecPolicy::Serial).unwrap();
        let threaded = scenario.run_with(NoiseModel::default(), ExecPolicy::Threads(4)).unwrap();
        for (id, attr) in serial.data.schema().iter() {
            if attr.kind == dbsherlock_telemetry::AttributeKind::Numeric {
                assert_eq!(
                    serial.data.numeric(id).unwrap(),
                    threaded.data.numeric(id).unwrap(),
                    "attr {} differs across exec policies",
                    attr.name
                );
            }
        }
    }

    #[test]
    fn standard_cells_cover_the_catalog() {
        for kind in ClusterAnomalyKind::ALL {
            let scenario = standard_cluster_scenario(kind, 1, 0xC1);
            assert!(scenario.validate().is_ok(), "{kind}");
            assert_eq!(scenario.injections.len(), 1);
            assert!(scenario.injections[0].intensity > 0.7);
            assert!(scenario.duration > scenario.injections[0].start);
        }
        // Different variants get different seeds and windows.
        let a = standard_cluster_scenario(ClusterAnomalyKind::HotShard, 0, 0xC1);
        let b = standard_cluster_scenario(ClusterAnomalyKind::HotShard, 1, 0xC1);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.injections[0].duration, b.injections[0].duration);
    }
}
