//! Scenario execution: run the engine for a while, inject anomalies, and
//! emit a labeled [`Dataset`].
//!
//! A scenario mirrors one experiment run of §8.1–8.2: a stretch of normal
//! activity plus one or more injected abnormal situations, recorded as
//! one-second aligned tuples with ground-truth anomaly regions.

use dbsherlock_telemetry::faults::{CorruptionReport, FaultPlan};
use dbsherlock_telemetry::{
    repair_alignment, Dataset, IngestWarning, Region, RepairOptions, Result, Value,
};
use serde::{Deserialize, Serialize};

use crate::anomaly::{AnomalyKind, Injection, Perturbation};
use crate::config::{ServerConfig, WorkloadConfig};
use crate::engine::Engine;
use crate::metrics::metrics_schema;
use crate::noise::NoiseModel;

/// A complete, reproducible experiment description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Server hardware/configuration.
    pub server: ServerConfig,
    /// Client workload.
    pub workload: WorkloadConfig,
    /// Injected anomalies (tick offsets are relative to recording start).
    pub injections: Vec<Injection>,
    /// Recorded duration in seconds.
    pub duration: usize,
    /// Unrecorded warm-up ticks before recording starts (lets the
    /// closed-loop model reach steady state, like letting the benchmark
    /// ramp up before measurement).
    pub warmup: usize,
    /// RNG seed; same seed, same dataset.
    pub seed: u64,
}

impl Scenario {
    /// A scenario with the paper's defaults: TPC-C-like workload on the
    /// A3-like server, 30 ticks of warm-up.
    pub fn new(workload: WorkloadConfig, duration: usize, seed: u64) -> Self {
        Scenario {
            server: ServerConfig::default(),
            workload,
            injections: Vec::new(),
            duration,
            warmup: 30,
            seed,
        }
    }

    /// Add one injection (builder style).
    pub fn with_injection(mut self, injection: Injection) -> Self {
        self.injections.push(injection);
        self
    }

    /// Run the scenario and produce the labeled dataset.
    pub fn run(&self) -> LabeledDataset {
        self.run_with_noise(NoiseModel::default())
    }

    /// Run with a custom noise model (tests use [`NoiseModel::none`]).
    pub fn run_with_noise(&self, noise: NoiseModel) -> LabeledDataset {
        let mut engine = Engine::new(self.server.clone(), self.workload.clone(), noise, self.seed);
        let mut dataset = Dataset::new(metrics_schema());
        let n_numeric = dbsherlock_telemetry::AttributeKind::Numeric;
        let numeric_count = dataset.schema().ids_of_kind(n_numeric).len();

        for _ in 0..self.warmup {
            engine.step(&Perturbation::default());
        }
        let base_mix = engine.base_mix().clone();
        let pool_pages = engine.pool_pages();
        for tick in 0..self.duration {
            let mut p = Perturbation::default();
            for injection in &self.injections {
                p.apply(injection, tick, &base_mix, pool_pages);
            }
            let out = engine.step(&p);
            let mut values: Vec<Value> = out.numeric.values().into_iter().map(Value::Num).collect();
            debug_assert_eq!(values.len(), numeric_count);
            // The rows are built from the same `metrics_schema()` the
            // dataset was created with, so intern/push cannot fail.
            for (offset, label) in out.categorical.labels().iter().enumerate() {
                let attr_id = numeric_count + offset;
                #[allow(
                    clippy::expect_used,
                    reason = "rows follow the metrics_schema() the dataset was built from"
                )]
                values.push(dataset.intern(attr_id, label).expect("categorical attr"));
            }
            #[allow(
                clippy::expect_used,
                reason = "rows follow the metrics_schema() the dataset was built from"
            )]
            dataset.push_row(tick as f64, &values).expect("schema-consistent row");
        }
        LabeledDataset { data: dataset, injections: self.injections.clone() }
    }
}

/// A dataset plus its ground-truth anomaly labels.
#[derive(Debug, Clone)]
pub struct LabeledDataset {
    /// The aligned telemetry.
    pub data: Dataset,
    /// The injections that produced it.
    pub injections: Vec<Injection>,
}

impl LabeledDataset {
    /// Union of all injected anomaly windows, clipped to the dataset.
    pub fn abnormal_region(&self) -> Region {
        let n = self.data.n_rows();
        Region::from_ranges(
            self.injections.iter().map(|inj| inj.start.min(n)..(inj.start + inj.duration).min(n)),
        )
    }

    /// The window of one anomaly kind, if injected.
    pub fn region_of(&self, kind: AnomalyKind) -> Option<Region> {
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

    /// Everything not abnormal (the implicit normal region, §2.2).
    pub fn normal_region(&self) -> Region {
        self.abnormal_region().complement(self.data.n_rows())
    }

    /// Distinct anomaly kinds present, in Table 1 order.
    pub fn kinds(&self) -> Vec<AnomalyKind> {
        let mut kinds: Vec<AnomalyKind> = self.injections.iter().map(|i| i.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }

    /// Run this dataset's telemetry through a fault plan and the lossy
    /// ingestion + alignment-repair pipeline, producing the degraded trace
    /// an operator would actually have on a misbehaving collector.
    ///
    /// Ground truth survives by *wall clock*, not row index: the scenario
    /// stamps row `i` with timestamp `i`, so the injection windows remain
    /// valid time intervals even after rows are dropped, duplicated, or
    /// reordered (see [`CorruptedDataset::abnormal_region`]).
    pub fn corrupted(&self, plan: &FaultPlan) -> Result<CorruptedDataset> {
        let (degraded, report, mut warnings) = plan.apply_to_dataset(&self.data)?;
        let (repaired, repair_warnings) = repair_alignment(&degraded, &RepairOptions::default())?;
        warnings.extend(repair_warnings);
        Ok(CorruptedDataset {
            data: repaired,
            injections: self.injections.clone(),
            report,
            warnings,
        })
    }
}

/// A [`LabeledDataset`] after fault injection and best-effort repair.
#[derive(Debug, Clone)]
pub struct CorruptedDataset {
    /// The degraded (lossy-ingested, alignment-repaired) telemetry.
    pub data: Dataset,
    /// The original injections; their `start`/`duration` are *seconds*, which
    /// double as timestamps in scenario output.
    pub injections: Vec<Injection>,
    /// What the fault plan did to the trace.
    pub report: CorruptionReport,
    /// What ingestion and repair had to skip or patch up.
    pub warnings: Vec<IngestWarning>,
}

impl CorruptedDataset {
    /// Union of all injected anomaly windows, mapped onto the degraded rows
    /// by timestamp.
    pub fn abnormal_region(&self) -> Region {
        let mut region = Region::new();
        for inj in &self.injections {
            let lo = inj.start as f64;
            let hi = (inj.start + inj.duration) as f64 - 1.0;
            region = region.union(&self.data.rows_in_time_range(lo, hi));
        }
        region
    }

    /// Everything not abnormal.
    pub fn normal_region(&self) -> Region {
        self.abnormal_region().complement(self.data.n_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spike_scenario() -> Scenario {
        Scenario::new(WorkloadConfig::tpcc_default(), 150, 11).with_injection(Injection::new(
            AnomalyKind::WorkloadSpike,
            60,
            40,
        ))
    }

    #[test]
    fn run_produces_full_dataset() {
        let labeled = spike_scenario().run();
        assert_eq!(labeled.data.n_rows(), 150);
        assert_eq!(labeled.data.schema().len(), metrics_schema().len());
        assert_eq!(labeled.data.timestamps()[0], 0.0);
        assert_eq!(labeled.data.timestamps()[149], 149.0);
    }

    #[test]
    fn regions_partition_the_dataset() {
        let labeled = spike_scenario().run();
        let abnormal = labeled.abnormal_region();
        let normal = labeled.normal_region();
        assert_eq!(abnormal.intervals(), vec![60..100]);
        assert_eq!(abnormal.len() + normal.len(), 150);
        assert!(abnormal.intersect(&normal).is_empty());
    }

    #[test]
    fn region_of_filters_by_kind() {
        let labeled = spike_scenario().run();
        assert!(labeled.region_of(AnomalyKind::WorkloadSpike).is_some());
        assert!(labeled.region_of(AnomalyKind::CpuSaturation).is_none());
        assert_eq!(labeled.kinds(), vec![AnomalyKind::WorkloadSpike]);
    }

    #[test]
    fn injection_window_clipped_to_duration() {
        let labeled = Scenario::new(WorkloadConfig::tpcc_default(), 100, 3)
            .with_injection(Injection::new(AnomalyKind::CpuSaturation, 90, 40))
            .run();
        assert_eq!(labeled.abnormal_region().intervals(), vec![90..100]);
    }

    #[test]
    fn anomaly_moves_the_latency_needle() {
        let labeled = spike_scenario().run_with_noise(NoiseModel::none());
        let latency = labeled.data.numeric_by_name("txn_avg_latency_ms").unwrap();
        let abnormal = labeled.abnormal_region();
        let normal_mean = dbsherlock_telemetry::stats::mean(
            &labeled.normal_region().indices().iter().map(|&i| latency[i]).collect::<Vec<_>>(),
        );
        let abnormal_mean = dbsherlock_telemetry::stats::mean(
            &abnormal.indices().iter().map(|&i| latency[i]).collect::<Vec<_>>(),
        );
        assert!(
            abnormal_mean > normal_mean * 1.5,
            "spike should hurt latency: normal {normal_mean:.2} abnormal {abnormal_mean:.2}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = spike_scenario().run();
        let b = spike_scenario().run();
        assert_eq!(
            a.data.numeric_by_name("txn_throughput").unwrap(),
            b.data.numeric_by_name("txn_throughput").unwrap()
        );
    }

    #[test]
    fn corrupted_trace_keeps_time_based_truth() {
        use dbsherlock_telemetry::faults::{FaultKind, FaultPlan};
        let labeled = spike_scenario().run();
        let plan = FaultPlan::single(FaultKind::DropRows, 0.2, 17);
        let corrupted = labeled.corrupted(&plan).unwrap();
        assert!(corrupted.data.n_rows() < 150);
        assert!(corrupted.report.count(FaultKind::DropRows) > 0);
        let abnormal = corrupted.abnormal_region();
        // Every surviving abnormal row has a timestamp inside the window.
        assert!(!abnormal.is_empty());
        for &row in abnormal.indices() {
            let t = corrupted.data.timestamps()[row];
            assert!((60.0..100.0).contains(&t), "timestamp {t}");
        }
        // Dropping 20% of rows leaves most of the 40-second window.
        assert!(abnormal.len() >= 20, "{}", abnormal.len());
    }

    #[test]
    fn corrupted_trace_with_duplicates_is_repaired() {
        use dbsherlock_telemetry::faults::{FaultKind, FaultPlan};
        let labeled = spike_scenario().run();
        let plan = FaultPlan::single(FaultKind::DuplicateRows, 0.4, 5);
        let corrupted = labeled.corrupted(&plan).unwrap();
        // Alignment repair collapses every duplicate back out.
        assert_eq!(corrupted.data.n_rows(), 150);
        assert!(!corrupted.warnings.is_empty());
    }

    #[test]
    fn every_fault_kind_leaves_a_diagnosable_trace() {
        use dbsherlock_telemetry::faults::{FaultKind, FaultPlan};
        let labeled = spike_scenario().run();
        for kind in FaultKind::ALL {
            let plan = FaultPlan::single(kind, 0.1, 23);
            let corrupted = labeled.corrupted(&plan).unwrap();
            assert!(corrupted.data.n_rows() > 100, "{kind}: lost too much data");
            assert!(!corrupted.abnormal_region().is_empty(), "{kind}: truth vanished");
        }
    }
}
