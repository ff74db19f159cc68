//! The evaluation corpora of §8.2, Appendix A, §8.7, and Appendix E.
//!
//! * **Standard corpus**: for each of the ten anomaly classes, 11 datasets
//!   obtained by varying the anomaly duration (or its start time, for jobs
//!   whose duration cannot be controlled) from 30 to 80 seconds in steps of
//!   5 — 110 datasets, each two minutes of normal activity plus the anomaly.
//! * **Compound corpus** (§8.7): six scenarios with two or three anomalies
//!   active simultaneously.
//! * **Long corpus** (App. E): ten-minute normal runs so automatic
//!   detection has a dominant normal mass to contrast against.

use serde::{Deserialize, Serialize};

use crate::anomaly::{AnomalyKind, Injection};
use crate::config::{Benchmark, WorkloadConfig};
use crate::scenario::{LabeledDataset, Scenario};

/// Seconds of normal activity in a standard dataset (paper §8.1).
pub const NORMAL_SECS: usize = 120;
/// The 11 duration/start variations: 30, 35, ..., 80 (paper §8.2).
pub const VARIATIONS: [usize; 11] = [30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80];

/// One dataset of the standard corpus.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The induced anomaly class.
    pub kind: AnomalyKind,
    /// Variation index `0..11` (position in [`VARIATIONS`]).
    pub variant: usize,
    /// The generated telemetry with ground truth.
    pub labeled: LabeledDataset,
}

/// Identifier of a corpus entry, for serializable experiment manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EntryId {
    /// Anomaly class.
    pub kind: AnomalyKind,
    /// Variation index.
    pub variant: usize,
}

fn workload_for(benchmark: Benchmark) -> WorkloadConfig {
    match benchmark {
        Benchmark::TpccLike => WorkloadConfig::tpcc_default(),
        Benchmark::TpceLike => WorkloadConfig::tpce_default(),
    }
}

fn entry_seed(corpus_seed: u64, kind: AnomalyKind, variant: usize) -> u64 {
    // Stable per-entry seed: mix the kind's Table 1 position and variant.
    // `ALL` lists every variant, so a missing kind degrades to position 0
    // (still deterministic) instead of panicking.
    let kind_idx = AnomalyKind::ALL.iter().position(|k| *k == kind).unwrap_or(0) as u64;
    corpus_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(kind_idx * 131)
        .wrapping_add(variant as u64 + 1)
}

/// Severity of the injected anomaly for one corpus cell: real stressors
/// never hit with identical force twice, so each dataset's injection is
/// scaled by a deterministic pseudo-random factor in `[0.7, 1.3]`. This
/// is what makes a causal model learned from a single dataset imperfect
/// on other instances of the same cause — the regime in which the paper's
/// model merging (§6.2) pays off.
pub fn cell_intensity(corpus_seed: u64, kind: AnomalyKind, variant: usize) -> f64 {
    // splitmix64-style finalizer: entry_seed only varies in its low bits
    // across cells, so mix before taking high bits.
    let mut h = entry_seed(corpus_seed ^ 0x51DE, kind, variant);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D049BB133111EB);
    h ^= h >> 31;
    0.7 + 0.6 * ((h >> 16) % 1000) as f64 / 1000.0
}

/// Build the scenario for one `(kind, variant)` cell of the corpus.
pub fn standard_scenario(
    benchmark: Benchmark,
    kind: AnomalyKind,
    variant: usize,
    corpus_seed: u64,
) -> Scenario {
    #[allow(
        clippy::indexing_slicing,
        reason = "variant is a position in VARIATIONS (documented range 0..11)"
    )]
    let v = VARIATIONS[variant];
    // Duration-controllable anomalies vary duration at a fixed start;
    // uncontrollable jobs vary the start time at a fixed duration (§8.2).
    let (start, duration) = if kind.duration_controllable() { (60, v) } else { (v, 50) };
    let total = NORMAL_SECS + duration;
    let mut injection = Injection::new(kind, start, duration);
    injection.intensity = cell_intensity(corpus_seed, kind, variant);
    Scenario::new(workload_for(benchmark), total, entry_seed(corpus_seed, kind, variant))
        .with_injection(injection)
}

/// Generate the full 110-dataset standard corpus.
pub fn generate_corpus(benchmark: Benchmark, corpus_seed: u64) -> Vec<CorpusEntry> {
    let mut entries = Vec::with_capacity(AnomalyKind::ALL.len() * VARIATIONS.len());
    for &kind in &AnomalyKind::ALL {
        for variant in 0..VARIATIONS.len() {
            let labeled = standard_scenario(benchmark, kind, variant, corpus_seed).run();
            entries.push(CorpusEntry { kind, variant, labeled });
        }
    }
    entries
}

/// The six compound test cases of §8.7 (Figure 10's x-axis).
pub fn compound_cases() -> Vec<(&'static str, Vec<AnomalyKind>)> {
    vec![
        (
            "CPU,IO,Network Saturation",
            vec![
                AnomalyKind::CpuSaturation,
                AnomalyKind::IoSaturation,
                AnomalyKind::NetworkCongestion,
            ],
        ),
        (
            "Workload Spike + Flush Log/Table",
            vec![AnomalyKind::WorkloadSpike, AnomalyKind::FlushLogTable],
        ),
        (
            "Workload Spike + Table Restore",
            vec![AnomalyKind::WorkloadSpike, AnomalyKind::TableRestore],
        ),
        (
            "Workload Spike + CPU Saturation",
            vec![AnomalyKind::WorkloadSpike, AnomalyKind::CpuSaturation],
        ),
        (
            "Workload Spike + I/O Saturation",
            vec![AnomalyKind::WorkloadSpike, AnomalyKind::IoSaturation],
        ),
        (
            "Workload Spike + Network Congestion",
            vec![AnomalyKind::WorkloadSpike, AnomalyKind::NetworkCongestion],
        ),
    ]
}

/// Generate one compound dataset: all listed anomalies active over the same
/// 50-second window inside a two-minute normal run.
pub fn compound_dataset(benchmark: Benchmark, kinds: &[AnomalyKind], seed: u64) -> LabeledDataset {
    let duration = 50;
    let mut scenario = Scenario::new(workload_for(benchmark), NORMAL_SECS + duration, seed);
    for &kind in kinds {
        scenario = scenario.with_injection(Injection::new(kind, 60, duration));
    }
    scenario.run()
}

/// Generate the Appendix E corpus: per class, 11 datasets with ten minutes
/// of normal activity so the abnormal region is a small minority of the
/// data (a precondition of the <20%-cluster rule).
pub fn generate_long_corpus(benchmark: Benchmark, corpus_seed: u64) -> Vec<CorpusEntry> {
    const LONG_NORMAL_SECS: usize = 600;
    let mut entries = Vec::new();
    for &kind in &AnomalyKind::ALL {
        for (variant, &v) in VARIATIONS.iter().enumerate() {
            let (start, duration) =
                if kind.duration_controllable() { (300, v) } else { (200 + v, 50) };
            let total = LONG_NORMAL_SECS + duration;
            let mut injection = Injection::new(kind, start, duration);
            injection.intensity = cell_intensity(corpus_seed ^ 0xABCD, kind, variant);
            let labeled = Scenario::new(
                workload_for(benchmark),
                total,
                entry_seed(corpus_seed ^ 0xABCD, kind, variant),
            )
            .with_injection(injection)
            .run();
            entries.push(CorpusEntry { kind, variant, labeled });
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_scenarios_vary_correctly() {
        // Duration-controllable: duration varies, start fixed.
        let s0 = standard_scenario(Benchmark::TpccLike, AnomalyKind::CpuSaturation, 0, 1);
        let s10 = standard_scenario(Benchmark::TpccLike, AnomalyKind::CpuSaturation, 10, 1);
        assert_eq!(s0.injections[0].start, 60);
        assert_eq!(s0.injections[0].duration, 30);
        assert_eq!(s10.injections[0].duration, 80);
        assert_eq!(s0.duration, 150);
        assert_eq!(s10.duration, 200);
        // Start-varied job: start varies, duration fixed.
        let b0 = standard_scenario(Benchmark::TpccLike, AnomalyKind::DatabaseBackup, 0, 1);
        let b10 = standard_scenario(Benchmark::TpccLike, AnomalyKind::DatabaseBackup, 10, 1);
        assert_eq!(b0.injections[0].start, 30);
        assert_eq!(b10.injections[0].start, 80);
        assert_eq!(b0.injections[0].duration, 50);
    }

    #[test]
    fn intensity_varies_within_bounds_and_is_deterministic() {
        let mut seen = Vec::new();
        for &kind in &AnomalyKind::ALL {
            for variant in 0..VARIATIONS.len() {
                let a = cell_intensity(7, kind, variant);
                let b = cell_intensity(7, kind, variant);
                assert_eq!(a, b, "intensity must be deterministic");
                assert!((0.7..=1.3).contains(&a), "intensity {a} out of range");
                seen.push(a);
            }
        }
        // Not all cells share the same severity.
        let min = seen.iter().copied().fold(f64::INFINITY, f64::min);
        let max = seen.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.3, "intensities too uniform: {min}..{max}");
    }

    #[test]
    fn seeds_differ_across_cells() {
        let a = entry_seed(7, AnomalyKind::CpuSaturation, 0);
        let b = entry_seed(7, AnomalyKind::CpuSaturation, 1);
        let c = entry_seed(7, AnomalyKind::IoSaturation, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, entry_seed(7, AnomalyKind::CpuSaturation, 0));
    }

    #[test]
    fn compound_cases_match_figure_10() {
        let cases = compound_cases();
        assert_eq!(cases.len(), 6);
        assert_eq!(cases[0].1.len(), 3);
        assert!(cases[1..].iter().all(|(_, ks)| ks.len() == 2));
        assert!(cases[1..].iter().all(|(_, ks)| ks[0] == AnomalyKind::WorkloadSpike));
    }

    #[test]
    fn compound_dataset_has_overlapping_truth() {
        let kinds = [AnomalyKind::WorkloadSpike, AnomalyKind::CpuSaturation];
        let labeled = compound_dataset(Benchmark::TpccLike, &kinds, 3);
        assert_eq!(labeled.kinds(), kinds);
        let spike = labeled.region_of(AnomalyKind::WorkloadSpike).unwrap();
        let cpu = labeled.region_of(AnomalyKind::CpuSaturation).unwrap();
        assert_eq!(spike, cpu);
        assert_eq!(labeled.abnormal_region().len(), 50);
    }

    // Full-corpus generation is exercised by the bench harness and
    // integration tests; here we just check one cell end-to-end to keep
    // unit-test time low.
    #[test]
    fn one_cell_generates() {
        let s = standard_scenario(Benchmark::TpccLike, AnomalyKind::LockContention, 4, 99);
        let labeled = s.run();
        assert_eq!(labeled.data.n_rows(), NORMAL_SECS + VARIATIONS[4]);
        assert_eq!(labeled.abnormal_region().len(), VARIATIONS[4]);
    }
}
