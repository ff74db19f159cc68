//! PerfXplain's greedy explanation search, adapted to telemetry tuples.
//!
//! The DBSherlock paper's comparison setup (§8.4):
//!
//! * query — `EXPECTED avg_latency_difference = insignificant OBSERVED
//!   avg_latency_difference = significant`, where two latencies differ
//!   *significantly* when their difference is at least 50% of the smaller;
//! * 2000 sampled pairs; scoring weight 0.8; two predicates per
//!   explanation (the settings the paper found best).
//!
//! An explanation is a conjunction of `(attribute, PairFeature)` tests over
//! pairs. Greedy selection maximizes `w · precision + (1 − w) · recall`
//! against the "observed" (significant-difference) class, PerfXplain's
//! relevance/generality trade-off.
//!
//! To score *tuples* (Fig. 9 compares tuple-level precision/recall/F1),
//! each test tuple is paired with reference tuples drawn at random from
//! the **same (unlabeled) test dataset** — PerfXplain compares executions
//! within the log being debugged and has no ground-truth normal region at
//! diagnosis time. Each pair is canonically oriented with the slower
//! tuple first (latency is observable), and a tuple is flagged abnormal
//! when the majority of its pairs satisfy the explanation. The original
//! paper stops at pair-level explanations; this lifting is ours and is
//! the same for every workload, so the comparison stays fair.

use dbsherlock_telemetry::{Dataset, Region};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::features::{feature_attributes, pair_feature, PairFeature};

/// Training settings (defaults = the paper's §8.4 choices).
#[derive(Debug, Clone)]
pub struct PerfXplainConfig {
    /// Number of pairs sampled for training.
    pub n_pairs: usize,
    /// Scoring weight `w` on precision.
    pub weight: f64,
    /// Maximum predicates in the explanation.
    pub n_predicates: usize,
    /// Latency difference significant when `|a − b| >= threshold · min`.
    pub significance: f64,
    /// Name of the performance attribute the query is about.
    pub latency_attr: String,
    /// Attributes excluded from features (performance indicators).
    pub excluded_attrs: Vec<String>,
    /// Reference tuples sampled per test tuple during classification.
    pub n_references: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PerfXplainConfig {
    fn default() -> Self {
        PerfXplainConfig {
            n_pairs: 2000,
            weight: 0.8,
            n_predicates: 2,
            significance: 0.5,
            latency_attr: "txn_avg_latency_ms".to_string(),
            excluded_attrs: vec![
                "txn_avg_latency_ms".to_string(),
                "txn_p99_latency_ms".to_string(),
            ],
            n_references: 15,
            seed: 0x9E3779B9,
        }
    }
}

/// One pair-level test.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPredicate {
    /// Attribute name.
    pub attr: String,
    /// Required comparison outcome.
    pub feature: PairFeature,
}

/// A trained PerfXplain explanation.
#[derive(Debug, Clone)]
pub struct PerfXplain {
    config: PerfXplainConfig,
    /// The learned conjunction.
    pub predicates: Vec<PairPredicate>,
}

/// One training dataset with its labeled regions.
pub struct TrainingSet<'a> {
    /// Telemetry.
    pub data: &'a Dataset,
    /// Ground-truth (or user-specified) abnormal rows.
    pub abnormal: &'a Region,
}

impl PerfXplain {
    /// Train on a collection of labeled datasets (the paper uses the 10
    /// training datasets of each test case).
    #[allow(
        clippy::indexing_slicing,
        reason = "set_idx and rows a, b are drawn in range; selected and mask hold one slot per pair"
    )]
    pub fn train(sets: &[TrainingSet<'_>], config: PerfXplainConfig) -> Option<PerfXplain> {
        let first = sets.first()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let latency_id = first.data.schema().id_of(&config.latency_attr)?;
        let excluded: Vec<&str> = config.excluded_attrs.iter().map(String::as_str).collect();
        let feature_ids = feature_attributes(first.data, &excluded);

        // Sample pairs within datasets (cross-dataset pairs would compare
        // different runs, which PerfXplain never does for one job class).
        let mut pairs: Vec<(usize, usize, usize, bool)> = Vec::with_capacity(config.n_pairs);
        for _ in 0..config.n_pairs {
            let set_idx = rng.random_range(0..sets.len());
            let set = &sets[set_idx];
            let n = set.data.n_rows();
            if n < 2 {
                continue;
            }
            let mut a = rng.random_range(0..n);
            let mut b = rng.random_range(0..n);
            if a == b {
                continue;
            }
            let latencies = set.data.numeric(latency_id)?;
            // Canonical orientation: the slower execution first, matching
            // PerfXplain's "why is A slower than B?" query form and the
            // (suspect, normal-reference) orientation used at
            // classification time.
            if latencies[b] > latencies[a] {
                std::mem::swap(&mut a, &mut b);
            }
            let (la, lb) = (latencies[a], latencies[b]);
            let significant = (la - lb).abs() >= config.significance * la.min(lb).max(1e-9);
            pairs.push((set_idx, a, b, significant));
        }

        // Greedy conjunction: pick the (attr, feature) test maximizing
        // w·precision + (1−w)·recall on the remaining selected pairs.
        let mut predicates: Vec<PairPredicate> = Vec::new();
        let mut selected: Vec<bool> = vec![true; pairs.len()];
        let observed_total = pairs.iter().filter(|p| p.3).count().max(1);
        for _ in 0..config.n_predicates {
            let mut best: Option<(f64, PairPredicate, Vec<bool>)> = None;
            for &attr_id in &feature_ids {
                for feature in [
                    PairFeature::Similar,
                    PairFeature::Greater,
                    PairFeature::Less,
                    PairFeature::Different,
                ] {
                    let mut mask = vec![false; pairs.len()];
                    let mut picked = 0usize;
                    let mut picked_observed = 0usize;
                    for (i, &(set_idx, a, b, significant)) in pairs.iter().enumerate() {
                        if !selected[i] {
                            continue;
                        }
                        if pair_feature(sets[set_idx].data, attr_id, a, b) == feature {
                            mask[i] = true;
                            picked += 1;
                            if significant {
                                picked_observed += 1;
                            }
                        }
                    }
                    if picked == 0 {
                        continue;
                    }
                    let precision = picked_observed as f64 / picked as f64;
                    let recall = picked_observed as f64 / observed_total as f64;
                    let score = config.weight * precision + (1.0 - config.weight) * recall;
                    if best.as_ref().map(|(s, _, _)| score > *s).unwrap_or(true) {
                        let attr = first.data.schema().attr(attr_id).name.clone();
                        best = Some((score, PairPredicate { attr, feature }, mask));
                    }
                }
            }
            let Some((_, predicate, mask)) = best else {
                break;
            };
            predicates.push(predicate);
            selected = mask;
        }

        Some(PerfXplain { config, predicates })
    }

    /// Does the canonically-oriented pair `(slow_row, fast_row)` of `data`
    /// satisfy the explanation?
    fn pair_matches(&self, data: &Dataset, slow_row: usize, fast_row: usize) -> bool {
        self.predicates.iter().all(|p| {
            let Some(attr) = data.schema().id_of(&p.attr) else {
                return false;
            };
            pair_feature(data, attr, slow_row, fast_row) == p.feature
        })
    }

    /// Classify every row of `test`: the row is paired with
    /// `n_references` randomly sampled rows of the same dataset (oriented
    /// slower-first via the observable latency), and flagged abnormal
    /// when the majority of its pairs satisfy the explanation —
    /// PerfXplain predicts those pairs to differ significantly.
    pub fn predict(&self, test: &Dataset) -> Region {
        if self.predicates.is_empty() || test.n_rows() < 2 {
            return Region::new();
        }
        let Ok(latencies) = test.numeric_by_name(&self.config.latency_attr) else {
            return Region::new();
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xABCD_EF01);
        let mut flagged = Vec::new();
        for row in 0..test.n_rows() {
            let mut hits = 0usize;
            let trials = self.config.n_references;
            for _ in 0..trials {
                let reference = rng.random_range(0..test.n_rows());
                if reference == row {
                    continue;
                }
                #[allow(
                    clippy::indexing_slicing,
                    reason = "reference and row are drawn from 0..n_rows(), the column length"
                )]
                let (slow, fast) = if latencies[reference] > latencies[row] {
                    (reference, row)
                } else {
                    (row, reference)
                };
                if self.pair_matches(test, slow, fast) {
                    hits += 1;
                }
            }
            if hits * 2 > trials {
                flagged.push(row);
            }
        }
        Region::from_indices(flagged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_telemetry::{AttributeMeta, Schema, Value};

    /// Latency and a `cause` attribute both jump in the abnormal window.
    fn labeled_dataset(seed_offset: f64) -> (Dataset, Region) {
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("txn_avg_latency_ms"),
            AttributeMeta::numeric("txn_p99_latency_ms"),
            AttributeMeta::numeric("cause"),
            AttributeMeta::numeric("steady"),
        ])
        .unwrap();
        let mut d = Dataset::new(schema);
        for i in 0..100 {
            let abnormal = (60..80).contains(&i);
            let jitter = ((i as f64 + seed_offset) * 0.73).sin();
            let latency = if abnormal { 100.0 } else { 10.0 } + jitter;
            let cause = if abnormal { 500.0 } else { 50.0 } + jitter * 2.0;
            d.push_row(
                i as f64,
                &[
                    Value::Num(latency),
                    Value::Num(latency * 3.0),
                    Value::Num(cause),
                    Value::Num(42.0 + jitter),
                ],
            )
            .unwrap();
        }
        (d, Region::from_range(60..80))
    }

    fn config() -> PerfXplainConfig {
        PerfXplainConfig { n_pairs: 800, n_references: 9, ..PerfXplainConfig::default() }
    }

    #[test]
    fn learns_the_causal_attribute() {
        let (d1, r1) = labeled_dataset(0.0);
        let (d2, r2) = labeled_dataset(7.0);
        let sets =
            [TrainingSet { data: &d1, abnormal: &r1 }, TrainingSet { data: &d2, abnormal: &r2 }];
        let model = PerfXplain::train(&sets, config()).unwrap();
        assert!(!model.predicates.is_empty());
        assert!(
            model.predicates.iter().any(|p| p.attr == "cause"),
            "predicates: {:?}",
            model.predicates
        );
        // Latency itself must not be used as a feature.
        assert!(model.predicates.iter().all(|p| p.attr != "txn_avg_latency_ms"));
    }

    #[test]
    fn predicts_the_abnormal_window() {
        let (d1, r1) = labeled_dataset(0.0);
        let (d2, r2) = labeled_dataset(7.0);
        let sets =
            [TrainingSet { data: &d1, abnormal: &r1 }, TrainingSet { data: &d2, abnormal: &r2 }];
        let model = PerfXplain::train(&sets, config()).unwrap();
        let (test, truth) = labeled_dataset(13.0);
        let predicted = model.predict(&test);
        let tp = predicted.intersect(&truth).len() as f64;
        let recall = tp / truth.len() as f64;
        let precision = if predicted.is_empty() { 0.0 } else { tp / predicted.len() as f64 };
        assert!(recall > 0.7, "recall {recall} ({predicted:?})");
        assert!(precision > 0.7, "precision {precision}");
    }

    #[test]
    fn empty_training_yields_none() {
        assert!(PerfXplain::train(&[], config()).is_none());
    }
}
