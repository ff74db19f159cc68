//! Shared evaluation drivers: model construction, ranking, accuracy and
//! margin bookkeeping.

use dbsherlock_causal_synth::{SynthConfig, SynthInstance};
use dbsherlock_core::{
    generate_predicates, CausalModel, DomainKnowledge, GeneratedPredicate, ModelRepository,
    RankedCause, Rule, SherlockError, SherlockParams,
};
use dbsherlock_simulator::{AnomalyKind, CorpusEntry, LabeledDataset};
use dbsherlock_telemetry::Region;

/// Generate the (optionally domain-pruned) predicates for a labeled
/// dataset's ground-truth regions.
pub fn predicates_for(
    labeled: &LabeledDataset,
    params: &SherlockParams,
    domain: Option<&DomainKnowledge>,
) -> Vec<GeneratedPredicate> {
    let abnormal = labeled.abnormal_region();
    let normal = labeled.normal_region();
    let raw = generate_predicates(&labeled.data, &abnormal, &normal, params);
    match domain {
        Some(kb) => kb.prune(&labeled.data, raw, params),
        None => raw,
    }
}

/// Build a single-dataset causal model for an anomaly class (§8.3 setup).
pub fn single_model(
    entry: &CorpusEntry,
    params: &SherlockParams,
    domain: Option<&DomainKnowledge>,
) -> CausalModel {
    let predicates = predicates_for(&entry.labeled, params, domain);
    CausalModel::from_feedback(entry.kind.name(), &predicates)
}

/// Build a merged causal model for an anomaly class from several training
/// datasets (§8.5 setup; the paper uses θ = 0.05 here). `entries` must not
/// be empty.
#[allow(
    clippy::expect_used,
    reason = "documented precondition: callers pass at least one training dataset"
)]
pub fn merged_model(
    entries: &[&CorpusEntry],
    params: &SherlockParams,
    domain: Option<&DomainKnowledge>,
) -> CausalModel {
    let models: Vec<CausalModel> =
        entries.iter().map(|e| single_model(e, params, domain)).collect();
    dbsherlock_core::merge_all(models.iter()).expect("at least one training dataset")
}

/// Secondary-symptom pruning scored against ground truth (Appendix F):
/// for each of `runs` synthetic SEM instances (seeds `seed`, `seed + 1`,
/// …), generate predicates with `params`, prune them with the instance's
/// rules, and count each decision the graph can judge. Returns
/// `(tp, fp, fn, tn)`, where positive means "pruned" and actual positive
/// means "should be pruned".
pub fn pruning_confusion(
    config: &SynthConfig,
    params: &SherlockParams,
    runs: usize,
    seed: u64,
) -> Result<(usize, usize, usize, usize), SherlockError> {
    let mut counts = (0, 0, 0, 0);
    for run in 0..runs {
        let inst = SynthInstance::generate(config, seed.wrapping_add(run as u64));
        let normal = inst.abnormal.complement(inst.dataset.n_rows());
        let raw = generate_predicates(&inst.dataset, &inst.abnormal, &normal, params);
        let kb = DomainKnowledge::new(
            inst.rules.iter().map(|r| Rule::new(r.cause.clone(), r.effect.clone())),
        )?;
        let survivors = kb.prune(&inst.dataset, raw.clone(), params);
        for generated in &raw {
            let attr = &generated.predicate.attr;
            let Some(should_prune) = inst.should_prune(attr) else { continue };
            let was_pruned = !survivors.iter().any(|s| &s.predicate.attr == attr);
            match (was_pruned, should_prune) {
                (true, true) => counts.0 += 1,
                (true, false) => counts.1 += 1,
                (false, true) => counts.2 += 1,
                (false, false) => counts.3 += 1,
            }
        }
    }
    Ok(counts)
}

/// Build one repository with exactly one model per anomaly class.
pub fn repository_from(models: impl IntoIterator<Item = CausalModel>) -> ModelRepository {
    let mut repo = ModelRepository::new();
    for model in models {
        // `add` would merge same-cause models; experiment setups construct
        // one per cause up front, so plain adds are equivalent.
        repo.add(model);
    }
    repo
}

/// Outcome of diagnosing one test dataset against a repository.
#[derive(Debug, Clone)]
pub struct DiagnosisOutcome {
    /// Ranked causes, best first.
    pub ranked: Vec<RankedCause>,
    /// Position of the correct cause (0 = top), if present.
    pub correct_rank: Option<usize>,
    /// Confidence of the correct cause.
    pub correct_confidence: f64,
    /// Margin: correct confidence − best incorrect confidence.
    pub margin: f64,
}

/// Diagnose `labeled` with its ground-truth abnormal region against
/// `repo`, scoring correctness for `truth` (the injected anomaly class).
pub fn diagnose(
    repo: &ModelRepository,
    labeled: &LabeledDataset,
    truth: AnomalyKind,
    params: &SherlockParams,
) -> DiagnosisOutcome {
    diagnose_with_region(repo, labeled, &labeled.abnormal_region(), truth, params)
}

/// [`diagnose`] with an explicit abnormal region (used by the robustness
/// and auto-detection experiments, Appendices C & E).
pub fn diagnose_with_region(
    repo: &ModelRepository,
    labeled: &LabeledDataset,
    abnormal: &Region,
    truth: AnomalyKind,
    params: &SherlockParams,
) -> DiagnosisOutcome {
    diagnose_dataset(repo, &labeled.data, abnormal, truth, params)
}

/// [`diagnose_with_region`] against a bare dataset — the degraded-telemetry
/// experiments diagnose corrupted traces that no longer carry their
/// [`LabeledDataset`] wrapper.
pub fn diagnose_dataset(
    repo: &ModelRepository,
    dataset: &dbsherlock_telemetry::Dataset,
    abnormal: &Region,
    truth: AnomalyKind,
    params: &SherlockParams,
) -> DiagnosisOutcome {
    diagnose_named(repo, dataset, abnormal, truth.name(), params)
}

/// [`diagnose_dataset`] with the ground-truth cause as a plain name — the
/// cluster scenario pack's causes are not [`AnomalyKind`]s, but share the
/// repository (and these tallies) with the Table 1 classes.
pub fn diagnose_named(
    repo: &ModelRepository,
    dataset: &dbsherlock_telemetry::Dataset,
    abnormal: &Region,
    truth: &str,
    params: &SherlockParams,
) -> DiagnosisOutcome {
    let abnormal = &abnormal.clip(dataset.n_rows());
    let normal = abnormal.complement(dataset.n_rows());
    let ranked = repo.rank(dataset, abnormal, &normal, params);
    let correct_rank = ranked.iter().position(|r| r.cause == truth);
    #[allow(clippy::indexing_slicing, reason = "i is a position found in ranked")]
    let correct_confidence =
        correct_rank.map(|i| ranked[i].confidence).unwrap_or(f64::NEG_INFINITY);
    let best_incorrect = ranked
        .iter()
        .filter(|r| r.cause != truth)
        .map(|r| r.confidence)
        .fold(f64::NEG_INFINITY, f64::max);
    let margin = if best_incorrect.is_finite() && correct_confidence.is_finite() {
        correct_confidence - best_incorrect
    } else {
        0.0
    };
    DiagnosisOutcome { ranked, correct_rank, correct_confidence, margin }
}

/// Accumulates top-k hit rates and margins over many diagnoses.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Diagnoses seen.
    pub total: usize,
    /// Correct cause ranked first.
    pub top1: usize,
    /// Correct cause in the top two.
    pub top2: usize,
    /// Correct cause in the top three.
    pub top3: usize,
    /// Sum of margins (correct − best incorrect).
    pub margin_sum: f64,
    /// Sum of correct-model confidences.
    pub confidence_sum: f64,
}

impl Tally {
    /// Fold one outcome in.
    pub fn record(&mut self, outcome: &DiagnosisOutcome) {
        self.total += 1;
        if let Some(rank) = outcome.correct_rank {
            if rank == 0 {
                self.top1 += 1;
            }
            if rank <= 1 {
                self.top2 += 1;
            }
            if rank <= 2 {
                self.top3 += 1;
            }
        }
        self.margin_sum += outcome.margin;
        if outcome.correct_confidence.is_finite() {
            self.confidence_sum += outcome.correct_confidence;
        }
    }

    /// Merge another tally in.
    pub fn merge(&mut self, other: &Tally) {
        self.total += other.total;
        self.top1 += other.top1;
        self.top2 += other.top2;
        self.top3 += other.top3;
        self.margin_sum += other.margin_sum;
        self.confidence_sum += other.confidence_sum;
    }

    /// Top-1 hit rate in percent.
    pub fn top1_pct(&self) -> f64 {
        percent(self.top1, self.total)
    }

    /// Top-2 hit rate in percent.
    pub fn top2_pct(&self) -> f64 {
        percent(self.top2, self.total)
    }

    /// Top-3 hit rate in percent.
    pub fn top3_pct(&self) -> f64 {
        percent(self.top3, self.total)
    }

    /// Mean margin, scaled to percentage points of confidence.
    pub fn mean_margin_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.margin_sum / self.total as f64 * 100.0
        }
    }

    /// Mean correct-model confidence, in percent.
    pub fn mean_confidence_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.confidence_sum / self.total as f64 * 100.0
        }
    }
}

fn percent(hits: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64 * 100.0
    }
}

/// Deterministic pseudo-random subset selection: picks `take` distinct
/// indices out of `n` using a seeded RNG (shared by split-based
/// experiments so every binary shuffles identically).
#[allow(clippy::indexing_slicing, reason = "take.min(n) never exceeds indices.len() == n")]
pub fn random_split(n: usize, take: usize, rng: &mut impl rand::Rng) -> (Vec<usize>, Vec<usize>) {
    let mut indices: Vec<usize> = (0..n).collect();
    // Fisher–Yates prefix shuffle.
    for i in 0..take.min(n) {
        let j = rng.random_range(i..n);
        indices.swap(i, j);
    }
    let chosen = indices[..take.min(n)].to_vec();
    let rest = indices[take.min(n)..].to_vec();
    (chosen, rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_percentages() {
        let mut t = Tally::default();
        t.record(&DiagnosisOutcome {
            ranked: vec![],
            correct_rank: Some(0),
            correct_confidence: 0.9,
            margin: 0.4,
        });
        t.record(&DiagnosisOutcome {
            ranked: vec![],
            correct_rank: Some(1),
            correct_confidence: 0.5,
            margin: -0.1,
        });
        t.record(&DiagnosisOutcome {
            ranked: vec![],
            correct_rank: None,
            correct_confidence: f64::NEG_INFINITY,
            margin: 0.0,
        });
        assert_eq!(t.total, 3);
        assert!((t.top1_pct() - 33.333).abs() < 0.01);
        assert!((t.top2_pct() - 66.666).abs() < 0.01);
        assert!((t.mean_margin_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn split_is_a_partition() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        use rand::SeedableRng;
        let (a, b) = random_split(11, 5, &mut rng);
        assert_eq!(a.len(), 5);
        assert_eq!(b.len(), 6);
        let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..11).collect::<Vec<_>>());
    }
}
