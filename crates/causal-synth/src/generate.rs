//! Synthetic dataset + domain-knowledge generation (paper Appendix F).
//!
//! Per run: draw a random linear causal graph, simulate 600 one-second
//! tuples (root causes `N(10, 10)` normally and `N(100, 10)` during a
//! 60-tuple contiguous abnormal block, aligned across root causes;
//! non-root variables via the SEM with `ε ~ N(0, 1)`), then derive random
//! domain-knowledge rules whose cause attributes are the root causes.
//! Ground truth: a predicate on an effect attribute *should* be pruned iff
//! the graph has a path from its rule's cause variable to it.

use dbsherlock_telemetry::{AttributeMeta, Dataset, Region, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::CausalGraph;

/// Configuration of one synthetic instance.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of variables `k` (paper uses 7).
    pub k: usize,
    /// Forward-edge probability of the random DAG.
    pub edge_prob: f64,
    /// Total tuples (paper: 600, i.e. ten minutes at 1 s).
    pub n_rows: usize,
    /// Length of the contiguous abnormal block (paper: 60).
    pub abnormal_len: usize,
    /// Effect attributes drawn per root-cause rule.
    pub effects_per_cause: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig { k: 7, edge_prob: 0.35, n_rows: 600, abnormal_len: 60, effects_per_cause: 2 }
    }
}

/// One rule `cause → effect` over attribute names (kept as plain strings
/// so this crate does not depend on the core crate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthRule {
    /// Cause attribute name.
    pub cause: String,
    /// Effect attribute name.
    pub effect: String,
}

/// A generated instance with its ground truth.
#[derive(Debug, Clone)]
pub struct SynthInstance {
    /// The telemetry-format dataset (attributes `v0..v{k-1}`).
    pub dataset: Dataset,
    /// The injected abnormal block.
    pub abnormal: Region,
    /// The generating graph.
    pub graph: CausalGraph,
    /// Indices of root cause variables.
    pub root_causes: Vec<usize>,
    /// The randomly generated domain knowledge.
    pub rules: Vec<SynthRule>,
}

/// Attribute name of variable `i`.
pub fn var_name(i: usize) -> String {
    format!("v{i}")
}

impl SynthInstance {
    /// Generate one instance.
    #[allow(
        clippy::indexing_slicing,
        reason = "values and graph.parents have config.k entries; parent ids index values"
    )]
    pub fn generate(config: &SynthConfig, seed: u64) -> SynthInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = CausalGraph::random(config.k, config.edge_prob, &mut rng);
        let root_causes = graph.root_causes();

        // Abnormal block position: anywhere fully inside the run.
        let max_start = config.n_rows - config.abnormal_len;
        let start = rng.random_range(0..=max_start);
        let abnormal = Region::from_range(start..start + config.abnormal_len);

        // `var_name` enumerates distinct names, so construction cannot fail.
        #[allow(
            clippy::expect_used,
            reason = "var_name enumerates distinct names, so the schema cannot be rejected"
        )]
        let schema = Schema::from_attrs((0..config.k).map(|i| AttributeMeta::numeric(var_name(i))))
            .expect("unique names");
        let mut dataset = Dataset::new(schema);
        let mut values = vec![0.0_f64; config.k];
        for row in 0..config.n_rows {
            let is_abnormal = abnormal.contains(row);
            for j in 0..config.k {
                values[j] = if graph.parents[j].is_empty() {
                    // Root: anomalous distribution only for root causes of
                    // the effect variable, and only inside the block.
                    let mean = if is_abnormal && root_causes.contains(&j) { 100.0 } else { 10.0 };
                    normal(&mut rng, mean, 10.0)
                } else {
                    let linear: f64 = graph.parents[j].iter().map(|&(i, c)| c * values[i]).sum();
                    linear + normal(&mut rng, 0.0, 1.0)
                };
            }
            let row_values: Vec<Value> = values.iter().map(|&v| Value::Num(v)).collect();
            // Rows mirror the schema built above, so push cannot fail.
            #[allow(
                clippy::expect_used,
                reason = "rows mirror the schema built above, so push cannot fail"
            )]
            dataset.push_row(row as f64, &row_values).expect("schema-consistent");
        }

        // Domain knowledge: every root cause becomes the cause of
        // `effects_per_cause` rules towards random other attributes,
        // honouring the no-symmetric-pair condition.
        let mut rules: Vec<SynthRule> = Vec::new();
        for &cause in &root_causes {
            let mut added = 0;
            let mut guard = 0;
            while added < config.effects_per_cause && guard < 50 {
                guard += 1;
                let effect = rng.random_range(0..config.k);
                if effect == cause {
                    continue;
                }
                let rule = SynthRule { cause: var_name(cause), effect: var_name(effect) };
                let symmetric =
                    rules.iter().any(|r| r.cause == rule.effect && r.effect == rule.cause);
                if symmetric || rules.contains(&rule) {
                    continue;
                }
                rules.push(rule);
                added += 1;
            }
        }

        SynthInstance { dataset, abnormal, graph, root_causes, rules }
    }

    /// Ground truth for attribute `attr`:
    /// * `Some(true)` — it is an effect attribute of some rule whose cause
    ///   reaches it in the graph (a true secondary symptom: *should be
    ///   pruned*, App. F's "Actual Positive");
    /// * `Some(false)` — an effect attribute no rule-cause reaches
    ///   (*should be kept*, "Actual Negative");
    /// * `None` — not an effect attribute of any rule (outside the
    ///   confusion matrix).
    pub fn should_prune(&self, attr: &str) -> Option<bool> {
        let mut is_effect = false;
        for rule in &self.rules {
            if rule.effect != attr {
                continue;
            }
            is_effect = true;
            let cause_idx = parse_var(&rule.cause)?;
            let effect_idx = parse_var(&rule.effect)?;
            if self.graph.reaches(cause_idx, effect_idx) {
                return Some(true);
            }
        }
        if is_effect {
            Some(false)
        } else {
            None
        }
    }
}

fn parse_var(name: &str) -> Option<usize> {
    name.strip_prefix('v')?.parse().ok()
}

/// Box–Muller normal sampling (kept local; the simulator's copy lives in a
/// crate this one doesn't depend on).
fn normal(rng: &mut StdRng, mean: f64, std_dev: f64) -> f64 {
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    mean + std_dev * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_telemetry::stats;

    #[test]
    fn instance_has_expected_shape() {
        let inst = SynthInstance::generate(&SynthConfig::default(), 42);
        assert_eq!(inst.dataset.n_rows(), 600);
        assert_eq!(inst.dataset.schema().len(), 7);
        assert_eq!(inst.abnormal.len(), 60);
        assert_eq!(inst.abnormal.intervals().len(), 1);
        assert!(!inst.root_causes.is_empty());
        assert!(!inst.rules.is_empty());
    }

    #[test]
    fn root_causes_shift_during_the_block() {
        let inst = SynthInstance::generate(&SynthConfig::default(), 7);
        let rc = inst.root_causes[0];
        let col = inst.dataset.numeric(rc).unwrap();
        let abnormal_vals: Vec<f64> = inst.abnormal.indices().iter().map(|&r| col[r]).collect();
        let normal_vals: Vec<f64> =
            inst.abnormal.complement(600).indices().iter().map(|&r| col[r]).collect();
        assert!((stats::mean(&abnormal_vals) - 100.0).abs() < 10.0);
        assert!((stats::mean(&normal_vals) - 10.0).abs() < 5.0);
    }

    #[test]
    fn effect_variable_inherits_the_anomaly() {
        let inst = SynthInstance::generate(&SynthConfig::default(), 11);
        let effect = inst.graph.effect_variable();
        let col = inst.dataset.numeric(effect).unwrap();
        let abnormal_mean =
            stats::mean(&inst.abnormal.indices().iter().map(|&r| col[r]).collect::<Vec<_>>());
        let normal_mean = stats::mean(
            &inst.abnormal.complement(600).indices().iter().map(|&r| col[r]).collect::<Vec<_>>(),
        );
        assert!(
            (abnormal_mean - normal_mean).abs() > 10.0,
            "effect should move: {abnormal_mean} vs {normal_mean}"
        );
    }

    #[test]
    fn rules_have_root_causes_as_causes_and_no_symmetric_pairs() {
        for seed in 0..20 {
            let inst = SynthInstance::generate(&SynthConfig::default(), seed);
            for rule in &inst.rules {
                let c = parse_var(&rule.cause).unwrap();
                assert!(inst.root_causes.contains(&c));
                assert!(!inst
                    .rules
                    .iter()
                    .any(|r| r.cause == rule.effect && r.effect == rule.cause));
            }
        }
    }

    #[test]
    fn ground_truth_follows_reachability() {
        let inst = SynthInstance::generate(&SynthConfig::default(), 3);
        for rule in &inst.rules {
            let truth = inst.should_prune(&rule.effect);
            assert!(truth.is_some());
            let cause = parse_var(&rule.cause).unwrap();
            let effect = parse_var(&rule.effect).unwrap();
            if inst.graph.reaches(cause, effect) {
                assert_eq!(truth, Some(true));
            }
        }
        assert_eq!(inst.should_prune("v999"), None);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SynthInstance::generate(&SynthConfig::default(), 5);
        let b = SynthInstance::generate(&SynthConfig::default(), 5);
        assert_eq!(a.dataset.numeric(0).unwrap(), b.dataset.numeric(0).unwrap());
        assert_eq!(a.rules, b.rules);
    }
}
