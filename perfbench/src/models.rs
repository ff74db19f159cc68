//! Inputs shared by the workloads that diagnose TPC-C-like telemetry.

use dbsherlock_core::{
    generate_predicates, CausalModel, DomainKnowledge, ExecPolicy, ModelRepository, SherlockParams,
};
use dbsherlock_simulator::{standard_scenario, AnomalyKind, Benchmark, VARIATIONS};
use dbsherlock_telemetry::{Dataset, Region};

/// The paper's parameters with every stage serial: thread fan-out on a
/// shared two-core host would measure the neighbours.
pub fn params() -> SherlockParams {
    SherlockParams::default().with_exec(ExecPolicy::Serial)
}

/// One corpus dataset with its ground truth.
pub struct Case {
    pub data: Dataset,
    pub abnormal: Region,
    pub truth: &'static str,
}

/// The 110-dataset standard corpus (ten classes × eleven variants), built
/// serially from `seed`.
pub fn corpus(seed: u64) -> Vec<Case> {
    let mut cases = Vec::with_capacity(AnomalyKind::ALL.len() * VARIATIONS.len());
    for kind in AnomalyKind::ALL {
        for variant in 0..VARIATIONS.len() {
            let labeled = standard_scenario(Benchmark::TpccLike, kind, variant, seed).run();
            let abnormal = labeled.abnormal_region();
            cases.push(Case { data: labeled.data, abnormal, truth: kind.name() });
        }
    }
    cases
}

/// Ten causal models, one per Table 1 class, each learned from variant 0
/// of its class with domain-knowledge pruning.
pub fn table1_models(seed: u64, params: &SherlockParams) -> ModelRepository {
    let domain = DomainKnowledge::mysql_linux();
    let mut repository = ModelRepository::new();
    for kind in AnomalyKind::ALL {
        let labeled = standard_scenario(Benchmark::TpccLike, kind, 0, seed).run();
        let abnormal = labeled.abnormal_region();
        let normal = labeled.normal_region();
        let raw = generate_predicates(&labeled.data, &abnormal, &normal, params);
        let predicates = domain.prune(&labeled.data, raw, params);
        repository.add(CausalModel::from_feedback(kind.name(), &predicates));
    }
    repository
}
