//! Figure 13 (Appendix D): sensitivity of secondary-symptom pruning to the
//! independence-test threshold `κ_t`, on the synthetic SEM data of
//! Appendix F.
//!
//! For each `κ_t`, random linear causal graphs are generated; the pruning
//! decision ("this predicate is a secondary symptom") is scored against
//! graph-reachability ground truth and the average F1 is reported.

use dbsherlock_bench::eval::pruning_confusion;
use dbsherlock_bench::{pct, write_json, ExperimentArgs, Table};
use dbsherlock_causal_synth::SynthConfig;
use dbsherlock_core::{Accuracy, SherlockParams};

/// Precision/recall/F1 of pruning decisions over `runs` random graphs at
/// one κ_t.
fn prune_f1(kappa_t: f64, runs: usize, seed: u64) -> (f64, f64, f64) {
    // Low θ and SP floor: the synthetic SEM experiment evaluates the
    // pruning decision, so predicate generation should be permissive.
    let params = SherlockParams::builder()
        .kappa_t(kappa_t)
        .theta(0.01)
        .min_separation_power(0.0)
        .build()
        .expect("sweep parameters are in range");
    let (tp, fp, fn_, _) = pruning_confusion(&SynthConfig::default(), &params, runs, seed)
        .expect("synthetic rules are consistent");
    let acc = Accuracy::of_counts(tp, fp, fn_);
    (acc.precision * 100.0, acc.recall * 100.0, acc.f1 * 100.0)
}

fn main() {
    let args = ExperimentArgs::parse();
    let runs = args.repeats_or(300, 2000);
    let mut table = Table::new(
        "Figure 13 — pruning F1 vs independence-test threshold (κ_t)",
        &["kappa_t", "Precision", "Recall", "F1"],
    );
    let mut rows_json = Vec::new();
    for kappa_t in [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30] {
        let (p, r, f1) = prune_f1(kappa_t, runs, 0xF13);
        table.row(vec![format!("{kappa_t}"), pct(p), pct(r), pct(f1)]);
        rows_json.push(serde_json::json!({
            "kappa_t": kappa_t, "precision_pct": p, "recall_pct": r, "f1_pct": f1,
        }));
    }
    table.print();
    println!(
        "\nPaper: F1 peaks at κ_t = 0.15 (the default); very small κ_t over-prunes\n  independent attributes, large κ_t under-prunes."
    );
    write_json("fig13_kappa", &serde_json::json!({ "runs": runs, "rows": rows_json }));
}
