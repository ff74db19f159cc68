//! Table 8 (Appendix F): confusion matrix for secondary-symptom pruning on
//! synthetic linear causal graphs with known ground truth.
//!
//! Per run: a random 7-variable SEM, a 600-tuple dataset with a 60-tuple
//! anomaly on the root causes, random domain-knowledge rules; DBSherlock's
//! pruning (κ_t = 0.15) is scored against graph-reachability ground truth.
//! The paper runs 10,000 graphs; the quick default is 1,000 (`--full` for
//! the paper count).

use dbsherlock_bench::eval::pruning_confusion;
use dbsherlock_bench::{pct, write_json, ExperimentArgs, Table};
use dbsherlock_causal_synth::SynthConfig;
use dbsherlock_core::SherlockParams;

fn main() {
    let args = ExperimentArgs::parse();
    let runs = args.repeats_or(1000, 10_000);
    let params = SherlockParams::builder()
        .theta(0.01)
        .min_separation_power(0.0)
        .build()
        .expect("permissive generation parameters are in range");

    // Confusion counts: actual = should-prune (secondary symptom)?
    let (tp, fp, fn_, tn) = pruning_confusion(&SynthConfig::default(), &params, runs, 0x7AB8)
        .expect("synthetic rules are consistent");

    // Column-normalized percentages, as Table 8 reports them.
    let col = |hit: usize, miss: usize| {
        if hit + miss == 0 {
            0.0
        } else {
            hit as f64 / (hit + miss) as f64 * 100.0
        }
    };
    let mut table = Table::new(
        format!("Table 8 — secondary-symptom pruning confusion matrix ({runs} graphs)"),
        &["", "Actual Positive", "Actual Negative"],
    );
    table.row(vec!["Pruned".into(), pct(col(tp, fn_)), pct(col(fp, tn))]);
    table.row(vec!["Not Pruned".into(), pct(col(fn_, tp)), pct(col(tn, fp))]);
    table.print();
    let precision = if tp + fp == 0 { 0.0 } else { tp as f64 / (tp + fp) as f64 * 100.0 };
    let recall = col(tp, fn_);
    println!(
        "\nPaper: pruned 91.6% of actual positives and only 0.9% of actual negatives\n  (precision 91.6%, recall 99.1% as the paper words it).\nMeasured: recall {} of true secondary symptoms pruned, precision {} of\n  prunes correct; false-prune rate {}.",
        pct(recall),
        pct(precision),
        pct(col(fp, tn)),
    );
    write_json(
        "table8_synthetic_domain",
        &serde_json::json!({
            "runs": runs,
            "tp": tp, "fp": fp, "fn": fn_, "tn": tn,
            "pruned_of_actual_positive_pct": col(tp, fn_),
            "pruned_of_actual_negative_pct": col(fp, tn),
        }),
    );
}
