//! Table 6 (Appendix D): contribution of the Partition Filtering and
//! Filling-the-Gaps steps to overall accuracy.
//!
//! Single-model setup as in §8.3, with the two steps individually and
//! jointly disabled.

use dbsherlock_bench::{diagnose, pct, repository_from, tpcc_corpus, write_json, Table, Tally};
use dbsherlock_core::{
    try_generate_predicates, AblationFlags, ArmedBudget, CausalModel, SherlockParams,
};
use dbsherlock_simulator::{AnomalyKind, VARIATIONS};

fn run(flags: AblationFlags) -> Tally {
    let corpus = tpcc_corpus();
    let params = SherlockParams::default();
    let mut tally = Tally::default();
    for train_variant in 0..VARIATIONS.len() {
        let models: Vec<_> = AnomalyKind::ALL
            .iter()
            .map(|&kind| {
                let entry = corpus
                    .iter()
                    .find(|e| e.kind == kind && e.variant == train_variant)
                    .expect("corpus cell");
                let abnormal = entry.labeled.abnormal_region();
                let normal = entry.labeled.normal_region();
                let (preds, _) = try_generate_predicates(
                    &entry.labeled.data.snapshot(),
                    &abnormal,
                    &normal,
                    &params,
                    flags,
                    &ArmedBudget::unlimited(),
                )
                .expect("unbudgeted generation");
                CausalModel::from_feedback(kind.name(), &preds)
            })
            .collect();
        let repo = repository_from(models);
        for entry in corpus.iter().filter(|e| e.variant != train_variant) {
            tally.record(&diagnose(&repo, &entry.labeled, entry.kind, &params));
        }
    }
    tally
}

fn main() {
    let rows: [(&str, AblationFlags); 4] = [
        ("Original (all 5 steps)", AblationFlags::default()),
        ("Without Filling the Gaps", AblationFlags { skip_filling: true, ..Default::default() }),
        (
            "Without Partition Filtering",
            AblationFlags { skip_filtering: true, ..Default::default() },
        ),
        (
            "Without Filling the Gaps & Partition Filtering",
            AblationFlags { skip_filtering: true, skip_filling: true },
        ),
    ];
    let mut table = Table::new(
        "Table 6 — contribution of algorithm steps",
        &["Algorithm", "Avg margin of confidence", "Accuracy (top-1)"],
    );
    let mut rows_json = Vec::new();
    for (label, flags) in rows {
        let tally = run(flags);
        table.row(vec![label.to_string(), pct(tally.mean_margin_pct()), pct(tally.top1_pct())]);
        rows_json.push(serde_json::json!({
            "algorithm": label,
            "margin_pct": tally.mean_margin_pct(),
            "top1_pct": tally.top1_pct(),
        }));
    }
    table.print();
    println!(
        "\nPaper: 37.4 margin / 94.6% with all steps; 9.3 / 10.1% without filling;\n  0.7 / 0% without filtering; 0 / 0% without both — both steps are essential."
    );
    write_json("table6_ablation", &serde_json::json!({ "rows": rows_json }));
}
