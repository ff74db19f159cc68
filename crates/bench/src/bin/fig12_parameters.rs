//! Figure 12 (Appendix D): sensitivity to the number of partitions `R`,
//! the anomaly distance multiplier `δ`, and the normalized difference
//! threshold `θ`.
//!
//! Setup per the paper: merged models from 10 datasets, confidence on the
//! held-out dataset; (a) also prints total predicate-generation compute
//! time across the corpus at each `R`. That time is one unrepeated
//! wall-clock sample, so it stays out of the JSON: two runs write the
//! same `results/fig12_parameters.json`.

use std::time::Instant;

use dbsherlock_bench::{
    merged_model, of_kind, pct, predicates_for, tpcc_corpus, write_json, Table,
};
use dbsherlock_core::SherlockParams;
use dbsherlock_simulator::AnomalyKind;

/// Mean correct-model confidence (%) and mean predicate count under
/// `params`, via leave-one-out merged-10 models (held-out variants 2, 5
/// and 8 to keep the sweep affordable; `--full` sweeps are unnecessary —
/// the trend is stable).
fn confidence_under(params: &SherlockParams) -> (f64, f64) {
    let corpus = tpcc_corpus();
    let mut conf_sum = 0.0;
    let mut pred_sum = 0usize;
    let mut n = 0usize;
    for held_out in [2usize, 5, 8] {
        for &kind in &AnomalyKind::ALL {
            let entries = of_kind(corpus, kind);
            let train: Vec<_> = entries
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != held_out)
                .map(|(_, e)| *e)
                .collect();
            let model = merged_model(&train, params, None);
            let test = &entries[held_out].labeled;
            let conf = model.confidence(
                &test.data,
                &test.abnormal_region(),
                &test.normal_region(),
                params,
            );
            conf_sum += conf;
            pred_sum += model.predicates.len();
            n += 1;
        }
    }
    (conf_sum / n as f64 * 100.0, pred_sum as f64 / n as f64)
}

/// Wall-clock for generating predicates over one dataset per class.
fn generation_time(params: &SherlockParams) -> f64 {
    let corpus = tpcc_corpus();
    let start = Instant::now();
    for &kind in &AnomalyKind::ALL {
        for entry in of_kind(corpus, kind).iter().take(3) {
            let _ = predicates_for(&entry.labeled, params, None);
        }
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let base = SherlockParams::for_merging();

    let mut table_a = Table::new(
        "Figure 12a — number of partitions (R): confidence & compute time",
        &["R", "Avg confidence", "Generation time (s, 30 datasets, one unrepeated sample)"],
    );
    let mut json_a = Vec::new();
    for r in [125usize, 250, 500, 1000, 2000] {
        let params = base.clone().with_partitions(r);
        let (conf, _) = confidence_under(&params);
        let secs = generation_time(&params);
        table_a.row(vec![r.to_string(), pct(conf), format!("{secs:.3}")]);
        json_a.push(serde_json::json!({"r": r, "confidence_pct": conf}));
    }
    table_a.print();

    let mut table_b = Table::new(
        "Figure 12b — anomaly distance multiplier (δ): confidence",
        &["delta", "Avg confidence"],
    );
    let mut json_b = Vec::new();
    for delta in [0.1, 0.5, 1.0, 5.0, 10.0] {
        let params = base.clone().with_delta(delta);
        let (conf, _) = confidence_under(&params);
        table_b.row(vec![format!("{delta}"), pct(conf)]);
        json_b.push(serde_json::json!({"delta": delta, "confidence_pct": conf}));
    }
    table_b.print();

    let mut table_c = Table::new(
        "Figure 12c — normalized difference threshold (θ): confidence & #predicates",
        &["theta", "Avg confidence", "Avg # predicates"],
    );
    let mut json_c = Vec::new();
    for theta in [0.01, 0.05, 0.1, 0.2, 0.4] {
        let params = base.clone().with_theta(theta);
        let (conf, preds) = confidence_under(&params);
        table_c.row(vec![format!("{theta}"), pct(conf), format!("{preds:.1}")]);
        json_c.push(serde_json::json!({
            "theta": theta, "confidence_pct": conf, "predicates": preds,
        }));
    }
    table_c.print();

    println!(
        "\nPaper: R > 1000 costs much more time without confidence gains; δ > 1 favours\n  specific predicates and higher confidence; larger θ prunes predicates and\n  helps slightly until θ = 0.4, where it filters almost everything."
    );
    write_json(
        "fig12_parameters",
        &serde_json::json!({"r": json_a, "delta": json_b, "theta": json_c}),
    );
}
