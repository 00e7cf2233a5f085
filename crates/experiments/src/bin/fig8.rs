//! Figure 8: top-k accuracy of the random-forest scheduler model against
//! the most-available-cluster baseline, k = 1…9.
//!
//! Paper shape targets: the model beats the baseline at every k (asserted
//! for every site and every k), reaching
//! ≈65% at k=5 vs ≈22% for the baseline, and holdout accuracy close to
//! the cross-validated accuracy (robustness to over-fitting).

use starsense_core::model::{default_grid, train_and_evaluate};
use starsense_core::report::{csv, num, pct, text_table};
use starsense_core::vantage::paper_terminals;
use starsense_experiments::{
    slots_from_env, standard_campaign, standard_constellation, write_artifact, WORLD_SEED,
};

fn main() {
    println!("== Figure 8: scheduler model vs baseline (top-k accuracy) ==\n");
    let constellation = standard_constellation();
    let slots = slots_from_env(2400);
    let obs = standard_campaign(&constellation, slots);
    let names: Vec<String> = paper_terminals().iter().map(|t| t.name.clone()).collect();
    let grid = default_grid();

    let mut csv_rows = Vec::new();
    for (tid, name) in names.iter().enumerate() {
        let eval = train_and_evaluate(&obs, tid, &grid, WORLD_SEED ^ tid as u64);
        let mut rows = Vec::new();
        for (i, &k) in eval.k_values.iter().enumerate() {
            rows.push(vec![
                k.to_string(),
                pct(eval.rf_top_k[i]),
                pct(eval.baseline_top_k[i]),
                num(eval.rf_top_k[i] / eval.baseline_top_k[i].max(1e-9), 2),
            ]);
            csv_rows.push(vec![
                name.clone(),
                k.to_string(),
                format!("{:.4}", eval.rf_top_k[i]),
                format!("{:.4}", eval.baseline_top_k[i]),
            ]);
        }
        println!(
            "--- {name} ({} train rows, {} holdout rows, {} clusters) ---",
            eval.n_train, eval.n_holdout, eval.n_classes
        );
        println!("{}", text_table(&["k", "RF model", "baseline", "ratio"], &rows));
        println!(
            "cv accuracy {} vs holdout top-1 {} vs OOB {} (over-fitting checks)\n",
            pct(eval.cv_accuracy),
            pct(eval.holdout_accuracy),
            eval.oob_accuracy.map(pct).unwrap_or_else(|| "n/a".into())
        );

        for (i, &k) in eval.k_values.iter().enumerate() {
            assert!(
                eval.rf_top_k[i] > eval.baseline_top_k[i],
                "{name}: model must beat baseline at k={k} ({} vs {})",
                pct(eval.rf_top_k[i]),
                pct(eval.baseline_top_k[i])
            );
        }
    }
    println!("({slots} slots per location; paper: RF ≈65% vs baseline ≈22% at k=5)");

    write_artifact("fig8_topk.csv", &csv(&["location", "k", "rf", "baseline"], &csv_rows));
}
