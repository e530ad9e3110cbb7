//! Regenerates **Table III**: average interval length (mV) and coverage (%)
//! of SCAN Vmin prediction intervals for the nine region predictors — GP,
//! QR×{LR, NN, XGBoost, CatBoost}, CQR×{same} — at α = 0.1 across all six
//! stress read points and three temperatures.
//!
//! Shape expectations vs. the paper (§IV-F):
//! - GP and all QR variants under-cover (< 90%) on test folds;
//! - QR CatBoost collapses to near-zero-width intervals with very low
//!   coverage;
//! - every CQR variant restores ≈ 90% coverage;
//! - CQR CatBoost attains the shortest intervals among the CQR family.
//!
//! Run: `cargo run --release -p vmin-bench --bin table3_region_prediction [--scale quick|medium|full]`

#![forbid(unsafe_code)]

use vmin_bench::{die, Scale};
use vmin_core::{
    assemble_dataset, format_region_table, run_region_cell_on, FeatureSet, RegionEval, RegionMethod,
};
use vmin_silicon::Campaign;

fn main() {
    let scale = Scale::from_env_args();
    let spec = scale.dataset_spec();
    let cfg = scale.experiment_config();
    eprintln!(
        "[table3] scale {scale:?}: simulating {} chips…",
        spec.chip_count
    );
    let campaign = Campaign::run(&spec, Scale::CAMPAIGN_SEED);

    let methods = RegionMethod::ALL;
    // Accumulate per-method summaries across every cell for the wrap-up.
    let mut totals: Vec<(RegionMethod, f64, f64)> =
        methods.iter().map(|&m| (m, 0.0, 0.0)).collect();

    for rp in 0..campaign.read_points.len() {
        // All nine methods score the identical feature matrix per cell:
        // assemble each (read point, temperature) dataset once and share it
        // across the method sweep (scores are unchanged — see
        // `run_region_cell_on`).
        let datasets: Vec<_> = (0..campaign.temperatures.len())
            .map(|temp_idx| {
                assemble_dataset(&campaign, rp, temp_idx, FeatureSet::Both)
                    .unwrap_or_else(|e| die(&format!("assemble rp={rp} t={temp_idx}: {e}")))
            })
            .collect();
        let mut results: Vec<Vec<RegionEval>> = Vec::new();
        for (mi, &method) in methods.iter().enumerate() {
            let mut row = Vec::new();
            for (temp_idx, ds) in datasets.iter().enumerate() {
                let eval = run_region_cell_on(ds, method, &cfg)
                    .unwrap_or_else(|e| die(&format!("cell rp={rp} t={temp_idx} {method}: {e}")));
                totals[mi].1 += eval.mean_length;
                totals[mi].2 += eval.coverage;
                row.push(eval);
            }
            eprintln!(
                "[table3] rp {} ({}) {method}: done",
                rp, campaign.read_points[rp]
            );
            results.push(row);
        }
        println!("{}", format_region_table(&campaign, rp, &methods, &results));
    }

    let cells = (campaign.read_points.len() * campaign.temperatures.len()) as f64;
    println!("Averages across all cells (length mV | coverage %):");
    for (method, len, cov) in &totals {
        println!(
            "  {:<26} {:>8.2} | {:>5.1}",
            method.to_string(),
            len / cells,
            cov / cells * 100.0
        );
    }
}
