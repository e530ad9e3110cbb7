//! Regenerates **Fig. 2**: R² (and RMSE) of SCAN Vmin point prediction for
//! the five regressors — LR, GP, XGBoost, CatBoost, NN — at every stress
//! read point and test temperature, under the §IV-B protocol (4-fold CV,
//! CFS 1..=10 for LR/GP/NN with best-test-score reporting).
//!
//! Shape expectations vs. the paper (§IV-D):
//! - all non-GP models land RMSE in the few-mV range; GP is the laggard;
//! - linear regression is competitive everywhere;
//! - no single winner across degradation cells;
//! - R² does not collapse from 0 h to 1008 h (monitors carry the signal).
//!
//! Run: `cargo run --release -p vmin-bench --bin fig2_point_prediction [--scale quick|medium|full]`

#![forbid(unsafe_code)]

use vmin_bench::{die, Scale};
use vmin_core::{assemble_dataset, format_point_table, run_point_cell_on, FeatureSet, PointModel};
use vmin_silicon::Campaign;

fn main() {
    let scale = Scale::from_env_args();
    let spec = scale.dataset_spec();
    let cfg = scale.experiment_config();
    eprintln!(
        "[fig2] scale {scale:?}: simulating {} chips…",
        spec.chip_count
    );
    let campaign = Campaign::run(&spec, Scale::CAMPAIGN_SEED);

    let models = PointModel::ALL;
    let mut grand: Vec<(PointModel, f64)> = models.iter().map(|&m| (m, 0.0)).collect();
    let mut r2_by_rp: Vec<f64> = Vec::new(); // LR mean R² per read point

    for rp in 0..campaign.read_points.len() {
        // One assembled dataset per (read point, temperature) cell, shared
        // by the five-model sweep — the feature matrix is identical for all.
        let datasets: Vec<_> = (0..campaign.temperatures.len())
            .map(|temp_idx| {
                assemble_dataset(&campaign, rp, temp_idx, FeatureSet::Both)
                    .unwrap_or_else(|e| die(&format!("assemble rp={rp} t={temp_idx}: {e}")))
            })
            .collect();
        let mut results = Vec::new();
        for (mi, &model) in models.iter().enumerate() {
            let mut row = Vec::new();
            for (temp_idx, ds) in datasets.iter().enumerate() {
                let eval = run_point_cell_on(ds, model, &cfg)
                    .unwrap_or_else(|e| die(&format!("cell rp={rp} t={temp_idx} {model}: {e}")));
                grand[mi].1 += eval.r2;
                row.push(eval);
            }
            eprintln!(
                "[fig2] rp {} ({}) {model}: done",
                rp, campaign.read_points[rp]
            );
            results.push(row);
        }
        r2_by_rp.push(results[0].iter().map(|e| e.r2).sum::<f64>() / 3.0);
        println!("{}", format_point_table(&campaign, rp, &models, &results));
    }

    let cells = (campaign.read_points.len() * campaign.temperatures.len()) as f64;
    println!("Mean R² across all 18 cells:");
    for (model, sum) in &grand {
        println!("  {:<20} {:.3}", model.to_string(), sum / cells);
    }
    println!(
        "\nLR mean R² at 0 h = {:.3} vs 1008 h = {:.3} (paper: no clear reduction)",
        r2_by_rp.first().copied().unwrap_or(f64::NAN),
        r2_by_rp.last().copied().unwrap_or(f64::NAN)
    );
}
