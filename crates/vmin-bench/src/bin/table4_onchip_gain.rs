//! Regenerates **Table IV and Fig. 3**: CQR CatBoost interval length with
//! three feature sets — parametric only, on-chip only, both — per
//! temperature and stress read point, plus the "on-chip monitor gain" row
//! (paper: ≈ 21% average reduction, and on-chip-only beats parametric-only
//! despite having far fewer features).
//!
//! Run: `cargo run --release -p vmin-bench --bin table4_onchip_gain [--scale quick|medium|full]`

#![forbid(unsafe_code)]

use vmin_bench::{die, Scale};
use vmin_core::{
    format_feature_set_table, onchip_monitor_gain, run_feature_set_study, run_region_cell,
    FeatureSet, PointModel, RegionMethod,
};
use vmin_silicon::Campaign;

fn main() {
    let scale = Scale::from_env_args();
    let spec = scale.dataset_spec();
    let cfg = scale.experiment_config();
    eprintln!(
        "[table4] scale {scale:?}: simulating {} chips…",
        spec.chip_count
    );
    let campaign = Campaign::run(&spec, Scale::CAMPAIGN_SEED);
    let method = RegionMethod::Cqr(PointModel::CatBoost);

    // Fig. 3: per-read-point interval lengths per feature set (averaged
    // over temperatures) — the series the figure plots.
    println!("Fig. 3 series — CQR CatBoost mean interval length (mV) by read point:");
    println!(
        "{:<10} {:>14} {:>14} {:>14}",
        "stress", "Parametric", "On-chip", "Both"
    );
    for rp in 0..campaign.read_points.len() {
        let mut row = Vec::new();
        for fs in [FeatureSet::Parametric, FeatureSet::OnChip, FeatureSet::Both] {
            let mut acc = 0.0;
            for temp_idx in 0..campaign.temperatures.len() {
                let eval = run_region_cell(&campaign, rp, temp_idx, method, fs, &cfg)
                    .unwrap_or_else(|e| die(&format!("cell rp={rp} t={temp_idx} {fs}: {e}")));
                acc += eval.mean_length;
            }
            row.push(acc / campaign.temperatures.len() as f64);
        }
        println!(
            "{:<10} {:>14.2} {:>14.2} {:>14.2}",
            campaign.read_points[rp].to_string(),
            row[0],
            row[1],
            row[2]
        );
        eprintln!("[table4] rp {rp}: done");
    }

    // Table IV: averages across read points with the gain row.
    let rows = run_feature_set_study(&campaign, method, &cfg)
        .unwrap_or_else(|e| die(&format!("feature-set study: {e}")));
    println!();
    println!("{}", format_feature_set_table(&campaign, &rows));
    let gain = onchip_monitor_gain(&rows).unwrap_or_else(|e| die(&format!("on-chip gain: {e}")));
    println!(
        "On-chip monitor gain (average): {:.2}% (paper: 21.01%)",
        gain * 100.0
    );
    let onchip = rows
        .iter()
        .find(|r| r.feature_set == FeatureSet::OnChip)
        .unwrap_or_else(|| die("the study has no on-chip row"));
    let parametric = rows
        .iter()
        .find(|r| r.feature_set == FeatureSet::Parametric)
        .unwrap_or_else(|| die("the study has no parametric row"));
    println!(
        "On-chip-only vs parametric-only: {:.2} vs {:.2} mV (paper: on-chip wins despite 10x fewer features)",
        onchip.average_length, parametric.average_length
    );
}
