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
    format_feature_set_table, onchip_monitor_gain, run_feature_set_study, FeatureSet, PointModel,
    RegionMethod,
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

    // One study runs every (temperature, read point) cell per feature set;
    // Fig. 3 and Table IV are two averages of its cells.
    let rows = run_feature_set_study(&campaign, method, &cfg)
        .unwrap_or_else(|e| die(&format!("feature-set study: {e}")));

    // Fig. 3: per-read-point interval lengths per feature set (averaged
    // over temperatures) — the series the figure plots.
    println!("Fig. 3 series — CQR CatBoost mean interval length (mV) by read point:");
    println!(
        "{:<10} {:>14} {:>14} {:>14}",
        "stress", "Parametric", "On-chip", "Both"
    );
    for (rp, read_point) in campaign.read_points.iter().enumerate() {
        print!("{:<10}", read_point.to_string());
        for row in &rows {
            print!(" {:>14.2}", row.length_per_read_point[rp]);
        }
        println!();
    }

    // Table IV: averages across read points with the gain row.
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
