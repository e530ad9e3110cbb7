//! Prints the bit patterns of every CQR interval for one fixed region
//! cell — once per GBT-family booster, both fitted by histogram-binned
//! split finding — so CI can run the binary at two thread counts and
//! `diff` the outputs (the binned path must be bit-identical across
//! `VMIN_THREADS`), and compare the `models.hist.*` counters of the two
//! trace exports.
//!
//! Kernel drift against the exact greedy scans is caught by
//! `vmin-models`' unit tests, which keep those scans as `#[cfg(test)]`
//! oracles (the CatBoost cell's bitwise ratchet among them).
//!
//! Run: `cargo run --release -p vmin-bench --bin hist_smoke`

#![forbid(unsafe_code)]

use vmin_bench::die;
use vmin_core::{
    assemble_dataset, FeatureSet, ModelConfig, PointModel, RegionMethod, VminPredictor,
};
use vmin_data::Dataset;
use vmin_silicon::{Campaign, DatasetSpec};

/// Fits one CQR cell and returns every interval as `(lo, hi)`.
fn cell_intervals(ds: &Dataset, model: PointModel) -> Vec<(f64, f64)> {
    let predictor = VminPredictor::fit(
        ds,
        RegionMethod::Cqr(model),
        0.1,
        0.25,
        42,
        &ModelConfig::fast(),
    )
    .unwrap_or_else(|e| die(&format!("fit {model:?}: {e}")));
    (0..ds.n_samples())
        .map(|i| {
            let iv = predictor
                .interval(ds.sample(i))
                .unwrap_or_else(|e| die(&format!("interval {model:?} {i}: {e}")));
            (iv.lo(), iv.hi())
        })
        .collect()
}

fn main() {
    let campaign = Campaign::run(&DatasetSpec::small(), 7);
    let ds = assemble_dataset(&campaign, 0, 1, FeatureSet::Both)
        .unwrap_or_else(|e| die(&format!("assemble: {e}")));

    // Stdout: interval bits for both boosters — this is what CI diffs
    // across thread counts.
    for model in [PointModel::Xgboost, PointModel::CatBoost] {
        for (i, (lo, hi)) in cell_intervals(&ds, model).iter().enumerate() {
            println!("{model:?} {i} {:016x} {:016x}", lo.to_bits(), hi.to_bits());
        }
    }

    // Metrics accumulated above (models.hist.* counters and spans);
    // written, and its path logged, only when `VMIN_TRACE_JSON` names a path.
    vmin_trace::export::write_json_if_configured(vmin_par::current_threads());
}
