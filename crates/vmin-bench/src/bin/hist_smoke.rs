//! Prints the bit patterns of every CQR interval for one fixed region
//! cell — once per GBT-family booster — under the *ambient* histogram
//! switch, so CI can run the binary under `VMIN_HIST=1` at two thread
//! counts and `diff` the outputs (the binned path must be bit-identical
//! across `VMIN_THREADS`), then once under `VMIN_HIST=0` and require a
//! difference (a kill switch wired to nothing would pass the invariance
//! checks vacuously).
//!
//! Equality across the flag is *not* the contract here:
//! histogram-binned split finding is an approximation, so
//! hist-on and hist-off intervals are expected to differ in bits while
//! staying close in value. As a self-check the binary also refits the
//! CatBoost cell with the switch pinned both ways in-process and reports
//! the mean absolute interval-edge gap on stderr, failing if the two
//! paths drift apart by more than a few mV — a broken-kernel tripwire on
//! the ~600 mV Vmin scale, not an exactness bound.
//!
//! Run: `VMIN_HIST=1 cargo run --release -p vmin-bench --bin hist_smoke`

#![forbid(unsafe_code)]

use vmin_core::{
    assemble_dataset, FeatureSet, ModelConfig, PointModel, RegionMethod, VminPredictor,
};
use vmin_data::Dataset;
use vmin_silicon::{Campaign, DatasetSpec};

fn die(msg: &str) -> ! {
    eprintln!("[hist_smoke] fatal: {msg}");
    std::process::exit(1)
}

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
    eprintln!(
        "[hist_smoke] histogram splits {} (VMIN_HIST)",
        if vmin_models::hist_enabled() {
            "enabled"
        } else {
            "disabled"
        }
    );
    let campaign = Campaign::run(&DatasetSpec::small(), 7);
    let ds = assemble_dataset(&campaign, 0, 1, FeatureSet::Both)
        .unwrap_or_else(|e| die(&format!("assemble: {e}")));

    // Stdout: ambient-flag interval bits for both boosters — this is what
    // CI diffs across thread counts and across the kill switch.
    for model in [PointModel::Xgboost, PointModel::CatBoost] {
        for (i, (lo, hi)) in cell_intervals(&ds, model).iter().enumerate() {
            println!("{model:?} {i} {:016x} {:016x}", lo.to_bits(), hi.to_bits());
        }
    }

    // Stderr: in-process exact-vs-binned drift summary on the CatBoost
    // cell (the tentpole's headline booster). Both paths score the same
    // 32-border candidate set, so drift comes only from float-association
    // argmax flips on near-tied splits — sub-mV on the ~600 mV Vmin
    // scale. The bound is a broken-kernel tripwire (a real scoring bug
    // shifts edges by the interval scale, tens of mV), not an exactness
    // check: interval *quality* is enforced statistically by
    // `tests/hist_quality.rs`.
    let binned = vmin_models::with_histograms(true, || cell_intervals(&ds, PointModel::CatBoost));
    let exact = vmin_models::with_histograms(false, || cell_intervals(&ds, PointModel::CatBoost));
    if binned.len() != exact.len() || binned.is_empty() {
        die("exact/binned interval counts diverged");
    }
    let mut gap = 0.0f64;
    for ((bl, bh), (el, eh)) in binned.iter().zip(&exact) {
        gap += (bl - el).abs() + (bh - eh).abs();
    }
    let mean_gap = gap / (2.0 * binned.len() as f64);
    eprintln!("[hist_smoke] mean |binned - exact| interval edge gap: {mean_gap:.6} mV");
    if !mean_gap.is_finite() || mean_gap > 5.0 {
        die(&format!(
            "binned intervals drifted {mean_gap:.6} mV from exact (limit 5 mV)"
        ));
    }

    // Metrics accumulated above (models.hist.* counters and spans);
    // written only when `VMIN_TRACE_JSON` names a path.
    if let Some(path) = vmin_trace::export::write_json_if_configured(vmin_par::current_threads()) {
        eprintln!("[hist_smoke] trace report written to {}", path.display());
    }
}
