//! Runs a small fixed pipeline end to end and emits the `vmin-trace/v1`
//! metrics report, for CI schema validation and cross-thread-count counter
//! diffing.
//!
//! The workload is deterministic (fixed spec, fixed seeds): one small
//! campaign, one point-prediction cell and one CQR region cell. Every
//! *counter*, *gauge* and *histogram* in the report is therefore identical
//! for any `VMIN_THREADS` value; only *topology* and *timer* entries may
//! differ. `ci.sh` runs this binary at two thread counts and diffs the
//! deterministic sections line by line.
//!
//! Run: `VMIN_TRACE_JSON=trace.json cargo run --release -p vmin-bench --bin trace_report`

#![forbid(unsafe_code)]

use vmin_bench::die;
use vmin_core::{
    run_point_cell, run_region_cell, ExperimentConfig, FeatureSet, PointModel, RegionMethod,
};
use vmin_silicon::{Campaign, DatasetSpec};

fn main() {
    let spec = DatasetSpec::small();
    let cfg = ExperimentConfig::fast();
    eprintln!(
        "[trace_report] running fixed pipeline: {} chips, threads={}",
        spec.chip_count,
        vmin_par::current_threads()
    );
    let campaign = Campaign::run(&spec, 7);

    match run_point_cell(&campaign, 0, 0, PointModel::Xgboost, FeatureSet::Both, &cfg) {
        Ok(eval) => eprintln!(
            "[trace_report] point cell: r2 {:.3}, rmse {:.2}",
            eval.r2, eval.rmse
        ),
        Err(e) => die(&format!("point cell: {e}")),
    }
    match run_region_cell(
        &campaign,
        0,
        1,
        RegionMethod::Cqr(PointModel::Xgboost),
        FeatureSet::Both,
        &cfg,
    ) {
        Ok(eval) => eprintln!(
            "[trace_report] region cell: coverage {:.3}, length {:.2} mV",
            eval.coverage, eval.mean_length
        ),
        Err(e) => die(&format!("region cell: {e}")),
    }

    match vmin_trace::export::write_json_if_configured(vmin_par::current_threads()) {
        Some(path) => eprintln!("[trace_report] report at {}", path.display()),
        None => {
            // No sink configured: print the report so the binary is useful
            // standalone.
            let snap = vmin_trace::snapshot();
            print!(
                "{}",
                vmin_trace::export::render_json(
                    &snap,
                    vmin_par::current_threads(),
                    vmin_trace::enabled()
                )
            );
        }
    }
}
