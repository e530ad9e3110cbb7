//! Prints the bit patterns of the per-read-point streaming report for one
//! fixed drifted campaign, so CI can run the binary under `VMIN_THREADS=1`
//! and `VMIN_THREADS=8` and `diff` the outputs (the stream must be
//! bit-identical under any thread count). Each line carries the adaptive
//! tally next to the frozen static one (`static`).
//!
//! The binary self-checks that the drift actually moved the adaptive
//! layer's degradation ladder.
//!
//! Run: `cargo run --release -p vmin-bench --bin drift_smoke`

#![forbid(unsafe_code)]

use vmin_bench::die;
use vmin_core::{run_stream, StreamConfig};
use vmin_silicon::{Campaign, DatasetSpec, DriftClass, DriftFault, DriftInjector};

fn main() {
    eprintln!(
        "[drift_smoke] adaptive conformal layer, {} thread(s)",
        vmin_par::current_threads(),
    );
    let clean = Campaign::run(&DatasetSpec::small(), 7);
    let injector = DriftInjector::new(
        vec![DriftFault {
            class: DriftClass::Ramp,
            onset: 3,
            // 30 mV/read-point: strong enough that the adaptive layer reaches a
            // window rebuild on this campaign (ci.sh greps the trace for the
            // conformal.adaptive.recalibrations counter).
            magnitude_mv: 30.0,
            fraction: 1.0,
        }],
        41,
    )
    .unwrap_or_else(|e| die(&format!("injector: {e}")));
    let (drifted, ledger) = injector.inject(&clean);
    eprintln!(
        "[drift_smoke] injected {} ramp faults at read point 3",
        ledger.total()
    );

    let report = run_stream(&drifted, &StreamConfig::fast(0.2))
        .unwrap_or_else(|e| die(&format!("stream: {e}")));

    for s in &report.per_read_point {
        println!(
            "rp {} n {} issued {} covered {} static {} rejected {} finite {} width {:016x} alpha {:016x} state {}",
            s.read_point,
            s.n,
            s.issued,
            s.covered,
            s.static_covered,
            s.rejected,
            s.finite,
            s.mean_finite_width.to_bits(),
            s.mean_alpha.to_bits(),
            s.end_state,
        );
    }
    println!(
        "final {} worst {} transitions {} static_qhat {:016x} alpha_final {:016x}",
        report.final_state,
        report.worst_state,
        report.transitions.len(),
        report.static_qhat.to_bits(),
        report.alpha_final.to_bits(),
    );

    if report.worst_state == vmin_conformal::LadderState::Nominal {
        die("a fleet-wide 30 mV/read-point ramp never moved the ladder");
    }

    // Written, and its path logged, only when `VMIN_TRACE_JSON` names a path.
    vmin_trace::export::write_json_if_configured(vmin_par::current_threads());
}
