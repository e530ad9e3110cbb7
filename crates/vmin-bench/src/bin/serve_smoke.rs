//! Smoke binary for the serving layer, mirroring `hist_smoke`:
//!
//! - **stdout**: the served interval bit patterns for a deterministic
//!   campaign-scale batch, one `lo hi` hex pair per chip. `ci.sh` diffs
//!   this output across `VMIN_THREADS` values — it must be
//!   *byte-identical* — and the run also writes an artifact file whose
//!   first line must grep as `vmin-artifact/v1`.
//! - **stderr**: in-process self-checks (artifact round-trip identity,
//!   live-vs-served bit equality, serve counters present when tracing).
//!
//! Usage: `serve_smoke <artifact-path>` — writes the artifact there.

#![forbid(unsafe_code)]

use vmin_bench::die;
use vmin_conformal::Cqr;
use vmin_linalg::Matrix;
use vmin_models::{GradientBoost, GradientBoostParams, Loss, TreeParams};
use vmin_rng::ChaCha8Rng;
use vmin_rng::Rng;
use vmin_rng::SeedableRng;
use vmin_serve::ServeModel;

fn draw(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..4.0)).collect();
        let signal = row.iter().sum::<f64>() * 3.0 + (row[0] * 0.9).sin();
        rows.push(row);
        y.push(signal + rng.gen_range(-1.0..1.0));
    }
    match Matrix::from_rows(&rows) {
        Ok(m) => (m, y),
        Err(e) => die(&format!("building the draw matrix: {e}")),
    }
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| die("usage: serve_smoke <artifact-path>"));

    let (x_tr, y_tr) = draw(120, 4, 1);
    let (x_ca, y_ca) = draw(60, 4, 2);
    let (x_te, _) = draw(200, 4, 3);
    let params = GradientBoostParams {
        n_rounds: 30,
        tree: TreeParams {
            max_depth: 4,
            ..TreeParams::default()
        },
        ..GradientBoostParams::default()
    };
    let mut cqr = Cqr::new(
        GradientBoost::with_params(Loss::Pinball(0.05), params),
        GradientBoost::with_params(Loss::Pinball(0.95), params),
        0.1,
    );
    if let Err(e) = cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca) {
        die(&format!("fit_calibrate: {e}"));
    }

    let model = match ServeModel::from_gbt_cqr(&cqr, None) {
        Ok(m) => m,
        Err(e) => die(&format!("capture: {e}")),
    };
    let bytes = model.to_bytes();
    if let Err(e) = std::fs::write(&path, &bytes) {
        die(&format!("writing {path}: {e}"));
    }
    let reloaded = match ServeModel::from_bytes(&bytes) {
        Ok(m) => m,
        Err(e) => die(&format!("reload: {e}")),
    };
    if reloaded.to_bytes() != bytes {
        die("save→load→save is not byte-identical");
    }

    let served = match reloaded.serve_batch(&x_te, 32) {
        Ok(s) => s,
        Err(e) => die(&format!("serve_batch: {e}")),
    };
    for (i, iv) in served.iter().enumerate() {
        let live = match cqr.predict_interval(x_te.row(i)) {
            Ok(iv) => iv,
            Err(e) => die(&format!("live predict row {i}: {e}")),
        };
        if iv.lo().to_bits() != live.lo().to_bits() || iv.hi().to_bits() != live.hi().to_bits() {
            die(&format!("served bits diverged from live path at row {i}"));
        }
        println!("{:016x} {:016x}", iv.lo().to_bits(), iv.hi().to_bits());
    }

    eprintln!(
        "serve_smoke: OK ({} chips, {} artifact bytes, threads={})",
        served.len(),
        bytes.len(),
        vmin_par::current_threads(),
    );
    vmin_trace::export::write_json_if_configured(vmin_par::current_threads());
}
