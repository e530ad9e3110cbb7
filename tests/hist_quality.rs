//! Interval-quality contract of histogram-binned boosting (PR 7): CQR
//! built on the binned quantile pairs both boosters ship carries the exact
//! coverage guarantee.
//!
//! The conformal coverage guarantee is distribution-free **and
//! model-free**: calibration repairs whatever the base learner does, so
//! the binned pairs must land in the exact Beta-Binomial acceptance region
//! (see `support/binomial.rs`) — no hand-tuned tolerances. Width is where a
//! bad approximation would show up; the comparison against CQR on the
//! exact greedy scans needs `vmin-models`' `#[cfg(test)]` oracles, so it
//! lives in that crate (`binned_cqr_widths_track_exact_cqr_widths`).

#[path = "support/binomial.rs"]
mod binomial;

use cqr_vmin::conformal::{evaluate_intervals, Cqr};
use cqr_vmin::linalg::Matrix;
use cqr_vmin::models::{
    GradientBoost, GradientBoostParams, Loss, ObliviousBoost, ObliviousBoostParams, Regressor,
};
use vmin_rng::ChaCha8Rng;
use vmin_rng::Rng;
use vmin_rng::SeedableRng;

const ALPHA: f64 = 0.1;
const N_TRAIN: usize = 70;
const N_CAL: usize = 40;
const N_TEST: usize = 60;
const REPS: usize = 10;
/// Per-assertion failure probability under the exact finite-sample law.
const DELTA: f64 = 1e-6;

/// Heteroscedastic data — the regime CQR exists for.
fn draw(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let x: f64 = rng.gen_range(0.0..4.0);
        let eps = (0.2 + x) * rng.gen_range(-1.0..1.0);
        rows.push(vec![x]);
        y.push(3.0 * x + eps);
    }
    (Matrix::from_rows(&rows).unwrap(), y)
}

enum Booster {
    Xgb,
    Cat,
}

fn quantile_pair(booster: &Booster, q: f64) -> Box<dyn Regressor> {
    match booster {
        Booster::Xgb => {
            let params = GradientBoostParams {
                n_rounds: 30,
                ..GradientBoostParams::default()
            };
            Box::new(GradientBoost::with_params(Loss::Pinball(q), params))
        }
        Booster::Cat => {
            let params = ObliviousBoostParams {
                n_rounds: 30,
                ..ObliviousBoostParams::default()
            };
            Box::new(ObliviousBoost::with_params(Loss::Pinball(q), params))
        }
    }
}

/// One CQR run: returns `(covered count, mean width)` on the test split.
fn cqr_run(booster: &Booster, seed: u64) -> (usize, f64) {
    let (x_tr, y_tr) = draw(N_TRAIN, seed);
    let (x_ca, y_ca) = draw(N_CAL, seed + 1);
    let (x_te, y_te) = draw(N_TEST, seed + 2);
    let mut cqr = Cqr::new(
        quantile_pair(booster, ALPHA / 2.0),
        quantile_pair(booster, 1.0 - ALPHA / 2.0),
        ALPHA,
    );
    cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
    let report = evaluate_intervals(&cqr.predict_intervals(&x_te).unwrap(), &y_te).unwrap();
    (report.covered(), report.mean_length())
}

fn acceptance() -> (usize, usize) {
    let per_rep = binomial::covered_pmf(N_TEST, N_CAL, ALPHA);
    let sum = binomial::iid_sum_pmf(&per_rep, REPS);
    binomial::two_sided_acceptance(&sum, DELTA)
}

fn totals(booster: &Booster) -> (usize, f64) {
    let mut covered = 0usize;
    let mut width = 0.0f64;
    for s in 0..REPS as u64 {
        let (c, w) = cqr_run(booster, s * 3001 + 5);
        covered += c;
        width += w;
    }
    (covered, width / REPS as f64)
}

#[test]
fn binned_cqr_holds_the_coverage_guarantee() {
    // Two boosters × the same exact acceptance region; union failure
    // probability ≤ 2·DELTA.
    let (lo, hi) = acceptance();
    let n_total = REPS * N_TEST;
    for booster in [Booster::Xgb, Booster::Cat] {
        let label = match booster {
            Booster::Xgb => "CQR-XGBoost",
            Booster::Cat => "CQR-CatBoost",
        };
        let (covered, mean_width) = totals(&booster);
        assert!(
            (lo..=hi).contains(&covered),
            "{label}: covered {covered}/{n_total} outside \
             the exact acceptance region [{lo}, {hi}] \
             (BetaBin ncal={N_CAL}, α={ALPHA}, {REPS} reps, δ={DELTA:e})"
        );
        assert!(
            mean_width.is_finite() && mean_width > 0.0,
            "{label}: degenerate mean width {mean_width}"
        );
    }
}
