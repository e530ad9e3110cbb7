//! Regenerates the two ablation tables DESIGN.md §4 lists:
//!
//! - **A1 — calibration fraction**: how the CQR train/calibration split
//!   (paper: 75/25) trades interval width against quantile-model quality.
//! - **A2 — conformal variants**: split CP vs normalized CP vs CQR vs
//!   jackknife+ around linear models on the same heteroscedastic data.
//!
//! Each row is the mean interval length and coverage over 20 seeded
//! repetitions; the output is deterministic.
//!
//! Run: `cargo run --release -p vmin-bench --bin ablations`

#![forbid(unsafe_code)]

use vmin_bench::die;
use vmin_conformal::{
    evaluate_intervals, Cqr, JackknifePlus, NormalizedConformal, PredictionInterval, SplitConformal,
};
use vmin_data::train_test_split;
use vmin_linalg::Matrix;
use vmin_models::{LinearRegression, QuantileLinear, Regressor};
use vmin_rng::ChaCha8Rng;
use vmin_rng::Rng;
use vmin_rng::SeedableRng;

/// Heteroscedastic synthetic data mimicking the Vmin residual structure.
fn hetero(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let x: f64 = rng.gen_range(0.0..4.0);
        rows.push(vec![x]);
        y.push(550.0 + 10.0 * x + (2.0 + 3.0 * x) * rng.gen_range(-1.0..1.0));
    }
    let x = Matrix::from_rows(&rows).unwrap_or_else(|e| die(&format!("hetero rows: {e}")));
    (x, y)
}

fn qlin(q: f64) -> QuantileLinear {
    QuantileLinear::new(q).with_training(400, 0.02)
}

/// Splits `(x, y)` into proper-training and calibration parts with
/// `train_test_split`: `(x_train, y_train, x_cal, y_cal)`.
fn split(
    x: &Matrix,
    y: &[f64],
    train_fraction: f64,
    seed: u64,
) -> (Matrix, Vec<f64>, Matrix, Vec<f64>) {
    let split = train_test_split(x.rows(), train_fraction, seed);
    let pick = |rows: &[usize]| {
        let xs = x
            .select_rows(rows)
            .unwrap_or_else(|e| die(&format!("select rows: {e}")));
        (xs, rows.iter().map(|&i| y[i]).collect::<Vec<f64>>())
    };
    let (x_tr, y_tr) = pick(&split.train);
    let (x_ca, y_ca) = pick(&split.test);
    (x_tr, y_tr, x_ca, y_ca)
}

fn run_cqr(cal_fraction: f64, seed: u64) -> (f64, f64) {
    let (x, y) = hetero(117, seed);
    let (x_te, y_te) = hetero(60, seed + 1000);
    let (x_tr, y_tr, x_ca, y_ca) = split(&x, &y, 1.0 - cal_fraction, seed);
    let mut cqr = Cqr::new(qlin(0.05), qlin(0.95), 0.1);
    cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca)
        .unwrap_or_else(|e| die(&format!("CQR fit: {e}")));
    let ivs = cqr
        .predict_intervals(&x_te)
        .unwrap_or_else(|e| die(&format!("CQR predict: {e}")));
    let rep = evaluate_intervals(&ivs, &y_te);
    (rep.mean_length, rep.coverage)
}

/// A1: calibration-fraction sweep.
fn print_a1_table() {
    println!("\n[A1] CQR calibration-fraction sweep (α = 0.1, linear base, 117 chips):");
    println!("{:>10} {:>12} {:>10}", "cal frac", "length", "coverage");
    for frac in [0.10, 0.15, 0.25, 0.35, 0.50] {
        let (mut len, mut cov) = (0.0, 0.0);
        let reps = 20;
        for s in 0..reps {
            let (l, c) = run_cqr(frac, s * 7919 + 3);
            len += l;
            cov += c;
        }
        println!(
            "{:>10.2} {:>12.2} {:>9.1}%",
            frac,
            len / reps as f64,
            cov / reps as f64 * 100.0
        );
    }
}

/// A2: conformal-variant quality comparison.
fn print_a2_table() {
    let reps = 20;
    let mut rows: Vec<(&str, f64, f64)> = Vec::new();
    let mut accumulate = |name: &'static str, f: &dyn Fn(u64) -> (f64, f64)| {
        let (mut len, mut cov) = (0.0, 0.0);
        for s in 0..reps {
            let (l, c) = f(s * 6271 + 11);
            len += l;
            cov += c;
        }
        rows.push((name, len / reps as f64, cov / reps as f64));
    };

    accumulate("split CP (constant width)", &|seed| {
        let (x, y) = hetero(117, seed);
        let (x_te, y_te) = hetero(60, seed + 1000);
        let (x_tr, y_tr, x_ca, y_ca) = split(&x, &y, 0.75, seed);
        let mut cp = SplitConformal::new(LinearRegression::new(), 0.1);
        cp.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca)
            .unwrap_or_else(|e| die(&format!("split CP fit: {e}")));
        let ivs = cp
            .predict_intervals(&x_te)
            .unwrap_or_else(|e| die(&format!("split CP predict: {e}")));
        let rep = evaluate_intervals(&ivs, &y_te);
        (rep.mean_length, rep.coverage)
    });
    accumulate("normalized CP", &|seed| {
        let (x, y) = hetero(117, seed);
        let (x_te, y_te) = hetero(60, seed + 1000);
        let (x_tr, y_tr, x_ca, y_ca) = split(&x, &y, 0.75, seed);
        let mut ncp =
            NormalizedConformal::new(LinearRegression::new(), LinearRegression::new(), 0.1);
        ncp.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca)
            .unwrap_or_else(|e| die(&format!("normalized CP fit: {e}")));
        let ivs = ncp
            .predict_intervals(&x_te)
            .unwrap_or_else(|e| die(&format!("normalized CP predict: {e}")));
        let rep = evaluate_intervals(&ivs, &y_te);
        (rep.mean_length, rep.coverage)
    });
    accumulate("CQR (paper)", &|seed| run_cqr(0.25, seed));
    accumulate("jackknife+", &|seed| {
        let (x, y) = hetero(60, seed); // LOO fits: keep n modest
        let (x_te, y_te) = hetero(60, seed + 1000);
        let mut jk = JackknifePlus::new(0.1);
        jk.fit(&x, &y, || {
            Box::new(LinearRegression::new()) as Box<dyn Regressor>
        })
        .unwrap_or_else(|e| die(&format!("jackknife+ fit: {e}")));
        let ivs: Vec<PredictionInterval> = (0..x_te.rows())
            .map(|i| {
                jk.predict_interval(x_te.row(i))
                    .unwrap_or_else(|e| die(&format!("jackknife+ predict: {e}")))
            })
            .collect();
        let rep = evaluate_intervals(&ivs, &y_te);
        (rep.mean_length, rep.coverage)
    });

    println!("\n[A2] conformal variants on heteroscedastic data (α = 0.1):");
    println!("{:<28} {:>10} {:>10}", "variant", "length", "coverage");
    for (name, len, cov) in rows {
        println!("{name:<28} {len:>10.2} {:>9.1}%", cov * 100.0);
    }
}

fn main() {
    print_a1_table();
    print_a2_table();
}
