//! Property-style tests on the model zoo: structural invariants that must
//! hold for any data a model can be fit on. Seeded in-tree randomness keeps
//! the suite hermetic; `heavy-tests` multiplies the case counts.

use vmin_linalg::Matrix;
use vmin_models::{
    GradientBoost, GradientBoostParams, LinearRegression, Loss, ObliviousBoost,
    ObliviousBoostParams, QuantileLinear, Regressor, TreeParams,
};
use vmin_rng::{ChaCha8Rng, Rng, SeedableRng};

fn cases() -> usize {
    if cfg!(feature = "heavy-tests") {
        128
    } else {
        24
    }
}

fn small_data(rng: &mut ChaCha8Rng, n: usize) -> (Matrix, Vec<f64>) {
    let xs: Vec<f64> = (0..n * 2).map(|_| rng.gen_range(-5.0..5.0)).collect();
    let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-20.0..20.0)).collect();
    (Matrix::from_vec(n, 2, xs).expect("shape"), y)
}

/// OLS predictions on training data achieve residuals orthogonal to the
/// design (the defining normal-equation property).
#[test]
fn ols_normal_equations() {
    let mut rng = ChaCha8Rng::seed_from_u64(401);
    for _ in 0..cases() {
        let (x, y) = small_data(&mut rng, 12);
        let mut lr = LinearRegression::new();
        if lr.fit(&x, &y).is_err() {
            continue; // degenerate draw, skip as proptest's prop_assume did
        }
        let pred = lr.predict(&x).unwrap();
        let resid: Vec<f64> = y.iter().zip(&pred).map(|(a, b)| a - b).collect();
        // Residual sum ≈ 0 because of the intercept.
        let sum: f64 = resid.iter().sum();
        assert!(sum.abs() < 1e-6, "residual sum {sum}");
    }
}

/// OLS is translation-equivariant in the targets.
#[test]
fn ols_translation_equivariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(402);
    for _ in 0..cases() {
        let (x, y) = small_data(&mut rng, 10);
        let shift = rng.gen_range(-50.0..50.0);
        let mut a = LinearRegression::new();
        let mut b = LinearRegression::new();
        if a.fit(&x, &y).is_err() {
            continue;
        }
        let y2: Vec<f64> = y.iter().map(|v| v + shift).collect();
        if b.fit(&x, &y2).is_err() {
            continue;
        }
        let pa = a.predict_row(x.row(0)).unwrap();
        let pb = b.predict_row(x.row(0)).unwrap();
        assert!((pb - pa - shift).abs() < 1e-6);
    }
}

/// Boosted-tree predictions are bounded by the target range (squared loss;
/// trees average targets, never extrapolate beyond them).
#[test]
fn gbt_predictions_bounded() {
    let mut rng = ChaCha8Rng::seed_from_u64(403);
    for _ in 0..cases() {
        let (x, y) = small_data(&mut rng, 15);
        let mut gbt = GradientBoost::with_params(
            Loss::Squared,
            GradientBoostParams {
                n_rounds: 20,
                ..Default::default()
            },
        );
        gbt.fit(&x, &y).unwrap();
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let margin = (hi - lo).max(1.0) * 0.2;
        for i in 0..x.rows() {
            let p = gbt.predict_row(x.row(i)).unwrap();
            assert!(
                p >= lo - margin && p <= hi + margin,
                "{p} outside [{lo}, {hi}]"
            );
        }
    }
}

/// Oblivious boosting never produces non-finite predictions.
#[test]
fn oblivious_finite() {
    let mut rng = ChaCha8Rng::seed_from_u64(404);
    for _ in 0..cases() {
        let (x, y) = small_data(&mut rng, 15);
        let q = rng.gen_range(0.1..0.9);
        let mut cb = ObliviousBoost::with_params(
            Loss::Pinball(q),
            ObliviousBoostParams {
                n_rounds: 15,
                depth: 3,
                ..Default::default()
            },
        );
        cb.fit(&x, &y).unwrap();
        for i in 0..x.rows() {
            assert!(cb.predict_row(x.row(i)).unwrap().is_finite());
        }
    }
}

/// Quantile-linear training-set "below fraction" tracks the requested
/// quantile within a loose tolerance on clean linear data.
#[test]
fn quantile_linear_tracks_quantile() {
    let mut outer = ChaCha8Rng::seed_from_u64(405);
    for _ in 0..cases().min(20) {
        let q = outer.gen_range(0.2..0.8);
        let seed = outer.gen_range(0..20u64);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 120;
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..2.0);
            rows.push(vec![x]);
            y.push(x + rng.gen_range(-1.0..1.0));
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let mut m = QuantileLinear::new(q).with_training(800, 0.02);
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        let below = y.iter().zip(&pred).filter(|(a, b)| a < b).count() as f64 / n as f64;
        assert!((below - q).abs() < 0.15, "q={q}, below fraction {below}");
    }
}

/// A single gradient tree perfectly memorizes distinct-feature training
/// data when unregularized and deep enough: one round at learning rate 1
/// lands every training row on its target.
#[test]
fn tree_memorizes_with_enough_depth() {
    let mut rng = ChaCha8Rng::seed_from_u64(406);
    for _ in 0..cases() {
        let n = rng.gen_range(4..9usize);
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut one_tree = GradientBoost::with_params(
            Loss::Squared,
            GradientBoostParams {
                n_rounds: 1,
                learning_rate: 1.0,
                tree: TreeParams {
                    max_depth: 8,
                    lambda: 0.0,
                    min_child_weight: 0.0,
                    gamma: 0.0,
                },
            },
        );
        one_tree.fit(&x, &y).unwrap();
        for (i, target) in y.iter().enumerate() {
            let p = one_tree.predict_row(&[i as f64]).unwrap();
            assert!((p - target).abs() < 1e-9, "leaf {i}: {p} vs {target}");
        }
    }
}
