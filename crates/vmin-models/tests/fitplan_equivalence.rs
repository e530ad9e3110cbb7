//! Exactness contract of the fit plan: for every model that opts into
//! plan-assisted fitting, `fit_with_plan(&FitPlan::build(x))` must produce
//! byte-identical predictions to a plain `fit` — across seeds, matrix
//! shapes, tie-heavy data, NaN features and thread counts. The plan is a
//! pure time optimization; any drift here is a correctness bug, not a
//! tolerance question. GBT consumes a plan only on the histogram path, so
//! its cases pin histograms on.
//!
//! Seeded in-tree randomness keeps the suite hermetic; `heavy-tests`
//! multiplies the case counts.

use vmin_linalg::Matrix;
use vmin_models::{
    with_histograms, FitPlan, GradientBoost, GradientBoostParams, Loss, NeuralNet, NeuralNetParams,
    ObliviousBoost, ObliviousBoostParams, QuantileLinear, Regressor,
};
use vmin_rng::{ChaCha8Rng, Rng, SeedableRng};

fn seeds() -> std::ops::Range<u64> {
    if cfg!(feature = "heavy-tests") {
        0..12
    } else {
        0..4
    }
}

/// Shapes chosen to straddle the parallel-split thresholds and the
/// border-count dedup paths: tiny, medium and wide-ish.
const SHAPES: [(usize, usize); 3] = [(9, 2), (48, 3), (130, 6)];

/// Mixed-regime data: smooth signal, heavy ties (quantized column) and a
/// sprinkle of NaN to exercise the seed scan's `v_next <= v` semantics.
fn gen_data(rng: &mut ChaCha8Rng, n: usize, d: usize, with_nan: bool) -> (Matrix, Vec<f64>) {
    let mut xs = Vec::with_capacity(n * d);
    for i in 0..n {
        for j in 0..d {
            let v = if j % 3 == 1 {
                // tie-heavy column: 5 distinct values
                (rng.gen_range(0..5u32)) as f64 * 0.25
            } else {
                rng.gen_range(-4.0..4.0)
            };
            let v = if with_nan && j == 0 && i % 11 == 5 {
                f64::NAN
            } else {
                v
            };
            xs.push(v);
        }
    }
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let base: f64 = (0..d)
                .map(|j| xs[i * d + j])
                .filter(|v| v.is_finite())
                .sum();
            base + rng.gen_range(-0.5..0.5)
        })
        .collect();
    (Matrix::from_vec(n, d, xs).expect("shape"), y)
}

fn pred_bits(model: &dyn Regressor, x: &Matrix) -> Vec<u64> {
    model
        .predict(x)
        .expect("predict after fit")
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Fit `make()` twice — plainly, then through a freshly built plan — and
/// demand bit-equal predictions on the training matrix.
fn assert_plan_invariant<M, F>(make: F, x: &Matrix, y: &[f64], label: &str)
where
    M: Regressor,
    F: Fn() -> M,
{
    let mut plain = make();
    plain.fit(x, y).expect("plain fit");
    let mut planned = make();
    planned
        .fit_with_plan(x, y, &FitPlan::build(x))
        .expect("planned fit");
    assert_eq!(
        pred_bits(&plain, x),
        pred_bits(&planned, x),
        "{label}: predictions diverged with a fit plan"
    );
}

#[test]
fn gbt_predictions_are_bit_identical_with_and_without_plan() {
    with_histograms(true, || {
        for seed in seeds() {
            let mut rng = ChaCha8Rng::seed_from_u64(7_000 + seed);
            for &(n, d) in &SHAPES {
                for with_nan in [false, true] {
                    let (x, y) = gen_data(&mut rng, n, d, with_nan);
                    let params = GradientBoostParams {
                        n_rounds: 25,
                        ..GradientBoostParams::default()
                    };
                    assert_plan_invariant(
                        || GradientBoost::with_params(Loss::Pinball(0.9), params),
                        &x,
                        &y,
                        &format!("gbt seed={seed} n={n} d={d} nan={with_nan}"),
                    );
                }
            }
        }
    });
}

#[test]
fn subsampled_gbt_is_bit_identical_with_and_without_plan() {
    // subsample < 1.0 ignores the plan and must still reproduce the seed
    // RNG stream bit-for-bit.
    for seed in seeds() {
        let mut rng = ChaCha8Rng::seed_from_u64(7_500 + seed);
        let (x, y) = gen_data(&mut rng, 60, 3, false);
        let params = GradientBoostParams {
            n_rounds: 15,
            subsample: 0.7,
            ..GradientBoostParams::default()
        };
        assert_plan_invariant(
            || GradientBoost::with_params(Loss::Squared, params),
            &x,
            &y,
            &format!("gbt-subsample seed={seed}"),
        );
    }
}

#[test]
fn catboost_predictions_are_bit_identical_with_and_without_plan() {
    for seed in seeds() {
        let mut rng = ChaCha8Rng::seed_from_u64(8_000 + seed);
        for &(n, d) in &SHAPES {
            let (x, y) = gen_data(&mut rng, n, d, false);
            let params = ObliviousBoostParams {
                n_rounds: 20,
                ..ObliviousBoostParams::default()
            };
            assert_plan_invariant(
                || ObliviousBoost::with_params(Loss::Pinball(0.1), params),
                &x,
                &y,
                &format!("catboost seed={seed} n={n} d={d}"),
            );
        }
    }
}

#[test]
fn quantile_linear_and_nn_are_bit_identical_with_and_without_plan() {
    for seed in seeds() {
        let mut rng = ChaCha8Rng::seed_from_u64(9_000 + seed);
        let (x, y) = gen_data(&mut rng, 40, 4, false);
        assert_plan_invariant(
            || QuantileLinear::new(0.95),
            &x,
            &y,
            &format!("quantile-linear seed={seed}"),
        );
        let params = NeuralNetParams {
            epochs: 30,
            ..NeuralNetParams::default()
        };
        assert_plan_invariant(
            || NeuralNet::with_params(Loss::Pinball(0.5), params),
            &x,
            &y,
            &format!("nn seed={seed}"),
        );
    }
}

#[test]
fn shared_external_plan_is_bit_identical_across_thread_counts() {
    // The acceptance matrix: one externally built plan, consumed via
    // `fit_with_plan`, at VMIN_THREADS ∈ {1, 2, 8} — all against the
    // plain single-thread reference.
    let mut rng = ChaCha8Rng::seed_from_u64(10_101);
    let (x, y) = gen_data(&mut rng, 130, 5, true);
    let params = GradientBoostParams {
        n_rounds: 25,
        ..GradientBoostParams::default()
    };
    with_histograms(true, || {
        let reference = vmin_par::with_threads(1, || {
            let mut m = GradientBoost::with_params(Loss::Pinball(0.9), params);
            m.fit(&x, &y).expect("reference fit");
            pred_bits(&m, &x)
        });
        for threads in [1usize, 2, 8] {
            let got = vmin_par::with_threads(threads, || {
                let plan = FitPlan::build(&x);
                let mut m = GradientBoost::with_params(Loss::Pinball(0.9), params);
                m.fit_with_plan(&x, &y, &plan).expect("planned fit");
                pred_bits(&m, &x)
            });
            assert_eq!(got, reference, "planned GBT diverged at {threads} threads");
        }
    });
}

#[test]
fn one_plan_serves_multiple_models_and_quantiles() {
    // The CQR usage pattern: a single plan shared by the lo and hi quantile
    // fits and by a different model family, each bit-identical to its
    // plain counterpart.
    let mut rng = ChaCha8Rng::seed_from_u64(11_011);
    let (x, y) = gen_data(&mut rng, 80, 4, false);
    let plan = FitPlan::build(&x);
    with_histograms(true, || {
        for q in [0.05, 0.95] {
            let mut plain = GradientBoost::new(Loss::Pinball(q));
            plain.fit(&x, &y).expect("plain fit");
            let mut planned = GradientBoost::new(Loss::Pinball(q));
            planned.fit_with_plan(&x, &y, &plan).expect("planned fit");
            assert_eq!(
                pred_bits(&planned, &x),
                pred_bits(&plain, &x),
                "shared plan diverged at q={q}"
            );
        }
    });
    let mut plain = ObliviousBoost::new(Loss::Squared);
    plain.fit(&x, &y).expect("plain fit");
    let mut planned = ObliviousBoost::new(Loss::Squared);
    planned.fit_with_plan(&x, &y, &plan).expect("planned fit");
    assert_eq!(
        pred_bits(&planned, &x),
        pred_bits(&plain, &x),
        "shared plan diverged for catboost"
    );
}
