//! Exactness contract of the fit plan: a model fitted on a plan that
//! another fit has already filled — its bin table or standardized design
//! served from the plan's memo — must predict the same bits as the same
//! model fitted on a fresh plan, across seeds, matrix shapes, tie-heavy
//! data, NaN features and thread counts. The memo is a pure time
//! optimization; any drift here is a correctness bug, not a tolerance
//! question.
//!
//! Seeded in-tree randomness keeps the suite hermetic; `heavy-tests`
//! multiplies the case counts.

use vmin_linalg::Matrix;
use vmin_models::{
    FitPlan, GradientBoost, GradientBoostParams, Loss, NeuralNet, NeuralNetParams, ObliviousBoost,
    ObliviousBoostParams, QuantileLinear, Regressor,
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
/// sprinkle of NaN (bin 0 in training, right at prediction).
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

/// Fits `model` on `plan` and requires the fit to have been served from the
/// plan's memo: one `models.fitplan.reuse` and no `models.fitplan.build`.
/// Tracing only observes, and every test here wants it on, so none turns
/// it back off.
fn fit_on_filled_plan(model: &mut dyn Regressor, plan: &FitPlan<'_>, y: &[f64], label: &str) {
    vmin_trace::set_enabled(true);
    let ((), snap) =
        vmin_trace::with_collector(|| model.fit_with_plan(plan, y).expect("memo-hit fit"));
    assert_eq!(
        (
            snap.counters.get("models.fitplan.build"),
            snap.counters.get("models.fitplan.reuse")
        ),
        (None, Some(&1)),
        "{label}: the fit was not a memo hit"
    );
}

/// Fits `make()` on a fresh plan, and again on a plan that `filler()` has
/// already filled, and demands bit-equal predictions on the training
/// matrix.
fn assert_plan_invariant<M, F, G>(make: F, filler: G, x: &Matrix, y: &[f64], label: &str)
where
    M: Regressor,
    F: Fn() -> M,
    G: FnOnce() -> Box<dyn Regressor>,
{
    let mut fresh = make();
    fresh.fit(x, y).expect("fresh-plan fit");
    let plan = FitPlan::new(x);
    filler().fit_with_plan(&plan, y).expect("filling fit");
    let mut served = make();
    fit_on_filled_plan(&mut served, &plan, y, label);
    assert_eq!(
        pred_bits(&fresh, x),
        pred_bits(&served, x),
        "{label}: predictions diverged on a filled plan"
    );
}

fn gbt25(q: f64) -> GradientBoost {
    let params = GradientBoostParams {
        n_rounds: 25,
        ..GradientBoostParams::default()
    };
    GradientBoost::with_params(Loss::Pinball(q), params)
}

#[test]
fn gbt_predictions_are_bit_identical_on_fresh_and_filled_plans() {
    for seed in seeds() {
        let mut rng = ChaCha8Rng::seed_from_u64(7_000 + seed);
        for &(n, d) in &SHAPES {
            for with_nan in [false, true] {
                let (x, y) = gen_data(&mut rng, n, d, with_nan);
                assert_plan_invariant(
                    || gbt25(0.9),
                    || Box::new(gbt25(0.1)),
                    &x,
                    &y,
                    &format!("gbt seed={seed} n={n} d={d} nan={with_nan}"),
                );
            }
        }
    }
}

#[test]
fn catboost_predictions_are_bit_identical_on_fresh_and_filled_plans() {
    let catboost = |q| {
        let params = ObliviousBoostParams {
            n_rounds: 20,
            ..ObliviousBoostParams::default()
        };
        ObliviousBoost::with_params(Loss::Pinball(q), params)
    };
    for seed in seeds() {
        let mut rng = ChaCha8Rng::seed_from_u64(8_000 + seed);
        for &(n, d) in &SHAPES {
            let (x, y) = gen_data(&mut rng, n, d, false);
            assert_plan_invariant(
                || catboost(0.1),
                || Box::new(catboost(0.9)),
                &x,
                &y,
                &format!("catboost seed={seed} n={n} d={d}"),
            );
        }
    }
}

#[test]
fn quantile_linear_and_nn_are_bit_identical_on_fresh_and_filled_plans() {
    for seed in seeds() {
        let mut rng = ChaCha8Rng::seed_from_u64(9_000 + seed);
        let (x, y) = gen_data(&mut rng, 40, 4, false);
        assert_plan_invariant(
            || QuantileLinear::new(0.95),
            || Box::new(QuantileLinear::new(0.05)),
            &x,
            &y,
            &format!("quantile-linear seed={seed}"),
        );
        // Both families standardize the same way, so a QuantileLinear fit
        // fills the design a NeuralNet is then served.
        let params = NeuralNetParams {
            epochs: 30,
            ..NeuralNetParams::default()
        };
        assert_plan_invariant(
            || NeuralNet::with_params(Loss::Pinball(0.5), params),
            || Box::new(QuantileLinear::new(0.5).with_training(5, 0.02)),
            &x,
            &y,
            &format!("nn seed={seed}"),
        );
    }
}

#[test]
fn filled_plan_is_bit_identical_across_thread_counts() {
    // The acceptance matrix: a plan filled by the other quantile's fit,
    // then served to this one, at VMIN_THREADS ∈ {1, 2, 8} — all against
    // the fresh-plan single-thread reference.
    let mut rng = ChaCha8Rng::seed_from_u64(10_101);
    let (x, y) = gen_data(&mut rng, 130, 5, true);
    let reference = vmin_par::with_threads(1, || {
        let mut m = gbt25(0.9);
        m.fit(&x, &y).expect("reference fit");
        pred_bits(&m, &x)
    });
    for threads in [1usize, 2, 8] {
        let got = vmin_par::with_threads(threads, || {
            let plan = FitPlan::new(&x);
            gbt25(0.1).fit_with_plan(&plan, &y).expect("filling fit");
            let mut m = gbt25(0.9);
            fit_on_filled_plan(&mut m, &plan, &y, &format!("{threads} threads"));
            pred_bits(&m, &x)
        });
        assert_eq!(got, reference, "served GBT diverged at {threads} threads");
    }
}

#[test]
fn one_plan_serves_multiple_models_and_quantiles() {
    // The CQR usage pattern, widened: one plan shared by both quantiles of
    // a booster pair and by other families, each bit-identical to its
    // fresh-plan counterpart. The first fit of each artifact fills it;
    // every later one is served.
    let mut rng = ChaCha8Rng::seed_from_u64(11_011);
    let (x, y) = gen_data(&mut rng, 80, 4, false);
    let plan = FitPlan::new(&x);
    let models = || -> [(&str, Box<dyn Regressor>); 4] {
        [
            (
                "gbt q=0.05",
                Box::new(GradientBoost::new(Loss::Pinball(0.05))),
            ),
            (
                "gbt q=0.95",
                Box::new(GradientBoost::new(Loss::Pinball(0.95))),
            ),
            ("catboost", Box::new(ObliviousBoost::new(Loss::Squared))),
            ("quantile-linear", Box::new(QuantileLinear::new(0.5))),
        ]
    };
    for ((label, mut fresh), (_, mut shared)) in models().into_iter().zip(models()) {
        fresh.fit(&x, &y).expect("fresh-plan fit");
        shared.fit_with_plan(&plan, &y).expect("shared-plan fit");
        assert_eq!(
            pred_bits(&shared, &x),
            pred_bits(&fresh, &x),
            "shared plan diverged for {label}"
        );
    }
}
