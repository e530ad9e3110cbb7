//! Contracts of the histogram-binned split path, the only split finder of
//! both boosters:
//!
//! - **Thread invariance**: the binned path must be bit-identical across
//!   `VMIN_THREADS` ∈ {1, 2, 8} for both boosters.
//! - **Instrumentation**: `models.hist.*` counters fire, the GBT
//!   sibling-subtraction bookkeeping is balanced, and tree fits plus
//!   round-memo hits account for every GBT round.
//!
//! The comparisons against the exact greedy scans need the crate's
//! `#[cfg(test)]` oracles, so they live in `src/hist.rs`'s unit tests.

use vmin_linalg::Matrix;
use vmin_models::{
    GradientBoost, GradientBoostParams, Loss, ObliviousBoost, ObliviousBoostParams, Regressor,
};
use vmin_rng::{ChaCha8Rng, Rng, SeedableRng};

fn gen_data(seed: u64, n: usize, d: usize) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut xs = Vec::with_capacity(n * d);
    for _ in 0..n * d {
        xs.push(rng.gen_range(-3.0..3.0));
    }
    let x = Matrix::from_vec(n, d, xs).expect("shape");
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let r = x.row(i);
            r[0] * r[0] + 0.5 * r[1 % d] + rng.gen_range(-0.2..0.2)
        })
        .collect();
    (x, y)
}

fn pred_bits(model: &dyn Regressor, x: &Matrix) -> Vec<u64> {
    model
        .predict(x)
        .expect("predict after fit")
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn fit_gbt(x: &Matrix, y: &[f64]) -> GradientBoost {
    let params = GradientBoostParams {
        n_rounds: 20,
        ..GradientBoostParams::default()
    };
    let mut m = GradientBoost::with_params(Loss::Pinball(0.9), params);
    m.fit(x, y).expect("gbt fit");
    m
}

fn fit_catboost(x: &Matrix, y: &[f64]) -> ObliviousBoost {
    let params = ObliviousBoostParams {
        n_rounds: 20,
        ..ObliviousBoostParams::default()
    };
    let mut m = ObliviousBoost::with_params(Loss::Pinball(0.9), params);
    m.fit(x, y).expect("catboost fit");
    m
}

#[test]
fn binned_gbt_is_bit_identical_across_threads() {
    let (x, y) = gen_data(7, 130, 6);
    let reference = vmin_par::with_threads(1, || pred_bits(&fit_gbt(&x, &y), &x));
    for threads in [2usize, 8] {
        let got = vmin_par::with_threads(threads, || pred_bits(&fit_gbt(&x, &y), &x));
        assert_eq!(got, reference, "binned GBT diverged at threads={threads}");
    }
}

#[test]
fn binned_catboost_is_bit_identical_across_threads() {
    let (x, y) = gen_data(9, 130, 6);
    let reference = vmin_par::with_threads(1, || pred_bits(&fit_catboost(&x, &y), &x));
    for threads in [2usize, 8] {
        let got = vmin_par::with_threads(threads, || pred_bits(&fit_catboost(&x, &y), &x));
        assert_eq!(
            got, reference,
            "binned CatBoost diverged at threads={threads}"
        );
    }
}

#[test]
fn constant_features_fall_back_to_base_score_under_histograms() {
    let x = Matrix::from_vec(20, 2, vec![1.5; 40]).expect("shape");
    let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
    let mut m = ObliviousBoost::new(Loss::Squared);
    m.fit(&x, &y).expect("fit constant features");
    let preds = m.predict(&x).expect("predict");
    // No usable borders: every prediction collapses to one value.
    for p in &preds {
        assert_eq!(p.to_bits(), preds[0].to_bits());
    }
    let mut g = GradientBoost::new(Loss::Squared);
    g.fit(&x, &y).expect("fit constant features");
    let preds = g.predict(&x).expect("predict");
    for p in &preds {
        assert_eq!(p.to_bits(), preds[0].to_bits());
    }
}

#[test]
fn hist_counters_fire_and_account_for_every_round() {
    let (x, y) = gen_data(13, 90, 4);
    let prev = vmin_trace::set_enabled(true);
    let (_, snap) = vmin_trace::with_collector(|| {
        fit_gbt(&x, &y);
        fit_catboost(&x, &y);
    });
    vmin_trace::set_enabled(prev);
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    // Every round either grows a tree or is served from the round memo.
    assert_eq!(
        count("models.tree.fits") + count("models.gbt.memo_hits"),
        20
    );
    assert_eq!(count("models.oblivious.fits"), 1);
    // Every oblivious round not served from the memo searches ≥ 1 level.
    assert!(count("models.hist.level_searches") >= 20 - count("models.oblivious.memo_hits"));
    // Subtraction bookkeeping is balanced: every split accumulates exactly
    // one child and derives exactly one.
    let acc = snap.counters["models.hist.child_accumulated"];
    let sub = snap.counters["models.hist.child_subtracted"];
    assert_eq!(acc, sub, "unbalanced sibling subtraction");
    assert!(acc > 0, "no GBT splits happened on clearly splittable data");
    // The oblivious fit must record its span timer.
    assert!(snap.timers.keys().any(|k| k == "models.hist.oblivious_fit"));
}
