//! Contracts of the histogram-binned split path (PR 7):
//!
//! - **Kill switch exactness**: `with_histograms(false)` must reproduce
//!   the exact greedy scans byte-for-byte (they are the same untouched
//!   code), and the flag must actually change which path runs.
//! - **Thread invariance**: the binned path must be bit-identical across
//!   `VMIN_THREADS` ∈ {1, 2, 8} for both boosters — the acceptance
//!   criterion of the tentpole.
//! - **Instrumentation**: `models.hist.*` counters fire on the binned
//!   path, are silent with the switch off, and the GBT sibling-subtraction
//!   bookkeeping is balanced; tree fits plus round-memo hits account for
//!   every GBT round.
//! - **Quality**: binned fits are approximations (quantile-binned
//!   candidate thresholds), but at 255 borders they must track the exact
//!   fit closely on smooth data.

use vmin_linalg::Matrix;
use vmin_models::{
    with_histograms, GradientBoost, GradientBoostParams, Loss, ObliviousBoost,
    ObliviousBoostParams, Regressor,
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

fn fit_gbt(x: &Matrix, y: &[f64], hist_on: bool) -> GradientBoost {
    with_histograms(hist_on, || {
        let params = GradientBoostParams {
            n_rounds: 20,
            ..GradientBoostParams::default()
        };
        let mut m = GradientBoost::with_params(Loss::Pinball(0.9), params);
        m.fit(x, y).expect("gbt fit");
        m
    })
}

fn fit_catboost(x: &Matrix, y: &[f64], hist_on: bool) -> ObliviousBoost {
    with_histograms(hist_on, || {
        let params = ObliviousBoostParams {
            n_rounds: 20,
            ..ObliviousBoostParams::default()
        };
        let mut m = ObliviousBoost::with_params(Loss::Pinball(0.9), params);
        m.fit(x, y).expect("catboost fit");
        m
    })
}

#[test]
fn hist_off_is_byte_identical_across_threads_and_switch_changes_gbt() {
    // VMIN_HIST=0 must reproduce the exact scans (the pre-PR7 outputs) at
    // any thread count; the switch must also demonstrably change the GBT
    // fit (its candidate-threshold set shrinks), while the oblivious fit
    // is expected to *match* — see the per-booster comments below.
    let (x, y) = gen_data(42, 120, 5);
    let exact_gbt = vmin_par::with_threads(1, || pred_bits(&fit_gbt(&x, &y, false), &x));
    let exact_cat = vmin_par::with_threads(1, || pred_bits(&fit_catboost(&x, &y, false), &x));
    for threads in [2usize, 8] {
        vmin_par::with_threads(threads, || {
            assert_eq!(
                pred_bits(&fit_gbt(&x, &y, false), &x),
                exact_gbt,
                "exact GBT diverged at {threads} threads"
            );
            assert_eq!(
                pred_bits(&fit_catboost(&x, &y, false), &x),
                exact_cat,
                "exact CatBoost diverged at {threads} threads"
            );
        });
    }
    let binned_gbt = vmin_par::with_threads(1, || pred_bits(&fit_gbt(&x, &y, true), &x));
    let binned_cat = vmin_par::with_threads(1, || pred_bits(&fit_catboost(&x, &y, true), &x));
    // GBT: the binned path caps candidate boundaries (`gbt_border_cap`)
    // while the exact scan walks every distinct value, so the fits must
    // demonstrably differ — this doubles as a dispatch-wiring check (the
    // counter test covers wiring for both boosters independently).
    assert_ne!(
        binned_gbt, exact_gbt,
        "hist switch changed nothing for GBT — dispatch is not wired"
    );
    // CatBoost: both paths score the *same* 32-border candidate set with
    // the same tie rules; they differ only in floating-point association
    // inside the scores, which flips no argmax on this dataset — so the
    // binned model reproduces the exact one bitwise here. Pinned as a
    // ratchet: if kernel arithmetic drifts enough to flip a split on
    // smooth data, this fails and the change deserves a close look.
    assert_eq!(
        binned_cat, exact_cat,
        "binned CatBoost no longer reproduces the exact fit on smooth data"
    );
}

#[test]
fn binned_gbt_is_bit_identical_across_threads() {
    let (x, y) = gen_data(7, 130, 6);
    let reference = vmin_par::with_threads(1, || pred_bits(&fit_gbt(&x, &y, true), &x));
    for threads in [2usize, 8] {
        let got = vmin_par::with_threads(threads, || pred_bits(&fit_gbt(&x, &y, true), &x));
        assert_eq!(got, reference, "binned GBT diverged at threads={threads}");
    }
}

#[test]
fn binned_catboost_is_bit_identical_across_threads() {
    let (x, y) = gen_data(9, 130, 6);
    let reference = vmin_par::with_threads(1, || pred_bits(&fit_catboost(&x, &y, true), &x));
    for threads in [2usize, 8] {
        let got = vmin_par::with_threads(threads, || pred_bits(&fit_catboost(&x, &y, true), &x));
        assert_eq!(
            got, reference,
            "binned CatBoost diverged at threads={threads}"
        );
    }
}

#[test]
fn binned_fits_track_exact_fits_closely() {
    // 255 borders put a candidate threshold between almost every pair of
    // adjacent training values, so the binned trees should be near — not
    // equal to — the exact ones. Gauge: mean |Δ| small vs the target's
    // spread.
    let (x, y) = gen_data(11, 150, 4);
    let spread = {
        let m = vmin_linalg::mean(&y);
        (y.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / y.len() as f64).sqrt()
    };
    let exact = fit_gbt(&x, &y, false).predict(&x).expect("predict");
    let binned = fit_gbt(&x, &y, true).predict(&x).expect("predict");
    let mad: f64 = exact
        .iter()
        .zip(&binned)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / exact.len() as f64;
    assert!(
        mad < 0.25 * spread,
        "binned GBT drifted from exact: mean |Δ| = {mad:.4}, y spread = {spread:.4}"
    );
    let exact = fit_catboost(&x, &y, false).predict(&x).expect("predict");
    let binned = fit_catboost(&x, &y, true).predict(&x).expect("predict");
    let mad: f64 = exact
        .iter()
        .zip(&binned)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / exact.len() as f64;
    assert!(
        mad < 0.25 * spread,
        "binned CatBoost drifted from exact: mean |Δ| = {mad:.4}, y spread = {spread:.4}"
    );
}

#[test]
fn constant_features_fall_back_to_base_score_under_histograms() {
    let x = Matrix::from_vec(20, 2, vec![1.5; 40]).expect("shape");
    let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
    with_histograms(true, || {
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
    });
}

#[test]
fn hist_counters_fire_on_and_only_on_the_binned_path() {
    let (x, y) = gen_data(13, 90, 4);
    let prev = vmin_trace::set_enabled(true);
    let (_, snap_on) = vmin_trace::with_collector(|| {
        fit_gbt(&x, &y, true);
        fit_catboost(&x, &y, true);
    });
    let (_, snap_off) = vmin_trace::with_collector(|| {
        fit_gbt(&x, &y, false);
        fit_catboost(&x, &y, false);
    });
    vmin_trace::set_enabled(prev);
    let count = |name: &str| snap_on.counters.get(name).copied().unwrap_or(0);
    // Every round either grows a tree or is served from the round memo.
    assert_eq!(
        count("models.hist.tree_fits") + count("models.gbt.memo_hits"),
        20
    );
    assert_eq!(count("models.hist.oblivious_fits"), 1);
    // Every oblivious round not served from the memo searches ≥ 1 level.
    assert!(count("models.hist.level_searches") >= 20 - count("models.oblivious.memo_hits"));
    // Subtraction bookkeeping is balanced: every split accumulates exactly
    // one child and derives exactly one.
    let acc = snap_on.counters["models.hist.child_accumulated"];
    let sub = snap_on.counters["models.hist.child_subtracted"];
    assert_eq!(acc, sub, "unbalanced sibling subtraction");
    assert!(acc > 0, "no GBT splits happened on clearly splittable data");
    assert!(
        !snap_off
            .counters
            .keys()
            .any(|k| k.starts_with("models.hist.")),
        "exact path recorded hist counters: {:?}",
        snap_off.counters
    );
    // The round memo lives on the binned path only.
    for name in ["models.gbt.memo_hits", "models.oblivious.memo_hits"] {
        assert!(
            !snap_off.counters.contains_key(name),
            "exact path recorded {name}"
        );
    }
    // The binned oblivious fit must record its span timer.
    assert!(snap_on
        .timers
        .keys()
        .any(|k| k == "models.hist.oblivious_fit"));
}
