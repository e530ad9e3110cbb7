//! Table I, demonstrated: the properties the paper tabulates for each
//! uncertainty-quantification method, verified empirically across
//! distribution shapes — the "distribution-free coverage guarantee" row in
//! particular.
//!
//! The positive tests do not use hand-tuned coverage tolerances. For `m`
//! calibration scores at miscoverage α the CQR/split-CP coverage is
//! governed by an *exact* finite-sample law (Beta-Binomial counts, see
//! `support/binomial.rs`), so each assertion checks the observed covered
//! count against a two-sided acceptance region whose failure probability
//! under the theory is at most [`DELTA`]. A pass means the implementation
//! is consistent with the guarantee; a fail is (overwhelmingly) a
//! calibration bug, not an unlucky seed.

#[path = "support/binomial.rs"]
mod binomial;

use cqr_vmin::conformal::{
    evaluate_intervals, Cqr, CqrAsymmetric, PredictionInterval, SplitConformal,
};
use cqr_vmin::linalg::Matrix;
use cqr_vmin::models::{Ensemble, LinearRegression, QuantileLinear, Regressor};
use vmin_rng::ChaCha8Rng;
use vmin_rng::Rng;
use vmin_rng::SeedableRng;

/// Miscoverage target for the guarantee tests (the paper's α = 0.1).
const ALPHA: f64 = 0.1;
/// Synthetic split sizes: train / calibration / test.
const N_TRAIN: usize = 70;
const N_CAL: usize = 40;
const N_TEST: usize = 60;
/// Independent repetitions per noise family (distinct seeds → iid runs).
const REPS: usize = 12;
/// Test-level failure probability for each statistical assertion. Under
/// the finite-sample theory an assertion fires with probability ≤ DELTA,
/// so a red test is evidence of a bug, not noise.
const DELTA: f64 = 1e-6;

/// Families of noise distributions — the guarantee must hold for all of
/// them without modification (distribution-freeness).
#[derive(Clone, Copy, Debug)]
enum Noise {
    Uniform,
    /// Heavy-tailed: Student-t-like via ratio of normals.
    HeavyTail,
    /// Asymmetric: exponential.
    Skewed,
    /// Heteroscedastic uniform.
    Hetero,
}

const ALL_NOISE: [Noise; 4] = [
    Noise::Uniform,
    Noise::HeavyTail,
    Noise::Skewed,
    Noise::Hetero,
];

fn draw(n: usize, noise: Noise, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let x: f64 = rng.gen_range(0.0..4.0);
        let eps = match noise {
            Noise::Uniform => rng.gen_range(-1.0..1.0),
            Noise::HeavyTail => {
                let a: f64 = rng.gen_range(-1.0..1.0f64);
                let b: f64 = rng.gen_range(0.3..1.0);
                (a / b).clamp(-8.0, 8.0)
            }
            Noise::Skewed => -(1.0 - rng.gen::<f64>()).ln() - 1.0,
            Noise::Hetero => (0.2 + x) * rng.gen_range(-1.0..1.0),
        };
        rows.push(vec![x]);
        y.push(3.0 * x + eps);
    }
    (Matrix::from_rows(&rows).unwrap(), y)
}

fn covered_count(intervals: &[PredictionInterval], y: &[f64]) -> usize {
    evaluate_intervals(intervals, y).unwrap().covered()
}

/// Sums a per-run covered count over [`REPS`] independent seeds.
fn total_covered<F>(noise: Noise, mut one_run: F) -> usize
where
    F: FnMut(Noise, u64) -> usize,
{
    (0..REPS as u64).map(|s| one_run(noise, s * 3001 + 5)).sum()
}

fn average_coverage<F>(noise: Noise, reps: u64, mut one_run: F) -> f64
where
    F: FnMut(Noise, u64) -> f64,
{
    (0..reps).map(|s| one_run(noise, s * 3001 + 5)).sum::<f64>() / reps as f64
}

fn cqr_covered(noise: Noise, seed: u64) -> usize {
    let (x_tr, y_tr) = draw(N_TRAIN, noise, seed);
    let (x_ca, y_ca) = draw(N_CAL, noise, seed + 1);
    let (x_te, y_te) = draw(N_TEST, noise, seed + 2);
    let mut cqr = Cqr::new(
        QuantileLinear::new(ALPHA / 2.0).with_training(300, 0.02),
        QuantileLinear::new(1.0 - ALPHA / 2.0).with_training(300, 0.02),
        ALPHA,
    );
    cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
    covered_count(&cqr.predict_intervals(&x_te).unwrap(), &y_te)
}

fn split_cp_covered(noise: Noise, seed: u64) -> usize {
    let (x_tr, y_tr) = draw(N_TRAIN, noise, seed);
    let (x_ca, y_ca) = draw(N_CAL, noise, seed + 1);
    let (x_te, y_te) = draw(N_TEST, noise, seed + 2);
    let mut cp = SplitConformal::new(LinearRegression::new(), ALPHA);
    cp.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
    covered_count(&cp.predict_intervals(&x_te).unwrap(), &y_te)
}

/// Two-sided acceptance region for the [`REPS`]-rep total covered count of
/// a symmetric conformal method with [`N_CAL`] calibration scores: per rep
/// the count is BetaBin(N_TEST, k, N_CAL+1−k) with k = ⌈(N_CAL+1)(1−α)⌉,
/// and independent reps convolve.
fn symmetric_acceptance() -> (usize, usize) {
    let per_rep = binomial::covered_pmf(N_TEST, N_CAL, ALPHA);
    let sum = binomial::iid_sum_pmf(&per_rep, REPS);
    binomial::two_sided_acceptance(&sum, DELTA)
}

#[test]
fn cqr_guarantee_holds_across_distributions() {
    // Each family's assertion fails with probability ≤ DELTA under the
    // exact law; the union over the four families stays below 4·DELTA.
    let (lo, hi) = symmetric_acceptance();
    let n_total = REPS * N_TEST;
    for noise in ALL_NOISE {
        let covered = total_covered(noise, cqr_covered);
        assert!(
            (lo..=hi).contains(&covered),
            "{noise:?}: CQR covered {covered}/{n_total} outside the exact \
             finite-sample acceptance region [{lo}, {hi}] \
             (BetaBin with ncal={N_CAL}, α={ALPHA}, {REPS} reps, δ={DELTA:e})"
        );
    }
}

fn served_cqr_covered(noise: Noise, seed: u64) -> usize {
    // The deployment path end to end: fit + calibrate live, snapshot to
    // `vmin-artifact/v1` bytes, reload, and count coverage of the *served*
    // intervals. Serving is bit-identical to the live path (see
    // serve_equivalence.rs), so the reloaded artifact inherits the same
    // exact finite-sample law — which this cell asserts directly.
    use cqr_vmin::models::{GradientBoost, GradientBoostParams, TreeParams};
    use cqr_vmin::serve::ServeModel;

    let (x_tr, y_tr) = draw(N_TRAIN, noise, seed);
    let (x_ca, y_ca) = draw(N_CAL, noise, seed + 1);
    let (x_te, y_te) = draw(N_TEST, noise, seed + 2);
    let params = GradientBoostParams {
        n_rounds: 15,
        tree: TreeParams {
            max_depth: 3,
            ..TreeParams::default()
        },
        ..GradientBoostParams::default()
    };
    let mut cqr = Cqr::new(
        GradientBoost::with_params(cqr_vmin::models::Loss::Pinball(ALPHA / 2.0), params),
        GradientBoost::with_params(cqr_vmin::models::Loss::Pinball(1.0 - ALPHA / 2.0), params),
        ALPHA,
    );
    cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
    let bytes = ServeModel::from_gbt_cqr(&cqr, None).unwrap().to_bytes();
    let reloaded = ServeModel::from_bytes(&bytes).unwrap();
    covered_count(&reloaded.serve_batch(&x_te, 16).unwrap(), &y_te)
}

#[test]
fn served_artifact_carries_the_same_coverage_guarantee() {
    // The guarantee must survive the save → load → serve_batch path: the
    // covered count of intervals served from reloaded artifact bytes obeys
    // the identical Beta-Binomial acceptance region as the live CQR pair.
    let (lo, hi) = symmetric_acceptance();
    let n_total = REPS * N_TEST;
    for noise in ALL_NOISE {
        let covered = total_covered(noise, served_cqr_covered);
        assert!(
            (lo..=hi).contains(&covered),
            "{noise:?}: served artifact covered {covered}/{n_total} outside \
             the exact finite-sample acceptance region [{lo}, {hi}]"
        );
    }
}

#[test]
fn split_cp_guarantee_holds_across_distributions() {
    // Split CP's absolute-residual score obeys the same rank law, so the
    // acceptance region is identical to CQR's.
    let (lo, hi) = symmetric_acceptance();
    let n_total = REPS * N_TEST;
    for noise in ALL_NOISE {
        let covered = total_covered(noise, split_cp_covered);
        assert!(
            (lo..=hi).contains(&covered),
            "{noise:?}: split CP covered {covered}/{n_total} outside the \
             exact finite-sample acceptance region [{lo}, {hi}]"
        );
    }
}

fn raw_qr_run(noise: Noise, seed: u64) -> f64 {
    // Deliberately small training set: raw QR's training-data coverage does
    // not transfer to test data (Table I: "coverage guarantee for test
    // data" = ✗ for QR).
    let (x_tr, y_tr) = draw(20, noise, seed);
    let (x_te, y_te) = draw(N_TEST, noise, seed + 2);
    let mut lo = QuantileLinear::new(0.1).with_training(300, 0.02);
    let mut hi = QuantileLinear::new(0.9).with_training(300, 0.02);
    lo.fit(&x_tr, &y_tr).unwrap();
    hi.fit(&x_tr, &y_tr).unwrap();
    let ivs: Vec<PredictionInterval> = (0..x_te.rows())
        .map(|i| {
            PredictionInterval::new(
                lo.predict_row(x_te.row(i)).unwrap(),
                hi.predict_row(x_te.row(i)).unwrap(),
            )
        })
        .collect();
    evaluate_intervals(&ivs, &y_te).unwrap().coverage()
}

#[test]
fn raw_qr_has_no_test_coverage_guarantee() {
    // At least one distribution family must show material undercoverage —
    // this is precisely why the paper conformalizes.
    let mut worst = 1.0f64;
    for noise in ALL_NOISE {
        worst = worst.min(average_coverage(noise, REPS as u64, raw_qr_run));
    }
    assert!(
        worst < 0.8,
        "raw QR unexpectedly met the target everywhere (worst {worst:.3}); \
         the no-guarantee row of Table I should be demonstrable"
    );
}

fn ensemble_run(noise: Noise, seed: u64) -> f64 {
    // Table I "Ensemble" row: bootstrap ensemble with Gaussian intervals —
    // distribution-free in training but no test-data coverage guarantee.
    let (x_tr, y_tr) = draw(110, noise, seed);
    let (x_te, y_te) = draw(N_TEST, noise, seed + 2);
    let mut ens = Ensemble::new(|| Box::new(LinearRegression::new()), 10, seed);
    ens.fit(&x_tr, &y_tr).unwrap();
    let ivs: Vec<PredictionInterval> = (0..x_te.rows())
        .map(|i| {
            let (lo, hi) = ens.predict_interval(x_te.row(i), 0.2).unwrap();
            PredictionInterval::new(lo, hi)
        })
        .collect();
    evaluate_intervals(&ivs, &y_te).unwrap().coverage()
}

#[test]
fn ensemble_has_no_coverage_guarantee() {
    // The Gaussian-interval assumption breaks on at least one distribution
    // family (heavy tails in particular) — the ✗ in Table I's third row.
    let mut worst = 1.0f64;
    for noise in ALL_NOISE {
        worst = worst.min(average_coverage(noise, REPS as u64, ensemble_run));
    }
    assert!(
        worst < 0.8,
        "ensemble intervals unexpectedly met the target everywhere (worst {worst:.3})"
    );
}

#[test]
fn asymmetric_cqr_also_carries_the_guarantee() {
    // Asymmetric CQR calibrates each side at α/2, so each side's *miss*
    // count per rep is BetaBin(N_TEST, ncal+1−k', k') with
    // k' = ⌈(ncal+1)(1−α/2)⌉. A test point misses on at most one side, so
    // total misses = lower misses + upper misses exactly, and:
    //   upper: P(total > 2t) ≤ P(S_lo > t) + P(S_hi > t)      (union bound)
    //   lower: P(total < t)  ≤ P(S_lo < t)                     (S_hi ≥ 0)
    // Both bounds are distribution-free; no independence between the two
    // sides is assumed.
    let k_side = binomial::conformal_rank(N_CAL, ALPHA / 2.0);
    assert!(
        k_side <= N_CAL,
        "calibration set too small for α/2 per side"
    );
    let side_miss = binomial::beta_binomial_pmf(N_TEST, (N_CAL + 1 - k_side) as f64, k_side as f64);
    let side_sum = binomial::iid_sum_pmf(&side_miss, REPS);
    let t_up = binomial::upper_acceptance(&side_sum, DELTA / 4.0);
    let t_lo = binomial::lower_acceptance(&side_sum, DELTA / 2.0);
    let n_total = REPS * N_TEST;

    for noise in ALL_NOISE {
        let covered = total_covered(noise, |noise, seed| {
            let (x_tr, y_tr) = draw(N_TRAIN, noise, seed);
            let (x_ca, y_ca) = draw(N_CAL, noise, seed + 1);
            let (x_te, y_te) = draw(N_TEST, noise, seed + 2);
            let mut cqr = CqrAsymmetric::new(
                QuantileLinear::new(ALPHA / 2.0).with_training(300, 0.02),
                QuantileLinear::new(1.0 - ALPHA / 2.0).with_training(300, 0.02),
                ALPHA,
            );
            cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
            covered_count(&cqr.predict_intervals(&x_te).unwrap(), &y_te)
        });
        let missed = n_total - covered;
        assert!(
            missed <= 2 * t_up,
            "{noise:?}: asymmetric CQR missed {missed}/{n_total}, above the \
             per-side union bound 2·{t_up} (k'={k_side}, δ={DELTA:e})"
        );
        assert!(
            missed >= t_lo,
            "{noise:?}: asymmetric CQR missed only {missed}/{n_total}, below \
             the one-sided lower acceptance {t_lo} — intervals are wider than \
             the finite-sample law allows"
        );
    }
}

#[test]
fn pipeline_cqr_per_cell_coverage_meets_the_finite_sample_bound() {
    // The same guarantee, asserted on the full silicon pipeline for every
    // (read point × temperature) cell of a small campaign. Cell coverage is
    // the mean over `cfg.folds` CV folds; within a fold the calibration and
    // test chips are disjoint iid draws, so the fold's covered count is
    // BetaBin(fold_test, k, ncal+1−k) with sizes derived from the config
    // exactly as `flow.rs` derives them. The per-cell bound convolves the
    // folds; that treats folds as independent (they share training rows,
    // and feature scaling/CFS see the calibration rows), which is an
    // approximation — the generous δ absorbs the weak coupling. The upper
    // tail is vacuous at these sizes (an all-covered cell has probability
    // ≈ 0.43 per fold), so only the lower bound is asserted; vmin's
    // discretized voltage grid can only make coverage stochastically
    // larger, which keeps the lower bound valid.
    use cqr_vmin::core::{run_region_cell, ExperimentConfig, FeatureSet, PointModel, RegionMethod};
    use cqr_vmin::silicon::{Campaign, DatasetSpec};

    let spec = DatasetSpec::small();
    let campaign = Campaign::run(&spec, 11);
    let cfg = ExperimentConfig::fast();

    let n = campaign.chip_count();
    assert_eq!(n % cfg.folds, 0, "equal fold sizes assumed below");
    let fold_test = n / cfg.folds;
    let train_len = n - fold_test;
    // Mirror flow.rs: train_test_split(train_len, 1 − cal_fraction, seed).
    let n_proper =
        (((1.0 - cfg.cal_fraction) * train_len as f64).ceil() as usize).clamp(1, train_len - 1);
    let ncal = train_len - n_proper;
    let k = binomial::conformal_rank(ncal, cfg.alpha);
    let fold_pmf = binomial::covered_pmf(fold_test, ncal, cfg.alpha);
    let cell_pmf = binomial::iid_sum_pmf(&fold_pmf, cfg.folds);
    let lo = binomial::lower_acceptance(&cell_pmf, DELTA);
    assert!(
        lo * 2 > n,
        "derived bound is too weak to be meaningful: {lo}/{n} \
         (ncal={ncal}, k={k}) — config drifted?"
    );

    for rp in 0..campaign.read_points.len() {
        for temp in 0..campaign.temperatures.len() {
            let eval = run_region_cell(
                &campaign,
                rp,
                temp,
                RegionMethod::Cqr(PointModel::Linear),
                FeatureSet::OnChip,
                &cfg,
            )
            .expect("region cell");
            // coverage is the mean of equal-sized fold coverages, so this
            // recovers the integer covered count exactly.
            let covered = (eval.coverage * n as f64).round() as usize;
            assert!(
                covered >= lo,
                "cell (read point {rp}, temp {temp}): covered {covered}/{n} \
                 below the finite-sample lower acceptance {lo} \
                 (per fold BetaBin({fold_test}, {k}, {}), {} folds, δ={DELTA:e})",
                ncal + 1 - k,
                cfg.folds,
            );
        }
    }
}

#[test]
fn adaptive_stream_holds_coverage_under_drift_where_static_cqr_fails() {
    // The streaming robustness claim, pinned to the same exact law as the
    // batch guarantees. After a mid-stream drift fault breaks
    // exchangeability, the *frozen* production-test calibration has no
    // guarantee left — its covered count demonstrably leaves the
    // Beta-Binomial acceptance region its own calibration size implies. The
    // adaptive layer (rolling window + ACI + recalibration ladder) must
    // keep its post-drift covered count above an exact-law floor instead.
    //
    // Two honest caveats, reflected in how the bounds are used:
    //   * Adaptivity itself breaks exchangeability, so no exact law applies
    //     to the adaptive tally. The floor below is the lower acceptance of
    //     the Beta-Binomial at the *smallest* calibration window the layer
    //     is permitted to run with (`min_window`) — the widest, most
    //     conservative law in its operating range — asserted per read point
    //     and over the post-drift aggregate.
    //   * Widened/recalibrating intervals legitimately over-cover, so only
    //     lower bounds are asserted for the adaptive tally.
    use cqr_vmin::conformal::{AdaptiveConfig, LadderState};
    use cqr_vmin::core::{run_stream, FeatureSet, StreamConfig};
    use cqr_vmin::silicon::{Campaign, DatasetSpec, DriftClass, DriftFault, DriftInjector};

    const STREAM_ALPHA: f64 = 0.2;
    const ONSET: usize = 3;

    // A larger fleet than `small()` so the per-read-point counts carry
    // statistical power (120 chips → 48 evaluation chips per read point).
    let spec = DatasetSpec {
        chip_count: 120,
        ..DatasetSpec::small()
    };
    let clean = Campaign::run(&spec, 17);

    // Mirror streaming.rs's two seeded splits to recover the static
    // calibration size exactly (fleet pool, then pool → proper/cal).
    let n = clean.chip_count();
    let fleet_train = ((0.6 * n as f64).ceil() as usize).clamp(1, n - 1);
    let n_eval = n - fleet_train;
    let n_proper = ((0.6 * fleet_train as f64).ceil() as usize).clamp(1, fleet_train - 1);
    let ncal_static = fleet_train - n_proper;

    // Moderate fleet-wide magnitudes: enough to force recalibration, far
    // from the terminal Rejecting valve (which would stop issuing
    // intervals; that regime is covered in failure_injection.rs).
    let cases = [
        (DriftClass::SuddenShift, 60.0, FeatureSet::Both),
        (DriftClass::Ramp, 20.0, FeatureSet::Both),
        (DriftClass::VarianceBlowup, 70.0, FeatureSet::Both),
        (DriftClass::SensorDropout, 0.0, FeatureSet::OnChip),
    ];

    let min_window = AdaptiveConfig::for_alpha(STREAM_ALPHA).min_window;
    let adaptive_rp_lo = binomial::lower_acceptance(
        &binomial::covered_pmf(n_eval, min_window, STREAM_ALPHA),
        DELTA,
    );
    let static_rp_lo = binomial::lower_acceptance(
        &binomial::covered_pmf(n_eval, ncal_static, STREAM_ALPHA),
        DELTA,
    );

    for (class, magnitude_mv, feature_set) in cases {
        let (drifted, ledger) = DriftInjector::new(
            vec![DriftFault {
                class,
                onset: ONSET,
                magnitude_mv,
                fraction: 1.0,
            }],
            3,
        )
        .unwrap()
        .inject(&clean);
        assert!(ledger.total() > 0, "{class}: nothing injected");

        let cfg = StreamConfig {
            feature_set,
            ..StreamConfig::fast(STREAM_ALPHA)
        };
        let report = run_stream(&drifted, &cfg).unwrap();
        assert_eq!(report.eval_chips, n_eval, "{class}: split drifted");
        assert_ne!(
            report.worst_state,
            LadderState::Rejecting,
            "{class}: magnitude {magnitude_mv} was meant to stay below the \
             terminal valve"
        );

        let post = &report.per_read_point[ONSET..];
        let n_post = post.len();
        assert!(n_post >= 2, "campaign too short to observe the drift");

        // Adaptive: every post-drift read point stays above the
        // conservative exact-law floor…
        let mut adaptive_total = 0;
        for stats in post {
            assert_eq!(
                stats.issued, stats.n,
                "{class} rp {}: intervals were withheld",
                stats.read_point
            );
            assert!(
                stats.covered >= adaptive_rp_lo,
                "{class} rp {}: adaptive covered {}/{} under the \
                 finite-sample floor {adaptive_rp_lo} \
                 (BetaBin at ncal={min_window}, δ={DELTA:e})",
                stats.read_point,
                stats.covered,
                stats.issued,
            );
            adaptive_total += stats.covered;
        }
        // …and the post-drift aggregate clears the convolved floor,
        // which is much tighter than the per-read-point one.
        let agg_pmf = binomial::iid_sum_pmf(
            &binomial::covered_pmf(n_eval, min_window, STREAM_ALPHA),
            n_post,
        );
        let agg_lo = binomial::lower_acceptance(&agg_pmf, DELTA);
        assert!(
            adaptive_total >= agg_lo,
            "{class}: adaptive covered {adaptive_total}/{} post-drift, \
             under the aggregate floor {agg_lo}",
            n_post * n_eval,
        );

        // Static: the frozen calibration must demonstrably leave its own
        // acceptance region at one or more post-drift read points —
        // this is the exchangeability break the adaptive layer exists
        // to absorb.
        let static_failures = post
            .iter()
            .filter(|stats| stats.static_covered < static_rp_lo)
            .count();
        assert!(
            static_failures >= 1,
            "{class}: static CQR never left its acceptance region \
             (floor {static_rp_lo} at ncal={ncal_static}) — the drift \
             fault is too weak to demonstrate anything"
        );
    }
}

#[test]
fn cqr_adapts_but_split_cp_does_not() {
    // Table I "adaptation to heteroscedasticity": CQR ✓, CP ✗.
    let (x_tr, y_tr) = draw(150, Noise::Hetero, 1);
    let (x_ca, y_ca) = draw(80, Noise::Hetero, 2);
    let mut cqr = Cqr::new(
        QuantileLinear::new(0.1).with_training(400, 0.02),
        QuantileLinear::new(0.9).with_training(400, 0.02),
        0.2,
    );
    cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
    let mut cp = SplitConformal::new(LinearRegression::new(), 0.2);
    cp.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();

    let w = |iv: PredictionInterval| iv.length();
    let cqr_ratio =
        w(cqr.predict_interval(&[3.9]).unwrap()) / w(cqr.predict_interval(&[0.1]).unwrap());
    let cp_ratio =
        w(cp.predict_interval(&[3.9]).unwrap()) / w(cp.predict_interval(&[0.1]).unwrap());
    assert!(
        cqr_ratio > 1.5,
        "CQR width should grow with the noise (ratio {cqr_ratio:.2})"
    );
    assert!(
        (cp_ratio - 1.0).abs() < 1e-9,
        "split CP width must be constant (ratio {cp_ratio:.2})"
    );
}
