//! Fold-level fitting/evaluation and the user-facing [`VminPredictor`].

use crate::degradation::{sanitize_campaign, DegradationPolicy, RepairLog};
use crate::error::CoreError;
use crate::scenario::FeatureSet;
use crate::zoo::{ModelConfig, PointModel, RegionMethod};
use std::borrow::Cow;
use vmin_conformal::{evaluate_intervals, Cqr, IntervalReport, PredictionInterval};
use vmin_data::{cfs_select, r_squared, rmse, train_test_split, Dataset, Standardizer};
use vmin_models::{GaussianProcess, Regressor};
use vmin_silicon::Campaign;

/// Point-prediction quality on one test fold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointEval {
    /// Coefficient of determination on the test fold.
    pub r2: f64,
    /// Root-mean-square error (same units as the target, mV).
    pub rmse: f64,
    /// Number of CFS-selected features (0 = all features used).
    pub n_features: usize,
}

/// Region-prediction quality on one test fold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionEval {
    /// Mean interval length (mV).
    pub mean_length: f64,
    /// Fraction of test targets covered.
    pub coverage: f64,
}

/// Maximum number of CFS features the paper sweeps (1..=10).
pub const CFS_MAX_FEATURES: usize = 10;

/// Candidate pool size for CFS pre-filtering on wide feature sets.
pub const CFS_POOL: usize = 60;

/// Checks that a miscoverage level or split fraction lies in (0, 1).
pub(crate) fn check_open_unit(name: &str, value: f64) -> Result<(), CoreError> {
    if value > 0.0 && value < 1.0 {
        Ok(())
    } else {
        Err(CoreError::InvalidConfig(format!(
            "{name} must be in (0, 1), got {value}"
        )))
    }
}

/// One bound of a quantile band, as the zoo builds it.
type Quantile = Box<dyn Regressor>;

/// The (α/2, 1 − α/2) quantile pair of `base`: the band every QR and CQR
/// predictor is built from.
pub(crate) fn quantile_pair(
    base: PointModel,
    alpha: f64,
    cfg: &ModelConfig,
) -> Result<(Quantile, Quantile), CoreError> {
    let make = |q| {
        base.make_quantile(q, cfg)
            .ok_or_else(|| CoreError::InvalidConfig(format!("{base} has no quantile form")))
    };
    Ok((make(alpha / 2.0)?, make(1.0 - alpha / 2.0)?))
}

/// The §IV-C feature view of CFS models: the scaler fitted on `train`,
/// `train` standardized by it, and the CFS selection (at most
/// [`CFS_MAX_FEATURES`] columns, in selection order) over the standardized
/// columns.
pub(crate) fn cfs_view(train: &Dataset) -> Result<(Standardizer, Dataset, Vec<usize>), CoreError> {
    let scaler = Standardizer::fit(train.features());
    let z = scaler.transform_dataset(train)?;
    let selected = cfs_select(z.features(), z.targets(), CFS_MAX_FEATURES, CFS_POOL).selected;
    Ok((scaler, z, selected))
}

/// Fits `model` on `train` and evaluates on `test`, following §IV-C: models
/// flagged [`PointModel::uses_cfs`] get a CFS sweep over 1..=10 features
/// with the best *test* score reported (the paper's protocol); tree
/// ensembles consume all raw features.
///
/// # Errors
///
/// Model and dataset failures, typed ([`CoreError::Model`],
/// [`CoreError::Dataset`]).
pub fn eval_point_fold(
    model: PointModel,
    cfg: &ModelConfig,
    train: &Dataset,
    test: &Dataset,
) -> Result<PointEval, CoreError> {
    if model.uses_cfs() {
        let (scaler, train_z, selected) = cfs_view(train)?;
        let test_z = scaler.transform_dataset(test)?;
        let mut best: Option<PointEval> = None;
        for k in 1..=selected.len() {
            let idx = &selected[..k];
            let tr = train_z.subset_columns(idx)?;
            let te = test_z.subset_columns(idx)?;
            let mut m = model.make_point(cfg);
            m.fit(tr.features(), tr.targets())?;
            let pred = m.predict(te.features())?;
            let eval = PointEval {
                r2: r_squared(te.targets(), &pred),
                rmse: rmse(te.targets(), &pred),
                n_features: k,
            };
            if best.is_none_or(|b| eval.r2 > b.r2) {
                best = Some(eval);
            }
        }
        best.ok_or_else(|| CoreError::Shape("CFS selected no features".into()))
    } else {
        let mut m = model.make_point(cfg);
        m.fit(train.features(), train.targets())?;
        let pred = m.predict(test.features())?;
        Ok(PointEval {
            r2: r_squared(test.targets(), &pred),
            rmse: rmse(test.targets(), &pred),
            n_features: 0,
        })
    }
}

/// Fits a [`VminPredictor`] on `train` and evaluates interval length and
/// coverage on `test` (§IV-E/F):
///
/// - `Gp`: Gaussian interval at miscoverage `alpha` (Eq. 4).
/// - `Qr(m)`: raw quantile band from the (α/2, 1−α/2) pair — no guarantee.
/// - `Cqr(m)`: the pair is trained on 75% of `train`, calibrated on the
///   remaining 25% (`cal_fraction = 0.25`), intervals per Eq. 10.
///
/// `seed` drives the train/calibration split so all methods share it.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for an empty `test` and the conditions of
/// [`VminPredictor::fit`]; other failures as [`CoreError`].
pub fn eval_region_fold(
    method: RegionMethod,
    cfg: &ModelConfig,
    train: &Dataset,
    test: &Dataset,
    alpha: f64,
    cal_fraction: f64,
    seed: u64,
) -> Result<RegionEval, CoreError> {
    if test.n_samples() == 0 {
        return Err(CoreError::InvalidConfig(
            "a region fold needs at least one test row".into(),
        ));
    }
    let predictor = VminPredictor::fit(train, method, alpha, cal_fraction, seed, cfg)?;
    let intervals = (0..test.n_samples())
        .map(|i| predictor.interval(test.sample(i)))
        .collect::<Result<Vec<_>, _>>()?;
    let report = evaluate_intervals(&intervals, test.targets())?;
    Ok(RegionEval {
        mean_length: report.mean_length(),
        coverage: report.coverage(),
    })
}

/// A fitted, user-facing Vmin interval predictor — the deployable artifact
/// the paper envisions embedding in production test flows and in-field
/// systems (§V).
///
/// # Examples
///
/// ```
/// use vmin_core::{assemble_dataset, FeatureSet, ModelConfig, PointModel,
///                 RegionMethod, VminPredictor};
/// use vmin_silicon::{Campaign, DatasetSpec};
///
/// let campaign = Campaign::run(&DatasetSpec::small(), 9);
/// let ds = assemble_dataset(&campaign, 0, 1, FeatureSet::Both)?;
/// let predictor = VminPredictor::fit(
///     &ds,
///     RegionMethod::Cqr(PointModel::CatBoost),
///     0.1,
///     0.25,
///     42,
///     &ModelConfig::fast(),
/// )?;
/// let interval = predictor.interval(ds.sample(0))?;
/// assert!(interval.length() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct VminPredictor {
    method: RegionMethod,
    alpha: f64,
    /// The CFS view's scaler and selected columns (into the original
    /// feature space); `None` when the model takes raw rows.
    cfs: Option<(Standardizer, Vec<usize>)>,
    fitted: FittedRegion,
}

#[derive(Debug)]
enum FittedRegion {
    Gp(GaussianProcess),
    Qr { lo: Quantile, hi: Quantile },
    Cqr(Cqr<Quantile, Quantile>),
}

impl VminPredictor {
    /// Fits a region predictor on a full training dataset.
    ///
    /// For CFS-using methods the features are standardized and reduced to
    /// the CFS selection; the predictor remembers both so raw feature rows
    /// can be passed to [`Self::interval`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for `alpha` (or, for CQR, `cal_fraction`)
    /// outside (0, 1), a CQR method on fewer than 2 rows, or a base model
    /// without a quantile form; other failures as [`CoreError`].
    pub fn fit(
        dataset: &Dataset,
        method: RegionMethod,
        alpha: f64,
        cal_fraction: f64,
        seed: u64,
        cfg: &ModelConfig,
    ) -> Result<Self, CoreError> {
        check_open_unit("alpha", alpha)?;
        if let RegionMethod::Cqr(_) = method {
            check_open_unit("cal_fraction", cal_fraction)?;
            if dataset.n_samples() < 2 {
                return Err(CoreError::InvalidConfig(format!(
                    "CQR needs at least 2 rows to split off a calibration set, got {}",
                    dataset.n_samples()
                )));
            }
        }
        let (work, cfs) = if method.uses_cfs() {
            let (scaler, z, selected) = cfs_view(dataset)?;
            (
                Cow::Owned(z.subset_columns(&selected)?),
                Some((scaler, selected)),
            )
        } else {
            (Cow::Borrowed(dataset), None)
        };

        let fitted = match method {
            RegionMethod::Gp => {
                // Region prediction keeps the noise-fitted GP: Eq. 4's Gaussian
                // interval is only meaningful with an observation-noise model
                // (the near-interpolating paper-default GP would degenerate to
                // zero-width bands). Its coverage still misses the nominal level
                // where residuals are heavy-tailed — the paper's Table III GP
                // behaviour.
                let mut gp = GaussianProcess::new();
                gp.fit(work.features(), work.targets())?;
                FittedRegion::Gp(gp)
            }
            RegionMethod::Qr(base) => {
                let (mut lo, mut hi) = quantile_pair(base, alpha, cfg)?;
                let (lo_res, hi_res) = vmin_par::join(
                    || lo.fit(work.features(), work.targets()),
                    || hi.fit(work.features(), work.targets()),
                );
                lo_res?;
                hi_res?;
                FittedRegion::Qr { lo, hi }
            }
            RegionMethod::Cqr(base) => {
                let split = train_test_split(work.n_samples(), 1.0 - cal_fraction, seed);
                let proper = work.subset_rows(&split.train)?;
                let cal = work.subset_rows(&split.test)?;
                let (lo, hi) = quantile_pair(base, alpha, cfg)?;
                let mut cqr = Cqr::new(lo, hi, alpha);
                cqr.fit_calibrate(
                    proper.features(),
                    proper.targets(),
                    cal.features(),
                    cal.targets(),
                )?;
                FittedRegion::Cqr(cqr)
            }
        };
        Ok(VminPredictor {
            method,
            alpha,
            cfs,
            fitted,
        })
    }

    /// The region method in use.
    pub fn method(&self) -> RegionMethod {
        self.method
    }

    /// The target miscoverage α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Maps a raw feature row to the model's working view; rows of models
    /// without a scaler pass through borrowed.
    fn project<'a>(&self, row: &'a [f64]) -> Result<Cow<'a, [f64]>, CoreError> {
        match &self.cfs {
            Some((scaler, selected)) => {
                let z = scaler.transform_row(row)?;
                Ok(Cow::Owned(selected.iter().map(|&j| z[j]).collect()))
            }
            None => Ok(Cow::Borrowed(row)),
        }
    }

    /// Predicts the Vmin interval (mV) for a raw feature row.
    ///
    /// # Errors
    ///
    /// A row of the wrong width or a model failure, typed as the layer
    /// that raised it ([`CoreError::Dataset`], [`CoreError::Model`] or
    /// [`CoreError::Conformal`]).
    pub fn interval(&self, row: &[f64]) -> Result<PredictionInterval, CoreError> {
        let z = self.project(row)?;
        Ok(match &self.fitted {
            FittedRegion::Gp(gp) => {
                let (lo, hi) = gp.predict_interval(&z, self.alpha)?;
                PredictionInterval::new(lo, hi)
            }
            FittedRegion::Qr { lo, hi } => {
                PredictionInterval::new(lo.predict_row(&z)?, hi.predict_row(&z)?)
            }
            FittedRegion::Cqr(cqr) => cqr.predict_interval(&z)?,
        })
    }

    /// True when the interval's upper bound crosses the product min-spec —
    /// the screening decision of Fig. 1 (a chip whose interval extends above
    /// min-spec cannot be guaranteed to meet specification).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::interval`].
    pub fn flags_spec_risk(&self, row: &[f64], min_spec_mv: f64) -> Result<bool, CoreError> {
        Ok(self.interval(row)?.hi() > min_spec_mv)
    }

    /// Sanitizes a (possibly dirty) campaign under `policy` and fits a
    /// predictor on the repaired dataset. Feature rows passed to
    /// [`Self::interval`] afterwards must come from the returned
    /// [`SanitizedFit::dataset`] (repairs may drop columns).
    ///
    /// When monitor loss forced the parametric-only fallback, the log's
    /// `fallback_length_cost_mv` is filled with the mean interval-length
    /// cost relative to a fit that keeps the surviving monitors — the
    /// pipeline's live mirror of the paper's Table IV feature-set trade.
    ///
    /// # Errors
    ///
    /// [`CoreError::DirtyDataRejected`] in strict mode and
    /// [`CoreError::Hygiene`] when a repair pass fails (see
    /// [`crate::sanitize_campaign`]); otherwise the same conditions as
    /// [`Self::fit`].
    #[allow(clippy::too_many_arguments)] // mirrors `fit` plus the scenario coordinates
    pub fn fit_sanitized(
        campaign: &Campaign,
        read_point: usize,
        temp_idx: usize,
        feature_set: FeatureSet,
        policy: &DegradationPolicy,
        method: RegionMethod,
        alpha: f64,
        cal_fraction: f64,
        seed: u64,
        cfg: &ModelConfig,
    ) -> Result<SanitizedFit, CoreError> {
        let sanitize = |policy: &DegradationPolicy| {
            sanitize_campaign(campaign, read_point, temp_idx, feature_set, policy)
        };
        let fit = |ds: &Dataset| VminPredictor::fit(ds, method, alpha, cal_fraction, seed, cfg);
        let (dataset, mut log) = sanitize(policy)?;
        let predictor = fit(&dataset)?;
        if log.monitor_fallback {
            log.fallback_length_cost_mv =
                fallback_length_cost(policy, sanitize, fit, &predictor, &dataset);
        }
        Ok(SanitizedFit {
            predictor,
            dataset,
            log,
        })
    }
}

/// A predictor fitted through the degradation pipeline, together with the
/// repaired dataset it was fitted on and the structured repair log.
#[derive(Debug)]
pub struct SanitizedFit {
    /// The fitted predictor (over the repaired feature space).
    pub predictor: VminPredictor,
    /// The repaired dataset; its rows are valid inputs to
    /// [`VminPredictor::interval`].
    pub dataset: Dataset,
    /// What the degradation pipeline detected and repaired.
    pub log: RepairLog,
}

/// Mean interval length of `p` over the rows of `ds`, or `None` for an
/// empty dataset or on any prediction failure.
fn mean_interval_length_over(p: &VminPredictor, ds: &Dataset) -> Option<f64> {
    if ds.n_samples() == 0 {
        return None;
    }
    let mut report = IntervalReport::default();
    for (i, &truth) in ds.targets().iter().enumerate() {
        report.record(p.interval(ds.sample(i)).ok()?, truth);
    }
    Some(report.mean_length())
}

/// Interval-length cost (mV) of the parametric-only fallback: re-sanitizes
/// with the fallback disabled (keeping whatever monitor columns survived),
/// refits with `fit` and compares mean interval lengths. Positive = the
/// fallback costs interval sharpness, mirroring Table IV. `None` when no
/// comparison fit is possible (e.g. the whole monitor bank is dead).
fn fallback_length_cost(
    policy: &DegradationPolicy,
    sanitize: impl Fn(&DegradationPolicy) -> Result<(Dataset, RepairLog), CoreError>,
    fit: impl Fn(&Dataset) -> Result<VminPredictor, CoreError>,
    fallback: &VminPredictor,
    fallback_ds: &Dataset,
) -> Option<f64> {
    let keep_monitors = DegradationPolicy {
        monitor_fallback_threshold: f64::INFINITY,
        ..policy.clone()
    };
    let (full_ds, _) = sanitize(&keep_monitors).ok()?;
    if full_ds.n_features() <= fallback_ds.n_features() {
        return None; // no monitor column survived; nothing to compare against
    }
    let full = fit(&full_ds).ok()?;
    let fb_len = mean_interval_length_over(fallback, fallback_ds)?;
    let full_len = mean_interval_length_over(&full, &full_ds)?;
    Some(fb_len - full_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{assemble_dataset, FeatureSet};
    use vmin_data::KFold;
    use vmin_silicon::{Campaign, DatasetSpec};

    fn small_dataset() -> Dataset {
        let campaign = Campaign::run(&DatasetSpec::small(), 5);
        assemble_dataset(&campaign, 0, 1, FeatureSet::Both).unwrap()
    }

    #[test]
    fn point_fold_linear_beats_mean_baseline() {
        let ds = small_dataset();
        let kf = KFold::new(ds.n_samples(), 4, 7);
        let split = kf.split(0);
        let train = ds.subset_rows(&split.train).unwrap();
        let test = ds.subset_rows(&split.test).unwrap();
        let eval =
            eval_point_fold(PointModel::Linear, &ModelConfig::fast(), &train, &test).unwrap();
        assert!(
            eval.r2 > 0.0,
            "LR should beat the mean baseline, R²={}",
            eval.r2
        );
        assert!(eval.n_features >= 1 && eval.n_features <= 10);
        assert!(eval.rmse > 0.0);
    }

    #[test]
    fn region_fold_cqr_linear_produces_sane_intervals() {
        let ds = small_dataset();
        let kf = KFold::new(ds.n_samples(), 4, 7);
        let split = kf.split(1);
        let train = ds.subset_rows(&split.train).unwrap();
        let test = ds.subset_rows(&split.test).unwrap();
        let eval = eval_region_fold(
            RegionMethod::Cqr(PointModel::Linear),
            &ModelConfig::fast(),
            &train,
            &test,
            0.2,
            0.4,
            42,
        )
        .unwrap();
        assert!(eval.mean_length > 0.0);
        assert!(eval.coverage >= 0.0 && eval.coverage <= 1.0);
    }

    #[test]
    fn gp_region_fold_works() {
        let ds = small_dataset();
        let kf = KFold::new(ds.n_samples(), 4, 7);
        let split = kf.split(2);
        let train = ds.subset_rows(&split.train).unwrap();
        let test = ds.subset_rows(&split.test).unwrap();
        let eval = eval_region_fold(
            RegionMethod::Gp,
            &ModelConfig::fast(),
            &train,
            &test,
            0.1,
            0.25,
            42,
        )
        .unwrap();
        assert!(eval.mean_length.is_finite());
    }

    #[test]
    fn base_model_rejections_arrive_typed_with_their_source() {
        use std::error::Error;
        use vmin_conformal::ConformalError;
        use vmin_models::ModelError;
        // Every target non-finite, so the base model rejects the training
        // set whichever rows CQR splits off for calibration.
        let ds = small_dataset();
        let nan = vec![f64::NAN; ds.n_samples()];
        let bad = Dataset::new(ds.features().clone(), nan, ds.names().to_vec()).unwrap();
        let fit = |method| {
            VminPredictor::fit(&bad, method, 0.1, 0.25, 42, &ModelConfig::fast()).unwrap_err()
        };
        let qr = fit(RegionMethod::Qr(PointModel::Xgboost));
        assert!(
            matches!(qr, CoreError::Model(ModelError::InvalidInput(_))),
            "{qr:?}"
        );
        let cqr = fit(RegionMethod::Cqr(PointModel::Xgboost));
        assert!(
            matches!(
                cqr,
                CoreError::Conformal(ConformalError::Model(ModelError::InvalidInput(_)))
            ),
            "{cqr:?}"
        );
        for e in [qr, cqr] {
            let source = e.source().expect("a wrapped error exposes its source");
            assert!(e.to_string().ends_with(&source.to_string()), "{e}");
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let ds = small_dataset();
        let kf = KFold::new(ds.n_samples(), 2, 1);
        let split = kf.split(0);
        let train = ds.subset_rows(&split.train).unwrap();
        let test = ds.subset_rows(&split.test).unwrap();
        let bad_alpha = eval_region_fold(
            RegionMethod::Gp,
            &ModelConfig::fast(),
            &train,
            &test,
            0.0,
            0.25,
            1,
        );
        assert!(matches!(bad_alpha, Err(CoreError::InvalidConfig(_))));
        let bad_cal = eval_region_fold(
            RegionMethod::Cqr(PointModel::Linear),
            &ModelConfig::fast(),
            &train,
            &test,
            0.1,
            0.0,
            1,
        );
        assert!(matches!(bad_cal, Err(CoreError::InvalidConfig(_))));
    }

    #[test]
    fn cqr_fit_on_fewer_than_two_rows_is_a_typed_error() {
        let ds = small_dataset();
        let one_row = ds.subset_rows(&[0]).unwrap();
        let fit = VminPredictor::fit(
            &one_row,
            RegionMethod::Cqr(PointModel::Xgboost),
            0.1,
            0.25,
            1,
            &ModelConfig::fast(),
        );
        assert!(matches!(fit, Err(CoreError::InvalidConfig(_))), "{fit:?}");
    }

    #[test]
    fn region_fold_with_an_empty_test_set_is_a_typed_error() {
        let ds = small_dataset();
        let empty = ds.subset_rows(&[]).unwrap();
        let eval = eval_region_fold(
            RegionMethod::Qr(PointModel::Linear),
            &ModelConfig::fast(),
            &ds,
            &empty,
            0.1,
            0.25,
            1,
        );
        assert!(matches!(eval, Err(CoreError::InvalidConfig(_))), "{eval:?}");
    }

    #[test]
    fn predictor_end_to_end() {
        let ds = small_dataset();
        let pred = VminPredictor::fit(
            &ds,
            RegionMethod::Cqr(PointModel::Linear),
            0.2,
            0.4,
            3,
            &ModelConfig::fast(),
        )
        .unwrap();
        assert_eq!(pred.alpha(), 0.2);
        let iv = pred.interval(ds.sample(0)).unwrap();
        assert!(iv.length() > 0.0 && iv.lo().is_finite());
        // Spec risk flag is monotone in the threshold.
        assert!(pred.flags_spec_risk(ds.sample(0), iv.hi() - 1.0).unwrap());
        assert!(!pred.flags_spec_risk(ds.sample(0), iv.hi() + 1.0).unwrap());
    }

    #[test]
    fn predictor_covers_most_training_chips() {
        let ds = small_dataset();
        let pred = VminPredictor::fit(
            &ds,
            RegionMethod::Cqr(PointModel::Linear),
            0.2,
            0.4,
            3,
            &ModelConfig::fast(),
        )
        .unwrap();
        let mut report = IntervalReport::default();
        for (i, &truth) in ds.targets().iter().enumerate() {
            report.record(pred.interval(ds.sample(i)).unwrap(), truth);
        }
        assert!(
            report.coverage() > 0.6,
            "in-sample coverage too low: {}/{}",
            report.covered(),
            report.n()
        );
    }
}
