//! Conformalized quantile regression (Romano, Patterson & Candès 2019) —
//! the paper's method (§III-C, Eqs. 9–10).
//!
//! CQR wraps a *pair* of quantile regressors (at `α/2` and `1 − α/2`) and
//! calibrates a single additive correction `q̂` from the score
//!
//! `s(x, y) = max{ ĝ_lo(x) − y, y − ĝ_hi(x) }`
//!
//! yielding adaptive, heteroscedasticity-aware intervals with the same
//! finite-sample coverage guarantee as split CP.

use crate::interval::{ConformalError, PredictionInterval, Result};
use crate::quantile::conformal_quantile;
use vmin_linalg::Matrix;
use vmin_models::Regressor;

/// CQR around a lower/upper quantile-regressor pair.
///
/// The caller constructs the pair already aimed at quantiles `α/2` and
/// `1 − α/2` (e.g. `GradientBoost::new(Loss::Pinball(0.05))` /
/// `...(0.95)` for `α = 0.1`), mirroring the paper's "QR + conformalize"
/// recipe.
///
/// # Examples
///
/// ```
/// use vmin_conformal::Cqr;
/// use vmin_models::{Loss, QuantileLinear};
/// use vmin_linalg::Matrix;
///
/// let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.1]).collect();
/// let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0]).collect();
/// let x = Matrix::from_rows(&rows)?;
///
/// let mut cqr = Cqr::new(
///     QuantileLinear::new(0.05),
///     QuantileLinear::new(0.95),
///     0.1,
/// );
/// cqr.fit_calibrate(&x, &y, &x, &y)?;
/// let iv = cqr.predict_interval(&[2.0])?;
/// assert!(iv.contains(4.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cqr<L, H> {
    lo_model: L,
    hi_model: H,
    alpha: f64,
    qhat: Option<f64>,
}

impl<L: Regressor, H: Regressor> Cqr<L, H> {
    /// Wraps the quantile pair targeting coverage `1 − alpha`.
    pub fn new(lo_model: L, hi_model: H, alpha: f64) -> Self {
        Cqr {
            lo_model,
            hi_model,
            alpha,
            qhat: None,
        }
    }

    /// Rebuilds a **calibrated** CQR from captured state — the artifact
    /// reload path (`vmin-serve`): the pair is already fitted and `qhat`
    /// was computed by an earlier [`Self::calibrate`], so no training or
    /// calibration data is touched. The caller asserts the invariant that
    /// `qhat` really came from this pair at this `alpha`; nothing here can
    /// re-derive it.
    ///
    /// # Errors
    ///
    /// [`ConformalError::InvalidArgument`] when `alpha` is outside `(0, 1)`
    /// or `qhat` is NaN (`+∞` is legal: it is what calibration yields when
    /// the window is too small for the requested coverage).
    pub fn from_calibrated(lo_model: L, hi_model: H, alpha: f64, qhat: f64) -> Result<Self> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(ConformalError::InvalidArgument(format!(
                "alpha must be in (0, 1), got {alpha}"
            )));
        }
        if qhat.is_nan() {
            return Err(ConformalError::InvalidArgument(
                "captured qhat is NaN".to_string(),
            ));
        }
        Ok(Cqr {
            lo_model,
            hi_model,
            alpha,
            qhat: Some(qhat),
        })
    }

    /// The miscoverage level `α` the pair targets.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Fits both quantile models on the proper-training split and calibrates
    /// `q̂` on the calibration split (the paper holds out 25% of training
    /// chips for this).
    ///
    /// # Errors
    ///
    /// - [`ConformalError::InvalidArgument`] for bad `alpha` or empty splits.
    /// - [`ConformalError::Model`] when an underlying fit/predict fails.
    pub fn fit_calibrate(
        &mut self,
        x_train: &Matrix,
        y_train: &[f64],
        x_cal: &Matrix,
        y_cal: &[f64],
    ) -> Result<()> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ConformalError::InvalidArgument(format!(
                "alpha must be in (0, 1), got {}",
                self.alpha
            )));
        }
        let _span = vmin_trace::span("conformal.cqr.fit_calibrate");
        vmin_trace::counter_add("conformal.cqr.fits", 1);
        // The pair's fits are independent; run them on two threads when the
        // pool allows. Each fit is unchanged, so the result is bit-identical
        // to fitting serially.
        let Cqr {
            lo_model, hi_model, ..
        } = self;
        // One fit plan serves both quantile models: binned tables and
        // standardized designs are built once instead of once per quantile.
        // fit_with_plan is exact, so the pair is still byte-identical to
        // two independent fits.
        let shared_plan = if (lo_model.wants_fit_plan() || hi_model.wants_fit_plan())
            && x_train.rows() > 0
            && x_train.cols() > 0
        {
            Some(vmin_models::FitPlan::build(x_train))
        } else {
            None
        };
        let (lo_res, hi_res) = match &shared_plan {
            Some(plan) => vmin_par::join(
                || lo_model.fit_with_plan(x_train, y_train, plan),
                || hi_model.fit_with_plan(x_train, y_train, plan),
            ),
            None => vmin_par::join(
                || lo_model.fit(x_train, y_train),
                || hi_model.fit(x_train, y_train),
            ),
        };
        lo_res?;
        hi_res?;
        self.calibrate(x_cal, y_cal)
    }

    /// (Re)calibrates `q̂` with the already-fitted pair.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::fit_calibrate`].
    pub fn calibrate(&mut self, x_cal: &Matrix, y_cal: &[f64]) -> Result<()> {
        if x_cal.rows() != y_cal.len() || y_cal.is_empty() {
            return Err(ConformalError::InvalidArgument(format!(
                "calibration set: {} rows vs {} targets",
                x_cal.rows(),
                y_cal.len()
            )));
        }
        let scores = self.scores(x_cal, y_cal)?;
        let qhat = conformal_quantile(&scores, self.alpha)?;
        vmin_trace::counter_add("conformal.cqr.calibrations", 1);
        vmin_trace::gauge_max("conformal.cqr.qhat.max", qhat);
        self.qhat = Some(qhat);
        Ok(())
    }

    /// Nonconformity scores of the fitted pair over `(x, y)` —
    /// `s(x, y) = max{ ĝ_lo(x) − y, y − ĝ_hi(x) }` (Eq. 9): positive when
    /// `y` escapes the heuristic band. This is the raw material of every
    /// calibration: [`Self::calibrate`] takes its conformal quantile, the
    /// guarded audit compares slices of it, and the streaming adaptive
    /// layer keeps a rolling window of it.
    ///
    /// # Errors
    ///
    /// Model errors on prediction failure; [`ConformalError::InvalidArgument`]
    /// on a row/target length mismatch.
    pub fn scores(&self, x: &Matrix, y: &[f64]) -> Result<Vec<f64>> {
        if x.rows() != y.len() {
            return Err(ConformalError::InvalidArgument(format!(
                "score set: {} rows vs {} targets",
                x.rows(),
                y.len()
            )));
        }
        let lo = self.lo_model.predict(x)?;
        let hi = self.hi_model.predict(x)?;
        Ok(lo
            .iter()
            .zip(&hi)
            .zip(y)
            .map(|((l, h), t)| (l - t).max(t - h))
            .collect())
    }

    /// The calibrated correction `q̂` (may be negative: CQR can *shrink* an
    /// over-wide heuristic band).
    pub fn qhat(&self) -> Option<f64> {
        self.qhat
    }

    /// Borrow of the lower-quantile model.
    pub fn lo_model(&self) -> &L {
        &self.lo_model
    }

    /// Borrow of the upper-quantile model.
    pub fn hi_model(&self) -> &H {
        &self.hi_model
    }

    /// The raw (uncalibrated) quantile band — what plain QR would report.
    ///
    /// # Errors
    ///
    /// Model errors on prediction failure.
    pub fn predict_raw_band(&self, row: &[f64]) -> Result<PredictionInterval> {
        let lo = self.lo_model.predict_row(row)?;
        let hi = self.hi_model.predict_row(row)?;
        Ok(PredictionInterval::new(lo, hi))
    }

    /// The conformalized interval `[ĝ_lo(x) − q̂, ĝ_hi(x) + q̂]` (Eq. 10).
    ///
    /// # Errors
    ///
    /// [`ConformalError::NotCalibrated`] before calibration; model errors
    /// otherwise.
    pub fn predict_interval(&self, row: &[f64]) -> Result<PredictionInterval> {
        let qhat = self.qhat.ok_or(ConformalError::NotCalibrated)?;
        let lo = self.lo_model.predict_row(row)?;
        let hi = self.hi_model.predict_row(row)?;
        Ok(PredictionInterval::new(lo - qhat, hi + qhat))
    }

    /// Conformalized intervals for every row of `x`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::predict_interval`].
    pub fn predict_intervals(&self, x: &Matrix) -> Result<Vec<PredictionInterval>> {
        let rows: Vec<usize> = (0..x.rows()).collect();
        vmin_par::par_map(&rows, 32, |_, &i| self.predict_interval(x.row(i)))
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::evaluate_intervals;
    use vmin_models::QuantileLinear;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::Rng;
    use vmin_rng::SeedableRng;

    /// Strongly heteroscedastic data: noise scale grows 5× across the range.
    fn hetero(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..4.0);
            rows.push(vec![x]);
            y.push(x + (0.25 + x) * rng.gen_range(-1.0..1.0));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn fitted_cqr(seed: u64, alpha: f64) -> Cqr<QuantileLinear, QuantileLinear> {
        let (x_tr, y_tr) = hetero(120, seed);
        let (x_ca, y_ca) = hetero(80, seed + 500);
        let mut cqr = Cqr::new(
            QuantileLinear::new(alpha / 2.0),
            QuantileLinear::new(1.0 - alpha / 2.0),
            alpha,
        );
        cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
        cqr
    }

    #[test]
    fn intervals_adapt_to_heteroscedasticity() {
        let cqr = fitted_cqr(1, 0.1);
        let narrow = cqr.predict_interval(&[0.2]).unwrap();
        let wide = cqr.predict_interval(&[3.8]).unwrap();
        assert!(
            wide.length() > narrow.length() * 1.5,
            "CQR must widen with the noise: {} vs {}",
            wide.length(),
            narrow.length()
        );
    }

    #[test]
    fn conformalized_band_contains_raw_band_when_qhat_positive() {
        let cqr = fitted_cqr(2, 0.1);
        let q = cqr.qhat().unwrap();
        let raw = cqr.predict_raw_band(&[2.0]).unwrap();
        let cal = cqr.predict_interval(&[2.0]).unwrap();
        if q >= 0.0 {
            assert!(cal.lo() <= raw.lo() && cal.hi() >= raw.hi());
            assert!((cal.length() - (raw.length() + 2.0 * q)).abs() < 1e-9);
        } else {
            assert!(cal.length() < raw.length());
        }
    }

    #[test]
    fn average_coverage_respects_target() {
        let mut total = 0.0;
        let reps = 25;
        for seed in 0..reps {
            let cqr = fitted_cqr(seed * 7 + 3, 0.2);
            let (x_te, y_te) = hetero(60, seed * 7 + 4000);
            let ivs = cqr.predict_intervals(&x_te).unwrap();
            total += evaluate_intervals(&ivs, &y_te).coverage;
        }
        let avg = total / reps as f64;
        assert!(
            avg >= 0.78,
            "average CQR coverage must reach ≈ 1−α = 0.8, got {avg}"
        );
    }

    #[test]
    fn calibration_fixes_undercovering_raw_band() {
        // Train quantile models on few samples so the raw band undercovers,
        // then verify conformalization recovers coverage (the Table III
        // QR-vs-CQR story in miniature).
        let mut raw_cov_total = 0.0;
        let mut cal_cov_total = 0.0;
        let reps = 15;
        for seed in 0..reps {
            let (x_tr, y_tr) = hetero(25, seed * 1000 + 1);
            let (x_ca, y_ca) = hetero(60, seed * 1000 + 2);
            let (x_te, y_te) = hetero(80, seed * 1000 + 3);
            let mut cqr = Cqr::new(QuantileLinear::new(0.1), QuantileLinear::new(0.9), 0.2);
            cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
            let raw: Vec<PredictionInterval> = (0..x_te.rows())
                .map(|i| cqr.predict_raw_band(x_te.row(i)).unwrap())
                .collect();
            let cal = cqr.predict_intervals(&x_te).unwrap();
            raw_cov_total += evaluate_intervals(&raw, &y_te).coverage;
            cal_cov_total += evaluate_intervals(&cal, &y_te).coverage;
        }
        let raw_avg = raw_cov_total / reps as f64;
        let cal_avg = cal_cov_total / reps as f64;
        assert!(
            cal_avg >= raw_avg - 0.02,
            "calibration should not reduce coverage: raw {raw_avg} vs cal {cal_avg}"
        );
        assert!(
            cal_avg >= 0.78,
            "calibrated coverage {cal_avg} below target"
        );
    }

    #[test]
    fn qhat_can_shrink_overwide_bands() {
        // An extreme quantile pair (0.01/0.99) on clean data over-covers;
        // CQR's q̂ may then be negative, shrinking the band.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 * 0.04]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect(); // noise-free
        let x = Matrix::from_rows(&rows).unwrap();
        let mut cqr = Cqr::new(QuantileLinear::new(0.01), QuantileLinear::new(0.99), 0.5);
        cqr.fit_calibrate(&x, &y, &x, &y).unwrap();
        // With noise-free data and α = 0.5, q̂ ≤ 0 is expected.
        assert!(cqr.qhat().unwrap() <= 1e-6);
    }

    #[test]
    fn shared_plan_yields_bit_identical_intervals() {
        use vmin_models::{GradientBoost, Loss, Regressor};
        let (x_tr, y_tr) = hetero(100, 11);
        let (x_ca, y_ca) = hetero(60, 12);
        let (x_te, _) = hetero(40, 13);
        let bits = |cqr: &Cqr<GradientBoost, GradientBoost>| {
            let ivs = cqr.predict_intervals(&x_te).unwrap();
            let bits: Vec<(u64, u64)> = ivs
                .iter()
                .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
                .collect();
            (cqr.qhat().unwrap().to_bits(), bits)
        };
        // fit_calibrate shares one plan across the pair; the reference
        // fits each quantile model plainly and calibrates the same way.
        let mut shared = Cqr::new(
            GradientBoost::new(Loss::Pinball(0.05)),
            GradientBoost::new(Loss::Pinball(0.95)),
            0.1,
        );
        shared.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
        let mut lo = GradientBoost::new(Loss::Pinball(0.05));
        let mut hi = GradientBoost::new(Loss::Pinball(0.95));
        lo.fit(&x_tr, &y_tr).unwrap();
        hi.fit(&x_tr, &y_tr).unwrap();
        let mut plain = Cqr::new(lo, hi, 0.1);
        plain.calibrate(&x_ca, &y_ca).unwrap();
        assert_eq!(bits(&shared), bits(&plain));
    }

    #[test]
    fn error_paths() {
        let cqr: Cqr<QuantileLinear, QuantileLinear> =
            Cqr::new(QuantileLinear::new(0.05), QuantileLinear::new(0.95), 0.1);
        assert!(matches!(
            cqr.predict_interval(&[0.0]),
            Err(ConformalError::NotCalibrated)
        ));
        let (x, y) = hetero(20, 1);
        let mut bad = Cqr::new(QuantileLinear::new(0.05), QuantileLinear::new(0.95), 0.0);
        assert!(bad.fit_calibrate(&x, &y, &x, &y).is_err());
    }
}
