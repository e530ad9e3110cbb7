//! Asymmetric CQR: calibrate the lower and upper band edges *separately*.
//!
//! Standard CQR (Eq. 9–10) calibrates one correction `q̂` from the
//! two-sided score, guaranteeing marginal coverage of `1 − α`. The
//! asymmetric variant (Romano et al. 2019, §2.2 remark) instead computes
//! `q̂_lo` from `g_lo(x) − y` at level `1 − α/2` and `q̂_hi` from
//! `y − g_hi(x)` at level `1 − α/2`, guaranteeing `1 − α/2` coverage *per
//! side* (hence ≥ `1 − α` overall). The price is (weakly) wider intervals;
//! the benefit is one-sided validity — valuable for Vmin screening, where
//! only the *upper* bound drives the min-spec decision.

use crate::interval::{
    check_alpha, check_calibration_set, ConformalError, PredictionInterval, Result,
};
use crate::quantile::conformal_quantile;
use vmin_linalg::Matrix;
use vmin_models::Regressor;

/// CQR with per-side conformal corrections.
///
/// # Examples
///
/// ```
/// use vmin_conformal::CqrAsymmetric;
/// use vmin_models::QuantileLinear;
/// use vmin_linalg::Matrix;
///
/// let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.1]).collect();
/// let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0]).collect();
/// let x = Matrix::from_rows(&rows)?;
/// let mut cqr = CqrAsymmetric::new(
///     QuantileLinear::new(0.05),
///     QuantileLinear::new(0.95),
///     0.1,
/// );
/// cqr.fit_calibrate(&x, &y, &x, &y)?;
/// assert!(cqr.predict_interval(&[2.0])?.contains(4.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CqrAsymmetric<L, H> {
    lo_model: L,
    hi_model: H,
    alpha: f64,
    qhat_lo: Option<f64>,
    qhat_hi: Option<f64>,
}

impl<L: Regressor, H: Regressor> CqrAsymmetric<L, H> {
    /// Wraps the quantile pair targeting overall coverage `1 − alpha` with
    /// `1 − alpha/2` per side.
    pub fn new(lo_model: L, hi_model: H, alpha: f64) -> Self {
        CqrAsymmetric {
            lo_model,
            hi_model,
            alpha,
            qhat_lo: None,
            qhat_hi: None,
        }
    }

    /// Fits the pair on the proper-training split and calibrates each side.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::Cqr::fit_calibrate`].
    pub fn fit_calibrate(
        &mut self,
        x_train: &Matrix,
        y_train: &[f64],
        x_cal: &Matrix,
        y_cal: &[f64],
    ) -> Result<()> {
        check_alpha(self.alpha)?;
        check_calibration_set(x_cal, y_cal)?;
        self.lo_model.fit(x_train, y_train)?;
        self.hi_model.fit(x_train, y_train)?;
        let lo = self.lo_model.predict(x_cal)?;
        let hi = self.hi_model.predict(x_cal)?;
        let s_lo: Vec<f64> = lo.iter().zip(y_cal).map(|(l, y)| l - y).collect();
        let s_hi: Vec<f64> = hi.iter().zip(y_cal).map(|(h, y)| y - h).collect();
        self.qhat_lo = Some(conformal_quantile(&s_lo, self.alpha / 2.0)?);
        self.qhat_hi = Some(conformal_quantile(&s_hi, self.alpha / 2.0)?);
        Ok(())
    }

    /// The per-side corrections `(q̂_lo, q̂_hi)`, if calibrated.
    pub fn qhats(&self) -> Option<(f64, f64)> {
        Some((self.qhat_lo?, self.qhat_hi?))
    }

    /// The calibrated interval `[g_lo(x) − q̂_lo, g_hi(x) + q̂_hi]`.
    ///
    /// # Errors
    ///
    /// [`ConformalError::NotCalibrated`] before calibration.
    pub fn predict_interval(&self, row: &[f64]) -> Result<PredictionInterval> {
        let q_lo = self.qhat_lo.ok_or(ConformalError::NotCalibrated)?;
        let q_hi = self.qhat_hi.ok_or(ConformalError::NotCalibrated)?;
        let lo = self.lo_model.predict_row(row)?;
        let hi = self.hi_model.predict_row(row)?;
        Ok(PredictionInterval::new(lo - q_lo, hi + q_hi))
    }

    /// One-sided upper bound with `1 − alpha/2` coverage — the quantity the
    /// min-spec screening decision needs.
    ///
    /// # Errors
    ///
    /// [`ConformalError::NotCalibrated`] before calibration.
    pub fn upper_bound(&self, row: &[f64]) -> Result<f64> {
        let q_hi = self.qhat_hi.ok_or(ConformalError::NotCalibrated)?;
        Ok(self.hi_model.predict_row(row)? + q_hi)
    }

    /// Calibrated intervals for every row of `x`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::predict_interval`].
    pub fn predict_intervals(&self, x: &Matrix) -> Result<Vec<PredictionInterval>> {
        (0..x.rows())
            .map(|i| self.predict_interval(x.row(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cqr::Cqr;
    use crate::interval::evaluate_intervals;
    use vmin_models::QuantileLinear;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::Rng;
    use vmin_rng::SeedableRng;

    fn skewed(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..4.0);
            // Asymmetric noise: long upper tail (like defect-driven Vmin).
            let eps = -(1.0 - rng.gen::<f64>()).ln() - 0.3 * rng.gen::<f64>();
            rows.push(vec![x]);
            y.push(x + eps);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn fitted(seed: u64) -> CqrAsymmetric<QuantileLinear, QuantileLinear> {
        let (x_tr, y_tr) = skewed(120, seed);
        let (x_ca, y_ca) = skewed(90, seed + 1000);
        let mut c = CqrAsymmetric::new(
            QuantileLinear::new(0.1).with_training(400, 0.02),
            QuantileLinear::new(0.9).with_training(400, 0.02),
            0.2,
        );
        c.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
        c
    }

    #[test]
    fn covers_on_average() {
        let mut total = 0.0;
        let reps = 15;
        for s in 0..reps {
            let c = fitted(s * 2000 + 3);
            let (x_te, y_te) = skewed(70, s * 2000 + 5);
            total += evaluate_intervals(&c.predict_intervals(&x_te).unwrap(), &y_te)
                .unwrap()
                .coverage();
        }
        let avg = total / reps as f64;
        assert!(avg >= 0.8 - 0.05, "asymmetric CQR coverage {avg}");
    }

    #[test]
    fn upper_bound_matches_interval_hi() {
        let c = fitted(1);
        let iv = c.predict_interval(&[2.0]).unwrap();
        let ub = c.upper_bound(&[2.0]).unwrap();
        assert!((iv.hi() - ub).abs() < 1e-12);
    }

    #[test]
    fn at_least_as_wide_as_symmetric_on_average() {
        // Per-side 1−α/2 calibration is (weakly) more conservative than the
        // joint 1−α calibration.
        let (x_tr, y_tr) = skewed(120, 11);
        let (x_ca, y_ca) = skewed(90, 12);
        let (x_te, _) = skewed(60, 13);
        let mk_lo = || QuantileLinear::new(0.1).with_training(400, 0.02);
        let mk_hi = || QuantileLinear::new(0.9).with_training(400, 0.02);
        let mut sym = Cqr::new(mk_lo(), mk_hi(), 0.2);
        sym.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
        let mut asym = CqrAsymmetric::new(mk_lo(), mk_hi(), 0.2);
        asym.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
        let w_sym: f64 = sym
            .predict_intervals(&x_te)
            .unwrap()
            .iter()
            .map(|iv| iv.length())
            .sum();
        let w_asym: f64 = asym
            .predict_intervals(&x_te)
            .unwrap()
            .iter()
            .map(|iv| iv.length())
            .sum();
        assert!(
            w_asym >= w_sym * 0.95,
            "asymmetric ({w_asym}) should not be materially narrower than symmetric ({w_sym})"
        );
    }

    #[test]
    fn error_paths() {
        let c: CqrAsymmetric<QuantileLinear, QuantileLinear> =
            CqrAsymmetric::new(QuantileLinear::new(0.1), QuantileLinear::new(0.9), 0.2);
        assert!(matches!(
            c.predict_interval(&[0.0]),
            Err(ConformalError::NotCalibrated)
        ));
        assert!(matches!(
            c.upper_bound(&[0.0]),
            Err(ConformalError::NotCalibrated)
        ));
        let (x, y) = skewed(20, 9);
        let mut bad = CqrAsymmetric::new(QuantileLinear::new(0.1), QuantileLinear::new(0.9), 2.0);
        assert!(bad.fit_calibrate(&x, &y, &x, &y).is_err());
    }
}
