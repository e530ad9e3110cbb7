//! Split conformal prediction around any point regressor (§III-B, Eqs. 7–8).
//!
//! Vanilla split CP produces *constant-width* intervals `ŷ ± q̂`: the
//! guarantee holds, but every chip gets the same margin — the overkill /
//! underkill limitation that motivates CQR (§III-C).

use crate::interval::{
    check_alpha, check_calibration_set, ConformalError, PredictionInterval, Result,
};
use crate::quantile::conformal_quantile;
use vmin_linalg::Matrix;
use vmin_models::Regressor;

/// Split conformal predictor wrapping a point model.
///
/// # Examples
///
/// ```
/// use vmin_conformal::SplitConformal;
/// use vmin_models::LinearRegression;
/// use vmin_linalg::Matrix;
///
/// let x_tr = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
/// let y_tr = [0.0, 1.0, 2.0, 3.0];
/// let x_ca = Matrix::from_rows(&(0..12).map(|i| vec![i as f64 * 0.3]).collect::<Vec<_>>())?;
/// let y_ca: Vec<f64> = (0..12).map(|i| i as f64 * 0.3).collect();
///
/// let mut cp = SplitConformal::new(LinearRegression::new(), 0.1);
/// cp.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca)?;
/// let iv = cp.predict_interval(&[1.5])?;
/// assert!(iv.contains(1.5));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SplitConformal<R> {
    model: R,
    alpha: f64,
    qhat: Option<f64>,
}

impl<R: Regressor> SplitConformal<R> {
    /// Wraps `model` targeting coverage `1 − alpha`.
    pub fn new(model: R, alpha: f64) -> Self {
        SplitConformal {
            model,
            alpha,
            qhat: None,
        }
    }

    /// Fits the point model on the proper-training split and calibrates the
    /// conformal margin on the calibration split.
    ///
    /// # Errors
    ///
    /// - [`ConformalError::InvalidArgument`] for bad `alpha` or empty splits.
    /// - [`ConformalError::Model`] when the underlying fit/predict fails.
    pub fn fit_calibrate(
        &mut self,
        x_train: &Matrix,
        y_train: &[f64],
        x_cal: &Matrix,
        y_cal: &[f64],
    ) -> Result<()> {
        check_alpha(self.alpha)?;
        self.model.fit(x_train, y_train)?;
        self.calibrate(x_cal, y_cal)
    }

    /// (Re)calibrates the margin on a new calibration set, keeping the
    /// already-fitted model.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::fit_calibrate`].
    pub fn calibrate(&mut self, x_cal: &Matrix, y_cal: &[f64]) -> Result<()> {
        check_calibration_set(x_cal, y_cal)?;
        // Conformal score: absolute residual (Eq. 7).
        let preds = self.model.predict(x_cal)?;
        let scores: Vec<f64> = preds
            .iter()
            .zip(y_cal)
            .map(|(p, y)| (y - p).abs())
            .collect();
        self.qhat = Some(conformal_quantile(&scores, self.alpha)?);
        Ok(())
    }

    /// The calibrated margin `q̂`, if calibrated.
    pub fn qhat(&self) -> Option<f64> {
        self.qhat
    }

    /// Borrow of the wrapped model.
    pub fn model(&self) -> &R {
        &self.model
    }

    /// Predicts the interval `[ŷ − q̂, ŷ + q̂]` (Eq. 8).
    ///
    /// # Errors
    ///
    /// [`ConformalError::NotCalibrated`] before calibration; model errors
    /// otherwise.
    pub fn predict_interval(&self, row: &[f64]) -> Result<PredictionInterval> {
        let qhat = self.qhat.ok_or(ConformalError::NotCalibrated)?;
        let p = self.model.predict_row(row)?;
        Ok(PredictionInterval::new(p - qhat, p + qhat))
    }

    /// Predicts intervals for every row of `x`.
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
    use crate::interval::evaluate_intervals;
    use vmin_models::LinearRegression;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::Rng;
    use vmin_rng::SeedableRng;

    fn linear_noise(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..5.0);
            rows.push(vec![x]);
            y.push(2.0 * x + 1.0 + rng.gen_range(-0.5..0.5));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn intervals_are_constant_width() {
        let (x_tr, y_tr) = linear_noise(60, 1);
        let (x_ca, y_ca) = linear_noise(40, 2);
        let mut cp = SplitConformal::new(LinearRegression::new(), 0.1);
        cp.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
        let (x_te, _) = linear_noise(20, 3);
        let ivs = cp.predict_intervals(&x_te).unwrap();
        let w0 = ivs[0].length();
        for iv in &ivs {
            assert!(
                (iv.length() - w0).abs() < 1e-9,
                "split CP width must be constant"
            );
        }
        assert!((w0 - 2.0 * cp.qhat().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn empirical_coverage_near_target() {
        // Average coverage over repeated draws ≈ 1 − α.
        let mut total_cov = 0.0;
        let reps = 30;
        for seed in 0..reps {
            let (x_tr, y_tr) = linear_noise(60, seed * 3 + 1);
            let (x_ca, y_ca) = linear_noise(50, seed * 3 + 2);
            let (x_te, y_te) = linear_noise(50, seed * 3 + 1000);
            let mut cp = SplitConformal::new(LinearRegression::new(), 0.2);
            cp.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
            let ivs = cp.predict_intervals(&x_te).unwrap();
            total_cov += evaluate_intervals(&ivs, &y_te).unwrap().coverage();
        }
        let avg = total_cov / reps as f64;
        assert!(
            (0.78..=0.95).contains(&avg),
            "average coverage should be ≈ 0.8+, got {avg}"
        );
    }

    #[test]
    fn tiny_calibration_gives_infinite_interval() {
        let (x_tr, y_tr) = linear_noise(30, 5);
        let (x_ca, y_ca) = linear_noise(3, 6); // M = 3 < 9 needed for α = 0.1
        let mut cp = SplitConformal::new(LinearRegression::new(), 0.1);
        cp.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
        let iv = cp.predict_interval(&[1.0]).unwrap();
        assert!(iv.length().is_infinite(), "guarantee forces infinite width");
        assert!(iv.contains(123456.0));
    }

    #[test]
    fn recalibration_updates_margin() {
        let (x_tr, y_tr) = linear_noise(50, 7);
        let (x_ca, y_ca) = linear_noise(40, 8);
        let mut cp = SplitConformal::new(LinearRegression::new(), 0.1);
        cp.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
        let q1 = cp.qhat().unwrap();
        // Calibrate on noisier data: margin must grow.
        let noisy_y: Vec<f64> = y_ca.iter().map(|v| v + 10.0).collect();
        cp.calibrate(&x_ca, &noisy_y).unwrap();
        assert!(cp.qhat().unwrap() > q1);
    }

    #[test]
    fn error_paths() {
        let mut cp = SplitConformal::new(LinearRegression::new(), 0.1);
        assert!(matches!(
            cp.predict_interval(&[0.0]),
            Err(ConformalError::NotCalibrated)
        ));
        let (x, y) = linear_noise(10, 9);
        let mut bad = SplitConformal::new(LinearRegression::new(), 1.5);
        assert!(bad.fit_calibrate(&x, &y, &x, &y).is_err());
        assert!(cp.fit_calibrate(&x, &y, &Matrix::zeros(0, 1), &[]).is_err());
    }
}
