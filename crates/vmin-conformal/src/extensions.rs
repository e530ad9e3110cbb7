//! Conformal extensions beyond the paper: normalized (locally-weighted)
//! split CP, Mondrian (group-conditional) CP and jackknife+.
//!
//! These serve the ablation benches: they quantify how much of CQR's win
//! comes from adaptivity (vs. normalized CP), how group-conditional
//! calibration would behave across temperature corners (Mondrian), and what
//! a split-free method costs at the paper's tiny data scale (jackknife+).

use crate::cv_plus::CvState;
use crate::interval::{
    check_alpha, check_calibration_set, ConformalError, PredictionInterval, Result,
};
use crate::quantile::conformal_quantile;
use vmin_data::Split;
use vmin_linalg::Matrix;
use vmin_models::Regressor;

/// Locally-weighted split CP: scores `|y − ŷ(x)| / σ̂(x)` where `σ̂` is a
/// second model fit on absolute residuals of the training split.
///
/// Produces adaptive intervals `ŷ ± q̂·σ̂(x)` — CP's answer to
/// heteroscedasticity without quantile regression.
#[derive(Debug, Clone)]
pub struct NormalizedConformal<R, S> {
    mean_model: R,
    scale_model: S,
    alpha: f64,
    qhat: Option<f64>,
    /// Floor on σ̂ to keep scores finite.
    min_scale: f64,
}

impl<R: Regressor, S: Regressor> NormalizedConformal<R, S> {
    /// Wraps a mean model and a residual-scale model.
    pub fn new(mean_model: R, scale_model: S, alpha: f64) -> Self {
        NormalizedConformal {
            mean_model,
            scale_model,
            alpha,
            qhat: None,
            min_scale: 1e-6,
        }
    }

    /// Fits the mean model on the training split, the scale model on that
    /// split's absolute residuals, then calibrates.
    ///
    /// # Errors
    ///
    /// [`ConformalError::InvalidArgument`] on bad `alpha`/empty splits;
    /// model errors otherwise.
    pub fn fit_calibrate(
        &mut self,
        x_train: &Matrix,
        y_train: &[f64],
        x_cal: &Matrix,
        y_cal: &[f64],
    ) -> Result<()> {
        check_alpha(self.alpha)?;
        check_calibration_set(x_cal, y_cal)?;
        self.mean_model.fit(x_train, y_train)?;
        let resid: Vec<f64> = self
            .mean_model
            .predict(x_train)?
            .iter()
            .zip(y_train)
            .map(|(p, y)| (y - p).abs())
            .collect();
        self.scale_model.fit(x_train, &resid)?;

        let preds = self.mean_model.predict(x_cal)?;
        let scales = self.scale_model.predict(x_cal)?;
        let scores: Vec<f64> = preds
            .iter()
            .zip(&scales)
            .zip(y_cal)
            .map(|((p, s), y)| (y - p).abs() / s.max(self.min_scale))
            .collect();
        self.qhat = Some(conformal_quantile(&scores, self.alpha)?);
        Ok(())
    }

    /// Adaptive interval `ŷ ± q̂ · σ̂(x)`.
    ///
    /// # Errors
    ///
    /// [`ConformalError::NotCalibrated`] before calibration.
    pub fn predict_interval(&self, row: &[f64]) -> Result<PredictionInterval> {
        let qhat = self.qhat.ok_or(ConformalError::NotCalibrated)?;
        let p = self.mean_model.predict_row(row)?;
        let s = self.scale_model.predict_row(row)?.max(self.min_scale);
        Ok(PredictionInterval::new(p - qhat * s, p + qhat * s))
    }

    /// Intervals for every row of `x`.
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

/// Mondrian (group-conditional) split CP: one conformal margin per group,
/// giving the coverage guarantee *within each group* rather than only
/// marginally — e.g. per temperature corner or per product bin.
#[derive(Debug, Clone)]
pub struct MondrianConformal<R> {
    model: R,
    alpha: f64,
    qhats: Vec<Option<f64>>,
    n_groups: usize,
}

impl<R: Regressor> MondrianConformal<R> {
    /// Wraps `model` with `n_groups` calibration buckets.
    pub fn new(model: R, alpha: f64, n_groups: usize) -> Self {
        MondrianConformal {
            model,
            alpha,
            qhats: vec![None; n_groups],
            n_groups,
        }
    }

    /// Fits on the training split and calibrates each group separately.
    /// `cal_groups[i]` is the group of calibration sample `i`.
    ///
    /// # Errors
    ///
    /// [`ConformalError::InvalidArgument`] when groups are out of range,
    /// splits are empty, or a group has no calibration samples.
    pub fn fit_calibrate(
        &mut self,
        x_train: &Matrix,
        y_train: &[f64],
        x_cal: &Matrix,
        y_cal: &[f64],
        cal_groups: &[usize],
    ) -> Result<()> {
        check_alpha(self.alpha)?;
        check_calibration_set(x_cal, y_cal)?;
        if cal_groups.len() != y_cal.len() {
            return Err(ConformalError::InvalidArgument(format!(
                "{} calibration groups vs {} targets",
                cal_groups.len(),
                y_cal.len()
            )));
        }
        if let Some(&g) = cal_groups.iter().find(|&&g| g >= self.n_groups) {
            return Err(ConformalError::InvalidArgument(format!(
                "group {g} out of range (n_groups = {})",
                self.n_groups
            )));
        }
        self.model.fit(x_train, y_train)?;
        let preds = self.model.predict(x_cal)?;
        for g in 0..self.n_groups {
            let scores: Vec<f64> = preds
                .iter()
                .zip(y_cal)
                .zip(cal_groups)
                .filter(|(_, &grp)| grp == g)
                .map(|((p, y), _)| (y - p).abs())
                .collect();
            if scores.is_empty() {
                return Err(ConformalError::InvalidArgument(format!(
                    "group {g} has no calibration samples"
                )));
            }
            self.qhats[g] = Some(conformal_quantile(&scores, self.alpha)?);
        }
        Ok(())
    }

    /// Interval for a sample known to belong to `group`.
    ///
    /// # Errors
    ///
    /// [`ConformalError::NotCalibrated`] before calibration;
    /// [`ConformalError::InvalidArgument`] for an unknown group.
    pub fn predict_interval(&self, row: &[f64], group: usize) -> Result<PredictionInterval> {
        if group >= self.n_groups {
            return Err(ConformalError::InvalidArgument(format!(
                "group {group} out of range"
            )));
        }
        let qhat = self.qhats[group].ok_or(ConformalError::NotCalibrated)?;
        let p = self.model.predict_row(row)?;
        Ok(PredictionInterval::new(p - qhat, p + qhat))
    }

    /// The per-group margins.
    pub fn group_qhats(&self) -> &[Option<f64>] {
        &self.qhats
    }
}

/// Jackknife+ prediction intervals (Barber et al. 2021): leave-one-out
/// residuals without a held-out calibration split — attractive exactly at
/// the paper's 156-chip scale where splitting hurts.
///
/// Requires a factory so a fresh model can be fit per left-out sample.
/// It is CV+ ([`crate::CvPlus`]) over the `n` leave-one-out splits, and
/// shares its fit body and rank rule.
#[derive(Debug)]
pub struct JackknifePlus {
    alpha: f64,
    /// For each training index `i`, the model fit without `i` and its
    /// residual on `i`.
    state: Option<CvState>,
}

impl JackknifePlus {
    /// Creates a jackknife+ predictor at miscoverage `alpha`.
    pub fn new(alpha: f64) -> Self {
        JackknifePlus { alpha, state: None }
    }

    /// Fits `n` leave-one-out models using `factory` to create each one;
    /// they are independent, so they fit on `vmin-par` worker threads
    /// (hence `factory: Sync`), bit-identical at any thread count.
    ///
    /// This is `O(n)` model fits — the cost split CP avoids; acceptable for
    /// fast models (linear regression) at n ≈ 156.
    ///
    /// # Errors
    ///
    /// [`ConformalError::InvalidArgument`] on bad alpha or fewer than 3
    /// samples; model errors otherwise.
    pub fn fit<F>(&mut self, x: &Matrix, y: &[f64], factory: F) -> Result<()>
    where
        F: Fn() -> Box<dyn Regressor> + Sync,
    {
        check_alpha(self.alpha)?;
        let n = x.rows();
        if n < 3 || n != y.len() {
            return Err(ConformalError::InvalidArgument(format!(
                "jackknife+ needs n >= 3 matched samples, got {} rows / {} targets",
                n,
                y.len()
            )));
        }
        let splits: Vec<Split> = (0..n)
            .map(|i| Split {
                train: (0..n).filter(|&j| j != i).collect(),
                test: vec![i],
            })
            .collect();
        self.state = Some(CvState::fit(x, y, &splits, factory)?);
        Ok(())
    }

    /// Jackknife+ interval: the `⌊α(n+1)⌋`-th smallest of
    /// `{μ₋ᵢ(x) − Rᵢ}` and the `⌈(1−α)(n+1)⌉`-th smallest of
    /// `{μ₋ᵢ(x) + Rᵢ}`.
    ///
    /// # Errors
    ///
    /// [`ConformalError::NotCalibrated`] before `fit`.
    pub fn predict_interval(&self, row: &[f64]) -> Result<PredictionInterval> {
        let st = self.state.as_ref().ok_or(ConformalError::NotCalibrated)?;
        st.predict_interval(self.alpha, row)
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

    fn hetero(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..4.0);
            rows.push(vec![x]);
            y.push(x + (0.2 + x) * rng.gen_range(-1.0..1.0));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn normalized_cp_adapts() {
        let (x_tr, y_tr) = hetero(150, 1);
        let (x_ca, y_ca) = hetero(80, 2);
        let mut ncp =
            NormalizedConformal::new(LinearRegression::new(), LinearRegression::new(), 0.1);
        ncp.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
        let narrow = ncp.predict_interval(&[0.2]).unwrap();
        let wide = ncp.predict_interval(&[3.8]).unwrap();
        assert!(
            wide.length() > narrow.length(),
            "normalized CP should adapt: {} vs {}",
            wide.length(),
            narrow.length()
        );
    }

    #[test]
    fn normalized_cp_covers_on_average() {
        let mut total = 0.0;
        let reps = 20;
        for seed in 0..reps {
            let (x_tr, y_tr) = hetero(120, seed * 5 + 1);
            let (x_ca, y_ca) = hetero(60, seed * 5 + 2);
            let (x_te, y_te) = hetero(60, seed * 5 + 3);
            let mut ncp =
                NormalizedConformal::new(LinearRegression::new(), LinearRegression::new(), 0.2);
            ncp.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
            let ivs = ncp.predict_intervals(&x_te).unwrap();
            total += evaluate_intervals(&ivs, &y_te).coverage;
        }
        let avg = total / reps as f64;
        assert!(avg >= 0.76, "normalized CP coverage {avg}");
    }

    #[test]
    fn mondrian_calibrates_per_group() {
        // Group 1 has 4x the noise of group 0: its margin must be larger.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 240;
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut groups = Vec::new();
        for i in 0..n {
            let g = i % 2;
            let x: f64 = rng.gen_range(0.0..1.0);
            let noise = if g == 0 { 0.1 } else { 0.4 };
            rows.push(vec![x]);
            y.push(x + rng.gen_range(-noise..noise));
            groups.push(g);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let mut mc = MondrianConformal::new(LinearRegression::new(), 0.1, 2);
        mc.fit_calibrate(&x, &y, &x, &y, &groups).unwrap();
        let q = mc.group_qhats();
        assert!(q[1].unwrap() > q[0].unwrap());
        let iv0 = mc.predict_interval(&[0.5], 0).unwrap();
        let iv1 = mc.predict_interval(&[0.5], 1).unwrap();
        assert!(iv1.length() > iv0.length());
    }

    #[test]
    fn mondrian_rejects_missing_groups() {
        let (x, y) = hetero(20, 3);
        let groups = vec![0usize; 20]; // group 1 never appears
        let mut mc = MondrianConformal::new(LinearRegression::new(), 0.1, 2);
        assert!(mc.fit_calibrate(&x, &y, &x, &y, &groups).is_err());
    }

    #[test]
    fn jackknife_plus_covers_without_a_split() {
        let mut total = 0.0;
        let reps = 10;
        for seed in 0..reps {
            let (x, y) = hetero(60, seed * 13 + 1);
            let (x_te, y_te) = hetero(50, seed * 13 + 2);
            let mut jk = JackknifePlus::new(0.2);
            jk.fit(&x, &y, || Box::new(LinearRegression::new()))
                .unwrap();
            let ivs: Vec<PredictionInterval> = (0..x_te.rows())
                .map(|i| jk.predict_interval(x_te.row(i)).unwrap())
                .collect();
            total += evaluate_intervals(&ivs, &y_te).coverage;
        }
        let avg = total / reps as f64;
        assert!(avg >= 0.75, "jackknife+ coverage {avg}");
    }

    #[test]
    fn error_paths() {
        let mut jk = JackknifePlus::new(0.1);
        assert!(matches!(
            jk.predict_interval(&[0.0]),
            Err(ConformalError::NotCalibrated)
        ));
        let (x, y) = hetero(2, 1);
        assert!(jk
            .fit(&x, &y, || Box::new(LinearRegression::new()))
            .is_err());
        let mc = MondrianConformal::new(LinearRegression::new(), 0.1, 1);
        assert!(mc.predict_interval(&[0.0], 5).is_err());
    }
}
