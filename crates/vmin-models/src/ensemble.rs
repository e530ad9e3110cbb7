//! Deep-ensemble-style uncertainty quantification (Lakshminarayanan et al.
//! 2017) — the "Ensemble" column of the paper's Table I.
//!
//! A bag of base regressors is trained on bootstrap resamples; the ensemble
//! mean is the point prediction and the member spread estimates predictive
//! uncertainty. Table I classifies this family as distribution-free and
//! heteroscedasticity-adaptive but *without* a test-data coverage guarantee —
//! the property this crate's tests demonstrate against CP/CQR.

use crate::fitplan::FitPlan;
use crate::traits::{validate_training, ModelError, Regressor, Result};
use vmin_linalg::normal_inverse_cdf;
use vmin_rng::ChaCha8Rng;
use vmin_rng::Rng;
use vmin_rng::SeedableRng;

/// Bootstrap ensemble of base regressors with Gaussian-style intervals.
///
/// # Examples
///
/// ```
/// use vmin_models::{Ensemble, LinearRegression, Regressor};
/// use vmin_linalg::Matrix;
///
/// let x = Matrix::from_rows(&(0..20).map(|i| vec![i as f64]).collect::<Vec<_>>())?;
/// let y: Vec<f64> = (0..20).map(|i| 3.0 * i as f64).collect();
/// let mut ens = Ensemble::new(|| Box::new(LinearRegression::new()), 8, 7);
/// ens.fit(&x, &y)?;
/// let (mean, sd) = ens.predict_with_std(&[10.0])?;
/// assert!((mean - 30.0).abs() < 1.0);
/// assert!(sd >= 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Ensemble {
    factory: Box<dyn Fn() -> Box<dyn Regressor> + Send + Sync>,
    n_members: usize,
    seed: u64,
    members: Vec<Box<dyn Regressor>>,
    /// Residual variance on the training data, added to the member spread
    /// (the "aleatoric" term of deep-ensemble practice).
    residual_variance: f64,
}

impl std::fmt::Debug for Ensemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ensemble")
            .field("n_members", &self.n_members)
            .field("fitted", &!self.members.is_empty())
            .field("residual_variance", &self.residual_variance)
            .finish()
    }
}

impl Ensemble {
    /// Creates an ensemble of `n_members` models built by `factory`.
    ///
    /// The factory is `Send + Sync` so members can be fitted on `vmin-par`
    /// worker threads.
    pub fn new<F>(factory: F, n_members: usize, seed: u64) -> Self
    where
        F: Fn() -> Box<dyn Regressor> + Send + Sync + 'static,
    {
        Ensemble {
            factory: Box::new(factory),
            n_members: n_members.max(2),
            seed,
            members: Vec::new(),
            residual_variance: 0.0,
        }
    }

    /// Number of fitted members.
    pub fn n_members(&self) -> usize {
        self.members.len()
    }

    /// Ensemble mean and predictive standard deviation (member spread plus
    /// training residual variance).
    ///
    /// # Errors
    ///
    /// [`ModelError::NotFitted`] before `fit`; member errors otherwise.
    pub fn predict_with_std(&self, row: &[f64]) -> Result<(f64, f64)> {
        if self.members.is_empty() {
            return Err(ModelError::NotFitted);
        }
        let preds: Vec<f64> = self
            .members
            .iter()
            .map(|m| m.predict_row(row))
            .collect::<Result<_>>()?;
        let mean = vmin_linalg::mean(&preds);
        let epistemic = vmin_linalg::variance(&preds);
        Ok((mean, (epistemic + self.residual_variance).sqrt()))
    }

    /// Gaussian-style interval at miscoverage `alpha` — *no* finite-sample
    /// guarantee (Table I), which is exactly what the coverage tests
    /// demonstrate.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidInput`] for `alpha ∉ (0, 1)`; otherwise as
    /// [`Self::predict_with_std`].
    pub fn predict_interval(&self, row: &[f64], alpha: f64) -> Result<(f64, f64)> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(ModelError::InvalidInput(format!(
                "alpha must be in (0, 1), got {alpha}"
            )));
        }
        let (mean, sd) = self.predict_with_std(row)?;
        let k = normal_inverse_cdf(1.0 - alpha / 2.0)
            .map_err(|e| ModelError::Numerical(e.to_string()))?;
        Ok((mean - k * sd, mean + k * sd))
    }
}

impl Regressor for Ensemble {
    fn fit_with_plan(&mut self, plan: &FitPlan<'_>, y: &[f64]) -> Result<()> {
        let x = plan.x();
        validate_training(x, y)?;
        let n = x.rows();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        self.members.clear();
        // Bootstrap resamples drawn serially in member order, then members
        // fitted in parallel — the fits consume no randomness, so the
        // ensemble is bit-identical to a serial fit at any thread count.
        let resamples: Vec<Vec<usize>> = (0..self.n_members)
            .map(|_| (0..n).map(|_| rng.gen_range(0..n)).collect())
            .collect();
        let fitted = vmin_par::par_map(&resamples, 2, |_, idx| {
            let xb = x
                .select_rows(idx)
                .map_err(|e| ModelError::Numerical(e.to_string()))?;
            let yb: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
            let mut member = (self.factory)();
            member.fit(&xb, &yb)?;
            Ok(member)
        });
        self.members = fitted.into_iter().collect::<Result<Vec<_>>>()?;
        // Aleatoric term: mean squared residual of the ensemble mean on the
        // full training set.
        let mut ss = 0.0;
        for i in 0..n {
            let (mean, _) = self.predict_with_std(x.row(i))?;
            ss += (y[i] - mean) * (y[i] - mean);
        }
        self.residual_variance = ss / n as f64;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        Ok(self.predict_with_std(row)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearRegression;
    use vmin_linalg::Matrix;
    use vmin_rng::Rng;

    fn noisy_line(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
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

    fn fitted(seed: u64) -> Ensemble {
        let (x, y) = noisy_line(80, seed);
        let mut ens = Ensemble::new(|| Box::new(LinearRegression::new()), 10, 3);
        ens.fit(&x, &y).unwrap();
        ens
    }

    #[test]
    fn mean_tracks_the_signal() {
        let ens = fitted(1);
        for xv in [0.5, 2.5, 4.5] {
            let p = ens.predict_row(&[xv]).unwrap();
            assert!((p - (2.0 * xv + 1.0)).abs() < 0.5, "at {xv}: {p}");
        }
        assert_eq!(ens.n_members(), 10);
    }

    #[test]
    fn uncertainty_grows_under_extrapolation() {
        let ens = fitted(2);
        let (_, sd_in) = ens.predict_with_std(&[2.5]).unwrap();
        let (_, sd_out) = ens.predict_with_std(&[50.0]).unwrap();
        assert!(
            sd_out > sd_in,
            "member disagreement should grow off-support: {sd_out} vs {sd_in}"
        );
    }

    #[test]
    fn interval_brackets_mean_and_scales_with_alpha() {
        let ens = fitted(3);
        let (mean, _) = ens.predict_with_std(&[1.0]).unwrap();
        let (lo, hi) = ens.predict_interval(&[1.0], 0.1).unwrap();
        assert!(lo < mean && mean < hi);
        let (lo2, hi2) = ens.predict_interval(&[1.0], 0.01).unwrap();
        assert!(hi2 - lo2 > hi - lo);
        assert!(ens.predict_interval(&[1.0], 0.0).is_err());
    }

    #[test]
    fn not_fitted_error() {
        let ens = Ensemble::new(|| Box::new(LinearRegression::new()), 5, 0);
        assert!(matches!(
            ens.predict_row(&[0.0]),
            Err(ModelError::NotFitted)
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = fitted(7);
        let b = fitted(7);
        assert_eq!(
            a.predict_row(&[1.5]).unwrap(),
            b.predict_row(&[1.5]).unwrap()
        );
    }

    #[test]
    fn members_differ_across_bootstraps() {
        let ens = fitted(8);
        let p: Vec<f64> = ens
            .members
            .iter()
            .map(|m| m.predict_row(&[2.0]).unwrap())
            .collect();
        let spread = vmin_linalg::std_dev(&p);
        assert!(spread > 0.0, "bootstrap members should disagree slightly");
    }
}
