//! Linear quantile regression by pinball-loss minimization with Adam.
//!
//! This is the "QR Linear Regression" of Table III: the same linear model
//! class as OLS, trained on the pinball loss (Eq. 5) so that it estimates a
//! conditional quantile instead of the conditional mean.

use crate::fitplan::{standardize_design, FitPlan, StandardizedDesign};
use crate::optimizer::Adam;
use crate::traits::{validate_training, Loss, ModelError, Regressor, Result};
use std::sync::Arc;
use vmin_linalg::Matrix;

/// Linear model `ŷ = β₀ + βᵀx` trained to minimize the pinball loss at a
/// fixed quantile.
///
/// Inputs are internally standardized per column (fit statistics from the
/// training data) for stable optimization; predictions are produced on the
/// original scale.
///
/// # Examples
///
/// ```
/// use vmin_models::{QuantileLinear, Regressor};
/// use vmin_linalg::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
/// let mut q90 = QuantileLinear::new(0.9);
/// q90.fit(&x, &[0.0, 1.0, 2.0, 3.0])?;
/// let p = q90.predict_row(&[1.5])?;
/// assert!(p.is_finite());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileLinear {
    quantile: f64,
    epochs: usize,
    learning_rate: f64,
    /// Parameters: `[β..., β₀]` in standardized space.
    params: Option<Vec<f64>>,
    feat_means: Vec<f64>,
    feat_scales: Vec<f64>,
    y_center: f64,
    y_scale: f64,
}

impl QuantileLinear {
    /// Creates a quantile-`q` linear regressor with default training budget.
    pub fn new(q: f64) -> Self {
        QuantileLinear {
            quantile: q,
            epochs: 2000,
            learning_rate: 0.02,
            params: None,
            feat_means: Vec::new(),
            feat_scales: Vec::new(),
            y_center: 0.0,
            y_scale: 1.0,
        }
    }

    /// Overrides the optimization budget.
    pub fn with_training(mut self, epochs: usize, learning_rate: f64) -> Self {
        self.epochs = epochs;
        self.learning_rate = learning_rate;
        self
    }

    /// The target quantile.
    pub fn quantile(&self) -> f64 {
        self.quantile
    }

    /// The shared fit body; `design` carries the standardized features
    /// (cached from a plan or freshly computed — same code either way).
    fn fit_inner(&mut self, y: &[f64], design: &StandardizedDesign) -> Result<()> {
        let n = design.rows.len();
        let d = design.feat_means.len();

        // Standardized features from the design; center/scale targets.
        self.feat_means = design.feat_means.clone();
        self.feat_scales = design.feat_scales.clone();
        self.y_center = vmin_linalg::mean(y);
        let sd = vmin_linalg::std_dev(y);
        self.y_scale = if sd > 1e-12 { sd } else { 1.0 };

        let xs = &design.rows;
        let ys: Vec<f64> = y
            .iter()
            .map(|v| (v - self.y_center) / self.y_scale)
            .collect();

        // Initialize at the empirical quantile intercept.
        let mut params = vec![0.0; d + 1];
        params[d] = vmin_linalg::quantile(&ys, self.quantile)
            .map_err(|e| ModelError::Numerical(e.to_string()))?;
        let mut adam = Adam::new(d + 1, self.learning_rate);
        let loss = Loss::Pinball(self.quantile);
        let mut grads = vec![0.0; d + 1];
        for _ in 0..self.epochs {
            grads.iter_mut().for_each(|g| *g = 0.0);
            for (xi, &yi) in xs.iter().zip(&ys) {
                let pred = params[d] + vmin_linalg::dot(&params[..d], xi);
                let g = loss.gradient(yi, pred);
                for j in 0..d {
                    grads[j] += g * xi[j];
                }
                grads[d] += g;
            }
            let inv_n = 1.0 / n as f64;
            grads.iter_mut().for_each(|g| *g *= inv_n);
            adam.step(&mut params, &grads);
        }
        self.params = Some(params);
        Ok(())
    }
}

impl Regressor for QuantileLinear {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        validate_training(x, y)?;
        Loss::Pinball(self.quantile).validate()?;
        self.fit_inner(y, &standardize_design(x))
    }

    fn fit_with_plan(&mut self, x: &Matrix, y: &[f64], plan: &FitPlan) -> Result<()> {
        if plan.matches(x) {
            validate_training(x, y)?;
            Loss::Pinball(self.quantile).validate()?;
            let design: Arc<StandardizedDesign> = plan.standardized(x);
            self.fit_inner(y, &design)
        } else {
            self.fit(x, y)
        }
    }

    fn wants_fit_plan(&self) -> bool {
        true
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        let params = self.params.as_ref().ok_or(ModelError::NotFitted)?;
        let d = params.len() - 1;
        if row.len() != d {
            return Err(ModelError::InvalidInput(format!(
                "model has {d} features, row has {}",
                row.len()
            )));
        }
        let mut z = params[d];
        for j in 0..d {
            z += params[j] * (row[j] - self.feat_means[j]) / self.feat_scales[j];
        }
        Ok(z * self.y_scale + self.y_center)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::Rng;
    use vmin_rng::SeedableRng;

    /// Heteroscedastic data: y = 2x + ε·(1 + x), ε ~ U(−1, 1).
    fn hetero_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..4.0);
            let eps: f64 = rng.gen_range(-1.0..1.0);
            rows.push(vec![x]);
            y.push(2.0 * x + eps * (1.0 + x));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn median_fit_matches_ols_on_symmetric_noise() {
        let (x, y) = hetero_data(300, 1);
        let mut q50 = QuantileLinear::new(0.5);
        q50.fit(&x, &y).unwrap();
        // Median of symmetric noise = mean: slope ≈ 2.
        let p0 = q50.predict_row(&[0.0]).unwrap();
        let p4 = q50.predict_row(&[4.0]).unwrap();
        let slope = (p4 - p0) / 4.0;
        assert!((slope - 2.0).abs() < 0.35, "slope {slope}");
    }

    #[test]
    fn upper_quantile_sits_above_lower() {
        let (x, y) = hetero_data(300, 2);
        let mut q05 = QuantileLinear::new(0.05);
        let mut q95 = QuantileLinear::new(0.95);
        q05.fit(&x, &y).unwrap();
        q95.fit(&x, &y).unwrap();
        for xv in [0.5, 1.5, 2.5, 3.5] {
            let lo = q05.predict_row(&[xv]).unwrap();
            let hi = q95.predict_row(&[xv]).unwrap();
            assert!(hi > lo, "upper quantile must exceed lower at x={xv}");
        }
    }

    #[test]
    fn adapts_to_heteroscedasticity() {
        // The q05–q95 band must be wider at large x where the noise is
        // bigger — the property QR has and plain CP lacks (Table I).
        let (x, y) = hetero_data(400, 3);
        let mut q05 = QuantileLinear::new(0.05);
        let mut q95 = QuantileLinear::new(0.95);
        q05.fit(&x, &y).unwrap();
        q95.fit(&x, &y).unwrap();
        let width = |xv: f64| q95.predict_row(&[xv]).unwrap() - q05.predict_row(&[xv]).unwrap();
        assert!(
            width(3.5) > width(0.5) * 1.3,
            "band should widen with x: {} vs {}",
            width(3.5),
            width(0.5)
        );
    }

    #[test]
    fn roughly_correct_coverage_on_training_data() {
        let (x, y) = hetero_data(400, 4);
        let mut q10 = QuantileLinear::new(0.10);
        q10.fit(&x, &y).unwrap();
        let preds = q10.predict(&x).unwrap();
        let below = y.iter().zip(&preds).filter(|(yi, p)| yi < p).count() as f64 / y.len() as f64;
        assert!(
            (below - 0.10).abs() < 0.06,
            "≈10% of targets should fall below the 10% quantile, got {below}"
        );
    }

    #[test]
    fn invalid_quantile_rejected() {
        let (x, y) = hetero_data(20, 5);
        let mut q = QuantileLinear::new(1.5);
        assert!(q.fit(&x, &y).is_err());
    }

    #[test]
    fn predict_before_fit_fails() {
        let q = QuantileLinear::new(0.5);
        assert_eq!(q.predict_row(&[0.0]).unwrap_err(), ModelError::NotFitted);
    }

    #[test]
    fn deterministic_fit() {
        let (x, y) = hetero_data(100, 6);
        let mut a = QuantileLinear::new(0.9);
        let mut b = QuantileLinear::new(0.9);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(
            a.predict_row(&[1.0]).unwrap(),
            b.predict_row(&[1.0]).unwrap()
        );
    }

    #[test]
    fn planned_fit_is_bit_identical_to_direct() {
        let (x, y) = hetero_data(120, 7);
        let plan = FitPlan::build(&x);
        let mut planned = QuantileLinear::new(0.9);
        planned.fit_with_plan(&x, &y, &plan).unwrap();
        let mut direct = QuantileLinear::new(0.9);
        direct.fit(&x, &y).unwrap();
        assert_eq!(planned, direct);
    }
}
