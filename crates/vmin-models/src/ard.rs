//! ARD (automatic relevance determination) Gaussian process.
//!
//! The paper's introduction cites Chen et al. (VTS 2010), who use GP kernel
//! length scales "as indicators of the significance of features" for
//! Fmax/Vmin correlation. This module provides that capability: an RBF
//! kernel with a *per-dimension* length scale, optimized by coordinate
//! descent on the log marginal likelihood; the inverse length scales are
//! the feature-relevance indicators.

use crate::gp::{GpDesign, GpState};
use crate::traits::{ModelError, Regressor, Result};
use vmin_linalg::Matrix;

/// Per-dimension RBF kernel: `σ_f² · exp(−½ Σ_j (a_j − b_j)²/ℓ_j²)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArdKernel {
    /// Signal variance σ_f².
    pub signal_variance: f64,
    /// Per-dimension length scales ℓ_j.
    pub length_scales: Vec<f64>,
    /// Observation-noise variance σ_n².
    pub noise_variance: f64,
}

impl ArdKernel {
    /// Kernel value between two (standardized) rows.
    ///
    /// # Panics
    ///
    /// Panics if row lengths differ from the number of length scales.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), self.length_scales.len(), "ard: dim mismatch");
        let mut q = 0.0;
        for ((x, y), l) in a.iter().zip(b).zip(&self.length_scales) {
            let d = (x - y) / l;
            q += d * d;
        }
        self.signal_variance * (-0.5 * q).exp()
    }
}

/// ARD-GP regressor: exact inference + coordinate-descent length scales.
///
/// # Examples
///
/// ```
/// use vmin_models::{ArdGp, Regressor};
/// use vmin_linalg::Matrix;
///
/// // y depends on column 0 only; column 1 is noise.
/// let rows: Vec<Vec<f64>> = (0..40)
///     .map(|i| vec![i as f64 * 0.1, ((i * 7919) % 13) as f64])
///     .collect();
/// let y: Vec<f64> = rows.iter().map(|r| (r[0]).sin()).collect();
/// let x = Matrix::from_rows(&rows)?;
/// let mut gp = ArdGp::new();
/// gp.fit(&x, &y)?;
/// let rel = gp.feature_relevance()?;
/// assert!(rel[0] > rel[1], "relevant dim must outrank noise: {rel:?}");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArdGp {
    /// Coordinate-descent sweeps over the length scales.
    sweeps: usize,
    kernel: Option<ArdKernel>,
    state: Option<GpState>,
}

impl Default for ArdGp {
    fn default() -> Self {
        Self::new()
    }
}

impl ArdGp {
    /// ARD-GP with the default optimization budget (2 sweeps).
    pub fn new() -> Self {
        ArdGp {
            sweeps: 2,
            kernel: None,
            state: None,
        }
    }

    /// Overrides the number of coordinate-descent sweeps.
    pub fn with_sweeps(mut self, sweeps: usize) -> Self {
        self.sweeps = sweeps.max(1);
        self
    }

    /// The fitted kernel.
    ///
    /// # Errors
    ///
    /// [`ModelError::NotFitted`] before `fit`.
    pub fn kernel(&self) -> Result<&ArdKernel> {
        self.kernel.as_ref().ok_or(ModelError::NotFitted)
    }

    /// Feature-relevance indicators: inverse fitted length scales,
    /// normalized to sum to 1. Larger = more relevant (shorter length scale
    /// = the output varies faster along that feature).
    ///
    /// # Errors
    ///
    /// [`ModelError::NotFitted`] before `fit`.
    pub fn feature_relevance(&self) -> Result<Vec<f64>> {
        let k = self.kernel()?;
        let inv: Vec<f64> = k.length_scales.iter().map(|l| 1.0 / l).collect();
        let total: f64 = inv.iter().sum();
        Ok(inv.iter().map(|v| v / total.max(1e-300)).collect())
    }

    /// Log marginal likelihood of `design` under `kernel`.
    fn log_marginal(design: &GpDesign, kernel: &ArdKernel) -> Result<f64> {
        design.log_marginal(|a, b| kernel.eval(a, b), kernel.noise_variance)
    }
}

impl Regressor for ArdGp {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        let design = GpDesign::new(x, y)?;
        let d = x.cols();
        let y_var = vmin_linalg::variance(y).max(1e-12);

        // Initialize isotropically, then coordinate-descend each ℓ_j over a
        // log-spaced grid, holding the others fixed.
        let mut kernel = ArdKernel {
            signal_variance: y_var,
            length_scales: vec![2.0 * (d as f64).sqrt(); d],
            noise_variance: 0.05 * y_var,
        };
        let grid = [0.5, 1.0, 2.0, 5.0, 15.0, 50.0];
        let mut best_lml = Self::log_marginal(&design, &kernel)?;
        for _ in 0..self.sweeps {
            for j in 0..d {
                let original = kernel.length_scales[j];
                let mut best_l = original;
                for &cand in &grid {
                    kernel.length_scales[j] = cand * (d as f64).sqrt();
                    if let Ok(lml) = Self::log_marginal(&design, &kernel) {
                        if lml > best_lml {
                            best_lml = lml;
                            best_l = kernel.length_scales[j];
                        }
                    }
                }
                kernel.length_scales[j] = best_l;
            }
            // Noise sweep after each pass over the dimensions.
            let original = kernel.noise_variance;
            let mut best_n = original;
            for &cand in &[1e-3, 1e-2, 5e-2, 2e-1] {
                kernel.noise_variance = cand * y_var;
                if let Ok(lml) = Self::log_marginal(&design, &kernel) {
                    if lml > best_lml {
                        best_lml = lml;
                        best_n = kernel.noise_variance;
                    }
                }
            }
            kernel.noise_variance = best_n;
        }

        // Final factorization.
        self.state = Some(design.into_state(|a, b| kernel.eval(a, b), kernel.noise_variance)?);
        self.kernel = Some(kernel);
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        let st = self.state.as_ref().ok_or(ModelError::NotFitted)?;
        let kernel = self.kernel.as_ref().ok_or(ModelError::NotFitted)?;
        let z = st.standardize_row(row)?;
        // Posterior mean, summed from `y_mean` in training-row order.
        let mut acc = st.y_mean;
        for i in 0..st.x_train.rows() {
            acc += kernel.eval(st.x_train.row(i), &z) * st.alpha[i];
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::Rng;
    use vmin_rng::SeedableRng;

    /// y = sin(3·x0); x1, x2 are noise.
    fn data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-1.5..1.5);
            let b: f64 = rng.gen_range(-1.5..1.5);
            let c: f64 = rng.gen_range(-1.5..1.5);
            rows.push(vec![a, b, c]);
            y.push((3.0 * a).sin() + 0.02 * rng.gen_range(-1.0..1.0));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn identifies_the_relevant_feature() {
        let (x, y) = data(70, 1);
        let mut gp = ArdGp::new();
        gp.fit(&x, &y).unwrap();
        let rel = gp.feature_relevance().unwrap();
        assert!(
            rel[0] > rel[1] && rel[0] > rel[2],
            "feature 0 should dominate: {rel:?}"
        );
        assert!((rel.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fits_and_predicts_nonlinear_signal() {
        let (x, y) = data(80, 2);
        let mut gp = ArdGp::new();
        gp.fit(&x, &y).unwrap();
        let pred = gp.predict(&x).unwrap();
        let m = vmin_linalg::mean(&y);
        let ss_tot: f64 = y.iter().map(|v| (v - m) * (v - m)).sum();
        let ss_res: f64 = y.iter().zip(&pred).map(|(a, b)| (a - b) * (a - b)).sum();
        let r2 = 1.0 - ss_res / ss_tot;
        assert!(r2 > 0.8, "ARD-GP should fit the signal, R²={r2}");
    }

    #[test]
    fn more_sweeps_never_hurt_likelihood_based_fit() {
        let (x, y) = data(60, 3);
        let rmse_with = |sweeps| {
            let mut gp = ArdGp::new().with_sweeps(sweeps);
            gp.fit(&x, &y).unwrap();
            let p = gp.predict(&x).unwrap();
            (y.iter()
                .zip(&p)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / y.len() as f64)
                .sqrt()
        };
        // Not strictly monotone in general, but 3 sweeps should be no worse
        // than 1 by a wide margin on this easy problem.
        assert!(rmse_with(3) <= rmse_with(1) * 1.5);
    }

    #[test]
    fn error_paths() {
        let gp = ArdGp::new();
        assert!(matches!(gp.predict_row(&[0.0]), Err(ModelError::NotFitted)));
        assert!(gp.feature_relevance().is_err());
        let (x, y) = data(30, 4);
        let mut gp = ArdGp::new();
        gp.fit(&x, &y).unwrap();
        assert!(matches!(
            gp.predict_row(&[0.0]),
            Err(ModelError::InvalidInput(_))
        ));
    }

    #[test]
    fn kernel_eval_dimension_guard() {
        let k = ArdKernel {
            signal_variance: 1.0,
            length_scales: vec![1.0, 1.0],
            noise_variance: 0.0,
        };
        assert!((k.eval(&[0.0, 0.0], &[0.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(k.eval(&[0.0, 0.0], &[3.0, 0.0]) < 0.05);
    }
}
