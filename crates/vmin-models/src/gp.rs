//! Exact Gaussian-process regression with an RBF kernel.
//!
//! Matches the paper's GP configuration (§IV-C1): radial-basis-function
//! kernel whose hyperparameters are optimized to maximize the (log)
//! likelihood of the training data. Inference is exact via Cholesky — fine
//! at the paper's scale of ~156 chips.
//!
//! Besides the point prediction (posterior mean), the GP exposes the
//! posterior standard deviation, from which the Gaussian prediction interval
//! of Eq. 4 is built:
//! `C(x) = [μ(x) + K_lo·σ(x), μ(x) + K_hi·σ(x)]`.

use crate::fitplan::{standardize_design, FitPlan, StandardizedDesign};
use crate::traits::{validate_training, ModelError, Regressor, Result};
use vmin_linalg::{normal_inverse_cdf, Cholesky, Matrix};

/// RBF (squared-exponential) kernel hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbfKernel {
    /// Signal variance σ_f².
    pub signal_variance: f64,
    /// Isotropic length scale ℓ.
    pub length_scale: f64,
    /// Observation-noise variance σ_n².
    pub noise_variance: f64,
}

impl RbfKernel {
    /// Kernel value `σ_f² · exp(−‖a−b‖² / (2ℓ²))` (noise not included).
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let mut d2 = 0.0;
        for (x, y) in a.iter().zip(b) {
            let d = x - y;
            d2 += d * d;
        }
        self.signal_variance * (-d2 / (2.0 * self.length_scale * self.length_scale)).exp()
    }
}

/// Exact GP regressor with log-marginal-likelihood hyperparameter search.
///
/// # Examples
///
/// ```
/// use vmin_models::{GaussianProcess, Regressor};
/// use vmin_linalg::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
/// let y = [0.0, 1.0, 4.0, 9.0];
/// let mut gp = GaussianProcess::new();
/// gp.fit(&x, &y)?;
/// let (mean, sd) = gp.predict_with_std(&[1.5])?;
/// assert!(sd >= 0.0);
/// assert!((mean - 2.3).abs() < 2.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: RbfKernel,
    optimize: bool,
    /// Restrict the noise-variance search to near-zero values, emulating
    /// the scikit-learn default (`alpha = 1e-10`, no WhiteKernel) the paper
    /// evaluates: the GP then interpolates measurement noise, which is why
    /// it lags every other point predictor (Fig. 2) and why its intervals
    /// under-cover (Table III).
    interpolating: bool,
    state: Option<GpState>,
}

/// A training set prepared for exact GP inference: standardized features
/// (the [`standardize_design`] transform) and centred targets.
struct GpDesign {
    /// Standardized training features.
    xz: Matrix,
    /// Targets minus their mean.
    yc: Vec<f64>,
    y_mean: f64,
    feat_means: Vec<f64>,
    feat_scales: Vec<f64>,
}

impl GpDesign {
    /// Validates and prepares `(x, y)`.
    fn new(x: &Matrix, y: &[f64]) -> Result<Self> {
        validate_training(x, y)?;
        let StandardizedDesign {
            feat_means,
            feat_scales,
            rows,
        } = standardize_design(x);
        let y_mean = vmin_linalg::mean(y);
        Ok(GpDesign {
            xz: Matrix::from_rows(&rows)?,
            yc: y.iter().map(|v| v - y_mean).collect(),
            y_mean,
            feat_means,
            feat_scales,
        })
    }

    /// Factors the Gram matrix `K + max(σ_n², 1e-10)·I` of `kernel` over
    /// the design and solves `K α = yc`.
    fn factor(&self, kernel: &RbfKernel) -> Result<(Cholesky, Vec<f64>)> {
        let n = self.xz.rows();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = kernel.eval(self.xz.row(i), self.xz.row(j));
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k.add_diagonal(kernel.noise_variance.max(1e-10));
        let chol = Cholesky::factor(&k)
            .map_err(|e| ModelError::Numerical(format!("kernel not PD: {e}")))?;
        let alpha = chol.solve(&self.yc)?;
        Ok((chol, alpha))
    }

    /// Log marginal likelihood of the centred targets under `kernel`.
    fn log_marginal(&self, kernel: &RbfKernel) -> Result<f64> {
        let (chol, alpha) = self.factor(kernel)?;
        let fit: f64 = self.yc.iter().zip(&alpha).map(|(a, b)| a * b).sum();
        Ok(-0.5 * fit
            - 0.5 * chol.log_det()
            - 0.5 * self.xz.rows() as f64 * (2.0 * std::f64::consts::PI).ln())
    }

    /// The final factorization under the chosen kernel.
    fn into_state(self, kernel: &RbfKernel) -> Result<GpState> {
        let (chol, alpha) = self.factor(kernel)?;
        Ok(GpState {
            x_train: self.xz,
            alpha,
            chol,
            y_mean: self.y_mean,
            feat_means: self.feat_means,
            feat_scales: self.feat_scales,
        })
    }
}

/// A fitted exact GP.
#[derive(Debug, Clone)]
struct GpState {
    /// Standardized training features.
    x_train: Matrix,
    /// `K⁻¹ (y − m)` where `m` is the target mean.
    alpha: Vec<f64>,
    chol: Cholesky,
    /// The training target mean `m`.
    y_mean: f64,
    /// Feature standardization from the training fold.
    feat_means: Vec<f64>,
    feat_scales: Vec<f64>,
}

impl GpState {
    /// Standardizes a raw feature row with the training fold's statistics.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidInput`] on dimension mismatch.
    fn standardize_row(&self, row: &[f64]) -> Result<Vec<f64>> {
        if row.len() != self.feat_means.len() {
            return Err(ModelError::InvalidInput(format!(
                "model has {} features, row has {}",
                self.feat_means.len(),
                row.len()
            )));
        }
        Ok(row
            .iter()
            .enumerate()
            .map(|(j, &v)| (v - self.feat_means[j]) / self.feat_scales[j])
            .collect())
    }
}

impl Default for GaussianProcess {
    fn default() -> Self {
        Self::new()
    }
}

impl GaussianProcess {
    /// GP with full hyperparameter optimization, including the noise term
    /// (a well-regularized modern configuration).
    pub fn new() -> Self {
        GaussianProcess {
            kernel: RbfKernel {
                signal_variance: 1.0,
                length_scale: 1.0,
                noise_variance: 0.1,
            },
            optimize: true,
            interpolating: false,
            state: None,
        }
    }

    /// GP matching the paper's §IV-C1 configuration: an RBF kernel whose
    /// scale parameters are likelihood-optimized but with a near-zero
    /// observation-noise term (the scikit-learn default). This variant
    /// interpolates training noise, reproducing the paper's GP behaviour:
    /// the weakest point predictor and under-covering Gaussian intervals.
    pub fn paper_default() -> Self {
        GaussianProcess {
            interpolating: true,
            ..Self::new()
        }
    }

    /// GP with fixed hyperparameters (no likelihood search).
    pub fn with_kernel(kernel: RbfKernel) -> Self {
        GaussianProcess {
            kernel,
            optimize: false,
            interpolating: false,
            state: None,
        }
    }

    /// The kernel in use (after `fit`, the optimized one).
    pub fn kernel(&self) -> RbfKernel {
        self.kernel
    }

    /// Posterior mean and standard deviation at one (raw) feature row.
    ///
    /// # Errors
    ///
    /// [`ModelError::NotFitted`] before `fit`, [`ModelError::InvalidInput`]
    /// on dimension mismatch.
    pub fn predict_with_std(&self, row: &[f64]) -> Result<(f64, f64)> {
        let st = self.state.as_ref().ok_or(ModelError::NotFitted)?;
        let z = st.standardize_row(row)?;
        let n = st.x_train.rows();
        let mut k_star = vec![0.0; n];
        for i in 0..n {
            k_star[i] = self.kernel.eval(st.x_train.row(i), &z);
        }
        let mean = st.y_mean + vmin_linalg::dot(&k_star, &st.alpha);
        // var = k(x,x) + σ_n² − vᵀv with L v = k*.
        let v = st.chol.forward_solve(&k_star)?;
        let var = self.kernel.signal_variance + self.kernel.noise_variance
            - v.iter().map(|a| a * a).sum::<f64>();
        Ok((mean, var.max(0.0).sqrt()))
    }

    /// Gaussian prediction interval at miscoverage `alpha` (Eq. 4):
    /// `[μ + Φ⁻¹(α/2)·σ, μ + Φ⁻¹(1−α/2)·σ]`.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::predict_with_std`] failures; also fails for
    /// `alpha ∉ (0, 1)`.
    pub fn predict_interval(&self, row: &[f64], alpha: f64) -> Result<(f64, f64)> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(ModelError::InvalidInput(format!(
                "alpha must be in (0, 1), got {alpha}"
            )));
        }
        let (mean, sd) = self.predict_with_std(row)?;
        let k_lo =
            normal_inverse_cdf(alpha / 2.0).map_err(|e| ModelError::Numerical(e.to_string()))?;
        let k_hi = normal_inverse_cdf(1.0 - alpha / 2.0)
            .map_err(|e| ModelError::Numerical(e.to_string()))?;
        Ok((mean + k_lo * sd, mean + k_hi * sd))
    }
}

impl Regressor for GaussianProcess {
    fn fit_with_plan(&mut self, plan: &FitPlan<'_>, y: &[f64]) -> Result<()> {
        let x = plan.x();
        let design = GpDesign::new(x, y)?;
        let d = x.cols();
        let y_sd = vmin_linalg::std_dev(y).max(1e-12);

        if self.optimize {
            // Coordinate grid search over (ℓ, σ_f², σ_n²) in units of the
            // target variance — cheap and robust for small n.
            let mut best = (f64::NEG_INFINITY, self.kernel);
            let ls_grid = [0.3, 1.0, 3.0, 10.0, 30.0];
            let sf_grid = [0.25, 1.0, 4.0];
            let sn_grid: &[f64] = if self.interpolating {
                // Near-interpolation regime (scikit-learn's tiny-alpha
                // default): enough jitter for numerical stability, far too
                // little to model measurement noise — so the GP overfits it.
                &[1e-3, 3e-3, 1e-2]
            } else {
                &[1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 0.3]
            };
            for &ls in &ls_grid {
                for &sf in &sf_grid {
                    for &sn in sn_grid {
                        let cand = RbfKernel {
                            signal_variance: sf * y_sd * y_sd,
                            length_scale: ls * (d as f64).sqrt(),
                            noise_variance: sn * y_sd * y_sd,
                        };
                        if let Ok(lml) = design.log_marginal(&cand) {
                            if lml > best.0 {
                                best = (lml, cand);
                            }
                        }
                    }
                }
            }
            if best.0.is_finite() {
                self.kernel = best.1;
            }
        }

        // Final factorization with the chosen kernel.
        self.state = Some(design.into_state(&self.kernel)?);
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        Ok(self.predict_with_std(row)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_data() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.2]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0]).sin() * 3.0 + 1.0).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn interpolates_smooth_functions() {
        let (x, y) = smooth_data();
        let mut gp = GaussianProcess::new();
        gp.fit(&x, &y).unwrap();
        let pred = gp.predict(&x).unwrap();
        let r2 = {
            let m = vmin_linalg::mean(&y);
            let ss_tot: f64 = y.iter().map(|v| (v - m) * (v - m)).sum();
            let ss_res: f64 = y.iter().zip(&pred).map(|(a, b)| (a - b) * (a - b)).sum();
            1.0 - ss_res / ss_tot
        };
        assert!(r2 > 0.95, "GP should interpolate, R²={r2}");
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (x, y) = smooth_data();
        let mut gp = GaussianProcess::new();
        gp.fit(&x, &y).unwrap();
        let (_, sd_in) = gp.predict_with_std(&[3.0]).unwrap();
        let (_, sd_out) = gp.predict_with_std(&[30.0]).unwrap();
        assert!(
            sd_out > sd_in,
            "extrapolation σ ({sd_out}) must exceed interpolation σ ({sd_in})"
        );
    }

    #[test]
    fn interval_brackets_mean_and_orders() {
        let (x, y) = smooth_data();
        let mut gp = GaussianProcess::new();
        gp.fit(&x, &y).unwrap();
        let (mean, _) = gp.predict_with_std(&[2.0]).unwrap();
        let (lo, hi) = gp.predict_interval(&[2.0], 0.1).unwrap();
        assert!(lo < mean && mean < hi);
        // Wider at lower miscoverage.
        let (lo2, hi2) = gp.predict_interval(&[2.0], 0.01).unwrap();
        assert!(hi2 - lo2 > hi - lo);
    }

    #[test]
    fn interval_alpha_validation() {
        let (x, y) = smooth_data();
        let mut gp = GaussianProcess::new();
        gp.fit(&x, &y).unwrap();
        assert!(gp.predict_interval(&[0.0], 0.0).is_err());
        assert!(gp.predict_interval(&[0.0], 1.0).is_err());
    }

    #[test]
    fn optimization_beats_bad_fixed_kernel() {
        let (x, y) = smooth_data();
        let mut opt = GaussianProcess::new();
        opt.fit(&x, &y).unwrap();
        let mut fixed = GaussianProcess::with_kernel(RbfKernel {
            signal_variance: 1e-6,
            length_scale: 100.0,
            noise_variance: 10.0,
        });
        fixed.fit(&x, &y).unwrap();
        let rmse = |gp: &GaussianProcess| {
            let p = gp.predict(&x).unwrap();
            (y.iter()
                .zip(&p)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / y.len() as f64)
                .sqrt()
        };
        assert!(rmse(&opt) < rmse(&fixed));
    }

    #[test]
    fn not_fitted_error() {
        let gp = GaussianProcess::new();
        assert!(matches!(
            gp.predict_with_std(&[0.0]),
            Err(ModelError::NotFitted)
        ));
    }

    #[test]
    fn dimension_mismatch_error() {
        let (x, y) = smooth_data();
        let mut gp = GaussianProcess::new();
        gp.fit(&x, &y).unwrap();
        assert!(matches!(
            gp.predict_with_std(&[0.0, 1.0]),
            Err(ModelError::InvalidInput(_))
        ));
    }

    #[test]
    fn kernel_eval_basics() {
        let k = RbfKernel {
            signal_variance: 2.0,
            length_scale: 1.0,
            noise_variance: 0.0,
        };
        assert!((k.eval(&[0.0], &[0.0]) - 2.0).abs() < 1e-12);
        assert!(k.eval(&[0.0], &[5.0]) < 1e-4);
        assert!(k.eval(&[0.0], &[0.5]) > k.eval(&[0.0], &[1.0]));
    }
}
