//! Common model interfaces and error type.

use crate::fitplan::FitPlan;
use std::error::Error;
use std::fmt;
use vmin_linalg::Matrix;

/// Error produced by model fitting or prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Inputs had inconsistent or empty shapes.
    InvalidInput(String),
    /// The model was asked to predict before `fit` succeeded.
    NotFitted,
    /// A numerical routine failed (singular system, non-PD kernel, …).
    Numerical(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            ModelError::NotFitted => write!(f, "model has not been fitted"),
            ModelError::Numerical(m) => write!(f, "numerical failure: {m}"),
        }
    }
}

impl Error for ModelError {}

impl From<vmin_linalg::LinalgError> for ModelError {
    fn from(e: vmin_linalg::LinalgError) -> Self {
        ModelError::Numerical(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ModelError>;

/// The objective a trainable model minimizes.
///
/// Every model in this crate that supports both point and quantile
/// regression is parameterized by a `Loss`: the paper builds its quantile
/// regressors by "applying the pinball loss instead" of MSE (§II-B), and
/// this enum is exactly that switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loss {
    /// Mean-squared error — estimates the conditional mean.
    Squared,
    /// Pinball loss at quantile `q` (Eq. 5) — estimates the conditional
    /// `q`-quantile.
    Pinball(f64),
}

impl Loss {
    /// Gradient of the loss with respect to the prediction, `dL/dŷ`.
    pub fn gradient(&self, y: f64, pred: f64) -> f64 {
        match *self {
            Loss::Squared => pred - y,
            Loss::Pinball(q) => {
                if y > pred {
                    -q
                } else if y < pred {
                    1.0 - q
                } else {
                    0.0
                }
            }
        }
    }

    /// The branch [`Loss::gradient`] takes on every row, packed 2 bits per
    /// row — `(y > pred, y < pred)` — into `u64` words, 32 rows per word
    /// (unused high bits zero). `None` when the gradient depends on the
    /// values themselves ([`Loss::Squared`]).
    ///
    /// For `Pinball(q)` the gradient is `−q` on `10`, `1 − q` on `01` and
    /// `0.0` on `00` (ties and NaN), so two prediction vectors with equal
    /// classes have bit-identical gradient vectors — the key of the
    /// boosters' per-fit round memo (`hist::RoundMemo`).
    pub(crate) fn gradient_class(&self, y: &[f64], pred: &[f64]) -> Option<Vec<u64>> {
        match *self {
            Loss::Squared => None,
            Loss::Pinball(_) => Some(
                y.chunks(32)
                    .zip(pred.chunks(32))
                    .map(|(ys, ps)| {
                        ys.iter()
                            .zip(ps)
                            .enumerate()
                            .fold(0u64, |word, (k, (y, p))| {
                                let class = u64::from(y > p) | u64::from(y < p) << 1;
                                word | class << (2 * k)
                            })
                    })
                    .collect(),
            ),
        }
    }

    /// Second derivative (Hessian diagonal). Pinball uses a unit surrogate,
    /// the standard choice for Newton boosting of non-smooth losses.
    pub fn hessian(&self, _y: f64, _pred: f64) -> f64 {
        match *self {
            Loss::Squared => 1.0,
            Loss::Pinball(_) => 1.0,
        }
    }

    /// Loss value.
    pub fn value(&self, y: f64, pred: f64) -> f64 {
        match *self {
            Loss::Squared => 0.5 * (y - pred) * (y - pred),
            Loss::Pinball(q) => {
                let d = y - pred;
                (q * d).max((q - 1.0) * d)
            }
        }
    }

    /// The optimal constant prediction for this loss on `y` (mean for
    /// squared loss, empirical quantile for pinball).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] when `y` is empty.
    pub fn optimal_constant(&self, y: &[f64]) -> Result<f64> {
        if y.is_empty() {
            return Err(ModelError::InvalidInput(
                "optimal_constant of empty targets".to_string(),
            ));
        }
        match *self {
            Loss::Squared => Ok(vmin_linalg::mean(y)),
            Loss::Pinball(q) => Ok(vmin_linalg::quantile(y, q.clamp(0.0, 1.0))?),
        }
    }

    /// Validates a pinball quantile.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for `Pinball(q)` with
    /// `q ∉ (0, 1)`.
    pub fn validate(&self) -> Result<()> {
        if let Loss::Pinball(q) = *self {
            if !(q > 0.0 && q < 1.0) {
                return Err(ModelError::InvalidInput(format!(
                    "pinball quantile must be in (0, 1), got {q}"
                )));
            }
        }
        Ok(())
    }
}

/// A trainable regression model mapping feature rows to scalar predictions.
///
/// Implementors: [`crate::LinearRegression`], [`crate::QuantileLinear`],
/// [`crate::GaussianProcess`], [`crate::GradientBoost`],
/// [`crate::ObliviousBoost`], [`crate::NeuralNet`].
///
/// `Send + Sync` are supertraits so fitted models (including boxed trait
/// objects) can move to and be shared with `vmin-par` worker threads —
/// e.g. fold-parallel CV+ fits. Every implementor is plain owned data, so
/// the bounds are free.
pub trait Regressor: fmt::Debug + Send + Sync {
    /// Fits the model on `x` (n × d) and targets `y` (length n).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] on shape problems and
    /// [`ModelError::Numerical`] when the underlying solver fails.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()>;

    /// Fits the model on `x` and `y`, reusing the shared [`FitPlan`] built
    /// for `x` where the model can (binned datasets for the boosters,
    /// standardized designs for standardizing models). The contract is **exactness**: the fitted
    /// model must be byte-identical to [`Regressor::fit`] on the same data.
    /// Models that cannot use a plan — and every model handed a plan that
    /// does not describe `x` — fall back to `fit`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Regressor::fit`].
    fn fit_with_plan(&mut self, x: &Matrix, y: &[f64], _plan: &FitPlan) -> Result<()> {
        self.fit(x, y)
    }

    /// Whether [`Regressor::fit_with_plan`] actually consumes a plan.
    /// Callers use this to skip plan construction for pure closed-form
    /// models (OLS, GP) where nothing would be reused.
    fn wants_fit_plan(&self) -> bool {
        false
    }

    /// Predicts one sample.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotFitted`] before a successful `fit` and
    /// [`ModelError::InvalidInput`] on dimension mismatch.
    fn predict_row(&self, row: &[f64]) -> Result<f64>;

    /// Predicts every row of `x`, in parallel for large inputs. Rows are
    /// independent, so output is bit-identical at any thread count; on an
    /// error the lowest-index failing row's error is returned, as in a
    /// serial scan.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Regressor::predict_row`].
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let rows: Vec<usize> = (0..x.rows()).collect();
        vmin_par::par_map(&rows, 64, |_, &i| self.predict_row(x.row(i)))
            .into_iter()
            .collect()
    }
}

impl Regressor for Box<dyn Regressor> {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        (**self).fit(x, y)
    }

    fn fit_with_plan(&mut self, x: &Matrix, y: &[f64], plan: &FitPlan) -> Result<()> {
        (**self).fit_with_plan(x, y, plan)
    }

    fn wants_fit_plan(&self) -> bool {
        (**self).wants_fit_plan()
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        (**self).predict_row(row)
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        (**self).predict(x)
    }
}

/// Validates that `x` and `y` form a non-empty training set.
pub(crate) fn validate_training(x: &Matrix, y: &[f64]) -> Result<()> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(ModelError::InvalidInput(format!(
            "empty training matrix ({}x{})",
            x.rows(),
            x.cols()
        )));
    }
    if x.rows() != y.len() {
        return Err(ModelError::InvalidInput(format!(
            "{} rows vs {} targets",
            x.rows(),
            y.len()
        )));
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(ModelError::InvalidInput("non-finite target".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_gradient_is_residual() {
        let l = Loss::Squared;
        assert_eq!(l.gradient(3.0, 5.0), 2.0);
        assert_eq!(l.hessian(3.0, 5.0), 1.0);
        assert_eq!(l.value(3.0, 5.0), 2.0);
    }

    #[test]
    fn pinball_gradient_switches_sign_at_target() {
        let l = Loss::Pinball(0.9);
        assert_eq!(l.gradient(1.0, 0.0), -0.9); // under-prediction
        assert!((l.gradient(0.0, 1.0) - 0.1).abs() < 1e-12); // over-prediction
        assert_eq!(l.gradient(1.0, 1.0), 0.0);
    }

    #[test]
    fn equal_gradient_classes_give_bit_equal_gradients() {
        let l = Loss::Pinball(0.05);
        let y = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        // Same side of every target, different values; a NaN prediction
        // and an exact tie both take the `0.0` branch.
        let a = [0.5, 2.5, 3.0, f64::NAN, 4.0, -1.0];
        let b = [0.9, 9.0, 3.0, 4.0, 4.5, 5.9];
        let class_a = l.gradient_class(&y, &a).expect("pinball has a class");
        assert_eq!(Some(class_a.clone()), l.gradient_class(&y, &b));
        let bits = |p: &[f64]| -> Vec<u64> {
            y.iter()
                .zip(p)
                .map(|(&yi, &pi)| l.gradient(yi, pi).to_bits())
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
        // One crossing changes the class.
        let c = [0.5, 2.5, 3.0, 4.0, 4.0, 6.5];
        assert_ne!(Some(class_a), l.gradient_class(&y, &c));
        // Row by row over under-, over-, tied and NaN predictions: classes
        // are equal exactly when the gradients are bit-equal.
        let preds = [0.0, 1.0, 2.0, f64::NAN];
        for &p1 in &preds {
            for &p2 in &preds {
                assert_eq!(
                    l.gradient_class(&[1.0], &[p1]) == l.gradient_class(&[1.0], &[p2]),
                    l.gradient(1.0, p1).to_bits() == l.gradient(1.0, p2).to_bits(),
                    "pred {p1} vs {p2}"
                );
            }
        }
        // 2 bits per row, 32 rows per word; squared loss has no class.
        let long = vec![1.0; 33];
        assert_eq!(
            l.gradient_class(&long, &vec![0.0; 33]).map(|w| w.len()),
            Some(2)
        );
        assert_eq!(Loss::Squared.gradient_class(&y, &a), None);
    }

    #[test]
    fn optimal_constants() {
        let y = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(Loss::Squared.optimal_constant(&y), Ok(22.0));
        let med = Loss::Pinball(0.5).optimal_constant(&y);
        assert_eq!(med, Ok(3.0));
    }

    #[test]
    fn optimal_constant_of_empty_targets_is_an_error() {
        assert!(matches!(
            Loss::Squared.optimal_constant(&[]),
            Err(ModelError::InvalidInput(_))
        ));
        assert!(matches!(
            Loss::Pinball(0.5).optimal_constant(&[]),
            Err(ModelError::InvalidInput(_))
        ));
    }

    #[test]
    fn validate_rejects_degenerate_quantiles() {
        assert!(Loss::Pinball(0.0).validate().is_err());
        assert!(Loss::Pinball(1.0).validate().is_err());
        assert!(Loss::Pinball(0.5).validate().is_ok());
        assert!(Loss::Squared.validate().is_ok());
    }

    #[test]
    fn validate_training_catches_problems() {
        let x = Matrix::zeros(3, 2);
        assert!(validate_training(&x, &[1.0, 2.0, 3.0]).is_ok());
        assert!(validate_training(&x, &[1.0]).is_err());
        assert!(validate_training(&Matrix::zeros(0, 2), &[]).is_err());
        assert!(validate_training(&x, &[1.0, f64::NAN, 3.0]).is_err());
    }

    #[test]
    fn error_display() {
        assert!(ModelError::NotFitted
            .to_string()
            .contains("not been fitted"));
        assert!(ModelError::InvalidInput("x".into())
            .to_string()
            .contains("x"));
    }
}
