//! Linear regression: ordinary least squares with an automatic ridge
//! fallback for collinear features.
//!
//! The paper finds plain linear regression "competitive overall" for Vmin
//! point prediction and attractive for on-chip hardware implementation
//! (§IV-D); it is the baseline every other model is compared against.

use crate::fitplan::FitPlan;
use crate::traits::{validate_training, ModelError, Regressor, Result};
use vmin_linalg::{lstsq, ridge};

/// Ordinary least squares `y ≈ β₀ + βᵀx`.
///
/// Fitting uses Householder QR; if the design matrix is numerically
/// rank-deficient (common with redundant parametric features), the model
/// falls back to a lightly regularized ridge solve so `fit` still succeeds.
///
/// # Examples
///
/// ```
/// use vmin_models::{LinearRegression, Regressor};
/// use vmin_linalg::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]])?;
/// let mut lr = LinearRegression::new();
/// lr.fit(&x, &[1.0, 3.0, 5.0])?;
/// assert!((lr.predict_row(&[3.0])? - 7.0).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinearRegression {
    /// Explicit ridge penalty; 0.0 means pure OLS with automatic fallback.
    lambda: f64,
    coef: Option<Vec<f64>>,
    intercept: f64,
}

impl LinearRegression {
    /// Plain OLS (with automatic ridge fallback on rank deficiency).
    pub fn new() -> Self {
        LinearRegression {
            lambda: 0.0,
            coef: None,
            intercept: 0.0,
        }
    }

    /// Ridge regression with penalty `lambda` on the (non-intercept)
    /// coefficients.
    pub fn with_ridge(lambda: f64) -> Self {
        LinearRegression {
            lambda,
            coef: None,
            intercept: 0.0,
        }
    }

    /// Fitted coefficients (without intercept), if fitted.
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coef.as_deref()
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }
}

impl Regressor for LinearRegression {
    fn fit_with_plan(&mut self, plan: &FitPlan<'_>, y: &[f64]) -> Result<()> {
        let x = plan.x();
        validate_training(x, y)?;
        // Center targets and features so the intercept is handled exactly and
        // the ridge penalty never shrinks it.
        let n = x.rows();
        let d = x.cols();
        let mut col_means = vec![0.0; d];
        for j in 0..d {
            col_means[j] = x.col_iter(j).sum::<f64>() / n as f64;
        }
        let y_mean = vmin_linalg::mean(y);
        let mut xc = x.clone();
        for i in 0..n {
            for j in 0..d {
                xc[(i, j)] -= col_means[j];
            }
        }
        let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        let beta = if self.lambda > 0.0 {
            ridge(&xc, &yc, self.lambda)?
        } else if n > d {
            match lstsq(&xc, &yc) {
                Ok(b) => b,
                // Rank-deficient: retry with a tiny ridge.
                Err(_) => ridge(&xc, &yc, 1e-8 * n as f64)?,
            }
        } else {
            // Underdetermined: minimum-norm-ish ridge solution.
            ridge(&xc, &yc, 1e-6 * n as f64)?
        };
        self.intercept = y_mean - vmin_linalg::dot(&beta, &col_means);
        self.coef = Some(beta);
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        let coef = self.coef.as_ref().ok_or(ModelError::NotFitted)?;
        if row.len() != coef.len() {
            return Err(ModelError::InvalidInput(format!(
                "model has {} features, row has {}",
                coef.len(),
                row.len()
            )));
        }
        Ok(self.intercept + vmin_linalg::dot(coef, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_linalg::Matrix;

    fn design() -> (Matrix, Vec<f64>) {
        // y = 2 + 3 x₀ − x₁
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ])
        .unwrap();
        let y = x
            .as_slice()
            .chunks(2)
            .map(|r| 2.0 + 3.0 * r[0] - r[1])
            .collect();
        (x, y)
    }

    #[test]
    fn recovers_planted_coefficients() {
        let (x, y) = design();
        let mut lr = LinearRegression::new();
        lr.fit(&x, &y).unwrap();
        let c = lr.coefficients().unwrap();
        assert!((c[0] - 3.0).abs() < 1e-9);
        assert!((c[1] + 1.0).abs() < 1e-9);
        assert!((lr.intercept() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn predict_matches_fit_on_training_data() {
        let (x, y) = design();
        let mut lr = LinearRegression::new();
        lr.fit(&x, &y).unwrap();
        let pred = lr.predict(&x).unwrap();
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn not_fitted_and_shape_errors() {
        let lr = LinearRegression::new();
        assert_eq!(lr.predict_row(&[1.0]).unwrap_err(), ModelError::NotFitted);
        let (x, y) = design();
        let mut lr = LinearRegression::new();
        lr.fit(&x, &y).unwrap();
        assert!(matches!(
            lr.predict_row(&[1.0]),
            Err(ModelError::InvalidInput(_))
        ));
    }

    #[test]
    fn handles_collinear_columns_via_fallback() {
        // Column 1 duplicates column 0.
        let x = Matrix::from_rows(&[
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0],
            vec![4.0, 4.0],
        ])
        .unwrap();
        let y = vec![2.0, 4.0, 6.0, 8.0];
        let mut lr = LinearRegression::new();
        lr.fit(&x, &y).unwrap();
        let p = lr.predict_row(&[5.0, 5.0]).unwrap();
        assert!((p - 10.0).abs() < 1e-3, "got {p}");
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let (x, y) = design();
        let mut ols = LinearRegression::new();
        ols.fit(&x, &y).unwrap();
        let mut rr = LinearRegression::with_ridge(10.0);
        rr.fit(&x, &y).unwrap();
        let norm = |c: &[f64]| c.iter().map(|v| v * v).sum::<f64>();
        assert!(norm(rr.coefficients().unwrap()) < norm(ols.coefficients().unwrap()));
    }

    #[test]
    fn underdetermined_system_still_fits() {
        // More features than samples.
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let y = vec![1.0, 2.0];
        let mut lr = LinearRegression::new();
        lr.fit(&x, &y).unwrap();
        let p = lr.predict(&x).unwrap();
        assert!((p[0] - 1.0).abs() < 0.1);
        assert!((p[1] - 2.0).abs() < 0.1);
    }

    #[test]
    fn rejects_empty_training() {
        let mut lr = LinearRegression::new();
        assert!(lr.fit(&Matrix::zeros(0, 1), &[]).is_err());
    }
}
