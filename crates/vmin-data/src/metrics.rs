//! Point-prediction metrics of the paper (§IV-B): R² and RMSE. Coverage and
//! mean interval length are counted by `vmin_conformal::IntervalReport`.

use crate::dataset::DatasetError;

/// Checks that `y_true` and `y_pred` pair up and are not empty.
fn check_pair(metric: &str, y_true: &[f64], y_pred: &[f64]) -> Result<(), DatasetError> {
    if y_true.len() != y_pred.len() {
        return Err(DatasetError::ShapeMismatch(format!(
            "{metric}: {} targets vs {} predictions",
            y_true.len(),
            y_pred.len()
        )));
    }
    if y_true.is_empty() {
        return Err(DatasetError::TooSmall(format!("{metric}: empty input")));
    }
    Ok(())
}

/// Coefficient of determination `R² = 1 − SS_res / SS_tot`.
///
/// Returns `f64::NEG_INFINITY`-free values: when the targets are constant
/// (`SS_tot = 0`), returns `1.0` if predictions are exact and `0.0`
/// otherwise.
///
/// # Errors
///
/// [`DatasetError::ShapeMismatch`] if the slices have different lengths,
/// [`DatasetError::TooSmall`] if they are empty.
///
/// # Examples
///
/// ```
/// let r2 = vmin_data::r_squared(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0])?;
/// assert_eq!(r2, 1.0);
/// # Ok::<(), vmin_data::DatasetError>(())
/// ```
pub fn r_squared(y_true: &[f64], y_pred: &[f64]) -> Result<f64, DatasetError> {
    check_pair("r_squared", y_true, y_pred)?;
    let mean = vmin_linalg::mean(y_true);
    let ss_tot: f64 = y_true.iter().map(|y| (y - mean) * (y - mean)).sum();
    let ss_res: f64 = y_true
        .iter()
        .zip(y_pred)
        .map(|(y, p)| (y - p) * (y - p))
        .sum();
    if ss_tot <= 0.0 {
        return Ok(if ss_res <= 1e-24 { 1.0 } else { 0.0 });
    }
    Ok(1.0 - ss_res / ss_tot)
}

/// Root-mean-square error.
///
/// # Errors
///
/// [`DatasetError::ShapeMismatch`] if the slices have different lengths,
/// [`DatasetError::TooSmall`] if they are empty.
pub fn rmse(y_true: &[f64], y_pred: &[f64]) -> Result<f64, DatasetError> {
    check_pair("rmse", y_true, y_pred)?;
    let mse: f64 = y_true
        .iter()
        .zip(y_pred)
        .map(|(y, p)| (y - p) * (y - p))
        .sum::<f64>()
        / y_true.len() as f64;
    Ok(mse.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r2_perfect_and_mean_predictor() {
        let y = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(r_squared(&y, &y), Ok(1.0));
        let mean_pred = [2.5; 4];
        assert!((r_squared(&y, &mean_pred).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn r2_can_be_negative_for_bad_models() {
        let y = [1.0, 2.0, 3.0];
        let bad = [10.0, -10.0, 20.0];
        assert!(r_squared(&y, &bad).unwrap() < 0.0);
    }

    #[test]
    fn r2_constant_targets() {
        assert_eq!(r_squared(&[5.0, 5.0], &[5.0, 5.0]), Ok(1.0));
        assert_eq!(r_squared(&[5.0, 5.0], &[5.0, 6.0]), Ok(0.0));
    }

    #[test]
    fn rmse_known_value() {
        let y = [0.0, 0.0];
        let p = [3.0, 4.0];
        assert!((rmse(&y, &p).unwrap() - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mismatched_and_empty_inputs_are_typed_errors() {
        for metric in [r_squared, rmse] {
            assert!(matches!(
                metric(&[1.0], &[1.0, 2.0]),
                Err(DatasetError::ShapeMismatch(_))
            ));
            assert!(matches!(
                metric(&[1.0, 2.0], &[1.0]),
                Err(DatasetError::ShapeMismatch(_))
            ));
            assert!(matches!(metric(&[], &[]), Err(DatasetError::TooSmall(_))));
        }
    }
}
