//! Prediction intervals and batch evaluation.

use std::error::Error;
use std::fmt;
use vmin_linalg::{LinalgError, Matrix};
use vmin_models::ModelError;

/// A degenerate calibration window: no usable scores at all.
///
/// Distinct from [`ConformalError::CalibrationContaminated`] (a *suspicious*
/// but populated window): these are the structural failure modes — nothing
/// to calibrate from — that the streaming/adaptive layer must be able to
/// branch on without string-matching. Carried inside
/// [`ConformalError::Calibration`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationError {
    /// The calibration window holds zero scores.
    EmptyWindow,
    /// Every score in the window (or the single streamed observation) is
    /// non-finite — there is no finite rank statistic to calibrate from.
    NonFiniteScores {
        /// How many of the scores were non-finite.
        non_finite: usize,
        /// Total number of scores inspected.
        total: usize,
    },
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::EmptyWindow => write!(f, "empty calibration window"),
            CalibrationError::NonFiniteScores { non_finite, total } => write!(
                f,
                "calibration window unusable: {non_finite} of {total} scores non-finite"
            ),
        }
    }
}

impl Error for CalibrationError {}

/// Error produced by conformal predictors.
#[derive(Debug, Clone, PartialEq)]
pub enum ConformalError {
    /// Miscoverage α outside `(0, 1)`, empty calibration set, …
    InvalidArgument(String),
    /// The underlying model failed.
    Model(ModelError),
    /// A linear-algebra operation failed (the row selections that carve
    /// folds and audit slices out of a calibration matrix).
    Linalg(LinalgError),
    /// Calibration has not happened yet.
    NotCalibrated,
    /// The calibration window is structurally unusable (empty, or every
    /// score non-finite) — see [`CalibrationError`].
    Calibration(CalibrationError),
    /// The guarded-calibration audit found the 1−α guarantee statistically
    /// untenable on the held-out calibration slice (even after widening),
    /// or a calibration score was non-finite.
    CalibrationContaminated {
        /// Audit-slice empirical coverage of the calibrated band (NaN when
        /// the contamination was a non-finite score).
        audit_coverage: f64,
        /// The minimum coverage the audit required.
        required: f64,
    },
}

impl fmt::Display for ConformalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformalError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            ConformalError::Model(e) => write!(f, "model failure: {e}"),
            ConformalError::Linalg(e) => write!(f, "linear-algebra failure: {e}"),
            ConformalError::NotCalibrated => write!(f, "predictor has not been calibrated"),
            ConformalError::Calibration(e) => write!(f, "unusable calibration window: {e}"),
            ConformalError::CalibrationContaminated {
                audit_coverage,
                required,
            } => write!(
                f,
                "calibration contaminated: audit coverage {audit_coverage:.3} \
                 below required {required:.3} even after widening"
            ),
        }
    }
}

impl Error for ConformalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConformalError::Model(e) => Some(e),
            ConformalError::Linalg(e) => Some(e),
            ConformalError::Calibration(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for ConformalError {
    fn from(e: ModelError) -> Self {
        ConformalError::Model(e)
    }
}

impl From<LinalgError> for ConformalError {
    fn from(e: LinalgError) -> Self {
        ConformalError::Linalg(e)
    }
}

impl From<CalibrationError> for ConformalError {
    fn from(e: CalibrationError) -> Self {
        ConformalError::Calibration(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ConformalError>;

/// The one α check of every predictor: the miscoverage level must lie in
/// the open interval `(0, 1)` (NaN fails).
pub(crate) fn check_alpha(alpha: f64) -> Result<()> {
    if alpha > 0.0 && alpha < 1.0 {
        Ok(())
    } else {
        Err(ConformalError::InvalidArgument(format!(
            "alpha must be in (0, 1), got {alpha}"
        )))
    }
}

/// The one calibration-shape check of every split predictor: a non-empty
/// set with one target per row.
pub(crate) fn check_calibration_set(x_cal: &Matrix, y_cal: &[f64]) -> Result<()> {
    if x_cal.rows() != y_cal.len() || y_cal.is_empty() {
        return Err(ConformalError::InvalidArgument(format!(
            "calibration set: {} rows vs {} targets",
            x_cal.rows(),
            y_cal.len()
        )));
    }
    Ok(())
}

/// A closed prediction interval `[lo, hi]`.
///
/// # Examples
///
/// ```
/// use vmin_conformal::PredictionInterval;
///
/// let iv = PredictionInterval::new(540.0, 560.0);
/// assert!(iv.contains(550.0));
/// assert_eq!(iv.length(), 20.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionInterval {
    lo: f64,
    hi: f64,
}

impl PredictionInterval {
    /// Builds an interval, swapping the endpoints if given in the wrong
    /// order (quantile crossing produces `lo > hi`; the standard remedy is
    /// to sort the endpoints).
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= hi {
            PredictionInterval { lo, hi }
        } else {
            PredictionInterval { lo: hi, hi: lo }
        }
    }

    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// `hi − lo ≥ 0`.
    pub fn length(&self) -> f64 {
        self.hi - self.lo
    }

    /// True when `y ∈ [lo, hi]`.
    pub fn contains(&self, y: f64) -> bool {
        y >= self.lo && y <= self.hi
    }

    /// Midpoint of the interval.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

impl fmt::Display for PredictionInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.3}, {:.3}]", self.lo, self.hi)
    }
}

/// Summary statistics of a batch of intervals against true targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalReport {
    /// Fraction of targets covered.
    pub coverage: f64,
    /// Mean interval length.
    pub mean_length: f64,
    /// Number of evaluated pairs.
    pub n: usize,
}

/// Evaluates intervals against targets.
///
/// # Panics
///
/// Panics if lengths differ or inputs are empty.
pub fn evaluate_intervals(intervals: &[PredictionInterval], y_true: &[f64]) -> IntervalReport {
    assert_eq!(
        intervals.len(),
        y_true.len(),
        "evaluate_intervals: length mismatch"
    );
    assert!(!y_true.is_empty(), "evaluate_intervals: empty input");
    let covered = intervals
        .iter()
        .zip(y_true)
        .filter(|(iv, y)| iv.contains(**y))
        .count();
    let mean_length = intervals
        .iter()
        .map(PredictionInterval::length)
        .sum::<f64>()
        / intervals.len() as f64;
    let coverage = covered as f64 / y_true.len() as f64;
    vmin_trace::counter_add("conformal.eval.batches", 1);
    vmin_trace::counter_add("conformal.eval.points", y_true.len() as u64);
    vmin_trace::counter_add("conformal.eval.covered", covered as u64);
    vmin_trace::histogram_record("conformal.eval.coverage", coverage);
    vmin_trace::histogram_record("conformal.eval.mean_length", mean_length);
    IntervalReport {
        coverage,
        mean_length,
        n: y_true.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_point_rejects_alpha_outside_the_open_unit_interval() {
        use crate::{
            conformal_quantile, AdaptiveCalibrator, AdaptiveConfig, Cqr, CqrAsymmetric,
            JackknifePlus, MondrianConformal, NormalizedConformal, SplitConformal,
        };
        use vmin_models::{LinearRegression, QuantileLinear, Regressor};
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i)]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..40)
            .map(|i| 2.0 * f64::from(i) + f64::from(i % 3))
            .collect();
        let pair = || (QuantileLinear::new(0.05), QuantileLinear::new(0.95));
        let linear = LinearRegression::new;
        let boxed = || Box::new(LinearRegression::new()) as Box<dyn Regressor>;
        for alpha in [0.0, 1.0, -0.1, f64::NAN] {
            let (lo, hi) = pair();
            let (alo, ahi) = pair();
            // `for_alpha` derives its window sizes from α, so only the α
            // field is set to the value under test.
            let adaptive = AdaptiveConfig {
                alpha,
                ..AdaptiveConfig::for_alpha(0.1)
            };
            let checks: [(&str, Result<()>); 9] = [
                (
                    "conformal_quantile",
                    conformal_quantile(&y, alpha).map(drop),
                ),
                (
                    "Cqr::from_calibrated",
                    Cqr::from_calibrated(linear(), linear(), alpha, 1.0).map(drop),
                ),
                (
                    "Cqr::fit_calibrate",
                    Cqr::new(lo, hi, alpha).fit_calibrate(&x, &y, &x, &y),
                ),
                (
                    "CqrAsymmetric::fit_calibrate",
                    CqrAsymmetric::new(alo, ahi, alpha).fit_calibrate(&x, &y, &x, &y),
                ),
                (
                    "SplitConformal::fit_calibrate",
                    SplitConformal::new(linear(), alpha).fit_calibrate(&x, &y, &x, &y),
                ),
                (
                    "NormalizedConformal::fit_calibrate",
                    NormalizedConformal::new(linear(), linear(), alpha)
                        .fit_calibrate(&x, &y, &x, &y),
                ),
                (
                    "MondrianConformal::fit_calibrate",
                    MondrianConformal::new(linear(), alpha, 1)
                        .fit_calibrate(&x, &y, &x, &y, &[0; 40]),
                ),
                (
                    "JackknifePlus::fit",
                    JackknifePlus::new(alpha).fit(&x, &y, boxed),
                ),
                (
                    "AdaptiveCalibrator::new",
                    AdaptiveCalibrator::new(&y, adaptive).map(drop),
                ),
            ];
            for (entry, result) in checks {
                assert!(
                    matches!(result, Err(ConformalError::InvalidArgument(_))),
                    "{entry} took α = {alpha}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn interval_basics() {
        let iv = PredictionInterval::new(1.0, 3.0);
        assert_eq!(iv.lo(), 1.0);
        assert_eq!(iv.hi(), 3.0);
        assert_eq!(iv.length(), 2.0);
        assert_eq!(iv.midpoint(), 2.0);
        assert!(iv.contains(1.0) && iv.contains(3.0) && iv.contains(2.0));
        assert!(!iv.contains(0.99) && !iv.contains(3.01));
    }

    #[test]
    fn crossed_endpoints_are_swapped() {
        let iv = PredictionInterval::new(5.0, 2.0);
        assert_eq!(iv.lo(), 2.0);
        assert_eq!(iv.hi(), 5.0);
        assert!(iv.length() >= 0.0);
    }

    #[test]
    fn report_counts_correctly() {
        let ivs = vec![
            PredictionInterval::new(0.0, 1.0),
            PredictionInterval::new(0.0, 1.0),
            PredictionInterval::new(0.0, 3.0),
            PredictionInterval::new(0.0, 3.0),
        ];
        let y = [0.5, 2.0, 2.0, 5.0];
        let rep = evaluate_intervals(&ivs, &y);
        assert_eq!(rep.n, 4);
        assert!((rep.coverage - 0.5).abs() < 1e-12);
        assert!((rep.mean_length - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        let s = PredictionInterval::new(1.0, 2.0).to_string();
        assert!(s.starts_with('[') && s.ends_with(']'));
    }

    #[test]
    fn error_conversion_from_model() {
        let e: ConformalError = ModelError::NotFitted.into();
        assert!(matches!(e, ConformalError::Model(ModelError::NotFitted)));
        assert_eq!(e.to_string(), "model failure: model has not been fitted");
        let source = e.source().expect("a model failure exposes its source");
        assert_eq!(source.to_string(), ModelError::NotFitted.to_string());
        let e: ConformalError = LinalgError::InvalidArgument("no rows".into()).into();
        assert!(matches!(
            e,
            ConformalError::Linalg(LinalgError::InvalidArgument(_))
        ));
        assert!(e.source().is_some());
        assert!(ConformalError::NotCalibrated.source().is_none());
    }
}
