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

/// The one coverage tally: intervals scored against their true targets.
///
/// Batch evaluation, the fleet screen and the experiment drivers all count
/// coverage and mean interval length here, so three rules live in one
/// place:
///
/// - **containment**: an interval covers its truth when
///   [`PredictionInterval::contains`] holds (both endpoints count; a NaN
///   truth or endpoint never does);
/// - **length sum**: lengths are added in the caller's order, starting
///   from `+0.0`;
/// - **empty**: [`coverage`](Self::coverage) and
///   [`mean_length`](Self::mean_length) read 0 when nothing was recorded.
///
/// # Examples
///
/// ```
/// use vmin_conformal::{IntervalReport, PredictionInterval};
///
/// let mut report = IntervalReport::default();
/// report.record(PredictionInterval::new(540.0, 560.0), 550.0);
/// report.record(PredictionInterval::new(540.0, 550.0), 551.0);
/// assert_eq!((report.n(), report.covered()), (2, 1));
/// assert_eq!(report.coverage(), 0.5);
/// assert_eq!(report.mean_length(), 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntervalReport {
    n: usize,
    covered: usize,
    length_sum: f64,
}

impl IntervalReport {
    /// Scores one interval against its true target.
    pub fn record(&mut self, interval: PredictionInterval, truth: f64) {
        self.n += 1;
        if interval.contains(truth) {
            self.covered += 1;
        }
        self.length_sum += interval.length();
    }

    /// Number of recorded pairs.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of recorded pairs whose interval contains its truth.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Fraction of targets covered; 0 when empty.
    pub fn coverage(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.covered as f64 / self.n as f64
        }
    }

    /// Mean interval length; 0 when empty.
    pub fn mean_length(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.length_sum / self.n as f64
        }
    }
}

/// Evaluates a batch of intervals against its targets, pair by pair, and
/// records the batch in the `conformal.eval.*` trace metrics.
///
/// # Errors
///
/// [`ConformalError::InvalidArgument`] when the lengths differ or the batch
/// is empty.
pub fn evaluate_intervals(
    intervals: &[PredictionInterval],
    y_true: &[f64],
) -> Result<IntervalReport> {
    if intervals.len() != y_true.len() || y_true.is_empty() {
        return Err(ConformalError::InvalidArgument(format!(
            "evaluation batch: {} intervals vs {} targets",
            intervals.len(),
            y_true.len()
        )));
    }
    let mut report = IntervalReport::default();
    for (&iv, &y) in intervals.iter().zip(y_true) {
        report.record(iv, y);
    }
    vmin_trace::counter_add("conformal.eval.batches", 1);
    vmin_trace::counter_add("conformal.eval.points", report.n() as u64);
    vmin_trace::counter_add("conformal.eval.covered", report.covered() as u64);
    vmin_trace::histogram_record("conformal.eval.coverage", report.coverage());
    vmin_trace::histogram_record("conformal.eval.mean_length", report.mean_length());
    Ok(report)
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
        let rep = evaluate_intervals(&ivs, &y).unwrap();
        assert_eq!((rep.n(), rep.covered()), (4, 2));
        assert!((rep.coverage() - 0.5).abs() < 1e-12);
        assert!((rep.mean_length() - 2.0).abs() < 1e-12);
    }

    fn tally(pairs: &[(PredictionInterval, f64)]) -> IntervalReport {
        let mut report = IntervalReport::default();
        for &(iv, y) in pairs {
            report.record(iv, y);
        }
        report
    }

    #[test]
    fn tally_counts_both_endpoints_and_never_a_nan() {
        let iv = PredictionInterval::new(1.0, 3.0);
        let report = tally(&[(iv, 1.0), (iv, 3.0), (iv, f64::NAN)]);
        assert_eq!((report.n(), report.covered()), (3, 2));
        // Scored against its finite endpoint, which alone would cover it.
        for (nan_end, finite) in [
            (PredictionInterval::new(f64::NAN, 3.0), 3.0),
            (PredictionInterval::new(1.0, f64::NAN), 1.0),
        ] {
            assert_eq!(tally(&[(nan_end, finite)]).covered(), 0, "{nan_end:?}");
        }
    }

    #[test]
    fn empty_tally_reads_zero() {
        let empty = IntervalReport::default();
        assert_eq!((empty.n(), empty.covered()), (0, 0));
        assert_eq!(empty.coverage().to_bits(), 0.0f64.to_bits());
        assert_eq!(empty.mean_length().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn length_sum_keeps_the_callers_order_from_positive_zero() {
        let wide = PredictionInterval::new(0.0, 1e16);
        let unit = PredictionInterval::new(0.0, 1.0);
        // 1e16 + 1 rounds back to 1e16 (ties to even), so the two unit
        // lengths vanish after the wide one and survive before it.
        let wide_first = tally(&[(wide, 0.0), (unit, 0.0), (unit, 0.0)]);
        let wide_last = tally(&[(unit, 0.0), (unit, 0.0), (wide, 0.0)]);
        assert_eq!(wide_first.mean_length(), 1e16 / 3.0);
        assert_eq!(wide_last.mean_length(), (1e16 + 2.0) / 3.0);
        // The sum starts from +0.0: an all-(−0.0) batch means +0.0, where a
        // fold from −0.0 would keep the sign.
        let negative_zero = PredictionInterval::new(0.0, -0.0);
        assert_eq!(negative_zero.length().to_bits(), (-0.0f64).to_bits());
        let report = tally(&[(negative_zero, 0.0), (negative_zero, 0.0)]);
        assert_eq!(report.mean_length().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn evaluate_rejects_mismatched_and_empty_batches() {
        let iv = PredictionInterval::new(0.0, 1.0);
        for (ivs, ys) in [
            (&[iv][..], &[0.5, 0.5][..]),
            (&[iv, iv][..], &[0.5][..]),
            (&[][..], &[][..]),
        ] {
            assert!(
                matches!(
                    evaluate_intervals(ivs, ys),
                    Err(ConformalError::InvalidArgument(_))
                ),
                "{} intervals vs {} targets",
                ivs.len(),
                ys.len()
            );
        }
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
