//! Guarded calibration: an empirical-coverage audit over split-CQR.
//!
//! The CQR guarantee is only as good as the calibration scores it is built
//! on. Dirty calibration data — censored targets, duplicated rows,
//! sensor dropouts that survived upstream hygiene — silently breaks the
//! 1−α promise. [`GuardedCqr`] therefore holds out an *audit slice* of the
//! calibration set, calibrates on the remainder, and checks the calibrated
//! intervals' empirical coverage on the held-out slice against its binomial
//! sampling noise:
//!
//! - coverage within `tolerance_sds` binomial standard deviations of 1−α →
//!   the guard **passes** and the standard calibration stands;
//! - *mild* undercoverage (below tolerance but above the `severe_sds`
//!   floor) → the guard **widens**: `q̂` is re-derived by a fresh conformal
//!   calibration on the audit slice itself — the slice that exposed the
//!   problem — and the wider of the two corrections is used;
//! - *severe* undercoverage (the two slices describe incompatible score
//!   distributions), a non-finite calibration value, or an audit slice too
//!   small to re-certify α → a typed
//!   [`ConformalError::CalibrationContaminated`] — the caller gets a loud
//!   failure instead of a silently miscalibrated predictor.

use crate::cqr::Cqr;
use crate::interval::{
    check_calibration_set, CalibrationError, ConformalError, PredictionInterval, Result,
};
use crate::quantile::conformal_quantile;
use vmin_linalg::Matrix;
use vmin_models::Regressor;

/// Configuration of the calibration audit.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// Fraction of the calibration set held out for the audit (round-robin
    /// assignment, so the slice is deterministic).
    pub audit_fraction: f64,
    /// Minimum audit-slice size for the binomial test to mean anything.
    pub min_audit: usize,
    /// How many binomial standard deviations below 1−α the audit coverage
    /// may fall before the guard intervenes.
    pub tolerance_sds: f64,
    /// Below this many standard deviations the deficit is no longer a
    /// sampling fluke to be widened away but evidence the two calibration
    /// slices follow incompatible distributions — contamination.
    pub severe_sds: f64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            audit_fraction: 0.3,
            min_audit: 8,
            tolerance_sds: 2.0,
            severe_sds: 6.0,
        }
    }
}

impl GuardConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        if !(self.audit_fraction > 0.0 && self.audit_fraction < 1.0) {
            return Err(ConformalError::InvalidArgument(format!(
                "audit_fraction must be in (0, 1), got {}",
                self.audit_fraction
            )));
        }
        if self.min_audit == 0 {
            return Err(ConformalError::InvalidArgument(
                "min_audit must be at least 1".into(),
            ));
        }
        if self.tolerance_sds.is_nan() || self.tolerance_sds < 0.0 {
            return Err(ConformalError::InvalidArgument(format!(
                "tolerance_sds must be non-negative, got {}",
                self.tolerance_sds
            )));
        }
        if self.severe_sds.is_nan() || self.severe_sds < self.tolerance_sds {
            return Err(ConformalError::InvalidArgument(format!(
                "severe_sds ({}) must be at least tolerance_sds ({})",
                self.severe_sds, self.tolerance_sds
            )));
        }
        Ok(())
    }

    /// Round-robin stride of the audit split: every `stride`-th point is
    /// audit. Shared by [`GuardedCqr`] and the adaptive recalibration valve
    /// so both slice the window identically.
    pub(crate) fn audit_stride(&self) -> usize {
        (1.0 / self.audit_fraction).round().max(2.0) as usize
    }
}

/// The decision of the widen-or-reject audit core over one held-out score
/// slice — the shared terminal safety valve of [`GuardedCqr`] and the
/// streaming adaptive calibrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AuditDecision {
    /// Audit coverage consistent with 1−α; `qhat` stands.
    Pass {
        /// Empirical audit-slice coverage of the proper-slice correction.
        audit_coverage: f64,
    },
    /// Mild deficit repaired by recalibrating on the audit slice itself.
    Widen {
        /// Audit coverage of the original correction.
        audit_coverage: f64,
        /// Audit coverage after widening.
        widened_coverage: f64,
        /// The widened correction now in force.
        qhat_after: f64,
    },
}

/// The widen-or-reject audit contract over raw score slices: given the
/// proper-slice correction `qhat` and the held-out `audit_scores`, pass when
/// audit coverage sits within `tolerance_sds` binomial standard deviations
/// of 1−α, widen (fresh conformal calibration on the audit slice, wider of
/// the two corrections) on a mild deficit, and reject with
/// [`ConformalError::CalibrationContaminated`] on a severe one or when the
/// audit slice cannot re-certify α.
///
/// Callers are responsible for finite, non-empty `audit_scores` and a valid
/// `alpha` — both already enforced on every path that reaches here.
pub(crate) fn audit_widen_or_reject(
    qhat: f64,
    audit_scores: &[f64],
    alpha: f64,
    config: &GuardConfig,
) -> Result<AuditDecision> {
    let m = audit_scores.len() as f64;
    let target = 1.0 - alpha;
    let sd = (target * alpha / m).sqrt();
    let required = (target - config.tolerance_sds * sd).max(0.0);
    let coverage_at =
        |q: f64| -> f64 { audit_scores.iter().filter(|&&s| s <= q).count() as f64 / m };

    let audit_coverage = coverage_at(qhat);
    if audit_coverage >= required {
        return Ok(AuditDecision::Pass { audit_coverage });
    }

    // Severe deficit: the two slices describe incompatible score
    // distributions. No widening derived from this data is trustworthy.
    let severe_floor = (target - config.severe_sds * sd).max(0.0);
    if audit_coverage < severe_floor {
        return Err(ConformalError::CalibrationContaminated {
            audit_coverage,
            required,
        });
    }

    // Mild deficit: re-derive q̂ by a fresh conformal calibration on the
    // audit slice itself — the slice that exposed the problem — so the
    // widened band inherits its rank-based guarantee from the held-out
    // data, not from the slice under suspicion. Using the combined
    // scores here would let the suspect proper slice vote on its own
    // acquittal.
    let qhat_wide = conformal_quantile(audit_scores, alpha)?.max(qhat);
    if !qhat_wide.is_finite() {
        // Audit slice too small for the rank-based α quantile: the
        // deficit cannot be re-certified from held-out data.
        return Err(ConformalError::CalibrationContaminated {
            audit_coverage,
            required,
        });
    }
    let widened_coverage = coverage_at(qhat_wide);
    Ok(AuditDecision::Widen {
        audit_coverage,
        widened_coverage,
        qhat_after: qhat_wide,
    })
}

/// What the calibration audit concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardOutcome {
    /// The audit-slice coverage was consistent with 1−α; the standard
    /// calibration stands.
    Passed {
        /// Empirical coverage of the calibrated band on the audit slice.
        audit_coverage: f64,
    },
    /// The audit detected a mild undercoverage; `q̂` was widened by a fresh
    /// conformal calibration on the audit slice itself.
    Widened {
        /// Audit coverage of the original calibration.
        audit_coverage: f64,
        /// Audit coverage after widening.
        widened_coverage: f64,
        /// The correction before widening.
        qhat_before: f64,
        /// The correction in force after widening.
        qhat_after: f64,
    },
}

/// CQR with an audited, contamination-guarded calibration.
///
/// # Examples
///
/// ```
/// use vmin_conformal::{GuardConfig, GuardedCqr, GuardOutcome};
/// use vmin_models::QuantileLinear;
/// use vmin_linalg::Matrix;
///
/// let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![(i % 40) as f64]).collect();
/// let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
/// let x = Matrix::from_rows(&rows)?;
/// let guarded = GuardedCqr::fit_calibrate_audited(
///     QuantileLinear::new(0.05),
///     QuantileLinear::new(0.95),
///     0.1,
///     &x, &y, &x, &y,
///     &GuardConfig::default(),
/// )?;
/// assert!(matches!(guarded.outcome(), GuardOutcome::Passed { .. }));
/// let iv = guarded.predict_interval(&[10.0])?;
/// assert!(iv.contains(30.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GuardedCqr<L, H> {
    cqr: Cqr<L, H>,
    /// The correction actually in force (widened when the audit demanded).
    qhat: f64,
    outcome: GuardOutcome,
}

impl<L: Regressor, H: Regressor> GuardedCqr<L, H> {
    /// Fits the quantile pair on the training split, calibrates on the
    /// non-audit part of the calibration split, audits coverage on the
    /// held-out audit slice, and widens or rejects per the guard contract.
    ///
    /// # Errors
    ///
    /// - [`ConformalError::CalibrationContaminated`] when a calibration
    ///   score is non-finite or the audit coverage stays statistically
    ///   untenable even after widening;
    /// - [`ConformalError::InvalidArgument`] for bad configuration or a
    ///   calibration set too small to audit;
    /// - [`ConformalError::Model`] when the underlying pair fails.
    #[allow(clippy::too_many_arguments)] // the split-CQR surface: pair + α + two splits
    pub fn fit_calibrate_audited(
        lo_model: L,
        hi_model: H,
        alpha: f64,
        x_train: &Matrix,
        y_train: &[f64],
        x_cal: &Matrix,
        y_cal: &[f64],
        config: &GuardConfig,
    ) -> Result<Self> {
        let _span = vmin_trace::span("conformal.guard.fit_calibrate_audited");
        vmin_trace::counter_add("conformal.guard.audits", 1);
        config.validate()?;
        // Structurally unusable windows are the typed degenerate path: an
        // empty calibration set, or one with no finite target at all, has
        // nothing to audit — distinct from contamination, which is a
        // populated window under suspicion.
        if x_cal.rows() == 0 && y_cal.is_empty() {
            return Err(ConformalError::Calibration(CalibrationError::EmptyWindow));
        }
        check_calibration_set(x_cal, y_cal)?;
        let non_finite = y_cal.iter().filter(|v| !v.is_finite()).count();
        if non_finite == y_cal.len() {
            return Err(ConformalError::Calibration(
                CalibrationError::NonFiniteScores {
                    non_finite,
                    total: y_cal.len(),
                },
            ));
        }
        // Non-finite calibration values would poison the rank-based quantile
        // machinery downstream; surface them as contamination before any
        // fitting happens.
        if non_finite > 0 || x_cal.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(ConformalError::CalibrationContaminated {
                audit_coverage: f64::NAN,
                required: 1.0 - alpha,
            });
        }
        let n = y_cal.len();
        // Round-robin split: every `stride`-th point is audit. Deterministic,
        // and interleaving is unbiased for any upstream row order.
        let stride = config.audit_stride();
        let audit_idx: Vec<usize> = (0..n).filter(|i| i % stride == 0).collect();
        let proper_idx: Vec<usize> = (0..n).filter(|i| i % stride != 0).collect();
        if audit_idx.len() < config.min_audit || proper_idx.is_empty() {
            return Err(ConformalError::InvalidArgument(format!(
                "calibration set of {n} too small to audit \
                 (need ≥ {} audit points at fraction {})",
                config.min_audit, config.audit_fraction
            )));
        }
        let x_proper = x_cal.select_rows(&proper_idx)?;
        let y_proper: Vec<f64> = proper_idx.iter().map(|&i| y_cal[i]).collect();
        let x_audit = x_cal.select_rows(&audit_idx)?;
        let y_audit: Vec<f64> = audit_idx.iter().map(|&i| y_cal[i]).collect();

        let mut cqr = Cqr::new(lo_model, hi_model, alpha);
        cqr.fit_calibrate(x_train, y_train, &x_proper, &y_proper)?;
        let qhat = cqr.qhat().ok_or(ConformalError::NotCalibrated)?; // invariant: fit_calibrate sets q̂

        let proper_scores = cqr.scores(&x_proper, &y_proper)?;
        let audit_scores = cqr.scores(&x_audit, &y_audit)?;
        if proper_scores
            .iter()
            .chain(&audit_scores)
            .any(|s| !s.is_finite())
        {
            return Err(ConformalError::CalibrationContaminated {
                audit_coverage: f64::NAN,
                required: 1.0 - alpha,
            });
        }

        match audit_widen_or_reject(qhat, &audit_scores, alpha, config) {
            Ok(AuditDecision::Pass { audit_coverage }) => {
                vmin_trace::counter_add("conformal.guard.passed", 1);
                Ok(GuardedCqr {
                    cqr,
                    qhat,
                    outcome: GuardOutcome::Passed { audit_coverage },
                })
            }
            Ok(AuditDecision::Widen {
                audit_coverage,
                widened_coverage,
                qhat_after,
            }) => {
                vmin_trace::counter_add("conformal.guard.widened", 1);
                Ok(GuardedCqr {
                    cqr,
                    qhat: qhat_after,
                    outcome: GuardOutcome::Widened {
                        audit_coverage,
                        widened_coverage,
                        qhat_before: qhat,
                        qhat_after,
                    },
                })
            }
            Err(e) => {
                vmin_trace::counter_add("conformal.guard.rejected", 1);
                Err(e)
            }
        }
    }

    /// What the audit concluded.
    pub fn outcome(&self) -> &GuardOutcome {
        &self.outcome
    }

    /// The correction in force (the widened one when the guard widened).
    pub fn qhat(&self) -> f64 {
        self.qhat
    }

    /// True when the guard had to widen the calibration.
    pub fn was_widened(&self) -> bool {
        matches!(self.outcome, GuardOutcome::Widened { .. })
    }

    /// The guarded interval `[ĝ_lo(x) − q̂, ĝ_hi(x) + q̂]` with the audited
    /// (possibly widened) correction.
    ///
    /// # Errors
    ///
    /// Model errors on prediction failure.
    pub fn predict_interval(&self, row: &[f64]) -> Result<PredictionInterval> {
        let band = self.cqr.predict_raw_band(row)?;
        Ok(PredictionInterval::new(
            band.lo() - self.qhat,
            band.hi() + self.qhat,
        ))
    }

    /// Guarded intervals for every row of `x`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::evaluate_intervals;
    use vmin_models::QuantileLinear;
    use vmin_rng::{ChaCha8Rng, Rng, SeedableRng};

    fn hetero(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..4.0);
            rows.push(vec![x]);
            y.push(x + (0.25 + x) * rng.gen_range(-1.0..1.0));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn guarded(
        y_cal_tweak: impl Fn(usize, f64) -> f64,
        alpha: f64,
        config: &GuardConfig,
    ) -> Result<GuardedCqr<QuantileLinear, QuantileLinear>> {
        let (x_tr, y_tr) = hetero(150, 10);
        let (x_ca, mut y_ca) = hetero(90, 11);
        for (i, v) in y_ca.iter_mut().enumerate() {
            *v = y_cal_tweak(i, *v);
        }
        GuardedCqr::fit_calibrate_audited(
            QuantileLinear::new(alpha / 2.0),
            QuantileLinear::new(1.0 - alpha / 2.0),
            alpha,
            &x_tr,
            &y_tr,
            &x_ca,
            &y_ca,
            config,
        )
    }

    #[test]
    fn clean_calibration_passes_and_covers() {
        let g = guarded(|_, v| v, 0.2, &GuardConfig::default()).unwrap();
        match g.outcome() {
            GuardOutcome::Passed { audit_coverage } => {
                assert!(*audit_coverage >= 0.6, "audit coverage {audit_coverage}");
            }
            other => panic!("clean data should pass the guard, got {other:?}"),
        }
        let (x_te, y_te) = hetero(100, 99);
        let report = evaluate_intervals(&g.predict_intervals(&x_te).unwrap(), &y_te);
        assert!(report.coverage >= 0.7, "test coverage {}", report.coverage);
    }

    #[test]
    fn audit_slice_shift_triggers_widening() {
        // A third of the audit positions (round-robin stride 3 at fraction
        // 0.3) carry shifted targets the proper-slice q̂ cannot cover: a
        // mild deficit the guard repairs by recalibrating on the audit
        // slice.
        let g = guarded(
            |i, v| if i % 9 == 0 { v + 25.0 } else { v },
            0.2,
            &GuardConfig::default(),
        )
        .unwrap();
        match *g.outcome() {
            GuardOutcome::Widened {
                audit_coverage,
                widened_coverage,
                qhat_before,
                qhat_after,
            } => {
                assert!(
                    audit_coverage < 0.65,
                    "audit must undercover, got {audit_coverage}"
                );
                assert!(widened_coverage > audit_coverage);
                assert!(qhat_after > qhat_before);
            }
            other => panic!("expected Widened, got {other:?}"),
        }
        assert!(g.was_widened());
    }

    #[test]
    fn widened_band_is_wider() {
        let clean = guarded(|_, v| v, 0.2, &GuardConfig::default()).unwrap();
        let wide = guarded(
            |i, v| if i % 9 == 0 { v + 25.0 } else { v },
            0.2,
            &GuardConfig::default(),
        )
        .unwrap();
        let a = clean.predict_interval(&[2.0]).unwrap();
        let b = wide.predict_interval(&[2.0]).unwrap();
        assert!(b.length() > a.length());
    }

    #[test]
    fn nan_calibration_target_is_contaminated() {
        let err = guarded(
            |i, v| if i == 5 { f64::NAN } else { v },
            0.2,
            &GuardConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, ConformalError::CalibrationContaminated { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn extreme_contamination_is_rejected_not_widened() {
        // Every audit point escapes upward: coverage collapses to ~0, far
        // below the severe_sds floor — the slices describe incompatible
        // distributions and no widening is trustworthy.
        let err = guarded(
            |i, v| {
                if i % 3 == 0 {
                    v + 1e3 * (1.0 + i as f64)
                } else {
                    v
                }
            },
            0.2,
            &GuardConfig::default(),
        )
        .unwrap_err();
        match err {
            ConformalError::CalibrationContaminated {
                audit_coverage,
                required,
            } => {
                assert!(
                    audit_coverage < 0.1,
                    "coverage should collapse, got {audit_coverage}"
                );
                assert!(required > audit_coverage);
            }
            other => panic!("expected CalibrationContaminated, got {other:?}"),
        }
    }

    #[test]
    fn too_small_calibration_set_is_invalid_argument() {
        let (x_tr, y_tr) = hetero(60, 1);
        let (x_ca, y_ca) = hetero(6, 2);
        let err = GuardedCqr::fit_calibrate_audited(
            QuantileLinear::new(0.1),
            QuantileLinear::new(0.9),
            0.2,
            &x_tr,
            &y_tr,
            &x_ca,
            &y_ca,
            &GuardConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ConformalError::InvalidArgument(_)), "{err:?}");
    }

    #[test]
    fn config_validation() {
        let (x, y) = hetero(60, 1);
        for bad in [
            GuardConfig {
                audit_fraction: 0.0,
                ..GuardConfig::default()
            },
            GuardConfig {
                audit_fraction: 1.0,
                ..GuardConfig::default()
            },
            GuardConfig {
                min_audit: 0,
                ..GuardConfig::default()
            },
            GuardConfig {
                tolerance_sds: -1.0,
                ..GuardConfig::default()
            },
        ] {
            let err = GuardedCqr::fit_calibrate_audited(
                QuantileLinear::new(0.1),
                QuantileLinear::new(0.9),
                0.2,
                &x,
                &y,
                &x,
                &y,
                &bad,
            )
            .unwrap_err();
            assert!(matches!(err, ConformalError::InvalidArgument(_)));
        }
    }
}
