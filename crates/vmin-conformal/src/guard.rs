//! The widen-or-reject calibration audit: an empirical-coverage check of a
//! conformal correction on a held-out slice of its scores.
//!
//! The CQR guarantee is only as good as the calibration scores it is built
//! on. Drifted or dirty scores silently break the 1−α promise, so when the
//! streaming layer ([`crate::AdaptiveCalibrator`]) finishes rebuilding its
//! window it holds out a round-robin *audit slice* of the scores,
//! calibrates on the remainder, and checks the correction's empirical
//! coverage on the slice against its binomial sampling noise:
//!
//! - coverage within `tolerance_sds` binomial standard deviations of 1−α →
//!   the audit **passes** and the proper-slice correction stands;
//! - *mild* undercoverage (below tolerance but above the `severe_sds`
//!   floor) → the audit **widens**: `q̂` is re-derived by a fresh conformal
//!   calibration on the audit slice itself — the slice that exposed the
//!   problem — and the wider of the two corrections is used;
//! - *severe* undercoverage (the two slices describe incompatible score
//!   distributions) or an audit slice too small to re-certify α → a typed
//!   [`ConformalError::CalibrationContaminated`] — a loud failure instead
//!   of a silently miscalibrated predictor.

use crate::interval::{ConformalError, Result};
use crate::quantile::conformal_quantile;

/// Configuration of the calibration audit.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// Target share of the calibration window held out for the audit. The
    /// slice is every `round(1/audit_fraction)`-th score, at least every
    /// second (round-robin, so it is deterministic), so the audited share
    /// is `1/round(1/audit_fraction)` and at most half: 0.3 audits a
    /// third, and every value above 0.4 audits half.
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
    /// audit, where `stride = round(1/audit_fraction)`, at least 2, so the
    /// audited share is `1/stride`, never more than half. Shared by the
    /// adaptive calibrator's capacity check and its recalibration valve so
    /// both slice the window identically.
    pub(crate) fn audit_stride(&self) -> usize {
        (1.0 / self.audit_fraction).round().max(2.0) as usize
    }
}

/// The decision of the widen-or-reject audit core over one held-out score
/// slice — the terminal safety valve of the streaming adaptive calibrator.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Twenty audit scores `0, 1, …, 19`. At α = 0.2 the binomial sd is
    /// `√(0.8·0.2/20) ≈ 0.089`, so the default config passes coverage
    /// ≥ 0.621, rejects below 0.263 and widens in between; the slice's own
    /// conformal quantile (rank ⌈21·0.8⌉ = 17) is 16.
    fn scores() -> Vec<f64> {
        (0..20).map(f64::from).collect()
    }

    #[test]
    fn consistent_coverage_passes_and_keeps_qhat() {
        let decision = audit_widen_or_reject(16.0, &scores(), 0.2, &GuardConfig::default());
        assert_eq!(
            decision,
            Ok(AuditDecision::Pass {
                audit_coverage: 17.0 / 20.0
            })
        );
    }

    #[test]
    fn mild_deficit_widens_to_the_audit_slice_quantile() {
        match audit_widen_or_reject(9.0, &scores(), 0.2, &GuardConfig::default()) {
            Ok(AuditDecision::Widen {
                audit_coverage,
                widened_coverage,
                qhat_after,
            }) => {
                assert_eq!(audit_coverage, 10.0 / 20.0);
                assert_eq!(qhat_after, 16.0);
                assert_eq!(widened_coverage, 17.0 / 20.0);
                assert!(qhat_after > 9.0 && widened_coverage > audit_coverage);
            }
            other => panic!("expected Widen, got {other:?}"),
        }
    }

    #[test]
    fn severe_deficit_is_rejected_not_widened() {
        match audit_widen_or_reject(2.0, &scores(), 0.2, &GuardConfig::default()) {
            Err(ConformalError::CalibrationContaminated {
                audit_coverage,
                required,
            }) => {
                assert_eq!(audit_coverage, 3.0 / 20.0);
                assert!((required - 0.621).abs() < 1e-3, "required {required}");
            }
            other => panic!("expected CalibrationContaminated, got {other:?}"),
        }
    }

    #[test]
    fn slice_too_small_to_recertify_alpha_is_rejected() {
        // Three scores: the mild-deficit band reaches down to 0 coverage,
        // but the slice's α = 0.2 quantile (rank ⌈4·0.8⌉ = 4 > 3) is
        // infinite, so the deficit cannot be re-certified.
        match audit_widen_or_reject(0.5, &[1.0, 2.0, 3.0], 0.2, &GuardConfig::default()) {
            Err(ConformalError::CalibrationContaminated {
                audit_coverage,
                required,
            }) => {
                assert_eq!(audit_coverage, 0.0);
                assert!(required > 0.0, "required {required}");
            }
            other => panic!("expected CalibrationContaminated, got {other:?}"),
        }
    }

    #[test]
    fn audit_stride_rounds_the_inverse_fraction_and_audits_at_most_half() {
        for (audit_fraction, stride) in [(0.1, 10), (0.3, 3), (0.6, 2), (0.9, 2)] {
            let cfg = GuardConfig {
                audit_fraction,
                ..GuardConfig::default()
            };
            assert_eq!(
                cfg.audit_stride(),
                stride,
                "audit_fraction {audit_fraction}"
            );
        }
    }

    #[test]
    fn config_validation() {
        assert_eq!(GuardConfig::default().validate(), Ok(()));
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
            GuardConfig {
                tolerance_sds: 3.0,
                severe_sds: 2.0,
                ..GuardConfig::default()
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(ConformalError::InvalidArgument(_))),
                "accepted {bad:?}"
            );
        }
    }
}
