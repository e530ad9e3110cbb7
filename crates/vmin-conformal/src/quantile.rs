//! The conformal quantile: the finite-sample-corrected empirical quantile of
//! calibration scores that gives split CP and CQR their coverage guarantee.

use crate::interval::{check_alpha, CalibrationError, ConformalError, Result};

/// The conformal rank `⌈(M+1)(1−α)⌉` among `m` sorted scores, 1-based:
/// the one rank rule of split CP, CQR, the adaptive window and jackknife+'s
/// upper bound. A rank above `m` means `m` scores cannot certify the level.
pub(crate) fn conformal_rank(m: usize, alpha: f64) -> usize {
    ((m as f64 + 1.0) * (1.0 - alpha)).ceil() as usize
}

/// Computes the `⌈(M+1)(1−α)⌉ / M`-th empirical quantile of the calibration
/// scores (the level used in Eq. 8/10 of the paper).
///
/// This is the *higher* empirical quantile: with `M` scores, it returns the
/// `⌈(M+1)(1−α)⌉`-th smallest score. When the required rank exceeds `M`
/// (small calibration sets or tiny α), the guarantee forces an infinite
/// threshold; this function then returns `f64::INFINITY`, and the resulting
/// interval is the whole line — exactly what the theory prescribes.
///
/// # Errors
///
/// - [`ConformalError::Calibration`] when `scores` is empty
///   ([`CalibrationError::EmptyWindow`]), contains a NaN, or holds no finite
///   score at all ([`CalibrationError::NonFiniteScores`]) — the typed
///   degenerate-window path the streaming/adaptive layer branches on.
/// - [`ConformalError::InvalidArgument`] when `alpha ∉ (0, 1)`.
///
/// # Examples
///
/// ```
/// let scores = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
/// // M = 9, α = 0.1 → rank ⌈10·0.9⌉ = 9 → the 9th smallest = 9.0.
/// let q = vmin_conformal::conformal_quantile(&scores, 0.1)?;
/// assert_eq!(q, 9.0);
/// # Ok::<(), vmin_conformal::ConformalError>(())
/// ```
pub fn conformal_quantile(scores: &[f64], alpha: f64) -> Result<f64> {
    if scores.is_empty() {
        return Err(ConformalError::Calibration(CalibrationError::EmptyWindow));
    }
    check_alpha(alpha)?;
    // A NaN anywhere poisons the rank statistic; a window of nothing but
    // ±∞ has no finite rank to offer either. Both are the typed degenerate
    // path (never a panic): the adaptive layer downgrades on it instead of
    // dying mid-stream. Isolated +∞ among finite scores stays legal — that
    // is the censored-score case the theory handles by widening.
    let non_finite = scores.iter().filter(|s| !s.is_finite()).count();
    if scores.iter().any(|s| s.is_nan()) || non_finite == scores.len() {
        return Err(ConformalError::Calibration(
            CalibrationError::NonFiniteScores {
                non_finite,
                total: scores.len(),
            },
        ));
    }
    let m = scores.len();
    let rank = conformal_rank(m, alpha);
    if rank > m {
        return Ok(f64::INFINITY);
    }
    let mut sorted = scores.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Ok(sorted[rank - 1])
}

/// Unit steps [`min_calibration_size`] may take from the closed-form bound
/// while it settles the rounding of the f64 finiteness test.
const SETTLE_STEPS: usize = 64;

/// Minimum calibration-set size for which the conformal quantile is finite
/// at miscoverage `alpha`: the smallest `M ≥ 1` with
/// `⌈(M+1)·(1−α)⌉ ≤ M`, i.e. `M ≥ (1−α)/α`.
///
/// The search starts at the closed form `⌈(1−α)/α⌉` and takes at most
/// 64 unit steps to settle the rounding of the f64 test that
/// [`conformal_quantile`] evaluates, so the work is bounded for every
/// `alpha`. For `α ≥ 1e-4` that lands exactly on the smallest passing `M`;
/// far below, the f64 test is noisy near the bound and the result is the
/// bound to within those steps. Outside `(0, 1)` (NaN included) no
/// calibration set makes the quantile finite — [`conformal_quantile`]
/// rejects the level — and the result is `usize::MAX`.
///
/// # Examples
///
/// ```
/// // α = 0.1 needs at least 9 calibration points for a finite interval.
/// assert_eq!(vmin_conformal::min_calibration_size(0.1), 9);
/// assert_eq!(vmin_conformal::min_calibration_size(0.0), usize::MAX);
/// ```
pub fn min_calibration_size(alpha: f64) -> usize {
    if !(alpha > 0.0 && alpha < 1.0) {
        return usize::MAX;
    }
    let finite = |m: usize| conformal_rank(m, alpha) <= m;
    // `c` is the `1 − α` the rank rule multiplies by, and `1 − c` is exact
    // for `c ≥ 0.5` (every α that needs more than one point), so the closed
    // form uses the very factor the test does.
    let c = 1.0 - alpha;
    let mut m = ((c / (1.0 - c)).ceil() as usize).max(1);
    for _ in 0..SETTLE_STEPS {
        if m > 1 && finite(m - 1) {
            m -= 1;
        } else if !finite(m) {
            m = m.saturating_add(1);
        } else {
            break;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear search `min_calibration_size` replaced: the smallest
    /// `M ≥ 1` passing the f64 finiteness test, counted up from 1 (never
    /// returns for `α ≤ 0`, about `1/α` steps otherwise).
    fn min_calibration_size_oracle(alpha: f64) -> usize {
        let mut m = 1usize;
        while ((m as f64 + 1.0) * (1.0 - alpha)).ceil() as usize > m {
            m += 1;
        }
        m
    }

    #[test]
    fn min_calibration_size_matches_the_linear_search() {
        let linear = (1..10_000).map(|k| k as f64 * 1e-4);
        let log = (0..4_000).map(|k| 10f64.powf(-4.0 + 4.0 * k as f64 / 4_000.0));
        let special = [0.5, 1.0 / 3.0, 0.2, 0.1, 0.05, 0.01, 1e-3, 0.999_999];
        for alpha in linear.chain(log).chain(special) {
            assert_eq!(
                min_calibration_size(alpha),
                min_calibration_size_oracle(alpha),
                "alpha = {alpha:e}"
            );
        }
    }

    #[test]
    fn min_calibration_size_is_bounded_for_every_alpha() {
        for alpha in [0.0, -0.1, f64::NAN, 1.0, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(min_calibration_size(alpha), usize::MAX, "alpha = {alpha}");
        }
        // About 10^12 steps for the linear search; a bounded settle here,
        // onto a size the f64 finiteness test passes. (`1 − 1e-12` rounds,
        // so the bound sits at ≈ 1.00002·10^12, not at 10^12.)
        let alpha = 1e-12;
        let m = min_calibration_size(alpha);
        assert!(
            ((m as f64 + 1.0) * (1.0 - alpha)).ceil() as usize <= m,
            "{m}"
        );
        assert!(m.abs_diff(1_000_000_000_000) < 100_000_000, "{m}");
        // So small that 1 − α rounds to 1: no finite size exists.
        assert_eq!(min_calibration_size(1e-300), usize::MAX);
    }

    #[test]
    fn known_rank_small_set() {
        // M = 4, α = 0.5 → rank ⌈5·0.5⌉ = 3 → third smallest.
        let q = conformal_quantile(&[10.0, 30.0, 20.0, 40.0], 0.5).unwrap();
        assert_eq!(q, 30.0);
    }

    #[test]
    fn infinite_when_calibration_too_small() {
        // M = 3, α = 0.1 → rank ⌈4·0.9⌉ = 4 > 3 → ∞.
        let q = conformal_quantile(&[1.0, 2.0, 3.0], 0.1).unwrap();
        assert!(q.is_infinite());
    }

    #[test]
    fn finite_exactly_at_min_size() {
        let m = min_calibration_size(0.1);
        let scores: Vec<f64> = (0..m).map(|i| i as f64).collect();
        assert!(conformal_quantile(&scores, 0.1).unwrap().is_finite());
        let fewer: Vec<f64> = (0..m - 1).map(|i| i as f64).collect();
        assert!(conformal_quantile(&fewer, 0.1).unwrap().is_infinite());
    }

    #[test]
    fn quantile_is_conservative_vs_plain() {
        // The conformal quantile at level 1−α is ≥ the plain empirical
        // (1−α)-quantile because of the (M+1)/M correction.
        let scores: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let conformal = conformal_quantile(&scores, 0.1).unwrap();
        let plain = vmin_linalg_quantile(&scores, 0.9);
        assert!(conformal >= plain, "{conformal} vs {plain}");
    }

    fn vmin_linalg_quantile(data: &[f64], p: f64) -> f64 {
        let mut s = data.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        let h = p * (s.len() - 1) as f64;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        s[lo] + (s[hi] - s[lo]) * (h - lo as f64)
    }

    #[test]
    fn validation_errors() {
        assert!(conformal_quantile(&[], 0.1).is_err());
        assert!(conformal_quantile(&[1.0], 0.0).is_err());
        assert!(conformal_quantile(&[1.0], 1.0).is_err());
        assert!(conformal_quantile(&[f64::NAN], 0.1).is_err());
    }

    #[test]
    fn degenerate_windows_are_typed_calibration_errors() {
        use crate::interval::CalibrationError;
        assert_eq!(
            conformal_quantile(&[], 0.1).unwrap_err(),
            ConformalError::Calibration(CalibrationError::EmptyWindow)
        );
        assert_eq!(
            conformal_quantile(&[f64::INFINITY, f64::NEG_INFINITY], 0.5).unwrap_err(),
            ConformalError::Calibration(CalibrationError::NonFiniteScores {
                non_finite: 2,
                total: 2,
            })
        );
        match conformal_quantile(&[1.0, f64::NAN], 0.5).unwrap_err() {
            ConformalError::Calibration(CalibrationError::NonFiniteScores { .. }) => {}
            other => panic!("NaN must be a typed NonFiniteScores error, got {other:?}"),
        }
        // An isolated +∞ among finite scores stays legal (censored score):
        // it only inflates the quantile, exactly as the theory prescribes.
        assert!(conformal_quantile(&[1.0, 2.0, f64::INFINITY], 0.5).is_ok());
    }

    #[test]
    fn min_calibration_sizes_for_common_alphas() {
        assert_eq!(min_calibration_size(0.5), 1);
        assert_eq!(min_calibration_size(0.2), 4);
        assert_eq!(min_calibration_size(0.1), 9);
        assert_eq!(min_calibration_size(0.05), 19);
    }

    #[test]
    fn monotone_in_alpha() {
        let scores: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let q10 = conformal_quantile(&scores, 0.10).unwrap();
        let q20 = conformal_quantile(&scores, 0.20).unwrap();
        assert!(q10 >= q20, "smaller α must give a larger threshold");
    }
}
