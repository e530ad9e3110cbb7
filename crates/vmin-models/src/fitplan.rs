//! The exact fit-plan memo: per-dataset artifacts that boosters and
//! standardizing models would otherwise rebuild on every `fit`, computed
//! once per training matrix and shared, e.g. across the CQR quantile pair.
//!
//! A [`FitPlan`] memoizes, per training matrix:
//!
//! - **binned datasets** (CatBoost-style, via [`FitPlan::binned`]): the
//!   quantile borders and `bin_of` table that `ObliviousBoost` and the
//!   histogram GBT path build before their boosting rounds, keyed by
//!   border count;
//! - **standardized designs** (via [`FitPlan::standardized`]): the
//!   per-column mean/scale statistics and standardized rows shared by
//!   `QuantileLinear` and `NeuralNet`.
//!
//! Every memo is **exact**: a memoized artifact is produced by the very
//! same code the plan-free paths run ([`BinnedDataset::compute`],
//! [`standardize_design`]), so fitted models, predictions, and downstream
//! intervals are byte-identical with or without a plan. The equivalence
//! tests in `tests/fitplan_equivalence.rs` enforce this.
//!
//! Instrumentation: `models.fitplan.build` counts plan constructions (the
//! `models.fitplan.plan` span times them) and `models.fitplan.reuse`
//! counts memo hits (shared plans and cached binned/standardized
//! artifacts). Both are deterministic at any thread count.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::traits::{ModelError, Result};
use vmin_linalg::Matrix;

/// Minimum features before binning spawns feature workers — the same
/// threshold the boosters use for their per-feature passes. Raised
/// above the paper-scale feature count (6): a thread sweep measured 2
/// threads *slower* than 1 on small inputs (README, "Performance
/// trajectory"), so microsecond-sized per-feature passes stay serial and
/// the campaign/fold level carries the parallelism.
const PAR_MIN_FEATURES: usize = 8;

/// The largest representable border count: `bin_of` stores bin indices as
/// `u8`, and a feature with `B` borders produces bins `0..=B`.
pub const MAX_BORDER_COUNT: usize = u8::MAX as usize;

// ---------------------------------------------------------------------------
// Exact shared helpers (single source of truth for memoized & direct paths)
// ---------------------------------------------------------------------------

/// Validates an `ObliviousBoost` border count against the `u8` bin table.
///
/// # Errors
///
/// [`ModelError::InvalidInput`] for `0` (no candidate thresholds) or
/// anything above [`MAX_BORDER_COUNT`], where `bin_of` would silently wrap.
pub fn validate_border_count(border_count: usize) -> Result<()> {
    if border_count == 0 || border_count > MAX_BORDER_COUNT {
        return Err(ModelError::InvalidInput(format!(
            "border_count must be in 1..={MAX_BORDER_COUNT}, got {border_count}"
        )));
    }
    Ok(())
}

/// Quantile borders for one feature from its `total_cmp`-sorted value
/// column — the exact computation `ObliviousBoost` has always used,
/// factored out so every binning path shares one body.
pub(crate) fn borders_from_sorted_column(mut col: Vec<f64>, border_count: usize) -> Vec<f64> {
    col.dedup();
    if col.len() <= 1 {
        // Constant column: no candidate thresholds at all.
        vmin_trace::counter_add("models.fitplan.borders_effective", 0);
        return Vec::new();
    }
    let count = border_count.min(col.len() - 1);
    let mut borders = Vec::with_capacity(count);
    for b in 1..=count {
        let pos = b as f64 / (count + 1) as f64 * (col.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(col.len() - 1);
        borders.push(0.5 * (col[lo] + col[hi]));
    }
    // Midpoints of distinct quantile positions can still collide — either
    // because two positions straddle the same value pair (low-cardinality
    // columns) or because `0.5 * (a + b)` rounds identically for adjacent
    // pairs — so this dedup can silently shrink the bin count below
    // `count`. Surface both numbers: `borders_effective` is what split
    // search actually scans, `borders_collapsed` how many requested
    // borders the dedup swallowed.
    borders.dedup();
    vmin_trace::counter_add("models.fitplan.borders_effective", borders.len() as u64);
    if borders.len() < count {
        vmin_trace::counter_add(
            "models.fitplan.borders_collapsed",
            (count - borders.len()) as u64,
        );
    }
    borders
}

/// Bin index of every sample for one feature: `bin(v) = #{t ∈ borders :
/// v > t}` — verbatim the `ObliviousBoost` pre-binning expression.
pub(crate) fn bins_for_feature(x: &Matrix, feature: usize, borders: &[f64]) -> Vec<u8> {
    (0..x.rows())
        .map(|i| {
            let v = x[(i, feature)];
            borders.iter().filter(|&&t| v > t).count() as u8
        })
        .collect()
}

/// Per-column standardization statistics plus the standardized feature
/// rows — the shared input transform of `QuantileLinear` and `NeuralNet`.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardizedDesign {
    /// Per-column means.
    pub feat_means: Vec<f64>,
    /// Per-column scales (standard deviation, floored to 1.0 for
    /// near-constant columns).
    pub feat_scales: Vec<f64>,
    /// Standardized feature rows, `rows[i][j] = (x[i,j] − μ_j) / s_j`.
    pub rows: Vec<Vec<f64>>,
}

/// Computes the standardized design for `x` — the exact column-statistics
/// and row-transform code previously duplicated inside `QuantileLinear` and
/// `NeuralNet::fit`.
pub fn standardize_design(x: &Matrix) -> StandardizedDesign {
    let n = x.rows();
    let d = x.cols();
    let feat_means: Vec<f64> = (0..d)
        .map(|j| x.col_iter(j).sum::<f64>() / n as f64)
        .collect();
    let feat_scales: Vec<f64> = (0..d)
        .map(|j| {
            let m = feat_means[j];
            let v = x.col_iter(j).map(|v| (v - m) * (v - m)).sum::<f64>() / n.max(2) as f64;
            if v > 1e-24 {
                v.sqrt()
            } else {
                1.0
            }
        })
        .collect();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            x.row(i)
                .iter()
                .enumerate()
                .map(|(j, &v)| (v - feat_means[j]) / feat_scales[j])
                .collect()
        })
        .collect();
    StandardizedDesign {
        feat_means,
        feat_scales,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Binned dataset (CatBoost-style shared pre-binning)
// ---------------------------------------------------------------------------

/// Quantile borders and the per-sample bin table for one border count —
/// everything `ObliviousBoost` needs before its boosting rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedDataset {
    /// Per-feature candidate thresholds, ascending.
    pub borders: Vec<Vec<f64>>,
    /// Per-feature bin index of every sample (`bin_of[feature][i]`).
    pub bin_of: Vec<Vec<u8>>,
}

impl BinnedDataset {
    /// Computes borders and bins directly from a matrix — the one binning
    /// body, memoized per border count by [`FitPlan::binned`]. One feature
    /// per parallel work item, matching the historical `ObliviousBoost`
    /// passes.
    pub fn compute(x: &Matrix, border_count: usize) -> Result<BinnedDataset> {
        validate_border_count(border_count)?;
        let features: Vec<usize> = (0..x.cols()).collect();
        let borders = vmin_par::par_map(&features, PAR_MIN_FEATURES, |_, &j| {
            let mut col: Vec<f64> = x.col_iter(j).collect();
            col.sort_by(|a, b| a.total_cmp(b));
            borders_from_sorted_column(col, border_count)
        });
        let bin_of = vmin_par::par_map(&features, PAR_MIN_FEATURES, |_, &feature| {
            bins_for_feature(x, feature, &borders[feature])
        });
        Ok(BinnedDataset { borders, bin_of })
    }
}

// ---------------------------------------------------------------------------
// FitPlan
// ---------------------------------------------------------------------------

/// The per-dataset fit plan: lazily memoized binned datasets and
/// standardized designs (see the module docs).
///
/// Build one per training matrix with [`FitPlan::build`] and hand it to
/// [`crate::Regressor::fit_with_plan`]; consumers verify the plan actually
/// describes the matrix they were given (via a dimensions + content
/// fingerprint check) and fall back to their plan-free path otherwise, so
/// a stale plan can never corrupt a fit.
#[derive(Debug)]
pub struct FitPlan {
    n_rows: usize,
    n_cols: usize,
    fingerprint: u64,
    /// Binned datasets keyed by border count, built on first use.
    binned: Mutex<BTreeMap<usize, Arc<BinnedDataset>>>,
    /// Standardized design, built on first use.
    standardized: Mutex<Option<Arc<StandardizedDesign>>>,
}

/// FNV-1a over the matrix shape and raw element bits, one xor-multiply per
/// 8-byte word: cheap (one pass) and sufficient to detect a plan/matrix
/// mismatch. Each step `h ↦ (h ^ w)·P` is a bijection of `h` for a fixed
/// word and of `w` for a fixed `h` (the FNV prime `P` is odd, so
/// multiplying by it is invertible mod 2⁶⁴), hence changing any one
/// element always changes the fingerprint.
fn fingerprint_of(x: &Matrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    mix(x.rows() as u64);
    mix(x.cols() as u64);
    for &v in x.as_slice() {
        mix(v.to_bits());
    }
    h
}

impl FitPlan {
    /// Builds the plan for `x`: records its shape and content fingerprint;
    /// every artifact is computed on first request.
    pub fn build(x: &Matrix) -> FitPlan {
        let _span = vmin_trace::span("models.fitplan.plan");
        vmin_trace::counter_add("models.fitplan.build", 1);
        FitPlan {
            n_rows: x.rows(),
            n_cols: x.cols(),
            fingerprint: fingerprint_of(x),
            binned: Mutex::new(BTreeMap::new()),
            standardized: Mutex::new(None),
        }
    }

    /// Whether this plan describes `x` (dimensions plus a full content
    /// fingerprint). Consumers call this before trusting cached artifacts;
    /// the O(nd) hash pass is negligible next to any model fit.
    pub fn matches(&self, x: &Matrix) -> bool {
        self.n_rows == x.rows() && self.n_cols == x.cols() && self.fingerprint == fingerprint_of(x)
    }

    /// The binned dataset for `border_count`, built on first request by
    /// [`BinnedDataset::compute`] and cached for reuse across the quantile
    /// pair and folds. `x` must be the matrix the plan was built from.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidInput`] on an invalid border count.
    pub fn binned(&self, x: &Matrix, border_count: usize) -> Result<Arc<BinnedDataset>> {
        // Build-vs-hit is decided under the lock, so the counters are
        // deterministic even when the CQR pair races to the same entry.
        let mut cache = self.binned.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache.get(&border_count) {
            vmin_trace::counter_add("models.fitplan.reuse", 1);
            return Ok(Arc::clone(hit));
        }
        let built = Arc::new(BinnedDataset::compute(x, border_count)?);
        cache.insert(border_count, Arc::clone(&built));
        Ok(built)
    }

    /// The standardized design, built on first request and cached for
    /// reuse across the quantile pair. `x` must be the matrix the plan was
    /// built from.
    pub fn standardized(&self, x: &Matrix) -> Arc<StandardizedDesign> {
        let mut cache = self
            .standardized
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache.as_ref() {
            vmin_trace::counter_add("models.fitplan.reuse", 1);
            return Arc::clone(hit);
        }
        let built = Arc::new(standardize_design(x));
        *cache = Some(Arc::clone(&built));
        built
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_matrix() -> Matrix {
        Matrix::from_rows(&[
            vec![3.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 5.0],
            vec![1.0, 4.0],
        ])
        .unwrap()
    }

    #[test]
    fn matches_detects_content_changes() {
        let x = toy_matrix();
        let plan = FitPlan::build(&x);
        assert!(plan.matches(&x));
        let mut other = toy_matrix();
        other[(0, 0)] = 3.5;
        assert!(!plan.matches(&other));
        assert!(!plan.matches(&Matrix::zeros(4, 3)));
        assert!(!plan.matches(&Matrix::zeros(5, 2)));
    }

    #[test]
    fn binned_matches_direct_computation_and_caches() {
        let x = toy_matrix();
        let plan = FitPlan::build(&x);
        let direct = BinnedDataset::compute(&x, 32).unwrap();
        let cached = plan.binned(&x, 32).unwrap();
        assert_eq!(*cached, direct);
        // Second request returns the same Arc.
        let again = plan.binned(&x, 32).unwrap();
        assert!(Arc::ptr_eq(&cached, &again));
        // A different border count is a separate entry.
        let coarse = plan.binned(&x, 1).unwrap();
        assert_ne!(*coarse, *cached);
    }

    #[test]
    fn border_count_validation() {
        let x = toy_matrix();
        let plan = FitPlan::build(&x);
        assert!(plan.binned(&x, 0).is_err());
        assert!(plan.binned(&x, 256).is_err());
        assert!(plan.binned(&x, 255).is_ok());
        assert!(validate_border_count(MAX_BORDER_COUNT).is_ok());
        assert!(validate_border_count(MAX_BORDER_COUNT + 1).is_err());
    }

    #[test]
    fn standardized_matches_direct_computation_and_caches() {
        let x = toy_matrix();
        let plan = FitPlan::build(&x);
        let direct = standardize_design(&x);
        let cached = plan.standardized(&x);
        assert_eq!(*cached, direct);
        assert!(Arc::ptr_eq(&cached, &plan.standardized(&x)));
    }

    #[test]
    fn fingerprint_changes_with_any_single_bit_of_any_element() {
        let x = toy_matrix();
        let base = fingerprint_of(&x);
        let (rows, cols) = (x.rows(), x.cols());
        for k in 0..rows * cols {
            for bit in 0..64 {
                let mut data = x.as_slice().to_vec();
                data[k] = f64::from_bits(data[k].to_bits() ^ (1 << bit));
                let flipped = Matrix::from_vec(rows, cols, data).unwrap();
                assert_ne!(fingerprint_of(&flipped), base, "element {k}, bit {bit}");
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_nan_payload_and_zero_sign() {
        let a = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![-0.0], vec![1.0]]).unwrap();
        assert_ne!(fingerprint_of(&a), fingerprint_of(&b));
    }

    #[test]
    fn constant_column_yields_no_borders() {
        let borders = borders_from_sorted_column(vec![2.5; 10], 32);
        assert!(borders.is_empty(), "constant column must have no borders");
        assert!(borders_from_sorted_column(vec![], 32).is_empty());
        assert!(borders_from_sorted_column(vec![1.0], 32).is_empty());
    }

    #[test]
    fn two_value_column_yields_single_midpoint_border() {
        // Any requested count collapses to the one distinct-value boundary.
        for requested in [1usize, 4, 32, 255] {
            let col = vec![1.0, 1.0, 1.0, 3.0, 3.0];
            let borders = borders_from_sorted_column(col, requested);
            assert_eq!(
                borders,
                vec![2.0],
                "two-value column must keep exactly the midpoint (requested {requested})"
            );
        }
    }

    #[test]
    fn colliding_midpoints_are_deduped_and_counted() {
        // Three adjacent values whose *distinct* quantile midpoints round to
        // the same f64: midpoint(2−2⁻⁵², 2) and midpoint(2, 2+2⁻⁵¹) both
        // evaluate to exactly 2.0, so 2 requested borders collapse to 1 —
        // the silent shrink the `borders_collapsed` counter now surfaces.
        let lo = 2.0 - f64::EPSILON;
        let hi = 2.0 + 2.0 * f64::EPSILON;
        assert!(lo < 2.0 && 2.0 < hi);
        let col = vec![lo, 2.0, hi];
        assert_eq!(0.5 * (lo + 2.0), 2.0);
        assert_eq!(0.5 * (2.0 + hi), 2.0);
        let prev = vmin_trace::set_enabled(true);
        let (borders, snap) = vmin_trace::with_collector(|| borders_from_sorted_column(col, 2));
        vmin_trace::set_enabled(prev);
        assert_eq!(borders, vec![2.0], "colliding midpoints must dedup");
        assert_eq!(snap.counters["models.fitplan.borders_effective"], 1);
        assert_eq!(snap.counters["models.fitplan.borders_collapsed"], 1);
    }

    #[test]
    fn effective_border_counter_tracks_full_binning() {
        let prev = vmin_trace::set_enabled(true);
        let (binned, snap) =
            vmin_trace::with_collector(|| BinnedDataset::compute(&toy_matrix(), 32).unwrap());
        vmin_trace::set_enabled(prev);
        let total: usize = binned.borders.iter().map(Vec::len).sum();
        assert_eq!(
            snap.counters["models.fitplan.borders_effective"], total as u64,
            "counter must equal the borders split search actually scans"
        );
    }
}
