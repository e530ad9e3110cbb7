//! The fit plan: the per-matrix artifacts that boosters and standardizing
//! models build before they train, computed once per training matrix and
//! shared by every fit handed the same plan.
//!
//! A [`FitPlan`] borrows the matrix it plans for and memoizes, on first
//! request:
//!
//! - **binned datasets** (CatBoost-style): the quantile borders and
//!   `bin_of` table that `ObliviousBoost` and `GradientBoost` build before
//!   their boosting rounds, keyed by border count;
//! - **the standardized design**: the per-column mean/scale statistics and
//!   standardized rows shared by `QuantileLinear` and `NeuralNet`.
//!
//! Every model fits through a plan ([`crate::Regressor::fit_with_plan`];
//! [`crate::Regressor::fit`] makes a plan of its own), and a memo hit hands
//! out the very artifact a fresh plan would compute, so a fit is the same
//! bits whether its plan was fresh or already filled by another fit —
//! `tests/fitplan_equivalence.rs` checks this. Because the plan borrows its
//! matrix, it cannot serve a fit on any other matrix.
//!
//! [`fit_pair`] fits a quantile pair through one plan: the place where a
//! plan is shared.
//!
//! Instrumentation: `models.fitplan.build` counts artifacts a plan computes
//! (memo misses; the `models.fitplan.plan` span times each computation) and
//! `models.fitplan.reuse` counts artifacts it serves from its memo (hits).
//! Both are decided under the memo's lock, so they are deterministic at any
//! thread count.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::traits::{ModelError, Regressor, Result};
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
pub(crate) const MAX_BORDER_COUNT: usize = u8::MAX as usize;

/// Validates an `ObliviousBoost` border count against the `u8` bin table.
///
/// # Errors
///
/// [`ModelError::InvalidInput`] for `0` (no candidate thresholds) or
/// anything above [`MAX_BORDER_COUNT`], where `bin_of` would silently wrap.
pub(crate) fn validate_border_count(border_count: usize) -> Result<()> {
    if border_count == 0 || border_count > MAX_BORDER_COUNT {
        return Err(ModelError::InvalidInput(format!(
            "border_count must be in 1..={MAX_BORDER_COUNT}, got {border_count}"
        )));
    }
    Ok(())
}

/// Quantile borders for one feature from its `total_cmp`-sorted value
/// column.
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
pub(crate) struct StandardizedDesign {
    /// Per-column means.
    pub(crate) feat_means: Vec<f64>,
    /// Per-column scales (standard deviation, floored to 1.0 for
    /// near-constant columns).
    pub(crate) feat_scales: Vec<f64>,
    /// Standardized feature rows, `rows[i][j] = (x[i,j] − μ_j) / s_j`.
    pub(crate) rows: Vec<Vec<f64>>,
}

/// Computes the standardized design for `x`: the column statistics and the
/// standardized rows.
pub(crate) fn standardize_design(x: &Matrix) -> StandardizedDesign {
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
pub(crate) struct BinnedDataset {
    /// Per-feature candidate thresholds, ascending.
    pub(crate) borders: Vec<Vec<f64>>,
    /// Per-feature bin index of every sample (`bin_of[feature][i]`).
    pub(crate) bin_of: Vec<Vec<u8>>,
}

impl BinnedDataset {
    /// Computes borders and bins from a matrix — the one binning body,
    /// memoized per border count by [`FitPlan::binned`]. One feature per
    /// parallel work item.
    pub(crate) fn compute(x: &Matrix, border_count: usize) -> Result<BinnedDataset> {
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

/// The fit plan of one training matrix: the binned datasets and the
/// standardized design of that matrix, each computed on its first request
/// and served from a memo after (see the module docs).
///
/// Making a plan costs nothing. Hand one plan to every fit on the same
/// matrix that should share its artifacts, as [`fit_pair`] does.
#[derive(Debug)]
pub struct FitPlan<'x> {
    x: &'x Matrix,
    /// Binned datasets keyed by border count, built on first use.
    binned: Mutex<BTreeMap<usize, Arc<BinnedDataset>>>,
    /// Standardized design, built on first use.
    standardized: Mutex<Option<Arc<StandardizedDesign>>>,
}

impl<'x> FitPlan<'x> {
    /// An empty plan for `x`; every artifact is computed on first request.
    pub fn new(x: &'x Matrix) -> FitPlan<'x> {
        FitPlan {
            x,
            binned: Mutex::new(BTreeMap::new()),
            standardized: Mutex::new(None),
        }
    }

    /// The training matrix this plan describes.
    pub fn x(&self) -> &'x Matrix {
        self.x
    }

    /// The binned dataset for `border_count`, computed by
    /// [`BinnedDataset::compute`] on first request and served from the
    /// memo after.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidInput`] on an invalid border count.
    pub(crate) fn binned(&self, border_count: usize) -> Result<Arc<BinnedDataset>> {
        // Miss-vs-hit is decided under the lock, so the counters are
        // deterministic even when the CQR pair races to the same entry.
        let mut cache = self.binned.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache.get(&border_count) {
            vmin_trace::counter_add("models.fitplan.reuse", 1);
            return Ok(Arc::clone(hit));
        }
        let built = {
            let _span = vmin_trace::span("models.fitplan.plan");
            Arc::new(BinnedDataset::compute(self.x, border_count)?)
        };
        vmin_trace::counter_add("models.fitplan.build", 1);
        cache.insert(border_count, Arc::clone(&built));
        Ok(built)
    }

    /// The standardized design, computed on first request and served from
    /// the memo after.
    pub(crate) fn standardized(&self) -> Arc<StandardizedDesign> {
        let mut cache = self
            .standardized
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache.as_ref() {
            vmin_trace::counter_add("models.fitplan.reuse", 1);
            return Arc::clone(hit);
        }
        let built = {
            let _span = vmin_trace::span("models.fitplan.plan");
            Arc::new(standardize_design(self.x))
        };
        vmin_trace::counter_add("models.fitplan.build", 1);
        *cache = Some(Arc::clone(&built));
        built
    }
}

/// Fits the quantile pair `lo`, `hi` on `x` and `y` through one shared
/// [`FitPlan`], so a bin table or standardized design the pair has in
/// common is computed once. The two fits run on two threads when the pool
/// allows; each fit is the same bits as a fit of its own.
///
/// # Errors
///
/// `lo`'s fit error if it failed, else `hi`'s.
pub fn fit_pair<L: Regressor, H: Regressor>(
    lo: &mut L,
    hi: &mut H,
    x: &Matrix,
    y: &[f64],
) -> Result<()> {
    let plan = FitPlan::new(x);
    let (lo_res, hi_res) =
        vmin_par::join(|| lo.fit_with_plan(&plan, y), || hi.fit_with_plan(&plan, y));
    lo_res?;
    hi_res
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
    fn binned_matches_direct_computation_and_caches() {
        let x = toy_matrix();
        let plan = FitPlan::new(&x);
        let direct = BinnedDataset::compute(&x, 32).unwrap();
        let cached = plan.binned(32).unwrap();
        assert_eq!(*cached, direct);
        // Second request returns the same Arc.
        let again = plan.binned(32).unwrap();
        assert!(Arc::ptr_eq(&cached, &again));
        // A different border count is a separate entry.
        let coarse = plan.binned(1).unwrap();
        assert_ne!(*coarse, *cached);
    }

    #[test]
    fn border_count_validation() {
        let x = toy_matrix();
        let plan = FitPlan::new(&x);
        assert!(plan.binned(0).is_err());
        assert!(plan.binned(256).is_err());
        assert!(plan.binned(255).is_ok());
        assert!(validate_border_count(MAX_BORDER_COUNT).is_ok());
        assert!(validate_border_count(MAX_BORDER_COUNT + 1).is_err());
    }

    #[test]
    fn standardized_matches_direct_computation_and_caches() {
        let x = toy_matrix();
        let plan = FitPlan::new(&x);
        let direct = standardize_design(&x);
        let cached = plan.standardized();
        assert_eq!(*cached, direct);
        assert!(Arc::ptr_eq(&cached, &plan.standardized()));
    }

    #[test]
    fn a_pair_computes_its_shared_artifact_once_at_any_thread_count() {
        // Both quantiles of a pair ask for the same bin table (GBT) or the
        // same design (QuantileLinear): whichever fit reaches the memo
        // first computes it, the other is served from it.
        use crate::{GradientBoost, GradientBoostParams, Loss, QuantileLinear};
        let x = Matrix::from_vec(40, 2, (0..80).map(|v| f64::from(v % 13)).collect()).unwrap();
        let y: Vec<f64> = (0..40).map(|i| f64::from(i % 7)).collect();
        let params = GradientBoostParams {
            n_rounds: 5,
            ..GradientBoostParams::default()
        };
        let gbt = |q| GradientBoost::with_params(Loss::Pinball(q), params);
        let ql = |q| QuantileLinear::new(q).with_training(5, 0.02);
        let prev = vmin_trace::set_enabled(true);
        for threads in [1, 8] {
            let ((), gbt_snap) = vmin_trace::with_collector(|| {
                vmin_par::with_threads(threads, || {
                    fit_pair(&mut gbt(0.05), &mut gbt(0.95), &x, &y).unwrap();
                })
            });
            let ((), ql_snap) = vmin_trace::with_collector(|| {
                vmin_par::with_threads(threads, || {
                    fit_pair(&mut ql(0.05), &mut ql(0.95), &x, &y).unwrap();
                })
            });
            for (family, snap) in [("gbt", gbt_snap), ("quantile-linear", ql_snap)] {
                for name in ["models.fitplan.build", "models.fitplan.reuse"] {
                    assert_eq!(
                        snap.counters.get(name),
                        Some(&1),
                        "{family} pair at {threads} threads: {name}"
                    );
                }
            }
        }
        vmin_trace::set_enabled(prev);
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
