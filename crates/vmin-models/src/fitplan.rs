//! The exact fit-plan cache: per-dataset artifacts that boosters and
//! standardizing models rebuild on every `fit`, computed once and shared
//! across quantile pairs, CV folds, and read points.
//!
//! A [`FitPlan`] holds, per feature:
//!
//! - **sorted row blocks** (XGBoost-style): row indices in `f64::total_cmp`
//!   order plus the aligned value array, so tree split search scans a
//!   cached segment in O(n) instead of re-sorting O(n log n) at every node;
//! - **binned datasets** (CatBoost-style, via [`FitPlan::binned`]): the
//!   quantile borders and `bin_of` table `ObliviousBoost` previously
//!   recomputed inside every fit;
//! - **standardized designs** (via [`FitPlan::standardized`]): the
//!   per-column mean/scale statistics and standardized rows shared by
//!   `QuantileLinear` and `NeuralNet`.
//!
//! Every cache is **exact**: the cached artifacts are produced by the very
//! same code the uncached paths run (the helpers in this module), and the
//! consumers replay the seed algorithms' floating-point operations in the
//! identical order, so fitted models, predictions, and downstream intervals
//! are byte-identical with the cache on or off. The equivalence tests in
//! `tests/fitplan_equivalence.rs` and the workspace determinism matrix
//! enforce this.
//!
//! Instrumentation: `models.fitplan.build` counts plan constructions (the
//! `models.fitplan.plan` span times them),
//! `models.fitplan.reuse` counts cache hits (shared plans and cached
//! binned/standardized artifacts), and `models.fitplan.scratch_reuse`
//! counts boosting rounds that recycled tree scratch buffers instead of
//! reallocating. All three are deterministic at any thread count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::traits::{ModelError, Result};
use vmin_linalg::Matrix;

/// Minimum features before plan construction spawns feature workers — the
/// same threshold the boosters use for their per-feature passes. Raised
/// above the paper-scale feature count (6): BENCH_PR5.json showed threads2
/// *slower* than threads1 on small inputs, so microsecond-sized per-feature
/// passes stay serial and the campaign/fold level carries the parallelism.
const PAR_MIN_FEATURES: usize = 8;

/// The largest representable border count: `bin_of` stores bin indices as
/// `u8`, and a feature with `B` borders produces bins `0..=B`.
pub const MAX_BORDER_COUNT: usize = u8::MAX as usize;

// ---------------------------------------------------------------------------
// Global cache flag
// ---------------------------------------------------------------------------

static FIT_CACHE_FLAG: OnceLock<AtomicBool> = OnceLock::new();
static FIT_CACHE_LOCK: Mutex<()> = Mutex::new(());

fn fit_cache_flag() -> &'static AtomicBool {
    FIT_CACHE_FLAG.get_or_init(|| AtomicBool::new(vmin_trace::env_flag("VMIN_FITPLAN", true)))
}

/// Whether the fit-plan cache is active. Defaults to on; the environment
/// variable `VMIN_FITPLAN` (read once per process via
/// [`vmin_trace::env_flag`]; `0`/`false`/`off` disable) turns it off, as does
/// [`set_fit_cache_enabled`]. The flag only selects *which code path* runs;
/// outputs are byte-identical either way.
pub fn fit_cache_enabled() -> bool {
    fit_cache_flag().load(Ordering::Relaxed)
}

/// Sets the fit-plan cache flag, returning the previous value. Prefer
/// [`with_fit_cache`] in tests and benches: it serializes flag changes so
/// concurrently running tests cannot observe each other's toggles.
pub fn set_fit_cache_enabled(on: bool) -> bool {
    fit_cache_flag().swap(on, Ordering::Relaxed)
}

struct FlagRestore(bool);

impl Drop for FlagRestore {
    fn drop(&mut self) {
        set_fit_cache_enabled(self.0);
    }
}

/// Runs `f` with the fit-plan cache pinned to `on`, restoring the previous
/// flag afterwards (also on panic). Holds a global mutex for the duration
/// so parallel flag-sensitive tests serialize instead of racing; do not
/// nest calls — the lock is not reentrant.
pub fn with_fit_cache<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let _guard = FIT_CACHE_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let _restore = FlagRestore(set_fit_cache_enabled(on));
    f()
}

// ---------------------------------------------------------------------------
// Exact shared helpers (single source of truth for cached & uncached paths)
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
/// factored out so the plan cache and the direct path share one body.
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
    /// Computes borders and bins directly from a matrix (the uncached
    /// path). One feature per parallel work item, matching the historical
    /// `ObliviousBoost` passes.
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

/// The per-dataset fit plan: exact sorted-column blocks plus lazily cached
/// binned datasets and standardized designs (see the module docs).
///
/// Build one per training matrix with [`FitPlan::build`] and hand it to
/// [`crate::Regressor::fit_with_plan`]; consumers verify the plan actually
/// describes the matrix they were given (via a dimensions + content
/// fingerprint check) and fall back to their uncached path otherwise, so a
/// stale plan can never corrupt a fit.
#[derive(Debug)]
pub struct FitPlan {
    n_rows: usize,
    n_cols: usize,
    fingerprint: u64,
    /// Per-feature row indices in ascending `total_cmp` value order
    /// (stable: ties keep ascending row order).
    sorted_rows: Vec<Vec<u32>>,
    /// Per-feature feature values aligned with `sorted_rows`.
    sorted_vals: Vec<Vec<f64>>,
    /// Binned datasets keyed by border count, built on first use.
    binned: Mutex<BTreeMap<usize, Arc<BinnedDataset>>>,
    /// Standardized design, built on first use.
    standardized: Mutex<Option<Arc<StandardizedDesign>>>,
}

/// FNV-1a over the matrix shape and raw element bits: cheap (one pass) and
/// sufficient to detect a plan/matrix mismatch.
fn fingerprint_of(x: &Matrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(x.rows() as u64);
    mix(x.cols() as u64);
    for &v in x.as_slice() {
        mix(v.to_bits());
    }
    h
}

impl FitPlan {
    /// Builds the plan for `x`: one stable `total_cmp` sort per feature, in
    /// parallel across features (the per-feature outputs are independent,
    /// so the plan is bit-identical at any thread count).
    ///
    /// # Panics
    ///
    /// Panics if `x` has more than `u32::MAX` rows (row indices are stored
    /// as `u32`; the paper's datasets are ~156 rows).
    pub fn build(x: &Matrix) -> FitPlan {
        assert!(
            x.rows() <= u32::MAX as usize,
            "fit plan supports at most u32::MAX rows"
        );
        let _span = vmin_trace::span("models.fitplan.plan");
        vmin_trace::counter_add("models.fitplan.build", 1);
        let n = x.rows();
        let features: Vec<usize> = (0..x.cols()).collect();
        let per_feature: Vec<(Vec<u32>, Vec<f64>)> =
            vmin_par::par_map(&features, PAR_MIN_FEATURES, |_, &j| {
                let mut idx: Vec<u32> = (0..n as u32).collect();
                idx.sort_by(|&a, &b| x[(a as usize, j)].total_cmp(&x[(b as usize, j)]));
                let vals: Vec<f64> = idx.iter().map(|&i| x[(i as usize, j)]).collect();
                (idx, vals)
            });
        let (sorted_rows, sorted_vals) = per_feature.into_iter().unzip();
        FitPlan {
            n_rows: n,
            n_cols: x.cols(),
            fingerprint: fingerprint_of(x),
            sorted_rows,
            sorted_vals,
            binned: Mutex::new(BTreeMap::new()),
            standardized: Mutex::new(None),
        }
    }

    /// Number of rows the plan was built for.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns the plan was built for.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Whether this plan describes `x` (dimensions plus a full content
    /// fingerprint). Consumers call this before trusting cached artifacts;
    /// the O(nd) hash pass is negligible next to any model fit.
    pub fn matches(&self, x: &Matrix) -> bool {
        self.n_rows == x.rows() && self.n_cols == x.cols() && self.fingerprint == fingerprint_of(x)
    }

    /// The binned dataset for `border_count`, built on first request from
    /// the plan's sorted columns (exactly equal to sorting each raw column)
    /// and cached for reuse across the quantile pair and folds. `x` must be
    /// the matrix the plan was built from.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidInput`] on an invalid border count.
    pub fn binned(&self, x: &Matrix, border_count: usize) -> Result<Arc<BinnedDataset>> {
        validate_border_count(border_count)?;
        // Build-vs-hit is decided under the lock, so the counters are
        // deterministic even when the CQR pair races to the same entry.
        let mut cache = self.binned.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache.get(&border_count) {
            vmin_trace::counter_add("models.fitplan.reuse", 1);
            return Ok(Arc::clone(hit));
        }
        let features: Vec<usize> = (0..self.n_cols).collect();
        let borders = vmin_par::par_map(&features, PAR_MIN_FEATURES, |_, &j| {
            // `sorted_vals[j]` is the stably `total_cmp`-sorted column —
            // bitwise the sequence `ObliviousBoost` produced by sorting the
            // raw column — so the border math is shared verbatim.
            borders_from_sorted_column(self.sorted_vals[j].clone(), border_count)
        });
        let bin_of = vmin_par::par_map(&features, PAR_MIN_FEATURES, |_, &feature| {
            bins_for_feature(x, feature, &borders[feature])
        });
        let built = Arc::new(BinnedDataset { borders, bin_of });
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

// ---------------------------------------------------------------------------
// Tree scratch (round-level reuse)
// ---------------------------------------------------------------------------

/// Reusable working memory for plan-backed tree fits: flattened per-feature
/// segment arrays that start as copies of the plan's sorted blocks and are
/// stably partitioned in place as the tree grows, plus side/partition
/// buffers. One scratch serves every boosting round of a fit — rounds after
/// the first recycle the allocations (`models.fitplan.scratch_reuse`).
#[derive(Debug)]
pub struct TreeScratch {
    /// Flattened per-feature row indices, `d × n`: feature `f`'s segment
    /// occupies `[f·n, (f+1)·n)`, in ascending value order per node range.
    pub(crate) idx: Vec<u32>,
    /// Feature values aligned with `idx`.
    pub(crate) vals: Vec<f64>,
    /// Per-node row segments in ascending row order (the seed's `rows`
    /// lists, flattened): node `[lo, hi)` owns `rows[lo..hi]`.
    pub(crate) rows: Vec<u32>,
    /// Current split's side flag per row id (`true` = left child).
    pub(crate) side: Vec<bool>,
    /// Stable-partition spill buffer for indices.
    pub(crate) tmp_idx: Vec<u32>,
    /// Stable-partition spill buffer for values.
    pub(crate) tmp_vals: Vec<f64>,
}

impl TreeScratch {
    /// Allocates scratch sized for `plan`.
    pub fn for_plan(plan: &FitPlan) -> TreeScratch {
        let n = plan.n_rows;
        let d = plan.n_cols;
        TreeScratch {
            idx: vec![0; d * n],
            vals: vec![0.0; d * n],
            rows: vec![0; n],
            side: vec![false; n],
            tmp_idx: vec![0; n],
            tmp_vals: vec![0.0; n],
        }
    }

    /// Re-initializes the segment arrays from the plan's immutable sorted
    /// blocks (gradients change per round; the value order does not).
    pub(crate) fn reset_from(&mut self, plan: &FitPlan) {
        let n = plan.n_rows;
        for (f, (idx, vals)) in plan
            .sorted_rows
            .iter()
            .zip(plan.sorted_vals.iter())
            .enumerate()
        {
            self.idx[f * n..(f + 1) * n].copy_from_slice(idx);
            self.vals[f * n..(f + 1) * n].copy_from_slice(vals);
        }
        for (i, r) in self.rows.iter_mut().enumerate() {
            *r = i as u32;
        }
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
    fn sorted_blocks_are_stable_total_cmp_order() {
        let x = toy_matrix();
        let plan = FitPlan::build(&x);
        // Feature 0: values 3,1,2,1 → rows 1,3 (tie, ascending), 2, 0.
        assert_eq!(plan.sorted_rows[0], vec![1, 3, 2, 0]);
        assert_eq!(plan.sorted_vals[0], vec![1.0, 1.0, 2.0, 3.0]);
        // Feature 1: values 1,1,5,4 → rows 0,1 (tie), 3, 2.
        assert_eq!(plan.sorted_rows[1], vec![0, 1, 3, 2]);
        assert_eq!(plan.sorted_vals[1], vec![1.0, 1.0, 4.0, 5.0]);
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
    fn scratch_reset_restores_plan_order() {
        let x = toy_matrix();
        let plan = FitPlan::build(&x);
        let mut scratch = TreeScratch::for_plan(&plan);
        scratch.reset_from(&plan);
        assert_eq!(&scratch.idx[0..4], &[1, 3, 2, 0]);
        assert_eq!(&scratch.vals[4..8], &[1.0, 1.0, 4.0, 5.0]);
        assert_eq!(scratch.rows, vec![0, 1, 2, 3]);
        // Scramble, then reset again: the copy must restore everything.
        scratch.idx.iter_mut().for_each(|v| *v = 99);
        scratch.reset_from(&plan);
        assert_eq!(&scratch.idx[0..4], &[1, 3, 2, 0]);
    }

    #[test]
    fn flag_toggles_and_restores() {
        with_fit_cache(false, || {
            assert!(!fit_cache_enabled());
            with_fit_cache_inner_check();
        });
    }

    fn with_fit_cache_inner_check() {
        // Direct set/restore round-trip (within the outer lock).
        let prev = set_fit_cache_enabled(true);
        assert!(fit_cache_enabled());
        set_fit_cache_enabled(prev);
        assert!(!fit_cache_enabled());
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
