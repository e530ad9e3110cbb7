//! Histogram-binned split finding for both boosters (PR 7).
//!
//! The exact greedy scans in `tree.rs` and `oblivious.rs` re-walk sorted
//! columns (GBT) or re-score every `(leaf, border)` pair (oblivious) at
//! every node or level. This module replaces both hot loops with the
//! classic histogram recipe built on the `u8` bin tables [`BinnedDataset`]
//! already memoizes:
//!
//! - **Binning contract.** `bin(v) = #{t ∈ borders : v > t}` (the
//!   `fitplan` expression), so rows with `bin ≤ k` are exactly the rows
//!   with `v ≤ borders[k]`. The oblivious booster's split predicate
//!   `v > borders[k]` therefore maps 1:1 onto a bin-boundary scan. The
//!   GBT path routes `v < threshold` left, so its stored threshold for
//!   boundary `k` is the *smallest training value in bins above `k`*
//!   (a suffix-min, see [`HistBinned`]): on every training row the value
//!   predicate and the bin predicate agree exactly, which keeps the
//!   scored histograms consistent with the actual partition. (NaN feature
//!   values land in bin 0 for training statistics but fail `v <
//!   threshold` at prediction — the same ordering quirk the exact scan
//!   has always had.)
//! - **Subtraction trick.** A child's histogram is its parent's minus its
//!   sibling's, bin by bin; only the smaller child is ever accumulated
//!   from rows ([`subtract_sibling`]). The oblivious level kernel gets
//!   the same effect for free: per-leaf gradient totals are carried as
//!   `left = Σ, right = parent − left`.
//! - **Tie order.** Per-feature scans keep the seed's strict-`>`
//!   first-maximum rule (earliest boundary wins), and the cross-feature
//!   merge folds candidates in ascending feature order, also strict `>`
//!   — identical tie behavior to the exact scans.
//! - **Determinism.** Feature scans go through [`vmin_par::par_map`],
//!   whose items are independent and returned in input order, and every
//!   row reduction runs serially in ascending row order inside its item —
//!   so the binned path is bit-identical at any `VMIN_THREADS`. It is
//!   *not* bit-identical to the exact scan (different summation shapes);
//!   the interval-quality tests bound the statistical gap instead.
//! - **Kill switch.** `VMIN_HIST=0` (or [`with_histograms`]) falls back
//!   to the untouched exact scans, byte-for-byte the seed behavior.
//! - **Round memo.** Pinball rounds whose gradient class repeats an
//!   earlier round's reuse what that round built ([`RoundMemo`]): the GBT
//!   booster pushes a clone of the stored tree, the oblivious booster
//!   replays the stored level splits. Bit for bit, see DESIGN.md §12.
//!
//! Instrumentation: `models.hist.oblivious_fits` / `models.hist.tree_fits`
//! count binned fits, `models.hist.level_searches` counts oblivious level
//! scans, and `models.hist.child_accumulated` / `models.hist.child_subtracted`
//! count the two halves of the subtraction trick. `models.gbt.memo_hits` /
//! `models.oblivious.memo_hits` count rounds served from the memo (flushed
//! once per fit), so `tree_fits + gbt.memo_hits = gbt.rounds` on pinball
//! histogram fits. All are deterministic at any thread count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::fitplan::{BinnedDataset, MAX_BORDER_COUNT};
use vmin_linalg::Matrix;

/// Minimum features before the histogram passes spawn per-feature workers.
/// Deliberately above the paper-scale feature count (6): at n ≈ 10³ rows a
/// feature histogram costs a few microseconds, far below spawn cost
/// (BENCH_PR5.json's threads2 regressions on small inputs).
pub(crate) const PAR_MIN_FEATURES: usize = 8;

// ---------------------------------------------------------------------------
// Global histogram flag
// ---------------------------------------------------------------------------

static HIST_FLAG: OnceLock<AtomicBool> = OnceLock::new();
static HIST_LOCK: Mutex<()> = Mutex::new(());

fn hist_flag() -> &'static AtomicBool {
    HIST_FLAG.get_or_init(|| AtomicBool::new(vmin_trace::env_flag("VMIN_HIST", true)))
}

/// Whether histogram-binned split finding is active. Defaults to on; the
/// environment variable `VMIN_HIST` (read once per process via
/// [`vmin_trace::env_flag`]; `0`/`false`/`off` disable) turns it off,
/// as does [`set_hist_enabled`]. Off means the exact greedy scans run —
/// byte-for-byte the pre-histogram behavior.
pub fn hist_enabled() -> bool {
    hist_flag().load(Ordering::Relaxed)
}

/// Sets the histogram flag, returning the previous value. Prefer
/// [`with_histograms`] in tests and benches: it serializes flag changes so
/// concurrently running tests cannot observe each other's toggles.
pub fn set_hist_enabled(on: bool) -> bool {
    hist_flag().swap(on, Ordering::Relaxed)
}

struct FlagRestore(bool);

impl Drop for FlagRestore {
    fn drop(&mut self) {
        set_hist_enabled(self.0);
    }
}

/// Runs `f` with histogram split finding pinned to `on`, restoring the
/// previous flag afterwards (also on panic). Holds a global mutex for the
/// duration so parallel flag-sensitive tests serialize instead of racing;
/// do not nest calls — the lock is not reentrant.
pub fn with_histograms<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let _guard = HIST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = FlagRestore(set_hist_enabled(on));
    f()
}

/// Reverses the low `bits` bits of `i`: the oblivious kernel numbers leaf
/// blocks with the level-0 decision as the *top* bit (each split doubles
/// block ids as `old * 2 + side`), while `ObliviousTree::leaf_index` packs
/// the level-`ℓ` decision into bit `ℓ` — the two are bit-reversals of each
/// other.
pub(crate) fn bit_reverse(i: usize, bits: usize) -> usize {
    let mut out = 0usize;
    for b in 0..bits {
        out |= ((i >> b) & 1) << (bits - 1 - b);
    }
    out
}

/// Candidate-boundary cap for the GBT histogram path. Histograms only pay
/// off when several rows share a bin: with fewer rows than bins, every
/// sweep, sibling subtraction, and scratch clear walks slots that mostly
/// hold a single row, costing *more* than the exact sorted scan.
/// Capping boundaries at ~`n/4` (clamped to `[31, MAX_BORDER_COUNT]`)
/// keeps ≥ ~4 rows per root bin. A pure function of the row count — never
/// of thread count or fit-plan state — so the binned model stays its own
/// bit-identical reference.
pub(crate) fn gbt_border_cap(n: usize) -> usize {
    (n / 4).clamp(31, MAX_BORDER_COUNT)
}

// ---------------------------------------------------------------------------
// Round memo: both boosters' pinball rounds keyed by gradient class
// ---------------------------------------------------------------------------

/// What earlier rounds of one boosted fit built, keyed by their pinball
/// gradient class ([`crate::Loss::gradient_class`]). Equal classes mean a
/// bit-identical gradient vector, and the histogram tree builders read
/// nothing else that changes between rounds, so a round whose class
/// matches an earlier round's would rebuild exactly what that round built.
///
/// Only a miss inserts, so keys are distinct and a fit of `n_rounds`
/// rounds over `n` rows holds at most `n_rounds` entries and
/// `n_rounds · ⌈n/32⌉` key words. A hit is word-for-word equality of the
/// whole key — no hashing decides it. The memo lives inside one `fit` call
/// and is consulted serially between rounds, so thread count cannot
/// affect it.
#[derive(Debug)]
pub(crate) struct RoundMemo<T> {
    entries: Vec<(Vec<u64>, T)>,
}

impl<T> RoundMemo<T> {
    pub(crate) fn new() -> Self {
        RoundMemo {
            entries: Vec::new(),
        }
    }

    /// The value stored under `key`. Scans newest first: a repeat most
    /// often matches the previous round.
    pub(crate) fn get(&self, key: &[u64]) -> Option<&T> {
        self.entries
            .iter()
            .rev()
            .find(|(k, _)| k.as_slice() == key)
            .map(|(_, v)| v)
    }

    /// Stores what a round with class `key` built (call only after a miss).
    pub(crate) fn insert(&mut self, key: Vec<u64>, value: T) {
        self.entries.push((key, value));
    }
}

// ---------------------------------------------------------------------------
// GBT side: per-node feature histograms + boundary scan
// ---------------------------------------------------------------------------

/// One feature's gradient/Hessian/count histogram over a tree node's rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FeatHist {
    pub(crate) g: Vec<f64>,
    pub(crate) h: Vec<f64>,
    pub(crate) c: Vec<u32>,
}

/// Bin tables plus per-boundary split thresholds for the GBT histogram
/// path, built once per boosted fit and shared by every round's tree.
#[derive(Debug)]
pub(crate) struct HistBinned {
    /// `bin_of[feature][row]` — copied from the [`BinnedDataset`].
    pub(crate) bin_of: Vec<Vec<u8>>,
    /// `split_at[feature][k]`: the smallest training value with
    /// `bin > k` (`+∞` if the upper bins are empty), so `v < split_at[k]`
    /// ⇔ `bin(v) ≤ k` on every training row.
    pub(crate) split_at: Vec<Vec<f64>>,
}

impl HistBinned {
    /// Derives the per-boundary thresholds from the raw matrix and its bin
    /// table (suffix-min of per-bin minimum values).
    pub(crate) fn build(x: &Matrix, binned: &BinnedDataset) -> HistBinned {
        let features: Vec<usize> = (0..x.cols()).collect();
        let split_at = vmin_par::par_map(&features, PAR_MIN_FEATURES, |_, &f| {
            let borders = &binned.borders[f];
            let bins = &binned.bin_of[f];
            let mut bin_min = vec![f64::INFINITY; borders.len() + 1];
            for i in 0..x.rows() {
                let b = bins[i] as usize;
                let v = x[(i, f)];
                if v < bin_min[b] {
                    bin_min[b] = v;
                }
            }
            let mut split = vec![f64::INFINITY; borders.len()];
            let mut suffix = f64::INFINITY;
            for k in (0..borders.len()).rev() {
                suffix = suffix.min(bin_min[k + 1]);
                split[k] = suffix;
            }
            split
        });
        HistBinned {
            bin_of: binned.bin_of.clone(),
            split_at,
        }
    }

    pub(crate) fn n_features(&self) -> usize {
        self.bin_of.len()
    }

    /// Accumulates every feature's histogram over `rows`. Each feature is
    /// an independent parallel item whose rows are summed serially in the
    /// given (ascending) order — bit-identical at any thread count.
    /// (Tree growth goes through [`Self::accumulate_into`]; this wrapper
    /// serves the unit tests.)
    #[cfg(test)]
    pub(crate) fn accumulate(
        &self,
        rows: &[u32],
        grad: &[f64],
        hess: &[f64],
        min_feats: usize,
    ) -> Vec<FeatHist> {
        let mut out = Vec::new();
        self.accumulate_into(rows, grad, hess, min_feats, &mut out);
        out
    }

    /// [`Self::accumulate`] into a caller-provided buffer, reusing its
    /// allocations. The tree builder recycles retired node histograms
    /// through a pool (see `build_hist`), so steady-state accumulation is
    /// allocation-free; the buffer is (re)shaped and zeroed here, making
    /// the result independent of whatever the buffer held before.
    pub(crate) fn accumulate_into(
        &self,
        rows: &[u32],
        grad: &[f64],
        hess: &[f64],
        min_feats: usize,
        out: &mut Vec<FeatHist>,
    ) {
        out.resize_with(self.n_features(), || FeatHist {
            g: Vec::new(),
            h: Vec::new(),
            c: Vec::new(),
        });
        let (bin_of, split_at) = (&self.bin_of, &self.split_at);
        vmin_par::par_chunks_mut(out, 1, min_feats, |f, chunk| {
            let fh = &mut chunk[0];
            let bins = &bin_of[f];
            let nb = split_at[f].len() + 1;
            fh.g.clear();
            fh.g.resize(nb, 0.0);
            fh.h.clear();
            fh.h.resize(nb, 0.0);
            fh.c.clear();
            fh.c.resize(nb, 0);
            for &i in rows {
                let i = i as usize;
                let b = bins[i] as usize;
                fh.g[b] += grad[i];
                fh.h[b] += hess[i];
                fh.c[b] += 1;
            }
        });
    }
}

/// The subtraction trick: consumes the parent's histograms and returns the
/// larger child's as `parent − smaller_sibling`, bin by bin.
pub(crate) fn subtract_sibling(mut parent: Vec<FeatHist>, small: &[FeatHist]) -> Vec<FeatHist> {
    for (pf, sf) in parent.iter_mut().zip(small) {
        for b in 0..pf.g.len() {
            pf.g[b] -= sf.g[b];
            pf.h[b] -= sf.h[b];
            pf.c[b] -= sf.c[b];
        }
    }
    parent
}

/// Best boundary for one feature from its node histogram, under the exact
/// GBT gain rule (same formula, `min_child_weight` gate, strict-`>` vs the
/// `0.0` floor, earliest boundary on ties). Returns
/// `(gain, feature, boundary, threshold)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn best_boundary_gbt(
    fh: &FeatHist,
    split_at: &[f64],
    g_sum: f64,
    h_sum: f64,
    count: u32,
    parent_score: f64,
    min_child_weight: f64,
    lambda: f64,
    gamma: f64,
    feature: usize,
) -> Option<(f64, usize, usize, f64)> {
    let mut best: Option<(f64, usize, usize, f64)> = None;
    let (mut gl, mut hl, mut cl) = (0.0f64, 0.0f64, 0u32);
    for k in 0..split_at.len() {
        let cb = fh.c[k];
        gl += fh.g[k];
        hl += fh.h[k];
        cl += cb;
        // Once the left side holds every row, no later boundary has a
        // right child either.
        if cl == count {
            break;
        }
        // An empty bin duplicates the previous boundary's partition.
        if cb == 0 {
            continue;
        }
        let gr = g_sum - gl;
        let hr = h_sum - hl;
        if hl < min_child_weight || hr < min_child_weight {
            continue;
        }
        let gain = 0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score) - gamma;
        if gain > best.map_or(0.0, |(g, ..)| g) {
            best = Some((gain, feature, k, split_at[k]));
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Oblivious side: leaf-major permutation state + fused level kernel
// ---------------------------------------------------------------------------

/// Level-wise row bookkeeping for the oblivious histogram kernel: one
/// permutation of all row indices, leaf-major (`leaf_start` delimits each
/// leaf's contiguous block, ascending row order inside every block), plus
/// per-leaf row counts and gradient totals. Both losses have unit
/// Hessians, so the Hessian histogram *is* the count histogram and leaf
/// denominators come from a precomputed `1/(count + l2)` table.
#[derive(Debug)]
pub(crate) struct ObliviousHistState {
    perm: Vec<u32>,
    perm_next: Vec<u32>,
    leaf_start: Vec<u32>,
    tot_c: Vec<u32>,
    tot_g: Vec<f64>,
}

impl ObliviousHistState {
    pub(crate) fn new(n: usize) -> Self {
        ObliviousHistState {
            perm: Vec::with_capacity(n),
            perm_next: vec![0; n],
            leaf_start: Vec::new(),
            tot_c: Vec::new(),
            tot_g: Vec::new(),
        }
    }

    /// Re-initializes for a new tree: a single root leaf holding every row
    /// in ascending order.
    pub(crate) fn reset(&mut self, grad: &[f64]) {
        let n = grad.len();
        self.perm.clear();
        self.perm.extend(0..n as u32);
        self.perm_next.resize(n, 0);
        self.leaf_start.clear();
        self.leaf_start.push(0);
        self.leaf_start.push(n as u32);
        self.tot_c.clear();
        self.tot_c.push(n as u32);
        self.tot_g.clear();
        self.tot_g.push(grad.iter().sum());
    }

    pub(crate) fn n_leaves(&self) -> usize {
        self.tot_c.len()
    }

    /// The rows of leaf block `leaf`, ascending.
    pub(crate) fn block(&self, leaf: usize) -> &[u32] {
        &self.perm[self.leaf_start[leaf] as usize..self.leaf_start[leaf + 1] as usize]
    }

    /// Scans every feature's bin boundaries for the level split maximizing
    /// `Σ_leaf gl²/(cl+l2) + gr²/(cr+l2)` and returns `(feature, border
    /// index)`, or `None` when no feature has a candidate border. Features
    /// are independent `par_map` items merged in ascending order with the
    /// seed's strict-`>` rule.
    pub(crate) fn best_level_split(
        &self,
        binned: &BinnedDataset,
        grad: &[f64],
        recip: &[f64],
    ) -> Option<(usize, usize)> {
        vmin_trace::counter_add("models.hist.level_searches", 1);
        // One leaf-major gradient gather serves every feature scan this
        // level; the kernels then read it sequentially.
        let grad_lm: Vec<f64> = self.perm.iter().map(|&i| grad[i as usize]).collect();
        let features: Vec<usize> = (0..binned.borders.len()).collect();
        let per_feature = vmin_par::par_map(&features, PAR_MIN_FEATURES, |_, &f| {
            scan_feature(
                &binned.bin_of[f],
                binned.borders[f].len(),
                self,
                &grad_lm,
                recip,
            )
        });
        let mut best: Option<(f64, usize, usize)> = None;
        for (f, cand) in per_feature.into_iter().enumerate() {
            if let Some((score, k)) = cand {
                if best.is_none_or(|(s, _, _)| score > s) {
                    best = Some((score, f, k));
                }
            }
        }
        best.map(|(_, f, k)| (f, k))
    }

    /// Applies the chosen level split: every leaf block is stably
    /// partitioned into `bin ≤ k` (left, new id `2·leaf`) then `bin > k`
    /// (right, `2·leaf + 1`), preserving ascending row order inside each
    /// new block. Left totals are summed in block order; right totals come
    /// from the parent by subtraction.
    pub(crate) fn apply_split(&mut self, bins: &[u8], k: usize, grad: &[f64]) {
        let nl = self.n_leaves();
        let mut tot_c_next = Vec::with_capacity(nl * 2);
        let mut tot_g_next = Vec::with_capacity(nl * 2);
        for leaf in 0..nl {
            let (mut cl, mut gl) = (0u32, 0.0f64);
            for &i in self.block(leaf) {
                if (bins[i as usize] as usize) <= k {
                    cl += 1;
                    gl += grad[i as usize];
                }
            }
            tot_c_next.push(cl);
            tot_g_next.push(gl);
            tot_c_next.push(self.tot_c[leaf] - cl);
            tot_g_next.push(self.tot_g[leaf] - gl);
        }
        let mut starts = Vec::with_capacity(nl * 2 + 1);
        let mut acc = 0u32;
        starts.push(0);
        for &c in &tot_c_next {
            acc += c;
            starts.push(acc);
        }
        for leaf in 0..nl {
            let mut wl = starts[2 * leaf] as usize;
            let mut wr = starts[2 * leaf + 1] as usize;
            let (s0, s1) = (
                self.leaf_start[leaf] as usize,
                self.leaf_start[leaf + 1] as usize,
            );
            for p in s0..s1 {
                let i = self.perm[p];
                if (bins[i as usize] as usize) <= k {
                    self.perm_next[wl] = i;
                    wl += 1;
                } else {
                    self.perm_next[wr] = i;
                    wr += 1;
                }
            }
        }
        std::mem::swap(&mut self.perm, &mut self.perm_next);
        self.leaf_start = starts;
        self.tot_c = tot_c_next;
        self.tot_g = tot_g_next;
    }
}

/// The fused per-feature level kernel: accumulates each leaf's count and
/// gradient histograms into shared 256-slot scratch (`u8` bins index
/// without bounds checks), then re-walks only the *occupied* bins to post
/// per-boundary score deltas into a difference array — clearing the
/// scratch as it goes — and finally prefix-sums the difference array to
/// find the arg-max boundary. The per-leaf constant `gt²·recip[ct]` cancels
/// in the arg-max, so deltas are posted against it.
///
/// `grad_lm` is the gradient pre-gathered into leaf-major (permutation)
/// order — one gather per level shared by every feature scan, so the inner
/// loop reads it sequentially instead of chasing `grad[perm[p]]`. Leaves
/// with ≤ 1 row are skipped outright: any boundary leaves their whole
/// gradient on one side, so their score delta is identically zero at every
/// `k`. For `n_borders < 64` (every in-tree caller: oblivious
/// `border_count` ≤ 32) an occupancy bitmask recorded during accumulation
/// lets the sweep jump straight from occupied bin to occupied bin via
/// `trailing_zeros`, in ascending order, never touching the — at deep
/// levels, mostly empty — slots in between; wider binnings fall back to a
/// span sweep that early-exits once the integer row count is exhausted.
///
/// The scratch lives in thread-local storage instead of the stack:
/// zero-initializing it per call would cost more than the scan itself at
/// paper scale (~10⁶ calls per boosted fit). The sweep restores the
/// histograms to all-zero as it consumes them, and the `ds` cleanup below
/// touches only the `n_borders` slots a scan can write, so every call
/// finds clean scratch regardless of what ran before it on this thread —
/// outputs never depend on scratch history, keeping the path bit-identical
/// at any thread count.
fn scan_feature(
    bins: &[u8],
    n_borders: usize,
    st: &ObliviousHistState,
    grad_lm: &[f64],
    recip: &[f64],
) -> Option<(f64, usize)> {
    if n_borders == 0 {
        return None;
    }
    SCAN_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scan_feature_with(bins, n_borders, st, grad_lm, recip, &mut scratch)
    })
}

/// Per-thread scratch for [`scan_feature`]: count and gradient histograms
/// plus the boundary difference array. Allocated (and zeroed) once per
/// thread; every scan leaves it all-zero again.
struct ScanScratch {
    hc: [u32; 256],
    hg: [f64; 256],
    ds: [f64; 256],
}

impl ScanScratch {
    fn new() -> Self {
        ScanScratch {
            hc: [0; 256],
            hg: [0.0; 256],
            ds: [0.0; 256],
        }
    }
}

thread_local! {
    static SCAN_SCRATCH: std::cell::RefCell<ScanScratch> =
        std::cell::RefCell::new(ScanScratch::new());
}

fn scan_feature_with(
    bins: &[u8],
    n_borders: usize,
    st: &ObliviousHistState,
    grad_lm: &[f64],
    recip: &[f64],
    scratch: &mut ScanScratch,
) -> Option<(f64, usize)> {
    let ScanScratch { hc, hg, ds } = scratch;
    for leaf in 0..st.n_leaves() {
        let ct = st.tot_c[leaf];
        if ct <= 1 {
            continue;
        }
        let (s0, s1) = (
            st.leaf_start[leaf] as usize,
            st.leaf_start[leaf + 1] as usize,
        );
        let block = &st.perm[s0..s1];
        let gblock = &grad_lm[s0..s1];
        let gt = st.tot_g[leaf];
        let mut c_prev = gt * gt * recip[ct as usize];
        let mut ccum = 0u32;
        let mut gl = 0.0f64;
        if n_borders < u64::BITS as usize {
            let mut mask = 0u64;
            for (&i, &g) in block.iter().zip(gblock) {
                let b = bins[i as usize] as usize;
                hc[b] += 1;
                hg[b] += g;
                mask |= 1u64 << b;
            }
            // Every occupied bin is visited (ascending) and cleared;
            // `b == n_borders` can only be the final mask bit.
            while mask != 0 {
                let b = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                ccum += hc[b];
                hc[b] = 0;
                gl += hg[b];
                hg[b] = 0.0;
                if b == n_borders {
                    break;
                }
                let gr = gt - gl;
                let c_new = gl * gl * recip[ccum as usize] + gr * gr * recip[(ct - ccum) as usize];
                ds[b] += c_new - c_prev;
                c_prev = c_new;
            }
        } else {
            let mut min_b = usize::MAX;
            for (&i, &g) in block.iter().zip(gblock) {
                let b = bins[i as usize] as usize;
                hc[b] += 1;
                hg[b] += g;
                if b < min_b {
                    min_b = b;
                }
            }
            // Bins run 0..=n_borders; every occupied bin is visited and
            // cleared before any break below.
            for b in min_b..=n_borders {
                let c = hc[b];
                if c == 0 {
                    continue;
                }
                hc[b] = 0;
                let g = hg[b];
                hg[b] = 0.0;
                ccum += c;
                gl += g;
                if b == n_borders {
                    break;
                }
                let gr = gt - gl;
                let c_new = gl * gl * recip[ccum as usize] + gr * gr * recip[(ct - ccum) as usize];
                ds[b] += c_new - c_prev;
                c_prev = c_new;
                if ccum == ct {
                    break;
                }
            }
        }
    }
    let mut run = 0.0f64;
    let mut best: Option<(f64, usize)> = None;
    for (k, d) in ds.iter_mut().enumerate().take(n_borders) {
        run += *d;
        *d = 0.0; // leave the scratch clean for the next scan
        if best.is_none_or(|(s, _)| run > s) {
            best = Some((run, k));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_rng::{ChaCha8Rng, Rng, SeedableRng};

    fn toy(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, d);
        let mut g = Vec::with_capacity(n);
        for i in 0..n {
            for j in 0..d {
                x[(i, j)] = rng.gen_range(-2.0..2.0);
            }
            g.push(rng.gen_range(-1.0..1.0));
        }
        (x, g)
    }

    #[test]
    fn flag_toggles_and_restores() {
        let initial = hist_enabled();
        with_histograms(!initial, || {
            assert_eq!(hist_enabled(), !initial);
            // `with_histograms` is documented non-reentrant, so the inner
            // toggle exercises the raw swap instead of nesting the guard.
            let prev = set_hist_enabled(initial);
            assert_eq!(hist_enabled(), initial);
            set_hist_enabled(prev);
            assert_eq!(hist_enabled(), !initial);
        });
        assert_eq!(hist_enabled(), initial);
    }

    #[test]
    fn bit_reverse_inverts_itself() {
        assert_eq!(bit_reverse(0, 0), 0);
        assert_eq!(bit_reverse(1, 1), 1);
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        for bits in 0..8 {
            for i in 0..(1usize << bits) {
                assert_eq!(bit_reverse(bit_reverse(i, bits), bits), i);
            }
        }
    }

    #[test]
    fn split_at_thresholds_reproduce_bin_partition_on_training_rows() {
        let (x, _) = toy(64, 3, 5);
        let binned = BinnedDataset::compute(&x, 7).unwrap();
        let hb = HistBinned::build(&x, &binned);
        for f in 0..x.cols() {
            for k in 0..binned.borders[f].len() {
                let t = hb.split_at[f][k];
                for i in 0..x.rows() {
                    let by_bin = (binned.bin_of[f][i] as usize) <= k;
                    let by_value = x[(i, f)] < t;
                    assert_eq!(
                        by_bin, by_value,
                        "feature {f} boundary {k} row {i}: bin/value routing disagree"
                    );
                }
            }
        }
    }

    #[test]
    fn sibling_subtraction_matches_direct_accumulation_counts() {
        let (x, g) = toy(80, 4, 9);
        let h = vec![1.0; 80];
        let binned = BinnedDataset::compute(&x, 15).unwrap();
        let hb = HistBinned::build(&x, &binned);
        let all: Vec<u32> = (0..80).collect();
        let (left, right): (Vec<u32>, Vec<u32>) = all.iter().partition(|&&i| i % 3 == 0);
        let parent = hb.accumulate(&all, &g, &h, usize::MAX);
        let small = hb.accumulate(&left, &g, &h, usize::MAX);
        let derived = subtract_sibling(parent, &small);
        let direct = hb.accumulate(&right, &g, &h, usize::MAX);
        for f in 0..hb.n_features() {
            assert_eq!(derived[f].c, direct[f].c, "feature {f} counts");
            for b in 0..derived[f].g.len() {
                assert!(
                    (derived[f].g[b] - direct[f].g[b]).abs() < 1e-12,
                    "feature {f} bin {b} gradient"
                );
            }
        }
    }

    #[test]
    fn state_split_partitions_blocks_stably() {
        let (x, g) = toy(50, 2, 3);
        let binned = BinnedDataset::compute(&x, 7).unwrap();
        let mut st = ObliviousHistState::new(50);
        st.reset(&g);
        assert_eq!(st.n_leaves(), 1);
        assert_eq!(st.block(0).len(), 50);
        let k = 3;
        st.apply_split(&binned.bin_of[0], k, &g);
        assert_eq!(st.n_leaves(), 2);
        let left: Vec<u32> = (0..50u32)
            .filter(|&i| (binned.bin_of[0][i as usize] as usize) <= k)
            .collect();
        let right: Vec<u32> = (0..50u32)
            .filter(|&i| (binned.bin_of[0][i as usize] as usize) > k)
            .collect();
        assert_eq!(st.block(0), &left[..], "left block: stable ascending");
        assert_eq!(st.block(1), &right[..], "right block: stable ascending");
        assert_eq!(st.tot_c[0] as usize, left.len());
        assert_eq!(st.tot_c[1] as usize, right.len());
        let gl: f64 = left.iter().map(|&i| g[i as usize]).sum();
        assert!((st.tot_g[0] - gl).abs() < 1e-12);
    }

    #[test]
    fn level_scan_matches_brute_force_argmax() {
        // Random gradients make exact score ties measure-zero, so the
        // kernel's difference-array arg-max must agree with a direct
        // per-(feature, border) evaluation of the level objective.
        let (x, g) = toy(120, 4, 17);
        let l2 = 3.0;
        let binned = BinnedDataset::compute(&x, 13).unwrap();
        let recip: Vec<f64> = (0..=120).map(|c| 1.0 / (c as f64 + l2)).collect();
        let mut st = ObliviousHistState::new(120);
        st.reset(&g);
        // One level deep first, so the brute force also covers multi-leaf
        // scoring.
        let (f0, k0) = st.best_level_split(&binned, &g, &recip).unwrap();
        st.apply_split(&binned.bin_of[f0], k0, &g);

        let brute = |st: &ObliviousHistState| -> Option<(f64, usize, usize)> {
            let mut best: Option<(f64, usize, usize)> = None;
            for f in 0..x.cols() {
                for k in 0..binned.borders[f].len() {
                    let mut score = 0.0;
                    for leaf in 0..st.n_leaves() {
                        let rows = st.block(leaf);
                        let (mut cl, mut gl) = (0usize, 0.0);
                        for &i in rows {
                            if (binned.bin_of[f][i as usize] as usize) <= k {
                                cl += 1;
                                gl += g[i as usize];
                            }
                        }
                        let gt: f64 = rows.iter().map(|&i| g[i as usize]).sum();
                        let gr = gt - gl;
                        score +=
                            gl * gl / (cl as f64 + l2) + gr * gr / ((rows.len() - cl) as f64 + l2);
                    }
                    if best.is_none_or(|(s, _, _)| score > s + 1e-9) {
                        best = Some((score, f, k));
                    }
                }
            }
            best
        };
        let (_, bf, bk) = brute(&st).unwrap();
        let (kf, kk) = st.best_level_split(&binned, &g, &recip).unwrap();
        assert_eq!(
            (kf, kk),
            (bf, bk),
            "kernel arg-max diverged from brute force"
        );
    }

    #[test]
    fn gbt_boundary_scan_respects_gain_floor_and_child_weight() {
        let fh = FeatHist {
            g: vec![-4.0, 0.0, 4.0],
            h: vec![2.0, 0.0, 2.0],
            c: vec![2, 0, 2],
        };
        let split_at = vec![1.0, 2.0];
        // Strong separation: boundary 0 splits the two groups (boundary 1
        // is skipped — its bin is empty).
        let best = best_boundary_gbt(&fh, &split_at, 0.0, 4.0, 4, 0.0, 1.0, 1.0, 0.0, 2);
        let (gain, f, k, t) = best.unwrap();
        assert_eq!((f, k), (2, 0));
        assert!((t - 1.0).abs() < 1e-12);
        assert!(gain > 0.0);
        // A prohibitive min_child_weight kills every candidate.
        assert!(best_boundary_gbt(&fh, &split_at, 0.0, 4.0, 4, 0.0, 10.0, 1.0, 0.0, 2).is_none());
        // γ above the achievable gain hits the 0.0 floor.
        assert!(best_boundary_gbt(&fh, &split_at, 0.0, 4.0, 4, 0.0, 1.0, 1.0, 100.0, 2).is_none());
    }
}
