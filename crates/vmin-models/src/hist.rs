//! Histogram-binned split finding: the only split finder of both boosters.
//!
//! Exact greedy scans re-walk sorted columns (GBT) or re-score every
//! `(leaf, border)` pair (oblivious) at every node or level. This module
//! replaces both hot loops with the classic histogram recipe built on the
//! `u8` bin tables [`BinnedDataset`] already memoizes. The exact scans
//! survive only as `#[cfg(test)]` oracles (`GradientTree::fit`,
//! `GradientBoost::fit_exact`, `ObliviousBoost::fit_exact`) that the
//! binned-vs-exact comparisons at the bottom of this file check against.
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
//!   sibling's; only the smaller child is ever accumulated from rows
//!   ([`subtract_sibling`]). GBT node histograms are sparse: each feature
//!   histogram carries a mask of the bins that may be non-zero, and
//!   accumulation, subtraction, the boundary scan and retiring a buffer to
//!   the pool touch only marked bins, so a node's work scales with its
//!   rows, not with features × bins — bit for bit against the dense
//!   kernels (DESIGN.md §12, "Sparse node support"). The oblivious level
//!   kernel gets the subtraction for free: per-leaf gradient totals are
//!   carried as `left = Σ, right = parent − left`.
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
//! - **Row indices.** Rows are `u32` indices, so a fit over more than
//!   `u32::MAX` rows is a typed error ([`check_row_count`]), in both
//!   boosters.
//! - **Round memo.** Pinball rounds whose gradient class repeats an
//!   earlier round's reuse what that round built ([`RoundMemo`]): the GBT
//!   booster pushes a clone of the stored tree, the oblivious booster
//!   replays the stored level splits. Bit for bit, see DESIGN.md §12.
//!
//! Instrumentation: `models.hist.level_searches` counts oblivious level
//! scans, `models.hist.child_accumulated` / `models.hist.child_subtracted`
//! count the two halves of the subtraction trick, and
//! `models.hist.bins_scanned` the bins the GBT boundary scans visit.
//! `models.gbt.memo_hits` / `models.oblivious.memo_hits` count rounds
//! served from the memo, so `models.tree.fits + gbt.memo_hits =
//! gbt.rounds` on pinball fits. Memo hits and scanned bins are accumulated
//! locally and flushed once per fit. All are deterministic at any thread
//! count.

use std::sync::Arc;

use crate::fitplan::{BinnedDataset, MAX_BORDER_COUNT};
use crate::traits::{ModelError, Result};
use vmin_linalg::Matrix;

/// Minimum features before the histogram passes spawn per-feature workers.
/// Deliberately above the paper-scale feature count (6): at n ≈ 10³ rows a
/// feature histogram costs a few microseconds, far below spawn cost (a thread
/// sweep measured 2 threads slower than 1 on small inputs; README,
/// "Performance trajectory").
pub(crate) const PAR_MIN_FEATURES: usize = 8;

/// Rejects fits over more rows than the histogram kernels can index: rows
/// are `u32` indices and node or leaf counts are `u32`, so `n` may be at
/// most `u32::MAX`. Both boosters call this before fitting.
pub(crate) fn check_row_count(n: usize) -> Result<()> {
    if u32::try_from(n).is_err() {
        return Err(ModelError::InvalidInput(format!(
            "{n} training rows exceed the histogram kernels' u32 row index"
        )));
    }
    Ok(())
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
// GBT side: sparse per-node feature histograms + boundary scan
// ---------------------------------------------------------------------------

/// One feature's gradient and count histogram over a tree node's rows.
/// Both losses have unit Hessians, so the count histogram doubles as the
/// Hessian one (`GradientBoost::fit_inner` guards that premise).
///
/// `occ` marks the bins that may be non-zero: bin `b` is bit `b % 64` of
/// word `b / 64` (`u8` bin ids keep every bin below 256). Every unmarked
/// bin holds exactly `+0.0` / `0`, so the kernels below touch only marked
/// bins and a node's histogram work scales with its rows, not with
/// features × bins (DESIGN.md §12, "Sparse node support").
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FeatHist {
    g: Vec<f64>,
    c: Vec<u32>,
    occ: [u64; 4],
}

impl FeatHist {
    /// The marked bins, ascending.
    fn marked(&self) -> MarkedBins {
        let [bits, ..] = self.occ;
        MarkedBins {
            occ: self.occ,
            word: 0,
            bits,
        }
    }

    fn mark(&mut self, b: usize) {
        if let Some(w) = self.occ.get_mut(b >> 6) {
            *w |= 1 << (b & 63);
        }
    }

    /// All-zero (`+0.0` bits, zero counts) with an empty mask — the state
    /// every pooled buffer is in.
    fn is_clean(&self) -> bool {
        self.occ == [0; 4]
            && self.g.iter().all(|v| v.to_bits() == 0)
            && self.c.iter().all(|&c| c == 0)
    }

    /// Restores the clean state by zeroing only the marked bins: the mask
    /// covers every bin that may be non-zero.
    fn clear(&mut self) {
        for b in self.marked() {
            self.g[b] = 0.0;
            self.c[b] = 0;
        }
        self.occ = [0; 4];
    }
}

/// The set bits of a [`FeatHist`] mask in ascending order, found word by
/// word via `trailing_zeros`.
#[derive(Debug, Clone)]
struct MarkedBins {
    occ: [u64; 4],
    word: usize,
    bits: u64,
}

impl Iterator for MarkedBins {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.occ.get(self.word)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * 64 + bit)
    }
}

/// Node histograms one boosted fit recycles across nodes and rounds, plus
/// the fit's boundary-scan work count.
///
/// Every pooled buffer is clean — all-zero with an empty mask:
/// [`Self::retire`] restores that on the way in, so
/// [`HistBinned::accumulate_into`] never zero-fills a reused buffer.
#[derive(Debug, Default)]
pub(crate) struct HistScratch {
    pool: Vec<Vec<FeatHist>>,
    /// Bins the boundary scans visited (`models.hist.bins_scanned`,
    /// flushed once per boosted fit).
    pub(crate) bins_scanned: u64,
}

impl HistScratch {
    /// A clean buffer: pooled if one is free, else empty (shaped by its
    /// first accumulation).
    pub(crate) fn take(&mut self) -> Vec<FeatHist> {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a node's histograms to the pool, clean.
    pub(crate) fn retire(&mut self, mut hist: Vec<FeatHist>) {
        for fh in &mut hist {
            fh.clear();
        }
        self.pool.push(hist);
    }
}

/// Bin tables plus per-boundary split thresholds for the GBT histogram
/// path, built once per boosted fit and shared by every round's tree.
#[derive(Debug)]
pub(crate) struct HistBinned {
    /// The fit's bin table (`bin_of[feature][row]`).
    pub(crate) binned: Arc<BinnedDataset>,
    /// `split_at[feature][k]`: the smallest training value with
    /// `bin > k` (`+∞` if the upper bins are empty), so `v < split_at[k]`
    /// ⇔ `bin(v) ≤ k` on every training row.
    pub(crate) split_at: Vec<Vec<f64>>,
    /// `0..n_features`: the item list of every per-feature parallel pass.
    pub(crate) features: Vec<usize>,
}

impl HistBinned {
    /// Derives the per-boundary thresholds from the raw matrix and its bin
    /// table (suffix-min of per-bin minimum values).
    pub(crate) fn build(x: &Matrix, binned: Arc<BinnedDataset>) -> HistBinned {
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
            binned,
            split_at,
            features,
        }
    }

    pub(crate) fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Accumulates every feature's gradient and count histogram over
    /// `rows` into `out`, marking each bin a row lands in. Each feature is
    /// an independent parallel item whose rows are summed serially in the
    /// given (ascending) order — bit-identical at any thread count.
    ///
    /// `out` must be clean ([`HistScratch::take`] hands out only clean
    /// buffers): a buffer is zero-filled only when first shaped.
    pub(crate) fn accumulate_into(
        &self,
        rows: &[u32],
        grad: &[f64],
        min_feats: usize,
        out: &mut Vec<FeatHist>,
    ) {
        out.resize_with(self.n_features(), FeatHist::default);
        let (bin_of, split_at) = (&self.binned.bin_of, &self.split_at);
        vmin_par::par_chunks_mut(out, 1, min_feats, |f, chunk| {
            let fh = &mut chunk[0];
            let bins = &bin_of[f];
            let nb = split_at[f].len() + 1;
            if fh.g.len() != nb {
                *fh = FeatHist {
                    g: vec![0.0; nb],
                    c: vec![0; nb],
                    occ: [0; 4],
                };
            }
            debug_assert!(fh.is_clean(), "feature {f}: reused node histogram is dirty");
            for &i in rows {
                let i = i as usize;
                let b = bins[i] as usize;
                fh.g[b] += grad[i];
                fh.c[b] += 1;
                fh.mark(b);
            }
        });
    }
}

/// The subtraction trick: consumes the parent's histograms and returns the
/// larger child's as `parent − smaller_sibling`. Only the smaller child's
/// marked bins are subtracted — elsewhere it holds `+0.0` / `0`, and
/// `p − (+0.0)` is `p` for every `f64`. The result keeps the parent's
/// mask, a superset of the larger child's support.
pub(crate) fn subtract_sibling(mut parent: Vec<FeatHist>, small: &[FeatHist]) -> Vec<FeatHist> {
    for (pf, sf) in parent.iter_mut().zip(small) {
        for b in sf.marked() {
            pf.g[b] -= sf.g[b];
            pf.c[b] -= sf.c[b];
        }
    }
    parent
}

/// Best boundary for one feature from its node histogram, under the exact
/// GBT gain rule (same formula, `min_child_weight` gate, strict-`>` vs the
/// `0.0` floor, earliest boundary on ties). Returns the candidate
/// `(gain, feature, boundary, threshold)` and the number of bins visited.
///
/// Walks only the marked bins, ascending. An unmarked bin holds `+0.0` /
/// `0`, where a full sweep would add `+0.0` to `gl` (never `−0.0`, so an
/// identity) and take the empty-bin `continue`; every visited bin
/// therefore sees the same `gl` and `cl`, and yields the same gain bits.
/// Marked bins with a zero count stay in the walk: a derived bin can hold
/// no rows but a gradient residual, which the full sweep adds to `gl`.
/// Hessian sums are row counts (unit Hessians), so `hl` is `cl` exactly.
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
) -> (Option<(f64, usize, usize, f64)>, u64) {
    let mut best: Option<(f64, usize, usize, f64)> = None;
    let (mut gl, mut cl) = (0.0f64, 0u32);
    let mut visited = 0u64;
    // The mask walk is written out rather than run through `fh.marked()`:
    // this is the fit's hottest loop, and the iterator form compiles
    // slower.
    'walk: for (w, &word) in fh.occ.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let k = w * 64 + rest.trailing_zeros() as usize;
            rest &= rest - 1;
            // The last bin has no boundary above it.
            if k >= split_at.len() {
                break 'walk;
            }
            visited += 1;
            let cb = fh.c[k];
            gl += fh.g[k];
            cl += cb;
            // Once the left side holds every row, no later boundary has a
            // right child either.
            if cl == count {
                break 'walk;
            }
            // An empty bin duplicates the previous boundary's partition.
            if cb == 0 {
                continue;
            }
            let gr = g_sum - gl;
            let hl = f64::from(cl);
            let hr = h_sum - hl;
            if hl < min_child_weight || hr < min_child_weight {
                continue;
            }
            let gain =
                0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score) - gamma;
            if gain > best.map_or(0.0, |(g, ..)| g) {
                best = Some((gain, feature, k, split_at[k]));
            }
        }
    }
    (best, visited)
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
    /// (`features` is `0..n_features`, built once per fit) are independent
    /// `par_map` items merged in ascending order with the seed's strict-`>`
    /// rule.
    pub(crate) fn best_level_split(
        &self,
        binned: &BinnedDataset,
        features: &[usize],
        grad: &[f64],
        recip: &[f64],
    ) -> Option<(usize, usize)> {
        vmin_trace::counter_add("models.hist.level_searches", 1);
        // One leaf-major gradient gather serves every feature scan this
        // level; the kernels then read it sequentially.
        let grad_lm: Vec<f64> = self.perm.iter().map(|&i| grad[i as usize]).collect();
        let per_feature = vmin_par::par_map(features, PAR_MIN_FEATURES, |_, &f| {
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
    use crate::{
        GradientBoost, GradientBoostParams, Loss, ObliviousBoost, ObliviousBoostParams, Regressor,
    };
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
    fn row_count_check_rejects_counts_a_u32_cannot_index() {
        for ok in [0, 1, u32::MAX as usize] {
            assert_eq!(check_row_count(ok), Ok(()), "{ok} rows");
        }
        for too_many in [u32::MAX as usize + 1, usize::MAX] {
            assert!(
                matches!(check_row_count(too_many), Err(ModelError::InvalidInput(_))),
                "{too_many} rows"
            );
        }
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
        let binned = Arc::new(BinnedDataset::compute(&x, 7).unwrap());
        let hb = HistBinned::build(&x, Arc::clone(&binned));
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
        let binned = BinnedDataset::compute(&x, 15).unwrap();
        let hb = HistBinned::build(&x, Arc::new(binned));
        let all: Vec<u32> = (0..80).collect();
        let (left, right): (Vec<u32>, Vec<u32>) = all.iter().partition(|&&i| i % 3 == 0);
        let accumulate = |rows: &[u32]| {
            let mut out = Vec::new();
            hb.accumulate_into(rows, &g, usize::MAX, &mut out);
            out
        };
        let derived = subtract_sibling(accumulate(&all), &accumulate(&left));
        let direct = accumulate(&right);
        for f in 0..hb.n_features() {
            assert_eq!(derived[f].c, direct[f].c, "feature {f} counts");
            for b in 0..derived[f].g.len() {
                assert!(
                    (derived[f].g[b] - direct[f].g[b]).abs() < 1e-12,
                    "feature {f} bin {b} gradient"
                );
            }
            // The derived mask (the parent's) covers the direct support.
            for b in direct[f].marked() {
                assert!(derived[f].marked().any(|m| m == b), "feature {f} bin {b}");
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
        let features: Vec<usize> = (0..x.cols()).collect();
        let (f0, k0) = st.best_level_split(&binned, &features, &g, &recip).unwrap();
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
        let (kf, kk) = st.best_level_split(&binned, &features, &g, &recip).unwrap();
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
            c: vec![2, 0, 2],
            occ: [0b101, 0, 0, 0],
        };
        let split_at = vec![1.0, 2.0];
        // Strong separation: boundary 0 splits the two groups (boundary 1
        // is skipped — its bin is empty).
        let (best, visited) = best_boundary_gbt(&fh, &split_at, 0.0, 4.0, 4, 0.0, 1.0, 1.0, 0.0, 2);
        let (gain, f, k, t) = best.unwrap();
        assert_eq!((f, k), (2, 0));
        assert!((t - 1.0).abs() < 1e-12);
        assert!(gain > 0.0);
        // Bin 1 is unmarked and bin 2 has no boundary above it.
        assert_eq!(visited, 1);
        // A prohibitive min_child_weight kills every candidate.
        assert!(
            best_boundary_gbt(&fh, &split_at, 0.0, 4.0, 4, 0.0, 10.0, 1.0, 0.0, 2)
                .0
                .is_none()
        );
        // γ above the achievable gain hits the 0.0 floor.
        assert!(
            best_boundary_gbt(&fh, &split_at, 0.0, 4.0, 4, 0.0, 1.0, 1.0, 100.0, 2)
                .0
                .is_none()
        );
    }

    // -- Dense oracles --------------------------------------------------
    //
    // The GBT histogram kernels as they were before node histograms
    // tracked their occupied bins, verbatim apart from the scan's visit
    // count: every bin zero-filled, subtracted and swept, with an explicit
    // Hessian histogram. The sparse kernels must reproduce them bit for
    // bit.

    #[derive(Debug, Clone)]
    struct DenseHist {
        g: Vec<f64>,
        h: Vec<f64>,
        c: Vec<u32>,
    }

    fn dense_accumulate(
        hb: &HistBinned,
        rows: &[u32],
        grad: &[f64],
        hess: &[f64],
    ) -> Vec<DenseHist> {
        (0..hb.n_features())
            .map(|f| {
                let bins = &hb.binned.bin_of[f];
                let nb = hb.split_at[f].len() + 1;
                let mut fh = DenseHist {
                    g: vec![0.0; nb],
                    h: vec![0.0; nb],
                    c: vec![0; nb],
                };
                for &i in rows {
                    let i = i as usize;
                    let b = bins[i] as usize;
                    fh.g[b] += grad[i];
                    fh.h[b] += hess[i];
                    fh.c[b] += 1;
                }
                fh
            })
            .collect()
    }

    fn dense_subtract(mut parent: Vec<DenseHist>, small: &[DenseHist]) -> Vec<DenseHist> {
        for (pf, sf) in parent.iter_mut().zip(small) {
            for b in 0..pf.g.len() {
                pf.g[b] -= sf.g[b];
                pf.h[b] -= sf.h[b];
                pf.c[b] -= sf.c[b];
            }
        }
        parent
    }

    /// The dense boundary sweep; also returns the bins its loop visited.
    #[allow(clippy::too_many_arguments)]
    fn dense_boundary(
        fh: &DenseHist,
        split_at: &[f64],
        g_sum: f64,
        h_sum: f64,
        count: u32,
        parent_score: f64,
        min_child_weight: f64,
        lambda: f64,
        gamma: f64,
        feature: usize,
    ) -> (Option<(f64, usize, usize, f64)>, u64) {
        let mut best: Option<(f64, usize, usize, f64)> = None;
        let (mut gl, mut hl, mut cl) = (0.0f64, 0.0f64, 0u32);
        let mut visited = 0u64;
        for k in 0..split_at.len() {
            visited += 1;
            let cb = fh.c[k];
            gl += fh.g[k];
            hl += fh.h[k];
            cl += cb;
            if cl == count {
                break;
            }
            if cb == 0 {
                continue;
            }
            let gr = g_sum - gl;
            let hr = h_sum - hl;
            if hl < min_child_weight || hr < min_child_weight {
                continue;
            }
            let gain =
                0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score) - gamma;
            if gain > best.map_or(0.0, |(g, ..)| g) {
                best = Some((gain, feature, k, split_at[k]));
            }
        }
        (best, visited)
    }

    /// `(gain bits, feature, boundary, threshold bits)` of a scan result.
    fn scan_bits(best: Option<(f64, usize, usize, f64)>) -> Option<(u64, usize, usize, u64)> {
        best.map(|(gain, f, k, t)| (gain.to_bits(), f, k, t.to_bits()))
    }

    #[test]
    fn scan_visits_marked_bins_that_hold_no_rows() {
        // Bin 1 holds no rows but a gradient residual, as a bin derived by
        // subtraction can. The best boundary (2) lies above it, so its gain
        // bits depend on the residual reaching `gl`.
        let g = vec![1.0, 1e-3, 1.0, -2.001];
        let c = vec![1, 0, 1, 2];
        let sparse = FeatHist {
            g: g.clone(),
            c: c.clone(),
            occ: [0b1111, 0, 0, 0],
        };
        let dense = DenseHist {
            g,
            h: c.iter().map(|&c| f64::from(c)).collect(),
            c,
        };
        let split_at = [1.0, 2.0, 3.0];
        let g_sum = 1.0 + 1e-3 + 1.0 - 2.001;
        let args = (g_sum, 4.0, 4u32, g_sum * g_sum / 5.0, 0.0, 1.0, 0.0, 0usize);
        let (sb, sv) = best_boundary_gbt(
            &sparse, &split_at, args.0, args.1, args.2, args.3, args.4, args.5, args.6, args.7,
        );
        let (db, dv) = dense_boundary(
            &dense, &split_at, args.0, args.1, args.2, args.3, args.4, args.5, args.6, args.7,
        );
        assert_eq!(scan_bits(sb), scan_bits(db));
        assert_eq!(
            sb.map(|(_, _, k, _)| k),
            Some(2),
            "the boundary above the residual bin"
        );
        assert_eq!((sv, dv), (3, 3), "every boundary bin is visited");
    }

    /// One random tree-growth case for the oracle property test.
    struct GrowCase<'a> {
        hb: &'a HistBinned,
        grad: &'a [f64],
        hess: &'a [f64],
        min_child_weight: f64,
        lambda: f64,
        gamma: f64,
        min_feats: usize,
    }

    /// State shared by every case of the oracle property test, and what
    /// the test saw (to prove it exercised the paths it is meant to). One
    /// scratch serves every case, so buffers of every shape cycle through
    /// the pool and a dirty retire would also corrupt later accumulations.
    struct GrowState {
        rng: ChaCha8Rng,
        scratch: HistScratch,
        nodes: u64,
        residual_bins: u64,
        sparse_visits: u64,
        dense_visits: u64,
        single_row_children: u64,
    }

    /// Compares one node's sparse and dense histograms and scans bit for
    /// bit, then splits it at random (stable partitions, smaller child
    /// accumulated, larger derived) down to depth 3; retires every sparse
    /// buffer into the scratch on the way back up.
    fn grow(
        case: &GrowCase<'_>,
        st: &mut GrowState,
        rows: &[u32],
        sparse: Vec<FeatHist>,
        dense: Vec<DenseHist>,
        depth: usize,
    ) {
        st.nodes += 1;
        let hb = case.hb;
        let count = rows.len() as u32;
        let g_sum: f64 = rows.iter().map(|&i| case.grad[i as usize]).sum();
        let h_sum: f64 = rows.iter().map(|&i| case.hess[i as usize]).sum();
        assert_eq!(h_sum, f64::from(count));
        let parent_score = g_sum * g_sum / (h_sum + case.lambda);
        for f in 0..hb.n_features() {
            let (sf, df) = (&sparse[f], &dense[f]);
            assert_eq!(sf.c, df.c, "feature {f} counts");
            for b in 0..sf.g.len() {
                assert_eq!(sf.g[b].to_bits(), df.g[b].to_bits(), "feature {f} bin {b}");
                let marked = sf.occ[b >> 6] >> (b & 63) & 1 == 1;
                assert!(
                    marked || (sf.c[b] == 0 && sf.g[b].to_bits() == 0),
                    "feature {f} bin {b}: unmarked but not +0.0 / 0"
                );
                if marked && sf.c[b] == 0 && sf.g[b] != 0.0 && b < hb.split_at[f].len() {
                    st.residual_bins += 1;
                }
            }
            let split_at = &hb.split_at[f];
            let (sb, sv) = best_boundary_gbt(
                sf,
                split_at,
                g_sum,
                h_sum,
                count,
                parent_score,
                case.min_child_weight,
                case.lambda,
                case.gamma,
                f,
            );
            let (db, dv) = dense_boundary(
                df,
                split_at,
                g_sum,
                h_sum,
                count,
                parent_score,
                case.min_child_weight,
                case.lambda,
                case.gamma,
                f,
            );
            assert_eq!(scan_bits(sb), scan_bits(db), "feature {f} scan");
            assert!(sv <= dv, "feature {f}: sparse visited {sv} > dense {dv}");
            st.sparse_visits += sv;
            st.dense_visits += dv;
        }
        if depth == 3 || rows.len() < 2 {
            st.scratch.retire(sparse);
            return;
        }
        let rng = &mut st.rng;
        // A stable partition: by a feature's bin boundary (as real splits
        // are), by a random subset, or one row against the rest.
        let (mut left, mut right): (Vec<u32>, Vec<u32>) = match rng.gen_range(0..3u32) {
            0 => {
                let f = rng.gen_range(0..hb.n_features());
                let k = rng.gen_range(0..hb.split_at[f].len() + 1);
                rows.iter()
                    .partition(|&&i| (hb.binned.bin_of[f][i as usize] as usize) <= k)
            }
            1 => {
                let p = rng.gen_range(0.05..0.95);
                rows.iter().partition(|_| rng.gen_bool(p))
            }
            _ => {
                let one = rows[rng.gen_range(0..rows.len())];
                rows.iter().partition(|&&i| i == one)
            }
        };
        if left.is_empty() || right.is_empty() {
            let one = rows[rng.gen_range(0..rows.len())];
            (left, right) = rows.iter().partition(|&&i| i != one);
        }
        let left_smaller = left.len() <= right.len();
        let (small_rows, _) = if left_smaller {
            (&left, &right)
        } else {
            (&right, &left)
        };
        if small_rows.len() == 1 {
            st.single_row_children += 1;
        }
        let mut small = st.scratch.take();
        hb.accumulate_into(small_rows, case.grad, case.min_feats, &mut small);
        let large = subtract_sibling(sparse, &small);
        let dense_small = dense_accumulate(hb, small_rows, case.grad, case.hess);
        let dense_large = dense_subtract(dense, &dense_small);
        let (ls, ld, rs, rd) = if left_smaller {
            (small, dense_small, large, dense_large)
        } else {
            (large, dense_large, small, dense_small)
        };
        grow(case, st, &left, ls, ld, depth + 1);
        grow(case, st, &right, rs, rd, depth + 1);
    }

    #[test]
    fn sparse_kernels_match_dense_oracles_bit_for_bit() {
        let cases = if cfg!(feature = "heavy-tests") {
            1500
        } else {
            300
        };
        let mut st = GrowState {
            rng: ChaCha8Rng::seed_from_u64(0x00c0_ffee_0018),
            scratch: HistScratch::default(),
            nodes: 0,
            residual_bins: 0,
            sparse_visits: 0,
            dense_visits: 0,
            single_row_children: 0,
        };
        let mut border_counts = Vec::new();
        for case_no in 0..cases {
            let rng = &mut st.rng;
            let n = match rng.gen_range(0..4u32) {
                0 => rng.gen_range(1..8usize),
                1 => rng.gen_range(8..64usize),
                _ => rng.gen_range(64..400usize),
            };
            let d = rng.gen_range(1..5usize);
            let mut x = Matrix::zeros(n, d);
            for j in 0..d {
                // Continuous, tied (few distinct values) or constant, with
                // NaN sprinkled into some columns.
                let kind = rng.gen_range(0..3u32);
                let nan_p = if rng.gen_bool(0.3) { 0.2 } else { 0.0 };
                for i in 0..n {
                    x[(i, j)] = if rng.gen_bool(nan_p) {
                        f64::NAN
                    } else {
                        match kind {
                            0 => rng.gen_range(-3.0..3.0),
                            1 => f64::from(rng.gen_range(0..6u32)),
                            _ => 1.5,
                        }
                    }
                }
            }
            let border_count = match case_no % 3 {
                0 => MAX_BORDER_COUNT,
                1 => rng.gen_range(1..8usize),
                _ => rng.gen_range(1..=MAX_BORDER_COUNT),
            };
            border_counts.push(border_count);
            let binned = BinnedDataset::compute(&x, border_count).unwrap();
            let hb = HistBinned::build(&x, Arc::new(binned));
            // Pinball-like gradients (three values, many exact ties) or
            // continuous ones spanning six decades, which leave rounding
            // residuals behind every subtraction.
            let grad: Vec<f64> = if rng.gen_bool(0.3) {
                let q = rng.gen_range(0.01..0.99);
                (0..n)
                    .map(|_| [-q, 1.0 - q, 0.0][rng.gen_range(0..3usize)])
                    .collect()
            } else {
                (0..n)
                    .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powf(rng.gen_range(-3.0..3.0)))
                    .collect()
            };
            let hess = vec![1.0; n];
            let case = GrowCase {
                hb: &hb,
                grad: &grad,
                hess: &hess,
                min_child_weight: [0.0, 1.0, 2.5][rng.gen_range(0..3usize)],
                lambda: [0.0, 1.0][rng.gen_range(0..2usize)],
                gamma: [0.0, 1e-3][rng.gen_range(0..2usize)],
                min_feats: [1, usize::MAX][rng.gen_range(0..2usize)],
            };
            let rows: Vec<u32> = (0..n as u32).collect();
            let mut root = st.scratch.take();
            hb.accumulate_into(&rows, &grad, case.min_feats, &mut root);
            let dense_root = dense_accumulate(&hb, &rows, &grad, &hess);
            grow(&case, &mut st, &rows, root, dense_root, 0);
            for (bi, buf) in st.scratch.pool.iter().enumerate() {
                for (f, fh) in buf.iter().enumerate() {
                    assert!(
                        fh.is_clean(),
                        "case {case_no}: pooled buffer {bi} feature {f} is dirty"
                    );
                }
            }
        }
        assert!(border_counts.contains(&1) && border_counts.contains(&MAX_BORDER_COUNT));
        assert!(st.nodes > 5 * cases as u64, "{} nodes", st.nodes);
        assert!(
            st.residual_bins > 0,
            "no residual bin (no rows, non-zero gradient) appeared"
        );
        assert!(st.single_row_children > 0, "no single-row child");
        assert!(
            st.sparse_visits < st.dense_visits,
            "sparse {} vs dense {} visits",
            st.sparse_visits,
            st.dense_visits
        );
    }

    // -- Exact oracles ----------------------------------------------------
    //
    // `GradientBoost::fit_exact` (exact greedy trees, `tree.rs`) and
    // `ObliviousBoost::fit_exact` are the scans both boosters ran before
    // histograms. Binned fits approximate them: close on smooth data,
    // calibrated CQR widths within a modest ratio, and — for the oblivious
    // booster, which scores the same candidate set — bitwise equal on
    // smooth data.

    /// Smooth data: a quadratic in feature 0 plus a linear term.
    fn smooth(seed: u64, n: usize, d: usize) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n * d);
        for _ in 0..n * d {
            xs.push(rng.gen_range(-3.0..3.0));
        }
        let x = Matrix::from_vec(n, d, xs).expect("shape");
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let r = x.row(i);
                r[0] * r[0] + 0.5 * r[1 % d] + rng.gen_range(-0.2..0.2)
            })
            .collect();
        (x, y)
    }

    /// The two boosters' 20-round pinball(0.9) fits of `(x, y)`, binned
    /// (`exact = false`) or by the exact oracles.
    fn pinball_fits(x: &Matrix, y: &[f64], exact: bool) -> [Vec<f64>; 2] {
        let mut gbt = GradientBoost::with_params(
            Loss::Pinball(0.9),
            GradientBoostParams {
                n_rounds: 20,
                ..GradientBoostParams::default()
            },
        );
        let mut cat = ObliviousBoost::with_params(
            Loss::Pinball(0.9),
            ObliviousBoostParams {
                n_rounds: 20,
                ..ObliviousBoostParams::default()
            },
        );
        if exact {
            gbt.fit_exact(x, y).unwrap();
            cat.fit_exact(x, y).unwrap();
        } else {
            gbt.fit(x, y).unwrap();
            cat.fit(x, y).unwrap();
        }
        [gbt.predict(x).unwrap(), cat.predict(x).unwrap()]
    }

    #[test]
    fn binned_catboost_reproduces_the_exact_fit_bitwise_on_smooth_data() {
        // Both oblivious paths score the *same* 32-border candidate set
        // with the same tie rules; they differ only in floating-point
        // association inside the scores, which flips no argmax on this
        // dataset — so the binned model reproduces the exact one bitwise
        // here. A ratchet: if kernel arithmetic drifts enough to flip a
        // split on smooth data, this fails and the change deserves a close
        // look.
        let (x, y) = smooth(42, 120, 5);
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let [_, binned] = pinball_fits(&x, &y, false);
        let [_, exact] = pinball_fits(&x, &y, true);
        assert_eq!(
            bits(&binned),
            bits(&exact),
            "binned CatBoost no longer reproduces the exact fit on smooth data"
        );
    }

    #[test]
    fn binned_fits_track_exact_fits_closely() {
        // The binned candidate thresholds (~n/4 GBT boundaries, 32
        // oblivious borders) sit near the ones the exact scans pick, so the
        // binned fits should be near — not equal to — the exact ones.
        // Gauge: mean |Δ| small vs the target's spread.
        let (x, y) = smooth(11, 150, 4);
        let spread = {
            let m = vmin_linalg::mean(&y);
            (y.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / y.len() as f64).sqrt()
        };
        let binned = pinball_fits(&x, &y, false);
        let exact = pinball_fits(&x, &y, true);
        for (label, b, e) in [
            ("GBT", &binned[0], &exact[0]),
            ("CatBoost", &binned[1], &exact[1]),
        ] {
            let mad = e.iter().zip(b).map(|(a, b)| (a - b).abs()).sum::<f64>() / e.len() as f64;
            assert!(
                mad < 0.25 * spread,
                "binned {label} drifted from exact: mean |Δ| = {mad:.4}, y spread = {spread:.4}"
            );
        }
    }

    /// Heteroscedastic data — the regime CQR exists for.
    fn draw(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..4.0);
            let eps = (0.2 + x) * rng.gen_range(-1.0..1.0);
            rows.push(vec![x]);
            y.push(3.0 * x + eps);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    /// Mean test width of split-conformal CQR at α = 0.1 over 10 draws of
    /// 70 training, 40 calibration and 60 test rows, with each quantile
    /// model fitted by `fit(q, x, y)`. `q̂` is the ⌈(40+1)(1−α)⌉-th smallest
    /// calibration score `max(lo − y, y − hi)`.
    fn mean_cqr_width<M: Regressor>(fit: impl Fn(f64, &Matrix, &[f64]) -> M) -> f64 {
        const ALPHA: f64 = 0.1;
        const REPS: usize = 10;
        let mut width = 0.0f64;
        for s in 0..REPS as u64 {
            let seed = s * 3001 + 5;
            let (x_tr, y_tr) = draw(70, seed);
            let (x_ca, y_ca) = draw(40, seed + 1);
            let (x_te, _) = draw(60, seed + 2);
            let lo = fit(ALPHA / 2.0, &x_tr, &y_tr);
            let hi = fit(1.0 - ALPHA / 2.0, &x_tr, &y_tr);
            let band = |x: &Matrix| (lo.predict(x).unwrap(), hi.predict(x).unwrap());
            let (lo_ca, hi_ca) = band(&x_ca);
            let mut scores: Vec<f64> = lo_ca
                .iter()
                .zip(&hi_ca)
                .zip(&y_ca)
                .map(|((l, h), t)| (l - t).max(t - h))
                .collect();
            scores.sort_by(f64::total_cmp);
            let rank = ((scores.len() as f64 + 1.0) * (1.0 - ALPHA)).ceil() as usize;
            let qhat = scores[rank - 1];
            let (lo_te, hi_te) = band(&x_te);
            width += lo_te
                .iter()
                .zip(&hi_te)
                .map(|(l, h)| ((h + qhat) - (l - qhat)).abs())
                .sum::<f64>()
                / lo_te.len() as f64;
        }
        width / REPS as f64
    }

    #[test]
    fn binned_cqr_widths_track_exact_cqr_widths() {
        // Width is where a bad approximation would show up (binning that
        // degrades the quantile fits widens calibrated intervals), so CQR
        // on binned pairs must stay within a modest ratio of CQR on exact
        // pairs. Coverage itself is model-free; `tests/hist_quality.rs`
        // holds the binned pairs to the exact Beta-Binomial region.
        let xgb = |q| {
            let params = GradientBoostParams {
                n_rounds: 30,
                ..GradientBoostParams::default()
            };
            GradientBoost::with_params(Loss::Pinball(q), params)
        };
        let cat = |q| {
            let params = ObliviousBoostParams {
                n_rounds: 30,
                ..ObliviousBoostParams::default()
            };
            ObliviousBoost::with_params(Loss::Pinball(q), params)
        };
        for (label, binned, exact) in [
            (
                "CQR-XGBoost",
                mean_cqr_width(|q, x, y| {
                    let mut m = xgb(q);
                    m.fit(x, y).unwrap();
                    m
                }),
                mean_cqr_width(|q, x, y| {
                    let mut m = xgb(q);
                    m.fit_exact(x, y).unwrap();
                    m
                }),
            ),
            (
                "CQR-CatBoost",
                mean_cqr_width(|q, x, y| {
                    let mut m = cat(q);
                    m.fit(x, y).unwrap();
                    m
                }),
                mean_cqr_width(|q, x, y| {
                    let mut m = cat(q);
                    m.fit_exact(x, y).unwrap();
                    m
                }),
            ),
        ] {
            let ratio = binned / exact;
            assert!(
                (0.6..=1.67).contains(&ratio),
                "{label}: binned/exact mean-width ratio {ratio:.3} \
                 (binned {binned:.3} vs exact {exact:.3}) outside [0.6, 1.67]"
            );
        }
    }
}
