//! Flattened inference tables: branch-predictable replays of the fitted
//! boosters' prediction walks.
//!
//! The exactness contract is the whole point, so it is stated once here
//! and every kernel below cites it:
//!
//! - **GBT.** The live path computes
//!   `p = base_score; for tree: p += learning_rate · tree.predict_row(row)`
//!   where the walk routes `row[feature] < threshold → left`. The flat
//!   table stores each leaf's contribution **pre-scaled** as
//!   `learning_rate · weight` — one IEEE multiplication evaluated at
//!   compile time instead of per prediction, producing the *same* `f64`
//!   product — and the kernels accumulate contributions per row in tree
//!   order. Identical operand values, identical operation order →
//!   bit-identical sums.
//! - **Oblivious.** The live walk sets bit `k` of the leaf index when
//!   `row[levels[k].0] > levels[k].1` and looks up `leaf_values[index]`;
//!   the LUT stores `learning_rate · leaf_values` (same pre-scaling
//!   argument) and the kernel rebuilds the identical bitmask.
//! - **Tie/NaN routing.** Thresholds are copied verbatim: strict `<`
//!   (GBT, NaN routes right) and strict `>` (oblivious, NaN leaves the
//!   bit clear) behave exactly as trained. Both GBT kernels compare
//!   order-isomorphic sort keys ([`lane_key`], [`threshold_key`]) instead
//!   of the `f64`s, which replays IEEE `<` exactly, NaN included. See
//!   DESIGN.md §14 for how this composes with the training-time
//!   `split_at` semantics.
//!
//! Structural invariant used for safe, provably-terminating walks: every
//! fit path pushes a split node before its children, so child indices are
//! strictly greater than the parent's. One body per table kind checks it
//! with the other table rules over the flat arrays, for
//! [`FlatGbt::compile`] and for the artifact decoder on untrusted bytes.

use crate::engine::ServeError;
use vmin_models::{GradientBoost, NodeView, ObliviousBoost};

/// Sentinel in [`FlatGbt`]'s feature column marking a leaf node; the
/// threshold slot then holds the pre-scaled leaf contribution.
pub(crate) const LEAF: u32 = u32::MAX;

/// Deepest oblivious tree the LUT kernel accepts (the fit path already
/// rejects depth > 16, so a larger value in an artifact is corruption).
pub(crate) const MAX_OBLIVIOUS_DEPTH: usize = 16;

fn narrow(value: usize, what: &str) -> Result<u32, ServeError> {
    u32::try_from(value)
        .map_err(|_| ServeError::InvalidModel(format!("{what} {value} exceeds u32 range")))
}

/// Rows walked in lockstep per tree by the batch kernels. Each row's walk
/// is a serial load→compare→load dependency chain; running [`GROUP`]
/// independent chains interleaved lets the CPU overlap their latencies.
pub(crate) const GROUP: usize = 8;

/// Feature slots of the fixed-width lane layout. Models at most this wide
/// qualify for the fully bounds-check-free kernel: a group's lanes become
/// a `[u64; LANE_BLOCK]` array and the lane index — an offset *byte* plus
/// a constant `j < GROUP` — is provably within it from its type alone, no
/// masking needed.
pub(crate) const LANE_WIDTH: usize = 32;

/// Lane slots per group in the fixed-width layout: [`LANE_WIDTH`] feature
/// slots of [`GROUP`] lanes, plus one spare [`GROUP`] so that a
/// pre-scaled offset byte (≤ 255) plus a lane index (`< GROUP`) is
/// provably in bounds with no masking.
pub(crate) const LANE_BLOCK: usize = LANE_WIDTH * GROUP + GROUP;

/// Values per [`GROUP`] in the *lane-major* block both GBT kernels read:
/// feature `f` of lane `j` of group `g` sits at `g·stride + f·GROUP + j`.
/// Every lockstep chain then addresses its row value off one shared base
/// pointer (`feat · GROUP + j`, with `j` a compile-time constant per
/// unrolled chain) instead of keeping [`GROUP`] per-row base pointers
/// alive — the difference between the kernel running out of registers
/// and not. The feature axis is padded to at least [`LANE_WIDTH`] slots
/// plus the spare group, so for every model the windowed kernel runs on
/// the stride is exactly [`LANE_BLOCK`]; the padding slots are never read
/// (every tested feature index is `< width`). The oblivious kernel reads
/// the same layout unpadded, `width·GROUP` values per group.
pub(crate) fn lane_stride(width: usize) -> usize {
    width.max(LANE_WIDTH) * GROUP + GROUP
}

/// Maps a row value to a `u64` that compares (unsigned) in the same
/// strict order as the `f64` does under IEEE `<`: flip all bits of
/// negatives, set the sign bit of non-negatives. `-0.0` is folded into
/// `+0.0` first (IEEE treats them as equal, their raw bit patterns do
/// not), and NaN maps to `u64::MAX`, which sits above every threshold
/// key — so `key(v) < key(thr)` is false exactly when `v < thr` is,
/// NaN included. This is what lets both GBT kernels route with one
/// integer compare instead of an FP compare + flag materialization.
#[inline]
pub(crate) fn lane_key(v: f64) -> u64 {
    if v.is_nan() {
        return u64::MAX;
    }
    let raw = v.to_bits();
    // Both zeros have all bits clear apart from (possibly) the sign bit;
    // dropping it folds `-0.0` into `+0.0` without an FP equality test.
    let bits = if raw << 1 == 0 { 0 } else { raw };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// [`lane_key`] for stored split thresholds: a NaN threshold (the leaf
/// self-loop sentinel, and the only NaN the tables ever hold) becomes
/// key `0`, which no value key is unsigned-below — every row routes
/// right/self, exactly as IEEE `v < NaN` (always false) dictates. A
/// finite threshold never maps to `0` (that key would require the bit
/// pattern of a negative NaN), so the sentinel is unambiguous.
#[inline]
fn threshold_key(thr: f64) -> u64 {
    if thr.is_nan() {
        0
    } else {
        lane_key(thr)
    }
}

/// One lockstep level of the bounds-check-free walk: every lane reads
/// its node's metadata, compares its row key against the threshold key,
/// and steps to the `<` child or its `+ 1` sibling. Shared by the
/// const-depth and runtime-depth walks so there is exactly one copy of
/// the routing arithmetic.
#[inline(always)]
fn walk_step(
    meta: &[u16; PAD_TREE],
    thr: &[u64; PAD_TREE],
    lanes: &[u64; LANE_BLOCK],
    idx: &mut [usize; GROUP],
) {
    for (j, slot) in idx.iter_mut().enumerate() {
        let m = meta[*slot];
        let child = (m >> 8) as usize;
        let v = lanes[(m & 0xff) as usize + j];
        // Key order mirrors IEEE `<` with NaN on the right, so this
        // select is exactly `left + !(row < thr)`.
        *slot = if v < thr[*slot] { child } else { child + 1 };
    }
}

/// A `GradientBoost` ensemble flattened into contiguous struct-of-arrays
/// node tables: all trees concatenated, tree `t` spanning
/// `roots[t]..roots[t + 1]`, child indices absolute. Leaves are
/// self-looping (`left == right == self`), which lets the batch kernel
/// walk every row for a tree's full depth unconditionally — rows that
/// reach a leaf early just spin in place, so the walk has no per-row
/// termination branch at all.
///
/// `kernel` is *derived* (not serialized): recomputed identically from
/// the node arrays on both capture and artifact decode, so two models
/// with equal serialized arrays always carry equal kernels — equality
/// compares only the serialized fields.
#[derive(Debug, Clone)]
pub struct FlatGbt {
    pub(crate) n_features: u32,
    pub(crate) base_score: f64,
    /// `n_trees + 1` prefix offsets into the node tables.
    pub(crate) roots: Vec<u32>,
    /// Feature tested per node; [`LEAF`] marks a leaf.
    pub(crate) feature: Vec<u32>,
    /// Split threshold per node; for leaves the pre-scaled contribution.
    pub(crate) threshold: Vec<f64>,
    /// Absolute node index of the `<` child (self for leaves).
    pub(crate) left: Vec<u32>,
    /// Absolute node index of the `≥` child (self for leaves).
    pub(crate) right: Vec<u32>,
    /// Derived: the tables of the one batch kernel this model runs.
    pub(crate) kernel: GbtKernel,
}

impl PartialEq for FlatGbt {
    fn eq(&self, other: &Self) -> bool {
        // Derived tables are a pure function of the serialized fields, so
        // equality is over serialized state.
        self.n_features == other.n_features
            && self.base_score == other.base_score
            && self.roots == other.roots
            && self.feature == other.feature
            && self.threshold == other.threshold
            && self.left == other.left
            && self.right == other.right
    }
}

/// One node as the packed lockstep kernel reads it — a 16-byte record so
/// node loads never straddle cache lines and each walk step costs one
/// node load plus one row load. Routing is arithmetic, not selected:
/// `next = left + (key < threshold ? 0 : 1)`, which works because the
/// breadth-first renumbering in [`derive_gbt_tables`] places every
/// split's right child at `left + 1`. The threshold is a
/// [`threshold_key`], compared with the row's [`lane_key`] exactly as the
/// windowed walk does. Leaves store the NaN sentinel's key `0` (every row
/// routes right) and `left = self − 1`, so a parked row keeps stepping to
/// itself; their payload lives in the side `value` table read at the
/// final gather.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedNode {
    pub(crate) threshold: u64,
    pub(crate) feat: u32,
    pub(crate) left: u32,
}

/// Where one tree sits in the windowed tables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowTree {
    /// The [`PAD_TREE`]-slot window holding the tree.
    pub(crate) window: u32,
    /// Window slot of the root. A byte, so the walk's first position is
    /// in bounds by its type.
    pub(crate) root: u8,
    /// Maximum root→leaf depth in edges — the lockstep walk's
    /// unconditional iteration count (≤ 63 for ≤ [`PAD_STRIDE`] nodes).
    pub(crate) depth: u8,
}

/// The derived tables of the one batch kernel a GBT ensemble runs; see
/// [`derive_gbt_tables`]. Only the chosen kernel's tables exist.
#[derive(Debug, Clone)]
pub(crate) enum GbtKernel {
    /// Every tree fits [`PAD_STRIDE`] reachable nodes and the model tests
    /// at most [`LANE_WIDTH`] features: trees packed into shared
    /// [`PAD_TREE`]-slot windows, walked bounds-check-free.
    Windowed {
        /// Split thresholds as [`threshold_key`] sort keys (`0` for
        /// leaves and padding).
        thr: Vec<u64>,
        /// One `u16` per slot packing the window-relative `<` child in
        /// the high byte and the *pre-scaled* lane offset `feat · GROUP`
        /// in the low byte (a leaf holds its own slot `− 1`). Both being
        /// single bytes is what makes the walk step bounds-check-free: a
        /// byte index (≤ 255, plus the `+ 1` right-child or `+ j` lane
        /// adjustment) is in range of the [`PAD_TREE`]- and
        /// [`LANE_BLOCK`]-sized arrays by construction.
        meta: Vec<u16>,
        /// Pre-scaled leaf payloads aligned with `thr`/`meta` (0 for
        /// splits and padding).
        value: Vec<f64>,
        /// Per-tree window, root slot and depth.
        trees: Vec<WindowTree>,
    },
    /// Breadth-first renumbered nodes of every tree, absolute indices.
    Packed {
        /// The renumbered nodes.
        nodes: Vec<PackedNode>,
        /// Pre-scaled leaf payload per packed node (0 for splits), read
        /// once per walk at the final gather.
        value: Vec<f64>,
        /// Packed-table root index per tree (reachable nodes only, so
        /// these can differ from `roots` on pathological inputs).
        roots: Vec<u32>,
        /// Per-tree maximum root→leaf depth in edges.
        depth: Vec<u32>,
    },
}

impl GbtKernel {
    /// Bytes the derived tables hold (what `serve.table.bytes` reports).
    pub(crate) fn table_bytes(&self) -> usize {
        use std::mem::size_of_val;
        match self {
            GbtKernel::Windowed {
                thr,
                meta,
                value,
                trees,
            } => {
                size_of_val(thr.as_slice())
                    + size_of_val(meta.as_slice())
                    + size_of_val(value.as_slice())
                    + size_of_val(trees.as_slice())
            }
            GbtKernel::Packed {
                nodes,
                value,
                roots,
                depth,
            } => {
                size_of_val(nodes.as_slice())
                    + size_of_val(value.as_slice())
                    + size_of_val(roots.as_slice())
                    + size_of_val(depth.as_slice())
            }
        }
    }
}

/// Maximum reachable nodes per tree for the windowed kernel — always
/// satisfied by the paper's depth ≤ 7 models. The bound matters because
/// it keeps every tree inside one window, so every window-relative child
/// index is a single *byte*, which is what lets the kernel walk without
/// any bounds checks.
pub(crate) const PAD_STRIDE: usize = 128;

/// Window stride of the windowed kernel tables. Window `w` occupies
/// exactly `w·PAD_TREE..(w+1)·PAD_TREE` of `thr`/`meta`/`value`; the
/// batch kernel views it as a `&[_; PAD_TREE]` array. Since a walk index
/// is a child byte (≤ 255) plus at most 1, `PAD_TREE = 257` makes every
/// node access provably in bounds with no masking at all — the compiler
/// drops the per-step bounds check from the index type alone. Deeper
/// ensembles keep the packed absolute-index kernel.
pub(crate) const PAD_TREE: usize = 257;

/// Slots a window hands out to trees: one short of [`PAD_TREE`], so every
/// node slot, root slot included, is a byte. The last slot is never
/// occupied; it only makes `byte + 1` provably in bounds.
const WINDOW_SLOTS: usize = PAD_TREE - 1;

/// Derivation-internal narrowing. Everything narrowed while deriving the
/// kernel tables was already bounds-validated by [`check_gbt_tables`] or
/// the window packing (node counts fit `u32`, window slots and depths fit
/// a byte), so the saturating fallback is unreachable — it only keeps the
/// derivation panic-free on arbitrary inputs.
#[inline]
fn nar32(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// See [`nar32`].
#[inline]
fn nar16(v: usize) -> u16 {
    u16::try_from(v).unwrap_or(u16::MAX)
}

/// See [`nar32`].
#[inline]
fn nar8(v: usize) -> u8 {
    u8::try_from(v).unwrap_or(u8::MAX)
}

/// Breadth-first renumbering scratch, reused tree by tree: a split's
/// children are enqueued together, so in BFS order the right child always
/// sits at `left + 1` and both kernels route with an add instead of a
/// select. The BFS touches each node at most once because
/// [`check_gbt_tables`] rejects tables where any node is referenced by
/// more than one split, and per-node depth falls out of the same pass
/// since parents are emitted before their children.
#[derive(Default)]
struct Bfs {
    /// Absolute node index per BFS position (reachable nodes only).
    order: Vec<usize>,
    /// BFS position per tree-relative node index.
    pos: Vec<u32>,
    /// Depth per BFS position.
    depth: Vec<u32>,
}

impl Bfs {
    /// Renumbers the tree spanning `start..end` and returns its maximum
    /// root→leaf depth in edges.
    fn run(
        &mut self,
        start: usize,
        end: usize,
        feature: &[u32],
        left: &[u32],
        right: &[u32],
    ) -> u32 {
        self.order.clear();
        self.order.push(start);
        let mut head = 0;
        while head < self.order.len() {
            let i = self.order[head];
            head += 1;
            if feature[i] != LEAF {
                self.order.push(left[i] as usize);
                self.order.push(right[i] as usize);
            }
        }
        self.pos.clear();
        self.pos.resize(end - start, 0);
        for (k, &i) in self.order.iter().enumerate() {
            self.pos[i - start] = nar32(k);
        }
        self.depth.clear();
        self.depth.resize(self.order.len(), 0);
        let mut max = 0u32;
        for (k, &i) in self.order.iter().enumerate() {
            if feature[i] == LEAF {
                max = max.max(self.depth[k]);
            } else {
                let l = self.pos[left[i] as usize - start] as usize;
                self.depth[l] = self.depth[k] + 1;
                self.depth[l + 1] = self.depth[k] + 1;
            }
        }
        max
    }

    /// BFS position of split `i`'s `<` child (its `≥` child is the next
    /// position) in the tree starting at `start`.
    fn left_of(&self, i: usize, start: usize, left: &[u32]) -> usize {
        self.pos[left[i] as usize - start] as usize
    }
}

/// Next-fit placement of trees of `sizes` reachable nodes (each at most
/// [`PAD_STRIDE`]) into windows of [`WINDOW_SLOTS`] slots: a tree goes at
/// the current window's fill unless it would overrun it, and then the
/// window closes and the tree opens the next one. Returns each tree's
/// `(window, root slot)` and the window count.
///
/// A window closes only when the next tree does not fit, i.e. with more
/// than `WINDOW_SLOTS − PAD_STRIDE = 128` slots filled, so every closed
/// window is more than half full and the tables hold at most
/// `2·nodes + PAD_TREE` slots: derived memory is linear in the artifact.
fn pack_windows(sizes: &[usize]) -> (Vec<(u32, u8)>, usize) {
    let mut placed = Vec::with_capacity(sizes.len());
    let (mut windows, mut fill) = (0usize, 0usize);
    for &n in sizes {
        if windows == 0 || fill + n > WINDOW_SLOTS {
            windows += 1;
            fill = 0;
        }
        placed.push((nar32(windows - 1), nar8(fill)));
        fill += n;
    }
    (placed, windows)
}

/// Computes the kernel tables of validated node arrays: the windowed
/// tables when the model tests at most [`LANE_WIDTH`] features and every
/// tree has at most [`PAD_STRIDE`] reachable nodes, the packed table
/// otherwise. Both renumber each tree breadth-first ([`Bfs`]).
fn derive_gbt_tables(
    n_features: u32,
    roots: &[u32],
    feature: &[u32],
    threshold: &[f64],
    left: &[u32],
    right: &[u32],
) -> GbtKernel {
    let n_trees = roots.len() - 1;
    let extent = |t: usize| (roots[t] as usize, roots[t + 1] as usize);
    let mut bfs = Bfs::default();
    if n_features as usize <= LANE_WIDTH {
        let mut sizes = Vec::with_capacity(n_trees);
        for t in 0..n_trees {
            let (start, end) = extent(t);
            bfs.run(start, end, feature, left, right);
            if bfs.order.len() > PAD_STRIDE {
                break;
            }
            sizes.push(bfs.order.len());
        }
        if sizes.len() == n_trees {
            let (placed, windows) = pack_windows(&sizes);
            let mut thr = vec![0u64; windows * PAD_TREE];
            let mut meta = vec![0u16; windows * PAD_TREE];
            let mut value = vec![0.0f64; windows * PAD_TREE];
            let mut trees = Vec::with_capacity(n_trees);
            for (t, &(window, root)) in placed.iter().enumerate() {
                let (start, end) = extent(t);
                let depth = bfs.run(start, end, feature, left, right);
                let root = usize::from(root);
                let base = window as usize * PAD_TREE;
                for (k, &i) in bfs.order.iter().enumerate() {
                    let slot = root + k;
                    if feature[i] == LEAF {
                        // Sentinel key 0 (left in `thr`): no lane key is
                        // unsigned-below it, so a parked row keeps
                        // stepping to `slot − 1 + 1`.
                        meta[base + slot] = nar16(slot.saturating_sub(1)) << 8;
                        value[base + slot] = threshold[i];
                    } else {
                        let child = root + bfs.left_of(i, start, left);
                        thr[base + slot] = threshold_key(threshold[i]);
                        // `feat · GROUP ≤ 248` fits the byte for any
                        // `feat < LANE_WIDTH`, the only width this
                        // kernel is derived for.
                        let lane_off = u8::try_from(feature[i] as usize * GROUP).unwrap_or(0);
                        meta[base + slot] = (nar16(child) << 8) | u16::from(lane_off);
                    }
                }
                trees.push(WindowTree {
                    window,
                    root: nar8(root),
                    depth: nar8(depth as usize),
                });
            }
            return GbtKernel::Windowed {
                thr,
                meta,
                value,
                trees,
            };
        }
    }
    let mut nodes = Vec::with_capacity(feature.len());
    let mut value = Vec::with_capacity(feature.len());
    let mut packed_roots = Vec::with_capacity(n_trees);
    let mut depth = Vec::with_capacity(n_trees);
    for t in 0..n_trees {
        let (start, end) = extent(t);
        depth.push(bfs.run(start, end, feature, left, right));
        let base = nodes.len();
        packed_roots.push(nar32(base));
        for (k, &i) in bfs.order.iter().enumerate() {
            if feature[i] == LEAF {
                nodes.push(PackedNode {
                    threshold: threshold_key(f64::NAN),
                    feat: 0,
                    left: nar32((base + k).saturating_sub(1)),
                });
                value.push(threshold[i]);
            } else {
                nodes.push(PackedNode {
                    threshold: threshold_key(threshold[i]),
                    feat: feature[i],
                    left: nar32(base + bfs.left_of(i, start, left)),
                });
                value.push(0.0);
            }
        }
    }
    GbtKernel::Packed {
        nodes,
        value,
        roots: packed_roots,
        depth,
    }
}

/// True when prefix offsets `off` start at 0 and end at `len`.
fn spans(off: &[u32], len: usize) -> bool {
    off.first() == Some(&0) && off.last().map(|&o| o as usize) == Some(len)
}

/// The structural rules of a servable GBT node table, over the flat
/// arrays: the roots span the table in increasing offsets; leaves
/// self-loop (the lockstep walk parks early rows on them); a split tests a
/// feature within the width and its children point strictly forward
/// inside its own tree, so every walk terminates; and no node hangs off
/// two splits, so [`derive_gbt_tables`]' breadth-first renumbering walks a
/// *tree* (a DAG of hostile bytes would blow it up exponentially).
/// [`FlatGbt::compile`] and the artifact decoder both call it; `Err`
/// describes the first violation.
pub(crate) fn check_gbt_tables(
    n_features: u32,
    roots: &[u32],
    feature: &[u32],
    left: &[u32],
    right: &[u32],
) -> Result<(), String> {
    let n_nodes = feature.len();
    if !spans(roots, n_nodes) {
        return Err("root offsets do not span the node table".to_string());
    }
    for (t, w) in roots.windows(2).enumerate() {
        let (start, end) = (w[0] as usize, w[1] as usize);
        if end <= start || end > n_nodes {
            return Err(format!(
                "tree {t} offsets ({start}, {end}) are not increasing"
            ));
        }
        let mut referenced = vec![false; end - start];
        for i in start..end {
            let (l, r) = (left[i] as usize, right[i] as usize);
            if feature[i] == LEAF {
                if l != i || r != i {
                    return Err(format!("leaf {i} children ({l}, {r}) are not self-loops"));
                }
                continue;
            }
            if feature[i] >= n_features {
                return Err(format!(
                    "node {i} tests feature {} of {n_features}",
                    feature[i]
                ));
            }
            if l <= i || r <= i || l >= end || r >= end {
                return Err(format!("node {i} children ({l}, {r}) escape ({i}, {end})"));
            }
            if l == r || referenced[l - start] || referenced[r - start] {
                return Err(format!("node {i} children ({l}, {r}) reuse a node"));
            }
            referenced[l - start] = true;
            referenced[r - start] = true;
        }
    }
    Ok(())
}

/// The structural rules of a servable oblivious table, over the flat
/// arrays: the level and LUT offsets span their tables, every tree has
/// at most [`MAX_OBLIVIOUS_DEPTH`] levels and exactly `2^levels` LUT
/// slots, and every level tests a feature within the width.
/// [`FlatOblivious::compile`] and the artifact decoder both call it; `Err`
/// describes the first violation.
pub(crate) fn check_oblivious_tables(
    n_features: u32,
    level_off: &[u32],
    level_feat: &[u32],
    lut_off: &[u32],
    n_lut: usize,
) -> Result<(), String> {
    let n_levels = level_feat.len();
    if !spans(level_off, n_levels) {
        return Err("level offsets do not span the level table".to_string());
    }
    if !spans(lut_off, n_lut) {
        return Err("LUT offsets do not span the LUT".to_string());
    }
    for (t, (lv, lu)) in level_off.windows(2).zip(lut_off.windows(2)).enumerate() {
        let (ls, le) = (lv[0] as usize, lv[1] as usize);
        if le < ls || le > n_levels {
            return Err(format!(
                "tree {t} level offsets ({ls}, {le}) are not monotone"
            ));
        }
        let depth = le - ls;
        if depth > MAX_OBLIVIOUS_DEPTH {
            return Err(format!(
                "tree {t} has {depth} levels (max {MAX_OBLIVIOUS_DEPTH})"
            ));
        }
        let (us, ue) = (lu[0] as usize, lu[1] as usize);
        if ue < us || ue > n_lut || ue - us != 1usize << depth {
            return Err(format!(
                "tree {t} LUT has {} slots for {depth} levels",
                ue.saturating_sub(us)
            ));
        }
        for (k, &f) in level_feat.iter().enumerate().take(le).skip(ls) {
            if f >= n_features {
                return Err(format!("level {k} tests feature {f} of {n_features}"));
            }
        }
    }
    Ok(())
}

impl FlatGbt {
    /// Flattens a fitted booster. Fails (typed, no panic) on an unfitted
    /// model or any structural violation of the node-table invariants.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidModel`] with a description of the violation.
    pub fn compile(model: &GradientBoost) -> Result<Self, ServeError> {
        if model.n_trees() == 0 || model.n_features() == 0 {
            return Err(ServeError::InvalidModel(
                "cannot flatten an unfitted GradientBoost".to_string(),
            ));
        }
        let n_features = narrow(model.n_features(), "feature count")?;
        let lr = model.params().learning_rate;
        let mut roots = Vec::with_capacity(model.n_trees() + 1);
        roots.push(0u32);
        let mut feature = Vec::new();
        let mut threshold = Vec::new();
        let mut left = Vec::new();
        let mut right = Vec::new();
        for tree in model.trees() {
            let base = feature.len();
            for (i, node) in tree.nodes().into_iter().enumerate() {
                let (f, t, l, r) = match node {
                    // Same bits as the live path's per-prediction
                    // `learning_rate * weight` (see module docs), and
                    // self-looping children: the fixed-depth lockstep walk
                    // parks early rows here (struct docs).
                    NodeView::Leaf { weight } => (LEAF, lr * weight, i, i),
                    NodeView::Split {
                        feature: f,
                        threshold: t,
                        left: l,
                        right: r,
                    } => (narrow(f, "feature index")?, t, l, r),
                };
                feature.push(f);
                threshold.push(t);
                left.push(narrow(base + l, "node index")?);
                right.push(narrow(base + r, "node index")?);
            }
            roots.push(narrow(feature.len(), "node-table length")?);
        }
        Self::from_tables(
            n_features,
            model.base_score(),
            roots,
            feature,
            threshold,
            left,
            right,
        )
        .map_err(ServeError::InvalidModel)
    }

    /// Assembles an ensemble from its serialized arrays: checks them with
    /// [`check_gbt_tables`], then derives the kernel tables. The one
    /// constructor behind [`Self::compile`] and the artifact decoder;
    /// `Err` describes the first violation.
    pub(crate) fn from_tables(
        n_features: u32,
        base_score: f64,
        roots: Vec<u32>,
        feature: Vec<u32>,
        threshold: Vec<f64>,
        left: Vec<u32>,
        right: Vec<u32>,
    ) -> Result<Self, String> {
        let n = feature.len();
        if threshold.len() != n || left.len() != n || right.len() != n {
            return Err("node arrays differ in length".to_string());
        }
        check_gbt_tables(n_features, &roots, &feature, &left, &right)?;
        let kernel = derive_gbt_tables(n_features, &roots, &feature, &threshold, &left, &right);
        Ok(FlatGbt {
            n_features,
            base_score,
            roots,
            feature,
            threshold,
            left,
            right,
            kernel,
        })
    }

    /// Number of trees in the table.
    pub fn n_trees(&self) -> usize {
        self.roots.len() - 1
    }

    /// Width the table expects of every row.
    pub fn n_features(&self) -> usize {
        self.n_features as usize
    }

    /// One tree's contribution for one row — the same walk
    /// `GradientTree::predict_row` performs, over the serialized arrays:
    /// the oracle the kernel tests compare against.
    #[cfg(test)]
    fn tree_contribution(&self, root: usize, row: &[f64]) -> f64 {
        let mut idx = root;
        loop {
            let f = self.feature[idx];
            if f == LEAF {
                return self.threshold[idx];
            }
            idx = if row[f as usize] < self.threshold[idx] {
                self.left[idx] as usize
            } else {
                self.right[idx] as usize
            };
        }
    }

    /// Batch kernel over a lane block of [`lane_key`]s as `serve_rows`
    /// gathers it: whole [`GROUP`]s of [`lane_stride`] keys each, one
    /// group per `GROUP` slots of `out`. Trees run in the outer loop so
    /// each tree's tables stay cache-hot across the whole block, and each
    /// row still accumulates its contributions in tree order, so every
    /// `out[j]` carries the same bits as the live
    /// `GradientBoost::predict_row` on row `j` — the lane layout moves
    /// values, never changes or reorders the arithmetic.
    pub(crate) fn accumulate_block(&self, lanes: &[u64], out: &mut [f64]) {
        let stride = lane_stride(self.n_features());
        debug_assert_eq!(lanes.len() * GROUP, out.len() * stride);
        out.fill(self.base_score);
        match &self.kernel {
            GbtKernel::Windowed {
                thr,
                meta,
                value,
                trees,
            } => {
                debug_assert_eq!(stride, LANE_BLOCK);
                let lane_groups = lanes.as_chunks::<LANE_BLOCK>().0;
                let (thr, meta, value) = (
                    thr.as_chunks::<PAD_TREE>().0,
                    meta.as_chunks::<PAD_TREE>().0,
                    value.as_chunks::<PAD_TREE>().0,
                );
                for tree in trees {
                    let w = tree.window as usize;
                    let window = Window {
                        thr: &thr[w],
                        meta: &meta[w],
                        value: &value[w],
                    };
                    // Depth dispatch once per tree; the group loop runs
                    // inside the monomorphized walk.
                    match tree.depth {
                        0 => window.walk_groups::<0>(tree.root, lane_groups, out),
                        1 => window.walk_groups::<1>(tree.root, lane_groups, out),
                        2 => window.walk_groups::<2>(tree.root, lane_groups, out),
                        3 => window.walk_groups::<3>(tree.root, lane_groups, out),
                        4 => window.walk_groups::<4>(tree.root, lane_groups, out),
                        5 => window.walk_groups::<5>(tree.root, lane_groups, out),
                        6 => window.walk_groups::<6>(tree.root, lane_groups, out),
                        7 => window.walk_groups::<7>(tree.root, lane_groups, out),
                        8 => window.walk_groups::<8>(tree.root, lane_groups, out),
                        d => window.walk_groups_deep(tree.root, d, lane_groups, out),
                    }
                }
            }
            GbtKernel::Packed {
                nodes,
                value,
                roots,
                depth,
            } => {
                for (&root, &depth) in roots.iter().zip(depth) {
                    for (group_lanes, group_out) in
                        lanes.chunks_exact(stride).zip(out.chunks_exact_mut(GROUP))
                    {
                        walk_packed(nodes, value, root as usize, depth, group_lanes, group_out);
                    }
                }
            }
        }
    }
}

/// [`GROUP`] rows walked through one tree of the packed table in
/// lockstep, every row for exactly `depth` unconditional iterations
/// (early leaves self-loop). Each iteration issues [`GROUP`] independent
/// load→compare→load chains, so the walk is bound by throughput, not
/// chain latency — this interleaving is where the batch kernel's speed-up
/// over per-chip dispatch comes from. Routing is branch-free arithmetic
/// over the BFS-renumbered [`PackedNode`] table:
/// `next = left + (key < threshold ? 0 : 1)` on sort keys, which sends a
/// NaN row right exactly like the live walk and parks leaf-bound rows on
/// the leaf's key-`0` self-loop.
#[inline]
fn walk_packed(
    nodes: &[PackedNode],
    value: &[f64],
    root: usize,
    depth: u32,
    lanes: &[u64],
    out: &mut [f64],
) {
    let mut idx = [root; GROUP];
    for _ in 0..depth {
        for (j, slot) in idx.iter_mut().enumerate() {
            let n = nodes[*slot];
            let (left, v) = (n.left as usize, lanes[n.feat as usize * GROUP + j]);
            // The windowed walk's routing (`walk_step`), on the same keys.
            *slot = if v < n.threshold { left } else { left + 1 };
        }
    }
    for (acc, i) in out.iter_mut().zip(idx) {
        *acc += value[i];
    }
}

/// One window of the windowed tables as fixed-size arrays — the
/// [`PAD_TREE`] stride means `as_chunks` lands window `w` exactly at
/// chunk `w`, and the array types carry the length proof the walk's
/// bounds elision rests on.
#[derive(Clone, Copy)]
struct Window<'a> {
    thr: &'a [u64; PAD_TREE],
    meta: &'a [u16; PAD_TREE],
    value: &'a [f64; PAD_TREE],
}

impl Window<'_> {
    /// The fully bounds-check-free walk of one tree rooted at window
    /// slot `root`, over every [`GROUP`] of the block. No index is
    /// ever masked: a walk position is the root byte or a child *byte*
    /// (from `meta`'s high byte) plus at most 1, so it is
    /// `< PAD_TREE = 257` by its type, and a lane index is a pre-scaled
    /// offset byte plus a constant `j < GROUP`, so it is `< LANE_BLOCK`.
    /// Because both the lane values and the thresholds are
    /// [`lane_key`]/[`threshold_key`] sort keys, routing is one
    /// *unsigned integer* compare whose carry feeds the child-index add
    /// directly (cmp + sbb on x86) — no FP compare, no flag
    /// materialization — bringing a step down to 6 fused µops / 3 loads
    /// on a 4-wide core, which is what bounds the whole batch. This is
    /// the kernel production-scale models actually run (depth ≤ 7,
    /// ≤ [`LANE_WIDTH`] features). The walk is monomorphized per tree
    /// depth (`D` is the loop bound) so the level loop fully unrolls: no
    /// live loop counter, no end-of-iteration register shuffle, and all
    /// [`GROUP`] walk positions stay in registers instead of spilling.
    /// Trees deeper than the dispatch table (pathological chains — never
    /// produced by the paper's depth ≤ 7 fits) take the runtime-depth
    /// twin below.
    #[inline]
    fn walk_groups<const D: usize>(
        self,
        root: u8,
        lane_groups: &[[u64; LANE_BLOCK]],
        out: &mut [f64],
    ) {
        for (lanes, group_out) in lane_groups.iter().zip(out.chunks_exact_mut(GROUP)) {
            let mut idx = [usize::from(root); GROUP];
            for _ in 0..D {
                walk_step(self.meta, self.thr, lanes, &mut idx);
            }
            for (acc, i) in group_out.iter_mut().zip(idx) {
                *acc += self.value[i];
            }
        }
    }

    /// Runtime-depth twin of [`Self::walk_groups`] for trees deeper than
    /// the const dispatch covers.
    #[inline]
    fn walk_groups_deep(
        self,
        root: u8,
        depth: u8,
        lane_groups: &[[u64; LANE_BLOCK]],
        out: &mut [f64],
    ) {
        for (lanes, group_out) in lane_groups.iter().zip(out.chunks_exact_mut(GROUP)) {
            let mut idx = [usize::from(root); GROUP];
            for _ in 0..depth {
                walk_step(self.meta, self.thr, lanes, &mut idx);
            }
            for (acc, i) in group_out.iter_mut().zip(idx) {
                *acc += self.value[i];
            }
        }
    }
}

/// An `ObliviousBoost` ensemble compiled into per-tree leaf lookup
/// tables: level tests and `2^depth` pre-scaled LUTs, all trees
/// concatenated with prefix offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatOblivious {
    pub(crate) n_features: u32,
    pub(crate) base_score: f64,
    /// Feature tested per level, all trees concatenated.
    pub(crate) level_feat: Vec<u32>,
    /// Threshold per level (bit set when `row[feat] > thr`).
    pub(crate) level_thr: Vec<f64>,
    /// `n_trees + 1` prefix offsets into the level tables.
    pub(crate) level_off: Vec<u32>,
    /// Pre-scaled leaf values, all trees concatenated.
    pub(crate) lut: Vec<f64>,
    /// `n_trees + 1` prefix offsets into `lut`.
    pub(crate) lut_off: Vec<u32>,
}

impl FlatOblivious {
    /// Compiles a fitted booster into LUT form.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidModel`] on an unfitted model or a tree whose
    /// tables violate the `leaf_values.len() == 2^levels` invariant.
    pub fn compile(model: &ObliviousBoost) -> Result<Self, ServeError> {
        if model.n_trees() == 0 || model.n_features() == 0 {
            return Err(ServeError::InvalidModel(
                "cannot compile an unfitted ObliviousBoost".to_string(),
            ));
        }
        let n_features = narrow(model.n_features(), "feature count")?;
        let lr = model.params().learning_rate;
        let mut level_feat = Vec::new();
        let mut level_thr = Vec::new();
        let mut level_off = vec![0u32];
        let mut lut = Vec::new();
        let mut lut_off = vec![0u32];
        for (levels, leaf_values) in model.tree_tables() {
            for &(f, thr) in levels {
                level_feat.push(narrow(f, "feature index")?);
                level_thr.push(thr);
            }
            // Same bits as the live `learning_rate * leaf` (module docs).
            lut.extend(leaf_values.iter().map(|&v| lr * v));
            level_off.push(narrow(level_feat.len(), "level-table length")?);
            lut_off.push(narrow(lut.len(), "LUT length")?);
        }
        check_oblivious_tables(n_features, &level_off, &level_feat, &lut_off, lut.len())
            .map_err(ServeError::InvalidModel)?;
        Ok(FlatOblivious {
            n_features,
            base_score: model.base_score(),
            level_feat,
            level_thr,
            level_off,
            lut,
            lut_off,
        })
    }

    /// Number of trees in the table.
    pub fn n_trees(&self) -> usize {
        self.level_off.len() - 1
    }

    /// Width the table expects of every row.
    pub fn n_features(&self) -> usize {
        self.n_features as usize
    }

    /// Batch kernel over a lane block of raw `f64` row values as
    /// `serve_rows` gathers it, `n_features·GROUP` values per group with
    /// no padding; see [`FlatGbt::accumulate_block`] for the layout and
    /// exactness notes. Levels run in the outer loop over each
    /// [`GROUP`]-row group, so one `(feature, threshold)` pair is
    /// broadcast across all rows — and in the lane-major block the
    /// [`GROUP`] compared values sit contiguously, so the comparisons
    /// vectorize. Only the final LUT load depends on a row's accumulated
    /// bitmask, the one `ObliviousTree::leaf_index` builds.
    pub(crate) fn accumulate_block(&self, lanes: &[f64], out: &mut [f64]) {
        let stride = self.n_features() * GROUP;
        debug_assert_eq!(lanes.len() * GROUP, out.len() * stride);
        out.fill(self.base_score);
        for t in 0..self.n_trees() {
            let (ls, le) = (self.level_off[t] as usize, self.level_off[t + 1] as usize);
            let off = self.lut_off[t] as usize;
            for (group_lanes, group_out) in
                lanes.chunks_exact(stride).zip(out.chunks_exact_mut(GROUP))
            {
                let mut idx = [0usize; GROUP];
                for (bit, k) in (ls..le).enumerate() {
                    let f = self.level_feat[k] as usize;
                    let thr = self.level_thr[k];
                    for (j, slot) in idx.iter_mut().enumerate() {
                        *slot |= usize::from(group_lanes[f * GROUP + j] > thr) << bit;
                    }
                }
                for (acc, i) in group_out.iter_mut().zip(idx) {
                    *acc += self.lut[off + i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeModel;
    use vmin_conformal::Cqr;
    use vmin_linalg::Matrix;
    use vmin_models::{GradientBoostParams, Loss, TreeParams};
    use vmin_rng::{ChaCha8Rng, Rng, SeedableRng};

    /// Checks one next-fit layout: trees sit back to back inside their
    /// window, a window opens only for a tree that did not fit the last
    /// one, and the padded slots stay within `2·nodes + PAD_TREE`.
    fn check_packing(sizes: &[usize]) {
        let (placed, windows) = pack_windows(sizes);
        let mut fill = 0usize;
        for (t, (&n, &(window, root))) in sizes.iter().zip(&placed).enumerate() {
            let root = usize::from(root);
            assert!(root + n <= WINDOW_SLOTS, "tree {t} overruns its window");
            if t > 0 && window == placed[t - 1].0 {
                assert_eq!(root, fill, "tree {t} is not next to its predecessor");
            } else {
                assert_eq!(root, 0, "tree {t} opens a window mid-way");
                if t > 0 {
                    assert_eq!(window, placed[t - 1].0 + 1, "tree {t} skips a window");
                    assert!(fill + n > WINDOW_SLOTS, "tree {t} closed a window it fit");
                    assert!(
                        2 * fill > PAD_TREE,
                        "window {} closed at most half full",
                        window - 1
                    );
                }
            }
            fill = root + n;
        }
        let nodes: usize = sizes.iter().sum();
        assert!(
            windows * PAD_TREE <= 2 * nodes + PAD_TREE,
            "{windows} windows for {nodes} nodes"
        );
    }

    #[test]
    fn padded_slots_stay_within_twice_the_nodes_plus_one_window() {
        for n in 1..=PAD_STRIDE {
            check_packing(&vec![n; 300]);
            check_packing(&[n]);
        }
        // The worst case for next-fit: a full-size tree after a window
        // just past half full.
        check_packing(&[PAD_STRIDE, 1].repeat(100));
        check_packing(&[1, PAD_STRIDE].repeat(100));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..50 {
            let sizes: Vec<usize> = (0..200).map(|_| rng.gen_range(1..=PAD_STRIDE)).collect();
            check_packing(&sizes);
        }
    }

    /// Serialized GBT arrays assembled tree by tree.
    struct Tables {
        roots: Vec<u32>,
        feature: Vec<u32>,
        threshold: Vec<f64>,
        left: Vec<u32>,
        right: Vec<u32>,
    }

    impl Tables {
        fn new() -> Self {
            Tables {
                roots: vec![0],
                feature: Vec::new(),
                threshold: Vec::new(),
                left: Vec::new(),
                right: Vec::new(),
            }
        }

        fn node(&mut self, feature: u32, threshold: f64, left: usize, right: usize) {
            self.feature.push(feature);
            self.threshold.push(threshold);
            self.left.push(nar32(left));
            self.right.push(nar32(right));
        }

        /// Appends a chain tree of `nodes` serialized nodes: split `j`
        /// tests feature `j % width` with its `<` child a leaf and its `≥`
        /// child the next split. An even count leaves the last node
        /// unreachable (it hangs off no split), so the walk sees
        /// `nodes − 1` of them.
        fn push_chain(&mut self, nodes: usize, width: u32) {
            let base = self.feature.len();
            for j in 0..(nodes - 1) / 2 {
                let i = base + 2 * j;
                self.node(nar32(j) % width, 0.5 + (j % 7) as f64 * 0.4, i + 1, i + 2);
                self.node(LEAF, 0.01 * (i + 1) as f64, i + 1, i + 1);
            }
            while self.feature.len() < base + nodes {
                let i = self.feature.len();
                self.node(LEAF, -0.003 * i as f64, i, i);
            }
            self.roots.push(nar32(self.feature.len()));
        }

        fn build(self, width: u32) -> FlatGbt {
            FlatGbt::from_tables(
                width,
                0.25,
                self.roots,
                self.feature,
                self.threshold,
                self.left,
                self.right,
            )
            .unwrap()
        }
    }

    #[test]
    fn chain_trees_of_every_size_serve_like_the_scalar_walk() {
        let width = 3u32;
        let mut tables = Tables::new();
        for n in 1..=PAD_STRIDE {
            tables.push_chain(n, width);
        }
        let nodes = tables.feature.len();
        let flat = tables.build(width);
        match &flat.kernel {
            GbtKernel::Windowed { thr, trees, .. } => {
                assert!(thr.len() <= 2 * nodes + PAD_TREE, "{} slots", thr.len());
                // The 127-node chain is 63 levels deep: the runtime-depth walk.
                assert!(trees.iter().any(|t| t.depth > 8));
            }
            GbtKernel::Packed { .. } => {
                panic!("trees of at most PAD_STRIDE nodes must be windowed")
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let w = width as usize;
        let rows: Vec<f64> = (0..37 * w).map(|_| rng.gen_range(0.0..3.5)).collect();
        // Served as both bounds with q̂ = 0, so `lo` is the kernel's sum.
        let pair = crate::engine::FlatPair::Gbt {
            lo: Box::new(flat.clone()),
            hi: Box::new(flat.clone()),
        };
        let model = ServeModel::from_parts(pair, 0.1, 0.0, None).unwrap();
        let served = model
            .serve_batch(&Matrix::from_vec(37, w, rows.clone()).unwrap(), 16)
            .unwrap();
        for (r, iv) in served.iter().enumerate() {
            let row = &rows[r * w..(r + 1) * w];
            let mut want = flat.base_score;
            for t in 0..flat.n_trees() {
                want += flat.tree_contribution(flat.roots[t] as usize, row);
            }
            assert_eq!(iv.lo().to_bits(), want.to_bits(), "row {r}");
        }
    }

    #[test]
    fn a_tree_over_pad_stride_or_a_wide_model_derives_only_the_packed_table() {
        let mut tables = Tables::new();
        tables.push_chain(PAD_STRIDE + 1, 2);
        let deep = tables.build(2);
        assert!(matches!(deep.kernel, GbtKernel::Packed { .. }));
        let mut tables = Tables::new();
        tables.push_chain(5, 2);
        let wide = tables.build(nar32(LANE_WIDTH + 1));
        assert!(matches!(wide.kernel, GbtKernel::Packed { .. }));
    }

    /// Sizes of a flattened ensemble's trees (fitted trees have no
    /// unreachable nodes) next to their window placement.
    fn layout(flat: &FlatGbt) -> Vec<(usize, WindowTree)> {
        let GbtKernel::Windowed { trees, .. } = &flat.kernel else {
            panic!("a depth-6 model of two features must be windowed");
        };
        flat.roots
            .windows(2)
            .map(|w| w[1] as usize - w[0] as usize)
            .zip(trees.iter().copied())
            .collect()
    }

    #[test]
    fn window_boundaries_serve_bit_identically_to_the_live_pair() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut draw = |n: usize| {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| vec![rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)])
                .collect();
            let y: Vec<f64> = rows
                .iter()
                .map(|r| 100.0 * r[0] + 10.0 * (3.0 * r[1]).sin() + rng.gen_range(-0.1..0.1))
                .collect();
            (Matrix::from_rows(&rows).unwrap(), y)
        };
        let (x_tr, y_tr) = draw(512);
        let (x_ca, y_ca) = draw(64);
        let (x_te, _) = draw(301);
        let tree = |lambda, gamma| TreeParams {
            max_depth: 6,
            lambda,
            gamma,
            ..TreeParams::default()
        };
        // Unregularized ramp fits grow full 127-node trees, which close
        // their window every second tree; the pruned fit shrinks to
        // single leaves that fill a window to the last slot and open the
        // next one.
        let full = GradientBoostParams {
            n_rounds: 8,
            learning_rate: 0.5,
            tree: tree(0.0, 0.0),
        };
        let pruned = GradientBoostParams {
            n_rounds: 300,
            learning_rate: 0.5,
            tree: tree(1.0, 100.0),
        };
        let mut cqr = Cqr::new(
            GradientBoost::with_params(Loss::Squared, full),
            GradientBoost::with_params(Loss::Squared, pruned),
            0.1,
        );
        cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
        let model = ServeModel::from_gbt_cqr(&cqr, None).unwrap();

        let crate::engine::FlatPair::Gbt { lo, hi } = &model.pair else {
            unreachable!("captured from a GBT pair")
        };
        let trees: Vec<(usize, WindowTree)> = layout(lo).into_iter().chain(layout(hi)).collect();
        assert!(
            trees.iter().any(|&(n, _)| n == PAD_STRIDE - 1),
            "no 127-node tree"
        );
        let closes = trees.windows(2).any(|p| {
            let ((n, a), (m, b)) = (p[0], p[1]);
            b.window == a.window + 1 && usize::from(a.root) + n + m > WINDOW_SLOTS && m > 1
        });
        assert!(closes, "no window closed by a tree that did not fit");
        assert!(
            trees
                .iter()
                .any(|&(n, t)| n == 1 && t.root == 0 && t.window > 0),
            "no single-leaf tree opens a window"
        );
        assert!(
            trees.iter().any(|&(n, t)| n == 1 && t.root > 0),
            "no single-leaf tree inside a window"
        );

        for block in [1, 7, 256] {
            let served = model.serve_batch(&x_te, block).unwrap();
            for (i, iv) in served.iter().enumerate() {
                let live = cqr.predict_interval(x_te.row(i)).unwrap();
                assert_eq!(
                    iv.lo().to_bits(),
                    live.lo().to_bits(),
                    "block {block}, row {i}"
                );
                assert_eq!(
                    iv.hi().to_bits(),
                    live.hi().to_bits(),
                    "block {block}, row {i}"
                );
            }
        }
    }
}
