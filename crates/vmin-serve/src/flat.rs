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
//!   bit clear) behave exactly as trained. See DESIGN.md §14 for how this
//!   composes with the training-time `split_at` semantics.
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

/// Rows walked in lockstep per tree by the batch kernel. Each row's walk
/// is a serial load→compare→load dependency chain; running [`GROUP`]
/// independent chains interleaved lets the CPU overlap their latencies.
pub(crate) const GROUP: usize = 8;

/// Repacks a row-major block into per-[`GROUP`] *lane-major* scratch:
/// group `g`, feature `f`, lane `j` lands at
/// `g·GROUP·width + f·GROUP + j`. Every lockstep chain then addresses its
/// row value off one shared base pointer (`feat · GROUP + j`, with `j` a
/// compile-time constant per unrolled chain) instead of keeping
/// [`GROUP`] per-row base pointers alive — which is the difference
/// between the kernel running out of registers and not. The transpose
/// runs once per block and is reused by every tree.
fn transpose_lanes(rows: &[f64], width: usize, groups: usize) -> Vec<f64> {
    let mut lanes = vec![0.0; groups * GROUP * width];
    for g in 0..groups {
        let rows_base = g * GROUP * width;
        for j in 0..GROUP {
            let row = &rows[rows_base + j * width..rows_base + (j + 1) * width];
            for (f, &v) in row.iter().enumerate() {
                lanes[rows_base + f * GROUP + j] = v;
            }
        }
    }
    lanes
}

/// Feature slots of the fixed-width lane layout ([`transpose_lanes_fixed`]).
/// Models at most this wide qualify for the fully bounds-check-free
/// kernel: a group's lanes become a `[u64; LANE_BLOCK]` array and the
/// lane index — an offset *byte* plus a constant `j < GROUP` — is
/// provably within it from its type alone, no masking needed.
pub(crate) const LANE_WIDTH: usize = 32;

/// Lane scratch per group in the fixed-width layout: [`LANE_WIDTH`]
/// feature slots of [`GROUP`] lanes, plus one spare [`GROUP`] so that a
/// pre-scaled offset byte (≤ 255) plus a lane index (`< GROUP`) is
/// provably in bounds with no masking.
pub(crate) const LANE_BLOCK: usize = LANE_WIDTH * GROUP + GROUP;

/// Maps a row value to a `u64` that compares (unsigned) in the same
/// strict order as the `f64` does under IEEE `<`: flip all bits of
/// negatives, set the sign bit of non-negatives. `-0.0` is folded into
/// `+0.0` first (IEEE treats them as equal, their raw bit patterns do
/// not), and NaN maps to `u64::MAX`, which sits above every threshold
/// key — so `key(v) < key(thr)` is false exactly when `v < thr` is,
/// NaN included. This is what lets [`FlatGbt::walk_group_fixed`] route
/// with one integer compare instead of an FP compare + flag
/// materialization.
#[inline]
fn lane_key(v: f64) -> u64 {
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

/// [`transpose_lanes`] with the feature axis padded to [`LANE_WIDTH`]
/// slots and every value pre-mapped through [`lane_key`]; the padding
/// slots are never read (every tested feature index is `< width`), they
/// only make the per-group extent a compile-time constant.
fn transpose_lanes_fixed(rows: &[f64], width: usize, groups: usize) -> Vec<u64> {
    let mut lanes = vec![0u64; groups * LANE_BLOCK];
    for g in 0..groups {
        for j in 0..GROUP {
            let row = &rows[(g * GROUP + j) * width..(g * GROUP + j + 1) * width];
            for (f, &v) in row.iter().enumerate() {
                lanes[g * LANE_BLOCK + f * GROUP + j] = lane_key(v);
            }
        }
    }
    lanes
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
/// `packed`, `value`, `packed_roots`, `depth` and the `*_pad` padded
/// tables are *derived* (not serialized): recomputed identically from
/// the node arrays on both
/// capture and artifact decode, so two models with equal serialized
/// arrays always carry equal kernels — equality compares only the
/// serialized fields.
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
    /// Derived: breadth-first renumbered nodes for the lockstep kernel.
    pub(crate) packed: Vec<PackedNode>,
    /// Derived: pre-scaled leaf payload per packed node (0 for splits),
    /// read once per walk at the final gather.
    pub(crate) value: Vec<f64>,
    /// Derived: packed-table root index per tree (reachable nodes only,
    /// so these can differ from `roots` on pathological inputs).
    pub(crate) packed_roots: Vec<u32>,
    /// Derived: per-tree maximum root→leaf depth in edges — the lockstep
    /// walk's unconditional iteration count.
    pub(crate) depth: Vec<u32>,
    /// Derived: [`PAD_TREE`]-strided tree-relative split thresholds as
    /// [`threshold_key`] sort keys (`0` for leaves and padding; empty
    /// when some tree exceeds [`PAD_STRIDE`] nodes, making the kernel
    /// fall back to `packed`).
    pub(crate) thr_pad: Vec<u64>,
    /// Derived: companion to `thr_pad` — one `u16` per node packing the
    /// tree-relative `<` child in the high byte and the *pre-scaled*
    /// lane offset `feat · GROUP` in the low byte. Both being single
    /// bytes is what makes the walk step bounds-check-free: a byte
    /// index (≤ 255, plus the `+ 1` right-child or `+ j` lane
    /// adjustment) is in range of the [`PAD_TREE`]- and
    /// [`LANE_BLOCK`]-sized arrays by construction.
    pub(crate) meta_pad: Vec<u16>,
    /// Derived: leaf payloads aligned with `thr_pad`/`meta_pad`.
    pub(crate) value_pad: Vec<f64>,
}

impl PartialEq for FlatGbt {
    fn eq(&self, other: &Self) -> bool {
        // Derived tables are a pure function of the serialized fields
        // (and `packed` holds NaN leaf sentinels, which would poison a
        // field-wise comparison), so equality is over serialized state.
        self.n_features == other.n_features
            && self.base_score == other.base_score
            && self.roots == other.roots
            && self.feature == other.feature
            && self.threshold == other.threshold
            && self.left == other.left
            && self.right == other.right
    }
}

/// One node as the lockstep kernel reads it — a 16-byte record so node
/// loads never straddle cache lines and each walk step costs one node
/// load plus one row load. Routing is arithmetic, not selected:
/// `next = left + (row[feat] < threshold ? 0 : 1)`, which works because
/// the breadth-first renumbering in [`derive_gbt_tables`] places every
/// split's right child at `left + 1`. Leaves store `threshold = NaN`
/// (every comparison routes right) and `left = self − 1`, so a parked
/// row keeps stepping to itself; their payload lives in the side `value`
/// table read at the final gather.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedNode {
    pub(crate) threshold: f64,
    pub(crate) feat: u32,
    pub(crate) left: u32,
}

/// The derived kernel tables of a GBT ensemble; see [`derive_gbt_tables`].
pub(crate) struct GbtKernelTables {
    pub(crate) packed: Vec<PackedNode>,
    pub(crate) value: Vec<f64>,
    pub(crate) roots: Vec<u32>,
    pub(crate) depth: Vec<u32>,
    pub(crate) thr_pad: Vec<u64>,
    pub(crate) meta_pad: Vec<u16>,
    pub(crate) value_pad: Vec<f64>,
}

/// Maximum reachable nodes per tree for the padded kernel tables —
/// always satisfied by the paper's depth ≤ 7 models. The bound matters
/// because it keeps every tree-relative child index a single *byte*,
/// which is what lets the kernel walk without any bounds checks.
pub(crate) const PAD_STRIDE: usize = 128;

/// Per-tree stride of the padded kernel tables. When every tree fits
/// (≤ [`PAD_STRIDE`] reachable nodes), tree `t` occupies exactly
/// `t·PAD_TREE..(t+1)·PAD_TREE` of `thr_pad`/`meta_pad`/`value_pad`
/// with *tree-relative* child indices and the root at slot 0. The batch
/// kernel views each tree as a `&[_; PAD_TREE]` array; since a walk
/// index is a child byte (≤ 255) plus at most 1, `PAD_TREE = 257`
/// makes every node access provably in bounds with no masking at all —
/// the compiler drops the per-step bounds check from the index type
/// alone. Deeper ensembles keep the unpadded absolute-index kernel.
pub(crate) const PAD_TREE: usize = 257;

/// Derivation-internal narrowing. Everything narrowed while deriving the
/// kernel tables was already bounds-validated by [`FlatGbt::compile`] or
/// the artifact decoder (node counts fit `u32`, padded tree positions
/// fit a byte), so the saturating fallback is unreachable — it only
/// keeps the derivation panic-free on arbitrary inputs.
#[inline]
fn nar32(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// See [`nar32`].
#[inline]
fn nar16(v: usize) -> u16 {
    u16::try_from(v).unwrap_or(u16::MAX)
}

/// Computes the derived kernel tables from validated node arrays by
/// renumbering each tree breadth-first: a split's children are enqueued
/// together, so in the packed table the right child always sits at
/// `left + 1` and the kernel routes with an add instead of a select.
/// The BFS touches each node at most once because validation rejects
/// tables where any node is referenced by more than one split
/// (`compile` and the artifact decoder both enforce this), and per-node
/// depth falls out of the same pass since parents are emitted before
/// their children.
pub(crate) fn derive_gbt_tables(
    roots: &[u32],
    feature: &[u32],
    threshold: &[f64],
    left: &[u32],
    right: &[u32],
) -> GbtKernelTables {
    let n_trees = roots.len() - 1;
    let mut packed = Vec::with_capacity(feature.len());
    let mut value = Vec::with_capacity(feature.len());
    let mut packed_roots = Vec::with_capacity(n_trees);
    let mut depth = Vec::with_capacity(n_trees);
    let mut thr_pad = Vec::with_capacity(n_trees * PAD_TREE);
    let mut meta_pad = Vec::with_capacity(n_trees * PAD_TREE);
    let mut value_pad = Vec::with_capacity(n_trees * PAD_TREE);
    let mut all_fit = true;
    let mut order: Vec<usize> = Vec::new();
    let mut new_of: Vec<u32> = Vec::new();
    let mut node_depth: Vec<u32> = Vec::new();
    for t in 0..n_trees {
        let (start, end) = (roots[t] as usize, roots[t + 1] as usize);
        let base = packed.len();
        packed_roots.push(nar32(base));
        order.clear();
        order.push(start);
        let mut head = 0;
        while head < order.len() {
            let i = order[head];
            head += 1;
            if feature[i] != LEAF {
                order.push(left[i] as usize);
                order.push(right[i] as usize);
            }
        }
        new_of.clear();
        new_of.resize(end - start, 0);
        for (k, &i) in order.iter().enumerate() {
            new_of[i - start] = nar32(base + k);
        }
        node_depth.clear();
        node_depth.resize(order.len(), 0);
        let mut max = 0u32;
        for (k, &i) in order.iter().enumerate() {
            if feature[i] == LEAF {
                packed.push(PackedNode {
                    threshold: f64::NAN,
                    feat: 0,
                    left: nar32((base + k).saturating_sub(1)),
                });
                value.push(threshold[i]);
                max = max.max(node_depth[k]);
            } else {
                let l = new_of[left[i] as usize - start];
                packed.push(PackedNode {
                    threshold: threshold[i],
                    feat: feature[i],
                    left: l,
                });
                value.push(0.0);
                let lk = l as usize - base;
                node_depth[lk] = node_depth[k] + 1;
                node_depth[lk + 1] = node_depth[k] + 1;
            }
        }
        depth.push(max);
        // Padded per-tree copy with tree-relative indices (root at 0),
        // for the bounds-check-free fixed-stride kernel. `meta` packs
        // the `<` child in the high byte and the lane offset
        // `feat · GROUP` in the low byte (both ≤ 255 when the tree fits
        // [`PAD_STRIDE`] nodes and the model fits [`LANE_WIDTH`]
        // features — the only configuration that runs this kernel).
        if all_fit && order.len() <= PAD_STRIDE {
            for (k, &i) in order.iter().enumerate() {
                if feature[i] == LEAF {
                    // Sentinel key 0: no lane key is unsigned-below it,
                    // so a parked row keeps stepping to `self − 1 + 1`.
                    thr_pad.push(0);
                    meta_pad.push(nar16(k.saturating_sub(1)) << 8);
                    value_pad.push(threshold[i]);
                } else {
                    let rel = nar16(new_of[left[i] as usize - start] as usize - base);
                    thr_pad.push(threshold_key(threshold[i]));
                    // `feat · GROUP ≤ 248` fits the byte for any
                    // `feat < LANE_WIDTH`. For models wider than that
                    // the saturated byte is garbage, but this kernel is
                    // then never selected (`accumulate_block` checks
                    // width).
                    let lane_off = u8::try_from(feature[i] as usize * GROUP).unwrap_or(0);
                    meta_pad.push((rel << 8) | u16::from(lane_off));
                    value_pad.push(0.0);
                }
            }
            for _ in order.len()..PAD_TREE {
                thr_pad.push(0);
                meta_pad.push(0);
                value_pad.push(0.0);
            }
        } else {
            all_fit = false;
        }
    }
    if !all_fit {
        thr_pad = Vec::new();
        meta_pad = Vec::new();
        value_pad = Vec::new();
    }
    GbtKernelTables {
        packed,
        value,
        roots: packed_roots,
        depth,
        thr_pad,
        meta_pad,
        value_pad,
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
        check_gbt_tables(n_features, &roots, &feature, &left, &right)
            .map_err(ServeError::InvalidModel)?;
        let tables = derive_gbt_tables(&roots, &feature, &threshold, &left, &right);
        Ok(FlatGbt {
            n_features,
            base_score: model.base_score(),
            roots,
            feature,
            threshold,
            left,
            right,
            packed: tables.packed,
            value: tables.value,
            packed_roots: tables.roots,
            depth: tables.depth,
            thr_pad: tables.thr_pad,
            meta_pad: tables.meta_pad,
            value_pad: tables.value_pad,
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
    /// `GradientTree::predict_row` performs, over the flat table.
    #[inline]
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

    /// [`GROUP`] rows walked through one tree in lockstep, every row for
    /// exactly `depth` unconditional iterations (early leaves self-loop).
    /// Each iteration issues [`GROUP`] independent load→compare→load
    /// chains, so the walk is bound by throughput, not chain latency —
    /// this interleaving is where the batch kernel's speed-up over
    /// per-chip dispatch comes from. Routing is branch-free arithmetic
    /// over the BFS-renumbered [`PackedNode`] table:
    /// `next = left + (row < threshold ? 0 : 1)`, which sends NaN right
    /// exactly like the live walk and parks leaf-bound rows on the
    /// leaf's NaN-threshold self-loop.
    // `!(v < thr)` is NOT `v >= thr`: NaN (row value or leaf sentinel)
    // must take the right/self branch, and only the negation does that.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn walk_group(&self, t: usize, lanes: &[f64], out: &mut [f64]) {
        let root = self.packed_roots[t] as usize;
        let nodes = self.packed.as_slice();
        let mut idx = [root; GROUP];
        for _ in 0..self.depth[t] {
            for (j, slot) in idx.iter_mut().enumerate() {
                let n = nodes[*slot];
                let v = lanes[n.feat as usize * GROUP + j];
                *slot = n.left as usize + usize::from(!(v < n.threshold));
            }
        }
        for (acc, i) in out.iter_mut().zip(idx) {
            *acc += self.value[i];
        }
    }

    /// The fully bounds-check-free walk over the [`PAD_TREE`]-strided
    /// struct-of-arrays tables and [`LANE_BLOCK`]-sized lane scratch.
    /// No index is ever masked: a walk position is a child *byte* (from
    /// `meta`'s high byte) plus at most 1, so it is `< PAD_TREE = 257`
    /// by its type, and a lane index is a pre-scaled offset byte plus a
    /// constant `j < GROUP`, so it is `< LANE_BLOCK`. Because both the
    /// lane values and the thresholds are [`lane_key`]/[`threshold_key`]
    /// sort keys, routing is one *unsigned integer* compare whose carry
    /// feeds the child-index add directly (cmp + sbb on x86) — no FP
    /// compare, no flag materialization — bringing a step down to
    /// 6 fused µops / 3 loads on a 4-wide core, which is what bounds
    /// the whole batch. This is the kernel production-scale models
    /// actually run (depth ≤ 7, ≤ [`LANE_WIDTH`] features).
    /// The walk is monomorphized per tree depth (`D` is the loop bound)
    /// so the level loop fully unrolls: no live loop counter, no
    /// end-of-iteration register shuffle, and all [`GROUP`] walk
    /// positions stay in registers instead of spilling. Trees deeper
    /// than the dispatch table (pathological chains — never produced by
    /// the paper's depth ≤ 7 fits) take the runtime-depth twin below.
    /// One tree's padded tables as fixed-size arrays — the [`PAD_TREE`]
    /// stride means `as_chunks` lands tree `t` exactly at chunk `t`, and
    /// the array types carry the length proof the walk's bounds elision
    /// rests on.
    #[inline]
    fn padded_tree(&self, t: usize) -> (&[u64; PAD_TREE], &[u16; PAD_TREE], &[f64; PAD_TREE]) {
        (
            &self.thr_pad.as_chunks::<PAD_TREE>().0[t],
            &self.meta_pad.as_chunks::<PAD_TREE>().0[t],
            &self.value_pad.as_chunks::<PAD_TREE>().0[t],
        )
    }

    #[inline]
    fn walk_group_fixed<const D: usize>(
        &self,
        t: usize,
        lanes: &[u64; LANE_BLOCK],
        out: &mut [f64],
    ) {
        let (thr, meta, values) = self.padded_tree(t);
        let mut idx = [0usize; GROUP];
        for _ in 0..D {
            walk_step(meta, thr, lanes, &mut idx);
        }
        for (acc, i) in out.iter_mut().zip(idx) {
            *acc += values[i];
        }
    }

    /// Runtime-depth twin of [`Self::walk_group_fixed`] for trees deeper
    /// than the const dispatch covers.
    #[inline]
    fn walk_group_fixed_deep(&self, t: usize, lanes: &[u64; LANE_BLOCK], out: &mut [f64]) {
        let (thr, meta, values) = self.padded_tree(t);
        let mut idx = [0usize; GROUP];
        for _ in 0..self.depth[t] {
            walk_step(meta, thr, lanes, &mut idx);
        }
        for (acc, i) in out.iter_mut().zip(idx) {
            *acc += values[i];
        }
    }

    /// Batch kernel over a gathered row block (`rows` is row-major,
    /// `out.len()` rows of `width` columns). Full [`GROUP`]s are first
    /// repacked lane-major by [`transpose_lanes`]; trees then run in the
    /// outer loop so each tree's tables stay cache-hot across the whole
    /// block (the scalar walk mops up the remainder rows). Each row still
    /// accumulates its contributions in tree order, so every `out[j]`
    /// carries the same bits as the live `GradientBoost::predict_row` on
    /// row `j` — the transpose moves values, never changes or reorders the
    /// arithmetic.
    pub(crate) fn accumulate_block(&self, rows: &[f64], width: usize, out: &mut [f64]) {
        debug_assert_eq!(rows.len(), width * out.len());
        out.fill(self.base_score);
        let groups = out.len() / GROUP;
        let tail = groups * GROUP;
        let fixed = !self.thr_pad.is_empty() && width <= LANE_WIDTH;
        if fixed {
            let lanes = transpose_lanes_fixed(rows, width, groups);
            let lane_groups = lanes.as_chunks::<LANE_BLOCK>().0;
            for t in 0..self.n_trees() {
                for (g, group_lanes) in lane_groups.iter().enumerate() {
                    let start = g * GROUP;
                    let group_out = &mut out[start..start + GROUP];
                    // Depth dispatch is per tree, so this match is
                    // perfectly predicted within the group loop.
                    match self.depth[t] as usize {
                        0 => self.walk_group_fixed::<0>(t, group_lanes, group_out),
                        1 => self.walk_group_fixed::<1>(t, group_lanes, group_out),
                        2 => self.walk_group_fixed::<2>(t, group_lanes, group_out),
                        3 => self.walk_group_fixed::<3>(t, group_lanes, group_out),
                        4 => self.walk_group_fixed::<4>(t, group_lanes, group_out),
                        5 => self.walk_group_fixed::<5>(t, group_lanes, group_out),
                        6 => self.walk_group_fixed::<6>(t, group_lanes, group_out),
                        7 => self.walk_group_fixed::<7>(t, group_lanes, group_out),
                        8 => self.walk_group_fixed::<8>(t, group_lanes, group_out),
                        _ => self.walk_group_fixed_deep(t, group_lanes, group_out),
                    }
                }
                self.accumulate_tail(t, rows, width, tail, out);
            }
        } else {
            let lanes = transpose_lanes(rows, width, groups);
            for t in 0..self.n_trees() {
                for g in 0..groups {
                    let start = g * GROUP;
                    let group_lanes = &lanes[start * width..(start + GROUP) * width];
                    self.walk_group(t, group_lanes, &mut out[start..start + GROUP]);
                }
                self.accumulate_tail(t, rows, width, tail, out);
            }
        }
    }

    /// Scalar mop-up for the `out.len() % GROUP` rows past the last full
    /// group, keeping their tree-order accumulation identical to the
    /// lockstep rows'.
    #[inline]
    fn accumulate_tail(&self, t: usize, rows: &[f64], width: usize, tail: usize, out: &mut [f64]) {
        let root = self.roots[t] as usize;
        for (acc, row) in out[tail..]
            .iter_mut()
            .zip(rows[tail * width..].chunks_exact(width))
        {
            *acc += self.tree_contribution(root, row);
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

    /// One tree's pre-scaled leaf for one row: the comparison bitmask of
    /// `ObliviousTree::leaf_index`, rebuilt branch-free.
    #[inline]
    fn tree_contribution(&self, t: usize, row: &[f64]) -> f64 {
        let lo = self.level_off[t] as usize;
        let hi = self.level_off[t + 1] as usize;
        let mut idx = 0usize;
        for (bit, k) in (lo..hi).enumerate() {
            let test = row[self.level_feat[k] as usize] > self.level_thr[k];
            idx |= usize::from(test) << bit;
        }
        self.lut[self.lut_off[t] as usize + idx]
    }

    /// Batch kernel over a gathered row block; see
    /// [`FlatGbt::accumulate_block`] for the layout and exactness notes.
    /// Levels run in the outer loop over each [`GROUP`]-row group, so one
    /// `(feature, threshold)` pair is broadcast across all rows — and in
    /// the lane-major scratch the [`GROUP`] compared values sit
    /// contiguously, so the comparisons vectorize. Only the final LUT
    /// load depends on a row's accumulated bitmask.
    pub(crate) fn accumulate_block(&self, rows: &[f64], width: usize, out: &mut [f64]) {
        debug_assert_eq!(rows.len(), width * out.len());
        out.fill(self.base_score);
        let groups = out.len() / GROUP;
        let tail = groups * GROUP;
        let lanes = transpose_lanes(rows, width, groups);
        for t in 0..self.n_trees() {
            let (ls, le) = (self.level_off[t] as usize, self.level_off[t + 1] as usize);
            let off = self.lut_off[t] as usize;
            for g in 0..groups {
                let start = g * GROUP;
                let group_lanes = &lanes[start * width..(start + GROUP) * width];
                let mut idx = [0usize; GROUP];
                for (bit, k) in (ls..le).enumerate() {
                    let f = self.level_feat[k] as usize;
                    let thr = self.level_thr[k];
                    for (j, slot) in idx.iter_mut().enumerate() {
                        *slot |= usize::from(group_lanes[f * GROUP + j] > thr) << bit;
                    }
                }
                for (acc, i) in out[start..start + GROUP].iter_mut().zip(idx) {
                    *acc += self.lut[off + i];
                }
            }
            for (acc, row) in out[tail..]
                .iter_mut()
                .zip(rows[tail * width..].chunks_exact(width))
            {
                *acc += self.tree_contribution(t, row);
            }
        }
    }
}
