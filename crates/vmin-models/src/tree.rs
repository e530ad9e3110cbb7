//! Regression trees trained on per-sample gradients — the weak learner of
//! the XGBoost-style booster.
//!
//! Splits are found by histogram-binned search (see `hist.rs`): at each
//! node, every feature's gradient/count histogram is scanned and every
//! boundary between occupied bins is scored by the standard second-order
//! gain
//!
//! ```text
//! gain = ½ [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ
//! ```
//!
//! and the leaf weight is the Newton step `w = −G/(H+λ)`. Both losses have
//! unit Hessians, so `H` is a row count. The exact greedy search over
//! sorted values survives as the `#[cfg(test)]` oracle module `exact`.

use crate::hist::{best_boundary_gbt, subtract_sibling, FeatHist, HistBinned, HistScratch};
use vmin_linalg::Matrix;

/// Regularization and shape limits for a single tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum sum of Hessians on each side of a split.
    pub min_child_weight: f64,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Minimum gain γ required to keep a split.
    pub gamma: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        // XGBoost defaults.
        TreeParams {
            max_depth: 6,
            min_child_weight: 1.0,
            lambda: 1.0,
            gamma: 0.0,
        }
    }
}

/// One node of a flattened tree.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Read-only view of one stored tree node, exposed so inference compilers
/// (`vmin-serve`) can flatten fitted ensembles into table form without
/// reaching into the private [`GradientTree`] layout.
///
/// Indices are positions in the tree's node vector: the root is node 0 and
/// every fit path pushes a split before its children, so `left`/`right`
/// always point at strictly higher indices than the split itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeView {
    /// Terminal node.
    Leaf {
        /// Newton leaf weight, added (× learning rate) to the ensemble score.
        weight: f64,
    },
    /// Internal split; rows with `row[feature] < threshold` route `left`,
    /// everything else (including NaN, which fails the `<`) routes `right`.
    Split {
        /// Feature column tested.
        feature: usize,
        /// Split threshold (strict `<` goes left).
        threshold: f64,
        /// Node index of the `<` child.
        left: usize,
        /// Node index of the `≥` child.
        right: usize,
    },
}

/// A fitted gradient tree.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientTree {
    nodes: Vec<Node>,
}

impl GradientTree {
    /// Fits a tree over **all** rows of `x` by histogram-binned split
    /// finding (PR 7): node statistics are ≤256-bin per-feature
    /// gradient/count histograms, children reuse their parent's via the
    /// sibling-subtraction trick, and each node scans bin boundaries
    /// instead of sorted values. Same gain formula, `min_child_weight`
    /// gate, strict-`>` tie rules, node push order, and Newton leaf
    /// weights as the exact oracle (`GradientTree::fit`, test builds
    /// only); thresholds are the smallest training value above each
    /// boundary so training rows route exactly as scored (see `hist.rs`
    /// for the binning contract). Not bit-identical to the exact scan —
    /// candidate thresholds are quantile-binned — but bit-identical to
    /// itself at any thread count.
    ///
    /// Every Hessian is taken to be `1.0` (both losses have unit
    /// Hessians), so a node's Hessian sum is its row count.
    ///
    /// # Panics
    ///
    /// Panics if `grad`'s length differs from `x.rows()`, `x` is empty,
    /// or `hb` was built for a different feature count.
    pub(crate) fn fit_hist(
        x: &Matrix,
        grad: &[f64],
        params: &TreeParams,
        hb: &HistBinned,
        scratch: &mut HistScratch,
    ) -> Self {
        assert_eq!(x.rows(), grad.len(), "tree: grad length mismatch");
        assert!(x.rows() > 0, "tree: empty sample subset");
        assert_eq!(hb.n_features(), x.cols(), "tree: bin table shape mismatch");
        vmin_trace::counter_add("models.tree.fits", 1);
        let n = x.rows();
        let mut rows: Vec<u32> = (0..n as u32).collect();
        let mut tmp: Vec<u32> = vec![0; n];
        let mut root_hist = scratch.take();
        hb.accumulate_into(&rows, grad, hist_min_feats(n), &mut root_hist);
        let mut nodes = Vec::new();
        build_hist(
            grad, params, hb, 0, &mut rows, 0, n, root_hist, &mut tmp, &mut nodes, scratch,
        );
        vmin_trace::counter_add("models.tree.nodes", nodes.len() as u64);
        GradientTree { nodes }
    }

    /// Predicted weight for a feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of stored nodes (the root is node 0).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Read-only node-table view in storage order, for flattening the tree
    /// into external inference tables. The view carries exactly the state
    /// [`Self::predict_row`] consults — same thresholds, same child
    /// indices — so a table replaying `row[feature] < threshold` walks
    /// reaches bit-identical leaves.
    pub fn nodes(&self) -> Vec<NodeView> {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Leaf { weight } => NodeView::Leaf { weight: *weight },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => NodeView::Split {
                    feature: *feature,
                    threshold: *threshold,
                    left: *left,
                    right: *right,
                },
            })
            .collect()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum depth actually realized.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        depth_of(&self.nodes, 0)
    }
}

/// Minimum rows at a node before the split search considers spawning
/// feature workers; below it a per-feature pass is too cheap to amortize a
/// thread.
const PAR_MIN_NODE_ROWS: usize = 128;

/// Parallel gating for the histogram passes: per-feature work below
/// `PAR_MIN_NODE_ROWS` rows is too small to amortize a spawn.
fn hist_min_feats(n_node: usize) -> usize {
    if n_node >= PAR_MIN_NODE_ROWS {
        crate::hist::PAR_MIN_FEATURES
    } else {
        usize::MAX
    }
}

/// [`build`] over bin histograms `[lo, hi)` of the shared `rows` buffer;
/// returns the new node's index. Mirrors the seed recursion: ascending-row
/// `g_sum`, same stop conditions, same node push order; the Hessian sum is
/// the row count (unit Hessians). The node's own histograms arrive by
/// value; after the stable bin partition only the smaller child is
/// re-accumulated and the larger one is derived in place from the parent
/// (`models.hist.child_*` counters track both halves). Histograms a node is
/// done with retire into `scratch`, which zeroes their marked bins, so
/// every buffer comes back clean and steady-state growth is
/// allocation-free and zero-fill-free across nodes *and* rounds (the
/// boosted loop owns the scratch).
#[allow(clippy::too_many_arguments)]
fn build_hist(
    grad: &[f64],
    params: &TreeParams,
    hb: &HistBinned,
    depth: usize,
    rows: &mut [u32],
    lo: usize,
    hi: usize,
    hist: Vec<FeatHist>,
    tmp: &mut [u32],
    nodes: &mut Vec<Node>,
    scratch: &mut HistScratch,
) -> usize {
    let g_sum: f64 = rows[lo..hi].iter().map(|&i| grad[i as usize]).sum();
    let n_node = hi - lo;
    let h_sum = n_node as f64;
    let make_leaf = |nodes: &mut Vec<Node>| {
        let weight = -g_sum / (h_sum + params.lambda);
        nodes.push(Node::Leaf { weight });
        nodes.len() - 1
    };

    if depth >= params.max_depth || n_node < 2 {
        scratch.retire(hist);
        return make_leaf(nodes);
    }

    let parent_score = g_sum * g_sum / (h_sum + params.lambda);
    vmin_trace::counter_add("models.tree.split_scans", 1);
    let hist_ref = &hist;
    let per_feature = vmin_par::par_map(&hb.features, hist_min_feats(n_node), |_, &f| {
        best_boundary_gbt(
            &hist_ref[f],
            &hb.split_at[f],
            g_sum,
            h_sum,
            n_node as u32,
            parent_score,
            params.min_child_weight,
            params.lambda,
            params.gamma,
            f,
        )
    });
    let mut best: Option<(f64, usize, usize, f64)> = None; // (gain, feature, boundary, threshold)
    for (cand, visited) in per_feature {
        scratch.bins_scanned += visited;
        if let Some(cand) = cand {
            if cand.0 > best.map_or(0.0, |(g, ..)| g) {
                best = Some(cand);
            }
        }
    }
    let Some((_, feature, boundary, threshold)) = best else {
        scratch.retire(hist);
        return make_leaf(nodes);
    };

    // Stable partition by bin — the exact row sets the histograms scored
    // (the stored threshold reproduces this routing on training rows).
    let bins = &hb.binned.bin_of[feature];
    let mut write = lo;
    let mut spill = 0usize;
    for r in lo..hi {
        let i = rows[r];
        if (bins[i as usize] as usize) <= boundary {
            rows[write] = i;
            write += 1;
        } else {
            tmp[spill] = i;
            spill += 1;
        }
    }
    rows[write..hi].copy_from_slice(&tmp[..spill]);
    let mid = write;

    let left_smaller = (mid - lo) <= (hi - mid);
    let (s_lo, s_hi) = if left_smaller { (lo, mid) } else { (mid, hi) };
    let mut small = scratch.take();
    hb.accumulate_into(
        &rows[s_lo..s_hi],
        grad,
        hist_min_feats(s_hi - s_lo),
        &mut small,
    );
    vmin_trace::counter_add("models.hist.child_accumulated", 1);
    let large = subtract_sibling(hist, &small);
    vmin_trace::counter_add("models.hist.child_subtracted", 1);
    let (left_hist, right_hist) = if left_smaller {
        (small, large)
    } else {
        (large, small)
    };

    let my_idx = nodes.len();
    nodes.push(Node::Leaf { weight: 0.0 }); // placeholder
    let left = build_hist(
        grad,
        params,
        hb,
        depth + 1,
        rows,
        lo,
        mid,
        left_hist,
        tmp,
        nodes,
        scratch,
    );
    let right = build_hist(
        grad,
        params,
        hb,
        depth + 1,
        rows,
        mid,
        hi,
        right_hist,
        tmp,
        nodes,
        scratch,
    );
    nodes[my_idx] = Node::Split {
        feature,
        threshold,
        left,
        right,
    };
    my_idx
}

/// Test oracle: the exact greedy builder the histogram path replaced,
/// verbatim apart from its trace calls. At each node every feature's
/// values are sorted and every boundary between distinct values is scored;
/// the GBT oracle `GradientBoost::fit_exact` grows every round with it.
#[cfg(test)]
mod exact {
    use super::{GradientTree, Node, TreeParams, PAR_MIN_NODE_ROWS};
    use vmin_linalg::Matrix;

    impl GradientTree {
        /// Fits a tree to gradients `grad` and Hessians `hess` over the sample
        /// subset `rows` of `x`.
        ///
        /// # Panics
        ///
        /// Panics if `grad`/`hess` lengths differ from `x.rows()` or `rows` is
        /// empty.
        pub(crate) fn fit(
            x: &Matrix,
            grad: &[f64],
            hess: &[f64],
            rows: &[usize],
            params: &TreeParams,
        ) -> Self {
            assert_eq!(x.rows(), grad.len(), "tree: grad length mismatch");
            assert_eq!(x.rows(), hess.len(), "tree: hess length mismatch");
            assert!(!rows.is_empty(), "tree: empty sample subset");
            let mut nodes = Vec::new();
            build(x, grad, hess, rows, params, 0, &mut nodes);
            GradientTree { nodes }
        }
    }

    /// Minimum features per node for a parallel split search. Raised above the
    /// paper-scale feature count (6): BENCH_PR5.json showed threads2 *slower*
    /// than threads1 on small inputs, so per-feature scans over a handful of
    /// microsecond-sized columns stay serial and the campaign/fold level
    /// carries the parallelism.
    const PAR_MIN_FEATURES: usize = 8;

    /// Best split candidate `(gain, feature, threshold)` for one feature,
    /// scanning boundaries in sorted order with the serial search's exact tie
    /// rule (strict `>` against a 0.0 floor keeps the earliest maximal gain).
    #[allow(clippy::too_many_arguments)]
    fn best_split_for_feature(
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        params: &TreeParams,
        g_sum: f64,
        h_sum: f64,
        parent_score: f64,
        feature: usize,
    ) -> Option<(f64, usize, f64)> {
        let mut sorted: Vec<usize> = rows.to_vec();
        sorted.sort_by(|&a, &b| x[(a, feature)].total_cmp(&x[(b, feature)]));
        let mut best: Option<(f64, usize, f64)> = None;
        let mut gl = 0.0;
        let mut hl = 0.0;
        for w in 0..sorted.len() - 1 {
            let i = sorted[w];
            gl += grad[i];
            hl += hess[i];
            let v = x[(i, feature)];
            let v_next = x[(sorted[w + 1], feature)];
            if v_next <= v {
                continue; // no boundary between identical values
            }
            let gr = g_sum - gl;
            let hr = h_sum - hl;
            if hl < params.min_child_weight || hr < params.min_child_weight {
                continue;
            }
            let gain = 0.5
                * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda) - parent_score)
                - params.gamma;
            if gain > best.map_or(0.0, |(g, _, _)| g) {
                best = Some((gain, feature, 0.5 * (v + v_next)));
            }
        }
        best
    }

    /// Recursively grows the tree; returns the new node's index.
    fn build(
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        params: &TreeParams,
        depth: usize,
        nodes: &mut Vec<Node>,
    ) -> usize {
        let g_sum: f64 = rows.iter().map(|&i| grad[i]).sum();
        let h_sum: f64 = rows.iter().map(|&i| hess[i]).sum();
        let make_leaf = |nodes: &mut Vec<Node>| {
            let weight = -g_sum / (h_sum + params.lambda);
            nodes.push(Node::Leaf { weight });
            nodes.len() - 1
        };

        if depth >= params.max_depth || rows.len() < 2 {
            return make_leaf(nodes);
        }

        // Exact greedy split search: per-feature candidates in parallel, then a
        // cross-feature reduce in ascending feature order. Both stages use the
        // same strict `>` with a 0.0 floor as the serial scan, so the winner is
        // identical to serial at any thread count.
        let parent_score = g_sum * g_sum / (h_sum + params.lambda);
        let features: Vec<usize> = (0..x.cols()).collect();
        let min_feats = if rows.len() >= PAR_MIN_NODE_ROWS {
            PAR_MIN_FEATURES
        } else {
            usize::MAX // tiny node: always serial
        };
        let per_feature = vmin_par::par_map(&features, min_feats, |_, &feature| {
            best_split_for_feature(
                x,
                grad,
                hess,
                rows,
                params,
                g_sum,
                h_sum,
                parent_score,
                feature,
            )
        });
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        for cand in per_feature.into_iter().flatten() {
            if cand.0 > best.map_or(0.0, |(g, _, _)| g) {
                best = Some(cand);
            }
        }

        match best {
            None => make_leaf(nodes),
            Some((_, feature, threshold)) => {
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&i| x[(i, feature)] < threshold);
                // Reserve this node's slot, then build children.
                let my_idx = nodes.len();
                nodes.push(Node::Leaf { weight: 0.0 }); // placeholder
                let left = build(x, grad, hess, &left_rows, params, depth + 1, nodes);
                let right = build(x, grad, hess, &right_rows, params, depth + 1, nodes);
                nodes[my_idx] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                my_idx
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitplan::BinnedDataset;
    use crate::hist::gbt_border_cap;
    use std::sync::Arc;

    /// Squared-loss gradients for current prediction 0: g = −y (h = 1).
    fn grads_for(y: &[f64]) -> Vec<f64> {
        y.iter().map(|v| -v).collect()
    }

    /// Grows one tree over every row of `x` on the bin table a boosted fit
    /// over `x` would build.
    fn fit(x: &Matrix, grad: &[f64], params: &TreeParams) -> GradientTree {
        let binned = BinnedDataset::compute(x, gbt_border_cap(x.rows())).unwrap();
        let hb = HistBinned::build(x, Arc::new(binned));
        GradientTree::fit_hist(x, grad, params, &hb, &mut HistScratch::default())
    }

    #[test]
    fn splits_a_step_function() {
        let x = Matrix::from_rows(&[
            vec![0.0],
            vec![1.0],
            vec![2.0],
            vec![10.0],
            vec![11.0],
            vec![12.0],
        ])
        .unwrap();
        let y = [0.0, 0.0, 0.0, 5.0, 5.0, 5.0];
        let g = grads_for(&y);
        let tree = fit(&x, &g, &TreeParams::default());
        // With λ=1 leaves shrink towards zero: 3 samples of 5.0 → 15/4.
        let right = tree.predict_row(&[11.0]);
        assert!((right - 15.0 / 4.0).abs() < 1e-9, "got {right}");
        let left = tree.predict_row(&[1.0]);
        assert!(left.abs() < 1e-9);
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn respects_max_depth_zero() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let g = grads_for(&[0.0, 10.0]);
        let params = TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        };
        let tree = fit(&x, &g, &params);
        assert_eq!(tree.n_leaves(), 1);
        // Single leaf = −G/(H+λ) = 10/3.
        assert!((tree.predict_row(&[0.0]) - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn min_child_weight_blocks_tiny_splits() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let g = grads_for(&[0.0, 0.0, 100.0]);
        let params = TreeParams {
            min_child_weight: 2.0,
            ..TreeParams::default()
        };
        let tree = fit(&x, &g, &params);
        // Only the 2-vs-1 split at x<1.5 … both children need H ≥ 2, so the
        // only legal split is {0,1}|{2}: H_R = 1 < 2 → no split at all.
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn identical_feature_values_never_split() {
        let x = Matrix::from_rows(&[vec![3.0], vec![3.0], vec![3.0]]).unwrap();
        let g = grads_for(&[1.0, 2.0, 3.0]);
        let tree = fit(&x, &g, &TreeParams::default());
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn gamma_prunes_weak_splits() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let g = grads_for(&[0.0, 0.1, 0.0, 0.1]);
        let strict = TreeParams {
            gamma: 10.0,
            ..TreeParams::default()
        };
        let tree = fit(&x, &g, &strict);
        assert_eq!(tree.n_leaves(), 1, "γ=10 should prune everything");
    }

    #[test]
    fn deeper_trees_fit_and_patterns() {
        // y = 1 iff both coordinates > 0.5 — needs depth 2 (one split per
        // feature). Note a greedy tree cannot split XOR (zero first-level
        // gain); that is a known exact-greedy property, resolved in boosting
        // by later trees, so AND is the right single-tree depth test.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ])
        .unwrap();
        let y = [0.0, 0.0, 0.0, 1.0];
        let g = grads_for(&y);
        let params = TreeParams {
            max_depth: 2,
            lambda: 0.0,
            min_child_weight: 0.5,
            ..TreeParams::default()
        };
        let tree = fit(&x, &g, &params);
        for (row, target) in [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 0.0),
            ([1.0, 0.0], 0.0),
            ([1.0, 1.0], 1.0),
        ] {
            assert!(
                (tree.predict_row(&row) - target).abs() < 1e-9,
                "and-pattern at {row:?}: got {}",
                tree.predict_row(&row)
            );
        }
    }
}
