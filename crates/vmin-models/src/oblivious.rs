//! CatBoost-style boosting on *oblivious* (symmetric) decision trees.
//!
//! An oblivious tree applies the same `(feature, threshold)` test at every
//! node of a level, so a depth-`d` tree is just `d` tests and `2^d` leaves —
//! the defining CatBoost structure. Candidate thresholds come from
//! quantile-binned feature borders, and leaf values are Newton steps with an
//! L2 penalty (`l2_leaf_reg`, CatBoost default 3).
//!
//! The paper reduces CatBoost's tree count from 1000 to 100 for its
//! 156-chip dataset (§IV-C3); that is the default here too.

use crate::fitplan::{validate_border_count, BinnedDataset, FitPlan};
use crate::hist::RoundMemo;
use crate::traits::{validate_training, Loss, ModelError, Regressor, Result};
use vmin_linalg::Matrix;

/// Rows per parallel work unit for element-wise per-round passes.
const ROUND_ROW_BLOCK: usize = 256;

/// Hyperparameters of the oblivious booster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObliviousBoostParams {
    /// Number of boosting iterations (trees). Paper uses 100.
    pub n_rounds: usize,
    /// Shrinkage applied to each tree.
    pub learning_rate: f64,
    /// Tree depth (number of oblivious levels).
    pub depth: usize,
    /// L2 regularization on leaf values (CatBoost `l2_leaf_reg`).
    pub l2_leaf_reg: f64,
    /// Number of quantile borders per feature.
    pub border_count: usize,
    /// Initialize predictions from the target mean (CatBoost's
    /// `boost_from_average` behaviour) rather than the loss-optimal
    /// constant.
    ///
    /// This matters for quantile losses on small data: starting both the
    /// `α/2` and `1−α/2` models at the mean and moving them by small,
    /// heavily regularized steps makes the raw QR band collapse to a few mV
    /// around the conditional center — exactly the pathological "QR
    /// CatBoost" behaviour Table III of the paper reports (1–2 mV bands,
    /// 10–25% coverage) that CQR then repairs.
    pub boost_from_mean: bool,
}

impl Default for ObliviousBoostParams {
    fn default() -> Self {
        ObliviousBoostParams {
            n_rounds: 100,
            learning_rate: 0.1,
            depth: 6,
            l2_leaf_reg: 3.0,
            border_count: 32,
            boost_from_mean: true,
        }
    }
}

/// One fitted oblivious tree: `levels[k]` is the test applied at depth `k`;
/// the leaf index is the bit pattern of test outcomes.
#[derive(Debug, Clone, PartialEq)]
struct ObliviousTree {
    levels: Vec<(usize, f64)>,
    leaf_values: Vec<f64>,
}

impl ObliviousTree {
    fn leaf_index(&self, row: &[f64]) -> usize {
        let mut idx = 0usize;
        for (bit, &(feature, threshold)) in self.levels.iter().enumerate() {
            if row[feature] > threshold {
                idx |= 1 << bit;
            }
        }
        idx
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.leaf_values[self.leaf_index(row)]
    }
}

/// One tree's raw tables as borrowed by [`ObliviousBoost::tree_tables`]:
/// the `(feature, threshold)` level tests and the `2^levels` leaf values.
pub type TreeTable<'a> = (&'a [(usize, f64)], &'a [f64]);

/// CatBoost-like regressor with oblivious trees and a pluggable loss.
///
/// # Examples
///
/// ```
/// use vmin_models::{Loss, ObliviousBoost, Regressor};
/// use vmin_linalg::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
/// let mut cb = ObliviousBoost::new(Loss::Squared);
/// cb.fit(&x, &[0.0, 1.0, 4.0, 9.0])?;
/// assert!(cb.predict_row(&[2.5])?.is_finite());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ObliviousBoost {
    params: ObliviousBoostParams,
    loss: Loss,
    base_score: f64,
    trees: Vec<ObliviousTree>,
    n_features: usize,
}

impl ObliviousBoost {
    /// Booster with default (paper-matching) hyperparameters.
    pub fn new(loss: Loss) -> Self {
        Self::with_params(loss, ObliviousBoostParams::default())
    }

    /// Booster with explicit hyperparameters.
    pub fn with_params(loss: Loss, params: ObliviousBoostParams) -> Self {
        ObliviousBoost {
            params,
            loss,
            base_score: 0.0,
            trees: Vec::new(),
            n_features: 0,
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The training loss.
    pub fn loss(&self) -> Loss {
        self.loss
    }

    /// The hyperparameters the booster was built with.
    pub fn params(&self) -> &ObliviousBoostParams {
        &self.params
    }

    /// The fitted base score (0 before fitting).
    pub fn base_score(&self) -> f64 {
        self.base_score
    }

    /// Number of features the model was fitted on (0 before fitting).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Per-tree `(levels, leaf_values)` tables in boosting order, exposed
    /// so inference compilers (`vmin-serve`) can turn each tree into a
    /// `2^depth` leaf lookup table. `levels[k] = (feature, threshold)` sets
    /// bit `k` of the leaf index when `row[feature] > threshold` — exactly
    /// the walk `predict_row` performs — and `leaf_values` is indexed by
    /// that bitmask. A tree may carry fewer levels than the configured
    /// depth when a round ran out of usable borders.
    pub fn tree_tables(&self) -> Vec<TreeTable<'_>> {
        self.trees
            .iter()
            .map(|t| (t.levels.as_slice(), t.leaf_values.as_slice()))
            .collect()
    }

    /// Shape/hyperparameter checks, run before the plan is asked for bins.
    fn validate(&self, x: &Matrix, y: &[f64]) -> Result<()> {
        validate_training(x, y)?;
        self.loss.validate()?;
        crate::hist::check_row_count(x.rows())?;
        if self.params.depth == 0 || self.params.depth > 16 {
            return Err(ModelError::InvalidInput(format!(
                "oblivious depth must be in 1..=16, got {}",
                self.params.depth
            )));
        }
        // The bin table stores indices as u8: reject border counts that
        // would silently wrap instead of producing corrupt histograms.
        validate_border_count(self.params.border_count)
    }

    /// The boosting loop over the plan's binned dataset.
    ///
    /// Histogram-binned: rows live in a leaf-major permutation
    /// ([`crate::hist::ObliviousHistState`]) so each level scan touches
    /// only occupied bins, per-leaf Hessian totals collapse to row counts
    /// (both losses have unit Hessians — the exhaustive match below forces
    /// a revisit if that ever changes), leaf denominators come from a
    /// `1/(count + l2)` table, and right-side totals derive from the
    /// parent by subtraction. Levels, leaf values (Newton steps for squared
    /// loss, CatBoost's "Exact" within-leaf quantile for pinball), and tie
    /// rules mirror the exact test oracle (`fit_exact`); outputs are *not*
    /// bit-identical to it (different summation shapes) but are
    /// bit-identical to themselves at any thread count. Pinball rounds
    /// whose gradient class repeats an earlier round's replay that round's
    /// splits instead of searching (the round memo, DESIGN.md §12).
    fn fit_inner(&mut self, x: &Matrix, y: &[f64], binned: &BinnedDataset) -> Result<()> {
        match self.loss {
            Loss::Squared | Loss::Pinball(_) => {}
        }
        let n = x.rows();
        self.n_features = x.cols();
        self.base_score = if self.params.boost_from_mean {
            vmin_linalg::mean(y)
        } else {
            self.loss.optimal_constant(y)?
        };
        self.trees.clear();

        let _span = vmin_trace::span("models.hist.oblivious_fit");
        vmin_trace::counter_add("models.oblivious.fits", 1);
        vmin_trace::counter_add("models.oblivious.rounds", self.params.n_rounds as u64);
        let l2 = self.params.l2_leaf_reg;
        let lr = self.params.learning_rate;
        let recip: Vec<f64> = (0..=n).map(|c| 1.0 / (c as f64 + l2)).collect();
        let mut preds = vec![self.base_score; n];
        let mut grad = vec![0.0; n];
        let mut state = crate::hist::ObliviousHistState::new(n);
        let features: Vec<usize> = (0..x.cols()).collect();
        // Pinball rounds whose gradient class repeats an earlier round's
        // replay that round's `(feature, border index)` splits instead of
        // searching: `reset`, `best_level_split` and `apply_split` read
        // only the gradient, the bin table and `recip`, so the search would
        // pick the same splits and leave the same blocks (see `RoundMemo`).
        let mut memo: RoundMemo<Vec<(usize, usize)>> = RoundMemo::new();
        let mut memo_hits = 0u64;

        let loss = self.loss;
        for _ in 0..self.params.n_rounds {
            vmin_par::par_chunks_mut(&mut grad, ROUND_ROW_BLOCK, 2, |bi, chunk| {
                let i0 = bi * ROUND_ROW_BLOCK;
                for (di, g) in chunk.iter_mut().enumerate() {
                    *g = loss.gradient(y[i0 + di], preds[i0 + di]);
                }
            });
            state.reset(&grad);
            // A memo hit replays the stored round's splits level by level,
            // stopping where that round stopped; a miss searches each level.
            let class = loss.gradient_class(y, &preds);
            let earlier = class.as_deref().and_then(|c| memo.get(c));
            let mut splits: Vec<(usize, usize)> = Vec::with_capacity(self.params.depth);
            let mut levels: Vec<(usize, f64)> = Vec::with_capacity(self.params.depth);
            for level in 0..self.params.depth {
                let next = match earlier {
                    Some(stored) => stored.get(level).copied(),
                    None => state.best_level_split(binned, &features, &grad, &recip),
                };
                let Some((feature, k)) = next else {
                    // No usable borders (all features constant), or the
                    // replayed round stopped at this level for that reason.
                    break;
                };
                state.apply_split(&binned.bin_of[feature], k, &grad);
                splits.push((feature, k));
                levels.push((feature, binned.borders[feature][k]));
            }
            if earlier.is_some() {
                memo_hits += 1;
            } else if let Some(c) = class {
                memo.insert(c, splits);
            }
            // Leaf values straight from the leaf-major blocks (ascending
            // row order inside each block, matching the exact loop's
            // per-leaf enumeration); block ids bit-reverse into
            // `leaf_index` positions.
            let d_levels = levels.len();
            let n_leaves = 1usize << d_levels;
            let mut leaf_values = vec![0.0; n_leaves];
            match loss {
                Loss::Squared => {
                    for block in 0..n_leaves {
                        let rows = state.block(block);
                        let g: f64 = rows.iter().map(|&i| grad[i as usize]).sum();
                        leaf_values[crate::hist::bit_reverse(block, d_levels)] =
                            -g / (rows.len() as f64 + l2);
                    }
                }
                Loss::Pinball(q) => {
                    for block in 0..n_leaves {
                        let rows = state.block(block);
                        if rows.is_empty() {
                            continue; // empty leaf keeps value 0.0
                        }
                        let r: Vec<f64> = rows
                            .iter()
                            .map(|&i| y[i as usize] - preds[i as usize])
                            .collect();
                        let shrink = r.len() as f64 / (r.len() as f64 + l2);
                        leaf_values[crate::hist::bit_reverse(block, d_levels)] =
                            vmin_linalg::quantile(&r, q).unwrap_or(0.0) * shrink;
                    }
                }
            }
            // Prediction update straight from the blocks: no per-row tree
            // walk, and element-wise so order is irrelevant.
            for block in 0..n_leaves {
                let v = leaf_values[crate::hist::bit_reverse(block, d_levels)];
                for &i in state.block(block) {
                    preds[i as usize] += lr * v;
                }
            }
            self.trees.push(ObliviousTree {
                levels,
                leaf_values,
            });
        }
        vmin_trace::counter_add("models.oblivious.memo_hits", memo_hits);
        Ok(())
    }
}

/// Test oracle: the exact boosting loop the histogram path replaced,
/// verbatim apart from its trace calls. Every level re-scores every
/// `(leaf, border)` pair from dense per-leaf gradient and Hessian
/// histograms, with no round memo. Binned fits are compared against it in
/// `hist.rs`.
#[cfg(test)]
impl ObliviousBoost {
    pub(crate) fn fit_exact(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        /// Minimum features before the per-level split search spawns
        /// feature workers.
        const PAR_MIN_FEATURES: usize = 8;

        self.validate(x, y)?;
        let binned = BinnedDataset::compute(x, self.params.border_count)?;
        let n = x.rows();
        self.n_features = x.cols();
        self.base_score = if self.params.boost_from_mean {
            vmin_linalg::mean(y)
        } else {
            self.loss.optimal_constant(y)?
        };
        self.trees.clear();

        // Quantile borders plus the pre-binned table: bin(v) = #{t ∈
        // borders : v > t}, so splitting at border k sends a sample right
        // iff its bin > k. This turns split search into histogram
        // accumulation (the CatBoost approach), instead of rescanning all
        // samples per candidate. Shared plans hand the table in pre-built.
        let borders = &binned.borders;
        let bin_of = &binned.bin_of;
        let features: Vec<usize> = (0..x.cols()).collect();
        let mut preds = vec![self.base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let l2 = self.params.l2_leaf_reg;

        let loss = self.loss;
        for _ in 0..self.params.n_rounds {
            vmin_par::par_chunks_mut(&mut grad, ROUND_ROW_BLOCK, 2, |bi, chunk| {
                let i0 = bi * ROUND_ROW_BLOCK;
                for (di, g) in chunk.iter_mut().enumerate() {
                    *g = loss.gradient(y[i0 + di], preds[i0 + di]);
                }
            });
            vmin_par::par_chunks_mut(&mut hess, ROUND_ROW_BLOCK, 2, |bi, chunk| {
                let i0 = bi * ROUND_ROW_BLOCK;
                for (di, h) in chunk.iter_mut().enumerate() {
                    *h = loss.hessian(y[i0 + di], preds[i0 + di]);
                }
            });
            // Grow the oblivious tree level by level. Features are scored in
            // parallel; the cross-feature reduce runs in ascending feature
            // order with the serial scan's strict `>`, so the chosen level
            // is identical to serial at any thread count.
            let mut levels: Vec<(usize, f64)> = Vec::with_capacity(self.params.depth);
            let mut leaf_of: Vec<usize> = vec![0; n];
            for bit in 0..self.params.depth {
                let n_leaves = 1usize << bit;
                let leaf_of_ref = &leaf_of;
                let per_feature = vmin_par::par_map(&features, PAR_MIN_FEATURES, |_, &feature| {
                    let fb = &borders[feature];
                    if fb.is_empty() {
                        return None;
                    }
                    let n_bins = fb.len() + 1;
                    let mut hist_g = vec![0.0; n_leaves * n_bins];
                    let mut hist_h = vec![0.0; n_leaves * n_bins];
                    let bins = &bin_of[feature];
                    for i in 0..n {
                        let slot = leaf_of_ref[i] * n_bins + bins[i] as usize;
                        hist_g[slot] += grad[i];
                        hist_h[slot] += hess[i];
                    }
                    // Per-leaf totals, then a running left-prefix per
                    // border: split at border k sends bins 0..=k left,
                    // rest right.
                    let totals: Vec<(f64, f64)> = (0..n_leaves)
                        .map(|leaf| {
                            let base = leaf * n_bins;
                            let gt: f64 = hist_g[base..base + n_bins].iter().sum();
                            let ht: f64 = hist_h[base..base + n_bins].iter().sum();
                            (gt, ht)
                        })
                        .collect();
                    let mut gl = vec![0.0; n_leaves];
                    let mut hl = vec![0.0; n_leaves];
                    let mut best: Option<(f64, usize, f64)> = None;
                    for k in 0..fb.len() {
                        let mut score = 0.0;
                        for leaf in 0..n_leaves {
                            let base = leaf * n_bins;
                            gl[leaf] += hist_g[base + k];
                            hl[leaf] += hist_h[base + k];
                            let (gt, ht) = totals[leaf];
                            let gr = gt - gl[leaf];
                            let hr = ht - hl[leaf];
                            score += gl[leaf] * gl[leaf] / (hl[leaf] + l2) + gr * gr / (hr + l2);
                        }
                        if best.is_none_or(|(s, _, _)| score > s) {
                            best = Some((score, feature, fb[k]));
                        }
                    }
                    best
                });
                let mut best: Option<(f64, usize, f64)> = None;
                for cand in per_feature.into_iter().flatten() {
                    if best.is_none_or(|(s, _, _)| cand.0 > s) {
                        best = Some(cand);
                    }
                }
                let Some((_, feature, threshold)) = best else {
                    break; // no usable borders (all features constant)
                };
                vmin_par::par_chunks_mut(&mut leaf_of, ROUND_ROW_BLOCK, 2, |bi, chunk| {
                    let i0 = bi * ROUND_ROW_BLOCK;
                    for (di, leaf) in chunk.iter_mut().enumerate() {
                        if x.row(i0 + di)[feature] > threshold {
                            *leaf |= 1 << bit;
                        }
                    }
                });
                levels.push((feature, threshold));
            }
            // Leaf values. Squared loss: Newton step −G/(H+λ). Pinball:
            // CatBoost's "Exact" leaf estimation — the empirical q-quantile
            // of the residuals inside each leaf. On the few-samples-per-leaf
            // regime of a 156-chip dataset the within-leaf quantile is
            // indistinguishable from the within-leaf center, which is what
            // makes the raw QR CatBoost band collapse onto the conditional
            // mean (Table III) while still tracking it accurately.
            let n_leaves = 1usize << levels.len();
            let leaf_values: Vec<f64> = match self.loss {
                Loss::Squared => {
                    let mut g = vec![0.0; n_leaves];
                    let mut h = vec![0.0; n_leaves];
                    for i in 0..n {
                        g[leaf_of[i]] += grad[i];
                        h[leaf_of[i]] += hess[i];
                    }
                    g.iter().zip(&h).map(|(gi, hi)| -gi / (hi + l2)).collect()
                }
                Loss::Pinball(q) => {
                    let mut residuals: Vec<Vec<f64>> = vec![Vec::new(); n_leaves];
                    for i in 0..n {
                        residuals[leaf_of[i]].push(y[i] - preds[i]);
                    }
                    residuals
                        .iter()
                        .map(|r| {
                            if r.is_empty() {
                                Ok(0.0)
                            } else {
                                // L2 regularization shrinks the step like a
                                // pseudo-count, mirroring l2_leaf_reg.
                                let shrink = r.len() as f64 / (r.len() as f64 + l2);
                                Ok(vmin_linalg::quantile(r, q)? * shrink)
                            }
                        })
                        .collect::<std::result::Result<Vec<f64>, vmin_linalg::LinalgError>>()?
                }
            };
            let tree = ObliviousTree {
                levels,
                leaf_values,
            };
            let lr = self.params.learning_rate;
            vmin_par::par_chunks_mut(&mut preds, ROUND_ROW_BLOCK, 2, |bi, chunk| {
                let i0 = bi * ROUND_ROW_BLOCK;
                for (di, p) in chunk.iter_mut().enumerate() {
                    *p += lr * tree.predict_row(x.row(i0 + di));
                }
            });
            self.trees.push(tree);
        }
        Ok(())
    }
}

impl Regressor for ObliviousBoost {
    fn fit_with_plan(&mut self, plan: &FitPlan<'_>, y: &[f64]) -> Result<()> {
        let x = plan.x();
        self.validate(x, y)?;
        let binned = plan.binned(self.params.border_count)?;
        self.fit_inner(x, y, &binned)
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        if self.trees.is_empty() {
            return Err(ModelError::NotFitted);
        }
        if row.len() != self.n_features {
            return Err(ModelError::InvalidInput(format!(
                "model has {} features, row has {}",
                self.n_features,
                row.len()
            )));
        }
        let mut p = self.base_score;
        for tree in &self.trees {
            p += self.params.learning_rate * tree.predict_row(row);
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::Rng;
    use vmin_rng::SeedableRng;

    fn data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-2.0..2.0);
            let b: f64 = rng.gen_range(-2.0..2.0);
            rows.push(vec![a, b]);
            y.push(a * a + 0.5 * b + rng.gen_range(-0.1..0.1));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn fits_nonlinear_target() {
        let (x, y) = data(250, 1);
        let mut cb = ObliviousBoost::new(Loss::Squared);
        cb.fit(&x, &y).unwrap();
        let pred = cb.predict(&x).unwrap();
        let m = vmin_linalg::mean(&y);
        let ss_tot: f64 = y.iter().map(|v| (v - m) * (v - m)).sum();
        let ss_res: f64 = y.iter().zip(&pred).map(|(a, b)| (a - b) * (a - b)).sum();
        let r2 = 1.0 - ss_res / ss_tot;
        assert!(r2 > 0.9, "train R² {r2}");
        assert_eq!(cb.n_trees(), 100);
    }

    #[test]
    fn symmetric_tree_has_power_of_two_leaves() {
        let (x, y) = data(100, 2);
        let mut cb = ObliviousBoost::with_params(
            Loss::Squared,
            ObliviousBoostParams {
                depth: 3,
                n_rounds: 1,
                ..ObliviousBoostParams::default()
            },
        );
        cb.fit(&x, &y).unwrap();
        assert_eq!(cb.trees[0].leaf_values.len(), 8);
        assert_eq!(cb.trees[0].levels.len(), 3);
    }

    #[test]
    fn constant_features_yield_base_score() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]).unwrap();
        let y = [2.0, 4.0, 6.0];
        let mut cb = ObliviousBoost::new(Loss::Squared);
        cb.fit(&x, &y).unwrap();
        // No borders exist → every tree is a single leaf with G=0 after the
        // base score converges towards the mean.
        let p = cb.predict_row(&[1.0]).unwrap();
        assert!((p - 4.0).abs() < 0.2, "got {p}");
    }

    #[test]
    fn quantile_mode_orders() {
        let (x, y) = data(250, 3);
        let mut lo = ObliviousBoost::new(Loss::Pinball(0.05));
        let mut hi = ObliviousBoost::new(Loss::Pinball(0.95));
        lo.fit(&x, &y).unwrap();
        hi.fit(&x, &y).unwrap();
        let lo_p = lo.predict(&x).unwrap();
        let hi_p = hi.predict(&x).unwrap();
        let cross = lo_p.iter().zip(&hi_p).filter(|(l, h)| l > h).count();
        assert!(cross < 25, "quantile crossings: {cross}");
    }

    #[test]
    fn stronger_l2_shrinks_predictions() {
        let (x, y) = data(80, 4);
        let spread = |l2: f64| {
            let mut cb = ObliviousBoost::with_params(
                Loss::Squared,
                ObliviousBoostParams {
                    l2_leaf_reg: l2,
                    n_rounds: 20,
                    ..ObliviousBoostParams::default()
                },
            );
            cb.fit(&x, &y).unwrap();
            let p = cb.predict(&x).unwrap();
            vmin_linalg::std_dev(&p)
        };
        assert!(spread(100.0) < spread(0.1));
    }

    #[test]
    fn depth_validation() {
        let (x, y) = data(30, 5);
        let mut bad = ObliviousBoost::with_params(
            Loss::Squared,
            ObliviousBoostParams {
                depth: 0,
                ..ObliviousBoostParams::default()
            },
        );
        assert!(bad.fit(&x, &y).is_err());
    }

    #[test]
    fn border_count_beyond_u8_is_rejected() {
        // bin_of stores u8 bins; >255 borders would silently wrap. The
        // typed error must fire before any boosting happens.
        let (x, y) = data(30, 10);
        for bad_count in [0usize, 256, 1000] {
            let mut cb = ObliviousBoost::with_params(
                Loss::Squared,
                ObliviousBoostParams {
                    border_count: bad_count,
                    ..ObliviousBoostParams::default()
                },
            );
            let err = cb.fit(&x, &y).unwrap_err();
            assert!(
                matches!(err, ModelError::InvalidInput(_)),
                "border_count {bad_count}: {err:?}"
            );
            assert_eq!(
                cb.predict_row(&[0.0, 0.0]).unwrap_err(),
                ModelError::NotFitted
            );
        }
        // The boundary value is fine.
        let mut ok = ObliviousBoost::with_params(
            Loss::Squared,
            ObliviousBoostParams {
                border_count: 255,
                n_rounds: 2,
                ..ObliviousBoostParams::default()
            },
        );
        assert!(ok.fit(&x, &y).is_ok());
    }

    #[test]
    fn memo_served_rounds_equal_fresh_level_searches() {
        // Oracle for the round memo: replay a memo-heavy pinball fit round
        // by round from its own tree prefix, and require every round's
        // level list to equal a fresh level-by-level `best_level_split`
        // on that round's gradient.
        let (x, y) = data(88, 14);
        let loss = Loss::Pinball(0.05);
        let params = ObliviousBoostParams::default();
        let mut m = ObliviousBoost::with_params(loss, params);
        m.fit(&x, &y).unwrap();
        let binned = BinnedDataset::compute(&x, params.border_count).unwrap();
        let recip: Vec<f64> = (0..=x.rows())
            .map(|c| 1.0 / (c as f64 + params.l2_leaf_reg))
            .collect();
        let mut state = crate::hist::ObliviousHistState::new(x.rows());
        let features: Vec<usize> = (0..x.cols()).collect();
        let mut preds = vec![m.base_score; x.rows()];
        let mut classes: Vec<Vec<u64>> = Vec::new();
        let mut hits = 0;
        for (round, tree) in m.trees.iter().enumerate() {
            let grad: Vec<f64> = y
                .iter()
                .zip(&preds)
                .map(|(&yi, &pi)| loss.gradient(yi, pi))
                .collect();
            state.reset(&grad);
            let mut fresh = Vec::new();
            for _ in 0..params.depth {
                let Some((f, k)) = state.best_level_split(&binned, &features, &grad, &recip) else {
                    break;
                };
                state.apply_split(&binned.bin_of[f], k, &grad);
                fresh.push((f, binned.borders[f][k]));
            }
            assert_eq!(tree.levels, fresh, "round {round}");
            let class = loss.gradient_class(&y, &preds).unwrap();
            if classes.contains(&class) {
                hits += 1;
            } else {
                classes.push(class);
            }
            for (i, p) in preds.iter_mut().enumerate() {
                *p += params.learning_rate * tree.predict_row(x.row(i));
            }
        }
        assert!(hits >= 10, "only {hits} of 100 rounds were memo hits");
    }

    #[test]
    fn error_paths() {
        let cb = ObliviousBoost::new(Loss::Squared);
        assert_eq!(cb.predict_row(&[0.0]).unwrap_err(), ModelError::NotFitted);
        let (x, y) = data(40, 6);
        let mut cb = ObliviousBoost::new(Loss::Squared);
        cb.fit(&x, &y).unwrap();
        assert!(matches!(
            cb.predict_row(&[0.0]),
            Err(ModelError::InvalidInput(_))
        ));
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        let (x, y) = data(200, 9);
        let fit_at = |threads: usize| {
            vmin_par::with_threads(threads, || {
                let mut m = ObliviousBoost::new(Loss::Pinball(0.9));
                m.fit(&x, &y).unwrap();
                m.predict(&x).unwrap()
            })
        };
        let serial = fit_at(1);
        for threads in [2, 8] {
            assert_eq!(fit_at(threads), serial, "threads {threads}");
        }
    }

    #[test]
    fn deterministic() {
        let (x, y) = data(60, 7);
        let run = || {
            let mut cb = ObliviousBoost::new(Loss::Squared);
            cb.fit(&x, &y).unwrap();
            cb.predict_row(x.row(0)).unwrap()
        };
        assert_eq!(run(), run());
    }
}
