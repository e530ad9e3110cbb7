//! XGBoost-style gradient boosting on [`GradientTree`] weak learners.
//!
//! Defaults mirror the XGBoost Python package the paper uses (§IV-C2):
//! 100 rounds, learning rate 0.3, depth 6, λ = 1. Supports both squared and
//! pinball loss, so the same booster serves "XGBoost" point prediction and
//! "QR XGBoost" quantile regression.

use crate::fitplan::FitPlan;
use crate::hist::{HistBinned, HistScratch, RoundMemo};
use crate::traits::{validate_training, Loss, ModelError, Regressor, Result};
use crate::tree::{GradientTree, TreeParams};

/// Hyperparameters of the booster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientBoostParams {
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Shrinkage η applied to every tree's output.
    pub learning_rate: f64,
    /// Per-tree structural parameters.
    pub tree: TreeParams,
}

/// Rows per parallel work unit for the per-round element-wise passes
/// (gradient refresh, prediction update); coarse because each row is cheap.
const ROUND_ROW_BLOCK: usize = 256;

impl Default for GradientBoostParams {
    fn default() -> Self {
        GradientBoostParams {
            n_rounds: 100,
            learning_rate: 0.3,
            tree: TreeParams::default(),
        }
    }
}

/// Gradient-boosted regression trees with a pluggable loss.
///
/// # Examples
///
/// ```
/// use vmin_models::{GradientBoost, Loss, Regressor};
/// use vmin_linalg::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
/// let mut gbt = GradientBoost::new(Loss::Squared);
/// gbt.fit(&x, &[0.0, 1.0, 4.0, 9.0])?;
/// assert!((gbt.predict_row(&[3.0])? - 9.0).abs() < 1.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GradientBoost {
    params: GradientBoostParams,
    loss: Loss,
    base_score: f64,
    trees: Vec<GradientTree>,
    n_features: usize,
}

impl GradientBoost {
    /// Booster with default (XGBoost-like) hyperparameters.
    pub fn new(loss: Loss) -> Self {
        Self::with_params(loss, GradientBoostParams::default())
    }

    /// Booster with explicit hyperparameters.
    pub fn with_params(loss: Loss, params: GradientBoostParams) -> Self {
        GradientBoost {
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
    pub fn params(&self) -> &GradientBoostParams {
        &self.params
    }

    /// The fitted base score (the loss-optimal constant; 0 before fitting).
    pub fn base_score(&self) -> f64 {
        self.base_score
    }

    /// Number of features the model was fitted on (0 before fitting).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The fitted trees in boosting order. Prediction is
    /// `base_score + Σ learning_rate · treeᵢ(row)` accumulated in exactly
    /// this order — flattened replicas must preserve it to stay
    /// bit-identical.
    pub fn trees(&self) -> &[GradientTree] {
        &self.trees
    }
}

/// Test oracle: the exact boosting loop the histogram path replaced, every
/// round growing an exact greedy tree ([`GradientTree::fit`]) over all rows
/// with explicit Hessians and no round memo. Binned fits are compared
/// against it in `hist.rs`.
#[cfg(test)]
impl GradientBoost {
    pub(crate) fn fit_exact(&mut self, x: &vmin_linalg::Matrix, y: &[f64]) -> Result<()> {
        validate_training(x, y)?;
        self.loss.validate()?;
        let n = x.rows();
        self.n_features = x.cols();
        self.base_score = self.loss.optimal_constant(y)?;
        self.trees.clear();

        let mut preds = vec![self.base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let all_rows: Vec<usize> = (0..n).collect();
        let loss = self.loss;
        let lr = self.params.learning_rate;
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
            let tree = GradientTree::fit(x, &grad, &hess, &all_rows, &self.params.tree);
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

impl Regressor for GradientBoost {
    /// The boosting loop over the plan's bin table. Every round grows a
    /// histogram tree over all rows, except that pinball rounds whose
    /// gradient class repeats an earlier round's reuse that round's tree
    /// (the round memo, DESIGN.md §12).
    fn fit_with_plan(&mut self, plan: &FitPlan<'_>, y: &[f64]) -> Result<()> {
        let x = plan.x();
        validate_training(x, y)?;
        self.loss.validate()?;
        let n = x.rows();
        crate::hist::check_row_count(n)?;
        self.n_features = x.cols();
        self.base_score = self.loss.optimal_constant(y)?;
        self.trees.clear();

        let _span = vmin_trace::span("models.gbt.fit");
        vmin_trace::counter_add("models.gbt.fits", 1);
        vmin_trace::counter_add("models.gbt.rounds", self.params.n_rounds as u64);
        let mut preds = vec![self.base_score; n];
        let mut grad = vec![0.0; n];

        // One bin table serves every round's tree. Boundaries are capped by
        // the row count (`gbt_border_cap`): with fewer rows than bins the
        // per-bin sweeps cost more than they save.
        //
        // Histogram trees carry no Hessian histogram: every loss here has
        // unit Hessians, so a node's Hessian sum is its row count. A loss
        // without them must fail this match and revisit that.
        match self.loss {
            Loss::Squared | Loss::Pinball(_) => {}
        }
        let cap = crate::hist::gbt_border_cap(n);
        let hb = HistBinned::build(x, plan.binned(cap)?);
        // Node histograms recycle across nodes and rounds through this
        // scratch, which also counts the bins the boundary scans visit.
        let mut hist_scratch = HistScratch::default();
        // Pinball loss: a round whose gradient class repeats an earlier
        // round's reuses that round's tree (stored as its index in
        // `self.trees`) — the tree `fit_hist` would grow again, bit for bit
        // (see `RoundMemo`).
        let mut memo: RoundMemo<usize> = RoundMemo::new();
        let mut memo_hits = 0u64;

        // Boosting rounds are inherently sequential; within a round the
        // per-row gradient refresh and the prediction update are
        // element-independent, so they parallelize bit-exactly.
        let loss = self.loss;
        let lr = self.params.learning_rate;
        for _ in 0..self.params.n_rounds {
            vmin_par::par_chunks_mut(&mut grad, ROUND_ROW_BLOCK, 2, |bi, chunk| {
                let i0 = bi * ROUND_ROW_BLOCK;
                for (di, g) in chunk.iter_mut().enumerate() {
                    *g = loss.gradient(y[i0 + di], preds[i0 + di]);
                }
            });
            let class = loss.gradient_class(y, &preds);
            let earlier = class
                .as_deref()
                .and_then(|c| memo.get(c))
                .and_then(|&i| self.trees.get(i));
            let tree = if let Some(tree) = earlier {
                memo_hits += 1;
                tree.clone()
            } else {
                if let Some(c) = class {
                    memo.insert(c, self.trees.len());
                }
                GradientTree::fit_hist(x, &grad, &self.params.tree, &hb, &mut hist_scratch)
            };
            vmin_par::par_chunks_mut(&mut preds, ROUND_ROW_BLOCK, 2, |bi, chunk| {
                let i0 = bi * ROUND_ROW_BLOCK;
                for (di, p) in chunk.iter_mut().enumerate() {
                    *p += lr * tree.predict_row(x.row(i0 + di));
                }
            });
            self.trees.push(tree);
        }
        vmin_trace::counter_add("models.gbt.memo_hits", memo_hits);
        vmin_trace::counter_add("models.hist.bins_scanned", hist_scratch.bins_scanned);
        Ok(())
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
    use crate::fitplan::BinnedDataset;
    use vmin_linalg::Matrix;
    use vmin_rng::{ChaCha8Rng, Rng, SeedableRng};

    fn friedman_like(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..1.0);
            let b: f64 = rng.gen_range(0.0..1.0);
            let c: f64 = rng.gen_range(0.0..1.0);
            rows.push(vec![a, b, c]);
            y.push(
                10.0 * (std::f64::consts::PI * a * b).sin() + 5.0 * c + rng.gen_range(-0.2..0.2),
            );
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn fits_nonlinear_functions() {
        let (x, y) = friedman_like(200, 1);
        let mut gbt = GradientBoost::new(Loss::Squared);
        gbt.fit(&x, &y).unwrap();
        let pred = gbt.predict(&x).unwrap();
        let m = vmin_linalg::mean(&y);
        let ss_tot: f64 = y.iter().map(|v| (v - m) * (v - m)).sum();
        let ss_res: f64 = y.iter().zip(&pred).map(|(a, b)| (a - b) * (a - b)).sum();
        let r2 = 1.0 - ss_res / ss_tot;
        assert!(r2 > 0.95, "train R² should be high, got {r2}");
        assert_eq!(gbt.n_trees(), 100);
    }

    #[test]
    fn generalizes_reasonably() {
        let (x_tr, y_tr) = friedman_like(300, 2);
        let (x_te, y_te) = friedman_like(100, 3);
        let mut gbt = GradientBoost::new(Loss::Squared);
        gbt.fit(&x_tr, &y_tr).unwrap();
        let pred = gbt.predict(&x_te).unwrap();
        let m = vmin_linalg::mean(&y_te);
        let ss_tot: f64 = y_te.iter().map(|v| (v - m) * (v - m)).sum();
        let ss_res: f64 = y_te.iter().zip(&pred).map(|(a, b)| (a - b) * (a - b)).sum();
        let r2 = 1.0 - ss_res / ss_tot;
        assert!(r2 > 0.8, "test R² should be decent, got {r2}");
    }

    #[test]
    fn pinball_quantiles_order_correctly() {
        let (x, y) = friedman_like(200, 4);
        let mut lo = GradientBoost::new(Loss::Pinball(0.05));
        let mut hi = GradientBoost::new(Loss::Pinball(0.95));
        lo.fit(&x, &y).unwrap();
        hi.fit(&x, &y).unwrap();
        let lo_p = lo.predict(&x).unwrap();
        let hi_p = hi.predict(&x).unwrap();
        let violations = lo_p.iter().zip(&hi_p).filter(|(l, h)| l > h).count();
        assert!(
            violations < x.rows() / 10,
            "quantile crossing on {violations}/{} samples",
            x.rows()
        );
    }

    #[test]
    fn pinball_coverage_on_training_data() {
        let (x, y) = friedman_like(300, 5);
        let mut q90 = GradientBoost::new(Loss::Pinball(0.9));
        q90.fit(&x, &y).unwrap();
        let p = q90.predict(&x).unwrap();
        let below = y.iter().zip(&p).filter(|(yi, pi)| yi <= pi).count() as f64 / y.len() as f64;
        // Boosted quantile models overfit towards the data; accept a band.
        assert!(below > 0.8, "≈90% below the 0.9-quantile fit, got {below}");
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        let (x, y) = friedman_like(150, 9);
        let fit_at = |threads: usize| {
            vmin_par::with_threads(threads, || {
                let mut m = GradientBoost::new(Loss::Squared);
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
    fn memo_served_rounds_equal_fresh_histogram_trees() {
        // Oracle for the round memo: replay a memo-heavy pinball fit round
        // by round from its own tree prefix, and require every round's
        // tree to equal a fresh `fit_hist` on that round's gradient.
        let (x, y) = friedman_like(88, 14);
        let loss = Loss::Pinball(0.05);
        let params = GradientBoostParams {
            n_rounds: 60,
            ..GradientBoostParams::default()
        };
        let mut m = GradientBoost::with_params(loss, params);
        m.fit(&x, &y).unwrap();
        let binned = BinnedDataset::compute(&x, crate::hist::gbt_border_cap(x.rows())).unwrap();
        let hb = HistBinned::build(&x, std::sync::Arc::new(binned));
        let mut scratch = HistScratch::default();
        let mut preds = vec![m.base_score; x.rows()];
        let mut classes: Vec<Vec<u64>> = Vec::new();
        let mut hits = 0;
        for (round, tree) in m.trees.iter().enumerate() {
            let grad: Vec<f64> = y
                .iter()
                .zip(&preds)
                .map(|(&yi, &pi)| loss.gradient(yi, pi))
                .collect();
            let fresh = GradientTree::fit_hist(&x, &grad, &params.tree, &hb, &mut scratch);
            assert_eq!(*tree, fresh, "round {round}");
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
        assert!(hits >= 10, "only {hits} of 60 rounds were memo hits");
    }

    #[test]
    fn error_paths() {
        let gbt = GradientBoost::new(Loss::Squared);
        assert_eq!(gbt.predict_row(&[0.0]).unwrap_err(), ModelError::NotFitted);
        let (x, y) = friedman_like(50, 8);
        let mut gbt = GradientBoost::new(Loss::Squared);
        gbt.fit(&x, &y).unwrap();
        assert!(matches!(
            gbt.predict_row(&[0.0]),
            Err(ModelError::InvalidInput(_))
        ));
        let mut bad = GradientBoost::new(Loss::Pinball(2.0));
        assert!(bad.fit(&x, &y).is_err());
    }
}
