//! A shallow fully-connected MLP matching the paper's configuration
//! (§IV-C4): one hidden layer of 16 ReLU units, Adam with learning rate
//! 0.01, 3000 epochs, L2 weight penalty 0.1 — the same setup as
//! Yin et al., ITC 2023 [5].
//!
//! Supports both MSE and pinball loss, so it serves as both the "NN" point
//! predictor of Fig. 2 and the "QR Neural Network" of Table III.

use crate::fitplan::{standardize_design, FitPlan, StandardizedDesign};
use crate::optimizer::Adam;
use crate::traits::{validate_training, Loss, ModelError, Regressor, Result};
use vmin_linalg::Matrix;
use vmin_rng::ChaCha8Rng;
use vmin_rng::Rng;
use vmin_rng::SeedableRng;

/// Hyperparameters of the MLP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuralNetParams {
    /// Hidden-layer width (paper: 16).
    pub hidden: usize,
    /// Adam learning rate (paper: 0.01).
    pub learning_rate: f64,
    /// Full-batch epochs (paper: 3000).
    pub epochs: usize,
    /// L2 penalty weight on all weights (paper: 0.1).
    pub l2_penalty: f64,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for NeuralNetParams {
    fn default() -> Self {
        NeuralNetParams {
            hidden: 16,
            learning_rate: 0.01,
            epochs: 3000,
            l2_penalty: 0.1,
            seed: 0,
        }
    }
}

/// One-hidden-layer ReLU MLP with a pluggable loss.
///
/// Features and targets are standardized internally (statistics from the
/// training data); predictions come back on the original scale.
///
/// # Examples
///
/// ```
/// use vmin_models::{Loss, NeuralNet, NeuralNetParams, Regressor};
/// use vmin_linalg::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
/// let params = NeuralNetParams { epochs: 500, ..NeuralNetParams::default() };
/// let mut nn = NeuralNet::with_params(Loss::Squared, params);
/// nn.fit(&x, &[0.0, 2.0, 4.0, 6.0])?;
/// assert!((nn.predict_row(&[1.5])? - 3.0).abs() < 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct NeuralNet {
    params: NeuralNetParams,
    loss: Loss,
    /// Flat parameters: `[w1 (h×d), b1 (h), w2 (h), b2 (1)]`.
    weights: Option<Vec<f64>>,
    n_features: usize,
    feat_means: Vec<f64>,
    feat_scales: Vec<f64>,
    y_center: f64,
    y_scale: f64,
}

impl NeuralNet {
    /// MLP with the paper's defaults.
    pub fn new(loss: Loss) -> Self {
        Self::with_params(loss, NeuralNetParams::default())
    }

    /// MLP with explicit hyperparameters.
    pub fn with_params(loss: Loss, params: NeuralNetParams) -> Self {
        NeuralNet {
            params,
            loss,
            weights: None,
            n_features: 0,
            feat_means: Vec::new(),
            feat_scales: Vec::new(),
            y_center: 0.0,
            y_scale: 1.0,
        }
    }

    /// The training loss.
    pub fn loss(&self) -> Loss {
        self.loss
    }

    fn layout(&self) -> (usize, usize, usize, usize) {
        let d = self.n_features;
        let h = self.params.hidden;
        // offsets: w1 [0, h*d), b1 [h*d, h*d+h), w2 [.., +h), b2 last
        (h * d, h * d + h, h * d + h + h, h * d + h + h + 1)
    }

    /// Forward pass on a standardized row; returns (hidden activations,
    /// output) for use by backprop.
    fn forward(&self, w: &[f64], z: &[f64]) -> (Vec<f64>, f64) {
        let d = self.n_features;
        let h = self.params.hidden;
        let (o_b1, o_w2, o_b2, _) = self.layout();
        let mut act = vec![0.0; h];
        for k in 0..h {
            let mut s = w[o_b1 + k];
            let row = &w[k * d..(k + 1) * d];
            for j in 0..d {
                s += row[j] * z[j];
            }
            act[k] = s.max(0.0);
        }
        let mut out = w[o_b2];
        for k in 0..h {
            out += w[o_w2 + k] * act[k];
        }
        (act, out)
    }

    /// The shared fit body over a pre-standardized design (cached from a
    /// plan or freshly computed — identical code either way).
    fn fit_inner(&mut self, y: &[f64], design: &StandardizedDesign) -> Result<()> {
        let n = design.rows.len();
        let d = design.feat_means.len();
        self.n_features = d;
        let h = self.params.hidden;

        // Standardization statistics from the design; center/scale targets.
        self.feat_means = design.feat_means.clone();
        self.feat_scales = design.feat_scales.clone();
        self.y_center = vmin_linalg::mean(y);
        let sd = vmin_linalg::std_dev(y);
        self.y_scale = if sd > 1e-12 { sd } else { 1.0 };

        let xs = &design.rows;
        let ys: Vec<f64> = y
            .iter()
            .map(|v| (v - self.y_center) / self.y_scale)
            .collect();

        // He initialization.
        let (o_b1, o_w2, o_b2, total) = self.layout();
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed);
        let mut w = vec![0.0; total];
        let w1_scale = (2.0 / d as f64).sqrt();
        for v in w[..o_b1].iter_mut() {
            *v = rng.gen_range(-w1_scale..w1_scale);
        }
        let w2_scale = (2.0 / h as f64).sqrt();
        for v in w[o_w2..o_b2].iter_mut() {
            *v = rng.gen_range(-w2_scale..w2_scale);
        }

        let mut adam = Adam::new(total, self.params.learning_rate);
        let mut grads = vec![0.0; total];
        let inv_n = 1.0 / n as f64;
        for _ in 0..self.params.epochs {
            grads.iter_mut().for_each(|g| *g = 0.0);
            for (zi, &yi) in xs.iter().zip(&ys) {
                let (act, out) = self.forward(&w, zi);
                let dl = self.loss.gradient(yi, out);
                // Output layer.
                grads[o_b2] += dl * inv_n;
                for k in 0..h {
                    grads[o_w2 + k] += dl * act[k] * inv_n;
                }
                // Hidden layer (ReLU gate: act > 0).
                for k in 0..h {
                    if act[k] > 0.0 {
                        let up = dl * w[o_w2 + k] * inv_n;
                        grads[o_b1 + k] += up;
                        let row = k * d;
                        for j in 0..d {
                            grads[row + j] += up * zi[j];
                        }
                    }
                }
            }
            // L2 penalty on weights (not biases).
            let l2 = self.params.l2_penalty;
            for i in 0..o_b1 {
                grads[i] += l2 * w[i] * inv_n;
            }
            for i in o_w2..o_b2 {
                grads[i] += l2 * w[i] * inv_n;
            }
            adam.step(&mut w, &grads);
        }
        self.weights = Some(w);
        Ok(())
    }
}

impl Regressor for NeuralNet {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        validate_training(x, y)?;
        self.loss.validate()?;
        self.fit_inner(y, &standardize_design(x))
    }

    fn fit_with_plan(&mut self, x: &Matrix, y: &[f64], plan: &FitPlan) -> Result<()> {
        if plan.matches(x) {
            validate_training(x, y)?;
            self.loss.validate()?;
            let design = plan.standardized(x);
            self.fit_inner(y, &design)
        } else {
            self.fit(x, y)
        }
    }

    fn wants_fit_plan(&self) -> bool {
        true
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        let w = self.weights.as_ref().ok_or(ModelError::NotFitted)?;
        if row.len() != self.n_features {
            return Err(ModelError::InvalidInput(format!(
                "model has {} features, row has {}",
                self.n_features,
                row.len()
            )));
        }
        let z: Vec<f64> = row
            .iter()
            .enumerate()
            .map(|(j, &v)| (v - self.feat_means[j]) / self.feat_scales[j])
            .collect();
        let (_, out) = self.forward(w, &z);
        Ok(out * self.y_scale + self.y_center)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_params(seed: u64) -> NeuralNetParams {
        NeuralNetParams {
            epochs: 800,
            seed,
            ..NeuralNetParams::default()
        }
    }

    fn quadratic_data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![-2.0 + 4.0 * i as f64 / n as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[0]).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_a_quadratic() {
        let (x, y) = quadratic_data(80);
        let mut nn = NeuralNet::with_params(Loss::Squared, fast_params(1));
        nn.fit(&x, &y).unwrap();
        let pred = nn.predict(&x).unwrap();
        let m = vmin_linalg::mean(&y);
        let ss_tot: f64 = y.iter().map(|v| (v - m) * (v - m)).sum();
        let ss_res: f64 = y.iter().zip(&pred).map(|(a, b)| (a - b) * (a - b)).sum();
        let r2 = 1.0 - ss_res / ss_tot;
        assert!(r2 > 0.9, "MLP should fit x², R²={r2}");
    }

    #[test]
    fn l2_penalty_regularizes() {
        let (x, y) = quadratic_data(40);
        let fit_with = |l2: f64| {
            let mut p = fast_params(2);
            p.l2_penalty = l2;
            let mut nn = NeuralNet::with_params(Loss::Squared, p);
            nn.fit(&x, &y).unwrap();
            let pred = nn.predict(&x).unwrap();
            vmin_linalg::std_dev(&pred)
        };
        assert!(fit_with(50.0) < fit_with(0.0));
    }

    #[test]
    fn pinball_quantiles_separate() {
        // Heteroscedastic noise.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 200;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64 * 3.0]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r[0] + (1.0 + r[0]) * rng.gen_range(-1.0..1.0))
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut lo = NeuralNet::with_params(Loss::Pinball(0.05), fast_params(4));
        let mut hi = NeuralNet::with_params(Loss::Pinball(0.95), fast_params(4));
        lo.fit(&x, &y).unwrap();
        hi.fit(&x, &y).unwrap();
        let l = lo.predict_row(&[1.5]).unwrap();
        let h = hi.predict_row(&[1.5]).unwrap();
        assert!(h > l, "q95 ({h}) must exceed q05 ({l})");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = quadratic_data(30);
        let run = || {
            let mut nn = NeuralNet::with_params(Loss::Squared, fast_params(5));
            nn.fit(&x, &y).unwrap();
            nn.predict_row(&[0.5]).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seed_changes_model() {
        let (x, y) = quadratic_data(30);
        let run = |s| {
            let mut nn = NeuralNet::with_params(Loss::Squared, fast_params(s));
            nn.fit(&x, &y).unwrap();
            nn.predict_row(&[0.5]).unwrap()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn error_paths() {
        let nn = NeuralNet::new(Loss::Squared);
        assert_eq!(nn.predict_row(&[0.0]).unwrap_err(), ModelError::NotFitted);
        let (x, y) = quadratic_data(20);
        let mut nn = NeuralNet::with_params(Loss::Squared, fast_params(0));
        nn.fit(&x, &y).unwrap();
        assert!(matches!(
            nn.predict_row(&[0.0, 1.0]),
            Err(ModelError::InvalidInput(_))
        ));
        let mut bad = NeuralNet::with_params(Loss::Pinball(-0.5), fast_params(0));
        assert!(bad.fit(&x, &y).is_err());
    }

    #[test]
    fn planned_fit_is_bit_identical_to_direct() {
        let (x, y) = quadratic_data(60);
        let plan = FitPlan::build(&x);
        let mut planned = NeuralNet::with_params(Loss::Pinball(0.9), fast_params(3));
        planned.fit_with_plan(&x, &y, &plan).unwrap();
        let mut direct = NeuralNet::with_params(Loss::Pinball(0.9), fast_params(3));
        direct.fit(&x, &y).unwrap();
        assert_eq!(planned.weights, direct.weights);
        assert_eq!(planned.feat_means, direct.feat_means);
        assert_eq!(planned.feat_scales, direct.feat_scales);
    }

    #[test]
    fn paper_defaults_match_section_4c4() {
        let p = NeuralNetParams::default();
        assert_eq!(p.hidden, 16);
        assert_eq!(p.learning_rate, 0.01);
        assert_eq!(p.epochs, 3000);
        assert_eq!(p.l2_penalty, 0.1);
    }
}
