//! The model zoo: the paper's five point regressors and nine region
//! predictors, as constructible enums.

use std::fmt;
use vmin_models::{
    GaussianProcess, GradientBoost, GradientBoostParams, LinearRegression, Loss, NeuralNet,
    NeuralNetParams, ObliviousBoost, ObliviousBoostParams, QuantileLinear, Regressor,
};

/// Training budgets, so tests can shrink the expensive models while the
/// benches keep the paper's exact configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// MLP epochs (paper: 3000).
    pub nn_epochs: usize,
    /// MLP seed.
    pub nn_seed: u64,
    /// Quantile-linear Adam epochs.
    pub qlin_epochs: usize,
    /// Boosting rounds for the XGBoost-style model (paper default: 100).
    pub gbt_rounds: usize,
    /// Boosting rounds for the CatBoost-style model (paper: 100).
    pub cat_rounds: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            nn_epochs: 3000,
            nn_seed: 0,
            qlin_epochs: 2000,
            gbt_rounds: 100,
            cat_rounds: 100,
        }
    }
}

impl ModelConfig {
    /// A reduced budget for fast unit/integration tests.
    pub fn fast() -> Self {
        ModelConfig {
            nn_epochs: 300,
            nn_seed: 0,
            qlin_epochs: 400,
            gbt_rounds: 30,
            cat_rounds: 30,
        }
    }
}

/// The five point-regressor families of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointModel {
    /// Ordinary least squares.
    Linear,
    /// Gaussian process (RBF, likelihood-optimized).
    GaussianProcess,
    /// XGBoost-style gradient-boosted trees.
    Xgboost,
    /// CatBoost-style oblivious-tree boosting.
    CatBoost,
    /// 2-layer neural network (1×16 ReLU).
    NeuralNet,
}

impl PointModel {
    /// All five models, in the paper's presentation order.
    pub const ALL: [PointModel; 5] = [
        PointModel::Linear,
        PointModel::GaussianProcess,
        PointModel::Xgboost,
        PointModel::CatBoost,
        PointModel::NeuralNet,
    ];

    /// Whether this model needs CFS dimensionality reduction (§IV-C: LR, GP
    /// and NN get CFS; the tree ensembles select features intrinsically).
    pub fn uses_cfs(&self) -> bool {
        matches!(
            self,
            PointModel::Linear | PointModel::GaussianProcess | PointModel::NeuralNet
        )
    }

    /// Constructs the point (conditional-mean) regressor.
    pub fn make_point(&self, cfg: &ModelConfig) -> Box<dyn Regressor> {
        // The GP is the one family not trained under a loss.
        self.make_with_loss(Loss::Squared, cfg)
            .unwrap_or_else(|| Box::new(GaussianProcess::paper_default()))
    }

    /// Constructs the quantile-`q` regressor of the same family, or `None`
    /// for the GP (whose region prediction is Gaussian, not quantile-based).
    pub fn make_quantile(&self, q: f64, cfg: &ModelConfig) -> Option<Box<dyn Regressor>> {
        self.make_with_loss(Loss::Pinball(q), cfg)
    }

    /// The family's regressor trained under `loss` with its `cfg` budget —
    /// the one constructor body behind both factories; `None` for the GP.
    fn make_with_loss(&self, loss: Loss, cfg: &ModelConfig) -> Option<Box<dyn Regressor>> {
        Some(match (self, loss) {
            (PointModel::GaussianProcess, _) => return None,
            (PointModel::Linear, Loss::Squared) => Box::new(LinearRegression::new()),
            (PointModel::Linear, Loss::Pinball(q)) => {
                Box::new(QuantileLinear::new(q).with_training(cfg.qlin_epochs, 0.02))
            }
            (PointModel::Xgboost, loss) => Box::new(GradientBoost::with_params(
                loss,
                GradientBoostParams {
                    n_rounds: cfg.gbt_rounds,
                    ..Default::default()
                },
            )),
            (PointModel::CatBoost, loss) => Box::new(ObliviousBoost::with_params(
                loss,
                ObliviousBoostParams {
                    n_rounds: cfg.cat_rounds,
                    ..Default::default()
                },
            )),
            (PointModel::NeuralNet, loss) => Box::new(NeuralNet::with_params(
                loss,
                NeuralNetParams {
                    epochs: cfg.nn_epochs,
                    seed: cfg.nn_seed,
                    ..Default::default()
                },
            )),
        })
    }
}

impl fmt::Display for PointModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PointModel::Linear => "Linear Regression",
            PointModel::GaussianProcess => "GP",
            PointModel::Xgboost => "XGBoost",
            PointModel::CatBoost => "CatBoost",
            PointModel::NeuralNet => "Neural Network",
        };
        f.write_str(s)
    }
}

/// The nine region predictors of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionMethod {
    /// Gaussian-process interval (Eq. 4) — no conformal calibration.
    Gp,
    /// Raw quantile-regression band (no calibration).
    Qr(PointModel),
    /// Conformalized quantile regression (the paper's method).
    Cqr(PointModel),
}

impl RegionMethod {
    /// The nine methods in Table III's row order.
    pub const ALL: [RegionMethod; 9] = [
        RegionMethod::Gp,
        RegionMethod::Qr(PointModel::Linear),
        RegionMethod::Qr(PointModel::NeuralNet),
        RegionMethod::Qr(PointModel::Xgboost),
        RegionMethod::Qr(PointModel::CatBoost),
        RegionMethod::Cqr(PointModel::Linear),
        RegionMethod::Cqr(PointModel::NeuralNet),
        RegionMethod::Cqr(PointModel::Xgboost),
        RegionMethod::Cqr(PointModel::CatBoost),
    ];

    /// Whether the base model needs CFS feature selection.
    pub fn uses_cfs(&self) -> bool {
        match self {
            RegionMethod::Gp => true,
            RegionMethod::Qr(m) | RegionMethod::Cqr(m) => m.uses_cfs(),
        }
    }
}

impl fmt::Display for RegionMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionMethod::Gp => f.write_str("GP"),
            RegionMethod::Qr(m) => write!(f, "QR {m}"),
            RegionMethod::Cqr(m) => write!(f, "CQR {m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_linalg::Matrix;

    #[test]
    fn all_point_models_fit_and_predict() {
        let x = Matrix::from_rows(
            &(0..20)
                .map(|i| vec![i as f64, (i * i) as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let y: Vec<f64> = (0..20).map(|i| 2.0 * i as f64 + 1.0).collect();
        let cfg = ModelConfig::fast();
        for kind in PointModel::ALL {
            let mut m = kind.make_point(&cfg);
            m.fit(&x, &y).unwrap_or_else(|e| panic!("{kind}: {e}"));
            let p = m.predict_row(x.row(3)).unwrap();
            assert!(p.is_finite(), "{kind} produced {p}");
        }
    }

    #[test]
    fn quantile_factories_produce_working_models() {
        let x = Matrix::from_rows(&(0..30).map(|i| vec![i as f64]).collect::<Vec<_>>()).unwrap();
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let cfg = ModelConfig::fast();
        for kind in PointModel::ALL {
            match kind.make_quantile(0.9, &cfg) {
                Some(mut m) => {
                    m.fit(&x, &y).unwrap();
                    assert!(m.predict_row(&[5.0]).unwrap().is_finite());
                }
                None => assert_eq!(kind, PointModel::GaussianProcess),
            }
        }
    }

    #[test]
    fn cfs_usage_matches_paper() {
        assert!(PointModel::Linear.uses_cfs());
        assert!(PointModel::GaussianProcess.uses_cfs());
        assert!(PointModel::NeuralNet.uses_cfs());
        assert!(!PointModel::Xgboost.uses_cfs());
        assert!(!PointModel::CatBoost.uses_cfs());
        assert!(RegionMethod::Gp.uses_cfs());
        assert!(!RegionMethod::Cqr(PointModel::CatBoost).uses_cfs());
    }

    #[test]
    fn display_names_match_table_rows() {
        assert_eq!(
            RegionMethod::Cqr(PointModel::CatBoost).to_string(),
            "CQR CatBoost"
        );
        assert_eq!(
            RegionMethod::Qr(PointModel::Linear).to_string(),
            "QR Linear Regression"
        );
        assert_eq!(RegionMethod::Gp.to_string(), "GP");
    }

    #[test]
    fn table3_has_nine_rows() {
        assert_eq!(RegionMethod::ALL.len(), 9);
    }
}
