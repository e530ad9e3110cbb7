//! # vmin-models
//!
//! Hand-rolled point and quantile regressors for Vmin prediction — the five
//! model families the paper evaluates (§IV-C), all implementing the common
//! [`Regressor`] trait:
//!
//! | Paper model | Type here | Notes |
//! |---|---|---|
//! | Linear Regression | [`LinearRegression`] | OLS via QR, ridge fallback |
//! | QR Linear Regression | [`QuantileLinear`] | pinball loss + Adam |
//! | Gaussian Process | [`GaussianProcess`] | RBF kernel, LML-optimized |
//! | XGBoost | [`GradientBoost`] | second-order boosted trees |
//! | CatBoost | [`ObliviousBoost`] | oblivious-tree boosting |
//! | Neural Network | [`NeuralNet`] | 1×16 ReLU, Adam(0.01), 3000 epochs |
//!
//! Models that train by loss minimization take a [`Loss`], so the same
//! estimator serves both point prediction (`Loss::Squared`) and quantile
//! regression (`Loss::Pinball(q)`), exactly the switch the paper describes
//! in §II-B.
//!
//! ## Example
//!
//! ```
//! use vmin_models::{GradientBoost, Loss, Regressor};
//! use vmin_linalg::Matrix;
//!
//! let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
//! let y = [0.1, 1.1, 3.9, 9.2];
//! let mut point = GradientBoost::new(Loss::Squared);
//! point.fit(&x, &y)?;
//! let mut upper = GradientBoost::new(Loss::Pinball(0.95));
//! upper.fit(&x, &y)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops are kept where they mirror the underlying matrix math.
#![allow(clippy::needless_range_loop)]

mod ard;
mod ensemble;
mod fitplan;
mod gbt;
mod gp;
mod hist;
mod linear;
mod nn;
mod oblivious;
mod optimizer;
mod quantile_linear;
mod traits;
mod tree;

pub use ard::{ArdGp, ArdKernel};
pub use ensemble::Ensemble;
pub use fitplan::{
    standardize_design, validate_border_count, BinnedDataset, FitPlan, StandardizedDesign,
    MAX_BORDER_COUNT,
};
pub use gbt::{GradientBoost, GradientBoostParams};
pub use gp::{GaussianProcess, RbfKernel};
pub use hist::{hist_enabled, set_hist_enabled, with_histograms};
pub use linear::LinearRegression;
pub use nn::{NeuralNet, NeuralNetParams};
pub use oblivious::{ObliviousBoost, ObliviousBoostParams, TreeTable};
pub use optimizer::Adam;
pub use quantile_linear::QuantileLinear;
pub use traits::{Loss, ModelError, Regressor, Result};
pub use tree::{GradientTree, NodeView, TreeParams};
