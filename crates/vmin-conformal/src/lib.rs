//! # vmin-conformal
//!
//! Distribution-free prediction intervals with finite-sample coverage
//! guarantees — the paper's core machinery:
//!
//! - [`SplitConformal`]: vanilla split CP around any point regressor
//!   (§III-B, Eqs. 7–8). Constant-width intervals.
//! - [`Cqr`]: conformalized quantile regression around a lower/upper
//!   quantile pair (§III-C, Eqs. 9–10). Adaptive intervals, same guarantee.
//! - [`conformal_quantile`]: the `⌈(M+1)(1−α)⌉/M` empirical quantile both
//!   are built on.
//! - Extensions: [`NormalizedConformal`] and [`JackknifePlus`] (ablation
//!   A2), [`CqrAsymmetric`] (per-side CQR scores) and
//!   [`MondrianConformal`] (group-conditional CP, which no pipeline runs).
//! - [`AdaptiveCalibrator`]: the streaming in-field layer — rolling
//!   calibration window, ACI feedback, drift detection and the typed
//!   degradation ladder `Nominal → Widened → Recalibrating → Rejecting`.
//!
//! ## Example
//!
//! ```
//! use vmin_conformal::Cqr;
//! use vmin_models::{GradientBoost, Loss};
//! use vmin_linalg::Matrix;
//!
//! let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 20) as f64]).collect();
//! let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0).collect();
//! let x = Matrix::from_rows(&rows)?;
//!
//! let alpha = 0.1;
//! let mut cqr = Cqr::new(
//!     GradientBoost::new(Loss::Pinball(alpha / 2.0)),
//!     GradientBoost::new(Loss::Pinball(1.0 - alpha / 2.0)),
//!     alpha,
//! );
//! cqr.fit_calibrate(&x, &y, &x, &y)?;
//! let interval = cqr.predict_interval(&[10.0])?;
//! assert!(interval.contains(20.0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod cqr;
mod cqr_asymmetric;
mod extensions;
mod guard;
mod interval;
mod quantile;
mod split_cp;

pub use adaptive::{
    AdaptiveCalibrator, AdaptiveConfig, LadderState, LadderTransition, StreamObservation,
};
pub use cqr::Cqr;
pub use cqr_asymmetric::CqrAsymmetric;
pub use extensions::{JackknifePlus, MondrianConformal, NormalizedConformal};
pub use guard::GuardConfig;
pub use interval::{
    evaluate_intervals, CalibrationError, ConformalError, IntervalReport, PredictionInterval,
    Result,
};
pub use quantile::{conformal_quantile, min_calibration_size};
pub use split_cp::SplitConformal;
