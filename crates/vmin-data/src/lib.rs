//! # vmin-data
//!
//! Dataset handling for the `cqr-vmin` workspace: containers, deterministic
//! splits, standardization, correlation-based feature selection (CFS) and
//! the evaluation metrics of the paper.
//!
//! - [`Dataset`]: feature matrix + targets + names with row/column slicing.
//! - [`train_test_split`] / [`KFold`]: seed-deterministic splits (§IV-B uses
//!   4-fold CV and a 75/25 train/calibration split inside CQR).
//! - [`Standardizer`] / [`TargetScaler`]: z-scoring fit on training folds.
//! - [`cfs_select`] / [`cfs_sweep`]: CFS with Pearson correlation (§IV-C).
//! - [`r_squared`], [`rmse`]: the paper's point-prediction metrics
//!   (coverage and interval length live in `vmin-conformal`'s
//!   `IntervalReport`).
//!
//! ## Example
//!
//! ```
//! use vmin_data::{Dataset, KFold, Standardizer};
//! use vmin_linalg::Matrix;
//!
//! let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]])?;
//! let ds = Dataset::with_default_names(x, vec![10.0, 20.0, 30.0, 40.0])?;
//! let kf = KFold::new(ds.n_samples(), 2, 42);
//! for split in kf.iter() {
//!     let train = ds.subset_rows(&split.train)?;
//!     let scaler = Standardizer::fit(train.features());
//!     let _standardized = scaler.transform_dataset(&train)?;
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops are kept where they mirror the underlying matrix math.
#![allow(clippy::needless_range_loop)]

mod cfs;
mod dataset;
pub mod hygiene;
mod metrics;
mod split;
mod standardize;

pub use cfs::{cfs_select, cfs_sweep, CfsSelection};
pub use dataset::{Dataset, DatasetError};
pub use hygiene::{HygieneError, HygieneReport};
pub use metrics::{r_squared, rmse};
pub use split::{train_test_split, KFold, Split};
pub use standardize::{Standardizer, TargetScaler};
