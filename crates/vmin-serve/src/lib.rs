//! # vmin-serve
//!
//! The deployment half of the pipeline: production-test screening scores
//! every chip coming off the line against an already-fitted CQR pair, so
//! serving must be fast, portable and bit-for-bit faithful to the model
//! the calibration guarantee was proven on. This crate provides the three
//! pieces (ROADMAP item 1):
//!
//! - **Flattened inference tables** ([`FlatGbt`], [`FlatOblivious`]):
//!   a fitted `GradientBoost` becomes one contiguous struct-of-arrays
//!   node table per ensemble (feature / threshold / child indices, leaves
//!   carrying the pre-scaled `learning_rate · weight` contribution), and
//!   each `ObliviousBoost` tree becomes a `2^depth` leaf lookup table
//!   indexed by a per-row comparison bitmask. Both kernels replay exactly
//!   the floating-point operations of the live-struct `predict_row`
//!   walks, in the same order, so predictions are **bit-identical** to
//!   trait dispatch — the equivalence suite asserts it seed by seed.
//! - **`vmin-artifact/v1`** ([`ServeModel::to_bytes`] /
//!   [`ServeModel::from_bytes`]): a versioned, deterministic little-endian
//!   binary format (magic header, length-prefixed sections, FNV-1a
//!   content checksum) snapshotting the flattened pair together with the
//!   calibration quantile `q̂`, the miscoverage level `α` and optional
//!   standardizer state. Reloads are bit-identical and predict without
//!   touching any fit path.
//! - **Batch serving** ([`ServeModel::serve_batch`]): row blocks fanned
//!   out via `vmin-par`, bit-identical across `VMIN_THREADS` and block
//!   sizes, with `serve.*` counters/spans.
//!
//! ## Example
//!
//! ```
//! use vmin_conformal::Cqr;
//! use vmin_linalg::Matrix;
//! use vmin_models::{GradientBoost, Loss};
//! use vmin_serve::ServeModel;
//!
//! let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.1]).collect();
//! let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
//! let x = Matrix::from_rows(&rows)?;
//! let mut cqr = Cqr::new(
//!     GradientBoost::new(Loss::Pinball(0.05)),
//!     GradientBoost::new(Loss::Pinball(0.95)),
//!     0.1,
//! );
//! cqr.fit_calibrate(&x, &y, &x, &y)?;
//!
//! let model = ServeModel::from_gbt_cqr(&cqr, None)?;
//! let bytes = model.to_bytes();
//! let reloaded = ServeModel::from_bytes(&bytes)?;
//! let served = reloaded.serve_batch(&x, 16)?;
//! let live = cqr.predict_interval(x.row(7))?;
//! assert_eq!(served[7].lo().to_bits(), live.lo().to_bits());
//! assert_eq!(served[7].hi().to_bits(), live.hi().to_bits());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod engine;
mod flat;

pub use artifact::{ArtifactError, MAGIC};
pub use engine::{ServeError, ServeModel};
pub use flat::{FlatGbt, FlatOblivious};
