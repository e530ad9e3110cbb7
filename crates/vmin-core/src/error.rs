//! The one error type of every fallible `vmin-core` function.

use std::error::Error;
use std::fmt;
use vmin_conformal::ConformalError;
use vmin_data::{DatasetError, HygieneError};
use vmin_linalg::LinalgError;
use vmin_models::ModelError;
use vmin_serve::ServeError;

/// Error from feature assembly, the fold pipelines, the cross-validated
/// experiments, the streaming loop, fused fleet screening and the
/// degradation pipeline.
///
/// A failure of a lower layer keeps its type: it arrives as the matching
/// variant (`?` converts it) and [`Error::source`] returns it. `Display`
/// names the layer and repeats the source's message, so a one-line report
/// (`{e}`) stays complete.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The configuration is inconsistent (e.g. α outside (0, 1), a fold
    /// count outside `2..=rows`, a base model without a quantile form).
    InvalidConfig(String),
    /// A read-point or temperature index fell outside the campaign's or
    /// spec's grid.
    Index(String),
    /// An internal invariant failed (surfaced instead of panicking).
    Shape(String),
    /// The model's feature width does not match the screening feature
    /// layout.
    Width {
        /// Width the serve model expects.
        expected: usize,
        /// Width the spec + feature set actually produce.
        got: usize,
    },
    /// A summary table lacked a row the statistic needs.
    MissingSummaryRow(&'static str),
    /// Strict mode found contamination and refused to fit on it.
    DirtyDataRejected {
        /// Human-readable account of what was found.
        summary: String,
    },
    /// A model failed to fit or predict.
    Model(ModelError),
    /// A conformal predictor failed to calibrate or predict.
    Conformal(ConformalError),
    /// A dataset operation failed.
    Dataset(DatasetError),
    /// A linear-algebra operation failed.
    Linalg(LinalgError),
    /// A hygiene repair pass failed (e.g. nothing left after exclusion).
    Hygiene(HygieneError),
    /// Serving a block failed.
    Serve(ServeError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            CoreError::Index(m) => write!(f, "index out of range: {m}"),
            CoreError::Shape(m) => write!(f, "shape inconsistency: {m}"),
            CoreError::Width { expected, got } => write!(
                f,
                "model expects {expected} features but the screening layout produces {got}"
            ),
            CoreError::MissingSummaryRow(row) => {
                write!(f, "feature-set study summary lacks the {row} row")
            }
            CoreError::DirtyDataRejected { summary } => {
                write!(f, "dirty data rejected (repair disabled): {summary}")
            }
            CoreError::Model(e) => write!(f, "model failure: {e}"),
            CoreError::Conformal(e) => write!(f, "conformal failure: {e}"),
            CoreError::Dataset(e) => write!(f, "dataset failure: {e}"),
            CoreError::Linalg(e) => write!(f, "linear-algebra failure: {e}"),
            CoreError::Hygiene(e) => write!(f, "hygiene repair failed: {e}"),
            CoreError::Serve(e) => write!(f, "serve failure: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            CoreError::Conformal(e) => Some(e),
            CoreError::Dataset(e) => Some(e),
            CoreError::Linalg(e) => Some(e),
            CoreError::Hygiene(e) => Some(e),
            CoreError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

macro_rules! wrap {
    ($($source:ty => $variant:ident),* $(,)?) => {$(
        impl From<$source> for CoreError {
            fn from(e: $source) -> Self {
                CoreError::$variant(e)
            }
        }
    )*};
}

wrap! {
    ModelError => Model,
    ConformalError => Conformal,
    DatasetError => Dataset,
    LinalgError => Linalg,
    HygieneError => Hygiene,
    ServeError => Serve,
}
