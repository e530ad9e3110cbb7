//! The serving engine: a captured model plus `serve_batch`.

use crate::flat::{FlatGbt, FlatOblivious};
use std::error::Error;
use std::fmt;
use vmin_conformal::{Cqr, PredictionInterval};
use vmin_data::Standardizer;
use vmin_linalg::Matrix;
use vmin_models::{GradientBoost, ObliviousBoost};

/// Typed serving/capture failure. Artifact *decoding* failures are the
/// separate [`crate::ArtifactError`]; this covers live-model capture and
/// batch-shape problems.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The CQR pair has no calibration quantile yet (`calibrate` never ran).
    NotCalibrated,
    /// A model failed flattening validation (unfitted, inconsistent
    /// shapes, structural invariant violated).
    InvalidModel(String),
    /// A batch's column count differs from the captured model's width.
    ShapeMismatch {
        /// Width the captured model expects.
        expected: usize,
        /// Width the batch actually has.
        got: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NotCalibrated => {
                write!(f, "CQR pair is not calibrated; no q-hat to capture")
            }
            ServeError::InvalidModel(m) => write!(f, "invalid model: {m}"),
            ServeError::ShapeMismatch { expected, got } => {
                write!(f, "batch has {got} columns, model expects {expected}")
            }
        }
    }
}

impl Error for ServeError {}

/// Captured standardizer state, applied row-wise before the kernels with
/// the same `(v - mean) / scale` expression `Standardizer::transform_row`
/// evaluates — element-for-element identical bits.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScalerState {
    pub(crate) means: Vec<f64>,
    pub(crate) scales: Vec<f64>,
}

/// The flattened quantile pair, one variant per booster family. The
/// ensembles are boxed: each `Flat*` carries its derived kernel tables
/// inline, so the unboxed variants would be hundreds of bytes apart.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FlatPair {
    /// XGBoost-style pair.
    Gbt {
        /// Lower-quantile ensemble.
        lo: Box<FlatGbt>,
        /// Upper-quantile ensemble.
        hi: Box<FlatGbt>,
    },
    /// CatBoost-style pair.
    Oblivious {
        /// Lower-quantile ensemble.
        lo: Box<FlatOblivious>,
        /// Upper-quantile ensemble.
        hi: Box<FlatOblivious>,
    },
}

impl FlatPair {
    fn n_features(&self) -> usize {
        match self {
            FlatPair::Gbt { lo, .. } => lo.n_features(),
            FlatPair::Oblivious { lo, .. } => lo.n_features(),
        }
    }
}

/// A deployable snapshot of a fitted, calibrated CQR pair: flattened
/// kernels, `α`, `q̂` and optional standardizer state. Build one from a
/// live pair ([`Self::from_gbt_cqr`] / [`Self::from_oblivious_cqr`]) or
/// reload one from `vmin-artifact/v1` bytes ([`Self::from_bytes`]); both
/// serve through [`Self::serve_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeModel {
    pub(crate) pair: FlatPair,
    pub(crate) alpha: f64,
    pub(crate) qhat: f64,
    pub(crate) scaler: Option<ScalerState>,
}

impl ServeModel {
    fn validate(
        pair: FlatPair,
        alpha: f64,
        qhat: f64,
        scaler: Option<ScalerState>,
    ) -> Result<Self, ServeError> {
        let (lo_w, hi_w) = match &pair {
            FlatPair::Gbt { lo, hi } => (lo.n_features(), hi.n_features()),
            FlatPair::Oblivious { lo, hi } => (lo.n_features(), hi.n_features()),
        };
        if lo_w != hi_w {
            return Err(ServeError::InvalidModel(format!(
                "quantile pair disagrees on width: lo {lo_w} vs hi {hi_w}"
            )));
        }
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(ServeError::InvalidModel(format!(
                "alpha must be in (0, 1), got {alpha}"
            )));
        }
        if qhat.is_nan() {
            return Err(ServeError::InvalidModel("q-hat is NaN".to_string()));
        }
        if let Some(s) = &scaler {
            if s.means.len() != lo_w || s.scales.len() != lo_w {
                return Err(ServeError::InvalidModel(format!(
                    "scaler covers {} columns, models expect {lo_w}",
                    s.means.len()
                )));
            }
            if s.scales.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
                return Err(ServeError::InvalidModel(
                    "scaler scales must be finite and positive".to_string(),
                ));
            }
        }
        Ok(ServeModel {
            pair,
            alpha,
            qhat,
            scaler,
        })
    }

    /// Captures a fitted, calibrated XGBoost-style pair (plus the
    /// standardizer its features were transformed with, when one exists).
    ///
    /// # Errors
    ///
    /// [`ServeError::NotCalibrated`] before calibration;
    /// [`ServeError::InvalidModel`] when flattening fails.
    pub fn from_gbt_cqr(
        cqr: &Cqr<GradientBoost, GradientBoost>,
        scaler: Option<&Standardizer>,
    ) -> Result<Self, ServeError> {
        let qhat = cqr.qhat().ok_or(ServeError::NotCalibrated)?;
        let pair = FlatPair::Gbt {
            lo: Box::new(FlatGbt::compile(cqr.lo_model())?),
            hi: Box::new(FlatGbt::compile(cqr.hi_model())?),
        };
        Self::validate(pair, cqr.alpha(), qhat, scaler.map(capture_scaler))
    }

    /// Captures a fitted, calibrated CatBoost-style pair.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::from_gbt_cqr`].
    pub fn from_oblivious_cqr(
        cqr: &Cqr<ObliviousBoost, ObliviousBoost>,
        scaler: Option<&Standardizer>,
    ) -> Result<Self, ServeError> {
        let qhat = cqr.qhat().ok_or(ServeError::NotCalibrated)?;
        let pair = FlatPair::Oblivious {
            lo: Box::new(FlatOblivious::compile(cqr.lo_model())?),
            hi: Box::new(FlatOblivious::compile(cqr.hi_model())?),
        };
        Self::validate(pair, cqr.alpha(), qhat, scaler.map(capture_scaler))
    }

    /// Reassembles a decoded artifact; shared validation with capture.
    pub(crate) fn from_parts(
        pair: FlatPair,
        alpha: f64,
        qhat: f64,
        scaler: Option<ScalerState>,
    ) -> Result<Self, ServeError> {
        Self::validate(pair, alpha, qhat, scaler)
    }

    /// Width every served row must have.
    pub fn n_features(&self) -> usize {
        self.pair.n_features()
    }

    /// The captured miscoverage level `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The captured calibration quantile `q̂`.
    pub fn qhat(&self) -> f64 {
        self.qhat
    }

    /// Copies row `i` of `x` into `dst`, standardizing when the artifact
    /// captured a scaler (same per-element expression as the training-side
    /// `transform_row`).
    fn gather_row(&self, x: &Matrix, i: usize, dst: &mut [f64]) {
        let row = x.row(i);
        match &self.scaler {
            None => dst.copy_from_slice(row),
            Some(s) => {
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = (row[j] - s.means[j]) / s.scales[j];
                }
            }
        }
    }

    /// Serves conformal intervals for every row of `x`, processing
    /// `block_rows` rows per block (clamped to ≥ 1) and fanning blocks out
    /// via `vmin-par` — work is partitioned by block index and collected
    /// in block order, so outputs are bit-identical at any `VMIN_THREADS`
    /// and any block size.
    ///
    /// Each interval is `[lo(x) − q̂, hi(x) + q̂]` built through
    /// `PredictionInterval::new`, crossed-endpoint swap included — the
    /// exact expression `Cqr::predict_interval` evaluates.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] when `x` has the wrong width.
    pub fn serve_batch(
        &self,
        x: &Matrix,
        block_rows: usize,
    ) -> Result<Vec<PredictionInterval>, ServeError> {
        let d = self.n_features();
        if x.cols() != d {
            return Err(ServeError::ShapeMismatch {
                expected: d,
                got: x.cols(),
            });
        }
        let _span = vmin_trace::span("serve.batch");
        vmin_trace::counter_add("serve.batches", 1);
        let n = x.rows();
        vmin_trace::counter_add("serve.rows", n as u64);
        if n == 0 {
            return Ok(Vec::new());
        }
        let block = block_rows.max(1);
        let mut bands = vec![(0.0f64, 0.0f64); n];
        vmin_trace::counter_add("serve.blocks", n.div_ceil(block) as u64);
        vmin_par::par_chunks_mut(&mut bands, block, 2, |ci, chunk| {
            let start = ci * block;
            let mut rows = vec![0.0f64; chunk.len() * d];
            for (j, dst) in rows.chunks_mut(d).enumerate() {
                self.gather_row(x, start + j, dst);
            }
            let mut lo_acc = vec![0.0f64; chunk.len()];
            let mut hi_acc = vec![0.0f64; chunk.len()];
            match &self.pair {
                FlatPair::Gbt { lo, hi } => {
                    lo.accumulate_block(&rows, d, &mut lo_acc);
                    hi.accumulate_block(&rows, d, &mut hi_acc);
                }
                FlatPair::Oblivious { lo, hi } => {
                    lo.accumulate_block(&rows, d, &mut lo_acc);
                    hi.accumulate_block(&rows, d, &mut hi_acc);
                }
            }
            for (band, (l, h)) in chunk.iter_mut().zip(lo_acc.iter().zip(&hi_acc)) {
                *band = (*l, *h);
            }
        });
        Ok(bands
            .into_iter()
            .map(|(lo, hi)| PredictionInterval::new(lo - self.qhat, hi + self.qhat))
            .collect())
    }
}

fn capture_scaler(s: &Standardizer) -> ScalerState {
    ScalerState {
        means: s.means().to_vec(),
        scales: s.scales().to_vec(),
    }
}
