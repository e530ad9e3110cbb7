//! The serving engine: a captured model plus its one serving body.

use crate::flat::{lane_key, lane_stride, FlatGbt, FlatOblivious, GROUP};
use std::error::Error;
use std::fmt;
use std::ops::Range;
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
    /// A [`RowSource`] layout is inconsistent (a column range reversed or
    /// past the record stride, a partial trailing record) or the output
    /// slice does not hold one interval per row.
    InvalidRows(String),
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
            ServeError::InvalidRows(m) => write!(f, "invalid rows: {m}"),
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

    /// Bytes of the derived kernel tables of both ensembles (oblivious
    /// trees serve straight from their serialized LUTs and derive none).
    pub(crate) fn table_bytes(&self) -> usize {
        match self {
            FlatPair::Gbt { lo, hi } => lo.kernel.table_bytes() + hi.kernel.table_bytes(),
            FlatPair::Oblivious { .. } => 0,
        }
    }
}

/// Feature rows as the serving body reads them: `data` holds row-major
/// records of `stride` values each, and a record's feature row is the
/// concatenation of the column ranges `columns`, in order. A [`Matrix`] is
/// the one-range case; a generated chunk hands over its chip records and
/// the feature layout's ranges, so nothing is copied into a feature matrix
/// first.
#[derive(Debug, Clone, Copy)]
pub struct RowSource<'a> {
    data: &'a [f64],
    stride: usize,
    columns: &'a [(usize, usize)],
    width: usize,
}

impl<'a> RowSource<'a> {
    /// Checks the layout: every range `(a, b)` must satisfy
    /// `a ≤ b ≤ stride`, and `data` must hold whole records.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRows`] naming the first violation.
    pub fn new(
        data: &'a [f64],
        stride: usize,
        columns: &'a [(usize, usize)],
    ) -> Result<Self, ServeError> {
        if let Some(&(a, b)) = columns.iter().find(|&&(a, b)| a > b || b > stride) {
            return Err(ServeError::InvalidRows(format!(
                "column range ({a}, {b}) does not fit records of {stride} values"
            )));
        }
        // A zero stride holds whole records only when there is no data.
        if !data.len().is_multiple_of(stride) {
            return Err(ServeError::InvalidRows(format!(
                "{} values are not whole records of {stride}",
                data.len()
            )));
        }
        Ok(RowSource {
            data,
            stride,
            columns,
            width: columns.iter().map(|&(a, b)| b - a).sum(),
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.stride).unwrap_or(0)
    }

    /// Width of every feature row (the summed range lengths).
    pub fn width(&self) -> usize {
        self.width
    }
}

/// A deployable snapshot of a fitted, calibrated CQR pair: flattened
/// kernels, `α`, `q̂` and optional standardizer state. Build one from a
/// live pair ([`Self::from_gbt_cqr`] / [`Self::from_oblivious_cqr`]) or
/// reload one from `vmin-artifact/v1` bytes ([`Self::from_bytes`]); both
/// serve through [`Self::serve_rows`] (or [`Self::serve_batch`] for a
/// [`Matrix`]).
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
        vmin_trace::gauge_max("serve.table.bytes", pair.table_bytes() as f64);
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

    /// Serves conformal intervals for every row of `x`: [`Self::serve_rows`]
    /// over the matrix as a one-range [`RowSource`], collected into a
    /// vector.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] when `x` has the wrong width.
    pub fn serve_batch(
        &self,
        x: &Matrix,
        block_rows: usize,
    ) -> Result<Vec<PredictionInterval>, ServeError> {
        let columns = [(0, x.cols())];
        let src = RowSource::new(x.as_slice(), x.cols(), &columns)?;
        let mut out = vec![PredictionInterval::new(0.0, 0.0); src.rows()];
        self.serve_rows(&src, block_rows, &mut out)?;
        Ok(out)
    }

    /// The serving body: writes the conformal interval of row `i` of `src`
    /// into `out[i]`, processing `block_rows` rows per block (floored at
    /// the kernels' 8-row lockstep group, so only a call's final block
    /// can be partial) and fanning blocks out via `vmin-par` — work is
    /// partitioned by block index, so outputs are bit-identical at any
    /// `VMIN_THREADS` and any block size.
    ///
    /// Each block gathers its rows once, straight from `src`'s records,
    /// into the lane-major block both ensembles' kernels read
    /// (standardizing them when the artifact captured a scaler, with the
    /// training-side `transform_row` expression); its last lockstep group
    /// is padded to full size and the padding's outputs are dropped. Each
    /// interval is `[lo(x) − q̂, hi(x) + q̂]` built through
    /// `PredictionInterval::new`, crossed-endpoint swap included — the
    /// exact expression `Cqr::predict_interval` evaluates.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] when `src` rows have the wrong width;
    /// [`ServeError::InvalidRows`] when `out` does not hold one slot per
    /// row.
    pub fn serve_rows(
        &self,
        src: &RowSource<'_>,
        block_rows: usize,
        out: &mut [PredictionInterval],
    ) -> Result<(), ServeError> {
        let d = self.n_features();
        if src.width() != d {
            return Err(ServeError::ShapeMismatch {
                expected: d,
                got: src.width(),
            });
        }
        let n = src.rows();
        if out.len() != n {
            return Err(ServeError::InvalidRows(format!(
                "{} output slots for {n} rows",
                out.len()
            )));
        }
        let _span = vmin_trace::span("serve.batch");
        vmin_trace::counter_add("serve.batches", 1);
        vmin_trace::counter_add("serve.rows", n as u64);
        if n == 0 {
            return Ok(());
        }
        let block = block_rows.max(GROUP);
        vmin_trace::counter_add("serve.blocks", n.div_ceil(block) as u64);
        vmin_par::par_chunks_mut(out, block, 2, |ci, chunk| {
            let rows = ci * block..ci * block + chunk.len();
            let padded = chunk.len().next_multiple_of(GROUP);
            let mut acc = vec![0.0f64; 2 * padded];
            let (lo_acc, hi_acc) = acc.split_at_mut(padded);
            match &self.pair {
                FlatPair::Gbt { lo, hi } => {
                    let lanes = self.gather(src, rows, lane_stride(d), lane_key);
                    lo.accumulate_block(&lanes, lo_acc);
                    hi.accumulate_block(&lanes, hi_acc);
                }
                FlatPair::Oblivious { lo, hi } => {
                    let lanes = self.gather(src, rows, d * GROUP, |v| v);
                    lo.accumulate_block(&lanes, lo_acc);
                    hi.accumulate_block(&lanes, hi_acc);
                }
            }
            for (iv, (l, h)) in chunk.iter_mut().zip(lo_acc.iter().zip(hi_acc.iter())) {
                *iv = PredictionInterval::new(l - self.qhat, h + self.qhat);
            }
        });
        Ok(())
    }

    /// Gathers `rows` of `src` into one lane-major block: after the
    /// scaler, feature `f` of the `i`-th row lands at
    /// `(i / GROUP)·stride + f·GROUP + i % GROUP` as `key(v)`, with
    /// `stride` the values per group the pair's kernel reads; the last
    /// group is padded to a whole `GROUP` with `T::default()`.
    fn gather<T: Copy + Default>(
        &self,
        src: &RowSource<'_>,
        rows: Range<usize>,
        stride: usize,
        key: impl Fn(f64) -> T,
    ) -> Vec<T> {
        let mut lanes = vec![T::default(); rows.len().div_ceil(GROUP) * stride];
        for (i, r) in rows.enumerate() {
            let base = i / GROUP * stride + i % GROUP;
            let record = &src.data[r * src.stride..(r + 1) * src.stride];
            let mut f = 0;
            for &(a, b) in src.columns {
                for &v in &record[a..b] {
                    let v = match &self.scaler {
                        Some(s) => (v - s.means[f]) / s.scales[f],
                        None => v,
                    };
                    lanes[base + f * GROUP] = key(v);
                    f += 1;
                }
            }
        }
        lanes
    }
}

fn capture_scaler(s: &Standardizer) -> ScalerState {
    ScalerState {
        means: s.means().to_vec(),
        scales: s.scales().to_vec(),
    }
}
