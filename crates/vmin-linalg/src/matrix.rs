//! A small dense, row-major, `f64` matrix.
//!
//! This is intentionally minimal: the workspace only needs the handful of
//! operations required by ordinary least squares, ridge regression and exact
//! Gaussian-process inference on datasets of a few hundred rows.

use crate::error::{LinalgError, Result};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Cache-tile edge (in elements) for the blocked matmul/gram kernels.
///
/// A 64×64 `f64` tile is 32 KiB — it fits L1 on every mainstream core.
/// The tile size never affects results: every kernel accumulates each
/// output element in a fixed index order regardless of blocking.
const TILE: usize = 64;

/// Output rows per parallel work unit in the blocked kernels. Each unit is
/// handed to [`vmin_par::par_chunks_mut`] as one disjoint `&mut` region.
const ROW_BLOCK: usize = 16;

/// Minimum number of row blocks before worker threads are spawned; below
/// this the kernels run serially on the calling thread.
///
/// Raised from 2 after a thread sweep showed the small workloads running
/// *slower* at 2 threads than at 1 (a 160×220 · 220×140 matmul
/// 1.54 vs 1.48 ms, a small CQR region cell 2.47 vs 2.31 ms; README,
/// "Performance trajectory"): at 2 blocks the spawn/join handoff costs
/// more than the ~160-row matmuls it splits. 16 blocks (256 output rows)
/// is the first size where splitting reliably pays for itself;
/// `matmul_serial_fallback_boundary_is_pinned` keeps the 160-row product
/// serial and the 256-row one split.
const MIN_PAR_BLOCKS: usize = 16;

/// Dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use vmin_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c[(1, 0)], 3.0);
/// # Ok::<(), vmin_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of equally-long rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if rows have differing lengths
    /// and [`LinalgError::InvalidArgument`] if `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "from_rows requires at least one row".into(),
            ));
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch(format!(
                    "row 0 has {cols} columns but row {i} has {}",
                    r.len()
                )));
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "buffer of length {} cannot form a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a fresh vector.
    ///
    /// Hot paths should prefer [`Matrix::col_iter`] (no allocation) or
    /// [`Matrix::copy_col_into`] (caller-owned buffer, reusable across
    /// calls) — this convenience accessor allocates on every call.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        self.col_iter(j).collect()
    }

    /// Iterates over column `j` top to bottom without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        self.data.iter().skip(j).step_by(self.cols).copied()
    }

    /// Copies column `j` into `buf`, clearing it first. Reusing one buffer
    /// across calls avoids the per-call allocation of [`Matrix::col`].
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn copy_col_into(&self, j: usize, buf: &mut Vec<f64>) {
        buf.clear();
        buf.extend(self.col_iter(j));
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`, computed with a cache-tiled ikj kernel
    /// parallelized over blocks of output rows.
    ///
    /// Each output element accumulates its `k` terms in ascending order
    /// regardless of tiling or thread count, so results are bit-identical
    /// to serial execution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matmul: lhs is {}x{} but rhs is {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let n = rhs.cols;
        if self.rows == 0 || n == 0 || self.cols == 0 {
            return Ok(out);
        }
        let _span = vmin_trace::span("linalg.matmul");
        vmin_trace::counter_add("linalg.matmul.calls", 1);
        vmin_trace::counter_add(
            "linalg.matmul.fma",
            (self.rows as u64) * (self.cols as u64) * (n as u64),
        );
        vmin_par::par_chunks_mut(&mut out.data, ROW_BLOCK * n, MIN_PAR_BLOCKS, |bi, block| {
            let i0 = bi * ROW_BLOCK;
            for (di, out_row) in block.chunks_mut(n).enumerate() {
                let lhs_row = self.row(i0 + di);
                for k0 in (0..self.cols).step_by(TILE) {
                    let k1 = (k0 + TILE).min(self.cols);
                    for j0 in (0..n).step_by(TILE) {
                        let j1 = (j0 + TILE).min(n);
                        for (k, &a) in lhs_row[k0..k1].iter().enumerate() {
                            if a == 0.0 {
                                continue;
                            }
                            let r0 = (k0 + k) * n;
                            let rhs_seg = &rhs.data[r0 + j0..r0 + j1];
                            for (o, &r) in out_row[j0..j1].iter_mut().zip(rhs_seg) {
                                *o += a * r;
                            }
                        }
                    }
                }
            }
        });
        Ok(out)
    }

    /// Matrix-vector product `self * v`, row-parallel.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "matvec: matrix has {} columns but vector has length {}",
                self.cols,
                v.len()
            )));
        }
        vmin_trace::counter_add("linalg.matvec.calls", 1);
        let mut out = vec![0.0; self.rows];
        // One parallel unit per MATVEC_BLOCK output elements: matvec rows
        // are cheap, so the unit is coarser than the matmul row block.
        const MATVEC_BLOCK: usize = 128;
        vmin_par::par_chunks_mut(&mut out, MATVEC_BLOCK, MIN_PAR_BLOCKS, |bi, chunk| {
            let i0 = bi * MATVEC_BLOCK;
            for (di, o) in chunk.iter_mut().enumerate() {
                let row = self.row(i0 + di);
                let mut acc = 0.0;
                for (a, b) in row.iter().zip(v) {
                    acc += a * b;
                }
                *o = acc;
            }
        });
        Ok(out)
    }

    /// Transposed matrix-vector product `selfᵀ * v`, streamed in row-major
    /// order — no transpose is materialized.
    ///
    /// Bit-identical to `self.transpose().matvec(v)`: each output element
    /// accumulates its row terms in ascending row order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != self.rows()`.
    pub fn matvec_t(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matvec_t: matrix has {} rows but vector has length {}",
                self.rows,
                v.len()
            )));
        }
        vmin_trace::counter_add("linalg.matvec_t.calls", 1);
        let mut out = vec![0.0; self.cols];
        let c = self.cols;
        // Parallel over column segments: every worker streams all rows but
        // owns a disjoint slice of the output.
        vmin_par::par_chunks_mut(&mut out, TILE, MIN_PAR_BLOCKS, |bi, chunk| {
            let j0 = bi * TILE;
            for (i, &vi) in v.iter().enumerate() {
                let seg = &self.data[i * c + j0..i * c + j0 + chunk.len()];
                for (o, &a) in chunk.iter_mut().zip(seg) {
                    *o += vi * a;
                }
            }
        });
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self` (always square `cols x cols`), computed
    /// symmetrically with the upper triangle parallelized over blocks of
    /// output rows.
    ///
    /// Each output element accumulates its data-row terms in ascending row
    /// order regardless of blocking, so results are bit-identical to serial
    /// execution.
    pub fn gram(&self) -> Matrix {
        let c = self.cols;
        let mut g = Matrix::zeros(c, c);
        if c == 0 || self.rows == 0 {
            return g;
        }
        let _span = vmin_trace::span("linalg.gram");
        vmin_trace::counter_add("linalg.gram.calls", 1);
        vmin_par::par_chunks_mut(&mut g.data, ROW_BLOCK * c, MIN_PAR_BLOCKS, |bi, block| {
            let a0 = bi * ROW_BLOCK;
            for i in 0..self.rows {
                let row = self.row(i);
                for (da, grow) in block.chunks_mut(c).enumerate() {
                    let a = a0 + da;
                    let ra = row[a];
                    if ra == 0.0 {
                        continue;
                    }
                    for (gv, &rb) in grow[a..].iter_mut().zip(&row[a..]) {
                        *gv += ra * rb;
                    }
                }
            }
        });
        // Mirror the upper triangle.
        for a in 0..c {
            for b in (a + 1)..c {
                g.data[b * c + a] = g.data[a * c + b];
            }
        }
        g
    }

    /// Adds `lambda` to every diagonal entry in place (Tikhonov / jitter).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, lambda: f64) {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        for i in 0..self.rows {
            self.data[i * self.cols + i] += lambda;
        }
    }

    /// Returns a new matrix with only the selected columns, in order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if any index is out of range.
    pub fn select_columns(&self, idx: &[usize]) -> Result<Matrix> {
        for &j in idx {
            if j >= self.cols {
                return Err(LinalgError::InvalidArgument(format!(
                    "column index {j} out of range for matrix with {} columns",
                    self.cols
                )));
            }
        }
        let mut out = Matrix::zeros(self.rows, idx.len());
        for i in 0..self.rows {
            for (jj, &j) in idx.iter().enumerate() {
                out[(i, jj)] = self[(i, j)];
            }
        }
        Ok(out)
    }

    /// Returns a new matrix with only the selected rows, in order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if any index is out of range.
    pub fn select_rows(&self, idx: &[usize]) -> Result<Matrix> {
        for &i in idx {
            if i >= self.rows {
                return Err(LinalgError::InvalidArgument(format!(
                    "row index {i} out of range for matrix with {} rows",
                    self.rows
                )));
            }
        }
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (ii, &i) in idx.iter().enumerate() {
            out.row_mut(ii).copy_from_slice(self.row(i));
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (∞-norm of the flattened matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            let row: Vec<String> = self.row(i).iter().map(|x| format!("{x:10.4}")).collect();
            writeln!(f, "[{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn shape_and_indexing() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert!(!m.is_square());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch(_)));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(
            Matrix::from_rows(&[]),
            Err(LinalgError::InvalidArgument(_))
        ));
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_identity() {
        let m = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(m.matmul(&i3).unwrap(), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_shape_error() {
        let a = sample();
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn matvec_known_values() {
        let m = sample();
        let v = m.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(v, vec![-2.0, -2.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let m = sample();
        let g = m.gram();
        let expected = m.transpose().matmul(&m).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - expected[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn add_diagonal_jitters() {
        let mut g = sample().gram();
        let before = g[(1, 1)];
        g.add_diagonal(0.5);
        assert_eq!(g[(1, 1)], before + 0.5);
        assert_eq!(g[(0, 1)], sample().gram()[(0, 1)]);
    }

    #[test]
    fn select_columns_and_rows() {
        let m = sample();
        let c = m.select_columns(&[2, 0]).unwrap();
        assert_eq!(c.row(0), &[3.0, 1.0]);
        let r = m.select_rows(&[1]).unwrap();
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0]);
        assert!(m.select_columns(&[9]).is_err());
        assert!(m.select_rows(&[9]).is_err());
    }

    #[test]
    fn arithmetic_operators() {
        let m = sample();
        let z = &m - &m;
        assert_eq!(z.frobenius_norm(), 0.0);
        let d = &(&m + &m) - &(&m * 2.0);
        assert!(d.max_abs() < 1e-15);
    }

    #[test]
    fn display_nonempty() {
        let s = format!("{}", sample());
        assert!(s.contains("1.0000"));
    }

    #[test]
    fn col_iter_and_copy_col_into_match_col() {
        let m = sample();
        let mut buf = vec![99.0; 7];
        for j in 0..m.cols() {
            assert_eq!(m.col_iter(j).collect::<Vec<_>>(), m.col(j));
            m.copy_col_into(j, &mut buf);
            assert_eq!(buf, m.col(j));
        }
    }

    /// Deterministic pseudo-random matrix (plain LCG; no external deps).
    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    /// Naive serial ikj reference, identical term order to the tiled kernel.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let v = a[(i, k)];
                if v == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out[(i, j)] += v * b[(k, j)];
                }
            }
        }
        out
    }

    #[test]
    fn tiled_matmul_is_bit_identical_to_serial_reference() {
        // Sizes straddling the tile edge and the parallel threshold.
        for &(m, k, n) in &[(3, 5, 4), (17, 65, 9), (70, 33, 70), (130, 64, 5)] {
            let a = pseudo_random(m, k, 1 + m as u64);
            let b = pseudo_random(k, n, 2 + n as u64);
            let expect = matmul_reference(&a, &b);
            for threads in [1, 2, 8] {
                let got = vmin_par::with_threads(threads, || a.matmul(&b).unwrap());
                assert_eq!(got, expect, "{m}x{k}x{n} threads {threads}");
            }
        }
    }

    /// Pins the kernels' serial-fallback boundary. The 160-row product
    /// (10 row blocks) once ran slower at two threads than at one, which is
    /// why `MIN_PAR_BLOCKS` exists: it must stay on the calling thread even
    /// with a worker to spare. A product of exactly `MIN_PAR_BLOCKS` row
    /// blocks must split. Neither may move a bit.
    #[test]
    fn matmul_serial_fallback_boundary_is_pinned() {
        let small = (pseudo_random(160, 220, 11), pseudo_random(220, 140, 12));
        let at_boundary = (
            pseudo_random(MIN_PAR_BLOCKS * ROW_BLOCK, 32, 13),
            pseudo_random(32, 24, 14),
        );
        for ((a, b), splits) in [(small, false), (at_boundary, true)] {
            let serial = vmin_par::with_threads(1, || a.matmul(&b).unwrap());
            let prev = vmin_trace::set_enabled(true);
            let (two, snap) =
                vmin_trace::with_collector(|| vmin_par::with_threads(2, || a.matmul(&b).unwrap()));
            vmin_trace::set_enabled(prev);
            let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&two), bits(&serial), "{} rows", a.rows());
            let fallback = snap.topology.get("par.serial.fallback");
            let spawned = snap.topology.get("par.tasks.spawned");
            if splits {
                assert_eq!((fallback, spawned), (None, Some(&2)), "{snap:?}");
            } else {
                assert_eq!((fallback, spawned), (Some(&1), None), "{snap:?}");
            }
        }
    }

    #[test]
    fn matvec_is_bit_identical_across_thread_counts() {
        let a = pseudo_random(300, 40, 7);
        let v: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let serial = vmin_par::with_threads(1, || a.matvec(&v).unwrap());
        for threads in [2, 8] {
            let got = vmin_par::with_threads(threads, || a.matvec(&v).unwrap());
            assert_eq!(got, serial, "threads {threads}");
        }
    }

    #[test]
    fn matvec_t_matches_materialized_transpose_bit_exactly() {
        let a = pseudo_random(90, 140, 11);
        let v: Vec<f64> = (0..90).map(|i| (i as f64 * 0.37).cos()).collect();
        let expect = a.transpose().matvec(&v).unwrap();
        for threads in [1, 2, 8] {
            let got = vmin_par::with_threads(threads, || a.matvec_t(&v).unwrap());
            assert_eq!(got, expect, "threads {threads}");
        }
        assert!(a.matvec_t(&v[..10]).is_err());
    }

    #[test]
    fn gram_is_bit_identical_to_explicit_transpose_product() {
        // transpose().matmul(&m) accumulates the same terms in the same
        // order with the same zero-skip, so equality is exact.
        for &(rows, cols) in &[(5, 3), (60, 40), (200, 20)] {
            let m = pseudo_random(rows, cols, rows as u64 * 31 + cols as u64);
            let expect = m.transpose().matmul(&m).unwrap();
            for threads in [1, 2, 8] {
                let got = vmin_par::with_threads(threads, || m.gram());
                assert_eq!(got, expect, "{rows}x{cols} threads {threads}");
            }
        }
    }
}
