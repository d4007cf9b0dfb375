//! Row-major dense `f32` matrix.

use crate::TensorError;
use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f32` values.
///
/// This is the workhorse type of the reproduction: model weights, per-head key/value
/// blocks and attention-logit rows are all `Matrix` values. The API mirrors the small
/// subset of BLAS a decoder-only transformer needs.
///
/// ```
/// use keyformer_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Register-tile height of the GEMM micro-kernel: rows of the left operand
/// processed per tile.
const GEMM_MR: usize = 4;
/// Register-tile width of the GEMM micro-kernel: columns of the right operand
/// processed per tile. `GEMM_MR * GEMM_NR` accumulators fit in registers.
const GEMM_NR: usize = 16;

/// GEMM micro-kernel: computes an `mr x nr` output tile whose element
/// `(i0 + mi, jo + ni)` is the dot product of row `i0 + mi` of `a` (stride
/// `lda`) with column `jb + ni` of `b` (stride `ldb`), written to `out` at
/// stride `ldo`.
///
/// Every output element accumulates its `k` products through a **single chain
/// in ascending-`k` order, started from `+0.0`**: `((0.0 + a₀·b₀) + a₁·b₁) +
/// …`, written out in full by the loop of [`Matrix::vecmat`]. A tile of one
/// row and a tile of four run the same chains, so a row's outputs do not
/// depend on the rows it is multiplied with — the contract that lets a decode
/// step and a prefill chunk share one kernel bit for bit. Register blocking
/// only reorders *independent* chains, never splits one. (`Iterator::sum`
/// starts from `-0.0`, so it is not this chain: an all-`-0.0` sum stays
/// `-0.0` there and becomes `+0.0` here.)
#[allow(clippy::too_many_arguments)]
#[inline]
fn gemm_tile(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    lda: usize,
    ldb: usize,
    ldo: usize,
    i0: usize,
    jb: usize,
    jo: usize,
    mr: usize,
    nr: usize,
    k: usize,
) {
    debug_assert!(mr <= GEMM_MR && nr <= GEMM_NR);
    let mut acc = [[0.0f32; GEMM_NR]; GEMM_MR];
    if nr == GEMM_NR {
        // Full-width tile: fixed-length inner loop, so the adds vectorize.
        for kk in 0..k {
            let brow = &b[kk * ldb + jb..kk * ldb + jb + GEMM_NR];
            for (mi, accrow) in acc[..mr].iter_mut().enumerate() {
                let a_val = a[(i0 + mi) * lda + kk];
                for (o, &bv) in accrow.iter_mut().zip(brow) {
                    *o += a_val * bv;
                }
            }
        }
    } else {
        // Ragged right/bottom edge: same arithmetic at runtime width.
        for kk in 0..k {
            let brow = &b[kk * ldb + jb..kk * ldb + jb + nr];
            for (mi, accrow) in acc[..mr].iter_mut().enumerate() {
                let a_val = a[(i0 + mi) * lda + kk];
                for (o, &bv) in accrow[..nr].iter_mut().zip(brow) {
                    *o += a_val * bv;
                }
            }
        }
    }
    for (mi, accrow) in acc[..mr].iter().enumerate() {
        let dst = (i0 + mi) * ldo + jo;
        out[dst..dst + nr].copy_from_slice(&accrow[..nr]);
    }
}

/// Tiled GEMM `out = a * b` over strided operands — the micro-kernel's
/// `A·B` entry point: the model's projections and readout (`b` a weight
/// stored `d_in x d_out`, `m` the chunk's rows, one for a decode step) and
/// the P·V half of chunk attention.
///
/// `a` holds `m` rows at stride `lda`, of which the first `k` columns are
/// read; `b` is `k x n` row-major (further rows are ignored); `out` receives
/// `m` rows of `n` columns at stride `ldo`. Strides let a caller multiply out
/// of, and into, column bands of wider buffers — a per-head slice of a
/// `tokens x d_model` block — and a `k` shorter than `a`'s rows restricts the
/// product to a causal extent.
///
/// **Single-chain contract:** every output element is one accumulation chain
/// over ascending `kk < k`, started from `+0.0`: `((0.0 + a[i][0]·b[0][j]) +
/// a[i][1]·b[1][j]) + …`, for any `m`, one row included. That is
/// bit-for-bit the loop of [`Matrix::vecmat`] (and of the `f32` arm of the
/// KV cache's `vecmat_into`) *including* their skip of exactly-zero
/// coefficients: a zero coefficient times a finite value adds `±0.0` to an
/// accumulator that started at `+0.0` and so is never `-0.0`, which leaves
/// its bits unchanged. Zero-padding a row of `a` past its own extent is
/// therefore free of consequence, as long as `b` is finite.
///
/// # Panics
///
/// Panics if a stride is shorter than the columns it spans or a buffer is
/// too short for the shape.
#[allow(clippy::too_many_arguments)]
pub fn matmul_strided(
    a: &[f32],
    lda: usize,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    ldo: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(lda >= k && ldo >= n, "stride shorter than the row it spans");
    assert!(a.len() >= (m - 1) * lda + k, "left operand too short");
    assert!(b.len() >= k * n, "right operand too short");
    assert!(out.len() >= (m - 1) * ldo + n, "output too short");
    let mut i0 = 0;
    while i0 < m {
        let mr = (m - i0).min(GEMM_MR);
        let mut j0 = 0;
        while j0 < n {
            let nr = (n - j0).min(GEMM_NR);
            gemm_tile(a, b, out, lda, n, ldo, i0, j0, j0, mr, nr, k);
            j0 += nr;
        }
        i0 += mr;
    }
}

/// The right operand of [`matmul_packed_bt`]: rows of a common width `k`,
/// transposed into `k x 16` panels (16 rows per panel, zero-padded) so the
/// micro-kernel's inner loop reads unit-stride memory. Pack once, multiply
/// many times; the buffer keeps its capacity across [`PackedPanels::reset`].
#[derive(Debug, Clone, Default)]
pub struct PackedPanels {
    k: usize,
    rows: usize,
    data: Vec<f32>,
}

impl PackedPanels {
    /// Creates an empty pack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the pack for rows of width `k`, keeping its capacity.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "packed rows need at least one column");
        self.k = k;
        self.rows = 0;
        self.data.clear();
    }

    /// Makes room for `rows` rows of width `k`, so that packing them after a
    /// [`PackedPanels::reset`] never reallocates.
    pub fn reserve(&mut self, k: usize, rows: usize) {
        let needed = rows.div_ceil(GEMM_NR) * GEMM_NR * k;
        self.data.reserve(needed.saturating_sub(self.data.len()));
    }

    /// Appends one row — pure data movement, no arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the width given to
    /// [`PackedPanels::reset`].
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.k, "row width must match the pack");
        let col = self.rows % GEMM_NR;
        if col == 0 {
            self.data.resize(self.data.len() + self.k * GEMM_NR, 0.0);
        }
        let column = self.data.len() - self.k * GEMM_NR + col;
        for (dst, &x) in self.data[column..].iter_mut().step_by(GEMM_NR).zip(row) {
            *dst = x;
        }
        self.rows += 1;
    }

    /// Rows packed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// Tiled GEMM `out = a * bᵀ` against packed rows — the micro-kernel's
/// `A·Bᵀ` entry point, and the QKᵀ half of chunk attention.
///
/// `a` holds `m` rows at stride `lda`, of which as many columns as a packed
/// row is wide are read; `out[i * ldo + j]` receives the dot product of row `i` of `a`
/// with packed row `j`, for the first `n` packed rows.
///
/// **Single-chain contract:** every output element is one accumulation chain
/// over ascending `kk`, started from `+0.0`, as in [`matmul_strided`]. It
/// has the bits of [`crate::vector::dot`] on the same two rows except where
/// every term is `-0.0`: `dot` is an `Iterator::sum`, which starts from
/// `-0.0` and keeps it, while this chain gives `+0.0`.
///
/// # Panics
///
/// Panics if `n > b.rows()`, a stride is shorter than the columns it spans
/// or a buffer is too short for the shape.
pub fn matmul_packed_bt(
    a: &[f32],
    lda: usize,
    m: usize,
    b: &PackedPanels,
    n: usize,
    out: &mut [f32],
    ldo: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    let k = b.k;
    assert!(n <= b.rows, "more columns requested than rows packed");
    assert!(lda >= k && ldo >= n, "stride shorter than the row it spans");
    assert!(a.len() >= (m - 1) * lda + k, "left operand too short");
    assert!(out.len() >= (m - 1) * ldo + n, "output too short");
    // Panel-major: one 16-row panel stays in L1 while every row tile of `a`
    // passes over it.
    for (p, panel) in b.data.chunks_exact(k * GEMM_NR).enumerate() {
        let j0 = p * GEMM_NR;
        if j0 >= n {
            break;
        }
        let nr = (n - j0).min(GEMM_NR);
        let mut i0 = 0;
        while i0 < m {
            let mr = (m - i0).min(GEMM_MR);
            if nr == GEMM_NR {
                gemm_tile(a, panel, out, lda, GEMM_NR, ldo, i0, 0, j0, mr, GEMM_NR, k);
            } else {
                // Ragged last panel: its padding makes the full-width
                // (vectorized) tile valid; only `nr` columns are kept.
                let mut edge = [0.0f32; GEMM_MR * GEMM_NR];
                let rows = &a[i0 * lda..];
                gemm_tile(
                    rows, panel, &mut edge, lda, GEMM_NR, GEMM_NR, 0, 0, 0, mr, GEMM_NR, k,
                );
                for (mi, tile_row) in edge.chunks_exact(GEMM_NR).take(mr).enumerate() {
                    let dst = (i0 + mi) * ldo + j0;
                    out[dst..dst + nr].copy_from_slice(&tile_row[..nr]);
                }
            }
            i0 += mr;
        }
    }
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidArgument(format!(
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

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = value;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks(self.cols.max(1))
    }

    /// Appends a row to the bottom of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols` (unless the matrix is empty, in which case the
    /// column count is adopted from the row).
    pub fn push_row(&mut self, row: &[f32]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row length must match column count");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Shrinks the matrix to its first `rows` rows, dropping the rest in place.
    ///
    /// This is the primitive the paged KV cache uses to give freed block tails
    /// back to the allocator without reallocating the surviving rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows > self.rows()`.
    pub fn truncate_rows(&mut self, rows: usize) {
        assert!(
            rows <= self.rows,
            "cannot truncate {} rows to {rows}",
            self.rows
        );
        self.data.truncate(rows * self.cols);
        self.rows = rows;
    }

    /// Returns a new matrix containing only the rows whose indices are listed in
    /// `indices`, in the order given. Indices may repeat.
    ///
    /// This is the primitive every eviction policy uses to rebuild a compacted KV
    /// cache from the set of retained token slots.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "gather index {src} out of bounds");
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix multiplication `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`. Use [`Matrix::try_matmul`] for a
    /// fallible variant.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.try_matmul(other)
            .expect("matmul shape mismatch: inner dimensions must agree")
    }

    /// Fallible matrix multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
    pub fn try_matmul(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        matmul_strided(
            &self.data,
            self.cols,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
            other.cols,
        );
        Ok(out)
    }

    /// Matrix multiplication `self * other` written into a caller-owned flat
    /// row-major buffer (`self.rows() * other.cols()` elements).
    ///
    /// Same tiled kernel as [`Matrix::matmul`]; performs no heap allocation
    /// when `out` already has sufficient capacity.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`. Use
    /// [`Matrix::try_matmul_into`] for a fallible variant.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Vec<f32>) {
        self.try_matmul_into(other, out)
            .expect("matmul shape mismatch: inner dimensions must agree")
    }

    /// Fallible [`Matrix::matmul_into`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
    pub fn try_matmul_into(&self, other: &Matrix, out: &mut Vec<f32>) -> Result<(), TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        out.clear();
        out.resize(self.rows * other.cols, 0.0);
        matmul_strided(
            &self.data,
            self.cols,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            out,
            other.cols,
        );
        Ok(())
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `v.len() != cols`.
    pub fn matvec(&self, v: &[f32]) -> Result<Vec<f32>, TensorError> {
        if v.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self
            .iter_rows()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Matrix-vector product `self * v` written into a caller-owned buffer.
    ///
    /// Bit-identical to [`Matrix::matvec`] (same per-row `zip`/`sum` reduction
    /// order); performs no heap allocation when `out` already has capacity for
    /// `rows` elements. The model's forward does not use it: its projections
    /// are [`matmul_strided`] over weights stored `d_in x d_out`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `v.len() != cols`.
    pub fn matvec_into(&self, v: &[f32], out: &mut Vec<f32>) -> Result<(), TensorError> {
        if v.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        out.clear();
        out.extend(
            self.iter_rows()
                .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum::<f32>()),
        );
        Ok(())
    }

    /// Reserves capacity for at least `additional` more rows without changing
    /// the matrix contents.
    ///
    /// The paged KV cache calls this when a fresh block is allocated so the
    /// per-token [`Matrix::push_row`] appends that fill the block never touch
    /// the allocator.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.cols.max(1));
    }

    /// Vector-matrix product `v * self` (treats `v` as a row vector).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `v.len() != rows`.
    pub fn vecmat(&self, v: &[f32]) -> Result<Vec<f32>, TensorError> {
        if v.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "vecmat",
                lhs: (1, v.len()),
                rhs: self.shape(),
            });
        }
        let mut out = vec![0.0f32; self.cols];
        for (r, &coeff) in v.iter().enumerate() {
            if coeff == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += coeff * x;
            }
        }
        Ok(out)
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every element by a scalar, in place.
    pub fn scale_in_place(&mut self, factor: f32) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Approximate memory footprint of the matrix payload in bytes.
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.row(0), &[58.0, 64.0]);
        assert_eq!(c.row(1), &[139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.try_matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    /// Deterministic pseudo-random matrix for kernel edge-case coverage.
    fn lcg_matrix(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for x in m.as_mut_slice() {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Map the top bits to [-1, 1).
            *x = ((*seed >> 40) as f32) / ((1u64 << 23) as f32) - 1.0;
        }
        m
    }

    /// Scalar reference with the same per-element ascending-`k` single-chain
    /// accumulation the tiled kernel promises.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn tiled_matmul_is_bit_identical_to_scalar_reference() {
        // Shapes chosen to exercise full tiles, ragged right/bottom edges and
        // degenerate dimensions of the register-blocked kernel.
        let shapes = [
            (1, 1, 1),
            (4, 8, 16),
            (5, 3, 17),
            (7, 13, 19),
            (3, 1, 33),
            (16, 16, 16),
            (2, 5, 1),
            (1, 7, 16),
        ];
        let mut seed = 0x5eed_cafe;
        for (m, k, n) in shapes {
            let a = lcg_matrix(m, k, &mut seed);
            let b = lcg_matrix(k, n, &mut seed);
            let tiled = a.matmul(&b);
            let reference = matmul_reference(&a, &b);
            assert_eq!(tiled, reference, "diverged at shape {m}x{k}x{n}");
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packed_bt_is_bit_identical_to_dot_on_ragged_shapes() {
        let mut seed = 0x0dd_ba11;
        // Rows off the 4-row tile, packed rows off the 16-row panel, and a
        // column extent `n` shorter than what was packed.
        for k in [1usize, 7, 32] {
            for packed in [1usize, 15, 16, 17, 40] {
                let b = lcg_matrix(packed, k, &mut seed);
                let mut panels = PackedPanels::new();
                panels.reset(k);
                for row in b.iter_rows() {
                    panels.push_row(row);
                }
                assert_eq!(panels.rows(), packed);
                for m in [1usize, 3, 4, 5, 9] {
                    for n in [packed, packed - packed / 3, 1] {
                        let (lda, ldo) = (k + 3, n + 2);
                        let a = lcg_matrix(m, lda, &mut seed);
                        let mut out = vec![f32::NAN; m * ldo];
                        matmul_packed_bt(a.as_slice(), lda, m, &panels, n, &mut out, ldo);
                        for i in 0..m {
                            let want: Vec<f32> = (0..n)
                                .map(|j| crate::vector::dot(&a.row(i)[..k], b.row(j)))
                                .collect();
                            assert_eq!(
                                bits(&out[i * ldo..i * ldo + n]),
                                bits(&want),
                                "k {k} packed {packed} m {m} n {n} row {i}"
                            );
                            assert!(
                                out[i * ldo + n..(i + 1) * ldo].iter().all(|x| x.is_nan()),
                                "columns past n must stay untouched"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn strided_matmul_is_bit_identical_to_vecmat_with_zeros_and_subnormals() {
        let mut seed = 0xfeed_5eed;
        for (m, rows, k, n) in [
            (1, 5, 5, 16),
            (5, 40, 33, 32),
            (9, 21, 17, 19),
            (4, 16, 3, 7),
        ] {
            let b = lcg_matrix(rows, n, &mut seed);
            let (lda, ldo) = (rows + 1, n + 5);
            let mut a = lcg_matrix(m, lda, &mut seed);
            for i in 0..m {
                let row = a.row_mut(i);
                // Softmax-like rows: leading exact zeros (underflowed
                // probabilities), then subnormals, then ordinary values.
                for (j, x) in row.iter_mut().enumerate() {
                    *x = match j {
                        j if j < i.min(3) => 0.0,
                        j if j < i.min(3) + 2 => f32::from_bits(1 + (j as u32) * 977),
                        _ => x.abs(),
                    };
                }
            }
            let mut out = vec![f32::NAN; m * ldo];
            matmul_strided(a.as_slice(), lda, m, k, b.as_slice(), n, &mut out, ldo);
            let causal = Matrix::from_vec(k, n, b.as_slice()[..k * n].to_vec()).unwrap();
            for i in 0..m {
                let want = causal.vecmat(&a.row(i)[..k]).unwrap();
                assert_eq!(
                    bits(&out[i * ldo..i * ldo + n]),
                    bits(&want),
                    "m {m} k {k} n {n} row {i}"
                );
                assert!(out[i * ldo + n..(i + 1) * ldo].iter().all(|x| x.is_nan()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "more columns requested")]
    fn packed_bt_rejects_unpacked_columns() {
        let mut panels = PackedPanels::new();
        panels.reset(2);
        panels.push_row(&[1.0, 2.0]);
        matmul_packed_bt(&[1.0, 1.0], 2, 1, &panels, 2, &mut [0.0; 2], 2);
    }

    #[test]
    fn matmul_into_known_values_and_shape_mismatch() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let mut out = vec![99.0; 2];
        a.matmul_into(&b, &mut out);
        assert_eq!(out, vec![58.0, 64.0, 139.0, 154.0]);
        assert_eq!(out, a.matmul(&b).into_vec(), "into variant matches matmul");
        assert!(matches!(
            a.try_matmul_into(&a, &mut out),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    /// Any split of a product's rows into ranges — ragged, uneven, a range
    /// per thread — gives the bits of the whole product.
    #[test]
    fn matmul_strided_row_ranges_match_the_whole_product() {
        let mut seed = 0x5b11_7e57_u64;
        let (m, k, n) = (23, 19, 37);
        let w = lcg_matrix(k, n, &mut seed);
        let xs = lcg_matrix(m, k, &mut seed);
        let whole = xs.matmul(&w);
        for cuts in [&[0usize, 23][..], &[0, 7, 16, 23], &[0, 2, 3, 11, 23]] {
            let mut split = vec![0.0; m * n];
            for range in cuts.windows(2) {
                let (a, b) = (range[0], range[1]);
                matmul_strided(
                    &xs.as_slice()[a * k..b * k],
                    k,
                    b - a,
                    k,
                    w.as_slice(),
                    n,
                    &mut split[a * n..b * n],
                    n,
                );
            }
            assert_eq!(bits(&split), bits(whole.as_slice()), "cuts {cuts:?}");
        }
    }

    /// One row through the GEMM — a decode step's projection — is, output
    /// by output, the hand-written chain over ascending `k` from `+0.0`,
    /// bit for bit: across full and ragged 16-column tiles, with exact zeros,
    /// signed zeros and subnormals in both operands.
    #[test]
    fn one_row_matmul_strided_is_the_ascending_chain_from_positive_zero() {
        let mut seed = 0x0e_7011_u64;
        let k = 21;
        for n in [1usize, 15, 17, 33, 130] {
            let mut w = lcg_matrix(k, n, &mut seed);
            for (i, x) in w.as_mut_slice().iter_mut().enumerate() {
                match i % 7 {
                    0 => *x = 0.0,
                    3 => *x = -0.0,
                    5 => *x = f32::from_bits(1 + i as u32) * x.signum(),
                    _ => {}
                }
            }
            let mut x = lcg_matrix(1, k, &mut seed).into_vec();
            x[0] = 0.0;
            x[1] = -0.0;
            x[2] = f32::from_bits(7);
            x[3] = -f32::MIN_POSITIVE;
            let mut out = vec![f32::NAN; n];
            matmul_strided(&x, k, 1, k, w.as_slice(), n, &mut out, n);
            let want: Vec<f32> = (0..n)
                .map(|j| {
                    let mut acc = 0.0f32;
                    for (kk, &xk) in x.iter().enumerate() {
                        acc += xk * w.get(kk, j);
                    }
                    acc
                })
                .collect();
            assert_eq!(bits(&out), bits(&want), "width {n}");
        }
        // Every product `-0.0`: the chain from `+0.0` stays `+0.0` (a sum
        // started from `-0.0` would give `-0.0`).
        for n in [1usize, 15, 17, 33, 130] {
            let w = Matrix::filled(3, n, 0.0);
            let mut out = vec![f32::NAN; n];
            matmul_strided(&[-1.0, -2.0, -0.5], 3, 1, 3, w.as_slice(), n, &mut out, n);
            assert!(
                out.iter().all(|x| x.to_bits() == 0.0f32.to_bits()),
                "width {n}: {out:?}"
            );
        }
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().row(0), &[1.0, 4.0]);
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let a = Matrix::from_rows(&[vec![1.0, 2.5, -3.0], vec![0.125, 4.0, 6.0]]);
        let v = [1.5f32, -2.0, 0.25];
        let mut out = vec![7.0; 5];
        a.matvec_into(&v, &mut out).unwrap();
        assert_eq!(out, a.matvec(&v).unwrap());
        assert!(a.matvec_into(&[1.0], &mut out).is_err());
    }

    #[test]
    fn reserve_rows_preallocates_for_push_row() {
        let mut m = Matrix::zeros(0, 3);
        m.reserve_rows(4);
        let cap = m.data.capacity();
        for _ in 0..4 {
            m.push_row(&[1.0, 2.0, 3.0]);
        }
        assert_eq!(m.data.capacity(), cap, "push_row must not reallocate");
        assert_eq!(m.shape(), (4, 3));
    }

    #[test]
    fn gather_rows_selects_and_reorders() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.shape(), (2, 2));
        assert_eq!(g.row(0), &[2.0, 2.0]);
        assert_eq!(g.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = Matrix::default();
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "row length must match")]
    fn push_row_wrong_width_panics() {
        let mut m = Matrix::zeros(1, 3);
        m.push_row(&[1.0]);
    }

    #[test]
    fn truncate_rows_drops_tail_in_place() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        m.truncate_rows(1);
        assert_eq!(m.shape(), (1, 2));
        assert_eq!(m.row(0), &[1.0, 2.0]);
        m.truncate_rows(1); // no-op at the same size
        assert_eq!(m.shape(), (1, 2));
        m.truncate_rows(0);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn truncate_rows_rejects_growth() {
        let mut m = Matrix::zeros(2, 2);
        m.truncate_rows(3);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn add_and_scale() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        let mut c = a.add(&b).unwrap();
        c.scale_in_place(2.0);
        assert!(c.as_slice().iter().all(|&x| x == 6.0));
        assert!(a.add(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn byte_size_counts_payload() {
        let a = Matrix::zeros(4, 8);
        assert_eq!(a.byte_size(), 4 * 8 * 4);
    }

    #[test]
    fn col_extracts_column() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }
}
