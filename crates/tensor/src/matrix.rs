//! Row-major dense `f32` matrix.

use crate::TensorError;

/// A dense, row-major matrix of `f32` values.
///
/// The storage type of the reproduction: model weights and per-head key/value
/// blocks are `Matrix` values. The forward multiplies them through the
/// free kernels [`matmul_strided`] and [`matmul_packed_bt`] on
/// [`Matrix::as_slice`]; the methods here build, grow, shrink and read them.
///
/// ```
/// use keyformer_tensor::Matrix;
///
/// let mut m = Matrix::zeros(0, 3);
/// m.push_row(&[1.0, 2.0, 3.0]);
/// m.push_row(&[4.0, 5.0, 6.0]);
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Rows of the left operand in a multi-row tile of the GEMM micro-kernel. A
/// `2 x 16` tile keeps its eight 4-lane accumulators in x86-64's baseline
/// SSE registers with room for the operands. A third row measured no faster
/// (its twelve accumulators leave no room for the operands), and a fourth
/// spills.
const TILE_ROWS: usize = 2;
/// Columns of a multi-row tile, and the width of a [`PackedPanels`] panel.
const PANEL: usize = 16;
/// Columns of a lone row's tile, the shape of every decode-step projection
/// and readout. It is wider than the register file on purpose: a lone row's
/// product streams its whole right operand once, and reading `ROW_TILE`
/// contiguous columns of every `b` row per `k` step keeps that stream
/// sequential enough to run at cache bandwidth. Measured on the decode
/// step's weights (4 layers of `128 x 128` and `128 x 256` projections plus
/// the `128 x 1024` readout) on a 2-core Xeon VM, baseline x86-64: 32 and 64
/// columns were slower, and so was 256.
const ROW_TILE: usize = 128;

/// GEMM micro-kernel: an `MR x NR` output tile, for shapes fixed at compile
/// time. Element `(mi, ni)` of the tile, written to `out[mi * ldo + ni]`, is
/// the dot product of the first `k` entries of row `mi` of `a` (stride
/// `lda`) with column `ni` of `b` (stride `ldb`): the slices start at the
/// tile's first row, column and output element.
///
/// Every output element accumulates its `k` products through a **single chain
/// in ascending-`k` order, started from `+0.0`**: `((0.0 + a₀·b₀) + a₁·b₁) +
/// …`, written out in full by the loop of [`Matrix::vecmat`]. Every tile
/// shape — and [`edge`] — runs the same chains, so a row's outputs do not
/// depend on the rows it is multiplied with or the tile that computed them:
/// the contract that lets a decode step and a prefill chunk share one kernel
/// bit for bit. The fixed shape only lets the compiler unroll the tile and
/// reorder its *independent* chains across vector lanes; no chain is ever
/// split, and a multiply and an add are never fused. (`Iterator::sum`
/// starts from `-0.0`, so it is not this chain: an all-`-0.0` sum stays
/// `-0.0` there and becomes `+0.0` here.)
#[inline(always)]
fn tile<const MR: usize, const NR: usize>(
    a: &[f32],
    lda: usize,
    k: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let rows: [&[f32]; MR] = std::array::from_fn(|mi| &a[mi * lda..mi * lda + k]);
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let brow: &[f32; NR] = b[kk * ldb..kk * ldb + NR]
            .try_into()
            .expect("a slice of NR elements");
        for (accrow, row) in acc.iter_mut().zip(&rows) {
            let a_val = row[kk];
            for (o, &bv) in accrow.iter_mut().zip(brow) {
                *o += a_val * bv;
            }
        }
    }
    for (mi, accrow) in acc.iter().enumerate() {
        out[mi * ldo..mi * ldo + NR].copy_from_slice(accrow);
    }
}

/// The ragged right edge of [`tile`]: `MR` rows by a runtime `nr < PANEL`
/// columns, the same chains at runtime width.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn edge<const MR: usize>(
    a: &[f32],
    lda: usize,
    k: usize,
    b: &[f32],
    ldb: usize,
    nr: usize,
    out: &mut [f32],
    ldo: usize,
) {
    debug_assert!(nr < PANEL);
    let rows: [&[f32]; MR] = std::array::from_fn(|mi| &a[mi * lda..mi * lda + k]);
    let mut acc = [[0.0f32; PANEL]; MR];
    for kk in 0..k {
        let brow = &b[kk * ldb..kk * ldb + nr];
        for (accrow, row) in acc.iter_mut().zip(&rows) {
            let a_val = row[kk];
            for (o, &bv) in accrow[..nr].iter_mut().zip(brow) {
                *o += a_val * bv;
            }
        }
    }
    for (mi, accrow) in acc.iter().enumerate() {
        out[mi * ldo..mi * ldo + nr].copy_from_slice(&accrow[..nr]);
    }
}

/// `MR` rows of [`matmul_strided`] across all `n` columns of `b` (stride
/// `n`), left to right: a lone row in [`ROW_TILE`]-wide tiles first, then
/// [`PANEL`]-wide tiles, then the ragged edge.
#[inline(always)]
fn strided_rows<const MR: usize>(
    a: &[f32],
    lda: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let mut j = 0;
    if MR == 1 {
        while n - j >= ROW_TILE {
            tile::<1, ROW_TILE>(a, lda, k, &b[j..], n, &mut out[j..], ldo);
            j += ROW_TILE;
        }
    }
    while n - j >= PANEL {
        tile::<MR, PANEL>(a, lda, k, &b[j..], n, &mut out[j..], ldo);
        j += PANEL;
    }
    if j < n {
        edge::<MR>(a, lda, k, &b[j..], n, n - j, &mut out[j..], ldo);
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
/// Rows go through `2 x 16` register tiles two at a time; a lone row — a
/// decode step's, or an odd last row — goes through `1 x 128` tiles first,
/// then `1 x 16` ones. A ragged right edge runs at runtime width.
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
    let mut i = 0;
    while m - i >= TILE_ROWS {
        strided_rows::<TILE_ROWS>(&a[i * lda..], lda, k, b, n, &mut out[i * ldo..], ldo);
        i += TILE_ROWS;
    }
    for i in i..m {
        strided_rows::<1>(&a[i * lda..], lda, k, b, n, &mut out[i * ldo..], ldo);
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
        let needed = rows.div_ceil(PANEL) * PANEL * k;
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
        let col = self.rows % PANEL;
        if col == 0 {
            self.data.resize(self.data.len() + self.k * PANEL, 0.0);
        }
        let column = self.data.len() - self.k * PANEL + col;
        for (dst, &x) in self.data[column..].iter_mut().step_by(PANEL).zip(row) {
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
    for (p, panel) in b.data.chunks_exact(k * PANEL).enumerate() {
        let j0 = p * PANEL;
        if j0 >= n {
            break;
        }
        let nr = (n - j0).min(PANEL);
        let out = &mut out[j0..];
        let mut i = 0;
        while m - i >= TILE_ROWS {
            packed_rows::<TILE_ROWS>(&a[i * lda..], lda, k, panel, nr, &mut out[i * ldo..], ldo);
            i += TILE_ROWS;
        }
        for i in i..m {
            packed_rows::<1>(&a[i * lda..], lda, k, panel, nr, &mut out[i * ldo..], ldo);
        }
    }
}

/// `MR` rows of [`matmul_packed_bt`] against one panel, of which the first
/// `nr` columns are kept.
#[inline(always)]
fn packed_rows<const MR: usize>(
    a: &[f32],
    lda: usize,
    k: usize,
    panel: &[f32],
    nr: usize,
    out: &mut [f32],
    ldo: usize,
) {
    if nr == PANEL {
        tile::<MR, PANEL>(a, lda, k, panel, PANEL, out, ldo);
    } else {
        // Ragged last panel: its zero padding makes the full-width tile
        // valid; only `nr` columns are kept.
        let mut full = [[0.0f32; PANEL]; MR];
        tile::<MR, PANEL>(a, lda, k, panel, PANEL, full.as_flattened_mut(), PANEL);
        for (mi, tile_row) in full.iter().enumerate() {
            out[mi * ldo..mi * ldo + nr].copy_from_slice(&tile_row[..nr]);
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

    /// Iterator over the `rows` rows as slices (empty slices when `cols == 0`).
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.rows).map(move |r| &self.data[r * self.cols..(r + 1) * self.cols])
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

    /// Matrix multiplication `self * other` written into a caller-owned flat
    /// row-major buffer (`self.rows() * other.cols()` elements): one
    /// [`matmul_strided`] call. Performs no heap allocation when `out` already
    /// has sufficient capacity.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Vec<f32>) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: inner dimensions must agree"
        );
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
    }

    /// Matrix-vector product `self * v` written into a caller-owned buffer.
    ///
    /// Output `r` is [`crate::vector::dot`] of row `r` with `v`, bit for bit
    /// (the same `zip`/`sum` reduction); performs no heap allocation when
    /// `out` already has capacity for `rows` elements. The model's forward
    /// does not use it: its projections are [`matmul_strided`] over weights
    /// stored `d_in x d_out`.
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

    /// Multiplies every element by a scalar, in place.
    pub fn scale_in_place(&mut self, factor: f32) {
        for x in &mut self.data {
            *x *= factor;
        }
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

    /// A matrix from row literals of equal length.
    fn mat(rows: &[&[f32]]) -> Matrix {
        let mut m = Matrix::zeros(0, rows[0].len());
        for row in rows {
            m.push_row(row);
        }
        m
    }

    fn product(a: &Matrix, b: &Matrix) -> Vec<f32> {
        let mut out = Vec::new();
        a.matmul_into(b, &mut out);
        out
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = mat(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(product(&a, &i), a.as_slice());
        assert_eq!(product(&i, &a), a.as_slice());
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
            let tiled = product(&a, &b);
            let reference = matmul_reference(&a, &b);
            assert_eq!(tiled, reference.as_slice(), "diverged at shape {m}x{k}x{n}");
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
            let mut causal = b.clone();
            causal.truncate_rows(k);
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
        let a = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = mat(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        // A stale buffer of the wrong length is cleared and refilled.
        let mut out = vec![99.0; 2];
        a.matmul_into(&b, &mut out);
        assert_eq!(out, vec![58.0, 64.0, 139.0, 154.0]);
        let mismatch = std::panic::catch_unwind(|| a.matmul_into(&a, &mut Vec::new()));
        assert!(mismatch.is_err(), "a 2x3 by 2x3 product must panic");
    }

    /// Any split of a product's rows into ranges — ragged, uneven, a range
    /// per thread — gives the bits of the whole product.
    #[test]
    fn matmul_strided_row_ranges_match_the_whole_product() {
        let mut seed = 0x5b11_7e57_u64;
        let (m, k, n) = (23, 19, 37);
        let w = lcg_matrix(k, n, &mut seed);
        let xs = lcg_matrix(m, k, &mut seed);
        let whole = product(&xs, &w);
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
            assert_eq!(bits(&split), bits(&whole), "cuts {cuts:?}");
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
            let mut x = lcg_matrix(1, k, &mut seed).row(0).to_vec();
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
            let w = Matrix::zeros(3, n);
            let mut out = vec![f32::NAN; n];
            matmul_strided(&[-1.0, -2.0, -0.5], 3, 1, 3, w.as_slice(), n, &mut out, n);
            assert!(
                out.iter().all(|x| x.to_bits() == 0.0f32.to_bits()),
                "width {n}: {out:?}"
            );
        }
    }

    /// An operand of `rows x cols` salted with exact zeros, `-0.0` and
    /// subnormals of both signs.
    fn salted(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
        let mut m = lcg_matrix(rows, cols, seed);
        for (i, x) in m.as_mut_slice().iter_mut().enumerate() {
            match i % 11 {
                2 => *x = 0.0,
                5 => *x = -0.0,
                7 => *x = f32::from_bits(1 + i as u32) * x.signum(),
                _ => {}
            }
        }
        m
    }

    /// A salted left operand whose first row is all negative: against a
    /// right-hand column of `+0.0`, its chain sums only `-0.0` products.
    fn salted_left(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
        let mut x = salted(rows, cols, seed);
        for v in x.row_mut(0) {
            *v = -v.abs() - 0.5;
        }
        x
    }

    /// `rows` rows of `k` values at stride `k + 3`, the padding `NaN`: a
    /// kernel that reads past `k` poisons its output.
    fn padded(x: &Matrix) -> (Vec<f32>, usize) {
        let lda = x.cols() + 3;
        let mut a = vec![f32::NAN; x.rows() * lda];
        for (dst, row) in a.chunks_exact_mut(lda).zip(x.iter_rows()) {
            dst[..row.len()].copy_from_slice(row);
        }
        (a, lda)
    }

    /// The hand-written chain over ascending `k` from `+0.0`.
    fn chain(xs: impl Iterator<Item = (f32, f32)>) -> f32 {
        let mut acc = 0.0f32;
        for (x, y) in xs {
            acc += x * y;
        }
        acc
    }

    /// Every tile path — two-row and one-row tiles, the wide one-row tile,
    /// ragged edges, the ragged last panel — gives each output the chain
    /// from `+0.0`, bit for bit, writes nothing past `n` and reads nothing
    /// past `k`.
    #[test]
    fn every_tile_shape_is_the_ascending_chain_from_positive_zero() {
        let mut seed = 0x7111_e5e5_u64;
        for k in [1usize, 21, 128] {
            for n in [
                1usize, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 256, 1024,
            ] {
                // Column 0 all `+0.0`, and one spare `NaN` row: `b` rows past
                // `k` are never read.
                let mut w = salted(k, n, &mut seed);
                for kk in 0..k {
                    w.set(kk, 0, 0.0);
                }
                let mut b = w.as_slice().to_vec();
                b.extend(std::iter::repeat_n(f32::NAN, n));
                for m in 1..=9 {
                    let x = salted_left(m, k, &mut seed);
                    let (a, lda) = padded(&x);
                    let ldo = n + 5;
                    let mut out = vec![f32::NAN; m * ldo];
                    matmul_strided(&a, lda, m, k, &b, n, &mut out, ldo);
                    for i in 0..m {
                        let want: Vec<f32> = (0..n)
                            .map(|j| chain(x.row(i).iter().copied().zip(w.col(j))))
                            .collect();
                        let row = &out[i * ldo..(i + 1) * ldo];
                        assert_eq!(bits(&row[..n]), bits(&want), "m {m} k {k} n {n} row {i}");
                        assert!(row[n..].iter().all(|x| x.is_nan()), "m {m} k {k} n {n}");
                    }
                }
            }
        }
        for k in [1usize, 21, 32] {
            for packed in [1usize, 15, 16, 17, 40, 130] {
                let mut keys = salted(packed, k, &mut seed);
                keys.row_mut(0).fill(0.0);
                let mut panels = PackedPanels::new();
                panels.reset(k);
                for row in keys.iter_rows() {
                    panels.push_row(row);
                }
                for m in 1..=9 {
                    let x = salted_left(m, k, &mut seed);
                    let (a, lda) = padded(&x);
                    for n in [packed, packed.div_ceil(2)] {
                        let ldo = n + 5;
                        let mut out = vec![f32::NAN; m * ldo];
                        matmul_packed_bt(&a, lda, m, &panels, n, &mut out, ldo);
                        for i in 0..m {
                            let want: Vec<f32> = (0..n)
                                .map(|j| {
                                    chain(x.row(i).iter().copied().zip(keys.row(j).iter().copied()))
                                })
                                .collect();
                            let row = &out[i * ldo..(i + 1) * ldo];
                            let at = format!("m {m} k {k} packed {packed} n {n} row {i}");
                            assert_eq!(bits(&row[..n]), bits(&want), "{at}");
                            assert!(row[n..].iter().all(|x| x.is_nan()), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_round_trips() {
        let a = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().row(0), &[1.0, 4.0]);
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut out = Vec::new();
        a.matvec_into(&[1.0, 1.0], &mut out).unwrap();
        assert_eq!(out, vec![3.0, 7.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(a.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let mut seed = 0x3a7_0dd5_u64;
        let a = lcg_matrix(7, 19, &mut seed);
        let mut v = lcg_matrix(1, 19, &mut seed).row(0).to_vec();
        v[0] = -0.0;
        v[1] = f32::from_bits(3);
        let mut out = vec![7.0; 2];
        a.matvec_into(&v, &mut out).unwrap();
        let want: Vec<f32> = (0..a.rows())
            .map(|r| crate::vector::dot(a.row(r), &v))
            .collect();
        assert_eq!(bits(&out), bits(&want));
        assert!(a.matvec_into(&[1.0], &mut out).is_err());
    }

    /// A `rows x 0` matrix has `rows` empty rows: its product with the
    /// empty vector is `rows` zeros.
    #[test]
    fn zero_column_matrix_has_every_row() {
        let a = Matrix::zeros(3, 0);
        assert_eq!(a.iter_rows().count(), 3);
        let mut out = vec![7.0];
        a.matvec_into(&[], &mut out).unwrap();
        assert_eq!(out, vec![0.0; 3]);
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
        let mut m = mat(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
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
    fn scale_in_place_scales_every_element() {
        let mut a = mat(&[&[1.0, -2.0], &[0.5, 3.0]]);
        a.scale_in_place(2.0);
        assert_eq!(a, mat(&[&[2.0, -4.0], &[1.0, 6.0]]));
    }

    #[test]
    fn byte_size_counts_payload() {
        let a = Matrix::zeros(4, 8);
        assert_eq!(a.byte_size(), 4 * 8 * 4);
    }

    #[test]
    fn col_extracts_column() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }
}
