//! The KV cache: per-layer storage of key/value vectors for every retained token slot,
//! physically organised as fixed-size blocks drawn from a [`SharedBlockPool`].
//!
//! The cache stores *unrotated* keys together with each token's original sequence
//! position. Positional encodings (RoPE / ALiBi) are applied by the attention module
//! at read time, which is what lets the reproduction switch between the paper's
//! "original position" and "new position" ablations (Table 3) without recomputing
//! keys.
//!
//! ## Paged storage
//!
//! Logically the cache is still a flat, insertion-ordered list of slots — the API
//! ([`LayerKvCache::append_from_slices`], [`LayerKvCache::retain_slots`], the
//! [`LayerKvCache::keys`] / [`LayerKvCache::values`] views) is unchanged, so the
//! eviction-policy zoo never sees the difference. Physically, each layer owns a
//! *block table*: a list of fixed-size blocks allocated from a (possibly shared,
//! possibly bounded) [`SharedBlockPool`]. Logical slot `i` lives in block
//! `i / block_size` at row `i % block_size`; blocks are kept dense, so only the
//! last block is ever partially filled. Compaction rewrites rows in place and
//! releases emptied tail blocks back to the pool immediately — which is what makes
//! the bytes a policy evicts instantly reusable by *other* sequences sharing the
//! pool.
//!
//! ## Copy-on-write sharing
//!
//! A block's payload lives behind an [`Arc`], so one physical block can be
//! mapped into several sequences' block tables (and into the
//! [`crate::prefix::SharedPrefixRegistry`]) at once — the pool refcount and
//! the `Arc` count track the same sharing. Reads never care. Any *write* — an
//! [`LayerKvCache::append_from_slices`] into a partially-filled shared block,
//! or an eviction-driven compaction touching shared rows — first forks a
//! private copy: a fresh block is allocated from the pool (so each fork counts
//! in [`BlockPoolStats::total_allocs`](crate::block::BlockPoolStats)), the
//! payload is cloned, and the shared original is released. Every
//! other reader (a forked session, a registered prefix) keeps seeing the
//! original bytes, which is what lets the whole eviction-policy zoo run
//! unchanged on shared storage.
//!
//! ## Quantized storage
//!
//! Each layer carries a [`KvDtype`]: at the default [`KvDtype::F32`] block
//! payloads are plain `f32` matrices and every read is a borrow; at
//! [`KvDtype::U8`] a block's rows are stored as `u8` codes under a per-block,
//! per-tensor affine map `f = (q - zero_point) * scale`. Quantization happens
//! when a block *seals* — fills its last row — so the partially-filled tail
//! block stays `f32` and appends never requantize earlier rows.
//!
//! The block format is decoded in one place: a private view of one head's
//! keys or values in one block, `f32` rows or `u8` codes with their map. It
//! has one row decode, `(q - zero_point) * scale` element-wise, behind
//! [`KvSlice::copy_row_into`] and [`KvSlice::for_each_row`] (which borrows
//! `f32` rows in place), and one fused value product: [`KvSlice::vecmat_into`]
//! accumulates `scale * (Σ c·q - zero_point * Σ c)` per block, so attention
//! never materializes an `f32` copy of a block. Compaction unseals the blocks
//! it rewrites through the same row decode,
//! moves rows in `f32`, and reseals the full ones with fresh parameters;
//! untouched shared blocks keep their sealed payload byte-identical, which is
//! what keeps copy-on-write sharing and the prefix registry dtype-oblivious.

use crate::block::{BlockId, SharedBlockPool, DEFAULT_BLOCK_SIZE};
use crate::CoreError;
use keyformer_tensor::{Matrix, TensorError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of globally-unique block payload generations. A fresh value is drawn
/// whenever a block's *existing* rows change meaning — creation, copy-on-write
/// fork, compaction rewrite, quantize-on-seal — and never on a plain append
/// (which only adds rows). `(BlockId, generation)` therefore mismatches exactly
/// when derived per-row state (e.g. the rotated-key cache) must be rebuilt,
/// even across pool block-id reuse: a freed id handed to a new block always
/// carries a generation no previous holder ever saw.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Storage precision of a layer's KV block payloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum KvDtype {
    /// Full-precision `f32` rows — the default, bit-identical to the
    /// pre-quantization backend.
    #[default]
    F32,
    /// `u8` codes under a per-block, per-tensor affine map. Four bytes of KV
    /// become one; sealed blocks carry `(scale, zero_point)` pairs for keys
    /// and values.
    U8,
}

impl KvDtype {
    /// Bytes one stored key/value element occupies.
    pub fn bytes_per_value(self) -> usize {
        match self {
            KvDtype::F32 => 4,
            KvDtype::U8 => 1,
        }
    }

    /// Short stable label (`"f32"` / `"u8"`) for tables and JSON artefacts.
    pub fn label(self) -> &'static str {
        match self {
            KvDtype::F32 => "f32",
            KvDtype::U8 => "u8",
        }
    }
}

/// Affine quantization parameters of one tensor (keys or values) of one
/// sealed block: `f ≈ (q - zero_point) * scale` with `q` in `0..=255`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Affine {
    scale: f32,
    zero_point: f32,
}

impl Affine {
    /// Parameters covering `[min, max]` exactly: `min` maps to code 0 and
    /// `max` to code 255. A degenerate range gets `scale = 1`, which encodes
    /// the constant exactly. So does a range so narrow that `(max - min) / 255`
    /// underflows to zero (a subnormal width): dividing by a zero scale would
    /// make the zero point NaN or infinite and every row decode to NaN.
    fn for_range(min: f32, max: f32) -> Affine {
        let scale = (max - min) / 255.0;
        let scale = if scale > 0.0 { scale } else { 1.0 };
        Affine {
            scale,
            zero_point: -min / scale,
        }
    }

    /// Parameters covering every element yielded by `data` (empty input gets
    /// the degenerate identity map).
    fn for_values<'a>(data: impl Iterator<Item = &'a f32>) -> Affine {
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &x in data {
            min = min.min(x);
            max = max.max(x);
        }
        if min > max {
            return Affine::for_range(0.0, 0.0);
        }
        Affine::for_range(min, max)
    }

    #[inline]
    fn quantize(&self, f: f32) -> u8 {
        (f / self.scale + self.zero_point).round().clamp(0.0, 255.0) as u8
    }

    #[inline]
    fn dequantize(&self, q: u8) -> f32 {
        (f32::from(q) - self.zero_point) * self.scale
    }
}

/// The payload of one fixed-size block: per-head key/value rows for one layer,
/// stored either full-precision or as sealed `u8` codes.
#[derive(Debug, Clone)]
pub(crate) enum KvBlockData {
    /// Full-precision rows. Also the staging representation of a `u8` layer's
    /// partially-filled tail block, which seals once it fills.
    F32 {
        /// Per head: up to `block_size` key rows of width `head_dim`.
        keys: Vec<Matrix>,
        /// Per head: up to `block_size` value rows of width `head_dim`.
        values: Vec<Matrix>,
    },
    /// A sealed block: `u8` codes with one affine map for all key rows and one
    /// for all value rows (per-block, per-tensor quantization).
    U8 {
        /// Per head: `rows * head_dim` key codes, row-major.
        keys: Vec<Vec<u8>>,
        /// Per head: `rows * head_dim` value codes, row-major.
        values: Vec<Vec<u8>>,
        rows: usize,
        head_dim: usize,
        key_map: Affine,
        value_map: Affine,
    },
}

impl KvBlockData {
    fn new(num_heads: usize, head_dim: usize, block_size: usize) -> Self {
        // Matrices are created at their final column width with capacity for a
        // full block of rows up front, so the per-token `push_row` appends that
        // fill the block never touch the allocator.
        let mats = || -> Vec<Matrix> {
            (0..num_heads)
                .map(|_| {
                    let mut m = Matrix::zeros(0, head_dim);
                    m.reserve_rows(block_size);
                    m
                })
                .collect()
        };
        KvBlockData::F32 {
            keys: mats(),
            values: mats(),
        }
    }

    fn byte_size(&self) -> usize {
        match self {
            KvBlockData::F32 { keys, values } => keys
                .iter()
                .chain(values.iter())
                .map(Matrix::byte_size)
                .sum(),
            KvBlockData::U8 { keys, values, .. } => {
                keys.iter().chain(values.iter()).map(Vec::len).sum()
            }
        }
    }

    /// Rows currently held (identical across heads and keys/values).
    fn rows(&self) -> usize {
        match self {
            KvBlockData::F32 { keys, .. } => keys.first().map_or(0, Matrix::rows),
            KvBlockData::U8 { rows, .. } => *rows,
        }
    }

    fn num_heads(&self) -> usize {
        match self {
            KvBlockData::F32 { keys, .. } => keys.len(),
            KvBlockData::U8 { keys, .. } => keys.len(),
        }
    }

    fn head_dim(&self) -> usize {
        match self {
            KvBlockData::F32 { keys, .. } => keys.first().map_or(0, |m| m.shape().1),
            KvBlockData::U8 { head_dim, .. } => *head_dim,
        }
    }

    /// The precision this payload is currently stored at. A `u8` layer's
    /// unsealed tail block reports [`KvDtype::F32`] — that is its physical
    /// representation until it seals.
    fn storage_dtype(&self) -> KvDtype {
        match self {
            KvBlockData::F32 { .. } => KvDtype::F32,
            KvBlockData::U8 { .. } => KvDtype::U8,
        }
    }

    /// One head's keys or values: the only way any read reaches the block
    /// format.
    #[inline(always)]
    fn head_rows(&self, component: KvComponent, head: usize) -> HeadRows<'_> {
        match self {
            KvBlockData::F32 { keys, values } => HeadRows::F32(match component {
                KvComponent::Keys => &keys[head],
                KvComponent::Values => &values[head],
            }),
            KvBlockData::U8 {
                keys,
                values,
                head_dim,
                key_map,
                value_map,
                ..
            } => {
                let (codes, map) = match component {
                    KvComponent::Keys => (&keys[head], key_map),
                    KvComponent::Values => (&values[head], value_map),
                };
                HeadRows::U8 {
                    codes,
                    head_dim: *head_dim,
                    map: *map,
                }
            }
        }
    }

    /// Quantizes a full-precision payload in place (no-op when already
    /// sealed). Per-tensor: one affine map covers every key row of every
    /// head, another every value row.
    fn seal(&mut self) {
        let KvBlockData::F32 { keys, values } = self else {
            return;
        };
        let rows = keys.first().map_or(0, Matrix::rows);
        let head_dim = keys.first().map_or(0, |m| m.shape().1);
        let key_map = Affine::for_values(keys.iter().flat_map(|m| m.as_slice().iter()));
        let value_map = Affine::for_values(values.iter().flat_map(|m| m.as_slice().iter()));
        let quantize = |ms: &[Matrix], map: &Affine| -> Vec<Vec<u8>> {
            ms.iter()
                .map(|m| m.as_slice().iter().map(|&f| map.quantize(f)).collect())
                .collect()
        };
        *self = KvBlockData::U8 {
            keys: quantize(keys, &key_map),
            values: quantize(values, &value_map),
            rows,
            head_dim,
            key_map,
            value_map,
        };
    }

    /// Dequantizes a sealed payload back to full-precision staging (no-op
    /// when already `f32`) so compaction can rewrite rows. Each head's matrix
    /// is sized once and decoded row by row in place.
    fn unseal(&mut self) {
        if self.storage_dtype() == KvDtype::F32 {
            return;
        }
        let (rows, head_dim) = (self.rows(), self.head_dim());
        let decode = |component| -> Vec<Matrix> {
            (0..self.num_heads())
                .map(|head| {
                    let src = self.head_rows(component, head);
                    let mut m = Matrix::zeros(rows, head_dim);
                    for r in 0..rows {
                        src.row_into(r, m.row_mut(r));
                    }
                    m
                })
                .collect()
        };
        let keys = decode(KvComponent::Keys);
        let values = decode(KvComponent::Values);
        *self = KvBlockData::F32 { keys, values };
    }
}

/// One head's keys or values inside one block, as [`KvBlockData::head_rows`]
/// hands them out. Its two methods hold the only element-wise decode of the
/// `u8` format and the only fused value product.
#[derive(Clone, Copy)]
enum HeadRows<'a> {
    /// Full-precision rows.
    F32(&'a Matrix),
    /// Sealed rows: `rows * head_dim` codes, row-major, under one affine map.
    U8 {
        codes: &'a [u8],
        head_dim: usize,
        map: Affine,
    },
}

impl HeadRows<'_> {
    /// Writes row `row` into `out`: a copy of `f32` rows, `(q - zero_point) *
    /// scale` per element of sealed ones.
    #[inline]
    fn row_into(&self, row: usize, out: &mut [f32]) {
        match *self {
            HeadRows::F32(m) => out.copy_from_slice(m.row(row)),
            HeadRows::U8 {
                codes,
                head_dim,
                map,
            } => {
                let src = &codes[row * head_dim..(row + 1) * head_dim];
                for (o, &q) in out.iter_mut().zip(src) {
                    *o = map.dequantize(q);
                }
            }
        }
    }

    /// Adds `Σ_r coeffs[r] * row(r)` over the first `coeffs.len()` rows into
    /// `out`, skipping zero coefficients. `f32` rows accumulate in ascending
    /// row order, the chain [`Matrix::vecmat`] runs. Sealed rows fuse the
    /// decode: `sum(coeff * (q - zero) * scale)` factors into `scale *
    /// (sum(coeff * q) - zero * sum(coeff))`, accumulated raw in `scratch`,
    /// so no `f32` copy of the block is made.
    ///
    /// Forced inline, with `head_rows` and `block_rows`: left to the
    /// compiler, a call per block made `vecmat_into` over a 512-slot `u8`
    /// head about 5 % slower than the inline match it replaced (2-core
    /// x86-64 VM).
    #[inline(always)]
    fn accumulate(&self, coeffs: &[f32], out: &mut [f32], scratch: &mut [f32]) {
        match *self {
            HeadRows::F32(m) => {
                for (r, &coeff) in coeffs.iter().enumerate() {
                    if coeff == 0.0 {
                        continue;
                    }
                    for (o, &x) in out.iter_mut().zip(m.row(r)) {
                        *o += coeff * x;
                    }
                }
            }
            HeadRows::U8 {
                codes,
                head_dim,
                map,
            } => {
                scratch.fill(0.0);
                let mut coeff_sum = 0.0f32;
                for (r, &coeff) in coeffs.iter().enumerate() {
                    if coeff == 0.0 {
                        continue;
                    }
                    coeff_sum += coeff;
                    let row = &codes[r * head_dim..(r + 1) * head_dim];
                    for (a, &q) in scratch.iter_mut().zip(row) {
                        *a += coeff * f32::from(q);
                    }
                }
                let offset = map.zero_point * coeff_sum;
                for (o, &a) in out.iter_mut().zip(scratch.iter()) {
                    *o += map.scale * (a - offset);
                }
            }
        }
    }
}

/// A refcounted handle to one physical block: the pool id plus the shared
/// payload. Cloning the handle does *not* touch the pool — callers that map the
/// block into another table must pair the clone with a
/// [`SharedBlockPool::retain`].
#[derive(Debug, Clone)]
pub(crate) struct SharedKvBlock {
    pub(crate) id: BlockId,
    pub(crate) generation: u64,
    pub(crate) data: Arc<KvBlockData>,
}

impl SharedKvBlock {
    pub(crate) fn num_heads(&self) -> usize {
        self.data.num_heads()
    }

    pub(crate) fn rows(&self) -> usize {
        self.data.rows()
    }

    pub(crate) fn head_dim(&self) -> usize {
        self.data.head_dim()
    }

    /// Physical storage precision of the pinned payload.
    pub(crate) fn storage_dtype(&self) -> KvDtype {
        self.data.storage_dtype()
    }
}

/// One entry of a layer's block table.
#[derive(Debug)]
struct KvBlock {
    id: BlockId,
    /// Payload generation: globally unique, refreshed whenever existing rows
    /// change meaning (see [`NEXT_GENERATION`]). Preserved by clones that keep
    /// the payload byte-identical (session fork, prefix attach).
    generation: u64,
    data: Arc<KvBlockData>,
}

impl KvBlock {
    fn new(id: BlockId, num_heads: usize, head_dim: usize, block_size: usize) -> Self {
        KvBlock {
            id,
            generation: next_generation(),
            data: Arc::new(KvBlockData::new(num_heads, head_dim, block_size)),
        }
    }

    fn byte_size(&self) -> usize {
        self.data.byte_size()
    }
}

/// Identity and fill level of one block of a layer's table, as seen by
/// derived-state caches: the rotated-key cache keys its per-block entries on
/// `(id, generation)` and tops up rows when only `rows` grew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvBlockMeta {
    /// Pool id of the block.
    pub id: BlockId,
    /// Globally-unique payload generation; changes whenever the block's
    /// existing rows change meaning (CoW fork, compaction rewrite,
    /// quantize-on-seal) and never on a plain append.
    pub generation: u64,
    /// Rows currently held by the block.
    pub rows: usize,
}

/// Which of the two stored tensors a [`KvSlice`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KvComponent {
    Keys,
    Values,
}

/// A read-only, slot-indexed view of one head's keys or values across a layer's
/// block table.
///
/// This is the drop-in replacement for the `&Matrix` the contiguous backend used
/// to hand out: row `i` is logical slot `i`, whatever block it physically lives
/// in. Only the small read surface attention needs is exposed.
#[derive(Debug, Clone, Copy)]
pub struct KvSlice<'a> {
    blocks: &'a [KvBlock],
    head: usize,
    component: KvComponent,
    block_size: usize,
    len: usize,
    head_dim: usize,
}

impl<'a> KvSlice<'a> {
    /// Number of live slots (rows) in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the view holds no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shape as `(live_slots, head_dim)`, mirroring [`Matrix::shape`].
    pub fn shape(&self) -> (usize, usize) {
        (self.len, self.head_dim)
    }

    /// A copy of this view restricted to its first `len` slots.
    ///
    /// Chunk-batched prefill uses this to give query `i` of a chunk a causal
    /// view over exactly the slots the sequential path would have seen —
    /// `prior + i + 1` of them — even though the whole chunk's rows are
    /// already appended. Every read primitive ([`KvSlice::copy_row_into`],
    /// [`KvSlice::vecmat_into`], [`KvSlice::for_each_row`]) is bounded by
    /// `len`, so the later rows are invisible through the truncated view.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    pub fn truncated(self, len: usize) -> Self {
        assert!(
            len <= self.len,
            "cannot extend a {}-slot view to {len} slots",
            self.len
        );
        KvSlice { len, ..self }
    }

    /// This view's head in block `idx` of the table.
    #[inline(always)]
    fn block_rows(&self, idx: usize) -> HeadRows<'a> {
        let blocks: &'a [KvBlock] = self.blocks;
        blocks[idx].data.head_rows(self.component, self.head)
    }

    /// Copies the row of logical slot `slot` into `out`, dequantizing sealed
    /// `u8` rows element-wise.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()` or `out.len()` differs from the head width.
    pub fn copy_row_into(&self, slot: usize, out: &mut [f32]) {
        assert!(slot < self.len, "slot index out of bounds");
        assert_eq!(out.len(), self.head_dim, "output width must match head_dim");
        self.block_rows(slot / self.block_size)
            .row_into(slot % self.block_size, out);
    }

    /// Visits every live row in slot order without allocating: `f32` rows are
    /// passed as direct borrows into the block, sealed `u8` rows are
    /// dequantized into `scratch` first (the arithmetic of
    /// [`KvSlice::copy_row_into`]). This is the visitor attention's score
    /// loop and the chunk forward's key/value packing use.
    ///
    /// # Panics
    ///
    /// Panics if `scratch.len()` differs from the head width.
    pub fn for_each_row(&self, scratch: &mut [f32], mut f: impl FnMut(usize, &[f32])) {
        assert_eq!(
            scratch.len(),
            self.head_dim,
            "scratch width must match head_dim"
        );
        let mut slot = 0;
        for idx in 0..self.len.div_ceil(self.block_size) {
            let rows_here = (self.len - slot).min(self.block_size);
            match self.block_rows(idx) {
                HeadRows::F32(m) => {
                    for r in 0..rows_here {
                        f(slot + r, m.row(r));
                    }
                }
                rows => {
                    for r in 0..rows_here {
                        rows.row_into(r, scratch);
                        f(slot + r, scratch);
                    }
                }
            }
            slot += rows_here;
        }
    }

    /// Vector-matrix product `v * self` into `out` (treats `v` as a row
    /// vector of per-slot coefficients), mirroring [`Matrix::vecmat`] across
    /// block boundaries: attention's value-aggregation primitive. `scratch`
    /// holds the fused-dequantization accumulator of sealed `u8` blocks, so
    /// no call allocates; the `f32` arm is the exact pre-quantization loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `v.len() != len()`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` or `scratch.len()` differs from the head width.
    pub fn vecmat_into(
        &self,
        v: &[f32],
        out: &mut [f32],
        scratch: &mut [f32],
    ) -> Result<(), TensorError> {
        if v.len() != self.len {
            return Err(TensorError::ShapeMismatch {
                op: "vecmat",
                lhs: (1, v.len()),
                rhs: self.shape(),
            });
        }
        assert_eq!(out.len(), self.head_dim, "output width must match head_dim");
        assert_eq!(
            scratch.len(),
            self.head_dim,
            "scratch width must match head_dim"
        );
        out.fill(0.0);
        for (idx, coeffs) in v.chunks(self.block_size).enumerate() {
            self.block_rows(idx).accumulate(coeffs, out, scratch);
        }
        Ok(())
    }
}

/// Key/value storage for a single decoder layer, backed by pool blocks.
///
/// Slots are kept in insertion order; `positions[i]` records the original sequence
/// position of slot `i`. Per head, [`LayerKvCache::keys`] and
/// [`LayerKvCache::values`] are `(n_slots, head_dim)` views whose rows parallel
/// the slot order.
#[derive(Debug)]
pub struct LayerKvCache {
    num_heads: usize,
    head_dim: usize,
    pool: SharedBlockPool,
    /// Storage precision of sealed blocks (the partially-filled tail always
    /// stages in `f32` and seals when it fills).
    dtype: KvDtype,
    blocks: Vec<KvBlock>,
    positions: Vec<usize>,
}

impl LayerKvCache {
    /// Creates an empty per-layer cache for `num_heads` heads of width `head_dim`,
    /// backed by a private unbounded pool with the default block size.
    pub fn new(num_heads: usize, head_dim: usize) -> Self {
        Self::with_pool(
            num_heads,
            head_dim,
            SharedBlockPool::unbounded(DEFAULT_BLOCK_SIZE),
        )
    }

    /// Creates an empty per-layer cache drawing its blocks from `pool`, storing
    /// at the default full precision.
    pub fn with_pool(num_heads: usize, head_dim: usize, pool: SharedBlockPool) -> Self {
        Self::with_pool_dtype(num_heads, head_dim, pool, KvDtype::F32)
    }

    /// Creates an empty per-layer cache drawing its blocks from `pool`, storing
    /// sealed blocks at `dtype`.
    pub fn with_pool_dtype(
        num_heads: usize,
        head_dim: usize,
        pool: SharedBlockPool,
        dtype: KvDtype,
    ) -> Self {
        LayerKvCache {
            num_heads,
            head_dim,
            dtype,
            pool,
            blocks: Vec::new(),
            positions: Vec::new(),
        }
    }

    /// Storage precision sealed blocks of this layer use.
    pub fn dtype(&self) -> KvDtype {
        self.dtype
    }

    /// Number of live token slots.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` when no slots are stored.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of attention heads this cache serves.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Per-head key/value vector width.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Token slots per block of the backing pool.
    pub fn block_size(&self) -> usize {
        self.pool.block_size()
    }

    /// The pool this layer draws its blocks from.
    pub fn pool(&self) -> &SharedBlockPool {
        &self.pool
    }

    /// Number of blocks currently held by this layer.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Identity and fill level of block `idx` of this layer's table. Derived
    /// per-row caches (rotated keys) compare `(id, generation)` to decide
    /// whether their copy of the block is still valid and `rows` to top up
    /// freshly appended rows.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_blocks()`.
    pub fn block_meta(&self, idx: usize) -> KvBlockMeta {
        let b = &self.blocks[idx];
        KvBlockMeta {
            id: b.id,
            generation: b.generation,
            rows: b.data.rows(),
        }
    }

    /// Token slots covered by the allocated blocks (`num_blocks * block_size`).
    /// `allocated_slots() - len()` is this layer's internal fragmentation.
    pub fn allocated_slots(&self) -> usize {
        self.blocks.len() * self.block_size()
    }

    /// `true` when the next [`LayerKvCache::append_from_slices`] must allocate
    /// a new block.
    pub fn needs_block_for_append(&self) -> bool {
        self.len() == self.allocated_slots()
    }

    /// Number of this layer's blocks currently shared with another holder.
    pub fn shared_block_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| Arc::strong_count(&b.data) > 1)
            .count()
    }

    /// The layer's block table as `(id, live_rows)` pairs, in slot order. Lets
    /// a scheduler aggregate *physical* occupancy across sequences that share
    /// blocks (each block counted once however many tables map it).
    pub fn block_rows(&self) -> impl Iterator<Item = (BlockId, usize)> + '_ {
        self.blocks.iter().map(|b| (b.id, b.data.rows()))
    }

    /// A cloneable handle to block `idx` of this layer's table (the prefix
    /// registry uses this to pin prompt blocks). The caller must pair any
    /// retained clone with a pool retain.
    pub(crate) fn shared_block(&self, idx: usize) -> SharedKvBlock {
        let b = &self.blocks[idx];
        SharedKvBlock {
            id: b.id,
            generation: b.generation,
            data: Arc::clone(&b.data),
        }
    }

    /// Maps an already-allocated, *full* block into this layer's table,
    /// retaining it in the pool. Only valid while the table is dense (the
    /// current last block is full) — i.e. during prefix attachment, before any
    /// private appends. Slot positions continue the layer's own sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the block's shape does not match
    /// this layer or the table is not dense, and [`CoreError::InvalidBlock`] if
    /// the pool does not recognise the block.
    pub(crate) fn push_shared_block(&mut self, block: SharedKvBlock) -> Result<(), CoreError> {
        if block.num_heads() != self.num_heads || block.head_dim() != self.head_dim {
            return Err(CoreError::InvalidConfig(format!(
                "shared block shape ({} heads, dim {}) does not match layer ({} heads, dim {})",
                block.num_heads(),
                block.head_dim(),
                self.num_heads,
                self.head_dim
            )));
        }
        if block.rows() != self.block_size() {
            return Err(CoreError::InvalidConfig(format!(
                "only full blocks can be shared: block holds {} of {} rows",
                block.rows(),
                self.block_size()
            )));
        }
        if self.len() != self.allocated_slots() {
            return Err(CoreError::InvalidConfig(
                "cannot map a shared block behind a partially-filled block".into(),
            ));
        }
        if block.storage_dtype() != self.dtype {
            return Err(CoreError::InvalidConfig(format!(
                "shared block stored as {} cannot be mapped into a {} layer",
                block.storage_dtype().label(),
                self.dtype.label()
            )));
        }
        self.pool.retain(block.id)?;
        let start = self.positions.len();
        self.positions.extend(start..start + self.block_size());
        // The payload is byte-identical to the donor's, so the generation is
        // preserved: cached rotations derived from the donor stay valid.
        self.blocks.push(KvBlock {
            id: block.id,
            generation: block.generation,
            data: block.data,
        });
        Ok(())
    }

    /// Ensures block `idx` is privately owned, forking a copy-on-write clone
    /// (fresh pool block + payload copy, shared original released) when it is
    /// currently mapped elsewhere.
    ///
    /// The fork decision is one atomic [`SharedBlockPool::fork_block`] probe, so
    /// two sequences racing to write the same shared block from different
    /// threads each reach a consistent outcome: exactly one side observes the
    /// block private (after the other's fork released its mapping), and a block
    /// shared by both sides is forked by each exactly once.
    fn ensure_private(&mut self, idx: usize) -> Result<(), CoreError> {
        match self.pool.fork_block(self.blocks[idx].id)? {
            None => Ok(()),
            Some(new_id) => {
                let data = KvBlockData::clone(&self.blocks[idx].data);
                // A fork exists to be written: give it a fresh generation so
                // derived caches never mistake it for the original payload.
                self.blocks[idx] = KvBlock {
                    id: new_id,
                    generation: next_generation(),
                    data: Arc::new(data),
                };
                Ok(())
            }
        }
    }

    /// Mutable payload access to a block whose *pool* mapping is already
    /// private (refcount 1). A concurrent forker that decided to fork away
    /// from this block may still hold a transient `Arc` clone while it copies
    /// the payload; ownership is already decided by the pool, so wait out the
    /// copy rather than treating the block as shared.
    fn private_data_mut(block: &mut KvBlock) -> &mut KvBlockData {
        while Arc::get_mut(&mut block.data).is_none() {
            std::hint::spin_loop();
        }
        Arc::get_mut(&mut block.data).expect("sole owner after forker's copy completed")
    }

    /// Mutable access to block `idx`'s payload, forking it private first.
    fn block_data_mut(&mut self, idx: usize) -> Result<&mut KvBlockData, CoreError> {
        self.ensure_private(idx)?;
        Ok(Self::private_data_mut(&mut self.blocks[idx]))
    }

    /// Clones this layer's table into a new cache sharing every block
    /// copy-on-write, tail included: the tests' way to reach every CoW path.
    #[cfg(test)]
    pub(crate) fn fork(&self) -> Result<LayerKvCache, CoreError> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            self.pool.retain(b.id)?;
            blocks.push(KvBlock {
                id: b.id,
                generation: b.generation,
                data: Arc::clone(&b.data),
            });
        }
        Ok(LayerKvCache {
            num_heads: self.num_heads,
            head_dim: self.head_dim,
            pool: self.pool.clone(),
            dtype: self.dtype,
            blocks,
            positions: self.positions.clone(),
        })
    }

    /// Original sequence positions of the live slots, in slot order.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Key view of `head` with one row per live slot.
    ///
    /// # Panics
    ///
    /// Panics if `head >= num_heads`.
    pub fn keys(&self, head: usize) -> KvSlice<'_> {
        assert!(head < self.num_heads, "head index out of bounds");
        KvSlice {
            blocks: &self.blocks,
            head,
            component: KvComponent::Keys,
            block_size: self.block_size(),
            len: self.len(),
            head_dim: self.head_dim,
        }
    }

    /// Value view of `head` with one row per live slot.
    ///
    /// # Panics
    ///
    /// Panics if `head >= num_heads`.
    pub fn values(&self, head: usize) -> KvSlice<'_> {
        assert!(head < self.num_heads, "head index out of bounds");
        KvSlice {
            blocks: &self.blocks,
            head,
            component: KvComponent::Values,
            block_size: self.block_size(),
            len: self.len(),
            head_dim: self.head_dim,
        }
    }

    /// Appends one token's keys and values from flat slices laid out
    /// `[head 0 | head 1 | ...]`, each `num_heads * head_dim` long, allocating
    /// a fresh block from the pool when the last one is full. On a `u8` layer
    /// the append that fills a block seals (quantizes) it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if either slice length is wrong,
    /// and [`CoreError::PoolExhausted`] if a strict pool has no block left.
    pub fn append_from_slices(
        &mut self,
        position: usize,
        keys: &[f32],
        values: &[f32],
    ) -> Result<(), CoreError> {
        let want = self.num_heads * self.head_dim;
        if keys.len() != want || values.len() != want {
            return Err(CoreError::InvalidConfig(format!(
                "expected {} heads x head_dim {} = {want} values, got {} keys / {} values",
                self.num_heads,
                self.head_dim,
                keys.len(),
                values.len()
            )));
        }
        if self.needs_block_for_append() {
            let id = self.pool.alloc()?;
            self.blocks.push(KvBlock::new(
                id,
                self.num_heads,
                self.head_dim,
                self.block_size(),
            ));
            // One reservation per fresh block keeps the per-token position
            // pushes allocation-free until the block fills.
            self.positions.reserve(self.block_size());
        }
        // Appending into a partially-filled block another sequence still maps
        // (a fork sharing our tail) must not mutate the shared rows: fork first.
        let (head_dim, block_size, dtype) = (self.head_dim, self.block_size(), self.dtype);
        let block = self.block_data_mut(self.blocks.len() - 1)?;
        let KvBlockData::F32 {
            keys: block_keys,
            values: block_values,
        } = &mut *block
        else {
            // The tail block of any layer stages in f32 until it fills; a
            // sealed tail would mean the seal-on-full invariant was broken.
            unreachable!("append reached a sealed block");
        };
        for (h, (bk, bv)) in block_keys.iter_mut().zip(block_values).enumerate() {
            bk.push_row(&keys[h * head_dim..(h + 1) * head_dim]);
            bv.push_row(&values[h * head_dim..(h + 1) * head_dim]);
        }
        if dtype == KvDtype::U8 && block.rows() == block_size {
            block.seal();
            // Quantize-on-seal changes the dequantized value of every row
            // already in the block: derived per-row state is stale.
            let last = self.blocks.len() - 1;
            self.blocks[last].generation = next_generation();
        }
        self.positions.push(position);
        Ok(())
    }

    /// Compacts the cache down to the given slot indices, releasing every block
    /// the compaction empties back to the pool.
    ///
    /// `retained` must be sorted, unique and in-bounds; this is the contract policies
    /// must satisfy in [`crate::policy::KvCachePolicy::select_retained`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSelection`] if the contract is violated.
    pub fn retain_slots(&mut self, retained: &[usize]) -> Result<(), CoreError> {
        validate_selection(retained, self.len())?;
        let bs = self.block_size();
        let new_len = retained.len();
        let needed = new_len.div_ceil(bs);
        // Blocks compaction writes form a suffix of the kept table: `retained`
        // is strictly increasing with `dst <= src`, so once one slot moves
        // every later slot moves too. Everything from the first moved slot's
        // destination block onwards (plus the truncated final block) gets a
        // fresh generation below; the untouched identity prefix keeps its
        // generations, so derived caches keep their rotations for it.
        let mut first_touched = needed;
        for (dst, &src) in retained.iter().enumerate() {
            if dst != src {
                first_touched = dst / bs;
                break;
            }
        }
        if needed > 0 && new_len < needed * bs {
            first_touched = first_touched.min(needed - 1);
        }
        // Copy-on-write pre-pass: every block compaction will *write* — the
        // destinations of moved rows and the truncated final block, i.e.
        // exactly `first_touched..needed` — must be privately owned first,
        // and unsealed back to f32 staging if it was quantized. Blocks the
        // selection leaves byte-identical (an aligned identity prefix) stay
        // shared and sealed.
        for idx in first_touched..needed {
            self.ensure_private(idx)?;
            Self::private_data_mut(&mut self.blocks[idx]).unseal();
        }
        // `retained` is strictly increasing, so every destination slot is at or
        // before its source slot and rows can be moved in a single forward pass,
        // in place: within one (private, unsealed) block by `copy_within`, and
        // across blocks through a split borrow of the table. Sources still
        // sealed dequantize element-wise straight into the destination row;
        // destinations were unsealed above, so moves always land in f32 staging.
        let head_dim = self.head_dim;
        for (dst, &src) in retained.iter().enumerate() {
            if dst == src {
                continue;
            }
            let (sb, sr) = (src / bs, src % bs);
            let (db, dr) = (dst / bs, dst % bs);
            let (front, back) = self.blocks.split_at_mut(sb);
            let (dst_data, src_data) = if sb == db {
                (Self::private_data_mut(&mut back[0]), None)
            } else {
                (Self::private_data_mut(&mut front[db]), Some(&*back[0].data))
            };
            let KvBlockData::F32 { keys, values } = dst_data else {
                unreachable!("destination blocks are unsealed in the pre-pass");
            };
            match src_data {
                None => {
                    for m in keys.iter_mut().chain(values.iter_mut()) {
                        m.as_mut_slice()
                            .copy_within(sr * head_dim..(sr + 1) * head_dim, dr * head_dim);
                    }
                }
                Some(src_data) => {
                    for h in 0..keys.len() {
                        let (k, v) = (keys[h].row_mut(dr), values[h].row_mut(dr));
                        src_data.head_rows(KvComponent::Keys, h).row_into(sr, k);
                        src_data.head_rows(KvComponent::Values, h).row_into(sr, v);
                    }
                }
            }
            self.positions[dst] = self.positions[src];
        }
        self.positions.truncate(new_len);
        // Release every emptied tail block even if one release reports a
        // bookkeeping error — bailing mid-drain would drop the remaining
        // blocks from the table unreleased, turning one bad id into a
        // permanent pool leak.
        let mut release_err = None;
        for block in self.blocks.drain(needed..) {
            if let Err(e) = self.pool.release(block.id) {
                release_err.get_or_insert(e);
            }
        }
        if let Some(e) = release_err {
            return Err(e);
        }
        if new_len > 0 && new_len < needed * bs {
            let rows = new_len - (needed - 1) * bs;
            let last = Self::private_data_mut(&mut self.blocks[needed - 1]);
            let KvBlockData::F32 { keys, values } = last else {
                unreachable!("the truncated final block is unsealed in the pre-pass");
            };
            for m in keys.iter_mut().chain(values.iter_mut()) {
                m.truncate_rows(rows);
            }
        }
        // Reseal pass for quantized layers: any full block left in f32 staging
        // was unsealed (and made private) by this compaction — quantize it
        // again with parameters fit to its post-compaction contents. The
        // partial tail stays in staging until it fills.
        if self.dtype == KvDtype::U8 {
            for block in &mut self.blocks {
                if block.data.rows() == bs && block.data.storage_dtype() == KvDtype::F32 {
                    Self::private_data_mut(block).seal();
                }
            }
        }
        for block in self.blocks[first_touched..].iter_mut() {
            block.generation = next_generation();
        }
        Ok(())
    }

    /// Removes every slot, returning all blocks to the pool. Best-effort on
    /// pool-accounting errors (this also backs [`Drop`], where nothing can be
    /// propagated); a debug build still flags them.
    pub fn clear(&mut self) {
        for block in self.blocks.drain(..) {
            let released = self.pool.release(block.id);
            debug_assert!(released.is_ok(), "clear released an unknown block");
        }
        self.positions.clear();
    }

    /// Approximate memory footprint of the *live* keys and values, in bytes.
    ///
    /// This is the quantity the paper's Figure 1(b) tracks (KV-cache size vs. model
    /// size) and the input to the data-movement model in `keyformer-perf`. The
    /// block-granular footprint the allocator actually holds is
    /// [`LayerKvCache::allocated_slots`] × [`LayerKvCache::bytes_per_slot`].
    pub fn byte_size(&self) -> usize {
        self.blocks.iter().map(KvBlock::byte_size).sum()
    }

    /// Bytes one retained token slot occupies in this layer (keys + values across
    /// every head) at the layer's storage dtype, independent of how many slots
    /// are currently live. This is the unit the serving layer's block arithmetic
    /// multiplies by the block size, so pool sizing, admission reservations and
    /// utilization stats all account in *quantized* bytes for `u8` layers. (The
    /// unsealed tail block transiently stages at `f32`; accounting charges the
    /// sealed representation.)
    pub fn bytes_per_slot(&self) -> usize {
        2 * self.num_heads * self.head_dim * self.dtype.bytes_per_value()
    }
}

impl Drop for LayerKvCache {
    fn drop(&mut self) {
        // Retiring a sequence returns its blocks to the shared pool immediately.
        self.clear();
    }
}

/// The full KV cache of a decoder stack: one [`LayerKvCache`] per layer, all
/// drawing from one [`SharedBlockPool`].
#[derive(Debug)]
pub struct KvCache {
    layers: Vec<LayerKvCache>,
    pool: SharedBlockPool,
}

impl KvCache {
    /// Creates an empty cache for `num_layers` layers, each with `num_heads` heads of
    /// width `head_dim`, over a private unbounded pool with the default block size.
    pub fn new(num_layers: usize, num_heads: usize, head_dim: usize) -> Self {
        Self::with_pool(
            num_layers,
            num_heads,
            head_dim,
            SharedBlockPool::unbounded(DEFAULT_BLOCK_SIZE),
        )
    }

    /// Creates an empty cache whose layers all allocate from `pool` — the
    /// constructor the serving layer uses to make many sessions contend for (and
    /// recycle) one physical pool.
    pub fn with_pool(
        num_layers: usize,
        num_heads: usize,
        head_dim: usize,
        pool: SharedBlockPool,
    ) -> Self {
        Self::with_pool_dtype(num_layers, num_heads, head_dim, pool, KvDtype::F32)
    }

    /// Creates an empty cache allocating from `pool` with every layer storing
    /// sealed blocks at `dtype`.
    pub fn with_pool_dtype(
        num_layers: usize,
        num_heads: usize,
        head_dim: usize,
        pool: SharedBlockPool,
        dtype: KvDtype,
    ) -> Self {
        KvCache {
            layers: (0..num_layers)
                .map(|_| LayerKvCache::with_pool_dtype(num_heads, head_dim, pool.clone(), dtype))
                .collect(),
            pool,
        }
    }

    /// Storage precision of this cache's layers.
    pub fn dtype(&self) -> KvDtype {
        self.layers
            .first()
            .map_or(KvDtype::F32, LayerKvCache::dtype)
    }

    /// Number of decoder layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The pool shared by every layer of this cache.
    pub fn pool(&self) -> &SharedBlockPool {
        &self.pool
    }

    /// Token slots per block of the backing pool.
    pub fn block_size(&self) -> usize {
        self.pool.block_size()
    }

    /// Borrow of a layer's cache.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds.
    pub fn layer(&self, layer: usize) -> &LayerKvCache {
        &self.layers[layer]
    }

    /// Mutable borrow of a layer's cache.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds.
    pub fn layer_mut(&mut self, layer: usize) -> &mut LayerKvCache {
        &mut self.layers[layer]
    }

    /// Iterator over layer caches.
    pub fn iter(&self) -> impl Iterator<Item = &LayerKvCache> {
        self.layers.iter()
    }

    /// Total number of live slots summed over layers.
    pub fn total_slots(&self) -> usize {
        self.layers.iter().map(LayerKvCache::len).sum()
    }

    /// Total number of blocks held, summed over layers.
    pub fn total_blocks(&self) -> usize {
        self.layers.iter().map(LayerKvCache::num_blocks).sum()
    }

    /// Blocks a single token append may need in the worst case right now: one
    /// per layer whose last block is full. Chunked prefill pre-flights this
    /// against the pool before forwarding a token into a strict pool.
    pub fn blocks_needed_for_next_token(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.needs_block_for_append())
            .count()
    }

    /// Blocks appending the next `n` tokens would need in the worst case,
    /// summed over layers: per layer, the slots the appends overflow past the
    /// already-allocated tail, rounded up to whole blocks. `n = 1` agrees with
    /// [`KvCache::blocks_needed_for_next_token`]. Chunk-batched prefill
    /// pre-flights a whole chunk against the pool with one call instead of a
    /// per-token lock round-trip.
    pub fn blocks_needed_for_next_n_tokens(&self, n: usize) -> usize {
        let bs = self.block_size().max(1);
        self.layers
            .iter()
            .map(|l| {
                (l.len() + n)
                    .saturating_sub(l.allocated_slots())
                    .div_ceil(bs)
            })
            .sum()
    }

    /// Blocks of this cache currently shared with another holder (a forked
    /// session or the prefix registry), summed over layers.
    pub fn shared_block_count(&self) -> usize {
        self.layers
            .iter()
            .map(LayerKvCache::shared_block_count)
            .sum()
    }

    /// Total live byte footprint summed over layers.
    pub fn byte_size(&self) -> usize {
        self.layers.iter().map(LayerKvCache::byte_size).sum()
    }

    /// Bytes one cached token occupies across every layer (keys + values). A cache
    /// holding `n` slots in each layer occupies exactly `n * bytes_per_token()`
    /// live bytes; the serving layer uses this to convert its byte pool into a
    /// block budget.
    pub fn bytes_per_token(&self) -> usize {
        self.layers.iter().map(LayerKvCache::bytes_per_slot).sum()
    }

    /// Clears every layer, returning all blocks to the pool.
    pub fn clear(&mut self) {
        for layer in &mut self.layers {
            layer.clear();
        }
    }
}

/// Validates the retained-slot contract: sorted, unique, in-bounds.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSelection`] describing the first violation found.
pub fn validate_selection(retained: &[usize], live: usize) -> Result<(), CoreError> {
    let mut prev: Option<usize> = None;
    for &idx in retained {
        if idx >= live {
            return Err(CoreError::InvalidSelection(format!(
                "slot {idx} out of bounds for cache of {live} slots"
            )));
        }
        if let Some(p) = prev {
            if idx <= p {
                return Err(CoreError::InvalidSelection(format!(
                    "retained slots must be strictly increasing, saw {p} then {idx}"
                )));
            }
        }
        prev = Some(idx);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::OvercommitPolicy;

    impl KvSlice<'_> {
        /// Row `slot` as an owned vector, read through `copy_row_into`.
        pub(crate) fn row_vec(&self, slot: usize) -> Vec<f32> {
            let mut row = vec![0.0; self.head_dim];
            self.copy_row_into(slot, &mut row);
            row
        }
    }

    /// The rows of `view` as a dense matrix, decoded here rather than by the
    /// cache's readers: `f32` rows as stored, sealed codes as
    /// `(q - zero_point) * scale` per element. The reference every slice
    /// read is checked against.
    fn dense(view: &KvSlice<'_>) -> Matrix {
        let mut m = Matrix::zeros(0, view.head_dim);
        m.reserve_rows(view.len);
        fn pick<T>(component: KvComponent, keys: T, values: T) -> T {
            match component {
                KvComponent::Keys => keys,
                KvComponent::Values => values,
            }
        }
        for slot in 0..view.len {
            let r = slot % view.block_size;
            match &*view.blocks[slot / view.block_size].data {
                KvBlockData::F32 { keys, values } => {
                    m.push_row(pick(view.component, keys, values)[view.head].row(r));
                }
                KvBlockData::U8 {
                    keys,
                    values,
                    head_dim,
                    key_map,
                    value_map,
                    ..
                } => {
                    let codes = &pick(view.component, keys, values)[view.head]
                        [r * head_dim..(r + 1) * head_dim];
                    let map = pick(view.component, key_map, value_map);
                    let row: Vec<f32> = codes
                        .iter()
                        .map(|&q| (f32::from(q) - map.zero_point) * map.scale)
                        .collect();
                    m.push_row(&row);
                }
            }
        }
        m
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn filled_layer(slots: usize) -> LayerKvCache {
        filled_layer_in(slots, SharedBlockPool::unbounded(DEFAULT_BLOCK_SIZE))
    }

    fn filled_layer_in(slots: usize, pool: SharedBlockPool) -> LayerKvCache {
        let mut layer = LayerKvCache::with_pool(2, 3, pool);
        for i in 0..slots {
            let k = [[i as f32; 3], [i as f32 + 0.5; 3]].concat();
            let v = [[10.0 + i as f32; 3], [20.0 + i as f32; 3]].concat();
            layer.append_from_slices(i, &k, &v).unwrap();
        }
        layer
    }

    #[test]
    fn append_grows_all_heads() {
        let layer = filled_layer(4);
        assert_eq!(layer.len(), 4);
        assert_eq!(layer.keys(0).shape(), (4, 3));
        assert_eq!(layer.values(1).shape(), (4, 3));
        assert_eq!(layer.positions(), &[0, 1, 2, 3]);
    }

    #[test]
    fn append_validates_shapes() {
        let mut layer = LayerKvCache::new(2, 3);
        // One head's worth, or one element short, of either tensor.
        assert!(layer.append_from_slices(0, &[0.0; 3], &[0.0; 3]).is_err());
        assert!(layer.append_from_slices(0, &[0.0; 5], &[0.0; 6]).is_err());
        assert!(layer.append_from_slices(0, &[0.0; 6], &[0.0; 5]).is_err());
        assert!(layer.is_empty());
        layer.append_from_slices(0, &[0.0; 6], &[0.0; 6]).unwrap();
        assert_eq!(layer.len(), 1);
    }

    #[test]
    fn slots_span_block_boundaries() {
        let pool = SharedBlockPool::unbounded(3);
        let layer = filled_layer_in(8, pool);
        assert_eq!(layer.num_blocks(), 3);
        assert_eq!(layer.allocated_slots(), 9);
        // Rows read back identically across the block seams.
        for slot in 0..8 {
            assert_eq!(layer.keys(0).row_vec(slot), [slot as f32; 3]);
            assert_eq!(layer.values(1).row_vec(slot), [20.0 + slot as f32; 3]);
        }
    }

    #[test]
    fn truncated_slice_hides_later_slots() {
        let pool = SharedBlockPool::unbounded(3);
        let layer = filled_layer_in(8, pool);
        let full = layer.keys(0);
        let causal = full.truncated(5);
        assert_eq!(causal.shape(), (5, 3));
        assert_eq!(causal.row_vec(4), full.row_vec(4));
        let mut visited = 0;
        causal.for_each_row(&mut [0.0; 3], |_, _| visited += 1);
        assert_eq!(visited, 5);
        // vecmat_into over the truncated view only covers the visible slots.
        let (mut paged, mut scratch) = ([0.0; 3], [0.0; 3]);
        causal
            .vecmat_into(&[1.0; 5], &mut paged, &mut scratch)
            .unwrap();
        let mut reference = dense(&full);
        reference.truncate_rows(5);
        assert_eq!(bits(&paged), bits(&reference.vecmat(&[1.0; 5]).unwrap()));
        assert_eq!(full.truncated(8).len(), 8);
    }

    #[test]
    #[should_panic(expected = "cannot extend")]
    fn truncated_slice_rejects_growth() {
        let layer = filled_layer(4);
        let _ = layer.keys(0).truncated(5);
    }

    #[test]
    fn blocks_needed_for_next_n_tokens_matches_single_token_case() {
        let pool = SharedBlockPool::unbounded(4);
        let mut cache = KvCache::with_pool(2, 2, 3, pool);
        for layer in cache.layers.iter_mut() {
            for i in 0..6 {
                layer.append_from_slices(i, &[0.0; 6], &[0.0; 6]).unwrap();
            }
        }
        // 6 slots fill 1.5 blocks of 4: 2 free slots per layer remain.
        assert_eq!(cache.blocks_needed_for_next_n_tokens(0), 0);
        assert_eq!(
            cache.blocks_needed_for_next_n_tokens(1),
            cache.blocks_needed_for_next_token()
        );
        assert_eq!(cache.blocks_needed_for_next_n_tokens(2), 0);
        assert_eq!(cache.blocks_needed_for_next_n_tokens(3), 2);
        assert_eq!(cache.blocks_needed_for_next_n_tokens(6), 2);
        assert_eq!(cache.blocks_needed_for_next_n_tokens(7), 4);
    }

    #[test]
    fn vecmat_matches_dense_matrix() {
        let pool = SharedBlockPool::unbounded(3);
        let layer = filled_layer_in(7, pool);
        let coeffs: Vec<f32> = (0..7).map(|i| 0.1 * i as f32).collect();
        let view = layer.values(0);
        let (mut paged, mut scratch) = ([0.0; 3], [0.0; 3]);
        view.vecmat_into(&coeffs, &mut paged, &mut scratch).unwrap();
        // The f32 arm runs the dense product's chain across block seams.
        let reference = dense(&view).vecmat(&coeffs).unwrap();
        assert_eq!(bits(&paged), bits(&reference), "{paged:?} vs {reference:?}");
        assert!(view.vecmat_into(&[1.0], &mut paged, &mut scratch).is_err());
    }

    /// The P·V GEMM of chunk attention — `matmul_strided` over value rows
    /// gathered through `for_each_row`, with causal rows zero-padded to a
    /// common `k` — leaves the bits `vecmat_into` leaves through each causal
    /// view, across block boundaries, with leading exact-zero and subnormal
    /// coefficients.
    #[test]
    fn strided_gemm_over_gathered_rows_is_bit_identical_to_vecmat_into() {
        use keyformer_tensor::matrix::matmul_strided;
        let (live, heads, hd, block) = (21usize, 2usize, 5usize, 4usize);
        let mut layer = LayerKvCache::with_pool(heads, hd, SharedBlockPool::unbounded(block));
        let noise = |i: usize| ((i * 2654435761) % 1013) as f32 / 506.5 - 1.0;
        for slot in 0..live {
            let row: Vec<f32> = (0..heads * hd).map(|d| noise(slot * 31 + d)).collect();
            layer.append_from_slices(slot, &row, &row).unwrap();
        }
        let view = layer.values(1);
        let (mut gathered, mut scratch) = (Vec::new(), vec![0.0; hd]);
        view.for_each_row(&mut scratch, |_, row| gathered.extend_from_slice(row));

        // Queries seeing 15, 16, ..., 21 slots; each row padded to `live`.
        let seen: Vec<usize> = (15..=live).collect();
        let mut probs = vec![0.0f32; seen.len() * live];
        for (row, &n) in probs.chunks_exact_mut(live).zip(&seen) {
            for (slot, p) in row[..n].iter_mut().enumerate() {
                *p = match slot {
                    0..=2 => 0.0,
                    3..=5 => f32::from_bits(7 + slot as u32 * 1_000),
                    _ => noise(slot + n).abs(),
                };
            }
        }
        let mut out = vec![f32::NAN; seen.len() * hd];
        matmul_strided(&probs, live, seen.len(), live, &gathered, hd, &mut out, hd);
        let mut want = vec![0.0; hd];
        for (i, &n) in seen.iter().enumerate() {
            view.truncated(n)
                .vecmat_into(&probs[i * live..i * live + n], &mut want, &mut scratch)
                .unwrap();
            assert_eq!(
                out[i * hd..(i + 1) * hd]
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "query seeing {n} slots"
            );
        }
    }

    #[test]
    fn retain_slots_compacts_keys_values_positions() {
        let mut layer = filled_layer(5);
        layer.retain_slots(&[0, 3, 4]).unwrap();
        assert_eq!(layer.len(), 3);
        assert_eq!(layer.positions(), &[0, 3, 4]);
        assert_eq!(layer.keys(0).row_vec(1), [3.0, 3.0, 3.0]);
        assert_eq!(layer.values(1).row_vec(2), [24.0, 24.0, 24.0]);
    }

    #[test]
    fn retain_slots_across_blocks_releases_emptied_tail() {
        let pool = SharedBlockPool::unbounded(2);
        let mut layer = filled_layer_in(7, pool.clone());
        assert_eq!(pool.blocks_in_use(), 4);
        layer.retain_slots(&[1, 4, 6]).unwrap();
        assert_eq!(layer.len(), 3);
        assert_eq!(layer.num_blocks(), 2);
        assert_eq!(pool.blocks_in_use(), 2, "emptied blocks returned instantly");
        assert_eq!(layer.positions(), &[1, 4, 6]);
        assert_eq!(layer.keys(0).row_vec(0), [1.0; 3]);
        assert_eq!(layer.keys(0).row_vec(1), [4.0; 3]);
        assert_eq!(layer.keys(0).row_vec(2), [6.0; 3]);
        assert_eq!(layer.values(1).row_vec(2), [26.0; 3]);
        // Appending after compaction reuses the partially-filled tail block.
        let k = [[9.0; 3], [9.5; 3]].concat();
        let v = [[19.0; 3], [29.0; 3]].concat();
        layer.append_from_slices(9, &k, &v).unwrap();
        assert_eq!(layer.num_blocks(), 2);
        assert_eq!(layer.keys(0).row_vec(3), [9.0; 3]);
    }

    #[test]
    fn retain_slots_rejects_bad_selections() {
        let mut layer = filled_layer(3);
        assert!(layer.retain_slots(&[0, 5]).is_err());
        assert!(layer.retain_slots(&[1, 1]).is_err());
        assert!(layer.retain_slots(&[2, 1]).is_err());
        // A valid empty selection clears the cache.
        layer.retain_slots(&[]).unwrap();
        assert!(layer.is_empty());
        assert_eq!(layer.num_blocks(), 0);
    }

    #[test]
    fn byte_size_tracks_slots() {
        let layer = filled_layer(4);
        // 2 heads * (keys + values) * 4 slots * 3 dims * 4 bytes.
        assert_eq!(layer.byte_size(), 2 * 2 * 4 * 3 * 4);
        // Block granularity rounds the footprint up to one 16-slot block.
        assert_eq!(layer.allocated_slots(), 16);
    }

    #[test]
    fn bytes_per_slot_matches_observed_growth() {
        let layer = filled_layer(4);
        assert_eq!(layer.byte_size(), 4 * layer.bytes_per_slot());
        let empty = LayerKvCache::new(2, 3);
        assert_eq!(empty.bytes_per_slot(), layer.bytes_per_slot());
    }

    #[test]
    fn bytes_per_token_sums_layers() {
        let mut cache = KvCache::new(3, 2, 3);
        assert_eq!(cache.bytes_per_token(), 3 * 2 * 2 * 3 * 4);
        for l in 0..3 {
            cache
                .layer_mut(l)
                .append_from_slices(0, &[0.0; 6], &[0.0; 6])
                .unwrap();
        }
        assert_eq!(cache.byte_size(), cache.bytes_per_token());
    }

    #[test]
    fn clear_empties_layer() {
        let mut layer = filled_layer(3);
        let pool = layer.pool().clone();
        assert_eq!(pool.blocks_in_use(), 1);
        layer.clear();
        assert!(layer.is_empty());
        assert_eq!(layer.byte_size(), 0);
        assert_eq!(pool.blocks_in_use(), 0);
    }

    #[test]
    fn drop_returns_blocks_to_the_pool() {
        let pool = SharedBlockPool::unbounded(2);
        {
            let _layer = filled_layer_in(5, pool.clone());
            assert_eq!(pool.blocks_in_use(), 3);
        }
        assert_eq!(pool.blocks_in_use(), 0);
    }

    #[test]
    fn strict_pool_exhaustion_surfaces_as_error() {
        let pool = SharedBlockPool::bounded(2, 2, OvercommitPolicy::Strict).unwrap();
        let mut layer = LayerKvCache::with_pool(2, 3, pool);
        let (k, v) = ([0.0; 6], [0.0; 6]);
        for i in 0..4 {
            layer.append_from_slices(i, &k, &v).unwrap();
        }
        assert!(matches!(
            layer.append_from_slices(4, &k, &v),
            Err(CoreError::PoolExhausted { .. })
        ));
        assert_eq!(layer.len(), 4, "failed append leaves the cache consistent");
    }

    #[test]
    fn kv_cache_aggregates_layers() {
        let pool = SharedBlockPool::unbounded(4);
        let mut cache = KvCache::with_pool(3, 2, 3, pool);
        for l in 0..3 {
            cache
                .layer_mut(l)
                .append_from_slices(0, &[0.0; 6], &[0.0; 6])
                .unwrap();
        }
        assert_eq!(cache.num_layers(), 3);
        assert_eq!(cache.total_slots(), 3);
        assert_eq!(cache.total_blocks(), 3);
        let allocated: Vec<usize> = cache.iter().map(LayerKvCache::allocated_slots).collect();
        assert_eq!(allocated.iter().sum::<usize>(), 12);
        assert_eq!(cache.pool().blocks_in_use(), 3);
        assert!(cache.byte_size() > 0);
        let allocated_bytes: usize = cache
            .iter()
            .map(|l| l.allocated_slots() * l.bytes_per_slot())
            .sum();
        assert!(allocated_bytes >= cache.byte_size());
        // Every layer's last block has room: no allocation needed for the next token.
        assert_eq!(cache.blocks_needed_for_next_token(), 0);
        cache.clear();
        assert_eq!(cache.total_slots(), 0);
        assert_eq!(cache.pool().blocks_in_use(), 0);
        assert_eq!(cache.blocks_needed_for_next_token(), 3);
    }

    #[test]
    fn forked_layer_shares_blocks_until_either_side_writes() {
        let pool = SharedBlockPool::unbounded(4);
        let layer = filled_layer_in(6, pool.clone());
        assert_eq!(pool.blocks_in_use(), 2);
        let mut fork = layer.fork().unwrap();
        // Same physical blocks, refcounted twice, readable from both sides.
        assert_eq!(pool.blocks_in_use(), 2);
        assert_eq!(pool.shared_blocks(), 2);
        assert_eq!(layer.shared_block_count(), 2);
        assert_eq!(fork.keys(0).row_vec(5), layer.keys(0).row_vec(5));
        // The fork appends into the shared partial tail block: CoW forks it.
        let k = [[9.0; 3], [9.5; 3]].concat();
        let v = [[19.0; 3], [29.0; 3]].concat();
        let allocs = pool.stats().total_allocs;
        fork.append_from_slices(6, &k, &v).unwrap();
        assert_eq!(pool.stats().total_allocs - allocs, 1, "one CoW fork");
        assert_eq!(pool.blocks_in_use(), 3, "fork owns a private tail now");
        assert_eq!(pool.shared_blocks(), 1, "the full block stays shared");
        // The original never sees the fork's write.
        assert_eq!(layer.len(), 6);
        assert_eq!(layer.keys(0).row_vec(5), [5.0; 3]);
        assert_eq!(fork.keys(0).row_vec(6), [9.0; 3]);
        drop(fork);
        assert_eq!(pool.blocks_in_use(), 2);
        assert_eq!(pool.shared_blocks(), 0);
    }

    #[test]
    fn compaction_inside_a_shared_block_forks_not_corrupts() {
        let pool = SharedBlockPool::unbounded(2);
        let layer = filled_layer_in(6, pool.clone());
        let mut fork = layer.fork().unwrap();
        // Evict inside the shared blocks: every written block must fork.
        let allocs = pool.stats().total_allocs;
        fork.retain_slots(&[0, 2, 5]).unwrap();
        assert!(pool.stats().total_allocs - allocs >= 1);
        assert_eq!(fork.positions(), &[0, 2, 5]);
        assert_eq!(fork.keys(0).row_vec(1), [2.0; 3]);
        // The donor still reads its original six slots, bit-identical.
        assert_eq!(layer.len(), 6);
        for slot in 0..6 {
            assert_eq!(layer.keys(0).row_vec(slot), [slot as f32; 3]);
            assert_eq!(layer.values(1).row_vec(slot), [20.0 + slot as f32; 3]);
        }
        // An aligned identity prefix stays shared: retaining [0, 1] keeps the
        // first block byte-identical, so no fork for it.
        let mut fork2 = layer.fork().unwrap();
        let before = pool.stats().total_allocs;
        fork2.retain_slots(&[0, 1]).unwrap();
        assert_eq!(
            pool.stats().total_allocs,
            before,
            "identity prefix must not fork"
        );
        assert_eq!(fork2.shared_block_count(), 1);
    }

    #[test]
    fn push_shared_block_maps_and_validates() {
        let pool = SharedBlockPool::unbounded(3);
        let donor = filled_layer_in(6, pool.clone());
        let mut reader = LayerKvCache::with_pool(2, 3, pool.clone());
        reader.push_shared_block(donor.shared_block(0)).unwrap();
        reader.push_shared_block(donor.shared_block(1)).unwrap();
        assert_eq!(reader.len(), 6);
        assert_eq!(reader.positions(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(reader.keys(0).row_vec(4), [4.0; 3]);
        assert_eq!(pool.blocks_in_use(), 2, "no new physical blocks");
        assert_eq!(pool.shared_blocks(), 2);
        // Shape and density violations are rejected.
        let mut wrong_shape = LayerKvCache::with_pool(1, 3, pool.clone());
        assert!(wrong_shape
            .push_shared_block(donor.shared_block(0))
            .is_err());
        drop(reader);
        assert_eq!(pool.shared_blocks(), 0);
        assert_eq!(pool.blocks_in_use(), 2);
    }

    #[test]
    fn validate_selection_contract() {
        assert!(validate_selection(&[0, 1, 2], 3).is_ok());
        assert!(validate_selection(&[], 0).is_ok());
        assert!(validate_selection(&[3], 3).is_err());
        assert!(validate_selection(&[1, 0], 3).is_err());
        assert!(validate_selection(&[0, 0], 3).is_err());
    }

    /// Deterministic "random" value in roughly [-3, 3.5] for quantization tests.
    fn wiggle(i: usize, h: usize, salt: usize) -> f32 {
        let x = (i * 37 + h * 11 + salt * 101) % 131;
        x as f32 * 0.05 - 3.0
    }

    fn filled_layer_u8(slots: usize, pool: SharedBlockPool) -> LayerKvCache {
        let mut layer = LayerKvCache::with_pool_dtype(2, 3, pool, KvDtype::U8);
        append_wiggles(&mut layer, slots);
        layer
    }

    fn append_wiggles(layer: &mut LayerKvCache, slots: usize) {
        let start = layer.len();
        for i in start..start + slots {
            let k: Vec<f32> = (0..6).map(|c| wiggle(i, c / 3, c % 3)).collect();
            let v: Vec<f32> = (0..6).map(|c| wiggle(i, c / 3, c % 3 + 7)).collect();
            layer.append_from_slices(i, &k, &v).unwrap();
        }
    }

    #[test]
    fn affine_round_trip_error_bounded_by_half_step() {
        let values: Vec<f32> = (0..200).map(|i| wiggle(i, i % 3, 2)).collect();
        let map = Affine::for_values(values.iter());
        let half_step = map.scale / 2.0;
        for &f in &values {
            let err = (map.dequantize(map.quantize(f)) - f).abs();
            assert!(
                err <= half_step * 1.0001,
                "err {err} > half step {half_step}"
            );
        }
        // Range endpoints are exact.
        let min = values.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(map.quantize(min), 0);
        assert_eq!(map.quantize(max), 255);
        assert_eq!(map.dequantize(0), min);
        assert_eq!(map.dequantize(255), max);
        // A constant block encodes exactly.
        let flat = Affine::for_range(1.25, 1.25);
        assert_eq!(flat.dequantize(flat.quantize(1.25)), 1.25);
    }

    #[test]
    fn u8_layer_seals_full_blocks_and_stages_the_tail() {
        let pool = SharedBlockPool::unbounded(4);
        let layer = filled_layer_u8(6, pool);
        assert_eq!(layer.dtype(), KvDtype::U8);
        // First block (4 rows) sealed to u8, tail (2 rows) staged in f32.
        assert_eq!(layer.blocks[0].data.storage_dtype(), KvDtype::U8);
        assert_eq!(layer.blocks[1].data.storage_dtype(), KvDtype::F32);
        // Accounting charges the sealed representation: a quarter of f32.
        let f32_layer = LayerKvCache::new(2, 3);
        assert_eq!(layer.bytes_per_slot() * 4, f32_layer.bytes_per_slot());
        // Sealed reads stay within the affine half-step of what was written;
        // staged tail reads are exact.
        for slot in 0..6 {
            for h in 0..2 {
                let key = layer.keys(h).row_vec(slot);
                for (d, got) in key.iter().enumerate() {
                    let want = wiggle(slot, h, d);
                    let tol = if slot < 4 { 0.05 } else { 0.0 };
                    assert!(
                        (got - want).abs() <= tol,
                        "slot {slot} head {h} dim {d}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn u8_fused_vecmat_matches_row_dequantized_dense_product() {
        let pool = SharedBlockPool::unbounded(4);
        let layer = filled_layer_u8(10, pool);
        let coeffs: Vec<f32> = (0..10)
            .map(|i| if i % 3 == 0 { 0.0 } else { 0.1 * i as f32 })
            .collect();
        for h in 0..2 {
            let view = layer.values(h);
            let (mut fused, mut scratch) = ([0.0; 3], [0.0; 3]);
            view.vecmat_into(&coeffs, &mut fused, &mut scratch).unwrap();
            // The element-wise decode's dense product is the unfused
            // reference the factored accumulation must agree with.
            let unfused = dense(&view).vecmat(&coeffs).unwrap();
            for (a, b) in fused.iter().zip(&unfused) {
                assert!((a - b).abs() < 1e-4, "{fused:?} vs {unfused:?}");
            }
        }
    }

    #[test]
    fn quantized_fork_and_compaction_read_identical_to_never_shared() {
        let pool = SharedBlockPool::unbounded(4);
        let mut shared = filled_layer_u8(11, pool.clone());
        let fork = shared.fork().unwrap();
        let mut control = filled_layer_u8(11, SharedBlockPool::unbounded(4));
        let keep = [0, 2, 3, 5, 8, 9, 10];
        let allocs = pool.stats().total_allocs;
        shared.retain_slots(&keep).unwrap();
        control.retain_slots(&keep).unwrap();
        // The compacted shared layer reads bit-identically to a layer that was
        // never shared: CoW forking + unseal/reseal is deterministic.
        for slot in 0..keep.len() {
            for h in 0..2 {
                assert_eq!(shared.keys(h).row_vec(slot), control.keys(h).row_vec(slot));
                assert_eq!(
                    shared.values(h).row_vec(slot),
                    control.values(h).row_vec(slot)
                );
            }
        }
        // The fork still reads the pre-compaction content of its sealed blocks.
        let expected = filled_layer_u8(11, SharedBlockPool::unbounded(4));
        for slot in 0..11 {
            assert_eq!(fork.keys(0).row_vec(slot), expected.keys(0).row_vec(slot));
        }
        assert!(
            pool.stats().total_allocs > allocs,
            "compaction wrote into shared blocks"
        );
    }

    #[test]
    fn u8_compaction_releases_tail_blocks_and_reseals_full_blocks() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = filled_layer_u8(12, pool.clone());
        assert_eq!(pool.blocks_in_use(), 3);
        layer.retain_slots(&[0, 1, 2, 3, 5, 6, 7, 8]).unwrap();
        assert_eq!(pool.blocks_in_use(), 2);
        // Both kept blocks are full again, so both must be resealed.
        for block in &layer.blocks {
            assert_eq!(block.data.storage_dtype(), KvDtype::U8);
        }
        // Appending afterwards opens a fresh f32 staging tail.
        append_wiggles(&mut layer, 1);
        assert_eq!(layer.blocks[2].data.storage_dtype(), KvDtype::F32);
    }

    #[test]
    fn push_shared_block_rejects_dtype_mismatch() {
        let pool = SharedBlockPool::unbounded(4);
        let f32_donor = filled_layer_in(4, pool.clone());
        let u8_donor = filled_layer_u8(4, pool.clone());
        let mut u8_layer = LayerKvCache::with_pool_dtype(2, 3, pool.clone(), KvDtype::U8);
        let mut f32_layer = LayerKvCache::with_pool(2, 3, pool);
        assert!(u8_layer
            .push_shared_block(f32_donor.shared_block(0))
            .is_err());
        assert!(f32_layer
            .push_shared_block(u8_donor.shared_block(0))
            .is_err());
        // Matching dtypes map fine.
        u8_layer
            .push_shared_block(u8_donor.shared_block(0))
            .unwrap();
        f32_layer
            .push_shared_block(f32_donor.shared_block(0))
            .unwrap();
        assert_eq!(u8_layer.len(), 4);
        assert_eq!(f32_layer.len(), 4);
    }

    #[test]
    fn kv_slice_into_variants_match_allocating_reads() {
        let layers = [
            filled_layer_in(7, SharedBlockPool::unbounded(3)),
            filled_layer_u8(10, SharedBlockPool::unbounded(4)),
        ];
        for layer in &layers {
            let n = layer.len();
            let coeffs: Vec<f32> = (0..n)
                .map(|i| if i % 3 == 0 { 0.0 } else { 0.1 * i as f32 })
                .collect();
            for h in 0..2 {
                for view in [layer.keys(h), layer.values(h)] {
                    let reference = dense(&view);
                    let mut buf = vec![0.0f32; 3];
                    let mut scratch = vec![0.0f32; 3];
                    for slot in 0..n {
                        view.copy_row_into(slot, &mut buf);
                        assert_eq!(bits(&buf), bits(reference.row(slot)));
                    }
                    let mut visited = 0;
                    view.for_each_row(&mut scratch, |slot, row| {
                        assert_eq!(slot, visited);
                        assert_eq!(bits(row), bits(reference.row(slot)));
                        visited += 1;
                    });
                    assert_eq!(visited, n);
                    let mut out = vec![9.0f32; 3];
                    view.vecmat_into(&coeffs, &mut out, &mut scratch).unwrap();
                    let unfused = reference.vecmat(&coeffs).unwrap();
                    if layer.dtype() == KvDtype::F32 {
                        assert_eq!(bits(&out), bits(&unfused));
                    } else {
                        for (a, b) in out.iter().zip(&unfused) {
                            assert!((a - b).abs() < 1e-4, "{out:?} vs {unfused:?}");
                        }
                    }
                    assert!(view.vecmat_into(&[1.0], &mut out, &mut scratch).is_err());
                }
            }
        }
    }

    #[test]
    fn subnormal_value_range_decodes_finite_and_within_range() {
        let tiny = f32::from_bits(1);
        let map = Affine::for_range(0.0, tiny);
        for f in [0.0, tiny] {
            let dq = map.dequantize(map.quantize(f));
            assert!(
                dq.is_finite() && (0.0..=tiny).contains(&dq),
                "{f:e} -> {dq:e}"
            );
        }
        // A sealed block whose values span a subnormal width reads finite.
        let mut layer =
            LayerKvCache::with_pool_dtype(1, 2, SharedBlockPool::unbounded(2), KvDtype::U8);
        layer
            .append_from_slices(0, &[0.0, tiny], &[tiny; 2])
            .unwrap();
        layer
            .append_from_slices(1, &[tiny, 0.0], &[0.0; 2])
            .unwrap();
        assert_eq!(layer.blocks[0].data.storage_dtype(), KvDtype::U8);
        for view in [layer.keys(0), layer.values(0)] {
            for slot in 0..2 {
                for x in view.row_vec(slot) {
                    assert!(
                        x.is_finite() && (0.0..=tiny).contains(&x),
                        "slot {slot}: {x:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_generations_survive_appends_and_track_rewrites() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = filled_layer_in(5, pool.clone());
        let gen0 = layer.block_meta(0).generation;
        let gen1 = layer.block_meta(1).generation;
        assert_ne!(gen0, gen1, "generations are globally unique");
        // Plain appends grow rows but keep the generation.
        append_wiggles(&mut layer, 1);
        assert_eq!(layer.block_meta(0).generation, gen0);
        assert_eq!(layer.block_meta(1).generation, gen1);
        assert_eq!(layer.block_meta(1).rows, 2);
        // A CoW fork writing the shared tail gets a fresh generation; the
        // donor's copy keeps its own.
        let mut fork = layer.fork().unwrap();
        assert_eq!(fork.block_meta(1).generation, gen1, "fork preserves");
        append_wiggles(&mut fork, 1);
        assert_ne!(fork.block_meta(1).generation, gen1);
        assert_eq!(layer.block_meta(1).generation, gen1);
        // Compaction: the identity prefix keeps its generation, every written
        // block is refreshed.
        layer.retain_slots(&[0, 1, 2, 3, 5]).unwrap();
        assert_eq!(layer.block_meta(0).generation, gen0);
        assert_ne!(layer.block_meta(1).generation, gen1);
    }

    #[test]
    fn seal_on_fill_bumps_generation() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = LayerKvCache::with_pool_dtype(2, 3, pool, KvDtype::U8);
        append_wiggles(&mut layer, 3);
        let staged = layer.block_meta(0);
        assert_eq!(staged.rows, 3);
        append_wiggles(&mut layer, 1);
        let sealed = layer.block_meta(0);
        assert_eq!(sealed.rows, 4);
        assert_eq!(sealed.id, staged.id);
        assert_ne!(
            sealed.generation, staged.generation,
            "quantize-on-seal rewrites every existing row's dequantized value"
        );
    }

    #[test]
    fn shared_prefix_blocks_keep_generation_across_attach() {
        let pool = SharedBlockPool::unbounded(3);
        let donor = filled_layer_in(6, pool.clone());
        let donor_gen = donor.block_meta(0).generation;
        let mut reader = LayerKvCache::with_pool(2, 3, pool);
        reader.push_shared_block(donor.shared_block(0)).unwrap();
        assert_eq!(reader.block_meta(0).generation, donor_gen);
    }

    #[test]
    fn kv_cache_dtype_constructor_threads_through_layers() {
        let pool = SharedBlockPool::unbounded(4);
        let cache = KvCache::with_pool_dtype(3, 2, 3, pool, KvDtype::U8);
        assert_eq!(cache.dtype(), KvDtype::U8);
        for layer in cache.iter() {
            assert_eq!(layer.dtype(), KvDtype::U8);
        }
        // u8 tokens cost a quarter of the f32 bytes.
        let f32_cache = KvCache::new(3, 2, 3);
        assert_eq!(cache.bytes_per_token() * 4, f32_cache.bytes_per_token());
    }
}
