//! The product forward pass: one forward function over reused buffers.
//!
//! `forward_chunk_ws` forwards a prompt chunk or a decode step's single
//! token. Per-session state (key rotations, per-slot attention scratch, the
//! copy-vote table) lives in a [`ForwardWorkspace`], and the row blocks and
//! buffered observations, dead once a chunk's replay has run, in the thread's
//! chunk scratch. In steady state (decoding inside an already-allocated KV
//! block) it performs **zero heap allocations per token** — see
//! `tests/zero_alloc_decode.rs`.
//!
//! The workspace also caches work a naive per-token forward would redo every
//! step:
//!
//! * a per-layer [`RotatedKeyCache`] memoizes the RoPE rotation of every cached
//!   key, keyed on KV-block `(id, generation)` so appends top up incrementally
//!   while CoW forks and quantize-on-seal rebuild exactly the affected blocks;
//!   an eviction moves the rotated rows with their keys
//!   ([`RotatedKeyCache::retain_slots`]) instead of re-rotating them;
//! * the rotations that remain (new key row, query heads, rebuilds) run
//!   through a [`RopeRotor`]: frequencies computed once per workspace,
//!   `(sin, cos)` once per position, multiplies only per row;
//! * per-head ALiBi slopes are precomputed once per model configuration.
//!
//! Every batching and buffer reuse preserves the exact f32 operation order of
//! a token-at-a-time forward that allocates every buffer afresh. The crate's
//! unit tests keep that forward as a test-only reference and prove the two
//! *byte-identical* — the same token streams, the same logit bits, the same
//! observation stream — across the policy zoo, both KV dtypes, chunk sizes
//! and prefix sharing.

use crate::config::{ModelConfig, PositionMode};
use crate::model::TransformerModel;
use crate::positional::{alibi_bias, alibi_slope, PositionalEncoding, RopeRotor, ROPE_BASE};
use crate::stats::{AttentionRecord, AttentionStats};
use crate::weights::LayerWeights;
use keyformer_core::cache::{KvCache, KvDtype, LayerKvCache};
use keyformer_core::observation::{ObservationRows, Phase};
use keyformer_core::parallel::fan_out;
use keyformer_core::{CoreError, RotatedKeyCache};
use keyformer_tensor::matrix::{matmul_packed_bt, matmul_strided, PackedPanels};
use keyformer_tensor::ops::{
    gelu_in_place, layer_norm_into, layer_norm_slice, softmax_into, softmax_slice,
};
use keyformer_tensor::vector::dot;
use keyformer_tensor::Matrix;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::OnceLock;

const LN_EPS: f32 = 1e-5;

/// Chunk queries attended per pass of [`attend_chunk_gemm`]: its
/// logit/probability rectangle is this many rows tall (two register tiles),
/// not `chunk` rows, so it stays L1-resident at a thousand live slots and off
/// the peak RSS. Prefill time is flat from 4 to 32 rows.
const ATTN_BAND_ROWS: usize = 8;

/// Scratch of the one-query-at-a-time attention ([`attend_chunk_query_ws`])
/// and of the observation replay. The per-slot buffers (`logits`, `probs`,
/// `mean_probs`) grow with the live cache; their capacity is reserved up
/// front per request so steady-state growth never reallocates.
#[derive(Debug, Clone)]
pub(crate) struct AttnScratch {
    q_head: Vec<f32>,
    /// Head-width scratch for dequantizing `u8` rows and for the fused
    /// `vecmat_into` accumulator.
    dequant: Vec<f32>,
    logits: Vec<f32>,
    probs: Vec<f32>,
    mean_probs: Vec<f32>,
    /// Hoisted RoPE: every rotation of this session (keys, queries, all
    /// layers) goes through it, so one position's `(sin, cos)` is computed
    /// once.
    rope: RopeRotor,
}

/// Fewest chunk rows worth a prefill worker of their own (two register
/// tiles). A chunk shorter than two of these runs on the calling thread
/// alone, without a spawn.
const MIN_ROWS_PER_WORKER: usize = 8;

/// Scratch owned by [`forward_chunk_ws`]: flat `[token][feature]` row blocks
/// sized to the chunk being forwarded, the buffered observation rows, and one
/// private scratch per prefill worker. All buffers keep their capacity across
/// chunks.
#[derive(Debug, Default)]
pub(crate) struct ChunkScratch {
    rows: ChunkRows,
    /// Every attention-logit row of the chunk: one region per layer, cut
    /// into one sub-region per attention worker. Only grows — each chunk
    /// overwrites what it uses, so nothing is zero-filled twice.
    obs_data: Vec<f32>,
    /// `(offset, len)` into `obs_data`, indexed `(token * L + layer) * H +
    /// head`, so the replay can walk the rows in sequential (token-major)
    /// order — and a worker's tokens own one contiguous slice of it.
    obs_index: Vec<(usize, usize)>,
    /// One private scratch per prefill worker; the first serves the calling
    /// thread.
    workers: Vec<WorkerScratch>,
    /// Every layer's context rows, in layer order, for the worker-count
    /// identity test.
    #[cfg(test)]
    layer_contexts: Vec<f32>,
}

impl ChunkScratch {
    /// The rows [`forward_chunk_ws`] buffered for chunk tokens `tokens`, token
    /// `tokens.start` observed as decode iteration `first_step`.
    pub(crate) fn observation_rows(
        &self,
        config: &ModelConfig,
        tokens: Range<usize>,
        phase: Phase,
        first_step: usize,
        total_steps: usize,
    ) -> ObservationRows<'_> {
        let per_token = config.num_layers * config.num_heads;
        ObservationRows {
            phase,
            first_step,
            total_steps,
            num_layers: config.num_layers,
            num_heads: config.num_heads,
            index: &self.obs_index[tokens.start * per_token..tokens.end * per_token],
            data: &self.obs_data,
        }
    }

    /// Reserves observation rows for one-row chunks behind up to `slots - 1`
    /// cached slots, so a decode step never grows the buffer past a short
    /// prompt's.
    pub(crate) fn reserve_decode(&mut self, config: &ModelConfig, slots: usize) {
        let rows = config.num_layers * config.num_heads * slots;
        self.obs_data
            .reserve(rows.saturating_sub(self.obs_data.len()));
    }
}

/// The `[token][feature]` row blocks of [`ChunkScratch`], all `chunk` rows
/// tall.
#[derive(Debug, Default)]
struct ChunkRows {
    /// Residual stream rows, `chunk x d_model`.
    hidden: Vec<f32>,
    /// LayerNorm output rows (reused for both pre-norms), `chunk x d_model`.
    normed: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// Per-token attention context rows, `chunk x d_model`.
    context: Vec<f32>,
    /// Projection output rows (`wo` and `ffn_out`), `chunk x d_model`.
    proj: Vec<f32>,
    /// FFN inner activations, `chunk x d_ff`.
    inner: Vec<f32>,
}

impl ChunkRows {
    /// Sizes every block for `n` rows (the embedding fills `hidden`).
    fn resize(&mut self, n: usize, d_model: usize, d_ff: usize) {
        for rows in [
            &mut self.normed,
            &mut self.q,
            &mut self.k,
            &mut self.v,
            &mut self.context,
            &mut self.proj,
        ] {
            rows.resize(n * d_model, 0.0);
        }
        self.inner.resize(n * d_ff, 0.0);
    }

    /// All rows of every block, ready to be split between workers.
    fn block(&mut self) -> RowBlock<'_> {
        RowBlock {
            hidden: &mut self.hidden,
            normed: &mut self.normed,
            q: &mut self.q,
            k: &mut self.k,
            v: &mut self.v,
            context: &mut self.context,
            proj: &mut self.proj,
            inner: &mut self.inner,
        }
    }
}

/// One worker's rows of the [`ChunkRows`] blocks: the same chunk tokens in
/// every block.
struct RowBlock<'a> {
    hidden: &'a mut [f32],
    normed: &'a mut [f32],
    q: &'a mut [f32],
    k: &'a mut [f32],
    v: &'a mut [f32],
    context: &'a mut [f32],
    proj: &'a mut [f32],
    inner: &'a mut [f32],
}

impl<'a> RowBlock<'a> {
    /// Splits the first `rows` rows off every block.
    fn split_front(&mut self, rows: usize, d_model: usize, d_ff: usize) -> RowBlock<'a> {
        RowBlock {
            hidden: split_front(&mut self.hidden, rows * d_model),
            normed: split_front(&mut self.normed, rows * d_model),
            q: split_front(&mut self.q, rows * d_model),
            k: split_front(&mut self.k, rows * d_model),
            v: split_front(&mut self.v, rows * d_model),
            context: split_front(&mut self.context, rows * d_model),
            proj: split_front(&mut self.proj, rows * d_model),
            inner: split_front(&mut self.inner, rows * d_ff),
        }
    }
}

/// One prefill worker's private scratch: the operands of the two attention
/// GEMMs. (The projections need none: each weight is stored as the GEMM's
/// right operand.) Everything here is sized on the calling thread before a
/// phase fans out, so workers never allocate — and a thread that never calls
/// `malloc` never gets a glibc arena of its own.
#[derive(Debug)]
struct WorkerScratch {
    /// Head-width row scratch of the KV cache's row visitor.
    dequant: Vec<f32>,
    /// Rotates this worker's queries under RoPE.
    rope: RopeRotor,
    /// One head's live keys, packed once per (layer, head) for QKᵀ:
    /// `live x head_dim` values (rotated rows under RoPE).
    key_panels: PackedPanels,
    /// One head's live value rows, gathered contiguous for P·V:
    /// `live x head_dim`.
    values: Vec<f32>,
    /// One query band's rectangle, `ATTN_BAND_ROWS x live`: raw logits, scaled
    /// and biased in place, then — once buffered as observations —
    /// overwritten by their softmax rows, each zero-padded to the band's
    /// causal extent.
    band: Vec<f32>,
}

impl WorkerScratch {
    fn new(head_dim: usize) -> Self {
        WorkerScratch {
            dequant: vec![0.0; head_dim],
            rope: RopeRotor::new(head_dim, ROPE_BASE),
            key_panels: PackedPanels::new(),
            values: Vec::new(),
            band: Vec::new(),
        }
    }

    /// Sizes the attention operands for queries that see up to `live` slots.
    fn reserve_attention(&mut self, live: usize, head_dim: usize) {
        self.key_panels.reserve(head_dim, live);
        self.values.clear();
        self.values.reserve(live * head_dim);
        self.band.resize(ATTN_BAND_ROWS * live, 0.0);
    }
}

/// One region of the chunk's observation buffer, filled front to back by
/// one writer.
struct ObsRows<'a> {
    rows: &'a mut [f32],
    /// Index of `rows[0]` in the whole buffer.
    offset: usize,
    used: usize,
}

impl ObsRows<'_> {
    /// Buffers `row`; returns its `obs_index` entry and the buffered copy.
    fn push(&mut self, row: &[f32]) -> ((usize, usize), &[f32]) {
        let at = self.used;
        self.used += row.len();
        let copy = &mut self.rows[at..self.used];
        copy.copy_from_slice(row);
        ((self.offset + at, row.len()), copy)
    }
}

/// Runs `f` with this thread's chunk scratch.
///
/// A chunk's scratch is dead once its replay has run, and one thread forwards
/// one chunk at a time, so every session that prefills or decodes on a thread
/// shares that thread's one scratch: a server holding many decoding sessions
/// keeps one copy, not one per session, and a long prompt's megabytes of
/// buffered observations are reused request after request instead of being
/// freed and faulted back in.
pub(crate) fn with_chunk_scratch<R>(f: impl FnOnce(&mut ChunkScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<ChunkScratch> = RefCell::new(ChunkScratch::default());
    }
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// All reusable state of the allocation-free forward path, owned by a
/// [`crate::session::Session`].
#[derive(Debug, Clone)]
pub struct ForwardWorkspace {
    /// Embedding staging row.
    hidden: Vec<f32>,
    final_hidden: Vec<f32>,
    copy_votes: Vec<f32>,
    /// `alibi_slope(head, num_heads)` for every head, computed once.
    alibi_slopes: Vec<f32>,
    pub(crate) attn: AttnScratch,
    /// One rotated-key cache per decoder layer.
    rot: Vec<RotatedKeyCache>,
}

impl ForwardWorkspace {
    /// Builds a workspace for `config` over KV blocks of `block_size` slots.
    pub fn new(config: &ModelConfig, block_size: usize) -> Self {
        let d_model = config.d_model;
        let head_dim = config.head_dim();
        ForwardWorkspace {
            hidden: Vec::with_capacity(d_model),
            final_hidden: Vec::with_capacity(d_model),
            copy_votes: vec![0.0; config.vocab_size],
            alibi_slopes: (0..config.num_heads)
                .map(|h| alibi_slope(h, config.num_heads))
                .collect(),
            attn: AttnScratch {
                q_head: vec![0.0; head_dim],
                dequant: vec![0.0; head_dim],
                logits: Vec::new(),
                probs: Vec::new(),
                mean_probs: Vec::new(),
                rope: RopeRotor::new(head_dim, ROPE_BASE),
            },
            rot: (0..config.num_layers)
                .map(|_| RotatedKeyCache::new(config.num_heads, head_dim, block_size))
                .collect(),
        }
    }

    /// Reserves the per-slot attention buffers for a request of up to `slots`
    /// live cache slots, so decode-time growth never reallocates.
    pub fn reserve_slots(&mut self, slots: usize) {
        self.attn.logits.reserve(slots);
        self.attn.probs.reserve(slots);
        self.attn.mean_probs.reserve(slots);
    }

    /// Drops every cached key rotation (the scratch buffers keep their
    /// capacity). Call when the session rebinds to a new sequence.
    pub fn clear(&mut self) {
        for rot in &mut self.rot {
            rot.clear();
        }
    }

    /// Compacts `cache` — layer `layer` of this workspace's sequence — to the
    /// `retained` slots. Under RoPE at original positions a key's rotation
    /// does not depend on its slot, so the cached rotated rows follow their
    /// keys through the compaction ([`RotatedKeyCache::retain_slots`]: zero
    /// re-rotations on `f32` layers). Every other configuration compacts
    /// plainly: `PositionMode::Remapped` inherently re-rotates the shifted
    /// tail on the next sync, and non-RoPE models cache no rotations.
    pub(crate) fn retain_slots(
        &mut self,
        config: &ModelConfig,
        layer: usize,
        cache: &mut LayerKvCache,
        retained: &[usize],
    ) -> Result<(), CoreError> {
        if config.positional == PositionalEncoding::Rope
            && config.position_mode == PositionMode::Original
        {
            self.rot[layer].retain_slots(cache, retained)
        } else {
            cache.retain_slots(retained)
        }
    }

    /// Records the statistics of `rows`, the attention logit rows
    /// [`forward_chunk_ws`] buffered, token-major: the recomputed softmax
    /// rows match the sequential records bit-for-bit. Call it before any
    /// eviction touches `cache`.
    pub(crate) fn replay_stats(
        &mut self,
        rows: &ObservationRows<'_>,
        cache: &KvCache,
        stats: &mut AttentionStats,
    ) {
        for obs in rows.iter() {
            // At this token's turn the layer held exactly `len` slots; a chunk
            // only appends, so the prefix of today's position table is that
            // moment's table.
            let len = obs.logits.len();
            softmax_into(obs.logits, &mut self.attn.probs);
            stats.record(AttentionRecord {
                layer: obs.layer,
                head: obs.head,
                step: obs.step,
                phase: obs.phase,
                probs: self.attn.probs.clone(),
                positions: cache.layer(obs.layer).positions()[..len].to_vec(),
            });
        }
    }
}

/// The product forward pass: runs `tokens` — a prompt chunk, or the one
/// token of a decode step — through each decoder layer *once*, with the three
/// QKV projections, the output projection, both FFN matmuls and the readout
/// each one [`matmul_strided`] over the chunk's rows (one row for a decode
/// step) against a weight stored `(d_in, d_out)`, and appends each layer's
/// fresh keys/values run by run, one [`LayerKvCache::append_from_slices`] per
/// row.
///
/// Byte-identity with the token-at-a-time path rests on five invariants:
///
/// * **GEMM bits** — every projected element, of a chunk row or of a decode
///   step's single row, is one accumulation chain over ascending `k` started
///   from `+0.0`: the loop the reference forward runs with
///   [`Matrix::vecmat`] over the same stored weight. The micro-kernel only
///   reorders *independent* chains across registers, and one row takes the
///   same kernel as many, so a token's projections do not depend on the
///   chunk it was forwarded in.
/// * **Causality** — each chunk query `t` attends through
///   [`keyformer_core::cache::KvSlice::truncated`] views of exactly the
///   `pre + t + 1` slots the sequential path had live at that token, and the
///   layer-major schedule only ever feeds a layer residual rows produced by
///   the previous layer — the classic prefill factorization.
/// * **Seal-delimited runs** — on `u8` layers an append that fills a block
///   requantizes it, changing what later reads dequantize to. Appends are
///   therefore batched in runs that break exactly at sealing appends (the
///   sealing append *starts* its run), so every query reads each block in the
///   same sealed/unsealed state the sequential interleaving exposed. `f32`
///   layers are seal-invariant: one run covers the chunk.
/// * **Deferred observation replay** — the per-(token, layer, head) attention
///   logit rows are buffered ([`ChunkScratch::observation_rows`]) and the
///   caller hands them to the policy's
///   [`observe_rows`](keyformer_core::policy::KvCachePolicy::observe_rows),
///   which must leave the state of token-major `observe` calls. A per-layer
///   scored policy splits the layers between workers; each walks every row in
///   order with its own RNG copy, scoring its own layers' rows and stepping
///   past `len × draws_per_logit` words for the rest, so every row draws the
///   sequential noise. The caller fans out only above a fixed number of
///   logits per worker (a decode step never does), and a shared score bucket
///   stays serial. Statistics records replay token-major via
///   [`ForwardWorkspace::replay_stats`]. Policy state never feeds
///   back into a forward, so deferring a decode step's observations to the
///   end of its forward changes nothing either.
/// * **Attention logits and context rows are GEMM tiles of the same chains** —
///   in [`attend_chunk_gemm`] a query's logit against a key is the one
///   ascending-`k` chain `dot` runs, computed a 4x16 register tile at a time
///   against keys packed once per (layer, head), and its context row is the
///   one ascending-slot chain `vecmat_into` runs over its own probabilities; a
///   probability row zero-padded past its causal extent adds `±0.0` to
///   accumulators that are never `-0.0`, exactly like `vecmat_into`'s skip of
///   zero coefficients. A layer attends one query at a time
///   ([`attend_chunk_query_ws`]) when it seals or the chunk is a single row.
///   A `u8` value read is the fused `scale·(Σc·q − zero·Σc)` factoring per
///   block — a different chain — in seal-delimited runs of at most
///   `block_size` tokens. A single row (a decode step) has nothing to batch:
///   it reads keys and values in place instead of packing and gathering every
///   live row per head.
///
/// **On every core.** Each layer runs as three kinds of phase. The *row
/// phases* — LN1 and the Q/K/V projections, then `wo`, the residuals, LN2 and
/// the FFN — split the chunk's rows evenly between `w` workers, each
/// projecting its own rows with [`matmul_strided`] straight from the shared
/// weights (no packing, no scratch). The *serial phases* — the KV appends,
/// the RoPE key sync and the peak-byte sample — stay on the calling thread.
/// The GEMM *attention* splits the chunk's queries into contiguous ranges of
/// equal causal work Σ(`pre + t + 1`) (not by head: under ALiBi the subnormal
/// probabilities crowd onto the steepest head); each worker runs
/// [`attend_chunk_gemm`] over its range into its own context rows, its own
/// tokens' `obs_index` entries and its own region of the observation buffer.
/// One-query-at-a-time attention stays on the calling thread: a decode step
/// is one query, and seal-delimited runs are too short to pay for a spawn. No
/// output element is split between workers, so each is still the one chain
/// from `+0.0` above, and the bits cannot depend on `w`. `w` is
/// `min(max_workers, n / MIN_ROWS_PER_WORKER)`, at least 1; with `w == 1`
/// nothing is spawned. Every buffer a worker writes is sized before its phase
/// fans out, so workers never allocate.
///
/// Next-token logits (final LN, readout matmul and copy-vote bonus) are only
/// computed — for the last chunk token — when `compute_logits` is set: at
/// the end of the prompt and on every decode step; mid-prompt logits are
/// unobservable and the sequential path discards them.
///
/// Returns the chunk's peak cache byte size as the sequential per-token
/// watermark would have seen it: within a run each layer's byte size grows
/// monotonically and a sealing append only shrinks it, so sampling each layer
/// at its run ends captures every per-token high-water candidate — including
/// the `f32`-staged tail rows a quantize-on-seal collapses, which a simple
/// end-of-chunk snapshot would miss.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_chunk_ws(
    model: &TransformerModel,
    tokens: &[u32],
    start_position: usize,
    cache: &mut KvCache,
    sequence: &[u32],
    ws: &mut ForwardWorkspace,
    chunk: &mut ChunkScratch,
    compute_logits: bool,
    out_logits: &mut Vec<f32>,
    max_workers: usize,
) -> Result<usize, CoreError> {
    let n = tokens.len();
    if n == 0 {
        return Ok(0);
    }
    let config = model.config();
    let weights = model.weights();
    let (d_model, d_ff, head_dim) = (config.d_model, config.d_ff, config.head_dim());
    let num_layers = config.num_layers;
    let num_heads = config.num_heads;
    let workers = max_workers.min(n / MIN_ROWS_PER_WORKER).max(1);

    // Embed every chunk token into its residual-stream row.
    {
        let staging = &mut ws.hidden;
        let rows = &mut chunk.rows.hidden;
        rows.clear();
        rows.reserve(n * d_model);
        for (i, &tok) in tokens.iter().enumerate() {
            model.embed_into(tok, start_position + i, staging);
            rows.extend_from_slice(staging);
        }
    }

    let ForwardWorkspace {
        final_hidden,
        copy_votes,
        alibi_slopes,
        attn,
        rot,
        ..
    } = ws;
    let ChunkScratch {
        rows,
        obs_data,
        obs_index,
        workers: worker_scratch,
        ..
    } = chunk;
    #[cfg(test)]
    chunk.layer_contexts.clear();

    // Everything the workers write is sized here, on the calling thread.
    rows.resize(n, d_model, d_ff);
    // Worker scratch is shaped by the model, and a thread may prefill for
    // more than one.
    if worker_scratch
        .first()
        .is_some_and(|w| w.dequant.len() != head_dim)
    {
        worker_scratch.clear();
    }
    while worker_scratch.len() < workers {
        worker_scratch.push(WorkerScratch::new(head_dim));
    }
    let worker_scratch = &mut worker_scratch[..workers];
    let obs_total: usize = (0..num_layers)
        .map(|layer| num_heads * causal_slots(cache.layer(layer).len(), 0..n))
        .sum();
    if obs_data.len() < obs_total {
        obs_data.resize(obs_total, 0.0);
    }
    obs_index.clear();
    obs_index.resize(n * num_layers * num_heads, (0, 0));
    let mut obs_offset = 0usize;

    let gather_copy = compute_logits && config.copy_strength > 0.0;
    if gather_copy {
        copy_votes.fill(0.0);
    }
    let mut copy_total = 0.0f32;
    let mut peak_bytes = 0usize;

    for (layer, layer_rot) in rot.iter_mut().enumerate() {
        let lw = &weights.layers[layer];
        let layer_cache = cache.layer_mut(layer);
        let pre = layer_cache.len();

        // Row phase: LN1 and the Q/K/V projections.
        row_phase(rows.block(), n, config, workers, |block| {
            attention_inputs(lw, d_model, block)
        });

        let layer_obs = num_heads * causal_slots(pre, 0..n);
        let mut obs = ObsRows {
            rows: &mut obs_data[obs_offset..obs_offset + layer_obs],
            offset: obs_offset,
            used: 0,
        };
        obs_offset += layer_obs;
        let ChunkRows {
            q, k, v, context, ..
        } = &mut *rows;

        let bs = layer_cache.block_size().max(1);
        let seals = layer_cache.dtype() != KvDtype::F32;
        let per_query = seals || n == 1;
        let mut layer_peak = 0usize;
        let mut run_start = 0usize;
        while run_start < n {
            // A run ends where the *next* sealing append begins: queries
            // before that append must read the block's staged rows, queries
            // from it on read the sealed (requantized) rows.
            let mut run_end = n;
            if seals {
                let mut i = run_start + 1;
                while i < n {
                    if (pre + i + 1) % bs == 0 {
                        run_end = i;
                        break;
                    }
                    i += 1;
                }
            }
            for t in run_start..run_end {
                let token = t * d_model..(t + 1) * d_model;
                layer_cache.append_from_slices(start_position + t, &k[token.clone()], &v[token])?;
            }
            layer_peak = layer_peak.max(layer_cache.byte_size());
            if config.positional == PositionalEncoding::Rope {
                sync_rotated_keys(config, layer_cache, layer_rot, &mut attn.rope);
            }
            if per_query {
                for t in run_start..run_end {
                    let obs_base = (t * num_layers + layer) * num_heads;
                    attend_chunk_query_ws(
                        config,
                        &q[t * d_model..(t + 1) * d_model],
                        start_position + t,
                        layer_cache,
                        pre + t + 1,
                        layer_rot,
                        attn,
                        alibi_slopes,
                        &mut context[t * d_model..(t + 1) * d_model],
                        &mut obs,
                        &mut obs_index[obs_base..obs_base + num_heads],
                        gather_copy && t == n - 1,
                    );
                }
            }
            run_start = run_end;
        }
        peak_bytes += layer_peak;

        if !per_query {
            // Attention phase: contiguous query ranges of equal causal work.
            for scratch in worker_scratch.iter_mut() {
                scratch.reserve_attention(pre + n, head_dim);
            }
            let mut mean_probs = gather_copy.then(|| {
                attn.mean_probs.clear();
                attn.mean_probs.resize(pre + n, 0.0);
                &mut attn.mean_probs[..]
            });
            let view = LayerView {
                config,
                layer,
                start_position,
                pre,
                cache: layer_cache,
                rot: layer_rot,
                alibi_slopes,
            };
            let (mut q, mut context) = (&mut q[..], &mut context[..]);
            let mut obs_index = &mut obs_index[..];
            let parts = causal_rows(n, pre, workers)
                .zip(worker_scratch.iter_mut())
                .map(|(run, scratch)| {
                    let (rows, obs_len) = (run.len(), num_heads * causal_slots(pre, run.clone()));
                    let obs_rows = ObsRows {
                        offset: obs.offset,
                        rows: split_front(&mut obs.rows, obs_len),
                        used: 0,
                    };
                    obs.offset += obs_len;
                    AttnPart {
                        q: split_front(&mut q, rows * d_model),
                        context: split_front(&mut context, rows * d_model),
                        obs_index: split_front(&mut obs_index, rows * num_layers * num_heads),
                        obs: obs_rows,
                        mean_probs: if run.end == n {
                            mean_probs.take()
                        } else {
                            None
                        },
                        run,
                        scratch,
                    }
                });
            fan_out(parts, |part| attend_chunk_gemm(&view, part));
        }
        #[cfg(test)]
        chunk.layer_contexts.extend_from_slice(&rows.context);

        // Row phase: the output projection and its residual, then the
        // pre-norm feed-forward block and its residual.
        row_phase(rows.block(), n, config, workers, |block| {
            attention_outputs_and_ffn(lw, d_model, block)
        });

        if gather_copy {
            let position = start_position + n - 1;
            let positions = layer_cache.positions();
            for (&slot_pos, &prob) in positions.iter().zip(attn.mean_probs.iter()) {
                if slot_pos == position {
                    continue;
                }
                if let Some(&successor) = sequence.get(slot_pos + 1) {
                    if successor < config.copy_ignore_below {
                        continue;
                    }
                    let idx = successor as usize;
                    if idx < copy_votes.len() {
                        copy_votes[idx] += prob;
                        copy_total += prob;
                    }
                }
            }
        }
    }

    if compute_logits {
        layer_norm_into(
            &rows.hidden[(n - 1) * d_model..n * d_model],
            &weights.final_ln_gain,
            &weights.final_ln_bias,
            LN_EPS,
            final_hidden,
        );
        out_logits.clear();
        out_logits.resize(config.vocab_size, 0.0);
        project(final_hidden, &weights.embedding, out_logits);
        if config.copy_strength > 0.0 && copy_total > 1e-6 {
            for (logit, vote) in out_logits.iter_mut().zip(copy_votes.iter()) {
                if *vote > 0.0 {
                    *logit += config.copy_strength * vote / copy_total;
                }
            }
        }
    }
    Ok(peak_bytes)
}

/// The most workers one prefill chunk fans out to:
/// [`std::thread::available_parallelism`], read once per process.
pub(crate) fn machine_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Causal work of chunk queries `rows` behind `pre` cached slots: the slots
/// they attend over, Σ(`pre + t + 1`).
fn causal_slots(pre: usize, rows: Range<usize>) -> usize {
    rows.map(|t| pre + t + 1).sum()
}

/// Splits chunk queries `0..n` into `workers` contiguous, non-empty ranges of
/// near-equal causal work: each range takes queries until the next one would
/// carry the running total past its share. Needs `n >= workers`.
fn causal_rows(n: usize, pre: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let total = causal_slots(pre, 0..n);
    let (mut start, mut work) = (0, 0);
    (0..workers).map(move |i| {
        let share = total * (i + 1) / workers;
        // Leave at least one query for each later range.
        let last_end = n - (workers - 1 - i);
        let mut end = start + 1;
        work += pre + start + 1;
        while end < last_end && work + pre + end < share {
            work += pre + end + 1;
            end += 1;
        }
        let range = start..end;
        start = end;
        range
    })
}

/// Splits the first `len` elements off `rest`.
fn split_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, back) = std::mem::take(rest).split_at_mut(len);
    *rest = back;
    front
}

/// Runs a row phase: `phase` over `all`'s `n` rows, split evenly between
/// `workers` workers.
fn row_phase(
    mut all: RowBlock<'_>,
    n: usize,
    config: &ModelConfig,
    workers: usize,
    phase: impl Fn(RowBlock<'_>) + Sync,
) {
    let parts = (0..workers).map(|i| {
        let rows = (i + 1) * n / workers - i * n / workers;
        all.split_front(rows, config.d_model, config.d_ff)
    });
    fan_out(parts, phase);
}

/// `out = rows · w`: the rows of `rows` projected through `w`, stored
/// `(d_in, d_out)`, in one [`matmul_strided`] — the forward's one projection
/// kernel, for a chunk's rows and a decode step's single row alike.
fn project(rows: &[f32], w: &Matrix, out: &mut [f32]) {
    let (d_in, d_out) = w.shape();
    let m = rows.len() / d_in;
    debug_assert!(rows.len() == m * d_in && out.len() == m * d_out);
    matmul_strided(rows, d_in, m, d_in, w.as_slice(), d_out, out, d_out);
}

/// Row phase before attention: LN1 of each row, then its Q/K/V projections.
fn attention_inputs(lw: &LayerWeights, d_model: usize, rows: RowBlock<'_>) {
    for (row, out) in rows
        .hidden
        .chunks_exact(d_model)
        .zip(rows.normed.chunks_exact_mut(d_model))
    {
        layer_norm_slice(row, &lw.ln1_gain, &lw.ln1_bias, LN_EPS, out);
    }
    project(rows.normed, &lw.wq, rows.q);
    project(rows.normed, &lw.wk, rows.k);
    project(rows.normed, &lw.wv, rows.v);
}

/// Row phase after attention: the output projection and its residual, then
/// the pre-norm feed-forward block and its residual.
fn attention_outputs_and_ffn(lw: &LayerWeights, d_model: usize, rows: RowBlock<'_>) {
    let RowBlock {
        hidden,
        normed,
        context,
        proj,
        inner,
        ..
    } = rows;
    project(context, &lw.wo, proj);
    for (h, a) in hidden.iter_mut().zip(proj.iter()) {
        *h += a;
    }
    for (row, out) in hidden
        .chunks_exact(d_model)
        .zip(normed.chunks_exact_mut(d_model))
    {
        layer_norm_slice(row, &lw.ln2_gain, &lw.ln2_bias, LN_EPS, out);
    }
    project(normed, &lw.ffn_in, inner);
    gelu_in_place(inner);
    project(inner, &lw.ffn_out, proj);
    for (h, f) in hidden.iter_mut().zip(proj.iter()) {
        *h += f;
    }
}

/// What every attention worker of one `f32` layer reads.
struct LayerView<'a> {
    config: &'a ModelConfig,
    layer: usize,
    start_position: usize,
    /// Slots the layer held before the chunk's append.
    pre: usize,
    cache: &'a LayerKvCache,
    /// Rotated keys, already synced to cover the whole chunk.
    rot: &'a RotatedKeyCache,
    alibi_slopes: &'a [f32],
}

/// One attention worker's share of a layer: chunk queries `run`, their query
/// and context rows, their tokens' `obs_index` entries (token-major, so one
/// contiguous slice), their region of the observation buffer and — for the
/// worker that owns the chunk's last token — the copy head's `mean_probs`.
struct AttnPart<'a> {
    run: Range<usize>,
    q: &'a mut [f32],
    context: &'a mut [f32],
    obs_index: &'a mut [(usize, usize)],
    obs: ObsRows<'a>,
    mean_probs: Option<&'a mut [f32]>,
    scratch: &'a mut WorkerScratch,
}

/// Brings `rot` up to date with a RoPE layer's cache, rotating each stale or
/// fresh key row at its effective position under the configured mode.
fn sync_rotated_keys(
    config: &ModelConfig,
    cache: &LayerKvCache,
    rot: &mut RotatedKeyCache,
    rope: &mut RopeRotor,
) {
    let rope_scale = config.rope_scale;
    let positions = cache.positions();
    match config.position_mode {
        PositionMode::Original => rot.sync(cache, |row, slot| {
            rope.rotate(row, positions[slot] as f32 * rope_scale);
        }),
        PositionMode::Remapped => rot.sync(cache, |row, slot| {
            rope.rotate(row, slot as f32 * rope_scale);
        }),
    }
}

/// Chunk queries `run` of [`forward_chunk_ws`] against an `f32` layer, head
/// by head as two GEMMs on the tiled micro-kernel — the same arithmetic as
/// [`attend_chunk_query_ws`] per query, laid out for the memory hierarchy:
///
/// 1. the head's live keys (rotated rows under RoPE) are packed into
///    `head_dim x 16` panels once, and its value rows gathered contiguous;
/// 2. per band of [`ATTN_BAND_ROWS`] queries, raw logits against every key up
///    to the band's causal extent come from [`matmul_packed_bt`]; each query
///    then applies the unchanged `d * scale (+ alibi_bias)` expression over
///    the `pre + t + 1` slots it may see, buffers that row for the
///    observation replay and softmaxes it into a
///    probability row zero-padded to the band's extent;
/// 3. the band's context rows are [`matmul_strided`] of the probability
///    rectangle with the gathered values.
///
/// One worker's share of an `f32` layer: `part.run` is a range of chunk
/// queries and every row slice of `part` holds exactly those queries, so
/// `t - run.start` indexes them. Queries are rotated in place under RoPE
/// (token-major, so one `(sin, cos)` set serves a token's heads); the
/// rotated-key cache must already cover `pre + run.end` slots. Writes only
/// `part`'s own rows — and `part.mean_probs`, head by head, when it owns the
/// chunk's last token — and allocates nothing: the scratch is sized for
/// `pre + run.end` slots, the observation region for the run's rows.
fn attend_chunk_gemm(view: &LayerView<'_>, part: AttnPart<'_>) {
    let LayerView {
        config,
        layer,
        start_position,
        pre,
        cache,
        rot,
        alibi_slopes,
    } = *view;
    let AttnPart {
        run,
        q,
        context,
        obs_index,
        mut obs,
        mut mean_probs,
        scratch,
    } = part;
    let WorkerScratch {
        dequant,
        rope,
        key_panels,
        values,
        band,
        ..
    } = scratch;
    let (d_model, head_dim) = (config.d_model, config.head_dim());
    let (num_layers, num_heads) = (config.num_layers, config.num_heads);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let positions = cache.positions();
    // Slots the run's last query attends over; the band's row stride.
    let live = pre + run.end;
    let query_position = |t: usize| match config.position_mode {
        PositionMode::Original => start_position + t,
        // Under remapping the query sits immediately after the compacted cache.
        PositionMode::Remapped => pre + t,
    };
    // Row `t` of the chunk within this part's slices.
    let local = |t: usize| t - run.start;

    let rotary = config.positional == PositionalEncoding::Rope;
    if rotary {
        for t in run.clone() {
            let position = query_position(t) as f32 * config.rope_scale;
            for q_head in q[local(t) * d_model..(local(t) + 1) * d_model].chunks_exact_mut(head_dim)
            {
                rope.rotate(q_head, position);
            }
        }
    }

    for head in 0..num_heads {
        let slope = alibi_slopes[head];
        let col = head * head_dim;
        key_panels.reset(head_dim);
        if rotary {
            for slot in 0..live {
                key_panels.push_row(rot.row(head, slot));
            }
        } else {
            let keys = cache.keys(head).truncated(live);
            keys.for_each_row(dequant, |_slot, row| key_panels.push_row(row));
        }
        values.clear();
        let value_rows = cache.values(head).truncated(live);
        value_rows.for_each_row(dequant, |_slot, row| values.extend_from_slice(row));

        let mut t0 = run.start;
        while t0 < run.end {
            let t1 = (t0 + ATTN_BAND_ROWS).min(run.end);
            // Causal extent of the band's last query; earlier rows ignore the
            // few logits past their own.
            let extent = pre + t1;
            matmul_packed_bt(
                &q[local(t0) * d_model + col..],
                d_model,
                t1 - t0,
                key_panels,
                extent,
                band,
                live,
            );
            for (row, t) in (t0..t1).enumerate() {
                let seen = pre + t + 1;
                let query_pos = query_position(t);
                let band_row = &mut band[row * live..row * live + extent];
                let logits = &mut band_row[..seen];
                match (config.positional, config.position_mode) {
                    (PositionalEncoding::Alibi, PositionMode::Original) => {
                        for (d, &key_pos) in logits.iter_mut().zip(positions) {
                            *d = *d * scale + alibi_bias(slope, query_pos, key_pos);
                        }
                    }
                    (PositionalEncoding::Alibi, PositionMode::Remapped) => {
                        for (slot, d) in logits.iter_mut().enumerate() {
                            *d = *d * scale + alibi_bias(slope, query_pos, slot);
                        }
                    }
                    (PositionalEncoding::Rope | PositionalEncoding::Learned, _) => {
                        for d in logits.iter_mut() {
                            *d *= scale;
                        }
                    }
                }
                // Buffer the observation the sequential path would have
                // delivered here; the session replays it token-major.
                let (entry, buffered) = obs.push(logits);
                obs_index[(local(t) * num_layers + layer) * num_heads + head] = entry;

                softmax_slice(buffered, logits);
                band_row[seen..].fill(0.0);
                if t + 1 == run.end {
                    if let Some(mean_probs) = mean_probs.as_deref_mut() {
                        for (m, &p) in mean_probs.iter_mut().zip(band_row.iter()) {
                            *m += p / num_heads as f32;
                        }
                    }
                }
            }
            matmul_strided(
                band,
                live,
                t1 - t0,
                extent,
                values,
                head_dim,
                &mut context[local(t0) * d_model + col..],
                d_model,
            );
            t0 = t1;
        }
    }
    debug_assert_eq!(obs.used, obs.rows.len(), "observation region sized exactly");
}

/// One chunk query of [`forward_chunk_ws`], head by head: every query of a
/// quantized (`u8`) layer and the one query of a single-row chunk (a decode
/// step); other chunks go through [`attend_chunk_gemm`]. The per-head
/// arithmetic of the reference forward's single-query attention, against a `live`-slot [`keyformer_core::cache::KvSlice::truncated`] causal
/// view of the layer, with the policy observation *buffered* (into `obs` /
/// `obs_slots`) instead of delivered — the session replays it token-major
/// afterwards. None of its differences changes a bit: RoPE keys come from the
/// rotated-key cache (which must already cover `live` slots: one
/// [`RotatedKeyCache::sync`] per run), other keys and the values are read
/// through the allocation-free row visitors, and key positions straight off
/// the cache's position table.
#[allow(clippy::too_many_arguments)]
fn attend_chunk_query_ws(
    config: &ModelConfig,
    query: &[f32],
    query_position: usize,
    cache: &LayerKvCache,
    live: usize,
    rot: &RotatedKeyCache,
    attn: &mut AttnScratch,
    alibi_slopes: &[f32],
    context_out: &mut [f32],
    obs: &mut ObsRows<'_>,
    obs_slots: &mut [(usize, usize)],
    want_mean_probs: bool,
) {
    let num_heads = config.num_heads;
    let head_dim = config.head_dim();
    debug_assert!(live >= 1 && live <= cache.len(), "causal view out of range");
    let scale = 1.0 / (head_dim as f32).sqrt();
    let positions = cache.positions();
    let effective_query_pos = match config.position_mode {
        PositionMode::Original => query_position,
        // Under remapping the query sits immediately after the compacted cache.
        PositionMode::Remapped => live - 1,
    };

    let AttnScratch {
        q_head,
        dequant,
        logits,
        probs,
        mean_probs,
        rope,
        ..
    } = attn;
    if want_mean_probs {
        mean_probs.clear();
        mean_probs.resize(live, 0.0);
    }

    for head in 0..num_heads {
        q_head.copy_from_slice(&query[head * head_dim..(head + 1) * head_dim]);
        if config.positional == PositionalEncoding::Rope {
            rope.rotate(q_head, effective_query_pos as f32 * config.rope_scale);
        }
        let slope = alibi_slopes[head];
        logits.clear();
        match config.positional {
            PositionalEncoding::Rope => {
                for slot in 0..live {
                    logits.push(dot(q_head, rot.row(head, slot)) * scale);
                }
            }
            PositionalEncoding::Alibi => {
                let keys = cache.keys(head).truncated(live);
                match config.position_mode {
                    PositionMode::Original => keys.for_each_row(dequant, |slot, row| {
                        logits.push(
                            dot(q_head, row) * scale
                                + alibi_bias(slope, effective_query_pos, positions[slot]),
                        );
                    }),
                    PositionMode::Remapped => keys.for_each_row(dequant, |slot, row| {
                        logits.push(
                            dot(q_head, row) * scale + alibi_bias(slope, effective_query_pos, slot),
                        );
                    }),
                }
            }
            PositionalEncoding::Learned => {
                let keys = cache.keys(head).truncated(live);
                keys.for_each_row(dequant, |_slot, row| {
                    logits.push(dot(q_head, row) * scale);
                });
            }
        }

        // Buffer the observation the sequential path would have delivered
        // here; the session replays it in token-major order.
        obs_slots[head] = obs.push(logits).0;

        softmax_into(logits, probs);
        let values = cache.values(head).truncated(live);
        values
            .vecmat_into(
                probs,
                &mut context_out[head * head_dim..(head + 1) * head_dim],
                dequant,
            )
            .expect("value matrix shape mismatch");
        if want_mean_probs {
            for (m, &p) in mean_probs.iter_mut().zip(probs.iter()) {
                *m += p / num_heads as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::{attend_single_query, AttentionContext, AttentionOutput};
    use crate::config::ModelConfig;
    use crate::families::ModelFamily;
    use keyformer_core::observation::AttentionObservation;
    use keyformer_core::policy::KvCachePolicy;
    use keyformer_tensor::ops::softmax;

    fn filled_cache(config: &ModelConfig, n: usize) -> LayerKvCache {
        let head_dim = config.head_dim();
        let mut cache = LayerKvCache::new(config.num_heads, head_dim);
        for pos in 0..n {
            let row: Vec<f32> = (0..config.d_model)
                .map(|c| ((pos * 7 + c / head_dim * 3 + c % head_dim) % 11) as f32 * 0.1 - 0.4)
                .collect();
            cache.append_from_slices(pos, &row, &row).unwrap();
        }
        cache
    }

    fn query(config: &ModelConfig) -> Vec<f32> {
        (0..config.d_model)
            .map(|i| ((i * 5 + 1) % 13) as f32 * 0.05 - 0.2)
            .collect()
    }

    /// The legacy attention of `query` over all of `cache`: its output and
    /// every head's observed logit row.
    fn legacy_attention(
        config: &ModelConfig,
        layer: usize,
        query: &[f32],
        query_position: usize,
        cache: &LayerKvCache,
    ) -> (AttentionOutput, Vec<Vec<f32>>) {
        let mut policy = RecordingPolicy::default();
        let mut ctx = AttentionContext {
            policy: &mut policy,
            stats: None,
            phase: Phase::Generation,
            step: 2,
            total_steps: 4,
        };
        let out = attend_single_query(config, layer, query, query_position, cache, &mut ctx);
        (out, policy.rows)
    }

    /// A decode step's attention: `query` as the one row of a chunk against
    /// all of `cache`, after the chunk's rotated-key sync. Returns the context
    /// row and every head's buffered observation row; `mean_probs` lands in
    /// `ws.attn.mean_probs`.
    fn one_row_attention(
        config: &ModelConfig,
        layer: usize,
        query: &[f32],
        query_position: usize,
        cache: &LayerKvCache,
        ws: &mut ForwardWorkspace,
    ) -> (Vec<f32>, Vec<Vec<f32>>) {
        if config.positional == PositionalEncoding::Rope {
            sync_rotated_keys(config, cache, &mut ws.rot[layer], &mut ws.attn.rope);
        }
        let num_heads = config.num_heads;
        let mut context = vec![0.0; config.d_model];
        let mut obs_data = vec![0.0; num_heads * cache.len()];
        let mut obs_slots = vec![(0, 0); num_heads];
        attend_chunk_query_ws(
            config,
            query,
            query_position,
            cache,
            cache.len(),
            &ws.rot[layer],
            &mut ws.attn,
            &ws.alibi_slopes,
            &mut context,
            &mut ObsRows {
                rows: &mut obs_data,
                offset: 0,
                used: 0,
            },
            &mut obs_slots,
            true,
        );
        let rows = obs_slots
            .iter()
            .map(|&(offset, len)| obs_data[offset..offset + len].to_vec())
            .collect();
        (context, rows)
    }

    /// The workspace's one-query attention — a decode step's — must be
    /// bit-identical to the legacy attention for every positional family and
    /// position mode: context, `mean_probs` and every observed logit row.
    #[test]
    fn attend_ws_is_bit_identical_to_legacy() {
        for positional in [
            PositionalEncoding::Rope,
            PositionalEncoding::Alibi,
            PositionalEncoding::Learned,
        ] {
            for mode in [PositionMode::Original, PositionMode::Remapped] {
                let config = ModelConfig {
                    positional,
                    position_mode: mode,
                    ..ModelConfig::tiny()
                };
                let mut cache = filled_cache(&config, 9);
                // Introduce holes so the two position modes actually differ.
                cache.retain_slots(&[0, 2, 3, 5, 6, 7, 8]).unwrap();
                let q = query(&config);

                let (legacy, legacy_rows) = legacy_attention(&config, 0, &q, 9, &cache);
                let mut ws = ForwardWorkspace::new(&config, cache.block_size());
                let (context, rows) = one_row_attention(&config, 0, &q, 9, &cache, &mut ws);
                assert_eq!(
                    bits(&legacy.context),
                    bits(&context),
                    "{positional} / {mode} context diverged"
                );
                assert_eq!(
                    bits(&legacy.mean_probs),
                    bits(&ws.attn.mean_probs),
                    "{positional} / {mode} mean_probs diverged"
                );
                assert_eq!(legacy_rows.len(), config.num_heads);
                for (head, (want, got)) in legacy_rows.iter().zip(&rows).enumerate() {
                    assert_eq!(
                        bits(want),
                        bits(got),
                        "{positional} / {mode} observation of head {head} diverged"
                    );
                }
            }
        }
    }

    /// Records every observed logit row, in delivery order.
    #[derive(Clone, Default)]
    struct RecordingPolicy {
        rows: Vec<Vec<f32>>,
    }

    impl KvCachePolicy for RecordingPolicy {
        fn name(&self) -> &'static str {
            "recording"
        }
        fn observe(&mut self, obs: &AttentionObservation<'_>) {
            self.rows.push(obs.logits.to_vec());
        }
        fn select_retained(
            &mut self,
            _layer: usize,
            live: usize,
            _budget: &keyformer_core::budget::CacheBudget,
        ) -> Vec<usize> {
            (0..live).collect()
        }
        fn compact(&mut self, _layer: usize, _retained: &[usize]) {}
        fn reset(&mut self) {}
        fn clone_box(&self) -> Box<dyn KvCachePolicy> {
            Box::new(self.clone())
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The two-GEMM chunk attention must reproduce the legacy single-query
    /// attention token by token — context rows, buffered observation rows and
    /// the last token's `mean_probs`, all by bits — for every positional
    /// family and position mode, starting behind a prefix (`pre > 0`) with
    /// `pre` and the chunk length off the 4-row / 16-slot tile sizes. The
    /// prefix keys sit 2000 positions apart, so under ALiBi the far ones get
    /// probabilities that are subnormal or exactly zero on both heads.
    #[test]
    fn chunk_attention_is_bit_identical_to_single_query_attention() {
        let (pre, n, layer) = (21usize, 37usize, 1usize);
        let start_position = pre * 2000;
        let mut seed = 0x5eed_a77e_u64;
        let mut rows = |count: usize, width: usize| -> Vec<f32> {
            (0..count * width)
                .map(|_| {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((seed >> 40) as f32) / ((1u64 << 23) as f32) - 1.0
                })
                .collect()
        };
        for positional in [
            PositionalEncoding::Rope,
            PositionalEncoding::Alibi,
            PositionalEncoding::Learned,
        ] {
            for mode in [PositionMode::Original, PositionMode::Remapped] {
                let config = ModelConfig {
                    positional,
                    position_mode: mode,
                    ..ModelConfig::tiny()
                };
                let (d_model, num_heads) = (config.d_model, config.num_heads);
                let prefix = rows(pre, d_model);
                let (q, k, v) = (rows(n, d_model), rows(n, d_model), rows(n, d_model));
                let prefixed = || {
                    let mut cache = LayerKvCache::new(num_heads, config.head_dim());
                    for (i, row) in prefix.chunks_exact(d_model).enumerate() {
                        cache.append_from_slices(i * 2000, row, row).unwrap();
                    }
                    cache
                };

                // Chunk path: every row appended, one sync, two GEMMs per head.
                let mut cache = prefixed();
                let mut ws = ForwardWorkspace::new(&config, cache.block_size());
                for (t, (k, v)) in k
                    .chunks_exact(d_model)
                    .zip(v.chunks_exact(d_model))
                    .enumerate()
                {
                    cache.append_from_slices(start_position + t, k, v).unwrap();
                }
                if positional == PositionalEncoding::Rope {
                    sync_rotated_keys(&config, &cache, &mut ws.rot[layer], &mut ws.attn.rope);
                }
                let mut context = vec![0.0; n * d_model];
                let mut obs_index = vec![(0, 0); n * config.num_layers * num_heads];
                let mut obs_data = vec![0.0; num_heads * causal_slots(pre, 0..n)];
                let mut chunk_mean_probs = vec![0.0; pre + n];
                let mut scratch = WorkerScratch::new(config.head_dim());
                scratch.reserve_attention(pre + n, config.head_dim());
                attend_chunk_gemm(
                    &LayerView {
                        config: &config,
                        layer,
                        start_position,
                        pre,
                        cache: &cache,
                        rot: &ws.rot[layer],
                        alibi_slopes: &ws.alibi_slopes,
                    },
                    AttnPart {
                        run: 0..n,
                        q: &mut q.clone(),
                        context: &mut context,
                        obs_index: &mut obs_index,
                        obs: ObsRows {
                            rows: &mut obs_data,
                            offset: 0,
                            used: 0,
                        },
                        mean_probs: Some(&mut chunk_mean_probs),
                        scratch: &mut scratch,
                    },
                );

                // Reference: one append and one legacy single-query
                // attention per token.
                let mut cache = prefixed();
                let (mut subnormal, mut zero) = (0, 0);
                let mut last_mean_probs = Vec::new();
                for t in 0..n {
                    let token = t * d_model..(t + 1) * d_model;
                    cache
                        .append_from_slices(
                            start_position + t,
                            &k[token.clone()],
                            &v[token.clone()],
                        )
                        .unwrap();
                    let (legacy, observed) = legacy_attention(
                        &config,
                        layer,
                        &q[token.clone()],
                        start_position + t,
                        &cache,
                    );
                    assert_eq!(
                        bits(&context[token]),
                        bits(&legacy.context),
                        "{positional} / {mode} context of token {t}"
                    );
                    for (head, want) in observed.iter().enumerate() {
                        let (offset, len) =
                            obs_index[(t * config.num_layers + layer) * num_heads + head];
                        assert_eq!(
                            bits(&obs_data[offset..offset + len]),
                            bits(want),
                            "{positional} / {mode} observation of token {t} head {head}"
                        );
                        let probs = softmax(want);
                        subnormal += probs.iter().filter(|p| p.is_subnormal()).count();
                        zero += probs.iter().filter(|p| **p == 0.0).count();
                    }
                    last_mean_probs = legacy.mean_probs;
                }
                assert_eq!(
                    bits(&chunk_mean_probs),
                    bits(&last_mean_probs),
                    "{positional} / {mode} mean_probs of the last token"
                );
                if (positional, mode) == (PositionalEncoding::Alibi, PositionMode::Original) {
                    assert!(
                        subnormal > 0 && zero > 0,
                        "the ALiBi case must reach subnormal and exactly-zero probabilities"
                    );
                }
            }
        }
    }

    /// The bits of one `forward_chunk_ws` call that a worker split could
    /// touch: the next-token logits, every layer's context rows, every
    /// buffered observation row in replay order, the last token's
    /// `mean_probs` and the peak-byte sample.
    #[derive(Debug, PartialEq)]
    struct ChunkBits {
        logits: Vec<u32>,
        layer_contexts: Vec<u32>,
        observations: Vec<u32>,
        mean_probs: Vec<u32>,
        peak_bytes: usize,
    }

    /// Forwards an `n`-token chunk on `workers` threads behind `pre` cached
    /// slots. A non-empty prefix is forwarded on one thread, then compacted
    /// to its first slot plus its last `pre - 1`, so slots and positions
    /// differ and the two position modes disagree.
    fn chunk_bits(
        model: &TransformerModel,
        dtype: KvDtype,
        pre: usize,
        n: usize,
        workers: usize,
    ) -> ChunkBits {
        const DROPPED: usize = 9;
        let config = model.config();
        let mut cache = model.empty_cache_dtype(dtype);
        let mut ws = ForwardWorkspace::new(config, cache.block_size());
        let mut chunk = ChunkScratch::default();
        let start = if pre == 0 { 0 } else { pre + DROPPED };
        let prompt: Vec<u32> = (0..start + n)
            .map(|i| ((i * 37 + 11) % config.vocab_size) as u32)
            .collect();
        let mut logits = Vec::new();
        if pre > 0 {
            forward_chunk_ws(
                model,
                &prompt[..start],
                0,
                &mut cache,
                &prompt[..start],
                &mut ws,
                &mut chunk,
                false,
                &mut logits,
                1,
            )
            .unwrap();
            let retained: Vec<usize> = std::iter::once(0).chain(DROPPED + 1..start).collect();
            for layer in 0..config.num_layers {
                ws.retain_slots(config, layer, cache.layer_mut(layer), &retained)
                    .unwrap();
            }
        }
        assert_eq!(cache.layer(0).len(), pre);
        let peak_bytes = forward_chunk_ws(
            model,
            &prompt[start..],
            start,
            &mut cache,
            &prompt,
            &mut ws,
            &mut chunk,
            true,
            &mut logits,
            workers,
        )
        .unwrap();
        let (layers, heads) = (config.num_layers, config.num_heads);
        let mut observations = Vec::new();
        for t in 0..n {
            for layer in 0..layers {
                for head in 0..heads {
                    let (offset, len) = chunk.obs_index[(t * layers + layer) * heads + head];
                    assert_eq!(len, pre + t + 1, "token {t} sees its causal prefix");
                    observations.extend(bits(&chunk.obs_data[offset..offset + len]));
                }
            }
        }
        ChunkBits {
            logits: bits(&logits),
            layer_contexts: bits(&chunk.layer_contexts),
            observations,
            mean_probs: bits(&ws.attn.mean_probs),
            peak_bytes,
        }
    }

    /// `forward_chunk_ws` on 2 and 3 workers (3 splits 37 rows unevenly)
    /// leaves exactly the bits it leaves on one, for every positional family,
    /// both position modes and both KV dtypes, from an empty cache and from
    /// behind a compacted prefix.
    #[test]
    fn chunk_forward_is_bit_identical_at_every_worker_count() {
        for positional in [
            PositionalEncoding::Rope,
            PositionalEncoding::Alibi,
            PositionalEncoding::Learned,
        ] {
            for mode in [PositionMode::Original, PositionMode::Remapped] {
                let model = TransformerModel::new(ModelConfig {
                    positional,
                    position_mode: mode,
                    ..ModelFamily::Tiny.config(5)
                })
                .unwrap();
                for dtype in [KvDtype::F32, KvDtype::U8] {
                    for (pre, n) in [(0, 37), (21, 37), (0, 128), (21, 128)] {
                        let one = chunk_bits(&model, dtype, pre, n, 1);
                        assert_eq!(one.mean_probs.len(), pre + n);
                        for workers in [2, 3] {
                            assert!(
                                n / MIN_ROWS_PER_WORKER >= workers,
                                "{n} rows split {workers} ways"
                            );
                            assert_eq!(
                                chunk_bits(&model, dtype, pre, n, workers),
                                one,
                                "{positional} / {mode} / {dtype:?}, pre {pre}, chunk {n}, \
                                 {workers} workers"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The attention split hands out contiguous, non-empty query ranges that
    /// cover the chunk, with causal work within one query of an even share.
    #[test]
    fn causal_rows_balance_attention_work() {
        for (n, pre, workers) in [
            (128, 0, 2),
            (128, 896, 2),
            (37, 21, 3),
            (8, 0, 8),
            (9, 5, 4),
        ] {
            let ranges: Vec<Range<usize>> = causal_rows(n, pre, workers).collect();
            assert_eq!(ranges.len(), workers);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[workers - 1].end, n);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            let share = causal_slots(pre, 0..n) / workers;
            for range in &ranges {
                assert!(!range.is_empty());
                let work = causal_slots(pre, range.clone());
                let slack = pre + n;
                assert!(
                    work + slack >= share && work <= share + slack,
                    "{range:?} of {n} behind {pre}: work {work}, share {share}"
                );
            }
        }
    }

    /// Re-attending with the same workspace must give the same bits (the
    /// rotated-key cache serves instead of recomputing), and the legacy
    /// attention's.
    #[test]
    fn cached_rotations_serve_repeat_queries() {
        let config = ModelConfig::tiny();
        let cache = filled_cache(&config, 7);
        let q = query(&config);
        let mut ws = ForwardWorkspace::new(&config, cache.block_size());
        let first = one_row_attention(&config, 0, &q, 7, &cache, &mut ws).0;
        let covered = ws.rot[0].covered_slots();
        assert_eq!(covered, 7);
        let second = one_row_attention(&config, 0, &q, 7, &cache, &mut ws).0;
        assert_eq!(first, second);
        let legacy = legacy_attention(&config, 0, &q, 7, &cache).0;
        assert_eq!(bits(&first), bits(&legacy.context));
    }

    #[test]
    fn workspace_precomputes_alibi_slopes() {
        let config = ModelConfig {
            num_heads: 4,
            ..ModelConfig::tiny()
        };
        let ws = ForwardWorkspace::new(&config, 16);
        for h in 0..4 {
            assert_eq!(ws.alibi_slopes[h].to_bits(), alibi_slope(h, 4).to_bits());
        }
    }
}
