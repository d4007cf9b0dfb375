//! Per-sequence inference state, decoupled from any serving arrangement.
//!
//! A [`Session`] owns everything that belongs to *one* sequence being decoded
//! against a shared [`TransformerModel`]: the KV cache, the eviction policy
//! instance, the derived budget, the token history and the peak-byte
//! watermark. The model itself is borrowed immutably, so any number of
//! sessions can decode against the same weights concurrently — which is
//! exactly what the continuous-batching scheduler in `keyformer-serve` does.
//!
//! A session is driven one way: [`Session::begin`] arms the prompt and an
//! autoregressive decode; each [`Session::step`] then produces exactly one
//! token, and [`Session::take_output`] harvests the finished request. A
//! scheduler interleaves `step` calls across many sessions; a single caller
//! runs the whole request with [`Session::generate`] (or scores a
//! continuation with [`Session::score_continuation`]), which drive the same
//! calls — so serving a request produces token-identical output to running it
//! alone.
//!
//! Every prompt is forwarded by one prefill path, [`Session::advance_prefill`].
//! By default `begin` runs it to completion itself, as one whole-prompt chunk.
//! With [`Session::set_prefill_chunk`], `begin` only validates and arms the
//! prompt, and each `advance_prefill` forwards at most one chunk of prompt
//! tokens — resumable mid-prompt, so a scheduler can interleave long prefills
//! with other sessions' decodes (and pause them when a strict block pool runs
//! dry). Chunking never changes what is generated: the forward sequence is
//! identical to one-shot prefill, and the end-of-prompt eviction still happens
//! exactly once, after the final prompt token. A decode step forwards its one
//! token through the same chunk forward, as a one-row chunk.
//!
//! Sessions share KV blocks one way, by prefix attachment
//! ([`keyformer_core::prefix`]): with [`Session::set_prefix_registry`], prompt
//! forwarding registers every completed full KV block (plus a policy-state
//! snapshot) into a shared [`SharedPrefixRegistry`], and
//! [`Session::begin_with_prefix`] attaches a new prompt to the longest cached
//! prefix copy-on-write, skipping those prefill forwards entirely while
//! producing tokens identical to a cold start. A shared block is therefore
//! always full: appends land only in private blocks, and an eviction that
//! touches a shared block copies it first.
//!
//! The policy is the forward's only observer of attention: a caller that
//! wants the attention rows (the paper's analysis figures) passes a policy
//! that records what it observes.

use crate::config::ModelConfig;
use crate::generation::{GenerationConfig, GenerationOutput, SamplingStrategy};
use crate::model::TransformerModel;
use crate::workspace::{
    forward_chunk_ws, machine_parallelism, with_chunk_scratch, ForwardWorkspace,
};
use keyformer_core::block::{OvercommitPolicy, SharedBlockPool};
use keyformer_core::budget::{CacheBudget, CacheBudgetSpec};
use keyformer_core::cache::{KvCache, KvDtype};
use keyformer_core::observation::Phase;
use keyformer_core::policy::KvCachePolicy;
use keyformer_core::prefix::SharedPrefixRegistry;
use keyformer_core::CoreError;
use keyformer_tensor::ops::{log_softmax, softmax_with_temperature};
use keyformer_tensor::top_k_indices;
use keyformer_tensor::vector::argmax;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fewest buffered logits worth an observation-replay worker of their own:
/// about 0.5 ms of Gumbel scoring, against a spawn of tens of microseconds.
/// No decode step comes near it (16 heads behind 500 slots are 8 k logits),
/// so decode replays on the calling thread.
const MIN_LOGITS_PER_WORKER: usize = 16 * 1024;

/// The sampling-loop state of an in-flight autoregressive decode.
///
/// Created by [`Session::begin`], advanced by [`Session::step`], consumed by
/// [`Session::take_output`].
#[derive(Debug)]
struct DecodeState {
    config: GenerationConfig,
    rng: StdRng,
    /// Logits over the next token (from the prefill or the last decode forward).
    logits: Vec<f32>,
    generated: Vec<u32>,
    /// Distinct tokens the repetition penalty applies to: the final prompt token
    /// (the task cue) plus every token generated so far. Kept deduplicated so each
    /// distinct token is penalised exactly once per step, however often it occurs.
    penalised: Vec<u32>,
    prompt_len: usize,
    step: usize,
    finished: bool,
}

/// An in-flight prefill armed by [`Session::begin`] (or
/// [`Session::begin_with_prefix`]) and advanced by [`Session::advance_prefill`].
#[derive(Debug)]
struct PrefillState {
    prompt: Vec<u32>,
    config: GenerationConfig,
    /// Prompt tokens already forwarded.
    processed: usize,
}

/// Progress report of one [`Session::advance_prefill`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillProgress {
    /// Prompt tokens forwarded by this call.
    pub processed: usize,
    /// Prompt tokens still to forward.
    pub remaining: usize,
    /// `true` once the prefill completed and the decode is armed.
    pub ready: bool,
    /// `true` when the call stopped early because the block pool had no room
    /// (strict pools only); call again once blocks have been freed.
    pub stalled: bool,
}

/// The result of one decode step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStep {
    /// The token produced by this step.
    pub token: u32,
    /// 0-based index of this token among the generated tokens of the current
    /// request. A scheduler that replays a sequence deterministically (e.g.
    /// after a preemption recompute) can compare this index against what it
    /// already surfaced to a client and suppress duplicate deliveries.
    pub index: usize,
    /// `true` when this was the final step (EOS or the generation length was
    /// reached); further [`Session::step`] calls will fail until a new
    /// [`Session::begin`].
    pub finished: bool,
}

/// All per-sequence state needed to decode one sequence against a shared model.
pub struct Session<'m> {
    model: &'m TransformerModel,
    policy: Box<dyn KvCachePolicy>,
    budget_spec: Option<CacheBudgetSpec>,
    budget: Option<CacheBudget>,
    cache: KvCache,
    sequence: Vec<u32>,
    peak_cache_bytes: usize,
    prefill_chunk: Option<usize>,
    /// Blocks the scheduler reserved for this session in the shared pool (0
    /// outside a serving context). Lets the strict-pool prefill pre-flight
    /// distinguish growth within the session's own reservation from transient
    /// growth that must not consume blocks other sessions are owed.
    block_reservation: usize,
    prefill: Option<PrefillState>,
    decode: Option<DecodeState>,
    /// Prefix registry this session registers prompt blocks into and attaches
    /// cached prefixes from (serving-layer sharing; `None` for standalone
    /// sessions).
    prefix_registry: Option<SharedPrefixRegistry>,
    /// Chain-context seed for registry keys (sessions only share prefixes
    /// registered under the same context — in serving, a policy-spec digest).
    prefix_context: u64,
    /// Prompt tokens of the current request served from attached shared blocks.
    prefix_tokens_reused: usize,
    /// Reusable buffers and cached key rotations of the forward pass.
    ws: ForwardWorkspace,
    /// Each layer's retained slots of the current eviction round, reused from
    /// round to round.
    retained: Vec<Vec<usize>>,
    /// Most threads one prefill chunk runs on (the machine's parallelism;
    /// tests pin it to compare worker counts).
    pub(crate) prefill_workers: usize,
    /// Forward token by token through the reference forward instead (the
    /// differential tests' oracle; see `crate::reference`).
    #[cfg(test)]
    pub(crate) reference_forward: bool,
}

impl<'m> Session<'m> {
    /// Creates a session. With `budget_spec = None` the cache is never reduced
    /// regardless of the policy (useful for the full-attention baseline).
    pub fn new(
        model: &'m TransformerModel,
        policy: Box<dyn KvCachePolicy>,
        budget_spec: Option<CacheBudgetSpec>,
    ) -> Self {
        Self::with_cache(model.empty_cache(), model, policy, budget_spec)
    }

    /// Creates a standalone session whose KV cache stores sealed blocks at
    /// `dtype` (a private unbounded pool, like [`Session::new`]).
    pub fn with_dtype(
        model: &'m TransformerModel,
        policy: Box<dyn KvCachePolicy>,
        budget_spec: Option<CacheBudgetSpec>,
        dtype: KvDtype,
    ) -> Self {
        Self::with_cache(model.empty_cache_dtype(dtype), model, policy, budget_spec)
    }

    /// Creates a session whose KV cache allocates from `pool`, so its blocks
    /// contend with — and are reclaimed by — every other session sharing the
    /// pool. This is the constructor the serving scheduler uses.
    pub fn with_pool(
        model: &'m TransformerModel,
        policy: Box<dyn KvCachePolicy>,
        budget_spec: Option<CacheBudgetSpec>,
        pool: SharedBlockPool,
    ) -> Self {
        Self::with_cache(model.empty_cache_in(pool), model, policy, budget_spec)
    }

    /// [`Session::with_pool`] with an explicit storage dtype for sealed KV
    /// blocks — the serving scheduler's per-request KV-dtype knob bottoms out
    /// here.
    pub fn with_pool_dtype(
        model: &'m TransformerModel,
        policy: Box<dyn KvCachePolicy>,
        budget_spec: Option<CacheBudgetSpec>,
        pool: SharedBlockPool,
        dtype: KvDtype,
    ) -> Self {
        Self::with_cache(
            model.empty_cache_in_dtype(pool, dtype),
            model,
            policy,
            budget_spec,
        )
    }

    fn with_cache(
        cache: KvCache,
        model: &'m TransformerModel,
        policy: Box<dyn KvCachePolicy>,
        budget_spec: Option<CacheBudgetSpec>,
    ) -> Self {
        let ws = ForwardWorkspace::new(model.config(), cache.block_size());
        Session {
            cache,
            model,
            policy,
            budget_spec,
            budget: None,
            sequence: Vec::new(),
            peak_cache_bytes: 0,
            prefill_chunk: None,
            block_reservation: 0,
            prefill: None,
            decode: None,
            prefix_registry: None,
            prefix_context: 0,
            prefix_tokens_reused: 0,
            ws,
            retained: Vec::new(),
            prefill_workers: machine_parallelism(),
            #[cfg(test)]
            reference_forward: false,
        }
    }

    /// Sets the chunked-prefill granularity: `Some(n)` makes [`Session::begin`]
    /// arm the prompt without forwarding it, with each
    /// [`Session::advance_prefill`] processing at most `n` prompt tokens;
    /// `None` (the default) restores one-shot prefill inside `begin`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == Some(0)`.
    pub fn set_prefill_chunk(&mut self, chunk: Option<usize>) {
        assert!(chunk != Some(0), "prefill chunk must be at least 1 token");
        self.prefill_chunk = chunk;
    }

    /// Builder form of [`Session::set_prefill_chunk`].
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn with_prefill_chunk(mut self, chunk: usize) -> Self {
        self.set_prefill_chunk(Some(chunk));
        self
    }

    /// The configured chunked-prefill granularity, if any.
    pub fn prefill_chunk(&self) -> Option<usize> {
        self.prefill_chunk
    }

    /// Records how many pool blocks the scheduler reserved for this session,
    /// so the strict-pool prefill pre-flight can leave other sessions'
    /// reserved-but-unallocated blocks untouched. Defaults to 0 (standalone
    /// sessions, or every session on an `AllowTransient` pool, where the value
    /// is unused).
    pub fn set_block_reservation(&mut self, blocks: usize) {
        self.block_reservation = blocks;
    }

    /// Connects this session to a prefix registry under the given chain
    /// context. From then on, prompt forwarding registers every completed full
    /// block (prefix + policy snapshot) into the registry, and
    /// [`Session::begin_with_prefix`] attaches to the longest cached prefix of
    /// a new prompt. The registry must be built over the same block pool as
    /// this session's cache.
    pub fn set_prefix_registry(&mut self, registry: SharedPrefixRegistry, context: u64) {
        self.prefix_registry = Some(registry);
        self.prefix_context = context;
    }

    /// Builder form of [`Session::set_prefix_registry`].
    pub fn with_prefix_registry(mut self, registry: SharedPrefixRegistry, context: u64) -> Self {
        self.set_prefix_registry(registry, context);
        self
    }

    /// Prompt tokens of the current request that were served from attached
    /// shared blocks instead of being forwarded (0 for cold starts).
    pub fn prefix_tokens_reused(&self) -> usize {
        self.prefix_tokens_reused
    }

    /// The model this session decodes against.
    pub fn model(&self) -> &'m TransformerModel {
        self.model
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        self.model.config()
    }

    /// The absolute budget derived from the last processed prompt, if any.
    pub fn budget(&self) -> Option<CacheBudget> {
        self.budget
    }

    /// The budget specification this session derives per-prompt budgets from.
    pub fn budget_spec(&self) -> Option<CacheBudgetSpec> {
        self.budget_spec
    }

    /// The live KV cache (read-only), exposing per-layer retained slots and their
    /// original positions for diagnostics and experiments.
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }

    /// Live KV-cache slot count per layer.
    pub fn cache_slots(&self) -> Vec<usize> {
        self.cache.iter().map(|l| l.len()).collect()
    }

    /// Current KV-cache byte footprint.
    pub fn cache_bytes(&self) -> usize {
        self.cache.byte_size()
    }

    /// Peak KV-cache byte footprint observed so far.
    pub fn peak_cache_bytes(&self) -> usize {
        self.peak_cache_bytes
    }

    /// Full token history (prompt + generated) of the current sequence.
    pub fn sequence(&self) -> &[u32] {
        &self.sequence
    }

    /// Clears all per-sequence state (including an unfinished chunked prefill,
    /// whose blocks go straight back to the pool), making the session reusable
    /// for a new request.
    pub fn reset(&mut self) {
        self.cache.clear();
        self.policy.reset();
        self.sequence.clear();
        self.budget = None;
        self.peak_cache_bytes = 0;
        self.prefill = None;
        self.decode = None;
        self.prefix_tokens_reused = 0;
        self.ws.clear();
    }

    /// Reserves every per-request buffer whose length tracks the sequence
    /// (token history, per-slot attention scratch) up front, so the decode
    /// loop's growth never reallocates mid-request.
    fn reserve_for_request(&mut self, prompt_len: usize, max_new_tokens: usize) {
        let slots = prompt_len.saturating_add(max_new_tokens);
        self.sequence.reserve(slots);
        self.ws.reserve_slots(slots);
        with_chunk_scratch(|chunk| chunk.reserve_decode(self.model.config(), slots));
    }

    /// Registers the prompt prefix ending at `processed` tokens into the
    /// configured registry when it lands on a block boundary. Called after
    /// each prompt-token forward; a no-op without a registry.
    fn maybe_register_prefix(&self, processed: usize) -> Result<(), CoreError> {
        let Some(registry) = &self.prefix_registry else {
            return Ok(());
        };
        if processed == 0 || processed % self.cache.block_size() != 0 {
            return Ok(());
        }
        registry
            .register(
                self.prefix_context,
                &self.sequence[..processed],
                &self.cache,
                self.policy.as_ref(),
            )
            .map(|_| ())
    }

    fn evict_to_budget(&mut self) -> Result<(), CoreError> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        // Every layer selects before any compacts: a shared score bucket is
        // compacted once per round, and each layer must read it uncompacted.
        let layers = self.cache.num_layers();
        self.retained.resize_with(layers, Vec::new);
        for (layer, retained) in self.retained.iter_mut().enumerate() {
            let live = self.cache.layer(layer).len();
            if budget.needs_eviction(live) {
                self.policy
                    .select_retained_into(layer, live, &budget, retained);
                keyformer_core::cache::validate_selection(retained, live)?;
            }
        }
        for (layer, retained) in self.retained.iter().enumerate() {
            if !budget.needs_eviction(self.cache.layer(layer).len()) {
                continue;
            }
            self.ws.retain_slots(
                self.model.config(),
                layer,
                self.cache.layer_mut(layer),
                retained,
            )?;
            self.policy.compact(layer, retained);
        }
        Ok(())
    }

    /// Forwards `tokens` — a prompt chunk, or a decode step's one token — at
    /// positions `start..` through [`forward_chunk_ws`], then replays the
    /// buffered attention observations under `phase`, the first at `step`,
    /// before any eviction: the policy takes them through
    /// [`KvCachePolicy::observe_rows`] in runs cut at every block-boundary
    /// prefix registration (so each snapshot holds the policy state of its
    /// token), on up to one worker per [`MIN_LOGITS_PER_WORKER`] logits of the
    /// run. Policy RNG streams and registrations are exactly the
    /// token-at-a-time loop's.
    /// Next-token logits are produced only with `compute_logits`.
    #[allow(clippy::too_many_arguments)]
    fn forward_chunk(
        &mut self,
        tokens: &[u32],
        start: usize,
        phase: Phase,
        step: usize,
        total_steps: usize,
        compute_logits: bool,
        logits: &mut Vec<f32>,
    ) -> Result<(), CoreError> {
        #[cfg(test)]
        if self.reference_forward {
            return self.forward_reference(tokens, start, phase, step, total_steps, logits);
        }
        self.sequence.extend_from_slice(tokens);
        with_chunk_scratch(|chunk| {
            let chunk_peak = forward_chunk_ws(
                self.model,
                tokens,
                start,
                &mut self.cache,
                &self.sequence,
                &mut self.ws,
                chunk,
                compute_logits,
                logits,
                self.prefill_workers,
            )?;
            self.peak_cache_bytes = self.peak_cache_bytes.max(chunk_peak);
            let registers = phase == Phase::Prompt && self.prefix_registry.is_some();
            let block = self.cache.block_size();
            let mut from = 0;
            while from < tokens.len() {
                // Cut the run where a prompt token completes a block.
                let to = if registers {
                    (from + block - (start + from) % block).min(tokens.len())
                } else {
                    tokens.len()
                };
                let rows = chunk.observation_rows(
                    self.model.config(),
                    from..to,
                    phase,
                    step + from,
                    total_steps,
                );
                let workers = self
                    .prefill_workers
                    .min(rows.total_logits() / MIN_LOGITS_PER_WORKER)
                    .max(1);
                self.policy.observe_rows(&rows, workers);
                if registers {
                    self.maybe_register_prefix(start + to)?;
                }
                from = to;
            }
            Ok(())
        })
    }

    /// [`Session::forward_chunk`] on the reference forward: each token is
    /// forwarded on its own, its observations reach the policy directly, the
    /// peak bytes are sampled after it, and a prompt token that completes a
    /// block registers its prefix.
    #[cfg(test)]
    fn forward_reference(
        &mut self,
        tokens: &[u32],
        start: usize,
        phase: Phase,
        step: usize,
        total_steps: usize,
        logits: &mut Vec<f32>,
    ) -> Result<(), CoreError> {
        for (i, &token) in tokens.iter().enumerate() {
            self.sequence.push(token);
            let mut ctx = crate::reference::ForwardContext {
                cache: &mut self.cache,
                policy: self.policy.as_mut(),
                sequence: &self.sequence,
                phase,
                step: step + i,
                total_steps,
            };
            *logits = self.model.forward_token(token, start + i, &mut ctx)?;
            self.peak_cache_bytes = self.peak_cache_bytes.max(self.cache.byte_size());
            if phase == Phase::Prompt {
                self.maybe_register_prefix(start + i + 1)?;
            }
        }
        Ok(())
    }

    /// Arms a stepwise decode of up to `config.max_new_tokens` tokens for
    /// `prompt`, running the prefill phase according to the configured
    /// granularity: with the default one-shot prefill the whole prompt is
    /// forwarded here; with [`Session::set_prefill_chunk`] the prompt is only
    /// validated and armed, and [`Session::advance_prefill`] does the forwards.
    /// `begin` never attaches a cached prefix (see
    /// [`Session::begin_with_prefix`]). Any previous per-sequence state
    /// (including an unfinished prefill or decode) is discarded — even when
    /// `begin` returns an error, so a stale [`Session::take_output`] can never
    /// be misattributed to the new request.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the prompt is empty or contains
    /// out-of-vocabulary tokens, and propagates forward, eviction and pool
    /// errors.
    pub fn begin(&mut self, prompt: &[u32], config: &GenerationConfig) -> Result<(), CoreError> {
        self.arm_prefill(prompt, config, false).map(|_| ())
    }

    /// Rejects an empty token list or one with out-of-vocabulary tokens;
    /// `what` names the list in the error.
    fn validate_tokens(&self, what: &str, tokens: &[u32]) -> Result<(), CoreError> {
        if tokens.is_empty() {
            return Err(CoreError::InvalidConfig(format!(
                "{what} must be non-empty"
            )));
        }
        let vocab = self.model.config().vocab_size;
        match tokens.iter().find(|&&tok| tok as usize >= vocab) {
            Some(tok) => Err(CoreError::InvalidConfig(format!(
                "{what} token {tok} outside vocabulary of {vocab}"
            ))),
            None => Ok(()),
        }
    }

    /// Like [`Session::begin`], but first attaches the longest prefix of
    /// `prompt` cached in the configured registry (if any): the matched blocks
    /// are mapped into this session's cache copy-on-write, the policy resumes
    /// from the registry's snapshot at that boundary, and the prefill skips the
    /// already-computed tokens. Returns how many prompt tokens were reused
    /// (0 on a registry miss or without a registry — then this is exactly
    /// `begin`).
    ///
    /// Attachment is invisible in the output: the generated tokens are
    /// identical to a cold [`Session::begin`] of the same prompt, for every
    /// policy in the zoo (the registry's policy snapshot carries the
    /// accumulated scores and RNG stream position a cold start would have).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on an empty or out-of-vocabulary
    /// prompt (and on registry/cache pool mismatches), and propagates forward,
    /// eviction and pool errors.
    pub fn begin_with_prefix(
        &mut self,
        prompt: &[u32],
        config: &GenerationConfig,
    ) -> Result<usize, CoreError> {
        self.arm_prefill(prompt, config, true)
    }

    /// Shared body of [`Session::begin`] and [`Session::begin_with_prefix`]:
    /// resets, validates, derives the budget, attaches a cached prefix when
    /// `attach` is set, arms the prefill and — without a prefill chunk — runs
    /// it to completion. Returns the prompt tokens attached.
    fn arm_prefill(
        &mut self,
        prompt: &[u32],
        config: &GenerationConfig,
        attach: bool,
    ) -> Result<usize, CoreError> {
        self.reset();
        self.validate_tokens("prompt", prompt)?;
        self.budget = self
            .budget_spec
            .map(|spec| spec.for_prompt_len(prompt.len()));
        self.reserve_for_request(prompt.len(), config.max_new_tokens);
        let mut attached = 0;
        if let Some(registry) = self.prefix_registry.clone().filter(|_| attach) {
            // At least the final prompt token must be forwarded (its logits
            // seed the decode), so at most the preceding full blocks attach.
            let bs = self.cache.block_size();
            let cap = (prompt.len() - 1) / bs * bs;
            if cap > 0 {
                match registry.attach(self.prefix_context, &prompt[..cap], &mut self.cache) {
                    Ok(Some(prefix)) => {
                        self.policy = prefix.policy;
                        self.sequence.extend_from_slice(&prompt[..prefix.tokens]);
                        self.peak_cache_bytes = self.cache.byte_size();
                        attached = prefix.tokens;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        self.reset();
                        return Err(e);
                    }
                }
            }
        }
        self.prefix_tokens_reused = attached;
        self.prefill = Some(PrefillState {
            prompt: prompt.to_vec(),
            config: *config,
            processed: attached,
        });
        if self.prefill_chunk.is_none() {
            self.finish_prefill_inline()?;
        }
        Ok(attached)
    }

    /// Drives an armed prefill to completion through
    /// [`Session::advance_prefill`] — without a prefill chunk, on a standalone
    /// or `AllowTransient` pool, that is one whole-prompt chunk — surfacing an
    /// unresolvable stall as [`CoreError::PoolExhausted`].
    fn finish_prefill_inline(&mut self) -> Result<(), CoreError> {
        while self.is_prefilling() {
            let progress = self.advance_prefill()?;
            if progress.stalled && progress.processed == 0 {
                // Nothing is going to free blocks inside this call: surface
                // the exhaustion instead of spinning.
                let stats = self.cache.pool().stats();
                self.reset();
                return Err(CoreError::PoolExhausted {
                    in_use: stats.in_use,
                    capacity: stats.capacity_blocks.unwrap_or(usize::MAX),
                });
            }
        }
        Ok(())
    }

    fn arm_decode(
        &mut self,
        prompt_len: usize,
        last_prompt_token: Option<u32>,
        config: &GenerationConfig,
        logits: Vec<f32>,
    ) {
        // +1: the final prompt token joins the penalised set alongside up to
        // `max_new_tokens` generated tokens. Reserving exactly keeps the
        // decode loop's pushes allocation-free.
        let mut penalised = Vec::with_capacity(config.max_new_tokens + 1);
        penalised.extend(last_prompt_token);
        self.decode = Some(DecodeState {
            config: *config,
            rng: StdRng::seed_from_u64(config.seed),
            logits,
            generated: Vec::with_capacity(config.max_new_tokens),
            penalised,
            prompt_len,
            step: 0,
            finished: config.max_new_tokens == 0,
        });
    }

    /// Forwards the next chunk of an armed prompt (at most
    /// [`Session::prefill_chunk`] tokens). When the final prompt token has been
    /// forwarded, the end-of-prompt eviction runs — freeing its blocks back to
    /// the pool at that instant — and the decode is armed, exactly as one-shot
    /// [`Session::begin`] would have done; the generated tokens are therefore
    /// identical whatever the chunking.
    ///
    /// Against a bounded *strict* block pool the call stops early (with
    /// [`PrefillProgress::stalled`]) instead of failing when the pool cannot
    /// cover the next token; the prefill stays resumable and should be retried
    /// once another sequence frees blocks.
    ///
    /// Admission is one exact [`KvCache::blocks_needed_for_next_n_tokens`]
    /// query against the pool's transient headroom per chunk, not a pool
    /// round-trip per token: the call forwards the largest prefix of its
    /// chunk whose block need fits, through `forward_chunk_ws` in one pass
    /// per decoder layer. The need is monotone in `n` and the pool state is
    /// constant between registrations, so the prefix stalls on exactly the
    /// token a chunk of 1 stalls on. The one event that changes pool state
    /// *inside* a chunk is a successful prefix registration on a bounded
    /// strict pool (it reserves pins); registrations only fire at block
    /// boundaries, so in that configuration the chunk is split at block
    /// boundaries and the headroom re-read per segment.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if no prefill is in progress, and
    /// propagates forward and eviction errors — after which the session holds
    /// neither a prefill nor a decode, so a scheduler can retire it safely.
    pub fn advance_prefill(&mut self) -> Result<PrefillProgress, CoreError> {
        let Some(mut p) = self.prefill.take() else {
            return Err(CoreError::InvalidConfig(
                "no prefill in progress; call begin() with a prefill chunk first".into(),
            ));
        };
        let chunk = self.prefill_chunk.unwrap_or(usize::MAX).max(1);
        let mut processed_now = 0;
        let mut logits = Vec::new();
        let mut stalled = false;
        let bs = self.cache.block_size().max(1);
        let segment_at_blocks = self.prefix_registry.is_some()
            && self.cache.pool().overcommit() == OvercommitPolicy::Strict
            && self.cache.pool().capacity_blocks().is_some();
        while p.processed < p.prompt.len() && processed_now < chunk && !stalled {
            let mut want = (p.prompt.len() - p.processed).min(chunk - processed_now);
            if segment_at_blocks {
                want = want.min(bs - p.processed % bs);
            }
            let headroom = self
                .cache
                .pool()
                .max_transient_blocks(self.cache.total_blocks(), self.block_reservation);
            let n = if self.cache.blocks_needed_for_next_n_tokens(want) <= headroom {
                want
            } else {
                // Largest prefix whose cumulative block need still fits; the
                // need is monotone and needed(0) == 0, so the search is total.
                stalled = true;
                let (mut lo, mut hi) = (0usize, want - 1);
                while lo < hi {
                    let mid = (lo + hi).div_ceil(2);
                    if self.cache.blocks_needed_for_next_n_tokens(mid) <= headroom {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                lo
            };
            if n == 0 {
                break;
            }
            let start = p.processed;
            self.forward_chunk(
                &p.prompt[start..start + n],
                start,
                Phase::Prompt,
                start,
                p.config.max_new_tokens,
                start + n == p.prompt.len(),
                &mut logits,
            )?;
            p.processed += n;
            processed_now += n;
        }
        if p.processed < p.prompt.len() {
            let remaining = p.prompt.len() - p.processed;
            self.prefill = Some(p);
            return Ok(PrefillProgress {
                processed: processed_now,
                remaining,
                ready: false,
                stalled,
            });
        }
        // The end-of-prompt eviction may have to CoW-fork blocks this session
        // shares (an attached prefix compacted in place), and each fork
        // allocates while the shared original stays pinned. Pre-flight the
        // worst case so a dry strict pool pauses here — resumable, like any
        // other stall — instead of failing the request mid-eviction.
        let may_fork = self.cache.shared_block_count();
        if may_fork > 0
            && self.budget.is_some()
            && !self.cache.pool().can_allocate_transient(
                may_fork,
                self.cache.total_blocks(),
                self.block_reservation,
            )
        {
            self.prefill = Some(p);
            return Ok(PrefillProgress {
                processed: processed_now,
                remaining: 0,
                ready: false,
                stalled: true,
            });
        }
        // The paper reduces the cache once, at the end of the prompt phase.
        self.evict_to_budget()?;
        self.arm_decode(p.prompt.len(), p.prompt.last().copied(), &p.config, logits);
        Ok(PrefillProgress {
            processed: processed_now,
            remaining: 0,
            ready: true,
            stalled: false,
        })
    }

    /// `true` while an armed chunked prefill still has prompt tokens to forward.
    pub fn is_prefilling(&self) -> bool {
        self.prefill.is_some()
    }

    /// Prompt tokens an in-flight chunked prefill still has to forward.
    pub fn prefill_remaining(&self) -> usize {
        self.prefill
            .as_ref()
            .map_or(0, |p| p.prompt.len() - p.processed)
    }

    /// `true` while a decode armed by [`Session::begin`] still has steps to run.
    pub fn is_decoding(&self) -> bool {
        self.decode.as_ref().is_some_and(|d| !d.finished)
    }

    /// `true` once an armed decode has produced its final token (and its output has
    /// not yet been taken).
    pub fn is_finished(&self) -> bool {
        self.decode.as_ref().is_some_and(|d| d.finished)
    }

    /// Tokens generated so far by the current decode.
    pub fn generated(&self) -> &[u32] {
        self.decode.as_ref().map_or(&[], |d| d.generated.as_slice())
    }

    #[cfg(test)]
    pub(crate) fn penalised_tokens(&self) -> &[u32] {
        self.decode.as_ref().map_or(&[], |d| d.penalised.as_slice())
    }

    /// Runs exactly one decode step: applies the repetition penalty, samples the
    /// next token, and (unless the decode just finished) runs the forward pass and
    /// eviction that prepare the following step.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if no decode is active (no
    /// [`Session::begin`], or the decode already finished), and propagates forward
    /// or eviction errors — after which the decode is left finished, so a scheduler
    /// can retire the session without risking a panic.
    pub fn step(&mut self) -> Result<SessionStep, CoreError> {
        let Some(mut d) = self.decode.take() else {
            return Err(CoreError::InvalidConfig(
                "no active decode; call begin() first".into(),
            ));
        };
        if d.finished {
            self.decode = Some(d);
            return Err(CoreError::InvalidConfig(
                "decode already finished; take_output() and begin() again".into(),
            ));
        }
        if d.config.repetition_penalty > 0.0 {
            for &tok in &d.penalised {
                if let Some(l) = d.logits.get_mut(tok as usize) {
                    *l -= d.config.repetition_penalty;
                }
            }
        }
        let next = pick_token(&d.logits, &d.config, &mut d.rng);
        d.generated.push(next);
        if !d.penalised.contains(&next) {
            d.penalised.push(next);
        }
        let step = d.step;
        d.step += 1;
        if Some(next) == d.config.eos_token || d.step == d.config.max_new_tokens {
            d.finished = true;
            self.decode = Some(d);
            return Ok(SessionStep {
                token: next,
                index: step,
                finished: true,
            });
        }
        let position = d.prompt_len + step;
        let forwarded = self
            .forward_chunk(
                &[next],
                position,
                Phase::Generation,
                step,
                d.config.max_new_tokens,
                true,
                &mut d.logits,
            )
            .and_then(|()| self.evict_to_budget());
        match forwarded {
            Ok(()) => {
                self.decode = Some(d);
                Ok(SessionStep {
                    token: next,
                    index: step,
                    finished: false,
                })
            }
            Err(e) => {
                d.finished = true;
                self.decode = Some(d);
                Err(e)
            }
        }
    }

    /// Consumes the current decode (finished or not) into a [`GenerationOutput`].
    /// Returns `None` if no decode was armed.
    pub fn take_output(&mut self) -> Option<GenerationOutput> {
        let d = self.decode.take()?;
        Some(GenerationOutput {
            generated: d.generated,
            prompt_len: d.prompt_len,
            final_cache_slots: self.cache_slots(),
            final_cache_bytes: self.cache_bytes(),
            peak_cache_bytes: self.peak_cache_bytes,
        })
    }

    /// Runs the full two-phase inference — prefill plus autoregressive decode — by
    /// driving the stepwise API to completion.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on an empty or out-of-vocabulary
    /// prompt, and propagates forward or eviction errors.
    pub fn generate(
        &mut self,
        prompt: &[u32],
        config: &GenerationConfig,
    ) -> Result<GenerationOutput, CoreError> {
        self.begin(prompt, config)?;
        // Nothing else shares this pool in a standalone generate, so a stall
        // can never resolve: finish_prefill_inline surfaces it as an error
        // instead of spinning.
        self.finish_prefill_inline()?;
        while self.is_decoding() {
            self.step()?;
        }
        Ok(self
            .take_output()
            .expect("begin() armed a decode, so an output exists"))
    }

    /// Scores a continuation under the model: returns the total and per-token mean
    /// log-likelihood of `continuation` given `prompt`, processing the prompt with
    /// the session's cache policy. Used by the few-shot evaluation (Table 2).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if prompt or continuation is empty
    /// or contains out-of-vocabulary tokens, and propagates forward or
    /// eviction errors.
    pub fn score_continuation(
        &mut self,
        prompt: &[u32],
        continuation: &[u32],
    ) -> Result<ContinuationScore, CoreError> {
        self.validate_tokens("continuation", continuation)?;
        self.begin(prompt, &GenerationConfig::new(continuation.len()))?;
        self.finish_prefill_inline()?;
        let mut logits = self
            .decode
            .take()
            .expect("a completed prefill arms the decode")
            .logits;
        let mut total_log_prob = 0.0f64;
        for (step, &tok) in continuation.iter().enumerate() {
            let log_probs = log_softmax(&logits);
            total_log_prob += f64::from(log_probs[tok as usize]);
            if step + 1 == continuation.len() {
                break;
            }
            let position = prompt.len() + step;
            self.forward_chunk(
                &[tok],
                position,
                Phase::Generation,
                step,
                continuation.len(),
                true,
                &mut logits,
            )?;
            self.evict_to_budget()?;
        }
        Ok(ContinuationScore {
            total_log_prob,
            tokens: continuation.len(),
        })
    }
}

fn pick_token(logits: &[f32], config: &GenerationConfig, rng: &mut StdRng) -> u32 {
    match config.sampling {
        SamplingStrategy::Greedy => argmax(logits).unwrap_or(0) as u32,
        SamplingStrategy::TopK { k, temperature } => {
            let candidates = top_k_indices(logits, k.max(1));
            let candidate_logits: Vec<f32> = candidates.iter().map(|&i| logits[i]).collect();
            let probs = softmax_with_temperature(&candidate_logits, temperature.max(1e-3));
            let draw: f32 = rng.gen_range(0.0..1.0);
            let mut acc = 0.0;
            for (i, &p) in probs.iter().enumerate() {
                acc += p;
                if draw <= acc {
                    return candidates[i] as u32;
                }
            }
            *candidates.last().unwrap_or(&0) as u32
        }
    }
}

/// Log-likelihood of a continuation, as returned by
/// [`Session::score_continuation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContinuationScore {
    /// Sum of per-token log-probabilities (natural log).
    pub total_log_prob: f64,
    /// Number of continuation tokens scored.
    pub tokens: usize,
}

impl ContinuationScore {
    /// Length-normalised log-likelihood (mean per token).
    pub fn per_token(&self) -> f64 {
        if self.tokens == 0 {
            0.0
        } else {
            self.total_log_prob / self.tokens as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::ModelFamily;
    use crate::positional::PositionalEncoding;
    use keyformer_core::accumulator::ScoreScope;
    use keyformer_core::observation::{AttentionObservation, ObservationRows};
    use keyformer_core::policies::scored::{KeyformerConfig, ScoredPolicy};
    use keyformer_core::spec::PolicySpec;
    use std::sync::{Arc, Mutex};

    fn prompt(len: usize) -> Vec<u32> {
        (0..len).map(|i| ((i * 13 + 5) % 120) as u32).collect()
    }

    #[test]
    fn stepwise_decode_matches_one_shot_generate() {
        let model = ModelFamily::Tiny.build(6);
        let spec = CacheBudgetSpec::new(0.5, 0.3).unwrap();
        let config = GenerationConfig::new(7);
        let one_shot = Session::new(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(spec),
        )
        .generate(&prompt(28), &config)
        .unwrap();
        let mut stepwise = Session::new(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(spec),
        );
        stepwise.begin(&prompt(28), &config).unwrap();
        let mut tokens = Vec::new();
        while stepwise.is_decoding() {
            let produced = stepwise.step().unwrap();
            assert_eq!(produced.index, tokens.len(), "step indices count up from 0");
            tokens.push(produced.token);
        }
        let out = stepwise.take_output().unwrap();
        assert_eq!(out.generated, tokens);
        assert_eq!(out, one_shot);
    }

    #[test]
    fn step_without_begin_is_an_error() {
        let model = ModelFamily::Tiny.build(1);
        let mut session = Session::new(&model, PolicySpec::Full.build().unwrap(), None);
        assert!(session.step().is_err());
        assert!(session.take_output().is_none());
    }

    #[test]
    fn step_after_finish_is_an_error_but_output_survives() {
        let model = ModelFamily::Tiny.build(1);
        let mut session = Session::new(&model, PolicySpec::Full.build().unwrap(), None);
        session
            .begin(&prompt(10), &GenerationConfig::new(2))
            .unwrap();
        session.step().unwrap();
        let last = session.step().unwrap();
        assert!(last.finished);
        assert!(session.is_finished());
        assert!(session.step().is_err());
        assert_eq!(session.take_output().unwrap().generated.len(), 2);
    }

    #[test]
    fn zero_token_decode_finishes_immediately() {
        let model = ModelFamily::Tiny.build(1);
        let mut session = Session::new(&model, PolicySpec::Full.build().unwrap(), None);
        session
            .begin(&prompt(6), &GenerationConfig::new(0))
            .unwrap();
        assert!(!session.is_decoding());
        assert!(session.is_finished());
        assert!(session.take_output().unwrap().generated.is_empty());
    }

    #[test]
    fn out_of_vocabulary_prompt_is_rejected_not_panicked() {
        let model = ModelFamily::Tiny.build(1);
        let vocab = model.config().vocab_size as u32;
        let mut session = Session::new(&model, PolicySpec::Full.build().unwrap(), None);
        assert!(session
            .begin(&[3, vocab + 7], &GenerationConfig::new(2))
            .is_err());
        assert!(session
            .generate(&[vocab], &GenerationConfig::new(1))
            .is_err());
    }

    #[test]
    fn penalised_tokens_stay_deduplicated() {
        let model = ModelFamily::Tiny.build(2);
        let mut session = Session::new(&model, PolicySpec::Full.build().unwrap(), None);
        // With the penalty disabled the untrained substrate's tied readout happily
        // repeats tokens, so the bookkeeping sees duplicates.
        session
            .begin(
                &prompt(12),
                &GenerationConfig::new(12).with_repetition_penalty(0.0),
            )
            .unwrap();
        while session.is_decoding() {
            session.step().unwrap();
        }
        let mut seen = session.penalised_tokens().to_vec();
        let generated = session.generated().to_vec();
        let distinct = |mut v: Vec<u32>| {
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(
            distinct(generated.clone()) < generated.len(),
            "expected repeats under zero penalty, got {generated:?}"
        );
        let len = seen.len();
        assert_eq!(distinct(std::mem::take(&mut seen)), len);
    }

    #[test]
    fn failed_begin_discards_the_previous_request() {
        let model = ModelFamily::Tiny.build(4);
        let mut session = Session::new(&model, PolicySpec::Full.build().unwrap(), None);
        session
            .begin(&prompt(8), &GenerationConfig::new(2))
            .unwrap();
        while session.is_decoding() {
            session.step().unwrap();
        }
        // A rejected follow-up request must not leave the finished decode
        // harvestable as if it belonged to the new request.
        assert!(session.begin(&[], &GenerationConfig::new(2)).is_err());
        assert!(!session.is_finished());
        assert!(session.take_output().is_none());
        let vocab = model.config().vocab_size as u32;
        session
            .begin(&prompt(8), &GenerationConfig::new(1))
            .unwrap();
        assert!(session
            .begin(&[vocab + 1], &GenerationConfig::new(2))
            .is_err());
        assert!(session.take_output().is_none());
        assert!(session.sequence().is_empty());
    }

    #[test]
    fn chunked_prefill_is_token_identical_to_one_shot() {
        let model = ModelFamily::Tiny.build(8);
        let spec = CacheBudgetSpec::new(0.5, 0.3).unwrap();
        let config = GenerationConfig::new(6);
        let one_shot = Session::new(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(spec),
        )
        .generate(&prompt(25), &config)
        .unwrap();
        for chunk in [1usize, 4, 7, 25, 100] {
            let mut chunked = Session::new(
                &model,
                PolicySpec::keyformer_default().build().unwrap(),
                Some(spec),
            )
            .with_prefill_chunk(chunk);
            chunked.begin(&prompt(25), &config).unwrap();
            assert!(chunked.is_prefilling());
            assert!(!chunked.is_decoding());
            let mut calls = 0;
            while chunked.is_prefilling() {
                let progress = chunked.advance_prefill().unwrap();
                assert!(progress.processed > 0);
                assert!(progress.processed <= chunk);
                calls += 1;
            }
            assert_eq!(calls, 25usize.div_ceil(chunk));
            while chunked.is_decoding() {
                chunked.step().unwrap();
            }
            assert_eq!(
                chunked.take_output().unwrap(),
                one_shot,
                "chunk size {chunk} diverged from one-shot prefill"
            );
        }
    }

    #[test]
    fn advance_prefill_without_begin_is_an_error() {
        let model = ModelFamily::Tiny.build(1);
        let mut session =
            Session::new(&model, PolicySpec::Full.build().unwrap(), None).with_prefill_chunk(4);
        assert!(session.advance_prefill().is_err());
        // Stepping before the prefill finished is also an error.
        session
            .begin(&prompt(9), &GenerationConfig::new(2))
            .unwrap();
        assert!(session.step().is_err());
        assert_eq!(session.prefill_remaining(), 9);
    }

    #[test]
    fn aborting_mid_prefill_returns_every_block_to_the_pool() {
        use keyformer_core::block::SharedBlockPool;
        let model = ModelFamily::Tiny.build(2);
        let pool = SharedBlockPool::unbounded(4);
        let mut session = Session::with_pool(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
            pool.clone(),
        )
        .with_prefill_chunk(5);
        session
            .begin(&prompt(20), &GenerationConfig::new(4))
            .unwrap();
        session.advance_prefill().unwrap();
        assert!(pool.blocks_in_use() > 0);
        session.reset();
        assert_eq!(pool.blocks_in_use(), 0, "aborted prefill leaked blocks");
        assert!(!session.is_prefilling());
        // The session remains fully usable against the same pool.
        let out = session
            .generate(&prompt(20), &GenerationConfig::new(4))
            .unwrap();
        assert_eq!(out.generated.len(), 4);
    }

    #[test]
    fn strict_pool_stalls_prefill_and_resumes_when_blocks_free_up() {
        use keyformer_core::block::{OvercommitPolicy, SharedBlockPool};
        let model = ModelFamily::Tiny.build(3);
        // 2 layers x 4-slot blocks, 8 blocks total. A neighbour sequence holds
        // 4 of them, so a 14-token prompt (needing all 8) must pause halfway.
        let pool = SharedBlockPool::bounded(4, 8, OvercommitPolicy::Strict).unwrap();
        let mut blocker = Session::with_pool(
            &model,
            PolicySpec::Full.build().unwrap(),
            None,
            pool.clone(),
        );
        blocker
            .generate(&prompt(6), &GenerationConfig::new(1))
            .unwrap();
        assert_eq!(pool.blocks_in_use(), 4);

        let mut session = Session::with_pool(
            &model,
            PolicySpec::Full.build().unwrap(),
            None,
            pool.clone(),
        )
        .with_prefill_chunk(14);
        session
            .begin(&prompt(14), &GenerationConfig::new(2))
            .unwrap();
        let progress = session.advance_prefill().unwrap();
        assert!(progress.stalled);
        assert_eq!(progress.processed, 8, "filled the 2 free blocks per layer");
        assert!(session.is_prefilling());
        // Retrying without help makes no progress but stays resumable.
        let retry = session.advance_prefill().unwrap();
        assert!(retry.stalled);
        assert_eq!(retry.processed, 0);
        assert_eq!(retry.remaining, 6);
        // The neighbour retires, returning its blocks; the prefill resumes,
        // completes and decodes normally.
        drop(blocker);
        assert_eq!(pool.blocks_in_use(), 4);
        let resumed = session.advance_prefill().unwrap();
        assert!(resumed.ready);
        assert_eq!(resumed.processed, 6);
        while session.is_decoding() {
            session.step().unwrap();
        }
        assert_eq!(session.take_output().unwrap().generated.len(), 2);
    }

    #[test]
    fn begin_with_prefix_attaches_and_matches_cold_start() {
        use keyformer_core::block::SharedBlockPool;
        use keyformer_core::prefix::SharedPrefixRegistry;
        let model = ModelFamily::Tiny.build(5);
        let pool = SharedBlockPool::unbounded(4);
        let registry = SharedPrefixRegistry::new(&pool);
        let spec = CacheBudgetSpec::new(0.5, 0.3).unwrap();
        let config = GenerationConfig::new(5);
        let shared: Vec<u32> = prompt(16);
        let mut tail = prompt(24);
        let suffix: Vec<u32> = tail.split_off(16);
        let full: Vec<u32> = shared.iter().chain(&suffix).copied().collect();

        // Donor runs cold, registering its prompt blocks as it goes.
        let mut donor = Session::with_pool(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(spec),
            pool.clone(),
        )
        .with_prefix_registry(registry.clone(), 1);
        let donor_out = donor.generate(&full, &config).unwrap();
        assert!(
            registry.stats().entries >= 4,
            "donor registered its full blocks"
        );

        // Cold reference without any registry.
        let cold = Session::with_pool(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(spec),
            pool.clone(),
        )
        .generate(&full, &config)
        .unwrap();
        assert_eq!(donor_out, cold, "registration must not perturb the donor");

        // Attacher reuses the cached prefix and still matches bit-for-bit.
        let mut attacher = Session::with_pool(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(spec),
            pool.clone(),
        )
        .with_prefix_registry(registry.clone(), 1);
        let reused = attacher.begin_with_prefix(&full, &config).unwrap();
        assert_eq!(reused, 20, "floor((24-1)/4)*4 = 20 tokens attach");
        assert_eq!(attacher.prefix_tokens_reused(), 20);
        while attacher.is_decoding() {
            attacher.step().unwrap();
        }
        assert_eq!(attacher.take_output().unwrap(), cold);
        // A different context never matches.
        let mut stranger = Session::with_pool(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(spec),
            pool.clone(),
        )
        .with_prefix_registry(registry, 2);
        assert_eq!(stranger.begin_with_prefix(&full, &config).unwrap(), 0);
    }

    #[test]
    fn session_reuse_after_take_output() {
        let model = ModelFamily::Tiny.build(3);
        let mut session = Session::new(
            &model,
            PolicySpec::h2o_default().build().unwrap(),
            Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
        );
        let a = session
            .generate(&prompt(20), &GenerationConfig::new(4))
            .unwrap();
        let b = session
            .generate(&prompt(20), &GenerationConfig::new(4))
            .unwrap();
        assert_eq!(a.generated, b.generated);
    }

    #[test]
    fn full_attention_cache_grows_with_sequence() {
        let model = ModelFamily::Tiny.build(1);
        let mut session = Session::new(&model, PolicySpec::Full.build().unwrap(), None);
        let out = session
            .generate(&prompt(20), &GenerationConfig::new(5))
            .unwrap();
        assert_eq!(out.generated.len(), 5);
        // 20 prompt tokens + 4 generated tokens are cached (the final generated token
        // is never fed back).
        assert!(out.final_cache_slots.iter().all(|&n| n == 24));
    }

    #[test]
    fn budgeted_policy_caps_cache_size() {
        let model = ModelFamily::Tiny.build(1);
        let spec = CacheBudgetSpec::new(0.5, 0.3).unwrap();
        let mut session = Session::new(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(spec),
        );
        let out = session
            .generate(&prompt(40), &GenerationConfig::new(6))
            .unwrap();
        let budget = session.budget().unwrap();
        assert_eq!(budget.capacity(), 20);
        assert!(
            out.final_cache_slots
                .iter()
                .all(|&n| n <= budget.capacity()),
            "cache exceeded budget: {:?}",
            out.final_cache_slots
        );
        assert!(out.final_cache_bytes < out.peak_cache_bytes);
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let model = ModelFamily::Tiny.build(2);
        let run = || {
            Session::new(
                &model,
                PolicySpec::keyformer_default().build().unwrap(),
                Some(CacheBudgetSpec::new(0.6, 0.3).unwrap()),
            )
            .generate(&prompt(30), &GenerationConfig::new(8))
            .unwrap()
            .generated
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn eos_stops_generation_early() {
        let model = ModelFamily::Tiny.build(3);
        let mut session = Session::new(&model, PolicySpec::Full.build().unwrap(), None);
        // Force EOS to whatever greedy picks first, so generation stops after 1 token.
        let first = session
            .generate(&prompt(10), &GenerationConfig::new(1))
            .unwrap()
            .generated[0];
        session.reset();
        let out = session
            .generate(&prompt(10), &GenerationConfig::new(10).with_eos(first))
            .unwrap();
        assert_eq!(out.generated.len(), 1);
    }

    #[test]
    fn top_k_sampling_is_seed_deterministic_and_varies_with_seed() {
        let model = ModelFamily::Tiny.build(4);
        let gen = |seed: u64| {
            Session::new(&model, PolicySpec::Full.build().unwrap(), None)
                .generate(
                    &prompt(16),
                    &GenerationConfig::new(12).with_top_k(20, 10.0, seed),
                )
                .unwrap()
                .generated
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }

    #[test]
    fn empty_prompt_is_rejected() {
        let model = ModelFamily::Tiny.build(1);
        let mut session = Session::new(&model, PolicySpec::Full.build().unwrap(), None);
        assert!(session.begin(&[], &GenerationConfig::new(4)).is_err());
        assert!(session.score_continuation(&[], &[1]).is_err());
        assert!(session.score_continuation(&prompt(4), &[]).is_err());
    }

    #[test]
    fn try_generate_surfaces_errors_instead_of_panicking() {
        let model = ModelFamily::Tiny.build(1);
        let mut session = Session::new(&model, PolicySpec::Full.build().unwrap(), None);
        assert!(session.generate(&[], &GenerationConfig::new(4)).is_err());
        let vocab = session.config().vocab_size as u32;
        assert!(session
            .generate(&[1, vocab + 3], &GenerationConfig::new(4))
            .is_err());
        // Out-of-vocabulary tokens in either half of a scored pair are
        // rejected too, not indexed.
        assert!(session.score_continuation(&[1, vocab + 3], &[2]).is_err());
        assert!(session.score_continuation(&prompt(4), &[2, vocab]).is_err());
        // A good request on the same session still works afterwards.
        let out = session
            .generate(&prompt(8), &GenerationConfig::new(3))
            .unwrap();
        assert_eq!(out.generated.len(), 3);
        assert_eq!(
            session.score_continuation(&prompt(8), &[2]).unwrap().tokens,
            1
        );
    }

    #[test]
    fn score_continuation_prefers_induction_consistent_text() {
        let model = ModelFamily::Tiny.build(7);
        let mut session = Session::new(&model, PolicySpec::Full.build().unwrap(), None);
        // Prompt contains the bigram (40, 41) twice; a continuation that repeats it
        // should outscore one that pairs 40 with an unrelated token.
        let p = vec![7u32, 40, 41, 9, 3, 40, 41, 12, 40];
        let good = session.score_continuation(&p, &[41, 9]).unwrap();
        session.reset();
        let bad = session.score_continuation(&p, &[77, 78]).unwrap();
        assert!(good.per_token() > bad.per_token());
        assert_eq!(good.tokens, 2);
    }

    #[test]
    fn reset_allows_reuse() {
        let model = ModelFamily::Tiny.build(1);
        let mut session = Session::new(
            &model,
            PolicySpec::h2o_default().build().unwrap(),
            Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
        );
        let a = session
            .generate(&prompt(24), &GenerationConfig::new(4))
            .unwrap()
            .generated;
        let b = session
            .generate(&prompt(24), &GenerationConfig::new(4))
            .unwrap()
            .generated;
        assert_eq!(a, b, "session state must not leak across requests");
    }

    /// One observation a policy was fed: `(layer, head, phase, step,
    /// total_steps, logit bits)`.
    type Observed = (usize, usize, Phase, usize, usize, Vec<u32>);

    /// One layer's eviction decision: `(layer, retained slots)`.
    type Kept = (usize, Vec<usize>);

    /// A scored policy (Keyformer by default) that also logs, by bits, every
    /// observation it is fed, the worker count of every `observe_rows` run,
    /// and the accumulated scores behind and the slots kept by each layer's
    /// eviction decision. Runs go on to the inner policy's `observe_rows`, so
    /// the pins below test the parallel replay the product runs.
    #[derive(Clone, Default)]
    struct Tap {
        inner: ScoredPolicy,
        observations: Arc<Mutex<Vec<Observed>>>,
        replay_workers: Arc<Mutex<Vec<usize>>>,
        scores: Arc<Mutex<Vec<Vec<u32>>>>,
        selections: Arc<Mutex<Vec<Kept>>>,
    }

    impl Tap {
        fn log(&self, obs: &AttentionObservation<'_>) {
            self.observations.lock().unwrap().push((
                obs.layer,
                obs.head,
                obs.phase,
                obs.step,
                obs.total_steps,
                obs.logits.iter().map(|l| l.to_bits()).collect(),
            ));
        }
    }

    impl KvCachePolicy for Tap {
        fn name(&self) -> &'static str {
            "tap"
        }
        fn observe(&mut self, obs: &AttentionObservation<'_>) {
            self.log(obs);
            self.inner.observe(obs);
        }
        fn observe_rows(&mut self, rows: &ObservationRows<'_>, workers: usize) {
            rows.iter().for_each(|obs| self.log(&obs));
            self.replay_workers.lock().unwrap().push(workers);
            self.inner.observe_rows(rows, workers);
        }
        fn select_retained_into(
            &mut self,
            layer: usize,
            live: usize,
            budget: &CacheBudget,
            out: &mut Vec<usize>,
        ) {
            let scores = self.inner.scores(layer, live);
            self.scores
                .lock()
                .unwrap()
                .push(scores.iter().map(|s| s.to_bits()).collect());
            self.inner.select_retained_into(layer, live, budget, out);
            self.selections.lock().unwrap().push((layer, out.clone()));
        }
        fn compact(&mut self, layer: usize, retained: &[usize]) {
            self.inner.compact(layer, retained);
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
        fn clone_box(&self) -> Box<dyn KvCachePolicy> {
            Box::new(self.clone())
        }
    }

    /// A Shared-scope Keyformer keeps one score bucket for every layer and
    /// compacts it once per eviction round: in every round, at the prompt-end
    /// cut and at each decode step at budget, all layers read the same
    /// uncompacted scores, so they keep the same slots, and every live slot
    /// (each one observed before the eviction) has a nonzero score rather than
    /// a zero pad.
    #[test]
    fn shared_scope_layers_select_from_the_same_uncompacted_scores() {
        let model = ModelFamily::Tiny.build(1);
        let layers = model.config().num_layers;
        assert!(layers > 1);
        let tap = Tap {
            inner: ScoredPolicy::keyformer(
                KeyformerConfig::default().with_scope(ScoreScope::Shared),
            ),
            ..Tap::default()
        };
        let (scores, selections) = (Arc::clone(&tap.scores), Arc::clone(&tap.selections));
        let budget = CacheBudgetSpec::new(0.5, 0.3).unwrap();
        Session::new(&model, Box::new(tap), Some(budget))
            .generate(&prompt(40), &GenerationConfig::new(8))
            .unwrap();
        let (scores, selections) = (scores.lock().unwrap(), selections.lock().unwrap());
        // The prompt-end cut, then one round per decode forward: 7 of the 8
        // generated tokens are fed back.
        assert_eq!(selections.len(), 8 * layers);
        for (round, (kept, scores)) in selections
            .chunks(layers)
            .zip(scores.chunks(layers))
            .enumerate()
        {
            for (layer, ((l, retained), layer_scores)) in kept.iter().zip(scores).enumerate() {
                assert_eq!(*l, layer, "round {round}");
                assert_eq!(retained, &kept[0].1, "round {round}, layer {layer}");
                assert!(
                    layer_scores.iter().all(|&s| f32::from_bits(s) > 0.0),
                    "round {round}, layer {layer} read a zero-padded score"
                );
            }
        }
    }

    /// Prefill on one worker and on two or three gives the same tokens, the
    /// same peak cache bytes and the same policy scores at every eviction, on
    /// both KV dtypes. Tiny in chunks of 37 splits rows unevenly (the
    /// 17-token tail runs on two workers) but stays below the replay
    /// threshold; GPT-J-like in chunks of 128 also replays its observations
    /// on more than one worker.
    #[test]
    fn prefill_worker_count_changes_no_bit() {
        let spec = CacheBudgetSpec::new(0.5, 0.3).unwrap();
        let config = GenerationConfig::new(12);
        for (family, prompt_len, chunk, replay_splits) in [
            (ModelFamily::Tiny, 128, 37, false),
            (ModelFamily::GptJLike, 256, 128, true),
        ] {
            let model = family.build(9);
            let run = |dtype: KvDtype, workers: usize| {
                let tap = Tap::default();
                let (log, replay_workers) =
                    (Arc::clone(&tap.scores), Arc::clone(&tap.replay_workers));
                let mut session = Session::with_dtype(&model, Box::new(tap), Some(spec), dtype)
                    .with_prefill_chunk(chunk);
                session.prefill_workers = workers;
                session.begin(&prompt(prompt_len), &config).unwrap();
                while session.is_prefilling() {
                    session.advance_prefill().unwrap();
                }
                while session.is_decoding() {
                    session.step().unwrap();
                }
                let peak = session.peak_cache_bytes();
                let output = session.take_output().unwrap();
                let scores = std::mem::take(&mut *log.lock().unwrap());
                let most = replay_workers.lock().unwrap().iter().copied().max();
                ((output, peak, scores), most.unwrap())
            };
            for dtype in [KvDtype::F32, KvDtype::U8] {
                let (one, most) = run(dtype, 1);
                assert!(!one.2.is_empty(), "the budget forces evictions");
                assert_eq!(most, 1);
                for workers in [2, 3] {
                    let (many, most) = run(dtype, workers);
                    assert_eq!(many, one, "{family:?} / {dtype:?} at {workers} workers");
                    assert_eq!(most > 1, replay_splits, "{family:?} at {workers} workers");
                }
            }
        }
    }

    /// Prefix snapshots registered by a donor that replays on one worker and
    /// on two hold the same policy state: a second session attaching to them
    /// decodes the same tokens, which are the cold start's.
    #[test]
    fn prefix_snapshots_are_the_same_at_every_replay_worker_count() {
        use keyformer_core::prefix::SharedPrefixRegistry;
        let model = ModelFamily::GptJLike.build(4);
        let spec = CacheBudgetSpec::new(0.5, 0.3).unwrap();
        let config = GenerationConfig::new(8);
        let full = prompt(200);
        let cold = Session::new(&model, Box::new(Tap::default()), Some(spec))
            .generate(&full, &config)
            .unwrap();
        for workers in [1, 2] {
            let pool = SharedBlockPool::unbounded(32);
            let registry = SharedPrefixRegistry::new(&pool);
            let donor_tap = Tap::default();
            let replay_workers = Arc::clone(&donor_tap.replay_workers);
            let mut donor =
                Session::with_pool(&model, Box::new(donor_tap), Some(spec), pool.clone())
                    .with_prefix_registry(registry.clone(), 1)
                    .with_prefill_chunk(128);
            donor.prefill_workers = workers;
            donor.begin(&full[..192], &config).unwrap();
            while donor.is_prefilling() {
                donor.advance_prefill().unwrap();
            }
            let most = replay_workers.lock().unwrap().iter().copied().max();
            assert_eq!(most, Some(workers), "the donor's runs replay on {workers}");

            let mut attacher =
                Session::with_pool(&model, Box::new(Tap::default()), Some(spec), pool.clone())
                    .with_prefix_registry(registry, 1);
            attacher.prefill_workers = 1;
            assert_eq!(attacher.begin_with_prefix(&full, &config).unwrap(), 192);
            while attacher.is_decoding() {
                attacher.step().unwrap();
            }
            assert_eq!(attacher.take_output().unwrap(), cold, "{workers} workers");
        }
    }

    /// The policy sees the reference forward's token-at-a-time observation
    /// stream — every `(layer, head, phase, step, total_steps, logits)` by
    /// bits — through a prefill, 8 decode steps at budget and a scored
    /// continuation, on RoPE, ALiBi and learned positions at both KV dtypes:
    /// a decode step's one-row chunk replays what the direct observation
    /// delivered, before the step's eviction.
    #[test]
    fn decode_observation_stream_matches_legacy() {
        let spec = CacheBudgetSpec::new(0.5, 0.3).unwrap();
        let (new_tokens, continuation) = (8, 6);
        for positional in [
            PositionalEncoding::Rope,
            PositionalEncoding::Alibi,
            PositionalEncoding::Learned,
        ] {
            let model = TransformerModel::new(ModelConfig {
                positional,
                ..ModelFamily::Tiny.config(12)
            })
            .unwrap();
            let heads = model.config().num_layers * model.config().num_heads;
            for dtype in [KvDtype::F32, KvDtype::U8] {
                let run = |reference: bool| {
                    let tap = Tap::default();
                    let observations = Arc::clone(&tap.observations);
                    let replays = Arc::clone(&tap.replay_workers);
                    let mut session = Session::with_dtype(&model, Box::new(tap), Some(spec), dtype);
                    session.reference_forward = reference;
                    let output = session
                        .generate(&prompt(40), &GenerationConfig::new(new_tokens))
                        .unwrap();
                    let text = prompt(30 + continuation);
                    let score = session
                        .score_continuation(&text[..30], &text[30..])
                        .unwrap();
                    // The reference delivers every row through `observe`,
                    // the product forward through replayed `observe_rows`.
                    assert_eq!(replays.lock().unwrap().is_empty(), reference);
                    let observed = std::mem::take(&mut *observations.lock().unwrap());
                    (output, score.total_log_prob.to_bits(), observed)
                };
                let reference = run(true);
                let decoded = reference.2.iter().filter(|o| o.2 == Phase::Generation);
                assert_eq!(
                    decoded.count(),
                    (new_tokens - 1 + continuation - 1) * heads,
                    "every fed-back token is observed in the generation phase"
                );
                assert_eq!(run(false), reference, "{positional} / {dtype:?}");
            }
        }
    }

    /// Compile-time thread-safety audit for the parallel serving layer: a
    /// `Session` must be safely movable to a worker thread for the duration
    /// of one decode step (`&mut Session: Send` requires `Session: Send`),
    /// which in turn requires the shared model reference to be `Sync` —
    /// forward passes are pure reads of the weights.
    #[test]
    fn sessions_move_across_decode_workers() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Session<'static>>();
        assert_sync::<TransformerModel>();
    }
}
