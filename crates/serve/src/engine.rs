//! The event-driven streaming engine: the continuous-batching scheduler over a
//! paged KV block pool, with per-token events, cancellation, deadlines and
//! priority-aware admission.
//!
//! [`Engine`] owns an admission queue, a shared [`SharedBlockPool`] sized from
//! [`ServerConfig::pool_bytes`], and a set of running [`Session`]s that all
//! decode against one shared [`TransformerModel`] and all allocate their KV
//! blocks from that one pool. Scheduling is iteration-level (Orca-style):
//! every call to [`Engine::step`] is one *batched decode iteration* —
//!
//! 1. **Deadline expiry.** Requests (queued or running) whose
//!    [`SubmitOptions::deadline_steps`] budget has elapsed are retired as
//!    [`FailureReason::DeadlineExceeded`], releasing their blocks and
//!    reservations before any work is spent on them.
//! 2. **Prefill continuation.** In-flight chunked prefills advance by one chunk
//!    each, up to [`ServerConfig::prefills_per_step`] chunk executions per
//!    step. A prefill that a strict pool has starved of blocks pauses
//!    (consuming no budget) and resumes once eviction or retirement frees
//!    blocks.
//! 3. **Admission.** The queued request with the highest *effective priority*
//!    ([`SubmitOptions::priority`] plus one level per
//!    [`PRIORITY_AGING_STEPS`] steps spent queued) is considered first,
//!    tie-broken by submission order (FIFO); it is admitted while the pool
//!    can *reserve* its steady-state block count. The chosen
//!    candidate blocks the queue when its reservation does not fit — no
//!    lower-priority request may jump it, which keeps admission deterministic
//!    and, together with aging, starvation-free. A request whose reservation
//!    can never fit is retired as [`FailureReason::TooLargeForPool`].
//! 4. **Decode.** Every running session past its prefill advances by exactly
//!    one token, in priority-then-admission order. Finished sessions are
//!    retired into [`Completion`]s; failing sessions are retired into
//!    [`FailedRequest`]s — the scheduler never panics on a bad request.
//!
//! ## Events and handles
//!
//! [`Engine::submit`] returns a [`RequestHandle`], and every observable state
//! transition emits a typed [`Event`]: `Queued`, `PrefillStarted`,
//! `FirstToken`, `Token`, `Preempted`, `Resumed`, `Completed`, `Failed`,
//! `Cancelled`. Events are buffered in submission order and drained either
//! globally ([`Engine::drain_events`]) or per request
//! ([`Engine::drain_events_for`]) — this is what makes the paper's
//! latency-facing quantities (time-to-first-token, inter-token latency)
//! observable *as they happen* instead of retrospectively from
//! [`Engine::completions`]. The buffer grows until drained; a driver that
//! never drains — submit, [`Engine::run`] to idle, harvest
//! [`Engine::completions`] — should disable recording with
//! [`Engine::record_events`]. Completions and failures likewise stay until
//! [`Engine::drain_retired`] takes them, which a long-lived driver must do.
//!
//! A request preempted mid-decode is recomputed token-identically on
//! re-admission; tokens that were already surfaced before the preemption are
//! *not* re-emitted (the stream stays duplicate-free), so each request's event
//! stream carries exactly one `FirstToken` and exactly one terminal event.
//!
//! ## Cancellation
//!
//! [`Engine::cancel`] retires a request *immediately*, wherever it is:
//! in-queue, mid-prefill, mid-decode or preempted-and-requeued. Its admission
//! reservation is returned, its private blocks go back to the pool and its
//! references on shared prefix blocks are dropped the moment the session is
//! released. Prefix blocks the request *registered* during its prefill stay
//! cached in the [`SharedPrefixRegistry`] — they are valid, reusable state
//! pinned by the registry (trimmed by LRU under pressure or
//! [`SharedPrefixRegistry::clear`]), not a per-request leak; with sharing off,
//! cancellation returns the pool exactly to its pre-submit state.
//!
//! ## Admission reservations
//!
//! The admission *reservation* of a request is its steady-state decode
//! footprint in blocks: with a [`CacheBudgetSpec`], the per-layer capacity
//! derived from the prompt length; without one, the full
//! `prompt + max_new_tokens` slots — each rounded up to whole blocks per
//! layer. Prefill transiently exceeds the steady state for budgeted policies
//! (the cache fills to the whole prompt before the end-of-prompt eviction),
//! exactly as in the paper. Under the default
//! [`OvercommitPolicy::AllowTransient`] discipline that spike is absorbed and
//! *measured* ([`BlockPoolStats::peak_overshoot`]); with
//! [`ServerConfig::with_strict_pool`] it is *enforced* — allocations past the
//! pool hard-stop, chunked prefill pauses, and in-use blocks provably never
//! exceed the pool (see `docs/SERVING.md`).
//!
//! This is what turns Keyformer's reduced KV footprint into throughput: at a
//! fixed pool, a 50% budget reserves roughly half the blocks per sequence, so
//! the same pool runs roughly twice the batch — and blocks freed by an
//! eviction are instantly reusable by any other sequence instead of being
//! stranded in a contiguous per-sequence buffer.
//!
//! ## The decode round (plan → execute → commit)
//!
//! Every step runs one decode round, at every [`ServerConfig::decode_workers`]
//! setting. Forward passes may fan out; every *scheduling decision* stays on
//! the calling thread:
//!
//! 1. **Plan** (serial): decide which running sessions take a decode token
//!    this round — a pure read of scheduler state.
//! 2. **Execute** (parallel, or nothing): with more than one worker and more
//!    than one planned session, run [`Session::step`] for every planned
//!    session ahead of the commit, in contiguous shares over up to
//!    `decode_workers` threads (the first share on the calling thread).
//!    Sessions are mutually independent here: each owns its policy, RNG and
//!    private KV blocks, and the shared block pool is a mutex-guarded
//!    allocator whose *counts* do not depend on allocation order.
//! 3. **Commit** (serial): walk every running entry in order — step a planned
//!    session the execute phase left alone, surface its token, retire
//!    completions (including requests that finished at arm time, with
//!    `max_new_tokens = 0`) and failures, return reservations — so the event
//!    stream, completions and stats are byte-identical at every worker count.
//!    At one worker each session steps, surfaces and retires before the next
//!    one steps.
//!
//! Copy-on-write forks are safe under this fan-out with no sequential
//! fallback: a writer's fork decision is a single atomic
//! [`SharedBlockPool::fork_block`] probe under the pool lock
//! (probe-allocate-release in one acquisition), so racing writers to the same
//! shared block each fork exactly once, allocation *counts* and the free-list
//! evolution match a one-worker round, and a forker still copying a
//! payload is waited out by the other side rather than raced. Budgeted
//! sessions that still map shared prefix blocks therefore decode in parallel
//! too. The only quantities that may legitimately differ from a one-worker
//! round are the pool's transient high-water marks (`peak_in_use`,
//! `peak_reserved`, `peak_shared_blocks`): parallel execution genuinely holds
//! more blocks at once mid-round. Everything observable at end-of-step —
//! tokens, events, completions, live pool state, allocation totals — is
//! identical, which `tests/parallel_decode_properties.rs` proves across the
//! policy zoo, shared-prefix CoW included.

use crate::request::{Completion, FailedRequest, FailureReason, Request, RequestId, SubmitOptions};
use keyformer_core::block::{
    blocks_for_slots, BlockId, BlockPoolStats, OvercommitPolicy, SharedBlockPool,
};
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::cache::KvDtype;
use keyformer_core::parallel::fan_out;
use keyformer_core::prefix::{policy_context, PrefixRegistryStats, SharedPrefixRegistry};
use keyformer_core::spec::PolicySpec;
use keyformer_core::CoreError;
use keyformer_model::model::TransformerModel;
use keyformer_model::session::{PrefillProgress, Session, SessionStep};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::VecDeque;

/// Default token slots per block used by the serving layer.
///
/// Smaller than the core default so that admission quantisation stays tight at
/// the pool sizes the experiments use: each sequence wastes at most
/// `block_size - 1` slots per layer to internal fragmentation.
pub const DEFAULT_SERVE_BLOCK_SIZE: usize = 8;

/// Consecutive zero-progress stalled steps after which a starved prefill
/// triggers preemption of the youngest lowest-priority running session
/// (registry pins are reclaimed one step earlier).
const PREEMPT_AFTER_STALLS: usize = 2;

/// Scheduler steps a request must wait in the queue to gain one *effective*
/// priority level. Aging is what makes priority scheduling starvation-free: a
/// steady stream of high-priority arrivals delays low-priority work but an old
/// enough request eventually outranks any fresh submission.
pub const PRIORITY_AGING_STEPS: usize = 16;

/// Mixes a KV storage dtype into a prefix-registry context key. Sessions may
/// only attach to prefix entries published at their own dtype (the cache
/// rejects shared blocks of a foreign dtype), so the dtype must partition the
/// registry namespace exactly as the policy does. [`KvDtype::F32`] maps to 0
/// so the default configuration's context values — and therefore its whole
/// sharing behaviour — are bit-identical to the pre-quantization engine.
fn dtype_context(dtype: KvDtype) -> u64 {
    match dtype {
        KvDtype::F32 => 0,
        KvDtype::U8 => 0x9e37_79b9_7f4a_7c15,
    }
}

/// Static configuration of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Cache policy every admitted session runs (unless a request overrides it).
    pub policy: PolicySpec,
    /// Relative KV budget applied per session (`None` = never evict), unless a
    /// request overrides it.
    pub budget: Option<CacheBudgetSpec>,
    /// KV-byte pool shared by all running sessions; converted to a block pool
    /// of `pool_bytes / (block_size * per-layer slot bytes)` blocks.
    pub pool_bytes: usize,
    /// Hard cap on concurrently running sessions (defaults to unlimited).
    /// Zero is rejected by [`ServerConfig::validate`].
    pub max_concurrency: usize,
    /// Prefill work units (whole prompts, or chunks when chunked) executed per
    /// scheduler step (defaults to 1). Zero is rejected by
    /// [`ServerConfig::validate`].
    pub prefills_per_step: usize,
    /// Token slots per block (defaults to [`DEFAULT_SERVE_BLOCK_SIZE`]).
    pub block_size: usize,
    /// Prompt tokens forwarded per prefill work unit. `None` (the default)
    /// makes the whole prompt one work unit, run in its admission step;
    /// `Some(n)` spreads it over `ceil(prompt_len / n)` steps, resumable
    /// mid-prompt.
    pub prefill_chunk: Option<usize>,
    /// When `true`, the block pool hard-enforces its capacity: allocations past
    /// it fail and chunked prefills pause instead. Requires `prefill_chunk`.
    pub strict_pool: bool,
    /// When `true`, the engine keeps a [`SharedPrefixRegistry`] over the pool:
    /// prompt blocks are registered as prefills run, admissions attach to the
    /// longest cached prefix of their prompt (skipping those prefill chunks and
    /// reporting [`Completion::prefix_tokens_reused`]), and admission reserves
    /// only the non-shared suffix blocks of unbudgeted requests on
    /// non-strict pools. Defaults to `false`, which reproduces the
    /// sharing-free scheduler bit for bit.
    pub prefix_sharing: bool,
    /// Worker threads the decode round fans per-session forward passes over
    /// (default 1: every session steps on the calling thread). Scheduling stays
    /// serialized at any setting, so results are token-identical across
    /// worker counts; see the [module docs](self) for the
    /// plan → execute → commit pipeline. Zero is rejected by
    /// [`ServerConfig::validate`].
    pub decode_workers: usize,
    /// Storage precision of sealed KV blocks (default [`KvDtype::F32`], which
    /// is bit-identical to the pre-quantization engine). The byte pool is
    /// converted to blocks at this dtype, so [`KvDtype::U8`] quadruples the
    /// block capacity of the same `pool_bytes`. Requests may override it per
    /// submission ([`SubmitOptions::with_kv_dtype`]) towards *smaller* bytes
    /// per value only.
    pub kv_dtype: KvDtype,
    /// When `true`, a queued arrival whose block reservation does not fit may
    /// immediately preempt running sessions of *strictly lower* submitted
    /// priority (youngest lowest-priority first, the same victim order as
    /// starved-prefill preemption) instead of waiting for them to retire.
    /// Preempted work is re-queued at the head of the queue and recomputed
    /// token-identically on re-admission, exactly like pressure preemption.
    /// Defaults to `false`, which preserves the wait-for-retirement behaviour
    /// (and the event streams of every existing configuration) bit for bit.
    pub preempt_on_arrival: bool,
}

impl ServerConfig {
    /// A configuration with the given policy, per-session budget and byte pool,
    /// unlimited concurrency, one prefill per step, the default block size and
    /// whole-prompt prefill.
    pub fn new(policy: PolicySpec, budget: Option<CacheBudgetSpec>, pool_bytes: usize) -> Self {
        ServerConfig {
            policy,
            budget,
            pool_bytes,
            max_concurrency: usize::MAX,
            prefills_per_step: 1,
            block_size: DEFAULT_SERVE_BLOCK_SIZE,
            prefill_chunk: None,
            strict_pool: false,
            prefix_sharing: false,
            decode_workers: 1,
            kv_dtype: KvDtype::F32,
            preempt_on_arrival: false,
        }
    }

    /// Lets high-priority arrivals preempt lower-priority running sessions;
    /// see [`ServerConfig::preempt_on_arrival`].
    pub fn with_preempt_on_arrival(mut self, enabled: bool) -> Self {
        self.preempt_on_arrival = enabled;
        self
    }

    /// Sets the sealed-block storage precision; see [`ServerConfig::kv_dtype`].
    pub fn with_kv_dtype(mut self, dtype: KvDtype) -> Self {
        self.kv_dtype = dtype;
        self
    }

    /// Sets how many worker threads the decode round may use; see
    /// [`ServerConfig::decode_workers`]. Zero is not clamped — it fails
    /// [`ServerConfig::validate`].
    pub fn with_decode_workers(mut self, workers: usize) -> Self {
        self.decode_workers = workers;
        self
    }

    /// The `KF_DECODE_WORKERS` environment override, when set and parsable as
    /// a positive integer. The test suites apply it via
    /// [`ServerConfig::with_decode_workers`] so CI can run the whole property
    /// surface twice — sequential and parallel — without code changes. The
    /// engine itself never reads the environment: configuration stays
    /// explicit.
    pub fn decode_workers_from_env() -> Option<usize> {
        std::env::var("KF_DECODE_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w > 0)
    }

    /// Caps the number of concurrently running sessions. Zero is not clamped
    /// — it fails [`ServerConfig::validate`].
    pub fn with_max_concurrency(mut self, max: usize) -> Self {
        self.max_concurrency = max;
        self
    }

    /// Sets how many prefill work units may run per scheduler step. Zero is
    /// not clamped — it fails [`ServerConfig::validate`].
    pub fn with_prefills_per_step(mut self, prefills: usize) -> Self {
        self.prefills_per_step = prefills;
        self
    }

    /// Sets the token slots per block.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Enables chunked prefill at `chunk` prompt tokens per scheduler step.
    pub fn with_prefill_chunk(mut self, chunk: usize) -> Self {
        self.prefill_chunk = Some(chunk);
        self
    }

    /// Switches the pool's capacity discipline; see [`ServerConfig::strict_pool`].
    pub fn with_strict_pool(mut self, strict: bool) -> Self {
        self.strict_pool = strict;
        self
    }

    /// Enables or disables prefix sharing; see [`ServerConfig::prefix_sharing`].
    pub fn with_prefix_sharing(mut self, sharing: bool) -> Self {
        self.prefix_sharing = sharing;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the pool is empty, the block
    /// size or prefill chunk is zero, `max_concurrency`, `prefills_per_step`
    /// or `decode_workers` is zero, a strict pool lacks chunked prefill, or
    /// the policy spec itself does not build.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.pool_bytes == 0 {
            return Err(CoreError::InvalidConfig(
                "serving pool must be at least 1 byte".into(),
            ));
        }
        if self.block_size == 0 {
            return Err(CoreError::InvalidConfig(
                "block size must be at least 1 token slot".into(),
            ));
        }
        if self.max_concurrency == 0 {
            return Err(CoreError::InvalidConfig(
                "max_concurrency must be at least 1; a zero-session server could never \
                 admit a request"
                    .into(),
            ));
        }
        if self.prefills_per_step == 0 {
            return Err(CoreError::InvalidConfig(
                "prefills_per_step must be at least 1; a zero-prefill server could never \
                 admit a request"
                    .into(),
            ));
        }
        if self.prefill_chunk == Some(0) {
            return Err(CoreError::InvalidConfig(
                "prefill chunk must be at least 1 token".into(),
            ));
        }
        if self.strict_pool && self.prefill_chunk.is_none() {
            return Err(CoreError::InvalidConfig(
                "a strict pool requires chunked prefill, so prefills pause instead of \
                 failing when the pool runs dry"
                    .into(),
            ));
        }
        if self.decode_workers == 0 {
            return Err(CoreError::InvalidConfig(
                "decode_workers must be at least 1; use 1 for fully sequential decode".into(),
            ));
        }
        self.policy.build().map(|_| ())
    }
}

/// Opaque handle returned by [`Engine::submit`], naming one in-flight request.
///
/// The handle is a lightweight token (the engine is driven from one thread,
/// so it carries no channel): pass it — or its [`RequestHandle::id`] — back
/// into [`Engine::drain_events_for`] to stream the request's events and into
/// [`Engine::cancel`] to retire it early. Another thread cancels by sending
/// the id to the thread that drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestHandle {
    id: RequestId,
}

impl RequestHandle {
    /// The id of the request this handle names.
    pub fn id(self) -> RequestId {
        self.id
    }
}

impl std::fmt::Display for RequestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// One observable state transition of one request; see [`EventKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The request this event belongs to.
    pub id: RequestId,
    /// Scheduler step at which the transition happened (0 = before the first
    /// step, e.g. a submission or a cancellation ahead of any stepping).
    pub step: usize,
    /// What happened.
    pub kind: EventKind,
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {:>4}  {}: {}", self.step, self.id, self.kind)
    }
}

/// What one [`Event`] reports.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The request entered the admission queue ([`Engine::submit`]).
    Queued,
    /// The request was admitted and its prefill started (first admission
    /// only; re-admissions after preemption emit [`EventKind::Resumed`]).
    PrefillStarted,
    /// The first generated token was surfaced. Emitted exactly once per
    /// request, before any [`EventKind::Token`]; its step minus the
    /// submission step is the request's time-to-first-token.
    FirstToken {
        /// The token produced.
        token: u32,
    },
    /// A subsequent generated token was surfaced. Replays after a preemption
    /// recompute are suppressed — each index is emitted at most once.
    Token {
        /// The token produced.
        token: u32,
        /// 0-based index of this token in the request's output.
        index: usize,
    },
    /// The running session was swapped out under pool pressure; its request
    /// went back to the queue head and will re-emit [`EventKind::Resumed`].
    Preempted,
    /// A preempted request was re-admitted and its (token-identical) recompute
    /// started.
    Resumed,
    /// Terminal: the request finished and its [`Completion`] is available.
    Completed {
        /// Number of generated tokens.
        tokens: usize,
    },
    /// Terminal: the request was retired without completing.
    Failed {
        /// Why it was retired.
        reason: FailureReason,
    },
    /// Terminal: the caller cancelled the request ([`Engine::cancel`]).
    Cancelled,
}

impl EventKind {
    /// `true` for the three terminal kinds ([`EventKind::Completed`],
    /// [`EventKind::Failed`], [`EventKind::Cancelled`]); every request's event
    /// stream carries exactly one terminal event, and nothing after it.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            EventKind::Completed { .. } | EventKind::Failed { .. } | EventKind::Cancelled
        )
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::Queued => write!(f, "queued"),
            EventKind::PrefillStarted => write!(f, "prefill started"),
            EventKind::FirstToken { token } => write!(f, "first token {token}"),
            EventKind::Token { token, index } => write!(f, "token[{index}] {token}"),
            EventKind::Preempted => write!(f, "preempted"),
            EventKind::Resumed => write!(f, "resumed"),
            EventKind::Completed { tokens } => write!(f, "completed ({tokens} tokens)"),
            EventKind::Failed { reason } => write!(f, "failed: {reason}"),
            EventKind::Cancelled => write!(f, "cancelled"),
        }
    }
}

struct Pending {
    request: Request,
    options: SubmitOptions,
    submitted_step: usize,
    /// `true` when this entry is a preempted request awaiting re-admission
    /// (its re-admission emits [`EventKind::Resumed`]).
    preempted: bool,
    /// Steps at which already-surfaced tokens were emitted, carried across
    /// preemption so the recompute does not re-emit them.
    token_steps: Vec<usize>,
}

struct Running<'m> {
    /// The original request, kept whole so preemption can re-queue it.
    request: Request,
    options: SubmitOptions,
    session: Session<'m>,
    /// Blocks reserved against the pool at admission, returned at retirement.
    reserved_blocks: usize,
    submitted_step: usize,
    admitted_step: usize,
    /// Consecutive steps this session's prefill stalled with zero progress.
    stall_streak: usize,
    /// Scheduler step at which each surfaced token was emitted (survives
    /// preemption via [`Pending::token_steps`]).
    token_steps: Vec<usize>,
}

impl Running<'_> {
    fn id(&self) -> RequestId {
        self.request.id
    }
}

/// Aggregate counters of one engine's lifetime, used by the throughput,
/// paging and latency experiments and the serving bench.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub struct ServerStats {
    /// Scheduler steps executed.
    pub steps: usize,
    /// Token-level decode steps executed (sum of batch sizes over steps).
    pub decode_steps: usize,
    /// Prefills completed (one per admitted request, however many chunks).
    pub prefills: usize,
    /// Prefill work units executed (chunk advances; equals `prefills`
    /// without a prefill chunk).
    pub prefill_chunks: usize,
    /// Times a chunked prefill paused because a strict pool had no block.
    pub prefill_stalls: usize,
    /// Sum over steps of the live KV bytes at the end of the step (for means).
    pub live_kv_byte_steps: u64,
    /// Largest live KV byte footprint observed at the end of any step.
    pub peak_live_kv_bytes: usize,
    /// Largest number of concurrently running sessions observed.
    pub peak_concurrency: usize,
    /// Sum over steps of live (occupied) token slots at the end of the step.
    pub live_slot_steps: u64,
    /// Sum over steps of slots covered by allocated blocks at the end of the
    /// step. With `live_slot_steps`, this yields the pool-utilization metric
    /// the paging experiment reports.
    pub allocated_slot_steps: u64,
    /// Running sessions swapped out (blocks released, request re-queued)
    /// because a starved prefill could not otherwise make progress.
    pub preemptions: usize,
    /// Prompt tokens served from shared prefix-cache blocks, summed over
    /// admissions (including re-admissions after preemption).
    pub prefix_tokens_reused: u64,
    /// Requests retired by [`Engine::cancel`].
    pub cancelled: usize,
    /// Requests retired as [`FailureReason::DeadlineExceeded`].
    pub deadline_expired: usize,
}

impl ServerStats {
    /// Mean live KV bytes at the end of a scheduler step.
    pub fn mean_live_kv_bytes(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.live_kv_byte_steps as f64 / self.steps as f64
        }
    }

    /// Mean decode batch size (token steps per scheduler step).
    pub fn mean_batch_size(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.decode_steps as f64 / self.steps as f64
        }
    }

    /// Mean fraction of allocated block slots actually holding live tokens —
    /// 1.0 minus internal fragmentation. Measured at end-of-step, i.e. at
    /// steady state (after evictions and retirements of the step).
    pub fn mean_pool_utilization(&self) -> f64 {
        if self.allocated_slot_steps == 0 {
            0.0
        } else {
            self.live_slot_steps as f64 / self.allocated_slot_steps as f64
        }
    }
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} steps, {} decode steps (mean batch {:.2}), {} prefills, \
             {} preemptions, {} cancelled, {} expired",
            self.steps,
            self.decode_steps,
            self.mean_batch_size(),
            self.prefills,
            self.preemptions,
            self.cancelled,
            self.deadline_expired
        )
    }
}

/// What one [`Engine::step`] did, with an end-of-step snapshot of the memory
/// state: pool accounting (including shared-block counts), occupancy-level
/// fragmentation, and the prefix registry's counters when sharing is on.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// 1-based index of the step this report describes.
    pub step: usize,
    /// Token-level decode steps executed (the old `step()` return value).
    pub decode_steps: usize,
    /// Prefill work units (chunks or whole prompts) executed.
    pub prefill_chunks: usize,
    /// Requests admitted into running sessions.
    pub admitted: usize,
    /// Requests retired into completions.
    pub completed: usize,
    /// Requests retired as failures (including deadline expiries).
    pub failed: usize,
    /// Requests among `failed` that were retired as
    /// [`FailureReason::DeadlineExceeded`] at the top of this step.
    pub expired: usize,
    /// Running sessions swapped out under pool pressure.
    pub preempted: usize,
    /// Live token slots in physical blocks at end of step — shared blocks
    /// counted once, registry-pinned blocks counted as full.
    pub live_slots: usize,
    /// Token slots covered by allocated blocks at end of step.
    pub allocated_slots: usize,
    /// Pool accounting snapshot (in-use/reserved/peaks/churn/shared blocks).
    pub pool: BlockPoolStats,
    /// Prefix-registry counters (`None` unless
    /// [`ServerConfig::prefix_sharing`] is on).
    pub registry: Option<PrefixRegistryStats>,
}

impl StepReport {
    /// Live slots over allocated slots at end of step (1.0 for an empty pool).
    pub fn utilization(&self) -> f64 {
        if self.allocated_slots == 0 {
            1.0
        } else {
            self.live_slots as f64 / self.allocated_slots as f64
        }
    }

    /// Fraction of allocated slots holding no live token — the pool's internal
    /// fragmentation right now.
    pub fn fragmentation(&self) -> f64 {
        1.0 - self.utilization()
    }
}

impl std::fmt::Display for StepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {}: +{} admitted, {} decode steps, {} completed, {} failed \
             ({} expired), {} preempted, utilization {:.2}",
            self.step,
            self.admitted,
            self.decode_steps,
            self.completed,
            self.failed,
            self.expired,
            self.preempted,
            self.utilization()
        )
    }
}

/// An event-driven continuous-batching engine over one shared model and one
/// shared block pool. See the [module docs](self) for the scheduling contract.
pub struct Engine<'m> {
    model: &'m TransformerModel,
    config: ServerConfig,
    bytes_per_token: usize,
    /// Bytes one block (of one layer) occupies.
    bytes_per_block: usize,
    total_blocks: usize,
    num_layers: usize,
    pool: SharedBlockPool,
    /// Prefix registry over `pool` (`Some` iff `config.prefix_sharing`).
    registry: Option<SharedPrefixRegistry>,
    queue: VecDeque<Pending>,
    running: Vec<Running<'m>>,
    completed: Vec<Completion>,
    failed: Vec<FailedRequest>,
    step: usize,
    stats: ServerStats,
    events: VecDeque<Event>,
    record_events: bool,
}

impl<'m> Engine<'m> {
    /// Creates an engine over `model` with the given scheduling configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is invalid,
    /// a block's byte size overflows `usize`, or the byte pool is smaller
    /// than a single block.
    pub fn new(model: &'m TransformerModel, config: ServerConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let cache = model.empty_cache_dtype(config.kv_dtype);
        let bytes_per_token = cache.bytes_per_token();
        let num_layers = cache.num_layers();
        let bytes_per_layer_slot = cache.layer(0).bytes_per_slot();
        let bytes_per_block = config
            .block_size
            .checked_mul(bytes_per_layer_slot)
            .ok_or_else(|| {
                CoreError::InvalidConfig(format!(
                    "a {}-slot block of {bytes_per_layer_slot}-byte slots overflows usize",
                    config.block_size
                ))
            })?;
        let total_blocks = config.pool_bytes / bytes_per_block;
        if total_blocks == 0 {
            return Err(CoreError::InvalidConfig(format!(
                "pool of {} bytes is smaller than one {}-slot block ({} bytes)",
                config.pool_bytes, config.block_size, bytes_per_block
            )));
        }
        let overcommit = if config.strict_pool {
            OvercommitPolicy::Strict
        } else {
            OvercommitPolicy::AllowTransient
        };
        let pool = SharedBlockPool::bounded(config.block_size, total_blocks, overcommit)?;
        let registry = config
            .prefix_sharing
            .then(|| SharedPrefixRegistry::new(&pool));
        Ok(Engine {
            model,
            config,
            bytes_per_token,
            bytes_per_block,
            total_blocks,
            num_layers,
            pool,
            registry,
            queue: VecDeque::new(),
            running: Vec::new(),
            completed: Vec::new(),
            failed: Vec::new(),
            step: 0,
            stats: ServerStats::default(),
            events: VecDeque::new(),
            record_events: true,
        })
    }

    /// The scheduling configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Bytes one cached token occupies across the model's layers.
    pub fn bytes_per_token(&self) -> usize {
        self.bytes_per_token
    }

    /// Bytes one block (of one layer) occupies.
    pub fn bytes_per_block(&self) -> usize {
        self.bytes_per_block
    }

    /// The block capacity the byte pool converts to.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }

    /// The shared block pool every running session allocates from.
    pub fn pool(&self) -> &SharedBlockPool {
        &self.pool
    }

    /// Snapshot of the pool's allocator accounting.
    pub fn pool_stats(&self) -> BlockPoolStats {
        self.pool.stats()
    }

    /// The prefix registry, when [`ServerConfig::prefix_sharing`] is enabled.
    pub fn prefix_registry(&self) -> Option<&SharedPrefixRegistry> {
        self.registry.as_ref()
    }

    /// The registry's counters, when prefix sharing is enabled.
    pub fn registry_stats(&self) -> Option<PrefixRegistryStats> {
        self.registry.as_ref().map(SharedPrefixRegistry::stats)
    }

    /// Prompt tokens of `request` a prefix-cache attach would reuse right now
    /// (full blocks only, and never the final prompt token). 0 without prefix
    /// sharing.
    fn reusable_prefix_tokens(&self, request: &Request) -> usize {
        let Some(registry) = &self.registry else {
            return 0;
        };
        if request.prompt.len() <= 1 {
            return 0;
        }
        let bs = self.config.block_size;
        let cap = (request.prompt.len() - 1) / bs * bs;
        // Matches at the engine's default dtype; a per-submission dtype
        // override lives in `SubmitOptions`, which this request-only probe
        // cannot see. Admission itself mixes the effective dtype in.
        let context = policy_context(&request.effective_policy(self.config.policy))
            ^ dtype_context(self.config.kv_dtype);
        registry.match_tokens(context, &request.prompt[..cap])
    }

    /// Per-layer steady-state slot count of `request` under its effective
    /// budget: the capacity a running decode settles at after the end-of-prompt
    /// eviction, or the full sequence when unbudgeted.
    fn steady_state_slots(&self, request: &Request) -> usize {
        match request.effective_budget(self.config.budget) {
            Some(spec) => {
                let capacity = spec.for_prompt_len(request.prompt.len()).capacity();
                if self.config.strict_pool {
                    // Each decode step transiently holds capacity + 1 slots
                    // between the append and the eviction; a strict pool must
                    // reserve that slot, an overcommitting pool absorbs it.
                    capacity + 1
                } else {
                    capacity
                }
            }
            // Unbudgeted caches grow to the full sequence (the final generated
            // token is never fed back, hence the saturating decrement).
            None => request.prompt.len() + request.config.max_new_tokens.saturating_sub(1),
        }
    }

    /// Blocks reserved for `request` at admission: its steady-state slots
    /// rounded up to whole blocks, per layer.
    fn reserved_blocks_for(&self, request: &Request) -> usize {
        self.num_layers * blocks_for_slots(self.steady_state_slots(request), self.config.block_size)
    }

    /// Worst-case blocks `request` ever holds, including the prefill transient
    /// (the whole prompt is live just before the end-of-prompt eviction).
    fn peak_blocks_for(&self, request: &Request) -> usize {
        let peak_slots = self.steady_state_slots(request).max(request.prompt.len());
        self.num_layers * blocks_for_slots(peak_slots, self.config.block_size)
    }

    /// Blocks admission actually reserves for `request`: the steady-state
    /// count, minus — for *unbudgeted* requests on a *non-strict* pool — the
    /// full blocks a prefix-cache attach will serve from shared storage.
    /// Unbudgeted sequences never write into attached blocks (appends only
    /// ever touch blocks past the attached prefix), so those blocks stay
    /// shared for the request's whole life and are already allocated.
    /// Budgeted requests keep their full reservation: the end-of-prompt
    /// eviction compacts *inside* the prefix, CoW-forking it into private
    /// blocks that the reservation must cover. Strict pools also keep the full
    /// reservation, because their no-overshoot guarantee is proven against
    /// reservations covering every private block a session can hold.
    fn admission_reservation(&self, request: &Request) -> usize {
        let full = self.reserved_blocks_for(request);
        if self.config.strict_pool || request.effective_budget(self.config.budget).is_some() {
            return full;
        }
        let shared_blocks =
            self.num_layers * (self.reusable_prefix_tokens(request) / self.config.block_size);
        full.saturating_sub(shared_blocks)
    }

    /// Bytes currently reserved by admitted requests, at block granularity.
    pub fn reserved_bytes(&self) -> usize {
        self.pool.blocks_reserved() * self.bytes_per_block
    }

    /// Actual live KV bytes across running sessions right now.
    fn live_kv_bytes(&self) -> usize {
        self.running.iter().map(|r| r.session.cache_bytes()).sum()
    }

    /// Live token slots in *physical* blocks right now: every block counted
    /// once however many sessions map it (CoW sharing would otherwise inflate
    /// a per-session sum past the allocated total), plus the registry's pinned
    /// blocks, which hold a full block of valid cached rows each. This is the
    /// numerator of the pool-utilization metric.
    fn physical_live_slots(&self) -> usize {
        let mut seen: std::collections::HashSet<BlockId> = std::collections::HashSet::new();
        let mut live = 0;
        for r in &self.running {
            for layer in r.session.cache().iter() {
                for (id, rows) in layer.block_rows() {
                    if seen.insert(id) {
                        live += rows;
                    }
                }
            }
        }
        if let Some(registry) = &self.registry {
            for id in registry.pinned_block_ids() {
                if seen.insert(id) {
                    live += self.config.block_size;
                }
            }
        }
        live
    }

    /// Number of requests waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Number of running sessions.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// `true` once no work remains (queue empty, nothing running).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.running.is_empty()
    }

    /// Scheduler steps executed so far.
    pub fn steps(&self) -> usize {
        self.step
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Completed requests not yet taken by [`Engine::drain_retired`], in
    /// completion order.
    pub fn completions(&self) -> &[Completion] {
        &self.completed
    }

    /// Requests retired without completing (failures, cancellations and
    /// deadline expiries) not yet taken by [`Engine::drain_retired`], in
    /// retirement order.
    pub fn failures(&self) -> &[FailedRequest] {
        &self.failed
    }

    /// Takes every completion and failure retired so far, each in retirement
    /// order, leaving [`Engine::completions`] and [`Engine::failures`] empty.
    /// A long-lived driver harvests through this; otherwise the engine keeps
    /// every request's result, tokens included, until it is dropped.
    pub fn drain_retired(&mut self) -> (Vec<Completion>, Vec<FailedRequest>) {
        (
            std::mem::take(&mut self.completed),
            std::mem::take(&mut self.failed),
        )
    }

    /// Enables or disables event recording. Recording is on by default;
    /// turning it off clears the buffer and makes [`Engine::drain_events`]
    /// return nothing — the mode for batch drivers that harvest
    /// [`Engine::completions`] and never drain, so an undrained buffer can
    /// never grow without bound.
    pub fn record_events(&mut self, record: bool) {
        self.record_events = record;
        if !record {
            self.events.clear();
        }
    }

    /// Drains every buffered event, in emission order.
    pub fn drain_events(&mut self) -> Vec<Event> {
        self.events.drain(..).collect()
    }

    /// Drains the buffered events of one request (in emission order), leaving
    /// every other request's events in place.
    pub fn drain_events_for(&mut self, id: RequestId) -> Vec<Event> {
        let mut taken = Vec::new();
        self.events.retain(|e| {
            if e.id == id {
                taken.push(e.clone());
                false
            } else {
                true
            }
        });
        taken
    }

    fn emit(&mut self, id: RequestId, kind: EventKind) {
        if !self.record_events {
            return;
        }
        self.events.push_back(Event {
            id,
            step: self.step,
            kind,
        });
    }

    /// Enqueues a request with default [`SubmitOptions`] (priority 0, no
    /// deadline), validating its per-request overrides.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the request's overrides are
    /// invalid (a policy spec that does not build, or a budget override
    /// combined with `unbudgeted`); the request is not enqueued.
    pub fn submit(&mut self, request: Request) -> Result<RequestHandle, CoreError> {
        self.submit_with(request, SubmitOptions::default())
    }

    /// Enqueues a request with explicit scheduling options and returns its
    /// [`RequestHandle`]. Request ids are caller-chosen and should be unique;
    /// the engine does not deduplicate them ([`Engine::cancel`] and
    /// [`Engine::drain_events_for`] address the oldest match).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the request's overrides are
    /// invalid, if its prompt plus `max_new_tokens` exceeds the model's
    /// context (`max_seq_len`), or if [`SubmitOptions::kv_dtype`] asks for
    /// *more* bytes per value than the engine's [`ServerConfig::kv_dtype`] —
    /// the pool was sized at the config dtype, so wider requests would
    /// silently overcommit it; the request is not enqueued.
    pub fn submit_with(
        &mut self,
        request: Request,
        options: SubmitOptions,
    ) -> Result<RequestHandle, CoreError> {
        request.overrides.validate()?;
        // Bounds every per-request reservation and slot count downstream.
        let max_seq_len = self.model.config().max_seq_len;
        let (prompt_len, max_new_tokens) = (request.prompt.len(), request.config.max_new_tokens);
        if prompt_len
            .checked_add(max_new_tokens)
            .is_none_or(|total| total > max_seq_len)
        {
            return Err(CoreError::InvalidConfig(format!(
                "a {prompt_len}-token prompt plus max_new_tokens {max_new_tokens} exceeds \
                 the model's context of {max_seq_len} tokens"
            )));
        }
        if let Some(dtype) = options.kv_dtype {
            if dtype.bytes_per_value() > self.config.kv_dtype.bytes_per_value() {
                return Err(CoreError::InvalidConfig(format!(
                    "request kv_dtype {} is wider than the engine pool's {}; \
                     a pool sized for quantized blocks cannot hold wider ones",
                    dtype.label(),
                    self.config.kv_dtype.label()
                )));
            }
        }
        let id = request.id;
        self.queue.push_back(Pending {
            request,
            options,
            submitted_step: self.step,
            preempted: false,
            token_steps: Vec::new(),
        });
        self.emit(id, EventKind::Queued);
        Ok(RequestHandle { id })
    }

    /// Cancels an in-flight request *immediately*, wherever it is: removed
    /// from the queue, or — if running — its session is dropped on the spot,
    /// returning its admission reservation and private blocks to the pool and
    /// releasing its references on shared prefix blocks. The request is
    /// retired as [`FailureReason::Cancelled`] (visible in
    /// [`Engine::failures`]) and its terminal [`EventKind::Cancelled`] event
    /// is emitted.
    ///
    /// Returns `false` when no queued or running request carries `id` (it
    /// already completed, failed, was cancelled, or was never submitted).
    pub fn cancel(&mut self, id: RequestId) -> bool {
        if let Some(pos) = self.queue.iter().position(|p| p.request.id == id) {
            self.queue.remove(pos);
        } else if let Some(pos) = self.running.iter().position(|r| r.id() == id) {
            self.remove_running(pos);
        } else {
            return false;
        }
        self.stats.cancelled += 1;
        self.failed.push(FailedRequest {
            id,
            reason: FailureReason::Cancelled,
            step: self.step,
        });
        self.emit(id, EventKind::Cancelled);
        true
    }

    /// Removes the running session at `idx` and returns its reservation to
    /// the pool. The session drops here, releasing its private blocks and its
    /// own references on shared prefix blocks.
    fn remove_running(&mut self, idx: usize) -> RequestId {
        let running = self.running.remove(idx);
        self.pool.unreserve(running.reserved_blocks);
        running.id()
    }

    /// Retires the running session at `idx` as failed with engine error `e`.
    fn fail_running(&mut self, idx: usize, e: CoreError) {
        let id = self.remove_running(idx);
        self.fail(id, FailureReason::Engine(e));
    }

    fn fail(&mut self, id: RequestId, reason: FailureReason) {
        self.emit(
            id,
            EventKind::Failed {
                reason: reason.clone(),
            },
        );
        self.failed.push(FailedRequest {
            id,
            reason,
            step: self.step,
        });
    }

    /// `true` when a request submitted at `submitted_step` with `deadline`
    /// has missed it by scheduler step `now`. Compares the elapsed steps
    /// (`submitted_step <= now` always) so a deadline near `usize::MAX`
    /// cannot overflow.
    fn deadline_blown(now: usize, submitted_step: usize, deadline: Option<usize>) -> bool {
        deadline.is_some_and(|d| now - submitted_step > d)
    }

    /// Retires every queued or running request whose deadline has elapsed
    /// (submitted more than `deadline_steps` steps ago without completing),
    /// returning how many were expired.
    fn expire_deadlines(&mut self) -> usize {
        let now = self.step;
        let mut blown: Vec<(RequestId, usize)> = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            let p = &self.queue[i];
            if Self::deadline_blown(now, p.submitted_step, p.options.deadline_steps) {
                let p = self.queue.remove(i).expect("index in bounds");
                blown.push((p.request.id, p.options.deadline_steps.expect("blown")));
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.running.len() {
            let r = &self.running[i];
            if Self::deadline_blown(now, r.submitted_step, r.options.deadline_steps) {
                let deadline_steps = r.options.deadline_steps.expect("blown");
                blown.push((self.remove_running(i), deadline_steps));
            } else {
                i += 1;
            }
        }
        let expired = blown.len();
        for (id, deadline_steps) in blown {
            self.fail(id, FailureReason::DeadlineExceeded { deadline_steps });
        }
        self.stats.deadline_expired += expired;
        expired
    }

    /// Advances every in-flight chunked prefill by one chunk, in
    /// priority-then-admission order, consuming `budget` prefill work units.
    /// Stalled prefills (strict pool out of blocks) consume no budget and stay
    /// resumable.
    fn continue_prefills(&mut self, budget: &mut usize) {
        let mut i = 0;
        while i < self.running.len() && *budget > 0 {
            if !self.running[i].session.is_prefilling() {
                i += 1;
                continue;
            }
            match self.running[i].session.advance_prefill() {
                Ok(progress) => {
                    if progress.stalled {
                        self.stats.prefill_stalls += 1;
                    }
                    if progress.processed > 0 {
                        *budget -= 1;
                        self.stats.prefill_chunks += 1;
                        self.running[i].stall_streak = 0;
                    } else if progress.stalled {
                        self.running[i].stall_streak += 1;
                    }
                    if progress.ready {
                        self.stats.prefills += 1;
                    }
                    i += 1;
                }
                Err(e) => self.fail_running(i, e),
            }
        }
    }

    /// `true` while the running session at `idx` could not make prefill
    /// progress — mirroring exactly the reservation-aware pre-flight
    /// [`Session::advance_prefill`] stalls on: the next token's block need
    /// while prompt tokens remain, or the worst-case copy-on-write fork count
    /// once only the end-of-prompt eviction is pending. (Using the wrong
    /// `needed` here would let relief stop while the session's own gate still
    /// fails, stalling it forever.)
    fn prefill_starved(&self, idx: usize) -> bool {
        let r = &self.running[idx];
        let cache = r.session.cache();
        let needed = if r.session.prefill_remaining() == 0 {
            cache.shared_block_count()
        } else {
            cache.blocks_needed_for_next_token()
        };
        if needed == 0 {
            return false;
        }
        !self
            .pool
            .can_allocate_transient(needed, cache.total_blocks(), r.reserved_blocks)
    }

    /// Frees memory for a prefill that is starving on a dry pool: first
    /// reclaims prefix-registry pins (least-recently-used first; attached
    /// sequences keep their own refcounts and are unaffected), and once the
    /// stall has persisted for [`PREEMPT_AFTER_STALLS`] whole steps, swaps out
    /// the *lowest-priority youngest* other running session — its private
    /// blocks return to the pool, its shared blocks stay pinned for whoever
    /// still maps them, and its request goes back to the head of the queue to
    /// be re-admitted later (the resumable-prefill machinery plus prefix
    /// re-attachment make the redo cheap, and per-request seeding makes it
    /// token-identical; already-surfaced tokens are not re-emitted).
    ///
    /// Only sessions at or below the stalled request's priority are eligible
    /// victims: a background prefill must never evict a more urgent session's
    /// blocks (the priority-inversion [`SubmitOptions::priority`] rules out).
    /// If every other session outranks the stalled one, it simply keeps
    /// stalling — resumable as ever — until one of them retires.
    fn relieve_pressure(&mut self) {
        let stalled = self
            .running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.session.is_prefilling() && r.stall_streak > 0)
            .max_by_key(|(_, r)| r.stall_streak)
            .map(|(i, r)| (i, r.stall_streak));
        let Some((stalled_idx, streak)) = stalled else {
            return;
        };
        while self.prefill_starved(stalled_idx) {
            let evicted = self
                .registry
                .as_ref()
                .is_some_and(SharedPrefixRegistry::evict_lru);
            if !evicted {
                break;
            }
        }
        if streak < PREEMPT_AFTER_STALLS || !self.prefill_starved(stalled_idx) {
            return;
        }
        let stalled_priority = self.running[stalled_idx].options.priority;
        let victim_idx = self
            .running
            .iter()
            .enumerate()
            .filter(|&(i, r)| i != stalled_idx && r.options.priority <= stalled_priority)
            .max_by_key(|&(i, r)| (Reverse(r.options.priority), r.admitted_step, i))
            .map(|(i, _)| i);
        if let Some(idx) = victim_idx {
            self.preempt_running(idx);
        }
    }

    /// Swaps the running session at `idx` out: emits
    /// [`EventKind::Preempted`], returns its reservation to the pool, and
    /// re-queues the request at the head of the queue (flagged `preempted`, so
    /// re-admission emits [`EventKind::Resumed`] and replays of
    /// already-surfaced tokens are suppressed). Dropping the session releases
    /// its private blocks — and its own refs on shared ones.
    fn preempt_running(&mut self, idx: usize) {
        let victim = self.running.remove(idx);
        self.pool.unreserve(victim.reserved_blocks);
        self.emit(victim.id(), EventKind::Preempted);
        self.queue.push_front(Pending {
            submitted_step: victim.submitted_step,
            options: victim.options,
            preempted: true,
            token_steps: victim.token_steps,
            request: victim.request,
        });
        self.stats.preemptions += 1;
    }

    /// The youngest running session of the lowest priority *strictly below*
    /// `priority` — the victim an arriving request may preempt when
    /// [`ServerConfig::preempt_on_arrival`] is on. Strictness is what rules
    /// out livelock between equal-priority requests: an arrival can never
    /// evict a peer, so two same-priority requests cannot take turns swapping
    /// each other out.
    fn arrival_victim(&self, priority: u8) -> Option<usize> {
        self.running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.options.priority < priority)
            .max_by_key(|&(i, r)| (Reverse(r.options.priority), r.admitted_step, i))
            .map(|(i, _)| i)
    }

    /// Effective priority of a queued request: its submitted priority plus one
    /// level per [`PRIORITY_AGING_STEPS`] scheduler steps spent in the queue.
    fn effective_priority(&self, p: &Pending) -> usize {
        p.options.priority as usize + (self.step - p.submitted_step) / PRIORITY_AGING_STEPS
    }

    /// Index of the next queued request to consider for admission: the
    /// oldest request of the highest effective-priority level, which blocks
    /// the queue until its reservation fits (deterministic completion order).
    ///
    /// Priority aging mediates *between* submitted priority levels; when every
    /// queued request sits at one level the plain FIFO order is already
    /// starvation-free, so the aged scan is skipped entirely — which also
    /// keeps single-priority batch runs admission-identical across preemption
    /// re-queues and arbitrarily long waits.
    fn admission_candidate(&self) -> Option<usize> {
        let first = self.queue.front()?;
        let uniform = self
            .queue
            .iter()
            .all(|p| p.options.priority == first.options.priority);
        if uniform {
            return Some(0);
        }
        // With mixed levels, only requests at the best effective priority are
        // eligible.
        let best = self
            .queue
            .iter()
            .map(|p| self.effective_priority(p))
            .max()?;
        self.queue
            .iter()
            .position(|p| self.effective_priority(p) == best)
    }

    /// Builds the session of the admitted request `pending`, with `reserved`
    /// blocks reserved for it, arms its prompt and runs the first prefill work
    /// unit. Without a configured chunk the whole prompt is that one unit.
    fn start_session(
        &mut self,
        pending: &Pending,
        reserved: usize,
    ) -> Result<(Session<'m>, PrefillProgress), CoreError> {
        let request = &pending.request;
        let policy_spec = request.effective_policy(self.config.policy);
        // Cannot fail after validate()/submit(); a config error still only
        // fails the request.
        let policy = policy_spec.build()?;
        let budget_spec = request.effective_budget(self.config.budget);
        let dtype = pending.options.kv_dtype.unwrap_or(self.config.kv_dtype);
        let mut session =
            Session::with_pool_dtype(self.model, policy, budget_spec, self.pool.clone(), dtype);
        session.set_prefill_chunk(Some(self.config.prefill_chunk.unwrap_or(usize::MAX)));
        session.set_block_reservation(reserved);
        if let Some(registry) = &self.registry {
            // Prefix entries are only shareable between sessions that store
            // blocks at the same dtype: mixing the dtype into the context
            // keys u8 and f32 prefixes apart.
            session.set_prefix_registry(
                registry.clone(),
                policy_context(&policy_spec) ^ dtype_context(dtype),
            );
        }
        // Without a registry this is exactly `begin`.
        session.begin_with_prefix(&request.prompt, &request.config)?;
        self.stats.prefix_tokens_reused += session.prefix_tokens_reused() as u64;
        let progress = session.advance_prefill()?;
        Ok((session, progress))
    }

    fn admit(&mut self, budget: &mut usize) -> usize {
        let mut admitted = 0;
        while *budget > 0 && self.running.len() < self.config.max_concurrency {
            if self.config.strict_pool && self.running.iter().any(|r| r.session.is_prefilling()) {
                // Strict pools serialize prefills: concurrent half-done
                // prefills could each hold blocks the others need and stall
                // each other forever. One at a time is deadlock-free, because
                // decoding sessions always retire eventually.
                break;
            }
            let Some(mut candidate) = self.admission_candidate() else {
                break;
            };
            let reserved = self.admission_reservation(&self.queue[candidate].request);
            let peak = self.peak_blocks_for(&self.queue[candidate].request);
            let impossible = reserved > self.total_blocks
                || (self.config.strict_pool && peak > self.total_blocks);
            if impossible {
                // Can never fit, even alone: retire instead of deadlocking the
                // queue behind it.
                let pending = self.queue.remove(candidate).expect("candidate exists");
                let blocks = if self.config.strict_pool {
                    peak
                } else {
                    reserved
                };
                self.fail(
                    pending.request.id,
                    FailureReason::TooLargeForPool {
                        projected_bytes: blocks * self.bytes_per_block,
                        pool_bytes: self.config.pool_bytes,
                    },
                );
                continue;
            }
            if !self.pool.try_reserve(reserved) {
                // On a strict pool the registry's pins hold reservations of
                // their own; peel least-recently-used entries until the
                // candidate fits or the registry is dry.
                let mut fits = false;
                if self.config.strict_pool {
                    while let Some(registry) = &self.registry {
                        if !registry.evict_lru() {
                            break;
                        }
                        if self.pool.try_reserve(reserved) {
                            fits = true;
                            break;
                        }
                    }
                }
                if !fits && self.config.preempt_on_arrival {
                    // Arrival preemption: swap out strictly-lower-priority
                    // running sessions (youngest lowest first) until the
                    // arrival's reservation fits or no eligible victim is
                    // left. Victims re-queue at the head of the queue and
                    // recompute token-identically on re-admission.
                    let arriving = self.queue[candidate].options.priority;
                    while let Some(idx) = self.arrival_victim(arriving) {
                        self.preempt_running(idx);
                        // The victim's push_front shifted every queued index —
                        // the candidate's included — up by one.
                        candidate += 1;
                        if self.pool.try_reserve(reserved) {
                            fits = true;
                            break;
                        }
                    }
                }
                if !fits {
                    // The chosen candidate waits for blocks; nothing else may
                    // jump it (under FIFO that is the oldest highest-priority
                    // request, preserving submission order exactly when
                    // priorities are level).
                    break;
                }
            }
            let pending = self.queue.remove(candidate).expect("candidate exists");
            self.emit(
                pending.request.id,
                if pending.preempted {
                    EventKind::Resumed
                } else {
                    EventKind::PrefillStarted
                },
            );
            let (session, progress) = match self.start_session(&pending, reserved) {
                Ok(started) => started,
                Err(e) => {
                    self.pool.unreserve(reserved);
                    self.fail(pending.request.id, FailureReason::Engine(e));
                    continue;
                }
            };
            // The first work unit runs in this step's prefill budget, right
            // here at admission.
            *budget -= 1;
            self.stats.prefill_chunks += 1;
            if progress.stalled {
                self.stats.prefill_stalls += 1;
            }
            if progress.ready {
                self.stats.prefills += 1;
            }
            admitted += 1;
            let running = Running {
                request: pending.request,
                options: pending.options,
                session,
                reserved_blocks: reserved,
                submitted_step: pending.submitted_step,
                admitted_step: self.step,
                stall_streak: usize::from(progress.stalled && progress.processed == 0),
                token_steps: pending.token_steps,
            };
            // Keep `running` ordered by descending priority (stable in
            // admission order within a level), so prefill continuation and
            // the decode round serve urgent sessions first. With level
            // priorities this is exactly a push to the back.
            let at = self
                .running
                .iter()
                .rposition(|r| r.options.priority >= running.options.priority)
                .map_or(0, |p| p + 1);
            self.running.insert(at, running);
        }
        admitted
    }

    /// Surfaces the token `produced` by the running session at `idx`: records
    /// its step and emits [`EventKind::FirstToken`]/[`EventKind::Token`] —
    /// unless the token was already surfaced before a preemption, in which
    /// case the (token-identical) replay is suppressed.
    fn surface_token(&mut self, idx: usize, produced: SessionStep) {
        let already = self.running[idx].token_steps.len();
        if produced.index < already {
            return;
        }
        debug_assert_eq!(
            produced.index, already,
            "decode produced tokens out of order"
        );
        let step = self.step;
        self.running[idx].token_steps.push(step);
        let id = self.running[idx].id();
        let kind = if already == 0 {
            EventKind::FirstToken {
                token: produced.token,
            }
        } else {
            EventKind::Token {
                token: produced.token,
                index: produced.index,
            }
        };
        self.emit(id, kind);
    }

    /// Retires the finished running session at `idx` into a [`Completion`],
    /// returning its reservation (its blocks return when the session drops).
    fn retire_completed(&mut self, idx: usize) {
        let mut done = self.running.remove(idx);
        self.pool.unreserve(done.reserved_blocks);
        let output = done
            .session
            .take_output()
            .expect("finished session has an output");
        let id = done.id();
        self.emit(
            id,
            EventKind::Completed {
                tokens: output.generated.len(),
            },
        );
        // Dropping the session below returns its blocks to the pool.
        self.completed.push(Completion {
            id,
            prefix_tokens_reused: done.session.prefix_tokens_reused(),
            first_token_step: done.token_steps.first().copied(),
            token_steps: std::mem::take(&mut done.token_steps),
            output,
            submitted_step: done.submitted_step,
            admitted_step: done.admitted_step,
            completed_step: self.step,
        });
    }

    /// **Plan**: which running sessions take a decode token this round — a
    /// pure read of scheduler state, decided before any forward pass runs.
    /// Sessions mid-prefill or already finished are left out; no session can
    /// change phase under the plan, because only planned sessions step.
    fn plan_decode(&self) -> Vec<bool> {
        self.running
            .iter()
            .map(|r| r.session.is_decoding())
            .collect()
    }

    /// **Execute**: with more than one worker and more than one planned
    /// session, steps every planned session ahead of the commit, handing
    /// contiguous shares of them to [`fan_out`] (the first share runs on the
    /// calling thread). Returns one slot per running entry; `None` leaves the
    /// step to the commit loop, which is every slot at one worker or with one
    /// planned session. Nothing here touches scheduler state: sessions only
    /// meet on the block pool's lock, whose counts do not depend on
    /// allocation order.
    fn execute_decode(&mut self, plan: &[bool]) -> Vec<Option<Result<SessionStep, CoreError>>> {
        let mut results: Vec<_> = plan.iter().map(|_| None).collect();
        let planned = plan.iter().filter(|&&p| p).count();
        let workers = self.config.decode_workers.min(planned);
        if workers > 1 {
            let mut jobs: Vec<_> = self
                .running
                .iter_mut()
                .zip(results.iter_mut())
                .zip(plan)
                .filter(|&(_, &p)| p)
                .map(|((r, slot), _)| (&mut r.session, slot))
                .collect();
            fan_out(jobs.chunks_mut(planned.div_ceil(workers)), |share| {
                for (session, slot) in share {
                    **slot = Some(session.step());
                }
            });
        }
        results
    }

    /// **Commit**: walks every running entry in plan order, exactly as a
    /// one-worker round steps them — skipping sessions mid-prefill, stepping a
    /// planned session whose result `execute` left to it, surfacing its token
    /// and retiring finished and failed sessions — so events, retirement
    /// order and stats are identical at every worker count.
    fn commit_decode(
        &mut self,
        plan: &[bool],
        results: Vec<Option<Result<SessionStep, CoreError>>>,
    ) -> usize {
        let mut executed = 0;
        let mut i = 0;
        for (&planned, result) in plan.iter().zip(results) {
            if planned {
                match result.unwrap_or_else(|| self.running[i].session.step()) {
                    Ok(produced) => {
                        executed += 1;
                        self.stats.decode_steps += 1;
                        self.surface_token(i, produced);
                    }
                    Err(e) => {
                        self.fail_running(i, e);
                        continue;
                    }
                }
            } else if self.running[i].session.is_prefilling() {
                i += 1;
                continue;
            }
            if self.running[i].session.is_decoding() {
                i += 1;
            } else {
                self.retire_completed(i);
            }
        }
        executed
    }

    /// One decode round: plan → execute → commit.
    fn decode_round(&mut self) -> usize {
        let plan = self.plan_decode();
        let results = self.execute_decode(&plan);
        self.commit_decode(&plan, results)
    }

    /// Runs one batched scheduler step — deadline expiry, prefill
    /// continuation, pressure relief (registry trim / preemption), admission,
    /// and one decode token for every running session past its prefill — and
    /// reports what happened plus an end-of-step memory snapshot. Events for
    /// every transition are buffered for [`Engine::drain_events`].
    pub fn step(&mut self) -> StepReport {
        self.step += 1;
        let completed_before = self.completed.len();
        let failed_before = self.failed.len();
        let preempted_before = self.stats.preemptions;
        let chunks_before = self.stats.prefill_chunks;
        let expired = self.expire_deadlines();
        let mut prefill_budget = self.config.prefills_per_step;
        self.continue_prefills(&mut prefill_budget);
        self.relieve_pressure();
        let admitted = self.admit(&mut prefill_budget);
        let executed = self.decode_round();
        self.stats.steps += 1;
        self.stats.peak_concurrency = self.stats.peak_concurrency.max(self.running.len());
        let live = self.live_kv_bytes();
        self.stats.live_kv_byte_steps += live as u64;
        self.stats.peak_live_kv_bytes = self.stats.peak_live_kv_bytes.max(live);
        let live_slots = self.physical_live_slots();
        let allocated_slots = self.pool.blocks_in_use() * self.config.block_size;
        self.stats.live_slot_steps += live_slots as u64;
        self.stats.allocated_slot_steps += allocated_slots as u64;
        StepReport {
            step: self.step,
            decode_steps: executed,
            prefill_chunks: self.stats.prefill_chunks - chunks_before,
            admitted,
            completed: self.completed.len() - completed_before,
            failed: self.failed.len() - failed_before,
            expired,
            preempted: self.stats.preemptions - preempted_before,
            live_slots,
            allocated_slots,
            pool: self.pool.stats(),
            registry: self.registry_stats(),
        }
    }

    /// Runs up to `max_steps` scheduler steps, stopping early once idle.
    /// Returns the number of steps actually executed.
    pub fn run(&mut self, max_steps: usize) -> usize {
        let mut executed = 0;
        while executed < max_steps && !self.is_idle() {
            self.step();
            executed += 1;
        }
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyformer_model::families::ModelFamily;
    use keyformer_model::generation::GenerationConfig;

    fn prompt(len: usize, salt: u32) -> Vec<u32> {
        (0..len)
            .map(|i| (i as u32 * 13 + 5 + salt * 17) % 120)
            .collect()
    }

    fn keyformer_engine(model: &TransformerModel, pool_tokens: usize) -> Engine<'_> {
        let bytes = model.empty_cache().bytes_per_token();
        Engine::new(
            model,
            ServerConfig::new(
                PolicySpec::keyformer_default(),
                Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
                pool_tokens * bytes,
            )
            .with_block_size(4),
        )
        .unwrap()
    }

    /// Splits a request's events into (pre-terminal, terminal) and asserts
    /// stream well-formedness: Queued first, exactly one terminal event and
    /// nothing after it, FirstToken before any Token, token indices 1, 2, ...
    fn check_well_formed(events: &[Event]) -> &Event {
        assert!(!events.is_empty(), "request has no events");
        assert_eq!(events[0].kind, EventKind::Queued, "{events:?}");
        let terminals: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind.is_terminal())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(terminals.len(), 1, "exactly one terminal: {events:?}");
        assert_eq!(terminals[0], events.len() - 1, "terminal last: {events:?}");
        let mut first_token_seen = false;
        let mut next_index = 1;
        for e in events {
            match &e.kind {
                EventKind::FirstToken { .. } => {
                    assert!(!first_token_seen, "duplicate FirstToken: {events:?}");
                    first_token_seen = true;
                }
                EventKind::Token { index, .. } => {
                    assert!(first_token_seen, "Token before FirstToken: {events:?}");
                    assert_eq!(*index, next_index, "{events:?}");
                    next_index += 1;
                }
                _ => {}
            }
        }
        events.last().unwrap()
    }

    /// The tokens a request's event stream surfaced, in order.
    fn streamed_tokens(events: &[Event]) -> Vec<u32> {
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FirstToken { token } => Some(token),
                EventKind::Token { token, .. } => Some(token),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn events_stream_per_token_and_match_the_completion() {
        let model = ModelFamily::Tiny.build(21);
        let mut engine = keyformer_engine(&model, 256);
        let config = GenerationConfig::new(5);
        let handle = engine
            .submit(Request::new(7, prompt(20, 0), config))
            .unwrap();
        assert_eq!(handle.id().raw(), 7);
        engine.run(64);
        assert!(engine.is_idle());
        let events = engine.drain_events_for(handle.id());
        let terminal = check_well_formed(&events);
        assert_eq!(terminal.kind, EventKind::Completed { tokens: 5 });
        assert!(
            events.iter().any(|e| e.kind == EventKind::PrefillStarted),
            "{events:?}"
        );
        let completion = engine.completions()[0].clone();
        assert_eq!(streamed_tokens(&events), completion.output.generated);
        // Latency accounting is consistent between events and the completion.
        assert_eq!(completion.token_steps.len(), 5);
        let first_event_step = events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::FirstToken { .. } => Some(e.step),
                _ => None,
            })
            .unwrap();
        assert_eq!(completion.first_token_step, Some(first_event_step));
        assert!(completion.ttft_steps().unwrap() >= 1);
        assert!(completion.token_steps.windows(2).all(|w| w[0] < w[1]));
        // Everything drained; nothing left globally.
        assert!(engine.drain_events().is_empty());
        // Solo run matches the streamed tokens bit for bit.
        let solo = Session::new(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
        )
        .generate(&prompt(20, 0), &config)
        .unwrap();
        assert_eq!(completion.output, solo);
    }

    #[test]
    fn global_drain_interleaves_requests_in_emission_order() {
        let model = ModelFamily::Tiny.build(22);
        let mut engine = keyformer_engine(&model, 256);
        for i in 0..3 {
            engine
                .submit(Request::new(
                    i,
                    prompt(16, i as u32),
                    GenerationConfig::new(3),
                ))
                .unwrap();
        }
        engine.run(64);
        let all = engine.drain_events();
        assert!(engine.drain_events().is_empty());
        for id in 0..3u64 {
            let per: Vec<Event> = all.iter().filter(|e| e.id.raw() == id).cloned().collect();
            check_well_formed(&per);
        }
        // Steps are non-decreasing across the global stream.
        assert!(all.windows(2).all(|w| w[0].step <= w[1].step));
    }

    #[test]
    fn cancel_works_in_queue_mid_prefill_and_mid_decode() {
        let model = ModelFamily::Tiny.build(23);
        let bytes = model.empty_cache().bytes_per_token();
        let mut engine = Engine::new(
            &model,
            ServerConfig::new(
                PolicySpec::keyformer_default(),
                Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
                256 * bytes,
            )
            .with_block_size(4)
            .with_prefill_chunk(6),
        )
        .unwrap();
        // In-queue: cancelled before any step ran.
        let queued = engine
            .submit(Request::new(0, prompt(20, 0), GenerationConfig::new(4)))
            .unwrap();
        assert!(engine.cancel(queued.id()));
        assert!(!engine.cancel(queued.id()), "already retired");
        assert!(engine.is_idle());
        // Mid-prefill: one step into a 20-token prompt at 6 tokens per chunk.
        let prefilling = engine
            .submit(Request::new(1, prompt(20, 1), GenerationConfig::new(4)))
            .unwrap();
        engine.step();
        assert_eq!(engine.running(), 1);
        assert!(engine.pool().blocks_in_use() > 0);
        assert!(engine.cancel(prefilling.id()));
        assert_eq!(engine.pool().blocks_in_use(), 0, "prefill blocks leaked");
        assert_eq!(engine.pool().blocks_reserved(), 0, "reservation leaked");
        // Mid-decode: cancel after the second token streamed.
        let decoding = engine
            .submit(Request::new(2, prompt(20, 2), GenerationConfig::new(8)))
            .unwrap();
        let mut tokens_seen = 0;
        for _ in 0..64 {
            engine.step();
            tokens_seen += engine
                .drain_events_for(decoding.id())
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        EventKind::FirstToken { .. } | EventKind::Token { .. }
                    )
                })
                .count();
            if tokens_seen >= 2 {
                break;
            }
        }
        assert!(tokens_seen >= 2, "decode never surfaced two tokens");
        assert!(engine.cancel(decoding.id()));
        assert!(engine.is_idle());
        assert_eq!(engine.pool().blocks_in_use(), 0, "decode blocks leaked");
        assert_eq!(engine.pool().blocks_reserved(), 0);
        // All three retired as Cancelled, visible in failures().
        assert_eq!(engine.failures().len(), 3);
        assert!(engine
            .failures()
            .iter()
            .all(|f| matches!(f.reason, FailureReason::Cancelled)));
        assert_eq!(engine.stats().cancelled, 3);
        // Each cancelled stream ends in the Cancelled terminal.
        for id in [queued.id(), decoding.id()] {
            let events = engine.drain_events_for(id);
            assert_eq!(events.last().unwrap().kind, EventKind::Cancelled);
        }
        assert!(!engine.cancel(RequestId::new(99)), "unknown id");
    }

    #[test]
    fn deadlines_expire_queued_and_running_requests() {
        let model = ModelFamily::Tiny.build(24);
        // Pool fits one request at a time, so the second queues behind the
        // first's long decode and blows its deadline in the queue.
        let mut engine = keyformer_engine(&model, 12);
        let hog = engine
            .submit(Request::new(0, prompt(20, 0), GenerationConfig::new(12)))
            .unwrap();
        let starved = engine
            .submit_with(
                Request::new(1, prompt(20, 1), GenerationConfig::new(2)),
                SubmitOptions::new().with_deadline_steps(3),
            )
            .unwrap();
        engine.run(64);
        assert!(engine.is_idle());
        assert_eq!(engine.completions().len(), 1);
        assert_eq!(engine.completions()[0].id, hog.id());
        assert_eq!(engine.failures().len(), 1);
        assert_eq!(engine.failures()[0].id, starved.id());
        assert!(matches!(
            engine.failures()[0].reason,
            FailureReason::DeadlineExceeded { deadline_steps: 3 }
        ));
        // The failure step is the first step past the deadline.
        assert_eq!(engine.failures()[0].step, 4);
        let events = engine.drain_events_for(starved.id());
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::Failed {
                reason: FailureReason::DeadlineExceeded { .. }
            }
        ));
        assert_eq!(engine.stats().deadline_expired, 1);
        assert_eq!(engine.pool().blocks_reserved(), 0);

        // A *running* request is expired mid-decode too, releasing its blocks.
        let mut engine = keyformer_engine(&model, 64);
        engine
            .submit_with(
                Request::new(2, prompt(20, 2), GenerationConfig::new(30)),
                SubmitOptions::new().with_deadline_steps(4),
            )
            .unwrap();
        let mut expired_total = 0;
        for _ in 0..16 {
            let report = engine.step();
            expired_total += report.expired;
            if engine.is_idle() {
                break;
            }
        }
        assert_eq!(expired_total, 1);
        assert!(engine.is_idle());
        assert_eq!(engine.completions().len(), 0);
        assert!(matches!(
            engine.failures()[0].reason,
            FailureReason::DeadlineExceeded { deadline_steps: 4 }
        ));
        assert_eq!(engine.pool().blocks_in_use(), 0, "expired decode leaked");
        assert_eq!(engine.pool().blocks_reserved(), 0);
    }

    #[test]
    fn a_deadline_near_usize_max_never_expires() {
        let model = ModelFamily::Tiny.build(24);
        let mut engine = keyformer_engine(&model, 64);
        // Submitted after the first step, so `submitted_step + deadline`
        // would overflow.
        engine.step();
        let patient = engine
            .submit_with(
                Request::new(0, prompt(20, 0), GenerationConfig::new(3)),
                SubmitOptions::new().with_deadline_steps(usize::MAX),
            )
            .unwrap();
        engine.run(64);
        assert!(engine.is_idle());
        assert!(engine.failures().is_empty(), "{:?}", engine.failures());
        assert_eq!(engine.completions().len(), 1);
        assert_eq!(engine.completions()[0].id, patient.id());
        let events = engine.drain_events_for(patient.id());
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::Completed { .. }
        ));
        assert_eq!(engine.stats().deadline_expired, 0);
    }

    #[test]
    fn higher_priority_jumps_the_admission_queue() {
        let model = ModelFamily::Tiny.build(25);
        // Pool fits one request at a time, so admission order == completion
        // order.
        let mut engine = keyformer_engine(&model, 12);
        engine
            .submit(Request::new(0, prompt(20, 0), GenerationConfig::new(2)))
            .unwrap();
        engine
            .submit(Request::new(1, prompt(20, 1), GenerationConfig::new(2)))
            .unwrap();
        engine
            .submit_with(
                Request::new(2, prompt(20, 2), GenerationConfig::new(2)),
                SubmitOptions::new().with_priority(5),
            )
            .unwrap();
        engine.run(256);
        assert!(engine.is_idle());
        let ids: Vec<u64> = engine.completions().iter().map(|c| c.id.raw()).collect();
        assert_eq!(ids, vec![2, 0, 1], "priority 5 overtakes both normals");
        // Outputs are still bit-identical to solo runs — priority only
        // reorders, it never perturbs decoding.
        for c in engine.completions() {
            let alone = Session::new(
                &model,
                PolicySpec::keyformer_default().build().unwrap(),
                Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
            )
            .generate(&prompt(20, c.id.raw() as u32), &GenerationConfig::new(2))
            .unwrap();
            assert_eq!(c.output, alone, "request {}", c.id);
        }
    }

    #[test]
    fn aging_rescues_low_priority_work_from_a_high_priority_stream() {
        let model = ModelFamily::Tiny.build(26);
        // Pool fits one request at a time. A steady stream of fresh
        // priority-1 arrivals would starve a priority-0 request forever
        // without aging; with one level gained per PRIORITY_AGING_STEPS
        // queued steps the old request eventually outranks every fresh one.
        let mut engine = keyformer_engine(&model, 12);
        let low = engine
            .submit(Request::new(0, prompt(20, 0), GenerationConfig::new(2)))
            .unwrap();
        let mut next_id = 1;
        let mut low_completed_at = None;
        for step in 0..400 {
            // Two fresh high-priority arrivals per admission opportunity.
            if step % 2 == 0 {
                engine
                    .submit_with(
                        Request::new(
                            next_id,
                            prompt(20, next_id as u32),
                            GenerationConfig::new(2),
                        ),
                        SubmitOptions::new().with_priority(1),
                    )
                    .unwrap();
                next_id += 1;
            }
            engine.step();
            engine.drain_events();
            if low_completed_at.is_none() && engine.completions().iter().any(|c| c.id == low.id()) {
                low_completed_at = Some(engine.steps());
                break;
            }
        }
        let completed_at = low_completed_at.expect("aging failed: low-priority request starved");
        assert!(
            completed_at > PRIORITY_AGING_STEPS,
            "the stream must actually have delayed the low-priority request \
             (completed at step {completed_at})"
        );
        // High-priority requests genuinely overtook it first.
        let position = engine
            .completions()
            .iter()
            .position(|c| c.id == low.id())
            .unwrap();
        assert!(position > 0, "nothing overtook the low-priority request");
    }

    #[test]
    fn preemption_streams_resume_without_duplicate_tokens() {
        let model = ModelFamily::Tiny.build(17);
        let bytes = model.empty_cache().bytes_per_token();
        // The dry-strict-pool preemption scenario of `server::tests`, with
        // events on: the long decoder is preempted mid-decode and recomputed.
        let budget = CacheBudgetSpec::new(0.5, 0.3).unwrap();
        let mut engine = Engine::new(
            &model,
            ServerConfig::new(PolicySpec::keyformer_default(), Some(budget), 28 * bytes)
                .with_block_size(4)
                .with_prefill_chunk(4)
                .with_strict_pool(true),
        )
        .unwrap();
        engine
            .submit(Request::new(0, prompt(16, 0), GenerationConfig::new(24)))
            .unwrap();
        engine
            .submit(Request::new(1, prompt(24, 1), GenerationConfig::new(4)))
            .unwrap();
        for _ in 0..2_000 {
            if engine.is_idle() {
                break;
            }
            engine.step();
        }
        assert!(engine.is_idle());
        assert_eq!(engine.completions().len(), 2);
        assert!(engine.stats().preemptions > 0, "no preemption exercised");
        let all = engine.drain_events();
        let preempted_id = all
            .iter()
            .find(|e| e.kind == EventKind::Preempted)
            .expect("a Preempted event exists")
            .id;
        let events: Vec<Event> = all
            .iter()
            .filter(|e| e.id == preempted_id)
            .cloned()
            .collect();
        let terminal = check_well_formed(&events);
        assert!(matches!(terminal.kind, EventKind::Completed { .. }));
        assert!(
            events.iter().any(|e| e.kind == EventKind::Resumed),
            "preempted request must resume: {events:?}"
        );
        // The streamed tokens match the completion exactly — no replays.
        let completion = engine
            .completions()
            .iter()
            .find(|c| c.id == preempted_id)
            .unwrap();
        assert_eq!(streamed_tokens(&events), completion.output.generated);
        assert!(completion.token_steps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn preemption_never_evicts_a_higher_priority_session() {
        let model = ModelFamily::Tiny.build(17);
        let bytes = model.empty_cache().bytes_per_token();
        // Same dry-strict-pool scenario as the preemption tests, but the
        // long decoder is submitted at priority 5: the stalled priority-0
        // prefill must NOT evict it (priority inversion) — it waits, resumes
        // once the decoder retires, and both still complete.
        let budget = CacheBudgetSpec::new(0.5, 0.3).unwrap();
        let mut engine = Engine::new(
            &model,
            ServerConfig::new(PolicySpec::keyformer_default(), Some(budget), 28 * bytes)
                .with_block_size(4)
                .with_prefill_chunk(4)
                .with_strict_pool(true),
        )
        .unwrap();
        engine
            .submit_with(
                Request::new(0, prompt(16, 0), GenerationConfig::new(24)),
                SubmitOptions::new().with_priority(5),
            )
            .unwrap();
        engine
            .submit(Request::new(1, prompt(24, 1), GenerationConfig::new(4)))
            .unwrap();
        for _ in 0..2_000 {
            if engine.is_idle() {
                break;
            }
            engine.step();
            engine.drain_events();
        }
        assert!(engine.is_idle(), "scheduler failed to drain");
        assert_eq!(engine.completions().len(), 2, "{:?}", engine.failures());
        assert_eq!(
            engine.stats().preemptions,
            0,
            "a low-priority prefill evicted a higher-priority session"
        );
        assert!(
            engine.stats().prefill_stalls > 0,
            "the prefill must genuinely have waited on the dry pool"
        );
        // The urgent request finished first, undisturbed.
        assert_eq!(engine.completions()[0].id.raw(), 0);
    }

    #[test]
    fn decode_workers_zero_is_rejected_and_defaults_to_sequential() {
        let model = ModelFamily::Tiny.build(29);
        let bytes = model.empty_cache().bytes_per_token();
        let config = ServerConfig::new(
            PolicySpec::keyformer_default(),
            Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
            64 * bytes,
        )
        .with_decode_workers(0);
        assert!(Engine::new(&model, config).is_err());
        let default = ServerConfig::new(PolicySpec::keyformer_default(), None, 64 * bytes);
        assert_eq!(default.decode_workers, 1);
    }

    #[test]
    fn parallel_engine_matches_sequential_token_for_token() {
        let model = ModelFamily::Tiny.build(41);
        let bytes = model.empty_cache().bytes_per_token();
        let base = ServerConfig::new(
            PolicySpec::keyformer_default(),
            Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
            256 * bytes,
        )
        .with_block_size(4)
        .with_prefill_chunk(5);
        let run = |workers: usize| {
            let mut engine = Engine::new(&model, base.with_decode_workers(workers)).unwrap();
            // A zero-token request finishes at arm time and is never planned;
            // it must still retire, at every worker count.
            for (i, tokens) in [6, 6, 6, 6, 0, 1].into_iter().enumerate() {
                engine
                    .submit(Request::new(
                        i as u64,
                        prompt(18, i as u32),
                        GenerationConfig::new(tokens),
                    ))
                    .unwrap();
            }
            engine.run(10_000);
            assert!(engine.is_idle());
            (
                engine.completions().to_vec(),
                engine.drain_events(),
                *engine.stats(),
                engine.pool_stats(),
            )
        };
        let (seq_done, seq_events, seq_stats, seq_pool) = run(1);
        for workers in [2, 4, 8] {
            let (done, events, stats, pool) = run(workers);
            assert_eq!(done, seq_done, "{workers} workers: completions diverged");
            assert_eq!(events, seq_events, "{workers} workers: events diverged");
            assert_eq!(stats, seq_stats, "{workers} workers: stats diverged");
            // Live allocator state and churn totals are deterministic; only
            // the transient high-water marks may differ under parallelism.
            assert_eq!(pool.in_use, seq_pool.in_use);
            assert_eq!(pool.reserved, seq_pool.reserved);
            assert_eq!(pool.total_allocs, seq_pool.total_allocs);
            assert_eq!(pool.total_frees, seq_pool.total_frees);
        }
    }

    /// The PR 6 worker pool fell back to sequential decode whenever a
    /// budgeted session still mapped shared blocks. The pool-level atomic
    /// fork probe (`SharedBlockPool::fork_block`) removed that fallback: the round
    /// fans out even while the plan contains budgeted sessions whose prefix
    /// blocks are still shared, and the round's own evictions CoW-fork those
    /// blocks under the fanned-out workers.
    #[test]
    fn budgeted_sessions_still_sharing_blocks_decode_in_parallel() {
        let model = ModelFamily::Tiny.build(46);
        let bytes = model.empty_cache().bytes_per_token();
        let mut engine = Engine::new(
            &model,
            ServerConfig::new(
                PolicySpec::keyformer_default(),
                // Budget exactly the prompt: the sessions enter their first
                // decode round before any eviction, so every prefix block is
                // still shared when the round fans out.
                Some(CacheBudgetSpec::with_fraction(1.0).unwrap()),
                256 * bytes,
            )
            .with_block_size(4)
            .with_prefix_sharing(true)
            .with_decode_workers(4),
        )
        .unwrap();
        let shared = prompt(16, 9);
        engine
            .submit(Request::new(0, shared.clone(), GenerationConfig::new(8)))
            .unwrap();
        engine
            .submit(Request::new(1, shared, GenerationConfig::new(8)))
            .unwrap();
        engine.step();
        engine.step();
        assert_eq!(engine.running(), 2);
        assert!(
            engine.stats().prefix_tokens_reused > 0,
            "second request attached to the shared prefix"
        );
        assert!(
            engine.pool_stats().shared_blocks > 0,
            "prefix blocks still shared entering the decode round"
        );

        engine.step += 1;
        let plan = engine.plan_decode();
        assert_eq!(plan, vec![true, true]);
        // Both sessions step in the execute phase: the round fans out, with
        // no sequential fallback for budgeted-but-shared sessions.
        let results = engine.execute_decode(&plan);
        assert!(results.iter().all(|r| matches!(r, Some(Ok(_)))));
        engine.commit_decode(&plan, results);

        engine.run(10_000);
        assert!(engine.is_idle());
        assert_eq!(engine.completions().len(), 2);
    }

    #[test]
    fn reports_and_events_render() {
        let model = ModelFamily::Tiny.build(28);
        let mut engine = keyformer_engine(&model, 64);
        engine
            .submit(Request::new(3, prompt(12, 0), GenerationConfig::new(2)))
            .unwrap();
        let report = engine.step();
        let rendered = report.to_string();
        assert!(rendered.contains("step 1"), "{rendered}");
        assert!(rendered.contains("admitted"), "{rendered}");
        engine.run(64);
        let stats = engine.stats().to_string();
        assert!(stats.contains("decode steps"), "{stats}");
        for event in engine.drain_events() {
            let line = event.to_string();
            assert!(line.contains("req-3"), "{line}");
        }
        let kinds = [
            EventKind::Queued,
            EventKind::PrefillStarted,
            EventKind::FirstToken { token: 1 },
            EventKind::Token { token: 2, index: 1 },
            EventKind::Preempted,
            EventKind::Resumed,
            EventKind::Completed { tokens: 2 },
            EventKind::Failed {
                reason: FailureReason::Cancelled,
            },
            EventKind::Cancelled,
        ];
        // Terminal classification and Display cover every kind.
        assert_eq!(kinds.iter().filter(|k| k.is_terminal()).count(), 3);
        for kind in kinds {
            assert!(!kind.to_string().is_empty());
        }
    }

    /// The tentpole's capacity mechanism: the same byte pool converts to 4x
    /// the blocks when the engine stores sealed KV blocks as u8, because
    /// `bytes_per_slot` accounts in quantized bytes.
    #[test]
    fn u8_pool_holds_four_times_the_blocks_of_f32() {
        let model = ModelFamily::Tiny.build(31);
        let pool_bytes = model.empty_cache().bytes_per_token() * 128;
        let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
        let config = ServerConfig::new(PolicySpec::keyformer_default(), budget, pool_bytes)
            .with_block_size(4);
        let f32_engine = Engine::new(&model, config).unwrap();
        let u8_engine = Engine::new(&model, config.with_kv_dtype(KvDtype::U8)).unwrap();
        assert_eq!(u8_engine.total_blocks(), 4 * f32_engine.total_blocks());
        assert_eq!(
            u8_engine.bytes_per_block() * 4,
            f32_engine.bytes_per_block()
        );
        assert_eq!(
            u8_engine.bytes_per_token() * 4,
            f32_engine.bytes_per_token()
        );
    }

    /// A u8-configured engine serves requests end to end, and a u8 override
    /// on an f32 engine narrows without error; only widening (f32 requests
    /// into a u8-sized pool) is rejected at submission.
    #[test]
    fn kv_dtype_overrides_narrow_but_never_widen() {
        let model = ModelFamily::Tiny.build(32);
        let pool_bytes = model.empty_cache().bytes_per_token() * 256;
        let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
        let base = ServerConfig::new(PolicySpec::keyformer_default(), budget, pool_bytes)
            .with_block_size(4);

        let mut u8_engine = Engine::new(&model, base.with_kv_dtype(KvDtype::U8)).unwrap();
        let err = u8_engine
            .submit_with(
                Request::new(0, prompt(12, 0), GenerationConfig::new(3)),
                SubmitOptions::new().with_kv_dtype(KvDtype::F32),
            )
            .unwrap_err();
        assert!(
            err.to_string().contains("wider"),
            "widening must be rejected: {err}"
        );
        u8_engine
            .submit(Request::new(1, prompt(12, 1), GenerationConfig::new(3)))
            .unwrap();
        u8_engine.run(10_000);
        assert_eq!(u8_engine.completions().len(), 1);
        assert_eq!(u8_engine.completions()[0].output.generated.len(), 3);

        let mut f32_engine = Engine::new(&model, base).unwrap();
        f32_engine
            .submit_with(
                Request::new(2, prompt(12, 2), GenerationConfig::new(3)),
                SubmitOptions::new().with_kv_dtype(KvDtype::U8),
            )
            .unwrap();
        f32_engine.run(10_000);
        assert_eq!(f32_engine.completions().len(), 1);
    }

    /// A request longer than the model's context is refused at submission —
    /// before it can reserve `prompt + max_new_tokens` slots — at sizes that
    /// would abort the process or overflow, and one token past the limit.
    /// The engine stays idle; a request that exactly fills the context runs.
    #[test]
    fn requests_longer_than_the_context_are_rejected_at_submission() {
        let model = ModelFamily::Tiny.build(34);
        let max_seq_len = model.config().max_seq_len;
        let mut engine = keyformer_engine(&model, 256);
        for max_new_tokens in [10_000_000_000, u64::MAX as usize, max_seq_len - 11] {
            let request = Request::new(0, prompt(12, 0), GenerationConfig::new(max_new_tokens));
            let err = engine.submit(request).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidConfig(_)),
                "{max_new_tokens}: {err}"
            );
            assert!(engine.is_idle());
        }
        let fits = GenerationConfig::new(max_seq_len - 12);
        engine.submit(Request::new(1, prompt(12, 1), fits)).unwrap();
        engine.run(10_000);
        assert_eq!(engine.completions().len(), 1);
        assert_eq!(
            engine.completions()[0].output.generated.len(),
            max_seq_len - 12
        );
        assert!(engine.is_idle());
    }

    /// A block size whose byte size overflows `usize` is refused, not
    /// wrapped: `2^56` slots of the Tiny model's 256-byte `f32` slot wrap to
    /// 0 bytes, which would divide by zero sizing the pool.
    #[test]
    fn an_overflowing_block_size_is_refused() {
        let model = ModelFamily::Tiny.build(35);
        let pool_bytes = model.empty_cache().bytes_per_token() * 256;
        let config = ServerConfig::new(PolicySpec::Full, None, pool_bytes).with_block_size(1 << 56);
        let err = Engine::new(&model, config).err().expect("must be refused");
        assert!(matches!(err, CoreError::InvalidConfig(_)), "{err}");
        assert!(
            err.to_string().contains("72057594037927936-slot block"),
            "{err}"
        );
    }

    /// Prefix entries are keyed by (policy, dtype): requests of different
    /// dtypes never attach to each other's prefixes, while same-dtype
    /// requests still share.
    #[test]
    fn kv_dtype_partitions_the_prefix_registry() {
        let model = ModelFamily::Tiny.build(33);
        let pool_bytes = model.empty_cache().bytes_per_token() * 512;
        let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
        let config = ServerConfig::new(PolicySpec::keyformer_default(), budget, pool_bytes)
            .with_block_size(4)
            .with_prefix_sharing(true);
        let mut engine = Engine::new(&model, config).unwrap();
        let shared = prompt(16, 7);

        engine
            .submit_with(
                Request::new(0, shared.clone(), GenerationConfig::new(2)),
                SubmitOptions::new().with_kv_dtype(KvDtype::U8),
            )
            .unwrap();
        engine.run(10_000);
        assert_eq!(engine.stats().prefix_tokens_reused, 0);

        // Same prompt at the engine-default f32 dtype: no cross-dtype reuse.
        engine
            .submit(Request::new(1, shared.clone(), GenerationConfig::new(2)))
            .unwrap();
        engine.run(10_000);
        assert_eq!(
            engine.stats().prefix_tokens_reused,
            0,
            "prefixes must not cross dtypes"
        );

        // Same prompt at u8 again: same-dtype reuse still works.
        engine
            .submit_with(
                Request::new(2, shared, GenerationConfig::new(2)),
                SubmitOptions::new().with_kv_dtype(KvDtype::U8),
            )
            .unwrap();
        engine.run(10_000);
        assert!(
            engine.stats().prefix_tokens_reused > 0,
            "same-dtype prefixes share"
        );
        assert_eq!(engine.completions().len(), 3);
    }
}
