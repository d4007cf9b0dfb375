//! # keyformer-serve
//!
//! A continuous-batching serving layer over the `keyformer-model` substrate: many
//! concurrent sequences decode against one shared [`TransformerModel`], each with
//! its own per-sequence [`Session`] (KV cache, policy instance, budget).
//!
//! This is the layer where the paper's headline claim becomes end-to-end
//! observable: Keyformer shrinks each sequence's KV footprint, block-reservation
//! admission against a shared paged [`SharedBlockPool`] turns that into *more
//! concurrent sequences*, and the batched scheduler turns concurrency into
//! *more requests completed per decode-step budget* (Adnan et al., MLSys 2024,
//! §6.3). Blocks freed by an eviction or a retirement are instantly reusable by
//! any other sequence; chunked prefill spreads long prompts across scheduler
//! steps and lets strict pools pause (rather than fail) a prefill that runs out
//! of blocks. See `docs/SERVING.md` for queue semantics, block-pool sizing and
//! the throughput/paging/latency experiments.
//!
//! One front end drives the scheduler: [`Engine`]. [`Engine::submit`] returns
//! a [`RequestHandle`], every state transition emits a typed [`Event`]
//! (`Queued` → `PrefillStarted` → `FirstToken` → `Token`* → `Completed`, with
//! `Preempted`/`Resumed`/`Failed`/`Cancelled` along the way), requests carry
//! [`SubmitOptions`] priorities and deadlines, and [`Engine::cancel`] retires
//! work mid-flight — the API that makes time-to-first-token and inter-token
//! latency observable per token. A batch driver that only wants results
//! submits, calls [`Engine::run`] to idle and harvests
//! [`Engine::completions`], with [`Engine::record_events`] off so nothing
//! buffers undrained:
//!
//! ```
//! use keyformer_core::{CacheBudgetSpec, PolicySpec};
//! use keyformer_model::families::ModelFamily;
//! use keyformer_model::generation::GenerationConfig;
//! use keyformer_serve::{Engine, Request, ServerConfig};
//!
//! let model = ModelFamily::Tiny.build(7);
//! let pool = 64 * model.empty_cache().bytes_per_token();
//! let mut engine = Engine::new(
//!     &model,
//!     ServerConfig::new(
//!         PolicySpec::keyformer_default(),
//!         Some(CacheBudgetSpec::with_fraction(0.5)?),
//!         pool,
//!     ),
//! )?;
//! engine.record_events(false);
//! for i in 0..4 {
//!     let prompt: Vec<u32> = (0..24).map(|t| (t * 7 + i) % 100).collect();
//!     engine.submit(Request::new(u64::from(i), prompt, GenerationConfig::new(6)))?;
//! }
//! engine.run(256);
//! assert_eq!(engine.completions().len(), 4);
//! # Ok::<(), keyformer_core::CoreError>(())
//! ```
//!
//! [`TransformerModel`]: keyformer_model::model::TransformerModel
//! [`Session`]: keyformer_model::session::Session
//! [`SharedBlockPool`]: keyformer_core::block::SharedBlockPool

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod request;

pub use engine::{
    Engine, Event, EventKind, RequestHandle, ServerConfig, ServerStats, StepReport,
    DEFAULT_SERVE_BLOCK_SIZE, PRIORITY_AGING_STEPS,
};
pub use request::{
    submit_rejection, Completion, FailedRequest, FailureReason, Request, RequestId,
    RequestOverrides, SubmitOptions, WireCode,
};

/// The batch-driven scheduler tests (submit → run → `completions()`); the
/// module path is the one their test ids have always had.
#[cfg(test)]
mod server {
    mod tests;
}
