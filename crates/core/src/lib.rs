//! # keyformer-core
//!
//! The primary contribution of the Keyformer paper (Adnan et al., MLSys 2024),
//! implemented from scratch: inference-time KV-cache reduction by retaining a small
//! recent window plus a set of *key tokens* selected by a Gumbel-regularized,
//! temperature-annealed score function.
//!
//! The crate is organised around three ideas:
//!
//! 1. [`cache::KvCache`] — the per-layer key/value store a decoder fills during the
//!    prompt phase and reads during token generation. Eviction means *compacting* a
//!    layer's slots down to a [`budget::CacheBudget`].
//! 2. [`policy::KvCachePolicy`] — the trait every cache-reduction strategy
//!    implements: it observes the unnormalized attention logits produced at each
//!    decode step and, when asked, returns the set of slots to retain.
//! 3. The policy zoo in [`policies`] — Full attention, Window / Dilated-window
//!    attention, StreamingLLM-style attention sinks, and one
//!    [`ScoredPolicy`] that accumulates a softmax score per slot and keeps the
//!    recent window plus the top-scoring older slots. Its four configurations are
//!    key-token-only attention (no recent window), H2O (heavy hitters), a
//!    damped-score variant (Figure 5; it selects what H2O selects) and
//!    **Keyformer** itself (Gumbel noise and an annealed temperature).
//!
//! ```
//! use keyformer_core::budget::CacheBudget;
//! use keyformer_core::observation::{AttentionObservation, Phase};
//! use keyformer_core::policies::scored::{KeyformerConfig, ScoredPolicy};
//! use keyformer_core::policy::KvCachePolicy;
//!
//! // A Keyformer policy with a 4-slot budget, 2 of which are a recent window.
//! let mut policy = ScoredPolicy::keyformer(KeyformerConfig::default().with_seed(7));
//! let budget = CacheBudget::new(4, 2);
//!
//! // Observe one decode step over a 6-token cache, then compact 6 -> 4.
//! let logits = [2.0, 0.1, 0.3, 1.5, 0.2, 0.4];
//! policy.observe(&AttentionObservation {
//!     layer: 0,
//!     head: 0,
//!     phase: Phase::Prompt,
//!     step: 0,
//!     total_steps: 8,
//!     logits: &logits,
//! });
//! let retained = policy.select_retained(0, logits.len(), &budget);
//! assert_eq!(retained.len(), 4);
//! // The recent window (slots 4 and 5) is always preserved.
//! assert!(retained.contains(&4) && retained.contains(&5));
//! ```
//!
//! Policies are usually constructed declaratively through [`spec::PolicySpec`],
//! which keeps experiment definitions serializable data:
//!
//! ```
//! use keyformer_core::budget::CacheBudgetSpec;
//! use keyformer_core::spec::PolicySpec;
//!
//! // Every entry in the policy zoo has a spec; specs build boxed policies.
//! for spec in [
//!     PolicySpec::Full,
//!     PolicySpec::Window,
//!     PolicySpec::h2o_default(),
//!     PolicySpec::streaming_default(),
//!     PolicySpec::keyformer_default(),
//! ] {
//!     let policy = spec.build()?;
//!     assert!(!policy.name().is_empty());
//! }
//!
//! // A budget spec scales with the prompt: keep 50% of prompt tokens, a tenth
//! // of them reserved for the most recent positions.
//! let budget = CacheBudgetSpec::new(0.5, 0.1)?.for_prompt_len(64);
//! assert_eq!(budget.capacity(), 32);
//! # Ok::<(), keyformer_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod adjustment;
pub mod block;
pub mod budget;
pub mod cache;
pub mod diagnostics;
pub mod observation;
pub mod parallel;
pub mod policies;
pub mod policy;
pub mod prefix;
pub mod rotated;
pub mod spec;
pub mod temperature;

pub use accumulator::{ScoreAccumulator, ScoreScope};
pub use adjustment::LogitAdjustment;
pub use block::{BlockId, BlockPoolStats, OvercommitPolicy, SharedBlockPool};
pub use budget::{CacheBudget, CacheBudgetSpec};
pub use cache::{KvBlockMeta, KvCache, LayerKvCache};
pub use observation::{AttentionObservation, ObservationRows, Phase};
pub use policies::full::FullAttention;
pub use policies::scored::{KeyformerConfig, ScoredPolicy};
pub use policies::streaming::StreamingLlm;
pub use policies::window::WindowAttention;
pub use policy::KvCachePolicy;
pub use prefix::{PrefixRegistryStats, SharedPrefixRegistry};
pub use rotated::RotatedKeyCache;
pub use spec::PolicySpec;
pub use temperature::TemperatureSchedule;

/// Errors produced by cache and policy operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A cache budget or policy configuration was structurally invalid.
    InvalidConfig(String),
    /// A retained-slot set did not satisfy the compaction contract
    /// (sorted, unique, in-bounds, correct length).
    InvalidSelection(String),
    /// A strict [`block::SharedBlockPool`] had no block left for an allocation.
    /// Chunked prefill treats this as "pause and resume once blocks free up";
    /// anywhere else it retires the request.
    PoolExhausted {
        /// Blocks allocated when the request failed.
        in_use: usize,
        /// The pool's block capacity.
        capacity: usize,
    },
    /// A retain/release/attach referenced a block id the pool does not
    /// currently have allocated. Surfaced as a `Result` (rather than a panic)
    /// so a serving-layer bookkeeping bug retires one request instead of
    /// taking the whole scheduler down.
    InvalidBlock {
        /// Raw id of the offending block.
        id: u32,
        /// The operation that rejected it (`"retain"`, `"release"`, ...).
        op: &'static str,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::InvalidSelection(msg) => write!(f, "invalid selection: {msg}"),
            CoreError::PoolExhausted { in_use, capacity } => write!(
                f,
                "block pool exhausted: {in_use} of {capacity} blocks in use"
            ),
            CoreError::InvalidBlock { id, op } => {
                write!(f, "{op} of block {id}, which is not currently allocated")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
        assert!(CoreError::InvalidConfig("x".into())
            .to_string()
            .contains("x"));
        assert!(CoreError::InvalidSelection("y".into())
            .to_string()
            .contains("y"));
    }
}
