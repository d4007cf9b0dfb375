//! # keyformer
//!
//! Facade crate of the Keyformer reproduction (Adnan et al., MLSys 2024): re-exports
//! the full public API of the workspace so applications can depend on a single crate.
//!
//! * [`core`] — KV cache, eviction-policy trait and the policy zoo (Keyformer, H2O,
//!   window attention, StreamingLLM, …).
//! * [`model`] — the decoder-only transformer substrate (RoPE / ALiBi / learned
//!   positions) and the per-sequence [`model::session::Session`].
//! * [`serve`] — the continuous-batching serving layer: many concurrent sequences
//!   decoding against one shared model behind a memory-aware admission queue.
//! * [`net`] — the `kf_serve` network front-end over [`serve`]: TCP listener, job
//!   lifecycle, streaming drains and an idempotent result cache.
//! * [`text`] — synthetic tasks, ROUGE and evaluation drivers.
//! * [`perf`] — the analytic A100 roofline model.
//! * [`harness`] — experiment definitions regenerating every paper table and figure.
//!
//! ```
//! use keyformer::core::{CacheBudgetSpec, PolicySpec};
//! use keyformer::model::families::ModelFamily;
//! use keyformer::model::generation::GenerationConfig;
//! use keyformer::model::session::Session;
//!
//! let model = ModelFamily::MptLike.build(7);
//! let policy = PolicySpec::keyformer_default().build()?;
//! let budget = CacheBudgetSpec::with_fraction(0.5)?;
//! let mut session = Session::new(&model, policy, Some(budget));
//! let prompt: Vec<u32> = (16..80).collect();
//! let output = session.generate(&prompt, &GenerationConfig::new(8))?;
//! assert_eq!(output.generated.len(), 8);
//! # Ok::<(), keyformer::core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use keyformer_core as core;
pub use keyformer_harness as harness;
pub use keyformer_model as model;
pub use keyformer_perf as perf;
pub use keyformer_serve as serve;
pub use keyformer_tensor as tensor;
pub use keyformer_text as text;
pub use kf_serve as net;
