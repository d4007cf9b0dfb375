//! # keyformer-model
//!
//! A from-scratch decoder-only transformer substrate that exercises the KV-cache
//! policies in [`keyformer_core`] on a genuine attention code path.
//!
//! The paper evaluates three model families that differ in their positional encoding:
//! GPT-J (RoPE), Cerebras-GPT (learned position embeddings) and MPT (ALiBi). The
//! substrate reproduces those three variants at laptop scale via
//! [`families::ModelFamily`]. Model weights are deterministic functions of a seed and
//! are structured (near-identity attention projections over near-orthogonal token
//! embeddings) so that attention behaves associatively: queries attend to cached
//! tokens with related embeddings. An explicit induction-style copy head
//! ([`config::ModelConfig::copy_strength`]) turns retained attention into next-token
//! evidence, which is what makes generation quality depend on *which tokens survive
//! in the KV cache* — the property every experiment in the paper measures.
//!
//! The main entry point is [`session::Session`], which couples a
//! [`model::TransformerModel`] with any [`keyformer_core::policy::KvCachePolicy`] and
//! a [`keyformer_core::budget::CacheBudgetSpec`], and exposes stepwise or
//! whole-request generation and continuation scoring. A session runs one
//! forward pass ([`workspace`]): a prompt chunk, or a decode step's one token,
//! goes through each decoder layer once over reused buffers, and the policy
//! replays the chunk's attention logits afterwards. The crate's unit tests
//! keep a token-at-a-time forward as a test-only reference and prove the two
//! byte-identical.
//!
//! ```
//! use keyformer_core::{CacheBudgetSpec, PolicySpec};
//! use keyformer_model::families::ModelFamily;
//! use keyformer_model::generation::GenerationConfig;
//! use keyformer_model::session::Session;
//!
//! let model = ModelFamily::MptLike.build(42);
//! let policy = PolicySpec::keyformer_default().build().unwrap();
//! let budget = CacheBudgetSpec::new(0.5, 0.3).unwrap();
//! let mut session = Session::new(&model, policy, Some(budget));
//!
//! let prompt: Vec<u32> = (1..40).map(|i| (i % 50) as u32).collect();
//! let out = session.generate(&prompt, &GenerationConfig::new(8)).unwrap();
//! assert_eq!(out.generated.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod families;
pub mod generation;
pub mod model;
pub mod positional;
pub mod session;
pub mod weights;
pub mod workspace;

// The reference forward — an allocating, token-at-a-time pass the product
// forward is proven byte-identical against — exists only in test builds: its
// attention, its decoder layer, the model-level driver and the session-level
// differential tests.
#[cfg(test)]
mod attention;
#[cfg(test)]
mod decoder;
#[cfg(test)]
mod reference;
#[cfg(test)]
mod reference_identity;

pub use config::{ModelConfig, PositionMode};
pub use families::ModelFamily;
pub use generation::{GenerationConfig, GenerationOutput};
pub use model::TransformerModel;
pub use positional::PositionalEncoding;
pub use session::{Session, SessionStep};
pub use workspace::ForwardWorkspace;
