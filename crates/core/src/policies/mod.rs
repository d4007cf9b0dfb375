//! The policy zoo: every KV-cache reduction strategy evaluated in the paper.
//!
//! | Module | Paper name | Selection rule |
//! |---|---|---|
//! | [`full`] | Full Attention | never evicts (gold-standard baseline) |
//! | [`window`] | Window / Dilated Window Attention | most recent `k` slots (optionally dilated) |
//! | [`streaming`] | StreamingLLM attention sinks | first `s` sink tokens + recent window |
//! | [`scored`] | Key Attention (Figure 3c) | top-`k` slots by accumulated softmax attention, no recent window |
//! | [`scored`] | H2O heavy hitters | recent window + top accumulated softmax attention |
//! | [`scored`] | Damped score function (Figure 5) | H2O with every step's contribution multiplied by α (selects what H2O selects) |
//! | [`scored`] | **Keyformer** | recent window + top accumulated Gumbel-softmax score with temperature annealing |
//!
//! The last four are configurations of one [`scored::ScoredPolicy`].

pub mod full;
pub mod scored;
pub mod streaming;
pub mod window;

// The unit tests of the four scored configurations, one module each, so a
// configuration's test ids read `policies::<configuration>::tests::…`.
#[cfg(test)]
#[path = "scored_tests/damped.rs"]
mod damped;
#[cfg(test)]
#[path = "scored_tests/h2o.rs"]
mod h2o;
#[cfg(test)]
#[path = "scored_tests/key_only.rs"]
mod key_only;
#[cfg(test)]
#[path = "scored_tests/keyformer.rs"]
mod keyformer;
