//! Per-step attention observations handed to cache policies.

use serde::{Deserialize, Serialize};

/// Which phase of generative inference a decode step belongs to.
///
/// The paper distinguishes the two phases because Keyformer keeps the temperature at
/// `tau_init` during prompt processing (no tokens have been discarded yet) and anneals
/// it towards `tau_end` across the token-generation phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Prompt processing: the whole context is visible, the KV cache is being filled.
    Prompt,
    /// Autoregressive token generation over the reduced KV cache.
    Generation,
}

impl Phase {
    /// Returns `true` for the token-generation phase.
    pub fn is_generation(self) -> bool {
        matches!(self, Phase::Generation)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Prompt => write!(f, "prompt"),
            Phase::Generation => write!(f, "generation"),
        }
    }
}

/// One attention head's view of a single decode step.
///
/// `logits` holds the *unnormalized* attention logits `x_i = q · k_i / sqrt(d)` of the
/// current query against every live KV-cache slot of `layer`, in slot order. Policies
/// that score tokens (H2O, Keyformer, the damped variant) accumulate from these; the
/// purely structural policies (window, sinks) ignore them.
#[derive(Debug, Clone, Copy)]
pub struct AttentionObservation<'a> {
    /// Decoder layer index the observation came from.
    pub layer: usize,
    /// Attention head index within the layer.
    pub head: usize,
    /// Inference phase of this step.
    pub phase: Phase,
    /// Decode iteration `t` (0-based). During the prompt phase this is the index of
    /// the prompt token being processed; during generation it counts generated tokens.
    pub step: usize,
    /// Planned text-generation length `T`, used by temperature schedules.
    pub total_steps: usize,
    /// Unnormalized attention logits against each live cache slot.
    pub logits: &'a [f32],
}

impl<'a> AttentionObservation<'a> {
    /// Number of live cache slots covered by this observation.
    pub fn live_slots(&self) -> usize {
        self.logits.len()
    }
}

/// The buffered observations of a run of consecutive tokens: for each token,
/// one logit row per `(layer, head)`, in the order a token-at-a-time forward
/// would have produced them. Token `t` of the run is decode iteration
/// `first_step + t`.
#[derive(Debug, Clone, Copy)]
pub struct ObservationRows<'a> {
    /// Inference phase of every token in the run.
    pub phase: Phase,
    /// Decode iteration of the run's first token.
    pub first_step: usize,
    /// Planned text-generation length `T`, used by temperature schedules.
    pub total_steps: usize,
    /// Decoder layers per token.
    pub num_layers: usize,
    /// Attention heads per layer.
    pub num_heads: usize,
    /// `(offset, len)` of each row in `data`, indexed
    /// `(token * num_layers + layer) * num_heads + head`.
    pub index: &'a [(usize, usize)],
    /// The logit rows the index points into.
    pub data: &'a [f32],
}

impl<'a> ObservationRows<'a> {
    /// Number of tokens in the run.
    pub fn tokens(&self) -> usize {
        self.index.len() / (self.num_layers * self.num_heads)
    }

    /// Total logits over every row of the run.
    pub fn total_logits(&self) -> usize {
        self.index.iter().map(|&(_, len)| len).sum()
    }

    /// The logit row of `(token, layer, head)`.
    pub fn logits(&self, token: usize, layer: usize, head: usize) -> &'a [f32] {
        let (offset, len) = self.index[(token * self.num_layers + layer) * self.num_heads + head];
        &self.data[offset..offset + len]
    }

    /// Every row as an observation, token-major: the sequential order.
    pub fn iter(self) -> impl Iterator<Item = AttentionObservation<'a>> {
        (0..self.tokens()).flat_map(move |token| {
            (0..self.num_layers).flat_map(move |layer| {
                (0..self.num_heads).map(move |head| AttentionObservation {
                    layer,
                    head,
                    phase: self.phase,
                    step: self.first_step + token,
                    total_steps: self.total_steps,
                    logits: self.logits(token, layer, head),
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_display_and_predicate() {
        assert_eq!(Phase::Prompt.to_string(), "prompt");
        assert_eq!(Phase::Generation.to_string(), "generation");
        assert!(Phase::Generation.is_generation());
        assert!(!Phase::Prompt.is_generation());
    }

    #[test]
    fn observation_reports_live_slots() {
        let logits = [0.0, 1.0, 2.0];
        let obs = AttentionObservation {
            layer: 1,
            head: 2,
            phase: Phase::Generation,
            step: 5,
            total_steps: 10,
            logits: &logits,
        };
        assert_eq!(obs.live_slots(), 3);
    }
}
