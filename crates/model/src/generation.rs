//! Generation configuration and outputs.

/// How the next token is chosen from the logits.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SamplingStrategy {
    /// Always pick the highest-logit token (the default; deterministic).
    #[default]
    Greedy,
    /// Sample from the top-`k` logits at the given temperature, using the engine's
    /// seeded PRNG.
    TopK {
        /// Number of candidate tokens.
        k: usize,
        /// Softmax temperature applied to the candidate logits.
        temperature: f32,
    },
}

/// Configuration of a generation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationConfig {
    /// Number of tokens to generate.
    pub max_new_tokens: usize,
    /// Optional end-of-sequence token that stops generation early.
    pub eos_token: Option<u32>,
    /// Token-selection strategy.
    pub sampling: SamplingStrategy,
    /// Seed for the sampling PRNG (ignored for greedy decoding).
    pub seed: u64,
    /// Additive penalty subtracted from the logits of tokens already generated in
    /// this request (and of the final prompt token). The untrained substrate's tied
    /// embedding readout otherwise favours repeating the current token — the same
    /// degeneration real deployments counter with a repetition penalty. `0.0`
    /// disables it.
    pub repetition_penalty: f32,
}

impl GenerationConfig {
    /// Default repetition penalty used by [`GenerationConfig::new`].
    pub const DEFAULT_REPETITION_PENALTY: f32 = 8.0;

    /// Greedy generation of `max_new_tokens` tokens with the default repetition
    /// penalty.
    pub fn new(max_new_tokens: usize) -> Self {
        GenerationConfig {
            max_new_tokens,
            eos_token: None,
            sampling: SamplingStrategy::Greedy,
            seed: 0,
            repetition_penalty: Self::DEFAULT_REPETITION_PENALTY,
        }
    }

    /// Sets an end-of-sequence token.
    pub fn with_eos(mut self, eos: u32) -> Self {
        self.eos_token = Some(eos);
        self
    }

    /// Switches to top-k sampling.
    pub fn with_top_k(mut self, k: usize, temperature: f32, seed: u64) -> Self {
        self.sampling = SamplingStrategy::TopK { k, temperature };
        self.seed = seed;
        self
    }

    /// Overrides the repetition penalty.
    pub fn with_repetition_penalty(mut self, penalty: f32) -> Self {
        self.repetition_penalty = penalty;
        self
    }
}

/// Result of a generation request.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationOutput {
    /// Generated token ids (excluding the prompt).
    pub generated: Vec<u32>,
    /// Number of prompt tokens processed.
    pub prompt_len: usize,
    /// Per-layer live KV-cache slot count after generation finished.
    pub final_cache_slots: Vec<usize>,
    /// KV-cache byte footprint after generation finished.
    pub final_cache_bytes: usize,
    /// Peak KV-cache byte footprint observed during the request (reached at the end
    /// of the prompt phase, before the first eviction).
    pub peak_cache_bytes: usize,
}

impl GenerationOutput {
    /// Total sequence length (prompt + generated).
    pub fn total_len(&self) -> usize {
        self.prompt_len + self.generated.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let c = GenerationConfig::new(16)
            .with_eos(2)
            .with_top_k(5, 0.8, 42)
            .with_repetition_penalty(3.0);
        assert_eq!(c.max_new_tokens, 16);
        assert_eq!(c.eos_token, Some(2));
        assert_eq!(
            c.sampling,
            SamplingStrategy::TopK {
                k: 5,
                temperature: 0.8
            }
        );
        assert_eq!(c.seed, 42);
        assert_eq!(c.repetition_penalty, 3.0);
        assert_eq!(
            GenerationConfig::new(1).repetition_penalty,
            GenerationConfig::DEFAULT_REPETITION_PENALTY
        );
    }

    #[test]
    fn default_is_greedy() {
        assert_eq!(SamplingStrategy::default(), SamplingStrategy::Greedy);
        assert_eq!(GenerationConfig::new(4).sampling, SamplingStrategy::Greedy);
    }

    #[test]
    fn output_total_len() {
        let out = GenerationOutput {
            generated: vec![1, 2, 3],
            prompt_len: 10,
            final_cache_slots: vec![5, 5],
            final_cache_bytes: 100,
            peak_cache_bytes: 200,
        };
        assert_eq!(out.total_len(), 13);
    }
}
