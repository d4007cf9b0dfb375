//! Workload descriptions: prompt/generation lengths, batching and cache policy cost.

/// The per-step cost model of a KV-cache policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePolicyCost {
    /// Human-readable policy name.
    pub name: &'static str,
    /// Fraction of the full KV cache retained (1.0 = full attention).
    pub cache_fraction: f64,
    /// Fractional per-step scoring overhead relative to the attention scaled-dot-
    /// product time (Keyformer's Gumbel softmax and top-k selection; ~0 for H2O and
    /// window attention).
    pub scoring_overhead: f64,
}

impl CachePolicyCost {
    /// Full attention: the whole cache, no scoring overhead.
    pub fn full_attention() -> Self {
        CachePolicyCost {
            name: "Full Attention",
            cache_fraction: 1.0,
            scoring_overhead: 0.0,
        }
    }

    /// H2O with the given cache fraction (accumulated-attention scoring is folded
    /// into the attention kernel; negligible extra traffic).
    pub fn h2o(cache_fraction: f64) -> Self {
        CachePolicyCost {
            name: "H2O",
            cache_fraction,
            scoring_overhead: 0.02,
        }
    }

    /// Keyformer with the given cache fraction. The Gumbel-softmax score function
    /// and per-step top-k add a few percent on top of the scaled dot product
    /// (Figure 10's "Gumbel softmax overhead").
    pub fn keyformer(cache_fraction: f64) -> Self {
        CachePolicyCost {
            name: "Keyformer",
            cache_fraction,
            scoring_overhead: 0.08,
        }
    }

    /// Window attention with the given cache fraction.
    pub fn window(cache_fraction: f64) -> Self {
        CachePolicyCost {
            name: "Window Attention",
            cache_fraction,
            scoring_overhead: 0.0,
        }
    }
}

/// A generation workload: how many tokens go in and come out, and how it is batched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Number of generated tokens.
    pub generation_len: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Beam size (the paper uses beam 4 for accuracy runs, beam 1 for throughput).
    pub beam_size: usize,
}

impl Workload {
    /// A `prompt + generation` workload with batch 1, beam 1 (the Table 1 setting).
    pub fn symmetric(len: usize) -> Self {
        Workload {
            prompt_len: len,
            generation_len: len,
            batch_size: 1,
            beam_size: 1,
        }
    }

    /// The Figure 1 setting: 50% context + 50% generation, batch 1, beam 4.
    pub fn figure1(total_seq: usize) -> Self {
        Workload {
            prompt_len: total_seq / 2,
            generation_len: total_seq - total_seq / 2,
            batch_size: 1,
            beam_size: 4,
        }
    }

    /// Total sequence length.
    pub fn total_len(&self) -> usize {
        self.prompt_len + self.generation_len
    }

    /// Replaces the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Replaces the beam size.
    pub fn with_beam_size(mut self, beam_size: usize) -> Self {
        self.beam_size = beam_size;
        self
    }

    /// Number of concurrent sequences (batch × beam).
    pub fn concurrent_sequences(&self) -> usize {
        self.batch_size * self.beam_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_cost_presets() {
        assert_eq!(CachePolicyCost::full_attention().cache_fraction, 1.0);
        assert!(
            CachePolicyCost::keyformer(0.5).scoring_overhead
                > CachePolicyCost::h2o(0.5).scoring_overhead
        );
        assert_eq!(CachePolicyCost::window(0.5).scoring_overhead, 0.0);
        assert_eq!(CachePolicyCost::keyformer(0.5).cache_fraction, 0.5);
    }

    #[test]
    fn workload_builders() {
        let w = Workload::symmetric(1024);
        assert_eq!(w.total_len(), 2048);
        assert_eq!(w.concurrent_sequences(), 1);
        let w2 = w.with_batch_size(2).with_beam_size(4);
        assert_eq!(w2.concurrent_sequences(), 8);
        let f1 = Workload::figure1(8192);
        assert_eq!(f1.prompt_len, 4096);
        assert_eq!(f1.beam_size, 4);
        assert_eq!(f1.total_len(), 8192);
    }
}
