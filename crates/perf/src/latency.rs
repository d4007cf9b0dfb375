//! The roofline latency/throughput model.

use crate::accelerator::Accelerator;
use crate::model_shape::ModelShape;
use crate::workload::{CachePolicyCost, Workload};

/// Per-phase time breakdown of an inference request (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Time spent streaming KV-cache data from HBM.
    pub kv_cache_data_movement_s: f64,
    /// Time spent streaming model weights from HBM.
    pub weight_data_movement_s: f64,
    /// Time attributable to the attention scaled dot product `(QKᵀ)V`.
    pub scaled_dot_product_s: f64,
    /// Time attributable to the policy's score function (Keyformer's Gumbel softmax).
    pub scoring_overhead_s: f64,
    /// Other compute (projections, FFN, logits) plus fixed per-step overhead.
    pub other_s: f64,
}

impl PhaseBreakdown {
    /// Total time of the phase.
    pub fn total_s(&self) -> f64 {
        self.kv_cache_data_movement_s
            + self.weight_data_movement_s
            + self.scaled_dot_product_s
            + self.scoring_overhead_s
            + self.other_s
    }
}

/// Full estimate for one workload under one cache policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceEstimate {
    /// Prompt-phase breakdown.
    pub prompt: PhaseBreakdown,
    /// Token-generation-phase breakdown (summed over all generated tokens).
    pub generation: PhaseBreakdown,
    /// Peak resident bytes (weights + KV cache + workspace).
    pub peak_bytes: u64,
    /// Whether the request fits in HBM.
    pub fits_in_memory: bool,
    /// Generated tokens per second (batch-aggregated), `0` if the request does not
    /// fit in memory.
    pub tokens_per_second: f64,
}

impl InferenceEstimate {
    /// End-to-end latency in seconds.
    pub fn total_latency_s(&self) -> f64 {
        self.prompt.total_s() + self.generation.total_s()
    }
}

/// The roofline performance model: an accelerator plus a model shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Accelerator executing the model.
    pub accelerator: Accelerator,
    /// Model being served.
    pub model: ModelShape,
}

impl PerfModel {
    /// Creates a perf model.
    pub fn new(accelerator: Accelerator, model: ModelShape) -> Self {
        PerfModel { accelerator, model }
    }

    /// The paper's main configuration: MPT-7B on an A100-80GB.
    pub fn paper_default() -> Self {
        PerfModel::new(Accelerator::a100_80gb(), ModelShape::mpt_7b())
    }

    /// Average live KV slots per sequence over the generation phase. A reducing
    /// policy holds the cache at a constant `fraction × prompt_len`; full attention's
    /// cache keeps growing, one slot per generated token.
    fn avg_live_cache_tokens(&self, workload: &Workload, policy: &CachePolicyCost) -> f64 {
        if policy.cache_fraction >= 1.0 {
            workload.prompt_len as f64 + workload.generation_len as f64 / 2.0
        } else {
            (workload.prompt_len as f64 * policy.cache_fraction).max(1.0)
        }
    }

    /// Peak live KV slots per sequence over the whole request.
    fn peak_live_cache_tokens(&self, workload: &Workload, policy: &CachePolicyCost) -> f64 {
        if policy.cache_fraction >= 1.0 {
            (workload.prompt_len + workload.generation_len) as f64
        } else {
            // The full prompt is materialised before the post-prompt reduction.
            workload.prompt_len as f64
        }
    }

    /// Peak resident bytes for a workload under a policy.
    pub fn peak_bytes(&self, workload: &Workload, policy: &CachePolicyCost) -> u64 {
        let peak_live = self.peak_live_cache_tokens(workload, policy) as usize;
        let kv_peak = self
            .model
            .kv_cache_bytes(peak_live, workload.batch_size, workload.beam_size);
        let workspace = (256usize * 1024 * 1024) as u64;
        self.model.weight_bytes() + kv_peak + workspace
    }

    /// Estimates the prompt phase. Prompt processing is compute-dominated (all
    /// tokens are processed in parallel, weights are read once).
    fn estimate_prompt(&self, workload: &Workload) -> PhaseBreakdown {
        let seqs = workload.concurrent_sequences() as f64;
        let flops: f64 =
            self.model.flops_per_token(workload.prompt_len / 2) * workload.prompt_len as f64 * seqs;
        let weight_time = self
            .accelerator
            .memory_time(self.model.weight_bytes() as f64);
        let compute = self.accelerator.compute_time(flops);
        // Attention portion of prompt compute (quadratic term).
        let attn_flops = 2.0
            * (2 * self.model.d_model) as f64
            * (workload.prompt_len as f64 / 2.0)
            * workload.prompt_len as f64
            * self.model.num_layers as f64
            * seqs;
        let sdp = self.accelerator.compute_time(attn_flops);
        PhaseBreakdown {
            kv_cache_data_movement_s: 0.0,
            weight_data_movement_s: weight_time,
            scaled_dot_product_s: sdp,
            scoring_overhead_s: 0.0,
            other_s: (compute - sdp).max(0.0) + self.accelerator.step_overhead_s,
        }
    }

    /// Estimates the generation phase under a cache policy. Each generated token
    /// streams the weights and the live KV cache from HBM.
    fn estimate_generation(&self, workload: &Workload, policy: &CachePolicyCost) -> PhaseBreakdown {
        let steps = workload.generation_len as f64;
        if steps == 0.0 {
            return PhaseBreakdown::default();
        }
        let seqs = workload.concurrent_sequences() as f64;
        let live = self.avg_live_cache_tokens(workload, policy);
        let kv_bytes_per_step = self.model.kv_bytes_per_token() as f64 * live * seqs;
        let kv_time = self.accelerator.memory_time(kv_bytes_per_step) * steps;
        let weight_time = self
            .accelerator
            .memory_time(self.model.weight_bytes() as f64)
            * steps;
        // Scaled dot product compute per step.
        let sdp_flops =
            2.0 * (2 * self.model.d_model) as f64 * live * self.model.num_layers as f64 * seqs;
        let sdp = self.accelerator.compute_time(sdp_flops) * steps + kv_time * 0.0;
        let scoring = (sdp + kv_time) * policy.scoring_overhead;
        let other_flops = self.model.flops_per_token(0) * seqs;
        let other = self.accelerator.compute_time(other_flops) * steps
            + self.accelerator.step_overhead_s * steps;
        PhaseBreakdown {
            kv_cache_data_movement_s: kv_time,
            weight_data_movement_s: weight_time,
            scaled_dot_product_s: sdp,
            scoring_overhead_s: scoring,
            other_s: other,
        }
    }

    /// Full estimate for a workload under a cache policy.
    pub fn estimate(&self, workload: &Workload, policy: &CachePolicyCost) -> InferenceEstimate {
        let peak_bytes = self.peak_bytes(workload, policy);
        let fits = self.accelerator.fits(peak_bytes);
        let prompt = self.estimate_prompt(workload);
        let generation = self.estimate_generation(workload, policy);
        let total = prompt.total_s() + generation.total_s();
        let tokens = (workload.generation_len * workload.batch_size) as f64;
        InferenceEstimate {
            prompt,
            generation,
            peak_bytes,
            fits_in_memory: fits,
            tokens_per_second: if fits && total > 0.0 {
                tokens / total
            } else {
                0.0
            },
        }
    }

    /// Largest batch size (powers of two up to `limit`) that fits in HBM for the
    /// workload under the policy; `None` if even batch 1 does not fit.
    pub fn max_batch_size(
        &self,
        workload: &Workload,
        policy: &CachePolicyCost,
        limit: usize,
    ) -> Option<usize> {
        let mut best = None;
        let mut batch = 1;
        while batch <= limit {
            let w = workload.with_batch_size(batch);
            if self.accelerator.fits(self.peak_bytes(&w, policy)) {
                best = Some(batch);
            }
            batch *= 2;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PerfModel {
        PerfModel::paper_default()
    }

    #[test]
    fn latency_grows_superlinearly_with_sequence_length() {
        // Figure 1(a): 512 -> 8k sequence length increases latency by far more than
        // the 16x token count.
        let m = model();
        let policy = CachePolicyCost::full_attention();
        let t512 = m
            .estimate(&Workload::figure1(512), &policy)
            .total_latency_s();
        let t8k = m
            .estimate(&Workload::figure1(8192), &policy)
            .total_latency_s();
        let ratio = t8k / t512;
        assert!(ratio > 20.0, "ratio {ratio}");
    }

    #[test]
    fn kv_data_movement_becomes_a_large_fraction_at_long_context() {
        // Figure 1(a), green bars: KV-cache traffic is a significant share of total
        // time at 8k context.
        let m = model();
        let est = m.estimate(&Workload::figure1(8192), &CachePolicyCost::full_attention());
        let share = est.generation.kv_cache_data_movement_s / est.total_latency_s();
        assert!(share > 0.25, "kv share {share}");
    }

    #[test]
    fn halving_the_cache_speeds_up_decoding() {
        // Figure 9: Keyformer at 50% cache achieves a tangible speedup over full
        // attention at long sequence lengths (the paper's iso-accuracy runs use
        // beam 4, which is what makes the KV traffic dominate).
        let m = model();
        let w = Workload::symmetric(4096).with_beam_size(4);
        let full = m.estimate(&w, &CachePolicyCost::full_attention());
        let kf = m.estimate(&w, &CachePolicyCost::keyformer(0.5));
        let speedup = full.total_latency_s() / kf.total_latency_s();
        assert!(speedup > 1.3 && speedup < 3.5, "speedup {speedup}");
        // KV traffic itself is cut by well over 2x (full attention's cache keeps
        // growing during generation; Keyformer's stays at 50% of the prompt).
        let kv_ratio =
            full.generation.kv_cache_data_movement_s / kf.generation.kv_cache_data_movement_s;
        assert!(kv_ratio > 2.0, "kv ratio {kv_ratio}");
    }

    #[test]
    fn keyformer_scoring_overhead_is_visible_but_small() {
        let m = model();
        let w = Workload::symmetric(4096);
        let kf = m.estimate(&w, &CachePolicyCost::keyformer(0.5));
        assert!(kf.generation.scoring_overhead_s > 0.0);
        assert!(kf.generation.scoring_overhead_s < 0.2 * kf.generation.total_s());
    }

    #[test]
    fn throughput_improves_with_cache_reduction_and_batching() {
        // Table 1: Keyformer at 50% cache beats full attention at the same batch
        // size and enables a larger batch.
        let m = model();
        let w = Workload::symmetric(4096);
        let full = m.estimate(&w, &CachePolicyCost::full_attention());
        let kf = m.estimate(&w, &CachePolicyCost::keyformer(0.5));
        assert!(kf.tokens_per_second > full.tokens_per_second);
        let kf_b2 = m.estimate(&w.with_batch_size(2), &CachePolicyCost::keyformer(0.5));
        assert!(kf_b2.tokens_per_second > kf.tokens_per_second);
    }

    #[test]
    fn oom_behaviour_matches_table_1() {
        // Table 1: 4096+4096 with batch 2 and beam 4 runs out of memory under full
        // attention but fits with Keyformer's 50% cache.
        let m = model();
        let w = Workload::symmetric(4096)
            .with_batch_size(8)
            .with_beam_size(4);
        let full = m.estimate(&w, &CachePolicyCost::full_attention());
        let kf = m.estimate(&w, &CachePolicyCost::keyformer(0.5));
        assert!(!full.fits_in_memory);
        assert!(kf.peak_bytes < full.peak_bytes);
        assert_eq!(full.tokens_per_second, 0.0);
    }

    #[test]
    fn max_batch_size_grows_with_cache_reduction() {
        let m = model();
        let w = Workload::symmetric(4096).with_beam_size(4);
        let full = m.max_batch_size(&w, &CachePolicyCost::full_attention(), 64);
        let kf = m.max_batch_size(&w, &CachePolicyCost::keyformer(0.5), 64);
        assert!(kf.unwrap_or(0) >= 2 * full.unwrap_or(0).max(1));
    }

    #[test]
    fn zero_generation_has_empty_generation_phase() {
        let m = model();
        let w = Workload {
            prompt_len: 1024,
            generation_len: 0,
            batch_size: 1,
            beam_size: 1,
        };
        let est = m.estimate(&w, &CachePolicyCost::full_attention());
        assert_eq!(est.generation.total_s(), 0.0);
        assert!(est.prompt.total_s() > 0.0);
    }
}
