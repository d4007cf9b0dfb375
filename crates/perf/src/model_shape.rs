//! Full-size model shapes used by the performance model.
//!
//! Unlike the laptop-scale substrate in `keyformer-model`, the perf model reasons
//! about the *real* checkpoint dimensions (MPT-7B, GPT-J-6B, Cerebras-GPT-6.7B), so
//! Figures 1, 9, 10 and Table 1 are computed for the same model sizes the paper used.

/// The architectural dimensions that determine memory traffic and FLOPs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelShape {
    /// Human-readable name.
    pub name: &'static str,
    /// Hidden width.
    pub d_model: usize,
    /// Number of decoder layers.
    pub num_layers: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Feed-forward inner width.
    pub d_ff: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Bytes per parameter / activation element (2 for fp16).
    pub bytes_per_element: usize,
}

impl ModelShape {
    /// MPT-7B: 32 layers, d_model 4096, 32 heads (the paper's main perf model).
    pub fn mpt_7b() -> Self {
        ModelShape {
            name: "MPT-7B",
            d_model: 4096,
            num_layers: 32,
            num_heads: 32,
            d_ff: 16384,
            vocab_size: 50432,
            bytes_per_element: 2,
        }
    }

    /// GPT-J-6B: 28 layers, d_model 4096.
    pub fn gpt_j_6b() -> Self {
        ModelShape {
            name: "GPT-J-6B",
            d_model: 4096,
            num_layers: 28,
            num_heads: 16,
            d_ff: 16384,
            vocab_size: 50400,
            bytes_per_element: 2,
        }
    }

    /// Cerebras-GPT-6.7B: 32 layers, d_model 4096.
    pub fn cerebras_gpt_6_7b() -> Self {
        ModelShape {
            name: "Cerebras-GPT-6.7B",
            d_model: 4096,
            num_layers: 32,
            num_heads: 32,
            d_ff: 16384,
            vocab_size: 50257,
            bytes_per_element: 2,
        }
    }

    /// Per-head width.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.num_heads
    }

    /// Total parameter count (decoder weights + embeddings).
    pub fn parameter_count(&self) -> u64 {
        let per_layer = 4 * self.d_model * self.d_model + 2 * self.d_model * self.d_ff;
        (self.num_layers * per_layer + self.vocab_size * self.d_model) as u64
    }

    /// Model weight footprint in bytes.
    pub fn weight_bytes(&self) -> u64 {
        self.parameter_count() * self.bytes_per_element as u64
    }

    /// KV-cache bytes per token per sequence (keys + values across all layers).
    pub fn kv_bytes_per_token(&self) -> u64 {
        (2 * self.num_layers * self.d_model * self.bytes_per_element) as u64
    }

    /// KV-cache bytes for a batch of sequences of the given live length.
    pub fn kv_cache_bytes(&self, live_tokens: usize, batch_size: usize, beam_size: usize) -> u64 {
        self.kv_bytes_per_token() * live_tokens as u64 * batch_size as u64 * beam_size as u64
    }

    /// FLOPs to process one token through the decoder stack (matrix multiplies only),
    /// given `context` live KV slots for the attention term.
    pub fn flops_per_token(&self, context: usize) -> f64 {
        let proj = 2.0 * (4 * self.d_model * self.d_model) as f64;
        let ffn = 2.0 * (2 * self.d_model * self.d_ff) as f64;
        let attn = 2.0 * (2 * self.d_model * context) as f64;
        (self.num_layers as f64) * (proj + ffn + attn)
            + 2.0 * (self.vocab_size * self.d_model) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpt_7b_is_about_seven_billion_parameters() {
        let m = ModelShape::mpt_7b();
        let params = m.parameter_count();
        assert!(
            (6.5e9..8.0e9).contains(&(params as f64)),
            "MPT-7B params {params}"
        );
        // ~13-14 GB of fp16 weights.
        let gb = m.weight_bytes() as f64 / 1e9;
        assert!((12.0..16.0).contains(&gb), "weight GB {gb}");
    }

    #[test]
    fn kv_cache_grows_linearly_and_exceeds_weights_at_long_context() {
        // Figure 1(b): at 8k context with batch 1 beam 4, the MPT-7B KV cache
        // exceeds the model size.
        let m = ModelShape::mpt_7b();
        let kv_8k = m.kv_cache_bytes(8192 * 2, 1, 4);
        assert!(
            kv_8k > m.weight_bytes(),
            "kv {kv_8k} weights {}",
            m.weight_bytes()
        );
        let kv_512 = m.kv_cache_bytes(512, 1, 4);
        assert!(kv_512 < m.weight_bytes() / 10);
        // Linear growth in tokens and batch.
        assert_eq!(m.kv_cache_bytes(100, 2, 1), 2 * m.kv_cache_bytes(100, 1, 1));
        assert_eq!(m.kv_cache_bytes(200, 1, 1), 2 * m.kv_cache_bytes(100, 1, 1));
    }

    #[test]
    fn per_token_kv_bytes_known_value() {
        let m = ModelShape::mpt_7b();
        // 2 (K+V) * 32 layers * 4096 * 2 bytes = 512 KiB per token.
        assert_eq!(m.kv_bytes_per_token(), 524_288);
    }

    #[test]
    fn flops_increase_with_context() {
        let m = ModelShape::gpt_j_6b();
        assert!(m.flops_per_token(8192) > m.flops_per_token(512));
        assert!(m.flops_per_token(512) > 1e9);
        assert_eq!(m.head_dim(), 256);
    }

    #[test]
    fn shapes_are_distinct() {
        assert_ne!(ModelShape::mpt_7b(), ModelShape::gpt_j_6b());
        assert_ne!(ModelShape::gpt_j_6b(), ModelShape::cerebras_gpt_6_7b());
    }
}
