//! A single decoder layer: pre-norm attention + feed-forward, both residual.

use crate::attention::{attend_single_query, AttentionContext, AttentionOutput};
use crate::config::ModelConfig;
use crate::weights::LayerWeights;
use keyformer_core::cache::LayerKvCache;
use keyformer_core::CoreError;
use keyformer_tensor::ops::{gelu_in_place, layer_norm};

const LN_EPS: f32 = 1e-5;

/// Output of one decoder layer for a single token.
#[derive(Debug, Clone)]
pub struct LayerOutput {
    /// Updated residual stream (`d_model`).
    pub hidden: Vec<f32>,
    /// Attention probabilities averaged over heads (per live cache slot), surfaced
    /// for the copy head when this is the final layer.
    pub mean_probs: Vec<f32>,
}

/// Runs one decoder layer for a single token.
///
/// The layer projects the (pre-norm) hidden state to q/k/v (each a
/// [`keyformer_tensor::Matrix::vecmat`] over the stored `(d_in, d_out)`
/// weight), appends k/v to the
/// layer's KV cache, attends over the cache (reporting logits to the policy), applies
/// the output projection and the feed-forward block, and returns the updated residual
/// stream.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if the hidden state width does not match the
/// model configuration.
pub fn decoder_layer_forward(
    config: &ModelConfig,
    weights: &LayerWeights,
    layer: usize,
    hidden: &[f32],
    position: usize,
    cache: &mut LayerKvCache,
    ctx: &mut AttentionContext<'_>,
) -> Result<LayerOutput, CoreError> {
    if hidden.len() != config.d_model {
        return Err(CoreError::InvalidConfig(format!(
            "hidden state width {} does not match d_model {}",
            hidden.len(),
            config.d_model
        )));
    }

    // Pre-norm attention block.
    let normed = layer_norm(hidden, &weights.ln1_gain, &weights.ln1_bias, LN_EPS);
    let q = weights.wq.vecmat(&normed).expect("wq shape");
    let k = weights.wk.vecmat(&normed).expect("wk shape");
    let v = weights.wv.vecmat(&normed).expect("wv shape");
    cache.append_from_slices(position, &k, &v)?;

    let AttentionOutput {
        context,
        mean_probs,
    } = attend_single_query(config, layer, &q, position, cache, ctx);
    let attn_out = weights.wo.vecmat(&context).expect("wo shape");
    let mut hidden_after_attn: Vec<f32> =
        hidden.iter().zip(&attn_out).map(|(a, b)| a + b).collect();

    // Pre-norm feed-forward block.
    let normed2 = layer_norm(
        &hidden_after_attn,
        &weights.ln2_gain,
        &weights.ln2_bias,
        LN_EPS,
    );
    let mut inner = weights.ffn_in.vecmat(&normed2).expect("ffn_in shape");
    gelu_in_place(&mut inner);
    let ffn_out = weights.ffn_out.vecmat(&inner).expect("ffn_out shape");
    for (h, f) in hidden_after_attn.iter_mut().zip(&ffn_out) {
        *h += f;
    }

    Ok(LayerOutput {
        hidden: hidden_after_attn,
        mean_probs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::ModelWeights;
    use keyformer_core::observation::Phase;
    use keyformer_core::policies::full::FullAttention;

    fn setup() -> (ModelConfig, ModelWeights) {
        let config = ModelConfig::tiny();
        let weights = ModelWeights::build(&config);
        (config, weights)
    }

    #[test]
    fn forward_appends_to_cache_and_updates_hidden() {
        let (config, weights) = setup();
        let mut cache = LayerKvCache::new(config.num_heads, config.head_dim());
        let mut policy = FullAttention::new();
        let mut ctx = AttentionContext {
            policy: &mut policy,
            stats: None,
            phase: Phase::Prompt,
            step: 0,
            total_steps: 4,
        };
        let hidden = vec![0.1; config.d_model];
        let out = decoder_layer_forward(
            &config,
            &weights.layers[0],
            0,
            &hidden,
            0,
            &mut cache,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(out.hidden.len(), config.d_model);
        assert_eq!(out.mean_probs.len(), 1);
        assert!((out.mean_probs[0] - 1.0).abs() < 1e-5);
        assert!(out.hidden.iter().any(|&x| (x - 0.1).abs() > 1e-6));
    }

    #[test]
    fn repeated_tokens_accumulate_slots() {
        let (config, weights) = setup();
        let mut cache = LayerKvCache::new(config.num_heads, config.head_dim());
        let mut policy = FullAttention::new();
        for pos in 0..5 {
            let mut ctx = AttentionContext {
                policy: &mut policy,
                stats: None,
                phase: Phase::Prompt,
                step: pos,
                total_steps: 8,
            };
            let hidden = vec![0.05 * (pos as f32 + 1.0); config.d_model];
            decoder_layer_forward(
                &config,
                &weights.layers[0],
                0,
                &hidden,
                pos,
                &mut cache,
                &mut ctx,
            )
            .unwrap();
        }
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.positions(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn rejects_wrong_hidden_width() {
        let (config, weights) = setup();
        let mut cache = LayerKvCache::new(config.num_heads, config.head_dim());
        let mut policy = FullAttention::new();
        let mut ctx = AttentionContext {
            policy: &mut policy,
            stats: None,
            phase: Phase::Prompt,
            step: 0,
            total_steps: 1,
        };
        let result = decoder_layer_forward(
            &config,
            &weights.layers[0],
            0,
            &[0.0; 3],
            0,
            &mut cache,
            &mut ctx,
        );
        assert!(result.is_err());
    }

    #[test]
    fn output_is_deterministic() {
        let (config, weights) = setup();
        let run = || {
            let mut cache = LayerKvCache::new(config.num_heads, config.head_dim());
            let mut policy = FullAttention::new();
            let mut ctx = AttentionContext {
                policy: &mut policy,
                stats: None,
                phase: Phase::Prompt,
                step: 0,
                total_steps: 1,
            };
            decoder_layer_forward(
                &config,
                &weights.layers[1],
                1,
                &vec![0.2; config.d_model],
                0,
                &mut cache,
                &mut ctx,
            )
            .unwrap()
            .hidden
        };
        assert_eq!(run(), run());
    }
}
