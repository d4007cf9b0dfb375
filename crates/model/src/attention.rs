//! Single-query multi-head attention over a policy-managed KV cache.
//!
//! This is the code path every experiment exercises: the current token's query
//! attends over whatever slots the eviction policy has allowed to survive, the
//! unnormalized logits are reported to the policy (so it can score tokens).

use crate::config::{ModelConfig, PositionMode};
use crate::positional::{
    alibi_bias, alibi_slope, apply_rope_scaled, PositionalEncoding, ROPE_BASE,
};
use keyformer_core::cache::LayerKvCache;
use keyformer_core::observation::{AttentionObservation, Phase};
use keyformer_core::policy::KvCachePolicy;
use keyformer_tensor::ops::softmax;
use keyformer_tensor::vector::dot;

/// Result of one layer's attention over the cache for a single query token.
#[derive(Debug, Clone)]
pub struct AttentionOutput {
    /// Concatenated per-head context vectors (`d_model` long).
    pub context: Vec<f32>,
    /// Attention probabilities averaged over heads, per live cache slot. Used by the
    /// copy head and by diagnostics.
    pub mean_probs: Vec<f32>,
}

/// Execution context threaded through an attention call.
pub struct AttentionContext<'a> {
    /// Eviction policy observing the logits.
    pub policy: &'a mut dyn KvCachePolicy,
    /// Inference phase of the current step.
    pub phase: Phase,
    /// Decode step within the phase.
    pub step: usize,
    /// Planned generation length `T`.
    pub total_steps: usize,
}

/// Computes multi-head attention of a single query over a layer's KV cache.
///
/// `query` is the full `d_model`-wide query vector (already projected by `W_q`);
/// it is split into `num_heads` contiguous chunks. Keys are stored unrotated in the
/// cache; positional information (RoPE rotation or ALiBi bias) is applied here using
/// either the slots' original positions or their compacted indices, depending on
/// `config.position_mode`.
///
/// # Panics
///
/// Panics if the cache is empty or its head shape disagrees with `config`.
pub fn attend_single_query(
    config: &ModelConfig,
    layer: usize,
    query: &[f32],
    query_position: usize,
    cache: &LayerKvCache,
    ctx: &mut AttentionContext<'_>,
) -> AttentionOutput {
    let num_heads = config.num_heads;
    let head_dim = config.head_dim();
    assert!(
        !cache.is_empty(),
        "attention requires at least one cached slot"
    );
    assert_eq!(cache.num_heads(), num_heads, "cache head count mismatch");
    assert_eq!(cache.head_dim(), head_dim, "cache head dim mismatch");

    let live = cache.len();
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut context = vec![0.0f32; config.d_model];
    let mut mean_probs = vec![0.0f32; live];

    // Effective key positions under the configured position mode.
    let key_positions: Vec<usize> = match config.position_mode {
        PositionMode::Original => cache.positions().to_vec(),
        PositionMode::Remapped => (0..live).collect(),
    };
    let effective_query_pos = match config.position_mode {
        PositionMode::Original => query_position,
        // Under remapping the query sits immediately after the compacted cache.
        PositionMode::Remapped => live.saturating_sub(1),
    };

    let (mut k, mut scratch) = (vec![0.0f32; head_dim], vec![0.0f32; head_dim]);
    for head in 0..num_heads {
        let mut q_head: Vec<f32> = query[head * head_dim..(head + 1) * head_dim].to_vec();
        if config.positional == PositionalEncoding::Rope {
            apply_rope_scaled(
                &mut q_head,
                effective_query_pos as f32 * config.rope_scale,
                ROPE_BASE,
            );
        }
        let slope = alibi_slope(head, num_heads);
        let keys = cache.keys(head);
        let mut logits = Vec::with_capacity(live);
        for (slot, &k_pos) in key_positions.iter().enumerate().take(live) {
            keys.copy_row_into(slot, &mut k);
            let mut logit = match config.positional {
                PositionalEncoding::Rope => {
                    apply_rope_scaled(&mut k, k_pos as f32 * config.rope_scale, ROPE_BASE);
                    dot(&q_head, &k) * scale
                }
                PositionalEncoding::Alibi | PositionalEncoding::Learned => dot(&q_head, &k) * scale,
            };
            if config.positional == PositionalEncoding::Alibi {
                logit += alibi_bias(slope, effective_query_pos, k_pos);
            }
            logits.push(logit);
        }

        ctx.policy.observe(&AttentionObservation {
            layer,
            head,
            phase: ctx.phase,
            step: ctx.step,
            total_steps: ctx.total_steps,
            logits: &logits,
        });

        let probs = softmax(&logits);

        cache
            .values(head)
            .vecmat_into(
                &probs,
                &mut context[head * head_dim..(head + 1) * head_dim],
                &mut scratch,
            )
            .expect("value matrix shape mismatch");
        for (m, &p) in mean_probs.iter_mut().zip(&probs) {
            *m += p / num_heads as f32;
        }
    }

    AttentionOutput {
        context,
        mean_probs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyformer_core::policies::full::FullAttention;

    fn filled_cache(config: &ModelConfig, token_embeddings: &[Vec<f32>]) -> LayerKvCache {
        let head_dim = config.head_dim();
        let mut cache = LayerKvCache::new(config.num_heads, head_dim);
        for (pos, emb) in token_embeddings.iter().enumerate() {
            cache.append_from_slices(pos, emb, emb).unwrap();
        }
        cache
    }

    fn unit(config: &ModelConfig, hot: usize) -> Vec<f32> {
        let mut v = vec![0.0; config.d_model];
        v[hot] = 1.0;
        v
    }

    #[test]
    fn attends_to_matching_key() {
        let config = ModelConfig {
            positional: PositionalEncoding::Learned,
            ..ModelConfig::tiny()
        };
        // Three cached tokens; the query matches token 1 exactly.
        let cache = filled_cache(
            &config,
            &[unit(&config, 0), unit(&config, 5), unit(&config, 9)],
        );
        let mut policy = FullAttention::new();
        let mut ctx = AttentionContext {
            policy: &mut policy,
            phase: Phase::Prompt,
            step: 0,
            total_steps: 1,
        };
        let query: Vec<f32> = unit(&config, 5).iter().map(|x| x * 8.0).collect();
        let out = attend_single_query(&config, 0, &query, 2, &cache, &mut ctx);
        let best = keyformer_tensor::vector::argmax(&out.mean_probs).unwrap();
        assert_eq!(best, 1, "query should attend to the matching cached token");
        assert_eq!(out.context.len(), config.d_model);
        let total: f32 = out.mean_probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
    }

    #[test]
    fn alibi_biases_towards_recent_tokens() {
        let config = ModelConfig {
            positional: PositionalEncoding::Alibi,
            ..ModelConfig::tiny()
        };
        // All keys identical, so only the ALiBi distance penalty differentiates them.
        let cache = filled_cache(&config, &vec![unit(&config, 3); 6]);
        let mut policy = FullAttention::new();
        let mut ctx = AttentionContext {
            policy: &mut policy,
            phase: Phase::Generation,
            step: 0,
            total_steps: 1,
        };
        let out = attend_single_query(&config, 0, &unit(&config, 3), 6, &cache, &mut ctx);
        assert!(
            out.mean_probs[5] > out.mean_probs[0],
            "ALiBi should favour the most recent identical key: {:?}",
            out.mean_probs
        );
    }

    #[test]
    fn rope_respects_position_mode() {
        let config = ModelConfig {
            positional: PositionalEncoding::Rope,
            ..ModelConfig::tiny()
        };
        let remapped = ModelConfig {
            position_mode: PositionMode::Remapped,
            ..config
        };
        let cache = {
            let mut c = filled_cache(
                &config,
                &[
                    unit(&config, 1),
                    unit(&config, 2),
                    unit(&config, 1),
                    unit(&config, 4),
                ],
            );
            // Simulate an eviction that removed slot 1: original positions {0, 2, 3}.
            c.retain_slots(&[0, 2, 3]).unwrap();
            c
        };
        let mut policy = FullAttention::new();
        let query = unit(&config, 1);
        let run = |cfg: &ModelConfig, policy: &mut FullAttention| {
            let mut ctx = AttentionContext {
                policy,
                phase: Phase::Generation,
                step: 0,
                total_steps: 1,
            };
            attend_single_query(cfg, 0, &query, 4, &cache, &mut ctx).mean_probs
        };
        let original = run(&config, &mut policy);
        let remapped_probs = run(&remapped, &mut policy);
        // The two position modes must produce different attention patterns once the
        // cache has holes in its original positions.
        let diff: f32 = original
            .iter()
            .zip(&remapped_probs)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff > 1e-4,
            "position mode had no effect: {original:?} vs {remapped_probs:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one cached slot")]
    fn empty_cache_panics() {
        let config = ModelConfig::tiny();
        let cache = LayerKvCache::new(config.num_heads, config.head_dim());
        let mut policy = FullAttention::new();
        let mut ctx = AttentionContext {
            policy: &mut policy,
            phase: Phase::Prompt,
            step: 0,
            total_steps: 1,
        };
        attend_single_query(&config, 0, &vec![0.0; config.d_model], 0, &cache, &mut ctx);
    }
}
