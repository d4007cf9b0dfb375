//! The reference forward pass, compiled into test builds only.
//!
//! A token-at-a-time forward that shares no buffer or batching with the
//! product: it embeds one token, runs it through every decoder layer
//! (`decoder::decoder_layer_forward`, whose attention is
//! `attention::attend_single_query`), allocates every buffer it needs, hands
//! each attention-logit row to the policy the moment it exists and records
//! statistics directly. The product forward
//! ([`crate::workspace::forward_chunk_ws`]) batches a whole chunk per layer
//! over reused buffers and replays the observations afterwards; the unit
//! tests prove it byte-identical to this pass, which a session switches to
//! through its test-only `reference_forward` seam.

use crate::attention::AttentionContext;
use crate::decoder::decoder_layer_forward;
use crate::model::TransformerModel;
use crate::positional::PositionalEncoding;
use crate::stats::AttentionStats;
use keyformer_core::cache::KvCache;
use keyformer_core::observation::Phase;
use keyformer_core::policy::KvCachePolicy;
use keyformer_core::CoreError;
use keyformer_tensor::ops::layer_norm;

const LN_EPS: f32 = 1e-5;

/// Mutable state threaded through a single-token forward pass.
pub(crate) struct ForwardContext<'a> {
    /// KV cache being filled/read.
    pub cache: &'a mut KvCache,
    /// Eviction policy observing attention.
    pub policy: &'a mut dyn KvCachePolicy,
    /// Optional statistics collector.
    pub stats: Option<&'a mut AttentionStats>,
    /// Full token history of the sequence so far, *including* the token currently
    /// being processed (used by the copy head to resolve successor tokens).
    pub sequence: &'a [u32],
    /// Phase of this step.
    pub phase: Phase,
    /// Decode step within the phase.
    pub step: usize,
    /// Planned generation length `T`.
    pub total_steps: usize,
}

impl TransformerModel {
    /// Embeds a token at a sequence position (adding the learned position embedding
    /// when the model uses [`PositionalEncoding::Learned`]).
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub(crate) fn embed(&self, token: u32, position: usize) -> Vec<f32> {
        let config = self.config();
        let weights = self.weights();
        let token = token as usize;
        assert!(
            token < config.vocab_size,
            "token {token} outside vocabulary of {}",
            config.vocab_size
        );
        let mut x = weights.embedding.row(token).to_vec();
        if config.positional == PositionalEncoding::Learned {
            let pos = position.min(weights.position_embedding.rows().saturating_sub(1));
            for (xi, pi) in x.iter_mut().zip(weights.position_embedding.row(pos)) {
                *xi += pi;
            }
        }
        x
    }

    /// Runs one token through the full decoder stack, appending its keys/values to
    /// the cache and returning next-token logits over the vocabulary.
    ///
    /// The returned logits combine the usual tied-embedding readout with the
    /// induction-style copy head: attention mass on a cached slot whose original
    /// position was `p` contributes evidence for the token that followed position `p`
    /// in the full sequence history (`ctx.sequence[p + 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on shape mismatches.
    pub(crate) fn forward_token(
        &self,
        token: u32,
        position: usize,
        ctx: &mut ForwardContext<'_>,
    ) -> Result<Vec<f32>, CoreError> {
        let config = self.config();
        let weights = self.weights();
        let mut hidden = self.embed(token, position);
        // The copy head is an explicit induction head: attention mass on a
        // *historical* slot (the current token's own slot is excluded) votes for the
        // token that followed that slot in the original sequence. Votes are gathered
        // from every layer using that layer's own retained slots, so layers that
        // evicted different tokens contribute different evidence.
        let mut copy_votes = vec![0.0f32; config.vocab_size];
        let mut copy_total = 0.0f32;
        for layer in 0..config.num_layers {
            let mut attn_ctx = AttentionContext {
                policy: &mut *ctx.policy,
                stats: ctx.stats.as_deref_mut(),
                phase: ctx.phase,
                step: ctx.step,
                total_steps: ctx.total_steps,
            };
            let out = decoder_layer_forward(
                config,
                &weights.layers[layer],
                layer,
                &hidden,
                position,
                ctx.cache.layer_mut(layer),
                &mut attn_ctx,
            )?;
            hidden = out.hidden;
            if config.copy_strength > 0.0 {
                let positions = ctx.cache.layer(layer).positions();
                for (&slot_pos, &prob) in positions.iter().zip(&out.mean_probs) {
                    if slot_pos == position {
                        continue;
                    }
                    if let Some(&successor) = ctx.sequence.get(slot_pos + 1) {
                        if successor < config.copy_ignore_below {
                            continue;
                        }
                        let idx = successor as usize;
                        if idx < copy_votes.len() {
                            copy_votes[idx] += prob;
                            copy_total += prob;
                        }
                    }
                }
            }
        }

        let final_hidden = layer_norm(
            &hidden,
            &weights.final_ln_gain,
            &weights.final_ln_bias,
            LN_EPS,
        );
        let mut logits = weights
            .embedding
            .matvec(&final_hidden)
            .expect("embedding readout shape");

        if config.copy_strength > 0.0 && copy_total > 1e-6 {
            for (logit, vote) in logits.iter_mut().zip(&copy_votes) {
                if *vote > 0.0 {
                    *logit += config.copy_strength * vote / copy_total;
                }
            }
        }
        Ok(logits)
    }
}
