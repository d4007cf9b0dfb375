//! The decoder-only transformer model.

use crate::config::ModelConfig;
use crate::positional::PositionalEncoding;
use crate::weights::ModelWeights;
use keyformer_core::block::{SharedBlockPool, DEFAULT_BLOCK_SIZE};
use keyformer_core::cache::{KvCache, KvDtype};
use keyformer_core::CoreError;

/// A decoder-only transformer with constructed weights (see [`crate::weights`]).
#[derive(Debug, Clone)]
pub struct TransformerModel {
    config: ModelConfig,
    weights: ModelWeights,
}

impl TransformerModel {
    /// Builds a model from a configuration; weights are a deterministic function of
    /// `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: ModelConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let weights = ModelWeights::build(&config);
        Ok(TransformerModel { config, weights })
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The model weights (read-only).
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// Creates an empty KV cache with this model's shape, backed by a private
    /// unbounded block pool.
    pub fn empty_cache(&self) -> KvCache {
        KvCache::new(
            self.config.num_layers,
            self.config.num_heads,
            self.config.head_dim(),
        )
    }

    /// Creates an empty KV cache with this model's shape storing sealed blocks
    /// at `dtype`, backed by a private unbounded block pool.
    pub fn empty_cache_dtype(&self, dtype: KvDtype) -> KvCache {
        self.empty_cache_in_dtype(SharedBlockPool::unbounded(DEFAULT_BLOCK_SIZE), dtype)
    }

    /// Creates an empty KV cache with this model's shape whose layers allocate
    /// from `pool` — how the serving layer makes every session contend for one
    /// shared, bounded block pool.
    pub fn empty_cache_in(&self, pool: SharedBlockPool) -> KvCache {
        self.empty_cache_in_dtype(pool, KvDtype::F32)
    }

    /// Creates an empty KV cache allocating from `pool` with sealed blocks
    /// stored at `dtype` — the constructor behind the serving layer's
    /// per-request KV-dtype knob.
    pub fn empty_cache_in_dtype(&self, pool: SharedBlockPool, dtype: KvDtype) -> KvCache {
        KvCache::with_pool_dtype(
            self.config.num_layers,
            self.config.num_heads,
            self.config.head_dim(),
            pool,
            dtype,
        )
    }

    /// Embeds a token at a sequence position into a reused buffer, adding the
    /// learned position embedding when the model uses
    /// [`PositionalEncoding::Learned`].
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn embed_into(&self, token: u32, position: usize, out: &mut Vec<f32>) {
        let token = token as usize;
        assert!(
            token < self.config.vocab_size,
            "token {token} outside vocabulary of {}",
            self.config.vocab_size
        );
        out.clear();
        // The embedding is column `token` of the `(d_model, vocab_size)` table.
        out.extend(self.weights.embedding.iter_rows().map(|row| row[token]));
        if self.config.positional == PositionalEncoding::Learned {
            let pos = position.min(self.weights.position_embedding.rows().saturating_sub(1));
            for (xi, pi) in out.iter_mut().zip(self.weights.position_embedding.row(pos)) {
                *xi += pi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ForwardContext;
    use crate::workspace::{forward_chunk_ws, with_chunk_scratch, ForwardWorkspace};
    use keyformer_core::observation::Phase;
    use keyformer_core::policies::full::FullAttention;

    /// The next-token logits after `tokens` and the cache they leave, from
    /// the product forward (the whole sequence as one chunk) and from the
    /// reference forward (token by token), in that order.
    fn forward_sequence(model: &TransformerModel, tokens: &[u32]) -> [(Vec<f32>, KvCache); 2] {
        let mut product_cache = model.empty_cache();
        let mut ws = ForwardWorkspace::new(model.config(), product_cache.block_size());
        let mut product = Vec::new();
        with_chunk_scratch(|chunk| {
            forward_chunk_ws(
                model,
                tokens,
                0,
                &mut product_cache,
                tokens,
                &mut ws,
                chunk,
                true,
                &mut product,
                1,
            )
        })
        .unwrap();

        let mut cache = model.empty_cache();
        let mut policy = FullAttention::new();
        let mut logits = Vec::new();
        for (pos, &tok) in tokens.iter().enumerate() {
            let mut ctx = ForwardContext {
                cache: &mut cache,
                policy: &mut policy,
                sequence: &tokens[..=pos],
                phase: Phase::Prompt,
                step: pos,
                total_steps: 8,
            };
            logits = model.forward_token(tok, pos, &mut ctx).unwrap();
        }
        [(product, product_cache), (logits, cache)]
    }

    fn embedded(model: &TransformerModel, token: u32, position: usize) -> Vec<f32> {
        let mut out = Vec::new();
        model.embed_into(token, position, &mut out);
        out
    }

    #[test]
    fn construction_validates_config() {
        assert!(TransformerModel::new(ModelConfig::tiny()).is_ok());
        let mut bad = ModelConfig::tiny();
        bad.d_model = 31;
        assert!(TransformerModel::new(bad).is_err());
    }

    #[test]
    fn forward_produces_vocab_sized_logits_and_fills_cache() {
        let model = TransformerModel::new(ModelConfig::tiny()).unwrap();
        let tokens = [3u32, 17, 42, 9];
        let [product, reference] = forward_sequence(&model, &tokens);
        for (logits, cache) in [&product, &reference] {
            assert_eq!(logits.len(), model.config().vocab_size);
            assert!(logits.iter().all(|x| x.is_finite()));
            assert_eq!(cache.num_layers(), model.config().num_layers);
            assert!(cache.iter().all(|layer| layer.positions() == [0, 1, 2, 3]));
        }
        let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&product.0), bits(&reference.0));
    }

    #[test]
    fn copy_head_promotes_successor_of_repeated_token() {
        // Classic induction pattern: ... A B ... A -> the model should prefer B.
        let model = TransformerModel::new(ModelConfig::tiny()).unwrap();
        let a = 11u32;
        let b = 87u32;
        let tokens = [5u32, a, b, 23, 61, 40, 19, a];
        for (logits, _) in forward_sequence(&model, &tokens) {
            let b_rank = logits.iter().filter(|&&x| x > logits[b as usize]).count();
            assert!(
                b_rank < 10,
                "successor token should rank near the top, rank {b_rank}"
            );
        }
    }

    #[test]
    fn copy_head_can_be_disabled() {
        let mut config = ModelConfig::tiny();
        config.copy_strength = 0.0;
        let with_copy = TransformerModel::new(ModelConfig::tiny()).unwrap();
        let without_copy = TransformerModel::new(config).unwrap();
        let tokens = [5u32, 11, 87, 23, 11];
        let l1 = forward_sequence(&with_copy, &tokens);
        let l2 = forward_sequence(&without_copy, &tokens);
        for (a, b) in l1.iter().zip(&l2) {
            assert_ne!(a.0, b.0);
        }
    }

    #[test]
    fn embed_respects_positional_family() {
        let rope = TransformerModel::new(ModelConfig::tiny()).unwrap();
        let learned =
            TransformerModel::new(ModelConfig::tiny().with_positional(PositionalEncoding::Learned))
                .unwrap();
        // RoPE models embed tokens position-independently.
        assert_eq!(embedded(&rope, 3, 0), embedded(&rope, 3, 10));
        // Learned-position models do not.
        assert_ne!(embedded(&learned, 3, 0), embedded(&learned, 3, 10));
    }

    /// The product embedding equals the reference forward's, with a reused
    /// buffer across calls.
    #[test]
    fn embed_into_matches_embed() {
        for config in [
            ModelConfig::tiny(),
            ModelConfig::tiny().with_positional(PositionalEncoding::Learned),
        ] {
            let model = TransformerModel::new(config).unwrap();
            let mut buf = Vec::new();
            for (token, position) in [(3u32, 0usize), (17, 5), (90, 600)] {
                model.embed_into(token, position, &mut buf);
                assert_eq!(buf, model.embed(token, position));
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn embedding_out_of_vocab_panics() {
        let model = TransformerModel::new(ModelConfig::tiny()).unwrap();
        embedded(&model, 10_000, 0);
    }

    #[test]
    fn empty_cache_matches_model_shape() {
        let model = TransformerModel::new(ModelConfig::tiny()).unwrap();
        let cache = model.empty_cache();
        assert_eq!(cache.num_layers(), model.config().num_layers);
        assert_eq!(cache.layer(0).num_heads(), model.config().num_heads);
        assert_eq!(cache.layer(0).head_dim(), model.config().head_dim());
    }
}
