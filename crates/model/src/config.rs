//! Model hyper-parameters.

use crate::positional::PositionalEncoding;
use keyformer_core::CoreError;

/// How cached keys are assigned positions when positional information is applied at
/// attention time — the paper's Table 3 "Org Pos" vs. "New Pos" ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PositionMode {
    /// Keys keep the original position they had in the full sequence (the paper's
    /// best-performing choice).
    #[default]
    Original,
    /// Keys are re-indexed by their slot in the compacted cache.
    Remapped,
}

impl std::fmt::Display for PositionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PositionMode::Original => write!(f, "original"),
            PositionMode::Remapped => write!(f, "remapped"),
        }
    }
}

/// Hyper-parameters of the substrate transformer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Hidden width of the residual stream.
    pub d_model: usize,
    /// Number of decoder layers.
    pub num_layers: usize,
    /// Number of attention heads per layer.
    pub num_heads: usize,
    /// Feed-forward inner width.
    pub d_ff: usize,
    /// Maximum sequence length supported by the positional encoding.
    pub max_seq_len: usize,
    /// Positional-encoding family.
    pub positional: PositionalEncoding,
    /// How cached keys are positioned after eviction.
    pub position_mode: PositionMode,
    /// RoPE position-interpolation scale: positions are multiplied by this factor
    /// before rotation. `1.0` is vanilla RoPE; smaller values preserve content
    /// matches over longer distances (only used by RoPE models).
    pub rope_scale: f32,
    /// Strength of the explicit induction-style copy head that converts attention
    /// over cached tokens into next-token evidence. `0.0` disables it.
    pub copy_strength: f32,
    /// Token ids below this value are treated as structural (BOS, separators, …) and
    /// never receive copy-head votes.
    pub copy_ignore_below: u32,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl ModelConfig {
    /// A small default configuration suitable for tests.
    pub fn tiny() -> Self {
        ModelConfig {
            vocab_size: 128,
            d_model: 32,
            num_layers: 2,
            num_heads: 2,
            d_ff: 64,
            max_seq_len: 512,
            positional: PositionalEncoding::Rope,
            position_mode: PositionMode::Original,
            rope_scale: 1.0,
            copy_strength: 12.0,
            copy_ignore_below: 0,
            seed: 7,
        }
    }

    /// Per-head key/query/value width.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `num_heads`; call
    /// [`ModelConfig::validate`] first for a fallible check.
    pub fn head_dim(&self) -> usize {
        assert!(
            self.num_heads > 0 && self.d_model % self.num_heads == 0,
            "d_model must be divisible by num_heads"
        );
        self.d_model / self.num_heads
    }

    /// Total parameter count of the substrate model (embeddings + per-layer weights),
    /// used for documentation and rough memory accounting.
    pub fn parameter_count(&self) -> usize {
        let embed = self.vocab_size * self.d_model;
        let pos = match self.positional {
            PositionalEncoding::Learned => self.max_seq_len * self.d_model,
            _ => 0,
        };
        let per_layer = 4 * self.d_model * self.d_model // Wq, Wk, Wv, Wo
            + 2 * self.d_model * self.d_ff              // FFN in/out
            + self.d_ff                                  // FFN bias
            + 4 * self.d_model; // two LayerNorms (gain + bias)
        embed + pos + self.num_layers * per_layer
    }

    /// Validates structural constraints.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if any dimension is zero, `d_model` is
    /// not divisible by `num_heads`, or the copy strength is negative.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.vocab_size == 0
            || self.d_model == 0
            || self.num_layers == 0
            || self.num_heads == 0
            || self.d_ff == 0
            || self.max_seq_len == 0
        {
            return Err(CoreError::InvalidConfig(
                "all model dimensions must be non-zero".into(),
            ));
        }
        if self.d_model % self.num_heads != 0 {
            return Err(CoreError::InvalidConfig(format!(
                "d_model {} not divisible by num_heads {}",
                self.d_model, self.num_heads
            )));
        }
        if self.copy_strength < 0.0 {
            return Err(CoreError::InvalidConfig(
                "copy_strength must be non-negative".into(),
            ));
        }
        if !(self.rope_scale > 0.0 && self.rope_scale <= 1.0) {
            return Err(CoreError::InvalidConfig(
                "rope_scale must be in (0, 1]".into(),
            ));
        }
        Ok(())
    }

    /// Replaces the positional-encoding family.
    pub fn with_positional(mut self, positional: PositionalEncoding) -> Self {
        self.positional = positional;
        self
    }

    /// Replaces the position mode (Table 3 ablation).
    pub fn with_position_mode(mut self, mode: PositionMode) -> Self {
        self.position_mode = mode;
        self
    }

    /// Replaces the weight seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_config_is_valid() {
        let c = ModelConfig::tiny();
        assert!(c.validate().is_ok());
        assert_eq!(c.head_dim(), 16);
        assert!(c.parameter_count() > 0);
    }

    #[test]
    fn validation_catches_bad_dimensions() {
        let mut c = ModelConfig::tiny();
        c.d_model = 31;
        assert!(c.validate().is_err());
        let mut c = ModelConfig::tiny();
        c.num_layers = 0;
        assert!(c.validate().is_err());
        let mut c = ModelConfig::tiny();
        c.copy_strength = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn learned_positions_add_parameters() {
        let rope = ModelConfig::tiny();
        let learned = ModelConfig::tiny().with_positional(PositionalEncoding::Learned);
        assert!(learned.parameter_count() > rope.parameter_count());
    }

    #[test]
    fn builders_compose() {
        let c = ModelConfig::tiny()
            .with_positional(PositionalEncoding::Alibi)
            .with_position_mode(PositionMode::Remapped)
            .with_seed(99);
        assert_eq!(c.positional, PositionalEncoding::Alibi);
        assert_eq!(c.position_mode, PositionMode::Remapped);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn position_mode_display_and_default() {
        assert_eq!(PositionMode::default(), PositionMode::Original);
        assert_eq!(PositionMode::Original.to_string(), "original");
        assert_eq!(PositionMode::Remapped.to_string(), "remapped");
    }
}
