//! Laptop-scale stand-ins for the paper's three model families.
//!
//! The paper evaluates GPT-J-6B (RoPE), Cerebras-GPT-6.7B (learned position
//! embeddings) and MPT-7B (ALiBi). The reproduction keeps the property the paper
//! actually varies — the positional-encoding family — while shrinking every other
//! dimension to something that runs on a laptop (see DESIGN.md).

use crate::config::ModelConfig;
use crate::model::TransformerModel;
use crate::positional::PositionalEncoding;

/// The model families used across the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Minimal configuration for unit tests.
    Tiny,
    /// GPT-J-like: rotary position embeddings.
    GptJLike,
    /// Cerebras-GPT-like: learned absolute position embeddings.
    CerebrasLike,
    /// MPT-like: ALiBi attention biases.
    MptLike,
    /// MPT-storywriter-like: ALiBi with a much longer supported context, used for the
    /// long-document experiments (Figure 8).
    MptStorywriterLike,
}

impl ModelFamily {
    /// All three paper families (excluding the test-only `Tiny` and the long-context
    /// storywriter variant).
    pub fn paper_families() -> [ModelFamily; 3] {
        [
            ModelFamily::GptJLike,
            ModelFamily::CerebrasLike,
            ModelFamily::MptLike,
        ]
    }

    /// Human-readable label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            ModelFamily::Tiny => "tiny",
            ModelFamily::GptJLike => "GPT-J-like (RoPE)",
            ModelFamily::CerebrasLike => "Cerebras-GPT-like (learned)",
            ModelFamily::MptLike => "MPT-like (ALiBi)",
            ModelFamily::MptStorywriterLike => "MPT-storywriter-like (ALiBi, long context)",
        }
    }

    /// The positional-encoding family this model uses.
    pub fn positional(&self) -> PositionalEncoding {
        match self {
            ModelFamily::Tiny | ModelFamily::GptJLike => PositionalEncoding::Rope,
            ModelFamily::CerebrasLike => PositionalEncoding::Learned,
            ModelFamily::MptLike | ModelFamily::MptStorywriterLike => PositionalEncoding::Alibi,
        }
    }

    /// The laptop-scale configuration of this family.
    pub fn config(&self, seed: u64) -> ModelConfig {
        let base = ModelConfig {
            vocab_size: 1024,
            d_model: 128,
            num_layers: 4,
            num_heads: 4,
            d_ff: 256,
            max_seq_len: 4096,
            positional: self.positional(),
            position_mode: crate::config::PositionMode::Original,
            // RoPE position interpolation keeps long-range content matches sharp at
            // the sequence lengths the experiments use.
            rope_scale: 1.0 / 256.0,
            copy_strength: 12.0,
            // The synthetic vocabulary reserves ids 0..16 for structural tokens.
            copy_ignore_below: 16,
            seed,
        };
        match self {
            ModelFamily::Tiny => ModelConfig {
                vocab_size: 128,
                d_model: 32,
                num_layers: 2,
                num_heads: 2,
                d_ff: 64,
                max_seq_len: 512,
                rope_scale: 1.0,
                copy_ignore_below: 0,
                ..base
            },
            ModelFamily::MptStorywriterLike => ModelConfig {
                max_seq_len: 16_384,
                ..base
            },
            _ => base,
        }
    }

    /// Builds the model for this family with the given weight seed.
    ///
    /// # Panics
    ///
    /// Never panics for the built-in configurations; they are all valid.
    pub fn build(&self, seed: u64) -> TransformerModel {
        TransformerModel::new(self.config(seed)).expect("built-in family config is valid")
    }
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_build_valid_models() {
        for family in [
            ModelFamily::Tiny,
            ModelFamily::GptJLike,
            ModelFamily::CerebrasLike,
            ModelFamily::MptLike,
            ModelFamily::MptStorywriterLike,
        ] {
            let model = family.build(11);
            assert!(model.config().validate().is_ok(), "{family}");
            assert_eq!(model.config().positional, family.positional());
        }
    }

    #[test]
    fn paper_families_cover_all_three_encodings() {
        let encodings: Vec<PositionalEncoding> = ModelFamily::paper_families()
            .iter()
            .map(|f| f.positional())
            .collect();
        assert!(encodings.contains(&PositionalEncoding::Rope));
        assert!(encodings.contains(&PositionalEncoding::Learned));
        assert!(encodings.contains(&PositionalEncoding::Alibi));
    }

    #[test]
    fn storywriter_supports_longer_context() {
        assert!(
            ModelFamily::MptStorywriterLike.config(0).max_seq_len
                > ModelFamily::MptLike.config(0).max_seq_len
        );
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> = [
            ModelFamily::Tiny,
            ModelFamily::GptJLike,
            ModelFamily::CerebrasLike,
            ModelFamily::MptLike,
            ModelFamily::MptStorywriterLike,
        ]
        .iter()
        .map(|f| f.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }
}
