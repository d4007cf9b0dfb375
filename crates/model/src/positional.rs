//! Positional-encoding families: RoPE (GPT-J), ALiBi (MPT), learned (Cerebras-GPT).

use serde::{Deserialize, Serialize};

/// The positional-encoding family of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PositionalEncoding {
    /// Rotary position embeddings applied to queries and keys at attention time
    /// (used by GPT-J).
    Rope,
    /// Attention with Linear Biases: a per-head distance penalty added to the logits
    /// (used by MPT).
    Alibi,
    /// Learned absolute position embeddings added to the token embeddings
    /// (used by Cerebras-GPT).
    Learned,
}

impl std::fmt::Display for PositionalEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PositionalEncoding::Rope => write!(f, "rope"),
            PositionalEncoding::Alibi => write!(f, "alibi"),
            PositionalEncoding::Learned => write!(f, "learned"),
        }
    }
}

/// Applies rotary position embedding to a query/key vector in place.
///
/// Dimension pairs `(2i, 2i+1)` are rotated by `position * theta_i` with
/// `theta_i = base^(-2i/d)`, the standard RoPE formulation. Odd trailing dimensions
/// are left untouched.
pub fn apply_rope(vector: &mut [f32], position: usize, base: f32) {
    apply_rope_scaled(vector, position as f32, base);
}

/// [`apply_rope`] with a fractional (already-scaled) position.
///
/// The substrate models use RoPE *position interpolation*: positions are multiplied
/// by a scale < 1 before rotation so that content matches over long distances are not
/// washed out by high-frequency rotation. This mirrors the position-interpolation
/// technique used to extend the context of real RoPE models.
pub fn apply_rope_scaled(vector: &mut [f32], position: f32, base: f32) {
    let d = vector.len();
    let pairs = d / 2;
    for i in 0..pairs {
        let theta = position * base.powf(-(2.0 * i as f32) / d as f32);
        let (sin, cos) = theta.sin_cos();
        let a = vector[2 * i];
        let b = vector[2 * i + 1];
        vector[2 * i] = a * cos - b * sin;
        vector[2 * i + 1] = a * sin + b * cos;
    }
}

/// Standard RoPE base used by GPT-J-style models.
pub const ROPE_BASE: f32 = 10_000.0;

/// [`apply_rope_scaled`] with its invariants hoisted out of the per-row loop.
///
/// The per-pair frequencies `base^(-2i/d)` depend only on the model, so they
/// are computed once per rotor, by the very `powf` expression
/// [`apply_rope_scaled`] evaluates per pair. The `(sin, cos)` pairs depend
/// only on the position, so they are computed once per position and reused —
/// multiplies only — by every head of every layer that rotates at that
/// position (a decode step rotates one new key row and one query per head per
/// layer, all at the same position). Only the latest position is remembered:
/// there is no per-position table to size, fill or keep resident.
///
/// Same arithmetic on the same inputs, only hoisted, so every rotated value
/// is bit-identical to [`apply_rope_scaled`]'s.
#[derive(Debug, Clone)]
pub struct RopeRotor {
    head_dim: usize,
    /// `base^(-2i/d)` for every dimension pair `i`.
    inv_freq: Vec<f32>,
    /// `(sin, cos)` of `position * inv_freq[i]` at the remembered position.
    sin_cos: Vec<(f32, f32)>,
    /// Bit pattern of the position `sin_cos` was computed for.
    position: Option<u32>,
}

impl RopeRotor {
    /// Builds the rotor for vectors of width `head_dim` under `base`.
    pub fn new(head_dim: usize, base: f32) -> Self {
        let pairs = head_dim / 2;
        RopeRotor {
            head_dim,
            inv_freq: (0..pairs)
                .map(|i| base.powf(-(2.0 * i as f32) / head_dim as f32))
                .collect(),
            sin_cos: vec![(0.0, 1.0); pairs],
            position: None,
        }
    }

    /// Rotates `vector` in place at the fractional (already-scaled)
    /// `position`, exactly like [`apply_rope_scaled`].
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the rotor's `head_dim` (the
    /// frequencies depend on the width).
    pub fn rotate(&mut self, vector: &mut [f32], position: f32) {
        assert_eq!(vector.len(), self.head_dim, "vector width mismatch");
        if self.position != Some(position.to_bits()) {
            for (sc, &freq) in self.sin_cos.iter_mut().zip(&self.inv_freq) {
                *sc = (position * freq).sin_cos();
            }
            self.position = Some(position.to_bits());
        }
        for (pair, &(sin, cos)) in vector.chunks_exact_mut(2).zip(&self.sin_cos) {
            let (a, b) = (pair[0], pair[1]);
            pair[0] = a * cos - b * sin;
            pair[1] = a * sin + b * cos;
        }
    }
}

/// Returns the ALiBi slope for attention head `head` out of `num_heads`.
///
/// Uses the geometric sequence from the ALiBi paper: for `H` heads the slopes are
/// `2^(-8/H), 2^(-16/H), ...`.
pub fn alibi_slope(head: usize, num_heads: usize) -> f32 {
    let num_heads = num_heads.max(1);
    let exponent = -8.0 * (head as f32 + 1.0) / num_heads as f32;
    2.0_f32.powf(exponent)
}

/// The ALiBi bias added to the attention logit of a key at `key_pos` for a query at
/// `query_pos`: `-slope * (query_pos - key_pos)`, clamped at zero for future keys
/// (which a causal decoder never sees anyway).
pub fn alibi_bias(slope: f32, query_pos: usize, key_pos: usize) -> f32 {
    let distance = query_pos.saturating_sub(key_pos) as f32;
    -slope * distance
}

/// Deterministic sinusoidal table used to emulate *learned* absolute position
/// embeddings without training: position `p`, dimension `i` gets
/// `sin(p / 10000^(2i/d))` / `cos(...)` interleaved. The values are fixed, dense and
/// position-unique, which is all the substrate needs from a "learned" embedding.
pub fn learned_position_embedding(position: usize, d_model: usize) -> Vec<f32> {
    let mut out = vec![0.0; d_model];
    for (i, x) in out.iter_mut().enumerate() {
        let exponent = (2 * (i / 2)) as f32 / d_model as f32;
        let angle = position as f32 / ROPE_BASE.powf(exponent);
        *x = if i % 2 == 0 { angle.sin() } else { angle.cos() };
        // Scale down so position information does not swamp token identity: trained
        // models keep positional signal in a low-energy subspace relative to content.
        *x *= 0.02;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyformer_tensor::vector::{dot, l2_norm};

    #[test]
    fn display_labels() {
        assert_eq!(PositionalEncoding::Rope.to_string(), "rope");
        assert_eq!(PositionalEncoding::Alibi.to_string(), "alibi");
        assert_eq!(PositionalEncoding::Learned.to_string(), "learned");
    }

    #[test]
    fn rope_at_position_zero_is_identity() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        let orig = v.clone();
        apply_rope(&mut v, 0, ROPE_BASE);
        for (a, b) in v.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rope_preserves_norm() {
        let mut v = vec![0.5, -1.0, 2.0, 0.25, 1.5, -0.75];
        let before = l2_norm(&v);
        apply_rope(&mut v, 17, ROPE_BASE);
        assert!((l2_norm(&v) - before).abs() < 1e-4);
    }

    #[test]
    fn rope_dot_product_depends_on_relative_position() {
        // q at position p and k at position p+delta should give the same dot product
        // for any p (the relative-position property of RoPE).
        let q0 = vec![1.0, 0.5, -0.5, 0.25];
        let k0 = vec![0.3, -0.2, 0.8, 0.1];
        let dot_at = |qp: usize, kp: usize| {
            let mut q = q0.clone();
            let mut k = k0.clone();
            apply_rope(&mut q, qp, ROPE_BASE);
            apply_rope(&mut k, kp, ROPE_BASE);
            dot(&q, &k)
        };
        assert!((dot_at(5, 2) - dot_at(105, 102)).abs() < 1e-3);
        assert!((dot_at(8, 8) - dot_at(40, 40)).abs() < 1e-3);
    }

    /// The hoisted rotation must reproduce the reference bit for bit at every
    /// position a family can reach, at both `rope_scale` values in use, and
    /// whether a position's `(sin, cos)` is fresh or reused across rows.
    #[test]
    fn hoisted_rotation_is_bit_identical_to_the_reference() {
        use crate::families::ModelFamily;
        // The two RoPE families: `rope_scale` 1 (tiny) and 1/256 (GPT-J-like).
        for family in [ModelFamily::Tiny, ModelFamily::GptJLike] {
            let config = family.config(0);
            assert_eq!(config.positional, PositionalEncoding::Rope);
            let (scale, head_dim) = (config.rope_scale, config.head_dim());
            let mut rotor = RopeRotor::new(head_dim, ROPE_BASE);
            let rows: Vec<Vec<f32>> = (0..3)
                .map(|r| {
                    (0..head_dim)
                        .map(|d| ((r * 31 + d * 7) % 23) as f32 * 0.13 - 1.4)
                        .collect()
                })
                .collect();
            for pos in 0..config.max_seq_len {
                let position = pos as f32 * scale;
                for row in &rows {
                    let mut want = row.clone();
                    apply_rope_scaled(&mut want, position, ROPE_BASE);
                    let mut got = row.clone();
                    rotor.rotate(&mut got, position);
                    assert_eq!(
                        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "scale {scale} position {pos}"
                    );
                }
            }
        }
    }

    #[test]
    fn alibi_slopes_decrease_geometrically() {
        let s: Vec<f32> = (0..8).map(|h| alibi_slope(h, 8)).collect();
        for pair in s.windows(2) {
            assert!(pair[1] < pair[0]);
            assert!((pair[1] / pair[0] - 0.5).abs() < 1e-5);
        }
        assert!((alibi_slope(0, 8) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn alibi_bias_penalises_distance() {
        let slope = alibi_slope(0, 4);
        assert_eq!(alibi_bias(slope, 10, 10), 0.0);
        assert!(alibi_bias(slope, 10, 0) < alibi_bias(slope, 10, 8));
        // Future keys saturate to zero distance rather than rewarding them.
        assert_eq!(alibi_bias(slope, 5, 9), 0.0);
    }

    #[test]
    fn learned_embeddings_are_position_unique_and_bounded() {
        let a = learned_position_embedding(3, 32);
        let b = learned_position_embedding(4, 32);
        assert_eq!(a.len(), 32);
        assert_ne!(a, b);
        assert!(a.iter().all(|x| x.abs() <= 0.1 + 1e-6));
    }
}
