//! Deterministic, structured weight construction.
//!
//! The substrate is not trained. Instead its weights are *constructed* so that the
//! attention mechanism behaves associatively out of the box:
//!
//! * token embeddings are unit-norm Gaussian vectors, so distinct tokens are nearly
//!   orthogonal while repeated tokens match strongly;
//! * the query/key projections are scaled identities plus small noise, so a query
//!   attends most strongly to cached tokens whose embeddings resemble the current
//!   residual stream — i.e. content-based addressing;
//! * the value/output projections are near-identities so attended content flows into
//!   the residual stream;
//! * the feed-forward block is a small perturbation, keeping the residual stream
//!   dominated by token identity.
//!
//! This gives the sparse, key-token-dominated attention structure the paper's
//! Figures 3 and 14–15 show for real checkpoints, without requiring gigabytes of
//! pretrained weights (see DESIGN.md, substitution table).
//!
//! Every matrix the forward multiplies is stored `(d_in, d_out)`, the layout of
//! the GEMM's right operand, so a chunk of rows and a decode step's single row
//! run through the same kernel. Each is drawn straight into that layout: the
//! draws of output `j` fill column `j`, in the order they would fill row `j` of
//! the `(d_out, d_in)` matrix, so the stored matrix is exactly that matrix's
//! transpose.

use crate::config::ModelConfig;
use crate::positional::PositionalEncoding;
use keyformer_tensor::init::gaussian_sample;
use keyformer_tensor::vector::l2_norm;
use keyformer_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scale applied to the identity component of the query/key projections. The product
/// of the two scales (divided by `sqrt(head_dim)`) sets how sharply a query attends
/// to a matching cached token.
const QK_IDENTITY_SCALE: f32 = 2.0;
/// Scale of the random perturbation added to each projection.
const PROJECTION_NOISE: f32 = 0.08;
/// Scale of the feed-forward contribution relative to the residual stream.
const FFN_SCALE: f32 = 0.05;

/// Weights of a single decoder layer.
///
/// Every projection is stored `(d_in, d_out)`: an input row times the matrix
/// is the projected row, so the matrix is the right operand of
/// [`keyformer_tensor::matrix::matmul_strided`] as it is.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// Query projection, `(d_model, d_model)`.
    pub wq: Matrix,
    /// Key projection, `(d_model, d_model)`.
    pub wk: Matrix,
    /// Value projection, `(d_model, d_model)`.
    pub wv: Matrix,
    /// Output projection, `(d_model, d_model)`.
    pub wo: Matrix,
    /// Feed-forward input projection, `(d_model, d_ff)`.
    pub ffn_in: Matrix,
    /// Feed-forward output projection, `(d_ff, d_model)`.
    pub ffn_out: Matrix,
    /// Pre-attention LayerNorm gain.
    pub ln1_gain: Vec<f32>,
    /// Pre-attention LayerNorm bias.
    pub ln1_bias: Vec<f32>,
    /// Pre-FFN LayerNorm gain.
    pub ln2_gain: Vec<f32>,
    /// Pre-FFN LayerNorm bias.
    pub ln2_bias: Vec<f32>,
}

/// All weights of the substrate model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWeights {
    /// Token embedding table, `(d_model, vocab_size)`: a token's embedding is
    /// its column, and the table as stored is the tied output head.
    pub embedding: Matrix,
    /// Learned position embedding table, `(max_seq_len, d_model)`; empty unless the
    /// model uses [`PositionalEncoding::Learned`].
    pub position_embedding: Matrix,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
    /// Final LayerNorm gain.
    pub final_ln_gain: Vec<f32>,
    /// Final LayerNorm bias.
    pub final_ln_bias: Vec<f32>,
}

/// Output columns [`from_columns`] draws per pass. One column at a time
/// would write one element per stored row — a page apart in the embedding,
/// whose rows are vocabulary-wide — so a block of columns is drawn into
/// scratch first and written out as one contiguous run per row.
const COLUMN_BLOCK: usize = 16;

/// Builds the `(d_in, d_out)` matrix whose column `j` is the `j`-th
/// `d_in`-wide row `fill` writes: the transpose of the row-major
/// `(d_out, d_in)` matrix the same calls would fill, without building it.
fn from_columns(d_in: usize, d_out: usize, mut fill: impl FnMut(&mut [f32])) -> Matrix {
    let mut block = vec![0.0; COLUMN_BLOCK * d_in];
    let mut m = Matrix::zeros(d_in, d_out);
    for j0 in (0..d_out).step_by(COLUMN_BLOCK) {
        let width = COLUMN_BLOCK.min(d_out - j0);
        for column in block.chunks_exact_mut(d_in).take(width) {
            fill(column);
        }
        for (i, row) in m.as_mut_slice().chunks_exact_mut(d_out).enumerate() {
            for (c, dst) in row[j0..j0 + width].iter_mut().enumerate() {
                *dst = block[c * d_in + i];
            }
        }
    }
    m
}

/// `(n, n)` scaled identity plus `N(0, noise²)` entries drawn from `seed`.
fn scaled_identity_plus_noise(n: usize, identity_scale: f32, noise: f32, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = from_columns(n, n, |column| {
        column.fill_with(|| noise * gaussian_sample(&mut rng));
    });
    for i in 0..n {
        let v = m.get(i, i);
        m.set(i, i, v + identity_scale);
    }
    m
}

/// `(d_in, d_out)` Xavier/Glorot uniform entries drawn from `seed`.
fn xavier(d_in: usize, d_out: usize, seed: u64) -> Matrix {
    let scale = (6.0 / (d_out + d_in) as f32).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    from_columns(d_in, d_out, |column| {
        column.fill_with(|| rng.gen_range(-scale..=scale));
    })
}

/// `(d_model, vocab_size)` unit-norm Gaussian columns drawn from `seed`.
fn unit_norm_embeddings(d_model: usize, vocab_size: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    from_columns(d_model, vocab_size, |token| {
        token.fill_with(|| gaussian_sample(&mut rng));
        let norm = l2_norm(token).max(1e-6);
        for x in token {
            *x /= norm;
        }
    })
}

impl ModelWeights {
    /// Builds the full weight set for `config`, deterministically from `config.seed`.
    pub fn build(config: &ModelConfig) -> Self {
        let d = config.d_model;
        let seed = config.seed;
        let embedding = unit_norm_embeddings(d, config.vocab_size, seed);
        let position_embedding = match config.positional {
            PositionalEncoding::Learned => {
                let mut table = Matrix::zeros(config.max_seq_len, d);
                for p in 0..config.max_seq_len {
                    let row = crate::positional::learned_position_embedding(p, d);
                    table.row_mut(p).copy_from_slice(&row);
                }
                table
            }
            _ => Matrix::zeros(0, 0),
        };
        let layers = (0..config.num_layers)
            .map(|l| {
                let ls = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(l as u64 + 1);
                LayerWeights {
                    wq: scaled_identity_plus_noise(
                        d,
                        QK_IDENTITY_SCALE,
                        PROJECTION_NOISE,
                        ls ^ 0x01,
                    ),
                    wk: scaled_identity_plus_noise(
                        d,
                        QK_IDENTITY_SCALE,
                        PROJECTION_NOISE,
                        ls ^ 0x02,
                    ),
                    wv: scaled_identity_plus_noise(d, 1.0, PROJECTION_NOISE, ls ^ 0x03),
                    wo: scaled_identity_plus_noise(d, 1.0, PROJECTION_NOISE, ls ^ 0x04),
                    ffn_in: xavier(d, config.d_ff, ls ^ 0x05),
                    ffn_out: {
                        let mut m = xavier(config.d_ff, d, ls ^ 0x06);
                        m.scale_in_place(FFN_SCALE);
                        m
                    },
                    ln1_gain: vec![1.0; d],
                    ln1_bias: vec![0.0; d],
                    ln2_gain: vec![1.0; d],
                    ln2_bias: vec![0.0; d],
                }
            })
            .collect();
        ModelWeights {
            embedding,
            position_embedding,
            layers,
            final_ln_gain: vec![1.0; d],
            final_ln_bias: vec![0.0; d],
        }
    }

    /// Approximate parameter memory footprint in bytes (f32 storage).
    pub fn byte_size(&self) -> usize {
        let mut total = self.embedding.byte_size() + self.position_embedding.byte_size();
        for l in &self.layers {
            total += l.wq.byte_size()
                + l.wk.byte_size()
                + l.wv.byte_size()
                + l.wo.byte_size()
                + l.ffn_in.byte_size()
                + l.ffn_out.byte_size()
                + 4 * l.ln1_gain.len() * std::mem::size_of::<f32>();
        }
        total + 2 * self.final_ln_gain.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::ModelFamily;
    use keyformer_tensor::init::{gaussian_matrix, xavier_matrix};
    use keyformer_tensor::vector::dot;

    #[test]
    fn build_is_deterministic_in_seed() {
        let config = ModelConfig::tiny();
        let a = ModelWeights::build(&config);
        let b = ModelWeights::build(&config);
        let c = ModelWeights::build(&config.with_seed(8));
        assert_eq!(a, b);
        assert_ne!(a.embedding, c.embedding);
    }

    #[test]
    fn embeddings_are_unit_norm_and_near_orthogonal() {
        let config = ModelConfig::tiny();
        let w = ModelWeights::build(&config);
        let e = &w.embedding;
        assert_eq!(e.shape(), (config.d_model, config.vocab_size));
        for token in 0..8 {
            assert!((l2_norm(&e.col(token)) - 1.0).abs() < 1e-4);
        }
        // Distinct tokens correlate far less than a token with itself.
        let self_sim = dot(&e.col(3), &e.col(3));
        let cross_sim = dot(&e.col(3), &e.col(4)).abs();
        assert!(self_sim > 0.99);
        assert!(cross_sim < 0.7);
    }

    #[test]
    fn qk_projections_are_identity_dominated() {
        let w = ModelWeights::build(&ModelConfig::tiny());
        for wq in [&w.layers[0].wq, &w.layers[0].wk] {
            // Output `j` reads column `j`, and its own input dominates it.
            let d = wq.cols();
            let diag_mean: f32 = (0..d).map(|j| wq.col(j)[j]).sum::<f32>() / d as f32;
            assert!(diag_mean > 1.5, "diag mean {diag_mean}");
            for j in 0..d {
                let column = wq.col(j);
                let off_diag = (0..d)
                    .filter(|&i| i != j)
                    .map(|i| column[i].abs())
                    .fold(0.0f32, f32::max);
                assert!(off_diag < column[j], "output {j}");
            }
        }
    }

    #[test]
    fn learned_positional_table_only_for_learned_models() {
        let rope = ModelWeights::build(&ModelConfig::tiny());
        assert!(rope.position_embedding.is_empty());
        let learned =
            ModelWeights::build(&ModelConfig::tiny().with_positional(PositionalEncoding::Learned));
        assert_eq!(learned.position_embedding.rows(), 512);
    }

    #[test]
    fn layer_count_and_byte_size() {
        let config = ModelConfig::tiny();
        let w = ModelWeights::build(&config);
        assert_eq!(w.layers.len(), config.num_layers);
        assert!(w.byte_size() > config.vocab_size * config.d_model * 4);
    }

    /// Shape and element bits, so `-0.0` and `0.0` differ.
    fn bits(m: &Matrix) -> ((usize, usize), Vec<u32>) {
        (
            m.shape(),
            m.as_slice().iter().map(|x| x.to_bits()).collect(),
        )
    }

    /// A projection built row-major, `(d_out, d_in)`: the weight-major layout
    /// the stored matrices transpose.
    fn identity_plus_noise_rows(n: usize, identity_scale: f32, seed: u64) -> Matrix {
        let mut m = gaussian_matrix(n, n, PROJECTION_NOISE, seed);
        for i in 0..n {
            let v = m.get(i, i);
            m.set(i, i, v + identity_scale);
        }
        m
    }

    #[test]
    fn stored_matrices_are_transposes_of_the_row_major_construction() {
        for family in [ModelFamily::Tiny, ModelFamily::GptJLike] {
            for seed in [5, 31] {
                let config = family.config(seed);
                let (d, d_ff) = (config.d_model, config.d_ff);
                let w = ModelWeights::build(&config);
                let mut embedding = gaussian_matrix(config.vocab_size, d, 1.0, seed);
                for r in 0..embedding.rows() {
                    let norm = l2_norm(embedding.row(r)).max(1e-6);
                    for x in embedding.row_mut(r) {
                        *x /= norm;
                    }
                }
                assert_eq!(bits(&w.embedding), bits(&embedding.transpose()));
                for (l, lw) in w.layers.iter().enumerate() {
                    let ls = seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(l as u64 + 1);
                    let mut ffn_out = xavier_matrix(d, d_ff, ls ^ 0x06);
                    ffn_out.scale_in_place(FFN_SCALE);
                    let row_major = [
                        (
                            &lw.wq,
                            identity_plus_noise_rows(d, QK_IDENTITY_SCALE, ls ^ 0x01),
                        ),
                        (
                            &lw.wk,
                            identity_plus_noise_rows(d, QK_IDENTITY_SCALE, ls ^ 0x02),
                        ),
                        (&lw.wv, identity_plus_noise_rows(d, 1.0, ls ^ 0x03)),
                        (&lw.wo, identity_plus_noise_rows(d, 1.0, ls ^ 0x04)),
                        (&lw.ffn_in, xavier_matrix(d_ff, d, ls ^ 0x05)),
                        (&lw.ffn_out, ffn_out),
                    ];
                    for (i, (stored, reference)) in row_major.iter().enumerate() {
                        assert_eq!(
                            bits(stored),
                            bits(&reference.transpose()),
                            "{family:?} seed {seed} layer {l} matrix {i}"
                        );
                    }
                }
            }
        }
    }
}
