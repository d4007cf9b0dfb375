//! Logit-adjustment distributions used to regularize the score function.
//!
//! Keyformer adds a noise term `ζ_i` drawn from the standard Gumbel distribution to
//! the unnormalized logits before scoring (Equation 4). The paper's Table 4 ablates
//! this choice against a symmetric Gaussian with the same mean/variance, a constant
//! offset equal to the Gumbel mean, and no adjustment at all (which recovers H2O's
//! score function). All four variants live here.

use keyformer_tensor::init::{gaussian_sample, gumbel_sample, GUMBEL_MEAN, GUMBEL_STD};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution added to unnormalized attention logits before scoring.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum LogitAdjustment {
    /// No adjustment: `y_i = x_i`. This is the H2O-style accumulated-attention score.
    None,
    /// A constant offset: `y_i = x_i + c`.
    Constant(f32),
    /// Symmetric Gaussian noise with the given mean and standard deviation.
    Gaussian {
        /// Mean of the Gaussian.
        mean: f32,
        /// Standard deviation of the Gaussian.
        std: f32,
    },
    /// Standard Gumbel noise (location 0, scale 1) — the Keyformer default.
    #[default]
    Gumbel,
}

impl LogitAdjustment {
    /// The paper's constant-adjustment baseline: `c` equal to the Gumbel mean
    /// (`γ ≈ 0.5772`).
    pub fn paper_constant() -> Self {
        LogitAdjustment::Constant(GUMBEL_MEAN)
    }

    /// The paper's Gaussian baseline: identical mean and standard deviation to the
    /// standard Gumbel distribution (`μ = 0.5772`, `σ = 1.2825`).
    pub fn paper_gaussian() -> Self {
        LogitAdjustment::Gaussian {
            mean: GUMBEL_MEAN,
            std: GUMBEL_STD,
        }
    }

    /// Draws one adjustment sample `ζ_i`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f32 {
        match *self {
            LogitAdjustment::None => 0.0,
            LogitAdjustment::Constant(c) => c,
            LogitAdjustment::Gaussian { mean, std } => mean + std * gaussian_sample(rng),
            LogitAdjustment::Gumbel => gumbel_sample(rng),
        }
    }

    /// How many `next_u64` words one [`sample`](LogitAdjustment::sample) takes
    /// from the RNG, always the same for a variant. A worker that skips another
    /// worker's rows steps its RNG copy past `len × draws_per_logit()` words and
    /// stays on the sequential stream.
    pub fn draws_per_logit(&self) -> usize {
        match self {
            LogitAdjustment::None | LogitAdjustment::Constant(_) => 0,
            LogitAdjustment::Gaussian { .. } => 2,
            LogitAdjustment::Gumbel => 1,
        }
    }

    /// Returns `x_i + ζ_i` for every logit, drawing independent samples per position.
    pub fn adjust<R: Rng>(&self, logits: &[f32], rng: &mut R) -> Vec<f32> {
        let mut out = Vec::with_capacity(logits.len());
        self.adjust_into(logits, rng, &mut out);
        out
    }

    /// [`LogitAdjustment::adjust`] into a caller-owned buffer (cleared and
    /// refilled): the same samples drawn in the same order, allocation-free
    /// given capacity.
    pub fn adjust_into<R: Rng>(&self, logits: &[f32], rng: &mut R, out: &mut Vec<f32>) {
        out.clear();
        out.extend(logits.iter().map(|&x| x + self.sample(rng)));
    }

    /// Short human-readable label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            LogitAdjustment::None => "none",
            LogitAdjustment::Constant(_) => "constant",
            LogitAdjustment::Gaussian { .. } => "gaussian",
            LogitAdjustment::Gumbel => "gumbel",
        }
    }
}

impl std::fmt::Display for LogitAdjustment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogitAdjustment::None => write!(f, "none"),
            LogitAdjustment::Constant(c) => write!(f, "constant({c})"),
            LogitAdjustment::Gaussian { mean, std } => {
                write!(f, "gaussian(mu={mean}, sigma={std})")
            }
            LogitAdjustment::Gumbel => write!(f, "gumbel"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyformer_tensor::vector::{mean, variance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let logits = [1.0, -2.0, 3.0];
        assert_eq!(
            LogitAdjustment::None.adjust(&logits, &mut rng),
            logits.to_vec()
        );
    }

    #[test]
    fn constant_shifts_every_logit() {
        let mut rng = StdRng::seed_from_u64(1);
        let adjusted = LogitAdjustment::Constant(2.0).adjust(&[0.0, 1.0], &mut rng);
        assert_eq!(adjusted, vec![2.0, 3.0]);
    }

    #[test]
    fn gaussian_matches_requested_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let adj = LogitAdjustment::Gaussian {
            mean: 1.0,
            std: 0.5,
        };
        let samples: Vec<f32> = (0..20_000).map(|_| adj.sample(&mut rng)).collect();
        assert!((mean(&samples) - 1.0).abs() < 0.03);
        assert!((variance(&samples).sqrt() - 0.5).abs() < 0.03);
    }

    #[test]
    fn gumbel_matches_theory_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f32> = (0..20_000)
            .map(|_| LogitAdjustment::Gumbel.sample(&mut rng))
            .collect();
        assert!((mean(&samples) - GUMBEL_MEAN).abs() < 0.05);
        assert!((variance(&samples).sqrt() - GUMBEL_STD).abs() < 0.08);
    }

    #[test]
    fn paper_baselines_share_gumbel_moments() {
        match LogitAdjustment::paper_gaussian() {
            LogitAdjustment::Gaussian { mean, std } => {
                assert!((mean - GUMBEL_MEAN).abs() < 1e-6);
                assert!((std - GUMBEL_STD).abs() < 1e-6);
            }
            other => panic!("unexpected variant {other:?}"),
        }
        match LogitAdjustment::paper_constant() {
            LogitAdjustment::Constant(c) => assert!((c - GUMBEL_MEAN).abs() < 1e-6),
            other => panic!("unexpected variant {other:?}"),
        }
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(LogitAdjustment::Gumbel.label(), "gumbel");
        assert_eq!(LogitAdjustment::None.label(), "none");
        assert_eq!(LogitAdjustment::paper_constant().label(), "constant");
        assert_eq!(LogitAdjustment::paper_gaussian().label(), "gaussian");
        assert!(LogitAdjustment::Gumbel.to_string().contains("gumbel"));
        assert!(LogitAdjustment::Constant(1.5).to_string().contains("1.5"));
    }

    /// The invariant the layer-split replay rests on: adjusting `n` logits
    /// moves the RNG exactly `n × draws_per_logit()` words, for every variant
    /// (a rejection sampler would break it, and must fail here).
    #[test]
    fn adjusting_n_logits_takes_exactly_n_times_draws_per_logit_words() {
        use rand::RngCore;
        let logits: Vec<f32> = (0..37).map(|i| i as f32 * 0.25 - 3.0).collect();
        let mut out = Vec::new();
        for adjustment in [
            LogitAdjustment::None,
            LogitAdjustment::paper_constant(),
            LogitAdjustment::paper_gaussian(),
            LogitAdjustment::Gumbel,
        ] {
            for n in [0, 1, 2, 37] {
                let mut rng = StdRng::seed_from_u64(n as u64 + 17);
                let mut skipped = rng.clone();
                adjustment.adjust_into(&logits[..n], &mut rng, &mut out);
                for _ in 0..n * adjustment.draws_per_logit() {
                    skipped.next_u64();
                }
                assert_eq!(rng, skipped, "{adjustment} over {n} logits");
            }
        }
    }

    #[test]
    fn default_is_gumbel() {
        assert_eq!(LogitAdjustment::default(), LogitAdjustment::Gumbel);
    }
}
