//! Diagnostics reproducing the paper's analytical figures.
//!
//! * [`softmax_shift`] quantifies how evicting tokens redistributes probability mass
//!   over the survivors (Figure 4 and Equation 3).
//! * [`entropy_gain`] checks Equation 8: Gumbel logit adjustment increases the
//!   entropy of the post-softmax distribution, i.e. spreads the score function out.
//! * [`attention_mass_cdf`] produces the Figure 3b curve: cumulative attention mass
//!   captured by the top-x% of tokens.

use crate::adjustment::LogitAdjustment;
use keyformer_tensor::ops::{entropy, softmax};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The before/after attention distributions of a cache-reduction step (Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxShift {
    /// Softmax over the full logit vector (all `n` tokens).
    pub full: Vec<f32>,
    /// Softmax recomputed over only the retained logits, scattered back to the
    /// original slot order with zeros for evicted tokens.
    pub reduced: Vec<f32>,
    /// Probability mass the retained tokens carried under the *full* distribution.
    pub retained_mass: f32,
    /// Total variation distance between the two distributions restricted to the
    /// retained slots (how far the survivors' scores were distorted).
    pub total_variation: f32,
}

/// Computes the softmax-shift diagnostic for a set of logits and a retained-slot set.
///
/// # Panics
///
/// Panics if any retained index is out of bounds.
pub fn softmax_shift(logits: &[f32], retained: &[usize]) -> SoftmaxShift {
    let full = softmax(logits);
    let retained_logits: Vec<f32> = retained.iter().map(|&i| logits[i]).collect();
    let reduced_probs = softmax(&retained_logits);
    let mut reduced = vec![0.0; logits.len()];
    for (&slot, &p) in retained.iter().zip(&reduced_probs) {
        reduced[slot] = p;
    }
    let retained_mass: f32 = retained.iter().map(|&i| full[i]).sum();
    let total_variation: f32 = retained
        .iter()
        .map(|&i| (full[i] - reduced[i]).abs())
        .sum::<f32>()
        / 2.0;
    SoftmaxShift {
        full,
        reduced,
        retained_mass,
        total_variation,
    }
}

/// Result of the Equation 8 entropy experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntropyGain {
    /// Mean post-softmax entropy without logit adjustment.
    pub baseline: f32,
    /// Mean post-softmax entropy with the given adjustment applied.
    pub adjusted: f32,
}

impl EntropyGain {
    /// Entropy increase attributable to the adjustment.
    pub fn gain(&self) -> f32 {
        self.adjusted - self.baseline
    }
}

/// Estimates the expected post-softmax entropy with and without a logit adjustment,
/// averaging over `trials` independent noise draws (Equation 8: `H(E[z_Gumbel]) >
/// H(E[z])`).
pub fn entropy_gain(
    logits: &[f32],
    adjustment: LogitAdjustment,
    trials: usize,
    seed: u64,
) -> EntropyGain {
    let mut rng = StdRng::seed_from_u64(seed);
    let baseline = entropy(&softmax(logits));
    let mut mean_probs = vec![0.0f32; logits.len()];
    let trials = trials.max(1);
    for _ in 0..trials {
        let adjusted = adjustment.adjust(logits, &mut rng);
        for (m, p) in mean_probs.iter_mut().zip(softmax(&adjusted)) {
            *m += p / trials as f32;
        }
    }
    EntropyGain {
        baseline,
        adjusted: entropy(&mean_probs),
    }
}

/// One point of the Figure 3b curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// Fraction of the context (top-x% of tokens by attention), in `(0, 1]`.
    pub token_fraction: f64,
    /// Cumulative attention mass captured by that fraction.
    pub attention_mass: f64,
}

/// Computes the cumulative attention-mass curve: sort tokens by descending attention
/// probability and report the mass captured by each requested fraction of tokens.
pub fn attention_mass_cdf(probs: &[f32], fractions: &[f64]) -> Vec<CdfPoint> {
    let mut sorted: Vec<f32> = probs.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let total: f64 = sorted.iter().map(|&p| p as f64).sum();
    let mut prefix = Vec::with_capacity(sorted.len() + 1);
    prefix.push(0.0f64);
    for &p in &sorted {
        prefix.push(prefix.last().unwrap() + p as f64);
    }
    fractions
        .iter()
        .map(|&frac| {
            let count = ((frac * sorted.len() as f64).round() as usize).min(sorted.len());
            let mass = if total > 0.0 {
                prefix[count] / total
            } else {
                0.0
            };
            CdfPoint {
                token_fraction: frac,
                attention_mass: mass,
            }
        })
        .collect()
}

/// Fraction of attention probabilities at or below `threshold` times the maximum
/// probability — the per-layer "attention sparsity" metric of Figures 3a and 11.
pub fn attention_sparsity(probs: &[f32], threshold: f32) -> f64 {
    if probs.is_empty() {
        return 0.0;
    }
    let max = probs.iter().copied().fold(0.0f32, f32::max);
    let cutoff = max * threshold;
    let sparse = probs.iter().filter(|&&p| p <= cutoff).count();
    sparse as f64 / probs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_shift_concentrates_mass_on_survivors() {
        // Mirrors Figure 4: eight logits, half evicted.
        let logits = [1.0, 0.9, 0.3, 1.8, 1.5, 1.2, -0.3, 0.5];
        let shift = softmax_shift(&logits, &[3, 4, 5, 7]);
        let full_sum: f32 = shift.full.iter().sum();
        let reduced_sum: f32 = shift.reduced.iter().sum();
        assert!((full_sum - 1.0).abs() < 1e-5);
        assert!((reduced_sum - 1.0).abs() < 1e-5);
        // Survivors' probabilities grow after eviction.
        for &i in &[3usize, 4, 5, 7] {
            assert!(shift.reduced[i] > shift.full[i]);
        }
        // Evicted slots carry zero mass afterwards.
        for &i in &[0usize, 1, 2, 6] {
            assert_eq!(shift.reduced[i], 0.0);
        }
        assert!(shift.retained_mass < 1.0);
        assert!(shift.total_variation > 0.0);
    }

    #[test]
    fn softmax_shift_with_everything_retained_is_identity() {
        let logits = [0.2, 0.4, 0.6];
        let shift = softmax_shift(&logits, &[0, 1, 2]);
        for (a, b) in shift.full.iter().zip(&shift.reduced) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!((shift.retained_mass - 1.0).abs() < 1e-6);
        assert!(shift.total_variation < 1e-6);
    }

    #[test]
    fn gumbel_adjustment_increases_entropy() {
        // Equation 8: the expected Gumbel-softmax distribution is more uniform.
        let logits = [4.0, 1.0, 0.5, 0.2, 0.1, -0.5, -1.0, 2.5];
        let gain = entropy_gain(&logits, LogitAdjustment::Gumbel, 200, 3);
        assert!(gain.gain() > 0.0, "expected entropy gain, got {:?}", gain);
    }

    #[test]
    fn constant_adjustment_does_not_change_entropy() {
        let logits = [4.0, 1.0, 0.5, 0.2];
        let gain = entropy_gain(&logits, LogitAdjustment::Constant(0.5772), 10, 3);
        assert!(gain.gain().abs() < 1e-4);
    }

    #[test]
    fn cdf_is_monotone_and_reaches_one() {
        let probs = softmax(&[5.0, 3.0, 1.0, 0.5, 0.2, 0.1, 0.0, -1.0]);
        let fractions = [0.1, 0.25, 0.5, 0.75, 1.0];
        let curve = attention_mass_cdf(&probs, &fractions);
        for pair in curve.windows(2) {
            assert!(pair[1].attention_mass >= pair[0].attention_mass);
        }
        assert!((curve.last().unwrap().attention_mass - 1.0).abs() < 1e-6);
        // Skewed distribution: half the tokens carry the vast majority of the mass.
        assert!(curve[2].attention_mass > 0.9);
    }

    #[test]
    fn cdf_handles_degenerate_inputs() {
        assert!(attention_mass_cdf(&[], &[0.5])[0].attention_mass == 0.0);
        let flat = attention_mass_cdf(&[0.25; 4], &[0.5]);
        assert!((flat[0].attention_mass - 0.5).abs() < 1e-6);
    }

    #[test]
    fn sparsity_counts_low_attention_tokens() {
        let probs = [0.9, 0.05, 0.03, 0.02, 0.0];
        assert!((attention_sparsity(&probs, 0.0) - 0.2).abs() < 1e-9);
        assert!(attention_sparsity(&probs, 0.1) >= 0.8);
        assert_eq!(attention_sparsity(&[], 0.0), 0.0);
    }
}
