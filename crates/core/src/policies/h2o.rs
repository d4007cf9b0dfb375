//! H2O (Heavy-Hitter Oracle): recent window + tokens with the highest accumulated
//! softmax attention score (Zhang et al., 2023). The strongest prior-work baseline
//! the paper compares against.

use crate::accumulator::{ScoreAccumulator, ScoreScope};
use crate::budget::CacheBudget;
use crate::observation::AttentionObservation;
use crate::policy::{merge_key_and_recent, KvCachePolicy};
use keyformer_tensor::ops::softmax_into;
use keyformer_tensor::top_k_indices;
use serde::{Deserialize, Serialize};

/// Configuration for the [`H2O`] policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct H2OConfig {
    /// Accumulation scope (the paper's H2O baseline uses per-layer accumulation).
    pub scope: ScoreScope,
}

impl Default for H2OConfig {
    fn default() -> Self {
        H2OConfig {
            scope: ScoreScope::PerLayer,
        }
    }
}

/// The H2O heavy-hitter policy: keep the recent window plus the top-scoring remaining
/// tokens, where the score is the accumulated *softmax attention* — i.e. the
/// `fθ(acc attn)` score function of Section 2.3.1, with no logit regularization.
#[derive(Debug, Clone)]
pub struct H2O {
    config: H2OConfig,
    accumulator: ScoreAccumulator,
    /// Scratch of one observation's softmax row; emptied after every use (a
    /// snapshot clone carries no dead row), capacity kept.
    probs: Vec<f32>,
}

impl H2O {
    /// Creates an H2O policy with the given configuration.
    pub fn new(config: H2OConfig) -> Self {
        H2O {
            accumulator: ScoreAccumulator::new(config.scope),
            config,
            probs: Vec::new(),
        }
    }

    /// Configuration used to build this policy.
    pub fn config(&self) -> &H2OConfig {
        &self.config
    }

    /// Current accumulated scores for a layer (exposed for diagnostics and tests).
    pub fn scores(&self, layer: usize, live: usize) -> Vec<f32> {
        self.accumulator.scores(layer, live)
    }
}

impl Default for H2O {
    fn default() -> Self {
        Self::new(H2OConfig::default())
    }
}

impl KvCachePolicy for H2O {
    fn name(&self) -> &'static str {
        "h2o"
    }

    fn observe(&mut self, obs: &AttentionObservation<'_>) {
        // H2O accumulates the *normalized* attention scores. After eviction the
        // discarded probability mass redistributes over the survivors — the softmax
        // shift the Keyformer paper identifies as H2O's weakness (Figure 4).
        softmax_into(obs.logits, &mut self.probs);
        self.accumulator.accumulate(obs.layer, &self.probs);
        self.probs.clear();
    }

    fn select_retained(&mut self, layer: usize, live: usize, budget: &CacheBudget) -> Vec<usize> {
        let scores = self.accumulator.scores(layer, live);
        let target = budget.capacity().min(live);
        let recent = budget.recent_window().min(target);
        let key_region = live.saturating_sub(recent);
        let key_slots = top_k_indices(&scores[..key_region], target - recent.min(target));
        merge_key_and_recent(&key_slots, live, target, recent, &scores)
    }

    fn compact(&mut self, layer: usize, retained: &[usize]) {
        self.accumulator.compact(layer, retained);
    }

    fn reset(&mut self) {
        self.accumulator.reset();
    }

    fn clone_box(&self) -> Box<dyn KvCachePolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Phase;

    fn observe(policy: &mut H2O, layer: usize, logits: &[f32]) {
        policy.observe(&AttentionObservation {
            layer,
            head: 0,
            phase: Phase::Generation,
            step: 1,
            total_steps: 8,
            logits,
        });
    }

    #[test]
    fn keeps_recent_window_and_heavy_hitters() {
        let mut p = H2O::default();
        // Slot 1 is the heavy hitter; slots 6,7 are most recent.
        observe(&mut p, 0, &[0.0, 6.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.1]);
        let budget = CacheBudget::new(4, 2);
        let sel = p.select_retained(0, 8, &budget);
        assert_eq!(sel.len(), 4);
        assert!(sel.contains(&1));
        assert!(sel.contains(&6) && sel.contains(&7));
    }

    #[test]
    fn accumulation_across_steps_beats_single_spike() {
        let mut p = H2O::default();
        // Slot 0 gets consistent moderate attention; slot 2 a single spike.
        for _ in 0..5 {
            observe(&mut p, 0, &[2.0, 0.0, 0.0, 0.0, 0.0]);
        }
        observe(&mut p, 0, &[0.0, 0.0, 4.0, 0.0, 0.0]);
        let budget = CacheBudget::new(2, 1);
        let sel = p.select_retained(0, 5, &budget);
        assert!(
            sel.contains(&0),
            "consistently attended token must win: {sel:?}"
        );
    }

    #[test]
    fn selection_length_matches_budget_even_with_overlap() {
        let mut p = H2O::default();
        observe(&mut p, 0, &[0.0, 0.0, 0.0, 1.0, 2.0, 3.0]);
        let budget = CacheBudget::new(3, 3);
        let sel = p.select_retained(0, 6, &budget);
        assert_eq!(sel, vec![3, 4, 5]);
    }

    #[test]
    fn shared_scope_uses_global_scores() {
        let mut p = H2O::new(H2OConfig {
            scope: ScoreScope::Shared,
        });
        observe(&mut p, 0, &[5.0, 0.0, 0.0, 0.0]);
        observe(&mut p, 3, &[5.0, 0.0, 0.0, 0.0]);
        // Layer 7 never observed anything, but the shared accumulator still ranks
        // slot 0 first.
        let sel = p.select_retained(7, 4, &CacheBudget::new(2, 1));
        assert!(sel.contains(&0));
        assert_eq!(p.config().scope, ScoreScope::Shared);
    }

    #[test]
    fn compact_then_select_is_consistent() {
        let mut p = H2O::default();
        observe(&mut p, 0, &[4.0, 3.0, 0.0, 0.0, 1.0, 1.0]);
        let budget = CacheBudget::new(4, 2);
        let sel = p.select_retained(0, 6, &budget);
        p.compact(0, &sel);
        // Old slots 0 and 1 are now slots 0 and 1 of the compacted cache and should
        // still dominate the scores.
        let scores = p.scores(0, 4);
        assert!(scores[0] > scores[2] && scores[1] > scores[3]);
    }

    #[test]
    fn scores_are_the_accumulated_softmax_rows_bit_for_bit() {
        let mut p = H2O::default();
        let rows: [&[f32]; 2] = [&[1.5, -0.25, 0.0, 3.0], &[0.5, 0.5, -2.0, 1.0, 0.75]];
        let mut want = vec![0.0f32; 5];
        for logits in rows {
            observe(&mut p, 0, logits);
            for (w, c) in want.iter_mut().zip(keyformer_tensor::ops::softmax(logits)) {
                *w += c;
            }
        }
        assert_eq!(p.scores(0, 5), want);
        assert!(p.probs.is_empty(), "no dead row rides along in a snapshot");
    }

    #[test]
    fn reset_and_name() {
        let mut p = H2O::default();
        observe(&mut p, 0, &[1.0, 0.0]);
        p.reset();
        assert_eq!(p.scores(0, 2), vec![0.0, 0.0]);
        assert_eq!(p.name(), "h2o");
    }
}
