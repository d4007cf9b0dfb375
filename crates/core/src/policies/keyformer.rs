//! The Keyformer policy (Section 3 / Algorithm 1 of the paper).
//!
//! At every decode step, for every head, Keyformer:
//!
//! 1. takes the unnormalized logits `x_i = q·k_i/√d` against the live cache slots,
//! 2. adds regularization noise `ζ_i` (standard Gumbel by default, Equation 4),
//! 3. applies a softmax with temperature `τ` annealed from `τ_init` to `τ_end`
//!    across the generation (Equations 9–10),
//! 4. accumulates the result into a per-layer (or shared) score function `fθ`.
//!
//! When the cache exceeds its budget, the most recent `w` slots are kept
//! unconditionally and the remaining `k − w` slots are the top-scoring *key tokens*
//! from everything older than the recent window.

use crate::accumulator::{ScoreAccumulator, ScoreScope};
use crate::adjustment::LogitAdjustment;
use crate::budget::CacheBudget;
use crate::observation::AttentionObservation;
use crate::policy::{merge_key_and_recent, KvCachePolicy};
use crate::temperature::TemperatureSchedule;
use crate::CoreError;
use keyformer_tensor::ops::softmax_with_temperature_into;
use keyformer_tensor::top_k_indices;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the [`Keyformer`] policy.
///
/// The defaults reproduce the paper's recommended setting: Gumbel logit adjustment,
/// `τ` annealed linearly from 1 to 2, per-layer score accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeyformerConfig {
    /// Distribution added to the unnormalized logits before scoring.
    pub adjustment: LogitAdjustment,
    /// Temperature schedule for the Gumbel softmax score function.
    pub temperature: TemperatureSchedule,
    /// Per-layer or shared score accumulation (Table 3 ablation).
    pub scope: ScoreScope,
    /// Seed for the noise PRNG, making every run reproducible.
    pub seed: u64,
}

impl Default for KeyformerConfig {
    fn default() -> Self {
        KeyformerConfig {
            adjustment: LogitAdjustment::Gumbel,
            temperature: TemperatureSchedule::default(),
            scope: ScoreScope::PerLayer,
            seed: 0x5eed_0000_c0de,
        }
    }
}

impl KeyformerConfig {
    /// Replaces the noise seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the logit-adjustment distribution.
    pub fn with_adjustment(mut self, adjustment: LogitAdjustment) -> Self {
        self.adjustment = adjustment;
        self
    }

    /// Replaces the temperature schedule.
    pub fn with_temperature(mut self, temperature: TemperatureSchedule) -> Self {
        self.temperature = temperature;
        self
    }

    /// Replaces the accumulation scope.
    pub fn with_scope(mut self, scope: ScoreScope) -> Self {
        self.scope = scope;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the temperature schedule is invalid.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.temperature.validate()
    }
}

/// The Keyformer KV-cache policy.
#[derive(Debug, Clone)]
pub struct Keyformer {
    config: KeyformerConfig,
    accumulator: ScoreAccumulator,
    rng: StdRng,
    /// Scratch of one observation: the noise-adjusted logits `x + ζ` and the
    /// score contribution computed from them. Emptied after every use (a
    /// snapshot clone carries no dead rows); the capacity stays, so a
    /// prompt's thousands of observations reuse two allocations.
    adjusted: Vec<f32>,
    contribution: Vec<f32>,
}

impl Keyformer {
    /// Creates a Keyformer policy from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`KeyformerConfig::validate`] to
    /// check first when the configuration is user-supplied.
    pub fn new(config: KeyformerConfig) -> Self {
        config.validate().expect("invalid Keyformer configuration");
        Keyformer {
            accumulator: ScoreAccumulator::new(config.scope),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            adjusted: Vec::new(),
            contribution: Vec::new(),
        }
    }

    /// The configuration this policy was built with.
    pub fn config(&self) -> &KeyformerConfig {
        &self.config
    }

    /// Current accumulated scores for a layer (exposed for diagnostics, the harness
    /// and tests).
    pub fn scores(&self, layer: usize, live: usize) -> Vec<f32> {
        self.accumulator.scores(layer, live)
    }

    /// Computes one step's (un-accumulated) score contribution for a set of logits:
    /// noise-adjusted, temperature-scaled softmax. Exposed so the diagnostics module
    /// and the benches can measure the score function in isolation.
    pub fn step_scores(&mut self, obs: &AttentionObservation<'_>) -> Vec<f32> {
        self.score_step(obs);
        self.adjusted.clear();
        std::mem::take(&mut self.contribution)
    }

    /// [`Keyformer::step_scores`] into `self.contribution`: `x + ζ` (one RNG
    /// draw per logit, in slot order), then `/ τ`, then softmax.
    fn score_step(&mut self, obs: &AttentionObservation<'_>) {
        self.config
            .adjustment
            .adjust_into(obs.logits, &mut self.rng, &mut self.adjusted);
        let tau = self
            .config
            .temperature
            .tau(obs.phase, obs.step, obs.total_steps);
        softmax_with_temperature_into(&self.adjusted, tau, &mut self.contribution);
    }
}

impl Default for Keyformer {
    fn default() -> Self {
        Self::new(KeyformerConfig::default())
    }
}

impl KvCachePolicy for Keyformer {
    fn name(&self) -> &'static str {
        "keyformer"
    }

    fn observe(&mut self, obs: &AttentionObservation<'_>) {
        if obs.logits.is_empty() {
            return;
        }
        self.score_step(obs);
        self.accumulator.accumulate(obs.layer, &self.contribution);
        self.adjusted.clear();
        self.contribution.clear();
    }

    fn select_retained(&mut self, layer: usize, live: usize, budget: &CacheBudget) -> Vec<usize> {
        let scores = self.accumulator.scores(layer, live);
        let target = budget.capacity().min(live);
        let recent = budget.recent_window().min(target);
        // Key tokens are drawn from everything *older* than the recent window
        // (Algorithm 1: Skey = argmax_{k-w} fθ[ : -w]).
        let key_region = live.saturating_sub(recent);
        let key_slots = top_k_indices(&scores[..key_region], target - recent.min(target));
        merge_key_and_recent(&key_slots, live, target, recent, &scores)
    }

    fn compact(&mut self, layer: usize, retained: &[usize]) {
        self.accumulator.compact(layer, retained);
    }

    fn reset(&mut self) {
        self.accumulator.reset();
        self.rng = StdRng::seed_from_u64(self.config.seed);
    }

    fn clone_box(&self) -> Box<dyn KvCachePolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Phase;

    fn obs(logits: &[f32], step: usize, phase: Phase) -> AttentionObservation<'_> {
        AttentionObservation {
            layer: 0,
            head: 0,
            phase,
            step,
            total_steps: 10,
            logits,
        }
    }

    #[test]
    fn default_config_is_paper_setting() {
        let c = KeyformerConfig::default();
        assert_eq!(c.adjustment, LogitAdjustment::Gumbel);
        assert_eq!(c.scope, ScoreScope::PerLayer);
        assert_eq!(
            c.temperature,
            TemperatureSchedule::Linear {
                tau_init: 1.0,
                tau_end: 2.0
            }
        );
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_compose() {
        let c = KeyformerConfig::default()
            .with_seed(9)
            .with_adjustment(LogitAdjustment::None)
            .with_scope(ScoreScope::Shared)
            .with_temperature(TemperatureSchedule::Static(1.5));
        assert_eq!(c.seed, 9);
        assert_eq!(c.adjustment, LogitAdjustment::None);
        assert_eq!(c.scope, ScoreScope::Shared);
        assert_eq!(c.temperature, TemperatureSchedule::Static(1.5));
    }

    #[test]
    fn recent_window_is_always_retained() {
        let mut p = Keyformer::default();
        let logits = [0.5, 4.0, 0.1, 0.2, 0.05, 0.05];
        p.observe(&obs(&logits, 0, Phase::Prompt));
        let budget = CacheBudget::new(4, 2);
        let sel = p.select_retained(0, 6, &budget);
        assert_eq!(sel.len(), 4);
        assert!(
            sel.contains(&4) && sel.contains(&5),
            "recent window lost: {sel:?}"
        );
    }

    #[test]
    fn dominant_early_token_is_identified_as_key_token() {
        let mut p = Keyformer::default();
        // Slot 1 consistently dominates across several steps; noise must not bury it.
        for step in 0..6 {
            let logits = [0.1, 8.0, 0.0, 0.2, 0.1, 0.0, 0.1, 0.05];
            p.observe(&obs(&logits, step, Phase::Generation));
        }
        let budget = CacheBudget::new(4, 2);
        let sel = p.select_retained(0, 8, &budget);
        assert!(sel.contains(&1), "key token lost: {sel:?}");
    }

    #[test]
    fn runs_are_reproducible_for_equal_seeds() {
        let run = |seed: u64| {
            let mut p = Keyformer::new(KeyformerConfig::default().with_seed(seed));
            for step in 0..5 {
                let logits: Vec<f32> = (0..12).map(|i| ((i * 7 + step) % 5) as f32 * 0.3).collect();
                p.observe(&obs(&logits, step, Phase::Generation));
            }
            p.select_retained(0, 12, &CacheBudget::new(6, 2))
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn selection_has_exact_budget_size() {
        let mut p = Keyformer::default();
        for live in [5usize, 9, 17, 33] {
            let logits: Vec<f32> = (0..live).map(|i| (i % 7) as f32 * 0.1).collect();
            p.observe(&obs(&logits, 1, Phase::Generation));
            let budget = CacheBudget::new(8, 3);
            let sel = p.select_retained(0, live, &budget);
            assert_eq!(sel.len(), budget.capacity().min(live));
        }
    }

    #[test]
    fn shared_scope_compacts_once_and_stays_consistent() {
        let mut p = Keyformer::new(KeyformerConfig::default().with_scope(ScoreScope::Shared));
        let logits = [3.0, 0.1, 0.1, 0.1, 0.1];
        for layer in 0..3 {
            p.observe(&AttentionObservation {
                layer,
                head: 0,
                phase: Phase::Prompt,
                step: 0,
                total_steps: 4,
                logits: &logits,
            });
        }
        let budget = CacheBudget::new(3, 1);
        let sel = p.select_retained(0, 5, &budget);
        assert!(sel.contains(&0));
        // Compacting via layer 0 compacts the shared bucket exactly once.
        p.compact(0, &sel);
        assert_eq!(p.scores(2, 3).len(), 3);
    }

    #[test]
    fn no_adjustment_and_static_tau_one_reduces_to_h2o_scores() {
        // With ζ = 0 and τ = 1 the Keyformer score function degenerates to plain
        // accumulated softmax attention — the H2O score (Section 2.3.1).
        let mut kf = Keyformer::new(
            KeyformerConfig::default()
                .with_adjustment(LogitAdjustment::None)
                .with_temperature(TemperatureSchedule::Static(1.0)),
        );
        let mut h2o = crate::policies::h2o::H2O::default();
        let logits = [2.0, 0.3, 1.0, 0.1, 0.4];
        kf.observe(&obs(&logits, 0, Phase::Generation));
        h2o.observe(&obs(&logits, 0, Phase::Generation));
        let ks = kf.scores(0, 5);
        let hs = h2o.scores(0, 5);
        for (a, b) in ks.iter().zip(&hs) {
            assert!((a - b).abs() < 1e-5, "{ks:?} vs {hs:?}");
        }
    }

    /// The scratch-routed `observe` keeps the allocating score function's
    /// operation order and RNG draw sequence: `x + ζ`, then `/ τ`, then
    /// softmax, then accumulate — bit for bit, observation after observation.
    #[test]
    fn observe_matches_the_allocating_score_function_bit_for_bit() {
        use keyformer_tensor::ops::softmax_with_temperature;
        let config = KeyformerConfig::default().with_seed(123);
        let mut policy = Keyformer::new(config);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut want = [0.0f32; 9];
        for step in 0..4 {
            let logits: Vec<f32> = (0..6 + step)
                .map(|i| (i * 5 % 7) as f32 * 0.4 - 1.0)
                .collect();
            policy.observe(&obs(&logits, step, Phase::Generation));
            let adjusted = config.adjustment.adjust(&logits, &mut rng);
            let tau = config.temperature.tau(Phase::Generation, step, 10);
            for (w, c) in want
                .iter_mut()
                .zip(softmax_with_temperature(&adjusted, tau))
            {
                *w += c;
            }
            let got = policy.scores(0, 9);
            assert_eq!(
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "step {step}"
            );
        }
        // `step_scores` draws from the same stream and leaves no scratch behind.
        let logits = [0.5, -0.25, 2.0];
        let adjusted = config.adjustment.adjust(&logits, &mut rng);
        let tau = config.temperature.tau(Phase::Prompt, 0, 10);
        assert_eq!(
            policy.step_scores(&obs(&logits, 0, Phase::Prompt)),
            softmax_with_temperature(&adjusted, tau)
        );
        assert!(policy.adjusted.is_empty() && policy.contribution.is_empty());
    }

    #[test]
    fn reset_restores_reproducibility() {
        let mut p = Keyformer::new(KeyformerConfig::default().with_seed(77));
        let logits = [1.0, 0.5, 2.0, 0.2];
        p.observe(&obs(&logits, 0, Phase::Generation));
        let first = p.scores(0, 4);
        p.reset();
        p.observe(&obs(&logits, 0, Phase::Generation));
        let second = p.scores(0, 4);
        assert_eq!(first, second);
        assert_eq!(p.name(), "keyformer");
    }

    #[test]
    fn empty_observation_is_ignored() {
        let mut p = Keyformer::default();
        p.observe(&obs(&[], 0, Phase::Prompt));
        assert_eq!(p.scores(0, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid Keyformer configuration")]
    fn invalid_temperature_panics_on_construction() {
        Keyformer::new(
            KeyformerConfig::default().with_temperature(TemperatureSchedule::Static(0.0)),
        );
    }
}
