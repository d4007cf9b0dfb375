//! The scored policies: H2O, Damped, Key-only and **Keyformer** as four
//! configurations of one accumulate-and-select rule (Sections 2.3 and 3,
//! Algorithm 1 of the paper).
//!
//! Every observation of one head's unnormalized logits `x_i = q·k_i/√d` adds a
//! score contribution to a per-layer (or shared) score function `fθ`:
//!
//! 1. adjust the logits with noise `ζ_i` (standard Gumbel by default, Equation 4);
//! 2. divide by a temperature `τ`, annealed from `τ_init` to `τ_end` across the
//!    generation (Equations 9–10);
//! 3. softmax;
//! 4. scale by `α` (only when `α ≠ 1`);
//! 5. accumulate.
//!
//! When the cache exceeds its budget, the most recent `w` slots are kept
//! unconditionally and the remaining `k − w` slots are the top-scoring *key tokens*
//! from everything older than the recent window.
//!
//! | Configuration | `name()` | `ζ` | `τ` | `α` | recent window `w` |
//! |---|---|---|---|---|---|
//! | [`ScoredPolicy::h2o`] | `h2o` | 0 | 1 | 1 | the budget's |
//! | [`ScoredPolicy::damped`] | `damped` | 0 | 1 | `α` | the budget's |
//! | [`ScoredPolicy::key_only`] | `key-only` | 0 | 1 | 1 | 0 (Figure 3c strawman) |
//! | [`ScoredPolicy::keyformer`] | `keyformer` | configured | configured | 1 | the budget's |
//!
//! With `ζ = 0` and `τ = 1` the score is plain accumulated softmax attention,
//! H2O's heavy-hitter score (Section 2.3.1). Damped multiplies every step's
//! contribution by the same `α`, so its scores are H2O's scaled by `α` (up to
//! rounding) and it selects what H2O selects: Figure 5's point that damping alone
//! does not recover full-attention quality holds here trivially, at every `α`.

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

/// Configuration of the Keyformer score function.
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

    /// The accumulated-attention score: no adjustment, `τ = 1`.
    fn accumulated_attention(scope: ScoreScope) -> Self {
        KeyformerConfig::default()
            .with_adjustment(LogitAdjustment::None)
            .with_temperature(TemperatureSchedule::Static(1.0))
            .with_scope(scope)
    }
}

/// A policy that accumulates a softmax score per slot and keeps the recent window
/// plus the top-scoring older slots; see the [module docs](self) for the four
/// configurations.
#[derive(Debug, Clone)]
pub struct ScoredPolicy {
    name: &'static str,
    config: KeyformerConfig,
    /// Factor every step's contribution is multiplied by before accumulating.
    alpha: f32,
    /// Whether the budget's recent window is kept unconditionally.
    recent_window: bool,
    accumulator: ScoreAccumulator,
    rng: StdRng,
    /// Scratch of one observation: the noise-adjusted logits `x + ζ` and the
    /// score contribution computed from them. Emptied after every use (a
    /// snapshot clone carries no dead rows); the capacity stays, so a
    /// prompt's thousands of observations reuse two allocations.
    adjusted: Vec<f32>,
    contribution: Vec<f32>,
}

impl ScoredPolicy {
    fn with(name: &'static str, config: KeyformerConfig, alpha: f32, recent_window: bool) -> Self {
        ScoredPolicy {
            name,
            accumulator: ScoreAccumulator::new(config.scope),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            alpha,
            recent_window,
            adjusted: Vec::new(),
            contribution: Vec::new(),
        }
    }

    /// Keyformer with the given score function.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`KeyformerConfig::validate`] to
    /// check first when the configuration is user-supplied.
    pub fn keyformer(config: KeyformerConfig) -> Self {
        config.validate().expect("invalid Keyformer configuration");
        Self::with("keyformer", config, 1.0, true)
    }

    /// H2O (Heavy-Hitter Oracle, Zhang et al., 2023): the recent window plus the
    /// slots with the highest accumulated softmax attention. The strongest
    /// prior-work baseline the paper compares against.
    pub fn h2o(scope: ScoreScope) -> Self {
        Self::with(
            "h2o",
            KeyformerConfig::accumulated_attention(scope),
            1.0,
            true,
        )
    }

    /// The damped-score baseline of Section 2.3.3 / Figure 5: H2O with every
    /// step's contribution multiplied by `alpha` before it is accumulated.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `0 < alpha <= 1`.
    pub fn damped(alpha: f32) -> Result<Self, CoreError> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "damping factor {alpha} must be in (0, 1]"
            )));
        }
        Ok(Self::with(
            "damped",
            KeyformerConfig::accumulated_attention(ScoreScope::PerLayer),
            alpha,
            true,
        ))
    }

    /// "Key Attention" (Figure 3c): the top-`k` slots by accumulated softmax
    /// attention and no recent window. The strawman that loses recent context
    /// and therefore underperforms despite keeping the highest-attention tokens.
    pub fn key_only() -> Self {
        Self::with(
            "key-only",
            KeyformerConfig::accumulated_attention(ScoreScope::PerLayer),
            1.0,
            false,
        )
    }

    /// The score function this policy was built with.
    pub fn config(&self) -> &KeyformerConfig {
        &self.config
    }

    /// The factor α every step's contribution is multiplied by (1 except for
    /// [`ScoredPolicy::damped`]).
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Current accumulated scores for a layer (exposed for diagnostics, the harness
    /// and tests).
    pub fn scores(&self, layer: usize, live: usize) -> Vec<f32> {
        self.accumulator.scores(layer, live)
    }
}

impl Default for ScoredPolicy {
    /// Keyformer in the paper's recommended setting.
    fn default() -> Self {
        Self::keyformer(KeyformerConfig::default())
    }
}

impl KvCachePolicy for ScoredPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    /// `x + ζ` (one RNG draw per logit, in slot order), then `/ τ`, then
    /// softmax, then `× α`, then accumulate — through the policy-owned scratch,
    /// so a warmed policy observes without allocating.
    fn observe(&mut self, obs: &AttentionObservation<'_>) {
        if obs.logits.is_empty() {
            return;
        }
        self.config
            .adjustment
            .adjust_into(obs.logits, &mut self.rng, &mut self.adjusted);
        let tau = self
            .config
            .temperature
            .tau(obs.phase, obs.step, obs.total_steps);
        softmax_with_temperature_into(&self.adjusted, tau, &mut self.contribution);
        if self.alpha != 1.0 {
            for c in &mut self.contribution {
                *c *= self.alpha;
            }
        }
        self.accumulator.accumulate(obs.layer, &self.contribution);
        self.adjusted.clear();
        self.contribution.clear();
    }

    fn select_retained(&mut self, layer: usize, live: usize, budget: &CacheBudget) -> Vec<usize> {
        let scores = self.accumulator.scores(layer, live);
        let target = budget.capacity().min(live);
        let recent = if self.recent_window {
            budget.recent_window().min(target)
        } else {
            0
        };
        // Key tokens are drawn from everything *older* than the recent window
        // (Algorithm 1: Skey = argmax_{k-w} fθ[ : -w]).
        let key_slots = top_k_indices(&scores[..live - recent], target - recent);
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
impl ScoredPolicy {
    /// Whether the observation scratch is empty, so a snapshot clone carries no
    /// dead row.
    pub(super) fn scratch_is_empty(&self) -> bool {
        self.adjusted.is_empty() && self.contribution.is_empty()
    }
}
