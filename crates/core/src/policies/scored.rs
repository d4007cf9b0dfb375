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
//! from everything older than the recent window. Selection reads the score bucket
//! in place (slots no observation has reached yet score 0) and picks the key tokens
//! with [`top_k_indices_into`]: linear in the live slots, without allocating, with
//! NaN ranked last and ties (`+0.0` against `-0.0` included) going to the earlier
//! slot. The key tokens, then the recent range, are written in ascending order into
//! the caller's buffer.
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

use crate::accumulator::{add_row, ScoreAccumulator, ScoreScope};
use crate::adjustment::LogitAdjustment;
use crate::budget::CacheBudget;
use crate::observation::{AttentionObservation, ObservationRows};
use crate::parallel::fan_out;
use crate::policy::KvCachePolicy;
use crate::temperature::TemperatureSchedule;
use crate::CoreError;
use keyformer_tensor::ops::softmax_with_temperature_into;
use keyformer_tensor::top_k_indices_into;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::ops::Range;

/// Configuration of the Keyformer score function.
///
/// The defaults reproduce the paper's recommended setting: Gumbel logit adjustment,
/// `τ` annealed linearly from 1 to 2, per-layer score accumulation.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// One row scratch per replay worker; the first also serves
    /// [`KvCachePolicy::observe`].
    scratch: Vec<RowScratch>,
}

/// Scratch of one observation row: the noise-adjusted logits `x + ζ` and the
/// score contribution computed from them. Emptied after every use (a snapshot
/// clone carries no dead rows); the capacity stays, so a prompt's thousands of
/// observations reuse two allocations.
#[derive(Debug, Clone, Default)]
struct RowScratch {
    adjusted: Vec<f32>,
    contribution: Vec<f32>,
}

impl RowScratch {
    /// One row's score contribution: `x + ζ` (one RNG draw per logit, in slot
    /// order), then `/ τ`, then softmax, then `× α` (only when `α ≠ 1`).
    fn score(
        &mut self,
        adjustment: LogitAdjustment,
        tau: f32,
        alpha: f32,
        rng: &mut StdRng,
        logits: &[f32],
    ) -> &[f32] {
        adjustment.adjust_into(logits, rng, &mut self.adjusted);
        softmax_with_temperature_into(&self.adjusted, tau, &mut self.contribution);
        if alpha != 1.0 {
            for c in &mut self.contribution {
                *c *= alpha;
            }
        }
        &self.contribution
    }

    fn clear(&mut self) {
        self.adjusted.clear();
        self.contribution.clear();
    }
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
            scratch: vec![RowScratch::default()],
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
        let tau = self
            .config
            .temperature
            .tau(obs.phase, obs.step, obs.total_steps);
        let scratch = &mut self.scratch[0];
        let contribution = scratch.score(
            self.config.adjustment,
            tau,
            self.alpha,
            &mut self.rng,
            obs.logits,
        );
        self.accumulator.accumulate(obs.layer, contribution);
        scratch.clear();
    }

    /// With per-layer scores and `workers ≥ 2`, splits the layers into
    /// `min(workers, L)` contiguous groups, one per worker ([`fan_out`]). Every
    /// worker walks all rows in sequential order with its own copy of the RNG
    /// at the run's start: it scores and accumulates the rows of its own
    /// layers, and steps past `len × draws_per_logit` words for every other
    /// row, so each row draws exactly the noise `observe` would have given it
    /// and each bucket adds the same rows in the same order. All copies end
    /// in the same state; the first worker's copy is the policy's own RNG.
    /// A [`ScoreScope::Shared`] bucket sums every layer in `(token, layer,
    /// head)` order, so it stays on the serial loop. Buckets and scratch are
    /// sized here, on the calling thread: the workers never allocate.
    fn observe_rows(&mut self, rows: &ObservationRows<'_>, workers: usize) {
        let layers = rows.num_layers;
        let groups = workers.min(layers);
        if groups < 2 || self.accumulator.scope() == ScoreScope::Shared {
            for obs in rows.iter() {
                self.observe(&obs);
            }
            return;
        }
        let mut widest = 0;
        for layer in 0..layers {
            let longest = (0..rows.tokens())
                .flat_map(|token| (0..rows.num_heads).map(move |head| (token, head)))
                .map(|(token, head)| rows.logits(token, layer, head).len())
                .max()
                .unwrap_or(0);
            self.accumulator.grow(layer, longest);
            widest = widest.max(longest);
        }
        if self.scratch.len() < groups {
            self.scratch.resize_with(groups, RowScratch::default);
        }
        for scratch in &mut self.scratch[..groups] {
            scratch.adjusted.reserve(widest);
            scratch.contribution.reserve(widest);
        }

        let (config, alpha, start) = (self.config, self.alpha, self.rng.clone());
        let mut own_rng = Some(&mut self.rng);
        let mut buckets = self.accumulator.buckets_mut();
        let parts = self.scratch[..groups]
            .iter_mut()
            .enumerate()
            .map(|(group, scratch)| {
                let group_layers = group * layers / groups..(group + 1) * layers / groups;
                let (mine, rest) = std::mem::take(&mut buckets).split_at_mut(group_layers.len());
                buckets = rest;
                (group_layers, mine, scratch, own_rng.take())
            });
        fan_out(parts, |(group_layers, buckets, scratch, rng)| {
            let mut copy = start.clone();
            let rng = rng.unwrap_or(&mut copy);
            replay_layers(&config, alpha, rows, group_layers, buckets, scratch, rng);
        });
    }

    /// The top `k − w` slots of the key region, then the recent range, read
    /// from the score bucket in place (slots it does not cover yet score 0).
    fn select_retained_into(
        &mut self,
        layer: usize,
        live: usize,
        budget: &CacheBudget,
        out: &mut Vec<usize>,
    ) {
        let target = budget.capacity().min(live);
        let recent = if self.recent_window {
            budget.recent_window().min(target)
        } else {
            0
        };
        let key_region = live - recent;
        let scores = self.accumulator.scores_in_place(layer, live);
        // Key tokens are drawn from everything *older* than the recent window
        // (Algorithm 1: Skey = argmax_{k-w} fθ[ : -w]), so the window appended
        // after them keeps `out` ascending.
        top_k_indices_into(&scores[..key_region], target - recent, out);
        out.extend(key_region..live);
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

/// One replay worker of [`ScoredPolicy::observe_rows`]: walks every row of
/// `rows` in sequential order, scores and accumulates the rows of `layers`
/// into `buckets` (`buckets[0]` is `layers.start`'s), and steps `rng` past
/// the draws of every other row.
fn replay_layers(
    config: &KeyformerConfig,
    alpha: f32,
    rows: &ObservationRows<'_>,
    layers: Range<usize>,
    buckets: &mut [Vec<f32>],
    scratch: &mut RowScratch,
    rng: &mut StdRng,
) {
    let draws = config.adjustment.draws_per_logit();
    let mut skip = 0;
    for token in 0..rows.tokens() {
        let tau = config
            .temperature
            .tau(rows.phase, rows.first_step + token, rows.total_steps);
        for layer in 0..rows.num_layers {
            for head in 0..rows.num_heads {
                let logits = rows.logits(token, layer, head);
                if !layers.contains(&layer) {
                    skip += logits.len() * draws;
                    continue;
                }
                if logits.is_empty() {
                    continue;
                }
                skip_words(rng, std::mem::take(&mut skip));
                let contribution = scratch.score(config.adjustment, tau, alpha, rng, logits);
                add_row(&mut buckets[layer - layers.start], contribution);
                scratch.clear();
            }
        }
    }
    skip_words(rng, skip);
}

/// Advances `rng` by `words` raw draws.
fn skip_words(rng: &mut StdRng, words: usize) {
    for _ in 0..words {
        rng.next_u64();
    }
}

#[cfg(test)]
impl ScoredPolicy {
    /// Whether the observation scratch is empty, so a snapshot clone carries no
    /// dead row.
    pub(super) fn scratch_is_empty(&self) -> bool {
        self.scratch
            .iter()
            .all(|s| s.adjusted.is_empty() && s.contribution.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Phase;

    const LAYERS: usize = 5;
    const HEADS: usize = 2;
    const TOKENS: usize = 6;

    /// A ragged run: token `t`'s rows are `9 + 3t + layer` logits long, so
    /// later tokens are longer and every layer's bucket grows inside the run.
    fn run_rows() -> (Vec<(usize, usize)>, Vec<f32>) {
        let (mut index, mut data) = (Vec::new(), Vec::new());
        for token in 0..TOKENS {
            for layer in 0..LAYERS {
                for head in 0..HEADS {
                    let len = 9 + 3 * token + layer;
                    index.push((data.len(), len));
                    data.extend((0..len).map(|i| {
                        ((i * 31 + token * 17 + layer * 7 + head * 3) % 23) as f32 * 0.37 - 4.0
                    }));
                }
            }
        }
        (index, data)
    }

    /// Every layer's scores, by bits.
    fn score_bits(policy: &ScoredPolicy, live: usize) -> Vec<Vec<u32>> {
        (0..LAYERS)
            .map(|layer| {
                let scores = policy.scores(layer, live);
                scores.iter().map(|s| s.to_bits()).collect()
            })
            .collect()
    }

    /// Observes one short row per layer: the policy enters the run with a
    /// used RNG and buckets shorter than the run's rows.
    fn warm_up(policy: &mut ScoredPolicy) {
        let logits: Vec<f32> = (0..7).map(|i| i as f32 * 0.5 - 1.0).collect();
        for layer in 0..LAYERS {
            policy.observe(&AttentionObservation {
                layer,
                head: 0,
                phase: Phase::Prompt,
                step: 0,
                total_steps: 16,
                logits: &logits,
            });
        }
    }

    /// `observe_rows` at 1, 2, 3, 4 and 7 workers leaves every configuration
    /// in the state of the serial `observe` loop: the same score bits in every
    /// layer, and the same RNG position (the next 8 observations after the
    /// run score the same bits).
    #[test]
    fn observe_rows_matches_the_serial_observe_loop_bit_for_bit() {
        let (index, data) = run_rows();
        let keyformer = |adjustment, scope| {
            ScoredPolicy::keyformer(
                KeyformerConfig::default()
                    .with_adjustment(adjustment)
                    .with_scope(scope)
                    .with_seed(41),
            )
        };
        let policies = [
            keyformer(LogitAdjustment::Gumbel, ScoreScope::PerLayer),
            keyformer(LogitAdjustment::Gumbel, ScoreScope::Shared),
            keyformer(LogitAdjustment::paper_gaussian(), ScoreScope::PerLayer),
            keyformer(LogitAdjustment::paper_constant(), ScoreScope::PerLayer),
            ScoredPolicy::h2o(ScoreScope::PerLayer),
            ScoredPolicy::damped(0.9).unwrap(),
            ScoredPolicy::key_only(),
        ];
        let after: Vec<f32> = (0..40).map(|i| ((i * 13) % 11) as f32 * 0.4).collect();
        for phase in [Phase::Prompt, Phase::Generation] {
            let rows = ObservationRows {
                phase,
                first_step: 3,
                total_steps: 16,
                num_layers: LAYERS,
                num_heads: HEADS,
                index: &index,
                data: &data,
            };
            for fresh in &policies {
                let run = |workers: Option<usize>| {
                    let mut policy = fresh.clone();
                    warm_up(&mut policy);
                    match workers {
                        Some(workers) => policy.observe_rows(&rows, workers),
                        None => rows.iter().for_each(|obs| policy.observe(&obs)),
                    }
                    assert!(policy.scratch_is_empty());
                    let in_run = score_bits(&policy, 40);
                    for step in 0..8 {
                        policy.observe(&AttentionObservation {
                            layer: step % LAYERS,
                            head: 0,
                            phase,
                            step: 9 + step,
                            total_steps: 16,
                            logits: &after,
                        });
                    }
                    (in_run, score_bits(&policy, 40))
                };
                let serial = run(None);
                for workers in [1, 2, 3, 4, 7] {
                    assert!(
                        run(Some(workers)) == serial,
                        "{} ({}, {}) at {workers} workers, {phase}",
                        fresh.name(),
                        fresh.config().adjustment,
                        fresh.config().scope,
                    );
                }
            }
        }
    }
}
