//! Unit tests of [`ScoredPolicy::keyformer`](crate::policies::scored::ScoredPolicy::keyformer)
//! and [`KeyformerConfig`](crate::policies::scored::KeyformerConfig), plus the
//! score bits of every scored configuration.

mod tests {
    use crate::accumulator::ScoreScope;
    use crate::adjustment::LogitAdjustment;
    use crate::budget::CacheBudget;
    use crate::observation::{AttentionObservation, Phase};
    use crate::policies::scored::{KeyformerConfig, ScoredPolicy};
    use crate::policy::KvCachePolicy;
    use crate::temperature::TemperatureSchedule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let mut p = ScoredPolicy::default();
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
        let mut p = ScoredPolicy::default();
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
            let mut p = ScoredPolicy::keyformer(KeyformerConfig::default().with_seed(seed));
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
        let mut p = ScoredPolicy::default();
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
        let mut p =
            ScoredPolicy::keyformer(KeyformerConfig::default().with_scope(ScoreScope::Shared));
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
        let mut kf = ScoredPolicy::keyformer(
            KeyformerConfig::default()
                .with_adjustment(LogitAdjustment::None)
                .with_temperature(TemperatureSchedule::Static(1.0)),
        );
        let mut h2o = ScoredPolicy::h2o(ScoreScope::PerLayer);
        let logits = [2.0, 0.3, 1.0, 0.1, 0.4];
        kf.observe(&obs(&logits, 0, Phase::Generation));
        h2o.observe(&obs(&logits, 0, Phase::Generation));
        let ks = kf.scores(0, 5);
        let hs = h2o.scores(0, 5);
        for (a, b) in ks.iter().zip(&hs) {
            assert!((a - b).abs() < 1e-5, "{ks:?} vs {hs:?}");
        }
    }

    /// Every scored configuration's scratch-routed `observe` keeps the
    /// allocating score function's operation order and RNG draw sequence:
    /// `x + ζ`, then `/ τ`, then softmax, then `× α`, then accumulate into the
    /// layer's (or the shared) bucket — bit for bit, observation after
    /// observation, over two layers.
    #[test]
    fn observe_matches_the_allocating_score_function_bit_for_bit() {
        use keyformer_tensor::ops::softmax_with_temperature;
        let none = LogitAdjustment::None;
        let tau_one = TemperatureSchedule::Static(1.0);
        let keyformer = KeyformerConfig::default().with_seed(123);
        let shared = keyformer.with_scope(ScoreScope::Shared);
        // (policy, ζ, τ schedule, α)
        let cases = [
            (ScoredPolicy::h2o(ScoreScope::PerLayer), none, tau_one, 1.0),
            (ScoredPolicy::h2o(ScoreScope::Shared), none, tau_one, 1.0),
            (ScoredPolicy::damped(0.9).unwrap(), none, tau_one, 0.9),
            (ScoredPolicy::key_only(), none, tau_one, 1.0),
            (
                ScoredPolicy::keyformer(keyformer),
                keyformer.adjustment,
                keyformer.temperature,
                1.0,
            ),
            (
                ScoredPolicy::keyformer(shared),
                shared.adjustment,
                shared.temperature,
                1.0,
            ),
        ];
        let bits = |scores: &[f32]| scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (mut policy, adjustment, temperature, alpha) in cases {
            let (name, scope) = (policy.name(), policy.config().scope);
            let bucket = |layer: usize| match scope {
                ScoreScope::PerLayer => layer,
                ScoreScope::Shared => 0,
            };
            let mut rng = StdRng::seed_from_u64(policy.config().seed);
            let mut want = [[0.0f32; 9]; 2];
            for step in 0..4 {
                for layer in 0..2 {
                    let logits: Vec<f32> = (0..6 + step)
                        .map(|i| ((i + layer) * 5 % 7) as f32 * 0.4 - 1.0)
                        .collect();
                    policy.observe(&AttentionObservation {
                        layer,
                        ..obs(&logits, step, Phase::Generation)
                    });
                    let adjusted = adjustment.adjust(&logits, &mut rng);
                    let tau = temperature.tau(Phase::Generation, step, 10);
                    for (w, c) in want[bucket(layer)]
                        .iter_mut()
                        .zip(softmax_with_temperature(&adjusted, tau))
                    {
                        *w += c * alpha;
                    }
                    for l in 0..2 {
                        assert_eq!(
                            bits(&policy.scores(l, 9)),
                            bits(&want[bucket(l)]),
                            "{name} {scope}: step {step}, layer {l}"
                        );
                    }
                    assert!(policy.scratch_is_empty(), "{name}: scratch left behind");
                }
            }
        }
    }

    #[test]
    fn reset_restores_reproducibility() {
        let mut p = ScoredPolicy::keyformer(KeyformerConfig::default().with_seed(77));
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
        let mut p = ScoredPolicy::default();
        p.observe(&obs(&[], 0, Phase::Prompt));
        assert_eq!(p.scores(0, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid Keyformer configuration")]
    fn invalid_temperature_panics_on_construction() {
        ScoredPolicy::keyformer(
            KeyformerConfig::default().with_temperature(TemperatureSchedule::Static(0.0)),
        );
    }
}
