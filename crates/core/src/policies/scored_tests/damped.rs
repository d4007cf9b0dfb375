//! Unit tests of [`ScoredPolicy::damped`](crate::policies::scored::ScoredPolicy::damped).

mod tests {
    use crate::accumulator::ScoreScope;
    use crate::budget::CacheBudget;
    use crate::observation::{AttentionObservation, Phase};
    use crate::policies::scored::ScoredPolicy;
    use crate::policy::KvCachePolicy;

    fn observe(policy: &mut ScoredPolicy, logits: &[f32]) {
        policy.observe(&AttentionObservation {
            layer: 0,
            head: 0,
            phase: Phase::Generation,
            step: 0,
            total_steps: 4,
            logits,
        });
    }

    #[test]
    fn construction_validates_alpha() {
        assert!(ScoredPolicy::damped(0.0).is_err());
        assert!(ScoredPolicy::damped(1.5).is_err());
        assert!(ScoredPolicy::damped(-0.5).is_err());
        let p = ScoredPolicy::damped(0.9).unwrap();
        assert!((p.alpha() - 0.9).abs() < 1e-6);
        assert_eq!(p.name(), "damped");
    }

    #[test]
    fn alpha_one_matches_h2o_ranking() {
        let mut damped = ScoredPolicy::damped(1.0).unwrap();
        let mut h2o = ScoredPolicy::h2o(ScoreScope::PerLayer);
        let logits = [3.0, 0.5, 0.1, 2.0, 0.2, 0.3];
        observe(&mut damped, &logits);
        observe(&mut h2o, &logits);
        let budget = CacheBudget::new(3, 1);
        assert_eq!(
            damped.select_retained(0, 6, &budget),
            h2o.select_retained(0, 6, &budget)
        );
    }

    #[test]
    fn damping_scales_scores_but_preserves_order() {
        let mut strong = ScoredPolicy::damped(1.0).unwrap();
        let mut weak = ScoredPolicy::damped(0.875).unwrap();
        let logits = [3.0, 1.0, 0.5, 0.2];
        observe(&mut strong, &logits);
        observe(&mut weak, &logits);
        let budget = CacheBudget::new(2, 1);
        // With a single observation the ranking is unchanged; damping alone cannot
        // change which tokens are selected — exactly the paper's point.
        assert_eq!(
            strong.select_retained(0, 4, &budget),
            weak.select_retained(0, 4, &budget)
        );
    }

    #[test]
    fn compact_and_reset_round_trip() {
        let mut p = ScoredPolicy::damped(0.9).unwrap();
        observe(&mut p, &[2.0, 1.0, 0.5, 0.1]);
        let sel = p.select_retained(0, 4, &CacheBudget::new(2, 1));
        p.compact(0, &sel);
        p.reset();
        let fresh = p.select_retained(0, 3, &CacheBudget::new(2, 1));
        assert_eq!(fresh.len(), 2);
    }
}
