//! Unit tests of [`ScoredPolicy::key_only`](crate::policies::scored::ScoredPolicy::key_only).

mod tests {
    use crate::budget::CacheBudget;
    use crate::observation::{AttentionObservation, Phase};
    use crate::policies::scored::ScoredPolicy;
    use crate::policy::KvCachePolicy;

    fn observe(policy: &mut ScoredPolicy, layer: usize, logits: &[f32]) {
        policy.observe(&AttentionObservation {
            layer,
            head: 0,
            phase: Phase::Prompt,
            step: 0,
            total_steps: 4,
            logits,
        });
    }

    #[test]
    fn keeps_highest_scoring_slots_regardless_of_recency() {
        let mut p = ScoredPolicy::key_only();
        // Slot 0 dominates attention; slots 3 and 4 are the most recent.
        observe(&mut p, 0, &[5.0, 0.0, 0.0, 0.1, 0.1]);
        observe(&mut p, 0, &[5.0, 0.0, 0.0, 0.1, 0.1]);
        let budget = CacheBudget::new(2, 1);
        let sel = p.select_retained(0, 5, &budget);
        assert!(sel.contains(&0), "dominant early token must survive");
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn compaction_remaps_scores() {
        let mut p = ScoredPolicy::key_only();
        observe(&mut p, 0, &[3.0, 0.0, 2.9, 0.0]);
        let budget = CacheBudget::new(2, 1);
        let sel = p.select_retained(0, 4, &budget);
        assert_eq!(sel, vec![0, 2]);
        p.compact(0, &sel);
        // After compaction the two survivors occupy slots 0 and 1; another eviction
        // round must still rank the old slot 0 first.
        let sel2 = p.select_retained(0, 2, &CacheBudget::new(1, 1));
        assert_eq!(sel2, vec![0]);
    }

    #[test]
    fn layers_are_scored_independently() {
        let mut p = ScoredPolicy::key_only();
        observe(&mut p, 0, &[5.0, 0.0, 0.0]);
        observe(&mut p, 1, &[0.0, 0.0, 5.0]);
        let budget = CacheBudget::new(1, 1);
        assert_eq!(p.select_retained(0, 3, &budget), vec![0]);
        assert_eq!(p.select_retained(1, 3, &budget), vec![2]);
    }

    #[test]
    fn reset_clears_state() {
        let mut p = ScoredPolicy::key_only();
        observe(&mut p, 0, &[5.0, 0.0]);
        p.reset();
        // With no observations scores are all zero; ties resolve to earliest indices.
        let sel = p.select_retained(0, 4, &CacheBudget::new(2, 1));
        assert_eq!(sel, vec![0, 1]);
        assert_eq!(p.name(), "key-only");
    }
}
