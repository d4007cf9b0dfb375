//! Unit tests of [`ScoredPolicy::h2o`](crate::policies::scored::ScoredPolicy::h2o).

mod tests {
    use crate::accumulator::ScoreScope;
    use crate::budget::CacheBudget;
    use crate::observation::{AttentionObservation, Phase};
    use crate::policies::scored::ScoredPolicy;
    use crate::policy::KvCachePolicy;

    fn h2o() -> ScoredPolicy {
        ScoredPolicy::h2o(ScoreScope::PerLayer)
    }

    fn observe(policy: &mut ScoredPolicy, layer: usize, logits: &[f32]) {
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
        let mut p = h2o();
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
        let mut p = h2o();
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
        let mut p = h2o();
        observe(&mut p, 0, &[0.0, 0.0, 0.0, 1.0, 2.0, 3.0]);
        let budget = CacheBudget::new(3, 3);
        let sel = p.select_retained(0, 6, &budget);
        assert_eq!(sel, vec![3, 4, 5]);
    }

    #[test]
    fn shared_scope_uses_global_scores() {
        let mut p = ScoredPolicy::h2o(ScoreScope::Shared);
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
        let mut p = h2o();
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
        let mut p = h2o();
        let rows: [&[f32]; 2] = [&[1.5, -0.25, 0.0, 3.0], &[0.5, 0.5, -2.0, 1.0, 0.75]];
        let mut want = vec![0.0f32; 5];
        for logits in rows {
            observe(&mut p, 0, logits);
            for (w, c) in want.iter_mut().zip(keyformer_tensor::ops::softmax(logits)) {
                *w += c;
            }
        }
        assert_eq!(p.scores(0, 5), want);
        assert!(
            p.scratch_is_empty(),
            "no dead row rides along in a snapshot"
        );
    }

    #[test]
    fn reset_and_name() {
        let mut p = h2o();
        observe(&mut p, 0, &[1.0, 0.0]);
        p.reset();
        assert_eq!(p.scores(0, 2), vec![0.0, 0.0]);
        assert_eq!(p.name(), "h2o");
    }
}
