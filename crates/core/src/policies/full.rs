//! Full attention: the gold-standard baseline that never evicts.

use crate::budget::CacheBudget;
use crate::observation::AttentionObservation;
use crate::policy::KvCachePolicy;

/// The paper's accuracy baseline: every token stays in the KV cache.
///
/// Selection ignores the budget and keeps all live slots, so a model wired
/// to this policy behaves exactly like an unmodified decoder. This is the reference
/// every other policy's ROUGE numbers are measured against (the MLPerf 99% band).
#[derive(Debug, Clone, Copy, Default)]
pub struct FullAttention;

impl FullAttention {
    /// Creates the policy.
    pub fn new() -> Self {
        FullAttention
    }
}

impl KvCachePolicy for FullAttention {
    fn name(&self) -> &'static str {
        "full"
    }

    fn observe(&mut self, _obs: &AttentionObservation<'_>) {}

    fn select_retained_into(
        &mut self,
        _layer: usize,
        live: usize,
        _budget: &CacheBudget,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend(0..live);
    }

    fn compact(&mut self, _layer: usize, _retained: &[usize]) {}

    fn reset(&mut self) {}

    fn clone_box(&self) -> Box<dyn KvCachePolicy> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Phase;

    #[test]
    fn never_evicts() {
        let mut p = FullAttention::new();
        let budget = CacheBudget::new(4, 2);
        assert_eq!(
            p.select_retained(0, 10, &budget),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(p.name(), "full");
    }

    #[test]
    fn observe_and_compact_are_noops() {
        let mut p = FullAttention::new();
        let logits = [1.0, 2.0];
        p.observe(&AttentionObservation {
            layer: 0,
            head: 0,
            phase: Phase::Prompt,
            step: 0,
            total_steps: 1,
            logits: &logits,
        });
        p.compact(0, &[0]);
        p.reset();
        let budget = CacheBudget::new(1, 1);
        assert_eq!(p.select_retained(0, 2, &budget), vec![0, 1]);
    }
}
