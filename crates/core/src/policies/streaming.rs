//! StreamingLLM-style attention sinks (Xiao et al., 2023), the Table 3 baseline.
//!
//! StreamingLLM keeps the first few "attention sink" tokens plus a sliding window of
//! recent tokens. The paper shows this collapses on summarization because the sinks
//! carry no task content (Appendix A.7).

use crate::budget::CacheBudget;
use crate::observation::AttentionObservation;
use crate::policy::KvCachePolicy;

/// Attention-sink policy: retain the first `num_sinks` *original* tokens plus the most
/// recent `capacity - num_sinks` tokens.
///
/// Sinks are tracked by original position (via an internal map updated on
/// compaction), so they survive repeated eviction rounds the way StreamingLLM's
/// first-four-token rule intends.
#[derive(Debug, Clone)]
pub struct StreamingLlm {
    num_sinks: usize,
    /// Original sequence position of each live slot, per layer. Grows lazily as
    /// observations arrive and is compacted alongside the cache.
    positions: Vec<Vec<usize>>,
    /// Next original position to assign per layer (monotone counter).
    next_position: Vec<usize>,
}

impl StreamingLlm {
    /// Default number of sink tokens used by StreamingLLM.
    pub const DEFAULT_SINKS: usize = 4;

    /// Creates the policy with the given number of sink tokens.
    pub fn new(num_sinks: usize) -> Self {
        StreamingLlm {
            num_sinks,
            positions: Vec::new(),
            next_position: Vec::new(),
        }
    }

    /// Number of sink tokens retained at the start of the sequence.
    pub fn num_sinks(&self) -> usize {
        self.num_sinks
    }

    fn sync_layer(&mut self, layer: usize, live: usize) {
        if self.positions.len() <= layer {
            self.positions.resize_with(layer + 1, Vec::new);
            self.next_position.resize(layer + 1, 0);
        }
        let tracked = &mut self.positions[layer];
        let next = &mut self.next_position[layer];
        while tracked.len() < live {
            tracked.push(*next);
            *next += 1;
        }
    }
}

impl Default for StreamingLlm {
    fn default() -> Self {
        Self::new(Self::DEFAULT_SINKS)
    }
}

impl KvCachePolicy for StreamingLlm {
    fn name(&self) -> &'static str {
        "streaming-llm"
    }

    fn observe(&mut self, obs: &AttentionObservation<'_>) {
        self.sync_layer(obs.layer, obs.live_slots());
    }

    fn select_retained_into(
        &mut self,
        layer: usize,
        live: usize,
        budget: &CacheBudget,
        out: &mut Vec<usize>,
    ) {
        self.sync_layer(layer, live);
        let target = budget.capacity().min(live);
        let positions = &self.positions[layer][..live];
        let sinks = self.num_sinks.min(target);
        // Keep the slots whose original position is within the sink range (at
        // most `sinks` of them: positions are unique), then fill the remainder
        // with the most recent other slots: those from `recent_start` on.
        let is_sink = |slot: usize| positions[slot] < sinks;
        let mut fill = target - (0..live).filter(|&slot| is_sink(slot)).count();
        let mut recent_start = live;
        while fill > 0 {
            recent_start -= 1;
            if !is_sink(recent_start) {
                fill -= 1;
            }
        }
        out.clear();
        out.extend((0..live).filter(|&slot| is_sink(slot) || slot >= recent_start));
    }

    fn compact(&mut self, layer: usize, retained: &[usize]) {
        if let Some(tracked) = self.positions.get_mut(layer) {
            // In place, front to back: `retained` is strictly increasing, so
            // `retained[kept] >= kept`. Slots past the tracked ones are dropped.
            let (len, mut kept) = (tracked.len(), 0);
            for &from in retained.iter().take_while(|&&from| from < len) {
                tracked[kept] = tracked[from];
                kept += 1;
            }
            tracked.truncate(kept);
        }
    }

    fn reset(&mut self) {
        self.positions.clear();
        self.next_position.clear();
    }

    fn clone_box(&self) -> Box<dyn KvCachePolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Phase;

    fn observe(policy: &mut StreamingLlm, layer: usize, live: usize) {
        let logits = vec![0.0; live];
        policy.observe(&AttentionObservation {
            layer,
            head: 0,
            phase: Phase::Generation,
            step: 0,
            total_steps: 4,
            logits: &logits,
        });
    }

    #[test]
    fn keeps_sinks_and_recent_window() {
        let mut p = StreamingLlm::new(2);
        observe(&mut p, 0, 10);
        let budget = CacheBudget::new(5, 3);
        let sel = p.select_retained(0, 10, &budget);
        assert_eq!(sel, vec![0, 1, 7, 8, 9]);
        assert_eq!(p.num_sinks(), 2);
    }

    #[test]
    fn sinks_survive_repeated_compaction() {
        let mut p = StreamingLlm::new(2);
        observe(&mut p, 0, 10);
        let budget = CacheBudget::new(5, 3);
        let sel = p.select_retained(0, 10, &budget);
        p.compact(0, &sel);
        // One new token arrives; cache is now 6 slots; original sinks are slots 0,1.
        observe(&mut p, 0, 6);
        let sel2 = p.select_retained(0, 6, &budget);
        assert!(
            sel2.contains(&0) && sel2.contains(&1),
            "sinks lost: {sel2:?}"
        );
        assert_eq!(sel2.len(), 5);
    }

    #[test]
    fn budget_smaller_than_sinks_degrades_gracefully() {
        let mut p = StreamingLlm::new(4);
        observe(&mut p, 0, 8);
        let budget = CacheBudget::new(2, 1);
        let sel = p.select_retained(0, 8, &budget);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn default_uses_four_sinks() {
        let p = StreamingLlm::default();
        assert_eq!(p.num_sinks(), StreamingLlm::DEFAULT_SINKS);
        assert_eq!(p.name(), "streaming-llm");
    }

    #[test]
    fn layers_track_positions_independently() {
        let mut p = StreamingLlm::new(1);
        observe(&mut p, 0, 5);
        observe(&mut p, 2, 3);
        let budget = CacheBudget::new(2, 1);
        assert_eq!(p.select_retained(0, 5, &budget), vec![0, 4]);
        assert_eq!(p.select_retained(2, 3, &budget), vec![0, 2]);
    }

    #[test]
    fn reset_forgets_positions() {
        let mut p = StreamingLlm::new(2);
        observe(&mut p, 0, 6);
        let sel = p.select_retained(0, 6, &CacheBudget::new(3, 1));
        p.compact(0, &sel);
        p.reset();
        observe(&mut p, 0, 4);
        let sel2 = p.select_retained(0, 4, &CacheBudget::new(3, 1));
        assert_eq!(sel2, vec![0, 1, 3]);
    }
}
