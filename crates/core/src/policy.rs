//! The [`KvCachePolicy`] trait and shared selection helpers.

use crate::budget::CacheBudget;
use crate::observation::{AttentionObservation, ObservationRows};

/// A KV-cache reduction strategy.
///
/// A policy is driven by the attention module of a decoder:
///
/// 1. after each head computes its unnormalized logits against the live cache slots,
///    the model calls [`observe`](KvCachePolicy::observe). A forward that batches
///    a run of tokens buffers their rows and hands them over in one
///    [`observe_rows`](KvCachePolicy::observe_rows) call, which must leave the
///    policy in exactly the state the token-major sequence of `observe` calls
///    would have. The default method *is* that loop; the scored policy overrides
///    it to split per-layer score accumulation across worker threads by layer,
///    each worker stepping its copy of the noise RNG past the other layers' draws
///    so every row still sees the sequential stream;
/// 2. once the step's new token has been appended and the layer's slot count exceeds
///    the [`CacheBudget`], the model calls
///    [`select_retained`](KvCachePolicy::select_retained) to get the surviving slots;
/// 3. after compacting the cache the model calls
///    [`compact`](KvCachePolicy::compact) so the policy can gather its own per-slot
///    state (accumulated scores) down to the same subset. The model selects every
///    layer of an eviction round before it compacts any, so a score shared across
///    layers is read uncompacted by all of them.
///
/// The retained-slot contract: the returned vector must be sorted, contain unique
/// in-bounds indices, and have length `min(live, budget.capacity())`.
/// [`crate::cache::validate_selection`] checks the structural part of that contract.
pub trait KvCachePolicy: Send {
    /// Short, stable identifier used in tables and benchmark labels.
    fn name(&self) -> &'static str;

    /// Records one head's attention logits for one decode step.
    fn observe(&mut self, obs: &AttentionObservation<'_>);

    /// Records a run of buffered rows, with up to `workers` threads: the same
    /// state as [`observe`](KvCachePolicy::observe) on every row in token-major
    /// order, which is what this default does (on the calling thread).
    fn observe_rows(&mut self, rows: &ObservationRows<'_>, workers: usize) {
        let _ = workers;
        for obs in rows.iter() {
            self.observe(&obs);
        }
    }

    /// Chooses which cache slots of `layer` survive, given `live` current slots and
    /// the target budget. Must satisfy the retained-slot contract described above.
    fn select_retained(&mut self, layer: usize, live: usize, budget: &CacheBudget) -> Vec<usize>;

    /// Notifies the policy that `layer`'s cache was compacted to `retained` so it can
    /// remap any per-slot state it keeps.
    fn compact(&mut self, layer: usize, retained: &[usize]);

    /// Clears all per-sequence state, making the policy reusable for a new request.
    fn reset(&mut self);

    /// Snapshots the policy — accumulated scores, RNG stream position and all —
    /// into an independent boxed clone. The prefix registry stores such
    /// snapshots at block boundaries so a sequence attaching to a cached prefix
    /// resumes with *exactly* the policy state a cold start would have reached
    /// at that point; [`crate::spec::PolicySpec::build`] plus replayed
    /// observations would get there too, but only by redoing the forwards the
    /// attach exists to skip.
    fn clone_box(&self) -> Box<dyn KvCachePolicy>;
}

/// Returns the slot indices of the most recent `window` slots of a cache holding
/// `live` slots (i.e. the suffix), sorted ascending.
pub fn recent_slots(live: usize, window: usize) -> Vec<usize> {
    let start = live.saturating_sub(window);
    (start..live).collect()
}

/// Keeps every slot: the identity selection `0..live` truncated to nothing (used by
/// the full-attention policy, which never evicts).
pub fn all_slots(live: usize) -> Vec<usize> {
    (0..live).collect()
}

/// Merges a set of key-token indices with the recent window, deduplicating and
/// sorting, then tops the result up with the highest-scoring remaining slots if the
/// union came up short of `target` (which happens when key tokens fall inside the
/// recent window).
///
/// `scores[i]` is the selection score of slot `i`; slots already selected are skipped
/// during the top-up. The result always has length `min(live, target)`.
pub fn merge_key_and_recent(
    key_slots: &[usize],
    live: usize,
    target: usize,
    recent_window: usize,
    scores: &[f32],
) -> Vec<usize> {
    let target = target.min(live);
    let mut keep = vec![false; live];
    for &s in key_slots {
        if s < live {
            keep[s] = true;
        }
    }
    for s in recent_slots(live, recent_window) {
        keep[s] = true;
    }
    let mut selected: Vec<usize> = (0..live).filter(|&i| keep[i]).collect();
    if selected.len() > target {
        // Too many: drop the lowest-scoring non-recent slots first.
        let recent_start = live.saturating_sub(recent_window);
        let mut droppable: Vec<usize> = selected
            .iter()
            .copied()
            .filter(|&i| i < recent_start)
            .collect();
        droppable.sort_by(|&a, &b| {
            let sa = scores.get(a).copied().unwrap_or(0.0);
            let sb = scores.get(b).copied().unwrap_or(0.0);
            sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut to_drop = selected.len() - target;
        for idx in droppable {
            if to_drop == 0 {
                break;
            }
            keep[idx] = false;
            to_drop -= 1;
        }
        selected = (0..live).filter(|&i| keep[i]).collect();
        selected.truncate(target);
    } else if selected.len() < target {
        // Too few: top up with the best remaining slots by score.
        let mut remaining: Vec<usize> = (0..live).filter(|&i| !keep[i]).collect();
        remaining.sort_by(|&a, &b| {
            let sa = scores.get(a).copied().unwrap_or(0.0);
            let sb = scores.get(b).copied().unwrap_or(0.0);
            sb.partial_cmp(&sa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });
        for idx in remaining.into_iter().take(target - selected.len()) {
            keep[idx] = true;
        }
        selected = (0..live).filter(|&i| keep[i]).collect();
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recent_slots_is_a_suffix() {
        assert_eq!(recent_slots(5, 2), vec![3, 4]);
        assert_eq!(recent_slots(3, 10), vec![0, 1, 2]);
        assert_eq!(recent_slots(0, 2), Vec::<usize>::new());
    }

    #[test]
    fn all_slots_is_identity_range() {
        assert_eq!(all_slots(3), vec![0, 1, 2]);
        assert!(all_slots(0).is_empty());
    }

    #[test]
    fn merge_combines_key_and_recent() {
        let scores = [5.0, 1.0, 4.0, 0.5, 0.2, 0.1];
        // key slots 0 and 2, recent window of 2 over 6 live slots -> {0, 2, 4, 5}.
        let sel = merge_key_and_recent(&[0, 2], 6, 4, 2, &scores);
        assert_eq!(sel, vec![0, 2, 4, 5]);
    }

    #[test]
    fn merge_tops_up_when_key_slots_overlap_recent() {
        let scores = [0.9, 0.1, 0.2, 0.3, 0.4, 0.5];
        // Key slots all fall inside the recent window; top-up must pull slot 0 (best
        // remaining score).
        let sel = merge_key_and_recent(&[4, 5], 6, 4, 2, &scores);
        assert_eq!(sel.len(), 4);
        assert!(sel.contains(&0));
        assert!(sel.contains(&4) && sel.contains(&5));
    }

    #[test]
    fn merge_drops_lowest_scoring_when_over_target() {
        let scores = [0.9, 0.8, 0.01, 0.7, 0.6, 0.5];
        let sel = merge_key_and_recent(&[0, 1, 2, 3], 6, 4, 2, &scores);
        assert_eq!(sel.len(), 4);
        // Slot 2 has the lowest score among non-recent slots and must be dropped.
        assert!(!sel.contains(&2));
        assert!(sel.contains(&4) && sel.contains(&5));
    }

    #[test]
    fn merge_handles_target_larger_than_live() {
        let sel = merge_key_and_recent(&[0], 3, 10, 1, &[1.0, 2.0, 3.0]);
        assert_eq!(sel, vec![0, 1, 2]);
    }

    #[test]
    fn merge_result_is_sorted_and_unique() {
        let scores: Vec<f32> = (0..20).map(|i| (i as f32 * 7.3) % 1.0).collect();
        let sel = merge_key_and_recent(&[1, 5, 9, 13], 20, 10, 4, &scores);
        assert_eq!(sel.len(), 10);
        let mut sorted = sel.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sel, sorted);
    }
}
