//! Window attention and its dilated variant (Figure 2 b/c of the paper).

use crate::budget::CacheBudget;
use crate::observation::AttentionObservation;
use crate::policy::KvCachePolicy;

/// Sliding-window attention: keep only the `capacity` most recent tokens.
///
/// This is the cheapest possible cache-reduction policy and the paper's running
/// example of what goes wrong when distant context is discarded wholesale: ROUGE
/// collapses even at 90% cache (Figure 7).
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowAttention;

impl WindowAttention {
    /// Creates the policy.
    pub fn new() -> Self {
        WindowAttention
    }
}

impl KvCachePolicy for WindowAttention {
    fn name(&self) -> &'static str {
        "window"
    }

    fn observe(&mut self, _obs: &AttentionObservation<'_>) {}

    fn select_retained_into(
        &mut self,
        _layer: usize,
        live: usize,
        budget: &CacheBudget,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend(live.saturating_sub(budget.capacity())..live);
    }

    fn compact(&mut self, _layer: usize, _retained: &[usize]) {}

    fn reset(&mut self) {}

    fn clone_box(&self) -> Box<dyn KvCachePolicy> {
        Box::new(*self)
    }
}

/// Dilated window attention: keep every `dilation + 1`-th slot counting back from the
/// newest token, up to `capacity` slots (Figure 2c).
///
/// With `dilation = 0` this degenerates to plain window attention.
#[derive(Debug, Clone, Copy)]
pub struct DilatedWindowAttention {
    dilation: usize,
}

impl DilatedWindowAttention {
    /// Creates a dilated window policy with the given dilation (gap between kept
    /// slots).
    pub fn new(dilation: usize) -> Self {
        DilatedWindowAttention { dilation }
    }

    /// The dilation (number of skipped slots between kept slots).
    pub fn dilation(&self) -> usize {
        self.dilation
    }
}

impl KvCachePolicy for DilatedWindowAttention {
    fn name(&self) -> &'static str {
        "dilated-window"
    }

    fn observe(&mut self, _obs: &AttentionObservation<'_>) {}

    fn select_retained_into(
        &mut self,
        _layer: usize,
        live: usize,
        budget: &CacheBudget,
        out: &mut Vec<usize>,
    ) {
        let target = budget.capacity().min(live);
        let stride = self.dilation + 1;
        out.clear();
        out.extend((0..live).rev().step_by(stride).take(target));
        // If the strided walk ran out of history before filling the budget, top up
        // with the newest slots it skipped so the cache always uses its capacity.
        let mut slot = live;
        while out.len() < target {
            slot -= 1;
            if (live - 1 - slot) % stride != 0 {
                out.push(slot);
            }
        }
        out.sort_unstable();
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

    #[test]
    fn window_keeps_suffix() {
        let mut p = WindowAttention::new();
        let budget = CacheBudget::new(3, 1);
        assert_eq!(p.select_retained(0, 10, &budget), vec![7, 8, 9]);
        assert_eq!(p.select_retained(0, 2, &budget), vec![0, 1]);
        assert_eq!(p.name(), "window");
    }

    #[test]
    fn dilated_window_skips_slots() {
        let mut p = DilatedWindowAttention::new(1);
        let budget = CacheBudget::new(3, 1);
        // Live slots 0..8, dilation 1 -> stride 2 from the newest: 7, 5, 3.
        assert_eq!(p.select_retained(0, 8, &budget), vec![3, 5, 7]);
        assert_eq!(p.dilation(), 1);
        assert_eq!(p.name(), "dilated-window");
    }

    #[test]
    fn dilation_zero_matches_window() {
        let mut dilated = DilatedWindowAttention::new(0);
        let mut window = WindowAttention::new();
        let budget = CacheBudget::new(4, 2);
        assert_eq!(
            dilated.select_retained(0, 9, &budget),
            window.select_retained(0, 9, &budget)
        );
    }

    #[test]
    fn dilated_window_tops_up_short_history() {
        let mut p = DilatedWindowAttention::new(3);
        let budget = CacheBudget::new(4, 1);
        // Stride 4 over 6 slots only reaches slots 5 and 1; top-up adds newest others.
        let sel = p.select_retained(0, 6, &budget);
        assert_eq!(sel.len(), 4);
        assert!(sel.contains(&5) && sel.contains(&1));
    }

    #[test]
    fn selections_are_sorted_unique_and_sized() {
        let mut p = DilatedWindowAttention::new(2);
        let budget = CacheBudget::new(5, 1);
        for live in 1..30 {
            let sel = p.select_retained(0, live, &budget);
            assert_eq!(sel.len(), budget.capacity().min(live));
            let mut sorted = sel.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sel, sorted);
        }
    }
}
