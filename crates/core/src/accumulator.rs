//! Score-function accumulation across decode steps, heads and (optionally) layers.
//!
//! Every scored policy (H2O, Damped, Key-only and Keyformer, the four configurations
//! of [`crate::policies::scored::ScoredPolicy`]) identifies key tokens from a score
//! that is *accumulated* over decoding steps (Section 3.3.2 of the paper): the sum of
//! one softmax row per observed head and step. Damped scales every row by the same
//! α, so its totals are H2O's times α (up to rounding) and rank the slots the same
//! way. With [`ScoreScope::Shared`] the rows of every layer go into one bucket.
//!
//! The accumulator also has to survive cache compaction: when slots are evicted, the
//! per-slot running totals must be gathered down to the retained subset, exactly like
//! the keys and values themselves.

/// Whether scores are accumulated per decoder layer or shared across all layers
/// (the paper's Table 3 "Per-Layer" vs. "Shared" ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScoreScope {
    /// A dedicated accumulator per decoder layer (the paper's best-performing choice).
    #[default]
    PerLayer,
    /// One global accumulator shared by every decoder layer.
    Shared,
}

impl std::fmt::Display for ScoreScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreScope::PerLayer => write!(f, "per-layer"),
            ScoreScope::Shared => write!(f, "shared"),
        }
    }
}

/// Running per-slot score totals, keyed by layer (or collapsed to a single bucket for
/// [`ScoreScope::Shared`]).
#[derive(Debug, Clone, Default)]
pub struct ScoreAccumulator {
    scope: ScoreScope,
    buckets: Vec<Vec<f32>>,
}

impl ScoreAccumulator {
    /// Creates an empty accumulator with the given scope.
    pub fn new(scope: ScoreScope) -> Self {
        ScoreAccumulator {
            scope,
            buckets: Vec::new(),
        }
    }

    /// The accumulation scope.
    pub fn scope(&self) -> ScoreScope {
        self.scope
    }

    fn bucket_index(&self, layer: usize) -> usize {
        match self.scope {
            ScoreScope::PerLayer => layer,
            ScoreScope::Shared => 0,
        }
    }

    fn ensure_bucket(&mut self, layer: usize, len: usize) -> &mut Vec<f32> {
        let idx = self.bucket_index(layer);
        if self.buckets.len() <= idx {
            self.buckets.resize_with(idx + 1, Vec::new);
        }
        let bucket = &mut self.buckets[idx];
        if bucket.len() < len {
            bucket.resize(len, 0.0);
        }
        bucket
    }

    /// Adds `contribution[i]` to the running score of slot `i` in `layer`'s bucket.
    ///
    /// The bucket grows automatically if the cache has gained slots since the last
    /// call, so newly appended tokens start with a zero score.
    pub fn accumulate(&mut self, layer: usize, contribution: &[f32]) {
        add_row(self.ensure_bucket(layer, contribution.len()), contribution);
    }

    /// Grows `layer`'s bucket to at least `len` slots, as accumulating a
    /// `len`-slot row would, without adding anything.
    pub(crate) fn grow(&mut self, layer: usize, len: usize) {
        self.ensure_bucket(layer, len);
    }

    /// Every bucket, in layer order under [`ScoreScope::PerLayer`], so worker
    /// threads can each take the buckets of their own layers (grown first
    /// with [`ScoreAccumulator::grow`]) and [`add_row`] into them.
    pub(crate) fn buckets_mut(&mut self) -> &mut [Vec<f32>] {
        &mut self.buckets
    }

    /// Current per-slot scores for `layer`, padded with zeros up to `live` slots.
    pub fn scores(&self, layer: usize, live: usize) -> Vec<f32> {
        let idx = self.bucket_index(layer);
        let mut out = vec![0.0; live];
        if let Some(bucket) = self.buckets.get(idx) {
            for (o, &s) in out.iter_mut().zip(bucket.iter()) {
                *o = s;
            }
        }
        out
    }

    /// `layer`'s first `live` per-slot scores, read in place: the bucket grows
    /// to `live` slots first, the new ones at zero as in
    /// [`ScoreAccumulator::scores`].
    pub(crate) fn scores_in_place(&mut self, layer: usize, live: usize) -> &[f32] {
        &self.ensure_bucket(layer, live)[..live]
    }

    /// Gathers the running totals of `layer`'s bucket down to the retained slots,
    /// mirroring a cache compaction, in place. `retained` is strictly increasing,
    /// as the retained-slot contract of [`crate::policy::KvCachePolicy`] requires.
    ///
    /// With [`ScoreScope::Shared`] every layer maps to the same bucket, which must
    /// be compacted exactly once per eviction round: only `layer == 0` compacts it
    /// and every other layer's call is a no-op. The caller therefore selects every
    /// layer's survivors (all equal, read from the same scores) before it compacts
    /// layer 0.
    pub fn compact(&mut self, layer: usize, retained: &[usize]) {
        if self.scope == ScoreScope::Shared && layer != 0 {
            return;
        }
        let idx = self.bucket_index(layer);
        if let Some(bucket) = self.buckets.get_mut(idx) {
            // In place, front to back: `retained` is strictly increasing, so
            // `retained[to] >= to` and no total is overwritten before it is
            // read. Slots past the bucket's end gather as zero.
            if bucket.len() < retained.len() {
                bucket.resize(retained.len(), 0.0);
            }
            for (to, &from) in retained.iter().enumerate() {
                bucket[to] = bucket.get(from).copied().unwrap_or(0.0);
            }
            bucket.truncate(retained.len());
        }
    }

    /// Resets every bucket.
    pub fn reset(&mut self) {
        self.buckets.clear();
    }
}

/// Adds `contribution[i]` to `bucket[i]`: the one accumulation every row of
/// every scored policy goes through, on whichever thread.
pub(crate) fn add_row(bucket: &mut [f32], contribution: &[f32]) {
    for (total, &c) in bucket.iter_mut().zip(contribution) {
        *total += c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_buckets_are_independent() {
        let mut acc = ScoreAccumulator::new(ScoreScope::PerLayer);
        acc.accumulate(0, &[1.0, 2.0]);
        acc.accumulate(1, &[10.0, 20.0]);
        assert_eq!(acc.scores(0, 2), vec![1.0, 2.0]);
        assert_eq!(acc.scores(1, 2), vec![10.0, 20.0]);
        assert_eq!(acc.scores(2, 2), vec![0.0, 0.0]);
    }

    #[test]
    fn shared_scope_sums_across_layers() {
        let mut acc = ScoreAccumulator::new(ScoreScope::Shared);
        acc.accumulate(0, &[1.0, 2.0]);
        acc.accumulate(5, &[1.0, 2.0]);
        assert_eq!(acc.scores(3, 2), vec![2.0, 4.0]);
    }

    #[test]
    fn accumulation_is_additive_over_steps() {
        let mut acc = ScoreAccumulator::new(ScoreScope::PerLayer);
        acc.accumulate(0, &[0.5, 0.5, 0.0]);
        acc.accumulate(0, &[0.25, 0.5, 0.25]);
        assert_eq!(acc.scores(0, 3), vec![0.75, 1.0, 0.25]);
    }

    #[test]
    fn new_slots_start_at_zero() {
        let mut acc = ScoreAccumulator::new(ScoreScope::PerLayer);
        acc.accumulate(0, &[1.0, 1.0]);
        // Cache grew by one slot before the next observation.
        acc.accumulate(0, &[0.0, 0.0, 2.0]);
        assert_eq!(acc.scores(0, 3), vec![1.0, 1.0, 2.0]);
    }

    #[test]
    fn compact_gathers_totals() {
        let mut acc = ScoreAccumulator::new(ScoreScope::PerLayer);
        acc.accumulate(0, &[1.0, 2.0, 3.0, 4.0]);
        acc.compact(0, &[0, 3]);
        assert_eq!(acc.scores(0, 2), vec![1.0, 4.0]);
        // Padding applies when asked for more live slots than stored.
        assert_eq!(acc.scores(0, 3), vec![1.0, 4.0, 0.0]);
    }

    #[test]
    fn compact_in_place_keeps_every_retained_total() {
        let mut acc = ScoreAccumulator::new(ScoreScope::PerLayer);
        acc.accumulate(0, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        acc.compact(0, &[1, 2, 4, 5]);
        assert_eq!(acc.scores(0, 4), vec![2.0, 3.0, 5.0, 6.0]);
        // Retained slots past the bucket's end gather as zero.
        acc.compact(0, &[0, 3, 4, 6]);
        assert_eq!(acc.scores(0, 4), vec![2.0, 6.0, 0.0, 0.0]);
    }

    #[test]
    fn shared_bucket_is_compacted_by_layer_zero_only() {
        let mut acc = ScoreAccumulator::new(ScoreScope::Shared);
        acc.accumulate(0, &[1.0, 2.0, 3.0, 4.0]);
        acc.accumulate(1, &[1.0, 2.0, 3.0, 4.0]);
        // One round over two layers: both select [1, 3] from the same scores.
        acc.compact(0, &[1, 3]);
        acc.compact(1, &[1, 3]);
        assert_eq!(acc.scores(1, 2), vec![4.0, 8.0]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut acc = ScoreAccumulator::new(ScoreScope::Shared);
        acc.accumulate(0, &[1.0]);
        acc.reset();
        assert_eq!(acc.scores(0, 1), vec![0.0]);
    }

    #[test]
    fn scope_display() {
        assert_eq!(ScoreScope::PerLayer.to_string(), "per-layer");
        assert_eq!(ScoreScope::Shared.to_string(), "shared");
        assert_eq!(ScoreScope::default(), ScoreScope::PerLayer);
    }
}
