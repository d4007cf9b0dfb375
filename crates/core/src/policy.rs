//! The [`KvCachePolicy`] trait.

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
///    [`select_retained_into`](KvCachePolicy::select_retained_into) to get the
///    surviving slots, into a buffer it owns and reuses from round to round;
/// 3. after compacting the cache the model calls
///    [`compact`](KvCachePolicy::compact) so the policy can gather its own per-slot
///    state (accumulated scores) down to the same subset. The model selects every
///    layer of an eviction round before it compacts any, so a score shared across
///    layers is read uncompacted by all of them.
///
/// The retained-slot contract: the selection must be strictly increasing (sorted,
/// unique), in bounds (`< live`), and have length `min(live, budget.capacity())`
/// (every `live` slot for a policy that never evicts).
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
    /// the target budget, replacing the contents of `out` with them. Must satisfy
    /// the retained-slot contract described above. Every policy in the zoo does
    /// this without allocating once `out` has held `live` slots.
    fn select_retained_into(
        &mut self,
        layer: usize,
        live: usize,
        budget: &CacheBudget,
        out: &mut Vec<usize>,
    );

    /// [`select_retained_into`](KvCachePolicy::select_retained_into) into a
    /// fresh vector.
    fn select_retained(&mut self, layer: usize, live: usize, budget: &CacheBudget) -> Vec<usize> {
        let mut out = Vec::new();
        self.select_retained_into(layer, live, budget, &mut out);
        out
    }

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
