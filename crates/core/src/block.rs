//! The paged KV-cache allocator: fixed-size token blocks handed out from a
//! shared, refcounted pool.
//!
//! Contiguous per-sequence KV buffers waste a serving pool twice: transient
//! prefill spikes hold bytes the steady state never needs, and per-session
//! fragmentation strands the rest. A [`BlockPool`] manages memory at the
//! granularity of *blocks* — [`BlockPool::block_size`] token slots of one
//! decoder layer — so freed capacity is immediately reusable by any other
//! sequence, the way vLLM-style paged attention does it.
//!
//! The pool does double duty:
//!
//! 1. **Allocation.** [`LayerKvCache`](crate::cache::LayerKvCache) draws a block
//!    whenever its last block fills and releases blocks the moment an eviction
//!    or retirement empties them. Blocks are refcounted ([`BlockPool::retain`] /
//!    [`BlockPool::release`]) so future sharing (e.g. common-prefix caching) can
//!    map one physical block into several sequences.
//! 2. **Reservation.** The serving scheduler reserves each request's
//!    steady-state block count at admission ([`BlockPool::try_reserve`]) and
//!    returns it at retirement, which replaces projected-byte guessing with
//!    block-accurate admission.
//!
//! Two capacity disciplines are supported ([`OvercommitPolicy`]): the default
//! [`AllowTransient`](OvercommitPolicy::AllowTransient) lets allocations exceed
//! the capacity during prefill spikes (the overshoot is tracked and reported in
//! [`BlockPoolStats`]), while [`Strict`](OvercommitPolicy::Strict) hard-fails
//! allocations past capacity — the mode chunked, resumable prefill is built for.
//!
//! ```
//! use keyformer_core::block::{BlockPool, OvercommitPolicy};
//!
//! let mut pool = BlockPool::bounded(16, 2, OvercommitPolicy::Strict)?;
//! let a = pool.alloc()?;
//! let b = pool.alloc()?;
//! assert!(pool.alloc().is_err(), "capacity is enforced");
//! pool.release(a)?;
//! assert_eq!(pool.blocks_free(), 1);
//! let _reusable = pool.alloc()?; // freed blocks are immediately reusable
//! pool.release(b)?;
//! # Ok::<(), keyformer_core::CoreError>(())
//! ```

use crate::CoreError;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Default number of token slots per block.
///
/// Small enough that per-sequence internal fragmentation stays under one
/// block's worth of slots per layer, large enough that the allocator is off the
/// per-token hot path (one allocation every `16` appended tokens per layer).
pub const DEFAULT_BLOCK_SIZE: usize = 16;

/// Identifier of one physical block within its pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(u32);

impl BlockId {
    /// The raw index of this block within its pool.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// What the pool does when an allocation would exceed its block capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OvercommitPolicy {
    /// Allocations past capacity succeed; the overshoot is tracked in
    /// [`BlockPoolStats::peak_in_use`]. This reproduces the PR 2 serving
    /// behaviour, where the prefill transient was documented headroom rather
    /// than enforced.
    AllowTransient,
    /// Allocations past capacity fail with [`CoreError::PoolExhausted`]. Callers
    /// (chunked prefill) are expected to pause and retry once blocks free up.
    Strict,
}

/// A point-in-time snapshot of a pool's accounting, serializable for the
/// paging experiment's `BENCH_paging.json`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockPoolStats {
    /// Token slots per block.
    pub block_size: usize,
    /// Block capacity (`None` for an unbounded pool).
    pub capacity_blocks: Option<usize>,
    /// Blocks currently allocated (refcount > 0).
    pub in_use: usize,
    /// Blocks currently reserved by admission control.
    pub reserved: usize,
    /// High-water mark of `in_use` over the pool's lifetime.
    pub peak_in_use: usize,
    /// High-water mark of `reserved` over the pool's lifetime.
    pub peak_reserved: usize,
    /// Total allocations performed.
    pub total_allocs: u64,
    /// Total blocks returned.
    pub total_frees: u64,
    /// Blocks currently mapped by more than one holder (refcount > 1) — the
    /// prefix-sharing working set.
    pub shared_blocks: usize,
    /// High-water mark of `shared_blocks` over the pool's lifetime.
    pub peak_shared_blocks: usize,
}

impl BlockPoolStats {
    /// Largest number of blocks the pool was ever over its capacity (0 for
    /// unbounded or never-overshooting pools) — the transient the
    /// `AllowTransient` discipline absorbed.
    pub fn peak_overshoot(&self) -> usize {
        match self.capacity_blocks {
            Some(cap) => self.peak_in_use.saturating_sub(cap),
            None => 0,
        }
    }
}

/// A fixed-block allocator with refcounted blocks and admission reservations.
///
/// See the [module docs](self) for the role it plays in the serving stack.
#[derive(Debug)]
pub struct BlockPool {
    block_size: usize,
    capacity_blocks: usize,
    overcommit: OvercommitPolicy,
    /// Refcount per ever-issued block id; 0 means free.
    refcounts: Vec<u32>,
    /// Ids with refcount 0, ready for reuse.
    free_ids: Vec<u32>,
    in_use: usize,
    reserved: usize,
    peak_in_use: usize,
    peak_reserved: usize,
    total_allocs: u64,
    total_frees: u64,
    /// Blocks with refcount > 1 right now.
    shared: usize,
    peak_shared: usize,
}

impl BlockPool {
    /// Creates a pool of at most `capacity_blocks` blocks of `block_size` slots.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `block_size` or `capacity_blocks`
    /// is zero.
    pub fn bounded(
        block_size: usize,
        capacity_blocks: usize,
        overcommit: OvercommitPolicy,
    ) -> Result<Self, CoreError> {
        if block_size == 0 {
            return Err(CoreError::InvalidConfig(
                "block size must be at least 1 token slot".into(),
            ));
        }
        if capacity_blocks == 0 {
            return Err(CoreError::InvalidConfig(
                "block pool must hold at least 1 block".into(),
            ));
        }
        Ok(BlockPool {
            block_size,
            capacity_blocks,
            overcommit,
            refcounts: Vec::new(),
            free_ids: Vec::new(),
            in_use: 0,
            reserved: 0,
            peak_in_use: 0,
            peak_reserved: 0,
            total_allocs: 0,
            total_frees: 0,
            shared: 0,
            peak_shared: 0,
        })
    }

    /// Creates a pool with no capacity limit (standalone sessions outside a
    /// serving pool).
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn unbounded(block_size: usize) -> Self {
        BlockPool::bounded(block_size, usize::MAX, OvercommitPolicy::AllowTransient)
            .expect("non-zero block size")
    }

    /// Token slots per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Block capacity, or `None` when unbounded.
    pub fn capacity_blocks(&self) -> Option<usize> {
        (self.capacity_blocks != usize::MAX).then_some(self.capacity_blocks)
    }

    /// The pool's overcommit discipline.
    pub fn overcommit(&self) -> OvercommitPolicy {
        self.overcommit
    }

    /// Blocks currently allocated.
    pub fn blocks_in_use(&self) -> usize {
        self.in_use
    }

    /// Blocks currently available before the capacity is reached
    /// (`usize::MAX` for unbounded pools; 0 when overshooting).
    pub fn blocks_free(&self) -> usize {
        if self.capacity_blocks == usize::MAX {
            usize::MAX
        } else {
            self.capacity_blocks.saturating_sub(self.in_use)
        }
    }

    /// Blocks currently reserved by admission control.
    pub fn blocks_reserved(&self) -> usize {
        self.reserved
    }

    /// `true` when `extra` more blocks can be allocated without exceeding the
    /// capacity. Always `true` for unbounded or `AllowTransient` pools.
    pub fn can_allocate(&self, extra: usize) -> bool {
        match self.overcommit {
            OvercommitPolicy::AllowTransient => true,
            OvercommitPolicy::Strict => {
                self.capacity_blocks == usize::MAX
                    || self.in_use.saturating_add(extra) <= self.capacity_blocks
            }
        }
    }

    /// `true` when the calling session — currently holding `own_in_use` blocks
    /// against a reservation of `own_reserved` — can allocate `needed` more
    /// blocks without making any *other* session's reservation unsatisfiable.
    ///
    /// This is the pre-flight chunked prefill runs before growing past its
    /// reservation on a strict pool: a raw capacity check
    /// ([`BlockPool::can_allocate`]) would let the prefill transient consume
    /// blocks a decoder has reserved but not yet allocated (e.g. the
    /// `capacity + 1` decode-step slot of a block-aligned budget), turning the
    /// decoder's guaranteed allocation into a spurious failure. Assumes every
    /// session other than the caller stays within its reservation, which the
    /// scheduler guarantees by serializing transient-overshooting prefills.
    /// Always `true` for unbounded or `AllowTransient` pools.
    pub fn can_allocate_transient(
        &self,
        needed: usize,
        own_in_use: usize,
        own_reserved: usize,
    ) -> bool {
        match self.overcommit {
            OvercommitPolicy::AllowTransient => true,
            OvercommitPolicy::Strict => {
                if self.capacity_blocks == usize::MAX {
                    return true;
                }
                let others_reserved = self.reserved.saturating_sub(own_reserved);
                let others_in_use = self.in_use.saturating_sub(own_in_use);
                let owed_to_others = others_reserved.saturating_sub(others_in_use);
                self.in_use
                    .saturating_add(needed)
                    .saturating_add(owed_to_others)
                    <= self.capacity_blocks
            }
        }
    }

    /// The largest `needed` for which [`BlockPool::can_allocate_transient`]
    /// would return `true` right now (`usize::MAX` for unbounded or
    /// `AllowTransient` pools).
    ///
    /// Chunk-batched prefill reads this once per chunk — a single lock
    /// round-trip — and sizes the chunk prefix it forwards to the headroom,
    /// instead of asking `can_allocate_transient` once per token.
    pub fn max_transient_blocks(&self, own_in_use: usize, own_reserved: usize) -> usize {
        match self.overcommit {
            OvercommitPolicy::AllowTransient => usize::MAX,
            OvercommitPolicy::Strict => {
                if self.capacity_blocks == usize::MAX {
                    return usize::MAX;
                }
                let others_reserved = self.reserved.saturating_sub(own_reserved);
                let others_in_use = self.in_use.saturating_sub(own_in_use);
                let owed_to_others = others_reserved.saturating_sub(others_in_use);
                self.capacity_blocks
                    .saturating_sub(self.in_use)
                    .saturating_sub(owed_to_others)
            }
        }
    }

    /// Allocates one block with refcount 1.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PoolExhausted`] under
    /// [`OvercommitPolicy::Strict`] once the capacity is reached.
    pub fn alloc(&mut self) -> Result<BlockId, CoreError> {
        if !self.can_allocate(1) {
            return Err(CoreError::PoolExhausted {
                in_use: self.in_use,
                capacity: self.capacity_blocks,
            });
        }
        let id = match self.free_ids.pop() {
            Some(id) => id,
            None => {
                let id = u32::try_from(self.refcounts.len()).expect("block ids fit in u32");
                self.refcounts.push(0);
                id
            }
        };
        self.refcounts[id as usize] = 1;
        self.in_use += 1;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        self.total_allocs += 1;
        Ok(BlockId(id))
    }

    /// Increments a block's refcount (shared mappings).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBlock`] if the block is not currently
    /// allocated, leaving the pool untouched — a bookkeeping bug in a caller
    /// retires that caller's request instead of panicking the scheduler.
    pub fn retain(&mut self, id: BlockId) -> Result<(), CoreError> {
        let Some(rc) = self.refcounts.get_mut(id.0 as usize).filter(|rc| **rc > 0) else {
            return Err(CoreError::InvalidBlock {
                id: id.0,
                op: "retain",
            });
        };
        *rc += 1;
        if *rc == 2 {
            self.shared += 1;
            self.peak_shared = self.peak_shared.max(self.shared);
        }
        Ok(())
    }

    /// Decrements a block's refcount, freeing the block (and making its id
    /// immediately reusable) when the count reaches zero.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBlock`] if the block is not currently
    /// allocated, leaving the pool untouched.
    pub fn release(&mut self, id: BlockId) -> Result<(), CoreError> {
        let Some(rc) = self.refcounts.get_mut(id.0 as usize).filter(|rc| **rc > 0) else {
            return Err(CoreError::InvalidBlock {
                id: id.0,
                op: "release",
            });
        };
        *rc -= 1;
        if *rc == 1 {
            self.shared -= 1;
        }
        if *rc == 0 {
            self.in_use -= 1;
            self.total_frees += 1;
            self.free_ids.push(id.0);
        }
        Ok(())
    }

    /// Atomic copy-on-write fork probe: decides in one step whether a writer
    /// mapping `old` needs a private copy, and if so allocates the replacement
    /// block and releases the writer's mapping of `old`.
    ///
    /// Returns `Ok(None)` when `old` is privately mapped (refcount 1) — the
    /// caller may write in place. Returns `Ok(Some(new_id))` when `old` is
    /// shared: the caller now owns `new_id` and no longer maps `old` (whose
    /// refcount was above 1, so it is never freed here). Doing both sides of
    /// the decision under one pool lock acquisition is what lets concurrent
    /// decode threads race writes to a shared block safely: the lock
    /// linearizes the probes, so exactly one racer can observe the block
    /// private.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBlock`] if `old` is not currently allocated
    /// and [`CoreError::PoolExhausted`] if the fork needs a block a strict pool
    /// does not have; the pool is left untouched either way.
    pub fn fork_block(&mut self, old: BlockId) -> Result<Option<BlockId>, CoreError> {
        match self.refcounts.get(old.0 as usize).copied() {
            None | Some(0) => Err(CoreError::InvalidBlock {
                id: old.0,
                op: "fork",
            }),
            Some(1) => Ok(None),
            Some(_) => {
                let new_id = self.alloc()?;
                self.release(old)
                    .expect("shared block stays allocated during fork");
                Ok(Some(new_id))
            }
        }
    }

    /// Current refcount of a block (0 when free).
    pub fn refcount(&self, id: BlockId) -> u32 {
        self.refcounts.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Blocks currently mapped by more than one holder.
    pub fn shared_blocks(&self) -> usize {
        self.shared
    }

    /// Reserves `blocks` against the capacity if they fit alongside the
    /// existing reservations; returns whether the reservation was taken.
    /// Reservations are pure admission accounting — they do not move blocks.
    pub fn try_reserve(&mut self, blocks: usize) -> bool {
        if self.capacity_blocks != usize::MAX
            && self.reserved.saturating_add(blocks) > self.capacity_blocks
        {
            return false;
        }
        self.reserved += blocks;
        self.peak_reserved = self.peak_reserved.max(self.reserved);
        true
    }

    /// Returns a reservation taken with [`BlockPool::try_reserve`].
    pub fn unreserve(&mut self, blocks: usize) {
        self.reserved = self.reserved.saturating_sub(blocks);
    }

    /// Point-in-time accounting snapshot.
    pub fn stats(&self) -> BlockPoolStats {
        BlockPoolStats {
            block_size: self.block_size,
            capacity_blocks: self.capacity_blocks(),
            in_use: self.in_use,
            reserved: self.reserved,
            peak_in_use: self.peak_in_use,
            peak_reserved: self.peak_reserved,
            total_allocs: self.total_allocs,
            total_frees: self.total_frees,
            shared_blocks: self.shared,
            peak_shared_blocks: self.peak_shared,
        }
    }
}

/// A cloneable handle to a [`BlockPool`] shared by every layer cache of every
/// session admitted against it.
///
/// The handle is `Send + Sync`; the scheduler, the sessions and their layer
/// caches all hold clones of one handle, so a block freed by any layer's
/// eviction is instantly allocatable by any other sequence.
#[derive(Debug, Clone)]
pub struct SharedBlockPool {
    inner: Arc<Mutex<BlockPool>>,
}

impl SharedBlockPool {
    /// Wraps a pool in a shared handle.
    pub fn new(pool: BlockPool) -> Self {
        SharedBlockPool {
            inner: Arc::new(Mutex::new(pool)),
        }
    }

    /// Shared handle to a bounded pool; see [`BlockPool::bounded`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `block_size` or
    /// `capacity_blocks` is zero.
    pub fn bounded(
        block_size: usize,
        capacity_blocks: usize,
        overcommit: OvercommitPolicy,
    ) -> Result<Self, CoreError> {
        Ok(Self::new(BlockPool::bounded(
            block_size,
            capacity_blocks,
            overcommit,
        )?))
    }

    /// Shared handle to an unbounded pool; see [`BlockPool::unbounded`].
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn unbounded(block_size: usize) -> Self {
        Self::new(BlockPool::unbounded(block_size))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BlockPool> {
        self.inner.lock().expect("block pool lock poisoned")
    }

    /// See [`BlockPool::block_size`].
    pub fn block_size(&self) -> usize {
        self.lock().block_size()
    }

    /// See [`BlockPool::capacity_blocks`].
    pub fn capacity_blocks(&self) -> Option<usize> {
        self.lock().capacity_blocks()
    }

    /// See [`BlockPool::overcommit`].
    pub fn overcommit(&self) -> OvercommitPolicy {
        self.lock().overcommit()
    }

    /// See [`BlockPool::blocks_in_use`].
    pub fn blocks_in_use(&self) -> usize {
        self.lock().blocks_in_use()
    }

    /// See [`BlockPool::blocks_free`].
    pub fn blocks_free(&self) -> usize {
        self.lock().blocks_free()
    }

    /// See [`BlockPool::blocks_reserved`].
    pub fn blocks_reserved(&self) -> usize {
        self.lock().blocks_reserved()
    }

    /// See [`BlockPool::can_allocate`].
    pub fn can_allocate(&self, extra: usize) -> bool {
        self.lock().can_allocate(extra)
    }

    /// See [`BlockPool::can_allocate_transient`].
    pub fn can_allocate_transient(
        &self,
        needed: usize,
        own_in_use: usize,
        own_reserved: usize,
    ) -> bool {
        self.lock()
            .can_allocate_transient(needed, own_in_use, own_reserved)
    }

    /// See [`BlockPool::max_transient_blocks`].
    pub fn max_transient_blocks(&self, own_in_use: usize, own_reserved: usize) -> usize {
        self.lock().max_transient_blocks(own_in_use, own_reserved)
    }

    /// See [`BlockPool::alloc`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PoolExhausted`] under
    /// [`OvercommitPolicy::Strict`] once the capacity is reached.
    pub fn alloc(&self) -> Result<BlockId, CoreError> {
        self.lock().alloc()
    }

    /// See [`BlockPool::retain`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBlock`] if the block is not currently
    /// allocated.
    pub fn retain(&self, id: BlockId) -> Result<(), CoreError> {
        self.lock().retain(id)
    }

    /// See [`BlockPool::release`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBlock`] if the block is not currently
    /// allocated.
    pub fn release(&self, id: BlockId) -> Result<(), CoreError> {
        self.lock().release(id)
    }

    /// See [`BlockPool::fork_block`]. The probe-allocate-release sequence runs
    /// under a single lock acquisition, which is what makes concurrent
    /// copy-on-write decisions race-free.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBlock`] if `old` is not currently allocated
    /// and [`CoreError::PoolExhausted`] if a strict pool cannot supply the
    /// fork's block.
    pub fn fork_block(&self, old: BlockId) -> Result<Option<BlockId>, CoreError> {
        self.lock().fork_block(old)
    }

    /// See [`BlockPool::refcount`].
    pub fn refcount(&self, id: BlockId) -> u32 {
        self.lock().refcount(id)
    }

    /// See [`BlockPool::shared_blocks`].
    pub fn shared_blocks(&self) -> usize {
        self.lock().shared_blocks()
    }

    /// `true` when `other` is a handle to the same underlying pool.
    pub fn same_pool(&self, other: &SharedBlockPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// See [`BlockPool::try_reserve`].
    pub fn try_reserve(&self, blocks: usize) -> bool {
        self.lock().try_reserve(blocks)
    }

    /// See [`BlockPool::unreserve`].
    pub fn unreserve(&self, blocks: usize) {
        self.lock().unreserve(blocks)
    }

    /// See [`BlockPool::stats`].
    pub fn stats(&self) -> BlockPoolStats {
        self.lock().stats()
    }
}

/// Blocks needed to hold `slots` token slots of one layer at the given block
/// size — the unit of the serving layer's admission arithmetic.
pub fn blocks_for_slots(slots: usize, block_size: usize) -> usize {
    slots.div_ceil(block_size.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(BlockPool::bounded(0, 4, OvercommitPolicy::Strict).is_err());
        assert!(BlockPool::bounded(16, 0, OvercommitPolicy::Strict).is_err());
    }

    #[test]
    fn alloc_free_recycles_ids() {
        let mut pool = BlockPool::unbounded(8);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.blocks_in_use(), 2);
        pool.release(a).unwrap();
        assert_eq!(pool.blocks_in_use(), 1);
        let c = pool.alloc().unwrap();
        assert_eq!(c, a, "freed ids are recycled before new ones are issued");
        let stats = pool.stats();
        assert_eq!(stats.total_allocs, 3);
        assert_eq!(stats.total_frees, 1);
        assert_eq!(stats.peak_in_use, 2);
        assert_eq!(stats.capacity_blocks, None);
    }

    #[test]
    fn strict_pools_enforce_capacity() {
        let mut pool = BlockPool::bounded(4, 2, OvercommitPolicy::Strict).unwrap();
        let a = pool.alloc().unwrap();
        let _b = pool.alloc().unwrap();
        assert!(matches!(
            pool.alloc(),
            Err(CoreError::PoolExhausted {
                in_use: 2,
                capacity: 2
            })
        ));
        assert!(!pool.can_allocate(1));
        pool.release(a).unwrap();
        assert!(pool.can_allocate(1));
        assert!(pool.alloc().is_ok());
    }

    #[test]
    fn transient_pools_overshoot_and_record_it() {
        let mut pool = BlockPool::bounded(4, 1, OvercommitPolicy::AllowTransient).unwrap();
        let _a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert_eq!(pool.blocks_in_use(), 2);
        assert_eq!(pool.blocks_free(), 0);
        assert_eq!(pool.stats().peak_overshoot(), 1);
        pool.release(b).unwrap();
        assert_eq!(pool.stats().peak_overshoot(), 1, "high-water is sticky");
    }

    #[test]
    fn fork_block_probes_and_forks_atomically() {
        let mut pool = BlockPool::unbounded(8);
        let a = pool.alloc().unwrap();
        // Privately mapped: write in place, pool untouched.
        assert_eq!(pool.fork_block(a).unwrap(), None);
        assert_eq!(pool.blocks_in_use(), 1);
        // Shared: the writer gets a fresh block and drops its mapping of `a`.
        pool.retain(a).unwrap();
        let forked = pool.fork_block(a).unwrap().expect("shared block forks");
        assert_ne!(forked, a);
        assert_eq!(pool.refcount(a), 1, "other holder keeps the original");
        assert_eq!(pool.refcount(forked), 1);
        assert_eq!(pool.blocks_in_use(), 2);
        // Unknown / freed blocks are rejected without touching the pool.
        pool.release(a).unwrap();
        assert!(matches!(
            pool.fork_block(a),
            Err(CoreError::InvalidBlock { op: "fork", .. })
        ));
    }

    #[test]
    fn fork_block_respects_strict_capacity() {
        let mut pool = BlockPool::bounded(4, 2, OvercommitPolicy::Strict).unwrap();
        let a = pool.alloc().unwrap();
        let _b = pool.alloc().unwrap();
        pool.retain(a).unwrap();
        // No block left for the private copy: the fork fails and the shared
        // mapping is left exactly as it was.
        assert!(matches!(
            pool.fork_block(a),
            Err(CoreError::PoolExhausted { .. })
        ));
        assert_eq!(pool.refcount(a), 2);
        assert_eq!(pool.blocks_in_use(), 2);
    }

    #[test]
    fn refcounts_keep_shared_blocks_alive() {
        let mut pool = BlockPool::unbounded(8);
        let a = pool.alloc().unwrap();
        pool.retain(a).unwrap();
        assert_eq!(pool.refcount(a), 2);
        assert_eq!(pool.shared_blocks(), 1);
        assert_eq!(pool.stats().peak_shared_blocks, 1);
        pool.release(a).unwrap();
        assert_eq!(pool.blocks_in_use(), 1, "still mapped once");
        assert_eq!(pool.shared_blocks(), 0);
        pool.release(a).unwrap();
        assert_eq!(pool.blocks_in_use(), 0);
        assert_eq!(pool.refcount(a), 0);
        assert_eq!(pool.stats().peak_shared_blocks, 1, "high-water is sticky");
    }

    #[test]
    fn bad_ids_are_errors_not_panics() {
        let mut pool = BlockPool::unbounded(8);
        let a = pool.alloc().unwrap();
        pool.release(a).unwrap();
        // Double free.
        assert_eq!(
            pool.release(a),
            Err(CoreError::InvalidBlock {
                id: a.raw(),
                op: "release"
            })
        );
        // Retain of a freed block.
        assert!(matches!(
            pool.retain(a),
            Err(CoreError::InvalidBlock { op: "retain", .. })
        ));
        // Never-issued id.
        assert!(pool.release(BlockId(99)).is_err());
        // The failed operations left the pool consistent.
        assert_eq!(pool.blocks_in_use(), 0);
        assert_eq!(pool.stats().total_frees, 1);
    }

    #[test]
    fn reservations_gate_on_capacity_not_usage() {
        let mut pool = BlockPool::bounded(8, 10, OvercommitPolicy::AllowTransient).unwrap();
        assert!(pool.try_reserve(6));
        assert!(pool.try_reserve(4));
        assert!(!pool.try_reserve(1), "reservations are capped at capacity");
        pool.unreserve(4);
        assert!(pool.try_reserve(3));
        assert_eq!(pool.blocks_reserved(), 9);
        assert_eq!(pool.stats().peak_reserved, 10);
        // Unbounded pools accept any reservation.
        let mut open = BlockPool::unbounded(8);
        assert!(open.try_reserve(usize::MAX / 2));
    }

    #[test]
    fn transient_preflight_protects_other_reservations() {
        let mut pool = BlockPool::bounded(4, 10, OvercommitPolicy::Strict).unwrap();
        // A decoder reserves 4 blocks but currently holds 2 of them.
        assert!(pool.try_reserve(4));
        let decoder: Vec<_> = (0..2).map(|_| pool.alloc().unwrap()).collect();
        // A prefiller with a 3-block reservation holds 3 and wants to grow.
        assert!(pool.try_reserve(3));
        let prefiller: Vec<_> = (0..3).map(|_| pool.alloc().unwrap()).collect();
        // Raw capacity has 5 blocks free, but 2 are owed to the decoder: only 3
        // transient blocks are actually safe.
        assert!(pool.can_allocate(5));
        assert!(pool.can_allocate_transient(3, 3, 3));
        assert!(!pool.can_allocate_transient(4, 3, 3));
        // Within its own reservation a session is never blocked by what others
        // are owed.
        assert!(pool.can_allocate_transient(2, 2, 4));
        // AllowTransient and unbounded pools never gate.
        let open = BlockPool::unbounded(4);
        assert!(open.can_allocate_transient(usize::MAX / 2, 0, 0));
        // The batched headroom query agrees exactly with the per-need check:
        // it reports the largest `needed` the check would still admit.
        let headroom = pool.max_transient_blocks(3, 3);
        assert_eq!(headroom, 3);
        assert!(pool.can_allocate_transient(headroom, 3, 3));
        assert!(!pool.can_allocate_transient(headroom + 1, 3, 3));
        assert_eq!(open.max_transient_blocks(0, 0), usize::MAX);
        for id in decoder.into_iter().chain(prefiller) {
            pool.release(id).unwrap();
        }

        // Everywhere, not just at the headroom: on every discipline and for
        // callers inside, at and outside their reservation, the per-need check
        // admits `n` exactly when `n` is at most the headroom — so a chunk
        // sized to the headroom stalls on the token a per-token pre-flight
        // would have refused.
        let capacity = 10;
        let pools = [
            BlockPool::bounded(4, capacity, OvercommitPolicy::Strict).unwrap(),
            BlockPool::bounded(4, capacity, OvercommitPolicy::AllowTransient).unwrap(),
            BlockPool::unbounded(4),
        ];
        for mut pool in pools {
            // The decoder and the prefiller from above: 5 of 7 reserved blocks
            // allocated, 2 still owed to the decoder.
            assert!(pool.try_reserve(4) && pool.try_reserve(3));
            let held: Vec<_> = (0..5).map(|_| pool.alloc().unwrap()).collect();
            let strict =
                pool.overcommit() == OvercommitPolicy::Strict && pool.capacity_blocks != usize::MAX;
            for (own_in_use, own_reserved) in [
                (0, 0),
                (3, 3),
                (2, 4),
                (1, 4),
                (3, 0),
                (5, 3),
                (5, 7),
                (0, 7),
            ] {
                let headroom = pool.max_transient_blocks(own_in_use, own_reserved);
                assert_eq!(headroom == usize::MAX, !strict);
                for n in 0..=capacity + 1 {
                    assert_eq!(
                        pool.can_allocate_transient(n, own_in_use, own_reserved),
                        n <= headroom,
                        "{:?}, n {n}, own ({own_in_use}, {own_reserved})",
                        pool.overcommit()
                    );
                }
            }
            for id in held {
                pool.release(id).unwrap();
            }
        }
    }

    #[test]
    fn shared_handle_round_trips() {
        let pool = SharedBlockPool::bounded(8, 4, OvercommitPolicy::Strict).unwrap();
        let clone = pool.clone();
        let a = pool.alloc().unwrap();
        assert_eq!(clone.blocks_in_use(), 1);
        assert!(clone.try_reserve(2));
        assert_eq!(pool.blocks_reserved(), 2);
        clone.release(a).unwrap();
        assert_eq!(pool.blocks_in_use(), 0);
        assert_eq!(pool.block_size(), 8);
        assert_eq!(pool.capacity_blocks(), Some(4));
        assert!(pool.same_pool(&clone));
        assert!(!pool.same_pool(&SharedBlockPool::unbounded(8)));
    }

    #[test]
    fn blocks_for_slots_rounds_up() {
        assert_eq!(blocks_for_slots(0, 8), 0);
        assert_eq!(blocks_for_slots(1, 8), 1);
        assert_eq!(blocks_for_slots(8, 8), 1);
        assert_eq!(blocks_for_slots(9, 8), 2);
    }

    /// Compile-time thread-safety audit for the parallel serving layer: the
    /// shared pool handle must be `Send + Sync` (workers allocate through it
    /// concurrently) and the plain pool `Send` (it moves into the mutex).
    #[test]
    fn pool_handles_are_thread_safe() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send::<BlockPool>();
        assert_send_sync::<SharedBlockPool>();
        assert_send_sync::<BlockPoolStats>();
    }
}
