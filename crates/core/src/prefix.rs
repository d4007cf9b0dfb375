//! Prefix sharing: a registry mapping token prefixes to the physical KV blocks
//! that already hold them, so sequences with a common prompt prefix (system
//! prompts, few-shot templates) attach to cached blocks instead of recomputing
//! and re-storing them.
//!
//! ## Design
//!
//! The registry is keyed the way vLLM-style prefix caches are: one entry per
//! *full block* of prompt tokens, addressed by a chained hash
//! `key(b) = h(key(b-1), tokens-of-block-b)` seeded with a caller-supplied
//! *context* (in the serving layer, a digest of the effective policy spec — see
//! [`policy_context`]). Looking up a prompt walks the chain block by block and
//! stops at the first miss, which yields the longest registered prefix at block
//! granularity, with the stored tokens verified at every link so hash
//! collisions degrade to misses.
//!
//! Each entry pins, per decoder layer, one `SharedKvBlock` — a pool-retained,
//! `Arc`-shared handle to the physical block — **and a snapshot of the eviction
//! policy's state** taken at that block boundary. The snapshot is what makes
//! attachment *token-identical* to a cold start: score-accumulating policies
//! (H2O, Keyformer, damped) fold every prompt token's attention into per-slot
//! state, so skipping the forwards without restoring that state would change
//! the end-of-prompt eviction and therefore the generated tokens.
//!
//! Attachment maps the matched blocks into an empty [`KvCache`] copy-on-write
//! (see [`crate::cache`]): readers never copy; the first *write* into a shared
//! block — an eviction-driven compaction, or an append into it — forks a
//! private copy, so the registry's bytes are immutable for as long as any entry
//! pins them.
//!
//! Entries are evicted least-recently-used ([`PrefixRegistry::evict_lru`],
//! [`PrefixRegistry::clear`]) under pool pressure. Evicting an entry releases
//! only the *registry's* retain: sequences currently attached hold their own
//! refcounts and keep decoding unaffected. Evicting a mid-chain entry strands
//! its descendants (they become unreachable to lookups); they stop being
//! touched and age out through the same LRU path.

use crate::block::SharedBlockPool;
use crate::cache::{KvCache, SharedKvBlock};
use crate::policy::KvCachePolicy;
use crate::spec::PolicySpec;
use crate::CoreError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// FNV-1a over arbitrary bytes; the registry's collision-checked hash primitive.
fn fnv1a(seed: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Chained key of one prefix block given its parent's key (or the context seed
/// for block 0) and the tokens the block holds.
fn block_key(parent: u64, tokens: &[u32]) -> u64 {
    fnv1a(parent, tokens.iter().flat_map(|t| t.to_le_bytes()))
}

/// Derives the prefix-chain context seed for a policy spec. Sequences only
/// share prefixes registered under the *same* policy configuration, because a
/// registry entry's policy snapshot is only a valid resume point for an
/// identical policy state machine (same score function, same noise seed).
pub fn policy_context(spec: &PolicySpec) -> u64 {
    fnv1a(0, format!("{spec:?}").bytes())
}

/// Counters of one registry's lifetime, surfaced in the serving layer's
/// `StepReport` and the `prefix_sharing` experiment JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct PrefixRegistryStats {
    /// Entries (full blocks of one layer-set) currently registered.
    pub entries: usize,
    /// Physical blocks currently pinned by the registry (entries × layers).
    pub blocks_held: usize,
    /// Lookups that attached at least one block.
    pub hits: u64,
    /// Lookups that matched nothing.
    pub misses: u64,
    /// Prompt tokens skipped via attachment, summed over hits.
    pub attached_tokens: u64,
    /// Entries inserted over the registry's lifetime.
    pub registered: u64,
    /// Entries evicted (LRU or clear) over the registry's lifetime.
    pub evictions: u64,
}

/// A successful attachment: how much prompt was reused and the policy snapshot
/// to resume from.
pub struct AttachedPrefix {
    /// Prompt tokens now served from shared blocks (a multiple of the block
    /// size); the prefill should resume at this offset.
    pub tokens: usize,
    /// The eviction-policy state a cold start would have after forwarding
    /// exactly `tokens` prompt tokens. The attaching session must replace its
    /// fresh policy instance with this snapshot.
    pub policy: Box<dyn KvCachePolicy>,
}

impl std::fmt::Debug for AttachedPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttachedPrefix")
            .field("tokens", &self.tokens)
            .field("policy", &self.policy.name())
            .finish()
    }
}

/// One registered full block: its chain identity, pinned physical blocks (one
/// per layer) and the policy snapshot at this boundary.
struct Entry {
    /// Tokens of *this* block (length = block size), for collision checking.
    block_tokens: Vec<u32>,
    /// One pinned physical block per decoder layer.
    per_layer: Vec<SharedKvBlock>,
    /// Policy state after forwarding the whole prefix up to and including this
    /// block.
    policy: Box<dyn KvCachePolicy>,
    /// Logical timestamp of the last lookup or registration touch (LRU order).
    last_used: u64,
}

/// The prefix registry; see the [module docs](self). Usually handled through
/// the cloneable, lockable [`SharedPrefixRegistry`].
pub struct PrefixRegistry {
    pool: SharedBlockPool,
    block_size: usize,
    /// On a strict pool the registry's pins must be visible to admission
    /// arithmetic, or pinned blocks would silently eat capacity the pool's
    /// no-overshoot guarantee promised to sessions' reservations: each entry
    /// then holds a pool reservation alongside its retains, and registration
    /// is skipped (`Ok(false)`) when no reservable capacity is spare.
    reserve_pins: bool,
    /// Cap on the registry's pinned blocks. Without one, a registry over a
    /// bounded pool would grow without bound: every retired request's
    /// never-shared *suffix* blocks would stay pinned forever. At the cap,
    /// registration evicts least-recently-used entries first — attaches stamp
    /// chain roots freshest, so hot shared prefixes survive the churn and cold
    /// suffixes age out. Defaults to half the pool's capacity (`None`, i.e.
    /// unlimited, over unbounded pools).
    max_blocks: Option<usize>,
    entries: HashMap<u64, Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    attached_tokens: u64,
    registered: u64,
    evictions: u64,
}

impl std::fmt::Debug for PrefixRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixRegistry")
            .field("block_size", &self.block_size)
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl PrefixRegistry {
    /// Creates an empty registry over `pool`. Only caches drawing from this
    /// pool can register into or attach from it.
    pub fn new(pool: &SharedBlockPool) -> Self {
        PrefixRegistry {
            block_size: pool.block_size(),
            reserve_pins: pool.overcommit() == crate::block::OvercommitPolicy::Strict,
            max_blocks: pool.capacity_blocks().map(|c| (c / 2).max(1)),
            pool: pool.clone(),
            entries: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            attached_tokens: 0,
            registered: 0,
            evictions: 0,
        }
    }

    /// Token slots per registered block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The cap on pinned blocks (`None` = unlimited); see
    /// [`PrefixRegistry::set_max_blocks`].
    pub fn max_blocks(&self) -> Option<usize> {
        self.max_blocks
    }

    /// Replaces the pinned-block cap. Registration evicts least-recently-used
    /// entries to stay under it; an over-full registry shrinks lazily at the
    /// next registration.
    pub fn set_max_blocks(&mut self, max_blocks: Option<usize>) {
        self.max_blocks = max_blocks;
    }

    /// Registered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Physical blocks currently pinned by the registry.
    pub fn blocks_held(&self) -> usize {
        self.entries.values().map(|e| e.per_layer.len()).sum()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PrefixRegistryStats {
        PrefixRegistryStats {
            entries: self.entries.len(),
            blocks_held: self.blocks_held(),
            hits: self.hits,
            misses: self.misses,
            attached_tokens: self.attached_tokens,
            registered: self.registered,
            evictions: self.evictions,
        }
    }

    /// Keys of the longest registered chain matching `tokens`, walked block by
    /// block with the stored tokens verified at each link.
    fn walk(&self, context: u64, tokens: &[u32]) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut parent = context;
        for chunk in tokens.chunks_exact(self.block_size) {
            let key = block_key(parent, chunk);
            match self.entries.get(&key) {
                Some(e) if e.block_tokens == chunk => {
                    keys.push(key);
                    parent = key;
                }
                _ => break,
            }
        }
        keys
    }

    /// Longest registered prefix of `tokens` under `context`, in tokens
    /// (always a multiple of the block size). Read-only: does not touch LRU
    /// order or hit counters — the serving layer uses it to price admission
    /// before actually attaching.
    pub fn match_tokens(&self, context: u64, tokens: &[u32]) -> usize {
        self.walk(context, tokens).len() * self.block_size
    }

    /// Attaches the longest registered prefix of `prefix` into the empty
    /// `cache`, mapping the matched blocks into every layer copy-on-write.
    /// Returns `None` (counting a miss) when nothing matches. On a match the
    /// caller must resume its prefill at [`AttachedPrefix::tokens`] and adopt
    /// [`AttachedPrefix::policy`].
    ///
    /// Pass a `prefix` already truncated to the tokens the caller is willing
    /// to reuse (at least the final prompt token must stay un-attached so the
    /// prefill produces next-token logits).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `cache` is not empty, draws
    /// from a different pool, or its layer count differs from the registered
    /// entries, and [`CoreError::InvalidBlock`] if the registry's pins are out
    /// of sync with the pool (a bookkeeping bug).
    pub fn attach(
        &mut self,
        context: u64,
        prefix: &[u32],
        cache: &mut KvCache,
    ) -> Result<Option<AttachedPrefix>, CoreError> {
        if !cache.pool().same_pool(&self.pool) {
            return Err(CoreError::InvalidConfig(
                "cache draws from a different pool than the prefix registry".into(),
            ));
        }
        if cache.total_slots() != 0 {
            return Err(CoreError::InvalidConfig(
                "prefix attachment requires an empty cache".into(),
            ));
        }
        let keys = self.walk(context, prefix);
        let Some(&deepest) = keys.last() else {
            self.misses += 1;
            return Ok(None);
        };
        // Collect the handles first so the entry borrows end before the cache
        // is mutated.
        let mut per_depth: Vec<Vec<SharedKvBlock>> = Vec::with_capacity(keys.len());
        for key in &keys {
            let entry = &self.entries[key];
            if entry.per_layer.len() != cache.num_layers() {
                return Err(CoreError::InvalidConfig(format!(
                    "registered prefix spans {} layers, cache has {}",
                    entry.per_layer.len(),
                    cache.num_layers()
                )));
            }
            per_depth.push(entry.per_layer.clone());
        }
        for layer_idx in 0..cache.num_layers() {
            let layer = cache.layer_mut(layer_idx);
            for depth in &per_depth {
                layer.push_shared_block(depth[layer_idx].clone())?;
            }
        }
        let tokens = keys.len() * self.block_size;
        // Roots get the freshest stamps: evicting a root strands every
        // descendant, so LRU pressure should peel chains leaf-first and keep
        // the widely-shared roots matchable.
        for key in keys.iter().rev() {
            self.clock += 1;
            if let Some(e) = self.entries.get_mut(key) {
                e.last_used = self.clock;
            }
        }
        self.hits += 1;
        self.attached_tokens += tokens as u64;
        let policy = self.entries[&deepest].policy.clone_box();
        Ok(Some(AttachedPrefix { tokens, policy }))
    }

    /// Registers the deepest full block of `prefix` (whose length must be a
    /// positive multiple of the block size) from `cache`, pinning one physical
    /// block per layer and snapshotting `policy` at this boundary. The parent
    /// chain must already be registered — sessions call this at every block
    /// boundary during prompt forwarding, so the chain grows in order; if an
    /// ancestor was evicted in between, the registration is skipped
    /// (`Ok(false)`). Re-registering an existing block only refreshes its LRU
    /// stamp.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `prefix` is not a positive
    /// multiple of the block size, the cache draws from another pool, or the
    /// cache does not (yet) hold the whole prefix undisturbed in every layer.
    pub fn register(
        &mut self,
        context: u64,
        prefix: &[u32],
        cache: &KvCache,
        policy: &dyn KvCachePolicy,
    ) -> Result<bool, CoreError> {
        let bs = self.block_size;
        if prefix.is_empty() || prefix.len() % bs != 0 {
            return Err(CoreError::InvalidConfig(format!(
                "prefix of {} tokens is not a positive multiple of the {bs}-slot block size",
                prefix.len()
            )));
        }
        if !cache.pool().same_pool(&self.pool) {
            return Err(CoreError::InvalidConfig(
                "cache draws from a different pool than the prefix registry".into(),
            ));
        }
        let depth = prefix.len() / bs - 1;
        for layer in cache.iter() {
            if layer.len() < prefix.len() {
                return Err(CoreError::InvalidConfig(format!(
                    "cache layer holds {} slots, prefix needs {}",
                    layer.len(),
                    prefix.len()
                )));
            }
        }
        // Prompt-order positions 0..P are what an attacher will inherit; a
        // cache that already evicted or re-ordered cannot donate.
        let positions = cache.layer(0).positions();
        if positions[..prefix.len()]
            .iter()
            .enumerate()
            .any(|(i, &p)| p != i)
        {
            return Err(CoreError::InvalidConfig(
                "cache no longer holds the prefix at its original positions".into(),
            ));
        }
        let parents = self.walk(context, &prefix[..depth * bs]);
        if parents.len() != depth {
            // An ancestor is missing (evicted, or never registered): the chain
            // cannot be extended here.
            return Ok(false);
        }
        let parent_key = parents.last().copied().unwrap_or(context);
        let block_tokens = &prefix[depth * bs..];
        let key = block_key(parent_key, block_tokens);
        if let Some(existing) = self.entries.get_mut(&key) {
            if existing.block_tokens == block_tokens {
                self.clock += 1;
                existing.last_used = self.clock;
            }
            // A hash collision with different tokens degrades to "not
            // registered"; the existing entry keeps its identity.
            return Ok(false);
        }
        let mut per_layer = Vec::with_capacity(cache.num_layers());
        for layer in cache.iter() {
            let block = layer.shared_block(depth);
            if block.rows() != bs {
                return Err(CoreError::InvalidConfig(
                    "only full blocks can be registered".into(),
                ));
            }
            per_layer.push(block);
        }
        if let Some(cap) = self.max_blocks {
            if per_layer.len() > cap {
                return Ok(false);
            }
            // Stay under the pin cap by aging out least-recently-used entries
            // (chain roots carry the freshest stamps, so hot prefixes survive).
            // The new entry's own ancestors are exempt: evicting one would
            // insert the entry under a dead chain — unreachable to every
            // lookup yet still pinning blocks.
            while self.blocks_held() + per_layer.len() > cap {
                if !self.evict_lru_excluding(&parents) {
                    return Ok(false);
                }
            }
        }
        if self.reserve_pins && !self.pool.try_reserve(per_layer.len()) {
            // A strict pool with no spare reservable capacity: caching would
            // eat blocks sessions were promised. Skip, not an error.
            return Ok(false);
        }
        for (i, block) in per_layer.iter().enumerate() {
            if let Err(e) = self.pool.retain(block.id) {
                // Roll back the pins taken so far; the registry stays
                // consistent and the caller sees the error.
                for earlier in &per_layer[..i] {
                    let _ = self.pool.release(earlier.id);
                }
                if self.reserve_pins {
                    self.pool.unreserve(per_layer.len());
                }
                return Err(e);
            }
        }
        self.clock += 1;
        self.entries.insert(
            key,
            Entry {
                block_tokens: block_tokens.to_vec(),
                per_layer,
                policy: policy.clone_box(),
                last_used: self.clock,
            },
        );
        self.registered += 1;
        Ok(true)
    }

    fn release_entry(&mut self, key: u64) {
        if let Some(entry) = self.entries.remove(&key) {
            for block in &entry.per_layer {
                let released = self.pool.release(block.id);
                debug_assert!(released.is_ok(), "registry pinned an unknown block");
            }
            if self.reserve_pins {
                self.pool.unreserve(entry.per_layer.len());
            }
            self.evictions += 1;
        }
    }

    /// Evicts the least-recently-used entry, releasing its pins (blocks whose
    /// refcount drops to zero become allocatable immediately; blocks still
    /// mapped by attached sequences stay alive for them). Returns `false` when
    /// the registry is empty.
    pub fn evict_lru(&mut self) -> bool {
        self.evict_lru_excluding(&[])
    }

    /// [`PrefixRegistry::evict_lru`] skipping the `protected` keys; `false`
    /// when nothing evictable remains.
    fn evict_lru_excluding(&mut self, protected: &[u64]) -> bool {
        let Some((&key, _)) = self
            .entries
            .iter()
            .filter(|(k, _)| !protected.contains(k))
            .min_by_key(|(_, e)| e.last_used)
        else {
            return false;
        };
        self.release_entry(key);
        true
    }

    /// Ids of every block the registry currently pins (each id once per entry
    /// layer; ids are unique across entries because every pinned block is a
    /// distinct physical block).
    pub fn pinned_block_ids(&self) -> Vec<crate::block::BlockId> {
        self.entries
            .values()
            .flat_map(|e| e.per_layer.iter().map(|b| b.id))
            .collect()
    }

    /// Evicts every entry. Attached sequences are unaffected (they hold their
    /// own refcounts); only the registry's pins are released.
    pub fn clear(&mut self) {
        let keys: Vec<u64> = self.entries.keys().copied().collect();
        for key in keys {
            self.release_entry(key);
        }
    }
}

impl Drop for PrefixRegistry {
    fn drop(&mut self) {
        self.clear();
    }
}

/// A cloneable, `Send + Sync` handle to a [`PrefixRegistry`], shared between
/// the serving scheduler and every session registering into or attaching from
/// it — mirroring [`SharedBlockPool`].
#[derive(Debug, Clone)]
pub struct SharedPrefixRegistry {
    inner: Arc<Mutex<PrefixRegistry>>,
}

impl SharedPrefixRegistry {
    /// Creates an empty shared registry over `pool`.
    pub fn new(pool: &SharedBlockPool) -> Self {
        SharedPrefixRegistry {
            inner: Arc::new(Mutex::new(PrefixRegistry::new(pool))),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PrefixRegistry> {
        self.inner.lock().expect("prefix registry lock poisoned")
    }

    /// See [`PrefixRegistry::block_size`].
    pub fn block_size(&self) -> usize {
        self.lock().block_size()
    }

    /// See [`PrefixRegistry::len`].
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// See [`PrefixRegistry::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// See [`PrefixRegistry::blocks_held`].
    pub fn blocks_held(&self) -> usize {
        self.lock().blocks_held()
    }

    /// See [`PrefixRegistry::max_blocks`].
    pub fn max_blocks(&self) -> Option<usize> {
        self.lock().max_blocks()
    }

    /// See [`PrefixRegistry::set_max_blocks`].
    pub fn set_max_blocks(&self, max_blocks: Option<usize>) {
        self.lock().set_max_blocks(max_blocks);
    }

    /// See [`PrefixRegistry::stats`].
    pub fn stats(&self) -> PrefixRegistryStats {
        self.lock().stats()
    }

    /// See [`PrefixRegistry::match_tokens`].
    pub fn match_tokens(&self, context: u64, tokens: &[u32]) -> usize {
        self.lock().match_tokens(context, tokens)
    }

    /// See [`PrefixRegistry::attach`].
    ///
    /// # Errors
    ///
    /// See [`PrefixRegistry::attach`].
    pub fn attach(
        &self,
        context: u64,
        prefix: &[u32],
        cache: &mut KvCache,
    ) -> Result<Option<AttachedPrefix>, CoreError> {
        self.lock().attach(context, prefix, cache)
    }

    /// See [`PrefixRegistry::register`].
    ///
    /// # Errors
    ///
    /// See [`PrefixRegistry::register`].
    pub fn register(
        &self,
        context: u64,
        prefix: &[u32],
        cache: &KvCache,
        policy: &dyn KvCachePolicy,
    ) -> Result<bool, CoreError> {
        self.lock().register(context, prefix, cache, policy)
    }

    /// See [`PrefixRegistry::evict_lru`].
    pub fn evict_lru(&self) -> bool {
        self.lock().evict_lru()
    }

    /// See [`PrefixRegistry::pinned_block_ids`].
    pub fn pinned_block_ids(&self) -> Vec<crate::block::BlockId> {
        self.lock().pinned_block_ids()
    }

    /// See [`PrefixRegistry::clear`].
    pub fn clear(&self) {
        self.lock().clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::OvercommitPolicy;
    use crate::policies::full::FullAttention;

    const LAYERS: usize = 2;
    const HEADS: usize = 2;
    const DIM: usize = 3;
    const BS: usize = 4;

    fn fill(cache: &mut KvCache, tokens: &[u32]) {
        for l in 0..cache.num_layers() {
            for (pos, &tok) in tokens.iter().enumerate() {
                let k = [tok as f32 + l as f32 * 100.0; DIM * HEADS];
                let v = [tok as f32 + 0.5; DIM * HEADS];
                cache.layer_mut(l).append_from_slices(pos, &k, &v).unwrap();
            }
        }
    }

    fn tokens(n: usize, salt: u32) -> Vec<u32> {
        (0..n).map(|i| (i as u32 * 7 + 1 + salt) % 100).collect()
    }

    #[test]
    fn register_then_attach_longest_prefix() {
        let pool = SharedBlockPool::unbounded(BS);
        let registry = PrefixRegistry::new(&pool);
        let mut registry = registry;
        let mut donor = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        let prompt = tokens(12, 0);
        fill(&mut donor, &prompt);
        let policy = FullAttention::new();
        for blocks in 1..=3 {
            assert!(registry
                .register(7, &prompt[..blocks * BS], &donor, &policy)
                .unwrap());
        }
        assert_eq!(registry.len(), 3);
        assert_eq!(registry.blocks_held(), 3 * LAYERS);
        // A prompt sharing only the first 8 tokens matches 2 blocks.
        let mut other = prompt[..8].to_vec();
        other.extend(tokens(8, 50));
        assert_eq!(registry.match_tokens(7, &other), 8);
        // A different context matches nothing.
        assert_eq!(registry.match_tokens(8, &other), 0);
        let mut reader = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        let attached = registry.attach(7, &other, &mut reader).unwrap().unwrap();
        assert_eq!(attached.tokens, 8);
        assert_eq!(reader.total_slots(), 8 * LAYERS);
        assert_eq!(
            reader.layer(1).keys(0).row_vec(5),
            donor.layer(1).keys(0).row_vec(5)
        );
        // No new physical blocks were allocated for the attachment.
        assert_eq!(pool.blocks_in_use(), 3 * LAYERS);
        let stats = registry.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.attached_tokens, 8);
    }

    #[test]
    fn attach_misses_on_unknown_prompts_and_requires_empty_cache() {
        let pool = SharedBlockPool::unbounded(BS);
        let mut registry = PrefixRegistry::new(&pool);
        let mut cache = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        assert!(registry
            .attach(1, &tokens(8, 3), &mut cache)
            .unwrap()
            .is_none());
        assert_eq!(registry.stats().misses, 1);
        fill(&mut cache, &tokens(4, 0));
        let err = registry.attach(1, &tokens(8, 3), &mut cache);
        assert!(err.is_err(), "non-empty cache must be rejected");
        // Foreign-pool caches are rejected for both register and attach.
        let mut foreign = KvCache::new(LAYERS, HEADS, DIM);
        assert!(registry.attach(1, &tokens(8, 3), &mut foreign).is_err());
        assert!(registry
            .register(1, &tokens(4, 0), &foreign, &FullAttention::new())
            .is_err());
    }

    #[test]
    fn register_contract_violations_are_errors_or_skips() {
        let pool = SharedBlockPool::unbounded(BS);
        let mut registry = PrefixRegistry::new(&pool);
        let mut donor = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        let prompt = tokens(12, 0);
        fill(&mut donor, &prompt);
        let policy = FullAttention::new();
        // Not a block multiple.
        assert!(registry.register(1, &prompt[..5], &donor, &policy).is_err());
        // Broken parent chain: registering depth 2 before depth 1 is skipped.
        assert!(!registry.register(1, &prompt[..8], &donor, &policy).unwrap());
        assert!(registry.register(1, &prompt[..4], &donor, &policy).unwrap());
        assert!(registry.register(1, &prompt[..8], &donor, &policy).unwrap());
        // Re-registration is a refresh, not a double pin.
        let held = registry.blocks_held();
        assert!(!registry.register(1, &prompt[..8], &donor, &policy).unwrap());
        assert_eq!(registry.blocks_held(), held);
    }

    #[test]
    fn eviction_releases_pins_but_not_attached_readers() {
        let pool = SharedBlockPool::bounded(BS, 64, OvercommitPolicy::AllowTransient).unwrap();
        let mut registry = PrefixRegistry::new(&pool);
        let prompt = tokens(8, 0);
        let mut donor = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        fill(&mut donor, &prompt);
        let policy = FullAttention::new();
        registry.register(1, &prompt[..4], &donor, &policy).unwrap();
        registry.register(1, &prompt[..8], &donor, &policy).unwrap();
        let mut reader = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        let attached = registry.attach(1, &prompt, &mut reader).unwrap().unwrap();
        assert_eq!(attached.tokens, 8);
        drop(donor);
        // The donor is gone; registry + reader keep all 4 physical blocks.
        assert_eq!(pool.blocks_in_use(), 2 * LAYERS);
        registry.clear();
        assert_eq!(registry.len(), 0);
        assert_eq!(registry.stats().evictions, 2);
        // The reader still reads valid data from its own pins.
        assert_eq!(reader.total_slots(), 8 * LAYERS);
        assert_eq!(reader.layer(0).keys(0).row_vec(7).len(), DIM);
        assert_eq!(pool.blocks_in_use(), 2 * LAYERS);
        drop(reader);
        assert_eq!(pool.blocks_in_use(), 0, "all pins released");
    }

    #[test]
    fn lru_eviction_order_and_stranded_descendants() {
        let pool = SharedBlockPool::unbounded(BS);
        let mut registry = PrefixRegistry::new(&pool);
        let prompt = tokens(8, 0);
        let mut donor = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        fill(&mut donor, &prompt);
        let policy = FullAttention::new();
        registry.register(1, &prompt[..4], &donor, &policy).unwrap();
        registry.register(1, &prompt[..8], &donor, &policy).unwrap();
        // An attach stamps roots freshest, so LRU pressure peels the chain
        // leaf-first and the root stays matchable.
        let mut reader = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        registry.attach(1, &prompt, &mut reader).unwrap().unwrap();
        assert!(registry.evict_lru());
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.match_tokens(1, &prompt), 4, "root survives");
        assert!(registry.evict_lru());
        assert!(!registry.evict_lru(), "registry is empty");
    }

    #[test]
    fn pin_cap_churns_lru_but_keeps_hot_roots() {
        let pool = SharedBlockPool::bounded(BS, 64, OvercommitPolicy::AllowTransient).unwrap();
        let mut registry = PrefixRegistry::new(&pool);
        assert_eq!(registry.max_blocks(), Some(32), "defaults to half the pool");
        // Room for exactly two entries of LAYERS blocks each.
        registry.set_max_blocks(Some(2 * LAYERS));
        let prompt_a = tokens(8, 0);
        let mut donor_a = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        fill(&mut donor_a, &prompt_a);
        let policy = FullAttention::new();
        registry
            .register(1, &prompt_a[..4], &donor_a, &policy)
            .unwrap();
        registry
            .register(1, &prompt_a[..8], &donor_a, &policy)
            .unwrap();
        assert_eq!(registry.blocks_held(), 2 * LAYERS);
        // An attach stamps A's root freshest, leaving A's leaf as the LRU.
        let mut reader = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        registry.attach(1, &prompt_a, &mut reader).unwrap();
        // A different tenant registers: the cap evicts A's *leaf*, not its
        // hot root.
        let prompt_b = tokens(4, 9);
        let mut donor_b = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        fill(&mut donor_b, &prompt_b);
        assert!(registry.register(2, &prompt_b, &donor_b, &policy).unwrap());
        assert_eq!(registry.blocks_held(), 2 * LAYERS, "cap respected");
        assert_eq!(registry.match_tokens(1, &prompt_a), 4, "hot root survives");
        assert_eq!(registry.match_tokens(2, &prompt_b), 4);
        // An entry bigger than the whole cap is skipped outright.
        registry.set_max_blocks(Some(1));
        let longer = tokens(12, 0);
        let mut donor_c = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        fill(&mut donor_c, &longer);
        assert!(!registry
            .register(3, &longer[..4], &donor_c, &policy)
            .unwrap());
    }

    #[test]
    fn shared_handle_round_trips_and_policy_context_discriminates() {
        let pool = SharedBlockPool::unbounded(BS);
        let registry = SharedPrefixRegistry::new(&pool);
        let clone = registry.clone();
        let mut donor = KvCache::with_pool(LAYERS, HEADS, DIM, pool.clone());
        let prompt = tokens(4, 0);
        fill(&mut donor, &prompt);
        registry
            .register(9, &prompt, &donor, &FullAttention::new())
            .unwrap();
        assert_eq!(clone.len(), 1);
        assert_eq!(clone.match_tokens(9, &prompt), 4);
        assert!(!clone.is_empty());
        assert_eq!(clone.block_size(), BS);
        clone.clear();
        assert!(registry.is_empty());

        let a = policy_context(&PolicySpec::Full);
        let b = policy_context(&PolicySpec::keyformer_default());
        let c = policy_context(&PolicySpec::Keyformer {
            adjustment: crate::adjustment::LogitAdjustment::Gumbel,
            temperature: crate::temperature::TemperatureSchedule::default(),
            scope: crate::accumulator::ScoreScope::PerLayer,
            seed: 1,
        });
        assert_ne!(a, b);
        assert_ne!(b, c, "the seed must participate in the context");
        assert_eq!(b, policy_context(&PolicySpec::keyformer_default()));
    }

    /// Compile-time thread-safety audit for the parallel serving layer: the
    /// registry handle crosses threads (sessions carry a clone into decode
    /// workers), so it — and the entries' boxed policy snapshots behind it —
    /// must be `Send`; `KvCachePolicy`'s `Send` supertrait is what makes
    /// this hold for every policy in the zoo.
    #[test]
    fn registry_handles_are_thread_safe() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send::<PrefixRegistry>();
        assert_send_sync::<SharedPrefixRegistry>();
        assert_send::<AttachedPrefix>();
    }
}
