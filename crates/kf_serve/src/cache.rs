//! The idempotent result cache: identical deterministic requests are served
//! from memory instead of re-running the engine.
//!
//! A request is *cacheable* iff its sampling strategy is greedy — the
//! temperature-0 case where the token stream is a pure function of the cache
//! key. Top-k sampling always bypasses the cache, whatever its seed: two
//! stochastic requests are different requests even when their parameters
//! collide.
//!
//! The key covers everything that determines the output tokens — prompt,
//! policy, budget, KV dtype and the full generation config — hashed with the
//! same chained FNV-1a construction the prefix registry uses for its block
//! keys. Hash collisions are ruled out by an exact key comparison on every
//! hit, so a collision costs a chain walk, never a wrong answer.
//!
//! Time is injected (`now_ms`), not read from a clock: the server derives it
//! from its start instant, and tests drive TTL expiry deterministically.

use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::cache::KvDtype;
use keyformer_core::spec::PolicySpec;
use keyformer_model::generation::{GenerationConfig, SamplingStrategy};
use serde::Serialize;

/// Everything that determines a generate call's token stream, resolved to
/// concrete values (server defaults already substituted), so two requests
/// that *spell* their configuration differently but *mean* the same thing
/// share one cache slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultKey {
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// The concrete policy the request runs under.
    pub policy: PolicySpec,
    /// The concrete KV budget (`None` = unbudgeted).
    pub budget: Option<CacheBudgetSpec>,
    /// KV storage precision.
    pub dtype: KvDtype,
    /// Full generation configuration (length, eos, sampling, seed, penalty).
    pub config: GenerationConfig,
}

impl ResultKey {
    /// `true` when the token stream is a pure function of this key — greedy
    /// sampling only. Stochastic (top-k) requests are never cached or
    /// coalesced, whatever their seed.
    pub fn is_deterministic(&self) -> bool {
        matches!(self.config.sampling, SamplingStrategy::Greedy)
    }

    /// Chained FNV-1a content hash of the key (the prefix registry's hashing
    /// idiom): configuration first via its debug rendering, then the prompt
    /// tokens byte by byte.
    pub fn content_hash(&self) -> u64 {
        let h = fnv1a(
            0,
            format!(
                "{:?}|{:?}|{:?}|{:?}",
                self.policy, self.budget, self.dtype, self.config
            )
            .bytes(),
        );
        fnv1a(h, self.prompt.iter().flat_map(|t| t.to_le_bytes()))
    }
}

/// FNV-1a over a byte stream, chained through `seed` (same basis/prime as the
/// prefix registry's block keys).
fn fnv1a(seed: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A cached generation result.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// The generated token stream.
    pub tokens: Vec<u32>,
    /// Prompt length the result answered (telemetry only).
    pub prompt_len: usize,
}

/// Lifetime counters of one [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct CacheStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Results stored.
    pub insertions: u64,
    /// Entries dropped because their TTL lapsed.
    pub expired: u64,
    /// Live entries dropped to make room (LRU order).
    pub evicted: u64,
}

struct Entry {
    key: ResultKey,
    value: CachedResult,
    inserted_ms: u64,
    /// Logical LRU clock value of the last hit (or the insertion).
    last_used: u64,
}

/// A TTL'd, capacity-bounded result cache keyed by [`ResultKey`].
///
/// `capacity` is the maximum number of *live* entries; inserting past it
/// evicts least-recently-used entries first. `capacity == 0` disables storage
/// entirely (every lookup misses). `ttl_ms` bounds an entry's life from its
/// insertion; expired entries are dropped lazily on lookup/insert.
pub struct ResultCache {
    capacity: usize,
    ttl_ms: u64,
    /// Content hash → collision chain. Exact key equality decides hits.
    map: std::collections::HashMap<u64, Vec<Entry>>,
    len: usize,
    clock: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries for at most `ttl_ms`
    /// milliseconds each.
    pub fn new(capacity: usize, ttl_ms: u64) -> Self {
        ResultCache {
            capacity,
            ttl_ms,
            map: std::collections::HashMap::new(),
            len: 0,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Live entries currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks `key` up at time `now_ms`. A hit refreshes the entry's LRU
    /// position (not its TTL); an entry whose TTL lapsed is dropped and
    /// reported as a miss. Non-deterministic keys always miss without
    /// touching the counters' hit/miss split — callers should bypass the
    /// cache for them entirely.
    pub fn get(&mut self, key: &ResultKey, now_ms: u64) -> Option<CachedResult> {
        if !key.is_deterministic() {
            return None;
        }
        self.clock += 1;
        let clock = self.clock;
        let ttl = self.ttl_ms;
        let hash = key.content_hash();
        let mut expired = 0;
        let mut found = None;
        if let Some(chain) = self.map.get_mut(&hash) {
            chain.retain(|e| {
                let live = now_ms.saturating_sub(e.inserted_ms) < ttl;
                if !live {
                    expired += 1;
                }
                live
            });
            if let Some(entry) = chain.iter_mut().find(|e| e.key == *key) {
                entry.last_used = clock;
                found = Some(entry.value.clone());
            }
            if chain.is_empty() {
                self.map.remove(&hash);
            }
        }
        self.len -= expired;
        self.stats.expired += expired as u64;
        match found {
            Some(v) => {
                self.stats.hits += 1;
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores `value` under `key` at time `now_ms`, replacing any existing
    /// entry with the same key. Expired entries anywhere in the cache are
    /// purged first; if the cache is still full, least-recently-used live
    /// entries are evicted. Non-deterministic keys are never stored.
    pub fn insert(&mut self, key: ResultKey, value: CachedResult, now_ms: u64) {
        if self.capacity == 0 || !key.is_deterministic() {
            return;
        }
        self.clock += 1;
        self.purge_expired(now_ms);
        let hash = key.content_hash();
        if let Some(chain) = self.map.get_mut(&hash) {
            if let Some(entry) = chain.iter_mut().find(|e| e.key == key) {
                entry.value = value;
                entry.inserted_ms = now_ms;
                entry.last_used = self.clock;
                return;
            }
        }
        while self.len >= self.capacity {
            self.evict_lru();
        }
        self.map.entry(hash).or_default().push(Entry {
            key,
            value,
            inserted_ms: now_ms,
            last_used: self.clock,
        });
        self.len += 1;
        self.stats.insertions += 1;
    }

    /// Drops every entry whose TTL has lapsed as of `now_ms`.
    pub fn purge_expired(&mut self, now_ms: u64) {
        let ttl = self.ttl_ms;
        let mut expired = 0;
        self.map.retain(|_, chain| {
            chain.retain(|e| {
                let live = now_ms.saturating_sub(e.inserted_ms) < ttl;
                if !live {
                    expired += 1;
                }
                live
            });
            !chain.is_empty()
        });
        self.len -= expired;
        self.stats.expired += expired as u64;
    }

    /// Evicts the least-recently-used live entry (no-op on an empty cache).
    fn evict_lru(&mut self) {
        let Some((&hash, _)) = self
            .map
            .iter()
            .min_by_key(|(_, chain)| chain.iter().map(|e| e.last_used).min().unwrap_or(u64::MAX))
        else {
            return;
        };
        let chain = self.map.get_mut(&hash).expect("hash chosen from the map");
        let oldest = chain
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
            .expect("chains are never left empty");
        chain.remove(oldest);
        if chain.is_empty() {
            self.map.remove(&hash);
        }
        self.len -= 1;
        self.stats.evicted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(prompt: &[u32]) -> ResultKey {
        ResultKey {
            prompt: prompt.to_vec(),
            policy: PolicySpec::keyformer_default(),
            budget: Some(CacheBudgetSpec::with_fraction(0.5).unwrap()),
            dtype: KvDtype::F32,
            config: GenerationConfig::new(4),
        }
    }

    fn result(tokens: &[u32]) -> CachedResult {
        CachedResult {
            tokens: tokens.to_vec(),
            prompt_len: 3,
        }
    }

    #[test]
    fn hit_returns_identical_value_and_counts() {
        let mut cache = ResultCache::new(4, 1_000);
        let k = key(&[1, 2, 3]);
        assert!(cache.get(&k, 0).is_none());
        cache.insert(k.clone(), result(&[9, 8]), 0);
        assert_eq!(cache.get(&k, 10).unwrap(), result(&[9, 8]));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn content_hash_covers_every_field() {
        let base = key(&[1, 2, 3]);
        let mut prompt = base.clone();
        prompt.prompt = vec![1, 2, 4];
        let mut policy = base.clone();
        policy.policy = PolicySpec::Full;
        let mut budget = base.clone();
        budget.budget = None;
        let mut dtype = base.clone();
        dtype.dtype = KvDtype::U8;
        let mut config = base.clone();
        config.config = GenerationConfig::new(5);
        let mut seed = base.clone();
        seed.config.seed = 7;
        for other in [&prompt, &policy, &budget, &dtype, &config, &seed] {
            assert_ne!(base.content_hash(), other.content_hash());
            assert_ne!(&base, other);
        }
    }

    #[test]
    fn ttl_expiry_drops_entries() {
        let mut cache = ResultCache::new(4, 100);
        let k = key(&[1]);
        cache.insert(k.clone(), result(&[5]), 0);
        // One tick before the TTL the entry is live; at the TTL it is gone.
        assert!(cache.get(&k, 99).is_some());
        assert!(cache.get(&k, 100).is_none());
        assert_eq!(cache.stats().expired, 1);
        assert!(cache.is_empty());
        // Re-inserting restarts the TTL from the new insertion time.
        cache.insert(k.clone(), result(&[5]), 200);
        assert!(cache.get(&k, 250).is_some());
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut cache = ResultCache::new(2, u64::MAX);
        let (a, b, c) = (key(&[1]), key(&[2]), key(&[3]));
        cache.insert(a.clone(), result(&[1]), 0);
        cache.insert(b.clone(), result(&[2]), 0);
        // Touch `a` so `b` becomes the LRU entry, then overflow.
        assert!(cache.get(&a, 0).is_some());
        cache.insert(c.clone(), result(&[3]), 0);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&b, 0).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&a, 0).is_some());
        assert!(cache.get(&c, 0).is_some());
        assert_eq!(cache.stats().evicted, 1);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = ResultCache::new(0, u64::MAX);
        let k = key(&[1]);
        cache.insert(k.clone(), result(&[1]), 0);
        assert!(cache.get(&k, 0).is_none());
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn stochastic_keys_bypass_storage_and_lookup() {
        let mut cache = ResultCache::new(4, u64::MAX);
        let mut k = key(&[1]);
        k.config = GenerationConfig::new(4).with_top_k(3, 0.7, 42);
        assert!(!k.is_deterministic());
        cache.insert(k.clone(), result(&[1]), 0);
        assert!(cache.get(&k, 0).is_none());
        assert!(cache.is_empty());
        // Same parameters, different seed: still never served from cache.
        let mut reseeded = k.clone();
        reseeded.config.seed = 43;
        assert!(cache.get(&reseeded, 0).is_none());
    }
}
