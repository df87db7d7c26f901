//! A bounded, sharded, thread-safe memo table.
//!
//! This is the storage layer under `acr-verify`'s `SimCache`: a fixed
//! number of mutex-guarded shards, each an LRU-by-stamp map. Lookups
//! (`peek`) never mutate recency, so concurrent readers cannot perturb
//! the eviction order — recency advances only through `touch` and
//! `insert`, which the repair engine calls from a single coordinating
//! thread in candidate order. That split is what keeps cache contents
//! (and therefore every downstream hit/miss) deterministic regardless
//! of how many worker threads raced on the reads.
//!
//! Statistics are plain atomics: totals are exact, but they are the one
//! part of the cache whose *interleaving* is not ordered. Nothing in a
//! `RepairReport` derives from them.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate over all lookups, in `[0, 1]`; zero when nothing was
    /// looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Shard<K, V> {
    map: HashMap<K, (u64, V)>,
    /// Monotonic per-shard recency clock; larger = more recently used.
    tick: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            tick: 0,
        }
    }
}

/// A sharded bounded memo map with LRU eviction per shard.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache of `capacity` total entries split over `shards` shards
    /// (each shard holds at least one entry).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = (capacity / shards).max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// `capacity` entries over a default shard count.
    pub fn with_capacity(capacity: usize) -> Self {
        ShardedCache::new(8, capacity)
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `key` without promoting it in the LRU order. Safe to
    /// call from any number of threads without affecting which entry a
    /// later `insert` evicts.
    pub fn peek(&self, key: &K) -> Option<V> {
        let shard = self.shard_of(key).lock().unwrap();
        match shard.map.get(key) {
            Some((_, v)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Marks `key` as most recently used (if present). Call from the
    /// coordinating thread only, in a deterministic order.
    pub fn touch(&self, key: &K) {
        let mut shard = self.shard_of(key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        if let Some((stamp, _)) = shard.map.get_mut(key) {
            *stamp = tick;
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry of its shard when the shard is full. Call from the
    /// coordinating thread only, in a deterministic order.
    pub fn insert(&self, key: K, value: V) {
        let mut shard = self.shard_of(&key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard {
            // LRU stamps are unique within a shard, so the victim is
            // well defined and independent of HashMap iteration order.
            if let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        if shard.map.insert(key, (tick, value)).is_none() {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Whether no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (exact totals; see module docs).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("per_shard", &self.per_shard)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_does_not_promote() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(1, 2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Peeking 1 must not save it from eviction.
        assert_eq!(c.peek(&1), Some(10));
        c.insert(3, 30);
        assert_eq!(c.peek(&1), None, "oldest entry evicted despite peek");
        assert_eq!(c.peek(&2), Some(20));
        assert_eq!(c.peek(&3), Some(30));
    }

    #[test]
    fn touch_promotes() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(1, 2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.touch(&1);
        c.insert(3, 30);
        assert_eq!(c.peek(&1), Some(10), "touched entry survives");
        assert_eq!(c.peek(&2), None, "untouched entry evicted");
    }

    #[test]
    fn bounded_by_capacity() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(4, 8);
        for k in 0..1000 {
            c.insert(k, k);
        }
        assert!(c.len() <= 8, "len {} exceeds capacity", c.len());
        let s = c.stats();
        assert_eq!(s.insertions, 1000);
        assert_eq!(s.evictions as usize, 1000 - c.len());
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let c: ShardedCache<u32, u32> = ShardedCache::with_capacity(16);
        assert!(c.is_empty());
        c.insert(7, 7);
        c.peek(&7);
        c.peek(&8);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }
}
