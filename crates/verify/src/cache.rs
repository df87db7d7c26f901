//! The simulation memo-cache of a resident session.
//!
//! Every repair run validates through the cache of the session it runs
//! against; a one-shot run's session is fresh and dropped with it, so its
//! cache is too.
//!
//! Candidate generation revisits configurations constantly — crossover
//! recombines population members into patches it already tried, and a
//! resident daemon repairs the same network twice. Every such revisit
//! would pay an incremental control-plane simulation. [`SimCache`]
//! memoizes verification results behind a *stable config fingerprint*:
//! the hash of the canonical rendered configuration
//! ([`NetworkConfig::fingerprint`]) together with the verifier's context
//! fingerprint (topology identity + generated test suite). Two lookups
//! agree on a key exactly when the simulator would be handed
//! bit-identical inputs, so a hit can return the memoized verdict
//! verbatim.
//!
//! One table, keyed `(context, base, candidate)`: the verdict of
//! `verify_candidate` against a committed base, reduced to what a hit's
//! consumer reads — the failed-test count (the fitness) and the size of
//! the prefix universe (the hit's statistics). A hit carries no
//! provenance: the engine re-verifies a memo-served candidate against the
//! same committed base the first time it ranks it, which is rare (most
//! kept candidates are never expanded) and yields the verdict the entry
//! summarizes, because a verdict is a pure function of (committed base,
//! candidate).
//!
//! One LRU, and no lock: the repair engine's thread is the only one that
//! ever holds the cache. It looks each candidate up as it validates it,
//! in its one validation order, and inserts a miss's verdict right after
//! verifying it — so the table's contents, and every later hit or miss,
//! are a function of the repair trajectory alone. A hit ([`SimCache::get`])
//! and an insert both make the entry the most recently used.
//!
//! [`NetworkConfig::fingerprint`]: acr_cfg::NetworkConfig::fingerprint

use acr_obs::metrics::Counter;
use std::collections::HashMap;

static CAND_HITS: Counter = Counter::new("cache.candidate.hits");
static CAND_MISSES: Counter = Counter::new("cache.candidate.misses");

/// Key of a memoized candidate validation:
/// `(verifier context, committed base config, candidate config)`.
pub type CandidateKey = (u64, u64, u64);

/// A memoized candidate validation: the verdict, without provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateEntry {
    /// Failed tests — the candidate's fitness.
    pub failed: usize,
    /// Size of the candidate's prefix universe. A hit reports
    /// `recomputed: 0, reused: universe` — nothing was simulated and
    /// every per-prefix outcome was served from memo.
    pub universe: usize,
}

/// The simulation memo-cache: a bounded LRU of candidate verdicts. See
/// the module docs for keying and why no lock guards it.
pub struct SimCache {
    /// Each entry with its recency stamp; larger = more recently used.
    entries: HashMap<CandidateKey, (u64, CandidateEntry)>,
    /// The last stamp handed out.
    tick: u64,
    capacity: usize,
}

impl Default for SimCache {
    fn default() -> Self {
        SimCache::new(SimCache::DEFAULT_CAPACITY)
    }
}

impl SimCache {
    /// Default bound on entries.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A cache bounded to `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        SimCache {
            entries: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// Looks up a candidate validation; a hit becomes the most recently
    /// used entry.
    pub fn get(&mut self, key: CandidateKey) -> Option<CandidateEntry> {
        self.tick += 1;
        let hit = self.entries.get_mut(&key).map(|(stamp, entry)| {
            *stamp = self.tick;
            *entry
        });
        match hit {
            Some(_) => CAND_HITS.inc(),
            None => CAND_MISSES.inc(),
        }
        hit
    }

    /// Inserts (or refreshes) a candidate entry as the most recently
    /// used, evicting the least recently used one when the table is
    /// full.
    pub fn insert(&mut self, key: CandidateKey, entry: CandidateEntry) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            // Stamps are unique, so the victim does not depend on the
            // map's iteration order.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, (self.tick, entry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `get` bumps process-wide counters: the tests that call it take
    /// turns, so `stats_count_hits_and_misses` reads exact deltas.
    static LOOKUPS: Mutex<()> = Mutex::new(());

    fn entry(universe: usize) -> CandidateEntry {
        CandidateEntry {
            failed: 0,
            universe,
        }
    }

    fn key(k: u64) -> CandidateKey {
        (0, 0, k)
    }

    fn universe_at(c: &mut SimCache, k: u64) -> Option<usize> {
        c.get(key(k)).map(|e| e.universe)
    }

    #[test]
    fn get_promotes() {
        let _g = LOOKUPS.lock().unwrap_or_else(|e| e.into_inner());
        let mut c = SimCache::new(2);
        c.insert(key(1), entry(10));
        c.insert(key(2), entry(20));
        assert_eq!(universe_at(&mut c, 1), Some(10));
        c.insert(key(3), entry(30));
        assert_eq!(universe_at(&mut c, 1), Some(10), "the hit entry survives");
        assert_eq!(universe_at(&mut c, 2), None, "the other entry is evicted");
    }

    /// Eviction picks the least recently used entry of the whole table:
    /// of eight entries, the one left untouched longest goes, whatever
    /// its key hashes to.
    #[test]
    fn evicts_the_globally_least_recent_entry() {
        let _g = LOOKUPS.lock().unwrap_or_else(|e| e.into_inner());
        let mut c = SimCache::new(8);
        for k in 0..8 {
            c.insert(key(k), entry(k as usize));
        }
        for k in (0..8).filter(|k| *k != 5) {
            assert!(c.get(key(k)).is_some());
        }
        c.insert(key(8), entry(8));
        assert_eq!(c.entries.len(), 8);
        assert!(!c.entries.contains_key(&key(5)), "LRU entry evicted");
        assert!((0..9)
            .filter(|k| *k != 5)
            .all(|k| c.entries.contains_key(&key(k))));
    }

    /// The bound is exact: a two-entry cache holds two entries, the two
    /// most recent, however many were inserted.
    #[test]
    fn bounded_by_capacity() {
        let mut c = SimCache::new(2);
        for k in 0..1000 {
            c.insert(key(k), entry(k as usize));
        }
        assert_eq!(c.entries.len(), 2);
        assert!(c.entries.contains_key(&key(998)) && c.entries.contains_key(&key(999)));
        // Refreshing a present key evicts nothing.
        c.insert(key(998), entry(0));
        assert_eq!(c.entries.len(), 2);
    }

    /// Every lookup lands in exactly one of the two counters the
    /// benchmark's `verify.cache_hit_ratio` is computed from.
    #[test]
    fn stats_count_hits_and_misses() {
        let _g = LOOKUPS.lock().unwrap_or_else(|e| e.into_inner());
        acr_obs::enable_metrics();
        let before = (CAND_HITS.get(), CAND_MISSES.get());
        let mut c = SimCache::default();
        c.insert(key(7), entry(7));
        assert_eq!(universe_at(&mut c, 7), Some(7));
        assert_eq!(universe_at(&mut c, 8), None);
        let after = (CAND_HITS.get(), CAND_MISSES.get());
        assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1));
    }
}
