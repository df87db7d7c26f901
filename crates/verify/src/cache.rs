//! The simulation memo-cache of a repair run or a resident session.
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
//! One table, keyed `(context, base, candidate)`: the result of
//! `verify_candidate` against a committed base. The entry carries a
//! *pruned* private arena holding exactly the derivation closures of the
//! verification's roots (ids are arena-local and never portable).
//! [`make_entry`] copies those closures out of the arena the candidate
//! was simulated in with one ascending pass ([`DerivArena::prune`]) and
//! also returns the pruned→source id map. A consumer whose arena *is*
//! that source maps the roots back through it
//! ([`CandidateEntry::verification_in`]); a memo hit, whose source was
//! another batch's arena, re-interns them into its consumer's arena
//! ([`crate::IncrementalVerifier::absorb_verification`]).
//!
//! One LRU, and no lock: the repair engine's thread is the only one that
//! ever holds the cache. It peeks every candidate before a batch is
//! resolved and inserts or touches in candidate-index order after the
//! batch — so the table's
//! contents, and every later hit or miss, are a function of the repair
//! trajectory alone. `peek_candidate` does not promote; recency moves
//! only through `touch_candidate` and `insert_candidate`.
//!
//! [`NetworkConfig::fingerprint`]: acr_cfg::NetworkConfig::fingerprint

use crate::verify::Verification;
use acr_obs::metrics::Counter;
use acr_sim::{DerivArena, DerivId};
use std::collections::HashMap;
use std::sync::Arc;

static CAND_HITS: Counter = Counter::new("cache.candidate.hits");
static CAND_MISSES: Counter = Counter::new("cache.candidate.misses");

/// Key of a memoized candidate validation:
/// `(verifier context, committed base config, candidate config)`.
pub type CandidateKey = (u64, u64, u64);

/// A memoized candidate validation. Deliberately not `Clone`: an entry
/// is shared by `Arc`, never deep-copied.
#[derive(Debug)]
pub struct CandidateEntry {
    /// The verdict; `deriv_roots` resolve in [`CandidateEntry::arena`].
    pub verification: Verification,
    /// Pruned arena holding exactly the closures of the verification's
    /// derivation roots.
    pub arena: DerivArena,
    /// Size of the candidate's prefix universe. A hit reports
    /// `recomputed: 0, reused: universe` — nothing was simulated and
    /// every per-prefix outcome was served from memo.
    pub universe: usize,
}

impl CandidateEntry {
    /// The verdict with every root mapped through `ids`, the entry's
    /// pruned→source map from [`make_entry`]: its roots resolve in the
    /// arena the verdict was simulated in.
    pub fn verification_in(&self, ids: &[DerivId]) -> Verification {
        self.verification.clone().map_roots(|r| ids[r.0 as usize])
    }
}

/// Builds a pruned [`CandidateEntry`] from a verification whose roots
/// live in `src`, with the pruned→`src` id map
/// ([`DerivArena::prune`]): entry id `i` is `src` id `map[i]`.
pub fn make_entry(
    v: Verification,
    src: &DerivArena,
    universe: usize,
) -> (CandidateEntry, Vec<DerivId>) {
    let (arena, kept) = src.prune(v.all_roots());
    let verification =
        v.map_roots(|r| DerivId(kept.binary_search(&r).expect("every root is kept") as u32));
    let entry = CandidateEntry {
        verification,
        arena,
        universe,
    };
    (entry, kept)
}

/// The simulation memo-cache: a bounded LRU of candidate verdicts. See
/// the module docs for keying and why no lock guards it.
pub struct SimCache {
    /// Each entry with its recency stamp; larger = more recently used.
    entries: HashMap<CandidateKey, (u64, Arc<CandidateEntry>)>,
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

    /// Looks up a candidate validation without touching LRU recency.
    pub fn peek_candidate(&self, key: CandidateKey) -> Option<Arc<CandidateEntry>> {
        let hit = self.entries.get(&key).map(|(_, entry)| entry.clone());
        match hit {
            Some(_) => CAND_HITS.inc(),
            None => CAND_MISSES.inc(),
        }
        hit
    }

    /// Marks a candidate entry as the most recently used, if present.
    pub fn touch_candidate(&mut self, key: CandidateKey) {
        self.tick += 1;
        if let Some((stamp, _)) = self.entries.get_mut(&key) {
            *stamp = self.tick;
        }
    }

    /// Inserts (or refreshes) a candidate entry as the most recently
    /// used, evicting the least recently used one when the table is
    /// full. Takes the `Arc` the validate stage already hands the engine,
    /// so a verdict's pruned arena exists once however many holders it
    /// has.
    pub fn insert_candidate(&mut self, key: CandidateKey, entry: Arc<CandidateEntry>) {
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

    /// `peek_candidate` bumps process-wide counters: the tests that call
    /// it take turns, so `stats_count_hits_and_misses` reads exact deltas.
    static PEEKS: Mutex<()> = Mutex::new(());

    fn entry(universe: usize) -> Arc<CandidateEntry> {
        let verification = Verification {
            records: Vec::new(),
            matrix: acr_prov::CoverageMatrix::new(),
            flapping: Vec::new(),
            session_diags: Vec::new(),
        };
        Arc::new(CandidateEntry {
            verification,
            arena: DerivArena::new(),
            universe,
        })
    }

    fn key(k: u64) -> CandidateKey {
        (0, 0, k)
    }

    fn universe_at(c: &SimCache, k: u64) -> Option<usize> {
        c.peek_candidate(key(k)).map(|e| e.universe)
    }

    #[test]
    fn peek_does_not_promote() {
        let _g = PEEKS.lock().unwrap_or_else(|e| e.into_inner());
        let mut c = SimCache::new(2);
        c.insert_candidate(key(1), entry(10));
        c.insert_candidate(key(2), entry(20));
        // Peeking 1 must not save it from eviction.
        assert_eq!(universe_at(&c, 1), Some(10));
        c.insert_candidate(key(3), entry(30));
        assert_eq!(
            universe_at(&c, 1),
            None,
            "oldest entry evicted despite peek"
        );
        assert_eq!(universe_at(&c, 2), Some(20));
        assert_eq!(universe_at(&c, 3), Some(30));
    }

    #[test]
    fn touch_promotes() {
        let _g = PEEKS.lock().unwrap_or_else(|e| e.into_inner());
        let mut c = SimCache::new(2);
        c.insert_candidate(key(1), entry(10));
        c.insert_candidate(key(2), entry(20));
        c.touch_candidate(key(1));
        c.insert_candidate(key(3), entry(30));
        assert_eq!(universe_at(&c, 1), Some(10), "touched entry survives");
        assert_eq!(universe_at(&c, 2), None, "untouched entry evicted");
    }

    /// Eviction picks the least recently used entry of the whole table:
    /// of eight entries, the one left untouched longest goes, whatever
    /// its key hashes to.
    #[test]
    fn evicts_the_globally_least_recent_entry() {
        let mut c = SimCache::new(8);
        for k in 0..8 {
            c.insert_candidate(key(k), entry(k as usize));
        }
        for k in (0..8).filter(|k| *k != 5) {
            c.touch_candidate(key(k));
        }
        c.insert_candidate(key(8), entry(8));
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
            c.insert_candidate(key(k), entry(k as usize));
        }
        assert_eq!(c.entries.len(), 2);
        assert!(c.entries.contains_key(&key(998)) && c.entries.contains_key(&key(999)));
        // Refreshing a present key evicts nothing.
        c.insert_candidate(key(998), entry(0));
        assert_eq!(c.entries.len(), 2);
    }

    /// Every lookup lands in exactly one of the two counters the
    /// benchmark's `verify.cache_hit_ratio` is computed from.
    #[test]
    fn stats_count_hits_and_misses() {
        let _g = PEEKS.lock().unwrap_or_else(|e| e.into_inner());
        acr_obs::enable_metrics();
        let before = (CAND_HITS.get(), CAND_MISSES.get());
        let mut c = SimCache::default();
        c.insert_candidate(key(7), entry(7));
        assert_eq!(universe_at(&c, 7), Some(7));
        assert_eq!(universe_at(&c, 8), None);
        let after = (CAND_HITS.get(), CAND_MISSES.get());
        assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1));
    }
}
