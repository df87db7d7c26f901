//! The simulation memo-cache shared across the repair pipeline.
//!
//! Candidate generation revisits configurations constantly — crossover
//! recombines population members into patches it already tried, and a
//! resident daemon or an A/B experiment repairs the same network twice.
//! Every such revisit would pay an incremental control-plane
//! simulation. [`SimCache`] memoizes verification results behind a
//! *stable config fingerprint*: the hash of the
//! canonical rendered configuration ([`NetworkConfig::fingerprint`])
//! together with the verifier's context fingerprint (topology identity +
//! generated test suite). Two lookups agree on a key exactly when the
//! simulator would be handed bit-identical inputs, so a hit can return
//! the memoized verdict verbatim.
//!
//! One table, keyed `(context, base, candidate)`: the result of
//! `verify_candidate` against a committed base. The entry carries a
//! *pruned* private arena holding exactly the derivation closures of the
//! verification's roots, so consumers can absorb provenance into their
//! own arena (ids are arena-local and never portable).
//!
//! Determinism: reads (`peek_candidate`) never mutate LRU recency — see
//! [`acr_sim::ShardedCache`]. Writers must call `insert_candidate` /
//! `touch_candidate` from one coordinating thread in a deterministic
//! order; the repair engine does so in candidate-index order.

use crate::verify::Verification;
use acr_obs::metrics::Counter;
use acr_sim::{CacheStats, DerivArena, ShardedCache};
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

/// Builds a pruned [`CandidateEntry`] from a verification whose roots
/// live in `src`.
pub fn make_entry(v: &Verification, src: &DerivArena, universe: usize) -> CandidateEntry {
    let mut arena = DerivArena::new();
    let verification = rebase_verification(v, src, &mut arena);
    CandidateEntry {
        verification,
        arena,
        universe,
    }
}

/// Rebases `v` onto `dst`: every record's derivation closure is
/// re-interned from `src`, and the returned clone's roots resolve in
/// `dst`. Content-addressed interning makes this observationally
/// lossless — closures, coverage and verdicts are unchanged.
pub fn rebase_verification(
    v: &Verification,
    src: &DerivArena,
    dst: &mut DerivArena,
) -> Verification {
    let mut out = v.clone();
    let mut memo = HashMap::new();
    for rec in &mut out.records {
        rec.deriv_roots = dst.absorb(src, &rec.deriv_roots, &mut memo);
    }
    out
}

/// The shared simulation memo-cache. Cheap to clone the handle via
/// `Arc<SimCache>`; see the module docs for keying and the
/// determinism contract.
#[derive(Debug)]
pub struct SimCache {
    candidates: ShardedCache<CandidateKey, Arc<CandidateEntry>>,
}

impl Default for SimCache {
    fn default() -> Self {
        SimCache::new(SimCache::DEFAULT_CAPACITY)
    }
}

impl SimCache {
    /// Default bound on entries.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        SimCache {
            candidates: ShardedCache::with_capacity(capacity),
        }
    }

    /// Looks up a candidate validation without touching LRU recency.
    pub fn peek_candidate(&self, key: CandidateKey) -> Option<Arc<CandidateEntry>> {
        let hit = self.candidates.peek(&key);
        match hit {
            Some(_) => CAND_HITS.inc(),
            None => CAND_MISSES.inc(),
        }
        hit
    }

    /// Promotes a candidate entry (coordinator only, deterministic order).
    pub fn touch_candidate(&self, key: CandidateKey) {
        self.candidates.touch(&key)
    }

    /// Inserts a candidate entry (coordinator only, deterministic order).
    /// Takes the `Arc` the validate stage already hands the engine, so a
    /// verdict's pruned arena exists once however many holders it has.
    pub fn insert_candidate(&self, key: CandidateKey, entry: Arc<CandidateEntry>) {
        self.candidates.insert(key, entry)
    }

    /// Hit/miss/insertion/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.candidates.stats()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
