//! Cross-run resident state — what a repair daemon keeps per network
//! between incidents.
//!
//! Every repair runs against a session: a one-shot
//! [`crate::RepairEngine::repair`] owns a fresh one and drops it on
//! return, so it rebuilds everything from scratch — the compiled base
//! (the configuration's models and sessions, built once per job), the
//! per-prefix verification caches, the policy memo and route interner,
//! the dataflow facts and the lint findings. A [`NetworkSession`] kept
//! across runs parks all of that:
//!
//! - the **simulation memo-cache** ([`SimCache`]) pools candidate
//!   verdicts across every job served against the same committed base,
//! - one **slot per recently served broken configuration**, keyed by its
//!   fingerprint, most recently used first, [`WARM_SLOTS`] deep. A slot
//!   holds the suspended verifier ([`WarmState`]: the configuration's one
//!   compiled base, per-prefix outcome/closure/FIB caches, derivation
//!   arena, policy memo) and the configuration's static baseline
//!   (`acr-flow` facts and lint findings read off that base — pure
//!   functions of the topology and the configuration). A job whose broken configuration
//!   is byte-identical to a parked slot's, under the same verifier
//!   context, re-installs the verifier — zero prefixes re-simulated at
//!   commit — and analyses nothing; a slot whose context differs is
//!   dropped whole and the job commits cold. So a
//!   *rotating* job stream — incidents alternating between a handful of
//!   broken configurations of the same network — resumes warm on every
//!   revisit instead of thrashing.
//!
//! Reuse never changes a decision: every cached artifact is either
//! fingerprint-gated to an identical input or byte-exact by
//! construction (see the soundness notes on [`WarmState`] and
//! `PolicyMemo::begin_run`), so a resident repair's outcome, patch,
//! fitness trajectory and generation/keep decisions are identical to a
//! cold run's — only the validation *cost* accounting moves.

use crate::validate::Baseline;
use acr_verify::{SimCache, WarmState};

/// Number of per-configuration slots a session retains.
pub const WARM_SLOTS: usize = 4;

/// Everything a session keeps about one broken configuration.
pub(crate) struct Slot {
    /// Fingerprint of the configuration — the slot's key.
    pub fp: u64,
    pub statics: Baseline,
    pub warm: WarmState,
}

/// Resident per-network state for [`crate::RepairEngine::repair_resident`].
pub struct NetworkSession {
    /// The cross-job simulation memo-cache: every job against the same
    /// network pools its candidate verdicts here. A job borrows it for
    /// the length of its run.
    pub(crate) cache: SimCache,
    /// Recently served configurations, most recent first.
    slots: Vec<Slot>,
    /// Runs that resumed warm verifier state.
    pub resident_hits: u64,
    /// Runs that had to commit cold (no slot held the incident's
    /// configuration under the run's verifier context); every one-shot
    /// run is one.
    pub resident_misses: u64,
}

impl NetworkSession {
    /// An empty session with a fresh simulation cache.
    pub fn new() -> Self {
        NetworkSession {
            cache: SimCache::default(),
            slots: Vec::new(),
            resident_hits: 0,
            resident_misses: 0,
        }
    }

    /// Whether any suspended verifier is parked here.
    pub fn has_warm(&self) -> bool {
        !self.slots.is_empty()
    }

    /// The number of slots (suspended verifiers) currently parked.
    pub fn warm_len(&self) -> usize {
        self.slots.len()
    }

    /// Drops every configuration-bound artifact — the invalidation hook
    /// for when a committed patch lands on the network. The simulation
    /// cache stays: its keys carry the committed base's fingerprint, so
    /// entries for the old base simply stop matching.
    pub fn invalidate(&mut self) {
        self.slots.clear();
    }

    /// Removes and returns the slot of the configuration fingerprinted
    /// `fp`, if parked. The job re-parks it (with the re-suspended
    /// verifier) via [`NetworkSession::park`], which restores its recency.
    pub(crate) fn take(&mut self, fp: u64) -> Option<Slot> {
        let idx = self.slots.iter().position(|s| s.fp == fp)?;
        Some(self.slots.remove(idx))
    }

    /// Parks a slot as the most recent, evicting the least recently used
    /// beyond [`WARM_SLOTS`].
    pub(crate) fn park(&mut self, slot: Slot) {
        self.slots.insert(0, slot);
        self.slots.truncate(WARM_SLOTS);
    }
}

impl Default for NetworkSession {
    fn default() -> Self {
        Self::new()
    }
}
