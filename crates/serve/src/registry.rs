//! The network registry: per-network resident state.
//!
//! A daemon serves a fixed set of *registered* networks. Each entry
//! pairs the network's immutable identity (topology + spec, shared via
//! `Arc` with every job run against it) with the mutable resident state
//! a [`acr_core::NetworkSession`] accumulates across jobs: the
//! cross-job simulation cache and one slot per recently served broken
//! configuration (suspended warm verifier plus static baseline), keyed
//! by config fingerprint.
//!
//! Resident state is invalidated in exactly one place —
//! [`Registry::invalidate`], the hook for a *committed* patch landing
//! on the network. Serving jobs never invalidates anything: incident
//! submissions carry candidate broken configs, and every cached
//! artifact is fingerprint-gated, so staleness is impossible by
//! construction (a mismatched fingerprint is a cache miss, not a wrong
//! answer).

use acr_core::NetworkSession;
use acr_topo::Topology;
use acr_verify::Spec;
use std::sync::Arc;

/// A network's immutable identity.
#[derive(Clone)]
pub struct NetworkDef {
    pub name: String,
    pub topo: Arc<Topology>,
    pub spec: Arc<Spec>,
}

/// One registered network: identity + resident state + serving stats.
pub struct NetworkEntry {
    pub def: NetworkDef,
    pub session: NetworkSession,
    /// Jobs completed against this network.
    pub jobs_served: u64,
    /// Explicit invalidations ([`Registry::invalidate`] calls).
    pub invalidations: u64,
}

/// The daemon's network table, keyed by name.
#[derive(Default)]
pub struct Registry {
    entries: std::collections::BTreeMap<String, NetworkEntry>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or replaces, resetting resident state) a network.
    pub fn register(&mut self, def: NetworkDef) {
        self.entries.insert(
            def.name.clone(),
            NetworkEntry {
                def,
                session: NetworkSession::new(),
                jobs_served: 0,
                invalidations: 0,
            },
        );
    }

    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    pub fn get(&self, name: &str) -> Option<&NetworkEntry> {
        self.entries.get(name)
    }

    pub fn get_mut(&mut self, name: &str) -> Option<&mut NetworkEntry> {
        self.entries.get_mut(name)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops the named network's configuration-bound resident state —
    /// the committed-patch hook. Returns whether the network exists.
    pub fn invalidate(&mut self, name: &str) -> bool {
        match self.entries.get_mut(name) {
            Some(e) => {
                e.session.invalidate();
                e.invalidations += 1;
                true
            }
            None => false,
        }
    }
}
