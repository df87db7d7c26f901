//! The derivation arena: content-addressed provenance for routes.
//!
//! Every route the simulator creates points at a [`DerivNode`] recording
//! *which configuration lines* the route's existence depends on at this
//! step, plus parent derivations (the sender's exported route, for learned
//! routes). Nodes are content-addressed — re-deriving the same route in a
//! later simulation round reuses the node — so the arena stays small even
//! when an oscillating prefix is simulated for hundreds of rounds.
//!
//! The provenance layer (`acr-prov`) computes line *coverage* as the
//! transitive closure of `lines` over `parents`; this is the paper's
//! NetCov-style coverage feeding SBFL (§4.1).
//!
//! Ids are arena-local: a verdict's derivation roots are read in the
//! arena it was simulated in (the incremental verifier's persistent
//! arena, for every candidate of a repair job).

use crate::fxhash::{FxHashMap, FxHasher};
use acr_cfg::LineId;
use std::hash::{Hash, Hasher};

/// Index of a derivation node in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DerivId(pub u32);

/// What kind of step produced a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DerivKind {
    /// Locally originated from a `network` statement.
    OriginNetwork,
    /// Locally originated by redistributing a static route.
    OriginStatic,
    /// Locally originated by redistributing a connected subnet.
    OriginConnected,
    /// Learned from a neighbor (import side: session + import policy).
    Import,
    /// A neighbor's announcement (export side: session + export policy).
    Export,
    /// A FIB entry for a connected subnet.
    FibConnected,
    /// A FIB entry installed from a static route.
    FibStatic,
    /// A packet matched a PBR rule.
    Pbr,
    /// An announcement was *rejected* by an import policy — negative
    /// provenance: the failed behaviour's candidate explanation.
    ImportDenied,
    /// An announcement was suppressed by an export policy.
    ExportDenied,
}

/// One derivation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivNode {
    pub kind: DerivKind,
    /// Configuration lines this step directly depends on.
    pub lines: Vec<LineId>,
    /// Upstream derivations (e.g. the route that was imported).
    pub parents: Vec<DerivId>,
}

/// A deduplicating arena of derivation nodes.
#[derive(Debug, Default, Clone)]
pub struct DerivArena {
    nodes: Vec<DerivNode>,
    // Hash -> candidate ids, confirmed by full content compare below, so
    // the hash function only routes lookups — it can never change which
    // id a given content interns to. `FxHasher` keeps this off the
    // convergence hot path's profile (interning happens per transfer).
    index: FxHashMap<u64, Vec<DerivId>>,
}

// The index is derived from `nodes`, so equality is node-list equality.
// Two arenas are equal only when they interned the same content in the
// same order — exactly what a deterministic simulation reproduces.
impl PartialEq for DerivArena {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
    }
}
impl Eq for DerivArena {}

impl DerivArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        DerivArena::default()
    }

    /// Number of distinct derivation nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interns a node, returning the existing id when an identical node is
    /// already present.
    pub fn intern(
        &mut self,
        kind: DerivKind,
        mut lines: Vec<LineId>,
        mut parents: Vec<DerivId>,
    ) -> DerivId {
        self.intern_ref(kind, &mut lines, &mut parents)
    }

    /// [`DerivArena::intern`] over caller-owned scratch buffers: sorts and
    /// dedups in place, and only copies the content into the arena on a
    /// miss. Interning is content-addressed, so on the simulator hot path
    /// nearly every call is a dedup hit — with this entry point a hit
    /// allocates nothing, where `intern` forces the caller to build (and
    /// then drop) fresh `Vec`s per call.
    pub fn intern_ref(
        &mut self,
        kind: DerivKind,
        lines: &mut Vec<LineId>,
        parents: &mut Vec<DerivId>,
    ) -> DerivId {
        lines.sort_unstable();
        lines.dedup();
        parents.sort_unstable();
        parents.dedup();
        let h = content_hash(kind, lines, parents);
        if let Some(bucket) = self.index.get(&h) {
            for id in bucket {
                let n = &self.nodes[id.0 as usize];
                if n.kind == kind && &n.lines == lines && &n.parents == parents {
                    return *id;
                }
            }
        }
        let id = DerivId(self.nodes.len() as u32);
        self.nodes.push(DerivNode {
            kind,
            lines: lines.clone(),
            parents: parents.clone(),
        });
        self.index.entry(h).or_default().push(id);
        id
    }

    /// The node behind an id.
    pub fn node(&self, id: DerivId) -> &DerivNode {
        &self.nodes[id.0 as usize]
    }

    /// All configuration lines in the transitive closure of `roots`.
    pub fn closure_lines(&self, roots: impl IntoIterator<Item = DerivId>) -> Vec<LineId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<DerivId> = roots.into_iter().collect();
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            let i = id.0 as usize;
            if seen[i] {
                continue;
            }
            seen[i] = true;
            let n = &self.nodes[i];
            out.extend_from_slice(&n.lines);
            stack.extend_from_slice(&n.parents);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Iterates all nodes with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (DerivId, &DerivNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (DerivId(i as u32), n))
    }
}

/// The index key of a node's (sorted, deduplicated) content.
fn content_hash(kind: DerivKind, lines: &[LineId], parents: &[DerivId]) -> u64 {
    let mut hasher = FxHasher::default();
    kind.hash(&mut hasher);
    lines.hash(&mut hasher);
    parents.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_net_types::RouterId;

    fn l(r: u32, line: u32) -> LineId {
        LineId::new(RouterId(r), line)
    }

    #[test]
    fn interning_dedups() {
        let mut a = DerivArena::new();
        let x = a.intern(DerivKind::OriginStatic, vec![l(0, 4), l(0, 2)], vec![]);
        let y = a.intern(DerivKind::OriginStatic, vec![l(0, 2), l(0, 4)], vec![]);
        assert_eq!(x, y, "order-insensitive dedup");
        assert_eq!(a.len(), 1);
        let z = a.intern(DerivKind::OriginNetwork, vec![l(0, 2), l(0, 4)], vec![]);
        assert_ne!(x, z, "kind distinguishes nodes");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn closure_follows_parents() {
        let mut a = DerivArena::new();
        let origin = a.intern(DerivKind::OriginNetwork, vec![l(1, 3)], vec![]);
        let export = a.intern(DerivKind::Export, vec![l(1, 5)], vec![origin]);
        let import = a.intern(DerivKind::Import, vec![l(0, 6)], vec![export]);
        let lines = a.closure_lines([import]);
        assert_eq!(lines, vec![l(0, 6), l(1, 3), l(1, 5)]);
        assert_eq!(
            a.closure_lines([origin]),
            vec![l(1, 3)],
            "closure is upward only"
        );
    }

    #[test]
    fn closure_handles_shared_subgraphs() {
        let mut a = DerivArena::new();
        let o = a.intern(DerivKind::OriginStatic, vec![l(0, 1)], vec![]);
        let e1 = a.intern(DerivKind::Export, vec![l(0, 2)], vec![o]);
        let e2 = a.intern(DerivKind::Export, vec![l(0, 3)], vec![o]);
        let m = a.intern(DerivKind::Import, vec![], vec![e1, e2]);
        let lines = a.closure_lines([m]);
        assert_eq!(lines, vec![l(0, 1), l(0, 2), l(0, 3)]);
    }

    #[test]
    fn empty_arena_closure() {
        let a = DerivArena::new();
        assert!(a.closure_lines([]).is_empty());
        assert!(a.is_empty());
    }
}
