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
//!
//! Storage is flat: one `kinds` entry per node, every node's lines and
//! parents back to back in two shared vectors, and per node the end
//! offsets of its runs, so a node costs no heap block of its own. The
//! content index maps a content hash to the newest id with that hash;
//! older ids with the same hash chain through `next`. A lookup confirms
//! by full content compare, so the hash only routes: which id a content
//! interns to depends on the interning order alone.

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

/// One derivation step, viewed in its arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DerivNode<'a> {
    pub kind: DerivKind,
    /// Configuration lines this step directly depends on (sorted,
    /// deduplicated).
    pub lines: &'a [LineId],
    /// Upstream derivations (e.g. the route that was imported; sorted,
    /// deduplicated).
    pub parents: &'a [DerivId],
}

/// No older id shares the hash.
const END: u32 = u32::MAX;

/// A deduplicating arena of derivation nodes.
#[derive(Debug, Default, Clone)]
pub struct DerivArena {
    kinds: Vec<DerivKind>,
    lines: Vec<LineId>,
    parents: Vec<DerivId>,
    /// Per node, the end of its run in `lines` and in `parents`; a run
    /// starts where the previous node's ends.
    ends: Vec<(u32, u32)>,
    /// Content hash -> the newest id with that hash. `FxHasher` keeps
    /// this off the convergence hot path's profile (interning happens
    /// per transfer).
    index: FxHashMap<u64, u32>,
    /// Per node, the next older id with the same hash, or [`END`].
    next: Vec<u32>,
}

// The index is derived from the nodes, so equality is node-list
// equality. Two arenas are equal only when they interned the same
// content in the same order — exactly what a deterministic simulation
// reproduces.
impl PartialEq for DerivArena {
    fn eq(&self, other: &Self) -> bool {
        self.kinds == other.kinds
            && self.ends == other.ends
            && self.lines == other.lines
            && self.parents == other.parents
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
        self.kinds.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
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
        let newest = self.index.get(&h).copied().unwrap_or(END);
        let mut at = newest;
        while at != END {
            let n = self.node(DerivId(at));
            if n.kind == kind && n.lines == &lines[..] && n.parents == &parents[..] {
                return DerivId(at);
            }
            at = self.next[at as usize];
        }
        let id = self.kinds.len() as u32;
        self.kinds.push(kind);
        self.lines.extend_from_slice(lines);
        self.parents.extend_from_slice(parents);
        self.ends
            .push((self.lines.len() as u32, self.parents.len() as u32));
        self.next.push(newest);
        self.index.insert(h, id);
        DerivId(id)
    }

    /// The node behind an id.
    pub fn node(&self, id: DerivId) -> DerivNode<'_> {
        let i = id.0 as usize;
        let (lines_start, parents_start) = match i {
            0 => (0, 0),
            _ => self.ends[i - 1],
        };
        let (lines_end, parents_end) = self.ends[i];
        DerivNode {
            kind: self.kinds[i],
            lines: &self.lines[lines_start as usize..lines_end as usize],
            parents: &self.parents[parents_start as usize..parents_end as usize],
        }
    }

    /// All configuration lines in the transitive closure of `roots`.
    pub fn closure_lines(&self, roots: impl IntoIterator<Item = DerivId>) -> Vec<LineId> {
        let mut seen = vec![false; self.len()];
        let mut stack: Vec<DerivId> = roots.into_iter().collect();
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            let i = id.0 as usize;
            if seen[i] {
                continue;
            }
            seen[i] = true;
            let n = self.node(id);
            out.extend_from_slice(n.lines);
            stack.extend_from_slice(n.parents);
        }
        out.sort_unstable();
        out.dedup();
        out
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

    /// The flat storage against a naive reference: a list of sorted,
    /// deduplicated nodes searched linearly. About half of the ≈ 5 000
    /// interns hit (a small content space), and lines and parents arrive
    /// unsorted and with repeats.
    #[test]
    fn flat_arena_matches_a_naive_reference() {
        use acr_net_types::SplitMix64;
        use std::collections::BTreeSet;
        type Content = (DerivKind, Vec<LineId>, Vec<DerivId>);
        const KINDS: [DerivKind; 3] = [
            DerivKind::Export,
            DerivKind::Import,
            DerivKind::ImportDenied,
        ];
        let mut rng = SplitMix64::new(5);
        let mut arena = DerivArena::new();
        let mut reference: Vec<Content> = Vec::new();
        let mut calls: Vec<Content> = Vec::new();
        let mut hits = 0;
        for _ in 0..5_000 {
            let kind = KINDS[rng.index(KINDS.len())];
            let lines: Vec<LineId> = (0..rng.index(4))
                .map(|_| l(rng.index(2) as u32, 1 + rng.index(4) as u32))
                .collect();
            let window = reference.len().min(8);
            let parents: Vec<DerivId> = (0..rng.index(3))
                .filter(|_| window > 0)
                .map(|_| DerivId(rng.index(window) as u32))
                .collect();
            calls.push((kind, lines.clone(), parents.clone()));

            let id = arena.intern(kind, lines.clone(), parents.clone());
            let mut key = (kind, lines, parents);
            key.1.sort_unstable();
            key.1.dedup();
            key.2.sort_unstable();
            key.2.dedup();
            let want = match reference.iter().position(|c| *c == key) {
                Some(i) => {
                    hits += 1;
                    i
                }
                None => {
                    reference.push(key);
                    reference.len() - 1
                }
            };
            assert_eq!(id, DerivId(want as u32));
            assert_eq!(arena.len(), reference.len());
        }
        assert!((1_500..3_500).contains(&hits), "{hits} hits of 5000");

        for (i, (kind, lines, parents)) in reference.iter().enumerate() {
            let node = arena.node(DerivId(i as u32));
            assert_eq!(
                (node.kind, node.lines, node.parents),
                (*kind, &lines[..], &parents[..])
            );
        }

        for _ in 0..200 {
            let roots: Vec<DerivId> = (0..1 + rng.index(3))
                .map(|_| DerivId(rng.index(reference.len()) as u32))
                .collect();
            let (mut seen, mut want) = (BTreeSet::new(), BTreeSet::new());
            let mut stack = roots.clone();
            while let Some(id) = stack.pop() {
                if seen.insert(id) {
                    let (_, lines, parents) = &reference[id.0 as usize];
                    want.extend(lines.iter().copied());
                    stack.extend(parents.iter().copied());
                }
            }
            let want: Vec<LineId> = want.into_iter().collect();
            assert_eq!(arena.closure_lines(roots), want);
        }

        let mut replay = DerivArena::new();
        for (kind, lines, parents) in calls {
            replay.intern(kind, lines, parents);
        }
        assert!(replay == arena, "same interns in the same order");
        replay.intern(DerivKind::Pbr, vec![l(9, 9)], vec![]);
        assert!(replay != arena, "one more node");
    }

    #[test]
    fn empty_arena_closure() {
        let a = DerivArena::new();
        assert!(a.closure_lines([]).is_empty());
        assert!(a.is_empty());
    }
}
