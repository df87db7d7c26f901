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
//! Ids are arena-local. Two operations move closures between arenas:
//! [`DerivArena::prune`] copies the closures of some roots out into a
//! fresh arena in one ascending pass — a verdict's provenance leaves the
//! arena it was simulated in this way — and [`DerivArena::absorb`]
//! re-interns closures from another arena, deduplicating against what
//! this one already holds.

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
    // `nodes[..indexed]` are in `index`. Only `prune` leaves a tail
    // unindexed — its copies are walked and absorbed from, almost never
    // interned into — and the first intern indexes it.
    indexed: usize,
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
        while self.indexed < self.nodes.len() {
            let n = &self.nodes[self.indexed];
            let h = content_hash(n.kind, &n.lines, &n.parents);
            self.index
                .entry(h)
                .or_default()
                .push(DerivId(self.indexed as u32));
            self.indexed += 1;
        }
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
        self.indexed += 1;
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

    /// The sub-arena holding exactly the transitive closures of `roots`,
    /// with the kept source ids: pruned id `i` is source id `kept[i]`.
    ///
    /// One mark walk, then one copy of the marked nodes in ascending id
    /// order. [`DerivArena::intern`] is only ever handed ids that already
    /// exist, so every parent precedes its child: the dense remap is
    /// monotone, a copied node's parents are remapped before it and stay
    /// sorted, and `kept` is ascending. No node is hashed, looked up or
    /// compared — content was deduplicated in the source, and an
    /// injective remap keeps it so; the copy's index is built by the
    /// first [`DerivArena::intern`] into it, if any.
    pub fn prune(&self, roots: impl IntoIterator<Item = DerivId>) -> (DerivArena, Vec<DerivId>) {
        let mut keep = vec![false; self.nodes.len()];
        let mut count = 0;
        let mut stack: Vec<DerivId> = roots.into_iter().collect();
        while let Some(id) = stack.pop() {
            let i = id.0 as usize;
            if !keep[i] {
                keep[i] = true;
                count += 1;
                stack.extend_from_slice(&self.nodes[i].parents);
            }
        }
        let mut remap = vec![u32::MAX; self.nodes.len()];
        let mut kept = Vec::with_capacity(count);
        let mut nodes = Vec::with_capacity(count);
        for (i, n) in self.nodes.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            remap[i] = nodes.len() as u32;
            kept.push(DerivId(i as u32));
            nodes.push(DerivNode {
                kind: n.kind,
                lines: n.lines.clone(),
                parents: n
                    .parents
                    .iter()
                    .map(|p| DerivId(remap[p.0 as usize]))
                    .collect(),
            });
        }
        let pruned = DerivArena {
            nodes,
            ..DerivArena::default()
        };
        (pruned, kept)
    }

    /// Re-interns the transitive closures of `roots` (ids valid in
    /// `src`) into this arena, returning the remapped roots.
    ///
    /// Ids are arena-local, so derivations computed in one arena (a
    /// cache entry's pruned copy) cannot be referenced from
    /// another directly; `absorb` rebuilds the closure bottom-up via
    /// [`DerivArena::intern_ref`], so shared content dedups against what
    /// is already present and absorbing is idempotent. The src→dst map is
    /// shared by all of `roots`: pass every root of one source arena in
    /// one call.
    pub fn absorb(&mut self, src: &DerivArena, roots: &[DerivId]) -> Vec<DerivId> {
        const UNSET: u32 = u32::MAX;
        let mut memo = vec![UNSET; src.len()];
        let (mut lines, mut parents) = (Vec::new(), Vec::new());
        let mut stack = Vec::new();
        for &root in roots {
            // Iterative post-order: a node is re-interned only after all
            // of its parents have been, since intern needs their new ids.
            stack.push((root, false));
            while let Some((id, expanded)) = stack.pop() {
                if memo[id.0 as usize] != UNSET {
                    continue;
                }
                let n = src.node(id);
                if expanded {
                    lines.clear();
                    lines.extend_from_slice(&n.lines);
                    parents.clear();
                    parents.extend(n.parents.iter().map(|p| DerivId(memo[p.0 as usize])));
                    memo[id.0 as usize] = self.intern_ref(n.kind, &mut lines, &mut parents).0;
                } else {
                    stack.push((id, true));
                    for &p in &n.parents {
                        if memo[p.0 as usize] == UNSET {
                            stack.push((p, false));
                        }
                    }
                }
            }
        }
        roots.iter().map(|r| DerivId(memo[r.0 as usize])).collect()
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
    fn absorb_remaps_closures_and_dedups() {
        let mut src = DerivArena::new();
        let o = src.intern(DerivKind::OriginNetwork, vec![l(1, 3)], vec![]);
        let e = src.intern(DerivKind::Export, vec![l(1, 5)], vec![o]);
        let m = src.intern(DerivKind::Import, vec![l(0, 6)], vec![e]);

        let mut dst = DerivArena::new();
        // Pre-populate dst so ids diverge from src.
        dst.intern(DerivKind::Pbr, vec![l(7, 7)], vec![]);
        let roots = dst.absorb(&src, &[m, o]);
        assert_eq!(roots.len(), 2);
        assert_eq!(
            dst.closure_lines([roots[0]]),
            src.closure_lines([m]),
            "closure content survives the remap"
        );
        assert_eq!(dst.closure_lines([roots[1]]), src.closure_lines([o]));
        assert_eq!(dst.len(), 4, "three absorbed + one pre-existing");

        // Absorbing again is a no-op on content.
        let again = dst.absorb(&src, &[m]);
        assert_eq!(again[0], roots[0]);
        assert_eq!(dst.len(), 4);
    }

    #[test]
    fn empty_arena_closure() {
        let a = DerivArena::new();
        assert!(a.closure_lines([]).is_empty());
        assert!(a.is_empty());
    }

    /// Every property `prune` promises, checked against `src` and `roots`:
    /// the map is strictly ascending, each kept node is its source node
    /// with parents mapped, closures survive, the index answers for every
    /// node, and the content is exactly what `absorb` into an empty arena
    /// interns.
    fn check_prune(src: &DerivArena, roots: &[DerivId]) {
        let (pruned, kept) = src.prune(roots.iter().copied());
        assert_eq!(pruned.len(), kept.len());
        assert!(kept.windows(2).all(|w| w[0] < w[1]), "monotone map");
        for (id, n) in pruned.iter() {
            let s = src.node(kept[id.0 as usize]);
            let parents: Vec<DerivId> = n.parents.iter().map(|p| kept[p.0 as usize]).collect();
            assert_eq!((n.kind, &n.lines, &parents), (s.kind, &s.lines, &s.parents));
            assert!(n.parents.iter().all(|p| *p < id), "parents precede");
            let again = pruned
                .clone()
                .intern(n.kind, n.lines.clone(), n.parents.clone());
            assert_eq!(again, id, "the index finds every copied node");
        }
        for &r in roots {
            let mapped = DerivId(kept.binary_search(&r).expect("a root is kept") as u32);
            assert_eq!(pruned.closure_lines([mapped]), src.closure_lines([r]));
        }
        // Equal lengths, and absorbing all of one into the other interns
        // nothing: both hold the same set of contents.
        let mut absorbed = DerivArena::new();
        absorbed.absorb(src, roots);
        assert_eq!(absorbed.len(), pruned.len());
        let all: Vec<DerivId> = pruned.iter().map(|(id, _)| id).collect();
        absorbed.absorb(&pruned, &all);
        assert_eq!(absorbed.len(), pruned.len(), "same node contents");
    }

    #[test]
    fn prune_copies_exactly_the_closures_in_ascending_order() {
        let mut a = DerivArena::new();
        let o = a.intern(DerivKind::OriginStatic, vec![l(0, 1)], vec![]);
        let stray = a.intern(DerivKind::Pbr, vec![l(5, 5)], vec![]);
        let e1 = a.intern(DerivKind::Export, vec![l(0, 2)], vec![o]);
        let e2 = a.intern(DerivKind::Export, vec![l(0, 3)], vec![o]);
        let d = a.intern(DerivKind::ImportDenied, vec![l(2, 9)], vec![stray]);
        let m = a.intern(DerivKind::Import, vec![], vec![e2, e1]);
        check_prune(&a, &[m]);
        check_prune(&a, &[e2, m, e2]);
        check_prune(&a, &[d, o]);
        check_prune(&a, &[]);
        let (pruned, kept) = a.prune([m]);
        assert_eq!(kept, vec![o, e1, e2, m], "unreached nodes stay out");
        assert_eq!(
            pruned.node(DerivId(3)).parents,
            vec![DerivId(1), DerivId(2)]
        );
    }

    /// Real arenas: simulating every Table-1 incident on `wan(4,8)`
    /// interns every parent before its child, and pruning any subset of
    /// the outcome roots keeps every promise of `check_prune`.
    #[test]
    fn prune_holds_on_table1_simulations() {
        let net = acr_workloads::generate(&acr_topo::gen::wan(4, 8));
        for (fault, _) in acr_workloads::TABLE1 {
            let Some(incident) = acr_workloads::try_inject(fault, &net, 0) else {
                continue;
            };
            let out = crate::Simulator::new(&net.topo, &incident.broken).run();
            for (id, n) in out.arena.iter() {
                assert!(n.parents.iter().all(|p| *p < id), "{fault:?}");
            }
            let roots: Vec<DerivId> = out
                .outcomes
                .values()
                .flat_map(|o| {
                    let mut r = o.deriv_roots();
                    r.extend_from_slice(o.rejection_roots());
                    r
                })
                .collect();
            assert!(!roots.is_empty());
            check_prune(&out.arena, &roots);
            check_prune(&out.arena, &roots[..roots.len() / 3]);
        }
    }
}
