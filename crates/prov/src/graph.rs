//! Graph-level queries over a derivation arena.

use acr_cfg::LineId;
use acr_sim::{DerivArena, DerivId, DerivKind};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A read-only provenance view over a simulation's derivation arena.
pub struct Provenance<'a> {
    arena: &'a DerivArena,
}

impl<'a> Provenance<'a> {
    /// Wraps an arena.
    pub fn new(arena: &'a DerivArena) -> Self {
        Provenance { arena }
    }

    /// Configuration-line coverage: every line in the transitive closure
    /// of `roots`.
    pub fn coverage(&self, roots: impl IntoIterator<Item = DerivId>) -> BTreeSet<LineId> {
        self.arena.closure_lines(roots).into_iter().collect()
    }

    /// The leaf derivation nodes (no parents) reachable from `roots` —
    /// origination events, base FIB entries, PBR matches. Their count is
    /// the MetaProv search space of the paper's Figure 3a.
    pub fn leaves(&self, roots: impl IntoIterator<Item = DerivId>) -> Vec<DerivId> {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<DerivId> = roots.into_iter().collect();
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let node = self.arena.node(id);
            if node.parents.is_empty() {
                out.push(id);
            } else {
                stack.extend_from_slice(node.parents);
            }
        }
        out.sort_unstable();
        out
    }

    /// The distinct configuration lines on the *leaves* of the derivation
    /// graph — MetaProv's candidate root causes.
    pub fn leaf_lines(&self, roots: impl IntoIterator<Item = DerivId>) -> BTreeSet<LineId> {
        self.leaves(roots)
            .into_iter()
            .flat_map(|id| self.arena.node(id).lines.iter().copied())
            .collect()
    }

    /// Number of distinct derivation nodes reachable from `roots`.
    pub fn node_count(&self, roots: impl IntoIterator<Item = DerivId>) -> usize {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<DerivId> = roots.into_iter().collect();
        while let Some(id) = stack.pop() {
            if seen.insert(id) {
                stack.extend_from_slice(self.arena.node(id).parents);
            }
        }
        seen.len()
    }

    /// Renders the derivation tree below `root` as indented text, for
    /// operator-facing "why is this route here" explanations.
    pub fn explain(&self, root: DerivId) -> String {
        let mut out = String::new();
        self.explain_into(root, 0, &mut out, &mut BTreeSet::new());
        out
    }

    fn explain_into(
        &self,
        id: DerivId,
        depth: usize,
        out: &mut String,
        seen: &mut BTreeSet<DerivId>,
    ) {
        let node = self.arena.node(id);
        for _ in 0..depth {
            out.push_str("  ");
        }
        let kind = match node.kind {
            DerivKind::OriginNetwork => "originate(network)",
            DerivKind::OriginStatic => "originate(static)",
            DerivKind::OriginConnected => "originate(connected)",
            DerivKind::Import => "import",
            DerivKind::Export => "export",
            DerivKind::FibConnected => "fib(connected)",
            DerivKind::FibStatic => "fib(static)",
            DerivKind::Pbr => "pbr",
            DerivKind::ImportDenied => "import-denied",
            DerivKind::ExportDenied => "export-denied",
        };
        let _ = write!(out, "{kind}");
        if !node.lines.is_empty() {
            let _ = write!(out, " [");
            for (i, l) in node.lines.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, " ");
                }
                let _ = write!(out, "{l}");
            }
            let _ = write!(out, "]");
        }
        out.push('\n');
        if !seen.insert(id) {
            for _ in 0..=depth {
                out.push_str("  ");
            }
            out.push_str("(shared subtree elided)\n");
            return;
        }
        for parent in node.parents {
            self.explain_into(*parent, depth + 1, out, seen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_net_types::RouterId;

    fn l(r: u32, line: u32) -> LineId {
        LineId::new(RouterId(r), line)
    }

    fn chain() -> (DerivArena, DerivId, DerivId, DerivId) {
        let mut a = DerivArena::new();
        let origin = a.intern(DerivKind::OriginNetwork, vec![l(2, 2)], vec![]);
        let export = a.intern(DerivKind::Export, vec![l(2, 3)], vec![origin]);
        let import = a.intern(DerivKind::Import, vec![l(1, 4)], vec![export]);
        (a, origin, export, import)
    }

    #[test]
    fn coverage_is_closure() {
        let (a, _, _, import) = chain();
        let p = Provenance::new(&a);
        let cov = p.coverage([import]);
        assert_eq!(cov, [l(1, 4), l(2, 2), l(2, 3)].into_iter().collect());
    }

    #[test]
    fn leaves_are_parentless() {
        let (a, origin, _, import) = chain();
        let p = Provenance::new(&a);
        assert_eq!(p.leaves([import]), vec![origin]);
        assert_eq!(p.leaf_lines([import]), [l(2, 2)].into_iter().collect());
        assert_eq!(p.node_count([import]), 3);
    }

    #[test]
    fn multiple_roots_union() {
        let mut a = DerivArena::new();
        let o1 = a.intern(DerivKind::OriginStatic, vec![l(0, 1)], vec![]);
        let o2 = a.intern(DerivKind::FibStatic, vec![l(1, 1)], vec![]);
        let p = Provenance::new(&a);
        assert_eq!(p.leaves([o1, o2]).len(), 2);
        assert_eq!(p.coverage([o1, o2]).len(), 2);
    }

    #[test]
    fn explain_renders_tree() {
        let (a, _, _, import) = chain();
        let p = Provenance::new(&a);
        let text = p.explain(import);
        assert!(text.contains("import [r1:4]"), "{text}");
        assert!(text.contains("  export [r2:3]"), "{text}");
        assert!(text.contains("    originate(network) [r2:2]"), "{text}");
    }

    #[test]
    fn explain_elides_shared_subtrees() {
        let mut a = DerivArena::new();
        let o = a.intern(DerivKind::OriginNetwork, vec![l(0, 1)], vec![]);
        let e1 = a.intern(DerivKind::Export, vec![l(0, 2)], vec![o]);
        let top = a.intern(DerivKind::Import, vec![], vec![o, e1]);
        let p = Provenance::new(&a);
        let text = p.explain(top);
        assert!(text.contains("elided"), "{text}");
    }
}
