//! Local symbolization (§5, Step 2).
//!
//! A template that cannot name a concrete value leaves a **symbolic
//! prefix-set hole**. This module collects the constraints the paper
//! describes — from each test whose coverage touches the hole's *anchor
//! lines*:
//!
//! - a **passing** test contributes `P`: its destination prefix must stay
//!   in the set (the behaviour it certifies must be preserved),
//! - a **failing** test contributes `F`: its destination prefix must
//!   leave the set (the behaviour it indicts must stop),
//!
//! and solves `P ∧ ¬F`. The paper hands this to Z3, but every constraint
//! is a unit `member` / `not member` literal over one set variable, so the
//! solution is set algebra: the required destinations, unless one of them
//! is also forbidden. Destinations no constraint mentions stay out of the
//! set (the least model). In the paper's worked example this yields
//! exactly `var = {10.70/16, 20.0/16}` with `10.0/16 ∉ var`.

use crate::ctx::RepairCtx;
use acr_cfg::LineId;
use acr_net_types::Prefix;
use std::collections::BTreeSet;

/// Solves a prefix-set hole anchored at `anchor_lines`.
///
/// Returns the solved set, or `None` when no test touches the anchor or
/// the constraints conflict (some destination is required by a passing
/// test *and* indicted by a failing one — the template then produces no
/// candidate).
pub fn solve_prefix_set(ctx: &RepairCtx<'_>, anchor_lines: &[LineId]) -> Option<BTreeSet<Prefix>> {
    let mut required = BTreeSet::new();
    let mut forbidden = BTreeSet::new();
    for rec in &ctx.verification.records {
        let Some(cov) = ctx.coverage_of(rec.id) else {
            continue;
        };
        if !anchor_lines.iter().any(|l| cov.contains(l)) {
            continue;
        }
        let Some(dst) = ctx.dst_prefix_of(rec) else {
            continue;
        };
        // Polarity: the paper's worked example is an *over-matching*
        // fault (passed ⇒ keep matching, failed ⇒ stop matching). The
        // dual, *under-matching* class ("missing items in ip
        // prefix-list") is recognized by the anchor being reached through
        // a denial node: there the failing destination must be added.
        let denied = denied_at_anchor(ctx, rec, anchor_lines);
        if rec.passed != denied {
            required.insert(dst);
        } else {
            forbidden.insert(dst);
        }
    }
    if required.is_empty() && forbidden.is_empty() {
        return None; // no test touches the anchor — nothing to solve for
    }
    required.is_disjoint(&forbidden).then_some(required)
}

/// Whether the test's derivations include a policy-denial node whose own
/// lines touch the anchor — the signature of an under-matching fault.
fn denied_at_anchor(
    ctx: &RepairCtx<'_>,
    rec: &acr_verify::TestRecord,
    anchor_lines: &[LineId],
) -> bool {
    use acr_sim::DerivKind;
    let mut seen = BTreeSet::new();
    let mut stack: Vec<_> = rec.deriv_roots.clone();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let node = ctx.arena.node(id);
        if matches!(node.kind, DerivKind::ImportDenied | DerivKind::ExportDenied)
            && node.lines.iter().any(|l| anchor_lines.contains(l))
        {
            return true;
        }
        stack.extend_from_slice(node.parents);
    }
    false
}

/// Like [`solve_prefix_set`] but collects only the *failing* destinations
/// touching the anchor — the set a recreated filter policy must block.
pub fn failing_dsts(ctx: &RepairCtx<'_>, anchor_lines: &[LineId]) -> BTreeSet<Prefix> {
    let mut out = BTreeSet::new();
    for rec in ctx.verification.records.iter().filter(|r| !r.passed) {
        let Some(cov) = ctx.coverage_of(rec.id) else {
            continue;
        };
        if !anchor_lines.iter().any(|l| cov.contains(l)) {
            continue;
        }
        if let Some(dst) = ctx.dst_prefix_of(rec) {
            out.insert(dst);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_sim::CompiledBase;
    use acr_verify::{Verification, Verifier};
    use acr_workloads::fig2::{fig2_incident, Fig2};

    /// Runs `f` on the Figure 2 broken network's repair context, after
    /// `edit` has had its way with the verification.
    fn on_fig2(edit: impl FnOnce(&Fig2, &mut Verification), f: impl FnOnce(&Fig2, &RepairCtx<'_>)) {
        let fig2 = fig2_incident();
        let (mut v, out) = Verifier::new(&fig2.topo, &fig2.spec).run_full(&fig2.broken);
        edit(&fig2, &mut v);
        let compiled = CompiledBase::new(&fig2.topo, &fig2.broken);
        let ctx = RepairCtx {
            topo: &fig2.topo,
            cfg: &fig2.broken,
            verification: &v,
            coverage: &v.matrix,
            arena: &out.arena,
            models: compiled.models(),
        };
        f(&fig2, &ctx);
    }

    /// A's `peer S route-policy Override_All import` line.
    fn a_peer_line(fig2: &Fig2) -> LineId {
        LineId::new(fig2.a, 5)
    }

    fn touches(ctx: &RepairCtx<'_>, rec: &acr_verify::TestRecord, line: LineId) -> bool {
        ctx.coverage_of(rec.id).is_some_and(|c| c.contains(&line))
    }

    #[test]
    fn a_destination_both_required_and_forbidden_is_a_conflict() {
        // Point the failing test touching the anchor at the destination
        // of a passing one: that prefix must now be kept and dropped.
        on_fig2(
            |fig2, v| {
                let cov = |id| v.matrix.tests().iter().find(|t| t.test == id).unwrap();
                let line = a_peer_line(fig2);
                let pass = v
                    .records
                    .iter()
                    .find(|r| r.passed && cov(r.id).lines.contains(&line))
                    .expect("a passing test covers A's peer line")
                    .flow
                    .dst;
                let fail = v.records.iter().position(|r| !r.passed).unwrap();
                assert!(cov(v.records[fail].id).lines.contains(&line));
                v.records[fail].flow.dst = pass;
            },
            |fig2, ctx| assert_eq!(solve_prefix_set(ctx, &[a_peer_line(fig2)]), None),
        );
    }

    #[test]
    fn an_unconstrained_destination_stays_out_of_the_set() {
        on_fig2(
            |_, _| {},
            |fig2, ctx| {
                let line = a_peer_line(fig2);
                let dst = |r| ctx.dst_prefix_of(r).unwrap();
                let recs = &ctx.verification.records;
                let required: BTreeSet<Prefix> = recs
                    .iter()
                    .filter(|r| r.passed && touches(ctx, r, line))
                    .map(dst)
                    .collect();
                let untouched: Vec<Prefix> = recs
                    .iter()
                    .filter(|r| !touches(ctx, r, line))
                    .map(dst)
                    .collect();
                assert!(!untouched.is_empty(), "some test misses the anchor");
                let set = solve_prefix_set(ctx, &[line]).expect("solvable");
                assert_eq!(set, required);
                for p in untouched {
                    assert!(!set.contains(&p), "{p} is constrained by nothing");
                }
            },
        );
    }

    #[test]
    fn a_hole_no_test_touches_has_no_solution() {
        on_fig2(
            |_, _| {},
            |fig2, ctx| {
                let nowhere = LineId::new(fig2.a, 10_000);
                assert_eq!(solve_prefix_set(ctx, &[nowhere]), None);
                assert_eq!(solve_prefix_set(ctx, &[]), None);
            },
        );
    }
}
