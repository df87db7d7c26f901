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
//! and solves `P ∧ ¬F` with `acr-smt`. In the paper's worked example this
//! yields exactly `var = {10.70/16, 20.0/16}` with `10.0/16 ∉ var`.

use crate::ctx::RepairCtx;
use acr_cfg::LineId;
use acr_net_types::Prefix;
use acr_smt::{Formula, Solver};
use std::collections::BTreeSet;

/// Solves a prefix-set hole anchored at `anchor_lines`.
///
/// Returns the solved set, or `None` when the constraints conflict (some
/// destination is required by a passing test *and* indicted by a failing
/// one — the template then produces no candidate).
pub fn solve_prefix_set(ctx: &RepairCtx<'_>, anchor_lines: &[LineId]) -> Option<BTreeSet<Prefix>> {
    let universe = ctx.test_dst_prefixes();
    let mut solver = Solver::new();
    let var = solver.new_prefix_set(universe.iter().copied());

    let mut constrained = false;
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
        constrained = true;
        // Polarity: the paper's worked example is an *over-matching*
        // fault (passed ⇒ keep matching, failed ⇒ stop matching). The
        // dual, *under-matching* class ("missing items in ip
        // prefix-list") is recognized by the anchor being reached through
        // a denial node: there the failing destination must be added.
        let denied = denied_at_anchor(ctx, rec, anchor_lines);
        let member_required = rec.passed != denied;
        if member_required {
            solver.assert(Formula::member(var, dst));
        } else {
            solver.assert(Formula::not(Formula::member(var, dst)));
        }
    }
    if !constrained {
        return None; // no test touches the anchor — nothing to solve for
    }
    let model = solver.solve()?;
    Some(model.sets[&var].clone())
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
        stack.extend_from_slice(&node.parents);
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
