//! Universal change operators (the paper's §6 direction).
//!
//! The curated templates in [`crate::templates`] encode ByteDance-style
//! historical repair patterns. §6 asks whether a *universal* syntactic
//! operator set — one that generalizes to networks whose incident history
//! we have never seen — can work instead. This module implements the
//! plastic-surgery rendition: **donor copying**. Devices with the same
//! role carry near-identical configurations, so statements present on
//! sibling devices but absent here are repair candidates:
//!
//! - whole **route-policy blocks** referenced locally but undefined (the
//!   donor defines a policy of the same name),
//! - whole **peer-group scaffolds** (`group` + `peer <g> as-number` +
//!   `peer <g> route-policy … import`) when a membership references an
//!   undefined group that a donor defines,
//! - device-neutral single statements (`import-route static`) present on
//!   a sibling of the same role,
//! - the generic deletion operator.
//!
//! Copying is restricted to statements whose parameters are *device
//! neutral* (names, protocols) or locally re-anchored (prefix-list
//! entries come with the donor's block, which downstream symbolization
//! can still adjust); address-bearing statements are never copied — the
//! conflict the paper warns about ("the same IP addresses are allocated
//! on multiple interfaces").

use crate::ctx::RepairCtx;
use acr_cfg::{Edit, LineId, Patch, PeerRef, Proto, Stmt};
use acr_net_types::RouterId;
use acr_topo::Role;
use std::collections::BTreeSet;

/// Generates donor-based candidates for a suspicious line, plus the
/// generic delete.
pub fn universal_candidates(line: LineId, ctx: &RepairCtx<'_>) -> Vec<Patch> {
    let mut out = Vec::new();
    out.extend(copy_missing_policy(line, ctx));
    out.extend(copy_missing_group(line, ctx));
    out.extend(copy_neutral_statement(line, ctx));
    if let Some(stmt) = ctx.stmt(line) {
        if !stmt.is_header() {
            out.push(Patch::single(Edit::Delete {
                router: line.router,
                index: line.index(),
            }));
        }
    }
    out
}

/// Devices sharing the suspicious device's role, donor candidates first
/// by router id.
fn siblings(ctx: &RepairCtx<'_>, router: RouterId) -> Vec<RouterId> {
    let role: Role = ctx.topo.router(router).role;
    ctx.topo
        .routers()
        .iter()
        .filter(|r| r.id != router && r.role == role)
        .map(|r| r.id)
        .collect()
}

/// If this device references a route policy it does not define, copy the
/// full policy block (and the prefix lists it matches) from a sibling
/// that defines one with the same name.
fn copy_missing_policy(line: LineId, ctx: &RepairCtx<'_>) -> Vec<Patch> {
    let router = line.router;
    let model = ctx.model(router);
    // Policies referenced on this device…
    let referenced: BTreeSet<&String> = model
        .peers
        .values()
        .flat_map(|p| {
            p.import_policy
                .iter()
                .chain(p.export_policy.iter())
                .map(|(n, _)| n)
        })
        .collect();
    let mut out = Vec::new();
    for name in referenced {
        if model.route_policies.contains_key(name) {
            continue; // defined locally
        }
        for donor in siblings(ctx, router) {
            let donor_model = ctx.model(donor);
            let Some(_) = donor_model.route_policies.get(name) else {
                continue;
            };
            let Some(donor_cfg) = ctx.cfg.device(donor) else {
                continue;
            };
            let Some(device) = ctx.cfg.device(router) else {
                continue;
            };
            let mut patch = Patch::new();
            let mut at = device.len();
            // Copy the policy blocks and, behind them, the entries of the
            // prefix lists the policy matches on.
            let mut lists: BTreeSet<String> = BTreeSet::new();
            let mut in_block = false;
            for stmt in donor_cfg.stmts() {
                match stmt {
                    Stmt::RoutePolicyDef { name: n, .. } if n == name => {
                        in_block = true;
                        patch.push(Edit::Insert {
                            router,
                            index: at,
                            stmt: stmt.clone(),
                        });
                        at += 1;
                    }
                    s if in_block
                        && s.required_block() == Some(acr_cfg::ast::BlockKind::RoutePolicy) =>
                    {
                        if let Stmt::IfMatchPrefixList(list) = s {
                            lists.insert(list.clone());
                        }
                        patch.push(Edit::Insert {
                            router,
                            index: at,
                            stmt: s.clone(),
                        });
                        at += 1;
                    }
                    _ => in_block = false,
                }
            }
            for stmt in donor_cfg.stmts() {
                if let Stmt::PrefixListEntry { list, .. } = stmt {
                    if lists.contains(list) && !model.prefix_lists.contains_key(list) {
                        patch.push(Edit::Insert {
                            router,
                            index: at,
                            stmt: stmt.clone(),
                        });
                        at += 1;
                    }
                }
            }
            if !patch.is_empty() {
                out.push(patch);
                break; // one donor suffices per policy name
            }
        }
    }
    out
}

/// If a membership line references an undefined group, copy the donor's
/// group scaffold (`group`, `peer <g> as-number`, `peer <g> route-policy`).
fn copy_missing_group(line: LineId, ctx: &RepairCtx<'_>) -> Vec<Patch> {
    let Some(Stmt::PeerGroup { group, .. }) = ctx.stmt(line) else {
        return Vec::new();
    };
    let router = line.router;
    let model = ctx.model(router);
    if model
        .groups
        .get(group)
        .map(|g| g.asn.is_some())
        .unwrap_or(false)
    {
        return Vec::new();
    }
    let Some(at) = model.asn.map(|(_, l)| l as usize) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for donor in siblings(ctx, router) {
        let Some(donor_cfg) = ctx.cfg.device(donor) else {
            continue;
        };
        let mut patch = Patch::new();
        let mut offset = 0usize;
        for stmt in donor_cfg.stmts() {
            let copy = match stmt {
                Stmt::GroupDef(g) => g == group,
                Stmt::PeerAs {
                    peer: PeerRef::Group(g),
                    ..
                } => g == group,
                Stmt::PeerPolicy {
                    peer: PeerRef::Group(g),
                    ..
                } => g == group,
                _ => false,
            };
            if copy {
                patch.push(Edit::Insert {
                    router,
                    index: at + offset,
                    stmt: stmt.clone(),
                });
                offset += 1;
            }
        }
        if !patch.is_empty() {
            out.push(patch);
            break;
        }
    }
    out
}

/// Copies device-neutral single statements a same-role sibling has and we
/// lack (currently `import-route <proto>`, which needs no re-anchoring).
fn copy_neutral_statement(line: LineId, ctx: &RepairCtx<'_>) -> Vec<Patch> {
    let router = line.router;
    let model = ctx.model(router);
    let Some(at) = model.asn.map(|(_, l)| l as usize) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut proposed: BTreeSet<Proto> = BTreeSet::new();
    for donor in siblings(ctx, router) {
        let donor_model = ctx.model(donor);
        for (proto, _) in &donor_model.redistribute {
            let already = model.redistribute.iter().any(|(p, _)| p == proto);
            if !already && proposed.insert(*proto) {
                out.push(Patch::single(Edit::Insert {
                    router,
                    index: at,
                    stmt: Stmt::ImportRoute(*proto),
                }));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_sim::CompiledBase;
    use acr_verify::{Spec, Verifier};
    use acr_workloads::{generate, try_inject, FaultType};

    fn ctx_for<'a>(
        net: &'a acr_workloads::GeneratedNetwork,
        broken: &'a acr_cfg::NetworkConfig,
        v: &'a acr_verify::Verification,
        out: &'a acr_sim::SimOutcome,
        compiled: &'a CompiledBase,
    ) -> RepairCtx<'a> {
        RepairCtx {
            topo: &net.topo,
            cfg: broken,
            verification: v,
            coverage: &v.matrix,
            arena: &out.arena,
            models: compiled.models(),
        }
    }

    #[test]
    fn donor_copy_restores_missing_policy() {
        // Delete BB2's Override_Cust body; BB0/BB1/BB3 are same-role
        // donors that still define it.
        let net = generate(&acr_topo::gen::wan(4, 8));
        let inc = try_inject(FaultType::MissingRoutePolicy, &net, 2).expect("injectable");
        let verifier = Verifier::new(&net.topo, &net.spec);
        let (v, out) = verifier.run_full(&inc.broken);
        let compiled = CompiledBase::new(&net.topo, &inc.broken);
        let ctx = ctx_for(&net, &inc.broken, &v, &out, &compiled);
        // Fire from the dangling application line.
        let line = inc
            .broken
            .all_lines()
            .find(|l| {
                matches!(inc.broken.stmt(*l), Some(Stmt::PeerPolicy { .. })
                if l.router == inc.patch.routers()[0])
            })
            .expect("application line survives");
        let candidates = universal_candidates(line, &ctx);
        // Some donor-copy candidate recreates a policy block.
        let policy_copies: Vec<_> = candidates
            .iter()
            .filter(|p| {
                p.edits.iter().any(|e| {
                    matches!(
                        e,
                        Edit::Insert {
                            stmt: Stmt::RoutePolicyDef { .. },
                            ..
                        }
                    )
                })
            })
            .collect();
        assert!(!policy_copies.is_empty(), "{candidates:?}");
        // NOTE: the donor's prefix-list entries name the *donor's*
        // customers — the copy may or may not verify clean; what matters
        // is that the candidate exists and is parseable.
        for patch in policy_copies {
            let patched = patch.apply_cloned(&inc.broken).unwrap();
            let d = patched.device(line.router).unwrap();
            assert!(acr_cfg::parse::parse_device(d.name(), &d.to_text()).is_ok());
        }
    }

    #[test]
    fn donor_copy_restores_missing_group_scaffold() {
        let net = generate(&acr_topo::gen::wan(4, 8));
        let inc = try_inject(FaultType::MissingPeerGroup, &net, 0).expect("injectable");
        let verifier = Verifier::new(&net.topo, &net.spec);
        let (v, out) = verifier.run_full(&inc.broken);
        let compiled = CompiledBase::new(&net.topo, &inc.broken);
        let ctx = ctx_for(&net, &inc.broken, &v, &out, &compiled);
        let line = inc
            .broken
            .all_lines()
            .find(|l| {
                matches!(inc.broken.stmt(*l), Some(Stmt::PeerGroup { .. })
                if l.router == inc.patch.routers()[0])
            })
            .expect("membership line survives");
        let candidates = universal_candidates(line, &ctx);
        let scaffold = candidates.iter().find(|p| {
            p.edits.iter().any(|e| {
                matches!(
                    e,
                    Edit::Insert {
                        stmt: Stmt::GroupDef(_),
                        ..
                    }
                )
            })
        });
        let scaffold = scaffold.expect("a donor must supply the group scaffold");
        // The scaffold alone brings the group's sessions (and policy) back.
        let repaired = scaffold.apply_cloned(&inc.broken).unwrap();
        let (v2, _) = verifier.run_full(&repaired);
        assert!(
            v2.failed_count() < v.failed_count(),
            "scaffold copy must reduce violations: {} -> {}",
            v.failed_count(),
            v2.failed_count()
        );
    }

    #[test]
    fn neutral_statement_copy_proposes_redistribution() {
        let net = generate(&acr_topo::gen::wan(4, 8));
        let inc = try_inject(FaultType::MissingRedistribution, &net, 1).expect("injectable");
        let verifier = Verifier::new(&net.topo, &net.spec);
        let (v, out) = verifier.run_full(&inc.broken);
        let compiled = CompiledBase::new(&net.topo, &inc.broken);
        let ctx = ctx_for(&net, &inc.broken, &v, &out, &compiled);
        let sick = inc.patch.routers()[0];
        let line = LineId::new(sick, 1); // the bgp header
        let candidates = universal_candidates(line, &ctx);
        assert!(
            candidates.iter().any(|p| p.edits.iter().any(|e| matches!(
                e,
                Edit::Insert {
                    stmt: Stmt::ImportRoute(Proto::Static),
                    ..
                }
            ))),
            "a same-role sibling redistributes static: {candidates:?}"
        );
    }

    #[test]
    fn no_siblings_means_no_donors() {
        // A lone-role topology has nothing to copy from.
        let mut b = acr_topo::TopologyBuilder::new();
        let a = b.router("A", acr_topo::Role::Backbone);
        let c = b.router("C", acr_topo::Role::PoP);
        b.link(a, c);
        let topo = b.build();
        let net = generate(&topo);
        let empty_spec = Spec::new();
        let verifier = Verifier::new(&net.topo, &empty_spec);
        let (v, out) = verifier.run_full(&net.cfg);
        let compiled = CompiledBase::new(&net.topo, &net.cfg);
        let ctx = RepairCtx {
            topo: &net.topo,
            cfg: &net.cfg,
            verification: &v,
            coverage: &v.matrix,
            arena: &out.arena,
            models: compiled.models(),
        };
        let line = LineId::new(a, 1);
        // Only the delete fallback may be absent too (bgp is a header);
        // donor operators must not fire.
        let candidates = universal_candidates(line, &ctx);
        assert!(candidates.is_empty(), "{candidates:?}");
    }
}
