//! Reference hygiene: undefined references, unused definitions,
//! misplaced block sub-statements and repeated `bgp` processes. All
//! checks are per-device and work on the raw statement stream (exact
//! lines) cross-checked against the semantic model (resolved name
//! tables).

use crate::ctx::{Ctx, DiagExt};
use crate::diag::{Diagnostic, Rule};
use acr_cfg::ast::Stmt;
use std::collections::{BTreeMap, BTreeSet};

pub(crate) fn run(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    for (id, device, model) in ctx.devices() {
        // ---- definition and use tables (first line wins) ------------
        let mut policy_defs: BTreeMap<&str, u32> = BTreeMap::new();
        let mut list_defs: BTreeMap<&str, u32> = BTreeMap::new();
        let mut group_defs: BTreeMap<&str, u32> = BTreeMap::new();
        let mut acl_defs: BTreeMap<u32, u32> = BTreeMap::new();
        let mut pbr_defs: BTreeMap<&str, u32> = BTreeMap::new();
        let mut policy_uses: BTreeSet<&str> = BTreeSet::new();
        let mut list_uses: BTreeSet<&str> = BTreeSet::new();
        let mut group_uses: BTreeSet<&str> = BTreeSet::new();
        let mut acl_uses: BTreeSet<u32> = BTreeSet::new();
        let mut pbr_uses: BTreeSet<&str> = BTreeSet::new();
        // First referencing line of each dangling name (dedup: one
        // diagnostic per name, however often it is referenced).
        let mut dangling: BTreeMap<(Rule, String), u32> = BTreeMap::new();
        // The first `bgp <asn>` line and its ASN.
        let mut first_bgp = None;

        for (line, stmt) in device.lines() {
            match stmt {
                Stmt::BgpProcess(asn) => match first_bgp {
                    None => first_bgp = Some((line, asn.0)),
                    // Not inert: the model takes the last line's ASN, so
                    // this is a warning the candidate gate never vetoes.
                    Some((first, first_asn)) => out.push(
                        ctx.diag(
                            Rule::DuplicateBgpProcess,
                            id,
                            (line, line),
                            format!(
                                "a second BGP process `bgp {}` replaces `bgp {first_asn}`",
                                asn.0
                            ),
                        )
                        .with_related(
                            ctx,
                            id,
                            first,
                            "the device's first BGP process",
                        ),
                    ),
                },
                Stmt::RoutePolicyDef { name, .. } => {
                    policy_defs.entry(name).or_insert(line);
                }
                Stmt::PrefixListEntry { list, .. } => {
                    list_defs.entry(list).or_insert(line);
                }
                Stmt::GroupDef(name) => {
                    group_defs.entry(name).or_insert(line);
                }
                Stmt::AclDef(n) => {
                    acl_defs.entry(*n).or_insert(line);
                }
                Stmt::PbrPolicyDef(name) => {
                    pbr_defs.entry(name).or_insert(line);
                }
                Stmt::PeerPolicy { policy, .. } => {
                    policy_uses.insert(policy);
                    if !model.route_policies.contains_key(policy) {
                        dangling
                            .entry((
                                Rule::UndefinedRoutePolicy,
                                format!("route-policy `{policy}` is applied but never defined"),
                            ))
                            .or_insert(line);
                    }
                }
                Stmt::IfMatchPrefixList(list) => {
                    list_uses.insert(list);
                    if !model.prefix_lists.contains_key(list) {
                        dangling
                            .entry((
                                Rule::UndefinedPrefixList,
                                format!("prefix-list `{list}` is matched but has no entries"),
                            ))
                            .or_insert(line);
                    }
                }
                Stmt::PeerGroup { group, .. } => {
                    group_uses.insert(group);
                    let defined = model
                        .groups
                        .get(group)
                        .is_some_and(|g| g.def_line.is_some());
                    if !defined {
                        dangling
                            .entry((
                                Rule::UndefinedPeerGroup,
                                format!("peer group `{group}` is joined but never defined"),
                            ))
                            .or_insert(line);
                    }
                }
                Stmt::PbrRule { acl, .. } => {
                    acl_uses.insert(*acl);
                    match model.acls.get(acl) {
                        None => {
                            dangling
                                .entry((
                                    Rule::UndefinedAcl,
                                    format!("traffic-policy rule matches undefined acl {acl}"),
                                ))
                                .or_insert(line);
                        }
                        Some(entries) if entries.is_empty() => {
                            dangling
                                .entry((
                                    Rule::UndefinedAcl,
                                    format!(
                                        "traffic-policy rule matches acl {acl}, which has no rules"
                                    ),
                                ))
                                .or_insert(line);
                        }
                        Some(_) => {}
                    }
                }
                Stmt::ApplyTrafficPolicy(name) => {
                    pbr_uses.insert(name);
                    if !model.pbr_policies.contains_key(name) {
                        dangling
                            .entry((
                                Rule::UndefinedTrafficPolicy,
                                format!("applied traffic-policy `{name}` is never defined"),
                            ))
                            .or_insert(line);
                    }
                }
                _ => {}
            }
        }

        for ((rule, message), line) in dangling {
            out.push(ctx.diag(rule, id, (line, line), message));
        }

        // ---- unused definitions --------------------------------------
        let unused = |out: &mut Vec<Diagnostic>, kind: &str, name: &str, line: u32| {
            out.push(ctx.diag(
                Rule::UnusedDefinition,
                id,
                (line, line),
                format!("{kind} `{name}` is defined but never used"),
            ));
        };
        for (name, line) in &policy_defs {
            if !policy_uses.contains(name) {
                unused(out, "route-policy", name, *line);
            }
        }
        for (name, line) in &list_defs {
            if !list_uses.contains(name) {
                unused(out, "prefix-list", name, *line);
            }
        }
        for (name, line) in &group_defs {
            if !group_uses.contains(name) {
                unused(out, "peer group", name, *line);
            }
        }
        for (n, line) in &acl_defs {
            if !acl_uses.contains(n) {
                unused(out, "acl", &n.to_string(), *line);
            }
        }
        for (name, line) in &pbr_defs {
            if !pbr_uses.contains(name) {
                unused(out, "traffic-policy", name, *line);
            }
        }

        // ---- misplaced sub-statements --------------------------------
        let blocks = device.block_map();
        for (i, stmt) in device.stmts().iter().enumerate() {
            if let Some(required) = stmt.required_block() {
                if blocks.get(i).copied().flatten() != Some(required) {
                    out.push(ctx.diag(
                        Rule::MisplacedStatement,
                        id,
                        (i as u32 + 1, i as u32 + 1),
                        format!("`{stmt}` appears outside a {required:?} block"),
                    ));
                }
            }
        }
    }
}
