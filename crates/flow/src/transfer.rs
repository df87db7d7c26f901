//! Abstract transfer functions: route-policy evaluation over
//! [`AbstractRoute`]s.
//!
//! The compiled per-device summaries are the [`DeviceModel`]s themselves
//! (policies resolved by name, prefix lists collected, peer-group
//! inheritance applied); this module interprets one policy application
//! abstractly, mirroring `acr_sim::policy::eval_policy`:
//!
//! - nodes are scanned in ascending node order;
//! - a prefix-list clause is **exact** given the concrete prefix under
//!   analysis (the entry match `prefix covers p && ge <= len(p) <= le`
//!   does not depend on abstract state), so it answers yes/no;
//! - a community clause *may* match iff the community is in the route's
//!   may-set — and **definitely doesn't** iff it is outside (may-sets
//!   over-approximate, so absence is definite);
//! - the first node whose every clause definitely matches ends the scan
//!   (later nodes are concretely unreachable for this prefix); nodes
//!   that may match contribute their outcome as one possible world;
//! - the result is the join over every may-permitting world; `None`
//!   means the route is **definitely denied** — the definite negative
//!   the `unimportable-route` lint builds on.
//!
//! Soundness: every concrete evaluation picks the first node whose
//! clauses all match. That node is `No` for the abstract scan only if a
//! clause definitely fails — impossible when the concrete clause
//! matched (exact prefix clauses agree; a concretely present community
//! is in the may-set by the RIB invariant). The scan cannot have
//! stopped earlier at a `Must` node, because a definitely-matching node
//! also matches concretely and would have been the concrete pick. So
//! the concrete node's world is always joined in.

use crate::domain::{AbstractRoute, Interval};
use acr_cfg::model::{ApplyAction, MatchCond, PolicyNode};
use acr_cfg::{DeviceModel, LineId};
use acr_net_types::{Prefix, RouterId};

/// How a policy node relates to the abstract route under analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MatchState {
    /// Some clause definitely fails.
    No,
    /// Every clause may hold, at least one only maybe.
    May,
    /// Every clause definitely holds.
    Must,
}

/// One abstract policy application: `policy` of `model` applied to a
/// route for `p`. `export_hop` selects export semantics (the sender
/// prepends its own ASN unless the matched node overwrote the path, and
/// LOCAL_PREF resets to the default — mirroring `acr_sim::bgp::export`).
///
/// Returns `None` iff the route is definitely denied. An absent or
/// undefined policy permits unchanged, like the simulator.
///
/// `lines` receives the node, clause and apply lines of every permitting
/// world — the derivation lines of this application (none when the
/// result is `None`). They are monotone in `input`: a community joining
/// the may-set can only turn a node from definitely skipped into may
/// match, so an evaluation at a larger input reports a superset.
pub fn abstract_policy(
    model: &DeviceModel,
    router: RouterId,
    policy: Option<&str>,
    p: Prefix,
    input: &AbstractRoute,
    export_hop: bool,
    lines: &mut Vec<LineId>,
) -> Option<AbstractRoute> {
    let hop = |mut r: AbstractRoute, overwrote: bool| {
        if export_hop {
            if !overwrote {
                r.path_len = r.path_len.add(1);
            }
            r.local_pref = Interval::point(acr_sim::route::DEFAULT_LOCAL_PREF);
        }
        r
    };
    let Some(nodes) = policy.and_then(|name| model.route_policies.get(name)) else {
        // No policy attached, or the attached name is undefined: the
        // simulator permits the route unchanged.
        return Some(hop(input.clone(), false));
    };

    let mut acc: Option<AbstractRoute> = None;
    for node in nodes {
        let state = node_match_state(model, node, p, input);
        if state == MatchState::No {
            continue;
        }
        if node.action == acr_cfg::PlAction::Permit {
            let (route, overwrote) = apply_node(node, input, router, lines);
            let world = hop(route, overwrote);
            match &mut acc {
                Some(a) => {
                    a.join_from(&world);
                }
                None => acc = Some(world),
            }
        }
        if state == MatchState::Must {
            // Concretely, evaluation stops at the first definite match;
            // later nodes are unreachable for this prefix.
            break;
        }
    }
    acc
}

/// Clause conjunction for one node.
fn node_match_state(
    model: &DeviceModel,
    node: &PolicyNode,
    p: Prefix,
    input: &AbstractRoute,
) -> MatchState {
    let mut state = MatchState::Must;
    for (cond, _) in &node.matches {
        match cond {
            MatchCond::PrefixList(list) => {
                // Exact given the concrete prefix: Some(true) is the only
                // satisfied shape (undefined lists never match).
                if !matches!(model.eval_prefix_list(list, p), Some((true, _))) {
                    return MatchState::No;
                }
            }
            MatchCond::Community(c) => {
                if input.communities.contains(c) {
                    // Present in the may-set: may match, never must.
                    state = MatchState::May;
                } else {
                    // Outside the may-set: definitely absent.
                    return MatchState::No;
                }
            }
        }
    }
    state
}

/// Applies a permit node's actions abstractly (in statement order, like
/// the simulator). Returns the transformed route and whether the node
/// overwrote the AS path; the node, clause and apply lines go to `lines`.
fn apply_node(
    node: &PolicyNode,
    input: &AbstractRoute,
    router: RouterId,
    lines: &mut Vec<LineId>,
) -> (AbstractRoute, bool) {
    let mut out = input.clone();
    lines.push(LineId::new(router, node.line));
    lines.extend(node.matches.iter().map(|(_, l)| LineId::new(router, *l)));
    let mut overwrote = false;
    for (action, line) in &node.applies {
        lines.push(LineId::new(router, *line));
        match action {
            ApplyAction::AsPathOverwrite(_) => {
                out.path_len = Interval::point(1);
                overwrote = true;
            }
            ApplyAction::AsPathPrepend { count, .. } => {
                out.path_len = out.path_len.add(*count);
            }
            ApplyAction::LocalPref(v) => {
                out.local_pref = Interval::point(*v);
            }
            ApplyAction::Med(_) => {} // MED is not tracked by the domain
            ApplyAction::Community(c) => {
                out.communities.insert(*c);
            }
        }
    }
    (out, overwrote)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_cfg::parse::parse_device;

    fn model(text: &str) -> DeviceModel {
        DeviceModel::from_config(&parse_device("R", text).unwrap())
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn prefix_clause_is_exact_and_first_must_match_stops() {
        let m = model(
            "bgp 65001\n\
             route-policy P permit node 10\n if-match ip-prefix L\n apply local-preference 200\n\
             route-policy P permit node 20\n apply local-preference 300\n\
             ip prefix-list L index 10 permit 10.0.0.0 16\n",
        );
        let input = AbstractRoute::origin();
        // 10.0/16 definitely matches node 10 — node 20 is unreachable.
        let out = abstract_policy(
            &m,
            RouterId(0),
            Some("P"),
            p("10.0.0.0/16"),
            &input,
            false,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(out.local_pref, Interval::point(200));
        // 20.0/16 misses node 10, definitely matches node 20.
        let out = abstract_policy(
            &m,
            RouterId(0),
            Some("P"),
            p("20.0.0.0/16"),
            &input,
            false,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(out.local_pref, Interval::point(300));
    }

    #[test]
    fn community_clause_joins_both_worlds() {
        let m = model(
            "bgp 65001\n\
             route-policy P permit node 10\n if-match community 65000:1\n apply local-preference 200\n\
             route-policy P permit node 20\n apply local-preference 50\n",
        );
        let mut input = AbstractRoute::origin();
        input.communities.insert("65000:1".parse().unwrap());
        let out = abstract_policy(
            &m,
            RouterId(0),
            Some("P"),
            p("10.0.0.0/16"),
            &input,
            false,
            &mut Vec::new(),
        )
        .unwrap();
        // Node 10 may match (community maybe present), node 20 must:
        // both worlds joined.
        assert_eq!(out.local_pref, Interval::new(50, 200));
        // Without the community in the may-set, node 10 is definitely
        // skipped.
        let input = AbstractRoute::origin();
        let out = abstract_policy(
            &m,
            RouterId(0),
            Some("P"),
            p("10.0.0.0/16"),
            &input,
            false,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(out.local_pref, Interval::point(50));
    }

    #[test]
    fn deny_only_policy_is_definite_deny_and_export_hop_prepends() {
        let m = model(
            "bgp 65001\n\
             route-policy D deny node 10\n\
             route-policy O permit node 10\n apply as-path overwrite\n",
        );
        let input = AbstractRoute::origin();
        assert!(abstract_policy(
            &m,
            RouterId(0),
            Some("D"),
            p("10.0.0.0/16"),
            &input,
            true,
            &mut Vec::new()
        )
        .is_none());
        // Overwrite pins the exported length to 1 (no prepend applied).
        let out = abstract_policy(
            &m,
            RouterId(0),
            Some("O"),
            p("10.0.0.0/16"),
            &input,
            true,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(out.path_len, Interval::point(1));
        // No policy: the export hop prepends one hop.
        let out = abstract_policy(
            &m,
            RouterId(0),
            None,
            p("10.0.0.0/16"),
            &input,
            true,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(out.path_len, Interval::point(1));
        assert_eq!(
            out.local_pref,
            Interval::point(acr_sim::route::DEFAULT_LOCAL_PREF)
        );
    }
}
