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
//! the concrete node's world is always joined in. Of that node's
//! applies, only `apply community` changes the abstract value; the
//! AS-path, LOCAL_PREF and MED applies, and the export hop's prepend
//! and LOCAL_PREF reset, touch attributes the domain does not track,
//! so the transfer is the same on export and import.

use crate::domain::AbstractRoute;
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
/// route for `p`, on export or import alike.
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
    lines: &mut Vec<LineId>,
) -> Option<AbstractRoute> {
    let Some(nodes) = policy.and_then(|name| model.route_policies.get(name)) else {
        // No policy attached, or the attached name is undefined: the
        // simulator permits the route unchanged.
        return Some(input.clone());
    };

    let mut acc: Option<AbstractRoute> = None;
    for node in nodes {
        let state = node_match_state(model, node, p, input);
        if state == MatchState::No {
            continue;
        }
        if node.action == acr_cfg::PlAction::Permit {
            let world = apply_node(node, input, router, lines);
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

/// Applies a permit node's actions abstractly: `apply community` joins
/// the may-set, and every other apply leaves the value as it is. The
/// node, clause and apply lines go to `lines`.
fn apply_node(
    node: &PolicyNode,
    input: &AbstractRoute,
    router: RouterId,
    lines: &mut Vec<LineId>,
) -> AbstractRoute {
    let mut out = input.clone();
    lines.push(LineId::new(router, node.line));
    lines.extend(node.matches.iter().map(|(_, l)| LineId::new(router, *l)));
    for (action, line) in &node.applies {
        lines.push(LineId::new(router, *line));
        if let ApplyAction::Community(c) = action {
            out.communities.insert(*c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_cfg::parse::parse_device;
    use acr_net_types::Community;

    fn model(text: &str) -> DeviceModel {
        DeviceModel::from_config(&parse_device("R", text).unwrap())
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// The may-set `policy` leaves on a route for `prefix` carrying `input`.
    fn eval(
        m: &DeviceModel,
        policy: Option<&str>,
        prefix: &str,
        input: &[&str],
    ) -> Option<Vec<Community>> {
        let mut route = AbstractRoute::origin();
        route.communities = input.iter().map(|c| c.parse().unwrap()).collect();
        let out = abstract_policy(m, RouterId(0), policy, p(prefix), &route, &mut Vec::new())?;
        Some(out.communities.into_iter().collect())
    }

    fn cs(list: &[&str]) -> Vec<Community> {
        list.iter().map(|c| c.parse().unwrap()).collect()
    }

    #[test]
    fn prefix_clause_is_exact_and_first_must_match_stops() {
        let m = model(
            "bgp 65001\n\
             route-policy P permit node 10\n if-match ip-prefix L\n apply community 65000:200\n\
             route-policy P permit node 20\n apply community 65000:300\n\
             ip prefix-list L index 10 permit 10.0.0.0 16\n",
        );
        // 10.0/16 definitely matches node 10 — node 20 is unreachable.
        let out = eval(&m, Some("P"), "10.0.0.0/16", &[]);
        assert_eq!(out, Some(cs(&["65000:200"])));
        // 20.0/16 misses node 10, definitely matches node 20.
        let out = eval(&m, Some("P"), "20.0.0.0/16", &[]);
        assert_eq!(out, Some(cs(&["65000:300"])));
    }

    #[test]
    fn community_clause_joins_both_worlds() {
        let m = model(
            "bgp 65001\n\
             route-policy P permit node 10\n if-match community 65000:1\n apply community 65000:200\n\
             route-policy P permit node 20\n apply community 65000:50\n",
        );
        // Node 10 may match (community maybe present), node 20 must:
        // both worlds joined.
        let out = eval(&m, Some("P"), "10.0.0.0/16", &["65000:1"]);
        assert_eq!(out, Some(cs(&["65000:1", "65000:50", "65000:200"])));
        // Without the community in the may-set, node 10 is definitely
        // skipped.
        let out = eval(&m, Some("P"), "10.0.0.0/16", &[]);
        assert_eq!(out, Some(cs(&["65000:50"])));
    }

    #[test]
    fn deny_only_policy_is_definite_deny() {
        let m = model(
            "bgp 65001\n\
             route-policy D deny node 10\n\
             route-policy O permit node 10\n apply as-path overwrite\n",
        );
        let mut lines = Vec::new();
        let denied = abstract_policy(
            &m,
            RouterId(0),
            Some("D"),
            p("10.0.0.0/16"),
            &AbstractRoute::origin(),
            &mut lines,
        );
        assert!(denied.is_none());
        assert!(lines.is_empty(), "a denial reports no lines: {lines:?}");
        // An untracked apply permits unchanged but reports its lines.
        let permitted = abstract_policy(
            &m,
            RouterId(0),
            Some("O"),
            p("10.0.0.0/16"),
            &AbstractRoute::origin(),
            &mut lines,
        );
        assert_eq!(permitted, Some(AbstractRoute::origin()));
        assert_eq!(lines.len(), 2, "node and apply lines: {lines:?}");
        // No policy permits unchanged.
        assert_eq!(eval(&m, None, "10.0.0.0/16", &[]), Some(vec![]));
    }
}
