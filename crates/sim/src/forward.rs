//! Data-plane forwarding walk.
//!
//! Injects a concrete [`Flow`] at a router and follows FIB decisions hop
//! by hop, applying PBR where a traffic policy is active. FIB decisions
//! come from a [`FibView`] toward the flow's destination: base FIBs plus
//! the covering prefixes' converged bests, never a materialized BGP
//! table. The walk records every derivation it consulted, so a
//! verification test's *coverage* is exactly the configuration lines its
//! packet's fate depended on.

use crate::deriv::{DerivArena, DerivId, DerivKind};
use crate::fib::{resolve_next_hop, FibAction, FibView};
use acr_cfg::model::DeviceModel;
use acr_cfg::{LineId, PbrAction};
use acr_net_types::{Flow, RouterId};
use acr_topo::Topology;
use std::borrow::Borrow;
use std::fmt;

/// Why a packet stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardOutcome {
    /// Reached the router owning the destination.
    Delivered(RouterId),
    /// Dropped by a NULL0 route at the router.
    DroppedNull0(RouterId),
    /// Dropped by a PBR deny rule at the router.
    DroppedPbr(RouterId),
    /// A PBR redirect pointed at an unusable next hop.
    DroppedBadRedirect(RouterId),
    /// No FIB entry matched (blackhole).
    NoRoute(RouterId),
    /// The packet revisited a router.
    Loop(Vec<RouterId>),
}

impl ForwardOutcome {
    /// Whether the packet reached a destination.
    pub fn is_delivered(&self) -> bool {
        matches!(self, ForwardOutcome::Delivered(_))
    }
}

impl fmt::Display for ForwardOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForwardOutcome::Delivered(r) => write!(f, "delivered at {r}"),
            ForwardOutcome::DroppedNull0(r) => write!(f, "dropped (NULL0) at {r}"),
            ForwardOutcome::DroppedPbr(r) => write!(f, "dropped (PBR deny) at {r}"),
            ForwardOutcome::DroppedBadRedirect(r) => write!(f, "dropped (bad PBR redirect) at {r}"),
            ForwardOutcome::NoRoute(r) => write!(f, "no route at {r}"),
            ForwardOutcome::Loop(cycle) => {
                write!(f, "forwarding loop:")?;
                for r in cycle {
                    write!(f, " {r}")?;
                }
                Ok(())
            }
        }
    }
}

/// The full trace of one forwarding walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardResult {
    /// Routers visited in order (first = injection point).
    pub path: Vec<RouterId>,
    pub outcome: ForwardOutcome,
    /// Derivation roots consulted along the way (FIB entries, PBR rules).
    pub derivs: Vec<DerivId>,
}

/// Walks `flow` from `start` across the network.
///
/// `models` are indexed by `RouterId::index()`; `fibs` is the view toward
/// `flow.dst`, and `deliver_at` is `topo.delivery_router(flow.dst)`,
/// which the caller computes once per destination. PBR lookups intern
/// their derivations into `arena` on the fly (they depend on the concrete
/// flow, so they cannot be precomputed with the FIB).
///
/// The revisit check is the walk's only loop rule. Every turn either
/// pushes a router not yet on the path or returns, so a walk ends within
/// `topo.len() + 1` hops however long a loop-free path is.
pub fn walk<M: Borrow<DeviceModel>>(
    topo: &Topology,
    models: &[M],
    fibs: FibView<'_>,
    deliver_at: Option<RouterId>,
    start: RouterId,
    flow: &Flow,
    arena: &mut DerivArena,
) -> ForwardResult {
    let mut path = Vec::new();
    let mut derivs = Vec::new();
    let mut current = start;
    // The router owning `flow.dst` as an interface address, if any.
    let owner = topo.owner_of(flow.dst);
    loop {
        if path.contains(&current) {
            path.push(current);
            return ForwardResult {
                path: path.clone(),
                outcome: ForwardOutcome::Loop(path),
                derivs,
            };
        }
        path.push(current);
        let model = models[current.index()].borrow();

        // Delivery check: the destination is attached here (or is one of
        // our own interface addresses).
        if deliver_at == Some(current) || owner == Some(current) {
            return ForwardResult {
                path,
                outcome: ForwardOutcome::Delivered(current),
                derivs,
            };
        }

        // PBR, if a traffic policy is applied on this device.
        if let Some((policy_name, apply_line)) = &model.pbr_applied {
            if let Some(rules) = model.pbr_policies.get(policy_name) {
                let mut matched = false;
                for rule in rules {
                    let Some(acl) = model.acls.get(&rule.acl) else {
                        continue;
                    };
                    let Some(acl_entry) = acl.iter().find(|e| e.matches(flow)) else {
                        continue;
                    };
                    if acl_entry.rule.action != acr_cfg::PlAction::Permit {
                        // A deny ACL entry means "this rule does not
                        // classify the flow"; continue with the next rule.
                        continue;
                    }
                    let lines = vec![
                        LineId::new(current, *apply_line),
                        LineId::new(current, rule.line),
                        LineId::new(current, acl_entry.line),
                    ];
                    derivs.push(arena.intern(DerivKind::Pbr, lines, vec![]));
                    match rule.action {
                        PbrAction::Permit => {} // fall through to FIB
                        PbrAction::Deny => {
                            return ForwardResult {
                                path,
                                outcome: ForwardOutcome::DroppedPbr(current),
                                derivs,
                            };
                        }
                        PbrAction::Redirect(nh) => match resolve_next_hop(topo, current, nh) {
                            Some(FibAction::Forward { router, .. }) => {
                                current = router;
                            }
                            Some(FibAction::Deliver) => {
                                return ForwardResult {
                                    path,
                                    outcome: ForwardOutcome::Delivered(current),
                                    derivs,
                                };
                            }
                            _ => {
                                return ForwardResult {
                                    path,
                                    outcome: ForwardOutcome::DroppedBadRedirect(current),
                                    derivs,
                                };
                            }
                        },
                    }
                    matched = true;
                    break;
                }
                if matched && path.last() != Some(&current) {
                    // Redirect moved us to a new router; restart the loop
                    // body there.
                    continue;
                }
                if matched && path.last() == Some(&current) {
                    // Permit fell through: continue to FIB below.
                }
            }
        }

        // FIB lookup.
        match fibs.lookup(current, flow.dst) {
            None => {
                return ForwardResult {
                    path,
                    outcome: ForwardOutcome::NoRoute(current),
                    derivs,
                };
            }
            Some((_, entry)) => {
                derivs.push(entry.deriv);
                match entry.action {
                    FibAction::Deliver => {
                        return ForwardResult {
                            path,
                            outcome: ForwardOutcome::Delivered(current),
                            derivs,
                        };
                    }
                    FibAction::Drop => {
                        return ForwardResult {
                            path,
                            outcome: ForwardOutcome::DroppedNull0(current),
                            derivs,
                        };
                    }
                    FibAction::Forward { router, .. } => {
                        current = router;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::{base_fib, Fib};
    use acr_cfg::parse::parse_device;
    use acr_net_types::{Ipv4Addr, Prefix};
    use acr_topo::{Role, Topology, TopologyBuilder};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    type Net = (Topology, Vec<DeviceModel>, Vec<Fib>, DerivArena);

    /// R0 — R1 — R2, destination 10.2/16 attached at R2.
    fn line3(cfgs: [&str; 3]) -> Net {
        line3_attached(&[(2, "10.2.0.0/16")], cfgs)
    }

    /// R0 — R1 — R2 with the given `(router, prefix)` attachments.
    fn line3_attached(attached: &[(usize, &str)], cfgs: [&str; 3]) -> Net {
        let mut b = TopologyBuilder::new();
        let r: Vec<RouterId> = (0..3)
            .map(|i| b.router(&format!("R{i}"), Role::Backbone))
            .collect();
        b.link(r[0], r[1]); // .1/.2
        b.link(r[1], r[2]); // .5/.6
        for (i, prefix) in attached {
            b.attach(r[*i], p(prefix));
        }
        let topo = b.build();
        let models: Vec<DeviceModel> = topo
            .routers()
            .iter()
            .map(|r| {
                DeviceModel::from_config(&parse_device(r.name.clone(), cfgs[r.id.index()]).unwrap())
            })
            .collect();
        let mut arena = DerivArena::new();
        let fibs: Vec<Fib> = topo
            .routers()
            .iter()
            .map(|r| base_fib(&topo, r.id, &models[r.id.index()], &mut arena))
            .collect();
        (topo, models, fibs, arena)
    }

    fn flow_to(dst: Ipv4Addr) -> Flow {
        Flow::ip(Ipv4Addr::new(10, 0, 0, 1), dst)
    }

    /// Walks a flow to `dst` from `start` over the base FIBs alone.
    fn go(
        topo: &Topology,
        models: &[DeviceModel],
        fibs: &[Fib],
        start: RouterId,
        dst: Ipv4Addr,
        arena: &mut DerivArena,
    ) -> ForwardResult {
        let base: Vec<&Fib> = fibs.iter().collect();
        let view = FibView::new(&base, &[]);
        let deliver_at = topo.delivery_router(dst);
        walk(topo, models, view, deliver_at, start, &flow_to(dst), arena)
    }

    #[test]
    fn statics_chain_to_delivery() {
        let (topo, models, fibs, mut arena) = line3([
            "ip route-static 10.2.0.0 16 172.16.0.2\n",
            "ip route-static 10.2.0.0 16 172.16.0.6\n",
            "",
        ]);
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(0),
            Ipv4Addr::new(10, 2, 3, 4),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::Delivered(RouterId(2)));
        assert_eq!(r.path, vec![RouterId(0), RouterId(1), RouterId(2)]);
        // Coverage includes both static-route lines.
        let lines = arena.closure_lines(r.derivs.clone());
        assert!(lines.contains(&LineId::new(RouterId(0), 1)));
        assert!(lines.contains(&LineId::new(RouterId(1), 1)));
    }

    #[test]
    fn missing_route_is_blackhole() {
        let (topo, models, fibs, mut arena) =
            line3(["ip route-static 10.2.0.0 16 172.16.0.2\n", "", ""]);
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(0),
            Ipv4Addr::new(10, 2, 3, 4),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::NoRoute(RouterId(1)));
    }

    #[test]
    fn null0_drops() {
        let (topo, models, fibs, mut arena) =
            line3(["ip route-static 10.2.0.0 16 NULL0\n", "", ""]);
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(0),
            Ipv4Addr::new(10, 2, 3, 4),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::DroppedNull0(RouterId(0)));
    }

    #[test]
    fn two_router_loop_detected() {
        let (topo, models, fibs, mut arena) = line3([
            "ip route-static 10.2.0.0 16 172.16.0.2\n",
            "ip route-static 10.2.0.0 16 172.16.0.1\n", // points back at R0
            "",
        ]);
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(0),
            Ipv4Addr::new(10, 2, 3, 4),
            &mut arena,
        );
        match &r.outcome {
            ForwardOutcome::Loop(cycle) => {
                assert_eq!(cycle, &vec![RouterId(0), RouterId(1), RouterId(0)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn delivery_at_injection_point() {
        let (topo, models, fibs, mut arena) = line3(["", "", ""]);
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(2),
            Ipv4Addr::new(10, 2, 0, 9),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::Delivered(RouterId(2)));
        assert_eq!(r.path.len(), 1);
    }

    /// A packet for one of the current router's own interface addresses
    /// is delivered before any FIB lookup; one for a neighbor's address
    /// is delivered by the connected subnet's FIB entry instead.
    #[test]
    fn delivery_at_an_own_interface_address() {
        let (topo, models, fibs, mut arena) = line3(["", "", ""]);
        for (start, dst) in [
            (1, Ipv4Addr::new(172, 16, 0, 2)),
            (2, Ipv4Addr::new(172, 16, 0, 6)),
        ] {
            let r = go(&topo, &models, &fibs, RouterId(start), dst, &mut arena);
            assert_eq!(r.outcome, ForwardOutcome::Delivered(RouterId(start)));
            assert_eq!(r.path, vec![RouterId(start)]);
            assert!(r.derivs.is_empty(), "{dst}: no FIB entry consulted");
        }
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(1),
            Ipv4Addr::new(172, 16, 0, 1),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::Delivered(RouterId(1)));
        assert_eq!(r.derivs.len(), 1, "the connected entry delivers");
    }

    /// Delivery happens at the most specific attachment only: R1's 10/8
    /// does not swallow R2's 10.2/16, and R2 delivers before its FIB
    /// (whose NULL0 10.2.0/24 would drop the packet).
    #[test]
    fn delivery_at_the_most_specific_attached_prefix() {
        let (topo, models, fibs, mut arena) = line3_attached(
            &[(1, "10.0.0.0/8"), (2, "10.2.0.0/16")],
            [
                "ip route-static 10.0.0.0 8 172.16.0.2\n",
                "ip route-static 10.2.0.0 16 172.16.0.6\n",
                "ip route-static 10.2.0.0 24 NULL0\n",
            ],
        );
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(0),
            Ipv4Addr::new(10, 2, 0, 1),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::Delivered(RouterId(2)));
        assert_eq!(r.path, vec![RouterId(0), RouterId(1), RouterId(2)]);
        assert_eq!(r.derivs.len(), 2, "R0's and R1's statics, not R2's FIB");
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(0),
            Ipv4Addr::new(10, 1, 0, 1),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::Delivered(RouterId(1)));
        assert_eq!(r.derivs.len(), 1, "R0's static only");
    }

    #[test]
    fn pbr_deny_drops_with_coverage() {
        let (topo, models, fibs, mut arena) = line3([
            "ip route-static 10.2.0.0 16 172.16.0.2\nacl 3000\n rule 5 permit ip source 0.0.0.0 0 destination 10.2.0.0 16\ntraffic-policy tp\n match acl 3000 deny\napply traffic-policy tp\n",
            "ip route-static 10.2.0.0 16 172.16.0.6\n",
            "",
        ]);
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(0),
            Ipv4Addr::new(10, 2, 3, 4),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::DroppedPbr(RouterId(0)));
        let lines = arena.closure_lines(r.derivs.clone());
        // apply line (6), pbr rule line (5), acl rule line (3)
        assert!(lines.contains(&LineId::new(RouterId(0), 6)), "{lines:?}");
        assert!(lines.contains(&LineId::new(RouterId(0), 5)), "{lines:?}");
        assert!(lines.contains(&LineId::new(RouterId(0), 3)), "{lines:?}");
    }

    #[test]
    fn pbr_redirect_bypasses_fib() {
        // R0's FIB has no route to 10.2/16, but PBR redirects to R1.
        let (topo, models, fibs, mut arena) = line3([
            "acl 3000\n rule 5 permit ip source 0.0.0.0 0 destination 10.2.0.0 16\ntraffic-policy tp\n match acl 3000 redirect next-hop 172.16.0.2\napply traffic-policy tp\n",
            "ip route-static 10.2.0.0 16 172.16.0.6\n",
            "",
        ]);
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(0),
            Ipv4Addr::new(10, 2, 3, 4),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::Delivered(RouterId(2)));
        assert_eq!(r.path, vec![RouterId(0), RouterId(1), RouterId(2)]);
    }

    #[test]
    fn pbr_permit_falls_through_to_fib() {
        let (topo, models, fibs, mut arena) = line3([
            "ip route-static 10.2.0.0 16 172.16.0.2\nacl 3000\n rule 5 permit ip source 0.0.0.0 0 destination 10.2.0.0 16\ntraffic-policy tp\n match acl 3000 permit\napply traffic-policy tp\n",
            "ip route-static 10.2.0.0 16 172.16.0.6\n",
            "",
        ]);
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(0),
            Ipv4Addr::new(10, 2, 3, 4),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::Delivered(RouterId(2)));
    }

    #[test]
    fn pbr_non_matching_acl_ignored() {
        let (topo, models, fibs, mut arena) = line3([
            "ip route-static 10.2.0.0 16 172.16.0.2\nacl 3000\n rule 5 permit ip source 0.0.0.0 0 destination 99.0.0.0 8\ntraffic-policy tp\n match acl 3000 deny\napply traffic-policy tp\n",
            "ip route-static 10.2.0.0 16 172.16.0.6\n",
            "",
        ]);
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(0),
            Ipv4Addr::new(10, 2, 3, 4),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::Delivered(RouterId(2)));
    }

    #[test]
    fn pbr_bad_redirect_drops() {
        let (topo, models, fibs, mut arena) = line3([
            "acl 3000\n rule 5 permit ip source 0.0.0.0 0 destination 10.2.0.0 16\ntraffic-policy tp\n match acl 3000 redirect next-hop 9.9.9.9\napply traffic-policy tp\n",
            "",
            "",
        ]);
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(0),
            Ipv4Addr::new(10, 2, 3, 4),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::DroppedBadRedirect(RouterId(0)));
    }

    #[test]
    fn deny_acl_entry_skips_rule() {
        // The ACL's first entry denies the flow's subnet: the PBR rule does
        // not classify the flow, so it sails through on the FIB.
        let (topo, models, fibs, mut arena) = line3([
            "ip route-static 10.2.0.0 16 172.16.0.2\nacl 3000\n rule 4 deny ip source 0.0.0.0 0 destination 10.2.0.0 16\n rule 5 permit ip source 0.0.0.0 0 destination 99.0.0.0 8\ntraffic-policy tp\n match acl 3000 deny\napply traffic-policy tp\n",
            "ip route-static 10.2.0.0 16 172.16.0.6\n",
            "",
        ]);
        let r = go(
            &topo,
            &models,
            &fibs,
            RouterId(0),
            Ipv4Addr::new(10, 2, 3, 4),
            &mut arena,
        );
        assert_eq!(r.outcome, ForwardOutcome::Delivered(RouterId(2)));
    }
}
