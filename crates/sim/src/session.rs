//! BGP session establishment.
//!
//! A session between adjacent routers comes up only when **both** sides
//! configure each other with the correct remote AS — directly or through a
//! peer group. This is where the Table-1 classes "missing peer group",
//! "extra items in peer group" and "override to wrong AS number" become
//! observable: a botched peer statement keeps the session down (or brings
//! up a session the intent never asked for), and the diagnostics record
//! exactly why.

use acr_cfg::model::DeviceModel;
use acr_cfg::{LineId, LineMap};
use acr_net_types::{Asn, Ipv4Addr, RouterId};
use acr_topo::Topology;
use std::borrow::Borrow;
use std::fmt;

/// An established BGP session between two adjacent routers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    pub a: RouterId,
    pub b: RouterId,
    /// `a`'s interface address on the shared link (b's configured peer).
    pub a_addr: Ipv4Addr,
    /// `b`'s interface address on the shared link (a's configured peer).
    pub b_addr: Ipv4Addr,
    /// All config lines on `a` contributing to its half of the session.
    pub a_lines: Vec<LineId>,
    /// All config lines on `b` contributing to its half of the session.
    pub b_lines: Vec<LineId>,
    /// Session-establishing lines only (no policy applications) on `a`.
    pub a_base: Vec<LineId>,
    /// Session-establishing lines only (no policy applications) on `b`.
    pub b_base: Vec<LineId>,
    /// Import/export policies on `a`: name + the applying line.
    pub a_import: Option<(String, LineId)>,
    pub a_export: Option<(String, LineId)>,
    /// Import/export policies on `b`: name + the applying line.
    pub b_import: Option<(String, LineId)>,
    pub b_export: Option<(String, LineId)>,
}

impl Session {
    /// The session with every line rendered through `lines` (see
    /// [`crate::DeltaInfo::lines`]).
    pub fn rendered(&self, lines: &LineMap) -> Session {
        let all = |v: &[LineId]| v.iter().map(|l| lines.render(*l)).collect();
        let policy = |p: &Option<(String, LineId)>| {
            (p.as_ref()).map(|(name, l)| (name.clone(), lines.render(*l)))
        };
        Session {
            a_lines: all(&self.a_lines),
            b_lines: all(&self.b_lines),
            a_base: all(&self.a_base),
            b_base: all(&self.b_base),
            a_import: policy(&self.a_import),
            a_export: policy(&self.a_export),
            b_import: policy(&self.b_import),
            b_export: policy(&self.b_export),
            ..self.clone()
        }
    }

    /// The far-end router as seen from `router`.
    pub fn peer_of(&self, router: RouterId) -> Option<RouterId> {
        if self.a == router {
            Some(self.b)
        } else if self.b == router {
            Some(self.a)
        } else {
            None
        }
    }

    /// (peer address, import policy, export policy, local session lines)
    /// as seen from `router`.
    pub fn view_of(&self, router: RouterId) -> Option<SessionView<'_>> {
        if self.a == router {
            Some(SessionView {
                peer: self.b,
                peer_addr: self.b_addr,
                local_addr: self.a_addr,
                import: self.a_import.as_ref().map(|(n, l)| (n.as_str(), *l)),
                export: self.a_export.as_ref().map(|(n, l)| (n.as_str(), *l)),
                lines: &self.a_lines,
                base_lines: &self.a_base,
            })
        } else if self.b == router {
            Some(SessionView {
                peer: self.a,
                peer_addr: self.a_addr,
                local_addr: self.b_addr,
                import: self.b_import.as_ref().map(|(n, l)| (n.as_str(), *l)),
                export: self.b_export.as_ref().map(|(n, l)| (n.as_str(), *l)),
                lines: &self.b_lines,
                base_lines: &self.b_base,
            })
        } else {
            None
        }
    }
}

/// One side's view of a session.
#[derive(Debug, Clone, Copy)]
pub struct SessionView<'a> {
    pub peer: RouterId,
    pub peer_addr: Ipv4Addr,
    pub local_addr: Ipv4Addr,
    /// Import policy: name + the `peer … route-policy … import` line.
    pub import: Option<(&'a str, LineId)>,
    /// Export policy: name + the applying line.
    pub export: Option<(&'a str, LineId)>,
    /// Every contributing line (diagnostics granularity).
    pub lines: &'a [LineId],
    /// Session-establishing lines only (provenance granularity).
    pub base_lines: &'a [LineId],
}

/// Why a configured peer did not come up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionFailure {
    /// The peer address belongs to no adjacent router.
    NoSuchNeighbor,
    /// The far side has no matching `peer` statement for our address.
    NotConfiguredRemotely { remote: RouterId },
    /// Our configured remote AS does not match the neighbor's actual AS.
    AsMismatch { expected: Asn, actual: Option<Asn> },
    /// The peer statement exists but no AS number is configured (e.g. the
    /// peer group carrying it is missing).
    NoAsNumber,
}

impl fmt::Display for SessionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionFailure::NoSuchNeighbor => f.write_str("peer address is not an adjacent router"),
            SessionFailure::NotConfiguredRemotely { remote } => {
                write!(f, "remote {remote} has no peer statement for us")
            }
            SessionFailure::AsMismatch { expected, actual } => match actual {
                Some(a) => write!(f, "AS mismatch: configured {expected}, neighbor runs {a}"),
                None => write!(f, "AS mismatch: configured {expected}, neighbor has no BGP"),
            },
            SessionFailure::NoAsNumber => f.write_str("peer has no as-number (missing group?)"),
        }
    }
}

/// A per-configured-peer diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionDiag {
    pub router: RouterId,
    pub peer_addr: Ipv4Addr,
    pub failure: SessionFailure,
    /// Lines configuring this half-session.
    pub lines: Vec<LineId>,
}

impl SessionDiag {
    /// The diagnostic with its lines rendered through `lines` (see
    /// [`crate::DeltaInfo::lines`]).
    pub fn rendered(&self, lines: &LineMap) -> SessionDiag {
        SessionDiag {
            router: self.router,
            peer_addr: self.peer_addr,
            failure: self.failure.clone(),
            lines: self.lines.iter().map(|l| lines.render(*l)).collect(),
        }
    }
}

/// Establishes sessions for the whole network.
///
/// `models` is indexed by `RouterId::index()`. Returns the established
/// sessions plus diagnostics for every configured-but-down peer.
///
/// Equivalent to concatenating [`establish_router`] over all routers in
/// id order — which is exactly what the delta-compiled path does, so
/// per-router recomputation is byte-identical to a full re-establish.
pub fn establish<M: Borrow<DeviceModel>>(
    topo: &Topology,
    models: &[M],
) -> (Vec<Session>, Vec<SessionDiag>) {
    let mut sessions = Vec::new();
    let mut diags = Vec::new();
    for r in topo.routers() {
        let (s, d) = establish_router(topo, models, r.id);
        sessions.extend(s);
        diags.extend(d);
    }
    (sessions, diags)
}

/// One router's contribution to session establishment: the sessions it
/// owns (those where it is the lower-id side) and the diagnostics for its
/// own configured-but-down peers.
///
/// The output depends only on `router`'s model (`peers`, AS value), the
/// `peers` maps and AS values of its topological neighbors, and the
/// static topology — so a patch that leaves those untouched on `router`
/// and on every neighbor cannot change this part.
pub fn establish_router<M: Borrow<DeviceModel>>(
    topo: &Topology,
    models: &[M],
    router: RouterId,
) -> (Vec<Session>, Vec<SessionDiag>) {
    let mut sessions = Vec::new();
    let mut diags = Vec::new();
    {
        let r = topo.router(router);
        let model = models[router.index()].borrow();
        for (peer_addr, peer_cfg) in &model.peers {
            let lines: Vec<LineId> = peer_cfg
                .lines
                .iter()
                .map(|l| LineId::new(r.id, *l))
                .collect();
            // Resolve the peer address to an adjacent router.
            let Some(remote) = topo.owner_of(*peer_addr) else {
                diags.push(SessionDiag {
                    router: r.id,
                    peer_addr: *peer_addr,
                    failure: SessionFailure::NoSuchNeighbor,
                    lines,
                });
                continue;
            };
            let adjacent = topo.neighbors(r.id).iter().any(|(n, link)| {
                *n == remote && link.endpoint_of(remote).map(|e| e.addr) == Some(*peer_addr)
            });
            if !adjacent {
                diags.push(SessionDiag {
                    router: r.id,
                    peer_addr: *peer_addr,
                    failure: SessionFailure::NoSuchNeighbor,
                    lines,
                });
                continue;
            }
            // Only process each pair once (from the lower router id side)
            // to avoid duplicate sessions; the higher side's failures are
            // still reported from its own iteration when asymmetric.
            let Some((expected_as, _)) = peer_cfg.asn else {
                diags.push(SessionDiag {
                    router: r.id,
                    peer_addr: *peer_addr,
                    failure: SessionFailure::NoAsNumber,
                    lines,
                });
                continue;
            };
            let remote_model = models[remote.index()].borrow();
            let actual_as = remote_model.asn.map(|(a, _)| a);
            if actual_as != Some(expected_as) {
                diags.push(SessionDiag {
                    router: r.id,
                    peer_addr: *peer_addr,
                    failure: SessionFailure::AsMismatch {
                        expected: expected_as,
                        actual: actual_as,
                    },
                    lines,
                });
                continue;
            }
            // Does the remote configure us back, with our correct AS?
            let our_addr = topo
                .addr_towards(r.id, remote)
                .expect("adjacency implies an address");
            let Some(remote_peer_cfg) = remote_model.peers.get(&our_addr) else {
                diags.push(SessionDiag {
                    router: r.id,
                    peer_addr: *peer_addr,
                    failure: SessionFailure::NotConfiguredRemotely { remote },
                    lines,
                });
                continue;
            };
            let our_as = model.asn.map(|(a, _)| a);
            if remote_peer_cfg.asn.map(|(a, _)| a) != our_as || our_as.is_none() {
                // The remote side will report the mismatch from its own
                // iteration; from our side the session is simply down.
                diags.push(SessionDiag {
                    router: r.id,
                    peer_addr: *peer_addr,
                    failure: SessionFailure::NotConfiguredRemotely { remote },
                    lines,
                });
                continue;
            }
            if r.id < remote {
                let remote_lines: Vec<LineId> = remote_peer_cfg
                    .lines
                    .iter()
                    .map(|l| LineId::new(remote, *l))
                    .collect();
                let pol = |router: RouterId, p: &Option<(String, u32)>| {
                    p.as_ref()
                        .map(|(n, l)| (n.clone(), LineId::new(router, *l)))
                };
                sessions.push(Session {
                    a: r.id,
                    b: remote,
                    a_addr: our_addr,
                    b_addr: *peer_addr,
                    a_base: peer_cfg
                        .base_lines()
                        .iter()
                        .map(|l| LineId::new(r.id, *l))
                        .collect(),
                    b_base: remote_peer_cfg
                        .base_lines()
                        .iter()
                        .map(|l| LineId::new(remote, *l))
                        .collect(),
                    a_lines: lines,
                    b_lines: remote_lines,
                    a_import: pol(r.id, &peer_cfg.import_policy),
                    a_export: pol(r.id, &peer_cfg.export_policy),
                    b_import: pol(remote, &remote_peer_cfg.import_policy),
                    b_export: pol(remote, &remote_peer_cfg.export_policy),
                });
            }
        }
    }
    (sessions, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_cfg::parse::parse_device;
    use acr_topo::{Role, TopologyBuilder};

    /// Two routers, symmetric peering.
    fn two_node(a_cfg: &str, b_cfg: &str) -> (Topology, Vec<DeviceModel>) {
        let mut b = TopologyBuilder::new();
        let ra = b.router("A", Role::Backbone);
        let rb = b.router("B", Role::Backbone);
        b.link(ra, rb);
        let topo = b.build();
        let models = vec![
            DeviceModel::from_config(&parse_device("A", a_cfg).unwrap()),
            DeviceModel::from_config(&parse_device("B", b_cfg).unwrap()),
        ];
        (topo, models)
    }

    #[test]
    fn symmetric_peering_comes_up() {
        // Link addresses: A=172.16.0.1, B=172.16.0.2.
        let (topo, models) = two_node(
            "bgp 65001\n peer 172.16.0.2 as-number 65002\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let (sessions, diags) = establish(&topo, &models);
        assert_eq!(sessions.len(), 1);
        assert!(diags.is_empty(), "{diags:?}");
        let s = &sessions[0];
        assert_eq!((s.a, s.b), (RouterId(0), RouterId(1)));
        let va = s.view_of(RouterId(0)).unwrap();
        assert_eq!(va.peer, RouterId(1));
        assert_eq!(va.peer_addr, Ipv4Addr::new(172, 16, 0, 2));
        assert_eq!(s.peer_of(RouterId(1)), Some(RouterId(0)));
        assert_eq!(s.peer_of(RouterId(9)), None);
    }

    #[test]
    fn as_mismatch_keeps_session_down() {
        let (topo, models) = two_node(
            "bgp 65001\n peer 172.16.0.2 as-number 65999\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let (sessions, diags) = establish(&topo, &models);
        assert!(sessions.is_empty());
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| matches!(
            d.failure,
            SessionFailure::AsMismatch {
                expected: Asn(65999),
                actual: Some(Asn(65002))
            }
        )));
    }

    #[test]
    fn one_sided_peering_stays_down() {
        let (topo, models) = two_node(
            "bgp 65001\n peer 172.16.0.2 as-number 65002\n",
            "bgp 65002\n",
        );
        let (sessions, diags) = establish(&topo, &models);
        assert!(sessions.is_empty());
        assert_eq!(diags.len(), 1);
        assert!(matches!(
            diags[0].failure,
            SessionFailure::NotConfiguredRemotely { .. }
        ));
    }

    #[test]
    fn peer_without_asn_reports_missing_group() {
        // A peer joined to an undefined group inherits no AS number —
        // the Table-1 "missing peer group" class.
        let (topo, models) = two_node(
            "bgp 65001\n peer 172.16.0.2 group PoPSide\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let (sessions, diags) = establish(&topo, &models);
        assert!(sessions.is_empty());
        assert!(
            diags
                .iter()
                .any(|d| d.failure == SessionFailure::NoAsNumber),
            "{diags:?}"
        );
    }

    #[test]
    fn group_carried_session_comes_up_with_group_lines() {
        let (topo, models) = two_node(
            "bgp 65001\n group Ext external\n peer Ext as-number 65002\n peer 172.16.0.2 group Ext\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let (sessions, diags) = establish(&topo, &models);
        assert_eq!(sessions.len(), 1, "{diags:?}");
        let s = &sessions[0];
        // a_lines must include the group definition (line 2), the group AS
        // (line 3) and the membership (line 4).
        let lines: Vec<u32> = s.a_lines.iter().map(|l| l.line).collect();
        assert!(
            lines.contains(&2) && lines.contains(&3) && lines.contains(&4),
            "{lines:?}"
        );
    }

    #[test]
    fn unknown_peer_address_diagnosed() {
        let (topo, models) = two_node("bgp 65001\n peer 9.9.9.9 as-number 65002\n", "bgp 65002\n");
        let (sessions, diags) = establish(&topo, &models);
        assert!(sessions.is_empty());
        assert_eq!(diags[0].failure, SessionFailure::NoSuchNeighbor);
    }

    #[test]
    fn no_local_bgp_process_means_down() {
        let (topo, models) = two_node(
            " # empty\nip route-static 10.0.0.0 8 NULL0\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let (sessions, diags) = establish(&topo, &models);
        assert!(sessions.is_empty());
        // B's peer is configured but A runs no BGP.
        assert!(diags.iter().any(|d| d.router == RouterId(1)));
    }
}
