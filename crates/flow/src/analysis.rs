//! The network-wide propagation fixed point.
//!
//! [`analyze`] computes, without simulating a single routing round, an
//! over-approximate *may-propagation* relation: for every (router,
//! origin prefix) pair, the join of every abstract route that may ever
//! sit in that router's RIB, and per session/direction the prefixes
//! that may be offered (survive the sender's export policy) and
//! accepted (also survive the receiver's import policy).
//!
//! The driver is a standard worklist over (router, prefix) facts:
//! originations seed the RIB (mirroring `acr_sim::origin`), each dirty
//! fact is pushed through every established session's export → import
//! transfer ([`crate::transfer`]), and the receiving fact joins the
//! result. AS-path loop suppression is deliberately ignored — dropping
//! a check only grows the may-relation, and it is exactly what
//! `as-path overwrite` defeats in the paper's incident. Path-length
//! intervals are widened to `[lo, inf)` once their upper bound passes
//! `routers + 8`, which bounds the lattice height; everything else
//! (LOCAL_PREF constants, community sets) is finite, so the fixed point
//! terminates.
//!
//! The configuration lines behind a route are not part of the lattice:
//! no transfer function reads them and their one reader
//! ([`FlowFacts::support_for`]) unions over all routers, so there is one
//! line set per *prefix* beside the RIB. Origination lines go in at
//! seeding and every export∘import evaluation that permits adds its
//! session, policy-application and permitting-node lines. That is exact:
//! every fact is reachable from an origination, and the lines an
//! evaluation reports are monotone in its input, so the last evaluation
//! of a fact — at its final value — reports a superset of every earlier
//! one.
//!
//! The worklist is a `BTreeSet` popped in order, so iteration counts,
//! fact contents and the transfer log are deterministic — the run
//! journal can assert byte-identical flow summaries at any thread
//! count.

use crate::domain::AbstractRoute;
use crate::transfer::{abstract_policy, TransferLog};
use acr_cfg::{DeviceModel, LineId, NetworkConfig};
use acr_net_types::{Prefix, RouterId};
use acr_obs::metrics::Counter;
use acr_sim::{CompiledBase, Session};
use acr_topo::Topology;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

static FIXPOINT_ITERS: Counter = Counter::new("flow.fixpoint.iterations");
static FACTS: Counter = Counter::new("flow.facts");

/// Per-direction may-propagation facts for one session.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DirFacts {
    /// Prefixes that may survive the sender's export policy.
    pub offered: BTreeSet<Prefix>,
    /// Prefixes that may also survive the receiver's import policy.
    pub accepted: BTreeSet<Prefix>,
}

/// Both directions of one established session (parallel to
/// [`FlowFacts::sessions`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SessionFacts {
    /// `session.a` exporting to `session.b`.
    pub a_to_b: DirFacts,
    /// `session.b` exporting to `session.a`.
    pub b_to_a: DirFacts,
}

/// The analysis result: the abstract RIB plus everything the lints and
/// the localization prior consume.
#[derive(Debug, Clone)]
pub struct FlowFacts {
    /// Join of every route (router, prefix) may ever hold.
    pub rib: BTreeMap<(RouterId, Prefix), AbstractRoute>,
    /// Established BGP sessions (the propagation graph's edges), shared
    /// with the compiled form the analysis read.
    pub sessions: Arc<Vec<Session>>,
    /// May-offered / may-accepted prefixes per session, index-parallel
    /// to [`FlowFacts::sessions`].
    pub session_facts: Vec<SessionFacts>,
    /// Route-policies attached to an established session (the *applied*
    /// policies), with one applying line for diagnostics.
    pub applied_policies: BTreeMap<(RouterId, String), LineId>,
    /// Liveness log: policy nodes / community clauses that may-matched
    /// at least once anywhere in the network.
    pub log: TransferLog,
    /// Originated prefixes per router with their defining lines.
    pub origins: BTreeMap<(RouterId, Prefix), Vec<LineId>>,
    /// Per prefix, the configuration lines that may have contributed to
    /// a route for it at any router — the abstract derivation path,
    /// read through [`FlowFacts::support_for`].
    support: BTreeMap<Prefix, BTreeSet<LineId>>,
    /// Worklist pops until the fixed point settled.
    pub iterations: u64,
}

impl FlowFacts {
    /// The abstract route `router` may hold for `prefix`, if any.
    pub fn may_have(&self, router: RouterId, prefix: Prefix) -> Option<&AbstractRoute> {
        self.rib.get(&(router, prefix))
    }

    /// Number of (router, prefix) facts in the abstract RIB.
    pub fn fact_count(&self) -> usize {
        self.rib.len()
    }

    /// Union of the abstract derivation support of every prefix
    /// comparable with `cone` — the lines that may influence routing for
    /// destinations under `cone`. This is the localization prior's line
    /// set for a violated property.
    pub fn support_for(&self, cone: Prefix) -> BTreeSet<LineId> {
        let mut out = BTreeSet::new();
        for (p, lines) in &self.support {
            if p.overlaps(cone) {
                out.extend(lines.iter().copied());
            }
        }
        out
    }

    /// One worklist step: pushes the fact at `(r, p)` through the
    /// export → import transfer of every session `r` is on, joins the
    /// result into the receiving fact and enqueues that fact when it is
    /// new or grew. The lines of an evaluation (collected in the scratch
    /// `lines`) reach `support` only when both policies permit.
    fn propagate(
        &mut self,
        models: &[Arc<DeviceModel>],
        by_router: &BTreeMap<RouterId, Vec<usize>>,
        (r, p): (RouterId, Prefix),
        lines: &mut Vec<LineId>,
        worklist: &mut BTreeSet<(RouterId, Prefix)>,
    ) {
        let fact = self.rib[&(r, p)].clone();
        let widen_cap = models.len() as u32 + 8;
        for &si in by_router.get(&r).into_iter().flatten() {
            let session = &self.sessions[si];
            let Some(out_view) = session.view_of(r) else {
                continue;
            };
            let peer = out_view.peer;
            lines.clear();
            let Some(exported) = abstract_policy(
                &models[r.index()],
                r,
                out_view.export.map(|(n, _)| n),
                p,
                &fact,
                true,
                Some(&mut self.log),
                lines,
            ) else {
                continue; // definitely denied on export
            };
            let dir = dir_facts(&mut self.session_facts[si], session, r);
            dir.offered.insert(p);

            let in_view = session.view_of(peer).expect("peer_of implies a peer view");
            let Some(mut imported) = abstract_policy(
                &models[peer.index()],
                peer,
                in_view.import.map(|(n, _)| n),
                p,
                &exported,
                false,
                Some(&mut self.log),
                lines,
            ) else {
                continue; // definitely denied on import
            };
            imported.path_len = imported.path_len.widen(widen_cap);
            dir.accepted.insert(p);

            let support = self.support.entry(p).or_default();
            support.extend(lines.drain(..));
            support.extend(out_view.base_lines.iter().chain(in_view.base_lines));
            let applications = [out_view.export, in_view.import];
            support.extend(applications.iter().flatten().map(|(_, l)| l));
            let dirty = match self.rib.entry((peer, p)) {
                // A new fact is dirty for being new: its value can equal
                // what a later join would bring, and it still has to
                // cross its own sessions once.
                Entry::Vacant(slot) => {
                    slot.insert(imported);
                    true
                }
                Entry::Occupied(mut slot) => slot.get_mut().join_from(&imported),
            };
            if dirty {
                worklist.insert((peer, p));
            }
        }
    }
}

/// Analyzes a network, compiling it first (the shape of
/// `acr_lint::lint_network`).
pub fn analyze(topo: &Topology, cfg: &NetworkConfig) -> FlowFacts {
    analyze_with_models(topo, &CompiledBase::new(topo, cfg))
}

/// Which sessions each router participates in (indices into `sessions`).
fn sessions_by_router(sessions: &[Session]) -> BTreeMap<RouterId, Vec<usize>> {
    let mut by_router: BTreeMap<RouterId, Vec<usize>> = BTreeMap::new();
    for (si, s) in sessions.iter().enumerate() {
        by_router.entry(s.a).or_default().push(si);
        by_router.entry(s.b).or_default().push(si);
    }
    by_router
}

/// Analyzes a compiled configuration: its models and its established
/// sessions, as `acr-sim` built them for `topo`.
pub fn analyze_with_models(topo: &Topology, base: &CompiledBase) -> FlowFacts {
    let models = base.models();
    let sessions = base.sessions().clone();
    let by_router = sessions_by_router(&sessions);
    let mut applied_policies: BTreeMap<(RouterId, String), LineId> = BTreeMap::new();
    for s in sessions.iter() {
        for (r, policy) in [
            (s.a, &s.a_import),
            (s.a, &s.a_export),
            (s.b, &s.b_import),
            (s.b, &s.b_export),
        ] {
            if let Some((name, line)) = policy {
                applied_policies.entry((r, name.clone())).or_insert(*line);
            }
        }
    }
    let mut facts = FlowFacts {
        rib: BTreeMap::new(),
        session_facts: vec![SessionFacts::default(); sessions.len()],
        sessions,
        applied_policies,
        log: TransferLog::default(),
        origins: BTreeMap::new(),
        support: BTreeMap::new(),
        iterations: 0,
    };

    // Seed: originations, exactly the simulator's universe.
    let mut worklist: BTreeSet<(RouterId, Prefix)> = BTreeSet::new();
    for (i, model) in models.iter().enumerate() {
        let r = RouterId(i as u32);
        for (p, origination) in acr_sim::origin::router_origins(topo, r, model) {
            let lines: Vec<LineId> = origination
                .sources
                .iter()
                .flat_map(|(_, ls)| ls.iter().copied())
                .collect();
            facts.rib.insert((r, p), AbstractRoute::origin());
            facts.support.entry(p).or_default().extend(&lines);
            facts.origins.insert((r, p), lines);
            worklist.insert((r, p));
        }
    }

    let mut lines = Vec::new();
    while let Some(key) = worklist.pop_first() {
        facts.iterations += 1;
        facts.propagate(models, &by_router, key, &mut lines, &mut worklist);
    }

    FIXPOINT_ITERS.add(facts.iterations);
    FACTS.add(facts.rib.len() as u64);
    facts
}

/// The direction record for `sender` on `session`.
fn dir_facts<'f>(
    facts: &'f mut SessionFacts,
    session: &Session,
    sender: RouterId,
) -> &'f mut DirFacts {
    if session.a == sender {
        &mut facts.a_to_b
    } else {
        &mut facts.b_to_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_workloads::fig2::{fig2_incident, DCN_PREFIX, POP_A_PREFIX, POP_B_PREFIX};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn fig2_customer_prefixes_reach_every_backbone_router() {
        let fig2 = fig2_incident();
        let facts = analyze(&fig2.topo, &fig2.broken);
        assert_eq!(facts.sessions.len(), 7, "all Figure-2 sessions establish");
        for prefix in [POP_A_PREFIX, POP_B_PREFIX, DCN_PREFIX] {
            for router in [fig2.a, fig2.b, fig2.c, fig2.s] {
                assert!(
                    facts.may_have(router, p(prefix)).is_some(),
                    "{prefix} must be may-reachable at router {router}"
                );
            }
        }
    }

    #[test]
    fn fig2_intended_still_overapproximates_and_terminates() {
        let fig2 = fig2_incident();
        let facts = analyze(&fig2.topo, &fig2.intended);
        // The scoped lists still let each customer prefix cross the core.
        assert!(facts.may_have(fig2.b, p(DCN_PREFIX)).is_some());
        assert!(facts.may_have(fig2.s, p(POP_B_PREFIX)).is_some());
        assert!(facts.iterations > 0);
        assert!(facts.fact_count() >= 3);
    }

    /// A prefix crosses policy-free sessions. The fact it creates at the
    /// next router carries nothing a later join could grow, so it is
    /// enqueued for being new — or the prefix stops one hop from home.
    #[test]
    fn policy_free_sessions_still_propagate_a_prefix() {
        use acr_cfg::parse::parse_device;
        use acr_topo::{Role, TopologyBuilder};
        let mut tb = TopologyBuilder::new();
        let a = tb.router("A", Role::Backbone);
        let b = tb.router("B", Role::Backbone);
        let c = tb.router("C", Role::Backbone);
        tb.link(a, b); // 172.16.0.1 / .2
        tb.link(b, c); // 172.16.0.5 / .6
        let topo = tb.build();
        let mut cfg = NetworkConfig::new();
        let texts = [
            "bgp 65001\n peer 172.16.0.2 as-number 65002\n network 10.1.0.0 16\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n peer 172.16.0.6 as-number 65003\n",
            "bgp 65003\n peer 172.16.0.5 as-number 65002\n",
        ];
        for ((id, name), text) in [(a, "A"), (b, "B"), (c, "C")].into_iter().zip(texts) {
            cfg.insert(id, parse_device(name, text).unwrap());
        }
        let facts = analyze(&topo, &cfg);
        assert_eq!(facts.sessions.len(), 2);
        let prefix = p("10.1.0.0/16");
        // Two routers: B holds the route *and* offers it back to A.
        assert!(facts.may_have(b, prefix).is_some());
        let ab = &facts.session_facts[0];
        assert!(ab.a_to_b.accepted.contains(&prefix) && ab.b_to_a.offered.contains(&prefix));
        // Three: it crosses B.
        let at_c = facts.may_have(c, prefix).expect("crosses B");
        assert_eq!(at_c.path_len.lo, 2);
        // Support is the origination plus both sessions' lines.
        let support = facts.support_for(prefix);
        assert!(support.contains(&LineId::new(a, 3)), "{support:?}");
        assert!(support.iter().any(|l| l.router == c), "{support:?}");
    }

    /// `analyze` returns a fixed point, not a prefix of one: one more
    /// sweep of every fact through every session at the returned RIB
    /// dirties nothing and changes nothing — no fact, no offered /
    /// accepted prefix, no live node, no support line. On real networks
    /// this is what catches a new slot that was never enqueued, or lines
    /// taken from an evaluation below the fact's final value.
    #[test]
    fn analyze_returns_a_closed_fixed_point() {
        use acr_topo::gen;
        use acr_workloads::{generate, try_inject, TABLE1};
        let fig2 = fig2_incident();
        let net = generate(&gen::wan(4, 8));
        let mut cases = vec![
            (&fig2.topo, fig2.broken.clone()),
            (&fig2.topo, fig2.intended.clone()),
        ];
        // Every Table-1 class at seeds 0..3: a superset of the twelve
        // incidents `tests/facts_pin.rs` pins (`CORPUS12`).
        for (fault, _) in TABLE1 {
            let incidents = (0..3).filter_map(|seed| try_inject(fault, &net, seed));
            cases.extend(incidents.map(|inc| (&net.topo, inc.broken)));
        }
        assert!(cases.len() >= 14, "{} cases", cases.len());
        for (i, (topo, cfg)) in cases.iter().enumerate() {
            let base = CompiledBase::new(topo, cfg);
            let facts = analyze_with_models(topo, &base);
            let by_router = sessions_by_router(&facts.sessions);
            let mut again = facts.clone();
            let mut dirty = BTreeSet::new();
            for &key in facts.rib.keys() {
                again.propagate(base.models(), &by_router, key, &mut Vec::new(), &mut dirty);
            }
            assert!(dirty.is_empty(), "case {i}: sweep dirtied {dirty:?}");
            assert_eq!(again.rib, facts.rib, "case {i}");
            assert_eq!(again.session_facts, facts.session_facts, "case {i}");
            assert_eq!(again.log.live_nodes, facts.log.live_nodes, "case {i}");
            assert_eq!(
                again.log.live_community_clauses, facts.log.live_community_clauses,
                "case {i}"
            );
            assert_eq!(again.support, facts.support, "case {i}");
        }
    }

    #[test]
    fn support_lines_cover_the_overriding_policy() {
        let fig2 = fig2_incident();
        let facts = analyze(&fig2.topo, &fig2.broken);
        let support = facts.support_for(p(POP_B_PREFIX));
        // A's Override_All import (node header, line 10 of A's config)
        // may rewrite 10.0/16 transit routes — it must be on the
        // abstract derivation path of the flapping prefix.
        assert!(
            support.iter().any(|l| l.router == fig2.a && l.line == 10),
            "support = {support:?}"
        );
    }
}
