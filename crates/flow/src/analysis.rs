//! The network-wide propagation fixed point.
//!
//! [`analyze`] computes, without simulating a single routing round, an
//! over-approximate *may-propagation* relation: for every (router,
//! origin prefix) pair, the join of every abstract route that may ever
//! sit in that router's RIB, and per session/direction the prefixes
//! that may be offered (survive the sender's export policy) and
//! accepted (also survive the receiver's import policy).
//!
//! Prefixes never interact — a fact for `p` only ever produces facts
//! for `p` at session peers — so the analysis runs one fixed point per
//! originated prefix, in ascending prefix order, on dense state: one RIB
//! slot per router and a dirty bitset popped lowest router id first.
//! Originations seed the slots (mirroring `acr_sim::origin`), each popped
//! fact is pushed through every established session's export → import
//! transfer ([`crate::transfer`]), and the receiving fact joins the
//! result. AS-path loop suppression is deliberately ignored — dropping
//! a check only grows the may-relation, and it is exactly what
//! `as-path overwrite` defeats in the paper's incident. The lattice is
//! finite — a fact is a community may-set, and every community in it is
//! named by an `apply community` line of the configuration — so the
//! fixed point terminates without widening: a router is re-enqueued
//! only when its fact is new or its may-set grew.
//!
//! The configuration lines behind a route are not part of the lattice:
//! no transfer function reads them and their one reader
//! ([`FlowFacts::support_for`]) unions over all routers, so there is one
//! line set per *prefix* beside the RIB. Origination lines go in at
//! seeding; a session direction's session and policy-application lines
//! go in when it first accepts the prefix (they do not depend on the
//! route), and every export∘import evaluation that permits adds its
//! permitting-node lines. That is exact: every fact is reachable from an
//! origination, and the lines an evaluation reports are monotone in its
//! input, so the last evaluation of a fact — at its final value —
//! reports a superset of every earlier one.
//!
//! A fact is popped once after it appears and once after each growth of
//! its may-set (a growth while a pop is pending shares it), so pops are
//! at most facts plus community growths. On the benchmark networks no
//! may-set grows once its fact exists, so every fact is popped exactly
//! once, whatever the visit order. Lowest-id-first stays the order for
//! determinism: iteration counts and fact contents are pinned
//! (`tests/facts_pin.rs`).

use crate::domain::AbstractRoute;
use crate::transfer::abstract_policy;
use acr_cfg::{DeviceModel, LineId, NetworkConfig};
use acr_net_types::{Prefix, RouterId};
use acr_obs::metrics::Counter;
use acr_sim::{CompiledBase, Session};
use acr_topo::Topology;
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

/// The analysis result: the abstract RIB plus everything the
/// `unimportable-route` lint and the localization prior consume.
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
}

/// The fixed point's working state: the network it reads, the dense
/// state of the one prefix under analysis, and the network-wide results
/// collected as prefixes settle.
struct Propagation<'n> {
    models: &'n [Arc<DeviceModel>],
    sessions: &'n [Session],
    /// The sessions each router is on (indices into `sessions`).
    adjacency: Vec<Vec<usize>>,
    /// The prefix's abstract RIB, indexed by router.
    slots: Vec<Option<AbstractRoute>>,
    /// Routers whose slot is new or grew since it last crossed its
    /// sessions, one bit each.
    dirty: Vec<u64>,
    /// The prefix's support lines, with repeats until it settles.
    support: Vec<LineId>,
    /// A reused buffer for one export∘import evaluation's lines.
    lines: Vec<LineId>,
    /// Per session, per direction (`[a → b, b → a]`), the prefixes
    /// offered and accepted so far — ascending, since prefixes are.
    offered: Vec<[Vec<Prefix>; 2]>,
    accepted: Vec<[Vec<Prefix>; 2]>,
    /// Settled facts of every prefix so far.
    rib: Vec<((RouterId, Prefix), AbstractRoute)>,
    /// Settled support of every prefix so far, ascending.
    support_by_prefix: Vec<(Prefix, BTreeSet<LineId>)>,
    iterations: u64,
}

impl<'n> Propagation<'n> {
    fn new(models: &'n [Arc<DeviceModel>], sessions: &'n [Session]) -> Self {
        let n = models.len();
        let mut adjacency = vec![Vec::new(); n];
        for (si, s) in sessions.iter().enumerate() {
            adjacency[s.a.index()].push(si);
            adjacency[s.b.index()].push(si);
        }
        Propagation {
            models,
            sessions,
            adjacency,
            slots: vec![None; n],
            dirty: vec![0; n.div_ceil(64)],
            support: Vec::new(),
            lines: Vec::new(),
            offered: vec![Default::default(); sessions.len()],
            accepted: vec![Default::default(); sessions.len()],
            rib: Vec::new(),
            support_by_prefix: Vec::new(),
            iterations: 0,
        }
    }

    /// The lowest dirty router, cleared.
    fn pop(&mut self) -> Option<RouterId> {
        let (w, word) = self.dirty.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
        let bit = word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(RouterId((w * 64 + bit) as u32))
    }

    /// Seeds an origination of the prefix under analysis at `r`.
    fn seed(&mut self, r: RouterId, lines: &[LineId]) {
        self.slots[r.index()] = Some(AbstractRoute::origin());
        self.support.extend_from_slice(lines);
        mark(&mut self.dirty, r);
    }

    /// One worklist step: pushes `r`'s fact for `p` through the export →
    /// import transfer of every session `r` is on, joins the result into
    /// the peer's slot and marks the peer dirty when its fact is new or
    /// grew. The lines of an evaluation (collected in the buffer
    /// `lines`) reach `support` only when both policies permit.
    fn propagate(&mut self, r: RouterId, p: Prefix) {
        let Propagation {
            models,
            sessions,
            adjacency,
            slots,
            dirty,
            support,
            lines,
            offered,
            accepted,
            ..
        } = self;
        let fact = slots[r.index()]
            .clone()
            .expect("a dirty router holds a fact");
        for &si in &adjacency[r.index()] {
            let session = &sessions[si];
            let Some(out_view) = session.view_of(r) else {
                continue;
            };
            let peer = out_view.peer;
            let dir = usize::from(session.a != r);
            lines.clear();
            let Some(exported) = abstract_policy(
                &models[r.index()],
                r,
                out_view.export.map(|(n, _)| n),
                p,
                &fact,
                lines,
            ) else {
                continue; // definitely denied on export
            };
            push_once(&mut offered[si][dir], p);

            let in_view = session.view_of(peer).expect("peer_of implies a peer view");
            let Some(imported) = abstract_policy(
                &models[peer.index()],
                peer,
                in_view.import.map(|(n, _)| n),
                p,
                &exported,
                lines,
            ) else {
                continue; // definitely denied on import
            };
            // Session and policy-application lines do not depend on the
            // route: they go in once per direction and prefix.
            if push_once(&mut accepted[si][dir], p) {
                support.extend(out_view.base_lines.iter().chain(in_view.base_lines));
                let applications = [out_view.export, in_view.import];
                support.extend(applications.iter().flatten().map(|(_, l)| l));
            }
            support.append(lines);
            let slot = &mut slots[peer.index()];
            let grew = match slot {
                // A new fact is dirty for being new: its value can equal
                // what a later join would bring, and it still has to
                // cross its own sessions once.
                None => {
                    *slot = Some(imported);
                    true
                }
                Some(held) => held.join_from(&imported),
            };
            if grew {
                mark(dirty, peer);
            }
        }
    }

    /// Ends the prefix under analysis: its facts and support move into
    /// the network-wide results, leaving the dense state empty.
    fn settle(&mut self, p: Prefix) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(route) = slot.take() {
                self.rib.push(((RouterId(i as u32), p), route));
            }
        }
        self.support.sort_unstable();
        self.support.dedup();
        let lines = self.support.drain(..).collect();
        self.support_by_prefix.push((p, lines));
    }

    /// The settled results as [`FlowFacts`].
    fn finish(
        self,
        sessions: Arc<Vec<Session>>,
        origins: BTreeMap<(RouterId, Prefix), Vec<LineId>>,
    ) -> FlowFacts {
        let dir = |offered: Vec<Prefix>, accepted: Vec<Prefix>| DirFacts {
            offered: offered.into_iter().collect(),
            accepted: accepted.into_iter().collect(),
        };
        let session_facts = self
            .offered
            .into_iter()
            .zip(self.accepted)
            .map(
                |([ab_offered, ba_offered], [ab_accepted, ba_accepted])| SessionFacts {
                    a_to_b: dir(ab_offered, ab_accepted),
                    b_to_a: dir(ba_offered, ba_accepted),
                },
            )
            .collect();
        FlowFacts {
            rib: self.rib.into_iter().collect(),
            sessions,
            session_facts,
            origins,
            support: self.support_by_prefix.into_iter().collect(),
            iterations: self.iterations,
        }
    }
}

fn mark(dirty: &mut [u64], r: RouterId) {
    dirty[r.index() / 64] |= 1 << (r.index() % 64);
}

/// Appends `p` to an ascending list unless it is already its last
/// element; returns whether it was appended.
fn push_once(list: &mut Vec<Prefix>, p: Prefix) -> bool {
    let new = list.last() != Some(&p);
    if new {
        list.push(p);
    }
    new
}

/// Analyzes a network, compiling it first (the shape of
/// `acr_lint::lint_network`).
pub fn analyze(topo: &Topology, cfg: &NetworkConfig) -> FlowFacts {
    analyze_with_models(topo, &CompiledBase::new(topo, cfg))
}

/// Analyzes a compiled configuration: its models and its established
/// sessions, as `acr-sim` built them for `topo`.
pub fn analyze_with_models(topo: &Topology, base: &CompiledBase) -> FlowFacts {
    let models = base.models();
    let sessions = base.sessions().clone();

    // Seeds: originations, exactly the simulator's universe.
    let mut origins = BTreeMap::new();
    let mut originators: BTreeMap<Prefix, Vec<RouterId>> = BTreeMap::new();
    for (i, model) in models.iter().enumerate() {
        let r = RouterId(i as u32);
        for (p, origination) in acr_sim::origin::router_origins(topo, r, model) {
            let lines: Vec<LineId> = origination
                .sources
                .iter()
                .flat_map(|(_, ls)| ls.iter().copied())
                .collect();
            originators.entry(p).or_default().push(r);
            origins.insert((r, p), lines);
        }
    }

    let mut flow = Propagation::new(models, &sessions);
    for (&p, routers) in &originators {
        for &r in routers {
            flow.seed(r, &origins[&(r, p)]);
        }
        while let Some(r) = flow.pop() {
            flow.iterations += 1;
            flow.propagate(r, p);
        }
        flow.settle(p);
    }
    let facts = flow.finish(sessions.clone(), origins);

    FIXPOINT_ITERS.add(facts.iterations);
    FACTS.add(facts.rib.len() as u64);
    facts
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

    /// A chain of routers `R0 – R1 – …` configured by `texts`, the
    /// `i`-th link numbered `172.16.0.(4i+1)` / `.(4i+2)`.
    fn chain(texts: &[&str]) -> (Topology, NetworkConfig, Vec<RouterId>) {
        use acr_cfg::parse::parse_device;
        use acr_topo::{Role, TopologyBuilder};
        let mut tb = TopologyBuilder::new();
        let names: Vec<String> = (0..texts.len()).map(|i| format!("R{i}")).collect();
        let ids: Vec<RouterId> = names.iter().map(|n| tb.router(n, Role::Backbone)).collect();
        for pair in ids.windows(2) {
            tb.link(pair[0], pair[1]);
        }
        let topo = tb.build();
        let mut cfg = NetworkConfig::new();
        for ((&id, name), text) in ids.iter().zip(&names).zip(texts) {
            cfg.insert(id, parse_device(name, text).unwrap());
        }
        (topo, cfg, ids)
    }

    /// One sweep of every fact of `topo`/`cfg`'s analysis, at its
    /// returned value, through the per-prefix step the analysis uses
    /// dirties nothing and reproduces everything — every fact, offered /
    /// accepted prefix and support line. This catches a new slot that
    /// was never marked dirty, or lines taken from an evaluation below
    /// the fact's final value (the last pop of a fact evaluates its
    /// final value, so the sweep's results are exactly the analysis's).
    fn assert_closed(case: &str, topo: &Topology, cfg: &NetworkConfig) {
        let base = CompiledBase::new(topo, cfg);
        let facts = analyze_with_models(topo, &base);
        let mut by_prefix: BTreeMap<Prefix, Vec<(RouterId, &AbstractRoute)>> = BTreeMap::new();
        for (&(r, p), route) in &facts.rib {
            by_prefix.entry(p).or_default().push((r, route));
        }
        let mut sweep = Propagation::new(base.models(), &facts.sessions);
        for (&p, held) in &by_prefix {
            for (&(_, q), lines) in &facts.origins {
                if q == p {
                    sweep.support.extend_from_slice(lines);
                }
            }
            for &(r, route) in held {
                sweep.slots[r.index()] = Some(route.clone());
            }
            for &(r, _) in held {
                sweep.propagate(r, p);
            }
            assert_eq!(sweep.pop(), None, "{case}: sweep dirtied a fact for {p}");
            sweep.settle(p);
        }
        let again = sweep.finish(facts.sessions.clone(), facts.origins.clone());
        assert_eq!(again.rib, facts.rib, "{case}");
        assert_eq!(again.session_facts, facts.session_facts, "{case}");
        assert_eq!(again.support, facts.support, "{case}");
    }

    /// A prefix crosses policy-free sessions. The fact it creates at the
    /// next router carries nothing a later join could grow, so it is
    /// enqueued for being new — or the prefix stops one hop from home.
    #[test]
    fn policy_free_sessions_still_propagate_a_prefix() {
        let (topo, cfg, ids) = chain(&[
            "bgp 65001\n peer 172.16.0.2 as-number 65002\n network 10.1.0.0 16\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n peer 172.16.0.6 as-number 65003\n",
            "bgp 65003\n peer 172.16.0.5 as-number 65002\n",
        ]);
        let [a, b, c] = ids[..] else { unreachable!() };
        let facts = analyze(&topo, &cfg);
        assert_eq!(facts.sessions.len(), 2);
        let prefix = p("10.1.0.0/16");
        // Two routers: B holds the route *and* offers it back to A.
        assert!(facts.may_have(b, prefix).is_some());
        let ab = &facts.session_facts[0];
        assert!(ab.a_to_b.accepted.contains(&prefix) && ab.b_to_a.offered.contains(&prefix));
        // Three: it crosses B.
        assert!(facts.may_have(c, prefix).is_some(), "crosses B");
        // Support is the origination plus both sessions' lines, C's
        // included.
        let support = facts.support_for(prefix);
        assert!(support.contains(&LineId::new(a, 3)), "{support:?}");
        assert!(support.iter().any(|l| l.router == c), "{support:?}");
    }

    /// The one re-enqueue cause left: a may-set that grows after its
    /// fact exists. B originates and A tags what it exports to B, so B's
    /// origin fact grows at A's first pop, and A's fact grows in turn
    /// when B exports the tag back; each is popped once for being new
    /// and once for growing. No benchmark network applies a community,
    /// so this test is where the second pop is exercised.
    #[test]
    fn a_grown_may_set_is_popped_again_and_still_closed() {
        let (topo, cfg, ids) = chain(&[
            "bgp 65001\n peer 172.16.0.2 as-number 65002\n\
             peer 172.16.0.2 route-policy TAG export\n\
             route-policy TAG permit node 10\n apply community 65000:1\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n network 10.1.0.0 16\n",
        ]);
        let facts = analyze(&topo, &cfg);
        let (prefix, tag) = (p("10.1.0.0/16"), "65000:1".parse().unwrap());
        for r in ids {
            let fact = facts
                .may_have(r, prefix)
                .expect("both routers hold the prefix");
            assert!(fact.communities.contains(&tag), "{r}: {fact:?}");
        }
        assert_eq!(facts.fact_count(), 2);
        assert_eq!(facts.iterations, 4, "two facts, each grown once");
        assert_closed("tagged chain", &topo, &cfg);
    }

    /// `analyze` returns a fixed point, not a prefix of one (see
    /// [`assert_closed`]), on Figure 2, every Table-1 class of `wan(4,8)`
    /// and a 72-router incident.
    #[test]
    fn analyze_returns_a_closed_fixed_point() {
        use acr_topo::gen;
        use acr_workloads::{generate, try_inject, FaultType, TABLE1};
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
        // 72 routers: the dirty bitset's second word.
        let wan72 = generate(&gen::wan(24, 48));
        let inc = try_inject(FaultType::MissingPrefixListItems, &wan72, 0).expect("injectable");
        assert!(wan72.topo.routers().len() > 64);
        cases.push((&wan72.topo, inc.broken));
        for (i, (topo, cfg)) in cases.iter().enumerate() {
            assert_closed(&format!("case {i}"), topo, cfg);
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
