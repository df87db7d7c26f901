//! The top-level simulator: configs + topology → routes, base FIBs,
//! forwarding.
//!
//! A [`Simulator`] runs over one [`CompiledBase`] — the compiled form of a
//! configuration, built from scratch ([`Simulator::new`]) or derived
//! from a committed base plus a patch ([`Simulator::from_base_with_patch`],
//! the repair loop's hot path). Either way the compiled form is built by
//! `acr-sim::base` and nowhere else.

use crate::base::{CompiledBase, DeltaInfo, SimBuild};
use crate::bgp::{
    index_sessions, run_prefix_sparse, ConvergeWork, PolicyMemo, PrefixOutcome, RouterCtx,
    SparseScratch,
};
use crate::deriv::DerivArena;
use crate::fib::{base_fib, covering, Fib, FibView};
use crate::forward::{walk, ForwardResult};
use crate::session::{Session, SessionDiag};
use acr_cfg::model::DeviceModel;
use acr_cfg::{NetworkConfig, Patch};
use acr_net_types::{Flow, Prefix, RouterId};
use acr_obs::metrics::{Counter, Histogram};
use acr_obs::span;
use acr_topo::Topology;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

static SIM_RUNS: Counter = Counter::new("sim.runs");
static SIM_PREFIXES: Counter = Counter::new("sim.prefixes_run");
static SIM_FLAPPING: Counter = Counter::new("sim.prefixes_flapping");
/// Rounds-to-convergence per prefix run (flapping prefixes observe the
/// round their cycle was first seen plus its length — the work done).
static CONVERGENCE_ROUNDS: Histogram =
    Histogram::new("sim.convergence_rounds", &[1, 2, 4, 8, 16, 32, 64]);
// Sparse-engine work accounting (see `ConvergeWork` for the definitions).
static SIM_ROUTERS_RECOMPUTED: Counter = Counter::new("sim.routers_recomputed");
static SIM_ROUTERS_SKIPPED: Counter = Counter::new("sim.routers_skipped");
static SIM_POLICY_EVALS: Counter = Counter::new("sim.policy_evals");
static SIM_POLICY_MEMO_HITS: Counter = Counter::new("sim.policy_memo_hits");

/// A compiled simulation context for one (topology, configuration) pair:
/// the topology plus the configuration's [`CompiledBase`]. Cheap to query.
pub struct Simulator<'a> {
    topo: &'a Topology,
    base: CompiledBase,
    delta: Option<DeltaInfo>,
}

impl<'a> Simulator<'a> {
    /// Compiles `cfg` against `topo` ([`CompiledBase::new`]).
    pub fn new(topo: &'a Topology, cfg: &NetworkConfig) -> Self {
        Simulator {
            topo,
            base: CompiledBase::new(topo, cfg),
            delta: None,
        }
    }

    /// The delta constructor: `cfg` must equal `base`'s configuration
    /// with `patch` applied, and `base` must be compiled against `topo`.
    /// Only devices the patch touches are recompiled; session
    /// establishment re-runs only for routers whose peer stanzas or AS
    /// values changed (plus their neighbors). Recompiled devices are
    /// numbered in `base`'s lines; rendered through
    /// [`DeltaInfo::lines`], every line the simulator produces is the one
    /// `Simulator::new(topo, cfg)` produces, and everything else is
    /// field-for-field identical — see [`crate::base`] for the argument
    /// and `tests/prop_delta_sim.rs` for the evidence.
    pub fn from_base_with_patch(
        topo: &'a Topology,
        base: &CompiledBase,
        cfg: &NetworkConfig,
        patch: &Patch,
    ) -> Self {
        let (base, info) = base.delta(topo, cfg, patch);
        Simulator {
            topo,
            base,
            delta: Some(info),
        }
    }

    /// The compiled form this simulator runs.
    pub fn base(&self) -> &CompiledBase {
        &self.base
    }

    /// The semantic models, indexed by `RouterId::index()`.
    pub fn models(&self) -> &[Arc<DeviceModel>] {
        self.base.models()
    }

    /// Established sessions.
    pub fn sessions(&self) -> &[Session] {
        self.base.sessions()
    }

    /// Why configured peers are down.
    pub fn session_diags(&self) -> &[SessionDiag] {
        self.base.session_diags()
    }

    /// The topology this simulator runs over.
    pub fn topo(&self) -> &'a Topology {
        self.topo
    }

    /// Construction cost accounting for this simulator.
    pub fn build_stats(&self) -> SimBuild {
        self.base.build_stats()
    }

    /// What the delta build learned about the patch (`None` for full
    /// builds).
    pub fn delta_info(&self) -> Option<&DeltaInfo> {
        self.delta.as_ref()
    }

    /// All prefixes any router originates into BGP — the per-prefix
    /// simulation universe (precomputed in the origination index).
    pub fn universe(&self) -> BTreeSet<Prefix> {
        self.base.origin().universe()
    }

    /// Runs every prefix in the universe into a fresh arena.
    pub fn run(&self) -> SimOutcome {
        let mut arena = DerivArena::new();
        let (outcomes, _) =
            self.run_prefixes_with(&self.universe(), &mut arena, &mut PolicyMemo::new());
        let base_fibs = self.base_fibs(&mut arena);
        SimOutcome {
            outcomes,
            base_fibs,
            arena,
            session_diags: self.base.session_diags().clone(),
        }
    }

    /// Runs exactly `prefixes`, interning derivations into a caller-owned
    /// arena and transfers into a caller-owned policy memo, and returns
    /// the work performed. Because the arena is content-addressed and
    /// append-only, cached [`PrefixOutcome`]s from earlier runs stay
    /// valid — this is what the DNA-style incremental verifier builds on.
    /// Keeping one memo alive across runs (the incremental verifier's
    /// candidate loop) lets transfers on sessions a patch cannot reach
    /// come back as hash hits instead of re-evaluations; the caller is
    /// responsible for [`PolicyMemo::begin_run`] between runs and for the
    /// conditions it states (one shared `arena`, shared models on
    /// unpatched routers).
    pub fn run_prefixes_with(
        &self,
        prefixes: &BTreeSet<Prefix>,
        arena: &mut DerivArena,
        memo: &mut PolicyMemo,
    ) -> (BTreeMap<Prefix, PrefixOutcome>, ConvergeWork) {
        let models = self.base.models();
        let routers: Vec<RouterCtx<'_>> = self
            .topo
            .routers()
            .iter()
            .map(|r| RouterCtx {
                id: r.id,
                model: models[r.id.index()].as_ref(),
                asn: models[r.id.index()].asn.map(|(a, _)| a),
            })
            .collect();
        let _s = span!("sim.simulate", "sim").arg("prefixes", prefixes.len() as u64);
        SIM_RUNS.inc();
        SIM_PREFIXES.add(prefixes.len() as u64);
        let mut outcomes = BTreeMap::new();
        let mut work = ConvergeWork::default();
        // Hoisted across prefixes: the session index is prefix-independent
        // and the sparse scratch is cleared (not reallocated) per prefix.
        let sessions = self.base.sessions();
        let sessions_of = index_sessions(sessions, routers.len());
        let mut scratch = SparseScratch::new();
        for prefix in prefixes {
            let orig = self.base.origin().dense(*prefix, models.len());
            let outcome = run_prefix_sparse(
                *prefix,
                &routers,
                sessions,
                &sessions_of,
                &orig,
                arena,
                memo,
                &mut scratch,
                &mut work,
            );
            match &outcome {
                PrefixOutcome::Converged { rounds, .. } => {
                    CONVERGENCE_ROUNDS.observe(*rounds as u64);
                }
                PrefixOutcome::Flapping {
                    first_seen_round,
                    cycle_len,
                    ..
                } => {
                    SIM_FLAPPING.inc();
                    CONVERGENCE_ROUNDS.observe((first_seen_round + cycle_len) as u64);
                }
            }
            outcomes.insert(*prefix, outcome);
        }
        SIM_ROUTERS_RECOMPUTED.add(work.recomputed_routers);
        SIM_ROUTERS_SKIPPED.add(work.skipped_routers);
        SIM_POLICY_EVALS.add(work.policy_evals);
        SIM_POLICY_MEMO_HITS.add(work.memo_hits);
        (outcomes, work)
    }

    /// The connected/static FIB of every router: everything a router
    /// forwards by except BGP, which a [`FibView`] answers from the
    /// per-prefix outcomes without installing it. Depends only on the
    /// topology and the device models, so the incremental verifier caches
    /// the result and rebuilds a single router's base FIB only when that
    /// router's model was swapped (re-interning an unchanged router's
    /// derivations would be pure dedup hits — skipping them leaves the
    /// arena byte-identical).
    pub fn base_fibs(&self, arena: &mut DerivArena) -> Vec<Fib> {
        self.topo
            .routers()
            .iter()
            .map(|r| self.base_fib_of(r.id, arena))
            .collect()
    }

    /// One router's connected/static base FIB (see [`Simulator::base_fibs`]).
    pub fn base_fib_of(&self, router: RouterId, arena: &mut DerivArena) -> Fib {
        base_fib(
            self.topo,
            router,
            self.models()[router.index()].as_ref(),
            arena,
        )
    }

    /// Convenience: walk one flow over a run's outcome.
    pub fn forward(&self, outcome: &mut SimOutcome, start: RouterId, flow: &Flow) -> ForwardResult {
        let base: Vec<&Fib> = outcome.base_fibs.iter().collect();
        let mut cover = Vec::new();
        covering(&outcome.outcomes, flow.dst, &mut cover);
        let deliver_at = self.topo.delivery_router(flow.dst);
        let view = FibView::new(&base, &cover);
        walk(
            self.topo,
            self.models(),
            view,
            deliver_at,
            start,
            flow,
            &mut outcome.arena,
        )
    }
}

/// The result of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Per-prefix control-plane outcome.
    pub outcomes: BTreeMap<Prefix, PrefixOutcome>,
    /// Per-router connected/static FIBs (indexed by `RouterId::index()`);
    /// BGP forwarding is read from `outcomes` through a [`FibView`].
    pub base_fibs: Vec<Fib>,
    /// Provenance arena for every derivation in this run.
    pub arena: DerivArena,
    /// Session diagnostics (configured peers that are down). Shared with
    /// the simulator's compiled form rather than deep-cloned per run.
    pub session_diags: Arc<Vec<SessionDiag>>,
}

impl SimOutcome {
    /// Prefixes that failed to converge.
    pub fn flapping(&self) -> Vec<Prefix> {
        self.outcomes
            .iter()
            .filter(|(_, o)| !o.is_converged())
            .map(|(p, _)| *p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::ForwardOutcome;
    use acr_cfg::parse::parse_device;
    use acr_cfg::LineId;
    use acr_net_types::Ipv4Addr;
    use acr_topo::{gen, Role, TopologyBuilder};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn netcfg(topo: &Topology, cfgs: &[&str]) -> NetworkConfig {
        let mut net = NetworkConfig::new();
        for (r, c) in topo.routers().iter().zip(cfgs) {
            net.insert(r.id, parse_device(r.name.clone(), c).unwrap());
        }
        net
    }

    /// Full three-node line with network origination at both ends.
    fn line3_cfg() -> (Topology, NetworkConfig) {
        let topo = gen::line(3);
        let cfgs = [
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n",
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n",
            "bgp 65002\n network 10.2.0.0 16\n peer 172.16.0.5 as-number 65001\n",
        ];
        let cfg = netcfg(&topo, &cfgs);
        (topo, cfg)
    }

    #[test]
    fn universe_collects_originations() {
        let (topo, cfg) = line3_cfg();
        let sim = Simulator::new(&topo, &cfg);
        let u = sim.universe();
        assert_eq!(
            u,
            [p("10.0.0.0/16"), p("10.2.0.0/16")].into_iter().collect()
        );
    }

    #[test]
    fn end_to_end_reachability() {
        let (topo, cfg) = line3_cfg();
        let sim = Simulator::new(&topo, &cfg);
        let mut out = sim.run();
        assert!(out.flapping().is_empty());
        // R0 -> 10.2/16 attached at R2.
        let flow = Flow::ip(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 2, 0, 1));
        let res = sim.forward(&mut out, RouterId(0), &flow);
        assert_eq!(res.outcome, ForwardOutcome::Delivered(RouterId(2)));
        assert_eq!(res.path, vec![RouterId(0), RouterId(1), RouterId(2)]);
        // And the reverse direction.
        let flow = Flow::ip(Ipv4Addr::new(10, 2, 0, 1), Ipv4Addr::new(10, 0, 0, 1));
        let res = sim.forward(&mut out, RouterId(2), &flow);
        assert_eq!(res.outcome, ForwardOutcome::Delivered(RouterId(0)));
    }

    #[test]
    fn coverage_of_forward_reaches_origin_lines() {
        let (topo, cfg) = line3_cfg();
        let sim = Simulator::new(&topo, &cfg);
        let mut out = sim.run();
        let flow = Flow::ip(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 2, 0, 1));
        let res = sim.forward(&mut out, RouterId(0), &flow);
        let lines = out.arena.closure_lines(res.derivs);
        // R2's `network 10.2.0.0 16` is line 2 of its config.
        assert!(lines.contains(&LineId::new(RouterId(2), 2)), "{lines:?}");
        // R0's peer line (3) — its session carried the route.
        assert!(lines.contains(&LineId::new(RouterId(0), 3)), "{lines:?}");
    }

    #[test]
    fn missing_redistribution_blackholes() {
        // R2 reaches 20.0/16 behind R0 only if R0 redistributes its static.
        let topo = gen::line(3);
        let with = [
            "bgp 65000\n import-route static\n peer 172.16.0.2 as-number 65001\nip route-static 20.0.0.0 16 NULL0\n",
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n",
            "bgp 65002\n peer 172.16.0.5 as-number 65001\n",
        ];
        let without = [
            "bgp 65000\n peer 172.16.0.2 as-number 65001\nip route-static 20.0.0.0 16 NULL0\n",
            with[1],
            with[2],
        ];
        let dst = Ipv4Addr::new(20, 0, 0, 1);
        // Attach 20.0/16 to R0 so delivery succeeds there.
        let mut b = TopologyBuilder::new();
        let ids: Vec<RouterId> = (0..3)
            .map(|i| b.router(&format!("R{i}"), Role::Backbone))
            .collect();
        b.link(ids[0], ids[1]);
        b.link(ids[1], ids[2]);
        b.attach(ids[0], p("20.0.0.0/16"));
        let topo2 = b.build();
        let _ = topo;

        let cfg_ok = netcfg(&topo2, &with);
        let sim = Simulator::new(&topo2, &cfg_ok);
        let mut out = sim.run();
        let res = sim.forward(
            &mut out,
            RouterId(2),
            &Flow::ip(Ipv4Addr::new(9, 9, 9, 9), dst),
        );
        assert_eq!(res.outcome, ForwardOutcome::Delivered(RouterId(0)));

        let cfg_bad = netcfg(&topo2, &without);
        let sim = Simulator::new(&topo2, &cfg_bad);
        let mut out = sim.run();
        let res = sim.forward(
            &mut out,
            RouterId(2),
            &Flow::ip(Ipv4Addr::new(9, 9, 9, 9), dst),
        );
        assert_eq!(res.outcome, ForwardOutcome::NoRoute(RouterId(2)));
    }

    #[test]
    fn run_prefixes_subset_matches_full_run() {
        let (topo, cfg) = line3_cfg();
        let sim = Simulator::new(&topo, &cfg);
        let full = sim.run();
        let one: BTreeSet<Prefix> = [p("10.2.0.0/16")].into_iter().collect();
        let (partial, _) =
            sim.run_prefixes_with(&one, &mut DerivArena::new(), &mut PolicyMemo::new());
        assert_eq!(partial.len(), 1);
        // The subset result for the shared prefix agrees with the full run.
        let a = &full.outcomes[&p("10.2.0.0/16")];
        let b = &partial[&p("10.2.0.0/16")];
        match (a, b) {
            (
                PrefixOutcome::Converged { best: ba, .. },
                PrefixOutcome::Converged { best: bb, .. },
            ) => {
                let same = |a: &Option<crate::Route>, b: &Option<crate::Route>| match (a, b) {
                    (Some(a), Some(b)) => crate::route::same_key(a, b),
                    (a, b) => a.is_none() && b.is_none(),
                };
                assert!(ba.len() == bb.len() && ba.iter().zip(bb).all(|(a, b)| same(a, b)));
            }
            _ => panic!("both must converge"),
        }
    }

    #[test]
    fn unconfigured_router_is_inert() {
        let topo = gen::line(3);
        let mut cfg = NetworkConfig::new();
        // Only R0 configured; R1/R2 empty.
        cfg.insert(
            RouterId(0),
            parse_device(
                "R0",
                "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n",
            )
            .unwrap(),
        );
        let sim = Simulator::new(&topo, &cfg);
        assert!(sim.sessions().is_empty());
        let out = sim.run();
        assert_eq!(out.outcomes.len(), 1);
        assert!(out.outcomes[&p("10.0.0.0/16")].is_converged());
    }

    #[test]
    fn session_diags_surface_in_outcome() {
        let topo = gen::line(2);
        let cfg = netcfg(
            &topo,
            &[
                "bgp 65000\n peer 172.16.0.2 as-number 64999\n",
                "bgp 65001\n peer 172.16.0.1 as-number 65000\n",
            ],
        );
        let sim = Simulator::new(&topo, &cfg);
        let out = sim.run();
        assert!(!out.session_diags.is_empty());
    }
}
