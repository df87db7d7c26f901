//! The sparse convergence engine ≡ a dense reference, on what the repair
//! loop simulates.
//!
//! The product runs one engine: a router is recomputed only when a
//! session neighbor's best route changed, policy transfers are memoized,
//! and cycles are detected through an incrementally maintained state
//! hash. This test keeps the engine it replaced as an oracle,
//! [`run_prefix_dense`]: every router recomputes from every session every
//! round, over whole [`Route`]s, with a SipHash fingerprint of the full
//! key state. It runs the product's own transfer (`bgp::export` then
//! `bgp::import`) on the per-prefix inputs `Simulator::run_prefixes_with`
//! hands the engine, so no policy logic is copied here.
//!
//! The contract is **field-for-field equality** on every prefix outcome —
//! bests, rejection derivations, round counts, flap periods — *and* on
//! the derivation arena, whose content-addressed node list is equal
//! exactly when both intern the same derivations in the same order. On
//! top, the engine's work must fit inside the reference's: equal rounds,
//! recomputed + skipped routers = the reference's recomputed, and no more
//! policy evaluations.
//!
//! Inputs: a line, the BAD GADGET, a mutual `as-path overwrite` and a
//! prefix nobody originates; every Table-1 class at its first injectable
//! site of `wan(4,8)`; the Figure 2 flapping incident, whose oscillation
//! fingerprint (`first_seen_round`, `cycle_len`, observed routes) must be
//! identical. Under `heavy-tests`, random Table-1 injections crossed with
//! random follow-up patches that include session-shaping edits — the
//! surface `prop_delta_sim` drives the delta compiler with.

use acr_cfg::parse::parse_device;
use acr_cfg::NetworkConfig;
use acr_net_types::{AsPath, Asn, Ipv4Addr, Prefix, RouterId};
use acr_sim::bgp::{
    export, import, index_sessions, EvalScratch, Origination, RouterCtx, MAX_ROUNDS_BASE,
};
use acr_sim::{
    select_best_id, ConvergeWork, DerivArena, DerivId, PolicyMemo, PrefixOutcome, Route, RouteId,
    RouteInterner, Session, Simulator,
};
use acr_topo::{gen, Role, Topology, TopologyBuilder};
use acr_workloads::{fig2_incident, generate, inject_at, TABLE1};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

#[cfg(feature = "heavy-tests")]
use acr_cfg::{Edit, Patch, Stmt};
#[cfg(feature = "heavy-tests")]
use acr_workloads::try_inject;
#[cfg(feature = "heavy-tests")]
use proptest::prelude::{any, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig};

/// Picks the best route among candidates: the maximum under
/// [`Route::prefer`], then the lower next hop, the *last* among equals.
fn select_best(candidates: impl IntoIterator<Item = Route>) -> Option<Route> {
    candidates
        .into_iter()
        .max_by(|a, b| a.prefer(b).then_with(|| b.next_hop.cmp(&a.next_hop)))
}

/// Interns the constant per-router local candidate routes.
fn intern_locals(
    prefix: Prefix,
    originations: &[Origination],
    arena: &mut DerivArena,
) -> Vec<Vec<Route>> {
    originations
        .iter()
        .map(|o| {
            o.sources
                .iter()
                .map(|(kind, lines)| {
                    let deriv = arena.intern(*kind, lines.clone(), vec![]);
                    Route::local(prefix, deriv)
                })
                .collect()
        })
        .collect()
}

/// A route's protocol key: every field but the derivation id and the
/// communities — what convergence compares and what a state hashes.
fn key(r: &Route) -> (Prefix, &AsPath, u32, u32, Ipv4Addr, Option<RouterId>) {
    (
        r.prefix,
        &r.as_path,
        r.local_pref,
        r.med,
        r.next_hop,
        r.learned_from,
    )
}

/// SipHash fingerprint of the full key state, trusted outright.
fn hash_state(best: &[Option<Route>]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for r in best {
        match r {
            Some(r) => {
                1u8.hash(&mut hasher);
                key(r).hash(&mut hasher);
            }
            None => 0u8.hash(&mut hasher),
        }
    }
    hasher.finish()
}

/// The dense reference engine: every router recomputes from every session
/// every round (per-round scratch is reused, which does not change a
/// single evaluation).
fn run_prefix_dense(
    prefix: Prefix,
    routers: &[RouterCtx<'_>],
    sessions: &[Session],
    sessions_of: &[Vec<u32>],
    originations: &[Origination],
    arena: &mut DerivArena,
    work: &mut ConvergeWork,
) -> PrefixOutcome {
    let n = routers.len();
    // Local candidate routes never change across rounds.
    let locals = intern_locals(prefix, originations, arena);

    let mut best: Vec<Option<Route>> = (0..n)
        .map(|i| select_best(locals[i].iter().cloned()))
        .collect();
    let mut seen_states: HashMap<u64, usize> = HashMap::new();
    let mut history: Vec<Vec<Option<Route>>> = Vec::new();
    let mut rejections: Vec<DerivId> = Vec::new();

    // Per-round scratch, allocated once and drained per router / swapped
    // per round.
    let mut next: Vec<Option<Route>> = Vec::with_capacity(n);
    let mut candidates: Vec<Route> = Vec::new();
    let mut eval = EvalScratch::default();

    let max_rounds = MAX_ROUNDS_BASE + 4 * n;
    for round in 0..max_rounds {
        let state_hash = hash_state(&best);
        if let Some(&first) = seen_states.get(&state_hash) {
            // Revisited a state: rounds [first, round) form the cycle.
            let cycle_len = round - first;
            if cycle_len == 0 {
                break; // defensive; cannot happen (hash inserted below)
            }
            let mut observed: Vec<Vec<Route>> = vec![Vec::new(); n];
            for state in &history[first..] {
                for (i, r) in state.iter().enumerate() {
                    if let Some(r) = r {
                        if !observed[i].iter().any(|o: &Route| key(o) == key(r)) {
                            observed[i].push(r.clone());
                        }
                    }
                }
            }
            rejections.sort_unstable();
            rejections.dedup();
            return PrefixOutcome::Flapping {
                first_seen_round: first,
                cycle_len,
                observed,
                rejections,
            };
        }
        seen_states.insert(state_hash, round);
        history.push(best.clone());

        // Compute the next state.
        work.rounds += 1;
        work.recomputed_routers += n as u64;
        next.clear();
        for i in 0..n {
            let me = &routers[i];
            candidates.extend(locals[i].iter().cloned());
            for &si in &sessions_of[i] {
                let session = &sessions[si as usize];
                let view = session.view_of(me.id).expect("indexed by member");
                let neighbor = &routers[view.peer.index()];
                let Some(neighbor_best) = &best[view.peer.index()] else {
                    continue;
                };
                work.policy_evals += 1;
                match export(neighbor, session, me.id, neighbor_best, arena, &mut eval) {
                    Ok(msg) => match import(me, session, view.peer, &msg, arena, &mut eval) {
                        Ok(imported) => candidates.push(imported),
                        Err(Some(denied)) => rejections.push(denied),
                        Err(None) => {} // AS-path loop: not config-attributable
                    },
                    Err(Some(denied)) => rejections.push(denied),
                    Err(None) => {}
                }
            }
            next.push(select_best(candidates.drain(..)));
        }

        let stable = next.iter().zip(&best).all(|(a, b)| match (a, b) {
            (Some(x), Some(y)) => key(x) == key(y),
            (None, None) => true,
            _ => false,
        });
        std::mem::swap(&mut best, &mut next);
        if stable {
            rejections.sort_unstable();
            rejections.dedup();
            return PrefixOutcome::Converged {
                rounds: round + 1,
                best,
                rejections,
            };
        }
    }
    // Defensive cap without a repeated state.
    rejections.sort_unstable();
    rejections.dedup();
    PrefixOutcome::Flapping {
        first_seen_round: 0,
        cycle_len: max_rounds,
        observed: vec![
            best.into_iter()
                .flatten()
                .map(|r| vec![r])
                .next()
                .unwrap_or_default();
            n
        ],
        rejections,
    }
}

/// One engine's run over a prefix set, into a fresh arena.
struct Run {
    outcomes: BTreeMap<Prefix, PrefixOutcome>,
    arena: DerivArena,
    work: ConvergeWork,
}

/// `prefixes` of `sim` through the dense reference, on the per-prefix
/// inputs `Simulator::run_prefixes_with` hands the product engine.
fn dense(sim: &Simulator, prefixes: &BTreeSet<Prefix>) -> Run {
    let models = sim.models();
    let routers: Vec<RouterCtx<'_>> = sim
        .topo()
        .routers()
        .iter()
        .map(|r| RouterCtx {
            id: r.id,
            model: models[r.id.index()].as_ref(),
            asn: models[r.id.index()].asn.map(|(a, _)| a),
        })
        .collect();
    let sessions_of = index_sessions(sim.sessions(), routers.len());
    let mut arena = DerivArena::new();
    let mut work = ConvergeWork::default();
    let outcomes = prefixes
        .iter()
        .map(|&prefix| {
            let orig = sim.base().origin().dense(prefix, models.len());
            let outcome = run_prefix_dense(
                prefix,
                &routers,
                sim.sessions(),
                &sessions_of,
                &orig,
                &mut arena,
                &mut work,
            );
            (prefix, outcome)
        })
        .collect();
    Run {
        outcomes,
        arena,
        work,
    }
}

/// `prefixes` of `sim` through the product engine, with a fresh memo.
fn sparse(sim: &Simulator, prefixes: &BTreeSet<Prefix>) -> Run {
    let mut arena = DerivArena::new();
    let (outcomes, work) = sim.run_prefixes_with(prefixes, &mut arena, &mut PolicyMemo::new());
    Run {
        outcomes,
        arena,
        work,
    }
}

/// Runs both on `prefixes` and asserts byte-identical outcomes *and*
/// arenas and equal rounds, returning the one outcome map and both work
/// counters.
fn both_engines(
    sim: &Simulator,
    prefixes: &BTreeSet<Prefix>,
) -> (BTreeMap<Prefix, PrefixOutcome>, ConvergeWork, ConvergeWork) {
    let (d, s) = (dense(sim, prefixes), sparse(sim, prefixes));
    assert_eq!(d.outcomes, s.outcomes, "outcomes must be byte-identical");
    assert_eq!(d.arena, s.arena, "arenas must be byte-identical");
    assert_eq!(d.work.rounds, s.work.rounds, "rounds");
    (d.outcomes, d.work, s.work)
}

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn one(prefix: &str) -> BTreeSet<Prefix> {
    [p(prefix)].into_iter().collect()
}

fn netcfg(topo: &Topology, cfgs: &[&str]) -> NetworkConfig {
    let mut net = NetworkConfig::new();
    for (r, c) in topo.routers().iter().zip(cfgs) {
        net.insert(r.id, parse_device(r.name.clone(), c).unwrap());
    }
    net
}

/// Three routers in a line: R0 — R1 — R2, R0 originates 10.0/16.
fn line3() -> (Topology, NetworkConfig) {
    let topo = gen::line(3);
    let cfg = netcfg(
        &topo,
        &[
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n",
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n",
            "bgp 65002\n peer 172.16.0.5 as-number 65001\n",
        ],
    );
    (topo, cfg)
}

/// The classic BAD GADGET: three spokes around an origin hub, each
/// preferring (via local-pref) the route heard from its clockwise
/// neighbor over its own direct route. No stable assignment exists.
fn bad_gadget() -> (Topology, NetworkConfig) {
    let mut b = TopologyBuilder::new();
    let o = b.router("O", Role::Backbone);
    let x = b.router("X", Role::Backbone);
    let y = b.router("Y", Role::Backbone);
    let z = b.router("Z", Role::Backbone);
    b.link(o, x); // .1/.2
    b.link(o, y); // .5/.6
    b.link(o, z); // .9/.10
    b.link(x, y); // .13/.14
    b.link(y, z); // .17/.18
    b.link(z, x); // .21/.22
    let topo = b.build();
    let cfg = netcfg(
        &topo,
        &[
            // O originates and peers with all spokes.
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n peer 172.16.0.6 as-number 65002\n peer 172.16.0.10 as-number 65003\n",
            // X prefers routes from Y.
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.14 as-number 65002\n peer 172.16.0.14 route-policy Prefer import\n peer 172.16.0.21 as-number 65003\nroute-policy Prefer permit node 10\n apply local-preference 200\n",
            // Y prefers routes from Z.
            "bgp 65002\n peer 172.16.0.5 as-number 65000\n peer 172.16.0.13 as-number 65001\n peer 172.16.0.18 as-number 65003\n peer 172.16.0.18 route-policy Prefer import\nroute-policy Prefer permit node 10\n apply local-preference 200\n",
            // Z prefers routes from X.
            "bgp 65003\n peer 172.16.0.9 as-number 65000\n peer 172.16.0.17 as-number 65002\n peer 172.16.0.22 as-number 65001\n peer 172.16.0.22 route-policy Prefer import\nroute-policy Prefer permit node 10\n apply local-preference 200\n",
        ],
    );
    (topo, cfg)
}

/// Mutual `as-path overwrite` between two transit routers: a stable
/// forwarding loop, the post-partial-repair state of the paper's
/// Figure 2.
fn mutual_overwrite() -> (Topology, NetworkConfig) {
    let mut b = TopologyBuilder::new();
    let r0 = b.router("O", Role::Backbone);
    let r1 = b.router("X", Role::Backbone);
    let r2 = b.router("Y", Role::Backbone);
    b.link(r0, r1); // .1/.2
    b.link(r1, r2); // .5/.6
    let topo = b.build();
    let cfg = netcfg(
        &topo,
        &[
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n",
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n peer 172.16.0.6 route-policy OW import\nroute-policy OW permit node 10\n apply as-path overwrite\n apply local-preference 200\n",
            "bgp 65002\n peer 172.16.0.5 as-number 65001\n peer 172.16.0.5 route-policy OW import\nroute-policy OW permit node 10\n apply as-path overwrite\n apply local-preference 200\n",
        ],
    );
    (topo, cfg)
}

#[test]
fn sparse_matches_dense_on_line() {
    let (topo, cfg) = line3();
    let sim = Simulator::new(&topo, &cfg);
    let (out, dense, sparse) = both_engines(&sim, &one("10.0.0.0/16"));
    assert!(out[&p("10.0.0.0/16")].is_converged());
    assert!(
        sparse.recomputed_routers < dense.recomputed_routers,
        "sparse {sparse:?} vs dense {dense:?}"
    );
    assert!(sparse.policy_evals < dense.policy_evals);
    assert_eq!(sparse.rounds, dense.rounds);
}

#[test]
fn sparse_matches_dense_on_flap() {
    // Cycle detection must fire at the same first_seen_round and
    // cycle_len, with identical observed sets.
    let (topo, cfg) = bad_gadget();
    let sim = Simulator::new(&topo, &cfg);
    let (out, dense, sparse) = both_engines(&sim, &one("10.0.0.0/16"));
    assert!(matches!(
        out[&p("10.0.0.0/16")],
        PrefixOutcome::Flapping { .. }
    ));
    assert!(sparse.policy_evals < dense.policy_evals);
    assert!(
        sparse.memo_hits > 0,
        "a flap cycles through memoized transfers"
    );
}

#[test]
fn sparse_matches_dense_on_stable_loop() {
    let (topo, cfg) = mutual_overwrite();
    let sim = Simulator::new(&topo, &cfg);
    let (out, _, _) = both_engines(&sim, &one("10.0.0.0/16"));
    assert!(out[&p("10.0.0.0/16")].is_converged());
}

#[test]
fn sparse_matches_dense_without_origination() {
    // The line's routers originate 10.0/16 only; 10.9/16 has no source.
    let (topo, cfg) = line3();
    let sim = Simulator::new(&topo, &cfg);
    let (out, dense, sparse) = both_engines(&sim, &one("10.9.0.0/16"));
    let PrefixOutcome::Converged { rounds, best, .. } = &out[&p("10.9.0.0/16")] else {
        panic!()
    };
    assert!(best.iter().all(|b| b.is_none()));
    // Single-round prefixes do equal work in both engines.
    assert_eq!(*rounds, 1);
    assert_eq!(sparse.recomputed_routers, dense.recomputed_routers);
}

/// The id-level selector the engine runs agrees with the reference's
/// selection over whole routes, last-maximal tiebreak included.
#[test]
fn select_best_id_matches_select_best() {
    let base = Route {
        prefix: p("10.0.0.0/16"),
        as_path: AsPath::from_hops([Asn(1), Asn(2)]),
        local_pref: 100,
        med: 0,
        communities: vec![],
        next_hop: Ipv4Addr::new(172, 16, 0, 1),
        learned_from: Some(RouterId(1)),
        deriv: DerivId(0),
    };
    let mk = |lp: u32, nh: u8, from: u32| Route {
        local_pref: lp,
        next_hop: Ipv4Addr::new(172, 16, 0, nh),
        learned_from: Some(RouterId(from)),
        ..base.clone()
    };
    // Include an exact tie (same route twice) and a next-hop-only
    // difference to exercise the last-maximal tiebreak path.
    let cases: Vec<Vec<Route>> = vec![
        vec![],
        vec![base.clone()],
        vec![mk(100, 1, 1), mk(200, 2, 2), mk(100, 3, 3)],
        vec![mk(100, 2, 1), mk(100, 1, 1), mk(100, 2, 1)],
        vec![mk(100, 9, 2), mk(100, 1, 2)],
    ];
    for routes in cases {
        let mut it = RouteInterner::new();
        let ids: Vec<RouteId> = routes.iter().map(|r| it.intern(r)).collect();
        let by_id = select_best_id(&it, ids).map(|id| it.get(id).clone());
        let by_val = select_best(routes.clone());
        assert_eq!(by_id, by_val, "candidates: {routes:?}");
    }
}

/// Materializes one edit against `cfg` from raw fuzz inputs — the same
/// shapes `prop_delta_sim` uses, session-shaping edits included, so the
/// engine is tested on exactly the configurations the repair loop
/// simulates.
#[cfg(feature = "heavy-tests")]
fn edit_from(cfg: &NetworkConfig, ri: usize, pos: u16, kind: u8) -> Edit {
    let routers = cfg.routers();
    let router = routers[ri % routers.len()];
    let len = cfg.device(router).unwrap().len();
    match kind % 5 {
        0 => Edit::Delete {
            router,
            index: pos as usize % len,
        },
        1 => Edit::Insert {
            router,
            index: len,
            stmt: Stmt::StaticRoute {
                prefix: Prefix::from_octets(10, (pos % 200) as u8, 0, 0, 16),
                next_hop: acr_cfg::NextHop::Null0,
            },
        },
        2 => Edit::Replace {
            router,
            index: pos as usize % len,
            stmt: Stmt::PeerAs {
                peer: acr_cfg::PeerRef::Ip(Ipv4Addr::new(172, 16, 0, (pos % 20) as u8 + 1)),
                asn: Asn(65000 + u32::from(pos % 7)),
            },
        },
        3 => Edit::Insert {
            router,
            index: len,
            stmt: Stmt::Network(Prefix::from_octets(10, (pos % 200) as u8, 0, 0, 16)),
        },
        _ => Edit::Replace {
            router,
            index: pos as usize % len,
            stmt: Stmt::Remark("mutated".into()),
        },
    }
}

#[cfg(feature = "heavy-tests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine and the dense reference agree field-for-field — outcome
    /// maps (bests, rejections, rounds, flap fingerprints) and derivation
    /// arenas — for random injected bases × random follow-up patches,
    /// while the engine never does more per-router work.
    #[test]
    fn sparse_engine_equals_dense_engine(
        fi in any::<usize>(),
        seed in 0u64..64,
        ri in any::<usize>(),
        pos in any::<u16>(),
        kind in any::<u8>(),
        ri2 in any::<usize>(),
        pos2 in any::<u16>(),
        kind2 in any::<u8>(),
        two_edits in any::<bool>(),
    ) {
        let net = generate(&gen::wan(3, 4));
        // Base: a Table-1 incident (any of the nine fault classes), so
        // equivalence is checked on the configurations repair actually
        // simulates — broken ones — not just healthy networks.
        let incident = try_inject(TABLE1[fi % TABLE1.len()].0, &net, seed);
        prop_assume!(incident.is_some());
        let base_cfg = incident.unwrap().broken;

        let mut patch = Patch::single(edit_from(&base_cfg, ri, pos, kind));
        if two_edits {
            let Ok(mid) = patch.apply_cloned(&base_cfg) else {
                prop_assume!(false);
                unreachable!()
            };
            patch.push(edit_from(&mid, ri2, pos2, kind2));
        }
        prop_assume!(patch.apply_cloned(&base_cfg).is_ok());
        let patched = patch.apply_cloned(&base_cfg).unwrap();

        let sim = Simulator::new(&net.topo, &patched);
        let universe = sim.universe();
        let (d, s) = (dense(&sim, &universe), sparse(&sim, &universe));

        prop_assert_eq!(&d.outcomes, &s.outcomes);
        prop_assert_eq!(&d.arena, &s.arena);
        // Identical trajectories ⇒ identical round counts; the engine may
        // only *skip* router recomputations, never add any.
        prop_assert_eq!(d.work.rounds, s.work.rounds);
        prop_assert!(s.work.recomputed_routers <= d.work.recomputed_routers);
        prop_assert!(s.work.policy_evals <= d.work.policy_evals);
        prop_assert_eq!(
            s.work.recomputed_routers + s.work.skipped_routers,
            d.work.recomputed_routers
        );
    }
}

/// Every Table-1 class at its first injectable site of `wan(4,8)` — the
/// configurations the benchmark's workloads repair: outcomes and arenas
/// equal, trajectories equal round for round, and the engine's recomputed
/// + skipped routers are exactly the reference's recomputed.
#[test]
fn sparse_equals_dense_on_every_table1_class() {
    let net = generate(&gen::wan(4, 8));
    for (fault, _) in TABLE1 {
        let routers = net.cfg.routers().into_iter();
        let incident = (routers.filter_map(|r| inject_at(fault, &net, &net.cfg, r)))
            .next()
            .unwrap_or_else(|| panic!("{fault:?} has an injectable site"));
        let sim = Simulator::new(&net.topo, &incident.broken);
        let universe = sim.universe();
        let (d, s) = (dense(&sim, &universe), sparse(&sim, &universe));
        assert_eq!(d.outcomes, s.outcomes, "{fault:?}: outcomes");
        assert_eq!(d.arena, s.arena, "{fault:?}: arenas");
        assert_eq!(d.work.rounds, s.work.rounds, "{fault:?}: rounds");
        assert_eq!(
            s.work.recomputed_routers + s.work.skipped_routers,
            d.work.recomputed_routers,
            "{fault:?}: router work"
        );
    }
}

/// The Figure 2 incident oscillates: the engine must report the *same*
/// oscillation as the reference — same `first_seen_round`, same
/// `cycle_len`, same observed route sets, same rejections — not merely
/// "also flapping".
#[test]
fn fig2_flap_fingerprint_is_engine_invariant() {
    let fig2 = fig2_incident();
    let sim = Simulator::new(&fig2.topo, &fig2.broken);
    let universe = sim.universe();
    let (d, s) = (dense(&sim, &universe), sparse(&sim, &universe));

    let flap_prefix = p(acr_workloads::fig2::POP_B_PREFIX);
    match (&d.outcomes[&flap_prefix], &s.outcomes[&flap_prefix]) {
        (
            PrefixOutcome::Flapping {
                first_seen_round: fd,
                cycle_len: cd,
                observed: od,
                rejections: rd,
            },
            PrefixOutcome::Flapping {
                first_seen_round: fs,
                cycle_len: cs,
                observed: os,
                rejections: rs,
            },
        ) => {
            assert_eq!(fd, fs, "first_seen_round");
            assert_eq!(cd, cs, "cycle_len");
            assert_eq!(od, os, "observed routes");
            assert_eq!(rd, rs, "rejections");
        }
        (d, s) => panic!("PoP-B must flap under both engines, got {d:?} / {s:?}"),
    }
    assert_eq!(d.outcomes, s.outcomes);
    assert_eq!(d.arena, s.arena);
    // A flap revisits states, so the memo must be earning hits here.
    assert!(s.work.memo_hits > 0, "flap rounds must hit the memo");
}
