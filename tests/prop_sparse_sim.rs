//! Sparse worklist convergence ≡ dense reference engine, property-tested.
//!
//! The sparse engine (`run_prefix_sparse`) recomputes a router only when
//! a session neighbor's best route changed, memoizes policy transfers,
//! and detects cycles through an incrementally maintained state hash. Its
//! contract is **field-for-field equality** with the dense engine on
//! every prefix outcome — bests, rejection derivations, round counts,
//! flap periods — *and* on the derivation arena, whose content-addressed
//! node list is equal exactly when both engines intern the same
//! derivations in the same order.
//!
//! The property is exercised over random Table-1 fault injections (all
//! nine fault classes) crossed with random follow-up patches that include
//! session-shaping edits — the same adversarial surface `prop_delta_sim`
//! drives the delta compiler with — behind `heavy-tests` (vendored
//! proptest shim). Two fixed cases run in the default feature set: every
//! Table-1 class at its first injectable site of `wan(4,8)`, and the
//! Figure 2 flapping incident, whose oscillation fingerprint
//! (`first_seen_round`, `cycle_len`, observed routes) must be identical
//! under both engines. The product always runs the sparse engine, so
//! field-for-field equal simulator output is what makes the dense engine a
//! reference for it: equal outcomes and arenas imply equal repairs.

use acr::prelude::*;
use acr::workloads::{fig2_incident, inject_at, TABLE1};
use acr_sim::{ConvergeEngine, ConvergeWork, DerivArena, PolicyMemo, PrefixOutcome};
use std::collections::BTreeMap;

#[cfg(feature = "heavy-tests")]
use acr::workloads::try_inject;
#[cfg(feature = "heavy-tests")]
use proptest::prelude::{any, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig};

/// Materializes one edit against `cfg` from raw fuzz inputs — the same
/// shapes `prop_delta_sim` uses, session-shaping edits included, so the
/// sparse engine is tested on exactly the configurations the repair loop
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
                next_hop: acr::cfg::NextHop::Null0,
            },
        },
        2 => Edit::Replace {
            router,
            index: pos as usize % len,
            stmt: Stmt::PeerAs {
                peer: acr::cfg::PeerRef::Ip(acr::net_types::Ipv4Addr::new(
                    172,
                    16,
                    0,
                    (pos % 20) as u8 + 1,
                )),
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

/// Runs every prefix of `sim`'s universe under one explicit engine into a
/// fresh arena, returning (outcomes, arena, work).
fn run_engine(
    sim: &Simulator,
    engine: ConvergeEngine,
) -> (BTreeMap<Prefix, PrefixOutcome>, DerivArena, ConvergeWork) {
    let mut arena = DerivArena::new();
    let mut memo = PolicyMemo::new();
    let (outcomes, work) = sim.run_prefixes_with(&sim.universe(), &mut arena, engine, &mut memo);
    (outcomes, arena, work)
}

#[cfg(feature = "heavy-tests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse and dense engines agree field-for-field — outcome maps
    /// (bests, rejections, rounds, flap fingerprints) and derivation
    /// arenas — for random injected bases × random follow-up patches,
    /// while the sparse engine never does more per-router work.
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
        let net = generate(&acr::topo::gen::wan(3, 4));
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
        let (dense, dense_arena, dense_work) = run_engine(&sim, ConvergeEngine::Dense);
        let (sparse, sparse_arena, sparse_work) = run_engine(&sim, ConvergeEngine::Sparse);

        prop_assert_eq!(&dense, &sparse);
        prop_assert_eq!(&dense_arena, &sparse_arena);
        // Identical trajectories ⇒ identical round counts; the sparse
        // engine may only *skip* router recomputations, never add any.
        prop_assert_eq!(dense_work.rounds, sparse_work.rounds);
        prop_assert!(sparse_work.recomputed_routers <= dense_work.recomputed_routers);
        prop_assert!(sparse_work.policy_evals <= dense_work.policy_evals);
        prop_assert_eq!(
            sparse_work.recomputed_routers + sparse_work.skipped_routers,
            dense_work.recomputed_routers
        );
    }
}

/// Every Table-1 class at its first injectable site of `wan(4,8)` — the
/// configurations the benchmark's workloads repair: outcomes and arenas
/// equal, trajectories equal round for round, and the sparse engine's
/// recomputed + skipped routers are exactly the dense engine's recomputed.
#[test]
fn sparse_equals_dense_on_every_table1_class() {
    let net = generate(&acr::topo::gen::wan(4, 8));
    for (fault, _) in TABLE1 {
        let routers = net.cfg.routers().into_iter();
        let incident = (routers.filter_map(|r| inject_at(fault, &net, &net.cfg, r)))
            .next()
            .unwrap_or_else(|| panic!("{fault:?} has an injectable site"));
        let sim = Simulator::new(&net.topo, &incident.broken);
        let (dense, dense_arena, dense_work) = run_engine(&sim, ConvergeEngine::Dense);
        let (sparse, sparse_arena, sparse_work) = run_engine(&sim, ConvergeEngine::Sparse);
        assert_eq!(dense, sparse, "{fault:?}: outcomes");
        assert_eq!(dense_arena, sparse_arena, "{fault:?}: arenas");
        assert_eq!(dense_work.rounds, sparse_work.rounds, "{fault:?}: rounds");
        assert_eq!(
            sparse_work.recomputed_routers + sparse_work.skipped_routers,
            dense_work.recomputed_routers,
            "{fault:?}: router work"
        );
    }
}

/// The Figure 2 incident oscillates: the sparse engine must report the
/// *same* oscillation — same `first_seen_round`, same `cycle_len`, same
/// observed route sets, same rejections — not merely "also flapping".
#[test]
fn fig2_flap_fingerprint_is_engine_invariant() {
    let fig2 = fig2_incident();
    let sim = Simulator::new(&fig2.topo, &fig2.broken);
    let (dense, dense_arena, _) = run_engine(&sim, ConvergeEngine::Dense);
    let (sparse, sparse_arena, sparse_work) = run_engine(&sim, ConvergeEngine::Sparse);

    let flap_prefix: Prefix = acr::workloads::fig2::POP_B_PREFIX.parse().unwrap();
    match (&dense[&flap_prefix], &sparse[&flap_prefix]) {
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
    assert_eq!(dense, sparse);
    assert_eq!(dense_arena, sparse_arena);
    // A flap revisits states, so the memo must be earning hits here.
    assert!(sparse_work.memo_hits > 0, "flap rounds must hit the memo");
}
