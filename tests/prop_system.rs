//! System-level property tests spanning the whole stack.
//!
//! The two most load-bearing invariants:
//!
//! 1. **Incremental ≡ full**: for any single-edit patch on a generated
//!    network, the DNA-style incremental verifier and a from-scratch full
//!    verification agree on every verdict and every coverage set.
//! 2. **Simulator determinism and sanity**: repeated runs are identical;
//!    no converged best route ever carries its holder's own AS in the
//!    path unless a policy overwrote it.
//!
//! The proptest runs behind `heavy-tests` (vendored proptest shim). Its
//! checker also runs in the default feature set on a fixed slice: every
//! edit kind at every router it can land on, at two positions.

use acr::prelude::*;
use acr::workloads::GeneratedNetwork;
use acr_sim::PrefixOutcome;
use acr_verify::Verifier;

#[cfg(feature = "heavy-tests")]
use proptest::prelude::{any, prop_assert_eq, prop_assume, proptest, ProptestConfig};

fn wan() -> GeneratedNetwork {
    generate(&acr::topo::gen::wan(3, 4))
}

/// Materializes a single edit on the generated WAN from raw fuzz inputs.
/// Kinds 0–2 land anywhere; kinds 3–6 are policy-shaped and land on a
/// backbone router, whose customer sessions bind `Override_Cust` — the
/// edits whose effect reaches prefixes that hold none of the edited
/// lines. Kind 5 needs a bound policy nothing defines, so it first takes
/// the definition out of `net.cfg` itself.
fn edit_from(net: &mut GeneratedNetwork, ri: usize, pos: u16, kind: u8) -> Patch {
    let routers = net.cfg.routers();
    if kind % 7 >= 3 {
        let with_policy = |r: &RouterId| {
            let stmts = net.cfg.device(*r).unwrap().stmts();
            stmts
                .iter()
                .any(|s| matches!(s, Stmt::RoutePolicyDef { .. }))
        };
        let backbone: Vec<RouterId> = routers.iter().copied().filter(with_policy).collect();
        return policy_edit(net, backbone[ri % backbone.len()], pos, kind % 7);
    }
    let router = routers[ri % routers.len()];
    let len = net.cfg.device(router).unwrap().len();
    match kind % 7 {
        0 => Patch::single(Edit::Delete {
            router,
            index: pos as usize % len,
        }),
        1 => Patch::single(Edit::Insert {
            router,
            index: len, // append keeps block contexts intact
            stmt: Stmt::StaticRoute {
                prefix: Prefix::from_octets(10, (pos % 200) as u8, 0, 0, 16),
                next_hop: acr::cfg::NextHop::Null0,
            },
        }),
        _ => Patch::single(Edit::Replace {
            router,
            index: pos as usize % len,
            stmt: Stmt::Remark("mutated".into()),
        }),
    }
}

fn policy_edit(net: &mut GeneratedNetwork, router: RouterId, pos: u16, kind: u8) -> Patch {
    let stmts = net.cfg.device(router).unwrap().stmts().to_vec();
    let at = |pred: fn(&Stmt) -> bool| stmts.iter().position(pred).unwrap();
    let header = at(|s| matches!(s, Stmt::RoutePolicyDef { .. }));
    let Stmt::RoutePolicyDef { name, .. } = &stmts[header] else {
        unreachable!()
    };
    let block_end = header
        + 1
        + (stmts[header + 1..].iter())
            .position(|s| s.required_block().is_none())
            .unwrap();
    let node = |action| Stmt::RoutePolicyDef {
        name: name.clone(),
        action,
        node: 20,
    };
    match kind {
        // A catch-all node behind the bound policy's only node: what fell
        // through to the implicit deny is now permitted.
        3 => Patch::single(Edit::Insert {
            router,
            index: block_end,
            stmt: node(acr::cfg::PlAction::Permit),
        }),
        // The node loses its `if-match` and matches everything.
        4 => Patch::single(Edit::Delete {
            router,
            index: at(|s| matches!(s, Stmt::IfMatchPrefixList(_))),
        }),
        // Undefined (permits everything) → defined as deny-all.
        5 => {
            let block = (header..block_end).rev();
            let undefine: Vec<Edit> = block.map(|index| Edit::Delete { router, index }).collect();
            Patch { edits: undefine }.apply(&mut net.cfg).unwrap();
            Patch::single(Edit::Insert {
                router,
                index: stmts.len() - (block_end - header),
                stmt: node(acr::cfg::PlAction::Deny),
            })
        }
        // A prefix-list entry moves to another customer's /16.
        _ => {
            let index = at(|s| matches!(s, Stmt::PrefixListEntry { .. }));
            let mut stmt = stmts[index].clone();
            if let Stmt::PrefixListEntry { prefix, .. } = &mut stmt {
                *prefix = Prefix::from_octets(10, (pos % 8) as u8, 0, 0, 16);
            }
            Patch::single(Edit::Replace {
                router,
                index,
                stmt,
            })
        }
    }
}

/// Commits `net.cfg`, validates `patch` (which turns it into `candidate`)
/// against the commit, and compares with a full verification of
/// `candidate`: the failed count, every record's verdict, violation and
/// path, and every test's coverage.
fn incremental_agrees_with_full(
    net: &GeneratedNetwork,
    patch: &Patch,
    candidate: &NetworkConfig,
) -> Result<(), String> {
    let mut iv = IncrementalVerifier::new(&net.topo, &net.spec);
    iv.commit(&net.cfg);
    let v_inc = iv.verify_candidate(candidate, patch);
    let verifier = Verifier::new(&net.topo, &net.spec);
    let (v_full, _) = verifier.run_full(candidate);
    if v_inc.failed_count() != v_full.failed_count() {
        let (a, b) = (v_inc.failed_count(), v_full.failed_count());
        return Err(format!("{a} failed incrementally, {b} in full"));
    }
    for (a, b) in v_inc.records.iter().zip(&v_full.records) {
        if (a.passed, &a.violation, &a.path) != (b.passed, &b.violation, &b.path) {
            return Err(format!("test {}: {a:?} vs {b:?}", a.id));
        }
    }
    let compiled = acr_sim::CompiledBase::new(&net.topo, candidate);
    let inc_coverage = verifier.coverage(&v_inc, iv.arena(), compiled.models());
    for (a, b) in inc_coverage.tests().iter().zip(v_full.matrix.tests()) {
        if a.lines != b.lines {
            return Err(format!(
                "coverage of {}: {:?} vs {:?}",
                a.test, a.lines, b.lines
            ));
        }
    }
    Ok(())
}

#[cfg(feature = "heavy-tests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(56))]

    /// Incremental candidate validation agrees with full verification on
    /// verdicts, violations and coverage — for arbitrary single edits,
    /// including ones that break parsing-level invariants semantically.
    #[test]
    fn incremental_equals_full(ri in any::<usize>(), pos in any::<u16>(), kind in any::<u8>()) {
        let mut net = wan();
        let patch = edit_from(&mut net, ri, pos, kind);
        prop_assume!(patch.apply_cloned(&net.cfg).is_ok());
        let candidate = patch.apply_cloned(&net.cfg).unwrap();
        prop_assert_eq!(incremental_agrees_with_full(&net, &patch, &candidate), Ok(()));
    }
}

/// The proptest's fixed tier-1 slice: each of the seven edit kinds at
/// every router it can land on (the policy-shaped kinds land on the
/// backbone routers) and at each of the first 16 positions.
#[test]
fn incremental_equals_full_on_every_edit_kind_and_router() {
    let routers = wan().cfg.routers().len();
    let mut checked = 0usize;
    for kind in 0..7u8 {
        for ri in 0..routers {
            for pos in 0..16u16 {
                let mut net = wan();
                let patch = edit_from(&mut net, ri, pos, kind);
                let Ok(candidate) = patch.apply_cloned(&net.cfg) else {
                    continue;
                };
                let what = format!("kind {kind}, router {ri}, pos {pos}: {patch}");
                assert_eq!(
                    incremental_agrees_with_full(&net, &patch, &candidate),
                    Ok(()),
                    "{what}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 7 * routers * 16, "every edit applies");
}

/// The strategy above only varies through the deterministic runner; cover
/// real edit diversity with an explicit sweep over every statement of
/// every device (exhaustive single-deletes — slow-ish but decisive).
#[test]
fn incremental_equals_full_for_every_single_delete() {
    let net = wan();
    let verifier = Verifier::new(&net.topo, &net.spec);
    let mut checked = 0usize;
    for router in net.cfg.routers() {
        let len = net.cfg.device(router).unwrap().len();
        // Sample every third statement to keep runtime reasonable while
        // still crossing every block kind.
        for index in (0..len).step_by(3) {
            let patch = Patch::single(Edit::Delete { router, index });
            let Ok(candidate) = patch.apply_cloned(&net.cfg) else {
                continue;
            };
            let mut iv = IncrementalVerifier::new(&net.topo, &net.spec);
            iv.commit(&net.cfg);
            let v_inc = iv.verify_candidate(&candidate, &patch);
            let (v_full, _) = verifier.run_full(&candidate);
            assert_eq!(
                v_inc.failed_count(),
                v_full.failed_count(),
                "delete {router}@{index}"
            );
            for (a, b) in v_inc.records.iter().zip(&v_full.records) {
                assert_eq!(a.passed, b.passed, "delete {router}@{index}, test {}", a.id);
            }
            checked += 1;
        }
    }
    assert!(checked > 20, "swept {checked} deletions");
}

/// A route's protocol key: every field but the derivation id and the
/// communities.
fn key(
    r: &acr_sim::Route,
) -> (
    Prefix,
    &acr::net_types::AsPath,
    u32,
    u32,
    Ipv4Addr,
    Option<RouterId>,
) {
    (
        r.prefix,
        &r.as_path,
        r.local_pref,
        r.med,
        r.next_hop,
        r.learned_from,
    )
}

/// Two simulations of the same inputs are bit-identical in every
/// protocol-visible respect.
#[test]
fn simulation_is_deterministic() {
    let net = wan();
    let sim1 = Simulator::new(&net.topo, &net.cfg);
    let sim2 = Simulator::new(&net.topo, &net.cfg);
    let o1 = sim1.run();
    let o2 = sim2.run();
    assert_eq!(o1.outcomes.len(), o2.outcomes.len());
    for (p, a) in &o1.outcomes {
        let b = &o2.outcomes[p];
        match (a, b) {
            (
                PrefixOutcome::Converged {
                    best: ba,
                    rounds: ra,
                    ..
                },
                PrefixOutcome::Converged {
                    best: bb,
                    rounds: rb,
                    ..
                },
            ) => {
                assert_eq!(ra, rb, "{p}");
                let ka: Vec<_> = ba.iter().map(|r| r.as_ref().map(key)).collect();
                let kb: Vec<_> = bb.iter().map(|r| r.as_ref().map(key)).collect();
                assert_eq!(ka, kb, "{p}");
            }
            (
                PrefixOutcome::Flapping { cycle_len: ca, .. },
                PrefixOutcome::Flapping { cycle_len: cb, .. },
            ) => assert_eq!(ca, cb, "{p}"),
            _ => panic!("{p}: outcome kinds diverge"),
        }
    }
}

/// AS-path sanity: in a converged healthy WAN, no router holds a best
/// route whose path contains its own AS (no policy here overwrites, so
/// loop prevention must have filtered every echo).
#[test]
fn no_self_as_in_converged_paths_without_overwrite() {
    // Build a WAN variant whose backbones do NOT use overwrite policies:
    // distinct customer ASes, plain peering.
    let mut b = acr::topo::TopologyBuilder::new();
    let r0 = b.router("X0", Role::Backbone);
    let r1 = b.router("X1", Role::Backbone);
    let r2 = b.router("X2", Role::Backbone);
    b.link(r0, r1);
    b.link(r1, r2);
    b.attach(r0, "10.0.0.0/16".parse().unwrap());
    b.attach(r2, "10.2.0.0/16".parse().unwrap());
    let topo = b.build();
    let mut cfg = NetworkConfig::new();
    let texts = [
        "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n",
        "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n",
        "bgp 65002\n network 10.2.0.0 16\n peer 172.16.0.5 as-number 65001\n",
    ];
    for (r, t) in topo.routers().iter().zip(texts) {
        cfg.insert(
            r.id,
            acr::cfg::parse::parse_device(r.name.clone(), t).unwrap(),
        );
    }
    let sim = Simulator::new(&topo, &cfg);
    let out = sim.run();
    for (p, o) in &out.outcomes {
        let PrefixOutcome::Converged { best, .. } = o else {
            panic!("{p} must converge");
        };
        for (i, route) in best.iter().enumerate() {
            let Some(route) = route else { continue };
            let own = Asn(65000 + i as u32);
            assert!(
                !route.as_path.contains(own),
                "{p}: router {i} holds its own AS in {:?}",
                route.as_path
            );
        }
    }
}

/// Repairing a healthy network is the identity.
#[test]
fn repairing_healthy_network_is_noop() {
    let net = wan();
    let engine = RepairEngine::with_defaults(&net.topo, &net.spec);
    let report = engine.repair(&net.cfg);
    let RepairOutcome::Fixed { patch, repaired } = report.outcome else {
        panic!();
    };
    assert!(patch.is_empty());
    assert_eq!(repaired.fingerprint(), net.cfg.fingerprint());
    assert_eq!(report.validations, 0);
}
