//! Property tests for the two claims `acr-flow` stakes:
//!
//! 1. **Over-approximation.** Every route concrete simulation ever
//!    materializes — converged bests and routes observed inside a
//!    flapping cycle alike — is covered by an abstract may-fact:
//!    `may_have(router, prefix)` exists and its community may-set
//!    contains every community the concrete route carries (the one
//!    attribute the abstract route tracks). Fuzzed over topology families ×
//!    Table-1 fault injections behind `heavy-tests`; one fixed slice —
//!    every Table-1 class at its first injectable site of `wan(4,8)` and
//!    the Figure 2 flap — runs in the default feature set through the
//!    same checker.
//! 2. **Gate exactness.** Whenever [`patch_invisible`] proves a patch
//!    invisible to the spec's destination cones, a *full* simulation of
//!    the patched network produces the same verification the base got:
//!    record-for-record verdicts, violations, walk paths, and the same
//!    coverage matrix. This is the property that lets the repair engine
//!    serve gate-skipped candidates from the base verification with
//!    byte-identical reports. Behind `heavy-tests` (vendored proptest
//!    shim).

use acr_cfg::NetworkConfig;
use acr_flow::analyze;
use acr_net_types::RouterId;
use acr_sim::{PrefixOutcome, Simulator};
use acr_topo::{gen, Topology};
use acr_workloads::{fig2_incident, generate, inject_at, TABLE1};

#[cfg(feature = "heavy-tests")]
use {
    acr_cfg::{Edit, Patch, PlAction, Stmt},
    acr_flow::patch_invisible,
    acr_net_types::Prefix,
    acr_verify::{Verification, Verifier},
    acr_workloads::{try_inject, GeneratedNetwork},
    proptest::prelude::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig},
};

/// Claim 1 on one network: every route a full simulation materializes —
/// converged bests and flapping-cycle observations are both concrete
/// reachability witnesses — has an abstract fact that `covers` it.
/// `Err` names the first route that does not.
fn abstract_covers_concrete(topo: &Topology, cfg: &NetworkConfig) -> Result<(), String> {
    let facts = analyze(topo, cfg);
    let out = Simulator::new(topo, cfg).run();
    for (prefix, outcome) in &out.outcomes {
        let held: Vec<(RouterId, &acr_sim::Route)> = match outcome {
            PrefixOutcome::Converged { best, .. } => best
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().map(|r| (RouterId(i as u32), r)))
                .collect(),
            PrefixOutcome::Flapping { observed, .. } => observed
                .iter()
                .enumerate()
                .flat_map(|(i, rs)| rs.iter().map(move |r| (RouterId(i as u32), r)))
                .collect(),
        };
        for (router, route) in held {
            match facts.may_have(router, *prefix) {
                None => {
                    return Err(format!(
                        "concrete route for {prefix} at {router} has no abstract fact"
                    ))
                }
                Some(fact) if !fact.covers(route) => {
                    return Err(format!(
                        "abstract fact {fact:?} does not cover concrete {route:?} at {router}"
                    ))
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// The tier-1 slice of claim 1: every Table-1 class at its first
/// injectable site of `wan(4,8)` — the configurations the benchmark's
/// workloads repair — and the Figure 2 incident, whose flapping prefix
/// contributes every route observed inside the cycle.
#[test]
fn abstract_covers_concrete_on_every_table1_class() {
    let net = generate(&gen::wan(4, 8));
    for (fault, _) in TABLE1 {
        let routers = net.cfg.routers().into_iter();
        let incident = (routers.filter_map(|r| inject_at(fault, &net, &net.cfg, r)))
            .next()
            .unwrap_or_else(|| panic!("{fault:?} has an injectable site"));
        abstract_covers_concrete(&net.topo, &incident.broken)
            .unwrap_or_else(|e| panic!("{fault:?}: {e}"));
    }
    let fig2 = fig2_incident();
    abstract_covers_concrete(&fig2.topo, &fig2.broken).unwrap_or_else(|e| panic!("fig2: {e}"));
}

/// A Table-1 incident on a fuzz-chosen topology (the healthy network
/// when the chosen fault has no injection site on it).
#[cfg(feature = "heavy-tests")]
fn incident(shape: u8, a: u8, b: u8, fi: usize, seed: u64) -> (GeneratedNetwork, NetworkConfig) {
    let topo = match shape % 4 {
        0 => gen::wan(2 + (a % 2) as usize, 4 + (b % 4) as usize),
        1 => gen::ring(4 + (a % 4) as usize),
        2 => gen::leaf_spine(2, 4 + (b % 3) as usize),
        _ => gen::full_mesh(4 + (a % 3) as usize),
    };
    let net = generate(&topo);
    let (fault, _) = TABLE1[fi % TABLE1.len()];
    let cfg = match try_inject(fault, &net, seed) {
        Some(inc) => inc.broken,
        None => net.cfg.clone(),
    };
    (net, cfg)
}

/// The parts of a verification full simulation must reproduce for a
/// gate-served candidate: everything except `deriv_roots` (arena-relative
/// provenance handles; the engine keeps the base's, which resolve in the
/// persistent arena) and `flapping`/`session_diags` bookkeeping the
/// repair loop never reads per-candidate. The coverage matrix is
/// compared separately (it drives localization, so it must match too).
#[cfg(feature = "heavy-tests")]
#[allow(clippy::type_complexity)]
fn semantic_records(
    v: &Verification,
) -> Vec<(String, bool, &Option<acr_verify::Violation>, &Vec<RouterId>)> {
    v.records
        .iter()
        .map(|r| (r.property.clone(), r.passed, &r.violation, &r.path))
        .collect()
}

/// Builds one fuzzed candidate patch of the families the repair engine
/// actually emits (in-class replacements, identity edits, cancelling
/// insert/delete pairs). `None` when the chosen family has no site in
/// `cfg`.
#[cfg(feature = "heavy-tests")]
fn fuzz_patch(cfg: &NetworkConfig, kind: u8, ri: usize, si: usize, oct: u8) -> Option<Patch> {
    let routers = cfg.routers();
    let router = *routers.get(ri % routers.len())?;
    let dev = cfg.device(router)?;
    let stmts = dev.stmts();
    // Pick the si-th statement matching the family's shape.
    let pick = |f: &dyn Fn(&Stmt) -> bool| -> Option<(usize, Stmt)> {
        let sites: Vec<usize> = (0..stmts.len()).filter(|&i| f(&stmts[i])).collect();
        let &i = sites.get(si % sites.len().max(1))?;
        Some((i, stmts[i].clone()))
    };
    let prefix = Prefix::from_octets(10, oct, 0, 0, 16);
    match kind % 7 {
        0 => {
            let (i, _) = pick(&|s| matches!(s, Stmt::Remark(_)))?;
            Some(Patch::single(Edit::Replace {
                router,
                index: i,
                stmt: Stmt::Remark(format!("fuzz {oct}")),
            }))
        }
        1 => {
            let (i, s) = pick(&|s| matches!(s, Stmt::PrefixListEntry { .. }))?;
            let Stmt::PrefixListEntry { list, index, .. } = s else {
                unreachable!()
            };
            Some(Patch::single(Edit::Replace {
                router,
                index: i,
                stmt: Stmt::PrefixListEntry {
                    list,
                    index,
                    action: if oct.is_multiple_of(2) {
                        PlAction::Permit
                    } else {
                        PlAction::Deny
                    },
                    prefix,
                    ge: None,
                    le: None,
                },
            }))
        }
        2 => {
            let (i, s) = pick(&|s| matches!(s, Stmt::StaticRoute { .. }))?;
            let Stmt::StaticRoute { next_hop, .. } = s else {
                unreachable!()
            };
            Some(Patch::single(Edit::Replace {
                router,
                index: i,
                stmt: Stmt::StaticRoute { prefix, next_hop },
            }))
        }
        3 => {
            let (i, _) = pick(&|s| matches!(s, Stmt::Network(_)))?;
            Some(Patch::single(Edit::Replace {
                router,
                index: i,
                stmt: Stmt::Network(prefix),
            }))
        }
        4 => {
            let (i, _) = pick(&|s| matches!(s, Stmt::ApplyLocalPref(_)))?;
            Some(Patch::single(Edit::Replace {
                router,
                index: i,
                stmt: Stmt::ApplyLocalPref(50 + oct as u32),
            }))
        }
        5 => {
            // Identity: replace any statement with itself.
            let (i, s) = pick(&|_| true)?;
            Some(Patch::single(Edit::Replace {
                router,
                index: i,
                stmt: s,
            }))
        }
        _ => {
            // A cancelling insert/delete pair (crossover splice shape).
            let at = si % (stmts.len() + 1);
            let mut patch = Patch::single(Edit::Insert {
                router,
                index: at,
                stmt: Stmt::Remark("spliced".into()),
            });
            patch.edits.push(Edit::Delete { router, index: at });
            Some(patch)
        }
    }
}

#[cfg(feature = "heavy-tests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Claim 1: the abstract may-propagation relation covers every
    /// concrete route, across topology families and Table-1 faults.
    #[test]
    fn abstract_facts_cover_concrete_reachability(
        shape in any::<u8>(), a in any::<u8>(), b in any::<u8>(),
        fi in any::<usize>(), seed in any::<u64>(),
    ) {
        let (net, cfg) = incident(shape, a, b, fi, seed);
        let covered = abstract_covers_concrete(&net.topo, &cfg);
        prop_assert!(covered.is_ok(), "{}", covered.unwrap_err());
    }

    /// Claim 2: a gate-proved-invisible patch full-simulates to the base
    /// verification (modulo provenance handles), so serving the base is
    /// exact.
    #[test]
    fn gate_served_candidates_match_full_simulation(
        fi in any::<usize>(), seed in any::<u64>(),
        kind in any::<u8>(), ri in any::<usize>(), si in any::<usize>(), oct in any::<u8>(),
    ) {
        let net = generate(&gen::wan(3, 4));
        let (fault, _) = TABLE1[fi % TABLE1.len()];
        let broken = match try_inject(fault, &net, seed) {
            Some(inc) => inc.broken,
            None => net.cfg.clone(),
        };
        let Some(patch) = fuzz_patch(&broken, kind, ri, si, oct) else { return };
        let protected: Vec<Prefix> = net.spec.properties.iter().map(|p| p.hs.dst).collect();
        if !patch_invisible(&broken, &patch, &protected) {
            return; // nothing proven, nothing to check
        }
        let Ok(patched) = patch.apply_cloned(&broken) else {
            // The gate replays the patch itself, so a proved patch is
            // applicable by construction.
            prop_assert!(false, "gate proved an inapplicable patch");
            return;
        };
        let verifier = Verifier::new(&net.topo, &net.spec);
        let (v_base, _) = verifier.run_full(&broken);
        let (v_cand, _) = verifier.run_full(&patched);
        prop_assert_eq!(semantic_records(&v_base), semantic_records(&v_cand));
        prop_assert_eq!(&v_base.matrix, &v_cand.matrix);
    }
}

/// The exactness property must not hold vacuously. On a *healthy*
/// generated network every statement sits inside some protected cone,
/// so cone-based proofs need the spare/dead configuration real networks
/// accumulate: salt one router with a remark, an unreferenced prefix
/// list and a detached route-policy, then sweep the fuzz families. The
/// gate must prove a healthy number of patches — including ones that
/// change the rendered configuration (cone reasoning, not just the
/// identity fast path) — and each proof must full-simulate to the base
/// verification.
#[cfg(feature = "heavy-tests")]
#[test]
fn gate_fires_on_the_fuzzed_families() {
    let net = generate(&gen::wan(3, 4));
    let mut cfg = net.cfg.clone();
    let r0 = cfg.routers()[0];
    let dev = cfg.device(r0).unwrap();
    let salted_text = format!(
        "{}description spare capacity\n\
         ip prefix-list UNUSED index 10 permit 10.201.0.0 16\n\
         route-policy DEAD permit node 10\n\
         apply local-preference 50\n",
        dev.to_text()
    );
    let name = dev.name().to_string();
    cfg.insert(
        r0,
        acr_cfg::parse::parse_device(&name, &salted_text).expect("salted config parses"),
    );

    let protected: Vec<Prefix> = net.spec.properties.iter().map(|p| p.hs.dst).collect();
    let verifier = Verifier::new(&net.topo, &net.spec);
    let (v_base, _) = verifier.run_full(&cfg);
    let (mut proved, mut proved_changing) = (0usize, 0usize);
    for kind in 0..7u8 {
        for ri in 0..6usize {
            for si in 0..4usize {
                for oct in [3u8, 77, 201] {
                    let Some(patch) = fuzz_patch(&cfg, kind, ri, si, oct) else {
                        continue;
                    };
                    if !patch_invisible(&cfg, &patch, &protected) {
                        continue;
                    }
                    proved += 1;
                    let patched = patch.apply_cloned(&cfg).expect("proved patches apply");
                    if patched != cfg {
                        proved_changing += 1;
                    }
                    let (v_cand, _) = verifier.run_full(&patched);
                    assert_eq!(
                        semantic_records(&v_base),
                        semantic_records(&v_cand),
                        "gate-proved patch changed a verdict: {patch}"
                    );
                    assert_eq!(v_base.matrix, v_cand.matrix, "coverage drifted: {patch}");
                }
            }
        }
    }
    assert!(proved >= 10, "only {proved} patches proved invisible");
    assert!(
        proved_changing > 0,
        "every proved patch was the identity — the cone analysis never fired"
    );
}
