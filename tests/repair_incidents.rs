//! ACR repairs every Table-1 misconfiguration class.
//!
//! For each of the paper's nine fault types, inject an observable
//! incident into a generated WAN and run localize–fix–validate. The
//! engine must produce a feasible update (every intent passes, nothing
//! flaps) for each class — the paper's central effectiveness claim that
//! "there are only 9 types of errors out of over 100 real-world
//! incidents", so a small template vocabulary covers them.

use acr::net_types::AsPath;
use acr::prelude::*;
use acr::sim::PrefixOutcome;
use acr_workloads::{inject_at, GeneratedNetwork, TABLE1};
use std::collections::BTreeMap;

fn wan() -> GeneratedNetwork {
    generate(&acr::topo::gen::wan(4, 8))
}

/// Runs one repair and holds it to what every job owes, whatever its
/// outcome: the candidate-accounting identity (generated = invalid +
/// lint-rejected + simulated + cached + flow-skipped, and attempted =
/// simulated + cached + flow-skipped), and — the one failure mode a
/// generate-and-validate repairer may not have — that a `Fixed` passes an
/// independent full verification of the repaired network with nothing
/// flapping, not merely the engine's own incremental verdict.
fn checked_repair(
    topo: &Topology,
    spec: &Spec,
    broken: &NetworkConfig,
    config: RepairConfig,
    what: &str,
) -> acr::core::RepairReport {
    let report = RepairEngine::new(topo, spec, config).repair(broken);
    report
        .check_accounting()
        .unwrap_or_else(|e| panic!("{what}: accounting violated: {e}"));
    if let RepairOutcome::Fixed { repaired, .. } = &report.outcome {
        let (v, out) = Verifier::new(topo, spec).run_full(repaired);
        assert!(
            v.all_passed(),
            "{what}: Fixed, yet {} properties fail a full verification",
            v.failed_count()
        );
        assert!(out.flapping().is_empty(), "{what}: repair left instability");
    }
    report
}

fn repair_and_check(net: &GeneratedNetwork, fault: FaultType, seed: u64) {
    let inc = try_inject(fault, net, seed)
        .unwrap_or_else(|| panic!("{fault} must be injectable into the WAN"));
    let config = RepairConfig {
        seed: 11,
        ..RepairConfig::default()
    };
    let report = checked_repair(
        &net.topo,
        &net.spec,
        &inc.broken,
        config,
        &fault.to_string(),
    );
    let RepairOutcome::Fixed { patch, .. } = &report.outcome else {
        panic!(
            "{fault}: not fixed after {} iterations / {} validations: {:?} ({})",
            report.iteration_count(),
            report.validations,
            report.outcome,
            inc.description,
        );
    };
    assert!(
        !patch.is_empty(),
        "{fault}: the incident had violations, so a fix must edit"
    );
}

/// Per prefix, every router's converged best route as (next hop,
/// learned from, AS path), indexed by router.
type Routing = BTreeMap<Prefix, Vec<Option<(Ipv4Addr, Option<RouterId>, AsPath)>>>;

/// The converged routing of `cfg`; a flapping prefix fails `what`.
fn converged_routing(topo: &Topology, cfg: &NetworkConfig, what: &str) -> Routing {
    let out = Simulator::new(topo, cfg).run();
    (out.outcomes.into_iter())
        .map(|(p, outcome)| {
            let PrefixOutcome::Converged { best, .. } = outcome else {
                panic!("{what}: {p} flaps");
            };
            let routes = best
                .into_iter()
                .map(|route| route.map(|r| (r.next_hop, r.learned_from, r.as_path)));
            (p, routes.collect())
        })
        .collect()
}

/// Every Table-1 class at every injectable site of the WAN under
/// `config`; returns `(jobs, fixed)`. Beyond `checked_repair`, the
/// intended network is the oracle: a `Fixed` must route exactly as the
/// configuration the fault was injected into, per prefix and router —
/// stronger than the spec, whose probes start at two remote routers.
fn sweep_every_site(net: &GeneratedNetwork, config: &RepairConfig) -> (usize, usize) {
    let intended = converged_routing(&net.topo, &net.cfg, "the intended network");
    let (mut jobs, mut fixed) = (0, 0);
    for (fault, _) in TABLE1 {
        for router in net.cfg.routers() {
            let Some(inc) = inject_at(fault, net, &net.cfg, router) else {
                continue;
            };
            let what = format!("{fault} at {router}");
            let report = checked_repair(&net.topo, &net.spec, &inc.broken, config.clone(), &what);
            jobs += 1;
            if let RepairOutcome::Fixed { repaired, .. } = &report.outcome {
                fixed += 1;
                let got = converged_routing(&net.topo, repaired, &what);
                let differs = |p: &Prefix| got.get(p) != intended.get(p);
                let keys = got.keys().chain(intended.keys());
                if let Some(p) = keys.filter(|p| differs(p)).min() {
                    panic!(
                        "{what}: Fixed, yet {p} routes unlike the intended network: \
                         {:?} instead of {:?}",
                        got.get(p),
                        intended.get(p)
                    );
                }
            }
        }
    }
    (jobs, fixed)
}

/// A `Fixed` is always fixed — the product-side twin of
/// `benchmark/tests/known_failures.rs`: every class × every injectable
/// site under the default configuration, each `Fixed` confirmed by a full
/// verification and by the intended network's routing.
/// `MissingRoutePolicy` on the last backbone router used to end `Fixed`
/// on a patch `run_full` rejects.
#[test]
fn every_fixed_passes_full_verification_at_every_site() {
    let (jobs, fixed) = sweep_every_site(&wan(), &RepairConfig::default());
    assert!(
        jobs >= 25 && fixed * 10 >= jobs * 9,
        "{fixed} of {jobs} fixed"
    );
}

/// The same sweep at twice the size: 56 jobs on `wan(8,16)`, of which
/// only `MissingRoutePolicy` at the last backbone router is not fixed.
#[test]
fn every_fixed_routes_as_intended_on_wan_8_16() {
    let net = generate(&acr::topo::gen::wan(8, 16));
    let (jobs, fixed) = sweep_every_site(&net, &RepairConfig::default());
    assert!(
        jobs >= 50 && fixed * 10 >= jobs * 9,
        "{fixed} of {jobs} fixed"
    );
}

/// The same sweep under brute force, and every scenario of the two-fault
/// corpus (judged on the spec its verifier sees) under beam search and
/// the default strategy.
#[cfg(feature = "heavy-tests")]
#[test]
fn every_fixed_passes_full_verification_under_every_strategy() {
    let net = wan();
    let brute = RepairConfig {
        strategy: Strategy::brute_force(),
        ..RepairConfig::default()
    };
    let (jobs, fixed) = sweep_every_site(&net, &brute);
    assert!(
        jobs >= 25 && fixed * 10 >= jobs * 9,
        "{fixed} of {jobs} fixed"
    );
    for scenario in corpus(&net, 2, 2024) {
        let spec = scenario.visible_spec(&net.spec);
        for strategy in [Strategy::beam(), Strategy::default()] {
            let what = format!("{} under {strategy:?}", scenario.label);
            let config = RepairConfig {
                strategy,
                ..RepairConfig::default()
            };
            checked_repair(&net.topo, &spec, &scenario.broken, config, &what);
        }
    }
}

/// Every class at its first observable site of `wan(64,128)`: 192
/// routers, whose backbone paths run past 64 hops, repair `Fixed`, each
/// confirmed by a fresh full verification.
#[cfg(feature = "heavy-tests")]
#[test]
fn every_class_repairs_at_192_routers() {
    let net = generate(&acr::topo::gen::wan(64, 128));
    for (fault, _) in TABLE1 {
        let inc = (net.cfg.routers().into_iter())
            .find_map(|r| inject_at(fault, &net, &net.cfg, r))
            .unwrap_or_else(|| panic!("{fault} must be injectable"));
        let what = format!("{fault} on wan(64,128)");
        let report = checked_repair(
            &net.topo,
            &net.spec,
            &inc.broken,
            RepairConfig::default(),
            &what,
        );
        assert!(report.outcome.is_fixed(), "{what}: {:?}", report.outcome);
    }
}

#[test]
fn repairs_missing_redistribution() {
    repair_and_check(&wan(), FaultType::MissingRedistribution, 0);
}

#[test]
fn repairs_missing_pbr_permit() {
    repair_and_check(&wan(), FaultType::MissingPbrPermit, 0);
}

#[test]
fn repairs_extra_pbr_redirect() {
    repair_and_check(&wan(), FaultType::ExtraPbrRedirect, 0);
}

#[test]
fn repairs_missing_peer_group() {
    repair_and_check(&wan(), FaultType::MissingPeerGroup, 0);
}

#[test]
fn repairs_extra_peer_group_item() {
    repair_and_check(&wan(), FaultType::ExtraPeerGroupItem, 0);
}

#[test]
fn repairs_missing_route_policy() {
    repair_and_check(&wan(), FaultType::MissingRoutePolicy, 0);
}

#[test]
fn repairs_stale_route_map() {
    repair_and_check(&wan(), FaultType::StaleRouteMap, 0);
}

#[test]
fn repairs_wrong_override_asn() {
    repair_and_check(&wan(), FaultType::WrongOverrideAsn, 0);
}

#[test]
fn repairs_missing_prefix_list_items() {
    repair_and_check(&wan(), FaultType::MissingPrefixListItems, 0);
}

/// The §6 universal (donor-copy) operator set alone repairs the omission
/// faults whose missing material exists verbatim on same-role donors.
/// (It deliberately cannot fix `missing redistribution of static route`:
/// the deleted static is address-bearing, and copying address-bearing
/// statements across devices is the conflict the paper warns about —
/// that class needs the curated templates' symbolization.)
#[test]
fn universal_operators_repair_omission_faults() {
    let net = wan();
    for fault in [FaultType::MissingRoutePolicy, FaultType::MissingPeerGroup] {
        let inc = try_inject(fault, &net, 0).unwrap();
        let config = RepairConfig {
            operators: acr::core::OperatorSet::Universal,
            seed: 5,
            ..RepairConfig::default()
        };
        let report = checked_repair(
            &net.topo,
            &net.spec,
            &inc.broken,
            config,
            &fault.to_string(),
        );
        assert!(
            report.outcome.is_fixed(),
            "{fault}: universal operators failed: {:?}",
            report.outcome
        );
    }
}

/// Combining both vocabularies never hurts: everything the curated set
/// fixes is still fixed.
#[test]
fn combined_operator_set_repairs_everything() {
    let net = wan();
    let inc = try_inject(FaultType::StaleRouteMap, &net, 0).unwrap();
    let engine = RepairEngine::new(
        &net.topo,
        &net.spec,
        RepairConfig {
            operators: acr::core::OperatorSet::Both,
            seed: 5,
            ..RepairConfig::default()
        },
    );
    assert!(engine.repair(&inc.broken).outcome.is_fixed());
}

/// The repair engine is deterministic: same seed, same outcome.
#[test]
fn repair_is_reproducible() {
    let net = wan();
    let inc = try_inject(FaultType::WrongOverrideAsn, &net, 0).unwrap();
    let run = |seed| {
        let engine = RepairEngine::new(
            &net.topo,
            &net.spec,
            RepairConfig {
                seed,
                ..RepairConfig::default()
            },
        );
        engine.repair(&inc.broken)
    };
    let (a, b) = (run(5), run(5));
    match (&a.outcome, &b.outcome) {
        (RepairOutcome::Fixed { patch: pa, .. }, RepairOutcome::Fixed { patch: pb, .. }) => {
            assert_eq!(pa, pb)
        }
        (x, y) => panic!("{x:?} vs {y:?}"),
    }
    assert_eq!(a.iteration_count(), b.iteration_count());
}
