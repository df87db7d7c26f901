//! Failure-mode and edge-case behaviour of the repair engine.

use acr::prelude::*;
use acr_verify::Verifier;

fn wan() -> acr::workloads::GeneratedNetwork {
    generate(&acr::topo::gen::wan(3, 4))
}

/// Contradictory intents (reach X and isolate X over the same header
/// space) admit no feasible update; the engine must terminate cleanly —
/// via candidate exhaustion or the iteration cap — rather than loop.
#[test]
fn contradictory_spec_terminates_without_fix() {
    let net = wan();
    let dst = net.topo.router(RouterId(3)).attached[0];
    let src = net.topo.router(RouterId(4)).attached[0];
    let start = RouterId(4);
    let spec = Spec::new()
        .with(Property::reach("must-reach", start, src, dst))
        .with(Property::isolate("must-not-reach", start, src, dst));
    let engine = RepairEngine::new(
        &net.topo,
        &spec,
        RepairConfig {
            max_iterations: 30,
            ..RepairConfig::default()
        },
    );
    let report = engine.repair(&net.cfg);
    match report.outcome {
        RepairOutcome::Fixed { .. } => {
            panic!("a flow cannot both reach and not reach its destination")
        }
        RepairOutcome::NoCandidates { best_fitness, .. }
        | RepairOutcome::IterationLimit { best_fitness, .. } => {
            assert!(best_fitness >= 1, "at least one intent stays violated");
        }
    }
    assert!(report.iteration_count() <= 30);
}

/// The iteration cap is honored exactly.
#[test]
fn iteration_cap_is_respected() {
    let net = wan();
    let incident = try_inject(FaultType::MissingPeerGroup, &net, 0).unwrap();
    let engine = RepairEngine::new(
        &net.topo,
        &net.spec,
        RepairConfig {
            max_iterations: 1,
            // Single mutation per iteration: too little to assemble the
            // multi-edit repair in one round.
            strategy: Strategy::Genetic {
                mutations: 1,
                crossovers: 0,
                top_k: 3,
            },
            ..RepairConfig::default()
        },
    );
    let report = engine.repair(&incident.broken);
    assert!(report.iteration_count() <= 1);
    assert!(
        !report.outcome.is_fixed(),
        "a 5-edit repair cannot land in one single-mutation iteration"
    );
}

/// Multiple samples per property sharpen the spectrum without changing
/// verdicts on a deterministic network.
#[test]
fn multi_sample_suites_agree_on_verdicts() {
    let net = wan();
    let incident = try_inject(FaultType::WrongOverrideAsn, &net, 0).unwrap();
    let v1 = Verifier::with_samples(&net.topo, &net.spec, 1);
    let v3 = Verifier::with_samples(&net.topo, &net.spec, 3);
    let (r1, _) = v1.run_full(&incident.broken);
    let (r3, _) = v3.run_full(&incident.broken);
    assert_eq!(r3.records.len(), 3 * r1.records.len());
    // Per-property verdicts agree across sampling levels (properties are
    // prefix-granular here, so every sample of a property shares a fate).
    for rec1 in &r1.records {
        let all_same = r3
            .records
            .iter()
            .filter(|r| r.property == rec1.property)
            .all(|r| r.passed == rec1.passed);
        assert!(
            all_same,
            "property {} diverges across samples",
            rec1.property
        );
    }
    // And the repair the engine finds on its one-sample suite passes the
    // larger suite too.
    let engine = RepairEngine::with_defaults(&net.topo, &net.spec);
    let RepairOutcome::Fixed { repaired, .. } = engine.repair(&incident.broken).outcome else {
        panic!("{} not repaired", incident.fault);
    };
    assert!(v3.run_full(&repaired).0.all_passed());
}

/// An incident on a network with an empty spec is vacuously "repaired"
/// (nothing to violate).
#[test]
fn empty_spec_is_vacuously_fixed() {
    let net = wan();
    let spec = Spec::new();
    let engine = RepairEngine::with_defaults(&net.topo, &spec);
    let report = engine.repair(&net.cfg);
    assert!(report.outcome.is_fixed());
    assert_eq!(report.validations, 0);
}

/// Compound incidents across *different* devices repair too (the
/// evolution accretes edits on both).
#[test]
fn compound_cross_device_incident_repairs() {
    let net = wan();
    let a = try_inject(FaultType::WrongOverrideAsn, &net, 0).unwrap();
    // Find a second fault on a different router.
    let b = (0..12u64)
        .filter_map(|s| try_inject(FaultType::StaleRouteMap, &net, s))
        .find(|b| b.patch.routers() != a.patch.routers())
        .expect("a second, distinct-device fault");
    let compound = a.patch.concat(&b.patch);
    let Ok(broken) = compound.apply_cloned(&net.cfg) else {
        // Index collision between the two patches — rebuild sequentially.
        let broken = a.patch.apply_cloned(&net.cfg).unwrap();
        let broken = b.patch.apply_cloned(&broken).unwrap();
        run_compound(&net, broken);
        return;
    };
    run_compound(&net, broken);
}

fn run_compound(net: &acr::workloads::GeneratedNetwork, broken: NetworkConfig) {
    let verifier = Verifier::new(&net.topo, &net.spec);
    let (v, _) = verifier.run_full(&broken);
    if v.all_passed() {
        return; // faults cancelled out; nothing to assert
    }
    let engine = RepairEngine::with_defaults(&net.topo, &net.spec);
    let report = engine.repair(&broken);
    let RepairOutcome::Fixed { repaired, .. } = report.outcome else {
        panic!("compound incident not fixed: {:?}", report.iterations);
    };
    let (v2, _) = verifier.run_full(&repaired);
    assert!(v2.all_passed());
}

/// The single-patch ablation is one round of brute force: every
/// candidate is one template application to the original configuration,
/// so on a two-fault scenario the run takes exactly one iteration and its
/// best patch holds at most one fix from it.
#[test]
fn one_round_of_brute_force_is_a_single_patch() {
    let net = generate(&acr::topo::gen::wan(4, 8));
    let scenarios = corpus(&net, 1, 2024);
    assert!(scenarios.iter().any(|s| s.faults.len() == 2));
    for scenario in scenarios.iter().filter(|s| s.faults.len() == 2) {
        let spec = scenario.visible_spec(&net.spec);
        let engine = RepairEngine::new(
            &net.topo,
            &spec,
            RepairConfig {
                seed: 11,
                strategy: Strategy::brute_force(),
                max_iterations: 1,
                ..RepairConfig::default()
            },
        );
        let report = engine.repair(&scenario.broken);
        assert_eq!(report.iterations.len(), 1, "{}", scenario.label);
        let fixes = report
            .attribution
            .iter()
            .filter(|s| s.iteration == 1)
            .count();
        assert!(fixes <= 1, "{}: {:?}", scenario.label, report.attribution);
        assert!(
            matches!(
                report.outcome,
                RepairOutcome::Fixed { .. } | RepairOutcome::IterationLimit { .. }
            ),
            "{}: one round ends fixed or at the cap",
            scenario.label
        );
    }
}
