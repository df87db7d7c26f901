//! Composed-fault repair soundness, property-tested.
//!
//! Two system-level contracts of the scenario corpus:
//!
//! 1. **Composed-fault soundness** — when the repair engine *accepts* a
//!    patch for a multi-fault incident (any scenario family, random
//!    topology sizes, beam search over multi-patch candidates), applying
//!    that patch and re-running a **fresh full simulation** against the
//!    spec the engine saw must clear every one of its failing
//!    properties. The engine's internal incremental validation is an
//!    optimization; acceptance is only sound if the unoptimized oracle
//!    agrees — across faults that *compose* (mask, cascade, overlap),
//!    not just Table-1 singletons. Every report must also satisfy the
//!    candidate-accounting identity.
//!
//!    The same oracle check runs over **Table-1 singletons** under each
//!    search strategy (genetic, brute-force, beam) on random topology
//!    sizes — the fixed-topology Table-1 sweep lives in
//!    `repair_incidents.rs`.
//!
//! 2. **Observability-mask consistency** — a verifier running the
//!    masked spec must agree verdict-for-verdict with the full verifier
//!    on every *visible* property, for random configs (healthy and
//!    broken) × random masks. Partial observability may hide failures;
//!    it must never invent or flip one.
//!
//! The proptests run behind `heavy-tests` (vendored proptest shim). Their
//! three checkers also run in the default feature set on a fixed slice of
//! `wan(3,4)`: every scenario family at its first composable seed, every
//! Table-1 class at its first injectable seed under the three strategies
//! in turn, and every class's broken network and the healthy one under
//! two masks.

use acr::core::{RepairOutcome, Strategy};
use acr::prelude::*;
use acr::scenarios::{compose, Scenario, ScenarioFamily};
use acr::workloads::{try_inject, GeneratedNetwork, Incident, TABLE1};
use std::collections::BTreeSet;

#[cfg(feature = "heavy-tests")]
use proptest::prelude::{any, prop_assert_eq, prop_assume, proptest, ProptestConfig};

fn net_for(w: usize, h: usize) -> GeneratedNetwork {
    generate(&acr::topo::gen::wan(3 + w % 2, 4 + h % 5))
}

/// Per-property verdict map (a property passes iff all its tests pass).
fn verdicts(topo: &Topology, spec: &Spec, cfg: &NetworkConfig) -> Vec<(String, bool)> {
    let v = Verifier::new(topo, spec).run_full(cfg).0;
    let mut out: Vec<(String, bool)> = Vec::new();
    for r in &v.records {
        match out.iter_mut().find(|(p, _)| p == &r.property) {
            Some((_, ok)) => *ok &= r.passed,
            None => out.push((r.property.clone(), r.passed)),
        }
    }
    out
}

/// The strategies the Table-1 property searches under, by index.
fn strategy(i: usize) -> Strategy {
    [
        Strategy::default(),
        Strategy::brute_force(),
        Strategy::beam(),
    ][i % 3]
        .clone()
}

/// A report satisfies the accounting identity, and a `Fixed` patch
/// passes every test of `spec` under a fresh full simulation of `broken`
/// patched — with an attribution covering the whole patch.
fn report_is_sound(
    net: &GeneratedNetwork,
    spec: &Spec,
    broken: &NetworkConfig,
    report: &acr::core::RepairReport,
) -> Result<(), String> {
    report
        .check_accounting()
        .map_err(|e| format!("accounting violated: {e}"))?;
    if let RepairOutcome::Fixed { patch, .. } = &report.outcome {
        let repaired = patch.apply_cloned(broken).expect("patch applies");
        let failed = Verifier::new(&net.topo, spec)
            .run_full(&repaired)
            .0
            .failed_count();
        if failed != 0 {
            return Err(format!(
                "accepted repair fails {failed} tests under full simulation"
            ));
        }
        let attributed: usize = report.attribution.iter().map(|s| s.edits).sum();
        if attributed != patch.len() {
            return Err(format!(
                "attribution covers {attributed} of {} edits",
                patch.len()
            ));
        }
    }
    Ok(())
}

/// Contract 1 on a composed scenario: a beam repair against what the
/// scenario lets the engine observe.
fn composed_repair_is_sound(net: &GeneratedNetwork, scenario: &Scenario) -> Result<(), String> {
    let spec = scenario.visible_spec(&net.spec);
    let config = RepairConfig {
        strategy: Strategy::beam(),
        tags: scenario.tags(),
        ..RepairConfig::default()
    };
    let report = RepairEngine::new(&net.topo, &spec, config).repair(&scenario.broken);
    report_is_sound(net, &spec, &scenario.broken, &report)
        .map_err(|e| format!("{}: {e}", scenario.label))
}

/// Contract 1 on a Table-1 singleton, under strategy `strat`.
fn table1_repair_is_sound(
    net: &GeneratedNetwork,
    incident: &Incident,
    strat: usize,
    seed: u64,
) -> Result<(), String> {
    let config = RepairConfig {
        seed,
        strategy: strategy(strat),
        ..RepairConfig::default()
    };
    let report = RepairEngine::new(&net.topo, &net.spec, config).repair(&incident.broken);
    report_is_sound(net, &net.spec, &incident.broken, &report)
        .map_err(|e| format!("{} (strategy {strat}): {e}", incident.fault))
}

/// Contract 2: every masked verdict is about a visible property and
/// matches the full verifier's, and the mask hides exactly the invisible
/// properties.
fn masked_verdicts_agree(
    net: &GeneratedNetwork,
    cfg: &NetworkConfig,
    mask: &ObsMask,
) -> Result<(), String> {
    let masked_spec = mask.restrict(&net.spec);
    let full = verdicts(&net.topo, &net.spec, cfg);
    let masked = verdicts(&net.topo, &masked_spec, cfg);
    let visible: BTreeSet<&str> = mask
        .visible()
        .filter_map(|i| net.spec.properties.get(i))
        .map(|p| p.name.as_str())
        .collect();
    for (prop, ok) in &masked {
        if !visible.contains(prop.as_str()) {
            return Err(format!("{prop}: not visible"));
        }
        let full_ok = full
            .iter()
            .find(|(p, _)| p == prop)
            .map(|(_, ok)| *ok)
            .expect("property exists under full observability");
        if *ok != full_ok {
            return Err(format!("{prop}: masked verdict flipped"));
        }
    }
    if masked.len() != visible.len() {
        return Err(format!(
            "{} masked verdicts, {} visible properties",
            masked.len(),
            visible.len()
        ));
    }
    Ok(())
}

#[cfg(feature = "heavy-tests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Accepted multi-patch repairs are sound under full simulation.
    #[test]
    fn accepted_composed_repair_clears_all_failing_properties(
        w in any::<usize>(),
        h in any::<usize>(),
        fam in any::<usize>(),
        seed in 0u64..24,
    ) {
        let net = net_for(w, h);
        let family = ScenarioFamily::ALL[fam % ScenarioFamily::ALL.len()];
        let scenario = compose(family, &net, seed);
        prop_assume!(scenario.is_some());
        prop_assert_eq!(composed_repair_is_sound(&net, &scenario.unwrap()), Ok(()));
    }

    /// Accepted single-fault repairs are sound under full simulation,
    /// whichever strategy searched for them.
    #[test]
    fn accepted_table1_repair_clears_all_failing_properties(
        w in any::<usize>(),
        h in any::<usize>(),
        fi in any::<usize>(),
        strat in 0usize..3,
        seed in 0u64..24,
    ) {
        let net = net_for(w, h);
        let incident = try_inject(TABLE1[fi % TABLE1.len()].0, &net, seed);
        prop_assume!(incident.is_some());
        prop_assert_eq!(table1_repair_is_sound(&net, &incident.unwrap(), strat, seed), Ok(()));
    }

    /// Masked verdicts never contradict full-observability verdicts on
    /// the visible subset.
    #[test]
    fn masked_verdicts_agree_with_full_on_visible_properties(
        w in any::<usize>(),
        h in any::<usize>(),
        fi in any::<usize>(),
        seed in 0u64..24,
        keep in 20u32..90,
        break_it in any::<bool>(),
    ) {
        let net = net_for(w, h);
        let cfg = if break_it {
            let inc = try_inject(TABLE1[fi % TABLE1.len()].0, &net, seed);
            prop_assume!(inc.is_some());
            inc.unwrap().broken
        } else {
            net.cfg.clone()
        };
        let mask = ObsMask::sample(&net.spec, keep, seed.wrapping_mul(0x9e37));
        prop_assume!(!mask.restrict(&net.spec).properties.is_empty());
        prop_assert_eq!(masked_verdicts_agree(&net, &cfg, &mask), Ok(()));
    }
}

/// The first seed below 24 at which `make` yields something.
fn first<T>(make: impl Fn(u64) -> Option<T>) -> Option<(u64, T)> {
    (0..24).find_map(|seed| make(seed).map(|t| (seed, t)))
}

/// Contract 1's fixed tier-1 slice: every scenario family at its first
/// composable seed, and every Table-1 class at its first injectable seed
/// with the three strategies taking turns.
#[test]
fn accepted_repairs_are_sound_on_every_family_and_class() {
    let net = net_for(0, 0);
    for family in ScenarioFamily::ALL {
        let (_, scenario) = first(|seed| compose(family, &net, seed))
            .unwrap_or_else(|| panic!("{family:?} composes on wan(3,4)"));
        assert_eq!(composed_repair_is_sound(&net, &scenario), Ok(()));
    }
    for (i, (fault, _)) in TABLE1.iter().enumerate() {
        let (seed, incident) = first(|seed| try_inject(*fault, &net, seed))
            .unwrap_or_else(|| panic!("{fault:?} injects on wan(3,4)"));
        assert_eq!(table1_repair_is_sound(&net, &incident, i, seed), Ok(()));
    }
}

/// Contract 2's fixed tier-1 slice: the healthy network and every Table-1
/// class's first broken network, each under a sparse and a dense mask.
#[test]
fn masked_verdicts_agree_on_every_class() {
    let net = net_for(0, 0);
    let broken = TABLE1.iter().map(|(fault, _)| {
        let (_, incident) = first(|seed| try_inject(*fault, &net, seed)).expect("injects");
        incident.broken
    });
    let cfgs: Vec<NetworkConfig> = std::iter::once(net.cfg.clone()).chain(broken).collect();
    for (i, cfg) in cfgs.iter().enumerate() {
        for keep in [30, 80] {
            let mask = ObsMask::sample(&net.spec, keep, i as u64);
            assert_eq!(
                masked_verdicts_agree(&net, cfg, &mask),
                Ok(()),
                "config {i}, keep {keep}"
            );
        }
    }
}
