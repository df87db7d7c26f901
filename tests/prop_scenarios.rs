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

// Gated: run with `cargo test --features heavy-tests` (vendored proptest shim).
#![cfg(feature = "heavy-tests")]

use acr::prelude::*;
use acr::scenarios::{compose, ScenarioFamily};
use acr::workloads::{try_inject, GeneratedNetwork, TABLE1};
use proptest::prelude::{any, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig};
use std::collections::BTreeSet;

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
        let scenario = scenario.unwrap();
        // The engine repairs against what the scenario lets it observe.
        let spec = scenario.visible_spec(&net.spec);
        let mut config = RepairConfig {
            strategy: acr::core::Strategy::beam(),
            ..RepairConfig::default()
        };
        config.tags = scenario.tags();
        let report = RepairEngine::new(&net.topo, &spec, config).repair(&scenario.broken);

        // Satellite invariant: the accounting identity holds on every
        // multi-patch report, fixed or not.
        if let Err(e) = report.check_accounting() {
            prop_assert!(false, "{}: accounting violated: {e}", scenario.label);
        }

        if let acr::core::RepairOutcome::Fixed { patch, .. } = &report.outcome {
            let repaired = patch.apply_cloned(&scenario.broken).expect("patch applies");
            let full = Verifier::new(&net.topo, &spec).run_full(&repaired).0;
            prop_assert_eq!(
                full.failed_count(),
                0,
                "{}: accepted repair fails {} tests under full simulation",
                &scenario.label,
                full.failed_count()
            );
            // Attribution covers the whole accepted patch.
            let attributed: usize = report.attribution.iter().map(|s| s.edits).sum();
            prop_assert_eq!(attributed, patch.len());
        }
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
        use acr::core::Strategy;
        let net = net_for(w, h);
        let incident = try_inject(TABLE1[fi % TABLE1.len()].0, &net, seed);
        prop_assume!(incident.is_some());
        let incident = incident.unwrap();
        let strategy = [Strategy::default(), Strategy::brute_force(), Strategy::beam()][strat].clone();
        let config = RepairConfig { seed, strategy, ..RepairConfig::default() };
        let report = RepairEngine::new(&net.topo, &net.spec, config).repair(&incident.broken);
        if let Err(e) = report.check_accounting() {
            prop_assert!(false, "{} (strategy {strat}): accounting violated: {e}", incident.fault);
        }
        if let acr::core::RepairOutcome::Fixed { patch, .. } = &report.outcome {
            let repaired = patch.apply_cloned(&incident.broken).expect("patch applies");
            let full = Verifier::new(&net.topo, &net.spec).run_full(&repaired).0;
            prop_assert_eq!(
                full.failed_count(),
                0,
                "{} (strategy {}): accepted repair fails {} tests under full simulation",
                &incident.fault,
                strat,
                full.failed_count()
            );
        }
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
        let masked_spec = mask.restrict(&net.spec);
        prop_assume!(!masked_spec.properties.is_empty());

        let full = verdicts(&net.topo, &net.spec, &cfg);
        let masked = verdicts(&net.topo, &masked_spec, &cfg);

        let visible: BTreeSet<&str> = mask
            .visible()
            .filter_map(|i| net.spec.properties.get(i))
            .map(|p| p.name.as_str())
            .collect();
        // Every masked verdict is about a visible property, and matches
        // the full verifier's verdict for it exactly.
        for (prop, ok) in &masked {
            prop_assert!(visible.contains(prop.as_str()), "{prop}: not visible");
            let full_ok = full
                .iter()
                .find(|(p, _)| p == prop)
                .map(|(_, ok)| *ok)
                .expect("property exists under full observability");
            prop_assert_eq!(*ok, full_ok, "{}: masked verdict flipped", prop);
        }
        // And the mask hides exactly the invisible properties: counts line up.
        prop_assert_eq!(masked.len(), visible.len());
    }
}
