//! Defects of the program under test that the benchmark's independent
//! checks found and its workloads therefore avoid. Each test states the
//! correct behaviour and is ignored while the defect stands; when one
//! passes (`cargo test -- --ignored`), restore what `inputs.rs` left out.

use acr::core::RepairOutcome;
use acr::prelude::*;
use acr::topo::gen;
use acr::workloads::inject_at;
use acr_benchmark::inputs::EXCLUDED;

/// A repair that ends `Fixed` must pass a fresh full verification. For a
/// missing route policy on the last backbone router of `wan(4,8)` the
/// engine reports `Fixed` with a patch `Verifier::run_full` rejects
/// (`IncrementalVerifier::verify_candidate` passed it).
#[test]
#[ignore = "engine defect: wrong Fixed for MissingRoutePolicy; keeps the class out of every workload"]
fn a_fixed_missing_route_policy_passes_full_verification() {
    let net = generate(&gen::wan(4, 8));
    let mut wrong = Vec::new();
    for router in net.cfg.routers() {
        let Some(incident) = inject_at(EXCLUDED, &net, &net.cfg, router) else {
            continue;
        };
        let engine = RepairEngine::new(&net.topo, &net.spec, RepairConfig::default());
        if let RepairOutcome::Fixed { repaired, .. } = engine.repair(&incident.broken).outcome {
            let (v, _) = Verifier::new(&net.topo, &net.spec).run_full(&repaired);
            if !v.all_passed() {
                wrong.push(format!("{router:?}: {} properties fail", v.failed_count()));
            }
        }
    }
    assert!(wrong.is_empty(), "Fixed, yet rejected: {wrong:?}");
}
