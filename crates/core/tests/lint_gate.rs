//! The `acr-lint` hooks inside the repair loop: static findings boost
//! localization, and candidates that introduce a fresh lint error are
//! pruned before they reach the simulator.

use acr_core::{OperatorSet, RepairConfig, RepairEngine, RepairReport};
use acr_topo::gen;
use acr_workloads::{generate, try_inject, FaultType, GeneratedNetwork};

fn run(
    net: &GeneratedNetwork,
    broken: &acr_cfg::NetworkConfig,
    lint: bool,
    seed: u64,
) -> RepairReport {
    let engine = RepairEngine::new(
        &net.topo,
        &net.spec,
        RepairConfig {
            seed,
            lint,
            operators: OperatorSet::Both,
            ..RepairConfig::default()
        },
    );
    engine.repair(broken)
}

/// The gate fires on a real incident: donor-copied edits that dangle are
/// rejected without a validation, and the repair still lands.
///
/// The validate stage stops at the winner, so the gate only sees the
/// candidates that sort before it (patch length, then index). The
/// incident is the first Table-1 one (classes in `TABLE1` order,
/// incident seeds 0–5, engine seed 0) on which the gate still prunes a
/// candidate: `ExtraPeerGroupItem` at seed 3, 1 pruned, 1 validation
/// against 6 without lint.
#[test]
fn lint_gate_prunes_candidates_and_repair_still_lands() {
    let net = generate(&gen::wan(4, 8));
    let incident = try_inject(FaultType::ExtraPeerGroupItem, &net, 3).expect("injectable");
    let on = run(&net, &incident.broken, true, 0);
    let off = run(&net, &incident.broken, false, 0);
    assert!(on.outcome.is_fixed() && off.outcome.is_fixed());
    let pruned: usize = on.iterations.iter().map(|s| s.lint_rejected).sum();
    assert!(pruned >= 1, "the static gate never fired");
    assert!(
        on.validations < off.validations,
        "lint-seeded repair used {} validations vs {} without",
        on.validations,
        off.validations
    );
    // With the gate off, nothing may ever be counted as lint-rejected.
    assert!(off.iterations.iter().all(|s| s.lint_rejected == 0));
}

/// Across a batch of incidents, lint seeding shrinks the total number of
/// candidate simulations without losing any repair.
#[test]
fn lint_seeding_cuts_the_validation_budget() {
    let net = generate(&gen::wan(4, 8));
    let (mut total_on, mut total_off) = (0usize, 0usize);
    for seed in 0..4u64 {
        let incident = try_inject(FaultType::MissingPeerGroup, &net, seed).expect("injectable");
        let on = run(&net, &incident.broken, true, 0);
        let off = run(&net, &incident.broken, false, 0);
        assert!(
            on.outcome.is_fixed(),
            "lint-on repair failed at seed {seed}"
        );
        assert!(
            off.outcome.is_fixed(),
            "lint-off repair failed at seed {seed}"
        );
        total_on += on.validations;
        total_off += off.validations;
    }
    assert!(
        total_on < total_off,
        "expected fewer simulations with lint seeding: {total_on} vs {total_off}"
    );
}
