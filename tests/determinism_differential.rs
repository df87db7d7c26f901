//! Differential determinism harness: a repair is a pure function of
//! (network, configuration, seed).
//!
//! The engine's contract (see `acr-core`'s `validate` module) is that
//! candidate verdicts are pure functions of batch-start state and all
//! cache mutations happen in candidate-index order, so nothing outside
//! the inputs — hash seeds, allocation, timing — can influence a repair.
//! This harness checks it differentially: every corpus incident is
//! repaired twice (each run with its own fresh cache) and the runs must
//! agree on the outcome, the patch, the full per-iteration trace, and
//! both validation counters. The comparison is over the report, never
//! over raw `Verification`s, whose derivation ids are arena-local.

use acr::prelude::*;
use acr::scenarios::{corpus, Scenario};
use acr_core::RepairReport;
use acr_workloads::GeneratedNetwork;

fn wan() -> GeneratedNetwork {
    generate(&acr::topo::gen::wan(4, 8))
}

/// Everything observable about how a repair ended, comparable across
/// runs. (`RepairOutcome` holds a `NetworkConfig`, which compares by
/// fingerprint — the canonical rendered text.)
#[derive(Debug, PartialEq, Eq)]
enum OutcomeSig {
    Fixed {
        patch: Patch,
        repaired_fp: u64,
    },
    NoCandidates {
        best_patch: Patch,
        best_fitness: usize,
    },
    IterationLimit {
        best_patch: Patch,
        best_fitness: usize,
    },
}

fn signature(report: &RepairReport) -> OutcomeSig {
    match &report.outcome {
        RepairOutcome::Fixed { patch, repaired } => OutcomeSig::Fixed {
            patch: patch.clone(),
            repaired_fp: repaired.fingerprint(),
        },
        RepairOutcome::NoCandidates {
            best_patch,
            best_fitness,
        } => OutcomeSig::NoCandidates {
            best_patch: best_patch.clone(),
            best_fitness: *best_fitness,
        },
        RepairOutcome::IterationLimit {
            best_patch,
            best_fitness,
        } => OutcomeSig::IterationLimit {
            best_patch: best_patch.clone(),
            best_fitness: *best_fitness,
        },
    }
}

fn repair(net: &GeneratedNetwork, broken: &NetworkConfig, seed: u64) -> RepairReport {
    let engine = RepairEngine::new(
        &net.topo,
        &net.spec,
        RepairConfig {
            seed,
            ..RepairConfig::default()
        },
    );
    engine.repair(broken)
}

fn assert_reports_identical(a: &RepairReport, b: &RepairReport, what: &str) {
    assert_eq!(signature(a), signature(b), "{what}: outcome diverged");
    assert_eq!(
        a.iterations, b.iterations,
        "{what}: iteration trace diverged"
    );
    assert_eq!(
        a.initial_failed, b.initial_failed,
        "{what}: initial failures diverged"
    );
    assert_eq!(
        a.validations, b.validations,
        "{what}: validation count diverged"
    );
    assert_eq!(
        a.validations_cached, b.validations_cached,
        "{what}: cached-validation count diverged"
    );
    assert_eq!(
        a.attribution, b.attribution,
        "{what}: patch attribution diverged"
    );
    assert_eq!(a.tags, b.tags, "{what}: tags diverged");
}

/// The headline harness: 12 incidents × 3 seeds, each repaired twice,
/// must be byte-identical in every observable field and keep the
/// candidate-accounting identity.
#[test]
fn repeat_runs_never_change_a_repair() {
    let net = wan();
    let incidents = sample_incidents(&net, 12, 77);
    assert!(
        incidents.len() >= 10,
        "corpus too small: {}",
        incidents.len()
    );
    for (i, incident) in incidents.iter().enumerate() {
        for seed in [0u64, 11, 42] {
            let what = format!("incident {i} ({}), seed {seed}", incident.fault);
            let base = repair(&net, &incident.broken, seed);
            base.check_accounting()
                .unwrap_or_else(|e| panic!("{what}: accounting violated: {e}"));
            let again = repair(&net, &incident.broken, seed);
            assert_reports_identical(&base, &again, &what);
        }
    }
}

/// Multi-patch beam search must be exactly as deterministic as the
/// single-fault genetic path: for composed multi-fault scenarios (every
/// family), two repairs of each must agree on every observable field — outcome, patch, iteration trace, *per-segment
/// attribution*, tags, and both validation
/// counters — and every report must satisfy the candidate-accounting
/// identity. (Journal byte-identity for the beam path lives in
/// `obs_pipeline.rs`, which owns the global sink.)
#[test]
fn beam_multi_patch_repair_is_repeatable() {
    let net = wan();
    let scenarios: Vec<Scenario> = corpus(&net, 1, 2024);
    assert!(
        scenarios.len() >= 4,
        "corpus too small: {}",
        scenarios.len()
    );
    for scenario in &scenarios {
        let spec = scenario.visible_spec(&net.spec);
        let run = || {
            let engine = RepairEngine::new(
                &net.topo,
                &spec,
                RepairConfig {
                    seed: 11,
                    strategy: acr::core::Strategy::beam(),
                    tags: scenario.tags(),
                    ..RepairConfig::default()
                },
            );
            engine.repair(&scenario.broken)
        };
        let base = run();
        base.check_accounting()
            .unwrap_or_else(|e| panic!("{}: accounting violated: {e}", scenario.label));
        assert_eq!(
            base.tags,
            scenario.tags(),
            "{}: tags dropped",
            scenario.label
        );
        let again = run();
        assert_reports_identical(&base, &again, &format!("scenario {}", scenario.label));
    }
}
