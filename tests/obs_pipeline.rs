//! End-to-end guarantees of the acr-obs subsystem on real repairs.
//!
//! Three contracts (see `acr-obs`'s crate docs):
//!
//! - **journal determinism** — journals are byte-identical across
//!   identical runs after timestamp scrubbing (emission is in
//!   iteration/candidate-index order);
//! - **trace canonicality** — the canonical (timestamp/tid-scrubbed,
//!   sorted) span list is stable across repeat runs, and the full export
//!   is loadable Chrome trace-event JSON;
//! - **transparency** — repair reports are identical with every facility
//!   enabled and with everything off: instrumentation records, never
//!   decides.
//!
//! Obs state is process-global, so every test serializes on one lock and
//! leaves the facilities disabled on exit.

use acr::net_types::{fnv1a, FNV_OFFSET};
use acr::obs::{self, journal, json, trace};
use acr::prelude::*;
use acr_core::RepairReport;
use std::sync::Mutex;

#[path = "support/journal_schema.rs"]
mod journal_schema;
use journal_schema::check_journal_line;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn repair_fig2() -> RepairReport {
    let fig2 = acr::workloads::fig2::fig2_incident();
    let engine = RepairEngine::new(
        &fig2.topo,
        &fig2.spec,
        RepairConfig {
            seed: 7,
            ..RepairConfig::default()
        },
    );
    engine.repair(&fig2.broken)
}

/// Everything observable about a report, for on/off comparison.
fn signature(r: &RepairReport) -> String {
    let outcome = match &r.outcome {
        RepairOutcome::Fixed { patch, repaired } => {
            format!("fixed {patch} fp={}", repaired.fingerprint())
        }
        RepairOutcome::NoCandidates {
            best_patch,
            best_fitness,
        } => format!("no_candidates {best_fitness} {best_patch}"),
        RepairOutcome::IterationLimit {
            best_patch,
            best_fitness,
        } => format!("iteration_limit {best_fitness} {best_patch}"),
    };
    format!(
        "{outcome} | init={} v={} vc={} | {:?}",
        r.initial_failed, r.validations, r.validations_cached, r.iterations
    )
}

#[test]
fn journal_is_deterministic() {
    let _g = lock();
    obs::set_flags(obs::JOURNAL);
    journal::capture_to_memory();
    let a = repair_fig2();
    let raw_a = journal::take_captured();
    journal::capture_to_memory();
    let b = repair_fig2();
    let raw_b = journal::take_captured();
    assert!(!raw_a.is_empty(), "journal must not be empty");
    let scrubbed = journal::scrub_timestamps(&raw_a);
    assert_eq!(
        scrubbed,
        journal::scrub_timestamps(&raw_b),
        "identical runs must journal byte-identically"
    );
    assert_eq!(signature(&a), signature(&b), "repeat runs diverged");
    for line in scrubbed.lines() {
        check_journal_line(line);
    }
    obs::disable_all();
}

#[test]
fn trace_is_canonical_and_loadable() {
    let _g = lock();
    obs::set_flags(obs::TRACE);
    let _ = trace::take();
    let a = repair_fig2();
    let canon_a = trace::canonical();
    assert!(
        !canon_a.is_empty(),
        "an instrumented repair must emit spans"
    );
    // The export (before draining) is loadable Chrome trace-event JSON.
    let doc = trace::export_chrome();
    let v = json::parse(&doc).expect("chrome trace must parse");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), canon_a.len());
    for e in events {
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        assert!(e.get("ts").unwrap().as_num().is_some());
        assert!(e.get("dur").unwrap().as_num().is_some());
        assert!(e.get("tid").unwrap().as_num().unwrap() >= 1.0);
    }
    let _ = trace::take();
    let b = repair_fig2();
    let canon_b = trace::canonical();
    assert_eq!(
        canon_a, canon_b,
        "canonical trace must be stable across identical runs"
    );
    assert_eq!(signature(&a), signature(&b));
    let _ = trace::take();
    obs::disable_all();
}

#[test]
fn instrumentation_never_changes_a_repair() {
    let _g = lock();
    obs::set_flags(obs::ALL);
    journal::capture_to_memory();
    let on = repair_fig2();
    let _ = journal::take_captured();
    let _ = trace::take();
    obs::disable_all();
    let off = repair_fig2();
    assert_eq!(
        signature(&on),
        signature(&off),
        "obs on vs off changed the repair"
    );
    assert!(on.outcome.is_fixed(), "fig2 must be repairable");
}

/// Journal byte-identity for the *multi-patch beam* path: a composed
/// multi-fault scenario repaired with `Strategy::beam` must journal
/// byte-identically (after timestamp scrubbing) across repeat runs —
/// including the v2 fields this path exercises hardest
/// (per-candidate `segments` counts, `run_end` attribution and tags).
#[test]
fn beam_journal_is_deterministic_and_carries_attribution() {
    let _g = lock();
    obs::set_flags(obs::JOURNAL);
    let net = acr::workloads::generate(&acr::topo::gen::wan(4, 8));
    let scenario = acr::scenarios::corpus(&net, 1, 2024)
        .into_iter()
        .next()
        .expect("corpus is non-empty");
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
    journal::capture_to_memory();
    let a = run();
    let raw_a = journal::take_captured();
    journal::capture_to_memory();
    let b = run();
    let raw_b = journal::take_captured();
    assert!(!raw_a.is_empty(), "journal must not be empty");
    let scrubbed = journal::scrub_timestamps(&raw_a);
    assert_eq!(
        scrubbed,
        journal::scrub_timestamps(&raw_b),
        "identical beam runs must journal byte-identically"
    );
    assert_eq!(signature(&a), signature(&b), "repeat diverged");
    // Every line is schema-valid (so `run_end` carries its attribution
    // array), and `run_end` carries the scenario tags.
    let lines: Vec<json::Value> = scrubbed.lines().map(check_journal_line).collect();
    let v = lines
        .iter()
        .find(|v| v.get("event").and_then(|e| e.as_str()) == Some("run_end"))
        .expect("journal has a run_end");
    let tags = v.get("tags").and_then(|t| t.as_arr()).unwrap();
    assert!(
        tags.iter()
            .any(|t| t.as_str() == Some(&format!("family:{}", scenario.family.tag()))),
        "family tag missing from journal"
    );
    obs::disable_all();
}

/// One repair with the metrics facility on: the report, plus what the
/// `acr-flow` counters recorded for it (facts, worklist pops).
fn counted_repair(run: impl FnOnce() -> RepairReport) -> (RepairReport, u64, u64) {
    obs::set_flags(obs::METRICS);
    obs::metrics::reset();
    let report = run();
    let snap = obs::metrics::snapshot();
    obs::disable_all();
    let counter = |name: &str| match snap.get(name) {
        Some(obs::metrics::MetricValue::Counter(n)) => *n,
        other => panic!("{name}: {other:?}"),
    };
    (
        report,
        counter("flow.facts"),
        counter("flow.fixpoint.iterations"),
    )
}

/// Static analysis is per job, not per candidate: a repair that lands in
/// its first iteration analyses the broken network and nothing else,
/// however many candidates it validates. The commit stage runs that
/// fixed point once — the lint baseline and the localization prior share
/// its facts — and the flow counters are registered in `acr-flow` alone,
/// so each run is counted once.
#[test]
fn a_single_iteration_repair_analyses_only_the_broken_network() {
    let _g = lock();
    let net = acr::workloads::generate(&acr::topo::gen::wan(4, 8));
    let incident =
        acr::workloads::try_inject(acr::workloads::FaultType::MissingRedistribution, &net, 0)
            .expect("injectable");
    let (report, facts, pops) = counted_repair(|| {
        RepairEngine::with_defaults(&net.topo, &net.spec).repair(&incident.broken)
    });
    assert!(report.outcome.is_fixed());
    assert_eq!(report.iteration_count(), 1);
    assert!(report.validations > 1, "several candidates went the gate");
    let reference = acr_flow::analyze(&net.topo, &incident.broken);
    assert_eq!(facts, reference.fact_count() as u64);
    assert_eq!(pops, reference.iterations);
}

/// A multi-iteration beam repair analyses the broken network (once, at
/// commit) plus the non-root parents it actually expands (at most the beam width per
/// later iteration) — never the candidates — and decides exactly what it
/// decided when every candidate carried a whole-network lint: the
/// signature below was taken before the gate stopped computing one.
#[test]
fn a_beam_repair_analyses_parents_not_candidates() {
    let _g = lock();
    let net = acr::workloads::generate(&acr::topo::gen::wan(4, 8));
    // A cascading pair: two iterations, 180 candidates.
    let scenario = acr::scenarios::corpus(&net, 2, 2024)
        .into_iter()
        .nth(5)
        .expect("the corpus has eight scenarios");
    let spec = scenario.visible_spec(&net.spec);
    let (report, facts, _) = counted_repair(|| {
        let engine = RepairEngine::new(
            &net.topo,
            &spec,
            RepairConfig {
                seed: 11,
                strategy: acr::core::Strategy::beam(),
                ..RepairConfig::default()
            },
        );
        engine.repair(&scenario.broken)
    });
    // The pin is over decisions. How many prefixes the verifier
    // re-simulated to reach them is the affected-set contract's business
    // (`acr-verify::incremental`), so those two counters stay out of it.
    let mut decisions = report.clone();
    for stats in &mut decisions.iterations {
        (stats.recomputed_prefixes, stats.reused_prefixes) = (0, 0);
    }
    let digest = fnv1a(FNV_OFFSET, signature(&decisions).as_bytes());
    assert_eq!(
        digest,
        0x6e54c05ca320bfa5,
        "{digest:#018x}: {}",
        signature(&decisions)
    );

    let iterations = report.iteration_count();
    let generated: usize = report.iterations.iter().map(|s| s.generated).sum();
    assert!(iterations > 1 && report.outcome.is_fixed());
    // No analysis of a 12-router variant holds twice the broken
    // network's facts, so this bounds the *number* of analyses.
    let per_analysis = 2 * acr_flow::analyze(&net.topo, &scenario.broken).fact_count();
    let analyses = 1 + 4 * (iterations - 1);
    assert!(
        facts as usize <= analyses * per_analysis,
        "{facts} facts over {iterations} iterations"
    );
    assert!(
        2 * analyses < generated,
        "the bound must tell per-parent from per-candidate ({analyses} vs {generated})"
    );
}
