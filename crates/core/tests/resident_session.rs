//! Resident sessions ([`acr_core::NetworkSession`] +
//! [`RepairEngine::repair_resident`]): warm-state reuse must be
//! decision-transparent — same outcome, patch, fitness trajectory and
//! generation/keep decisions as a cold [`RepairEngine::repair`] — while
//! moving validation work from simulation into the cross-job caches.

use acr_core::{NetworkSession, RepairConfig, RepairEngine, RepairReport};
use acr_topo::gen;
use acr_workloads::{generate, sample_incidents, GeneratedNetwork};

fn engine(net: &GeneratedNetwork, seed: u64) -> RepairEngine<'_> {
    RepairEngine::new(
        &net.topo,
        &net.spec,
        RepairConfig {
            seed,
            ..RepairConfig::default()
        },
    )
}

/// The decision trace of a report: everything a repair *chose*, none of
/// the cache accounting. Two runs with equal traces took identical
/// trajectories through the search space.
fn decision_trace(r: &RepairReport) -> String {
    use acr_core::RepairOutcome;
    let mut s = String::new();
    s.push_str(&match &r.outcome {
        RepairOutcome::Fixed { patch, .. } => format!("fixed:{patch:?}"),
        RepairOutcome::NoCandidates {
            best_patch,
            best_fitness,
        } => format!("nocand:{best_fitness}:{best_patch:?}"),
        RepairOutcome::IterationLimit {
            best_patch,
            best_fitness,
        } => format!("limit:{best_fitness}:{best_patch:?}"),
    });
    s.push_str(&format!(";initial={}", r.initial_failed));
    for it in &r.iterations {
        s.push_str(&format!(
            ";{}:{}:{}:{}:{}:{}:{}",
            it.iteration,
            it.fitness,
            it.best_fitness,
            it.generated,
            it.kept,
            it.lint_rejected,
            it.invalid
        ));
    }
    s.push_str(&format!(";attr={:?};tags={:?}", r.attribution, r.tags));
    s
}

/// A cold resident run (fresh session) is *fully* equivalent to the
/// one-shot path — decisions and cache accounting both — and parks warm
/// state for the next job.
#[test]
fn fresh_session_matches_one_shot_exactly() {
    let net = generate(&gen::wan(4, 8));
    let incidents = sample_incidents(&net, 3, 77);
    for (i, inc) in incidents.iter().enumerate() {
        let batch = engine(&net, i as u64).repair(&inc.broken);
        let mut session = NetworkSession::new();
        let served = engine(&net, i as u64).repair_resident(&inc.broken, &mut session);
        assert_eq!(decision_trace(&batch), decision_trace(&served));
        assert_eq!(batch.validations, served.validations);
        assert_eq!(batch.validations_cached, served.validations_cached);
        assert_eq!(session.resident_hits, 0);
        assert_eq!(session.resident_misses, 1);
        assert!(session.has_warm(), "suspend must park the verifier");
        batch.check_accounting().unwrap();
        served.check_accounting().unwrap();
    }
}

/// Re-serving the same incident resumes warm state and answers entirely
/// from the memo-cache: identical decisions, zero fresh simulations.
#[test]
fn warm_replay_is_all_cache_and_decision_identical() {
    let net = generate(&gen::wan(4, 8));
    let inc = &sample_incidents(&net, 1, 77)[0];
    let mut session = NetworkSession::new();
    let eng = engine(&net, 0);
    let first = eng.repair_resident(&inc.broken, &mut session);
    let second = eng.repair_resident(&inc.broken, &mut session);
    assert_eq!(decision_trace(&first), decision_trace(&second));
    assert_eq!(session.resident_hits, 1, "second run must resume warm");
    assert_eq!(session.resident_misses, 1);
    assert_eq!(
        second.validations, 0,
        "a warm replay of the same incident must be served from cache"
    );
    // Every verdict the first run computed or was served is in the
    // cache for the replay: the attempted-candidate total is conserved.
    assert_eq!(
        second.validations_cached,
        first.validations + first.validations_cached
    );
}

/// `invalidate` (a committed patch landed) drops every
/// configuration-bound artifact; the next run commits cold but still
/// reaches the same decisions.
#[test]
fn invalidate_forces_cold_commit_with_same_decisions() {
    let net = generate(&gen::wan(4, 8));
    let inc = &sample_incidents(&net, 1, 77)[0];
    let mut session = NetworkSession::new();
    let eng = engine(&net, 0);
    let first = eng.repair_resident(&inc.broken, &mut session);
    session.invalidate();
    assert!(!session.has_warm());
    let second = eng.repair_resident(&inc.broken, &mut session);
    assert_eq!(decision_trace(&first), decision_trace(&second));
    assert_eq!(session.resident_hits, 0);
    assert_eq!(session.resident_misses, 2);
    // The sim cache survives invalidation (keys carry the base
    // fingerprint), so the replay is still served without simulating.
    assert_eq!(second.validations, 0);
}

/// Rotating job streams exercise the multi-slot LRU: alternating
/// between two incidents, every revisit resumes warm from its own slot
/// instead of thrashing (hits on runs 3 and 4), answers from cache, and
/// keeps decisions identical to the one-shot path. A 1-slot session on
/// the same stream never warm-hits — the LRU is what earns the resumes.
#[test]
fn rotating_stream_resumes_warm_from_lru_slots() {
    let net = generate(&gen::wan(4, 8));
    let incidents = sample_incidents(&net, 2, 77);
    let stream = [0usize, 1, 0, 1];

    let mut session = NetworkSession::new();
    assert!(
        session.warm_slots() >= 2,
        "default LRU must hold a rotation"
    );
    let eng = engine(&net, 0);
    let mut reports = Vec::new();
    for &i in &stream {
        reports.push((i, eng.repair_resident(&incidents[i].broken, &mut session)));
    }
    assert_eq!(
        session.resident_misses, 2,
        "first visit per incident is cold"
    );
    assert_eq!(session.resident_hits, 2, "every revisit must resume warm");
    assert_eq!(session.warm_len(), 2);
    for (i, served) in &reports[2..] {
        let batch = engine(&net, 0).repair(&incidents[*i].broken);
        assert_eq!(decision_trace(&batch), decision_trace(served));
        assert_eq!(
            served.validations, 0,
            "warm revisit must be served from cache"
        );
    }

    // Control: a single-slot session thrashes on the same stream.
    let mut single = NetworkSession::with_warm_slots(1);
    for &i in &stream {
        eng.repair_resident(&incidents[i].broken, &mut single);
    }
    assert_eq!(single.resident_hits, 0, "1 slot cannot survive a rotation");
    assert_eq!(single.resident_misses, 4);
    assert_eq!(single.warm_len(), 1);
}

/// Warm state is fingerprint-gated: serving a *different* incident on
/// the same session falls back to a cold commit (a miss, not a wrong
/// answer) and decisions still match the one-shot path.
#[test]
fn different_incident_misses_warm_state_but_stays_exact() {
    let net = generate(&gen::wan(4, 8));
    let incidents = sample_incidents(&net, 2, 77);
    let mut session = NetworkSession::new();
    let eng = engine(&net, 0);
    eng.repair_resident(&incidents[0].broken, &mut session);
    let served = eng.repair_resident(&incidents[1].broken, &mut session);
    assert_eq!(session.resident_hits, 0);
    assert_eq!(session.resident_misses, 2);
    let batch = engine(&net, 0).repair(&incidents[1].broken);
    assert_eq!(decision_trace(&batch), decision_trace(&served));
}
