//! Resident sessions ([`acr_core::NetworkSession`] +
//! [`RepairEngine::repair_resident`]): warm-state reuse must be
//! decision-transparent — same outcome, patch, fitness trajectory and
//! generation/keep decisions as a cold [`RepairEngine::repair`] — while
//! moving validation work from simulation into the cross-job caches.

use acr_core::{NetworkSession, RepairConfig, RepairEngine, RepairReport, WARM_SLOTS};
use acr_net_types::Prefix;
use acr_topo::{gen, Topology, TopologyBuilder};
use acr_workloads::{generate, sample_incidents, try_inject, FaultType, GeneratedNetwork, TABLE1};
use std::sync::Mutex;

/// `a_warm_revisit_analyses_nothing` reads a process-global counter that
/// every repair in this binary bumps, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

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
    let _g = lock();
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
    let _g = lock();
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
    let _g = lock();
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

/// Rotating job streams exercise the slot LRU: a rotation of
/// [`WARM_SLOTS`] incidents resumes warm from its own slot on every
/// revisit instead of thrashing, answers from cache, and keeps decisions
/// identical to the one-shot path. One incident more and every slot is
/// evicted just before its revisit — the rotation never resumes warm.
#[test]
fn rotating_stream_resumes_warm_from_lru_slots() {
    let _g = lock();
    let net = generate(&gen::wan(4, 8));
    // Sampling repeats itself; a rotation needs distinct configurations.
    let mut incidents = sample_incidents(&net, 4 * WARM_SLOTS, 77);
    let mut seen = std::collections::HashSet::new();
    incidents.retain(|inc| seen.insert(inc.broken.fingerprint()));
    assert!(incidents.len() > WARM_SLOTS);
    let eng = engine(&net, 0);

    let mut session = NetworkSession::new();
    let mut reports = Vec::new();
    for i in (0..WARM_SLOTS).chain(0..WARM_SLOTS) {
        reports.push((i, eng.repair_resident(&incidents[i].broken, &mut session)));
    }
    assert_eq!(
        session.resident_misses, WARM_SLOTS as u64,
        "first visit per incident is cold"
    );
    assert_eq!(
        session.resident_hits, WARM_SLOTS as u64,
        "every revisit must resume warm"
    );
    assert_eq!(session.warm_len(), WARM_SLOTS);
    for (i, served) in &reports[WARM_SLOTS..] {
        let batch = engine(&net, 0).repair(&incidents[*i].broken);
        assert_eq!(decision_trace(&batch), decision_trace(served));
        assert_eq!(
            served.validations, 0,
            "warm revisit must be served from cache"
        );
    }

    // Control: the same session shape thrashes on a wider rotation.
    let mut wide = NetworkSession::new();
    for i in (0..=WARM_SLOTS).chain(0..=WARM_SLOTS) {
        eng.repair_resident(&incidents[i].broken, &mut wide);
    }
    assert_eq!(wide.resident_hits, 0, "the LRU cannot hold the rotation");
    assert_eq!(wide.resident_misses, 2 * (WARM_SLOTS as u64 + 1));
    assert_eq!(wide.warm_len(), WARM_SLOTS);
}

/// A revisit takes the configuration's static baseline from its slot:
/// the second job on the same broken configuration runs no `acr-flow`
/// fixed point at all — whether or not linting reads the baseline.
#[test]
fn a_warm_revisit_analyses_nothing() {
    let _g = lock();
    let net = generate(&gen::wan(4, 8));
    // Repaired in its first iteration, so no patched parent is analysed.
    let inc = try_inject(FaultType::MissingRedistribution, &net, 0).expect("injectable");
    let flow_facts = || match acr_obs::metrics::snapshot().get("flow.facts") {
        Some(acr_obs::metrics::MetricValue::Counter(n)) => *n,
        other => panic!("flow.facts: {other:?}"),
    };
    for lint in [true, false] {
        let config = RepairConfig {
            lint,
            ..RepairConfig::default()
        };
        let eng = RepairEngine::new(&net.topo, &net.spec, config);
        let mut session = NetworkSession::new();
        acr_obs::set_flags(acr_obs::METRICS);
        acr_obs::metrics::reset();
        let first = eng.repair_resident(&inc.broken, &mut session);
        let cold = flow_facts();
        let second = eng.repair_resident(&inc.broken, &mut session);
        let warm = flow_facts() - cold;
        acr_obs::disable_all();
        assert_eq!(first.iteration_count(), 1);
        assert_eq!(decision_trace(&first), decision_trace(&second));
        let reference = acr_flow::analyze(&net.topo, &inc.broken).fact_count() as u64;
        assert_eq!(cold, reference, "lint={lint}: one fixed point when cold");
        assert_eq!(warm, 0, "lint={lint}: none on the revisit");
    }
}

/// Warm state is fingerprint-gated: serving a *different* incident on
/// the same session falls back to a cold commit (a miss, not a wrong
/// answer) and decisions still match the one-shot path.
#[test]
fn different_incident_misses_warm_state_but_stays_exact() {
    let _g = lock();
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

/// [`decision_trace`] plus the validation-cost accounting —
/// `acr_serve::full_signature`'s fields: a cold resident job must match
/// a one-shot run on these too.
fn full_trace(r: &RepairReport) -> String {
    let mut s = format!(
        "{} || v={} c={}",
        decision_trace(r),
        r.validations,
        r.validations_cached
    );
    for it in &r.iterations {
        s.push_str(&format!(
            ";{}:{}:{}:{}:{}:{}",
            it.iteration,
            it.validated,
            it.cached,
            it.skipped,
            it.recomputed_prefixes,
            it.reused_prefixes
        ));
    }
    s
}

/// `topo` rebuilt with one more prefix attached to `at`: the same
/// routers and links in the same order, so the same peer addresses, but
/// another verifier context.
fn with_extra_attachment(topo: &Topology, at: &str, prefix: Prefix) -> Topology {
    let mut b = TopologyBuilder::new();
    for r in topo.routers() {
        b.router(&r.name, r.role);
    }
    for l in topo.links() {
        b.link(l.a.router, l.b.router);
    }
    for r in topo.routers() {
        for p in &r.attached {
            b.attach(r.id, *p);
        }
    }
    b.attach(topo.by_name(at).expect("router exists"), prefix);
    b.build()
}

/// A slot is reused whole or not at all. One session serves the same
/// broken configuration to two engines whose topologies differ by one
/// prefix attached to customer `C1`, which `BB1`'s ingress filter on the
/// session to it cannot admit: the lint baseline gains an
/// `import-filter-gap` finding. The slot the first job parks is found by
/// fingerprint but its verifier context misses, so the second job
/// commits cold — baseline included — and equals a one-shot run of its
/// own engine. Checked on every Table-1 incident (seeds 0–2) whose lint
/// findings or dataflow facts differ between the two topologies, i.e.
/// where the parked baseline is stale.
#[test]
fn a_slot_whose_resume_misses_is_not_reused() {
    let _g = lock();
    let net = generate(&gen::wan(4, 8));
    let other = with_extra_attachment(&net.topo, "C1", "10.200.0.0/16".parse().unwrap());
    for l in net.topo.links() {
        let o = &other.links()[l.id.0 as usize];
        assert_eq!((&l.a, &l.b), (&o.a, &o.b), "same peer addresses");
    }
    let first = RepairEngine::with_defaults(&net.topo, &net.spec);
    let second = RepairEngine::with_defaults(&other, &net.spec);
    let mut stale = 0;
    for (fault, _) in TABLE1 {
        for seed in 0..3 {
            let Some(inc) = try_inject(fault, &net, seed) else {
                continue;
            };
            let broken = &inc.broken;
            let differs = acr_lint::lint_network(&net.topo, broken).diagnostics
                != acr_lint::lint_network(&other, broken).diagnostics
                || acr_flow::analyze(&net.topo, broken).rib
                    != acr_flow::analyze(&other, broken).rib;
            if !differs {
                continue;
            }
            stale += 1;
            let mut session = NetworkSession::new();
            first.repair_resident(broken, &mut session);
            let served = second.repair_resident(broken, &mut session);
            assert_eq!(session.resident_hits, 0, "{fault:?}/{seed}");
            assert_eq!(session.resident_misses, 2, "{fault:?}/{seed}");
            assert_eq!(
                session.warm_len(),
                1,
                "{fault:?}/{seed}: the stale slot is gone"
            );
            let one_shot = second.repair(broken);
            assert_eq!(
                decision_trace(&served),
                decision_trace(&one_shot),
                "{fault:?}/{seed}"
            );
            assert_eq!(
                full_trace(&served),
                full_trace(&one_shot),
                "{fault:?}/{seed}"
            );
            assert_eq!(served.validations, one_shot.validations, "{fault:?}/{seed}");
        }
    }
    assert!(
        stale > 0,
        "no incident's baseline differs between the topologies"
    );
}
