//! `IncrementalVerifier::verify_candidate` ≡ `Verifier::run_full`, over
//! what the product actually validates.
//!
//! A generate-and-validate repairer may not report a `Fixed` that a full
//! verification rejects, nor hide a correct repair behind a stale cached
//! outcome. For a Table-1 incident on `wan(4,8)` the broken network is
//! committed once — as the engine does — and every distinct patch both
//! operator vocabularies generate at every line of every device is
//! validated against that commit and against a fresh full verification of
//! the patched network: verdict, violation and path of every record and
//! the coverage lines of every test must agree. The same slice also pins
//! the verifier's full-rebuild oracle: candidates compiled from scratch
//! must verify exactly as the delta-built ones do.

use acr::cfg::DeviceModel;
use acr::core::templates::candidates_for_line;
use acr::core::{universal_candidates, RepairCtx};
use acr::prelude::*;
use acr::workloads::{inject_at, GeneratedNetwork, Incident, TABLE1};
use std::collections::HashSet;
use std::sync::Arc;

/// What a sweep saw: candidates compared, how many of them pass every
/// test, and one line per candidate on which the two verifiers disagree.
#[derive(Default)]
struct Sweep {
    compared: usize,
    passing: usize,
    disagreements: Vec<String>,
}

/// Every distinct patch both operator vocabularies generate at every line
/// of every device of the incident's broken network, in first-seen order
/// so the cross-candidate policy memo sees the same sequence on every run.
fn candidates(net: &GeneratedNetwork, incident: &Incident) -> Vec<Patch> {
    let broken = &incident.broken;
    let (verification, out) = Verifier::new(&net.topo, &net.spec).run_full(broken);
    let models: Vec<Arc<DeviceModel>> = (net.topo.routers().iter())
        .map(|r| {
            Arc::new(DeviceModel::from_config(
                broken.device(r.id).expect("generated device"),
            ))
        })
        .collect();
    let ctx = RepairCtx {
        topo: &net.topo,
        cfg: broken,
        verification: &verification,
        coverage: &verification.matrix,
        arena: &out.arena,
        models: &models,
    };
    let mut seen: HashSet<Patch> = HashSet::new();
    let mut patches: Vec<Patch> = Vec::new();
    for (router, device) in broken.devices() {
        for (line, _) in device.lines() {
            let line = LineId::new(router, line);
            let fixes = candidates_for_line(line, &ctx).into_iter().map(|f| f.patch);
            for patch in fixes.chain(universal_candidates(line, &ctx)) {
                if seen.insert(patch.clone()) {
                    patches.push(patch);
                }
            }
        }
    }
    patches
}

impl Sweep {
    fn run(&mut self, net: &GeneratedNetwork, incident: &Incident) {
        let broken = &incident.broken;
        let verifier = Verifier::new(&net.topo, &net.spec);
        let mut iv = IncrementalVerifier::new(&net.topo, &net.spec);
        iv.commit(broken);
        for patch in candidates(net, incident) {
            let Ok(candidate) = patch.apply_cloned(broken) else {
                continue;
            };
            let inc = iv.verify_candidate(&candidate, &patch);
            let (full, _) = verifier.run_full(&candidate);
            // The incremental verifier returns verdicts only: coverage is
            // built over its arena, with the candidate's compiled models.
            let compiled = (iv.base().expect("committed")).delta(&net.topo, &candidate, &patch);
            let inc_coverage = verifier.coverage(&inc, iv.arena(), compiled.0.models());
            let records = inc.records.len() == full.records.len()
                && inc.records.iter().zip(&full.records).all(|(a, b)| {
                    (a.passed, &a.violation, &a.path) == (b.passed, &b.violation, &b.path)
                });
            let coverage = (inc_coverage.tests().iter())
                .zip(full.matrix.tests())
                .all(|(a, b)| a.lines == b.lines);
            if !(records && coverage) {
                self.disagreements.push(format!(
                    "{:?}: {patch}: incremental {} failed, full {} failed{}",
                    incident.fault,
                    inc.failed_count(),
                    full.failed_count(),
                    if records { " (coverage only)" } else { "" },
                ));
            }
            self.compared += 1;
            self.passing += full.all_passed() as usize;
        }
    }

    fn assert_sound(&self, at_least: usize) {
        assert!(
            self.disagreements.is_empty(),
            "{} of {} candidates disagree:\n{}",
            self.disagreements.len(),
            self.compared,
            self.disagreements.join("\n")
        );
        let failing = self.compared - self.passing;
        assert!(
            self.compared >= at_least && self.passing >= 5 && failing >= 5,
            "both verdicts must be exercised: {} pass, {failing} fail",
            self.passing
        );
    }
}

fn sites(net: &GeneratedNetwork, fault: FaultType) -> impl Iterator<Item = Incident> + '_ {
    let routers = net.cfg.routers().into_iter();
    routers.filter_map(move |r| inject_at(fault, net, &net.cfg, r))
}

/// The tier-1 slice: the first injectable site of every class, plus
/// **every** site of `MissingRoutePolicy` — the class whose repair at the
/// last backbone router used to end `Fixed` on a patch `run_full` rejects.
fn tier1_slice(net: &GeneratedNetwork) -> impl Iterator<Item = Incident> + '_ {
    TABLE1.iter().flat_map(move |&(fault, _)| {
        let all = fault == FaultType::MissingRoutePolicy;
        sites(net, fault).take(if all { usize::MAX } else { 1 })
    })
}

#[test]
fn verify_candidate_agrees_with_run_full_on_every_generated_candidate() {
    let net = generate(&acr::topo::gen::wan(4, 8));
    let mut sweep = Sweep::default();
    for incident in tier1_slice(&net) {
        sweep.run(&net, &incident);
    }
    sweep.assert_sound(1000);
}

/// Delta construction is construction only: a verifier that compiles every
/// candidate from scratch (`set_delta(false)`, the full-rebuild oracle)
/// must re-simulate exactly the same prefixes and return the same
/// `Verification` — records, flapping set and session diagnostics — with
/// a derivation arena interned identically, so every `deriv_roots` id
/// (which symbolization and coverage walk) names the same node in both. Only the build counters differ: the oracle compiles every device.
#[test]
fn delta_built_candidates_verify_exactly_as_full_rebuilds() {
    let net = generate(&acr::topo::gen::wan(4, 8));
    let mut compared = 0;
    for incident in tier1_slice(&net) {
        let broken = &incident.broken;
        let mut delta = IncrementalVerifier::new(&net.topo, &net.spec);
        let mut full = IncrementalVerifier::new(&net.topo, &net.spec);
        full.set_delta(false);
        assert_eq!(delta.commit(broken), full.commit(broken));
        for patch in candidates(&net, &incident) {
            let Ok(candidate) = patch.apply_cloned(broken) else {
                continue;
            };
            let a = delta.verify_candidate(&candidate, &patch);
            let b = full.verify_candidate(&candidate, &patch);
            let what = format!("{:?}: {patch}", incident.fault);
            let (sa, sb) = (delta.last_stats(), full.last_stats());
            assert_eq!(
                (sa.recomputed, sa.reused),
                (sb.recomputed, sb.reused),
                "{what}"
            );
            assert_eq!(a, b, "{what}");
            assert!(delta.arena() == full.arena(), "{what}: arenas diverged");
            compared += 1;
        }
    }
    assert!(compared >= 1000, "only {compared} candidates compared");
}

/// Every class × every injectable site of `wan(4,8)`.
#[cfg(feature = "heavy-tests")]
#[test]
fn verify_candidate_agrees_with_run_full_at_every_site_of_every_class() {
    let net = generate(&acr::topo::gen::wan(4, 8));
    let mut sweep = Sweep::default();
    for (fault, _) in TABLE1 {
        for incident in sites(&net, fault) {
            sweep.run(&net, &incident);
        }
    }
    sweep.assert_sound(3000);
}
