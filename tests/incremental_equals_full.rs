//! `IncrementalVerifier::verify_candidate` ≡ `Verifier::run_full`, over
//! what the product actually validates.
//!
//! A generate-and-validate repairer may not report a `Fixed` that a full
//! verification rejects, nor hide a correct repair behind a stale cached
//! outcome. For a Table-1 incident on `wan(4,8)` the broken network is
//! committed once — as the engine does — and every distinct patch both
//! operator vocabularies generate at every line of every device is
//! validated against that commit and against a fresh full verification of
//! the patched network: verdict, violation and path of every record, the
//! coverage lines of every test and the shape of every record's
//! derivation DAG must agree. Together with `prop_delta_sim.rs` (a
//! delta-built simulator runs exactly as a fresh compile) this is what
//! pins delta-built candidates and the cross-candidate policy memo.

use acr::cfg::DeviceModel;
use acr::core::templates::candidates_for_line;
use acr::core::{universal_candidates, RepairCtx};
use acr::prelude::*;
use acr::sim::{DerivArena, DerivId};
use acr::workloads::{inject_at, GeneratedNetwork, Incident, TABLE1};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
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

/// Structural hashes of derivation nodes in one arena: a node's kind,
/// its lines and the set of its parents' hashes. Equal hashes in two
/// arenas mean equal derivation DAGs, whatever ids each arena assigned.
#[derive(Default)]
struct Shapes(HashMap<DerivId, u64>);

impl Shapes {
    fn of(&mut self, arena: &DerivArena, id: DerivId) -> u64 {
        if let Some(&h) = self.0.get(&id) {
            return h;
        }
        let node = arena.node(id);
        let mut parents: Vec<u64> = node.parents.iter().map(|p| self.of(arena, *p)).collect();
        parents.sort_unstable();
        let mut h = DefaultHasher::new();
        (node.kind, node.lines, parents).hash(&mut h);
        let h = h.finish();
        self.0.insert(id, h);
        h
    }

    /// The shapes of `roots`, as a sorted multiset: a verdict lists its
    /// rejection roots by id, and ids follow the arena's history.
    fn roots(&mut self, arena: &DerivArena, roots: &[DerivId]) -> Vec<u64> {
        let mut shapes: Vec<u64> = roots.iter().map(|r| self.of(arena, *r)).collect();
        shapes.sort_unstable();
        shapes
    }
}

impl Sweep {
    fn run(&mut self, net: &GeneratedNetwork, incident: &Incident) {
        let broken = &incident.broken;
        let verifier = Verifier::new(&net.topo, &net.spec);
        let mut iv = IncrementalVerifier::new(&net.topo, &net.spec);
        iv.commit(broken);
        // The persistent arena's ids never change meaning: one cache for
        // every candidate.
        let mut inc_shapes = Shapes::default();
        for patch in candidates(net, incident) {
            let Ok(candidate) = patch.apply_cloned(broken) else {
                continue;
            };
            let inc = iv.verify_candidate(&candidate, &patch);
            let (full, out) = verifier.run_full(&candidate);
            // What symbolization walks: every record's derivation DAG, not
            // only the lines it closes over.
            let mut full_shapes = Shapes::default();
            let shapes = inc.records.iter().zip(&full.records).all(|(a, b)| {
                inc_shapes.roots(iv.arena(), &a.deriv_roots)
                    == full_shapes.roots(&out.arena, &b.deriv_roots)
            });
            if !shapes {
                self.disagreements.push(format!(
                    "{:?}: {patch}: derivation DAGs differ",
                    incident.fault
                ));
            }
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
