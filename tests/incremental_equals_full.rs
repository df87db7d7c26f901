//! `IncrementalVerifier::verify_candidate` ≡ `Verifier::run_full`, over
//! what the product actually validates.
//!
//! A generate-and-validate repairer may not report a `Fixed` that a full
//! verification rejects, nor hide a correct repair behind a stale cached
//! outcome. For a Table-1 incident on `wan(4,8)` the broken network is
//! committed once — as the engine does — and every distinct patch both
//! operator vocabularies generate at every line of every device, plus
//! three renumbering patches per device (a remark at index 0, a remark
//! above its first peer statement, and that statement deleted and
//! re-inserted under the `bgp` header), is validated against that commit
//! and against a fresh full verification of the patched network:
//! verdict, violation and path of every record, the coverage lines of
//! every test and the shape of every record's derivation DAG must agree.
//! A candidate's derivations name lines of the committed numbering, so
//! its shapes hash the lines rendered through its line map. Together with
//! `prop_delta_sim.rs` (a delta-built simulator runs exactly as a fresh
//! compile) this is what pins delta-built candidates and the
//! cross-candidate policy memo.

use acr::cfg::{DeviceModel, LineMap};
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
    for (router, device) in broken.devices() {
        for patch in renumberings(router, device) {
            if seen.insert(patch.clone()) {
                patches.push(patch);
            }
        }
    }
    patches
}

/// Patches that move a device's lines: a remark at index 0, a remark
/// just above its first peer statement (every session line after it
/// moves), and that statement deleted and re-inserted right under the
/// `bgp` header — a dead line and a fresh one for the same statement.
fn renumberings(router: RouterId, device: &DeviceConfig) -> Vec<Patch> {
    let remark = |index| Edit::Insert {
        router,
        index,
        stmt: Stmt::Remark("moved".into()),
    };
    let mut out = vec![Patch::single(remark(0))];
    let stmts = device.stmts();
    let is_peer = |s: &Stmt| {
        matches!(
            s,
            Stmt::PeerAs { .. } | Stmt::PeerGroup { .. } | Stmt::PeerPolicy { .. }
        )
    };
    let Some(peer) = stmts.iter().position(is_peer) else {
        return out;
    };
    out.push(Patch::single(remark(peer)));
    if let Some(bgp) = stmts.iter().position(|s| matches!(s, Stmt::BgpProcess(_))) {
        if peer > bgp + 1 {
            out.push(Patch {
                edits: vec![
                    Edit::Delete {
                        router,
                        index: peer,
                    },
                    Edit::Insert {
                        router,
                        index: bgp + 1,
                        stmt: stmts[peer].clone(),
                    },
                ],
            });
        }
    }
    out
}

/// Structural hashes of derivation nodes in one arena, read through one
/// verification's line map: a node's kind, its lines rendered (a node's
/// lines are a set: sorted again after rendering) and the set of its
/// parents' hashes. Equal hashes in two arenas mean equal derivation DAGs
/// in the verified configuration's own lines, whatever ids and whatever
/// numbering each arena used.
struct Shapes<'m> {
    lines: &'m LineMap,
    seen: HashMap<DerivId, u64>,
}

impl<'m> Shapes<'m> {
    fn new(lines: &'m LineMap) -> Self {
        Shapes {
            lines,
            seen: HashMap::new(),
        }
    }

    fn of(&mut self, arena: &DerivArena, id: DerivId) -> u64 {
        if let Some(&h) = self.seen.get(&id) {
            return h;
        }
        let node = arena.node(id);
        let mut parents: Vec<u64> = node.parents.iter().map(|p| self.of(arena, *p)).collect();
        parents.sort_unstable();
        let mut lines: Vec<LineId> = node.lines.iter().map(|l| self.lines.render(*l)).collect();
        lines.sort_unstable();
        let mut h = DefaultHasher::new();
        (node.kind, lines, parents).hash(&mut h);
        let h = h.finish();
        self.seen.insert(id, h);
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
        let own_lines = LineMap::default();
        for patch in candidates(net, incident) {
            let Ok(candidate) = patch.apply_cloned(broken) else {
                continue;
            };
            let inc = iv.verify_candidate(&candidate, &patch);
            let (full, out) = verifier.run_full(&candidate);
            // What symbolization walks: every record's derivation DAG, not
            // only the lines it closes over. A persistent-arena node reads
            // differently under each candidate's line map: one cache per
            // candidate.
            let mut inc_shapes = Shapes::new(&inc.line_map);
            let mut full_shapes = Shapes::new(&own_lines);
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
            // built over its arena, with the candidate's models in its own
            // lines, as the engine builds them.
            let compiled = (iv.base().expect("committed")).patched(&net.topo, &candidate, &patch);
            let inc_coverage = verifier.coverage(&inc, iv.arena(), compiled.models());
            let diags = inc.session_diags == full.session_diags;
            let records = inc.records.len() == full.records.len()
                && inc.records.iter().zip(&full.records).all(|(a, b)| {
                    (a.passed, &a.violation, &a.path) == (b.passed, &b.violation, &b.path)
                });
            let coverage = (inc_coverage.tests().iter())
                .zip(full.matrix.tests())
                .all(|(a, b)| a.lines == b.lines);
            if !(records && coverage && diags) {
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
