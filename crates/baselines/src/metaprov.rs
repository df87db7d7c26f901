//! MetaProv-style provenance repair.
//!
//! The method of the paper's §2.3 critique: identify the provenance
//! leaves of the failing behaviour, mutate the configuration value behind
//! one leaf at a time, and accept the first mutation under which the
//! originally failing tests pass — *without* re-checking the other
//! intents. The returned report measures the regressions such an update
//! introduces, which is exactly what the paper's Figure 2 example
//! illustrates (patching router A alone leaves a C–S problem behind).

use acr_cfg::{Edit, NetworkConfig, Patch, PlAction, Stmt};
use acr_net_types::Prefix;
use acr_obs::metrics::Counter;
use acr_obs::{journal, json, span};
use acr_prov::{Provenance, TestId};
use acr_topo::Topology;
use acr_verify::{Spec, Verifier};
use std::collections::BTreeSet;

static RUNS: Counter = Counter::new("baseline.metaprov.runs");
static CANDIDATES: Counter = Counter::new("baseline.metaprov.candidates");

/// Result of a MetaProv-style repair attempt.
#[derive(Debug, Clone)]
pub struct MetaProvReport {
    /// Whether some mutation made the originally failing tests pass.
    pub fixed_target: bool,
    /// The accepted patch, when one was found.
    pub patch: Option<Patch>,
    /// Tests that passed before the patch and fail after it — the
    /// regressions provenance methods do not guard against.
    pub regressions: usize,
    /// Failures remaining after the patch (including regressions).
    pub residual_failures: usize,
    /// The method's search space: provenance leaves of the failure
    /// (Figure 3a's N).
    pub search_space: usize,
    /// Candidate mutations validated.
    pub candidates_tried: usize,
}

/// Runs the baseline.
pub fn metaprov_repair(topo: &Topology, spec: &Spec, cfg: &NetworkConfig) -> MetaProvReport {
    let _s = span!("baseline.metaprov", "baseline");
    let report = metaprov_inner(topo, spec, cfg);
    RUNS.inc();
    CANDIDATES.add(report.candidates_tried as u64);
    if acr_obs::enabled(acr_obs::JOURNAL) {
        journal::emit(
            &json::Obj::new()
                .str("event", "baseline_run")
                .u64("ts_us", journal::now_us())
                .str("baseline", "metaprov")
                .bool("fixed_target", report.fixed_target)
                .str(
                    "patch",
                    &report
                        .patch
                        .as_ref()
                        .map(|p| p.to_string())
                        .unwrap_or_default(),
                )
                .int("regressions", report.regressions)
                .int("residual_failures", report.residual_failures)
                .int("search_space", report.search_space)
                .int("candidates_tried", report.candidates_tried)
                .build(),
        );
    }
    report
}

fn metaprov_inner(topo: &Topology, spec: &Spec, cfg: &NetworkConfig) -> MetaProvReport {
    let verifier = Verifier::new(topo, spec);
    let (v0, out0) = verifier.run_full(cfg);
    let originally_failing: BTreeSet<TestId> = v0.failures().map(|r| r.id).collect();
    if originally_failing.is_empty() {
        return MetaProvReport {
            fixed_target: true,
            patch: Some(Patch::new()),
            regressions: 0,
            residual_failures: 0,
            search_space: 0,
            candidates_tried: 0,
        };
    }
    let prov = Provenance::new(&out0.arena);
    let roots: Vec<_> = v0
        .failures()
        .flat_map(|r| r.deriv_roots.iter().copied())
        .collect();
    let leaves = prov.leaves(roots.clone());
    let search_space = leaves.len();
    let mut leaf_lines: Vec<acr_cfg::LineId> = prov.leaf_lines(roots).into_iter().collect();
    leaf_lines.sort();

    // Candidate value universe for substitutions: every prefix the tests
    // care about.
    let universe: BTreeSet<Prefix> = v0
        .records
        .iter()
        .flat_map(|r| {
            topo.attachments()
                .map(|(_, p)| p)
                .filter(move |p| p.contains(r.flow.dst))
        })
        .collect();

    let mut tried = 0usize;
    for line in leaf_lines {
        let Some(stmt) = cfg.stmt(line) else { continue };
        for candidate in mutations(stmt, line, &universe) {
            tried += 1;
            let Ok(patched) = candidate.apply_cloned(cfg) else {
                continue;
            };
            let (v1, _) = verifier.run_full(&patched);
            let target_fixed = v1
                .records
                .iter()
                .filter(|r| originally_failing.contains(&r.id))
                .all(|r| r.passed);
            if target_fixed {
                // Accepted! Only now do we (the evaluation harness, not
                // the method) measure what else broke.
                let regressions = v1
                    .failures()
                    .filter(|r| !originally_failing.contains(&r.id))
                    .count();
                return MetaProvReport {
                    fixed_target: true,
                    patch: Some(candidate),
                    regressions,
                    residual_failures: v1.failed_count(),
                    search_space,
                    candidates_tried: tried,
                };
            }
        }
    }
    MetaProvReport {
        fixed_target: false,
        patch: None,
        regressions: 0,
        residual_failures: v0.failed_count(),
        search_space,
        candidates_tried: tried,
    }
}

/// Single-line value mutations for a leaf statement: delete it, or swap
/// its principal value for another drawn from the universe.
fn mutations(stmt: &Stmt, line: acr_cfg::LineId, universe: &BTreeSet<Prefix>) -> Vec<Patch> {
    let router = line.router;
    let index = line.index();
    let mut out = Vec::new();
    if !stmt.is_header() {
        out.push(Patch::single(Edit::Delete { router, index }));
    }
    match stmt {
        Stmt::PrefixListEntry {
            list,
            index: pl_index,
            ge,
            le,
            ..
        } => {
            for p in universe {
                out.push(Patch::single(Edit::Replace {
                    router,
                    index,
                    stmt: Stmt::PrefixListEntry {
                        list: list.clone(),
                        index: *pl_index,
                        action: PlAction::Permit,
                        prefix: *p,
                        ge: *ge,
                        le: *le,
                    },
                }));
            }
        }
        Stmt::Network(_) => {
            for p in universe {
                out.push(Patch::single(Edit::Replace {
                    router,
                    index,
                    stmt: Stmt::Network(*p),
                }));
            }
        }
        Stmt::StaticRoute { next_hop, .. } => {
            for p in universe {
                out.push(Patch::single(Edit::Replace {
                    router,
                    index,
                    stmt: Stmt::StaticRoute {
                        prefix: *p,
                        next_hop: *next_hop,
                    },
                }));
            }
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_workloads::{fig2::fig2_incident, generate, try_inject, FaultType};

    #[test]
    fn healthy_network_needs_no_repair() {
        let fig2 = fig2_incident();
        let report = metaprov_repair(&fig2.topo, &fig2.spec, &fig2.intended);
        assert!(report.fixed_target);
        assert_eq!(report.candidates_tried, 0);
    }

    /// The paper's §2.3 story: on the Figure 2 incident, a single-line
    /// provenance fix either fails outright or leaves the network broken.
    #[test]
    fn fig2_single_line_fix_is_insufficient_or_regressive() {
        let fig2 = fig2_incident();
        let report = metaprov_repair(&fig2.topo, &fig2.spec, &fig2.broken);
        assert!(report.search_space > 0);
        if report.fixed_target {
            assert!(
                report.regressions > 0,
                "a single-line fix of a two-device fault must regress something: {report:?}"
            );
        }
    }

    /// Single-line faults are where provenance methods shine: the leaf is
    /// the fault.
    #[test]
    fn repairs_simple_prefix_list_fault() {
        let net = generate(&acr_topo::gen::wan(4, 8));
        let inc = try_inject(FaultType::WrongOverrideAsn, &net, 0).expect("injectable");
        let report = metaprov_repair(&net.topo, &net.spec, &inc.broken);
        // Deleting the wrong-AS override line restores correctness (the
        // overwrite falls away entirely, which still hides nothing — the
        // route is then denied or carries 64999; either way MetaProv may
        // or may not fix it, but it must at least explore a non-empty
        // space).
        assert!(report.search_space > 0);
        assert!(report.candidates_tried > 0);
    }
}
