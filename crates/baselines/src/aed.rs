//! AED-style synthesis repair.
//!
//! Whole-configuration delta encoding: one boolean "disable" variable per
//! line plus finite-domain value variables for symbolizable parameters.
//! The search enumerates candidate assignments in increasing change size
//! (single deltas, then single value substitutions, then pairs, …) and
//! validates each against the **full** specification, so an accepted
//! repair is guaranteed regression-free — the correctness half of the
//! paper's §2.3 characterization. The scalability half is measured too:
//! the search space is `2^free_variables` and the validation `budget`
//! caps how much of it the method may explore before giving up.

use acr_cfg::{Edit, NetworkConfig, Patch, PlAction, Stmt};
use acr_core::space::aed_free_variables;
use acr_net_types::Prefix;
use acr_obs::metrics::Counter;
use acr_obs::{journal, json, span};
use acr_topo::Topology;
use acr_verify::{Spec, Verifier};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

static RUNS: Counter = Counter::new("baseline.aed.runs");
static VALIDATIONS: Counter = Counter::new("baseline.aed.validations");

/// How an AED run ended.
#[derive(Debug, Clone)]
pub enum AedOutcome {
    /// A regression-free repair was synthesized.
    Fixed { patch: Patch },
    /// The validation budget ran out before a repair was found.
    BudgetExhausted,
    /// The enumerated space (up to the configured change size) held no
    /// repair.
    SpaceExhausted,
}

impl AedOutcome {
    /// Whether the run fixed the network.
    pub fn is_fixed(&self) -> bool {
        matches!(self, AedOutcome::Fixed { .. })
    }
}

/// Report of one AED run.
#[derive(Debug, Clone)]
pub struct AedReport {
    pub outcome: AedOutcome,
    /// Candidates validated.
    pub validations: usize,
    /// Free variables of the delta encoding — Figure 3b's exponent.
    pub free_vars: usize,
    pub wall: Duration,
}

/// Runs the baseline with a validation budget.
pub fn aed_repair(topo: &Topology, spec: &Spec, cfg: &NetworkConfig, budget: usize) -> AedReport {
    let _s = span!("baseline.aed", "baseline");
    let report = aed_inner(topo, spec, cfg, budget);
    RUNS.inc();
    VALIDATIONS.add(report.validations as u64);
    if acr_obs::enabled(acr_obs::JOURNAL) {
        let (outcome, patch) = match &report.outcome {
            AedOutcome::Fixed { patch } => ("fixed", patch.to_string()),
            AedOutcome::BudgetExhausted => ("budget_exhausted", String::new()),
            AedOutcome::SpaceExhausted => ("space_exhausted", String::new()),
        };
        journal::emit(
            &json::Obj::new()
                .str("event", "baseline_run")
                .u64("ts_us", journal::now_us())
                .str("baseline", "aed")
                .str("outcome", outcome)
                .str("patch", &patch)
                .int("validations", report.validations)
                .int("free_vars", report.free_vars)
                .build(),
        );
    }
    report
}

fn aed_inner(topo: &Topology, spec: &Spec, cfg: &NetworkConfig, budget: usize) -> AedReport {
    let start = Instant::now();
    let free_vars = aed_free_variables(cfg);
    let verifier = Verifier::new(topo, spec);
    let (v0, _) = verifier.run_full(cfg);
    if v0.all_passed() {
        return AedReport {
            outcome: AedOutcome::Fixed {
                patch: Patch::new(),
            },
            validations: 0,
            free_vars,
            wall: start.elapsed(),
        };
    }

    // The atomic change alphabet: disable any single line, or substitute
    // any symbolizable prefix parameter.
    let universe: BTreeSet<Prefix> = topo.attachments().map(|(_, p)| p).collect();
    let mut atoms: Vec<Patch> = Vec::new();
    for line in cfg.all_lines() {
        let Some(stmt) = cfg.stmt(line) else { continue };
        if !stmt.is_header() {
            atoms.push(Patch::single(Edit::Delete {
                router: line.router,
                index: line.index(),
            }));
        }
        if let Stmt::PrefixListEntry {
            list,
            index: pl_index,
            ..
        } = stmt
        {
            for p in &universe {
                atoms.push(Patch::single(Edit::Replace {
                    router: line.router,
                    index: line.index(),
                    stmt: Stmt::PrefixListEntry {
                        list: list.clone(),
                        index: *pl_index,
                        action: PlAction::Permit,
                        prefix: *p,
                        ge: None,
                        le: None,
                    },
                }));
            }
            // Value variables also admit *adding* an entry to the list.
            for p in &universe {
                atoms.push(Patch::single(Edit::Insert {
                    router: line.router,
                    index: line.index(),
                    stmt: Stmt::PrefixListEntry {
                        list: list.clone(),
                        index: *pl_index + 1,
                        action: PlAction::Permit,
                        prefix: *p,
                        ge: None,
                        le: None,
                    },
                }));
            }
        }
    }

    // Increasing change size: singletons, then pairs (the systematic
    // enumeration whose blow-up Figure 3b depicts). A helper validates one
    // combined candidate and reports success / budget exhaustion.
    let mut validations = 0usize;
    let check = |patch: Patch, validations: &mut usize| -> Option<AedReport> {
        if *validations >= budget {
            return Some(AedReport {
                outcome: AedOutcome::BudgetExhausted,
                validations: *validations,
                free_vars,
                wall: start.elapsed(),
            });
        }
        let Ok(candidate) = patch.apply_cloned(cfg) else {
            return None;
        };
        *validations += 1;
        let (v, _) = verifier.run_full(&candidate);
        if v.all_passed() {
            Some(AedReport {
                outcome: AedOutcome::Fixed { patch },
                validations: *validations,
                free_vars,
                wall: start.elapsed(),
            })
        } else {
            None
        }
    };
    for atom in &atoms {
        if let Some(report) = check(atom.clone(), &mut validations) {
            return report;
        }
    }
    for i in 0..atoms.len() {
        for j in (i + 1)..atoms.len() {
            if let Some(report) = check(atoms[i].concat(&atoms[j]), &mut validations) {
                return report;
            }
        }
    }
    AedReport {
        outcome: AedOutcome::SpaceExhausted,
        validations,
        free_vars,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_workloads::{generate, try_inject, FaultType};

    #[test]
    fn healthy_network_is_zero_cost() {
        let net = generate(&acr_topo::gen::wan(3, 3));
        let report = aed_repair(&net.topo, &net.spec, &net.cfg, 1000);
        assert!(report.outcome.is_fixed());
        assert_eq!(report.validations, 0);
        assert!(report.free_vars > 0);
    }

    /// A single-line fault sits within reach of the singleton sweep, and
    /// the accepted repair is regression-free by construction.
    #[test]
    fn fixes_single_line_fault_correctly() {
        let net = generate(&acr_topo::gen::wan(3, 3));
        let inc = try_inject(FaultType::StaleRouteMap, &net, 0).expect("injectable");
        let report = aed_repair(&net.topo, &net.spec, &inc.broken, 20_000);
        assert!(report.outcome.is_fixed(), "{:?}", report.outcome);
        let AedOutcome::Fixed { patch } = &report.outcome else {
            unreachable!()
        };
        let repaired = patch.apply_cloned(&inc.broken).unwrap();
        let verifier = acr_verify::Verifier::new(&net.topo, &net.spec);
        let (v, _) = verifier.run_full(&repaired);
        assert!(v.all_passed());
    }

    /// A tight budget exhausts on anything nontrivial — the paper's
    /// scalability critique, measurable.
    #[test]
    fn budget_exhaustion_is_reported() {
        let net = generate(&acr_topo::gen::wan(4, 8));
        let inc = try_inject(FaultType::MissingPeerGroup, &net, 0).expect("injectable");
        let report = aed_repair(&net.topo, &net.spec, &inc.broken, 25);
        assert!(
            matches!(report.outcome, AedOutcome::BudgetExhausted),
            "{:?}",
            report.outcome
        );
        assert_eq!(report.validations, 25);
    }
}
