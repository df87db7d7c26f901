//! **Scenario benchmark** — every repair strategy scored on the
//! compositional incident corpus, per family.
//!
//! The paper's Figure 1 measures resolving time over *single*-fault
//! incidents; production outages compose. This harness generates the
//! `acr-scenarios` corpus (multi-independent, interacting, cascading and
//! partial-observability families) and scores four pluggable
//! [`RepairStrategy`] implementations on every scenario:
//!
//! - `acr-beam` — ACR with the multi-patch beam search,
//! - `acr-single` — one round of brute force: single-site patches to the
//!   original configuration (ablation),
//! - `metaprov` — the provenance baseline,
//! - `aed` — the synthesis baseline (400-validation budget).
//!
//! Each strategy sees the scenario's *visible* spec (the mask's
//! restriction for partial-observability scenarios); every returned
//! patch is harness-judged with a fresh full simulation, and
//! partial-observability repairs are additionally re-judged under **full**
//! observability — what the mask hid is exactly what the `hidden_ok`
//! column measures. Per `(family, strategy)` the harness emits a
//! Figure-1-style resolve-time CDF (p50/p90/max over resolved
//! incidents).
//!
//! **A/B acceptance**: at least one *interacting* scenario is resolved
//! by `acr-beam` and not by `acr-single` — the multi-patch search pays
//! for itself on exactly the incidents the paper's composed-fault
//! discussion predicts.
//!
//! Three digests are printed: `corpus_digest=` (the scenario corpus
//! content, which `ci.sh` checks against the golden pin),
//! `report_digest=` (FNV-1a over the acr-beam reports' semantic
//! signatures) and `outcome_digest=` (the same over their
//! [`acr_serve::outcome_signature`]s, which leave out the final
//! iteration's validation-order fields). The corpus is already CI-sized, so `--smoke` is accepted but changes
//! nothing — truncating it would dodge the incidents the A/B acceptance
//! hinges on.
//!
//! ```sh
//! cargo run --release -p acr-bench --bin exp_scenarios [-- --smoke]
//! ```

use acr_baselines::{AedStrategy, MetaProvStrategy};
use acr_bench::{fmt_duration, percentile, rule, standard_network};
use acr_cfg::NetworkConfig;
use acr_core::engine::DEFAULT_MAX_ITERATIONS;
use acr_core::{AcrStrategy, RepairConfig, RepairStrategy, Strategy, StrategyVerdict};
use acr_scenarios::{corpus, corpus_digest, Scenario, ScenarioFamily};
use acr_serve::{digest, outcome_signature};
use acr_topo::Topology;
use acr_verify::{Spec, Verifier};
use std::collections::BTreeMap;

/// Semantic signature of an ACR report: what was decided, not what it
/// cost.
fn signature(label: &str, r: &acr_core::RepairReport) -> String {
    use acr_core::RepairOutcome;
    let outcome = match &r.outcome {
        RepairOutcome::Fixed { patch, .. } => format!("fixed {patch}"),
        RepairOutcome::NoCandidates {
            best_patch,
            best_fitness,
        } => format!("no_candidates {best_fitness} {best_patch}"),
        RepairOutcome::IterationLimit {
            best_patch,
            best_fitness,
        } => format!("iteration_limit {best_fitness} {best_patch}"),
    };
    let iters: Vec<String> = r
        .iterations
        .iter()
        .map(|s| {
            format!(
                "{}:{}:{}:{}:{}",
                s.iteration, s.fitness, s.best_fitness, s.generated, s.kept
            )
        })
        .collect();
    let attr: Vec<String> = r
        .attribution
        .iter()
        .map(|s| format!("{}@{}x{}", s.op, s.iteration, s.edits))
        .collect();
    format!(
        "{label} | {outcome} | init={} | {} | attr={}",
        r.initial_failed,
        iters.join(";"),
        attr.join(",")
    )
}

/// The ACR strategies, rebuilt per scenario so reports carry its tags.
fn acr_strategies(scenario: &Scenario) -> Vec<AcrStrategy> {
    let with = |label: &str, strategy: Strategy, max_iterations: usize| {
        AcrStrategy::new(
            label,
            RepairConfig {
                seed: 11,
                strategy,
                max_iterations,
                tags: scenario.tags(),
                ..RepairConfig::default()
            },
        )
    };
    vec![
        with("acr-beam", Strategy::beam(), DEFAULT_MAX_ITERATIONS),
        // The single-patch ablation: one round of brute force, every
        // candidate one template application to the original.
        with("acr-single", Strategy::brute_force(), 1),
    ]
}

/// One scored attempt.
struct Scored {
    strategy: String,
    verdict: StrategyVerdict,
    /// Whether the proposed patch also clears the *full* spec (equals
    /// `verdict.resolved` except for partial-observability scenarios).
    full_ok: bool,
}

fn judge_full(
    topo: &Topology,
    full: &Spec,
    broken: &NetworkConfig,
    verdict: &StrategyVerdict,
) -> bool {
    let Some(patch) = &verdict.patch else {
        return false;
    };
    let Ok(repaired) = patch.apply_cloned(broken) else {
        return false;
    };
    Verifier::new(topo, full).run_full(&repaired).0.all_passed()
}

fn main() {
    // The 2-per-family corpus is already CI-sized (seconds); `--smoke`
    // is accepted but must not truncate it — dropping scenarios would
    // dodge the interacting incident the A/B acceptance hinges on.
    let per_family = 2;
    let net = standard_network();
    let scenarios = corpus(&net, per_family, 2024);
    println!(
        "scenario corpus: {} scenarios ({per_family} per family), 12-router WAN",
        scenarios.len()
    );
    println!("corpus_digest={:016x}\n", corpus_digest(&scenarios));

    let header = format!(
        "{:<26} {:<12} {:>8} {:>6} {:>6} {:>9} {:>8}",
        "Scenario", "Strategy", "Resolved", "Full", "Resid", "Valids", "Wall"
    );
    println!("{header}");
    rule(header.len());

    let mut scored: Vec<(usize, Scored)> = Vec::new();
    let mut beam_signatures: Vec<String> = Vec::new();
    let mut beam_outcomes: Vec<String> = Vec::new();
    for (si, scenario) in scenarios.iter().enumerate() {
        let spec = scenario.visible_spec(&net.spec);
        let mut attempts: Vec<Scored> = Vec::new();
        for acr in acr_strategies(scenario) {
            let verdict = acr.attempt(&net.topo, &spec, &scenario.broken);
            let report = verdict.report.as_ref().expect("ACR verdicts carry reports");
            report
                .check_accounting()
                .unwrap_or_else(|e| panic!("{}: accounting violated: {e}", scenario.label));
            assert_eq!(
                report.tags,
                scenario.tags(),
                "{}: tags dropped",
                scenario.label
            );
            if acr.name() == "acr-beam" {
                beam_signatures.push(signature(&scenario.label, report));
                beam_outcomes.push(outcome_signature(&scenario.label, report));
            }
            attempts.push(Scored {
                strategy: acr.name().to_string(),
                full_ok: judge_full(&net.topo, &net.spec, &scenario.broken, &verdict),
                verdict,
            });
        }
        for baseline in [
            Box::new(MetaProvStrategy) as Box<dyn RepairStrategy>,
            Box::new(AedStrategy { budget: 400 }),
        ] {
            let verdict = baseline.attempt(&net.topo, &spec, &scenario.broken);
            attempts.push(Scored {
                strategy: baseline.name().to_string(),
                full_ok: judge_full(&net.topo, &net.spec, &scenario.broken, &verdict),
                verdict,
            });
        }
        for s in attempts {
            println!(
                "{:<26} {:<12} {:>8} {:>6} {:>6} {:>9} {:>8}",
                scenario.label,
                s.strategy,
                if s.verdict.resolved { "yes" } else { "no" },
                if s.full_ok { "yes" } else { "no" },
                s.verdict.residual_failures,
                s.verdict.validations,
                fmt_duration(s.verdict.wall),
            );
            scored.push((si, s));
        }
    }
    rule(header.len());

    // Per-(family, strategy) Figure-1-style resolve-time CDFs.
    let mut by_key: BTreeMap<(String, String), Vec<(bool, f64)>> = BTreeMap::new();
    for (si, s) in &scored {
        by_key
            .entry((scenarios[*si].family.tag().to_string(), s.strategy.clone()))
            .or_default()
            .push((s.verdict.resolved, s.verdict.wall.as_secs_f64()));
    }
    println!("\nper-family resolve-time CDFs (resolved incidents; seconds)");
    let h2 = format!(
        "{:<24} {:<12} {:>9} {:>9} {:>9} {:>9}",
        "Family", "Strategy", "Resolved", "p50", "p90", "max"
    );
    println!("{h2}");
    rule(h2.len());
    for ((family, strategy), runs) in &by_key {
        let mut times: Vec<f64> = runs.iter().filter(|(ok, _)| *ok).map(|(_, t)| *t).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let frac = |p: f64| {
            if times.is_empty() {
                "-".to_string()
            } else {
                format!("{:.3}", percentile(&times, p))
            }
        };
        println!(
            "{:<24} {:<12} {:>5}/{:<3} {:>9} {:>9} {:>9}",
            family,
            strategy,
            times.len(),
            runs.len(),
            frac(50.0),
            frac(90.0),
            frac(100.0),
        );
    }
    rule(h2.len());

    // A/B acceptance: beam resolves an interacting scenario single-patch
    // cannot.
    let resolved_by = |si: usize, name: &str| {
        scored
            .iter()
            .any(|(i, s)| *i == si && s.strategy == name && s.verdict.resolved)
    };
    let beam_only: Vec<&str> = scenarios
        .iter()
        .enumerate()
        .filter(|(_, sc)| sc.family == ScenarioFamily::Interacting)
        .filter(|(si, _)| resolved_by(*si, "acr-beam") && !resolved_by(*si, "acr-single"))
        .map(|(_, sc)| sc.label.as_str())
        .collect();
    assert!(
        !beam_only.is_empty(),
        "acceptance: no interacting scenario separates beam from single-patch"
    );
    println!(
        "A/B: multi-patch beam resolves {} interacting scenario(s) single-patch cannot: {}",
        beam_only.len(),
        beam_only.join(", ")
    );

    let families_covered = ScenarioFamily::ALL
        .iter()
        .filter(|f| scenarios.iter().any(|s| s.family == **f))
        .count();
    assert!(families_covered >= 4, "corpus must cover all four families");

    println!("report_digest={:016x}", digest(&beam_signatures));
    println!("outcome_digest={:016x}", digest(&beam_outcomes));
}
