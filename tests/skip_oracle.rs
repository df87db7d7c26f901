//! An independent oracle for the validate stage's early stop.
//!
//! The engine validates a final iteration's candidates in preference
//! order (patch length, then candidate index) and stops at the first
//! zero-fitness verdict; the rest are journalled as `skipped`. This test
//! does not trust that argument. It reads the journal of each repair,
//! decodes every skipped candidate's patch from its text, applies it to
//! the broken configuration and judges it with a fresh
//! `Verifier::run_full`. A skipped candidate must not beat the winner:
//! it fails a test, or its patch is longer, or it is as long and comes
//! later. It also checks that only a final iteration skips and that every
//! report's accounting identity holds.
//!
//! Inputs: every Table-1 class at incident seeds 0–2 on `wan(4,8)`, the
//! Figure 2 incident, and the beam repairs of the scenario corpus that
//! `exp_scenarios --smoke` runs.

use acr::cfg::ast::BlockKind;
use acr::cfg::parse::{parse_device, parse_stmt};
use acr::obs::{self, journal, json};
use acr::prelude::*;
use acr::topo::Topology;
use acr::verify::{Spec, Verifier};
use std::sync::Mutex;

/// The journal sink is process-global.
static JOURNAL_LOCK: Mutex<()> = Mutex::new(());

/// What the oracle saw over a set of repairs.
#[derive(Default)]
struct Seen {
    skipped: usize,
    judged: usize,
}

/// The block a statement at `index` of `dev` would be parsed in — the
/// parser's context after the statements before it.
fn context(dev: &DeviceConfig, index: usize) -> Option<BlockKind> {
    let mut current = None;
    for stmt in dev.stmts().iter().take(index) {
        if let Some(block) = stmt.opens_block() {
            current = Some(block);
        } else if stmt.required_block().is_none() {
            current = None;
        }
    }
    current
}

/// Splits a journalled patch into its edits' texts. Edits are joined by
/// `"; "` and each starts with its router (`r<N>: `).
fn edit_texts(patch: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    for (at, _) in patch.match_indices("; r") {
        let rest = &patch[at + 3..];
        let digits = rest.chars().take_while(char::is_ascii_digit).count();
        if digits > 0 && rest[digits..].starts_with(": ") {
            out.push(&patch[start..at]);
            start = at + 2;
        }
    }
    out.push(&patch[start..]);
    out
}

/// Decodes a journalled patch against `broken` and returns the
/// configuration it yields, or `None` when it does not apply or a
/// touched device no longer re-parses — a candidate the engine counts
/// as invalid, which cannot win. A decoded patch must print back to the
/// journalled text.
fn apply_journalled(broken: &NetworkConfig, text: &str) -> Option<NetworkConfig> {
    let mut cfg = broken.clone();
    let mut patch = Patch::new();
    for edit in edit_texts(text) {
        let (router, rest) = edit.split_once(": ").expect("an edit names its router");
        let router = RouterId(router[1..].parse().expect("a router id"));
        let (op, rest) = rest.split_once(" @").expect("an edit names its index");
        let (index, stmt) = match rest.split_once(": ") {
            Some((index, stmt)) => (index, Some(stmt)),
            None => (rest, None),
        };
        let index: usize = index.parse().expect("an edit index");
        let stmt = || {
            let ctx = cfg.device(router).and_then(|d| context(d, index));
            parse_stmt(stmt.expect("an insert or replace carries a statement"), ctx)
                .expect("a journalled statement parses")
        };
        let edit = match op {
            "insert" => Edit::Insert {
                router,
                index,
                stmt: stmt(),
            },
            "replace" => Edit::Replace {
                router,
                index,
                stmt: stmt(),
            },
            "delete" => Edit::Delete { router, index },
            other => panic!("unknown edit '{other}' in {text}"),
        };
        Patch::single(edit.clone()).apply(&mut cfg).ok()?;
        patch.push(edit);
    }
    assert_eq!(patch.to_string(), text, "the decoder must round-trip");
    let reparses = patch.routers().into_iter().all(|r| {
        cfg.device(r)
            .is_some_and(|d| parse_device(d.name(), &d.to_text()).is_ok())
    });
    reparses.then_some(cfg)
}

/// Repairs `broken` with the journal captured and checks the skip rule
/// against the journal.
fn check(
    label: &str,
    topo: &Topology,
    spec: &Spec,
    broken: &NetworkConfig,
    config: RepairConfig,
    seen: &mut Seen,
) {
    let (report, raw) = {
        let _g = JOURNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        obs::set_flags(obs::JOURNAL);
        journal::capture_to_memory();
        let report = RepairEngine::new(topo, spec, config).repair(broken);
        let raw = journal::take_captured();
        obs::disable_all();
        (report, raw)
    };
    report
        .check_accounting()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let events: Vec<json::Value> = raw
        .lines()
        .map(|l| json::parse(l).expect("a journal line is JSON"))
        .collect();
    let event = |v: &json::Value| v.get("event").and_then(|e| e.as_str()).map(str::to_owned);
    let iterations: Vec<&json::Value> = events
        .iter()
        .filter(|v| event(v).as_deref() == Some("iteration"))
        .collect();
    let run_end = events
        .iter()
        .find(|v| event(v).as_deref() == Some("run_end"))
        .expect("a run ends");
    let num = |v: &json::Value, k: &str| v.get(k).and_then(|x| x.as_num()).unwrap() as usize;
    let text = |v: &json::Value, k: &str| v.get(k).and_then(|x| x.as_str()).unwrap().to_owned();

    assert_eq!(iterations.len(), report.iteration_count(), "{label}");
    for (it, stats) in iterations.iter().zip(&report.iterations) {
        assert_eq!(num(it, "skipped"), stats.skipped, "{label}");
    }
    if let Some((_, earlier)) = report.iterations.split_last() {
        for stats in earlier {
            assert_eq!(
                stats.skipped, 0,
                "{label}: iteration {} skipped candidates but did not end the run",
                stats.iteration
            );
        }
    }
    let Some(last) = iterations.last() else {
        return;
    };
    let rows = last.get("candidates").and_then(|c| c.as_arr()).unwrap();
    let skipped_rows = rows
        .iter()
        .filter(|r| text(r, "outcome") == "skipped")
        .count();
    assert_eq!(skipped_rows, num(last, "skipped"), "{label}");
    if skipped_rows == 0 {
        return;
    }
    assert!(report.outcome.is_fixed(), "{label}: only a win skips");
    let patch_len = |row: &json::Value| edit_texts(&text(row, "patch")).len();
    let winner = rows
        .iter()
        .position(|r| {
            text(r, "outcome") == "kept" && r.get("fitness").and_then(|f| f.as_num()) == Some(0.0)
        })
        .expect("a skipping iteration has a zero-fitness candidate");
    assert_eq!(
        text(&rows[winner], "patch"),
        text(run_end, "patch"),
        "{label}: the zero-fitness candidate is the repair"
    );
    let winner_len = patch_len(&rows[winner]);
    for (idx, row) in rows.iter().enumerate() {
        if text(row, "outcome") != "skipped" {
            continue;
        }
        seen.skipped += 1;
        let Some(cfg) = apply_journalled(broken, &text(row, "patch")) else {
            continue;
        };
        seen.judged += 1;
        let failed = Verifier::new(topo, spec).run_full(&cfg).0.failed_count();
        let len = patch_len(row);
        assert!(
            failed > 0 || len > winner_len || (len == winner_len && idx > winner),
            "{label}: skipped candidate {idx} ({len} edits, {failed} failed) beats \
             the winner {winner} ({winner_len} edits): {}",
            text(row, "patch")
        );
    }
}

#[test]
fn skipped_table1_and_fig2_candidates_cannot_beat_the_winner() {
    let net = acr::workloads::generate(&acr::topo::gen::wan(4, 8));
    let mut seen = Seen::default();
    for (fault, _) in acr::workloads::TABLE1 {
        for seed in 0..3 {
            let Some(incident) = acr::workloads::try_inject(fault, &net, seed) else {
                continue;
            };
            let label = format!("{fault:?}#{seed}");
            let config = RepairConfig::default();
            check(
                &label,
                &net.topo,
                &net.spec,
                &incident.broken,
                config,
                &mut seen,
            );
        }
    }
    let fig2 = acr::workloads::fig2::fig2_incident();
    let config = RepairConfig::default();
    check(
        "fig2",
        &fig2.topo,
        &fig2.spec,
        &fig2.broken,
        config,
        &mut seen,
    );
    assert!(
        seen.judged > 0,
        "none of {} skipped candidates was judged",
        seen.skipped
    );
}

#[test]
fn skipped_scenario_candidates_cannot_beat_the_winner() {
    let net = acr::workloads::generate(&acr::topo::gen::wan(4, 8));
    let mut seen = Seen::default();
    for scenario in acr::scenarios::corpus(&net, 2, 2024) {
        let spec = scenario.visible_spec(&net.spec);
        let config = RepairConfig {
            seed: 11,
            strategy: Strategy::beam(),
            tags: scenario.tags(),
            ..RepairConfig::default()
        };
        check(
            &scenario.label,
            &net.topo,
            &spec,
            &scenario.broken,
            config,
            &mut seen,
        );
    }
    assert!(
        seen.judged > 0,
        "none of {} skipped candidates was judged",
        seen.skipped
    );
}
