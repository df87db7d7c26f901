//! The `acr-journal/v6` schema as one check, shared by the journal tests
//! of `tests/obs_pipeline.rs` and `crates/serve/tests/daemon.rs`.

use acr_obs::{journal, json};

/// Asserts one journal line satisfies the `acr-journal/v6` schema — the
/// per-event required fields, an unknown event failing — and returns it
/// parsed.
pub fn check_journal_line(line: &str) -> json::Value {
    let v = json::parse(line).unwrap_or_else(|e| panic!("journal line is not JSON ({e}): {line}"));
    let event = v
        .get("event")
        .and_then(|e| e.as_str())
        .unwrap_or_else(|| panic!("journal line lacks an event: {line}"));
    let need = |keys: &[&str]| {
        for k in keys {
            assert!(v.get(k).is_some(), "{event} record lacks '{k}': {line}");
        }
    };
    match event {
        "run_start" => {
            need(&["ts_us", "routers", "devices", "initial_failed", "config"]);
            assert_eq!(
                v.get("schema").and_then(|s| s.as_str()),
                Some(journal::SCHEMA),
                "run_start must stamp the schema: {line}"
            );
            let cfg = v.get("config").unwrap();
            for k in [
                "strategy", "seed", "threads", "cache", "delta", "lint", "tags",
            ] {
                assert!(cfg.get(k).is_some(), "run_start config lacks '{k}': {line}");
            }
        }
        "flow_summary" => need(&["ts_us", "fixpoint_iterations", "facts", "prior_lines"]),
        "iteration" => {
            need(&[
                "ts_us",
                "iteration",
                "fitness",
                "best_fitness",
                "generated",
                "kept",
                "lint_rejected",
                "validated",
                "cached",
                "invalid",
                "skipped",
                "suspects",
                "candidates",
            ]);
            for c in v.get("candidates").unwrap().as_arr().unwrap() {
                for k in ["patch", "outcome", "segments"] {
                    assert!(c.get(k).is_some(), "candidate lacks '{k}': {line}");
                }
            }
        }
        "run_end" => {
            need(&[
                "ts_us",
                "outcome",
                "patch",
                "fitness",
                "iterations",
                "validations",
                "validations_cached",
                "attribution",
                "tags",
            ]);
            for seg in v.get("attribution").unwrap().as_arr().unwrap() {
                for k in ["iteration", "op", "edits"] {
                    assert!(
                        seg.get(k).is_some(),
                        "attribution segment lacks '{k}': {line}"
                    );
                }
            }
        }
        "baseline_run" => need(&["ts_us", "baseline"]),
        // Serving events: a daemon job brackets the engine's
        // run_start..run_end records.
        "job_start" => need(&["ts_us", "job", "tenant", "network", "seq"]),
        "job_end" => need(&["ts_us", "job", "tenant", "network", "outcome", "resident"]),
        // Ends a job whose engine run panicked, in place of `job_end`.
        "job_failed" => need(&["ts_us", "job", "tenant", "network", "error"]),
        "admission_rejected" => need(&["ts_us", "tenant", "network", "reason"]),
        other => panic!("unknown journal event '{other}': {line}"),
    }
    v
}
