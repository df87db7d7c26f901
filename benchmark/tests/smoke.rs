//! The `--smoke` suite end to end, through the two binaries: full-size
//! set-up on a seed other than the default, one short pass per workload
//! and mode, every named metric present, no failed job.

use acr::obs::json::{self, Value};
use acr_benchmark::spec::spec;
use std::process::Command;

#[test]
fn smoke_suite_reports_every_metric_and_no_failure() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let _ = std::fs::remove_dir_all(&out_dir);
    let status = Command::new(env!("CARGO_BIN_EXE_acr-bench-e2e"))
        .args(["suite", "--smoke", "--seed", "78"])
        .args(["--layers-bin", env!("CARGO_BIN_EXE_acr-bench-layers")])
        .arg("--out-dir")
        .arg(&out_dir)
        // Scrubbed by the binaries and recorded in the hygiene block.
        .env("ACR_THREADS", "1")
        .status()
        .expect("the suite starts");
    assert!(status.success(), "suite exited with {status}");

    let doc = std::fs::read_to_string(out_dir.join("results.json")).expect("results.json");
    let v = json::parse(&doc).expect("results.json is JSON");
    let hygiene = v.get("hygiene").expect("hygiene block");
    for key in [
        "git_commit",
        "rustc",
        "nproc",
        "available_parallelism",
        "engine_threads_setting",
        "engine_threads_resolved",
        "seed",
        "seconds",
        "smoke",
        "scrubbed_env",
    ] {
        assert!(hygiene.get(key).is_some(), "hygiene.{key} missing");
    }
    assert_eq!(
        hygiene.get("scrubbed_env").unwrap().as_arr().unwrap(),
        [Value::Str("ACR_THREADS=1".into())]
    );
    assert_eq!(
        hygiene.get("engine_threads_setting").unwrap().as_num(),
        Some(0.0)
    );

    for w in &spec().workloads {
        let cell = v
            .get("workloads")
            .and_then(|ws| ws.get(&w.name))
            .expect(&w.name);
        for (side, table) in [("e2e", &spec().end_to_end), ("layers", &spec().per_layer)] {
            let result = cell.get(side).and_then(|s| s.get("result")).expect(side);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{} {side}",
                w.name
            );
            assert_eq!(result.get("failed").unwrap().as_num(), Some(0.0));
            assert!(result.get("attempted").unwrap().as_num().unwrap() >= 1.0);
            let metrics = result.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(metrics.len(), table.len(), "{} {side}", w.name);
            for m in table {
                let cell = metrics
                    .get(&m.name)
                    .unwrap_or_else(|| panic!("{} {side}: no metric {}", w.name, m.name));
                assert!(cell.get("value").unwrap().as_num().unwrap().is_finite());
                assert_eq!(cell.get("unit").unwrap().as_str(), Some(m.unit.as_str()));
            }
        }
        let digest = |side: &str| {
            cell.get(side)
                .and_then(|s| s.get("detail"))
                .and_then(|d| d.get("decision_digest"))
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        assert!(digest("e2e").is_some());
        assert_eq!(
            digest("e2e"),
            digest("layers"),
            "{}: digests repeat",
            w.name
        );
        let trace = std::fs::read_to_string(out_dir.join(format!("trace-{}.json", w.name)))
            .expect("trace file");
        let spans = json::parse(&trace).expect("trace is JSON");
        assert!(!spans.get("spans").unwrap().as_arr().unwrap().is_empty());
    }
}
