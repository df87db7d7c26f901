//! `acr-bench-e2e suite`: every workload in its own child process —
//! first the end-to-end run (tracing off), then the traced layer run —
//! collected into `results.json` together with the run's hygiene.

use crate::cli::Args;
use crate::report::strings;
use crate::spec::spec;
use acr::obs::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub const SCHEMA: &str = "acr-benchmark/v1";

/// Runs one child to completion; returns its `DETAIL` and result lines.
fn child(bin: &Path, args: &[String]) -> Result<(String, String), String> {
    let out = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!("{} {args:?}: {}", bin.display(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().unwrap_or_default().to_string();
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("DETAIL "))
        .unwrap_or("{}")
        .to_string();
    for doc in [&result, &detail] {
        json::parse(doc).map_err(|e| format!("{}: bad output '{doc}': {e}", bin.display()))?;
    }
    Ok((detail, result))
}

fn tool(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn hygiene(args: &Args, scrubbed: &[String]) -> String {
    let par = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = acr::prelude::RepairConfig::default().threads;
    json::Obj::new()
        .str("git_commit", &tool("git", &["rev-parse", "HEAD"]))
        .str("rustc", &tool("rustc", &["-V"]))
        .str("nproc", &tool("nproc", &[]))
        .int("available_parallelism", par)
        // RepairConfig::default().threads; 0 means "auto", which the
        // engine resolves to the available parallelism.
        .int("engine_threads_setting", threads)
        .int(
            "engine_threads_resolved",
            if threads == 0 { par } else { threads },
        )
        .u64("seed", args.parsed("--seed", crate::cli::DEFAULT_SEED))
        .num("seconds", args.seconds())
        .bool("smoke", args.flag("--smoke"))
        .int("setup_repetitions_min", crate::e2e::SETUP_REPS)
        .int("setup_repetitions_max", crate::e2e::SETUP_REPS_MAX)
        .str(
            "warm_up",
            "up to one pass per workload, capped at seconds/4",
        )
        .num("build_s", args.parsed("--build-s", f64::NAN))
        .raw("scrubbed_env", &strings(scrubbed))
        .build()
}

/// Runs the suite; returns whether every workload was correct.
pub fn run(args: &Args, scrubbed: &[String]) -> Result<bool, String> {
    let e2e_bin = std::env::current_exe().map_err(|e| e.to_string())?;
    let layers_bin = args.value("--layers-bin").map(PathBuf::from);
    let out_dir = PathBuf::from(args.value("--out-dir").unwrap_or("benchmark/out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let results = out_dir.join(args.value("--results").unwrap_or("results.json"));

    let mut pass_through = Vec::new();
    for key in ["--seed", "--seconds"] {
        if let Some(v) = args.value(key) {
            pass_through.extend([key.to_string(), v.to_string()]);
        }
    }
    if args.flag("--smoke") {
        pass_through.push("--smoke".to_string());
    }

    let mut workloads = json::Obj::new();
    let mut all_correct = true;
    for w in &spec().workloads {
        let mut cell = json::Obj::new();
        let sides = [("e2e", Some(&e2e_bin)), ("layers", layers_bin.as_ref())];
        for (side, bin) in sides {
            let Some(bin) = bin else { continue };
            eprintln!("== {} [{side}]", w.name);
            let mut argv = vec!["run".to_string(), "--workload".into(), w.name.clone()];
            argv.extend(pass_through.iter().cloned());
            if side == "layers" {
                argv.extend(["--out-dir".into(), out_dir.display().to_string()]);
            }
            let (detail, result) = child(bin, &argv)?;
            let correct = json::parse(&result)
                .ok()
                .and_then(|v| v.get("correct").cloned());
            all_correct &= correct == Some(Value::Bool(true));
            cell = cell.raw(
                side,
                &json::Obj::new()
                    .raw("result", &result)
                    .raw("detail", &detail)
                    .build(),
            );
        }
        workloads = workloads.raw(&w.name, &cell.build());
    }
    let doc = json::Obj::new()
        .str("schema", SCHEMA)
        .raw("hygiene", &hygiene(args, scrubbed))
        .raw("workloads", &workloads.build())
        .build();
    std::fs::write(&results, doc + "\n").map_err(|e| format!("{}: {e}", results.display()))?;
    eprintln!("wrote {}", results.display());
    Ok(all_correct)
}
