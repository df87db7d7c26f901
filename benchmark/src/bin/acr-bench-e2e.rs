//! `acr-bench-e2e run --workload W [--seed N] [--seconds S] [--smoke]`
//! measures one workload end to end (tracing off) and prints the
//! result object as the last line of stdout.
//! `acr-bench-e2e suite [...]` runs every workload in child processes
//! and writes `results.json`; `acr-bench-e2e compare --base A.json..
//! --new B.json.. [--same-commit]` judges one set of `results.json`
//! files against another.

use acr::obs::json;
use acr_benchmark::cli::{die, refuse_debug_build, scrub_env, Args};
use acr_benchmark::e2e::{JOB_PCT, TAIL_PCT};
use acr_benchmark::spec::spec;
use acr_benchmark::{compare, e2e, report, suite};

fn run(args: &Args) {
    let run_args = args.run_args();
    let r = e2e::run(&run_args);
    let table = &spec().end_to_end;
    let values = report::in_order(table, &r.metrics);
    report::print_metrics(
        &format!(
            "{} seed {}: {} timed jobs in {} of {} passes ({:.1} s, {:.1} % of it outside jobs), \
             unfiltered: p50 {:.3} ms, p99 {:.3} ms, {:.3} jobs/s; {} of {} jobs failed, \
             decision_digest {:016x}",
            run_args.workload.name,
            run_args.seed,
            r.samples,
            r.passes,
            r.planned,
            r.timed_s,
            100.0 * r.harness_share,
            r.raw_p50_ms,
            r.raw_p99_ms,
            r.raw_jobs_per_s,
            r.failed,
            r.attempted,
            r.decision_digest
        ),
        table,
        &values,
    );
    for e in &r.errors {
        eprintln!("  FAILED {e}");
    }
    let detail = json::Obj::new()
        .int("samples", r.samples)
        .int("passes", r.passes)
        .int("passes_planned", r.planned)
        .num("timed_s", r.timed_s)
        .num("harness_share", r.harness_share)
        .num("job_pct", JOB_PCT)
        .num("tail_pct", TAIL_PCT)
        .num("raw_p50_ms", r.raw_p50_ms)
        .num("raw_p99_ms", r.raw_p99_ms)
        .num("raw_jobs_per_s", r.raw_jobs_per_s)
        .num("failed_ratio", r.failed as f64 / r.attempted.max(1) as f64)
        .str("decision_digest", &format!("{:016x}", r.decision_digest))
        .raw("errors", &report::strings(&r.errors))
        .build();
    println!("DETAIL {detail}");
    println!(
        "{}",
        report::result_line(r.attempted, r.failed, table, &values)
    );
}

fn main() {
    let scrubbed = scrub_env();
    refuse_debug_build();
    let args = Args::from_env(2);
    match std::env::args().nth(1).as_deref() {
        Some("run") => run(&args),
        Some("suite") => match suite::run(&args, &scrubbed) {
            Ok(true) => {}
            Ok(false) => die("a workload reported failed jobs or a missing metric"),
            Err(why) => die(&why),
        },
        Some("compare") => {
            let read = |side: &str| -> Vec<String> {
                let docs = args.values(side).iter().map(|path| {
                    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")))
                });
                docs.collect()
            };
            let same_commit = args.flag("--same-commit");
            match compare::compare(&read("--base"), &read("--new"), same_commit) {
                Ok((rows, pass)) => {
                    compare::print(&rows);
                    if !pass {
                        die("regressed, more failures, or counts that do not repeat");
                    }
                }
                Err(why) => die(&why),
            }
        }
        _ => die("usage: acr-bench-e2e run|suite|compare ... (see benchmark/README.md)"),
    }
}
