//! `acr-bench-layers run --workload W [--seed N] [--seconds S]
//! [--smoke] [--out-dir DIR]`: the traced run, a quarter of the
//! end-to-end run's passes. Untraced and traced passes alternate; the
//! untraced ones give the per-job stage times and funnel counts a
//! `RepairReport` carries, the traced ones give spans, the `acr-obs`
//! counters and the tracing overhead. After each job of the first
//! traced pass the layer probes run on that job's broken config. Spans
//! go to
//! `<out-dir>/trace-<workload>.json`, a share table to stderr, and the
//! per-layer metrics to the last line of stdout.

mod probes;

use acr::obs::json::{self, Value};
use acr::obs::metrics::{self, MetricValue};
use acr_benchmark::cli::{die, refuse_debug_build, scrub_env, Args};
use acr_benchmark::e2e::{pass_of, planned_passes, timed_setup, warm_up, OVERRUN};
use acr_benchmark::report;
use acr_benchmark::runner::{Checker, Done, Runner};
use acr_benchmark::spans::{share_table, Tracer};
use acr_benchmark::spec::spec;
use acr_benchmark::stats::{self, mean, median, percentile};
use std::collections::BTreeMap;
use std::time::Instant;

/// What one job contributes to the per-layer metrics.
struct JobObs {
    wall_ms: f64,
    resident: bool,
    /// `RepairReport::stage`, in ms (one-shot jobs only).
    stage: Option<[f64; 8]>,
    /// The candidate funnel, from the report JSON.
    funnel: [f64; 8],
}

const STAGES: [&str; 8] = [
    "engine.commit_ms",
    "engine.generate_ms",
    "engine.validate_ms",
    "engine.select_ms",
    "sim.compile_ms",
    "sim.establish_ms",
    "sim.simulate_ms",
    "sim.converge_ms",
];

const FUNNEL: [&str; 8] = [
    "engine.iterations",
    "engine.generated",
    "engine.sims",
    "engine.cached",
    "engine.flow_skipped",
    "engine.sym_validated",
    "engine.lint_rejected",
    "engine.invalid",
];

fn funnel_of(report_json: &str) -> [f64; 8] {
    let v = json::parse(report_json).expect("report JSON parses");
    let top = |k: &str| v.get(k).and_then(Value::as_num).unwrap_or(0.0);
    let per_iter = |k: &str| -> f64 {
        v.get("iteration_detail")
            .and_then(Value::as_arr)
            .map_or(0.0, |its| {
                its.iter()
                    .filter_map(|it| it.get(k).and_then(Value::as_num))
                    .sum()
            })
    };
    [
        top("iterations"),
        per_iter("generated"),
        top("validations"),
        top("validations_cached"),
        top("validations_skipped"),
        top("validations_symbolic"),
        per_iter("lint_rejected"),
        per_iter("invalid"),
    ]
}

fn observe(wall_ms: f64, done: &Done) -> JobObs {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    match done {
        Done::OneShot(r) => JobObs {
            wall_ms,
            resident: false,
            stage: Some([
                ms(r.stage.commit),
                ms(r.stage.generate),
                ms(r.stage.validate),
                ms(r.stage.select),
                ms(r.stage.sim_compile),
                ms(r.stage.sim_establish),
                ms(r.stage.sim_simulate),
                ms(r.stage.sim_converge),
            ]),
            funnel: funnel_of(&acr::serve::report_json(r)),
        },
        Done::Served {
            resident,
            report_json,
            ..
        } => JobObs {
            wall_ms,
            resident: *resident,
            stage: None,
            funnel: funnel_of(report_json),
        },
    }
}

/// A counter of the `acr-obs` registry (0 when it never fired).
fn counter(snap: &BTreeMap<String, MetricValue>, name: &str) -> f64 {
    match snap.get(name) {
        Some(MetricValue::Counter(n)) | Some(MetricValue::Gauge(n)) => *n as f64,
        _ => 0.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn main() {
    scrub_env();
    let args = Args::from_env(2);
    if std::env::args().nth(1).as_deref() != Some("run") {
        die("usage: acr-bench-layers run --workload W [--seed N] [--seconds S] [--smoke] [--out-dir DIR]");
    }
    refuse_debug_build();
    let run_args = args.run_args();
    let w = run_args.workload;
    let out_dir = std::path::PathBuf::from(args.value("--out-dir").unwrap_or("benchmark/out"));

    let (inputs, _) = timed_setup(&w.name, run_args.seed, 1, 1);
    let pass = pass_of(&inputs, run_args.smoke);
    // Pairs of one untraced and one traced pass.
    let pairs = (planned_passes(&inputs, &run_args) / 4).max(1);
    let mut checker = Checker::new(&inputs);
    let mut runner = Runner::new(&inputs);
    if !run_args.smoke {
        warm_up(&mut runner, &mut checker, &pass, run_args.seconds);
    }
    let mut tracer = Tracer::new(false);
    let mut probes = probes::Probes::default();
    let mut probed = vec![false; inputs.jobs.len()];

    let mut untraced: Vec<JobObs> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    // Per position of the pass, the best untraced wall time.
    let mut floor = vec![f64::INFINITY; pass.len()];
    let mut pairs_done = 0usize;
    metrics::reset();
    let t = Instant::now();
    for pass_no in 0..2 * pairs {
        let tracing = pass_no % 2 == 1;
        if !tracing && t.elapsed().as_secs_f64() > OVERRUN * run_args.seconds.max(1.0) {
            break;
        }
        tracer.on = tracing;
        if tracing {
            acr::obs::enable_metrics();
        } else {
            acr::obs::disable_all();
        }
        runner.begin_pass();
        for (i, &idx) in pass.iter().enumerate() {
            let id = format!("{}/{pass_no}/{i}", w.name);
            let run = runner.run(idx, &mut tracer, &id);
            if let Ok(r) = &run {
                let obs = observe(r.wall_ms, &r.done);
                if tracing {
                    if let Some(s) = obs.stage {
                        let ns = |ms: f64| (ms * 1e6) as u64;
                        tracer.attach_stages(
                            "engine.repair",
                            &[
                                ("engine.commit", ns(s[0])),
                                ("engine.generate", ns(s[1])),
                                ("engine.validate", ns(s[2])),
                                ("engine.select", ns(s[3])),
                            ],
                        );
                    }
                    traced_walls.push(obs.wall_ms);
                } else {
                    floor[i] = floor[i].min(obs.wall_ms);
                    untraced.push(obs);
                }
            }
            checker.judge(idx, run);
            if tracing && !probed[idx] {
                // Probes must not count into the program's counters.
                probed[idx] = true;
                acr::obs::disable_all();
                let job = &inputs.jobs[idx];
                probes.config(&mut tracer, &id, &inputs.net, &job.broken);
                if !job.line.is_empty() {
                    probes.line(&mut tracer, &id, &job.line);
                }
                acr::obs::enable_metrics();
            }
        }
        pairs_done += usize::from(tracing);
    }
    acr::obs::disable_all();
    let snap = metrics::snapshot();
    let decision_digest = checker.finish();

    // --- the per-layer metrics -------------------------------------
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    let walls: Vec<f64> = untraced.iter().map(|j| j.wall_ms).collect();
    // What the end-to-end run's quartiles filter out, and their floor.
    let mut sorted = walls.clone();
    stats::sort(&mut sorted);
    m.insert("job.raw_p50_ms", percentile(&sorted, 50.0));
    m.insert("job.raw_p99_ms", percentile(&sorted, 99.0));
    m.insert("job.floor_ms", median(&floor));
    let staged: Vec<&JobObs> = untraced.iter().filter(|j| j.stage.is_some()).collect();
    if !staged.is_empty() {
        for (k, name) in STAGES.iter().enumerate() {
            let xs: Vec<f64> = staged
                .iter()
                .map(|j| j.stage.expect("filtered")[k])
                .collect();
            m.insert(name, mean(&xs));
        }
        let of = |name: &str| m[name];
        let engine = of("engine.commit_ms")
            + of("engine.generate_ms")
            + of("engine.validate_ms")
            + of("engine.select_ms");
        let sim = of("sim.compile_ms") + of("sim.establish_ms") + of("sim.simulate_ms");
        let nonsim = of("engine.validate_ms") - sim;
        m.insert("engine.unattributed_ms", mean(&walls) - engine);
        m.insert("engine.validate_nonsim_ms", nonsim);
    }
    for (k, name) in FUNNEL.iter().enumerate() {
        let total: f64 = untraced.iter().map(|j| j.funnel[k]).sum();
        m.insert(name, total / pairs_done as f64);
    }
    let attempted = m["engine.generated"] - m["engine.invalid"] - m["engine.lint_rejected"];
    m.insert(
        "engine.sim_ratio",
        ratio(m["engine.sims"], m["engine.generated"]),
    );
    m.insert(
        "flow.gate_skip_ratio",
        ratio(m["engine.flow_skipped"], attempted),
    );
    m.insert(
        "engine.sym_ratio",
        ratio(m["engine.sym_validated"], attempted),
    );
    for (name, xs) in &probes.0 {
        m.insert(name, median(xs));
    }
    if inputs.daemon() {
        for (name, span) in [
            ("serve.submit_ms", "serve.submit"),
            ("serve.step_ms", "serve.step"),
            ("serve.result_ms", "serve.result"),
        ] {
            let xs: Vec<f64> = tracer
                .spans
                .iter()
                .filter(|s| s.name == span)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .collect();
            m.insert(name, median(&xs));
        }
        let bytes: Vec<f64> = pass
            .iter()
            .map(|&i| inputs.jobs[i].line.len() as f64)
            .collect();
        m.insert("serve.line_bytes", median(&bytes));
        let split = |warm: bool| -> Vec<f64> {
            untraced
                .iter()
                .filter(|j| j.resident == warm)
                .map(|j| j.wall_ms)
                .collect()
        };
        let (warm, cold) = (split(true), split(false));
        m.insert(
            "serve.warm_resume_ratio",
            ratio(warm.len() as f64, walls.len() as f64),
        );
        m.insert(
            "serve.warm_job_p50_ms",
            if warm.is_empty() { 0.0 } else { median(&warm) },
        );
        m.insert(
            "serve.cold_job_p50_ms",
            if cold.is_empty() { 0.0 } else { median(&cold) },
        );
    }
    let per_pass = |name: &str| counter(&snap, name) / pairs_done as f64;
    for (name, source) in [
        ("sim.runs", "sim.runs"),
        ("sim.policy_evals", "sim.policy_evals"),
        ("sim.policy_memo_hits", "sim.policy_memo_hits"),
        ("sim.shard_runs", "sim.shard_runs"),
        ("verify.prefixes_recomputed", "verify.prefixes_recomputed"),
        ("verify.prefixes_reused", "verify.prefixes_reused"),
        ("verify.resume_hits", "verify.resume.hits"),
        ("flow.fixpoint_iterations", "flow.fixpoint.iterations"),
        ("flow.facts", "flow.facts"),
        ("smt.solves", "smt.dpll.solves"),
    ] {
        m.insert(name, per_pass(source));
    }
    let hit_ratio = |hits: &str, misses: &str| {
        ratio(
            counter(&snap, hits),
            counter(&snap, hits) + counter(&snap, misses),
        )
    };
    m.insert(
        "verify.reuse_ratio",
        hit_ratio("verify.prefixes_reused", "verify.prefixes_recomputed"),
    );
    m.insert(
        "verify.cache_hit_ratio",
        hit_ratio("cache.candidate.hits", "cache.candidate.misses"),
    );
    m.insert(
        "lint.memo_hit_ratio",
        hit_ratio("lint.memo.hits", "lint.memo.misses"),
    );
    m.insert("trace.overhead_ratio", mean(&traced_walls) / mean(&walls));
    m.insert("trace.span_count", tracer.spans.len() as f64);

    // --- what people read ------------------------------------------
    let table = &spec().per_layer;
    let values = report::in_order(table, &m);
    let job_mean = mean(&walls);
    eprintln!(
        "{} seed {}: {} jobs per pass, {} pairs of an untraced and a traced pass, mean job wall {:.3} ms, {} of {} failed",
        w.name,
        run_args.seed,
        pass.len(),
        pairs_done,
        job_mean,
        checker.failed,
        checker.attempted
    );
    eprintln!(
        "  {:<28} {:>14} {:<6} {:>9}",
        "per-layer metric", "value", "unit", "of job"
    );
    for (spec, v) in table.iter().zip(&values) {
        let share = if spec.unit == "ms" {
            format!("{:>8.1}%", 100.0 * v / job_mean)
        } else {
            String::new()
        };
        eprintln!("  {:<28} {:>14.4} {:<6} {share}", spec.name, v, spec.unit);
    }
    let (rows, closure) = share_table(&tracer.spans);
    eprintln!(
        "  {:<28} {:>7} {:>12} {:>12} {:>9}",
        "span", "calls", "total ms", "self ms", "of job"
    );
    for r in &rows {
        eprintln!(
            "  {:<28} {:>7} {:>12.3} {:>12.3} {:>8.1}%",
            r.name,
            r.calls,
            r.total_ms,
            r.self_ms,
            100.0 * r.share
        );
    }
    eprintln!("  children cover {:.1} % of job wall", 100.0 * closure);
    for e in &checker.errors {
        eprintln!("  FAILED {e}");
    }

    let trace_file = out_dir.join(format!("trace-{}.json", w.name));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&trace_file, tracer.to_json(&w.name) + "\n"))
        .unwrap_or_else(|e| die(&format!("{}: {e}", trace_file.display())));

    let detail = json::Obj::new()
        .int("pass_pairs", pairs_done)
        .num("job_mean_ms", job_mean)
        .num("closure", closure)
        .str("decision_digest", &format!("{decision_digest:016x}"))
        .str("trace_file", &trace_file.display().to_string())
        .raw("errors", &report::strings(&checker.errors))
        .build();
    println!("DETAIL {detail}");
    println!(
        "{}",
        report::result_line(checker.attempted, checker.failed, table, &values)
    );
}
