//! Where a repair job's time goes, span by span.
//!
//! Repairs the six jobs of the benchmark's `wan72` workload on
//! `wan(24,48)` — a missing redistribution twice (two distinct broken
//! configurations), then a missing PBR permit, a missing peer group, an
//! extra peer-group item and missing prefix-list items, each at its first
//! observable site in router order (the workload's fixed-site rule): one
//! untraced warm-up pass, then `N` traced passes (default 3). A second
//! argument `B` sets the backbone size: the same fault mix on
//! `wan(B, 2B)` (default 24). For every span name it prints calls,
//! total ms and self ms, each per job; self time is a span's duration
//! minus what its direct children cover (children on the same thread
//! inside its interval, clipped to it). Each job runs inside a `job`
//! span, so `job`'s self time is the time no engine span covers.
//!
//! Spans on the job's own thread are its critical path: their self times
//! sum to the wall, printed as the `critical path` line, which equals
//! `job`'s total. Spans on any other thread (the static baseline, built
//! beside the cold commit) ran overlapped with that path and print under
//! their own heading. Last, the traced passes' verifier counters, per
//! job: prefixes re-simulated by the rule that chose them
//! (`verify.invalidated.*`) and recomputed against reused.
//!
//! ```sh
//! cargo run --release --example span_profile -- 5
//! cargo run --release --example span_profile -- 1 64   # 192 routers
//! ```

use acr::obs;
use acr::obs::metrics::{self, MetricValue};
use acr::obs::trace::{self, TraceEvent};
use acr::prelude::*;
use acr::topo::gen;
use acr::workloads::{inject_at, FaultType};
use std::collections::{BTreeMap, BTreeSet};

/// The verifier counters printed per job.
const COUNTERS: [&str; 6] = [
    "verify.invalidated.cold",
    "verify.invalidated.sessions",
    "verify.invalidated.policy",
    "verify.invalidated.narrowed",
    "verify.prefixes_recomputed",
    "verify.prefixes_reused",
];

/// The `wan72` workload's fault mix.
const WAN72: [FaultType; 6] = [
    FaultType::MissingRedistribution,
    FaultType::MissingRedistribution,
    FaultType::MissingPbrPermit,
    FaultType::MissingPeerGroup,
    FaultType::ExtraPeerGroupItem,
    FaultType::MissingPrefixListItems,
];

fn main() {
    let arg = |i: usize, default: usize| {
        std::env::args()
            .nth(i)
            .and_then(|a| a.parse().ok())
            .unwrap_or(default)
    };
    let (passes, backbone) = (arg(1, 3), arg(2, 24));
    let net = generate(&gen::wan(backbone, 2 * backbone));
    // Each fault at the first observable site whose broken configuration
    // no earlier job has.
    let mut taken = BTreeSet::new();
    let incidents: Vec<_> = WAN72
        .iter()
        .map(|&fault| {
            (net.cfg.routers().into_iter())
                .filter_map(|r| inject_at(fault, &net, &net.cfg, r))
                .find(|inc| taken.insert(inc.broken.fingerprint()))
                .unwrap_or_else(|| panic!("no site left for {fault:?}"))
        })
        .collect();
    let engine = RepairEngine::with_defaults(&net.topo, &net.spec);

    for inc in &incidents {
        engine.repair(&inc.broken);
    }
    obs::set_flags(obs::TRACE | obs::METRICS);
    let _ = trace::take();
    metrics::reset();
    for _ in 0..passes {
        for inc in &incidents {
            let _job = trace::span("job", "profile");
            engine.repair(&inc.broken);
        }
    }
    obs::set_flags(0);

    let jobs = (passes * incidents.len()).max(1) as f64;
    println!(
        "{} jobs ({passes} traced passes of the {} wan72 jobs on {} routers), per job:",
        jobs,
        incidents.len(),
        net.topo.len()
    );
    let events = trace::take();
    let job_tids: BTreeSet<u32> = (events.iter())
        .filter(|e| e.name == "job")
        .map(|e| e.tid)
        .collect();
    let rows = per_name(&events, |e| job_tids.contains(&e.tid));
    let critical: u64 = rows.values().map(|row| row.self_us).sum();
    print_rows("on the job's thread", rows, jobs);
    println!(
        "{:<32} {:>8} {:>10.3}",
        "critical path",
        "",
        ms(critical, jobs)
    );
    print_rows(
        "off the job's thread",
        per_name(&events, |e| !job_tids.contains(&e.tid)),
        jobs,
    );
    let counters = metrics::snapshot();
    println!("{:<32} {:>8}", "verifier counters", "per_job");
    for name in COUNTERS {
        let n = match counters.get(name) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        };
        println!("{:<32} {:>8.1}", name, n as f64 / jobs);
    }
}

fn ms(us: u64, jobs: f64) -> f64 {
    us as f64 / 1e3 / jobs
}

/// One table of per-job rows under `heading`, largest self time first.
fn print_rows(heading: &str, rows: BTreeMap<&'static str, Row>, jobs: f64) {
    println!(
        "{:<32} {:>8} {:>10} {:>10}",
        heading, "calls", "total_ms", "self_ms"
    );
    let mut rows: Vec<(&str, Row)> = rows.into_iter().collect();
    rows.sort_by_key(|(_, row)| std::cmp::Reverse(row.self_us));
    for (name, row) in rows {
        println!(
            "{:<32} {:>8.2} {:>10.3} {:>10.3}",
            name,
            row.calls as f64 / jobs,
            ms(row.total_us, jobs),
            ms(row.self_us, jobs)
        );
    }
}

#[derive(Default)]
struct Row {
    calls: u64,
    total_us: u64,
    self_us: u64,
}

/// Calls, total and self time per span name, over the events `keep`
/// selects. On one thread spans nest, so a span's parent is the innermost
/// open span its start falls in.
fn per_name(
    events: &[TraceEvent],
    keep: impl Fn(&TraceEvent) -> bool,
) -> BTreeMap<&'static str, Row> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| {
        let e = &events[i];
        (e.tid, e.ts_us, std::cmp::Reverse(e.dur_us))
    });
    let end = |e: &TraceEvent| e.ts_us + e.dur_us;
    let mut covered = vec![0u64; events.len()];
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let e = &events[i];
        while let Some(&top) = open.last() {
            let t = &events[top];
            if t.tid == e.tid && e.ts_us < end(t) {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            covered[parent] += end(e).min(end(&events[parent])) - e.ts_us;
        }
        open.push(i);
    }
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    for (e, covered) in events.iter().zip(covered).filter(|(e, _)| keep(e)) {
        let row = rows.entry(e.name).or_default();
        row.calls += 1;
        row.total_us += e.dur_us;
        row.self_us += e.dur_us.saturating_sub(covered);
    }
    rows
}
