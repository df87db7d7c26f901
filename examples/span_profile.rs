//! Where a repair job's time goes, span by span.
//!
//! Repairs every `wan(24,48)` Table-1 incident (`try_inject(fault, &net,
//! 0)`, one job per injectable class): one untraced warm-up pass, then
//! `N` traced passes (default 3). For every span name it prints calls,
//! total ms and self ms, each per job; self time is a span's duration
//! minus what its direct children cover (children on the same thread
//! inside its interval, clipped to it). Each job runs inside a `job`
//! span, so `job`'s self time is the time no engine span covers.
//!
//! ```sh
//! cargo run --release --example span_profile -- 5
//! ```

use acr::obs;
use acr::obs::trace::{self, TraceEvent};
use acr::prelude::*;
use acr::topo::gen;
use acr::workloads::TABLE1;
use std::collections::BTreeMap;

fn main() {
    let passes: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let net = generate(&gen::wan(24, 48));
    let incidents: Vec<_> = TABLE1
        .iter()
        .filter_map(|&(fault, _)| try_inject(fault, &net, 0))
        .collect();
    let engine = RepairEngine::with_defaults(&net.topo, &net.spec);

    for inc in &incidents {
        engine.repair(&inc.broken);
    }
    obs::set_flags(obs::TRACE);
    let _ = trace::take();
    for _ in 0..passes {
        for inc in &incidents {
            let _job = trace::span("job", "profile");
            engine.repair(&inc.broken);
        }
    }
    obs::set_flags(0);

    let jobs = (passes * incidents.len()).max(1) as f64;
    println!(
        "{} jobs ({passes} traced passes of {} wan(24,48) incidents), per job:",
        jobs,
        incidents.len()
    );
    println!(
        "{:<32} {:>8} {:>10} {:>10}",
        "span", "calls", "total_ms", "self_ms"
    );
    let mut rows: Vec<(&str, Row)> = per_name(&trace::take()).into_iter().collect();
    rows.sort_by_key(|(_, row)| std::cmp::Reverse(row.self_us));
    for (name, row) in rows {
        println!(
            "{:<32} {:>8.2} {:>10.3} {:>10.3}",
            name,
            row.calls as f64 / jobs,
            row.total_us as f64 / 1e3 / jobs,
            row.self_us as f64 / 1e3 / jobs
        );
    }
}

#[derive(Default)]
struct Row {
    calls: u64,
    total_us: u64,
    self_us: u64,
}

/// Calls, total and self time per span name. On one thread spans nest,
/// so a span's parent is the innermost open span its start falls in.
fn per_name(events: &[TraceEvent]) -> BTreeMap<&'static str, Row> {
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
    for (e, covered) in events.iter().zip(covered) {
        let row = rows.entry(e.name).or_default();
        row.calls += 1;
        row.total_us += e.dur_us;
        row.self_us += e.dur_us.saturating_sub(covered);
    }
    rows
}
