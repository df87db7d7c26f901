//! The disabled-instrumentation overhead guard.
//!
//! acr-obs promises that a disabled instrumentation site costs one
//! relaxed atomic load. This test holds that promise against the
//! simulation smoke path (one full `Simulator` build + run on the
//! standard 12-router WAN — the `bench_sim` workload): the measured
//! per-site disabled cost, multiplied by the number of instrumentation
//! events that path actually fires (counted from an enabled-metrics
//! run), must stay under 2% of the path's disabled wall time. The
//! per-site cost is the instrumented loop's minus the same loop's
//! without the sites: the loop's own iteration is not instrumentation.
//!
//! The event count deliberately *over*states the site count — a
//! `Counter::add(n)` is one site but is counted `n` times via the
//! counter's value — so the guard is conservative.

use acr::obs::{self, metrics, metrics::Counter};
use acr::sim::Simulator;
use acr_workloads::generate;
use std::sync::Mutex;
use std::time::Instant;

static OBS_LOCK: Mutex<()> = Mutex::new(());

static PROBE: Counter = Counter::new("test.overhead.probe");

#[test]
fn disabled_instrumentation_stays_under_two_percent() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let net = generate(&acr::topo::gen::wan(4, 8));

    // Per-site disabled cost: a span open/drop plus a counter add, the
    // two shapes every pipeline hook takes, net of the loop that drives
    // them — the same loop without the two sites, timed in alternation
    // with it so both see the same machine. Best of a few batches each,
    // like the wall time below, so a scheduler hiccup cannot overstate
    // the difference.
    obs::disable_all();
    const REPS: u64 = 40_000;
    let (mut bare, mut sited) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        let t = Instant::now();
        for i in 0..REPS {
            std::hint::black_box(i & 1);
        }
        bare = bare.min(t.elapsed().as_secs_f64() / REPS as f64);
        let t = Instant::now();
        for i in 0..REPS {
            let _s = obs::span!("overhead.probe", "test");
            PROBE.add(i & 1);
        }
        sited = sited.min(t.elapsed().as_secs_f64() / REPS as f64);
    }
    let per_site = (sited - bare).max(0.0);

    // How many instrumentation events the smoke path fires, from an
    // enabled-metrics run (counter values + histogram observations).
    obs::set_flags(obs::METRICS);
    metrics::reset();
    let sim = Simulator::new(&net.topo, &net.cfg);
    let _ = sim.run();
    let events: u64 = metrics::snapshot()
        .values()
        .map(|v| match v {
            metrics::MetricValue::Counter(n) | metrics::MetricValue::Gauge(n) => *n,
            metrics::MetricValue::Histogram { count, .. } => *count,
        })
        .sum();
    assert!(events > 0, "the sim path must be instrumented");
    obs::disable_all();

    // The smoke path's disabled wall time (best of a few reps, so a
    // scheduler hiccup cannot understate the budget).
    let wall = (0..5)
        .map(|_| {
            let t = Instant::now();
            let sim = Simulator::new(&net.topo, &net.cfg);
            let _ = sim.run();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);

    let overhead = per_site * events as f64;
    assert!(
        overhead < 0.02 * wall,
        "disabled instrumentation overhead {:.3}us ({events} events × {:.1}ns/site, \
         net of a {:.1}ns loop) exceeds 2% of the {:.3}ms smoke path",
        overhead * 1e6,
        per_site * 1e9,
        bare * 1e9,
        wall * 1e3,
    );
}
