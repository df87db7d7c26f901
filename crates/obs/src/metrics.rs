//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Handles are `const`-constructible statics; the backing cells are
//! allocated lazily in a process-global registry the first time a site
//! fires while metrics are enabled, so declaring a metric costs nothing.
//! Every mutation is a relaxed atomic op; every *disabled* mutation is a
//! single atomic load ([`crate::enabled`]).
//!
//! ```
//! use acr_obs::metrics::Counter;
//! static CANDIDATES: Counter = Counter::new("engine.candidates.generated");
//! CANDIDATES.add(12); // no-op unless acr_obs::METRICS is enabled
//! ```
//!
//! [`snapshot`] returns every registered metric's current value;
//! [`reset`] zeroes them (the values, not the registrations), which is
//! how benchmarks scope a measurement to one region.

use crate::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

enum Cell {
    Counter(AtomicU64),
    Gauge(AtomicU64),
    Histogram(HistoCell),
}

struct HistoCell {
    /// Inclusive upper bounds; one overflow bucket follows.
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

static REGISTRY: Mutex<BTreeMap<&'static str, &'static Cell>> = Mutex::new(BTreeMap::new());
static PATH: Mutex<Option<String>> = Mutex::new(None);

/// Registers (or finds) the cell for `name`. The leak is deliberate:
/// metric cells are `'static`, bounded by the number of distinct sites.
fn cell_for(name: &'static str, make: impl FnOnce() -> Cell) -> &'static Cell {
    let mut reg = REGISTRY.lock().unwrap();
    reg.entry(name)
        .or_insert_with(|| Box::leak(Box::new(make())))
}

/// A monotonically increasing counter.
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    // Force-inlined so that a disabled site is the flag load and a
    // branch in unoptimized builds too.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if !crate::enabled(crate::METRICS) {
            return;
        }
        self.resolve().fetch_add(n, Ordering::Relaxed);
    }

    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when the site never fired).
    pub fn get(&self) -> u64 {
        match self.cell.get() {
            Some(c) => c.load(Ordering::Relaxed),
            None => 0,
        }
    }

    fn resolve(&self) -> &'static AtomicU64 {
        self.cell.get_or_init(
            || match cell_for(self.name, || Cell::Counter(AtomicU64::new(0))) {
                Cell::Counter(c) => c,
                _ => panic!("metric '{}' registered with a different type", self.name),
            },
        )
    }
}

/// A last-value gauge.
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    pub fn set(&self, v: u64) {
        if !crate::enabled(crate::METRICS) {
            return;
        }
        self.resolve().store(v, Ordering::Relaxed);
    }

    fn resolve(&self) -> &'static AtomicU64 {
        self.cell.get_or_init(
            || match cell_for(self.name, || Cell::Gauge(AtomicU64::new(0))) {
                Cell::Gauge(c) => c,
                _ => panic!("metric '{}' registered with a different type", self.name),
            },
        )
    }
}

/// A histogram over fixed, inclusive bucket upper bounds (plus an
/// implicit overflow bucket).
pub struct Histogram {
    name: &'static str,
    bounds: &'static [u64],
    cell: OnceLock<&'static HistoCell>,
}

impl Histogram {
    pub const fn new(name: &'static str, bounds: &'static [u64]) -> Self {
        Histogram {
            name,
            bounds,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        if !crate::enabled(crate::METRICS) {
            return;
        }
        let h = self.resolve();
        let idx = h
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(h.bounds.len());
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn resolve(&self) -> &'static HistoCell {
        let bounds = self.bounds;
        self.cell.get_or_init(|| {
            match cell_for(self.name, || {
                Cell::Histogram(HistoCell {
                    bounds,
                    buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                })
            }) {
                Cell::Histogram(h) => h,
                _ => panic!("metric '{}' registered with a different type", self.name),
            }
        })
    }
}

/// A snapshot value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Histogram {
        /// `(inclusive upper bound, count)`; the final entry is the
        /// overflow bucket, rendered with bound `u64::MAX`.
        buckets: Vec<(u64, u64)>,
        count: u64,
        sum: u64,
    },
}

/// Snapshot of every registered metric.
pub fn snapshot() -> BTreeMap<String, MetricValue> {
    let reg = REGISTRY.lock().unwrap();
    reg.iter()
        .map(|(name, cell)| {
            let v = match cell {
                Cell::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                Cell::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                Cell::Histogram(h) => MetricValue::Histogram {
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .map(|(i, b)| {
                            let bound = h.bounds.get(i).copied().unwrap_or(u64::MAX);
                            (bound, b.load(Ordering::Relaxed))
                        })
                        .collect(),
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                },
            };
            (name.to_string(), v)
        })
        .collect()
}

/// Zeroes every registered metric (registrations persist).
pub fn reset() {
    let reg = REGISTRY.lock().unwrap();
    for cell in reg.values() {
        match cell {
            Cell::Counter(c) | Cell::Gauge(c) => c.store(0, Ordering::Relaxed),
            Cell::Histogram(h) => {
                for b in &h.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                h.count.store(0, Ordering::Relaxed);
                h.sum.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Renders the snapshot as one JSON object keyed by metric name.
pub fn render_json() -> String {
    let snap = snapshot();
    let mut o = json::Obj::new();
    for (name, v) in &snap {
        let rendered = match v {
            MetricValue::Counter(n) => json::Obj::new()
                .str("type", "counter")
                .u64("value", *n)
                .build(),
            MetricValue::Gauge(n) => json::Obj::new()
                .str("type", "gauge")
                .u64("value", *n)
                .build(),
            MetricValue::Histogram {
                buckets,
                count,
                sum,
            } => {
                let bs = json::array(buckets.iter().map(|(bound, c)| {
                    let mut b = json::Obj::new();
                    b = if *bound == u64::MAX {
                        b.str("le", "inf")
                    } else {
                        b.raw("le", &bound.to_string())
                    };
                    b.u64("count", *c).build()
                }));
                json::Obj::new()
                    .str("type", "histogram")
                    .u64("count", *count)
                    .u64("sum", *sum)
                    .raw("buckets", &bs)
                    .build()
            }
        };
        o = o.raw(name, &rendered);
    }
    o.build()
}

/// Renders the snapshot as an aligned text table (for CLI summaries).
pub fn render_text() -> String {
    let snap = snapshot();
    let width = snap.keys().map(|k| k.len()).max().unwrap_or(0).max(6);
    let mut out = String::new();
    for (name, v) in &snap {
        match v {
            MetricValue::Counter(n) => out.push_str(&format!("{name:<width$} {n}\n")),
            MetricValue::Gauge(n) => out.push_str(&format!("{name:<width$} {n} (gauge)\n")),
            MetricValue::Histogram { count, sum, .. } => {
                let mean = if *count > 0 {
                    *sum as f64 / *count as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "{name:<width$} count={count} sum={sum} mean={mean:.2}\n"
                ));
            }
        }
    }
    out
}

/// Configures the snapshot file [`flush_to_path`] writes.
pub fn set_path(path: &str) {
    *PATH.lock().unwrap() = Some(path.to_string());
}

/// Writes the snapshot JSON to the configured path, if any.
pub fn flush_to_path() {
    let path = PATH.lock().unwrap().clone();
    if let Some(path) = path {
        if let Err(e) = std::fs::write(&path, render_json() + "\n") {
            eprintln!("acr-obs: cannot write metrics to {path}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Single test: the registry and enable flag are process-global.
    #[test]
    fn counters_gauges_histograms_register_and_reset() {
        static HITS: Counter = Counter::new("test.hits");
        static DEPTH: Gauge = Gauge::new("test.depth");
        static ROUNDS: Histogram = Histogram::new("test.rounds", &[1, 2, 4]);

        crate::disable_all();
        HITS.add(5);
        assert_eq!(HITS.get(), 0, "disabled sites must not record");

        crate::set_flags(crate::METRICS);
        reset();
        HITS.add(2);
        HITS.inc();
        DEPTH.set(7);
        ROUNDS.observe(1);
        ROUNDS.observe(3);
        ROUNDS.observe(100); // overflow bucket

        let snap = snapshot();
        assert_eq!(snap["test.hits"], MetricValue::Counter(3));
        assert_eq!(snap["test.depth"], MetricValue::Gauge(7));
        match &snap["test.rounds"] {
            MetricValue::Histogram {
                buckets,
                count,
                sum,
            } => {
                assert_eq!(*count, 3);
                assert_eq!(*sum, 104);
                assert_eq!(buckets[0], (1, 1));
                assert_eq!(buckets[2], (4, 1));
                assert_eq!(buckets[3], (u64::MAX, 1));
            }
            other => panic!("expected histogram, got {other:?}"),
        }

        let doc = render_json();
        let v = json::parse(&doc).expect("metrics snapshot must be valid JSON");
        assert_eq!(
            v.get("test.hits").unwrap().get("value").unwrap().as_num(),
            Some(3.0)
        );
        assert!(!render_text().is_empty());

        reset();
        assert_eq!(HITS.get(), 0);
        crate::disable_all();
    }
}
