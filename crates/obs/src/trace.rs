//! Span-based tracing with Chrome trace-event export.
//!
//! A span is opened with [`span`] (or the [`crate::span!`] macro) and
//! closed when its guard drops; the completed event records wall-clock
//! start/duration relative to the process trace epoch plus the logical
//! id of the thread that ran it (ids are assigned in first-span order; a
//! repair job runs on one thread, so its spans nest on one id).
//! [`export_chrome`] renders the buffer in the Chrome trace-event format
//! (`{"traceEvents":[{"ph":"X",...}]}`), loadable in `chrome://tracing`
//! or Perfetto.
//!
//! Timing is the only nondeterminism: the multiset of spans a
//! deterministic workload opens does not vary run to run. [`canonical`]
//! is that invariant artifact — events with timestamps and thread ids
//! scrubbed, sorted — and is what the determinism harness asserts on.

use crate::json;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub name: &'static str,
    pub cat: &'static str,
    /// Microseconds since the trace epoch.
    pub ts_us: u64,
    pub dur_us: u64,
    /// Logical thread id (first-span order, 1-based).
    pub tid: u32,
    /// Optional argument, e.g. a batch size.
    pub arg: Option<(&'static str, u64)>,
}

static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static PATH: Mutex<Option<String>> = Mutex::new(None);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_id() -> u32 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// An open span; the event is recorded when the guard drops. Inert when
/// tracing was disabled at open time.
pub struct Span {
    start: Option<Instant>,
    name: &'static str,
    cat: &'static str,
    arg: Option<(&'static str, u64)>,
}

impl Span {
    /// Attaches one `key = value` argument to the span.
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        if self.start.is_some() {
            self.arg = Some((key, value));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ep = epoch();
        let ts_us = start.duration_since(ep).as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        let ev = TraceEvent {
            name: self.name,
            cat: self.cat,
            ts_us,
            dur_us,
            tid: thread_id(),
            arg: self.arg,
        };
        EVENTS.lock().unwrap().push(ev);
    }
}

/// Opens a span. One atomic load when tracing is disabled.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    if !crate::enabled(crate::TRACE) {
        return Span {
            start: None,
            name,
            cat,
            arg: None,
        };
    }
    // Pin the epoch before the first span starts so ts is never negative.
    let ep = epoch();
    let now = Instant::now();
    let start = if now < ep { ep } else { now };
    Span {
        start: Some(start),
        name,
        cat,
        arg: None,
    }
}

/// Configures the file [`flush_to_path`] exports to.
pub fn set_path(path: &str) {
    *PATH.lock().unwrap() = Some(path.to_string());
}

/// Drains and returns every buffered event.
pub fn take() -> Vec<TraceEvent> {
    std::mem::take(&mut *EVENTS.lock().unwrap())
}

/// Number of buffered events.
pub fn len() -> usize {
    EVENTS.lock().unwrap().len()
}

/// Renders the buffered events as a Chrome trace-event JSON document
/// (without draining them).
pub fn export_chrome() -> String {
    let events = EVENTS.lock().unwrap();
    let rendered = events.iter().map(|e| {
        let mut o = json::Obj::new()
            .str("name", e.name)
            .str("cat", e.cat)
            .str("ph", "X")
            .u64("ts", e.ts_us)
            .u64("dur", e.dur_us)
            .int("pid", 1)
            .u64("tid", e.tid as u64);
        if let Some((k, v)) = e.arg {
            o = o.raw("args", &json::Obj::new().u64(k, v).build());
        }
        o.build()
    });
    json::Obj::new()
        .raw("traceEvents", &json::array(rendered))
        .str("displayTimeUnit", "ms")
        .build()
}

/// Writes the Chrome trace to the configured path (whole buffer, so
/// repeated flushes during one process produce a complete file).
pub fn flush_to_path() {
    let path = PATH.lock().unwrap().clone();
    if let Some(path) = path {
        if let Err(e) = std::fs::write(&path, export_chrome() + "\n") {
            eprintln!("acr-obs: cannot write trace to {path}: {e}");
        }
    }
}

/// The canonical (timing-invariant) form of the buffered events:
/// timestamps, durations and thread ids scrubbed, one line per span,
/// sorted. Two runs of a deterministic workload produce equal canonical
/// traces.
pub fn canonical() -> Vec<String> {
    let events = EVENTS.lock().unwrap();
    let mut out: Vec<String> = events
        .iter()
        .map(|e| match e.arg {
            Some((k, v)) => format!("{}/{} {}={}", e.cat, e.name, k, v),
            None => format!("{}/{}", e.cat, e.name),
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the event buffer is process-global and other tests of
    // this crate must not race the enable flag.
    #[test]
    fn spans_record_and_export_when_enabled() {
        crate::set_flags(crate::TRACE);
        let _ = take();
        {
            let _a = span("alpha", "test").arg("n", 3);
            let _b = span("beta", "test");
        }
        assert_eq!(len(), 2);
        let doc = export_chrome();
        let v = json::parse(&doc).expect("chrome trace must parse");
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 2);
        for e in evs {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_num().is_some());
            assert!(e.get("tid").unwrap().as_num().unwrap() >= 1.0);
        }
        let canon = canonical();
        assert_eq!(
            canon,
            vec!["test/alpha n=3".to_string(), "test/beta".into()]
        );

        // Disabled spans record nothing.
        crate::disable_all();
        let _ = take();
        {
            let _c = span("gamma", "test").arg("n", 1);
        }
        assert_eq!(len(), 0);
    }
}
