//! # acr-obs
//!
//! Zero-dependency observability for the repair pipeline: the single
//! instrumentation substrate every perf PR measures against (instead of
//! inventing new ad-hoc timers), and the audit trail Astragalus-style
//! production deployment needs ("*why* was this patch chosen?").
//!
//! Three facilities behind one on/off switch:
//!
//! - [`trace`] — span-based tracing with a guard API ([`span!`]),
//!   with one timeline per thread (a repair job runs on one thread, so
//!   its spans nest), exportable as Chrome trace-event JSON
//!   (`chrome://tracing`, Perfetto). Enabled by `ACR_TRACE=path`.
//! - [`metrics`] — a registry of counters, gauges and fixed-bucket
//!   histograms: simulator convergence rounds, memo-cache and lint-gate
//!   hits, invalidation breadth per session-delta class, candidates
//!   generated/gated/validated.
//!   Enabled by `ACR_METRICS=1` or `ACR_METRICS=path` (snapshot file).
//! - [`journal`] — a JSONL run journal of repair iterations (ranked
//!   suspects, candidate patches, verdicts, fitness) that makes a repair
//!   run replayable and diffable. Enabled by `ACR_JOURNAL=path`.
//!
//! ## The no-op fast path
//!
//! Everything is **disabled by default**. Each instrumentation site costs
//! exactly one relaxed atomic load when its facility is off — see
//! [`enabled`] — so the pipeline's hot loops carry the hooks for free
//! (the `obs_overhead` guard test holds the disabled cost under 2% of
//! the simulation smoke path).
//!
//! ## Determinism
//!
//! Instrumentation only ever *records*: no engine decision reads an obs
//! value, so repair reports are byte-identical with every facility on or
//! off (asserted by the determinism harness). Journal lines are emitted
//! by the thread running the repair in iteration/candidate-index order,
//! so journals are byte-identical modulo timestamps; a trace's
//! *canonical* form ([`trace::canonical`], timestamps and thread ids
//! scrubbed) is its deterministic artifact.

pub mod journal;
pub mod json;
pub mod metrics;
pub mod stages;
pub mod trace;

pub use stages::Stages;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Flag bit: span tracing.
pub const TRACE: u8 = 1 << 0;
/// Flag bit: the metrics registry.
pub const METRICS: u8 = 1 << 1;
/// Flag bit: the run journal.
pub const JOURNAL: u8 = 1 << 2;
/// All facilities.
pub const ALL: u8 = TRACE | METRICS | JOURNAL;

/// Sentinel: flags not yet initialised from the environment.
const UNINIT: u8 = 0x80;

static FLAGS: AtomicU8 = AtomicU8::new(UNINIT);
static INIT_LOCK: Mutex<()> = Mutex::new(());

/// Whether a facility is enabled. **This is the per-site fast path**: one
/// relaxed atomic load once the process has initialised (lazily, from the
/// environment on the first query, or eagerly via the `enable_*` /
/// [`disable_all`] calls).
#[inline(always)]
pub fn enabled(bit: u8) -> bool {
    let f = FLAGS.load(Ordering::Relaxed);
    if f == UNINIT {
        return init_from_env() & bit != 0;
    }
    f & bit != 0
}

/// Current flag byte (initialising from the environment if needed).
pub fn flags() -> u8 {
    let f = FLAGS.load(Ordering::Relaxed);
    if f == UNINIT {
        init_from_env()
    } else {
        f
    }
}

/// One-time environment scan: `ACR_TRACE`/`ACR_JOURNAL`/`ACR_METRICS`
/// configure sinks.
fn init_from_env() -> u8 {
    let _guard = INIT_LOCK.lock().unwrap();
    init_locked()
}

/// The scan body; the caller holds `INIT_LOCK`.
fn init_locked() -> u8 {
    // Another thread may have initialised while we waited.
    let f = FLAGS.load(Ordering::Relaxed);
    if f != UNINIT {
        return f;
    }
    let mut flags = 0u8;
    if let Ok(path) = std::env::var("ACR_TRACE") {
        if !path.is_empty() {
            trace::set_path(&path);
            flags |= TRACE;
        }
    }
    if let Ok(path) = std::env::var("ACR_JOURNAL") {
        if !path.is_empty() {
            match journal::set_file(&path) {
                Ok(()) => flags |= JOURNAL,
                Err(e) => eprintln!("acr-obs: cannot open ACR_JOURNAL={path}: {e}"),
            }
        }
    }
    match std::env::var("ACR_METRICS").ok().as_deref() {
        None | Some("") | Some("0") => {}
        Some("1") | Some("true") | Some("on") => flags |= METRICS,
        Some(path) => {
            metrics::set_path(path);
            flags |= METRICS;
        }
    }
    FLAGS.store(flags, Ordering::Relaxed);
    flags
}

/// Sets the flag byte directly (marks the process initialised). The
/// programmatic twin of the environment variables, for tests and tools.
pub fn set_flags(f: u8) {
    let _guard = INIT_LOCK.lock().unwrap();
    FLAGS.store(f & ALL, Ordering::Relaxed);
}

/// Turns one facility on without touching the others. On the first obs
/// call of the process this runs the environment scan first, so a
/// programmatic `enable` composes with (rather than preempts)
/// `ACR_TRACE`/`ACR_JOURNAL` sink configuration.
pub fn enable(bit: u8) {
    let _guard = INIT_LOCK.lock().unwrap();
    let cur = init_locked();
    FLAGS.store((cur | bit) & ALL, Ordering::Relaxed);
}

/// Turns every facility off (sinks are left configured).
pub fn disable_all() {
    set_flags(0);
}

/// Enables tracing with a Chrome trace-event file written on [`flush`].
pub fn enable_trace_to(path: &str) {
    trace::set_path(path);
    enable(TRACE);
}

/// Enables the journal, appending JSONL to `path`.
pub fn enable_journal_to(path: &str) -> std::io::Result<()> {
    journal::set_file(path)?;
    enable(JOURNAL);
    Ok(())
}

/// Enables the metrics registry (no snapshot file).
pub fn enable_metrics() {
    enable(METRICS);
}

/// Flushes every configured sink: writes the Chrome trace file and the
/// metrics snapshot (when paths are configured) and flushes the journal.
/// Cheap and idempotent when everything is disabled; the engine calls it
/// at the end of each repair run.
pub fn flush() {
    if enabled(TRACE) {
        trace::flush_to_path();
    }
    if enabled(METRICS) {
        metrics::flush_to_path();
    }
    if enabled(JOURNAL) {
        journal::flush();
    }
}

/// Opens a trace span: `span!("name")` or `span!("name", "category")`.
/// Returns a guard; the span closes when the guard drops. When tracing
/// is disabled the guard is inert and the call costs one atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name, "acr")
    };
    ($name:expr, $cat:expr) => {
        $crate::trace::span($name, $cat)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Flag-state tests share the process-global switch; keep them in one
    // test so cargo's parallel runner cannot interleave them.
    #[test]
    fn flag_lifecycle() {
        set_flags(0);
        assert!(!enabled(TRACE) && !enabled(METRICS) && !enabled(JOURNAL));
        enable(METRICS);
        assert!(enabled(METRICS) && !enabled(TRACE));
        enable(TRACE);
        assert!(enabled(METRICS) && enabled(TRACE));
        disable_all();
        assert_eq!(flags(), 0);
    }
}
