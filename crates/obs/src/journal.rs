//! The run journal: a JSONL audit trail of repair runs.
//!
//! One line per event, emitted by the thread running the repair in
//! iteration / candidate-index order, so a journal is byte-identical
//! across runs once `"ts_us"` fields are scrubbed — see
//! [`scrub_timestamps`]. The schema
//! (`acr-journal/v6`) is what `tests/obs_pipeline.rs` validates:
//!
//! - `run_start` — network shape, initial failures, the engine
//!   configuration under a `config` key (the only run-parameter-bearing
//!   field, so cross-configuration diffs scrub exactly one object);
//!   since v2 the config carries the run's scenario `tags`;
//! - `iteration` — ranked suspects (line + suspiciousness), the
//!   candidate patches of the iteration in candidate-index order with
//!   their verdicts, fitness and (v2) provenance-segment counts, and the
//!   iteration counters;
//! - `run_end` — outcome, winning/best patch, totals; since v2 also the
//!   per-patch `attribution` array (iteration / operator / origin line /
//!   edit count per segment — the multi-patch audit trail) and the
//!   run's `tags`;
//! - `baseline_run` — one-line summaries from the MetaProv/AED
//!   baselines, so Figure-3 comparisons share the audit trail;
//! - (v3, emitted by the `acrd` daemon) `job_start` — tenant, network
//!   and deterministic job id before a queued incident runs;
//!   `job_end` — the job's outcome plus whether it was served from
//!   resident (warm) state; `admission_rejected` — a structured
//!   admission-control rejection (tenant, network, reason). Daemon
//!   events bracket the engine's own `run_start`..`run_end` records, so
//!   a served journal stays diffable against a one-shot run by dropping
//!   the `job_*` lines;
//! - (v5) v4 minus the two deleted validation screens (flow gate,
//!   symbolic batch screen): no `sym_summary` event; `iteration` and
//!   `run_end` carry no flow-skipped / sym-validated counters — every
//!   candidate is `invalid`, `lint_rejected`, `validated` or `cached`;
//!   `run_start`'s config has no `flow` / `symbolic` flag and
//!   `flow_summary` no `gate`. A reader that defaults absent counters
//!   to 0 reads v4 and v5 alike;
//! - (v6) v5 minus the per-run sharded-convergence summary event (the
//!   mechanism is deleted; DESIGN.md names the event). A reader that
//!   ignores absent events reads v5 and v6 alike. Later v6, additive:
//!   the engine validates a final iteration only up to its winner, so
//!   `iteration` carries a `skipped` counter and each candidate it never
//!   reached a row with `"outcome":"skipped"` (no fitness). Every
//!   candidate is `invalid`, `lint_rejected`, `validated`, `cached` or
//!   `skipped`; a reader that defaults an absent counter to 0 reads
//!   both alike.
//!
//! Sinks: a file (`ACR_JOURNAL=path`, append within one process) or an
//! in-memory capture buffer for tests ([`capture_to_memory`] /
//! [`take_captured`]).

use std::fs::File;
use std::io::Write;
use std::sync::Mutex;

/// The journal schema version stamped into `run_start` records.
pub const SCHEMA: &str = "acr-journal/v6";

enum Sink {
    File(File),
    Memory(Vec<u8>),
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Sends journal lines to `path` (created/truncated now, appended for
/// the rest of the process).
pub fn set_file(path: &str) -> std::io::Result<()> {
    let f = File::create(path)?;
    *SINK.lock().unwrap() = Some(Sink::File(f));
    Ok(())
}

/// Sends journal lines to an in-memory buffer (tests).
pub fn capture_to_memory() {
    *SINK.lock().unwrap() = Some(Sink::Memory(Vec::new()));
}

/// Drains the in-memory buffer. Empty when the sink is a file.
pub fn take_captured() -> String {
    let mut g = SINK.lock().unwrap();
    match g.as_mut() {
        Some(Sink::Memory(buf)) => String::from_utf8(std::mem::take(buf)).unwrap_or_default(),
        _ => String::new(),
    }
}

/// Appends one JSONL line (the newline is added here). No-op unless the
/// journal facility is enabled *and* a sink is configured.
pub fn emit(line: &str) {
    if !crate::enabled(crate::JOURNAL) {
        return;
    }
    let mut g = SINK.lock().unwrap();
    let Some(sink) = g.as_mut() else { return };
    let res = match sink {
        Sink::File(f) => f
            .write_all(line.as_bytes())
            .and_then(|()| f.write_all(b"\n")),
        Sink::Memory(buf) => {
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            Ok(())
        }
    };
    if let Err(e) = res {
        eprintln!("acr-obs: journal write failed: {e}");
    }
}

/// Flushes a file sink.
pub fn flush() {
    if let Some(Sink::File(f)) = SINK.lock().unwrap().as_mut() {
        let _ = f.flush();
    }
}

/// Microseconds since the Unix epoch — the `ts_us` field of journal
/// records. Wall-clock, deliberately: journals are diffed after
/// scrubbing, and operators want real times in the raw artifact.
pub fn now_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Removes every `"ts_us":<digits>` value from a journal (replacing it
/// with `"ts_us":0`), making two runs of the same workload byte-
/// comparable.
pub fn scrub_timestamps(journal: &str) -> String {
    const KEY: &str = "\"ts_us\":";
    let mut out = String::with_capacity(journal.len());
    let mut rest = journal;
    while let Some(pos) = rest.find(KEY) {
        let after = pos + KEY.len();
        out.push_str(&rest[..after]);
        out.push('0');
        let tail = &rest[after..];
        let digits = tail.bytes().take_while(|b| b.is_ascii_digit()).count();
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Single test: sink and enable flag are process-global.
    #[test]
    fn capture_emit_and_scrub() {
        crate::set_flags(crate::JOURNAL);
        capture_to_memory();
        emit(&format!("{{\"event\":\"x\",\"ts_us\":{}}}", now_us()));
        emit("{\"event\":\"y\",\"n\":3,\"ts_us\":17}");
        let raw = take_captured();
        assert_eq!(raw.lines().count(), 2);
        let scrubbed = scrub_timestamps(&raw);
        assert!(scrubbed.contains("\"ts_us\":0}"));
        assert!(!scrubbed.contains("\"ts_us\":17"));
        assert!(scrubbed.contains("\"n\":3"));

        // Disabled: nothing is recorded.
        crate::disable_all();
        capture_to_memory();
        emit("{\"event\":\"z\"}");
        assert!(take_captured().is_empty());
    }
}
