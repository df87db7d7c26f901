//! Shared helpers for the experiment binaries and criterion benches.
//!
//! Every `exp_*` binary regenerates one artifact of the paper (see
//! `EXPERIMENTS.md` at the workspace root for the index); this library
//! holds the corpus construction and table-formatting plumbing they
//! share.

use acr_core::{RepairConfig, RepairEngine, RepairReport};
use acr_topo::gen;
use acr_workloads::{generate, sample_incidents, GeneratedNetwork, Incident};
use std::time::Duration;

/// The standard experiment substrate: a 4-backbone / 8-customer WAN (12
/// routers, every backbone a cut vertex so injected faults are
/// observable).
pub fn standard_network() -> GeneratedNetwork {
    generate(&gen::wan(4, 8))
}

/// A WAN scaled to `n` backbone routers with two customers each.
pub fn scaled_network(n_bb: usize) -> GeneratedNetwork {
    generate(&gen::wan(n_bb, n_bb * 2))
}

/// Builds the incident corpus for the Table-1 / Figure-1 experiments.
pub fn corpus(net: &GeneratedNetwork, count: usize, seed: u64) -> Vec<Incident> {
    sample_incidents(net, count, seed)
}

/// Repairs one incident with the default engine configuration.
pub fn repair(net: &GeneratedNetwork, incident: &Incident, seed: u64) -> RepairReport {
    let engine = RepairEngine::new(
        &net.topo,
        &net.spec,
        RepairConfig {
            seed,
            ..RepairConfig::default()
        },
    );
    engine.repair(&incident.broken)
}

/// Formats a duration as compact human-readable text.
pub fn fmt_duration(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms < 1.0 {
        format!("{:.0}us", ms * 1e3)
    } else if ms < 1000.0 {
        format!("{ms:.1}ms")
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

/// Percentile of a sorted slice (nearest-rank).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// Prints a horizontal rule sized to a header line.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// The workspace's single hand-rolled JSON implementation (emitter +
/// validating parser), re-exported from `acr-obs` for the
/// `BENCH_*.json` artifacts.
pub use acr_obs::json;

/// Schema tag every `BENCH_*.json` artifact carries.
pub const BENCH_SCHEMA: &str = "acr-bench/v1";

/// Renders an environment override as a JSON string, or `null` when the
/// variable is unset.
fn env_override(var: &str) -> String {
    std::env::var(var).map_or("null".into(), |v| format!("\"{}\"", json::escape(&v)))
}

/// Wraps a bench binary's payload in the shared artifact envelope and
/// writes it to `BENCH_<name>.json` in the working directory.
///
/// The envelope stamps the schema tag, the bench name, the host's
/// available parallelism, and the `ACR_THREADS` environment override
/// in effect, so artifacts from different bench
/// binaries (and different runs) are comparable without knowing which
/// binary emitted them. `payload` extends the envelope object with the
/// bench-specific fields.
pub fn write_bench(name: &str, payload: impl FnOnce(json::Obj) -> json::Obj) -> String {
    write_bench_mode(name, false, payload)
}

/// [`write_bench`] with smoke-mode routing: a `--smoke` run lands in
/// `BENCH_<name>.smoke.json` instead of the canonical artifact, so
/// `BENCH_<name>.json` only ever carries full-run numbers and a CI
/// smoke pass cannot overwrite the trajectory data with truncated
/// corpora. The envelope additionally records the mode as
/// `"mode": "smoke" | "full"`.
pub fn write_bench_mode(
    name: &str,
    smoke: bool,
    payload: impl FnOnce(json::Obj) -> json::Obj,
) -> String {
    let env = bench_envelope(name).str("mode", if smoke { "smoke" } else { "full" });
    let doc = payload(env).build();
    json::parse(&doc)
        .unwrap_or_else(|e| panic!("BENCH_{name}.json payload is not valid JSON: {e}"));
    let path = if smoke {
        format!("BENCH_{name}.smoke.json")
    } else {
        format!("BENCH_{name}.json")
    };
    std::fs::write(&path, doc + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    path
}

/// The shared envelope fields alone — see [`write_bench`].
pub fn bench_envelope(name: &str) -> json::Obj {
    json::Obj::new()
        .str("schema", BENCH_SCHEMA)
        .str("bench", name)
        .int(
            "host_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .raw("env_threads", &env_override("ACR_THREADS"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(50)), "50us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.0ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn bench_envelope_carries_shared_schema() {
        let doc = bench_envelope("unit").int("extra", 7).build();
        let v = json::parse(&doc).expect("envelope is valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        assert_eq!(v.get("bench").unwrap().as_str(), Some("unit"));
        assert!(v.get("host_parallelism").unwrap().as_num().unwrap() >= 1.0);
        assert!(v.get("env_threads").is_some());
        assert_eq!(v.get("extra").unwrap().as_num(), Some(7.0));
    }

    #[test]
    fn standard_network_is_healthy_and_injectable() {
        let net = standard_network();
        let incidents = corpus(&net, 6, 1);
        assert!(incidents.len() >= 5);
    }
}
