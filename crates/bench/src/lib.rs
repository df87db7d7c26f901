//! Shared helpers for the experiment binaries.
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
    fn standard_network_is_healthy_and_injectable() {
        let net = standard_network();
        let incidents = corpus(&net, 6, 1);
        assert!(incidents.len() >= 5);
    }
}
