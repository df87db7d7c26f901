//! The benchmark's names — workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics — read from `BENCHMARK.json`
//! at the repository root, which is compiled into the binaries: the
//! one table the driver and the benchmark both go by.

use crate::stats::Better;
use acr::obs::json::{self, Value};
use std::sync::OnceLock;

/// One workload: its name and why it exists.
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

/// One metric: name, unit, direction, and — end to end only — the share
/// of the parent's median by which it may worsen before a change counts
/// as a regression (0 for a per-layer metric, which has no bound).
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

pub struct Spec {
    /// How long one run measures unless `--seconds` says otherwise.
    pub run_seconds: f64,
    pub workloads: Vec<WorkloadSpec>,
    /// What a user of the system sees. `failed_ratio` is not in this
    /// table — the driver takes no metric that can be 0 — and travels
    /// as `attempted` / `failed` on the result line instead.
    pub end_to_end: Vec<MetricSpec>,
    /// Single layers (layer = crate). Every workload reports every
    /// metric; one that is not on a workload's path reads 0 there.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn workload(&self, name: &str) -> Option<&WorkloadSpec> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

/// `setup_s` on the 12-router workloads is tens of milliseconds; below
/// this absolute change `compare` does not call it a regression.
pub const SETUP_FLOOR_S: f64 = 0.005;

fn parse(doc: &str) -> Result<Spec, String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    let rows = |key: &str| {
        v.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("no array '{key}'"))
    };
    let text = |row: &Value, key: &str| {
        row.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("an entry lacks '{key}'"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        rows(key)?
            .iter()
            .map(|row| {
                Ok(MetricSpec {
                    name: text(row, "name")?,
                    unit: text(row, "unit")?,
                    better: match text(row, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("better: '{other}'")),
                    },
                    bound: row.get("bound").and_then(Value::as_num).unwrap_or(0.0),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: v
            .get("run_seconds")
            .and_then(Value::as_num)
            .ok_or("no run_seconds")?,
        workloads: rows("workloads")?
            .iter()
            .map(|row| {
                Ok(WorkloadSpec {
                    name: text(row, "name")?,
                    why: text(row, "why")?,
                })
            })
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|why| panic!("BENCHMARK.json: {why}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_reads_as_a_spec() {
        let s = spec();
        assert!(s.workload("wan72").is_some() && s.workload("wan73").is_none());
        assert!(s.run_seconds >= 1.0);
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(s
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(s.per_layer.iter().all(|m| m.bound == 0.0));
        assert!(parse("{}").is_err());
    }
}
