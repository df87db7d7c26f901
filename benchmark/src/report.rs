//! What a run prints. Tables for people go to stderr; stdout carries a
//! `DETAIL {json}` line (sample counts, spreads, digest — read by the
//! suite) and, as its **last line**, the result object the driver
//! reads: exactly `correct`, `attempted`, `failed`, `metrics`.

use crate::spec::MetricSpec;
use acr::obs::json;
use std::collections::BTreeMap;

/// The values of `table`'s metrics, in its order, from what a run
/// computed by name. A metric the run did not compute (a layer that is
/// not on the workload's path) reads 0; a computed name the table does
/// not have is a bug in the harness.
pub fn in_order(table: &[MetricSpec], computed: &BTreeMap<&str, f64>) -> Vec<f64> {
    for name in computed.keys() {
        assert!(
            table.iter().any(|m| m.name == *name),
            "BENCHMARK.json has no metric '{name}'"
        );
    }
    table
        .iter()
        .map(|m| computed.get(&*m.name).copied().unwrap_or(0.0))
        .collect()
}

/// The result line. `values` runs parallel to `table`.
pub fn result_line(
    attempted: usize,
    failed: usize,
    table: &[MetricSpec],
    values: &[f64],
) -> String {
    assert_eq!(table.len(), values.len(), "one value per metric");
    let mut metrics = json::Obj::new();
    for (m, v) in table.iter().zip(values) {
        let cell = json::Obj::new().num("value", *v).str("unit", &m.unit);
        metrics = metrics.raw(&m.name, &cell.build());
    }
    json::Obj::new()
        .bool(
            "correct",
            failed == 0 && values.iter().all(|v| v.is_finite()),
        )
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", &metrics.build())
        .build()
}

/// Every metric by name with its unit, for people.
pub fn print_metrics(title: &str, table: &[MetricSpec], values: &[f64]) {
    eprintln!("{title}");
    for (m, v) in table.iter().zip(values) {
        eprintln!("  {:<28} {:>14.4} {}", m.name, v, m.unit);
    }
}

pub fn strings(items: &[String]) -> String {
    json::array(items.iter().map(|s| format!("\"{}\"", json::escape(s))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let table = &spec().end_to_end;
        let computed = BTreeMap::from([("setup_s", 0.25), ("jobs_per_s", 3.0)]);
        let line = result_line(10, 0, table, &in_order(table, &computed));
        let v = json::parse(&line).unwrap();
        let keys: Vec<_> = v.as_obj().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(true)));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.as_obj().unwrap().len(), table.len());
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_num(),
            Some(0.25)
        );
        assert_eq!(
            m.get("jobs_per_s").unwrap().get("unit").unwrap().as_str(),
            Some("1/s")
        );
        let bad = result_line(10, 1, table, &vec![1.0; table.len()]);
        assert!(bad.starts_with("{\"correct\":false"));
    }

    #[test]
    #[should_panic(expected = "no metric 'job_p51_ms'")]
    fn a_misspelt_metric_is_caught() {
        in_order(&spec().end_to_end, &BTreeMap::from([("job_p51_ms", 1.0)]));
    }
}
