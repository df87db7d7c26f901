//! `acr-bench-e2e compare --base A.json.. --new B.json..`: one row per
//! workload x end-to-end metric, each side the median of its whole
//! suite runs, judged against the metric's bound and against the spread
//! between those runs.

use crate::spec::{spec, MetricSpec, SETUP_FLOOR_S};
use crate::stats::{median, rel_spread, worsening};
use acr::obs::json::{self, Value};
use std::collections::BTreeSet;

/// Whole runs a side needs before its spread means anything.
pub const MIN_RUNS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse by more than the bound, and by more than the spread.
    Regressed,
    /// The spread between a side's own runs is wider than the bound, so
    /// "no worse" cannot be told from "worse": not reported as unchanged.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The share of `base` by which `m` may worsen: its bound, except that
/// `setup_s` is also allowed [`SETUP_FLOOR_S`] in absolute terms.
pub fn allowed(m: &MetricSpec, base: f64) -> f64 {
    if m.name == "setup_s" && base > 0.0 {
        m.bound.max(SETUP_FLOOR_S / base)
    } else {
        m.bound
    }
}

pub fn verdict(m: &MetricSpec, base: f64, new: f64, spread: f64) -> Verdict {
    let (worse, allowed) = (worsening(base, new, m.better), allowed(m, base));
    if !worse.is_finite() || (worse > allowed && worse > spread) {
        Verdict::Regressed
    } else if spread > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub base: f64,
    pub new: f64,
    pub bound: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

fn num(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_num)
        .unwrap_or(f64::NAN)
}

/// One side: the `results.json` documents of its whole suite runs.
struct Side(Vec<Value>);

impl Side {
    fn parse(docs: &[String]) -> Result<Side, String> {
        if docs.len() < MIN_RUNS {
            return Err(format!(
                "{} results files on one side; the spread between runs needs {MIN_RUNS}",
                docs.len()
            ));
        }
        let parsed = docs
            .iter()
            .map(|d| json::parse(d).map_err(|e| e.to_string()));
        Ok(Side(parsed.collect::<Result<_, _>>()?))
    }

    /// `path` under `workloads.<workload>.<part>` of every run that has
    /// the part.
    fn each(&self, workload: &str, part: &str, path: &[&str]) -> Vec<f64> {
        let cells = self
            .0
            .iter()
            .filter_map(|doc| doc.get("workloads")?.get(workload)?.get(part));
        cells.map(|cell| num(cell, path)).collect()
    }

    /// What must repeat exactly between runs of one workload: the
    /// decision digests and every per-layer metric that is a count.
    fn exact(&self, workload: &str) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let cells = self
            .0
            .iter()
            .filter_map(|doc| doc.get("workloads")?.get(workload));
        for cell in cells {
            for part in ["e2e", "layers"] {
                let digest = cell
                    .get(part)
                    .and_then(|p| p.get("detail")?.get("decision_digest")?.as_str());
                seen.extend(digest.map(|d| format!("decision_digest={d}")));
            }
            for m in spec().per_layer.iter().filter(|m| m.unit == "count") {
                if let Some(layers) = cell.get("layers") {
                    let v = num(layers, &["result", "metrics", &m.name, "value"]);
                    seen.insert(format!("{}={v}", m.name));
                }
            }
        }
        seen
    }
}

/// Names that `seen` holds with more than one value.
fn differing(seen: &BTreeSet<String>) -> Vec<&str> {
    let names: Vec<&str> = seen.iter().filter_map(|s| s.split('=').next()).collect();
    let mut twice: Vec<&str> = names
        .windows(2)
        .filter(|p| p[0] == p[1])
        .map(|p| p[0])
        .collect();
    twice.dedup();
    twice
}

/// Compares two sets of `results.json` documents. Returns the rows and
/// whether the comparison passes: no `regressed` row, no higher
/// `failed_ratio`, digests and counts that repeat exactly between the
/// runs of each side — and, with `same_commit`, between the sides.
pub fn compare(
    base_docs: &[String],
    new_docs: &[String],
    same_commit: bool,
) -> Result<(Vec<Row>, bool), String> {
    let (base, new) = (Side::parse(base_docs)?, Side::parse(new_docs)?);
    let mut rows = Vec::new();
    let mut pass = true;
    for w in &spec().workloads {
        let failed_ratio = |s: &Side| {
            let failed = s.each(&w.name, "e2e", &["result", "failed"]);
            let attempted = s.each(&w.name, "e2e", &["result", "attempted"]);
            let ratios = failed.iter().zip(&attempted).map(|(f, a)| f / a);
            // A side without this workload is NaN: not "no higher".
            ratios.fold(f64::NAN, f64::max)
        };
        let (fb, fnew) = (failed_ratio(&base), failed_ratio(&new));
        if fb.is_nan() && fnew.is_nan() {
            continue;
        }
        let no_higher = fnew <= fb;
        pass &= no_higher;
        rows.push(Row {
            workload: &w.name,
            metric: "failed_ratio",
            unit: "ratio",
            base: fb,
            new: fnew,
            bound: 0.0,
            spread: 0.0,
            verdict: if no_higher {
                Verdict::Ok
            } else {
                Verdict::Regressed
            },
        });
        for m in &spec().end_to_end {
            let path = ["result", "metrics", &m.name, "value"];
            let (b, n) = (
                base.each(&w.name, "e2e", &path),
                new.each(&w.name, "e2e", &path),
            );
            let (vb, vn) = (median(&b), median(&n));
            let spread = rel_spread(&b).max(rel_spread(&n));
            let v = verdict(m, vb, vn, spread);
            pass &= v != Verdict::Regressed;
            rows.push(Row {
                workload: &w.name,
                metric: &m.name,
                unit: &m.unit,
                base: vb,
                new: vn,
                bound: allowed(m, vb),
                spread,
                verdict: v,
            });
        }
        let (eb, en) = (base.exact(&w.name), new.exact(&w.name));
        let flaky: BTreeSet<&str> = differing(&eb).into_iter().chain(differing(&en)).collect();
        for name in &flaky {
            eprintln!("{}: {name} differs between the runs of one side", w.name);
            pass = false;
        }
        let both: BTreeSet<String> = eb.union(&en).cloned().collect();
        for name in differing(&both).into_iter().filter(|n| !flaky.contains(n)) {
            eprintln!("{}: {name} changed between base and new", w.name);
            pass &= !same_commit;
        }
    }
    if rows.is_empty() {
        return Err("no workload in common".into());
    }
    Ok((rows, pass))
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<13} {:<12} {:>12} {:>12} {:>7} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound", "spread"
    );
    for r in rows {
        println!(
            "{:<13} {:<12} {:>12.4} {:>12.4} {:>7.3} {:>6.1}% {:>6.1}%  {} [{}]",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.new / r.base,
            r.bound * 100.0,
            r.spread * 100.0,
            r.verdict.as_str(),
            r.unit
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Better;

    fn m(name: &str) -> MetricSpec {
        let better = if name == "jobs_per_s" {
            Better::Higher
        } else {
            Better::Lower
        };
        MetricSpec {
            name: name.into(),
            unit: "x".into(),
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let p50 = m("job_p50_ms");
        assert_eq!(verdict(&p50, 100.0, 109.9, 0.01), Verdict::Ok);
        assert_eq!(verdict(&p50, 100.0, 110.1, 0.01), Verdict::Regressed);
        assert_eq!(verdict(&p50, 100.0, 50.0, 0.01), Verdict::Ok);
        // Spread wider than the bound: worse within the spread is
        // unresolved, worse beyond it is still a regression.
        assert_eq!(verdict(&p50, 100.0, 101.0, 0.15), Verdict::Unresolved);
        assert_eq!(verdict(&p50, 100.0, 113.0, 0.15), Verdict::Unresolved);
        assert_eq!(verdict(&p50, 100.0, 120.0, 0.15), Verdict::Regressed);
        let rate = m("jobs_per_s");
        assert_eq!(verdict(&rate, 100.0, 89.9, 0.0), Verdict::Regressed);
        assert_eq!(verdict(&rate, 100.0, 120.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(&p50, 100.0, f64::NAN, 0.0), Verdict::Regressed);
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let s = m("setup_s");
        // 10 ms base: the 5 ms floor allows 50%; 1 s base: the bound.
        assert!((allowed(&s, 0.010) - 0.5).abs() < 1e-12);
        assert_eq!(allowed(&s, 1.0), s.bound);
        assert_eq!(verdict(&s, 0.010, 0.0145, 0.0), Verdict::Ok);
        assert_eq!(verdict(&s, 0.010, 0.0155, 0.0), Verdict::Regressed);
    }

    /// A `results.json` with one workload whose every end-to-end metric
    /// reads 10 except `job_p50_ms`.
    fn doc(p50: f64, failed: usize, digest: &str) -> String {
        let metrics = spec()
            .end_to_end
            .iter()
            .fold(json::Obj::new(), |o, m| {
                let v = if m.name == "job_p50_ms" { p50 } else { 10.0 };
                o.raw(&m.name, &json::Obj::new().num("value", v).build())
            })
            .build();
        let result = json::Obj::new()
            .int("attempted", 100)
            .int("failed", failed)
            .raw("metrics", &metrics)
            .build();
        let detail = json::Obj::new().str("decision_digest", digest).build();
        let e2e = json::Obj::new()
            .raw("result", &result)
            .raw("detail", &detail)
            .build();
        let w = json::Obj::new().raw("e2e", &e2e).build();
        json::Obj::new()
            .raw("workloads", &json::Obj::new().raw("wan72", &w).build())
            .build()
    }

    fn side(p50s: [f64; 3]) -> Vec<String> {
        p50s.iter().map(|&p| doc(p, 0, "d1")).collect()
    }

    fn row<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter().find(|r| r.metric == metric).unwrap()
    }

    #[test]
    fn sides_are_medians_and_the_spread_is_between_their_runs() {
        let bound = row(
            &compare(&side([10.0; 3]), &side([10.0; 3]), true).unwrap().0,
            "job_p50_ms",
        )
        .bound;
        let (rows, pass) = compare(&side([10.0, 10.1, 9.9]), &side([10.2, 30.0, 10.0]), true)
            .expect("three runs a side");
        // Median 10.0 against 10.2; the outlier widens the spread.
        let r = row(&rows, "job_p50_ms");
        assert_eq!((r.base, r.new), (10.0, 10.2));
        assert!((r.spread - 20.0 / 10.2).abs() < 1e-12);
        assert_eq!(r.verdict, Verdict::Unresolved);
        assert!(pass, "unresolved is not a failure");
        assert_eq!(rows.len(), spec().end_to_end.len() + 1);
        assert!(rows.iter().all(|r| r.workload == "wan72"));

        let worse = 10.0 * (1.0 + bound) + 0.1;
        let (rows, pass) = compare(&side([10.0; 3]), &side([worse; 3]), true).unwrap();
        assert!(!pass);
        assert_eq!(row(&rows, "job_p50_ms").verdict, Verdict::Regressed);
        assert_eq!(row(&rows, "setup_s").verdict, Verdict::Ok);
    }

    #[test]
    fn failures_and_changed_decisions_fail_the_comparison() {
        let ok = side([10.0; 3]);
        let mut failing = ok.clone();
        failing[1] = doc(10.0, 1, "d1");
        let (rows, pass) = compare(&ok, &failing, true).unwrap();
        assert!(!pass);
        assert_eq!(row(&rows, "failed_ratio").new, 0.01);
        assert!(compare(&failing, &failing, true).unwrap().1, "no higher");

        // A digest that differs between the runs of one side always
        // fails; between the sides only for the same commit.
        let mut flaky = ok.clone();
        flaky[2] = doc(10.0, 0, "d2");
        assert!(!compare(&ok, &flaky, false).unwrap().1);
        let changed: Vec<String> = (0..3).map(|_| doc(10.0, 0, "d2")).collect();
        assert!(compare(&ok, &changed, false).unwrap().1);
        assert!(!compare(&ok, &changed, true).unwrap().1);

        assert!(
            compare(&ok[..2], &ok, true).is_err(),
            "two runs are too few"
        );
        let empty = vec!["{}".to_string(); 3];
        assert!(compare(&empty, &empty, true).is_err());
    }
}
