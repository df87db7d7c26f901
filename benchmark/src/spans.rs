//! The harness's own span recorder: name, start, end, parent, and the
//! job a span belongs to. Spans are recorded around the calls *into*
//! each layer from the benchmark's files only (spans inside the program
//! are ROADMAP item 1), kept in memory, and written out when the run
//! ends. The harness is single-threaded, so a stack gives the parent.

use acr::obs::json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Shared by every span of one job: `workload/pass/index`.
    pub job: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; hand it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    epoch: Instant,
    /// Off in every run that reports end-to-end metrics: `open` and
    /// `close` then cost one branch.
    pub on: bool,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str, job: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            job: job.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Attaches children to the most recently closed span `parent_name`,
    /// laid end to end from its start, with durations measured elsewhere
    /// (the stage times a `RepairReport` carries).
    pub fn attach_stages(&mut self, parent_name: &str, stages: &[(&str, u64)]) {
        if !self.on {
            return;
        }
        let Some(parent) = self.spans.iter().rposition(|s| s.name == parent_name) else {
            return;
        };
        let (job, mut at) = (self.spans[parent].job.clone(), self.spans[parent].start_ns);
        for &(name, dur_ns) in stages {
            self.spans.push(Span {
                name: name.to_string(),
                job: job.clone(),
                start_ns: at,
                end_ns: at + dur_ns,
                parent: Some(parent),
            });
            at += dur_ns;
        }
    }

    pub fn to_json(&self, workload: &str) -> String {
        let spans = self.spans.iter().enumerate().map(|(i, s)| {
            let o = json::Obj::new()
                .int("id", i)
                .str("name", &s.name)
                .str("job", &s.job)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns);
            match s.parent {
                Some(p) => o.int("parent", p),
                None => o.raw("parent", "null"),
            }
            .build()
        });
        json::Obj::new()
            .str("schema", "acr-benchmark-trace/v1")
            .str("workload", workload)
            .raw("spans", &json::array(spans))
            .build()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once; a child
/// is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// One row of the share table.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareRow {
    pub name: String,
    pub calls: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    /// Self time as a share of the summed wall of the `job` root spans.
    pub share: f64,
}

/// Spans aggregated by name, largest self time first, plus the closure:
/// the share of `job` wall that its descendants' *leaf* spans cover.
/// `probe.*` spans hang off their own `probes` root, not off `job`, so
/// they are listed but take no share of job wall.
pub fn share_table(spans: &[Span]) -> (Vec<ShareRow>, f64) {
    let selfs = self_times(spans);
    let job_wall: u64 = spans
        .iter()
        .filter(|s| s.name == "job")
        .map(Span::dur_ns)
        .sum();
    let has_child: Vec<bool> = {
        let mut v = vec![false; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                v[p] = true;
            }
        }
        v
    };
    // Whether the root above each span is a `job` (parents precede
    // children in the vector, so one forward sweep resolves it).
    let mut under_job = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        under_job[i] = match s.parent {
            None => s.name == "job",
            Some(p) => under_job[p],
        };
    }
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    let mut leaf_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs[i];
        if under_job[i] && !has_child[i] && s.parent.is_some() {
            leaf_ns += s.dur_ns();
        }
    }
    let mut rows: Vec<ShareRow> = by_name
        .into_iter()
        .map(|(name, (calls, total, own))| ShareRow {
            name: name.to_string(),
            calls,
            total_ms: total as f64 / 1e6,
            self_ms: own as f64 / 1e6,
            share: if name.starts_with("probe") || job_wall == 0 {
                0.0
            } else {
                own as f64 / job_wall as f64
            },
        })
        .collect();
    rows.sort_by(|a, b| b.self_ms.partial_cmp(&a.self_ms).expect("finite"));
    let closure = if job_wall == 0 {
        0.0
    } else {
        leaf_ns as f64 / job_wall as f64
    };
    (rows, closure)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            job: "w/0/0".into(),
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a by 10
            span("c", 90, 120, Some(0)), // clipped to the parent's end
            span("a1", 10, 20, Some(1)),
        ];
        // job: 100 - (10..60 = 50) - (90..100 = 10) = 40
        assert_eq!(self_times(&spans), vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn share_table_closes_over_leaves() {
        let spans = vec![
            span("job", 0, 100, None),
            span("engine.repair", 0, 90, Some(0)),
            span("engine.commit", 0, 30, Some(1)),
            span("engine.validate", 30, 80, Some(1)),
            span("probes", 100, 150, None),
            span("probe.lint.network_ms", 100, 150, Some(4)),
        ];
        let (rows, closure) = share_table(&spans);
        assert!((closure - 0.8).abs() < 1e-12);
        let row = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert!((row("engine.validate").share - 0.5).abs() < 1e-12);
        assert!((row("engine.repair").share - 0.1).abs() < 1e-12);
        assert!((row("job").share - 0.1).abs() < 1e-12);
        assert_eq!(row("probe.lint.network_ms").share, 0.0);
        assert_eq!(rows[0].name, "engine.validate");
    }

    #[test]
    fn tracer_nests_and_attaches_stages() {
        let mut t = Tracer::new(true);
        let job = t.open("job", "w/0/0");
        let rep = t.open("engine.repair", "w/0/0");
        t.close(rep);
        t.attach_stages(
            "engine.repair",
            &[("engine.commit", 5), ("engine.validate", 7)],
        );
        t.close(job);
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.spans[3].start_ns, t.spans[2].end_ns);
        assert!(json::parse(&t.to_json("w")).is_ok());
        let mut off = Tracer::new(false);
        let o = off.open("job", "x");
        off.close(o);
        assert!(off.spans.is_empty());
    }
}
