//! Runs one repair job, submit → report, and checks what came back.
//!
//! This file and `inputs.rs` are the only ones `acr-bench-e2e` reaches
//! the program through, and they keep to entry points a layer-API
//! change does not touch: `generate`, `gen::wan`, `inject_at`,
//! `RepairEngine::{new, repair}`, `RepairConfig::default()`,
//! `Acrd::{new, register, handle, step, record}`, `submit_line`,
//! `job_label`, `decision_signature`, `digest`, `Verifier::run_full`.

use crate::inputs::{engine_seed, job_config, Inputs, Job, NETWORK};
use crate::spans::Tracer;
use acr::core::{RepairOutcome, RepairReport};
use acr::prelude::*;
use acr::serve::{decision_signature, job_label};
use std::sync::Arc;
use std::time::Instant;

/// What a finished job left behind.
pub enum Done {
    /// One-shot: `RepairEngine::new` + `repair`.
    OneShot(Box<RepairReport>),
    /// Daemon: `handle(submit)` → `step()` → `handle(result)`. The
    /// result line carries the patch text, not the repaired config, so
    /// the decision signature stands in for it (see [`Checker`]).
    Served {
        sig: String,
        fixed: bool,
        /// Whether the job resumed warm resident state.
        resident: bool,
        report_json: String,
    },
}

pub struct JobRun {
    pub wall_ms: f64,
    pub done: Done,
}

pub struct Runner<'a> {
    inputs: &'a Inputs,
    daemon: Option<Acrd>,
}

fn field<'s>(line: &'s str, key: &str) -> Option<&'s str> {
    let at = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    Some(&line[at..at + line[at..].find('"')?])
}

impl<'a> Runner<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        Runner {
            inputs,
            daemon: None,
        }
    }

    /// Starts a pass. The daemon workload gets a fresh `Acrd`, so every
    /// pass meets the same sequence of cold and warm state.
    pub fn begin_pass(&mut self) {
        if self.inputs.daemon() {
            let mut d = Acrd::new(ServeConfig::default());
            d.register(NetworkDef {
                name: NETWORK.to_string(),
                topo: Arc::new(self.inputs.net.topo.clone()),
                spec: Arc::new(self.inputs.net.spec.clone()),
            });
            self.daemon = Some(d);
        }
    }

    /// Runs job `idx` once. `Err` is a job the system refused.
    pub fn run(&mut self, idx: usize, tracer: &mut Tracer, id: &str) -> Result<JobRun, String> {
        let job = &self.inputs.jobs[idx];
        let root = tracer.open("job", id);
        let run = match &mut self.daemon {
            None => {
                let t = Instant::now();
                let span = tracer.open("engine.repair", id);
                let engine = RepairEngine::new(
                    &self.inputs.net.topo,
                    &self.inputs.net.spec,
                    job_config(job),
                );
                let report = engine.repair(&job.broken);
                tracer.close(span);
                Ok(JobRun {
                    wall_ms: t.elapsed().as_secs_f64() * 1e3,
                    done: Done::OneShot(Box::new(report)),
                })
            }
            Some(d) => serve(d, job, tracer, id),
        };
        tracer.close(root);
        run
    }
}

fn serve(d: &mut Acrd, job: &Job, tracer: &mut Tracer, id: &str) -> Result<JobRun, String> {
    let t = Instant::now();
    let span = tracer.open("serve.submit", id);
    let accepted = d.handle(&job.line);
    tracer.close(span);
    let job_id = field(&accepted, "job")
        .ok_or_else(|| format!("submit refused: {accepted}"))?
        .to_string();
    let span = tracer.open("serve.step", id);
    let stepped = d.step();
    tracer.close(span);
    let span = tracer.open("serve.result", id);
    let result = d.handle(&format!("{{\"op\":\"result\",\"job\":\"{job_id}\"}}"));
    tracer.close(span);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    if stepped.as_deref() != Some(job_id.as_str()) {
        return Err(format!("step ran {stepped:?}, not {job_id}"));
    }
    let rec = d
        .record(&job_id)
        .ok_or_else(|| format!("no record of {job_id}"))?;
    Ok(JobRun {
        wall_ms,
        done: Done::Served {
            sig: rec.decision_sig.clone(),
            fixed: field(&result, "outcome") == Some("fixed"),
            resident: rec.resident,
            report_json: rec.report_json.clone(),
        },
    })
}

/// The correctness checks. A job **fails** when it is refused, does not
/// end `Fixed`, breaks the report's accounting identity, decides
/// differently from an earlier run of the same job, or — judged after
/// the timed loop by a fresh `Verifier::run_full`, never by the engine's
/// own verdict — its repaired config does not pass the spec. A daemon
/// job's result carries the patch text, not the repaired config, so it
/// also fails when its decision signature differs from that of a
/// one-shot repair of the same (incident, seed), made after the timed
/// loop, that passed all of the above.
pub struct Checker<'a> {
    inputs: &'a Inputs,
    /// Decision signature of each distinct job, from its first run.
    pub sigs: Vec<Option<String>>,
    /// Repaired configs awaiting the independent verification.
    repaired: Vec<Option<NetworkConfig>>,
    /// Runs of each distinct job that passed the in-loop checks.
    passed: Vec<usize>,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

impl<'a> Checker<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        Checker {
            inputs,
            sigs: vec![None; inputs.jobs.len()],
            repaired: vec![None; inputs.jobs.len()],
            passed: vec![0; inputs.jobs.len()],
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, idx: usize, runs: usize, why: String) {
        self.failed += runs;
        if self.errors.len() < 8 {
            self.errors
                .push(format!("{}: {why}", self.inputs.jobs[idx].label));
        }
    }

    fn same_decision(&mut self, idx: usize, sig: String) -> Result<(), String> {
        match &self.sigs[idx] {
            Some(first) if *first != sig => Err("decision differs from the job's first run".into()),
            Some(_) => Ok(()),
            None => {
                self.sigs[idx] = Some(sig);
                Ok(())
            }
        }
    }

    fn one_shot(&mut self, idx: usize, report: RepairReport) -> Result<(), String> {
        report.check_accounting()?;
        let label = job_label(NETWORK, engine_seed());
        let sig = decision_signature(&label, &report);
        let RepairOutcome::Fixed { repaired, .. } = report.outcome else {
            return Err("did not end Fixed".into());
        };
        self.same_decision(idx, sig)?;
        self.repaired[idx].get_or_insert(repaired);
        Ok(())
    }

    /// Judges one run; returns its wall time when the job counts.
    pub fn judge(&mut self, idx: usize, run: Result<JobRun, String>) -> Option<f64> {
        self.attempted += 1;
        let verdict = run.and_then(|JobRun { wall_ms, done }| {
            match done {
                Done::OneShot(report) => self.one_shot(idx, *report),
                Done::Served { fixed: false, .. } => Err("did not end Fixed".into()),
                Done::Served { sig, .. } => self.same_decision(idx, sig),
            }
            .map(|()| wall_ms)
        });
        match verdict {
            Ok(wall_ms) => {
                self.passed[idx] += 1;
                Some(wall_ms)
            }
            Err(why) => {
                self.fail(idx, 1, why);
                None
            }
        }
    }

    /// After the timed loop: the one-shot reference repair of every
    /// daemon job that ran, the independent verification of every
    /// distinct repaired config, then the digest over the distinct
    /// jobs' decision signatures. A job that fails here fails every run
    /// that had passed: they all shared its signature.
    pub fn finish(&mut self) -> u64 {
        for idx in 0..self.inputs.jobs.len() {
            let job = &self.inputs.jobs[idx];
            if job.line.is_empty() || self.passed[idx] == 0 {
                continue;
            }
            let engine = RepairEngine::new(
                &self.inputs.net.topo,
                &self.inputs.net.spec,
                job_config(job),
            );
            if let Err(why) = self.one_shot(idx, engine.repair(&job.broken)) {
                self.fail(idx, self.passed[idx], format!("one-shot reference: {why}"));
            }
        }
        for idx in 0..self.repaired.len() {
            if let Some(cfg) = self.repaired[idx].take() {
                let (v, _) =
                    Verifier::new(&self.inputs.net.topo, &self.inputs.net.spec).run_full(&cfg);
                if !v.all_passed() {
                    let why = "repaired config fails independent verification";
                    self.fail(idx, self.passed[idx], why.into());
                }
            }
        }
        acr::serve::digest(self.sigs.iter().map(|s| s.as_deref().unwrap_or("-")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_reads_string_values() {
        let line = r#"{"ok":true,"op":"submit","job":"job-00ff","queued":1}"#;
        assert_eq!(field(line, "job"), Some("job-00ff"));
        assert_eq!(field(line, "op"), Some("submit"));
        assert_eq!(field(line, "queued"), None);
    }
}
