//! `acrd`, the resident repair daemon: admission → queue → scheduler →
//! result store, multiplexing incident jobs over the deterministic
//! repair engine.
//!
//! One `Acrd` owns a [`Registry`] of networks, a round-robin
//! [`JobQueue`], and the completed-job record table. Jobs execute
//! *sequentially* on the daemon thread, each on the same deterministic
//! engine a one-shot batch run uses, which is what keeps a daemon-served
//! report byte-identical to it.
//!
//! Each job runs against its network's resident
//! [`acr_core::NetworkSession`] — cross-job simulation cache, warm
//! verifier state and static baseline per configuration. Decisions are
//! byte-identical to a one-shot `RepairEngine::repair`; validation cost
//! drops. A job that finds nothing resident to reuse — no warm slot for
//! its configuration, no cached candidate — is byte-identical to the
//! one-shot run, accounting included.
//!
//! A job that panics ends [`JobState::Failed`] with a `job_failed`
//! journal event and takes nothing else down: [`Acrd::step`] runs the
//! engine under `catch_unwind`. The job loses only what it held — its
//! network's session slot for the broken configuration was taken by
//! value for the run, so the next job on it commits cold — and the jobs
//! around it decide exactly as in a daemon that never saw it.
//!
//! Graceful shutdown is [`Acrd::finish`]: drain the queue, flush the
//! journal, persist nothing.

use crate::admission::{Admission, QuotaConfig, RejectReason};
use crate::proto::{parse_request, resolve_config, Request, SubmitReq};
use crate::queue::{Job, JobQueue};
use crate::registry::{NetworkDef, Registry};
use crate::report::{decision_signature, digest, full_signature, outcome_kind, report_json};
use acr_core::{RepairConfig, RepairEngine};
use acr_net_types::{fnv1a, FNV_OFFSET};
use acr_obs::metrics::{Counter, Gauge};
use acr_obs::{journal, json};
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

static SUBMITTED: Counter = Counter::new("serve.jobs.submitted");
static COMPLETED: Counter = Counter::new("serve.jobs.completed");
static REJECTED: Counter = Counter::new("serve.jobs.rejected");
static RESIDENT_SERVED: Counter = Counter::new("serve.jobs.resident");
static QUEUE_DEPTH: Gauge = Gauge::new("serve.queue.depth");

/// Daemon-level configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    pub quota: QuotaConfig,
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Done,
    /// The engine panicked on this job; [`JobRecord::error`] says why.
    Failed,
}

impl JobState {
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// The record a job leaves behind.
pub struct JobRecord {
    pub id: String,
    pub seq: u64,
    pub tenant: String,
    pub network: String,
    pub state: JobState,
    /// `fixed` / `no_candidates` / `iteration_limit` once done.
    pub outcome: &'static str,
    pub fixed: bool,
    /// Whether the run resumed warm resident state.
    pub resident: bool,
    pub decision_sig: String,
    pub full_sig: String,
    /// The full [`acr_core::RepairReport`] as JSON.
    pub report_json: String,
    pub validations: usize,
    pub validations_cached: usize,
    pub wall: Duration,
    /// The panic message of a failed job.
    pub error: String,
}

/// The daemon.
pub struct Acrd {
    admission: Admission,
    registry: Registry,
    queue: JobQueue,
    records: BTreeMap<String, JobRecord>,
    /// Accepted job ids in admission (seq) order — digest fold order.
    order: Vec<String>,
    seq: u64,
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    /// Completed jobs that resumed warm state.
    pub resident_jobs: u64,
}

impl Acrd {
    pub fn new(cfg: ServeConfig) -> Self {
        Acrd {
            admission: Admission::new(cfg.quota),
            registry: Registry::new(),
            queue: JobQueue::new(),
            records: BTreeMap::new(),
            order: Vec::new(),
            seq: 0,
            submitted: 0,
            completed: 0,
            rejected: 0,
            resident_jobs: 0,
        }
    }

    pub fn register(&mut self, def: NetworkDef) {
        self.registry.register(def);
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    pub fn record(&self, job: &str) -> Option<&JobRecord> {
        self.records.get(job)
    }

    /// Completed-job records in admission order.
    pub fn records_in_order(&self) -> impl Iterator<Item = &JobRecord> {
        self.order.iter().filter_map(|id| self.records.get(id))
    }

    fn reject(&mut self, tenant: &str, network: &str, reason: RejectReason) -> RejectReason {
        self.rejected += 1;
        REJECTED.inc();
        if acr_obs::enabled(acr_obs::JOURNAL) {
            journal::emit(
                &json::Obj::new()
                    .str("event", "admission_rejected")
                    .u64("ts_us", journal::now_us())
                    .str("tenant", tenant)
                    .str("network", network)
                    .str("reason", reason.tag())
                    .build(),
            );
        }
        reason
    }

    /// Admits one incident: registry lookup, config resolution, quota
    /// check, deterministic job id, enqueue.
    pub fn submit(&mut self, req: SubmitReq) -> Result<String, RejectReason> {
        let Some(entry) = self.registry.get(&req.network) else {
            let r = RejectReason::UnknownNetwork {
                network: req.network.clone(),
            };
            return Err(self.reject(&req.tenant, &req.network, r));
        };
        let broken = match resolve_config(&entry.def.topo, &req.config) {
            Ok(b) => b,
            Err(detail) => {
                let r = RejectReason::BadRequest { detail };
                return Err(self.reject(&req.tenant, &req.network, r));
            }
        };
        if let Err(r) = self
            .admission
            .check(self.queue.len(), self.queue.tenant_depth(&req.tenant))
        {
            return Err(self.reject(&req.tenant, &req.network, r));
        }
        let seq = self.seq;
        self.seq += 1;
        let mut h = FNV_OFFSET;
        for part in [req.tenant.as_str(), req.network.as_str()] {
            h = fnv1a(h, part.as_bytes());
            h = fnv1a(h, b"|");
        }
        h = fnv1a(h, &seq.to_be_bytes());
        h = fnv1a(h, &broken.fingerprint().to_be_bytes());
        let id = format!("job-{h:016x}");
        self.records.insert(
            id.clone(),
            JobRecord {
                id: id.clone(),
                seq,
                tenant: req.tenant.clone(),
                network: req.network.clone(),
                state: JobState::Queued,
                outcome: "",
                fixed: false,
                resident: false,
                decision_sig: String::new(),
                full_sig: String::new(),
                report_json: String::new(),
                validations: 0,
                validations_cached: 0,
                wall: Duration::ZERO,
                error: String::new(),
            },
        );
        self.order.push(id.clone());
        self.queue.push(Job {
            id: id.clone(),
            seq,
            tenant: req.tenant,
            network: req.network,
            seed: req.seed,
            tags: req.tags,
            broken,
        });
        self.submitted += 1;
        SUBMITTED.inc();
        QUEUE_DEPTH.set(self.queue.len() as u64);
        Ok(id)
    }

    /// Runs the next queued job (round-robin across tenants). Returns
    /// its id, or `None` when the queue is empty. A panic inside the
    /// engine fails this job alone (see the module docs).
    pub fn step(&mut self) -> Option<String> {
        let job = self.queue.pop()?;
        QUEUE_DEPTH.set(self.queue.len() as u64);
        let journal_on = acr_obs::enabled(acr_obs::JOURNAL);
        if journal_on {
            journal::emit(
                &json::Obj::new()
                    .str("event", "job_start")
                    .u64("ts_us", journal::now_us())
                    .str("job", &job.id)
                    .str("tenant", &job.tenant)
                    .str("network", &job.network)
                    .u64("seq", job.seq)
                    .build(),
            );
        }
        let rc = RepairConfig {
            seed: job.seed,
            tags: job.tags.clone(),
            ..RepairConfig::default()
        };
        let entry = self
            .registry
            .get_mut(&job.network)
            .expect("admitted jobs reference registered networks");
        let topo = entry.def.topo.clone();
        let spec = entry.def.spec.clone();
        let engine = RepairEngine::new(&topo, &spec, rc);
        let t = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let hits_before = entry.session.resident_hits;
            let report = engine.repair_resident(&job.broken, &mut entry.session);
            (report, entry.session.resident_hits > hits_before)
        }));
        let wall = t.elapsed();
        let (report, resident) = match run {
            Ok(run) => run,
            Err(panic) => {
                self.fail(&job, panic_message(panic.as_ref()), wall);
                return Some(job.id);
            }
        };
        entry.jobs_served += 1;
        let label = crate::report::job_label(&job.network, job.seed);
        let rec = self.records.get_mut(&job.id).expect("record exists");
        rec.state = JobState::Done;
        rec.outcome = outcome_kind(&report.outcome);
        rec.fixed = report.outcome.is_fixed();
        rec.resident = resident;
        rec.decision_sig = decision_signature(&label, &report);
        rec.full_sig = full_signature(&label, &report);
        rec.report_json = report_json(&report);
        rec.validations = report.validations;
        rec.validations_cached = report.validations_cached;
        rec.wall = wall;
        self.completed += 1;
        COMPLETED.inc();
        if resident {
            self.resident_jobs += 1;
            RESIDENT_SERVED.inc();
        }
        if journal_on {
            journal::emit(
                &json::Obj::new()
                    .str("event", "job_end")
                    .u64("ts_us", journal::now_us())
                    .str("job", &job.id)
                    .str("tenant", &job.tenant)
                    .str("network", &job.network)
                    .str("outcome", outcome_kind(&report.outcome))
                    .bool("resident", resident)
                    .build(),
            );
        }
        Some(job.id)
    }

    /// Records a job whose engine run panicked.
    fn fail(&mut self, job: &Job, error: String, wall: Duration) {
        if acr_obs::enabled(acr_obs::JOURNAL) {
            journal::emit(
                &json::Obj::new()
                    .str("event", "job_failed")
                    .u64("ts_us", journal::now_us())
                    .str("job", &job.id)
                    .str("tenant", &job.tenant)
                    .str("network", &job.network)
                    .str("error", &error)
                    .build(),
            );
        }
        let rec = self.records.get_mut(&job.id).expect("record exists");
        rec.state = JobState::Failed;
        rec.error = error;
        rec.wall = wall;
    }

    /// Runs every queued job to completion; returns how many ran.
    pub fn drain(&mut self) -> usize {
        let mut n = 0;
        while self.step().is_some() {
            n += 1;
        }
        n
    }

    /// Graceful shutdown: drain the queue and flush the journal. The
    /// daemon persists nothing — resident state is an in-memory cache
    /// rebuilt from committed configs on the next start.
    pub fn finish(&mut self) -> usize {
        let n = self.drain();
        journal::flush();
        n
    }

    /// FNV digest of completed jobs' decision signatures, in admission
    /// order — the `report_digest=` line, comparable between a resident
    /// daemon, a cold daemon, and an in-process batch run.
    pub fn decision_digest(&self) -> u64 {
        digest(
            self.records_in_order()
                .filter(|r| r.state == JobState::Done)
                .map(|r| r.decision_sig.as_str()),
        )
    }

    /// FNV digest of completed jobs' full signatures (accounting
    /// included) — comparable between a *cold* daemon and a batch run.
    pub fn full_digest(&self) -> u64 {
        digest(
            self.records_in_order()
                .filter(|r| r.state == JobState::Done)
                .map(|r| r.full_sig.as_str()),
        )
    }

    pub fn health_json(&self) -> String {
        json::Obj::new()
            .bool("ok", true)
            .str("op", "health")
            .int("networks", self.registry.len())
            .int("queued", self.queue.len())
            .u64("submitted", self.submitted)
            .u64("completed", self.completed)
            .u64("rejected", self.rejected)
            .u64("resident_jobs", self.resident_jobs)
            .build()
    }

    /// The JSONL surface: one request line in, one response line out.
    /// Both the stdin loop and the HTTP listener funnel through here.
    pub fn handle(&mut self, line: &str) -> String {
        let req = match parse_request(line) {
            Ok(r) => r,
            Err(detail) => {
                let r = self.reject("?", "?", RejectReason::BadRequest { detail });
                return reject_json("error", &r);
            }
        };
        match req {
            Request::Submit(s) => match self.submit(s) {
                Ok(id) => json::Obj::new()
                    .bool("ok", true)
                    .str("op", "submit")
                    .str("job", &id)
                    .int("queued", self.queue.len())
                    .build(),
                Err(r) => reject_json("submit", &r),
            },
            Request::Status { job } => match self.records.get(&job) {
                Some(rec) => json::Obj::new()
                    .bool("ok", true)
                    .str("op", "status")
                    .str("job", &job)
                    .str("state", rec.state.as_str())
                    .build(),
                None => error_json("status", "unknown_job", &job),
            },
            Request::Result { job } => match self.records.get(&job) {
                Some(rec) if rec.state == JobState::Failed => {
                    error_json("result", "job_failed", &rec.error)
                }
                Some(rec) if rec.state == JobState::Done => json::Obj::new()
                    .bool("ok", true)
                    .str("op", "result")
                    .str("job", &job)
                    .str("outcome", rec.outcome)
                    .bool("resident", rec.resident)
                    .raw("report", &rec.report_json)
                    .build(),
                Some(_) => error_json("result", "not_done", &job),
                None => error_json("result", "unknown_job", &job),
            },
            Request::Health => self.health_json(),
            Request::Drain => {
                let n = self.drain();
                json::Obj::new()
                    .bool("ok", true)
                    .str("op", "drain")
                    .int("completed", n)
                    .int("queued", self.queue.len())
                    .build()
            }
            Request::Invalidate { network } => {
                if self.registry.invalidate(&network) {
                    json::Obj::new()
                        .bool("ok", true)
                        .str("op", "invalidate")
                        .str("network", &network)
                        .build()
                } else {
                    error_json("invalidate", "unknown_network", &network)
                }
            }
        }
    }
}

/// The message a panic carried (`panic!` with a literal or a format).
fn panic_message(panic: &(dyn Any + Send)) -> String {
    match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
        (Some(s), _) => s.to_string(),
        (_, Some(s)) => s.clone(),
        _ => "panic".to_string(),
    }
}

fn reject_json(op: &str, r: &RejectReason) -> String {
    json::Obj::new()
        .bool("ok", false)
        .str("op", op)
        .str("error", r.tag())
        .str("detail", &r.to_string())
        .build()
}

fn error_json(op: &str, error: &str, subject: &str) -> String {
    json::Obj::new()
        .bool("ok", false)
        .str("op", op)
        .str("error", error)
        .str("detail", subject)
        .build()
}
