//! # acr-serve
//!
//! `acrd`, the resident repair daemon — ACR as a service instead of a
//! batch tool. The HotNets paper's deployment story ("a repair module
//! that sits next to the verifier and is consulted whenever an incident
//! fires") implies a *resident* process: the network's compiled base,
//! verification caches and static baselines should be paid for once,
//! not once per incident.
//!
//! - [`registry`] — per-network resident state: topology + spec
//!   identity, plus the [`acr_core::NetworkSession`] (cross-job
//!   simulation cache, per-configuration warm verifier state and static
//!   baseline) that only an explicit *committed-patch* invalidation
//!   drops.
//! - [`admission`] — admission control: a bounded daemon-wide queue and
//!   per-tenant quotas, with structured rejection reasons.
//! - [`queue`] — per-tenant FIFO lanes served deterministically
//!   round-robin.
//! - [`daemon`] — [`Acrd`] itself: submit → schedule → repair → record,
//!   multiplexing jobs over the deterministic repair engine.
//!   Daemon-served reports are byte-identical to one-shot batch runs
//!   (decisions always; full accounting in cold mode) — the
//!   `serve_differential` test and the ci.sh smoke assert it.
//! - [`proto`] — the JSONL wire protocol (also carried by HTTP bodies).
//! - [`http`] — a dependency-free `std::net` HTTP listener for
//!   `health`/`status`/`result`/`submit`/`drain`.
//! - [`report`] — report JSON + the decision/full determinism
//!   signatures and FNV digests CI compares across processes.
//!
//! Journal events (`acr-journal/v6`): `job_start`, `job_end` (with a
//! `resident` flag) or `job_failed` (the engine panicked; the daemon
//! carries on), `admission_rejected` — emitted by the daemon around the
//! engine's own `run_start`..`run_end` records.

pub mod admission;
pub mod daemon;
pub mod http;
pub mod proto;
pub mod queue;
pub mod registry;
pub mod report;

pub use admission::{Admission, QuotaConfig, RejectReason};
pub use daemon::{Acrd, JobRecord, JobState, ServeConfig};
pub use http::{serve, HttpServer};
pub use proto::{parse_request, resolve_config, submit_line, Request, SubmitReq};
pub use queue::{Job, JobQueue};
pub use registry::{NetworkDef, NetworkEntry, Registry};
pub use report::{decision_signature, digest, full_signature, job_label, report_json};
