//! # acr-verify
//!
//! The verification substrate of ACR:
//!
//! - [`spec`] — the intent language. Each [`Property`] quantifies over a
//!   header space and asserts reachability, isolation or waypointing; the
//!   test generator samples one (or more) concrete packets per property,
//!   exactly as the paper's §4.1 proposes ("for each property, we sample a
//!   packet from its header space as a test").
//! - [`mask`] — partial-observability masking: a deterministic
//!   [`ObsMask`] selects the subset of properties the verifier actually
//!   sees, modelling sampled-FIB / partial-intent diagnosis.
//! - [`verify`] — full verification: simulate, walk every test packet,
//!   classify violations (flapping, loops, blackholes, policy breaches)
//!   and extract per-test configuration-line coverage for SBFL.
//! - [`incremental`] — the DNA-style incremental verifier (§3.2
//!   observation (3)): it caches per-prefix control-plane outcomes in a
//!   persistent content-addressed arena and, given a candidate patch,
//!   re-simulates only the prefixes the patch can affect.
//! - [`testgen`] — automatic test-suite generation for networks without
//!   a specification (the paper's §6 open question): topology-derived
//!   reachability specs plus coverage-guided sample growth.

pub mod cache;
pub mod incremental;
pub mod mask;
pub mod spec;
pub mod testgen;
pub mod verify;
pub mod violation;

pub use cache::{make_entry, CandidateEntry, CandidateKey, SimCache};
pub use incremental::{IncrementalStats, IncrementalVerifier, WarmState};
pub use mask::ObsMask;
pub use spec::{Property, PropertyKind, Spec, TestCase};
pub use testgen::{coverage_guided_suite, derive_spec, SuiteStats};
pub use verify::{TestRecord, Verification, Verifier};
pub use violation::Violation;
