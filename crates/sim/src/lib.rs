//! # acr-sim
//!
//! A deterministic Batfish-like BGP control-plane simulator — the oracle
//! ACR repairs against. Given a topology (`acr-topo`) and a network
//! configuration (`acr-cfg`) it computes, **per prefix**:
//!
//! - BGP session establishment (with peer groups and AS-number checks),
//! - route propagation under import/export route-policies (including the
//!   `as-path overwrite` action that powers the paper's Figure 2 incident),
//! - best-path selection (local-pref, path length, MED, router-id),
//! - **convergence or oscillation**: the synchronous dynamics either reach
//!   a fixed point or revisit a state, in which case the prefix is
//!   *flapping* — exactly the failure mode of the example incident. One
//!   engine runs them (`bgp`: a router is recomputed only when a
//!   neighbor's best changed, transfers are memoized); the dense
//!   every-router-every-round reference it must match outcome for
//!   outcome and arena for arena is a test oracle,
//!   `tests/converge_oracle.rs`,
//! - forwarding (connected + static base FIBs, with BGP answered from the
//!   per-prefix outcomes by a lookup view) and a packet-forwarding walk
//!   with loop/blackhole detection and PBR,
//! - a **derivation arena**: every route carries a content-addressed
//!   derivation recording the configuration lines it depends on, which the
//!   provenance layer turns into per-test line coverage for SBFL.
//!
//! Device models and sessions are built in one place, [`CompiledBase`]
//! (`base`): the simulator, the incremental verifier, the `acr-flow`
//! analysis and the `acr-lint` rules all read that one compiled form.
//!
//! Per-prefix decomposition is sound here because no modelled feature
//! couples routes of different prefixes; it is what makes the DNA-style
//! incremental verification in `acr-verify` exact.

pub mod base;
pub mod bgp;
pub mod deriv;
pub mod fib;
pub mod forward;
pub(crate) mod fxhash;
pub mod origin;
pub mod policy;
pub mod route;
pub mod session;
pub mod sim;

pub use base::{compile_device, CompiledBase, DeltaInfo, SessionDelta, SessionPart, SimBuild};
pub use bgp::{ConvergeWork, PolicyMemo, PrefixOutcome, MAX_ROUNDS_BASE};
pub use deriv::{DerivArena, DerivId, DerivKind, DerivNode};
pub use fib::{bgp_entry, covering, Fib, FibAction, FibEntry, FibView};
pub use forward::{ForwardOutcome, ForwardResult};
pub use origin::OriginIndex;
pub use route::{select_best_id, Route, RouteId, RouteInterner};
pub use session::{Session, SessionDiag, SessionFailure};
pub use sim::{SimOutcome, Simulator};
