//! `acr-flow`: network-wide route-propagation dataflow analysis.
//!
//! A static abstract interpretation over the network's policy graph.
//! Where `acr-sim` *simulates* BGP to a concrete fixed point, this crate
//! runs a worklist fixed point over abstract transfer summaries compiled
//! from the `acr-cfg` device models, producing — without a single
//! simulation round — an over-approximate **may-propagation** relation:
//! for each (origin prefix, router, session, direction), whether a route
//! may arrive and may be exported and which communities it may carry (a
//! may-set, the one attribute policy matching reads beside the exact
//! prefix), and per prefix the configuration lines that may have
//! contributed.
//!
//! Because the relation over-approximates every concrete behaviour, its
//! *negatives* are definite: a prefix that **cannot** be accepted by any
//! neighbour of its origin cannot be in any simulation either. Two
//! consumers read the facts:
//!
//! - `acr-lint`'s one cross-device rule, `unimportable-route`, reports
//!   an originated prefix that some export offers and no import accepts
//!   ([`FlowFacts::origins`], [`FlowFacts::session_facts`]);
//! - the repair engine's localization prior damps the lines on the
//!   abstract derivation path of a violated property
//!   ([`FlowFacts::support_for`]).
//!
//! A third, the patch-invisibility proof ([`gate::patch_invisible`]),
//! no longer has a caller in the engine — it skipped at most one
//! candidate per pass on every benchmark workload — and remains only
//! because `benchmark/`'s `flow.gate_ms` probe links it.
//!
//! The soundness argument lives in the module docs of [`transfer`] and
//! [`gate`]; the property suite in `tests/prop_flow.rs` checks it
//! against `acr-sim` over random topologies and Table-1 faults.

pub mod analysis;
pub mod domain;
pub mod gate;
pub mod transfer;

pub use analysis::{analyze, analyze_with_models, DirFacts, FlowFacts, SessionFacts};
pub use domain::AbstractRoute;
pub use gate::patch_invisible;
pub use transfer::abstract_policy;
