//! # acr-baselines
//!
//! The two repair families the paper positions ACR against (§2.3):
//!
//! - [`metaprov`] — a MetaProv-style **provenance** method: trace the
//!   failed behaviour's provenance to its leaves, mutate one leaf at a
//!   time, and accept the first mutation that clears the *originally
//!   failing* tests. Efficient (the search space is the provenance
//!   leaves, Figure 3a) but **not necessarily correct**: it never checks
//!   the rest of the specification, so the accepted update may regress
//!   other intents — which the report measures.
//! - [`aed`] — an AED-style **synthesis** method: every configuration
//!   line gets a delta (disable) variable and every symbolizable
//!   parameter a finite-domain value variable; candidates are enumerated
//!   in increasing change size and validated against the *full*
//!   specification. Correct by construction, but the search space is
//!   `2^(free variables)` (Figure 3b) and the method routinely exhausts
//!   its budget on multi-line faults — the paper's scalability critique.
//!
//! Both share ACR's verifier, so comparisons are apples-to-apples.

pub mod aed;
pub mod metaprov;
pub mod strategies;

pub use aed::{aed_repair, AedOutcome, AedReport};
pub use metaprov::{metaprov_repair, MetaProvReport};
pub use strategies::{AedStrategy, MetaProvStrategy};
