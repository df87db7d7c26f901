//! # acr-localize
//!
//! Fault localization for network configurations (§4.1 of the paper):
//!
//! - [`sbfl`] — Spectrum-Based Fault Localization. Folds a coverage
//!   matrix into per-line `(passed(s), failed(s))` counters and scores
//!   them with [`SbflFormula::Tarantula`] (the paper's Equation 1) or the
//!   alternatives the paper's §6 mentions as future work (Ochiai, Jaccard,
//!   D*) — implemented here so the ablation benches can compare them.
//! - [`ranking`] — deterministic suspiciousness rankings with EXAM-score
//!   evaluation.

pub mod ranking;
pub mod sbfl;

pub use ranking::Ranking;
pub use sbfl::{localize, localize_boosted, suspiciousness, SbflFormula};
