//! # acr-benchmark
//!
//! The repair-job benchmark of record: how long one repair job takes
//! from submit to report, end to end and attributed to layers, on four
//! workloads. See `benchmark/README.md` for the metric and workload
//! tables and the predictions that tie them together.
//!
//! Two binaries share this library. `acr-bench-e2e` measures the
//! end-to-end metrics with tracing off and reaches the program only
//! through `inputs.rs` and `runner.rs`, so a change to a layer's API
//! cannot stop those numbers from building. `acr-bench-layers` does the
//! traced run and times calls into each layer's public functions; its
//! layer-specific code lives in its own directory under `src/bin/`.

pub mod cli;
pub mod compare;
pub mod e2e;
pub mod inputs;
pub mod report;
pub mod runner;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod suite;
