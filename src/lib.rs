//! # ACR — Automatic Configuration Repair
//!
//! A from-scratch reproduction of *Automatic Configuration Repair*
//! (HotNets '24): the **localize–fix–validate** approach to repairing
//! router configurations, together with every substrate it needs — a
//! BGP control-plane simulator with oscillation detection, a DNA-style
//! incremental verifier, provenance-based coverage, spectrum-based fault
//! localization, set-algebra local symbolization, the MetaProv/AED
//! baselines it is compared against,
//! workload generators reproducing the paper's Figure 2 incident and
//! Table 1 misconfiguration taxonomy, a zero-dependency
//! observability layer (tracing, metrics, run journal — see [`obs`]),
//! and `acrd`, a resident repair daemon serving admission-controlled
//! incident queues from warm per-network state (see [`serve`]).
//!
//! ## Quickstart
//!
//! ```
//! use acr::prelude::*;
//!
//! // The paper's Figure 2 incident: 10.0/16 flaps because the
//! // `default_all` prefix lists on routers A and C match everything.
//! let fig2 = acr::workloads::fig2::fig2_incident();
//!
//! // Localize–fix–validate finds a feasible update.
//! let engine = RepairEngine::with_defaults(&fig2.topo, &fig2.spec);
//! let report = engine.repair(&fig2.broken);
//! assert!(report.outcome.is_fixed());
//! ```
//!
//! The facade re-exports each layer under a stable name; see the README
//! for the architecture map and `EXPERIMENTS.md` for the paper-artifact
//! index.

pub use acr_baselines as baselines;
pub use acr_cfg as cfg;
pub use acr_core as core;
pub use acr_lint as lint;
pub use acr_localize as localize;
pub use acr_net_types as net_types;
pub use acr_obs as obs;
pub use acr_prov as prov;
pub use acr_scenarios as scenarios;
pub use acr_serve as serve;
pub use acr_sim as sim;
pub use acr_topo as topo;
pub use acr_verify as verify;
pub use acr_workloads as workloads;

/// The most common imports, bundled.
pub mod prelude {
    pub use acr_cfg::{DeviceConfig, Edit, LineId, NetworkConfig, Patch, Stmt};
    pub use acr_core::{
        AcrStrategy, RepairConfig, RepairEngine, RepairOutcome, RepairStrategy, Strategy,
        StrategyVerdict,
    };
    pub use acr_lint::{lint_network, Diagnostic, LintReport, Rule, Severity};
    pub use acr_localize::{localize, localize_boosted, SbflFormula};
    pub use acr_net_types::{Asn, Flow, Ipv4Addr, Prefix, RouterId};
    pub use acr_scenarios::{corpus, Scenario, ScenarioFamily};
    pub use acr_serve::{Acrd, NetworkDef, QuotaConfig, ServeConfig};
    pub use acr_sim::Simulator;
    pub use acr_topo::{Role, Topology, TopologyBuilder};
    pub use acr_verify::{IncrementalVerifier, ObsMask, Property, Spec, Verifier, Violation};
    pub use acr_workloads::{generate, sample_incidents, try_inject, FaultType};
}
