//! The context a fix-generation step works in.

use acr_cfg::{DeviceModel, LineId, NetworkConfig, Stmt};
use acr_net_types::{Asn, Ipv4Addr, Prefix, RouterId};
use acr_prov::CoverageMatrix;
use acr_sim::DerivArena;
use acr_topo::Topology;
use acr_verify::{TestRecord, Verification};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything templates and symbolization may consult when turning a
/// suspicious line into candidate patches.
pub struct RepairCtx<'a> {
    pub topo: &'a Topology,
    /// The configuration the suspicious line indexes into (the current
    /// repair variant, not necessarily the original network).
    pub cfg: &'a NetworkConfig,
    /// Verification of `cfg`: its records and session diagnostics.
    pub verification: &'a Verification,
    /// Per-test coverage of `cfg` ([`acr_verify::Verifier::coverage`]).
    pub coverage: &'a CoverageMatrix,
    /// Arena resolving the verification's derivation roots.
    pub arena: &'a DerivArena,
    /// Semantic models of `cfg`, indexed by router — the compiled form's
    /// ([`acr_sim::CompiledBase::models`]).
    pub models: &'a [Arc<DeviceModel>],
}

impl<'a> RepairCtx<'a> {
    /// The statement at a line, if it exists.
    pub fn stmt(&self, line: LineId) -> Option<&Stmt> {
        self.cfg.stmt(line)
    }

    /// The semantic model of a router.
    pub fn model(&self, router: RouterId) -> &DeviceModel {
        &self.models[router.index()]
    }

    /// The routed destination prefix of a test: the most specific prefix
    /// among attachments and originations that contains the test's
    /// destination address.
    pub fn dst_prefix_of(&self, rec: &TestRecord) -> Option<Prefix> {
        self.prefix_owning(rec.flow.dst).map(|(p, _)| p)
    }

    /// `(prefix, owner router)` of the most specific attachment containing
    /// `addr`.
    pub fn prefix_owning(&self, addr: Ipv4Addr) -> Option<(Prefix, RouterId)> {
        self.topo
            .attachments()
            .filter(|(_, p)| p.contains(addr))
            .max_by_key(|(_, p)| p.len())
            .map(|(r, p)| (p, r))
    }

    /// The AS the router at the far end of `addr` actually runs, if any —
    /// used to fix AS mismatches with the true value.
    pub fn actual_as_of(&self, addr: Ipv4Addr) -> Option<Asn> {
        let owner = self.topo.owner_of(addr)?;
        self.models[owner.index()].asn.map(|(a, _)| a)
    }

    /// The failed test records.
    pub fn failures(&self) -> impl Iterator<Item = &TestRecord> {
        self.verification.failures()
    }

    /// Coverage lines of a test.
    pub fn coverage_of(&self, test: acr_prov::TestId) -> Option<&BTreeSet<LineId>> {
        self.coverage
            .tests()
            .iter()
            .find(|t| t.test == test)
            .map(|t| &t.lines)
    }
}
