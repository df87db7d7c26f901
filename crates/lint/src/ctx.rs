//! Shared state handed to every rule module.

use crate::diag::{Diagnostic, RelatedNote, Rule};
use acr_cfg::{DeviceConfig, DeviceModel, NetworkConfig};
use acr_net_types::RouterId;
use acr_topo::Topology;
use std::collections::BTreeMap;

pub(crate) struct Ctx<'a> {
    pub topo: &'a Topology,
    pub cfg: &'a NetworkConfig,
    /// Semantic models keyed by router (built once, shared by all rules).
    models: BTreeMap<RouterId, &'a DeviceModel>,
}

impl<'a> Ctx<'a> {
    /// A context over the devices `models` names — every router for a
    /// whole-network lint, the patched ones for the candidate gate.
    pub fn new(
        topo: &'a Topology,
        cfg: &'a NetworkConfig,
        models: impl Iterator<Item = (RouterId, &'a DeviceModel)>,
    ) -> Self {
        Ctx {
            topo,
            cfg,
            models: models.collect(),
        }
    }

    /// Every configured device in scope, with its semantic model.
    pub fn devices(
        &self,
    ) -> impl Iterator<Item = (RouterId, &'a DeviceConfig, &'a DeviceModel)> + '_ {
        self.topo.routers().iter().filter_map(move |r| {
            let device = self.cfg.device(r.id)?;
            let model = self.models.get(&r.id)?;
            Some((r.id, device, *model))
        })
    }

    /// The semantic model of one router, if configured.
    pub fn model(&self, id: RouterId) -> Option<&'a DeviceModel> {
        self.models.get(&id).copied()
    }

    /// Display name of a router.
    pub fn name_of(&self, id: RouterId) -> String {
        self.topo.router(id).name.clone()
    }

    /// A diagnostic on `device` with the rule's intrinsic severity.
    pub fn diag(
        &self,
        rule: Rule,
        device: RouterId,
        span: (u32, u32),
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            severity: rule.severity(),
            device,
            device_name: self.name_of(device),
            span,
            message,
            related: Vec::new(),
        }
    }
}

/// Builder-style attachment of related locations.
pub(crate) trait DiagExt {
    fn with_related(self, ctx: &Ctx<'_>, device: RouterId, line: u32, note: &str) -> Self;
}

impl DiagExt for Diagnostic {
    fn with_related(mut self, ctx: &Ctx<'_>, device: RouterId, line: u32, note: &str) -> Self {
        self.related.push(RelatedNote {
            device,
            device_name: ctx.name_of(device),
            line,
            note: note.to_string(),
        });
        self
    }
}
