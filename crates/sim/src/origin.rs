//! The origination index: prefix → originating routers, built once.
//!
//! The simulator used to rediscover originations by scanning **every**
//! device model for **every** simulated prefix — an O(prefixes × routers)
//! rescan per run that dominated candidate-validation cost on larger
//! topologies. The index inverts that loop: each router's originations
//! are extracted once ([`router_origins`]), grouped by prefix, and looked
//! up per simulated prefix in O(log P + originators).
//!
//! Because [`router_origins`] is a pure function of one router's model
//! (plus the static topology), the index supports **delta maintenance**:
//! a patched device swaps just its own per-router slice via
//! [`OriginIndex::with_replaced`], leaving every other router's entries
//! shared structurally with the base index.

use crate::bgp::Origination;
use crate::deriv::DerivKind;
use acr_cfg::model::DeviceModel;
use acr_cfg::{LineId, Proto};
use acr_net_types::{Prefix, RouterId};
use acr_topo::Topology;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};

/// Why one router originates `prefix` into BGP, keyed by prefix. The
/// source order within an [`Origination`] reproduces the statement order
/// of the model (`network` lines first, then redistributions), so index
/// lookups are byte-identical to the historical per-prefix scan.
pub fn router_origins(
    topo: &Topology,
    router: RouterId,
    model: &DeviceModel,
) -> BTreeMap<Prefix, Origination> {
    let mut out: BTreeMap<Prefix, Origination> = BTreeMap::new();
    let Some((_, bgp_line)) = model.asn else {
        return out; // no BGP process, no originations
    };
    for (p, line) in &model.networks {
        out.entry(*p).or_default().sources.push((
            DerivKind::OriginNetwork,
            vec![LineId::new(router, *line), LineId::new(router, bgp_line)],
        ));
    }
    for (proto, redist_line) in &model.redistribute {
        match proto {
            Proto::Static => {
                for sr in &model.static_routes {
                    out.entry(sr.prefix).or_default().sources.push((
                        DerivKind::OriginStatic,
                        vec![
                            LineId::new(router, *redist_line),
                            LineId::new(router, sr.line),
                        ],
                    ));
                }
            }
            Proto::Connected => {
                for p in &topo.router(router).attached {
                    out.entry(*p).or_default().sources.push((
                        DerivKind::OriginConnected,
                        vec![LineId::new(router, *redist_line)],
                    ));
                }
            }
        }
    }
    out
}

/// Prefix → (router, origination) pairs, router-sorted. The key set *is*
/// the simulation universe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OriginIndex {
    by_prefix: BTreeMap<Prefix, Vec<(RouterId, Origination)>>,
}

impl OriginIndex {
    /// Builds the index from every router's model.
    pub fn build<M: Borrow<DeviceModel>>(topo: &Topology, models: &[M]) -> OriginIndex {
        let mut idx = OriginIndex::default();
        for (i, m) in models.iter().enumerate() {
            let router = RouterId(i as u32);
            for (p, o) in router_origins(topo, router, m.borrow()) {
                idx.by_prefix.entry(p).or_default().push((router, o));
            }
        }
        idx
    }

    /// A copy of the index with the given routers' slices swapped out —
    /// the delta-compilation path. Entries of untouched routers are
    /// cloned as-is; prefixes losing their last originator leave the
    /// universe.
    pub fn with_replaced(
        &self,
        parts: &BTreeMap<RouterId, BTreeMap<Prefix, Origination>>,
    ) -> OriginIndex {
        let mut by_prefix = self.by_prefix.clone();
        for v in by_prefix.values_mut() {
            v.retain(|(r, _)| !parts.contains_key(r));
        }
        for (r, part) in parts {
            for (p, o) in part {
                let v = by_prefix.entry(*p).or_default();
                let pos = v.partition_point(|(q, _)| *q < *r);
                v.insert(pos, (*r, o.clone()));
            }
        }
        by_prefix.retain(|_, v| !v.is_empty());
        OriginIndex { by_prefix }
    }

    /// All prefixes any router originates — the per-prefix simulation
    /// universe.
    pub fn universe(&self) -> BTreeSet<Prefix> {
        self.by_prefix.keys().copied().collect()
    }

    /// Dense per-router originations for `prefix` (indexed by
    /// `RouterId::index()`, defaults for non-originators) — the layout
    /// the per-prefix engines consume.
    pub fn dense(&self, prefix: Prefix, routers: usize) -> Vec<Origination> {
        let mut out = vec![Origination::default(); routers];
        if let Some(v) = self.by_prefix.get(&prefix) {
            for (r, o) in v {
                out[r.index()] = o.clone();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_cfg::parse::parse_device;
    use acr_topo::gen;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn model(text: &str) -> DeviceModel {
        DeviceModel::from_config(&parse_device("X", text).unwrap())
    }

    #[test]
    fn index_inverts_router_origins() {
        let topo = gen::line(2);
        let models = vec![
            model("bgp 65000\n network 10.0.0.0 16\n import-route static\nip route-static 20.0.0.0 16 NULL0\n"),
            model("bgp 65001\n network 10.1.0.0 16\n"),
        ];
        let idx = OriginIndex::build(&topo, &models);
        assert_eq!(
            idx.universe(),
            [p("10.0.0.0/16"), p("10.1.0.0/16"), p("20.0.0.0/16")]
                .into_iter()
                .collect()
        );
        let dense = idx.dense(p("10.1.0.0/16"), 2);
        assert!(dense[0].sources.is_empty());
        assert_eq!(dense[1].sources.len(), 1);
    }

    #[test]
    fn no_bgp_process_originates_nothing() {
        let topo = gen::line(2);
        let models = vec![
            model("ip route-static 20.0.0.0 16 NULL0\n"),
            model("ip route-static 30.0.0.0 16 NULL0\n"),
        ];
        let idx = OriginIndex::build(&topo, &models);
        assert!(idx.universe().is_empty());
    }

    #[test]
    fn with_replaced_swaps_only_the_touched_router() {
        let topo = gen::line(2);
        let models = vec![
            model("bgp 65000\n network 10.0.0.0 16\n"),
            model("bgp 65001\n network 10.1.0.0 16\n"),
        ];
        let idx = OriginIndex::build(&topo, &models);
        // R1 drops its network and gains another.
        let new_model = model("bgp 65001\n network 10.9.0.0 16\n");
        let parts = [(RouterId(1), router_origins(&topo, RouterId(1), &new_model))]
            .into_iter()
            .collect();
        let patched = idx.with_replaced(&parts);
        assert_eq!(
            patched.universe(),
            [p("10.0.0.0/16"), p("10.9.0.0/16")].into_iter().collect()
        );
        // And the swap is equivalent to a fresh build.
        let fresh = OriginIndex::build(&topo, &[models[0].clone(), new_model]);
        assert_eq!(patched, fresh);
    }
}
