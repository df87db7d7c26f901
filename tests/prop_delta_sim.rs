//! Delta-compiled simulation ≡ fresh compilation, property-tested.
//!
//! The delta path (`Simulator::from_base_with_patch`) recompiles only the
//! devices a patch touches, numbered in the base's lines, and
//! re-establishes sessions only where establishment can change. Its
//! contract is **field-for-field equality** with `Simulator::new` on the
//! patched configuration once every line is rendered through the delta's
//! line map — including the derivation arena, whose content-addressed
//! node list is equal exactly when both builds intern the same
//! derivations in the same order. Rendering is one-to-one on the lines a
//! candidate names, so re-interning the delta's nodes in order with
//! rendered lines gives each node its old id.
//!
//! The property is exercised over random Table-1 fault injections (all
//! nine fault classes supply the base configurations) crossed with random
//! follow-up patches that deliberately include session-shaping edits
//! (peer AS rewrites, `network` originations, deletes at arbitrary
//! positions) — the delta classifier's hardest cases — behind
//! `heavy-tests` (vendored proptest shim). One fixed case runs in the
//! default feature set: every Table-1 class at its first injectable site
//! of `wan(4,8)`, delta-built from the clean network's base with the
//! injection patch itself — the candidate shape the repair loop
//! validates, a small edit against a committed base.

use acr::cfg::LineMap;
use acr::prelude::*;
use acr::workloads::{inject_at, TABLE1};
use acr_sim::{CompiledBase, DerivArena, DerivId, SimOutcome};
use std::sync::Arc;

/// `out` with every line rendered through `lines`: the arena re-interned
/// node by node, the session diagnostics mapped.
fn rendered(out: SimOutcome, lines: &LineMap) -> SimOutcome {
    let mut arena = DerivArena::new();
    for i in 0..out.arena.len() as u32 {
        let node = out.arena.node(DerivId(i));
        let own = node.lines.iter().map(|l| lines.render(*l)).collect();
        let id = arena.intern(node.kind, own, node.parents.to_vec());
        assert_eq!(id, DerivId(i), "rendering merged two derivations");
    }
    let diags = out.session_diags.iter().map(|d| d.rendered(lines));
    SimOutcome {
        arena,
        session_diags: Arc::new(diags.collect()),
        ..out
    }
}

/// The delta-built simulator of `patched` rendered equals its fresh
/// compile: sessions, diagnostics and the whole run.
fn assert_renders_to_fresh(fresh: &Simulator<'_>, delta: &Simulator<'_>) {
    let lines = &delta.delta_info().expect("delta-built").lines;
    let sessions = delta.sessions().iter().map(|s| s.rendered(lines));
    assert!(sessions.eq(fresh.sessions().iter().cloned()), "sessions");
    let diags = delta.session_diags().iter().map(|d| d.rendered(lines));
    assert!(
        diags.eq(fresh.session_diags().iter().cloned()),
        "diagnostics"
    );
    assert_eq!(fresh.universe(), delta.universe());
    assert_eq!(fresh.run(), rendered(delta.run(), lines), "outcomes");
}

#[cfg(feature = "heavy-tests")]
use acr::workloads::try_inject;
#[cfg(feature = "heavy-tests")]
use proptest::prelude::{any, prop_assert, prop_assume, proptest, ProptestConfig};

/// Materializes one edit against `cfg` from raw fuzz inputs. Beyond the
/// benign inserts the incremental-verification proptests use, this
/// includes the session-shaping shapes (peer AS rewrites) and deletes at
/// arbitrary positions that drive the delta classifier's Structural path.
#[cfg(feature = "heavy-tests")]
fn edit_from(cfg: &NetworkConfig, ri: usize, pos: u16, kind: u8) -> Edit {
    let routers = cfg.routers();
    let router = routers[ri % routers.len()];
    let len = cfg.device(router).unwrap().len();
    match kind % 5 {
        0 => Edit::Delete {
            router,
            index: pos as usize % len,
        },
        1 => Edit::Insert {
            router,
            index: len,
            stmt: Stmt::StaticRoute {
                prefix: Prefix::from_octets(10, (pos % 200) as u8, 0, 0, 16),
                next_hop: acr::cfg::NextHop::Null0,
            },
        },
        2 => Edit::Replace {
            router,
            index: pos as usize % len,
            stmt: Stmt::PeerAs {
                peer: acr::cfg::PeerRef::Ip(acr::net_types::Ipv4Addr::new(
                    172,
                    16,
                    0,
                    (pos % 20) as u8 + 1,
                )),
                asn: Asn(65000 + u32::from(pos % 7)),
            },
        },
        3 => Edit::Insert {
            router,
            index: len,
            stmt: Stmt::Network(Prefix::from_octets(10, (pos % 200) as u8, 0, 0, 16)),
        },
        _ => Edit::Replace {
            router,
            index: pos as usize % len,
            stmt: Stmt::Remark("mutated".into()),
        },
    }
}

#[cfg(feature = "heavy-tests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `from_base_with_patch` produces a `SimOutcome` that renders
    /// field-for-field equal to a fresh `Simulator::new` on the patched
    /// configuration — arena included — for random injected bases ×
    /// random patches.
    #[test]
    fn delta_build_equals_fresh_build(
        fi in any::<usize>(),
        seed in 0u64..64,
        ri in any::<usize>(),
        pos in any::<u16>(),
        kind in any::<u8>(),
        ri2 in any::<usize>(),
        pos2 in any::<u16>(),
        kind2 in any::<u8>(),
        two_edits in any::<bool>(),
    ) {
        let net = generate(&acr::topo::gen::wan(3, 4));
        // Base: a Table-1 incident (any of the nine fault classes), so the
        // delta path is tested from the configurations repair actually
        // starts from — not just healthy ones.
        let incident = try_inject(TABLE1[fi % TABLE1.len()].0, &net, seed);
        prop_assume!(incident.is_some());
        let base_cfg = incident.unwrap().broken;

        let mut patch = Patch::single(edit_from(&base_cfg, ri, pos, kind));
        if two_edits {
            // Indices are relative to the document-at-that-moment; build
            // the second edit against the intermediate config.
            let Ok(mid) = patch.apply_cloned(&base_cfg) else {
                prop_assume!(false);
                unreachable!()
            };
            patch.push(edit_from(&mid, ri2, pos2, kind2));
        }
        prop_assume!(patch.apply_cloned(&base_cfg).is_ok());
        let patched = patch.apply_cloned(&base_cfg).unwrap();

        let base = CompiledBase::new(&net.topo, &base_cfg);
        let fresh = Simulator::new(&net.topo, &patched);
        let delta = Simulator::from_base_with_patch(&net.topo, &base, &patched, &patch);

        assert_renders_to_fresh(&fresh, &delta);
        prop_assert!(delta.build_stats().delta);
    }
}

/// Every Table-1 class at its first injectable site of `wan(4,8)` — the
/// configurations the benchmark's workloads repair: the simulator
/// delta-built from the clean network's base renders to the fresh build,
/// field for field.
#[test]
fn delta_equals_fresh_on_every_table1_class() {
    let net = generate(&acr::topo::gen::wan(4, 8));
    let base = CompiledBase::new(&net.topo, &net.cfg);
    for (fault, _) in TABLE1 {
        let routers = net.cfg.routers().into_iter();
        let incident = (routers.filter_map(|r| inject_at(fault, &net, &net.cfg, r)))
            .next()
            .unwrap_or_else(|| panic!("{fault:?} has an injectable site"));
        let fresh = Simulator::new(&net.topo, &incident.broken);
        let delta =
            Simulator::from_base_with_patch(&net.topo, &base, &incident.broken, &incident.patch);
        assert_renders_to_fresh(&fresh, &delta);
    }
}
