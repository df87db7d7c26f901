//! The claim the simulation memo-cache rests on: the config fingerprint
//! (hash of the canonical rendered configuration) fully determines a
//! simulation, so serving a memoized result is indistinguishable from
//! re-simulating. Checked from below: fingerprint ⇒ identical
//! `SimOutcome`.
//!
//! The proptest runs behind `heavy-tests` (vendored proptest shim). One
//! fixed slice runs in the default feature set through the same checker:
//! every router of `wan(3,4)` × the three edit kinds × the first and the
//! last statement.

use acr_cfg::{Edit, NetworkConfig, Patch, Stmt};
use acr_net_types::Prefix;
use acr_sim::Simulator;
use acr_workloads::{generate, GeneratedNetwork};

#[cfg(feature = "heavy-tests")]
use proptest::prelude::{any, prop_assert_eq, proptest, ProptestConfig};

fn wan() -> GeneratedNetwork {
    generate(&acr_topo::gen::wan(3, 4))
}

/// A semantically valid single edit: `kind % 3` picks delete, append a
/// static route, or replace by a remark, at statement `pos % len` of
/// router `ri % routers` (same shape as the system-level property suite).
fn edit_from(net: &GeneratedNetwork, ri: usize, pos: usize, kind: u8) -> Patch {
    let routers = net.cfg.routers();
    let router = routers[ri % routers.len()];
    let len = net.cfg.device(router).unwrap().len();
    match kind % 3 {
        0 => Patch::single(Edit::Delete {
            router,
            index: pos % len,
        }),
        1 => Patch::single(Edit::Insert {
            router,
            index: len,
            stmt: Stmt::StaticRoute {
                prefix: Prefix::from_octets(10, (pos % 200) as u8, 0, 0, 16),
                next_hop: acr_cfg::NextHop::Null0,
            },
        }),
        _ => Patch::single(Edit::Replace {
            router,
            index: pos % len,
            stmt: Stmt::Remark("mutated".into()),
        }),
    }
}

fn patched(net: &GeneratedNetwork, ri: usize, pos: usize, kind: u8) -> Option<NetworkConfig> {
    edit_from(net, ri, pos, kind).apply_cloned(&net.cfg).ok()
}

/// The canonical rendered text the fingerprint is computed over.
fn render(cfg: &NetworkConfig) -> String {
    cfg.routers()
        .iter()
        .filter_map(|r| cfg.device(*r).map(|d| d.to_text()))
        .collect()
}

/// Two configs reached through the same edit path hash alike and
/// simulate to field-identical `SimOutcome`s, and a config whose render
/// differs from the base's does not share its fingerprint (a 64-bit
/// collision among a few dozen variants means the fingerprint is broken).
fn fingerprint_determines_outcome(
    net: &GeneratedNetwork,
    a: &NetworkConfig,
    b: &NetworkConfig,
) -> Result<(), String> {
    if a.fingerprint() != b.fingerprint() {
        return Err("the same edit path hashed differently".into());
    }
    let out_a = Simulator::new(&net.topo, a).run();
    let out_b = Simulator::new(&net.topo, b).run();
    if out_a.outcomes != out_b.outcomes
        || out_a.base_fibs != out_b.base_fibs
        || out_a.arena != out_b.arena
        || out_a.session_diags != out_b.session_diags
    {
        return Err("equal fingerprints simulated differently".into());
    }
    if render(a) != render(&net.cfg) && a.fingerprint() == net.cfg.fingerprint() {
        return Err("a changed render kept the base fingerprint".into());
    }
    Ok(())
}

/// The tier-1 slice: every router × delete / append / replace × the
/// first and the last statement.
#[test]
fn fingerprint_determines_outcome_on_every_router_and_edit_kind() {
    let net = wan();
    for (ri, router) in net.cfg.routers().into_iter().enumerate() {
        let len = net.cfg.device(router).unwrap().len();
        for kind in 0..3u8 {
            for pos in [0, len - 1] {
                let what = format!("{router:?}, kind {kind}, pos {pos}");
                let a = patched(&net, ri, pos, kind).unwrap_or_else(|| panic!("{what}: applies"));
                let b = patched(&net, ri, pos, kind).unwrap();
                if let Err(e) = fingerprint_determines_outcome(&net, &a, &b) {
                    panic!("{what}: {e}");
                }
            }
        }
    }
}

#[cfg(feature = "heavy-tests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fingerprint equality implies identical simulation outcomes, over
    /// fuzzed edits of the same base.
    #[test]
    fn fingerprint_determines_sim_outcome(ri in any::<usize>(), pos in any::<u16>(), kind in any::<u8>()) {
        let net = wan();
        let Some(a) = patched(&net, ri, pos as usize, kind) else { return };
        let Some(b) = patched(&net, ri, pos as usize, kind) else { return };
        prop_assert_eq!(fingerprint_determines_outcome(&net, &a, &b), Ok(()));
    }
}
