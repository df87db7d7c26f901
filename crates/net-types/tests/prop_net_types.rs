//! Property-based tests for the foundation types.
//!
//! The trie is checked against a naive linear-scan longest-prefix-match
//! model, and prefixes/paths against their algebraic laws.
//!
//! The proptests run behind `heavy-tests` (vendored proptest shim). One
//! fixed slice runs in the default feature set through the same checkers:
//! trie ≡ naive LPM, remove restores the shadowed parent, the prefix
//! parse/display round trip and covers ⇒ contains, on a `SplitMix64`-seeded
//! set of 256 nested prefixes (/0 and /32 included) and 256 addresses.

use acr_net_types::{Ipv4Addr, Prefix, PrefixTrie, SplitMix64};

#[cfg(feature = "heavy-tests")]
use {
    acr_net_types::{AsPath, Asn, HeaderSpace},
    proptest::prelude::*,
};

/// Naive LPM over a list — the reference model for the trie.
fn naive_lpm(entries: &[(Prefix, u32)], addr: Ipv4Addr) -> Option<(Prefix, u32)> {
    entries
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .copied()
}

/// The trie built from `entries` (last writer wins per prefix) answers
/// every lookup as the naive model does.
fn trie_agrees_with_naive_lpm(entries: &[(Prefix, u32)], addrs: &[Ipv4Addr]) -> Result<(), String> {
    let mut dedup: Vec<(Prefix, u32)> = Vec::new();
    for (p, v) in entries {
        if let Some(slot) = dedup.iter_mut().find(|(q, _)| q == p) {
            slot.1 = *v;
        } else {
            dedup.push((*p, *v));
        }
    }
    let trie: PrefixTrie<u32> = dedup.iter().copied().collect();
    if trie.len() != dedup.len() {
        return Err(format!(
            "trie holds {} of {} prefixes",
            trie.len(),
            dedup.len()
        ));
    }
    for &addr in addrs {
        let got = trie.lookup(addr).map(|(p, v)| (p, *v));
        let want = naive_lpm(&dedup, addr);
        if got != want {
            return Err(format!("{addr:?}: trie {got:?}, naive {want:?}"));
        }
    }
    Ok(())
}

/// Insert a prefix and its parent; removing the child must expose the
/// parent for every address the child used to win.
fn remove_restores_shadowed(a: Prefix, addrs: &[Ipv4Addr]) -> Result<(), String> {
    let Some(parent) = a.parent() else {
        return Ok(());
    };
    let mut trie = PrefixTrie::new();
    trie.insert(parent, 1u32);
    trie.insert(a, 2u32);
    trie.remove(a);
    for &addr in addrs.iter().filter(|addr| parent.contains(**addr)) {
        let got = trie.lookup(addr).map(|(_, v)| *v);
        if got != Some(1) {
            return Err(format!("{a} removed: {addr:?} -> {got:?}"));
        }
    }
    Ok(())
}

fn parse_display_roundtrips(p: Prefix) -> Result<(), String> {
    let s = p.to_string();
    match s.parse::<Prefix>() {
        Ok(back) if back == p => Ok(()),
        other => Err(format!("{s} parsed back as {other:?}")),
    }
}

fn covers_implies_contains(a: Prefix, b: Prefix) -> Result<(), String> {
    if a.covers(b) && !(a.contains(b.addr()) && a.len() <= b.len()) {
        return Err(format!("{a} covers {b} without containing it"));
    }
    Ok(())
}

/// 256 prefixes: every other one random, the rest nested inside an
/// earlier one (so covering chains and shadowed entries exist), plus /0
/// and a /32; and 256 addresses, half random, half hosts of the set.
fn fixed_set() -> (Vec<Prefix>, Vec<Ipv4Addr>) {
    let mut rng = SplitMix64::new(0x5eed);
    let mut prefixes = vec![
        Prefix::DEFAULT,
        Prefix::new(Ipv4Addr(rng.next_u64() as u32), 32),
    ];
    while prefixes.len() < 256 {
        let p = if prefixes.len() % 2 == 0 {
            Prefix::new(Ipv4Addr(rng.next_u64() as u32), rng.index(33) as u8)
        } else {
            let outer = prefixes[rng.index(prefixes.len())];
            let len = outer.len() + rng.index(33 - outer.len() as usize) as u8;
            Prefix::new(outer.host(rng.next_u64() as u32), len)
        };
        prefixes.push(p);
    }
    let addrs = (0..256)
        .map(|i| {
            if i % 2 == 0 {
                Ipv4Addr(rng.next_u64() as u32)
            } else {
                prefixes[rng.index(prefixes.len())].host(rng.next_u64() as u32)
            }
        })
        .collect();
    (prefixes, addrs)
}

/// The tier-1 slice of the four properties above.
#[test]
fn trie_and_prefix_laws_hold_on_a_fixed_set() {
    let (prefixes, addrs) = fixed_set();
    let entries: Vec<(Prefix, u32)> = prefixes.iter().zip(0..).map(|(p, v)| (*p, v)).collect();
    trie_agrees_with_naive_lpm(&entries, &addrs).unwrap();
    let mut covering = 0;
    for &a in &prefixes {
        parse_display_roundtrips(a).unwrap();
        let hosts: Vec<Ipv4Addr> = (0..4u32)
            .map(|i| a.host(i.wrapping_mul(0x9e37_79b9)))
            .collect();
        remove_restores_shadowed(a, &addrs).unwrap();
        remove_restores_shadowed(a, &hosts).unwrap();
        for &b in &prefixes {
            covers_implies_contains(a, b).unwrap();
            covering += usize::from(a != b && !a.is_default() && a.covers(b));
        }
    }
    assert!(
        covering >= 256,
        "the set must nest: {covering} covering pairs below /0"
    );
}

#[cfg(feature = "heavy-tests")]
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::new(Ipv4Addr(addr), len))
}

#[cfg(feature = "heavy-tests")]
fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr)
}

#[cfg(feature = "heavy-tests")]
proptest! {
    #[test]
    fn prefix_parse_display_roundtrip(p in arb_prefix()) {
        prop_assert_eq!(parse_display_roundtrips(p), Ok(()));
    }

    #[test]
    fn prefix_contains_its_hosts(p in arb_prefix(), i in any::<u32>()) {
        prop_assert!(p.contains(p.host(i)));
    }

    #[test]
    fn covers_implies_contains_base(a in arb_prefix(), b in arb_prefix()) {
        prop_assert_eq!(covers_implies_contains(a, b), Ok(()));
    }

    #[test]
    fn parent_covers_child(p in arb_prefix()) {
        if let Some(parent) = p.parent() {
            prop_assert!(parent.covers(p));
        }
        if let Some((l, r)) = p.children() {
            prop_assert!(p.covers(l) && p.covers(r));
            prop_assert!(!l.overlaps(r));
        }
    }

    #[test]
    fn trie_matches_naive_lpm(
        entries in proptest::collection::vec((arb_prefix(), any::<u32>()), 0..40),
        addrs in proptest::collection::vec(arb_addr(), 1..20),
    ) {
        prop_assert_eq!(trie_agrees_with_naive_lpm(&entries, &addrs), Ok(()));
    }

    #[test]
    fn trie_remove_restores_shadowed(
        a in arb_prefix(),
        addrs in proptest::collection::vec(arb_addr(), 1..10),
    ) {
        prop_assert_eq!(remove_restores_shadowed(a, &addrs), Ok(()));
    }

    #[test]
    fn aspath_prepend_then_len(hops in proptest::collection::vec(1u32..65000, 0..8), local in 1u32..65000) {
        let path = AsPath::from_hops(hops.iter().copied().map(Asn));
        let out = path.prepend(Asn(local));
        prop_assert_eq!(out.len(), path.len() + 1);
        prop_assert!(out.contains(Asn(local)));
        prop_assert_eq!(out.hops()[0], Asn(local));
        // Overwrite always yields length 1 regardless of history.
        prop_assert_eq!(AsPath::overwrite(Asn(local)).len(), 1);
    }

    #[test]
    fn headerspace_samples_are_members(src in arb_prefix(), dst in arb_prefix(), i in any::<u32>()) {
        let hs = HeaderSpace::between(src, dst);
        let f = hs.sample(i);
        prop_assert!(hs.contains(&f));
    }
}
