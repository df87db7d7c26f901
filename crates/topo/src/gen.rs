//! Topology generators for the experiment harness.
//!
//! Each generator produces only the *graph*; `acr-workloads` layers
//! role-appropriate configurations (and injected faults) on top.

use crate::topology::{Role, Topology, TopologyBuilder};
use acr_net_types::{Prefix, RouterId};

/// A full mesh of `n` backbone routers, each with one attached /16 carved
/// from `10.0.0.0/8` (router *i* gets `10.i.0.0/16`, so up to 256 routers).
pub fn full_mesh(n: usize) -> Topology {
    assert!((1..=256).contains(&n), "full_mesh supports 1..=256 routers");
    let mut b = TopologyBuilder::new();
    let ids: Vec<RouterId> = (0..n)
        .map(|i| b.router(&format!("R{i}"), Role::Backbone))
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            b.link(ids[i], ids[j]);
        }
    }
    for (i, id) in ids.iter().enumerate() {
        b.attach(*id, Prefix::from_octets(10, i as u8, 0, 0, 16));
    }
    b.build()
}

/// A ring of `n` routers with per-router /16 attachments.
pub fn ring(n: usize) -> Topology {
    assert!((3..=256).contains(&n), "ring supports 3..=256 routers");
    let mut b = TopologyBuilder::new();
    let ids: Vec<RouterId> = (0..n)
        .map(|i| b.router(&format!("R{i}"), Role::Backbone))
        .collect();
    for i in 0..n {
        b.link(ids[i], ids[(i + 1) % n]);
    }
    for (i, id) in ids.iter().enumerate() {
        b.attach(*id, Prefix::from_octets(10, i as u8, 0, 0, 16));
    }
    b.build()
}

/// A line (path graph) of `n` routers with attachments at both ends.
pub fn line(n: usize) -> Topology {
    assert!((2..=256).contains(&n), "line supports 2..=256 routers");
    let mut b = TopologyBuilder::new();
    let ids: Vec<RouterId> = (0..n)
        .map(|i| b.router(&format!("R{i}"), Role::Backbone))
        .collect();
    for w in ids.windows(2) {
        b.link(w[0], w[1]);
    }
    b.attach(ids[0], Prefix::from_octets(10, 0, 0, 0, 16));
    b.attach(ids[n - 1], Prefix::from_octets(10, (n - 1) as u8, 0, 0, 16));
    b.build()
}

/// A star: one hub, `n` edge routers each with an attachment.
pub fn star(n: usize) -> Topology {
    assert!((1..=255).contains(&n), "star supports 1..=255 spokes");
    let mut b = TopologyBuilder::new();
    let hub = b.router("HUB", Role::Backbone);
    for i in 0..n {
        let spoke = b.router(&format!("E{i}"), Role::Edge);
        b.link(hub, spoke);
        b.attach(spoke, Prefix::from_octets(10, i as u8, 0, 0, 16));
    }
    b.build()
}

/// A two-tier leaf–spine fabric: every leaf connects to every spine; each
/// leaf carries one rack prefix `10.l.0.0/16`. This is the DCN shape the
/// paper's plastic-surgery hypothesis (§6) targets.
pub fn leaf_spine(spines: usize, leaves: usize) -> Topology {
    assert!(spines >= 1 && (1..=256).contains(&leaves));
    let mut b = TopologyBuilder::new();
    let spine_ids: Vec<RouterId> = (0..spines)
        .map(|i| b.router(&format!("S{i}"), Role::Spine))
        .collect();
    let leaf_ids: Vec<RouterId> = (0..leaves)
        .map(|i| b.router(&format!("L{i}"), Role::Leaf))
        .collect();
    for l in &leaf_ids {
        for s in &spine_ids {
            b.link(*l, *s);
        }
    }
    for (i, l) in leaf_ids.iter().enumerate() {
        b.attach(*l, Prefix::from_octets(10, i as u8, 0, 0, 16));
    }
    b.build()
}

/// The attachment prefix for global attachment index `i`: the first 256
/// get `10.i.0.0/16` — byte-identical to the historical scheme every
/// pinned corpus and golden digest depends on — and indices from 256 up
/// get /24s carved from `20.0.0.0/8` (`20.hi.lo.0/24`), which never
/// overlap the /16 space.
fn attachment_prefix(i: usize) -> Prefix {
    if i < 256 {
        Prefix::from_octets(10, i as u8, 0, 0, 16)
    } else {
        let k = i - 256;
        assert!(k < 65536, "attachment prefix space exhausted");
        Prefix::from_octets(20, (k >> 8) as u8, (k & 255) as u8, 0, 24)
    }
}

/// A WAN: a *line* backbone (bb0 — bb1 — … — bb{n-1}) with `customers`
/// single-homed PoP routers attached round-robin. Every backbone router
/// owns attachment index *i*, customer *j* index `n+j` (its prefix is
/// `10.i/16` below 256 and a `20/8` /24 above — so
/// scale-frontier shapes like `wan(200, 400)` work while small corpora
/// keep their historical addressing).
///
/// The line (every backbone router is a cut vertex) makes single-device
/// faults observable instead of being masked by rerouting — which is what
/// the incident-injection experiments need.
pub fn wan(n_bb: usize, customers: usize) -> Topology {
    assert!(n_bb >= 2 && n_bb + customers <= 256 + 65536);
    let mut b = TopologyBuilder::new();
    let bb: Vec<RouterId> = (0..n_bb)
        .map(|i| b.router(&format!("BB{i}"), Role::Backbone))
        .collect();
    for w in bb.windows(2) {
        b.link(w[0], w[1]);
    }
    for (i, id) in bb.iter().enumerate() {
        b.attach(*id, attachment_prefix(i));
    }
    for j in 0..customers {
        let cust = b.router(&format!("C{j}"), Role::PoP);
        b.link(bb[j % n_bb], cust);
        b.attach(cust, attachment_prefix(n_bb + j));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_counts() {
        let t = full_mesh(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.links().len(), 10);
        for r in t.routers() {
            assert_eq!(t.neighbors(r.id).len(), 4);
            assert_eq!(r.attached.len(), 1);
        }
    }

    #[test]
    fn ring_counts() {
        let t = ring(6);
        assert_eq!(t.links().len(), 6);
        for r in t.routers() {
            assert_eq!(t.neighbors(r.id).len(), 2);
        }
    }

    #[test]
    fn line_has_endpoints_attached() {
        let t = line(4);
        assert_eq!(t.links().len(), 3);
        assert_eq!(t.attachments().count(), 2);
        assert_eq!(t.neighbors(RouterId(0)).len(), 1);
        assert_eq!(t.neighbors(RouterId(1)).len(), 2);
    }

    #[test]
    fn star_shape() {
        let t = star(7);
        assert_eq!(t.len(), 8);
        assert_eq!(t.neighbors(t.by_name("HUB").unwrap()).len(), 7);
    }

    #[test]
    fn leaf_spine_bipartite() {
        let t = leaf_spine(2, 4);
        assert_eq!(t.len(), 6);
        assert_eq!(t.links().len(), 8);
        let spine = t.by_name("S0").unwrap();
        let leaf = t.by_name("L0").unwrap();
        assert_eq!(t.neighbors(spine).len(), 4);
        assert_eq!(t.neighbors(leaf).len(), 2);
        // No leaf-leaf or spine-spine links.
        for link in t.links() {
            let ra = t.router(link.a.router).role;
            let rb = t.router(link.b.router).role;
            assert_ne!(ra, rb);
        }
    }

    #[test]
    fn attachments_are_distinct() {
        let t = full_mesh(10);
        let mut seen: Vec<Prefix> = Vec::new();
        for (_, p) in t.attachments() {
            assert!(!seen.contains(&p), "duplicate attachment {p}");
            seen.push(p);
        }
    }

    #[test]
    #[should_panic]
    fn oversized_mesh_panics() {
        full_mesh(300);
    }

    #[test]
    fn wan_shape() {
        let t = wan(4, 8);
        assert_eq!(t.len(), 12);
        // 3 backbone links + 8 customer links.
        assert_eq!(t.links().len(), 11);
        // Every customer is single-homed.
        for r in t.routers().iter().filter(|r| r.role == Role::PoP) {
            assert_eq!(t.neighbors(r.id).len(), 1, "{}", r.name);
            assert_eq!(r.attached.len(), 1);
        }
        // bb0 and bb3 are line endpoints; bb1/bb2 interior.
        assert_eq!(
            t.neighbors(t.by_name("BB0").unwrap())
                .iter()
                .filter(|(n, _)| t.router(*n).role == Role::Backbone)
                .count(),
            1
        );
        // Round-robin homing: C0 and C4 both hang off BB0.
        let bb0 = t.by_name("BB0").unwrap();
        let c0 = t.by_name("C0").unwrap();
        let c4 = t.by_name("C4").unwrap();
        assert!(t.neighbors(bb0).iter().any(|(n, _)| *n == c0));
        assert!(t.neighbors(bb0).iter().any(|(n, _)| *n == c4));
    }

    #[test]
    fn wan_scales_past_256_attachments() {
        let t = wan(200, 400);
        assert_eq!(t.len(), 600);
        assert_eq!(t.links().len(), 199 + 400);
        // First 256 attachment indices keep the historical /16 scheme;
        // the rest move to 20/8 /24s, and all stay distinct.
        let attached: Vec<Prefix> = t.attachments().map(|(_, p)| p).collect();
        assert_eq!(attached.len(), 600);
        assert!(attached.contains(&Prefix::from_octets(10, 255, 0, 0, 16)));
        assert!(attached.contains(&Prefix::from_octets(20, 0, 0, 0, 24)));
        assert!(attached.contains(&Prefix::from_octets(20, 1, 87, 0, 24)));
        let mut uniq = attached.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), attached.len());
        // Indices below 256 are byte-identical to the historical scheme.
        let small = wan(4, 8);
        let t2 = wan(4, 8);
        assert_eq!(
            small.attachments().collect::<Vec<_>>(),
            t2.attachments().collect::<Vec<_>>()
        );
        assert!(small
            .attachments()
            .any(|(_, p)| p == Prefix::from_octets(10, 11, 0, 0, 16)));
    }
}
