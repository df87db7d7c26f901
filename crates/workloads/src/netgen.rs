//! Role-structured configuration generation.
//!
//! Mirrors the architecture of the paper's network (and of Figure 2):
//!
//! - edge routers (PoP / DCN / leaf / edge roles) share the **customer AS**
//!   [`CUSTOMER_AS`] and originate their attached prefixes,
//! - backbone/spine routers run distinct ASes and apply an `Override_Cust`
//!   import policy on every customer-facing session: it permits-and-
//!   overwrites exactly the adjacent customers' prefixes (hiding the
//!   shared customer AS — without it, other customers' loop checks reject
//!   the routes) and implicitly denies everything else (ingress filter),
//! - backbones with two or more customers use a **peer group** (`Cust`)
//!   carrying the shared AS and policy — the structure the Table-1
//!   peer-group faults corrupt,
//! - origination alternates between `network` statements and
//!   `static + import-route static` (the redistribution-fault surface),
//! - every fourth backbone router applies a PBR **guard** traffic policy
//!   (permit legitimate space, then deny-all) — the PBR-fault surface.
//!
//! The generated [`Spec`] asserts reachability of every attachment from
//! two deterministic remote routers, giving SBFL a pass/fail spectrum.

use acr_cfg::{parse::parse_device, NetworkConfig};
use acr_net_types::{Asn, Prefix, RouterId};
use acr_topo::{Role, Topology};
use acr_verify::{Property, Spec};
use std::fmt::Write as _;

/// The shared AS of all customer (edge) routers.
pub const CUSTOMER_AS: u32 = 64999;

/// Base AS for backbone routers (`65000 + router id`).
pub const BACKBONE_AS_BASE: u32 = 65000;

/// A generated workload: topology + intended configuration + spec.
pub struct GeneratedNetwork {
    pub topo: Topology,
    pub cfg: NetworkConfig,
    pub spec: Spec,
}

/// Whether a role is customer-side.
pub fn is_customer(role: Role) -> bool {
    matches!(role, Role::PoP | Role::Dcn | Role::Leaf | Role::Edge)
}

/// The AS a router runs under the generation scheme.
pub fn asn_of(topo: &Topology, id: RouterId) -> Asn {
    if is_customer(topo.router(id).role) {
        Asn(CUSTOMER_AS)
    } else {
        Asn(BACKBONE_AS_BASE + id.0)
    }
}

/// Generates the intended (healthy) configuration and spec for `topo`.
pub fn generate(topo: &Topology) -> GeneratedNetwork {
    let mut cfg = NetworkConfig::new();
    for info in topo.routers() {
        let text = if is_customer(info.role) {
            customer_config(topo, info.id)
        } else {
            backbone_config(topo, info.id)
        };
        let device = parse_device(info.name.clone(), &text).unwrap_or_else(|e| {
            panic!("generated config for {} must parse: {e}\n{text}", info.name)
        });
        cfg.insert(info.id, device);
    }
    let spec = spec_for(topo);
    GeneratedNetwork {
        topo: topo.clone(),
        cfg,
        spec,
    }
}

/// Customer routers: originate attachments, peer with each neighbor.
fn customer_config(topo: &Topology, id: RouterId) -> String {
    let info = topo.router(id);
    let mut out = String::new();
    let _ = writeln!(out, "bgp {}", CUSTOMER_AS);
    let _ = writeln!(out, " router-id {}", info.loopback);
    for p in &info.attached {
        let _ = writeln!(out, " network {} {}", p.addr(), p.len());
    }
    for (neighbor, link) in topo.neighbors(id) {
        let peer_addr = link.peer_of(id).expect("neighbor implies endpoint").addr;
        let _ = writeln!(
            out,
            " peer {} as-number {}",
            peer_addr,
            asn_of(topo, neighbor).0
        );
    }
    append_interfaces(topo, id, &mut out);
    out
}

/// Backbone routers: transit peers, customer group + override policy,
/// origination mix, optional PBR guard.
fn backbone_config(topo: &Topology, id: RouterId) -> String {
    let info = topo.router(id);
    let mut out = String::new();
    let _ = writeln!(out, "bgp {}", asn_of(topo, id).0);
    let _ = writeln!(out, " router-id {}", info.loopback);

    // Origination of this router's own attachments: even ids use network
    // statements; odd ids use a NULL0 static plus redistribution (the
    // "missing redistribution" fault surface).
    let via_static = id.0 % 2 == 1;
    if !via_static {
        for p in &info.attached {
            let _ = writeln!(out, " network {} {}", p.addr(), p.len());
        }
    } else if !info.attached.is_empty() {
        let _ = writeln!(out, " import-route static");
    }

    let mut customers: Vec<(RouterId, acr_net_types::Ipv4Addr)> = Vec::new();
    for (neighbor, link) in topo.neighbors(id) {
        let peer_addr = link.peer_of(id).expect("neighbor implies endpoint").addr;
        if is_customer(topo.router(neighbor).role) {
            customers.push((neighbor, peer_addr));
        } else {
            let _ = writeln!(
                out,
                " peer {} as-number {}",
                peer_addr,
                asn_of(topo, neighbor).0
            );
        }
    }
    customers.sort_by_key(|(n, _)| *n);
    if customers.len() >= 2 {
        // Shared settings live in the Cust peer group.
        let _ = writeln!(out, " group Cust external");
        let _ = writeln!(out, " peer Cust as-number {}", CUSTOMER_AS);
        let _ = writeln!(out, " peer Cust route-policy Override_Cust import");
        for (_, addr) in &customers {
            let _ = writeln!(out, " peer {addr} group Cust");
        }
    } else {
        for (_, addr) in &customers {
            let _ = writeln!(out, " peer {addr} as-number {}", CUSTOMER_AS);
            let _ = writeln!(out, " peer {addr} route-policy Override_Cust import");
        }
    }

    // The override-and-filter ingress policy for customer sessions.
    if !customers.is_empty() {
        let _ = writeln!(out, "route-policy Override_Cust permit node 10");
        let _ = writeln!(out, " if-match ip-prefix cust_space");
        let _ = writeln!(out, " apply as-path overwrite");
        let mut index = 10;
        for (neighbor, _) in &customers {
            for p in &topo.router(*neighbor).attached {
                let _ = writeln!(
                    out,
                    "ip prefix-list cust_space index {index} permit {} {}",
                    p.addr(),
                    p.len()
                );
                index += 10;
            }
        }
    }

    if via_static {
        for p in &info.attached {
            let _ = writeln!(out, "ip route-static {} {} NULL0", p.addr(), p.len());
        }
    }

    // PBR guard on every fourth backbone router: permit the legitimate
    // address space, drop the rest.
    if id.0 % 4 == 1 {
        let _ = writeln!(out, "acl 3800");
        let _ = writeln!(
            out,
            " rule 5 permit ip source 0.0.0.0 0 destination 10.0.0.0 8"
        );
        let _ = writeln!(
            out,
            " rule 6 permit ip source 0.0.0.0 0 destination 20.0.0.0 8"
        );
        let _ = writeln!(out, "acl 3801");
        let _ = writeln!(
            out,
            " rule 5 permit ip source 0.0.0.0 0 destination 0.0.0.0 0"
        );
        let _ = writeln!(out, "traffic-policy guard");
        let _ = writeln!(out, " match acl 3800 permit");
        let _ = writeln!(out, " match acl 3801 deny");
        let _ = writeln!(out, "apply traffic-policy guard");
    }

    append_interfaces(topo, id, &mut out);
    out
}

/// Interface blocks for every link endpoint (coverage surface; also lets
/// FIB provenance attribute connected routes).
fn append_interfaces(topo: &Topology, id: RouterId, out: &mut String) {
    for link in topo.links_of(id) {
        let ep = link
            .endpoint_of(id)
            .expect("links_of yields incident links");
        let _ = writeln!(out, "interface {}", ep.iface);
        let _ = writeln!(out, " ip address {} {}", ep.addr, link.subnet.len());
    }
}

/// Reachability spec: each attachment must be reachable from two
/// deterministic remote routers (the "farthest" other attachment owner
/// and a rotating second start).
fn spec_for(topo: &Topology) -> Spec {
    let attachments: Vec<(RouterId, Prefix)> = topo.attachments().collect();
    let mut spec = Spec::new();
    for (i, (owner, prefix)) in attachments.iter().enumerate() {
        let mut starts: Vec<RouterId> = Vec::new();
        // Farthest-id other owner: a crude but deterministic "far corner".
        if let Some((far, _)) = attachments
            .iter()
            .filter(|(o, _)| o != owner)
            .max_by_key(|(o, _)| o.0.abs_diff(owner.0))
        {
            starts.push(*far);
        }
        // A rotating second start among the other owners.
        let others: Vec<RouterId> = attachments
            .iter()
            .map(|(o, _)| *o)
            .filter(|o| o != owner)
            .collect();
        if !others.is_empty() {
            let second = others[i % others.len()];
            if !starts.contains(&second) {
                starts.push(second);
            }
        }
        if starts.is_empty() {
            // Single-attachment networks: verify from the owner itself.
            starts.push(*owner);
        }
        for start in starts {
            let src = attachments
                .iter()
                .find(|(o, _)| *o == start)
                .map(|(_, p)| *p)
                .unwrap_or(Prefix::DEFAULT);
            spec = spec.with(Property::reach(
                format!("reach-{prefix}-from-{}", topo.router(start).name),
                start,
                src,
                *prefix,
            ));
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_topo::gen;
    use acr_verify::{IncrementalVerifier, Verifier};

    #[test]
    fn generated_mesh_is_healthy() {
        let topo = gen::full_mesh(6);
        let net = generate(&topo);
        let verifier = Verifier::new(&net.topo, &net.spec);
        let (v, _) = verifier.run_full(&net.cfg);
        assert!(
            v.all_passed(),
            "{:?}",
            v.failures()
                .map(|r| (&r.property, &r.violation))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn generated_leaf_spine_is_healthy() {
        let topo = gen::leaf_spine(2, 6);
        let net = generate(&topo);
        let verifier = Verifier::new(&net.topo, &net.spec);
        let (v, _) = verifier.run_full(&net.cfg);
        assert!(
            v.all_passed(),
            "{:?}",
            v.failures()
                .map(|r| (&r.property, &r.violation))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn generated_ring_is_healthy() {
        let topo = gen::ring(8);
        let net = generate(&topo);
        let verifier = Verifier::new(&net.topo, &net.spec);
        let (v, _) = verifier.run_full(&net.cfg);
        assert!(
            v.all_passed(),
            "{:?}",
            v.failures()
                .map(|r| (&r.property, &r.violation))
                .collect::<Vec<_>>()
        );
    }

    /// Loop-free paths longer than 64 hops are not loops: a clean line of
    /// 70 routers and a clean ring of 140 pass every test of their spec
    /// under both full and incremental verification.
    #[test]
    fn long_paths_verify_clean() {
        for topo in [gen::line(70), gen::ring(140)] {
            let net = generate(&topo);
            let (full, _) = Verifier::new(&net.topo, &net.spec).run_full(&net.cfg);
            let committed = IncrementalVerifier::new(&net.topo, &net.spec).commit(&net.cfg);
            for v in [full, committed] {
                assert!(!v.records.is_empty());
                assert!(
                    v.all_passed(),
                    "{} routers: {:?}",
                    topo.len(),
                    v.failures()
                        .map(|r| (&r.property, &r.violation))
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn leaf_spine_uses_peer_groups_and_overrides() {
        let topo = gen::leaf_spine(2, 4);
        let net = generate(&topo);
        let spine = topo.by_name("S0").unwrap();
        let text = net.cfg.device(spine).unwrap().to_text();
        assert!(text.contains("group Cust external"), "{text}");
        assert!(
            text.contains("peer Cust route-policy Override_Cust import"),
            "{text}"
        );
        assert!(text.contains("apply as-path overwrite"), "{text}");
        // The cust_space list enumerates every leaf prefix.
        assert!(text.contains("ip prefix-list cust_space"), "{text}");
    }

    #[test]
    fn spec_covers_every_attachment() {
        let topo = gen::full_mesh(5);
        let net = generate(&topo);
        for (_, prefix) in topo.attachments() {
            assert!(
                net.spec.properties.iter().any(|p| p.hs.dst == prefix),
                "no property for {prefix}"
            );
        }
    }

    #[test]
    fn odd_routers_use_static_redistribution() {
        let topo = gen::full_mesh(4);
        let net = generate(&topo);
        let odd = net.cfg.device(RouterId(1)).unwrap().to_text();
        assert!(odd.contains("import-route static"), "{odd}");
        assert!(odd.contains("ip route-static"), "{odd}");
        let even = net.cfg.device(RouterId(0)).unwrap().to_text();
        assert!(even.contains("network"), "{even}");
    }
}
