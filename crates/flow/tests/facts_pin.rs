//! Content pins for [`acr_flow::analyze`].
//!
//! These digests were derived over the community may-sets while the
//! abstract route still carried AS-path-length and LOCAL_PREF
//! intervals, and are what deleting those intervals had to reproduce,
//! unedited. Everything a consumer can read is covered — the RIB's
//! community may-sets, the per-session offered/accepted sets, the
//! origins, and `support_for(dst)` of every spec property — and only
//! `iterations` (worklist pops) is left out of the digests. The
//! 72-router case pins the pops instead: with a finite lattice a fact is
//! re-enqueued only when its may-set grows, and no may-set grows on that
//! network, so every fact is popped exactly once, and the exact count
//! shows a change to the visit order (lowest router id first within a
//! prefix) or a spurious re-enqueue as a count, not as a timing.

use acr_flow::{analyze, FlowFacts};
use acr_net_types::{fnv1a, FNV_OFFSET};
use acr_topo::gen;
use acr_verify::Spec;
use acr_workloads::fig2::fig2_incident;
use acr_workloads::{generate, try_inject, FaultType};
use std::fmt::Write;

/// FNV-1a over a canonical rendering of the facts minus `iterations`.
fn content_digest(facts: &FlowFacts, spec: &Spec) -> u64 {
    let mut s = String::new();
    for ((r, p), route) in &facts.rib {
        writeln!(s, "rib {r} {p} {:?}", route.communities).unwrap();
    }
    for (session, sf) in facts.sessions.iter().zip(&facts.session_facts) {
        writeln!(
            s,
            "session {} {} {:?} {:?} {:?} {:?}",
            session.a,
            session.b,
            sf.a_to_b.offered,
            sf.a_to_b.accepted,
            sf.b_to_a.offered,
            sf.b_to_a.accepted
        )
        .unwrap();
    }
    writeln!(s, "origins {:?}", facts.origins).unwrap();
    for prop in &spec.properties {
        writeln!(
            s,
            "support {} {:?}",
            prop.hs.dst,
            facts.support_for(prop.hs.dst)
        )
        .unwrap();
    }
    fnv1a(FNV_OFFSET, s.as_bytes())
}

/// The single-fault mix of the benchmark's `corpus12` workload (Table 1's
/// shares of a dozen incidents); the seeds rotate a doubled class onto a
/// second site.
const CORPUS12: [(FaultType, u64); 12] = [
    (FaultType::MissingRedistribution, 0),
    (FaultType::MissingRedistribution, 2),
    (FaultType::MissingPbrPermit, 0),
    (FaultType::ExtraPbrRedirect, 0),
    (FaultType::MissingPeerGroup, 0),
    (FaultType::MissingPeerGroup, 1),
    (FaultType::ExtraPeerGroupItem, 0),
    (FaultType::ExtraPeerGroupItem, 1),
    (FaultType::StaleRouteMap, 0),
    (FaultType::WrongOverrideAsn, 0),
    (FaultType::MissingPrefixListItems, 0),
    (FaultType::MissingPrefixListItems, 1),
];

#[test]
fn fig2_facts_are_pinned() {
    let fig2 = fig2_incident();
    let got = [
        content_digest(&analyze(&fig2.topo, &fig2.broken), &fig2.spec),
        content_digest(&analyze(&fig2.topo, &fig2.intended), &fig2.spec),
    ];
    assert_eq!(
        got,
        [0x1aa4637e152f99e0, 0xa3bbeca49bb26dcd],
        "{got:#018x?}"
    );
}

#[test]
fn wan_4_8_table1_incident_facts_are_pinned() {
    const PINS: [u64; 12] = [
        0x68c514a22884d7be,
        0x059d6e2157add88e,
        0x0ae7d6273afb4bb6, // PBR faults and a wrong overwrite ASN leave
        0x0ae7d6273afb4bb6, // the may-relation at the healthy network's
        0xee17cbb8fd952132,
        0x0f252e44c70c2ad2,
        0x722bba9417ce2e4d,
        0x27777e658b4f6fa2,
        0x4ac91489dca08885,
        0x0ae7d6273afb4bb6,
        0x6a507668c246c94b,
        0x87b82f5c03bec2a7,
    ];
    let net = generate(&gen::wan(4, 8));
    let got: Vec<u64> = CORPUS12
        .iter()
        .map(|&(fault, seed)| {
            let inc = try_inject(fault, &net, seed).expect("injectable on wan(4,8)");
            content_digest(&analyze(&net.topo, &inc.broken), &net.spec)
        })
        .collect();
    assert_eq!(got, PINS, "{got:#018x?}");
}

#[test]
fn wan_24_48_incident_facts_are_pinned() {
    let net = generate(&gen::wan(24, 48));
    let inc = try_inject(FaultType::MissingPrefixListItems, &net, 0).expect("injectable");
    let facts = analyze(&net.topo, &inc.broken);
    let got = content_digest(&facts, &net.spec);
    assert_eq!(got, 0xda54498553df4707, "{got:#018x}");
    // One pop per fact: no may-set on this network grows once its fact
    // exists.
    let (pops, count) = (facts.iterations, facts.fact_count() as u64);
    assert_eq!(pops, count, "{pops} pops for {count} facts");
    assert_eq!(pops, 5_113, "the pop sequence moved");
}
