//! Content pins for [`acr_flow::analyze`].
//!
//! These digests were derived over the kept fields while the analysis
//! still collected a liveness log and an applied-policy table, and are
//! what deleting those two had to reproduce, unedited. Everything a
//! consumer can read is covered — the RIB's intervals and community
//! may-sets, the per-session offered/accepted sets, the origins, and
//! `support_for(dst)` of every spec property — and only `iterations`
//! (worklist pops) is left out of the digests: fewer pops for the same
//! facts was the point of earlier changes. The 72-router case bounds the pops per fact, so
//! a change that re-enqueues a fact for anything but a grown value shows
//! up as a count, not as a timing, and pins the exact pop count: the
//! visit order (lowest router id first within a prefix) is part of the
//! contract.

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
        writeln!(
            s,
            "rib {r} {p} {} {} {:?}",
            route.path_len, route.local_pref, route.communities
        )
        .unwrap();
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
        [0xc46dad824065ccfd, 0x750be8478f974331],
        "{got:#018x?}"
    );
}

#[test]
fn wan_4_8_table1_incident_facts_are_pinned() {
    const PINS: [u64; 12] = [
        0xe840de77ac18d0c8,
        0x7b039b70774c1966,
        0x8899a4ca6e07cbfe, // PBR faults and a wrong overwrite ASN leave
        0x8899a4ca6e07cbfe, // the may-relation at the healthy network's
        0xb89b6700b8c8b70c,
        0xd778bd084035c410,
        0xdc6fbef16ebd27eb,
        0xad5691a5555d1c6c,
        0x252b4daa2a58791b,
        0x8899a4ca6e07cbfe,
        0x843341386de9fab7,
        0xbab4297c569d2e73,
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
    assert_eq!(got, 0x405e6027b8da38d1, "{got:#018x}");
    // 2.14 pops per fact; 5.07 while a support-only change re-enqueued.
    let (pops, count) = (facts.iterations, facts.fact_count() as u64);
    assert!(2 * pops <= 5 * count, "{pops} pops for {count} facts");
    assert_eq!(pops, 10_864, "the pop sequence moved");
}
