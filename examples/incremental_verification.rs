//! DNA-style incremental verification in action.
//!
//! Shows the property ACR's validation step leans on (§3.2 observation 3):
//! after one full verification, candidate updates re-simulate only the
//! prefixes they can affect.
//!
//! ```sh
//! cargo run --example incremental_verification
//! ```

use acr::prelude::*;
use std::time::Instant;

fn main() {
    let topo = acr::topo::gen::wan(12, 24);
    let net = generate(&topo);
    println!(
        "network: {} routers, {} originated prefixes, {} tests",
        topo.len(),
        {
            let sim = Simulator::new(&net.topo, &net.cfg);
            sim.universe().len()
        },
        net.spec.len() * 2
    );

    let mut iv = IncrementalVerifier::new(&net.topo, &net.spec);

    // Cold run: everything simulates.
    let t = Instant::now();
    let v = iv.commit(&net.cfg);
    println!(
        "\ncold verification: {:?} — {} prefixes simulated, {} tests pass",
        t.elapsed(),
        iv.last_stats().recomputed,
        v.records.len() - v.failed_count()
    );

    // A local candidate edit: append an unrelated static route on the
    // last backbone router.
    let router = RouterId(11);
    let patch = Patch::single(Edit::Insert {
        router,
        index: net.cfg.device(router).unwrap().len(),
        stmt: Stmt::StaticRoute {
            prefix: "203.0.113.0/24".parse().unwrap(),
            next_hop: acr::cfg::NextHop::Null0,
        },
    });
    let candidate = patch.apply_cloned(&net.cfg).unwrap();
    let t = Instant::now();
    let v = iv.verify_candidate(&candidate, &patch);
    println!(
        "candidate (unrelated static): {:?} — {} prefixes re-simulated, {} reused, {} tests pass",
        t.elapsed(),
        iv.last_stats().recomputed,
        iv.last_stats().reused,
        v.records.len() - v.failed_count()
    );

    // A prefix-scoped edit: only the overlapping prefix re-simulates.
    let patch = Patch::single(Edit::Insert {
        router,
        index: net.cfg.device(router).unwrap().len(),
        stmt: Stmt::PrefixListEntry {
            list: "scratch".into(),
            index: 10,
            action: acr::cfg::PlAction::Permit,
            prefix: "10.3.0.0/16".parse().unwrap(),
            ge: None,
            le: None,
        },
    });
    let candidate = patch.apply_cloned(&net.cfg).unwrap();
    let t = Instant::now();
    let _ = iv.verify_candidate(&candidate, &patch);
    println!(
        "candidate (touches 10.3/16): {:?} — {} prefixes re-simulated, {} reused",
        t.elapsed(),
        iv.last_stats().recomputed,
        iv.last_stats().reused
    );

    // A remark near the top of a transit router moves every later line
    // of it, session lines included. The candidate is numbered in the
    // committed lines, so a moved line is not a changed one: nothing
    // re-simulates.
    let patch = Patch::single(Edit::Insert {
        router,
        index: 1,
        stmt: Stmt::Remark("moved".into()),
    });
    let candidate = patch.apply_cloned(&net.cfg).unwrap();
    let t = Instant::now();
    let _ = iv.verify_candidate(&candidate, &patch);
    println!(
        "candidate (moves a transit router's lines): {:?} — {} prefixes re-simulated, {} reused",
        t.elapsed(),
        iv.last_stats().recomputed,
        iv.last_stats().reused
    );
}
