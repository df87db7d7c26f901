//! Runs the README library samples verbatim through the public crate
//! surface.

use acr::prelude::*;

fn main() {
    let fig2 = acr::workloads::fig2::fig2_incident();
    let engine = RepairEngine::with_defaults(&fig2.topo, &fig2.spec);
    let report = engine.repair(&fig2.broken);
    assert!(report.outcome.is_fixed());
    println!("fig2 repaired: {} validations", report.validations);

    // The memo-cache sample: a resident revisit simulates nothing.
    let mut session = acr::core::NetworkSession::new();
    let first = engine.repair_resident(&fig2.broken, &mut session);
    let again = engine.repair_resident(&fig2.broken, &mut session);
    assert_eq!(again.validations, 0);
    println!(
        "fig2 revisit: {} simulated, {} from memo (first run: {} simulated)",
        again.validations, again.validations_cached, first.validations
    );

    let net = acr::workloads::generate(&acr::topo::gen::wan(4, 8));
    let broken = acr::workloads::try_inject(FaultType::MissingRoutePolicy, &net, 1)
        .expect("injectable")
        .broken;
    let report = lint_network(&net.topo, &broken);
    assert!(!report.is_clean());
    print!("{}", report.render(&broken));
}
