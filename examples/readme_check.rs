//! Runs the README library samples verbatim through the public crate
//! surface.

use acr::prelude::*;

fn main() {
    let fig2 = acr::workloads::fig2::fig2_incident();
    let engine = RepairEngine::with_defaults(&fig2.topo, &fig2.spec);
    let report = engine.repair(&fig2.broken);
    assert!(report.outcome.is_fixed());
    println!("fig2 repaired: {} validations", report.validations);

    // The parallel-validation sample: the threads knob on RepairConfig.
    let config = RepairConfig {
        threads: 4, // 0 = available parallelism, 1 = sequential
        ..RepairConfig::default()
    };
    let engine = acr::core::RepairEngine::new(&fig2.topo, &fig2.spec, config);
    let report = engine.repair(&fig2.broken);
    assert!(report.outcome.is_fixed());
    println!(
        "fig2 (threads=4): {} simulated, {} from memo",
        report.validations, report.validations_cached
    );

    let net = acr::workloads::generate(&acr::topo::gen::wan(4, 8));
    let broken = acr::workloads::try_inject(FaultType::MissingRoutePolicy, &net, 1)
        .expect("injectable")
        .broken;
    let report = lint_network(&net.topo, &broken);
    assert!(!report.is_clean());
    print!("{}", report.render(&broken));
}
