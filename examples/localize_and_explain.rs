//! Localization deep-dive: compare SBFL formulas and walk provenance.
//!
//! Injects a "stale route map" incident, scores it with four SBFL
//! formulas, and prints the provenance explanation of a surviving route.
//!
//! ```sh
//! cargo run --example localize_and_explain
//! ```

use acr::prelude::*;
use acr::prov::Provenance;
use acr_verify::Verifier;

fn main() {
    let topo = acr::topo::gen::wan(4, 8);
    let net = generate(&topo);
    let incident = try_inject(FaultType::StaleRouteMap, &net, 2).expect("injectable");
    println!("incident: {}", incident.description);
    println!("ground-truth breaking edits: {}", incident.patch);

    let verifier = Verifier::new(&net.topo, &net.spec);
    let (v, out) = verifier.run_full(&incident.broken);
    println!(
        "\nverification: {} of {} tests fail",
        v.failed_count(),
        v.records.len()
    );

    // ---- SBFL formula comparison (the paper's §6 future-work axis) ----
    for formula in [
        SbflFormula::Tarantula,
        SbflFormula::Ochiai,
        SbflFormula::Jaccard,
        SbflFormula::DStar(2),
    ] {
        let ranking = localize(&v.matrix, formula);
        println!("\ntop-3 by {formula}:");
        for (line, score) in ranking.top_k(3) {
            let stmt = incident
                .broken
                .stmt(*line)
                .map(|s| s.to_string())
                .unwrap_or_default();
            println!("  {score:.3}  {line}  {}", stmt.trim());
        }
    }

    // ---- provenance explanation of a passing route ----
    let prov = Provenance::new(&out.arena);
    if let Some(rec) = v.records.iter().find(|r| r.passed) {
        if let Some(root) = rec.deriv_roots.last() {
            println!(
                "\nwhy does test `{}` see its route? derivation:",
                rec.property
            );
            print!("{}", prov.explain(*root));
        }
    }

    // ---- and of the failure ----
    let first_failure = v.failures().next();
    if let Some(rec) = first_failure {
        println!(
            "failure `{}`: {} — provenance leaves (MetaProv's search space): {}",
            rec.property,
            rec.violation.as_ref().unwrap(),
            prov.leaves(rec.deriv_roots.iter().copied()).len()
        );
    }
}
