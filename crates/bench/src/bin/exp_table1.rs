//! **Table 1** — the misconfiguration taxonomy, reproduced.
//!
//! Samples an incident corpus at the paper's reported ratios, repairs
//! every incident with localize–fix–validate, and prints the table with
//! our measured columns next to the paper's: type, single/multi-line,
//! target ratio, sampled ratio, and ACR repair success. An incident counts
//! as fixed only when an independent `Verifier::run_full` of the repaired
//! network passes; a `Fixed` the engine claimed and that check rejects is
//! its own column.
//!
//! ```sh
//! cargo run --release -p acr-bench --bin exp_table1
//! ```

use acr_bench::{corpus, repair, rule, standard_network};
use acr_core::RepairOutcome;
use acr_verify::Verifier;
use acr_workloads::TABLE1;
use std::collections::BTreeMap;

fn main() {
    let count: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120);
    let net = standard_network();
    println!(
        "corpus: {count} incidents over a {}-router WAN ({} config lines, {} intents)\n",
        net.topo.len(),
        net.cfg.total_lines(),
        net.spec.len()
    );
    let incidents = corpus(&net, count, 2024);

    #[derive(Default)]
    struct Row {
        injected: usize,
        fixed: usize,
        rejected: usize,
        iterations: Vec<usize>,
        validations: Vec<usize>,
    }
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    let verifier = Verifier::new(&net.topo, &net.spec);

    for (i, incident) in incidents.iter().enumerate() {
        let report = repair(&net, incident, i as u64);
        let row = rows.entry(incident.fault.to_string()).or_default();
        row.injected += 1;
        if let RepairOutcome::Fixed { repaired, .. } = &report.outcome {
            if verifier.run_full(repaired).0.all_passed() {
                row.fixed += 1;
                row.iterations.push(report.iteration_count());
                row.validations.push(report.validations);
            } else {
                row.rejected += 1;
            }
        }
    }

    let header = format!(
        "{:<8} {:<42} {:<5} {:>6} {:>8} {:>7} {:>8} {:>7} {:>7}",
        "Category", "Type", "Lines", "Paper%", "Sampled%", "Fixed", "Rejected", "MedIter", "MedVal"
    );
    println!("{header}");
    rule(header.len());
    let total = incidents.len().max(1);
    for (fault, paper_ratio) in TABLE1 {
        let name = fault.to_string();
        let row = rows.get(&name);
        let injected = row.map(|r| r.injected).unwrap_or(0);
        let fixed = row.map(|r| r.fixed).unwrap_or(0);
        let rejected = row.map(|r| r.rejected).unwrap_or(0);
        let med = |v: &[usize]| -> String {
            if v.is_empty() {
                "-".into()
            } else {
                let mut s = v.to_vec();
                s.sort_unstable();
                s[s.len() / 2].to_string()
            }
        };
        println!(
            "{:<8} {:<42} {:<5} {:>6.1} {:>8.1} {:>7} {:>8} {:>7} {:>7}",
            fault.category(),
            name,
            if fault.is_multi_line() { "M" } else { "S" },
            paper_ratio,
            100.0 * injected as f64 / total as f64,
            format!("{fixed}/{injected}"),
            rejected,
            row.map(|r| med(&r.iterations))
                .unwrap_or_else(|| "-".into()),
            row.map(|r| med(&r.validations))
                .unwrap_or_else(|| "-".into()),
        );
    }
    rule(header.len());
    let fixed: usize = rows.values().map(|r| r.fixed).sum();
    let rejected: usize = rows.values().map(|r| r.rejected).sum();
    println!(
        "overall: {fixed}/{} repaired ({:.1}%), judged by an independent full verification; \
         {rejected} engine-Fixed rejected by it",
        incidents.len(),
        100.0 * fixed as f64 / total as f64
    );
    println!("\npaper context: misconfiguration caused 35.4% of incidents (vs hardware 34.6%,");
    println!("software 25.3%, vendor-specific 4.7%); Table 1 splits the misconfigured ones.");
}
