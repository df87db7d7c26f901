//! **Figure 3** — the search-space comparison.
//!
//! For the same incident at growing network sizes, counts each method's
//! search space exactly as the paper defines it:
//!
//! - MetaProv (3a): leaf nodes of the failure's provenance tree,
//! - AED (3b): `2^(free variables)` of the whole-config delta encoding
//!   (we print the exponent — the count itself overflows immediately),
//! - ACR (3c): leaf nodes of the search forest (candidate atomic changes
//!   reachable from the suspicious lines).
//!
//! ```sh
//! cargo run --release -p acr-bench --bin exp_fig3
//! ```

use acr_bench::{rule, scaled_network};
use acr_core::ctx::RepairCtx;
use acr_core::space::{acr_space, aed_free_variables, metaprov_space};
use acr_localize::{localize, SbflFormula};
use acr_prov::Provenance;
use acr_sim::CompiledBase;
use acr_verify::Verifier;
use acr_workloads::{try_inject, FaultType};

fn main() {
    let header = format!(
        "{:>4} {:>7} {:>7} | {:>10} {:>9} {:>10} | {:>16} | {:>7}",
        "bb", "routers", "lines", "prov nodes", "MProv N", "MProv 2^N", "AED N (=2^vars)", "ACR N"
    );
    println!("search spaces for the same injected fault (stale route map), growing WAN:\n");
    println!("{header}");
    rule(header.len());
    for n_bb in [2usize, 4, 8, 16, 24, 32] {
        let net = scaled_network(n_bb);
        let Some(incident) = try_inject(FaultType::StaleRouteMap, &net, 1) else {
            continue;
        };
        let verifier = Verifier::new(&net.topo, &net.spec);
        let (v, out) = verifier.run_full(&incident.broken);

        let metaprov = metaprov_space(&out.arena, &v);
        let prov_nodes = {
            let prov = Provenance::new(&out.arena);
            let roots: Vec<_> = v
                .failures()
                .flat_map(|r| r.deriv_roots.iter().copied())
                .collect();
            prov.node_count(roots)
        };
        let aed_vars = aed_free_variables(&incident.broken);
        let compiled = CompiledBase::new(&net.topo, &incident.broken);
        let ctx = RepairCtx {
            topo: &net.topo,
            cfg: &incident.broken,
            verification: &v,
            coverage: &v.matrix,
            arena: &out.arena,
            models: compiled.models(),
        };
        // ACR's pool: the suspicious lines a repair iteration expands
        // (tied top + runners-up, as the engine does).
        let ranking = localize(&v.matrix, SbflFormula::Tarantula);
        let mut pool = ranking.top_tied();
        for (line, score) in ranking.entries().iter().skip(pool.len()).take(15) {
            if *score <= 0.0 {
                break;
            }
            pool.push(*line);
        }
        let acr = acr_space(&ctx, &pool);

        println!(
            "{:>4} {:>7} {:>7} | {:>10} {:>9} {:>10} | {:>16} | {:>7}",
            n_bb,
            net.topo.len(),
            incident.broken.total_lines(),
            prov_nodes,
            metaprov,
            format!("2^{metaprov}"),
            format!("2^{aed_vars}"),
            acr,
        );
    }
    rule(header.len());
    println!("\npaper claims reproduced (§2.3 / Figure 3): MetaProv's *single-change* space is");
    println!("the provenance leaves — small, which is why it is efficient but misses multi-line");
    println!("repairs; extended to multi-change it becomes the power set 2^N. AED's delta");
    println!("encoding explodes with configuration size. ACR's search forest stays bounded");
    println!("because SBFL prunes to the suspicious lines and templates bound the edits.");
}
