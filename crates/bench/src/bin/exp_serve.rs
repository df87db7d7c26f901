//! **Daemon serving A/B** — what residency buys, and the proof it
//! changes nothing.
//!
//! The same incident stream is served twice through `acrd` (in-process):
//! once **cold** (fresh session per job — each job byte-identical to a
//! one-shot batch run) and once **resident** (per-network warm verifier
//! state + cross-job simulation cache + cached lint/flow baselines).
//! The stream is the standard 12-incident WAN corpus, each incident
//! submitted `ROUNDS` times back-to-back (repeat-major: the re-diagnose/
//! re-validate pattern residency targets), followed by an
//! `acr-scenarios` multi-fault stream served once. A second *rotating*
//! stream (a [`acr_core::WARM_SLOTS`]-wide incident window revisited
//! round-robin) gets its own cold/resident A/B — the shape the
//! session's multi-slot warm LRU exists for, where a single slot would
//! thrash on every job.
//!
//! Asserted:
//!
//! 1. **Decision transparency** — per-job decision signatures are
//!    identical cold vs resident, job for job.
//! 2. **Residency fires** — the resident pass resumes warm state on
//!    every replay, and total candidate simulations drop strictly.
//! 3. **Clean serving** — nothing rejected, queue drained in both
//!    passes.
//!
//! Throughput (incidents/sec) and per-job latency percentiles are
//! reported per pass; the A/B is *pinned* by the deterministic work
//! counters (simulations, cache serves, warm resumes), not by
//! wall-clock, so the artifact stays meaningful on noisy CI hosts.
//! Results land in `BENCH_serve.json`; `report_digest=<hex>` (the
//! decision digest both passes share) is printed for cross-process
//! comparison against `acrd --batch`.
//!
//! ```sh
//! cargo run --release -p acr-bench --bin exp_serve [-- --smoke]
//! ```

use acr_bench::{corpus, fmt_duration, json, percentile, rule, standard_network, write_bench_mode};
use acr_serve::{Acrd, NetworkDef, QuotaConfig, ServeConfig, SubmitReq};
use acr_workloads::GeneratedNetwork;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

fn submit_req(
    net: &GeneratedNetwork,
    broken: &acr_cfg::NetworkConfig,
    tenant: &str,
    seed: u64,
    tags: Vec<String>,
) -> SubmitReq {
    let mut config = BTreeMap::new();
    for (id, dev) in broken.devices() {
        let name = net
            .topo
            .routers()
            .iter()
            .find(|r| r.id == id)
            .expect("incident routers are topology routers")
            .name
            .clone();
        config.insert(name, dev.to_text());
    }
    SubmitReq {
        tenant: tenant.to_string(),
        network: "wan12".to_string(),
        seed,
        tags,
        config,
    }
}

struct PassStats {
    label: &'static str,
    jobs: usize,
    wall_s: f64,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    validations: usize,
    cached: usize,
    resident_jobs: u64,
    decision_digest: u64,
    sigs: Vec<String>,
    fixed: usize,
}

fn serve_stream(
    net: &GeneratedNetwork,
    stream: &[SubmitReq],
    cold: bool,
    label: &'static str,
) -> PassStats {
    let mut d = Acrd::new(ServeConfig {
        quota: QuotaConfig {
            max_queued: stream.len() + 8,
            max_per_tenant: stream.len() + 8,
        },
        cold,
        ..ServeConfig::default()
    });
    d.register(NetworkDef {
        name: "wan12".to_string(),
        topo: Arc::new(net.topo.clone()),
        spec: Arc::new(net.spec.clone()),
    });
    let t = Instant::now();
    for req in stream {
        d.submit(req.clone()).expect("stream fits the quota");
    }
    let completed = d.finish();
    let wall = t.elapsed();
    assert_eq!(completed, stream.len(), "graceful drain must run every job");
    assert_eq!(d.queue_depth(), 0);
    assert_eq!(d.rejected, 0);

    let mut lat_ms: Vec<f64> = d
        .records_in_order()
        .map(|r| r.wall.as_secs_f64() * 1e3)
        .collect();
    lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    PassStats {
        label,
        jobs: completed,
        wall_s: wall.as_secs_f64(),
        throughput: completed as f64 / wall.as_secs_f64(),
        p50_ms: percentile(&lat_ms, 50.0),
        p99_ms: percentile(&lat_ms, 99.0),
        validations: d.records_in_order().map(|r| r.validations).sum(),
        cached: d.records_in_order().map(|r| r.validations_cached).sum(),
        resident_jobs: d.resident_jobs,
        decision_digest: d.decision_digest(),
        sigs: d
            .records_in_order()
            .map(|r| r.decision_sig.clone())
            .collect(),
        fixed: d.records_in_order().filter(|r| r.fixed).count(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rounds = if smoke { 2 } else { 3 };
    let per_family = if smoke { 1 } else { 2 };

    let net = standard_network();
    let incidents = corpus(&net, 12, 77);
    let scenarios = acr_scenarios_stream(&net, per_family);

    // Repeat-major incident stream + one-shot scenario tail.
    let mut stream = Vec::new();
    for (i, inc) in incidents.iter().enumerate() {
        for _ in 0..rounds {
            stream.push(submit_req(&net, &inc.broken, "ops", i as u64, Vec::new()));
        }
    }
    // Same tenant throughout: the round-robin queue would otherwise
    // interleave the scenario lane between incident replays and break
    // the back-to-back adjacency the warm slot keys on (fairness
    // itself is covered by the admission tests).
    for (i, sc) in scenarios.iter().enumerate() {
        stream.push(submit_req(
            &net,
            &sc.broken,
            "ops",
            100 + i as u64,
            sc.tags(),
        ));
    }
    let replays = incidents.len() * (rounds - 1);

    println!(
        "daemon A/B: {} jobs ({} incidents x {} rounds + {} scenarios), cold vs resident\n",
        stream.len(),
        incidents.len(),
        rounds,
        scenarios.len()
    );

    // Rotating stream: the multi-slot warm LRU's target shape — jobs
    // alternating across a window of incidents instead of arriving
    // back-to-back, so a single warm slot would thrash on every job.
    let window: Vec<_> = incidents.iter().take(acr_core::WARM_SLOTS).collect();
    let mut rot_stream = Vec::new();
    for _ in 0..rounds {
        for (i, inc) in window.iter().enumerate() {
            rot_stream.push(submit_req(&net, &inc.broken, "ops", i as u64, Vec::new()));
        }
    }
    let rot_revisits = window.len() * (rounds - 1);

    let cold = serve_stream(&net, &stream, true, "cold");
    let resident = serve_stream(&net, &stream, false, "resident");
    let rot_cold = serve_stream(&net, &rot_stream, true, "rot-cold");
    let rot_res = serve_stream(&net, &rot_stream, false, "rot-res");

    // 1. Decision transparency, job for job.
    assert_eq!(
        cold.sigs, resident.sigs,
        "residency changed a served repair's decisions"
    );
    assert_eq!(cold.decision_digest, resident.decision_digest);
    // 2. Residency fires: every repeat-major replay resumes warm state,
    //    and simulation work drops strictly.
    assert_eq!(cold.resident_jobs, 0);
    // At least every back-to-back replay resumes warm state (adjacent
    // jobs that happen to share a config fingerprint can add more).
    assert!(
        resident.resident_jobs as usize >= replays,
        "every back-to-back replay must resume warm state ({} < {})",
        resident.resident_jobs,
        replays
    );
    assert!(
        resident.validations < cold.validations,
        "resident serving must cut simulations ({} vs {})",
        resident.validations,
        cold.validations
    );
    // 3. The rotating pass: every revisit of a window incident resumes
    //    warm from its own LRU slot (no thrashing), decisions stay
    //    identical, and simulation work drops strictly.
    assert_eq!(
        rot_cold.sigs, rot_res.sigs,
        "residency changed a rotating-stream repair's decisions"
    );
    assert_eq!(rot_cold.resident_jobs, 0);
    assert!(
        rot_res.resident_jobs as usize >= rot_revisits,
        "every rotating revisit must resume warm state ({} < {})",
        rot_res.resident_jobs,
        rot_revisits
    );
    assert!(
        rot_res.validations < rot_cold.validations,
        "rotating resident serving must cut simulations ({} vs {})",
        rot_res.validations,
        rot_cold.validations
    );

    let header = format!(
        "{:<9} {:>5} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>6}",
        "Pass", "Jobs", "Wall", "Jobs/s", "p50", "p99", "Sims", "Cached", "Resumes", "Fixed"
    );
    println!("{header}");
    rule(header.len());
    for p in [&cold, &resident, &rot_cold, &rot_res] {
        println!(
            "{:<9} {:>5} {:>9} {:>9.2} {:>8.1}ms {:>8.1}ms {:>8} {:>8} {:>8} {:>6}",
            p.label,
            p.jobs,
            fmt_duration(std::time::Duration::from_secs_f64(p.wall_s)),
            p.throughput,
            p.p50_ms,
            p.p99_ms,
            p.validations,
            p.cached,
            p.resident_jobs,
            p.fixed
        );
    }
    rule(header.len());
    println!(
        "residency: {} -> {} simulations ({} warm resumes on {} replays); decisions identical",
        cold.validations, resident.validations, resident.resident_jobs, replays
    );
    println!(
        "rotating ({} incidents x {} rounds): {} -> {} simulations ({} warm resumes on {} revisits)",
        window.len(),
        rounds,
        rot_cold.validations,
        rot_res.validations,
        rot_res.resident_jobs,
        rot_revisits
    );
    println!("report_digest={:016x}", resident.decision_digest);

    let pass_json = |p: &PassStats| {
        json::Obj::new()
            .str("pass", p.label)
            .int("jobs", p.jobs)
            .num("wall_s", p.wall_s)
            .num("throughput_jobs_per_s", p.throughput)
            .num("p50_ms", p.p50_ms)
            .num("p99_ms", p.p99_ms)
            .int("validations", p.validations)
            .int("validations_cached", p.cached)
            .u64("resident_jobs", p.resident_jobs)
            .int("fixed", p.fixed)
            .build()
    };
    let path = write_bench_mode("serve", smoke, |env| {
        env.bool("smoke", smoke)
            .int("incidents", incidents.len())
            .int("rounds", rounds)
            .int("scenarios", scenarios.len())
            .int("jobs", stream.len())
            .int("replays", replays)
            .str(
                "report_digest",
                &format!("{:016x}", resident.decision_digest),
            )
            .raw("cold", &pass_json(&cold))
            .raw("resident", &pass_json(&resident))
            .raw("rotating_cold", &pass_json(&rot_cold))
            .raw("rotating_resident", &pass_json(&rot_res))
            .raw(
                "rotating",
                &json::Obj::new()
                    .int("window", window.len())
                    .int("rounds", rounds)
                    .int("revisits", rot_revisits)
                    .int("validations_cold", rot_cold.validations)
                    .int("validations_resident", rot_res.validations)
                    .u64("warm_resumes", rot_res.resident_jobs)
                    .bool("decisions_identical", true)
                    .build(),
            )
            .raw(
                "ab",
                &json::Obj::new()
                    .int("validations_cold", cold.validations)
                    .int("validations_resident", resident.validations)
                    .u64("warm_resumes", resident.resident_jobs)
                    .bool("decisions_identical", true)
                    .num(
                        "sim_reduction",
                        1.0 - resident.validations as f64 / cold.validations.max(1) as f64,
                    )
                    .build(),
            )
    });
    println!("wrote {path}");
}

fn acr_scenarios_stream(net: &GeneratedNetwork, per_family: usize) -> Vec<acr_scenarios::Scenario> {
    acr_scenarios::corpus(net, per_family, 99)
}
