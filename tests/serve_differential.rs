//! Differential testing of daemon-served repair against one-shot batch
//! repair (the ci.sh digest comparison, in-process and per-job).
//!
//! Contract: a **cold** daemon job (fresh session) is *fully*
//! byte-identical to [`RepairEngine::repair`] — decisions AND the
//! validated/cached accounting — at every worker-thread count. A
//! **resident** daemon matches on decisions while strictly reducing
//! simulation work on replays.

use acr::serve::{full_signature, job_label};
use acr::serve::{Acrd, NetworkDef, QuotaConfig, ServeConfig, SubmitReq};
use acr_core::{RepairConfig, RepairEngine};
use acr_topo::gen;
use acr_workloads::{generate, sample_incidents, GeneratedNetwork, Incident};
use std::collections::BTreeMap;
use std::sync::Arc;

fn network() -> (GeneratedNetwork, Vec<Incident>) {
    let net = generate(&gen::wan(2, 4));
    let incidents = sample_incidents(&net, 3, 77);
    (net, incidents)
}

fn req(net: &GeneratedNetwork, inc: &Incident, seed: u64) -> SubmitReq {
    let mut config = BTreeMap::new();
    for (id, dev) in inc.broken.devices() {
        let name = net
            .topo
            .routers()
            .iter()
            .find(|r| r.id == id)
            .unwrap()
            .name
            .clone();
        config.insert(name, dev.to_text());
    }
    SubmitReq {
        tenant: "diff".to_string(),
        network: "net".to_string(),
        seed,
        tags: Vec::new(),
        config,
    }
}

fn daemon(net: &GeneratedNetwork, threads: usize, cold: bool) -> Acrd {
    let mut d = Acrd::new(ServeConfig {
        quota: QuotaConfig::default(),
        threads: Some(threads),
        cold,
    });
    d.register(NetworkDef {
        name: "net".to_string(),
        topo: Arc::new(net.topo.clone()),
        spec: Arc::new(net.spec.clone()),
    });
    d
}

fn batch_full_sigs(net: &GeneratedNetwork, incidents: &[Incident], threads: usize) -> Vec<String> {
    incidents
        .iter()
        .enumerate()
        .map(|(i, inc)| {
            let engine = RepairEngine::new(
                &net.topo,
                &net.spec,
                RepairConfig {
                    seed: i as u64,
                    threads,
                    ..RepairConfig::default()
                },
            );
            let report = engine.repair(&inc.broken);
            full_signature(&job_label("net", i as u64), &report)
        })
        .collect()
}

/// Cold daemon == batch, byte-for-byte including accounting, across
/// thread counts.
#[test]
fn cold_daemon_is_byte_identical_to_batch_everywhere() {
    let (net, incidents) = network();
    for threads in [1, 4] {
        let mut d = daemon(&net, threads, true);
        for (i, inc) in incidents.iter().enumerate() {
            d.submit(req(&net, inc, i as u64)).unwrap();
        }
        assert_eq!(d.drain(), incidents.len());
        let served: Vec<String> = d.records_in_order().map(|r| r.full_sig.clone()).collect();
        let batch = batch_full_sigs(&net, &incidents, threads);
        assert_eq!(
            served, batch,
            "daemon-served reports diverged from batch at threads={threads}"
        );
    }
}

/// The full digest — what ci.sh compares cross-process — is identical
/// between a cold daemon and batch, and invariant across thread counts.
#[test]
fn digests_are_thread_count_invariant() {
    let (net, incidents) = network();
    let mut digests = Vec::new();
    for threads in [1, 4] {
        let mut d = daemon(&net, threads, true);
        for (i, inc) in incidents.iter().enumerate() {
            d.submit(req(&net, inc, i as u64)).unwrap();
        }
        d.drain();
        digests.push((d.decision_digest(), d.full_digest()));
    }
    assert_eq!(digests[0], digests[1]);
}

/// Resident daemon: decisions equal to cold on every job; replays cut
/// simulation work strictly.
#[test]
fn resident_daemon_matches_decisions_and_saves_work() {
    let (net, incidents) = network();
    // Repeat-major stream: each incident submitted twice back-to-back,
    // so the warm verifier slot (keyed to the last committed config)
    // gets a resume opportunity on every replay.
    let run = |cold: bool| {
        let mut d = daemon(&net, 1, cold);
        for (i, inc) in incidents.iter().enumerate() {
            d.submit(req(&net, inc, i as u64)).unwrap();
            d.submit(req(&net, inc, i as u64)).unwrap();
        }
        d.drain();
        let sigs: Vec<String> = d
            .records_in_order()
            .map(|r| r.decision_sig.clone())
            .collect();
        let validations: usize = d.records_in_order().map(|r| r.validations).sum();
        let resident_jobs = d.resident_jobs;
        (sigs, validations, resident_jobs)
    };
    let (cold_sigs, cold_validations, cold_resident) = run(true);
    let (res_sigs, res_validations, res_resident) = run(false);
    assert_eq!(cold_sigs, res_sigs, "resident serving changed a decision");
    assert_eq!(cold_resident, 0);
    assert!(
        res_validations < cold_validations,
        "resident serving must cut simulations ({res_validations} vs {cold_validations})"
    );
    assert!(res_resident > 0, "round 2 replays must resume warm state");
}
