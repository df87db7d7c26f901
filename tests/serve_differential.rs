//! Differential testing of daemon-served repair against one-shot batch
//! repair (the ci.sh digest comparison, in-process and per-job).
//!
//! Contract: a daemon job that finds nothing resident to reuse — here,
//! the first visit of each configuration — is *fully* byte-identical to
//! [`RepairEngine::repair`]: decisions AND the validated/cached
//! accounting. Replays match on decisions while strictly reducing
//! simulation work.

use acr::serve::{decision_signature, digest, full_signature, job_label};
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

fn daemon(net: &GeneratedNetwork) -> Acrd {
    let mut d = Acrd::new(ServeConfig {
        quota: QuotaConfig::default(),
    });
    d.register(NetworkDef {
        name: "net".to_string(),
        topo: Arc::new(net.topo.clone()),
        spec: Arc::new(net.spec.clone()),
    });
    d
}

/// The batch run of every incident: (decision, full) signatures and the
/// validations spent.
fn batch_sigs(net: &GeneratedNetwork, incidents: &[Incident]) -> Vec<(String, String, usize)> {
    incidents
        .iter()
        .enumerate()
        .map(|(i, inc)| {
            let engine = RepairEngine::new(
                &net.topo,
                &net.spec,
                RepairConfig {
                    seed: i as u64,
                    ..RepairConfig::default()
                },
            );
            let report = engine.repair(&inc.broken);
            let label = job_label("net", i as u64);
            (
                decision_signature(&label, &report),
                full_signature(&label, &report),
                report.validations,
            )
        })
        .collect()
}

/// A daemon's first visit of each configuration == batch, byte-for-byte
/// including accounting, per job and by the two digests ci.sh compares
/// cross-process.
#[test]
fn first_visits_are_byte_identical_to_batch_everywhere() {
    let (net, incidents) = network();
    let mut d = daemon(&net);
    for (i, inc) in incidents.iter().enumerate() {
        d.submit(req(&net, inc, i as u64)).unwrap();
    }
    assert_eq!(d.drain(), incidents.len());
    let served: Vec<String> = d.records_in_order().map(|r| r.full_sig.clone()).collect();
    let (decision, full): (Vec<String>, Vec<String>) = batch_sigs(&net, &incidents)
        .into_iter()
        .map(|(decision, full, _)| (decision, full))
        .unzip();
    assert_eq!(served, full, "daemon-served reports diverged from batch");
    assert_eq!(
        (d.decision_digest(), d.full_digest()),
        (digest(&decision), digest(&full)),
        "daemon digests diverged from batch"
    );
}

/// Resident daemon: decisions equal to one-shot on every job; replays
/// cut simulation work strictly below the one-shot runs'.
#[test]
fn resident_daemon_matches_decisions_and_saves_work() {
    let (net, incidents) = network();
    // Repeat-major stream: each incident submitted twice back-to-back,
    // so the warm verifier slot (keyed to the last committed config)
    // gets a resume opportunity on every replay.
    let mut d = daemon(&net);
    for (i, inc) in incidents.iter().enumerate() {
        d.submit(req(&net, inc, i as u64)).unwrap();
        d.submit(req(&net, inc, i as u64)).unwrap();
    }
    d.drain();
    let res_sigs: Vec<String> = d
        .records_in_order()
        .map(|r| r.decision_sig.clone())
        .collect();
    let res_validations: usize = d.records_in_order().map(|r| r.validations).sum();
    let res_resident = d.resident_jobs;
    let (mut batch, mut cold_validations) = (Vec::new(), 0);
    for (decision, _, validations) in batch_sigs(&net, &incidents) {
        batch.extend([decision.clone(), decision]);
        cold_validations += 2 * validations;
    }
    assert_eq!(batch, res_sigs, "resident serving changed a decision");
    assert!(
        res_validations < cold_validations,
        "resident serving must cut simulations ({res_validations} vs {cold_validations})"
    );
    assert!(res_resident > 0, "round 2 replays must resume warm state");
}
