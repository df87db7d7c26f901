//! Admission control under a live daemon: quota exhaustion produces
//! structured rejections, the queue bound holds, and the round-robin
//! scheduler stays fair to small tenants under an oversubscribed burst.

use acr_cfg::NetworkConfig;
use acr_serve::{Acrd, NetworkDef, QuotaConfig, RejectReason, ServeConfig, SubmitReq};
use acr_topo::gen;
use acr_workloads::{generate, sample_incidents, GeneratedNetwork};
use std::collections::BTreeMap;
use std::sync::Arc;

fn small() -> (GeneratedNetwork, NetworkConfig) {
    let net = generate(&gen::wan(2, 3));
    let broken = sample_incidents(&net, 1, 77)[0].broken.clone();
    (net, broken)
}

fn daemon(net: &GeneratedNetwork, quota: QuotaConfig) -> Acrd {
    let mut d = Acrd::new(ServeConfig { quota });
    d.register(NetworkDef {
        name: "net".to_string(),
        topo: Arc::new(net.topo.clone()),
        spec: Arc::new(net.spec.clone()),
    });
    d
}

fn req(net: &GeneratedNetwork, broken: &NetworkConfig, tenant: &str, seed: u64) -> SubmitReq {
    let mut config = BTreeMap::new();
    for (id, dev) in broken.devices() {
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
        tenant: tenant.to_string(),
        network: "net".to_string(),
        seed,
        tags: Vec::new(),
        config,
    }
}

#[test]
fn tenant_quota_exhaustion_is_a_structured_rejection() {
    let (net, broken) = small();
    let mut d = daemon(
        &net,
        QuotaConfig {
            max_queued: 16,
            max_per_tenant: 2,
        },
    );
    assert!(d.submit(req(&net, &broken, "t0", 0)).is_ok());
    assert!(d.submit(req(&net, &broken, "t0", 1)).is_ok());
    let rej = d.submit(req(&net, &broken, "t0", 2)).unwrap_err();
    assert_eq!(rej, RejectReason::TenantQuota { max_per_tenant: 2 });
    assert_eq!(rej.tag(), "tenant_quota");
    // Another tenant is unaffected by t0's exhaustion.
    assert!(d.submit(req(&net, &broken, "t1", 3)).is_ok());
    assert_eq!((d.submitted, d.rejected), (3, 1));
    assert_eq!(d.queue_depth(), 3);
}

#[test]
fn queue_bound_holds_and_reopens_after_drain() {
    let (net, broken) = small();
    let mut d = daemon(
        &net,
        QuotaConfig {
            max_queued: 2,
            max_per_tenant: 8,
        },
    );
    assert!(d.submit(req(&net, &broken, "a", 0)).is_ok());
    assert!(d.submit(req(&net, &broken, "b", 1)).is_ok());
    let rej = d.submit(req(&net, &broken, "c", 2)).unwrap_err();
    assert_eq!(rej, RejectReason::QueueFull { max_queued: 2 });
    assert_eq!(d.drain(), 2);
    assert_eq!(d.queue_depth(), 0);
    // Capacity is back once the queue drains.
    assert!(d.submit(req(&net, &broken, "c", 3)).is_ok());
}

#[test]
fn unknown_network_and_bad_config_reject_before_queueing() {
    let (net, broken) = small();
    let mut d = daemon(&net, QuotaConfig::default());
    let mut r = req(&net, &broken, "t", 0);
    r.network = "nope".to_string();
    match d.submit(r) {
        Err(RejectReason::UnknownNetwork { network }) => assert_eq!(network, "nope"),
        other => panic!("expected unknown_network, got {other:?}"),
    }
    let mut r = req(&net, &broken, "t", 0);
    r.config
        .insert("NOSUCH".to_string(), "router bgp 1".to_string());
    match d.submit(r) {
        Err(RejectReason::BadRequest { detail }) => assert!(detail.contains("NOSUCH")),
        other => panic!("expected bad_request, got {other:?}"),
    }
    assert_eq!(d.queue_depth(), 0);
    assert_eq!(d.rejected, 2);
}

/// An oversubscribed burst from one tenant cannot starve the others:
/// round-robin serves every tenant once per cycle.
#[test]
fn round_robin_stays_fair_under_oversubscribed_burst() {
    let (net, broken) = small();
    let mut d = daemon(
        &net,
        QuotaConfig {
            max_queued: 16,
            max_per_tenant: 8,
        },
    );
    // Big tenant floods first; small tenants trickle in after.
    for seed in 0..3 {
        d.submit(req(&net, &broken, "big", seed)).unwrap();
    }
    d.submit(req(&net, &broken, "small1", 10)).unwrap();
    d.submit(req(&net, &broken, "small2", 11)).unwrap();
    let mut served = Vec::new();
    while let Some(id) = d.step() {
        served.push(d.record(&id).unwrap().tenant.clone());
    }
    assert_eq!(
        served,
        vec!["big", "small1", "small2", "big", "big"],
        "small tenants must be served within the first cycle"
    );
    assert_eq!(d.completed, 5);
}

/// Malformed JSONL lines surface as `bad_request` responses and count
/// as rejections.
#[test]
fn handle_rejects_malformed_lines_structurally() {
    let (net, _) = small();
    let mut d = daemon(&net, QuotaConfig::default());
    let resp = d.handle("{not json");
    assert!(resp.contains("\"ok\":false"));
    assert!(resp.contains("\"error\":\"bad_request\""));
    let resp = d.handle("{\"op\":\"submit\",\"tenant\":\"t\"}");
    assert!(resp.contains("\"error\":\"bad_request\""));
    assert_eq!(d.rejected, 2);
}
