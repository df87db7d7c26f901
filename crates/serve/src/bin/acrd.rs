//! `acrd` — the resident repair daemon, JSONL on stdin/stdout.
//!
//! Default mode registers the standard 12-router WAN (`wan12`), reads
//! one request per stdin line (see `acr_serve::proto`), writes one
//! response per line, and on EOF performs a graceful shutdown: drain
//! the queue, flush the journal, print the determinism digests and a
//! summary line. Helper modes generate the corpus and the batch
//! baseline so ci.sh can compare a daemon-served stream against a
//! one-shot run, cross-process:
//!
//! ```sh
//! acrd --emit-corpus | acrd          # serve the corpus through the daemon
//! acrd --batch                       # same repairs, one-shot in-process
//! # both print report_digest=<hex>; equal means byte-identical decisions
//! ```
//!
//! Flags: `--cold` (fresh session per job — the A/B baseline),
//! `--http ADDR` (serve the HTTP surface alongside stdin),
//! `--quota-queue N` / `--quota-tenant N` (admission bounds),
//! `--emit-corpus [ROUNDS]`, `--batch [ROUNDS]`.

use acr_core::{RepairConfig, RepairEngine};
use acr_serve::{
    decision_signature, digest, full_signature, job_label, submit_line, Acrd, NetworkDef,
    QuotaConfig, ServeConfig,
};
use acr_topo::gen;
use acr_workloads::{generate, sample_incidents};
use std::io::BufRead;
use std::sync::{Arc, Mutex, PoisonError};

const NETWORK: &str = "wan12";
const TENANT: &str = "cli";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rounds = 1usize;
    let mut mode = "daemon";
    let mut cold = false;
    let mut http_addr: Option<String> = None;
    let mut quota = QuotaConfig::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let num = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            it.peek()
                .and_then(|v| v.parse::<usize>().ok())
                .inspect(|_| {
                    it.next();
                })
        };
        match a.as_str() {
            "--emit-corpus" => {
                mode = "emit";
                rounds = num(&mut it).unwrap_or(1);
            }
            "--batch" => {
                mode = "batch";
                rounds = num(&mut it).unwrap_or(1);
            }
            "--cold" => cold = true,
            "--http" => http_addr = it.next().cloned(),
            "--quota-queue" => quota.max_queued = num(&mut it).unwrap_or(quota.max_queued),
            "--quota-tenant" => quota.max_per_tenant = num(&mut it).unwrap_or(quota.max_per_tenant),
            other => {
                eprintln!("acrd: unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }

    // The standard CI corpus: 12-router WAN, 12 sampled incidents,
    // engine seed = incident index.
    let net = generate(&gen::wan(4, 8));
    let incidents = sample_incidents(&net, 12, 77);

    match mode {
        "emit" => {
            for _ in 0..rounds {
                for (i, inc) in incidents.iter().enumerate() {
                    println!(
                        "{}",
                        submit_line(&net.topo, &inc.broken, TENANT, NETWORK, i as u64, &[])
                    );
                }
            }
        }
        "batch" => {
            // One-shot baseline: the exact repairs the daemon serves,
            // without any daemon — fresh engine + default config per
            // incident, per round.
            let mut decision = Vec::new();
            let mut full = Vec::new();
            for _ in 0..rounds {
                for (i, inc) in incidents.iter().enumerate() {
                    let rc = RepairConfig {
                        seed: i as u64,
                        ..RepairConfig::default()
                    };
                    let engine = RepairEngine::new(&net.topo, &net.spec, rc);
                    let report = engine.repair(&inc.broken);
                    let label = job_label(NETWORK, i as u64);
                    decision.push(decision_signature(&label, &report));
                    full.push(full_signature(&label, &report));
                }
            }
            println!("report_digest={:016x}", digest(&decision));
            println!("full_digest={:016x}", digest(&full));
            println!(
                "jobs={} rejected=0 queue_depth=0 resident_hits=0",
                decision.len()
            );
        }
        _ => {
            let cfg = ServeConfig { quota, cold };
            let mut d = Acrd::new(cfg);
            d.register(NetworkDef {
                name: NETWORK.to_string(),
                topo: Arc::new(net.topo),
                spec: Arc::new(net.spec),
            });
            let daemon = Arc::new(Mutex::new(d));
            let server = http_addr.map(|a| {
                let s = acr_serve::serve(daemon.clone(), &a).expect("bind http listener");
                eprintln!("acrd: http listening on {}", s.addr());
                s
            });
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let line = line.expect("stdin read");
                if line.trim().is_empty() {
                    continue;
                }
                let resp = {
                    let mut d = daemon.lock().unwrap_or_else(PoisonError::into_inner);
                    let resp = d.handle(&line);
                    // Serve between requests: the queue absorbs bursts
                    // (admission bounds apply within one), but work
                    // never sits across the read loop.
                    d.drain();
                    resp
                };
                println!("{resp}");
            }
            // EOF: graceful shutdown — drain, flush, report, exit 0.
            {
                let mut d = daemon.lock().unwrap_or_else(PoisonError::into_inner);
                let drained = d.finish();
                println!("report_digest={:016x}", d.decision_digest());
                println!("full_digest={:016x}", d.full_digest());
                println!(
                    "jobs={} rejected={} queue_depth={} resident_hits={} drained_at_shutdown={}",
                    d.completed,
                    d.rejected,
                    d.queue_depth(),
                    d.resident_jobs,
                    drained
                );
            }
            if let Some(s) = server {
                s.stop();
            }
        }
    }
}
