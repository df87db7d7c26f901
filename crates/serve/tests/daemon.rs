//! End-to-end daemon behavior: job lifecycle over the JSONL surface,
//! resident-vs-cold serving, registry invalidation, journal events,
//! graceful shutdown, a panicking job's isolation, and the HTTP listener.

use acr_cfg::NetworkConfig;
use acr_net_types::RouterId;
use acr_obs::{journal, json};
use acr_serve::{Acrd, NetworkDef, QuotaConfig, ServeConfig, SubmitReq};
use acr_topo::gen;
use acr_workloads::{generate, sample_incidents, GeneratedNetwork};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

#[path = "../../../tests/support/journal_schema.rs"]
mod journal_schema;
use journal_schema::check_journal_line;

/// The obs flags and the journal sink are process-global: while
/// `journal_daemon_events` captures, a daemon running in any other
/// test of this binary would write into its buffer. Every test that
/// runs a job holds this lock.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn small() -> (GeneratedNetwork, NetworkConfig) {
    let net = generate(&gen::wan(2, 3));
    let broken = sample_incidents(&net, 1, 77)[0].broken.clone();
    (net, broken)
}

fn daemon(net: &GeneratedNetwork, cold: bool) -> Acrd {
    let mut d = Acrd::new(ServeConfig {
        quota: QuotaConfig::default(),
        cold,
    });
    d.register(NetworkDef {
        name: "net".to_string(),
        topo: Arc::new(net.topo.clone()),
        spec: Arc::new(net.spec.clone()),
    });
    d
}

fn req(net: &GeneratedNetwork, broken: &NetworkConfig, seed: u64) -> SubmitReq {
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
        tenant: "t".to_string(),
        network: "net".to_string(),
        seed,
        tags: Vec::new(),
        config,
    }
}

#[test]
fn job_lifecycle_over_the_jsonl_surface() {
    let _g = lock();
    let (net, broken) = small();
    let mut d = daemon(&net, false);
    let id = d.submit(req(&net, &broken, 0)).unwrap();
    assert!(id.starts_with("job-") && id.len() == 4 + 16, "id {id}");

    let status = d.handle(&format!("{{\"op\":\"status\",\"job\":\"{id}\"}}"));
    assert!(status.contains("\"state\":\"queued\""), "{status}");
    let early = d.handle(&format!("{{\"op\":\"result\",\"job\":\"{id}\"}}"));
    assert!(early.contains("\"error\":\"not_done\""), "{early}");

    let drain = d.handle("{\"op\":\"drain\"}");
    assert!(drain.contains("\"completed\":1"), "{drain}");

    let status = d.handle(&format!("{{\"op\":\"status\",\"job\":\"{id}\"}}"));
    assert!(status.contains("\"state\":\"done\""), "{status}");
    let result = d.handle(&format!("{{\"op\":\"result\",\"job\":\"{id}\"}}"));
    let v = json::parse(&result).expect("result response is valid JSON");
    assert_eq!(v.get("ok"), Some(&json::Value::Bool(true)));
    let report = v.get("report").expect("result carries the full report");
    assert!(report
        .get("outcome")
        .and_then(json::Value::as_str)
        .is_some());
    assert!(report
        .get("iteration_detail")
        .and_then(json::Value::as_arr)
        .is_some());

    let health = d.handle("{\"op\":\"health\"}");
    let h = json::parse(&health).unwrap();
    assert_eq!(h.get("completed").and_then(json::Value::as_num), Some(1.0));
    assert_eq!(h.get("queued").and_then(json::Value::as_num), Some(0.0));
}

/// Deterministic job ids: same submissions, same ids, in any daemon.
#[test]
fn job_ids_are_deterministic_across_daemons() {
    let _g = lock();
    let (net, broken) = small();
    let mut d1 = daemon(&net, false);
    let mut d2 = daemon(&net, false);
    let a1 = d1.submit(req(&net, &broken, 0)).unwrap();
    let b1 = d1.submit(req(&net, &broken, 1)).unwrap();
    let a2 = d2.submit(req(&net, &broken, 0)).unwrap();
    let b2 = d2.submit(req(&net, &broken, 1)).unwrap();
    assert_eq!(a1, a2);
    assert_eq!(b1, b2);
    assert_ne!(a1, b1, "distinct seq numbers yield distinct ids");
}

/// Resident serving: the second job on the same incident resumes warm
/// state, validates nothing fresh, and reaches identical decisions. A
/// cold daemon never goes resident; its decisions match too.
#[test]
fn resident_replay_matches_cold_decisions_with_less_work() {
    let _g = lock();
    let (net, broken) = small();
    let mut res = daemon(&net, false);
    res.submit(req(&net, &broken, 0)).unwrap();
    res.submit(req(&net, &broken, 0)).unwrap();
    assert_eq!(res.drain(), 2);
    let recs: Vec<_> = res.records_in_order().collect();
    assert!(!recs[0].resident, "first job has nothing to resume");
    assert!(recs[1].resident, "second identical job must resume warm");
    assert_eq!(recs[0].decision_sig, recs[1].decision_sig);
    assert_eq!(recs[1].validations, 0, "warm replay is all cache");
    assert!(recs[0].validations > 0);
    assert_eq!(res.resident_jobs, 1);

    let mut cold = daemon(&net, true);
    cold.submit(req(&net, &broken, 0)).unwrap();
    cold.submit(req(&net, &broken, 0)).unwrap();
    assert_eq!(cold.drain(), 2);
    let cold_recs: Vec<_> = cold.records_in_order().collect();
    assert!(cold_recs.iter().all(|r| !r.resident));
    assert_eq!(cold_recs[0].decision_sig, recs[0].decision_sig);
    assert_eq!(cold_recs[0].full_sig, cold_recs[1].full_sig);
    assert_eq!(cold.resident_jobs, 0);
    // Decision digests agree across serving modes; the resident
    // daemon's full (accounting-bearing) digest differs — that is the
    // entire point of residency.
    assert_eq!(res.decision_digest(), cold.decision_digest());
    assert_ne!(res.full_digest(), cold.full_digest());
}

/// `invalidate` models a committed patch landing: warm state drops (the
/// next job commits cold) but nothing ever goes stale or wrong.
#[test]
fn invalidate_drops_warm_state_not_correctness() {
    let _g = lock();
    let (net, broken) = small();
    let mut d = daemon(&net, false);
    d.submit(req(&net, &broken, 0)).unwrap();
    d.drain();
    assert!(d.registry().get("net").unwrap().session.has_warm());
    let resp = d.handle("{\"op\":\"invalidate\",\"network\":\"net\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(!d.registry().get("net").unwrap().session.has_warm());
    assert!(d
        .handle("{\"op\":\"invalidate\",\"network\":\"zzz\"}")
        .contains("unknown_network"));

    d.submit(req(&net, &broken, 0)).unwrap();
    d.drain();
    let recs: Vec<_> = d.records_in_order().collect();
    assert!(!recs[1].resident, "invalidation forces a cold commit");
    assert_eq!(recs[0].decision_sig, recs[1].decision_sig);
}

/// Graceful shutdown: `finish` drains every queued job, flushes the
/// journal, and leaves an empty queue with all records done.
#[test]
fn finish_drains_the_queue_completely() {
    let _g = lock();
    let (net, broken) = small();
    let mut d = daemon(&net, false);
    for seed in 0..3 {
        d.submit(req(&net, &broken, seed)).unwrap();
    }
    assert_eq!(d.queue_depth(), 3);
    assert_eq!(d.finish(), 3);
    assert_eq!(d.queue_depth(), 0);
    assert_eq!(d.completed, 3);
    assert!(d
        .records_in_order()
        .all(|r| r.state == acr_serve::JobState::Done));
}

/// Daemon journal events (`job_start` / `job_end` /
/// `admission_rejected`, since schema v3) bracket the engine's records,
/// carry tenant/network/job ids, and the engine stamps the current
/// schema.
#[test]
fn journal_daemon_events() {
    let _g = lock();
    acr_obs::set_flags(acr_obs::JOURNAL);
    journal::capture_to_memory();

    let (net, broken) = small();
    let mut d = daemon(&net, false);
    let id = d.submit(req(&net, &broken, 0)).unwrap();
    let mut bad = req(&net, &broken, 1);
    bad.network = "nope".to_string();
    assert!(d.submit(bad).is_err());
    d.finish();

    let captured = journal::take_captured();
    acr_obs::disable_all();

    let lines: Vec<json::Value> = captured.lines().map(check_journal_line).collect();
    let event = |v: &json::Value| {
        v.get("event")
            .and_then(json::Value::as_str)
            .map(str::to_string)
    };
    let starts: Vec<_> = lines
        .iter()
        .filter(|v| event(v).as_deref() == Some("job_start"))
        .collect();
    assert_eq!(starts.len(), 1);
    assert_eq!(
        starts[0].get("job").and_then(json::Value::as_str),
        Some(id.as_str())
    );
    assert_eq!(
        starts[0].get("tenant").and_then(json::Value::as_str),
        Some("t")
    );
    let ends: Vec<_> = lines
        .iter()
        .filter(|v| event(v).as_deref() == Some("job_end"))
        .collect();
    assert_eq!(ends.len(), 1);
    assert_eq!(ends[0].get("resident"), Some(&json::Value::Bool(false)));
    assert!(ends[0]
        .get("outcome")
        .and_then(json::Value::as_str)
        .is_some());
    let rejects: Vec<_> = lines
        .iter()
        .filter(|v| event(v).as_deref() == Some("admission_rejected"))
        .collect();
    assert_eq!(rejects.len(), 1);
    assert_eq!(
        rejects[0].get("reason").and_then(json::Value::as_str),
        Some("unknown_network")
    );
    // The engine's own records are interleaved and stamp the schema.
    let run_start = lines
        .iter()
        .find(|v| event(v).as_deref() == Some("run_start"))
        .expect("engine run_start inside the daemon journal");
    assert_eq!(
        run_start.get("schema").and_then(json::Value::as_str),
        Some(journal::SCHEMA)
    );
    assert_eq!(journal::SCHEMA, "acr-journal/v6");
    // Bracketing: job_start before run_start before run_end before job_end.
    let pos = |e: &str| {
        lines
            .iter()
            .position(|v| event(v).as_deref() == Some(e))
            .unwrap()
    };
    assert!(pos("job_start") < pos("run_start"));
    assert!(pos("run_end") < pos("job_end"));
}

/// A job whose engine run panics — its network's spec starts a property
/// at a router the topology lacks, so the forwarding walk indexes past
/// the router table — fails alone. Drained over HTTP between two good
/// jobs, it ends `failed` with a `job_failed` journal event and a
/// `job_failed` result; the listener keeps answering `/health`; and both
/// good jobs decide exactly as in a daemon that never saw it.
#[test]
fn a_panicking_job_fails_alone() {
    let _g = lock();
    let (net, broken) = small();
    let reference: Vec<String> = {
        let mut d = daemon(&net, false);
        d.submit(req(&net, &broken, 0)).unwrap();
        d.submit(req(&net, &broken, 0)).unwrap();
        d.drain();
        d.records_in_order()
            .map(|r| r.decision_sig.clone())
            .collect()
    };

    acr_obs::set_flags(acr_obs::JOURNAL);
    journal::capture_to_memory();
    let mut d = daemon(&net, false);
    let mut bad_spec = net.spec.clone();
    bad_spec.properties[0].start = RouterId(net.topo.len() as u32 + 7);
    d.register(NetworkDef {
        name: "bad".to_string(),
        topo: Arc::new(net.topo.clone()),
        spec: Arc::new(bad_spec),
    });
    let mut bad = req(&net, &broken, 0);
    bad.network = "bad".to_string();
    let ids: Vec<String> = [req(&net, &broken, 0), bad, req(&net, &broken, 0)]
        .into_iter()
        .map(|r| d.submit(r).unwrap())
        .collect();
    let daemon = Arc::new(Mutex::new(d));
    let server = acr_serve::serve(daemon.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let (code, body) = http(addr, "POST", "/drain", "");
    assert_eq!(code, 200, "{body}");
    let (code, body) = http(addr, "GET", "/health", "");
    assert_eq!(code, 200, "{body}");
    let (_, body) = http(addr, "GET", &format!("/status?job={}", ids[1]), "");
    assert!(body.contains("\"state\":\"failed\""), "{body}");
    let (code, body) = http(addr, "GET", &format!("/result?job={}", ids[1]), "");
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("\"error\":\"job_failed\""), "{body}");
    server.stop();

    let captured = journal::take_captured();
    acr_obs::disable_all();
    let failed = (captured.lines().map(check_journal_line))
        .filter(|v| v.get("event").and_then(json::Value::as_str) == Some("job_failed"))
        .count();
    assert_eq!(failed, 1, "{captured}");

    let d = daemon.lock().unwrap();
    let good: Vec<String> = [&ids[0], &ids[2]]
        .iter()
        .map(|id| d.record(id).unwrap().decision_sig.clone())
        .collect();
    assert_eq!(good, reference);
}

/// The HTTP listener serves health/submit/status/drain/result against
/// the same daemon state as the JSONL surface.
#[test]
fn http_surface_round_trip() {
    let _g = lock();
    let (net, broken) = small();
    let daemon = Arc::new(Mutex::new(daemon(&net, false)));
    let server = acr_serve::serve(daemon.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let get = |path: &str| http(addr, "GET", path, "");
    let post = |path: &str, body: &str| http(addr, "POST", path, body);

    let (code, body) = get("/health");
    assert_eq!(code, 200);
    assert!(body.contains("\"networks\":1"), "{body}");

    // Submit via HTTP: body is the submit object without "op".
    let mut config_fields = Vec::new();
    for (rid, dev) in broken.devices() {
        let name = &net
            .topo
            .routers()
            .iter()
            .find(|r| r.id == rid)
            .unwrap()
            .name;
        config_fields.push(format!(
            "\"{}\":\"{}\"",
            json::escape(name),
            json::escape(&dev.to_text())
        ));
    }
    let submit_body = format!(
        "{{\"tenant\":\"t\",\"network\":\"net\",\"seed\":0,\"config\":{{{}}}}}",
        config_fields.join(",")
    );
    let (code, body) = post("/submit", &submit_body);
    assert_eq!(code, 200, "{body}");
    let id = json::parse(&body)
        .unwrap()
        .get("job")
        .and_then(json::Value::as_str)
        .unwrap()
        .to_string();

    let (code, body) = get(&format!("/status?job={id}"));
    assert_eq!(code, 200);
    assert!(body.contains("queued"), "{body}");

    let (code, body) = post("/drain", "");
    assert_eq!(code, 200);
    assert!(body.contains("\"completed\":1"), "{body}");

    let (code, body) = get(&format!("/result?job={id}"));
    assert_eq!(code, 200);
    assert!(body.contains("\"report\""), "{body}");

    let (code, _) = get("/nope");
    assert_eq!(code, 404);
    let (code, body) = get("/status?job=job-doesnotexist");
    assert_eq!(code, 400);
    assert!(body.contains("unknown_job"), "{body}");

    server.stop();
    assert_eq!(daemon.lock().unwrap().completed, 1);
}

/// A client that connects and never sends a byte cannot wedge the
/// sequential listener: its socket times out, the next request is
/// answered and `stop` returns. And a body over the limit is refused
/// outright, not truncated into a parse error.
#[test]
fn http_stalled_client_cannot_block_health() {
    let _g = lock();
    let (net, _) = small();
    let daemon = Arc::new(Mutex::new(daemon(&net, false)));
    let server = acr_serve::serve(daemon, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let stalled = std::net::TcpStream::connect(addr).expect("connect");
    let (code, body) = http(addr, "GET", "/health", "");
    assert_eq!(code, 200, "{body}");
    drop(stalled);

    let oversized = format!(
        "POST /submit HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        (1usize << 22) + 1
    );
    let (code, body) = http_raw(addr, &oversized);
    assert_eq!(code, 413, "{body}");
    assert!(body.contains("body_too_large"), "{body}");

    server.stop();
}

/// A client that drips one header byte every 300 ms never trips a
/// per-read timeout, but the whole request must arrive within the
/// listener's deadline: a second client's `/health` is answered within
/// 3 s while the drip goes on for 6 s.
#[test]
fn http_dripping_client_cannot_hold_the_listener() {
    let _g = lock();
    let (net, _) = small();
    let daemon = Arc::new(Mutex::new(daemon(&net, false)));
    let server = acr_serve::serve(daemon, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let mut dripper = std::net::TcpStream::connect(addr).expect("connect");
    let drip = std::thread::spawn(move || {
        let head = format!("GET /health HTTP/1.1\r\nX-Pad: {}", "a".repeat(64));
        for b in head.bytes().take(20) {
            if dripper.write_all(&[b]).is_err() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(300));
        }
    });
    // Connected second, so accepted second: the sequential listener
    // serves the dripper first.
    let t = std::time::Instant::now();
    let (code, body) = http(addr, "GET", "/health", "");
    let waited = t.elapsed();
    assert_eq!(code, 200, "{body}");
    assert!(
        waited < std::time::Duration::from_secs(3),
        "/health waited {waited:?} behind a dripping client"
    );
    drip.join().unwrap();
    server.stop();
}

/// A header line that never ends is refused once the head limit is read,
/// not buffered; the listener then serves the next client.
#[test]
fn http_oversized_head_is_refused() {
    let _g = lock();
    let (net, _) = small();
    let daemon = Arc::new(Mutex::new(daemon(&net, false)));
    let server = acr_serve::serve(daemon, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let endless = format!("GET /health HTTP/1.1\r\nX-Pad: {}", "a".repeat(64 << 10));
    let (code, body) = http_raw(addr, &endless);
    assert_eq!(code, 431, "{body}");
    assert!(body.contains("head_too_large"), "{body}");
    let (code, body) = http(addr, "GET", "/health", "");
    assert_eq!(code, 200, "{body}");

    server.stop();
}

/// A one-connection HTTP/1.1 client good enough for the listener.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    http_raw(addr, &request)
}

/// Sends `request` verbatim and reads the response to the end (or fails
/// after ten seconds — a wedged listener must fail the test, not hang it).
/// A listener that refuses a request it has not read to the end resets
/// the connection when it closes, so send and receive errors are left to
/// show as a missing status code.
fn http_raw(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let _ = stream.write_all(request.as_bytes());
    let mut resp = String::new();
    let _ = stream.read_to_string(&mut resp);
    let code: u16 = resp
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let payload = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, payload)
}
