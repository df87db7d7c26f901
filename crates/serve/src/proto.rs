//! The daemon's wire protocol: one JSON object per request, one JSON
//! object per response, newline-delimited (the same lines travel over
//! stdin/stdout and over the HTTP listener's bodies).
//!
//! Requests (`"op"` selects the operation):
//!
//! ```json
//! {"op":"submit","tenant":"t0","network":"wan12","seed":3,
//!  "tags":["family:single"],"config":{"BB0":"router bgp 65000\n..."}}
//! {"op":"status","job":"job-0123456789abcdef"}
//! {"op":"result","job":"job-0123456789abcdef"}
//! {"op":"health"}
//! {"op":"drain"}
//! {"op":"invalidate","network":"wan12"}
//! ```
//!
//! A submit's `config` is the misconfigured network as an object of
//! router-name → device configuration text — the textual form
//! round-trips through `acr-cfg`'s parser, and router names resolve
//! against the registered network's topology, every router of which
//! must be present (an empty text is an empty device). `seed` is an
//! integer in `[0, 2^53]`, the range a JSON number holds exactly.

use acr_cfg::NetworkConfig;
use acr_obs::json::{self, Value};
use acr_topo::Topology;
use std::collections::BTreeMap;

/// A parsed daemon request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Submit(SubmitReq),
    Status { job: String },
    Result { job: String },
    Health,
    Drain,
    Invalidate { network: String },
}

/// An incident submission, before admission.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitReq {
    pub tenant: String,
    pub network: String,
    pub seed: u64,
    pub tags: Vec<String>,
    /// Router name → device configuration text.
    pub config: BTreeMap<String, String>,
}

/// The largest integer every JSON number (an `f64`) holds exactly.
const MAX_SEED: f64 = (1u64 << 53) as f64;

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string '{key}'"))
}

/// Parses one request line. Errors name the offending field — they
/// surface as `bad_request` admission rejections, not panics.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let op = str_field(&v, "op")?;
    match op.as_str() {
        "submit" => {
            let tenant = str_field(&v, "tenant")?;
            let network = str_field(&v, "network")?;
            let seed = v
                .get("seed")
                .and_then(Value::as_num)
                .ok_or("missing or non-numeric 'seed'")?;
            if seed.fract() != 0.0 || !(0.0..=MAX_SEED).contains(&seed) {
                return Err(format!(
                    "'seed' must be an integer in [0, 2^53], not {seed}"
                ));
            }
            let seed = seed as u64;
            let tags = match v.get("tags") {
                None => Vec::new(),
                Some(t) => t
                    .as_arr()
                    .ok_or("'tags' must be an array")?
                    .iter()
                    .map(|e| e.as_str().map(str::to_string).ok_or("non-string tag"))
                    .collect::<Result<Vec<_>, _>>()?,
            };
            let config = v
                .get("config")
                .and_then(Value::as_obj)
                .ok_or("missing or non-object 'config'")?
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("config['{k}'] must be a string"))
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?;
            Ok(Request::Submit(SubmitReq {
                tenant,
                network,
                seed,
                tags,
                config,
            }))
        }
        "status" => Ok(Request::Status {
            job: str_field(&v, "job")?,
        }),
        "result" => Ok(Request::Result {
            job: str_field(&v, "job")?,
        }),
        "health" => Ok(Request::Health),
        "drain" => Ok(Request::Drain),
        "invalidate" => Ok(Request::Invalidate {
            network: str_field(&v, "network")?,
        }),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// Resolves a submit's textual `config` against `topo` into a
/// [`NetworkConfig`]. Unknown or missing router names and parse failures
/// are `bad_request` material.
pub fn resolve_config(
    topo: &Topology,
    config: &BTreeMap<String, String>,
) -> Result<NetworkConfig, String> {
    let mut net = NetworkConfig::new();
    for (name, text) in config {
        let id = topo
            .by_name(name)
            .ok_or_else(|| format!("unknown router '{name}'"))?;
        let dev = acr_cfg::parse::parse_device(name.clone(), text)
            .map_err(|e| format!("config['{name}']: {e}"))?;
        net.insert(id, dev);
    }
    if let Some(r) = topo.routers().iter().find(|r| net.device(r.id).is_none()) {
        return Err(format!("missing router '{}'", r.name));
    }
    if net.is_empty() {
        return Err("empty config".into());
    }
    Ok(net)
}

/// Renders a [`NetworkConfig`] as the submit protocol's `config` object
/// (router-name → device text), the inverse of [`resolve_config`].
pub fn config_json(topo: &Topology, cfg: &NetworkConfig) -> String {
    let mut obj = json::Obj::new();
    for (id, dev) in cfg.devices() {
        let name = topo
            .routers()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.name.as_str())
            .unwrap_or("?");
        obj = obj.str(name, &dev.to_text());
    }
    obj.build()
}

/// Renders a full submit request line.
pub fn submit_line(
    topo: &Topology,
    cfg: &NetworkConfig,
    tenant: &str,
    network: &str,
    seed: u64,
    tags: &[String],
) -> String {
    json::Obj::new()
        .str("op", "submit")
        .str("tenant", tenant)
        .str("network", network)
        .u64("seed", seed)
        .raw(
            "tags",
            &json::array(tags.iter().map(|t| format!("\"{}\"", json::escape(t)))),
        )
        .raw("config", &config_json(topo, cfg))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_topo::gen;
    use acr_workloads::generate;

    #[test]
    fn submit_round_trips_a_generated_network() {
        let net = generate(&gen::wan(2, 3));
        let line = submit_line(&net.topo, &net.cfg, "t0", "wan", 7, &["a:b".into()]);
        let Request::Submit(req) = parse_request(&line).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!((req.tenant.as_str(), req.network.as_str()), ("t0", "wan"));
        assert_eq!(req.seed, 7);
        assert_eq!(req.tags, vec!["a:b".to_string()]);
        let resolved = resolve_config(&net.topo, &req.config).unwrap();
        assert_eq!(
            resolved.fingerprint(),
            net.cfg.fingerprint(),
            "config text must round-trip to the same fingerprint"
        );
        assert_eq!(resolved, net.cfg);
    }

    #[test]
    fn bad_requests_name_the_field() {
        assert!(parse_request("{").is_err());
        assert!(parse_request("{\"op\":\"nope\"}")
            .unwrap_err()
            .contains("nope"));
        assert!(parse_request("{\"op\":\"submit\",\"tenant\":\"t\"}")
            .unwrap_err()
            .contains("network"));
        let net = generate(&gen::wan(2, 3));
        let mut cfgmap = BTreeMap::new();
        cfgmap.insert("NOSUCH".to_string(), "router bgp 65000".to_string());
        assert!(resolve_config(&net.topo, &cfgmap)
            .unwrap_err()
            .contains("NOSUCH"));
    }

    /// A seed that a cast would silently clamp, truncate or wrap is
    /// refused, and the error names the field.
    #[test]
    fn a_seed_outside_the_exact_integers_is_refused() {
        let submit = |seed: &str| {
            parse_request(&format!(
                "{{\"op\":\"submit\",\"tenant\":\"t\",\"network\":\"n\",\"seed\":{seed},\"config\":{{}}}}"
            ))
        };
        for bad in ["-1", "3.7", "1e30", "9007199254740994", "-0.5"] {
            let err = submit(bad).expect_err(bad);
            assert!(err.contains("seed"), "{bad}: {err}");
        }
        for (ok, want) in [("0", 0), ("7", 7), ("9007199254740992", 1u64 << 53)] {
            let Ok(Request::Submit(req)) = submit(ok) else {
                panic!("{ok} must parse");
            };
            assert_eq!(req.seed, want);
        }
    }

    /// A submit must carry every router of the topology; an empty text
    /// is a valid, empty device.
    #[test]
    fn a_config_missing_a_router_is_refused() {
        let net = generate(&gen::wan(2, 3));
        let mut cfgmap: BTreeMap<String, String> = (net.topo.routers().iter())
            .map(|r| (r.name.clone(), net.cfg.device(r.id).unwrap().to_text()))
            .collect();
        let last = net.topo.routers().last().unwrap().name.clone();
        cfgmap.insert(last.clone(), String::new());
        let resolved = resolve_config(&net.topo, &cfgmap).expect("an empty device is valid");
        assert_eq!(resolved.len(), net.topo.routers().len());
        cfgmap.remove(&last);
        let err = resolve_config(&net.topo, &cfgmap).unwrap_err();
        assert!(err.contains(&format!("missing router '{last}'")), "{err}");
    }
}
