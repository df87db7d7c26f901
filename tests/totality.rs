//! Totality: no device text, however mangled, panics the pipeline.
//!
//! Seeded mutants of the `wan(4,8)` device texts — a truncation, a byte
//! flip, a line deleted, duplicated or swapped, a line copied from
//! another device, and on top of those non-ASCII and multibyte
//! characters — go through `parse_device` and, inside a submit line
//! (raw UTF-8 or `\u`-escaped), through `parse_request` and
//! `resolve_config`. Every mutant network that parses then goes through
//! `Verifier::run_full`, `lint_network`, `acr_flow::analyze` and a
//! three-iteration repair. Seeded arbitrary patches — out-of-range
//! indices, routers the network lacks, deletes of the `bgp` line,
//! duplicate inserts — go through `Patch::apply`, and what applies and
//! still re-parses through `run_full` and `lint_network`. The repair
//! engine also runs on an empty network and on one with a disconnected
//! router. A parse error is an answer and a failed repair is an answer;
//! a panic is a defect of the product. A few hundred cases of each run
//! in tier-1, the larger sweeps under `--features heavy-tests`.

use acr::cfg::parse::parse_device;
use acr::net_types::SplitMix64;
use acr::obs::json;
use acr::prelude::*;
use acr::serve::{parse_request, resolve_config, Request};
use acr::topo::{Role, TopologyBuilder};
use acr::workloads::GeneratedNetwork;

/// Characters the multibyte mutants insert: two-, three- and four-byte
/// UTF-8, Unicode whitespace the parser's `split_whitespace` and
/// `trim_start` act on, zero-width and combining marks, a byte-order
/// mark, full-width digits, and `İ`, whose lowercase is longer in bytes.
const MULTIBYTE: [&str; 12] = [
    "é", "ß", "→", "€", "中", "😀", "\u{a0}", "\u{2028}", "\u{200b}", "\u{301}", "\u{feff}", "İ",
];

/// The network every mutant is cut from, with each router's name and
/// device text in router order.
struct Corpus {
    net: GeneratedNetwork,
    texts: Vec<(String, String)>,
}

impl Corpus {
    fn new() -> Corpus {
        let net = generate(&acr::topo::gen::wan(4, 8));
        let texts: Vec<(String, String)> = (net.topo.routers().iter())
            .map(|r| {
                let device = net.cfg.device(r.id).expect("every router is configured");
                (r.name.clone(), device.to_text())
            })
            .collect();
        assert!(
            texts.iter().all(|(_, t)| t.is_ascii()),
            "byte flips below keep ASCII text valid UTF-8"
        );
        Corpus { net, texts }
    }

    /// One mutant of device `victim`'s text.
    fn mutate(&self, rng: &mut SplitMix64, victim: usize) -> String {
        let text = &self.texts[victim].1;
        let mut lines: Vec<&str> = text.lines().collect();
        let n = lines.len();
        match rng.index(6) {
            0 => text[..rng.index(text.len() + 1)].to_string(),
            1 => {
                let mut bytes = text.clone().into_bytes();
                let at = rng.index(bytes.len());
                bytes[at] ^= 1 << rng.index(7);
                String::from_utf8(bytes).expect("an ASCII byte flipped below bit 7")
            }
            2 => {
                lines.remove(rng.index(n));
                join(&lines)
            }
            3 => {
                let at = rng.index(n);
                lines.insert(at, lines[at]);
                join(&lines)
            }
            4 => {
                lines.swap(rng.index(n), rng.index(n));
                join(&lines)
            }
            _ => {
                let donor: Vec<&str> = self.texts[rng.index(self.texts.len())].1.lines().collect();
                lines.insert(rng.index(n + 1), donor[rng.index(donor.len())]);
                join(&lines)
            }
        }
    }

    /// One mutant of device `victim`'s text with non-ASCII characters
    /// in it: an ASCII mutant, then one to three multibyte characters
    /// inserted at character boundaries or replacing a character — or,
    /// for half the mutants, appended in a `description` line, where the
    /// parser keeps them.
    fn mutate_multibyte(&self, rng: &mut SplitMix64, victim: usize) -> String {
        let ascii = self.mutate(rng, victim);
        let picks: Vec<&str> = (0..1 + rng.index(3))
            .map(|_| MULTIBYTE[rng.index(MULTIBYTE.len())])
            .collect();
        if rng.index(2) == 0 {
            return format!("{ascii}description {}\n", picks.concat());
        }
        let mut chars: Vec<String> = ascii.chars().map(String::from).collect();
        for c in picks {
            let at = rng.index(chars.len() + 1);
            if at < chars.len() && rng.index(2) == 0 {
                chars[at] = c.to_string();
            } else {
                chars.insert(at, c.to_string());
            }
        }
        chars.concat()
    }

    /// Drives one mutant through every stage; returns whether the mutant
    /// network parsed (and so reached the stages past the parser). With
    /// `ascii_wire` the submit line carries every non-ASCII character as
    /// a `\u` escape (UTF-16 surrogate pairs above the BMP).
    fn check(&self, victim: usize, mutant: &str, ascii_wire: bool) -> bool {
        let (name, _) = &self.texts[victim];
        let parsed = parse_device(name.clone(), mutant).is_ok();
        let escape = |s: &str| {
            let escaped = json::escape(s);
            if !ascii_wire {
                return escaped;
            }
            let mut out = String::new();
            for c in escaped.chars() {
                if c.is_ascii() {
                    out.push(c);
                } else {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        out.push_str(&format!("\\u{unit:04x}"));
                    }
                }
            }
            out
        };

        let config = (self.texts.iter().enumerate())
            .map(|(i, (router, text))| {
                let text = if i == victim { mutant } else { text };
                format!("\"{}\":\"{}\"", escape(router), escape(text))
            })
            .collect::<Vec<_>>()
            .join(",");
        let line = json::Obj::new()
            .str("op", "submit")
            .str("tenant", "t0")
            .str("network", "wan")
            .u64("seed", 0)
            .raw("config", &format!("{{{config}}}"))
            .build();
        let Ok(Request::Submit(req)) = parse_request(&line) else {
            panic!("a well-formed submit line is a submit: {line}");
        };
        assert_eq!(req.config[name], mutant, "the text survives the wire");
        let resolved = resolve_config(&self.net.topo, &req.config);
        assert_eq!(resolved.is_ok(), parsed, "{name}: {mutant:?}");
        let Ok(cfg) = resolved else {
            return false;
        };

        let (topo, spec) = (&self.net.topo, &self.net.spec);
        let _ = Verifier::new(topo, spec).run_full(&cfg);
        let _ = lint_network(topo, &cfg);
        let _ = acr_flow::analyze(topo, &cfg);
        let config = RepairConfig {
            max_iterations: 3,
            ..RepairConfig::default()
        };
        let _ = RepairEngine::new(topo, spec, config).repair(&cfg);
        true
    }

    /// `count` mutants from `seed`, each of a device picked at random.
    /// Returns how many parsed.
    fn sweep(&self, seed: u64, count: usize) -> usize {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .filter(|_| {
                let victim = rng.index(self.texts.len());
                let mutant = self.mutate(&mut rng, victim);
                self.check(victim, &mutant, false)
            })
            .count()
    }

    /// [`Corpus::sweep`] over multibyte mutants, half of them sent with
    /// `\u`-escaped submit lines. Returns how many parsed.
    fn sweep_multibyte(&self, seed: u64, count: usize) -> usize {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .filter(|_| {
                let victim = rng.index(self.texts.len());
                let mutant = self.mutate_multibyte(&mut rng, victim);
                assert!(!mutant.is_ascii());
                let ascii_wire = rng.index(2) == 0;
                self.check(victim, &mutant, ascii_wire)
            })
            .count()
    }

    /// One seeded arbitrary edit: any router id up to two past the
    /// network's, any index up to two past the device's end, and a
    /// statement copied from any device. One edit in four targets the
    /// device's `bgp` line — deleted, or inserted again.
    fn arbitrary_edit(&self, rng: &mut SplitMix64) -> Edit {
        let cfg = &self.net.cfg;
        let router = RouterId(rng.index(self.texts.len() + 2) as u32);
        let len = cfg.device(router).map_or(0, |d| d.len());
        let donor = cfg
            .device(RouterId(rng.index(self.texts.len()) as u32))
            .expect("every router is configured");
        let stmt = donor.stmts()[rng.index(donor.len())].clone();
        let bgp = cfg
            .device(router)
            .and_then(|d| (d.stmts().iter()).position(|s| matches!(s, Stmt::BgpProcess(_))));
        match (rng.index(4), bgp) {
            (0, Some(index)) if rng.index(2) == 0 => Edit::Delete { router, index },
            (0, Some(index)) => Edit::Insert {
                router,
                index: rng.index(len + 1),
                stmt: cfg.device(router).unwrap().stmts()[index].clone(),
            },
            (1, _) => Edit::Insert {
                router,
                index: rng.index(len + 3),
                stmt,
            },
            (2, _) => Edit::Replace {
                router,
                index: rng.index(len + 3),
                stmt,
            },
            _ => Edit::Delete {
                router,
                index: rng.index(len + 3),
            },
        }
    }

    /// `count` seeded patches of one to four arbitrary edits through
    /// `Patch::apply`; a patched network whose touched devices still
    /// re-parse — what the engine hands its verifier — also goes through
    /// `run_full` and `lint_network`. Returns how many applied.
    fn sweep_patches(&self, seed: u64, count: usize) -> usize {
        let mut rng = SplitMix64::new(seed);
        let (topo, spec) = (&self.net.topo, &self.net.spec);
        (0..count)
            .filter(|_| {
                let mut patch = Patch::new();
                for _ in 0..1 + rng.index(4) {
                    patch.push(self.arbitrary_edit(&mut rng));
                }
                let Ok(cfg) = patch.apply_cloned(&self.net.cfg) else {
                    return false;
                };
                let reparses = patch.routers().into_iter().all(|r| {
                    let d = cfg.device(r).expect("an applied edit names a device");
                    parse_device(d.name(), &d.to_text()).is_ok()
                });
                if reparses {
                    let _ = Verifier::new(topo, spec).run_full(&cfg);
                    let _ = lint_network(topo, &cfg);
                }
                true
            })
            .count()
    }
}

fn join(lines: &[&str]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn mangled_device_texts_never_panic_the_pipeline() {
    let corpus = Corpus::new();
    let parsed = corpus.sweep(0, 300);
    assert!(
        (30..300).contains(&parsed),
        "both outcomes must be exercised: {parsed} of 300 mutants parsed"
    );
}

#[test]
fn multibyte_device_texts_never_panic_the_pipeline() {
    let corpus = Corpus::new();
    let parsed = corpus.sweep_multibyte(0, 200);
    assert!(
        (30..200).contains(&parsed),
        "both outcomes must be exercised: {parsed} of 200 mutants parsed"
    );
}

#[test]
fn arbitrary_patches_never_panic_apply() {
    let corpus = Corpus::new();
    let applied = corpus.sweep_patches(0, 300);
    assert!(
        (30..300).contains(&applied),
        "both outcomes must be exercised: {applied} of 300 patches applied"
    );
}

/// A network with no routers has nothing to fail: fixed by the empty
/// patch.
#[test]
fn the_engine_repairs_an_empty_network() {
    let topo = TopologyBuilder::new().build();
    let report = RepairEngine::with_defaults(&topo, &Spec::new()).repair(&NetworkConfig::new());
    assert!(report.outcome.is_fixed());
    assert_eq!(report.iteration_count(), 0);
}

/// A router with no link cannot reach or be reached; the intents that
/// need it stay violated, and the engine must end with an answer.
#[test]
fn the_engine_answers_on_a_network_with_a_disconnected_router() {
    let mut b = TopologyBuilder::new();
    let ids: Vec<RouterId> = (0..3)
        .map(|i| b.router(&format!("R{i}"), Role::Backbone))
        .collect();
    b.link(ids[0], ids[1]);
    for (i, id) in ids.iter().enumerate() {
        b.attach(*id, Prefix::from_octets(10, i as u8, 0, 0, 16));
    }
    let net = generate(&b.build());
    assert!(net.topo.links_of(ids[2]).next().is_none());
    let config = RepairConfig {
        max_iterations: 3,
        ..RepairConfig::default()
    };
    let report = RepairEngine::new(&net.topo, &net.spec, config).repair(&net.cfg);
    report.check_accounting().expect("accounting holds");
    assert!(report.iteration_count() <= 3);
}

#[cfg(feature = "heavy-tests")]
#[test]
fn mangled_device_texts_never_panic_the_pipeline_sweep() {
    let corpus = Corpus::new();
    for seed in 1..=10 {
        corpus.sweep(seed, 300);
        corpus.sweep_multibyte(seed, 300);
        corpus.sweep_patches(seed, 300);
    }
}
