//! Totality: no device text, however mangled, panics the pipeline.
//!
//! Seeded mutants of the `wan(4,8)` device texts — a truncation, a byte
//! flip, a line deleted, duplicated or swapped, a line copied from
//! another device — go through `parse_device` and, inside a submit line,
//! through `parse_request` and `resolve_config`. Every mutant network
//! that parses then goes through `Verifier::run_full`, `lint_network`,
//! `acr_flow::analyze` and a three-iteration repair. A parse error is an
//! answer and a failed repair is an answer; a panic is a defect of the
//! product. A few hundred mutants run in tier-1, the larger sweep under
//! `--features heavy-tests`.

use acr::cfg::parse::parse_device;
use acr::net_types::SplitMix64;
use acr::obs::json;
use acr::prelude::*;
use acr::serve::{parse_request, resolve_config, Request};
use acr::workloads::GeneratedNetwork;

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

    /// Drives one mutant through every stage; returns whether the mutant
    /// network parsed (and so reached the stages past the parser).
    fn check(&self, victim: usize, mutant: &str) -> bool {
        let (name, _) = &self.texts[victim];
        let parsed = parse_device(name.clone(), mutant).is_ok();

        let config = (self.texts.iter().enumerate())
            .map(|(i, (router, text))| {
                let text = if i == victim { mutant } else { text };
                format!("\"{}\":\"{}\"", json::escape(router), json::escape(text))
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
                self.check(victim, &mutant)
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

#[cfg(feature = "heavy-tests")]
#[test]
fn mangled_device_texts_never_panic_the_pipeline_sweep() {
    let corpus = Corpus::new();
    for seed in 1..=10 {
        corpus.sweep(seed, 300);
    }
}
