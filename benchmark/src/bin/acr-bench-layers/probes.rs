//! Layer probes: one timed call into each layer's public functions on
//! a broken config of the workload, each under a `probe.<metric>` span.
//! This is the only file of the benchmark that knows the layers' APIs.

use acr::cfg::diff::diff;
use acr::cfg::parse::parse_device;
use acr::localize::SbflFormula;
use acr::prelude::*;
use acr::workloads::GeneratedNetwork;
use acr_benchmark::spans::Tracer;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-call milliseconds by metric name, one entry per probed config.
#[derive(Default)]
pub struct Probes(pub BTreeMap<&'static str, Vec<f64>>);

impl Probes {
    fn time<T>(
        &mut self,
        tracer: &mut Tracer,
        id: &str,
        metric: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = tracer.open(&format!("probe.{metric}"), id);
        let t = Instant::now();
        let out = black_box(f());
        self.0
            .entry(metric)
            .or_default()
            .push(t.elapsed().as_secs_f64() * 1e3);
        tracer.close(span);
        out
    }

    /// Probes every layer once on `broken`.
    pub fn config(
        &mut self,
        tracer: &mut Tracer,
        id: &str,
        net: &GeneratedNetwork,
        broken: &NetworkConfig,
    ) {
        let root = tracer.open("probes", id);
        let (topo, spec) = (&net.topo, &net.spec);

        let texts = self.time(tracer, id, "cfg.render_ms", || {
            broken
                .devices()
                .map(|(_, d)| (d.name().to_string(), d.to_text()))
                .collect::<Vec<_>>()
        });
        self.time(tracer, id, "cfg.parse_ms", || {
            for (name, text) in &texts {
                black_box(parse_device(name.clone(), text).expect("rendered configs parse"));
            }
        });
        self.time(tracer, id, "cfg.fingerprint_ms", || broken.fingerprint());
        self.time(tracer, id, "cfg.clone_ms", || broken.clone());
        // The reference patch: broken -> intended configuration.
        let patch = diff(broken, &net.cfg);
        let healthy = self.time(tracer, id, "cfg.patch_apply_ms", || {
            patch
                .apply_cloned(broken)
                .expect("the reference patch applies")
        });

        self.time(tracer, id, "lint.network_ms", || lint_network(topo, broken));
        self.time(tracer, id, "flow.analyze_ms", || {
            acr_flow::analyze(topo, broken)
        });
        let protected: Vec<Prefix> = spec.properties.iter().map(|p| p.hs.dst).collect();
        self.time(tracer, id, "flow.gate_ms", || {
            acr_flow::patch_invisible(broken, &patch, &protected)
        });

        let sim = self.time(tracer, id, "sim.cold_build_ms", || {
            Simulator::new(topo, broken)
        });
        self.time(tracer, id, "sim.cold_run_ms", || sim.run());
        let verifier = Verifier::new(topo, spec);
        let (full, _) = self.time(tracer, id, "verify.full_ms", || verifier.run_full(broken));
        let mut iv = IncrementalVerifier::new(topo, spec);
        self.time(tracer, id, "verify.commit_ms", || iv.commit(broken));
        self.time(tracer, id, "verify.candidate_ms", || {
            iv.verify_candidate(&healthy, &patch)
        });
        self.time(tracer, id, "localize.rank_ms", || {
            localize(&full.matrix, SbflFormula::Tarantula)
        });
        tracer.close(root);
    }

    /// Probes the protocol decoder on one submit line.
    pub fn line(&mut self, tracer: &mut Tracer, id: &str, line: &str) {
        let root = tracer.open("probes", id);
        self.time(tracer, id, "serve.proto_parse_ms", || {
            acr::serve::parse_request(line).expect("submit lines parse")
        });
        tracer.close(root);
    }
}
