//! The engine's validate stage: lint gate and memo-cache in front of
//! the persistent incremental verifier.
//!
//! The engine hands this module its fresh candidate patches one at a
//! time, in candidate-index order. Per candidate [`validate`] (1)
//! materializes and re-parses the configuration, (2) fingerprints it,
//! (3) runs the static lint gate, (4) serves the verdict from the
//! simulation memo-cache when the fingerprint was seen before, and (5)
//! otherwise verifies it in place on the job's [`IncrementalVerifier`] —
//! its persistent arena, its cross-candidate policy memo — and enters
//! the verdict in the cache.
//!
//! The broken network's static [`Baseline`] is read off the cold
//! commit's `CompiledBase`, on a scoped thread beside the rest of the
//! commit: a job compiles the broken network once, for the verifier, and
//! the lint and flow baselines reuse that compiled form.
//!
//! **Nothing network-wide runs per candidate.** The gate rejects a
//! candidate that *introduces* a lint error, and every error rule is
//! per-device (`acr_lint::lint_devices`), so it lints the devices the
//! patch touched and nothing else: an untouched device's error keys are
//! the broken network's, already in [`Baseline::keys`]. The full
//! diagnostics of a kept candidate — dataflow warnings included — only
//! matter if it is later expanded as a parent, and are computed there
//! (`engine.rs`), not here.
//!
//! **Determinism argument.** A candidate's verdict is a pure function of
//! (committed base state, candidate config): verifying a candidate never
//! updates the verifier's per-prefix caches, the policy memo is
//! byte-exact to recomputing, and lint is stateless. So whether a
//! candidate is memo-served or verified in place decides its accounting
//! only, never its verdict, and the cache's contents — every later hit,
//! miss and eviction — are a function of the candidate sequence, which
//! the engine walks in one order. A candidate that renders to an earlier
//! candidate's configuration is an ordinary cache hit.
//!
//! **Verdicts, not provenance.** A verified candidate's [`Verification`]
//! — records whose derivation roots resolve in the verifier's persistent
//! arena, no coverage — stays where it was simulated and moves into the
//! kept variant. The memo-cache keeps only what a hit's consumer reads
//! ([`CandidateEntry`]: the failed count and the universe size), so a
//! memo-served verdict carries no verification. The engine builds a
//! variant's coverage the first time it ranks it, and a memo-served
//! variant is re-verified then ([`reverify`]) against the same committed
//! base — most kept candidates are never ranked, so most verdicts never
//! pay for provenance.

use acr_cfg::{NetworkConfig, Patch};
use acr_flow::FlowFacts;
use acr_lint::{lint_devices, lint_with_models, DiagKey, Diagnostic};
use acr_obs::metrics::Counter;
use acr_obs::span;
use acr_sim::CompiledBase;
use acr_topo::Topology;
use acr_verify::{CandidateEntry, IncrementalStats, IncrementalVerifier, SimCache, Verification};
use std::collections::HashSet;

/// The static baseline of a committed configuration: everything a job
/// reads about the broken network that is a pure function of (topology,
/// configuration), computed from **one** `acr-flow` fixed point over the
/// verifier's committed [`CompiledBase`] — the job compiles the broken
/// network once. The gate compares candidates against `keys`, a variant
/// ranked as a parent is boosted from `diags`, and the localization prior
/// reads `facts`. Built whole whether or not [`crate::RepairConfig::lint`]
/// is set — the flag decides who reads it — and parked per configuration
/// fingerprint by resident sessions.
pub(crate) struct Baseline {
    pub facts: FlowFacts,
    pub keys: HashSet<DiagKey>,
    pub diags: Vec<Diagnostic>,
}

impl Baseline {
    /// `base` is the compiled form of `cfg`.
    pub(crate) fn build(topo: &Topology, cfg: &NetworkConfig, base: &CompiledBase) -> Baseline {
        let analyze_span = span!("flow.analyze", "flow");
        let facts = acr_flow::analyze_with_models(topo, base);
        drop(analyze_span.arg("pops", facts.iterations));
        let lint_span = span!("lint.baseline", "lint").arg("facts", facts.fact_count() as u64);
        let report = lint_with_models(topo, cfg, base, &facts);
        drop(lint_span);
        Baseline {
            facts,
            keys: report.keys(),
            diags: report.diagnostics,
        }
    }
}

static LINT_GATE_REJECTED: Counter = Counter::new("lint.gate.rejected");
static REVERIFIED: Counter = Counter::new("engine.reverified");

/// What the validate stage concluded for one candidate patch — the one
/// verdict type between the validate stage and the engine loop.
pub(crate) enum Verdict {
    /// The patch failed to apply or its devices no longer re-parse; it
    /// never reached the validators.
    Invalid,
    /// Rejected by the static lint gate before simulation.
    LintRejected,
    /// Verified: freshly simulated, or served from memo.
    Validated {
        /// The candidate configuration.
        cfg: NetworkConfig,
        /// The verdict as the memo-cache holds it.
        entry: CandidateEntry,
        stats: IncrementalStats,
        /// The verification, roots in the verifier's persistent arena;
        /// `None` exactly when memo-served (see [`reverify`]). Boxed so a
        /// verdict stays small whatever its variant.
        verification: Option<Box<Verification>>,
    },
}

/// The verification of a memo-served candidate, recomputed against the
/// committed base the memo entry was validated against. The engine calls
/// this when it first ranks such a candidate. It is not a validation —
/// no funnel count moves — and its verdict is the memo entry's, because a
/// verdict is a pure function of (committed base, candidate).
pub(crate) fn reverify(
    iv: &mut IncrementalVerifier<'_>,
    cfg: &NetworkConfig,
    patch: &Patch,
) -> Verification {
    let _s = span!("engine.reverify", "engine");
    REVERIFIED.inc();
    iv.verify_candidate(cfg, patch)
}

/// Validates one candidate patch against the committed base: apply and
/// re-parse, fingerprint, the lint gate (when `lint_base` is set), then
/// the memo-cache — a hit is served and promoted — or an in-place
/// verification whose verdict enters the cache. `ctx_base` is the
/// (verifier context, committed base) half of the cache key.
pub(crate) fn validate(
    patch: &Patch,
    original: &NetworkConfig,
    iv: &mut IncrementalVerifier<'_>,
    topo: &Topology,
    lint_base: Option<&Baseline>,
    cache: &mut SimCache,
    (ctx_fp, base_fp): (u64, u64),
) -> Verdict {
    let cfg = match patch.apply_cloned(original) {
        Ok(cfg) if reparses(&cfg, patch) => cfg,
        _ => return Verdict::Invalid,
    };
    let key = (ctx_fp, base_fp, cfg.fingerprint());
    if lint_base.is_some_and(|base| introduces_lint_error(&cfg, patch, topo, base)) {
        LINT_GATE_REJECTED.inc();
        return Verdict::LintRejected;
    }
    if let Some(entry) = cache.get(key) {
        let stats = IncrementalStats {
            recomputed: 0,
            reused: entry.universe,
            ..IncrementalStats::default()
        };
        return Verdict::Validated {
            cfg,
            entry,
            stats,
            verification: None,
        };
    }
    let verification = iv.verify_candidate(&cfg, patch);
    let stats = iv.last_stats();
    let entry = CandidateEntry {
        failed: verification.failed_count(),
        universe: stats.recomputed + stats.reused,
    };
    cache.insert(key, entry);
    Verdict::Validated {
        cfg,
        entry,
        stats,
        verification: Some(Box::new(verification)),
    }
}

/// The lint gate: whether the candidate introduces an error finding the
/// broken network did not have. Only the patched devices are linted —
/// error rules are per-device, so every other device's error keys are
/// in `base.keys` already.
fn introduces_lint_error(
    cfg: &NetworkConfig,
    patch: &Patch,
    topo: &Topology,
    base: &Baseline,
) -> bool {
    let _s = span!("lint.gate", "lint");
    lint_devices(topo, cfg, &patch.routers())
        .errors()
        .any(|d| !base.keys.contains(&d.key()))
}

/// Safety net: a candidate's touched devices must print to parseable text.
pub(crate) fn reparses(cfg: &NetworkConfig, patch: &Patch) -> bool {
    patch.routers().into_iter().all(|r| match cfg.device(r) {
        Some(d) => acr_cfg::parse::parse_device(d.name(), &d.to_text()).is_ok(),
        None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::candidates_for_line;
    use crate::universal::universal_candidates;
    use crate::RepairCtx;
    use acr_cfg::{Edit, LineId};
    use acr_lint::lint_network;
    use acr_verify::Verifier;
    use acr_workloads::{generate, try_inject, TABLE1};
    use std::collections::HashMap;
    use std::time::Duration;

    /// The gate lints the patched devices only; the whole-network linter
    /// is the reference. Over every Table-1 fault on `wan(4,8)` and every
    /// candidate both operator vocabularies generate at every line of the
    /// broken network, the gate's verdict is "`lint_network(candidate)`
    /// has an error key `lint_network(broken)` lacks".
    #[test]
    fn touched_devices_gate_agrees_with_the_whole_network_linter() {
        let net = generate(&acr_topo::gen::wan(4, 8));
        let (mut rejected, mut passed) = (0usize, 0usize);
        for (fault, _) in TABLE1 {
            let Some(incident) = try_inject(fault, &net, 0) else {
                continue;
            };
            let broken = &incident.broken;
            let compiled = CompiledBase::new(&net.topo, broken);
            let base = Baseline::build(&net.topo, broken, &compiled);
            let reference_base = lint_network(&net.topo, broken).keys();
            assert_eq!(base.keys, reference_base);

            let (verification, out) = Verifier::new(&net.topo, &net.spec).run_full(broken);
            let ctx = RepairCtx {
                topo: &net.topo,
                cfg: broken,
                verification: &verification,
                coverage: &verification.matrix,
                arena: &out.arena,
                models: compiled.models(),
            };
            let mut patches: HashSet<Patch> = HashSet::new();
            for (router, device) in broken.devices() {
                for (line, _) in device.lines() {
                    let line = LineId::new(router, line);
                    patches.extend(candidates_for_line(line, &ctx).into_iter().map(|f| f.patch));
                    patches.extend(universal_candidates(line, &ctx));
                }
            }
            for patch in patches {
                let Ok(cfg) = patch.apply_cloned(broken) else {
                    continue;
                };
                let reference = lint_network(&net.topo, &cfg)
                    .errors()
                    .any(|d| !reference_base.contains(&d.key()));
                let gate = introduces_lint_error(&cfg, &patch, &net.topo, &base);
                assert_eq!(gate, reference, "{fault:?}: {patch}");
                if gate {
                    rejected += 1;
                } else {
                    passed += 1;
                }
            }
        }
        assert!(
            rejected >= 20 && passed >= 200,
            "both verdicts must be exercised: {rejected} rejected, {passed} passed"
        );
    }

    /// Two different patches that render to the same configuration —
    /// `Replace { r, i, s }` and `Delete { r, i }` then
    /// `Insert { r, i, s }` — validated in order against one cache: the
    /// second is an ordinary memo hit, served the first's entry, with
    /// nothing simulated and no simulation time.
    #[test]
    fn a_candidate_rendering_to_an_earlier_one_is_a_memo_hit() {
        let net = generate(&acr_topo::gen::wan(4, 8));
        let mut checked = 0;
        let incidents = TABLE1.iter().flat_map(|(fault, _)| {
            let net = &net;
            (0..3).filter_map(move |seed| try_inject(*fault, net, seed).map(|i| (fault, i)))
        });
        for (fault, incident) in incidents {
            let broken = &incident.broken;
            let (verification, out) = Verifier::new(&net.topo, &net.spec).run_full(broken);
            let compiled = CompiledBase::new(&net.topo, broken);
            let ctx = RepairCtx {
                topo: &net.topo,
                cfg: broken,
                verification: &verification,
                coverage: &verification.matrix,
                arena: &out.arena,
                models: compiled.models(),
            };
            let replacement = (broken.devices())
                .flat_map(|(router, device)| {
                    device
                        .lines()
                        .map(move |(line, _)| LineId::new(router, line))
                })
                .flat_map(|line| candidates_for_line(line, &ctx))
                .find_map(|fix| match fix.patch.edits.as_slice() {
                    [Edit::Replace {
                        router,
                        index,
                        stmt,
                    }] => {
                        let mut twin = Patch::single(Edit::Delete {
                            router: *router,
                            index: *index,
                        });
                        twin.push(Edit::Insert {
                            router: *router,
                            index: *index,
                            stmt: stmt.clone(),
                        });
                        let renders =
                            |p: &Patch| p.apply_cloned(broken).ok().map(|c| c.fingerprint());
                        (renders(&fix.patch).is_some() && renders(&fix.patch) == renders(&twin))
                            .then_some((fix.patch, twin))
                    }
                    _ => None,
                });
            let Some((replace, twin)) = replacement else {
                continue;
            };
            assert_ne!(replace, twin);

            let mut iv = IncrementalVerifier::new(&net.topo, &net.spec);
            iv.commit(broken);
            let ctx_base = (iv.verifier().context_fingerprint(), broken.fingerprint());
            let mut cache = SimCache::default();
            let mut run = |patch| match validate(
                patch, broken, &mut iv, &net.topo, None, &mut cache, ctx_base,
            ) {
                Verdict::Validated {
                    entry,
                    stats,
                    verification,
                    ..
                } => (entry, stats, verification.is_none()),
                _ => panic!("{fault:?}: {patch} validates"),
            };
            let (entry, stats, served) = run(&replace);
            assert!(!served && stats.recomputed > 0, "{fault:?}: {replace}");
            let (again, stats, served) = run(&twin);
            assert!(served, "{fault:?}: {twin} is memo-served");
            assert_eq!(again, entry, "{fault:?}: {twin}");
            assert_eq!(stats.recomputed, 0, "{fault:?}: {twin}");
            assert_eq!(stats.reused, entry.universe, "{fault:?}: {twin}");
            let sim_time = [stats.compile, stats.establish, stats.simulate];
            assert_eq!(sim_time, [Duration::ZERO; 3], "{fault:?}: {twin}");
            checked += 1;
        }
        assert!(
            checked >= 3,
            "only {checked} incidents had a Replace candidate"
        );
    }

    /// A cold job builds its static baseline on a scoped thread beside
    /// the commit. Over every Table-1 fault on `wan(4,8)`, the baseline
    /// the engine parks after a cold resident job equals one built
    /// sequentially from a fresh compile of the broken network.
    #[test]
    fn the_overlapped_baseline_equals_a_sequential_build() {
        let net = generate(&acr_topo::gen::wan(4, 8));
        let engine = crate::RepairEngine::with_defaults(&net.topo, &net.spec);
        for (fault, _) in TABLE1 {
            let Some(incident) = try_inject(fault, &net, 0) else {
                continue;
            };
            let broken = &incident.broken;
            let mut session = crate::NetworkSession::new();
            engine.repair_resident(broken, &mut session);
            assert_eq!(
                session.resident_misses, 1,
                "{fault:?}: the job commits cold"
            );
            let overlapped = session.take(broken.fingerprint()).expect("parked").statics;
            let compiled = CompiledBase::new(&net.topo, broken);
            let sequential = Baseline::build(&net.topo, broken, &compiled);
            assert_eq!(overlapped.keys, sequential.keys, "{fault:?}");
            assert_eq!(overlapped.diags, sequential.diags, "{fault:?}");
            let (pops, reference) = (overlapped.facts.iterations, sequential.facts.iterations);
            assert_eq!(pops, reference, "{fault:?}");
            assert_eq!(
                overlapped.facts.fact_count(),
                sequential.facts.fact_count(),
                "{fault:?}"
            );
        }
    }

    /// Validates the candidates the templates generate at the broken
    /// network's top-4 suspicious lines twice, in order, against one
    /// memo-cache: the first pass verifies each rendered configuration in
    /// place once, the second is all memo-served. Each memo-served
    /// candidate is re-verified as the engine does when it first ranks
    /// one, and must match the first pass's in-place verdict
    /// (records, the memo entry's failed count, per-test coverage) and
    /// `run_full`'s coverage; a failed test must cover its destination
    /// owner's origination lines. Returns how many verdicts were checked.
    fn check_memo_served(
        topo: &Topology,
        spec: &acr_verify::Spec,
        broken: &NetworkConfig,
    ) -> usize {
        let mut iv = IncrementalVerifier::new(topo, spec);
        let base = iv.commit(broken);
        let committed = iv.base().expect("committed").clone();
        let base_coverage = iv
            .verifier()
            .coverage(&base, iv.arena(), committed.models());
        let ranking = acr_localize::localize(&base_coverage, acr_localize::SbflFormula::Tarantula);
        let mut patches: Vec<Patch> = Vec::new();
        {
            let ctx = RepairCtx {
                topo,
                cfg: broken,
                verification: &base,
                coverage: &base_coverage,
                arena: iv.arena(),
                models: committed.models(),
            };
            for (line, _) in ranking.entries().iter().take(4) {
                for fix in candidates_for_line(*line, &ctx) {
                    if !patches.contains(&fix.patch) {
                        patches.push(fix.patch);
                    }
                }
            }
        }
        let ctx_base = (iv.verifier().context_fingerprint(), broken.fingerprint());
        let mut cache = SimCache::default();
        // First pass: each rendered configuration is verified in place
        // once; a later candidate rendering to it is a memo hit with the
        // same entry.
        let mut in_place: HashMap<u64, (CandidateEntry, Verification)> = HashMap::new();
        let mut validated = 0;
        for patch in &patches {
            let verdict = validate(patch, broken, &mut iv, topo, None, &mut cache, ctx_base);
            let Verdict::Validated {
                cfg,
                entry,
                verification,
                ..
            } = verdict
            else {
                continue;
            };
            validated += 1;
            match verification {
                Some(v) => assert!(in_place.insert(cfg.fingerprint(), (entry, *v)).is_none()),
                None => assert_eq!(in_place[&cfg.fingerprint()].0, entry, "{patch}"),
            }
        }

        let records = |v: &Verification| -> Vec<_> {
            (v.records.iter())
                .map(|r| (r.passed, r.violation.clone(), r.path.clone()))
                .collect()
        };
        let full = Verifier::new(topo, spec);
        let mut checked = 0;
        for patch in &patches {
            let verdict = validate(patch, broken, &mut iv, topo, None, &mut cache, ctx_base);
            let Verdict::Validated {
                cfg,
                entry: hit,
                verification: served,
                ..
            } = verdict
            else {
                continue;
            };
            assert!(served.is_none(), "{patch}: a memo hit");
            let (entry, in_place) = &in_place[&cfg.fingerprint()];
            let again = reverify(&mut iv, &cfg, patch);
            assert_eq!(records(&again), records(in_place), "{patch}");
            assert_eq!(hit, *entry, "{patch}");
            assert_eq!(hit.failed, again.failed_count(), "{patch}");

            let compiled = committed.delta(topo, &cfg, patch).0;
            let models = compiled.models();
            let coverage = iv.verifier().coverage(&again, iv.arena(), models);
            let reference = iv.verifier().coverage(in_place, iv.arena(), models);
            for (x, y) in coverage.tests().iter().zip(reference.tests()) {
                assert_eq!(x, y, "{patch}: test {}", x.test);
            }
            assert_eq!(coverage, full.run_full(&cfg).0.matrix, "{patch}");
            for (rec, cov) in again.records.iter().zip(coverage.tests()) {
                let Some(owner) = topo.delivery_router(rec.flow.dst).filter(|_| !rec.passed) else {
                    continue;
                };
                let m = &models[owner.index()];
                let origins = (m.asn.map(|(_, l)| l).into_iter())
                    .chain(
                        m.networks
                            .iter()
                            .filter(|(p, _)| p.contains(rec.flow.dst))
                            .map(|(_, l)| *l),
                    )
                    .chain(
                        m.static_routes
                            .iter()
                            .filter(|r| r.prefix.contains(rec.flow.dst))
                            .map(|r| r.line),
                    )
                    .chain(m.redistribute.iter().map(|(_, l)| *l));
                for line in origins {
                    let line = LineId::new(owner, line);
                    assert!(cov.lines.contains(&line), "{patch}: {line}");
                }
            }
            checked += 1;
        }
        assert_eq!(checked, validated, "the second pass validates as the first");
        checked
    }

    /// A memo-served verdict carries no provenance, and re-verifying it
    /// restores exactly what the in-place verdict had: over every Table-1
    /// class at seeds 0–2 on `wan(4,8)` and the Figure 2 incident.
    #[test]
    fn memo_served_candidates_reverify_to_their_in_place_verdicts() {
        let net = generate(&acr_topo::gen::wan(4, 8));
        let mut checked = 0;
        for (fault, _) in TABLE1 {
            for seed in 0..3 {
                if let Some(incident) = try_inject(fault, &net, seed) {
                    checked += check_memo_served(&net.topo, &net.spec, &incident.broken);
                }
            }
        }
        let fig2 = acr_workloads::fig2::fig2_incident();
        checked += check_memo_served(&fig2.topo, &fig2.spec, &fig2.broken);
        assert!(
            checked >= 100,
            "only {checked} memo-served verdicts checked"
        );
    }
}
