//! The engine's validate stage: lint gate and memo-cache in front of
//! the persistent incremental verifier.
//!
//! Each iteration hands this module the batch of fresh candidate
//! patches. Per candidate the stage (1) materializes and re-parses the
//! configuration, (2) runs the static lint gate, (3) serves the verdict
//! from the simulation memo-cache when the config fingerprint was seen
//! before, and (4) otherwise verifies it in place on the job's
//! [`IncrementalVerifier`] — its persistent arena, its cross-candidate
//! policy memo — in candidate-index order.
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
//! byte-exact to recomputing, and lint is stateless. The batch runs in
//! three passes, all in candidate-index order:
//!
//! - **plan** peeks the memo-cache for every candidate at batch start (a
//!   peek does not promote), so which candidates are hits never depends
//!   on an insertion or LRU eviction made inside the same batch;
//!   candidates that render to the *same* configuration are
//!   deduplicated by fingerprint (the lowest index resolves, the rest
//!   reuse its verdict);
//! - **resolve** lints and verifies the rest in place;
//! - the **post-pass** inserts fresh verdicts and promotes hits and dups.
//!
//! **Verdicts, not provenance.** A computed verdict's [`Verification`]
//! — records whose derivation roots resolve in the verifier's persistent
//! arena, no coverage — stays where it was simulated and moves into the
//! kept variant; an in-batch dup shares it. The memo-cache keeps only
//! what a hit's consumer reads ([`CandidateEntry`]: the failed count and
//! the universe size), so a memo-served verdict carries no verification.
//! The engine builds a variant's coverage the first time it ranks it,
//! and a memo-served variant is re-verified then ([`reverify`]) against
//! the same committed base — most kept candidates are never ranked, so
//! most verdicts never pay for provenance.

use acr_cfg::{NetworkConfig, Patch};
use acr_flow::FlowFacts;
use acr_lint::{lint_devices, lint_with_models, DiagKey, Diagnostic};
use acr_obs::metrics::Counter;
use acr_obs::span;
use acr_sim::CompiledBase;
use acr_topo::Topology;
use acr_verify::{CandidateEntry, IncrementalStats, IncrementalVerifier, SimCache, Verification};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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
/// verdict type between a candidate's plan and the engine loop.
#[derive(Clone)]
pub(crate) enum Verdict {
    /// The patch failed to apply or its devices no longer re-parse; it
    /// never reached the validators.
    Invalid,
    /// Rejected by the static lint gate before simulation.
    LintRejected,
    /// Verified: freshly simulated, or served from memo.
    Validated {
        /// The verdict as the memo-cache holds it.
        entry: CandidateEntry,
        stats: IncrementalStats,
        /// The verification, roots in the verifier's persistent arena;
        /// `None` when memo-served (see [`reverify`]).
        verification: Option<Arc<Verification>>,
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

impl Verdict {
    fn entry(&self) -> Option<CandidateEntry> {
        match self {
            Verdict::Validated { entry, .. } => Some(*entry),
            _ => None,
        }
    }
}

/// One batch entry, index-aligned with the incoming patch order.
pub(crate) struct ValidatedCandidate {
    pub patch: Patch,
    pub cfg: Option<NetworkConfig>,
    pub verdict: Verdict,
    /// The verdict came from memo (a cache hit, or an earlier candidate
    /// of this batch with the same rendered config) rather than from a
    /// simulation of this candidate: a validated one counts as
    /// `validations_cached`.
    pub memo_served: bool,
}

struct Prepared {
    patch: Patch,
    cfg: NetworkConfig,
    fp: u64,
}

/// How one prepared candidate gets its verdict.
enum Plan {
    /// Reuse the verdict of an earlier item index (same rendered
    /// config).
    Dup(usize),
    /// The memo-cache held this fingerprint at batch start.
    Hit(CandidateEntry),
    /// Simulate.
    Compute,
}

/// Validates a batch of candidate patches against the committed base.
/// Results come back index-aligned with `fresh`; all cache mutations
/// happen here, in candidate-index order.
pub(crate) fn validate_batch(
    fresh: Vec<Patch>,
    original: &NetworkConfig,
    iv: &mut IncrementalVerifier<'_>,
    topo: &Topology,
    lint_base: Option<&Baseline>,
    cache: &mut SimCache,
    ctx_base: (u64, u64),
) -> Vec<ValidatedCandidate> {
    // ---- plan: materialize configs, fingerprint, dedup, and peek the
    // memo-cache (not mutated until the post-pass, so every peek sees
    // batch-start state) ------------------------------------------------
    let prepare = span!("engine.validate.prepare", "engine").arg("candidates", fresh.len() as u64);
    let (ctx_fp, base_fp) = ctx_base;
    let mut out: Vec<ValidatedCandidate> = Vec::with_capacity(fresh.len());
    let mut items: Vec<(usize, Prepared)> = Vec::new();
    let mut plans: Vec<Plan> = Vec::new();
    let mut by_fp: HashMap<u64, usize> = HashMap::new();
    for patch in fresh {
        let invalid = |patch| ValidatedCandidate {
            patch,
            cfg: None,
            verdict: Verdict::Invalid,
            memo_served: false,
        };
        let cfg = match patch.apply_cloned(original) {
            Ok(cfg) if reparses(&cfg, &patch) => cfg,
            _ => {
                out.push(invalid(patch));
                continue;
            }
        };
        let fp = cfg.fingerprint();
        let first = *by_fp.entry(fp).or_insert(items.len());
        plans.push(if first != items.len() {
            Plan::Dup(first)
        } else if let Some(entry) = cache.peek_candidate((ctx_fp, base_fp, fp)) {
            Plan::Hit(entry)
        } else {
            Plan::Compute
        });
        items.push((out.len(), Prepared { patch, cfg, fp }));
        out.push(invalid(Patch::new())); // placeholder, replaced below
    }
    drop(prepare);

    // ---- resolve: lint + simulate in place, in index order -----------
    let resolved: Vec<Option<Verdict>> = (items.iter().zip(&plans).enumerate())
        .map(|(k, ((_, it), plan))| match plan {
            Plan::Dup(_) => None,
            plan => {
                let _s = span!("engine.validate.candidate", "engine").arg("idx", k as u64);
                Some(resolve(it, plan, topo, lint_base, iv))
            }
        })
        .collect();

    // ---- post-pass: dup resolution + cache maintenance, index order --
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(items.len());
    for (k, res) in resolved.into_iter().enumerate() {
        let verdict = match (&plans[k], res) {
            (Plan::Dup(j), _) => verdicts[*j].clone(),
            (_, Some(verdict)) => verdict,
            (_, None) => unreachable!("only dup plans are left unresolved"),
        };
        // A fresh simulation enters the cache; a hit is promoted — and so
        // is a dup, which is an insert-then-hit.
        if let Some(entry) = verdict.entry() {
            let key = (ctx_fp, base_fp, items[k].1.fp);
            match plans[k] {
                Plan::Compute => cache.insert_candidate(key, entry),
                Plan::Hit(_) | Plan::Dup(_) => cache.touch_candidate(key),
            }
        }
        verdicts.push(verdict);
    }

    for (((slot, it), verdict), plan) in items.into_iter().zip(verdicts).zip(&plans) {
        out[slot] = ValidatedCandidate {
            patch: it.patch,
            cfg: Some(it.cfg),
            verdict,
            memo_served: !matches!(plan, Plan::Compute),
        };
    }
    out
}

/// The lint gate: whether the candidate introduces an error finding the
/// broken network did not have. Only the patched devices are linted —
/// error rules are per-device, so every other device's error keys are
/// in `base.keys` already.
fn introduces_lint_error(it: &Prepared, topo: &Topology, base: &Baseline) -> bool {
    let _s = span!("lint.gate", "lint");
    lint_devices(topo, &it.cfg, &it.patch.routers())
        .errors()
        .any(|d| !base.keys.contains(&d.key()))
}

/// Resolves one non-dup candidate: the lint gate first, then the planned
/// memo hit or a simulation on the persistent verifier.
fn resolve(
    it: &Prepared,
    plan: &Plan,
    topo: &Topology,
    lint_base: Option<&Baseline>,
    iv: &mut IncrementalVerifier<'_>,
) -> Verdict {
    if lint_base.is_some_and(|base| introduces_lint_error(it, topo, base)) {
        LINT_GATE_REJECTED.inc();
        return Verdict::LintRejected;
    }
    match plan {
        Plan::Hit(entry) => Verdict::Validated {
            entry: *entry,
            stats: IncrementalStats {
                recomputed: 0,
                reused: entry.universe,
                ..IncrementalStats::default()
            },
            verification: None,
        },
        Plan::Compute => {
            let verification = iv.verify_candidate(&it.cfg, &it.patch);
            let stats = iv.last_stats();
            let entry = CandidateEntry {
                failed: verification.failed_count(),
                universe: stats.recomputed + stats.reused,
            };
            Verdict::Validated {
                entry,
                stats,
                verification: Some(Arc::new(verification)),
            }
        }
        Plan::Dup(_) => unreachable!("dups never reach resolve"),
    }
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
    use acr_cfg::LineId;
    use acr_lint::lint_network;
    use acr_verify::Verifier;
    use acr_workloads::{generate, try_inject, TABLE1};

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
                let fp = cfg.fingerprint();
                let it = Prepared { patch, cfg, fp };
                let gate = introduces_lint_error(&it, &net.topo, &base);
                assert_eq!(gate, reference, "{fault:?}: {}", it.patch);
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
    /// network's top-4 suspicious lines twice against one memo-cache: the
    /// first batch verifies in place, the second is all memo-served. Each
    /// memo-served candidate is re-verified as the engine does when it
    /// first ranks one, and must match the first batch's in-place verdict
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
        let first = validate_batch(
            patches.clone(),
            broken,
            &mut iv,
            topo,
            None,
            &mut cache,
            ctx_base,
        );
        let second = validate_batch(patches, broken, &mut iv, topo, None, &mut cache, ctx_base);

        let records = |v: &Verification| -> Vec<_> {
            (v.records.iter())
                .map(|r| (r.passed, r.violation.clone(), r.path.clone()))
                .collect()
        };
        let full = Verifier::new(topo, spec);
        let mut checked = 0;
        for (a, b) in first.into_iter().zip(second) {
            let Verdict::Validated {
                entry,
                verification,
                ..
            } = a.verdict
            else {
                assert!(b.verdict.entry().is_none(), "{}: validated once", b.patch);
                continue;
            };
            let in_place = verification.expect("the first batch simulates in place");
            let Verdict::Validated {
                entry: hit,
                verification: served,
                ..
            } = b.verdict
            else {
                panic!("{}: validated in the first batch only", b.patch);
            };
            assert!(b.memo_served && served.is_none(), "{}: a memo hit", b.patch);
            let cfg = b.cfg.expect("validated candidates carry a config");
            let again = reverify(&mut iv, &cfg, &b.patch);
            assert_eq!(records(&again), records(&in_place), "{}", b.patch);
            assert_eq!(hit, entry, "{}", b.patch);
            assert_eq!(hit.failed, again.failed_count(), "{}", b.patch);

            let compiled = committed.delta(topo, &cfg, &b.patch).0;
            let models = compiled.models();
            let coverage = iv.verifier().coverage(&again, iv.arena(), models);
            let reference = iv.verifier().coverage(&in_place, iv.arena(), models);
            for (x, y) in coverage.tests().iter().zip(reference.tests()) {
                assert_eq!(x, y, "{}: test {}", b.patch, x.test);
            }
            assert_eq!(coverage, full.run_full(&cfg).0.matrix, "{}", b.patch);
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
                    assert!(cov.lines.contains(&line), "{}: {line}", b.patch);
                }
            }
            checked += 1;
        }
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
