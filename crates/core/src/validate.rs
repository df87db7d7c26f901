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
//! The broken network's static [`Baseline`] is read off the verifier's
//! committed `CompiledBase`: a job compiles the broken network once, for
//! the verifier, and the lint and flow baselines reuse that compiled
//! form.
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
//! A computed verdict leaves the persistent arena as a pruned copy of its
//! own closures ([`make_entry`], one ascending pass) together with the
//! pruned→persistent id list, which an in-batch dup shares. The engine
//! turns a kept verdict back into persistent-arena roots in index order
//! ([`persistent_verification`]): a computed verdict's roots are mapped
//! through that list — re-interning would return the same ids and intern
//! nothing — and a **memo hit**, whose entry was pruned from another
//! batch's (or another job's) arena, is re-interned (absorbed).
//!
//! **One verdict type.** However a candidate was resolved — simulated,
//! served from the memo-cache, or deduplicated against an earlier
//! candidate of the same batch — its verdict is the same [`Verdict`]
//! value holding the same `Arc<CandidateEntry>` the memo-cache stores:
//! the verification and its pruned arena exist once, and every holder
//! shares them.

use acr_cfg::{NetworkConfig, Patch};
use acr_flow::FlowFacts;
use acr_lint::{lint_devices, lint_with_models, DiagKey, Diagnostic};
use acr_obs::metrics::Counter;
use acr_obs::span;
use acr_sim::{CompiledBase, DerivId};
use acr_topo::Topology;
use acr_verify::{
    make_entry, CandidateEntry, IncrementalStats, IncrementalVerifier, SimCache, Verification,
};
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
        /// The verification and the pruned arena its roots resolve in —
        /// the very entry the memo-cache holds.
        entry: Arc<CandidateEntry>,
        stats: IncrementalStats,
        /// Simulated in this run: entry id → persistent-arena id, the map
        /// [`make_entry`] returned. Re-interning the entry into the
        /// persistent arena would return exactly these ids and intern
        /// nothing, so the engine maps the roots instead. `None` for a
        /// memo hit, which the engine absorbs.
        persistent_ids: Option<Arc<[DerivId]>>,
    },
}

/// A kept verdict's verification with roots in the persistent arena:
/// mapped back when it was simulated in this run, re-interned for a memo
/// hit (the engine calls this in candidate-index order, so the arena
/// grows deterministically).
pub(crate) fn persistent_verification(
    iv: &mut IncrementalVerifier<'_>,
    entry: &CandidateEntry,
    persistent_ids: Option<&[DerivId]>,
) -> Verification {
    let _s = span!("engine.absorb", "engine");
    match persistent_ids {
        Some(ids) => entry.verification_in(ids),
        None => iv.absorb_verification(&entry.verification, &entry.arena),
    }
}

impl Verdict {
    fn entry(&self) -> Option<&Arc<CandidateEntry>> {
        match self {
            Verdict::Validated { entry, .. } => Some(entry),
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
    Hit(Arc<CandidateEntry>),
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
                Plan::Compute => cache.insert_candidate(key, entry.clone()),
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
/// memo hit or a simulation on the persistent verifier. A simulated
/// verdict leaves pruned to exactly its own closure, with the
/// pruned→persistent id list [`make_entry`] returns.
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
            entry: entry.clone(),
            stats: IncrementalStats {
                recomputed: 0,
                reused: entry.universe,
                ..IncrementalStats::default()
            },
            persistent_ids: None,
        },
        Plan::Compute => {
            let verification = iv.verify_candidate(&it.cfg, &it.patch);
            let stats = iv.last_stats();
            let _s = span!("verify.prune", "verify");
            let universe = stats.recomputed + stats.reused;
            let (entry, ids) = make_entry(verification, iv.arena(), universe);
            Verdict::Validated {
                entry: Arc::new(entry),
                stats,
                persistent_ids: Some(ids.into()),
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

    /// Validates the candidates the templates generate at the broken
    /// network's top suspicious lines twice against one memo-cache. In the
    /// first batch every validated verdict is simulated, and its mapped
    /// roots are checked against re-interning. In the second every one is a
    /// memo hit, absorbed with the first batch's failing set and per-test
    /// closure lines. Returns how many verdicts were checked.
    fn check_in_place(topo: &Topology, spec: &acr_verify::Spec, broken: &NetworkConfig) -> usize {
        let mut iv = IncrementalVerifier::new(topo, spec);
        let base = iv.commit(broken);
        let ranking = acr_localize::localize(&base.matrix, acr_localize::SbflFormula::Tarantula);
        let mut patches: Vec<Patch> = Vec::new();
        {
            let ctx = RepairCtx {
                topo,
                cfg: broken,
                verification: &base,
                arena: iv.arena(),
                models: iv.base().expect("committed").models(),
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
        let len = iv.arena().len();
        let mut mapped: Vec<Option<Verification>> = Vec::new();
        for vc in first {
            let Verdict::Validated {
                entry,
                persistent_ids,
                ..
            } = vc.verdict
            else {
                mapped.push(None);
                continue;
            };
            let ids = persistent_ids.expect("a verdict simulated in this run carries its ids");
            let absorbed = iv.absorb_verification(&entry.verification, &entry.arena);
            let verification = persistent_verification(&mut iv, &entry, Some(&ids));
            assert_eq!(verification, absorbed);
            assert_eq!(iv.arena().len(), len, "absorbing interned nothing");
            mapped.push(Some(verification));
        }

        let failing = |v: &Verification| -> Vec<_> {
            v.records
                .iter()
                .filter(|r| !r.passed)
                .map(|r| r.id)
                .collect()
        };
        let closures = |iv: &IncrementalVerifier<'_>, v: &Verification| -> Vec<_> {
            (v.records.iter())
                .map(|r| iv.arena().closure_lines(r.deriv_roots.iter().copied()))
                .collect()
        };
        let second = validate_batch(patches, broken, &mut iv, topo, None, &mut cache, ctx_base);
        let mut checked = 0;
        for (vc, first) in second.into_iter().zip(mapped) {
            let Verdict::Validated {
                entry,
                persistent_ids,
                ..
            } = vc.verdict
            else {
                assert!(first.is_none(), "{}: validated only once", vc.patch);
                continue;
            };
            let first = first.expect("validated in both batches");
            assert!(vc.memo_served, "{}: a repeat is memo-served", vc.patch);
            assert!(persistent_ids.is_none(), "a memo hit is absorbed");
            let absorbed = persistent_verification(&mut iv, &entry, None);
            assert_eq!(failing(&absorbed), failing(&first), "{}", vc.patch);
            assert_eq!(
                closures(&iv, &absorbed),
                closures(&iv, &first),
                "{}",
                vc.patch
            );
            checked += 1;
        }
        for (id, n) in iv.arena().iter() {
            assert!(n.parents.iter().all(|p| *p < id), "parents precede");
        }
        checked
    }

    /// The in-place shortcut is exact: over every Table-1 class at seeds
    /// 0–2 on `wan(4,8)` and the Figure 2 incident, a verdict's roots
    /// mapped through its pruned→persistent list equal what re-interning
    /// it into the persistent arena returns, and re-interning adds no
    /// node. The absorb path that remains — a memo hit of the same batch
    /// validated again — yields the same failing tests and per-test
    /// closure lines.
    #[test]
    fn in_place_verdicts_map_back_as_absorb_would() {
        let net = generate(&acr_topo::gen::wan(4, 8));
        let mut checked = 0;
        for (fault, _) in TABLE1 {
            for seed in 0..3 {
                if let Some(incident) = try_inject(fault, &net, seed) {
                    checked += check_in_place(&net.topo, &net.spec, &incident.broken);
                }
            }
        }
        let fig2 = acr_workloads::fig2::fig2_incident();
        checked += check_in_place(&fig2.topo, &fig2.spec, &fig2.broken);
        assert!(checked >= 100, "only {checked} in-place verdicts checked");
    }
}
