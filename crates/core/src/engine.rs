//! The localize–fix–validate repair loop (Figure 4).
//!
//! Each iteration:
//!
//! 1. **Localize** — score every covered line of each surviving variant
//!    with SBFL (Tarantula by default) and take the most suspicious ones,
//! 2. **Fix** — instantiate the templates attached to those lines
//!    (brute-force Cartesian product, or genetic mutation + crossover),
//! 3. **Validate** — run each candidate through the DNA-style incremental
//!    verifier; the fitness of a candidate is its number of failed tests,
//!    and candidates with fitness above the previous iteration's are
//!    discarded (§5, Fitness Function).
//!
//! Termination (§5): a feasible update is found (fitness 0), no more
//! candidates can be generated (S = ∅), or the iteration cap (500) is hit.

use crate::ctx::RepairCtx;
use crate::session::{NetworkSession, Slot};
use crate::strategy::{crossover, Strategy};
use crate::templates::{candidates_for_line, CandidateFix, TemplateKind};
use crate::universal::universal_candidates;
use crate::validate::{reverify, validate, Baseline, Verdict};
use acr_cfg::{LineId, NetworkConfig, Patch};
use acr_lint::Diagnostic;
use acr_localize::{localize, localize_boosted, Ranking, SbflFormula};
use acr_net_types::SplitMix64;
use acr_obs::metrics::Counter;
use acr_obs::{journal, json, span, Stages};
use acr_prov::CoverageMatrix;
use acr_sim::CompiledBase;
use acr_topo::Topology;
use acr_verify::{IncrementalVerifier, SimCache, Spec, Verification};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

static RUNS: Counter = Counter::new("engine.runs");
static ITERATIONS: Counter = Counter::new("engine.iterations");
static CAND_GENERATED: Counter = Counter::new("engine.candidates.generated");
static CAND_LINT_REJECTED: Counter = Counter::new("engine.candidates.lint_rejected");
static CAND_VALIDATED: Counter = Counter::new("engine.candidates.validated");
static CAND_CACHED: Counter = Counter::new("engine.candidates.cached");
static CAND_INVALID: Counter = Counter::new("engine.candidates.invalid");
static CAND_KEPT: Counter = Counter::new("engine.candidates.kept");
static RESIDENT_HITS: Counter = Counter::new("engine.resident.hits");
static RESIDENT_MISSES: Counter = Counter::new("engine.resident.misses");

/// The paper's iteration cap.
pub const DEFAULT_MAX_ITERATIONS: usize = 500;

/// Population cap across iterations.
const MAX_POPULATION: usize = 8;

/// Which change-operator vocabulary the engine draws candidates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatorSet {
    /// The curated Table-1 templates (the paper's current design).
    Curated,
    /// Donor-based universal operators only (the paper's §6 direction).
    Universal,
    /// Both vocabularies, deduplicated by the candidate patch.
    Both,
}

/// Engine tunables.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    pub max_iterations: usize,
    pub strategy: Strategy,
    pub formula: SbflFormula,
    /// RNG seed — repairs are fully reproducible.
    pub seed: u64,
    /// Restrict fix generation to these templates (`None` = all). Useful
    /// to reproduce a specific repair style, e.g. the paper's prefix-list
    /// adjustments on the Figure 2 incident. Only filters the curated
    /// vocabulary.
    pub allowed_templates: Option<Vec<TemplateKind>>,
    /// The operator vocabulary (curated templates, §6 universal donors,
    /// or both).
    pub operators: OperatorSet,
    /// Run the `acr-lint` static pass alongside the loop: lint findings
    /// boost SBFL suspiciousness, and candidates that introduce a *new*
    /// lint error (relative to the broken baseline) are rejected before
    /// they reach the simulator.
    pub lint: bool,
    /// Has no effect: every candidate is verified in place on the job's
    /// persistent verifier, and nothing reads this field. It stays only
    /// because the `benchmark/` harness reads its default, and is removed
    /// after the next change to that harness.
    pub threads: usize,
    /// Free-form labels carried verbatim into [`RepairReport::tags`] and
    /// the run journal — the scenario harness stamps the scenario family
    /// (e.g. `family:interacting`) here so every report and journal line
    /// is attributable to its corpus slice. Never interpreted by the
    /// engine.
    pub tags: Vec<String>,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            max_iterations: DEFAULT_MAX_ITERATIONS,
            strategy: Strategy::default(),
            formula: SbflFormula::Tarantula,
            seed: 7,
            allowed_templates: None,
            operators: OperatorSet::Curated,
            lint: true,
            threads: 0,
            tags: Vec::new(),
        }
    }
}

/// Provenance of one slice of a repair patch: which template produced
/// it, at which suspicious line, in which iteration, and how many edits
/// it contributed. A multi-patch repair's [`RepairReport::attribution`]
/// is the ordered list of segments behind the winning patch — the answer
/// to "which fix addressed which fault".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchSegment {
    /// Iteration that produced this segment (0 = the empty root).
    pub iteration: usize,
    /// The producing operator: a `TemplateKind` debug name, `"crossover"`
    /// for recombined offspring, or `"pair"` for a beam pairwise combine.
    pub op: String,
    /// The suspicious line the operator expanded (crossover has none).
    pub origin: Option<LineId>,
    /// Edits this segment contributed to the full patch.
    pub edits: usize,
}

impl PatchSegment {
    fn of_fix(iteration: usize, fix: &CandidateFix) -> Self {
        PatchSegment {
            iteration,
            op: format!("{:?}", fix.template),
            origin: Some(fix.origin),
            edits: fix.patch.len(),
        }
    }
}

/// Per-iteration accounting (feeds the Figure 4 workflow experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationStats {
    pub iteration: usize,
    /// The iteration's fitness: the largest fitness among preserved
    /// updates (§5), or the previous fitness if nothing was preserved.
    pub fitness: usize,
    /// Best (lowest) fitness in the population after this iteration.
    pub best_fitness: usize,
    pub generated: usize,
    pub kept: usize,
    /// Control-plane prefixes re-simulated / reused across this
    /// iteration's validations.
    pub recomputed_prefixes: usize,
    pub reused_prefixes: usize,
    /// Candidates rejected by the static lint gate before simulation.
    pub lint_rejected: usize,
    /// Candidates actually simulated this iteration.
    pub validated: usize,
    /// Candidates served from the simulation memo-cache.
    pub cached: usize,
    /// Candidates whose patch failed to apply or re-parse.
    pub invalid: usize,
}

/// How a repair run ended.
#[derive(Debug, Clone)]
pub enum RepairOutcome {
    /// A feasible update: every test passes.
    Fixed {
        patch: Patch,
        repaired: NetworkConfig,
    },
    /// The candidate set dried up before reaching fitness 0.
    NoCandidates {
        best_patch: Patch,
        best_fitness: usize,
    },
    /// The iteration cap was reached.
    IterationLimit {
        best_patch: Patch,
        best_fitness: usize,
    },
}

impl RepairOutcome {
    /// Whether the run produced a feasible update.
    pub fn is_fixed(&self) -> bool {
        matches!(self, RepairOutcome::Fixed { .. })
    }
}

/// Wall-clock split across the repair loop's stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Initial commit of the broken configuration (base verification
    /// plus the lint baseline).
    pub commit: Duration,
    /// Localize + fix: candidate generation, summed over iterations.
    pub generate: Duration,
    /// Candidate validation (lint gate, memo-cache, simulation),
    /// summed over iterations.
    pub validate: Duration,
    /// Selection and population bookkeeping, summed over iterations.
    pub select: Duration,
    /// Within validation: device-model compilation (and origin-index
    /// maintenance), summed over every simulator build.
    pub sim_compile: Duration,
    /// Within validation: BGP session establishment.
    pub sim_establish: Duration,
    /// Within validation: per-prefix simulation and FIB assembly.
    pub sim_simulate: Duration,
    /// Within `sim_simulate`: per-prefix convergence alone (worklist
    /// iteration, excluding merge/FIB assembly).
    pub sim_converge: Duration,
}

/// The full report of one repair run.
#[derive(Debug, Clone)]
pub struct RepairReport {
    pub outcome: RepairOutcome,
    pub iterations: Vec<IterationStats>,
    pub initial_failed: usize,
    /// Candidate validations that actually ran a simulation.
    pub validations: usize,
    /// Candidate validations served from the simulation memo-cache
    /// (identical verdicts, no simulation).
    pub validations_cached: usize,
    /// Per-stage wall-clock breakdown.
    pub stage: StageTimes,
    pub wall: Duration,
    /// Per-patch provenance of the best patch: one [`PatchSegment`] per
    /// operator application that built it, in application order.
    pub attribution: Vec<PatchSegment>,
    /// The [`RepairConfig::tags`] of the producing run, verbatim.
    pub tags: Vec<String>,
}

impl RepairReport {
    /// Number of iterations executed.
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// The candidate-accounting identity every report must satisfy:
    /// per iteration, every generated candidate lands in exactly one
    /// outcome bucket (`generated` equals the sum of `invalid`,
    /// `lint_rejected`, `validated` and `cached`), so the candidates
    /// that survive the lint gate decompose as *attempted = simulated
    /// plus cached*; and the report totals are exactly the per-iteration
    /// sums. Returns a description of the first violated equation.
    pub fn check_accounting(&self) -> Result<(), String> {
        for it in &self.iterations {
            let buckets = it.invalid + it.lint_rejected + it.validated + it.cached;
            if it.generated != buckets {
                return Err(format!(
                    "iteration {}: generated {} != invalid {} + lint_rejected {} + validated {} + cached {}",
                    it.iteration, it.generated, it.invalid, it.lint_rejected, it.validated,
                    it.cached
                ));
            }
        }
        let (sim, cached) = validation_totals(&self.iterations);
        if sim != self.validations {
            return Err(format!(
                "validations {} != per-iteration sum {sim}",
                self.validations
            ));
        }
        if cached != self.validations_cached {
            return Err(format!(
                "validations_cached {} != per-iteration sum {cached}",
                self.validations_cached
            ));
        }
        let attributed: usize = self.attribution.iter().map(|s| s.edits).sum();
        let patch_len = match &self.outcome {
            RepairOutcome::Fixed { patch, .. } => patch.len(),
            RepairOutcome::NoCandidates { best_patch, .. }
            | RepairOutcome::IterationLimit { best_patch, .. } => best_patch.len(),
        };
        if attributed != patch_len {
            return Err(format!(
                "attribution covers {attributed} edits but the best patch has {patch_len}"
            ));
        }
        Ok(())
    }
}

/// One surviving repair variant.
struct Variant {
    cfg: NetworkConfig,
    /// Patch from the *original* configuration (edits apply sequentially).
    patch: Patch,
    /// The variant's verdicts, roots in the job's persistent arena: set
    /// when it was simulated in place, or by [`reverify`] the first time
    /// a memo-served variant is ranked.
    verification: OnceCell<Verification>,
    fitness: usize,
    /// What ranking and expanding the variant as a parent needs — see
    /// [`RepairEngine::statics_of`]. Computed on first use, once: most
    /// kept candidates are never expanded.
    statics: OnceCell<Statics>,
    /// Provenance of `patch`, one segment per operator application.
    segments: Vec<PatchSegment>,
}

/// Everything about one variant that is fixed for the job and read each
/// time it is expanded (once per *mutation* under the genetic strategy).
struct Statics {
    /// The variant's compiled form: its models are what the templates
    /// instantiate against.
    compiled: CompiledBase,
    /// The variant's per-test coverage, SBFL's input.
    coverage: CoverageMatrix,
    /// Suspiciousness multipliers from the variant's lint findings
    /// (empty when linting is off).
    boosts: BTreeMap<LineId, f64>,
    /// The SBFL ranking the fix stage expands: lint boosts fold in
    /// multiplicatively (4x primary / 2x related), then the `acr-flow`
    /// prior rescales lines that sit on a violated property's abstract
    /// derivation path.
    ranking: Ranking,
}

/// The repair engine, bound to a topology and spec.
pub struct RepairEngine<'a> {
    topo: &'a Topology,
    spec: &'a Spec,
    config: RepairConfig,
}

impl<'a> RepairEngine<'a> {
    /// Creates an engine with the given tunables.
    pub fn new(topo: &'a Topology, spec: &'a Spec, config: RepairConfig) -> Self {
        RepairEngine { topo, spec, config }
    }

    /// Creates an engine with default tunables.
    pub fn with_defaults(topo: &'a Topology, spec: &'a Spec) -> Self {
        Self::new(topo, spec, RepairConfig::default())
    }

    /// Runs localize–fix–validate on `original` until one of the paper's
    /// three termination conditions fires.
    pub fn repair(&self, original: &NetworkConfig) -> RepairReport {
        self.run(original, None)
    }

    /// [`RepairEngine::repair`] against resident per-network state: the
    /// daemon entry point. When the session holds a slot for `original`
    /// (by fingerprint) its warm verifier state is resumed (skipping the
    /// full base verification) and its static baseline reused (skipping
    /// the flow analysis and the lint), the run validates through the
    /// session's memo-cache instead of a fresh one, and on return verifier
    /// and baseline are parked back into the session for the next
    /// incident. Reuse is decision-transparent: outcome, patch, fitness
    /// trajectory and generation/keep decisions are identical to a cold
    /// [`RepairEngine::repair`] with the same seed — only the
    /// validation-cost accounting (`validations` vs
    /// `validations_cached`, prefixes recomputed) moves.
    pub fn repair_resident(
        &self,
        original: &NetworkConfig,
        session: &mut NetworkSession,
    ) -> RepairReport {
        self.run(original, Some(session))
    }

    fn run(
        &self,
        original: &NetworkConfig,
        mut session: Option<&mut NetworkSession>,
    ) -> RepairReport {
        let stages = Stages::new();
        RUNS.inc();
        let commit_guard = stages.time("engine.commit", "engine");
        let mut rng = SplitMix64::new(self.config.seed);
        // One hash of the broken configuration keys everything resident:
        // the session slot, the verifier's resume gate and the memo-cache.
        let fp = original.fingerprint();
        // Resident resume: a session slot parked under this exact broken
        // configuration holds its suspended verifier, which replays its
        // caches instead of committing cold, and its static baseline.
        // The session keeps a small LRU of slots, so rotating job streams
        // resume warm on every revisit.
        let mut iv = IncrementalVerifier::new(self.topo, self.spec);
        let slot = session.as_mut().and_then(|s| s.take(fp));
        let resumed = slot.map(|slot| (iv.resume(slot.warm, original, fp), slot.statics));
        if let Some(s) = session.as_mut() {
            if matches!(resumed, Some((Some(_), _))) {
                s.resident_hits += 1;
                RESIDENT_HITS.inc();
            } else {
                s.resident_misses += 1;
                RESIDENT_MISSES.inc();
            }
        }
        // Static baseline: the broken network's dataflow facts (for the
        // localization prior and the journal's flow summary) and its own
        // lint findings — the gate only rejects candidates that introduce
        // *new* error keys, pre-existing ones may well be the fault under
        // repair. Pure in the configuration, so a slot hit takes it from
        // the slot; otherwise it is built from the cold commit's compiled
        // form on a scoped thread beside the rest of the commit: this is
        // the job's one fixed point over the broken network, or none.
        let (base_verification, statics) = match resumed {
            Some((Some(v), statics)) => (v, statics),
            Some((None, statics)) => {
                let _s = span!("verify.commit", "verify");
                (iv.commit(original), statics)
            }
            None => {
                let _s = span!("verify.commit", "verify");
                iv.commit_with(original, |base| Baseline::build(self.topo, original, base))
            }
        };
        let initial_failed = base_verification.failed_count();

        let flow_prior = flow_prior(self.spec, &base_verification, &statics.facts);

        // Validate-stage plumbing: the memo-cache keys every candidate
        // under (verifier context, committed base, candidate config). The
        // cache is the session's, pooled across its jobs, or one this run
        // owns.
        let ctx_base = (iv.verifier().context_fingerprint(), fp);
        let mut own_cache = None;
        let cache = match session.as_deref_mut() {
            Some(s) => &mut s.cache,
            None => own_cache.insert(SimCache::default()),
        };
        drop(commit_guard);

        self.journal_run_start(original, initial_failed);
        if acr_obs::enabled(acr_obs::JOURNAL) {
            journal::emit(
                &json::Obj::new()
                    .str("event", "flow_summary")
                    .u64("ts_us", journal::now_us())
                    .u64("fixpoint_iterations", statics.facts.iterations)
                    .int("facts", statics.facts.fact_count())
                    .int("prior_lines", flow_prior.len())
                    .build(),
            );
        }

        let mut iterations = Vec::new();
        let (outcome, attribution) = 'run: {
            if initial_failed == 0 {
                let fixed = RepairOutcome::Fixed {
                    patch: Patch::new(),
                    repaired: original.clone(),
                };
                break 'run (fixed, Vec::new());
            }

            let mut population: Vec<Variant> = vec![Variant {
                cfg: original.clone(),
                patch: Patch::new(),
                fitness: initial_failed,
                verification: OnceCell::from(base_verification),
                statics: OnceCell::new(),
                segments: Vec::new(),
            }];
            let mut prev_fitness = initial_failed;
            let mut seen: HashSet<Patch> = HashSet::new();
            seen.insert(Patch::new());

            for iteration in 1..=self.config.max_iterations {
                ITERATIONS.inc();
                // Ranked suspects for the journal: a pure re-localization of
                // the current best variant (no RNG draw), computed only when
                // the journal is on — reports are identical either way.
                let suspects = if acr_obs::enabled(acr_obs::JOURNAL) {
                    self.suspects_of(best_of(&population), &mut iv, &statics, &flow_prior)
                } else {
                    String::new()
                };

                // ---- localize + fix: generate candidate full patches -------
                let fresh: Vec<(Patch, Vec<PatchSegment>)> = {
                    let _g = stages.time("engine.generate", "engine");
                    self.generate(
                        &population,
                        &mut iv,
                        &statics,
                        &flow_prior,
                        iteration,
                        &mut rng,
                    )
                    .into_iter()
                    .filter(|(p, _)| seen.insert(p.clone()))
                    .collect()
                };
                let generated = fresh.len();
                CAND_GENERATED.add(generated as u64);
                if generated == 0 {
                    let best = best_of(&population);
                    let dried_up = RepairOutcome::NoCandidates {
                        best_patch: best.patch.clone(),
                        best_fitness: best.fitness,
                    };
                    break 'run (dried_up, best.segments.clone());
                }
                // ---- validate: lint gate + memo-cache + in-place verify ----
                let validate_guard = stages.time("engine.validate", "engine");
                let lint_base = self.config.lint.then_some(&statics);
                let mut kept: Vec<Variant> = Vec::new();
                let (mut recomputed, mut reused) = (0, 0);
                let (mut lint_rejected, mut validated, mut cached_count, mut invalid) =
                    (0, 0, 0, 0);
                // Journal rows for this iteration's candidates, in
                // candidate-index order.
                let mut cand_rows: Vec<String> = Vec::new();
                let journal_on = acr_obs::enabled(acr_obs::JOURNAL);
                for (k, (patch, segs)) in fresh.into_iter().enumerate() {
                    let verdict = {
                        let _s = span!("engine.validate.candidate", "engine").arg("idx", k as u64);
                        validate(
                            &patch,
                            original,
                            &mut iv,
                            self.topo,
                            lint_base,
                            &mut *cache,
                            ctx_base,
                        )
                    };
                    let mut row = journal_on.then(|| {
                        json::Obj::new()
                            .str("patch", &patch.to_string())
                            .int("segments", segs.len())
                    });
                    // The one place a verdict's bucket is decided: every
                    // candidate lands in exactly one of the four counters.
                    match verdict {
                        Verdict::Invalid => {
                            invalid += 1;
                            if let Some(r) = row.take() {
                                cand_rows.push(r.str("outcome", "invalid").build());
                            }
                        }
                        Verdict::LintRejected => {
                            lint_rejected += 1;
                            if let Some(r) = row.take() {
                                cand_rows.push(r.str("outcome", "lint_rejected").build());
                            }
                        }
                        Verdict::Validated {
                            cfg,
                            entry,
                            stats,
                            verification,
                        } => {
                            let memo_served = verification.is_none();
                            if memo_served {
                                cached_count += 1;
                            } else {
                                validated += 1;
                            }
                            recomputed += stats.recomputed;
                            reused += stats.reused;
                            stages.add("sim.compile", stats.compile);
                            stages.add("sim.establish", stats.establish);
                            stages.add("sim.simulate", stats.simulate);
                            stages.add("sim.converge", stats.converge);
                            let fitness = entry.failed;
                            // §5: discard candidates whose fitness exceeds
                            // the previous iteration's fitness.
                            let discard = fitness > prev_fitness;
                            if let Some(r) = row.take() {
                                cand_rows.push(
                                    r.str("outcome", if discard { "discarded" } else { "kept" })
                                        .int("fitness", fitness)
                                        .bool("cached", memo_served)
                                        .build(),
                                );
                            }
                            if discard {
                                continue;
                            }
                            kept.push(Variant {
                                cfg,
                                patch,
                                verification: verification
                                    .map_or_else(OnceCell::new, |v| OnceCell::from(*v)),
                                fitness,
                                statics: OnceCell::new(),
                                segments: segs,
                            });
                        }
                    }
                }
                CAND_LINT_REJECTED.add(lint_rejected as u64);
                CAND_VALIDATED.add(validated as u64);
                CAND_CACHED.add(cached_count as u64);
                CAND_INVALID.add(invalid as u64);
                drop(validate_guard);

                let select_guard = stages.time("engine.select", "engine");
                let kept_count = kept.len();
                CAND_KEPT.add(kept_count as u64);
                let iter_fitness = kept.iter().map(|v| v.fitness).max().unwrap_or(prev_fitness);
                let done = kept.iter().any(|v| v.fitness == 0);

                population.extend(kept);
                population.sort_by_key(|v| (v.fitness, v.patch.len()));
                population.truncate(MAX_POPULATION);
                let best_fitness = population
                    .first()
                    .map(|v| v.fitness)
                    .unwrap_or(prev_fitness);

                let stats = IterationStats {
                    iteration,
                    fitness: iter_fitness,
                    best_fitness,
                    generated,
                    kept: kept_count,
                    recomputed_prefixes: recomputed,
                    reused_prefixes: reused,
                    lint_rejected,
                    validated,
                    cached: cached_count,
                    invalid,
                };
                if journal_on {
                    journal_iteration(&stats, &suspects, &cand_rows);
                }
                iterations.push(stats);
                prev_fitness = iter_fitness;
                drop(select_guard);

                if done {
                    let winner = population
                        .iter()
                        .filter(|v| v.fitness == 0)
                        .min_by_key(|v| v.patch.len())
                        .expect("done implies a zero-fitness variant");
                    let fixed = RepairOutcome::Fixed {
                        patch: winner.patch.clone(),
                        repaired: winner.cfg.clone(),
                    };
                    break 'run (fixed, winner.segments.clone());
                }
            }

            let best = best_of(&population);
            let capped = RepairOutcome::IterationLimit {
                best_patch: best.patch.clone(),
                best_fitness: best.fitness,
            };
            (capped, best.segments.clone())
        }; // 'run
        let report = finish(
            outcome,
            iterations,
            initial_failed,
            &stages,
            attribution,
            &self.config.tags,
        );

        // Park the verifier (compiled base, per-prefix caches, memo) and
        // the baseline back in the session as the most recent slot, for
        // the next incident against this configuration. A one-shot run
        // frees them here instead, under a span of its own.
        match session {
            Some(s) => {
                if let Some(warm) = iv.suspend() {
                    s.park(Slot { fp, statics, warm });
                }
            }
            None => {
                let _s = span!("engine.teardown", "engine");
                drop((iv, statics, own_cache));
            }
        }
        report
    }

    /// The journal's `run_start` record: network shape, initial failures
    /// and the full engine configuration (the one record run parameters
    /// appear in, so cross-configuration journal diffs scrub one line).
    fn journal_run_start(&self, original: &NetworkConfig, initial_failed: usize) {
        if !acr_obs::enabled(acr_obs::JOURNAL) {
            return;
        }
        let cfg = json::Obj::new()
            .str("strategy", &format!("{:?}", self.config.strategy))
            .str("formula", &format!("{:?}", self.config.formula))
            .u64("seed", self.config.seed)
            .int("max_iterations", self.config.max_iterations)
            .int("max_population", MAX_POPULATION)
            // `IncrementalVerifier::new` samples one packet per property.
            .u64("samples_per_property", 1)
            .str("operators", &format!("{:?}", self.config.operators))
            .bool("lint", self.config.lint)
            // Every run validates in place through a memo-cache and every
            // candidate is delta-built; the three fields stay so the
            // journal schema (additive-only) keeps its v6 shape.
            .int("threads", 1)
            .bool("cache", true)
            .bool("delta", true)
            .raw("tags", &tags_json(&self.config.tags))
            .build();
        journal::emit(
            &json::Obj::new()
                .str("event", "run_start")
                .str("schema", journal::SCHEMA)
                .u64("ts_us", journal::now_us())
                .int("routers", self.topo.routers().len())
                .int("devices", original.len())
                .int("initial_failed", initial_failed)
                .raw("config", &cfg)
                .build(),
        );
    }

    /// Top-ranked suspicious lines of a variant, rendered as a JSON array
    /// for the journal. Pure: same localization the fix stage uses, no RNG.
    fn suspects_of(
        &self,
        variant: &Variant,
        iv: &mut IncrementalVerifier<'_>,
        base: &Baseline,
        prior: &BTreeMap<LineId, f64>,
    ) -> String {
        let ranking = &self.statics_of(variant, iv, base, prior).ranking;
        json::array(ranking.entries().iter().take(8).map(|(line, score)| {
            json::Obj::new()
                .str("line", &line.to_string())
                .num("score", *score)
                .build()
        }))
    }

    /// A variant's [`Statics`], computed on first use. A memo-served
    /// variant is re-verified first, against the committed base it was
    /// validated against. The root — which *is* the broken network — takes
    /// the verifier's committed compiled form and the job's baseline
    /// findings; any other variant is compiled as a delta of the committed
    /// form (only its patched devices recompile) and, with linting on,
    /// gets the whole-network lint of its configuration, dataflow warnings
    /// included (one fixed point). Coverage is built from the verdict's
    /// roots in the persistent arena and the compiled models. Only a
    /// variant that gets *ranked* needs any of it, which is why this runs
    /// here and not in the validate stage: a job that ends in its first
    /// iteration builds the coverage of the broken network and nothing
    /// else.
    fn statics_of<'v>(
        &self,
        variant: &'v Variant,
        iv: &mut IncrementalVerifier<'_>,
        base: &Baseline,
        prior: &BTreeMap<LineId, f64>,
    ) -> &'v Statics {
        variant.statics.get_or_init(|| {
            let verification = variant
                .verification
                .get_or_init(|| reverify(iv, &variant.cfg, &variant.patch));
            let committed = iv
                .base()
                .expect("a committed or resumed verifier holds its base");
            let compiled = if variant.patch.is_empty() {
                committed.clone()
            } else {
                committed.delta(self.topo, &variant.cfg, &variant.patch).0
            };
            let coverage = iv
                .verifier()
                .coverage(verification, iv.arena(), compiled.models());
            let boosts = if !self.config.lint {
                BTreeMap::new()
            } else if variant.patch.is_empty() {
                boost_map(&base.diags)
            } else {
                let facts = acr_flow::analyze_with_models(self.topo, &compiled);
                let report = acr_lint::lint_with_models(self.topo, &variant.cfg, &compiled, &facts);
                boost_map(&report.diagnostics)
            };
            let ranking = if boosts.is_empty() {
                localize(&coverage, self.config.formula)
            } else {
                localize_boosted(&coverage, self.config.formula, &boosts)
            };
            Statics {
                compiled,
                coverage,
                boosts,
                ranking: ranking.with_prior(prior),
            }
        })
    }

    /// Generates candidate *full* patches (relative to the original
    /// configuration) according to the strategy, each paired with its
    /// provenance segments.
    fn generate(
        &self,
        population: &[Variant],
        iv: &mut IncrementalVerifier<'_>,
        base: &Baseline,
        prior: &BTreeMap<LineId, f64>,
        iteration: usize,
        rng: &mut SplitMix64,
    ) -> Vec<(Patch, Vec<PatchSegment>)> {
        let mut out = Vec::new();
        // A parent's patch extended by one fix, with provenance.
        let extend = |parent: &Variant, fix: &CandidateFix| {
            let mut segments = parent.segments.clone();
            segments.push(PatchSegment::of_fix(iteration, fix));
            (parent.patch.concat(&fix.patch), segments)
        };
        match &self.config.strategy {
            Strategy::BruteForce { top_lines } => {
                // Expand every surviving variant: multi-place repairs
                // accrete one template application per iteration.
                for parent in population {
                    let fixes = self.fixes_of(parent, iv, base, prior, *top_lines, None);
                    out.extend(fixes.iter().map(|f| extend(parent, f)));
                }
            }
            Strategy::Genetic {
                mutations,
                crossovers,
                top_k,
            } => {
                for _ in 0..*mutations {
                    let parent = &population[rng.index(population.len())];
                    let fixes =
                        self.fixes_of(parent, iv, base, prior, *top_k, Some(rng.next_u64()));
                    if let Some(fix) = pick(rng, &fixes) {
                        out.push(extend(parent, fix));
                    }
                }
                for _ in 0..*crossovers {
                    if population.len() < 2 {
                        break;
                    }
                    let a = &population[rng.index(population.len())];
                    let b = &population[rng.index(population.len())];
                    if a.patch.is_empty() && b.patch.is_empty() {
                        continue;
                    }
                    let pa = rng.index(a.patch.len() + 1);
                    let pb = rng.index(b.patch.len() + 1);
                    let child = crossover(&a.patch, &b.patch, pa, pb);
                    if !child.is_empty() {
                        // Offspring mix two lineages; provenance collapses
                        // to a single recombination segment.
                        let segments = vec![PatchSegment {
                            iteration,
                            op: "crossover".to_string(),
                            origin: None,
                            edits: child.len(),
                        }];
                        out.push((child, segments));
                    }
                }
            }
            Strategy::SinglePatch { top_lines } => {
                // Expand only the unpatched root: every candidate is one
                // template application to the original configuration.
                // Once the root is evicted (or its pool is exhausted via
                // dedup) the search dries up — by design.
                for parent in population.iter().filter(|v| v.patch.is_empty()) {
                    let fixes = self.fixes_of(parent, iv, base, prior, *top_lines, None);
                    out.extend(fixes.iter().map(|f| extend(parent, f)));
                }
            }
            Strategy::Beam {
                width,
                top_lines,
                max_pairs,
            } => {
                // The population is sorted by (fitness, patch size) at
                // the end of every iteration, so its prefix is the beam.
                for parent in population.iter().take(*width) {
                    let fixes = self.fixes_of(parent, iv, base, prior, *top_lines, None);
                    out.extend(fixes.iter().map(|f| extend(parent, f)));
                    // Pairwise patch-set combinations at distinct
                    // suspicious lines: a coordinated two-site edit in a
                    // single candidate, instead of two accretion rounds.
                    let mut pairs = 0usize;
                    'outer: for i in 0..fixes.len() {
                        for j in (i + 1)..fixes.len() {
                            if fixes[i].origin == fixes[j].origin {
                                continue;
                            }
                            if pairs >= *max_pairs {
                                break 'outer;
                            }
                            let combined = fixes[i].patch.concat(&fixes[j].patch);
                            let mut segments = parent.segments.clone();
                            segments.push(PatchSegment::of_fix(iteration, &fixes[i]));
                            segments.push(PatchSegment::of_fix(iteration, &fixes[j]));
                            out.push((parent.patch.concat(&combined), segments));
                            pairs += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// Localizes a variant and instantiates templates at its suspicious
    /// lines. With `pick_line`, only one (seeded-random) line from the top
    /// pool is expanded — the genetic mutation primitive; otherwise the
    /// full tied-top set plus up to `width` runners-up are expanded.
    fn fixes_of(
        &self,
        variant: &Variant,
        iv: &mut IncrementalVerifier<'_>,
        base: &Baseline,
        prior: &BTreeMap<LineId, f64>,
        width: usize,
        pick_line: Option<u64>,
    ) -> Vec<CandidateFix> {
        let Statics {
            compiled,
            coverage,
            boosts,
            ranking,
        } = self.statics_of(variant, iv, base, prior);
        if ranking.is_empty() {
            return Vec::new();
        }
        let ctx = RepairCtx {
            topo: self.topo,
            cfg: &variant.cfg,
            verification: variant
                .verification
                .get()
                .expect("a ranked variant is verified"),
            coverage,
            arena: iv.arena(),
            models: compiled.models(),
        };
        let mut pool: Vec<LineId> = ranking.top_tied();
        for (line, score) in ranking.entries().iter().skip(pool.len()).take(width) {
            if *score <= 0.0 {
                break;
            }
            pool.push(*line);
        }
        let allowed = |f: &CandidateFix| {
            self.config
                .allowed_templates
                .as_ref()
                .is_none_or(|ts| ts.contains(&f.template))
        };
        // One line's candidates under the configured operator vocabulary.
        let expand = |line: LineId| -> Vec<CandidateFix> {
            let mut fixes = Vec::new();
            if self.config.operators != OperatorSet::Universal {
                fixes.extend(candidates_for_line(line, &ctx).into_iter().filter(allowed));
            }
            if self.config.operators != OperatorSet::Curated {
                for patch in universal_candidates(line, &ctx) {
                    if !fixes.iter().any(|f: &CandidateFix| f.patch == patch) {
                        fixes.push(CandidateFix {
                            patch,
                            template: TemplateKind::DonorCopy,
                            origin: line,
                        });
                    }
                }
            }
            fixes
        };
        match pick_line {
            Some(seed) if !pool.is_empty() => {
                // Seeded mutation pick, weighted by lint boost: a line a
                // static rule flagged is mutated proportionally more
                // often than its spectrum twins.
                let weighted: Vec<LineId> = pool
                    .iter()
                    .flat_map(|l| {
                        let w = boosts.get(l).copied().unwrap_or(1.0).max(1.0) as usize;
                        std::iter::repeat_n(*l, w)
                    })
                    .collect();
                let line = weighted[(seed % weighted.len() as u64) as usize];
                expand(line)
            }
            _ => {
                let mut out = Vec::new();
                for line in pool {
                    out.extend(expand(line));
                }
                out
            }
        }
    }
}

/// The `acr-flow` localization prior: every line the abstract
/// may-propagation analysis records as *supporting* a violated
/// property's destination cone gets a modest multiplicative *damping*.
/// A supporting line is one the route demonstrably still flows through
/// — and the Table-1 fault model is absence-dominated (gutted prefix
/// lists, deleted policies, missing redistribution), where the
/// misconfiguration is precisely the statement that *stops* the route,
/// which by construction is off the live path. Damping the live path
/// focuses the expansion pool on the blocking statements; the factor is
/// mild so concrete lint boosts (4x/2x) still dominate.
fn flow_prior(
    spec: &Spec,
    base: &Verification,
    facts: &acr_flow::FlowFacts,
) -> BTreeMap<LineId, f64> {
    const FLOW_PRIOR_FACTOR: f64 = 0.8;
    let failing: HashSet<&str> = base
        .records
        .iter()
        .filter(|r| !r.passed)
        .map(|r| r.property.as_str())
        .collect();
    let mut prior = BTreeMap::new();
    for p in &spec.properties {
        if failing.contains(p.name.as_str()) {
            for line in facts.support_for(p.hs.dst) {
                prior.insert(line, FLOW_PRIOR_FACTOR);
            }
        }
    }
    prior
}

/// Suspiciousness multipliers from lint findings: primary-span lines get
/// 4x, related locations 2x (the strongest factor wins on overlap).
fn boost_map(diags: &[Diagnostic]) -> BTreeMap<LineId, f64> {
    let mut boosts: BTreeMap<LineId, f64> = BTreeMap::new();
    let mut bump = |line: LineId, factor: f64| {
        let e = boosts.entry(line).or_insert(1.0);
        *e = e.max(factor);
    };
    for d in diags {
        for line in d.span.0..=d.span.1 {
            bump(LineId::new(d.device, line), 4.0);
        }
        for r in &d.related {
            bump(LineId::new(r.device, r.line), 2.0);
        }
    }
    boosts
}

/// Renders a tag list as a JSON string array.
fn tags_json(tags: &[String]) -> String {
    json::array(tags.iter().map(|t| format!("\"{}\"", json::escape(t))))
}

/// Renders an attribution list as a JSON array of segment objects.
fn attribution_json(segments: &[PatchSegment]) -> String {
    json::array(segments.iter().map(|s| {
        let obj = json::Obj::new()
            .int("iteration", s.iteration)
            .str("op", &s.op);
        let obj = match &s.origin {
            Some(line) => obj.str("origin", &line.to_string()),
            None => obj,
        };
        obj.int("edits", s.edits).build()
    }))
}

/// Sums the per-iteration `(validated, cached)` buckets — the report's
/// `(validations, validations_cached)` totals.
fn validation_totals(iterations: &[IterationStats]) -> (usize, usize) {
    iterations.iter().fold((0, 0), |(sim, cached), it| {
        (sim + it.validated, cached + it.cached)
    })
}

/// The single place a [`RepairReport`] is assembled: the [`StageTimes`]
/// derivation from the run's [`Stages`] accumulator and the report totals
/// (summed from the iteration list, so the totals half of the accounting
/// identity holds by construction) exist exactly once. Also emits the
/// journal's `run_end` record and flushes every obs sink.
fn finish(
    outcome: RepairOutcome,
    iterations: Vec<IterationStats>,
    initial_failed: usize,
    stages: &Stages,
    attribution: Vec<PatchSegment>,
    tags: &[String],
) -> RepairReport {
    let (validations, validations_cached) = validation_totals(&iterations);
    let stage = StageTimes {
        commit: stages.get("engine.commit"),
        generate: stages.get("engine.generate"),
        validate: stages.get("engine.validate"),
        select: stages.get("engine.select"),
        sim_compile: stages.get("sim.compile"),
        sim_establish: stages.get("sim.establish"),
        sim_simulate: stages.get("sim.simulate"),
        sim_converge: stages.get("sim.converge"),
    };
    if acr_obs::enabled(acr_obs::JOURNAL) {
        let (kind, patch, fitness) = match &outcome {
            RepairOutcome::Fixed { patch, .. } => ("fixed", patch.to_string(), 0),
            RepairOutcome::NoCandidates {
                best_patch,
                best_fitness,
            } => ("no_candidates", best_patch.to_string(), *best_fitness),
            RepairOutcome::IterationLimit {
                best_patch,
                best_fitness,
            } => ("iteration_limit", best_patch.to_string(), *best_fitness),
        };
        journal::emit(
            &json::Obj::new()
                .str("event", "run_end")
                .u64("ts_us", journal::now_us())
                .str("outcome", kind)
                .str("patch", &patch)
                .int("fitness", fitness)
                .int("iterations", iterations.len())
                .int("initial_failed", initial_failed)
                .int("validations", validations)
                .int("validations_cached", validations_cached)
                .raw("attribution", &attribution_json(&attribution))
                .raw("tags", &tags_json(tags))
                .build(),
        );
    }
    acr_obs::flush();
    RepairReport {
        outcome,
        iterations,
        initial_failed,
        validations,
        validations_cached,
        stage,
        wall: stages.wall(),
        attribution,
        tags: tags.to_vec(),
    }
}

/// The journal's per-iteration record: the iteration counters, the ranked
/// suspects that seeded generation, and every candidate's verdict in
/// candidate-index order.
fn journal_iteration(stats: &IterationStats, suspects: &str, cand_rows: &[String]) {
    journal::emit(
        &json::Obj::new()
            .str("event", "iteration")
            .u64("ts_us", journal::now_us())
            .int("iteration", stats.iteration)
            .int("fitness", stats.fitness)
            .int("best_fitness", stats.best_fitness)
            .int("generated", stats.generated)
            .int("kept", stats.kept)
            .int("lint_rejected", stats.lint_rejected)
            .int("validated", stats.validated)
            .int("cached", stats.cached)
            .int("invalid", stats.invalid)
            .int("recomputed_prefixes", stats.recomputed_prefixes)
            .int("reused_prefixes", stats.reused_prefixes)
            .raw("suspects", suspects)
            .raw("candidates", &json::array(cand_rows.iter().cloned()))
            .build(),
    );
}

/// The best variant: lowest fitness, then smallest patch.
fn best_of(population: &[Variant]) -> &Variant {
    population
        .iter()
        .min_by_key(|v| (v.fitness, v.patch.len()))
        .expect("population never empties")
}

/// Uniform pick from a slice.
fn pick<'t, T>(rng: &mut SplitMix64, xs: &'t [T]) -> Option<&'t T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.index(xs.len())])
    }
}
