//! DNA-style incremental verification.
//!
//! The paper's observation (3): "incremental network verification … can
//! fast check the correctness of a configuration change for large networks
//! in seconds", which is what makes validating many candidate updates
//! affordable. Our incremental verifier exploits the simulator's
//! per-prefix decomposition:
//!
//! 1. [`IncrementalVerifier::commit`] is the one cold path: it compiles
//!    the configuration into a [`CompiledBase`] (`acr-sim`) — the one
//!    compiled form of the configuration, which the verifier keeps with
//!    the configuration's fingerprint and lends out through
//!    [`IncrementalVerifier::base`] — simulates the whole universe and
//!    caches every per-prefix outcome with its configuration-line closure,
//!    plus every router's base FIB, in a **persistent content-addressed
//!    arena** (old derivation ids stay valid);
//!    [`IncrementalVerifier::commit_with`] runs the same body with one
//!    caller-supplied pass over the compiled base on a scoped thread
//!    beside it,
//! 2. a candidate (committed configuration + patch) is delta-built from
//!    the base ([`CompiledBase::delta`]: only patched devices recompile)
//!    and the comparison of their old and new models
//!    ([`acr_sim::DeltaInfo`]) yields the *affected prefixes* under the
//!    contract below. A recompiled device is numbered in the committed
//!    lines ([`acr_sim::DeltaInfo::lines`]): a statement the patch kept
//!    keeps its committed line and an inserted or replaced one gets a
//!    fresh line above its device's committed length, so a statement that
//!    only moved is the statement every cached closure names,
//! 3. only affected prefixes are re-simulated, by the same
//!    [`Simulator::run_prefixes_with`] call the commit makes; one tail
//!    merges them over the cache, borrows the committed base FIBs
//!    (rebuilding only recompiled routers'), and runs the (cheap) packet
//!    walks on the merged state. Each walk reads BGP forwarding from the
//!    merged outcomes through an [`acr_sim::FibView`]; no BGP entry is
//!    ever installed into a table.
//!
//! Every call returns verdicts only: the records with their derivation
//! roots in the persistent arena, and an empty coverage matrix. A reader
//! that needs coverage builds it with [`Verifier::coverage`] over
//! [`IncrementalVerifier::arena`]; the arena only grows, so a verdict's
//! roots keep resolving there for the life of the verifier. Line numbers
//! are rendered only where a candidate's verification leaves the
//! verifier: its session diagnostics are in the candidate's own lines,
//! and its [`Verification::line_map`] renders what its derivations name
//! ([`Verifier::coverage`] does).
//!
//! [`IncrementalVerifier::suspend`] parks all of it — the compiled base
//! included, as it is — in an owned [`WarmState`], and
//! [`IncrementalVerifier::resume`] re-installs it behind a fingerprint
//! gate and replays it as the empty candidate: nothing affected, nothing
//! simulated, nothing compiled.
//!
//! **The affected-set contract** (`affected_prefixes`, the only place a
//! set is computed): a per-prefix run reads exactly the session vector
//! (views, base lines, policy bindings), each router's AS value, the
//! prefix's originations, and — through `eval_policy` — the touched
//! models' `route_policies` and `prefix_lists`; a cached outcome is a pure
//! function of those. Every prefix for which one of them can differ, or
//! whose closure holds a line the candidate no longer has, is in the set.
//! With nothing cached that is every prefix; otherwise five rules, fed by
//! the model diff and never by the patch's statements:
//!
//! 1. **every prefix** when sessions changed structurally, a touched
//!    router's AS value changed, or a policy bound by one of its peers has
//!    a different node list modulo line numbers — such a change leaves no
//!    line in the closure of a prefix the old policy did not match;
//!
//! and otherwise the union of
//!
//! 2. prefixes whose originations changed,
//! 3. prefixes matched by a prefix-list entry the old and new model do not
//!    share (modulo line numbers),
//! 4. prefixes whose closure holds a line the patch deleted or replaced,
//!    or a line of a session whose attribution changed,
//! 5. prefixes new to the universe.
//!
//! Static routes, ACLs and PBR need no rule: base FIBs are rebuilt for
//! every recompiled device and the data-plane walks always re-run.

use crate::spec::Spec;
use crate::verify::{Verification, Verifier};
use acr_cfg::{LineId, LineMap, NetworkConfig, Patch};
use acr_net_types::{Prefix, RouterId};
use acr_obs::metrics::Counter;
use acr_obs::span;
use acr_sim::{
    CompiledBase, DeltaInfo, DerivArena, Fib, PolicyMemo, PrefixOutcome, SessionDelta, SessionDiag,
    SimBuild, Simulator,
};
use acr_topo::Topology;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

static PREFIXES_RECOMPUTED: Counter = Counter::new("verify.prefixes_recomputed");
static PREFIXES_REUSED: Counter = Counter::new("verify.prefixes_reused");
// Prefixes re-simulated, by the rule that chose them: a commit (every
// prefix), then `affected_prefixes`' structural session change, AS value /
// bound policy change (each: every prefix), or the narrowed union.
static INV_COLD: Counter = Counter::new("verify.invalidated.cold");
static INV_SESSIONS: Counter = Counter::new("verify.invalidated.sessions");
static INV_POLICY: Counter = Counter::new("verify.invalidated.policy");
static INV_NARROWED: Counter = Counter::new("verify.invalidated.narrowed");
// Base-FIB reuse: per-router base FIBs (connected + static) are rebuilt
// only when the router's device model changed (delta builds share
// unpatched models by `Arc`).
static FIB_ROUTERS_REBUILT: Counter = Counter::new("verify.fib_routers_rebuilt");
static FIB_ROUTERS_REUSED: Counter = Counter::new("verify.fib_routers_reused");
// Warm-state suspend/resume (the resident daemon path): a resume hit
// re-installs every cache for a byte-identical configuration; a miss
// means the fingerprints diverged and the caller must commit cold.
static RESUME_HITS: Counter = Counter::new("verify.resume.hits");
static RESUME_MISSES: Counter = Counter::new("verify.resume.misses");

/// Statistics of one incremental verification call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Prefixes re-simulated this call.
    pub recomputed: usize,
    /// Prefixes served from cache.
    pub reused: usize,
    /// Devices compiled to build this call's simulator (delta path:
    /// patched devices only).
    pub compiled_devices: usize,
    /// Routers whose session establishment was recomputed.
    pub established_routers: usize,
    /// Wall-clock compiling device models (and origin-index maintenance).
    pub compile: Duration,
    /// Wall-clock establishing BGP sessions.
    pub establish: Duration,
    /// Wall-clock simulating affected prefixes and rebuilding base FIBs.
    pub simulate: Duration,
    /// Within `simulate`: wall-clock of per-prefix convergence alone
    /// (worklist iteration) — excludes merging and base FIBs.
    pub converge: Duration,
}

/// What is cached about the committed configuration, keyed like the
/// universe: filled by a commit, read by every candidate.
#[derive(Default)]
struct Caches {
    outcomes: BTreeMap<Prefix, PrefixOutcome>,
    /// Closure lines per cached prefix, for invalidation tests.
    closures: BTreeMap<Prefix, BTreeSet<LineId>>,
    /// Per-router base FIBs (connected + static), computed against the
    /// committed base's device models — a candidate borrows a router's
    /// base FIB while its simulator holds that very model `Arc`. These
    /// and the outcomes are all a walk forwards by: BGP is looked up in
    /// the outcomes, never installed here.
    fib_base: Vec<Fib>,
}

impl Caches {
    /// The caches of a cold run over `sim`.
    fn fill(
        fresh: BTreeMap<Prefix, PrefixOutcome>,
        sim: &Simulator<'_>,
        arena: &mut DerivArena,
    ) -> Caches {
        let mut caches = Caches::default();
        for (p, o) in fresh {
            // Closures include rejection roots: a prefix whose route was
            // *denied* by a statement depends on that statement too, and
            // must be invalidated when it is edited or deleted.
            let roots: Vec<_> = o
                .deriv_roots()
                .into_iter()
                .chain(o.rejection_roots().iter().copied())
                .collect();
            let closure = arena.closure_lines(roots).into_iter().collect();
            caches.closures.insert(p, closure);
            caches.outcomes.insert(p, o);
        }
        caches.fib_base = sim.base_fibs(arena);
        caches
    }
}

/// A verifier that caches per-prefix results between calls.
pub struct IncrementalVerifier<'a> {
    verifier: Verifier<'a>,
    arena: DerivArena,
    /// Compiled form of the committed configuration — the base
    /// candidates are delta-built against.
    base: Option<CompiledBase>,
    /// Fingerprint of the committed configuration: the config half of
    /// the resume gate.
    base_fp: u64,
    caches: Caches,
    /// Policy-transfer memo kept alive across the committed run and every
    /// candidate verified against it. Entries reference the persistent
    /// `arena` (content-addressed, ids never invalidated); per-candidate
    /// staleness is handled by [`PolicyMemo::begin_run`], which drops
    /// entries on sessions adjacent to patched routers.
    memo: PolicyMemo,
    last_stats: IncrementalStats,
}

impl<'a> IncrementalVerifier<'a> {
    /// Creates an empty (cold) incremental verifier, one sampled packet
    /// per property.
    pub fn new(topo: &'a Topology, spec: &'a Spec) -> Self {
        IncrementalVerifier {
            verifier: Verifier::new(topo, spec),
            arena: DerivArena::new(),
            base: None,
            base_fp: 0,
            caches: Caches::default(),
            memo: PolicyMemo::new(),
            last_stats: IncrementalStats::default(),
        }
    }

    /// The underlying (stateless) verifier.
    pub fn verifier(&self) -> &Verifier<'a> {
        &self.verifier
    }

    /// The compiled base of the committed configuration.
    pub fn base(&self) -> Option<&CompiledBase> {
        self.base.as_ref()
    }

    /// Stats of the most recent call.
    pub fn last_stats(&self) -> IncrementalStats {
        self.last_stats
    }

    /// The persistent arena (derivation roots in returned records resolve
    /// here).
    pub fn arena(&self) -> &DerivArena {
        &self.arena
    }

    /// Commits `cfg` as the base configuration — the one cold path:
    /// compiles it, simulates the whole universe and fills the caches
    /// every later [`IncrementalVerifier::verify_candidate`] reads.
    /// Returns the configuration's verdicts, without coverage.
    pub fn commit(&mut self, cfg: &NetworkConfig) -> Verification {
        let sim = Simulator::new(self.verifier.topo(), cfg);
        self.commit_compiled(&sim, cfg)
    }

    /// [`IncrementalVerifier::commit`], with `side` run on one scoped
    /// thread beside it: `side` gets the configuration's compiled form as
    /// soon as it is compiled, runs while this thread simulates the
    /// universe, fills the caches and evaluates, and is joined before the
    /// call returns. The verdicts are [`IncrementalVerifier::commit`]'s,
    /// and the base `side` saw is the one [`IncrementalVerifier::base`]
    /// lends out afterwards (its models are the same `Arc`s). A panic in
    /// `side` is re-raised here with its own payload.
    pub fn commit_with<R: Send>(
        &mut self,
        cfg: &NetworkConfig,
        side: impl FnOnce(&CompiledBase) -> R + Send,
    ) -> (Verification, R) {
        let sim = Simulator::new(self.verifier.topo(), cfg);
        let base = sim.base();
        std::thread::scope(|scope| {
            let side = scope.spawn(move || side(base));
            let verification = self.commit_compiled(&sim, cfg);
            match side.join() {
                Ok(r) => (verification, r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }

    /// The one commit body, over `cfg`'s freshly compiled simulator.
    fn commit_compiled(&mut self, sim: &Simulator<'_>, cfg: &NetworkConfig) -> Verification {
        let universe = sim.universe();
        // Nothing is cached about the new configuration: every prefix
        // runs, booked under the cold rule.
        self.caches = Caches::default();
        let affected = (universe.clone(), &INV_COLD);
        // The committed models changed, so the policy memo starts over;
        // this run re-seeds it and the first candidate already finds the
        // base's transfers.
        self.memo = PolicyMemo::new();
        self.memo.begin_run(sim.base().sessions(), &[]);
        let (arena, memo) = (&mut self.arena, &mut self.memo);
        let mut run = simulate(sim, &universe, affected, arena, memo);
        let fill = span!("verify.fill", "verify");
        self.caches = Caches::fill(std::mem::take(&mut run.fresh), sim, arena);
        drop(fill);
        self.base = Some(sim.base().clone());
        self.base_fp = cfg.fingerprint();
        let (view, arena, _) = self.split();
        let (verification, stats) = view.assemble(sim, &universe, run, arena, LineMap::default());
        self.last_stats = stats;
        verification
    }

    /// Verifies a **candidate** configuration (`cfg` = committed base +
    /// `patch`, where `patch` is expressed relative to the committed base)
    /// *without* updating the cache — the repair engine's inner loop. The
    /// persistent arena still grows (content-addressed, so cached ids stay
    /// valid), but per-prefix results of the base remain authoritative.
    /// Returns the candidate's verdicts, without coverage; its derivations
    /// name lines of the committed numbering, which its
    /// [`Verification::line_map`] renders.
    ///
    /// # Panics
    ///
    /// When nothing was committed: a candidate is delta-built from the
    /// committed base, so [`IncrementalVerifier::commit`] (or a successful
    /// [`IncrementalVerifier::resume`]) must come first.
    pub fn verify_candidate(&mut self, cfg: &NetworkConfig, patch: &Patch) -> Verification {
        let (view, arena, memo) = self.split();
        let (verification, stats) = view.verify_candidate(cfg, patch, arena, memo);
        self.last_stats = stats;
        verification
    }

    /// The read-only view of the committed state plus the two pieces a
    /// call threads through it mutably. Panics when nothing was committed.
    fn split(&mut self) -> (BaseView<'_, 'a>, &mut DerivArena, &mut PolicyMemo) {
        let view = BaseView {
            verifier: &self.verifier,
            base: (self.base.as_ref())
                .expect("verify_candidate needs a committed base: commit or resume first"),
            caches: &self.caches,
        };
        (view, &mut self.arena, &mut self.memo)
    }

    /// Consumes the verifier into an owned, borrow-free [`WarmState`] a
    /// resident daemon can park between incidents: the committed
    /// [`CompiledBase`] and its fingerprint, the per-prefix
    /// outcome/closure caches and base FIBs, the persistent arena, and the
    /// policy memo (which carries the route interner). Returns `None` when
    /// nothing was ever committed.
    pub fn suspend(self) -> Option<WarmState> {
        let base = self.base?;
        Some(WarmState {
            ctx_fp: self.verifier.context_fingerprint(),
            base_fp: self.base_fp,
            base,
            arena: self.arena,
            caches: self.caches,
            memo: self.memo,
        })
    }

    /// Re-installs `warm` into this verifier for `cfg`, whose fingerprint
    /// the caller passes as `cfg_fp` (the repair engine hashes the broken
    /// configuration once per job and keys its session slots by the same
    /// value). When `warm` was suspended under the same verifier context
    /// (topology, spec) *and* the byte-identical configuration, every
    /// cache is re-installed and the returned [`Verification`] is
    /// recomputed from cached per-prefix outcomes — **zero prefixes
    /// re-simulated, zero devices recompiled**. On any fingerprint
    /// mismatch the warm state is discarded, the verifier is left as it
    /// was, and `None` comes back (commit it yourself).
    ///
    /// The fingerprint gate is what makes re-installing sound: an equal
    /// `context_fingerprint` pins (topology, spec), an equal
    /// config fingerprint pins every statement of every device, and all
    /// cached state — outcomes, closures, memoized transfers, FIBs, the
    /// compiled base — is a pure function of those inputs.
    pub fn resume(
        &mut self,
        warm: WarmState,
        cfg: &NetworkConfig,
        cfg_fp: u64,
    ) -> Option<Verification> {
        debug_assert_eq!(cfg_fp, cfg.fingerprint());
        if warm.ctx_fp != self.verifier.context_fingerprint() || warm.base_fp != cfg_fp {
            RESUME_MISSES.inc();
            return None;
        }
        self.arena = warm.arena;
        self.caches = warm.caches;
        self.memo = warm.memo;
        self.base = Some(warm.base);
        self.base_fp = cfg_fp;
        // Replay as the empty candidate: its model diff is empty, so the
        // affected set is, and the tail turns the cached outcomes into a
        // Verification byte-identical to the suspended run's. The memo is
        // kept — its transfers were computed against the very `Arc`'d
        // models being re-installed — and the empty candidate's
        // `begin_run` drops what the suspended run's last candidate
        // poisoned.
        let v = self.verify_candidate(cfg, &Patch::new());
        RESUME_HITS.inc();
        Some(v)
    }
}

/// Owned warm state of a suspended [`IncrementalVerifier`] — everything
/// reusable across repair runs of the *same* committed configuration,
/// free of topology/spec borrows so a registry can keep it alive between
/// incidents. Produced by [`IncrementalVerifier::suspend`], consumed by
/// [`IncrementalVerifier::resume`].
pub struct WarmState {
    ctx_fp: u64,
    base_fp: u64,
    base: CompiledBase,
    arena: DerivArena,
    caches: Caches,
    memo: PolicyMemo,
}

/// The read-only half of an [`IncrementalVerifier`]: what a candidate is
/// verified against. It never mutates the per-prefix caches, so a
/// candidate's verdict is a pure function of (committed base state,
/// candidate config, patch).
struct BaseView<'v, 'a> {
    verifier: &'v Verifier<'a>,
    base: &'v CompiledBase,
    caches: &'v Caches,
}

impl<'v, 'a> BaseView<'v, 'a> {
    /// Verifies a candidate configuration against the committed base;
    /// see [`IncrementalVerifier::verify_candidate`]. `memo` is the
    /// verifier's **cross-candidate policy memo**, whose entries reference
    /// `arena` ids. Reuse is sound because candidate simulators share the
    /// committed base's device models for unpatched routers (delta
    /// construction), and [`PolicyMemo::begin_run`] drops
    /// entries on sessions adjacent to routers the patch (or the previous
    /// candidate's patch) touched, moving the rest to their link's index
    /// when the session list changed shape. What survives — unchanged
    /// `Arc`-shared device models evaluating pure transfer functions over
    /// content-identical sessions — is byte-exact to recomputing, so
    /// verdicts, derivations, and rejection records are unchanged.
    fn verify_candidate(
        &self,
        cfg: &NetworkConfig,
        patch: &Patch,
        arena: &mut DerivArena,
        memo: &mut PolicyMemo,
    ) -> (Verification, IncrementalStats) {
        // Build the candidate simulator: delta-compiled from the committed
        // base, whose model diff feeds the affected-prefix analysis.
        let sim = Simulator::from_base_with_patch(self.verifier.topo(), self.base, cfg, patch);
        let info = (sim.delta_info()).expect("a delta-built simulator carries its model diff");
        let universe = sim.universe();
        let affected = {
            let _s = span!("verify.affected", "verify");
            affected_prefixes(self.caches, info, &universe)
        };
        // The cross-candidate memo is sound because this candidate was
        // delta-built: unchanged routers hold the base's own `Arc`'d
        // models, so a memoized transfer between two unpatched endpoints
        // is pure in inputs the patch cannot reach. Structural session
        // changes are fine — `begin_run` moves surviving slots to their
        // link's new index.
        memo.begin_run(sim.base().sessions(), &patch.routers());
        let run = simulate(&sim, &universe, affected, arena, memo);
        let lines = info.lines.clone();
        self.assemble(&sim, &universe, run, arena, lines)
    }

    /// The one tail of commit, resume and candidate: fresh outcomes over
    /// the cache, the base FIBs (the committed ones, rebuilt only for
    /// recompiled routers), then the property walks on the merged state,
    /// each reading BGP forwarding from the merged outcomes. `lines`
    /// numbers `sim`'s recompiled devices; the verification leaves with
    /// its session diagnostics rendered and carries it for the rest.
    fn assemble(
        &self,
        sim: &Simulator<'a>,
        universe: &BTreeSet<Prefix>,
        run: Run,
        arena: &mut DerivArena,
        lines: LineMap,
    ) -> (Verification, IncrementalStats) {
        let Run {
            fresh,
            mut stats,
            started,
        } = run;
        // Merge: fresh results override the cache; prefixes outside the
        // universe are dropped. The map holds *references* (cache entries
        // are read-only here), so validating a candidate never deep-clones
        // the committed per-prefix state. Every universe prefix has an
        // outcome: one new to it is always affected.
        let merged: BTreeMap<Prefix, &PrefixOutcome> = universe
            .iter()
            .map(|p| (*p, fresh.get(p).unwrap_or_else(|| &self.caches.outcomes[p])))
            .collect();
        // Base FIBs are a pure function of (topology, device model): a
        // router still holding the committed model `Arc` (every unpatched
        // one) borrows the committed FIB, and the derivation interns a
        // rebuild would have made would have been dedup hits — the arena
        // stays byte-identical to assembling from scratch. BGP forwarding
        // is read from `merged` by each walk's `FibView`; nothing is
        // installed.
        let fibs_span = span!("verify.fibs", "verify");
        let committed = self.base.models();
        let models = sim.models().iter().enumerate();
        let rebuilt: Vec<Option<Fib>> = models
            .map(|(i, m)| match committed.get(i) {
                Some(c) if Arc::ptr_eq(m, c) => None,
                _ => Some(sim.base_fib_of(RouterId(i as u32), arena)),
            })
            .collect();
        let base_fibs: Vec<&Fib> = (rebuilt.iter().enumerate())
            .map(|(i, fib)| fib.as_ref().unwrap_or_else(|| &self.caches.fib_base[i]))
            .collect();
        drop(fibs_span);
        // Booked from the call's statistics, not from the base-FIB pass
        // above: a commit replays what `Caches::fill` has just built, and
        // that is built, not reused. A router's base FIB is rebuilt exactly
        // when its device was compiled for this call.
        FIB_ROUTERS_REBUILT.add(stats.compiled_devices as u64);
        FIB_ROUTERS_REUSED.add((base_fibs.len() - stats.compiled_devices) as u64);
        stats.simulate = started.elapsed();
        let diags: Vec<SessionDiag> = (sim.session_diags().iter())
            .map(|d| d.rendered(&lines))
            .collect();
        let mut verification = (self.verifier).evaluate(sim, &merged, &base_fibs, arena, &diags);
        verification.line_map = lines;
        (verification, stats)
    }
}

/// One simulation of an affected set, on its way to the tail.
struct Run {
    fresh: BTreeMap<Prefix, PrefixOutcome>,
    stats: IncrementalStats,
    started: Instant,
}

/// Simulates `affected` and books the call: the one place prefixes are
/// run and the recompute/reuse statistics and counters are kept.
fn simulate(
    sim: &Simulator<'_>,
    universe: &BTreeSet<Prefix>,
    (affected, rule): (BTreeSet<Prefix>, &Counter),
    arena: &mut DerivArena,
    memo: &mut PolicyMemo,
) -> Run {
    let build: SimBuild = sim.build_stats();
    let started = Instant::now();
    let (fresh, _) = sim.run_prefixes_with(&affected, arena, memo);
    let stats = IncrementalStats {
        recomputed: fresh.len(),
        reused: universe.len() - fresh.len(),
        compiled_devices: build.compiled_devices,
        established_routers: build.established_routers,
        compile: build.compile,
        establish: build.establish,
        simulate: Duration::ZERO,
        converge: started.elapsed(),
    };
    PREFIXES_RECOMPUTED.add(stats.recomputed as u64);
    PREFIXES_REUSED.add(stats.reused as u64);
    rule.add(stats.recomputed as u64);
    Run {
        fresh,
        stats,
        started,
    }
}

/// The prefixes whose cached outcome a candidate may not reuse, and the
/// `verify.invalidated.*` counter of the rule that chose them — the one
/// place an affected set is computed.
///
/// **Contract.** A cached per-prefix outcome is a pure function of exactly
/// what a per-prefix run reads: the session vector (views, base lines,
/// policy bindings), each router's AS value, the prefix's originations,
/// and `eval_policy` over the touched models' `route_policies` and
/// `prefix_lists`. The candidate's recompiled devices are numbered in the
/// committed lines ([`DeltaInfo::lines`]), so a statement the patch kept
/// is named by the same line on both sides and a moved statement changes
/// none of those inputs. Every universe prefix for which one of them can
/// differ between the committed configuration and the candidate, or whose
/// closure holds a line the candidate no longer has, is returned. What
/// differs is read off `info`, the old-vs-new model diff. (A commit has
/// nothing cached and runs every prefix; it books them under
/// `verify.invalidated.cold` itself.) The affected set is
///
/// 1. **Every prefix** when sessions changed structurally (routes may
///    flow along paths no cached closure has a trace of), or when a
///    touched router's AS value or a policy one of its peers binds
///    changed — `eval_policy` leaves no line in a prefix's closure for a
///    node it fell through, names only the first node on an implicit
///    deny, and nothing at all for an undefined policy, so closures cannot
///    say which prefixes a changed policy now treats differently.
///
/// and otherwise the union of
///
/// 2. prefixes whose originations changed on a touched router;
/// 3. prefixes matched by a changed prefix-list entry (an entry can only
///    decide a route it matches);
/// 4. prefixes whose closure holds a line the patch deleted or replaced,
///    or a line of a session whose attribution changed without a
///    structural change;
/// 5. prefixes new to the universe, which have no cached outcome.
fn affected_prefixes(
    caches: &Caches,
    info: &DeltaInfo,
    universe: &BTreeSet<Prefix>,
) -> (BTreeSet<Prefix>, &'static Counter) {
    if info.session_delta == SessionDelta::Structural {
        return (universe.clone(), &INV_SESSIONS);
    }
    if info.policy_changed {
        return (universe.clone(), &INV_POLICY);
    }
    // A handful of lines, each looked up in a closure: no closure is
    // scanned.
    let stale: Vec<LineId> = (info.lines.dead())
        .chain(info.stale_session_lines.iter().copied())
        .collect();
    let narrowed = universe.iter().filter(|p| {
        info.changed_origin_prefixes.contains(p)
            || info.changed_pl_entries.iter().any(|e| e.matches(**p))
            || (caches.closures.get(p)).is_none_or(|c| stale.iter().any(|l| c.contains(l)))
    });
    (narrowed.copied().collect(), &INV_NARROWED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Property;
    use acr_cfg::ast::{NextHop, PlAction};
    use acr_cfg::parse::parse_device;
    use acr_cfg::{Edit, PeerRef, Stmt};
    use acr_net_types::{Asn, Ipv4Addr};
    use acr_topo::gen;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A 5-router line where each end originates a prefix; edits at one end
    /// must not invalidate the other end's prefix. R2 imports from R1
    /// through policy `IN` (one catch-all node over prefix list `all`) and
    /// from R3 through `GHOST`, which nothing defines.
    fn scenario() -> (Topology, NetworkConfig, Spec) {
        let topo = gen::line(5);
        // Link i: .1+4i / .2+4i between Ri and Ri+1.
        let cfgs = [
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n",
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n",
            "bgp 65002\n peer 172.16.0.5 as-number 65001\n peer 172.16.0.5 route-policy IN import\n peer 172.16.0.10 as-number 65003\n peer 172.16.0.10 route-policy GHOST import\nroute-policy IN permit node 10\n if-match ip-prefix all\nip prefix-list all index 10 permit 0.0.0.0 0 le 32\n",
            "bgp 65003\n peer 172.16.0.9 as-number 65002\n peer 172.16.0.14 as-number 65004\n",
            "bgp 65004\n network 10.4.0.0 16\n peer 172.16.0.13 as-number 65003\nip route-static 30.0.0.0 16 NULL0\n",
        ];
        let mut cfg = NetworkConfig::new();
        for (r, c) in topo.routers().iter().zip(cfgs) {
            cfg.insert(r.id, parse_device(r.name.clone(), c).unwrap());
        }
        let spec = Spec::new()
            .with(Property::reach(
                "to-east",
                RouterId(0),
                p("10.0.0.0/16"),
                p("10.4.0.0/16"),
            ))
            .with(Property::reach(
                "to-west",
                RouterId(4),
                p("10.4.0.0/16"),
                p("10.0.0.0/16"),
            ));
        (topo, cfg, spec)
    }

    fn append(cfg: &NetworkConfig, router: u32, stmt: Stmt) -> Patch {
        Patch::single(Edit::Insert {
            router: RouterId(router),
            index: cfg.device(RouterId(router)).unwrap().len(),
            stmt,
        })
    }

    fn peer_as(last_octet: u8, asn: u32) -> Stmt {
        Stmt::PeerAs {
            peer: PeerRef::Ip(Ipv4Addr::new(172, 16, 0, last_octet)),
            asn: Asn(asn),
        }
    }

    fn pl_entry(list: &str, index: u32, prefix: &str) -> Stmt {
        Stmt::PrefixListEntry {
            list: list.into(),
            index,
            action: PlAction::Permit,
            prefix: p(prefix),
            ge: None,
            le: Some(32),
        }
    }

    /// Commits `cfg`, validates `patch` against it, checks the verdicts,
    /// violations, paths and coverage lines against a full verification of
    /// the patched configuration, and returns the candidate's verification
    /// and stats.
    fn candidate(
        topo: &Topology,
        spec: &Spec,
        cfg: &NetworkConfig,
        patch: &Patch,
    ) -> (Verification, IncrementalStats) {
        let mut iv = IncrementalVerifier::new(topo, spec);
        iv.commit(cfg);
        let patched = patch.apply_cloned(cfg).unwrap();
        let v_inc = iv.verify_candidate(&patched, patch);
        let (v_full, _) = Verifier::new(topo, spec).run_full(&patched);
        for (a, b) in v_inc.records.iter().zip(&v_full.records) {
            assert_eq!(
                (a.passed, &a.violation, &a.path),
                (b.passed, &b.violation, &b.path)
            );
        }
        let models = CompiledBase::new(topo, &patched);
        let coverage = iv.verifier().coverage(&v_inc, iv.arena(), models.models());
        for (a, b) in coverage.tests().iter().zip(v_full.matrix.tests()) {
            assert_eq!(a.lines, b.lines, "coverage must match full verification");
        }
        (v_inc, iv.last_stats())
    }

    #[test]
    fn cold_call_computes_everything() {
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        let v = iv.commit(&cfg);
        assert!(v.all_passed());
        assert_eq!(iv.last_stats().recomputed, 2);
        assert_eq!(iv.last_stats().reused, 0);
    }

    /// An appended static route or ACL rule changes no input of a cached
    /// outcome (R4 redistributes nothing): base FIBs and the data-plane
    /// walks pick it up, no prefix is re-simulated — even one whose
    /// literal overlaps.
    #[test]
    fn unrelated_edit_reuses_cache() {
        let (topo, cfg, spec) = scenario();
        let static_route = append(
            &cfg,
            4,
            Stmt::StaticRoute {
                prefix: p("10.0.0.0/8"),
                next_hop: NextHop::Null0,
            },
        );
        let acl_text = "acl 3000\n rule 5 permit ip source 10.0.0.0 16 destination 10.4.0.0 16\n";
        let acl = parse_device("X", acl_text).unwrap();
        let mut acl_patch = Patch::new();
        for (i, stmt) in acl.stmts().iter().enumerate() {
            acl_patch.push(Edit::Insert {
                router: RouterId(4),
                index: 4 + i,
                stmt: stmt.clone(),
            });
        }
        for patch in [static_route, acl_patch] {
            let (v, stats) = candidate(&topo, &spec, &cfg, &patch);
            assert!(v.all_passed());
            assert_eq!((stats.recomputed, stats.reused), (0, 2), "{patch}");
        }
    }

    /// A new prefix-list entry invalidates exactly the prefixes it matches.
    #[test]
    fn overlapping_literal_invalidates_prefix() {
        let (topo, cfg, spec) = scenario();
        let patch = append(&cfg, 2, pl_entry("l", 10, "10.4.0.0/16"));
        let (v, stats) = candidate(&topo, &spec, &cfg, &patch);
        assert!(v.all_passed());
        assert_eq!((stats.recomputed, stats.reused), (1, 1));
    }

    /// Replacing an entry's prefix re-simulates what the old entry matched
    /// (10.0/16 loses its permit) and what the new one does — here, with a
    /// third prefix originated and untouched, exactly those two.
    #[test]
    fn replaced_prefix_list_entry_invalidates_the_old_and_the_new_literal() {
        let (topo, cfg, spec) = scenario();
        let setup = Patch {
            edits: vec![
                Edit::Replace {
                    router: RouterId(2),
                    index: 7,
                    stmt: pl_entry("all", 10, "10.0.0.0/16"),
                },
                Edit::Insert {
                    router: RouterId(0),
                    index: 2,
                    stmt: Stmt::Network(p("10.9.0.0/16")),
                },
            ],
        };
        let cfg = setup.apply_cloned(&cfg).unwrap();
        let patch = Patch::single(Edit::Replace {
            router: RouterId(2),
            index: 7,
            stmt: pl_entry("all", 10, "10.9.0.0/16"),
        });
        let (v, stats) = candidate(&topo, &spec, &cfg, &patch);
        assert_eq!(v.failed_count(), 1, "10.0/16 is no longer imported at R2");
        assert_eq!((stats.recomputed, stats.reused), (2, 1));
    }

    /// A remark above R2's policy moves it and changes nothing: 10.0/16,
    /// imported through it, holds the policy's lines by the statements'
    /// committed numbers, which the candidate keeps.
    #[test]
    fn renumbered_policy_invalidates_nothing() {
        let (topo, cfg, spec) = scenario();
        let patch = Patch::single(Edit::Insert {
            router: RouterId(2),
            index: 5,
            stmt: Stmt::Remark("moved".into()),
        });
        let (v, stats) = candidate(&topo, &spec, &cfg, &patch);
        assert!(v.all_passed());
        assert_eq!((stats.recomputed, stats.reused), (0, 2));
    }

    /// A remark at the top of every device moves every line of the
    /// network, session lines included, and re-simulates nothing; the
    /// coverage still names the candidate's own lines (`candidate`
    /// compares it with a full verification).
    #[test]
    fn a_remark_above_every_device_recomputes_nothing() {
        let (topo, cfg, spec) = scenario();
        let mut patch = Patch::new();
        for router in cfg.routers() {
            patch.push(Edit::Insert {
                router,
                index: 0,
                stmt: Stmt::Remark("moved".into()),
            });
        }
        let (v, stats) = candidate(&topo, &spec, &cfg, &patch);
        assert!(v.all_passed());
        assert_eq!((stats.recomputed, stats.reused), (0, 2));
        assert_eq!(stats.established_routers, 0, "no session changed");
    }

    /// Restating a `network` below everything gives its prefix a second
    /// origination source and moves no line.
    #[test]
    fn restated_network_invalidates_its_prefix() {
        let (topo, cfg, spec) = scenario();
        let patch = append(&cfg, 4, Stmt::Network(p("10.4.0.0/16")));
        let (v, stats) = candidate(&topo, &spec, &cfg, &patch);
        assert!(v.all_passed());
        assert_eq!((stats.recomputed, stats.reused), (1, 1));
    }

    #[test]
    fn session_edit_invalidates_everything() {
        let (topo, cfg, spec) = scenario();
        let patch = Patch::single(Edit::Replace {
            router: RouterId(2),
            index: 1,
            stmt: peer_as(5, 64999),
        });
        let (v, stats) = candidate(&topo, &spec, &cfg, &patch);
        assert_eq!(v.failed_count(), 2, "broken transit session fails both");
        assert_eq!(stats.recomputed, 2);
    }

    /// Defining a bound policy nothing defined: prefixes it now denies
    /// hold none of its lines (an undefined policy permits without one).
    #[test]
    fn defining_an_undefined_bound_policy_invalidates_everything() {
        let (topo, cfg, spec) = scenario();
        let patch = append(
            &cfg,
            2,
            Stmt::RoutePolicyDef {
                name: "GHOST".into(),
                action: PlAction::Deny,
                node: 10,
            },
        );
        let (v, stats) = candidate(&topo, &spec, &cfg, &patch);
        assert_eq!(v.failed_count(), 1, "R2 now denies everything from R3");
        assert_eq!((stats.recomputed, stats.reused), (2, 0));
    }

    /// Deleting an `if-match` widens its node to routes that fell through
    /// it before — and a fall-through leaves no line in a closure.
    #[test]
    fn deleted_if_match_invalidates_everything() {
        let (topo, cfg, spec) = scenario();
        // `all` → a list matching nothing cached: both prefixes fall
        // through node 10 into the implicit deny.
        let narrow = Patch::single(Edit::Replace {
            router: RouterId(2),
            index: 7,
            stmt: pl_entry("all", 10, "99.0.0.0/8"),
        });
        let cfg = narrow.apply_cloned(&cfg).unwrap();
        let patch = Patch::single(Edit::Delete {
            router: RouterId(2),
            index: 6,
        });
        let (v, stats) = candidate(&topo, &spec, &cfg, &patch);
        assert!(v.all_passed(), "the bare node permits everything");
        assert_eq!((stats.recomputed, stats.reused), (2, 0));
    }

    /// Restating a peer's AS adds a line to its session's attribution
    /// without moving any line a cached closure holds.
    #[test]
    fn restated_peer_statement_invalidates_the_prefixes_crossing_its_session() {
        let (topo, cfg, spec) = scenario();
        let patch = append(&cfg, 1, peer_as(1, 65000));
        let (v, stats) = candidate(&topo, &spec, &cfg, &patch);
        assert!(v.all_passed());
        assert_eq!((stats.recomputed, stats.reused), (2, 0));
    }

    /// A `network` inserted above R0's peer statement moves the session
    /// line 10.0/16 and 10.4/16 both cross, and changes neither: only the
    /// new prefix runs.
    #[test]
    fn incremental_matches_full_verification() {
        let (topo, cfg, spec) = scenario();
        let patch = Patch::single(Edit::Insert {
            router: RouterId(0),
            index: 2,
            stmt: Stmt::Network(p("10.9.0.0/16")),
        });
        let (_, stats) = candidate(&topo, &spec, &cfg, &patch);
        assert_eq!((stats.recomputed, stats.reused), (1, 2));
    }

    #[test]
    fn suspend_resume_recomputes_nothing_and_matches_cold_commit() {
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        let v_cold = iv.commit(&cfg);
        let models = iv.base().expect("committed").clone();
        let cov_cold = iv.verifier().coverage(&v_cold, iv.arena(), models.models());
        let warm = iv.suspend().expect("committed verifier suspends");
        let mut iv2 = IncrementalVerifier::new(&topo, &spec);
        let v_warm = (iv2.resume(warm, &cfg, cfg.fingerprint()))
            .expect("resume must hit on an identical configuration");
        assert_eq!(iv2.last_stats().recomputed, 0, "resume must replay caches");
        assert_eq!(iv2.last_stats().reused, 2);
        assert_eq!(iv2.last_stats().compiled_devices, 0);
        assert_eq!(iv2.last_stats().established_routers, 0);
        let cold: Vec<bool> = v_cold.records.iter().map(|r| r.passed).collect();
        let warm: Vec<bool> = v_warm.records.iter().map(|r| r.passed).collect();
        assert_eq!(cold, warm);
        let cov_warm = iv2
            .verifier()
            .coverage(&v_warm, iv2.arena(), models.models());
        for (a, b) in cov_cold.tests().iter().zip(cov_warm.tests()) {
            assert_eq!(a.lines, b.lines, "coverage must survive suspend/resume");
        }
        // The resumed verifier keeps validating candidates correctly.
        let patch = Patch::single(Edit::Replace {
            router: RouterId(2),
            index: 1,
            stmt: peer_as(5, 64999),
        });
        let cand = patch.apply_cloned(&cfg).unwrap();
        let v = iv2.verify_candidate(&cand, &patch);
        assert_eq!(v.failed_count(), 2);
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        iv.commit(&cfg);
        let warm = iv.suspend().unwrap();
        let patch = Patch::single(Edit::Insert {
            router: RouterId(0),
            index: 2,
            stmt: Stmt::Network(p("10.9.0.0/16")),
        });
        let other = patch.apply_cloned(&cfg).unwrap();
        let mut cold = IncrementalVerifier::new(&topo, &spec);
        let refused = cold.resume(warm, &other, other.fingerprint());
        assert!(
            refused.is_none(),
            "fingerprint mismatch must refuse to resume"
        );
        assert!(
            cold.base().is_none(),
            "a refused resume leaves the verifier cold"
        );
        let v = cold.commit(&other);
        assert!(v.all_passed());
        // Full universe: the two spec prefixes plus the inserted network.
        assert_eq!(cold.last_stats().recomputed, 3, "cold fallback runs full");
    }

    #[test]
    fn commit_with_verifies_as_commit_and_lends_the_committed_base() {
        let (topo, cfg, spec) = scenario();
        let plain = IncrementalVerifier::new(&topo, &spec).commit(&cfg);
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        let (v, seen) = iv.commit_with(&cfg, |base| base.clone());
        assert_eq!(v, plain);
        let committed = iv.base().expect("committed").models();
        assert_eq!(seen.models().len(), committed.len());
        for (a, b) in seen.models().iter().zip(committed) {
            assert!(Arc::ptr_eq(a, b), "the side saw another compile");
        }
    }

    #[test]
    fn a_panicking_side_unwinds_commit_with_with_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Payload(u32);
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            iv.commit_with(&cfg, |_| std::panic::panic_any(Payload(7)))
        }));
        let payload = caught.expect_err("the side's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<Payload>(), Some(&Payload(7)));
    }

    #[test]
    fn uncommitted_verifier_does_not_suspend() {
        let (topo, _cfg, spec) = scenario();
        let iv = IncrementalVerifier::new(&topo, &spec);
        assert!(iv.suspend().is_none());
    }

    /// Candidates never update the cache: each of three successive
    /// candidates is judged against the committed base alone.
    #[test]
    fn repeated_incremental_calls_accumulate_correctly() {
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        iv.commit(&cfg);
        for i in 0..3u8 {
            // A network on R4 enters the universe and renumbers nothing
            // cached; the previous candidate's network is forgotten.
            let patch = Patch::single(Edit::Insert {
                router: RouterId(4),
                index: 3,
                stmt: Stmt::Network(Prefix::from_octets(99, i, 0, 0, 16)),
            });
            let v = iv.verify_candidate(&patch.apply_cloned(&cfg).unwrap(), &patch);
            assert!(v.all_passed());
            let stats = iv.last_stats();
            assert_eq!((stats.recomputed, stats.reused), (1, 2));
        }
    }
}
