//! The compiled form of a configuration.
//!
//! A [`CompiledBase`] is the one place device models and BGP sessions are
//! built: the per-device semantic models ([`compile_device`]), the
//! established sessions (kept per router so a patch re-runs establishment
//! only where it can matter) and the [`OriginIndex`]. It owns all of it
//! and borrows no topology, so a verifier can park it between incidents
//! as it is. [`crate::Simulator`] wraps one, the incremental verifier
//! commits one, and the `acr-flow` analysis and the `acr-lint` rules read
//! its models and sessions. [`CompiledBase::delta`] derives a candidate's
//! compiled form from a base plus a [`Patch`]:
//!
//! - **models** — only devices the patch touches are recompiled; every
//!   other router shares the base's `Arc<DeviceModel>`. A recompiled
//!   device is numbered in the base's lines through the patch's
//!   [`LineMap`]: a statement the patch kept keeps its line, an inserted
//!   or replaced one gets a fresh line, so a statement that only moved
//!   compiles to what it compiled to before.
//! - **sessions** — a router's establishment part depends only on its own
//!   `peers`/AS value, its topological neighbors' `peers`/AS values, and
//!   the static topology (see [`establish_router`]). So establishment
//!   reruns only for touched routers whose peer stanza or AS value
//!   actually changed, plus their neighbors (who re-pair against the
//!   patched half); everything else reuses the base parts. Concatenating
//!   parts in router order reproduces a full [`crate::session::establish`]
//!   byte for byte.
//! - **originations** — touched routers swap their per-router slice in
//!   the index; the prefixes whose origination set changed are reported
//!   for invalidation.
//!
//! The delta computation holds the old and the new model of every touched
//! router side by side, so it is also the one place that says *what
//! changed* for the incremental verifier ([`DeltaInfo`]): the session
//! class, whether a bound policy or an AS value differs, which
//! originations and which prefix-list entries do, and — through the line
//! map — which lines the patch deleted or replaced. `acr-verify` turns
//! that diff — never the patch's statements — into its affected-prefix
//! set, and renders through the map whatever of a candidate's
//! verification names a line.

use crate::bgp::Origination;
use crate::origin::{router_origins, OriginIndex};
use crate::session::{establish_router, Session, SessionDiag};
use acr_cfg::model::{DeviceModel, PlEntry, PolicyNode};
use acr_cfg::{LineId, LineMap, NetworkConfig, Patch};
use acr_net_types::{Prefix, RouterId};
use acr_obs::metrics::Counter;
use acr_obs::span;
use acr_topo::Topology;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

static COMPILED_DEVICES: Counter = Counter::new("sim.compiled_devices");
static ESTABLISHED_ROUTERS: Counter = Counter::new("sim.established_routers");
static DELTA_BUILDS: Counter = Counter::new("sim.delta.builds");
static DELTA_COMPILED: Counter = Counter::new("sim.delta.compiled_devices");
static DELTA_ESTABLISHED: Counter = Counter::new("sim.delta.established_routers");

/// One router's session-establishment output (see [`establish_router`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionPart {
    pub sessions: Vec<Session>,
    pub diags: Vec<SessionDiag>,
}

/// Construction cost accounting for one compiled form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimBuild {
    /// Wall-clock spent compiling device models (plus origination-index
    /// maintenance).
    pub compile: Duration,
    /// Wall-clock spent establishing BGP sessions.
    pub establish: Duration,
    /// Devices actually compiled (delta path: patched devices only).
    pub compiled_devices: usize,
    /// Routers whose establishment part was recomputed.
    pub established_routers: usize,
    /// Whether this form was derived from a base ([`CompiledBase::delta`]).
    pub delta: bool,
}

/// How a patch changed the session layer, for cache invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionDelta {
    /// Sessions and diagnostics are byte-identical to the base.
    Unchanged,
    /// Only line attributions changed: a peer statement was restated,
    /// deleted beside a duplicate, or replaced by an equal one. The
    /// sessions carry the same endpoints and policies; the base's lines
    /// of each changed one are in [`DeltaInfo::stale_session_lines`].
    LinesOnly,
    /// A session or diagnostic appeared, disappeared, or changed its
    /// endpoints/policy bindings — routes may flow along new paths with
    /// no trace in any cached closure, so everything must be re-simulated.
    Structural,
}

/// What a delta build learned by comparing the touched routers' old and
/// new models — the input to cache invalidation in `acr-verify`.
#[derive(Debug, Clone)]
pub struct DeltaInfo {
    pub session_delta: SessionDelta,
    /// Under [`SessionDelta::LinesOnly`]: the *base's* lines of every
    /// session whose attribution differs. A restated peer statement adds
    /// to (or takes from) a session's line set without killing a line
    /// cached closures already hold, so the dead lines alone miss it.
    pub stale_session_lines: Vec<LineId>,
    /// A touched router's AS value differs, or a route-policy one of its
    /// peers binds has a different node list once line numbers are set
    /// aside (defined ↔ undefined included). Such a change leaves no line
    /// in the closure of a prefix the old policy did not match, so every
    /// prefix may transfer differently.
    pub policy_changed: bool,
    /// Prefixes whose origination set changed on a touched router
    /// (origins added, dropped, or re-attributed).
    pub changed_origin_prefixes: BTreeSet<Prefix>,
    /// Prefix-list entries a first-match scan can see differently: per
    /// list, what is left of the old and the new entries — line numbers
    /// aside — after their common head and tail. A route whose prefix
    /// none of them [`PlEntry::matches`] evaluates every list as before.
    pub changed_pl_entries: Vec<PlEntry>,
    /// The numbering of the touched devices: [`LineMap::dead`] names
    /// the base lines the patch deleted or replaced, and
    /// [`LineMap::render`] turns a line of the candidate's compiled form
    /// into the candidate's own line.
    pub lines: LineMap,
}

/// The compiled form of one configuration over a topology: models,
/// sessions and originations, indexed by `RouterId::index()`. Cheap to
/// clone — every part sits behind an `Arc`.
#[derive(Debug, Clone)]
pub struct CompiledBase {
    models: Vec<Arc<DeviceModel>>,
    parts: Arc<Vec<Arc<SessionPart>>>,
    sessions: Arc<Vec<Session>>,
    session_diags: Arc<Vec<SessionDiag>>,
    origin: Arc<OriginIndex>,
    build: SimBuild,
}

impl CompiledBase {
    /// Compiles `cfg` against `topo` from scratch. Routers present in the
    /// topology but absent from the configuration get an empty model
    /// (they forward nothing and peer with nobody).
    pub fn new(topo: &Topology, cfg: &NetworkConfig) -> Self {
        let n = topo.routers().len();
        let t = Instant::now();
        let models: Vec<Arc<DeviceModel>> = {
            let _s = span!("sim.compile", "sim").arg("devices", n as u64);
            let routers = topo.routers().iter();
            routers
                .map(|r| Arc::new(compile_device(topo, cfg, r.id)))
                .collect()
        };
        let origin = Arc::new(OriginIndex::build(topo, &models));
        let compile = t.elapsed();
        let t = Instant::now();
        let parts: Vec<Arc<SessionPart>> = {
            let _s = span!("sim.establish", "sim");
            let routers = topo.routers().iter();
            routers
                .map(|r| {
                    let (sessions, diags) = establish_router(topo, &models, r.id);
                    Arc::new(SessionPart { sessions, diags })
                })
                .collect()
        };
        let (sessions, session_diags) = concat_parts(&parts);
        COMPILED_DEVICES.add(n as u64);
        ESTABLISHED_ROUTERS.add(n as u64);
        CompiledBase {
            models,
            parts: Arc::new(parts),
            sessions: Arc::new(sessions),
            session_diags: Arc::new(session_diags),
            origin,
            build: SimBuild {
                compile,
                establish: t.elapsed(),
                compiled_devices: n,
                established_routers: n,
                delta: false,
            },
        }
    }

    /// Construction cost of this form.
    pub fn build_stats(&self) -> SimBuild {
        self.build
    }

    /// The compiled models, indexed by `RouterId::index()`.
    pub fn models(&self) -> &[Arc<DeviceModel>] {
        &self.models
    }

    /// Established sessions, behind the handle a cross-run
    /// [`crate::PolicyMemo`] keys its slot layout against.
    pub fn sessions(&self) -> &Arc<Vec<Session>> {
        &self.sessions
    }

    /// Why configured peers are down.
    pub fn session_diags(&self) -> &Arc<Vec<SessionDiag>> {
        &self.session_diags
    }

    /// The origination index.
    pub fn origin(&self) -> &Arc<OriginIndex> {
        &self.origin
    }

    /// The compiled form of `cfg`, which must equal this base's
    /// configuration with `patch` applied, and what changed: recompiles
    /// the touched devices in this base's lines ([`DeltaInfo::lines`]),
    /// re-runs establishment where it can matter and splices the
    /// origination index. Rendered through the line map, the result is
    /// field-for-field identical to `CompiledBase::new(topo, cfg)` except
    /// for its build stats — see the module docs for the argument.
    pub fn delta(
        &self,
        topo: &Topology,
        cfg: &NetworkConfig,
        patch: &Patch,
    ) -> (CompiledBase, DeltaInfo) {
        self.delta_numbered(topo, cfg, patch, LineMap::new(cfg, patch))
    }

    /// The compiled form of `cfg` — this base's configuration with
    /// `patch` applied — in `cfg`'s own lines: [`CompiledBase::delta`]
    /// with the touched devices numbered `1..=len`, so it equals
    /// `CompiledBase::new(topo, cfg)` field for field while sharing every
    /// untouched part. For readers of a candidate's models by line
    /// (templates, lint, the flow analysis); the incremental verifier
    /// simulates `delta`'s form.
    pub fn patched(&self, topo: &Topology, cfg: &NetworkConfig, patch: &Patch) -> CompiledBase {
        self.delta_numbered(topo, cfg, patch, LineMap::default()).0
    }

    /// The one delta body, the touched devices numbered by `lines`.
    fn delta_numbered(
        &self,
        topo: &Topology,
        cfg: &NetworkConfig,
        patch: &Patch,
        lines: LineMap,
    ) -> (CompiledBase, DeltaInfo) {
        let t = Instant::now();
        let touched = patch.routers();
        let _compile_span = span!("sim.compile.delta", "sim").arg("devices", touched.len() as u64);
        let mut models = self.models.clone();
        let mut origin_repl: BTreeMap<RouterId, BTreeMap<Prefix, Origination>> = BTreeMap::new();
        let mut session_changed: BTreeSet<RouterId> = BTreeSet::new();
        let mut changed_origin_prefixes: BTreeSet<Prefix> = BTreeSet::new();
        let mut changed_pl_entries: Vec<PlEntry> = Vec::new();
        let mut policy_changed = false;
        for r in &touched {
            let old = &self.models[r.index()];
            let new = match (cfg.device(*r), lines.ids(*r)) {
                (Some(device), Some(ids)) => DeviceModel::numbered(device, ids),
                _ => compile_device(topo, cfg, *r),
            };
            let as_changed = as_value(old) != as_value(&new);
            if old.peers != new.peers || as_changed {
                session_changed.insert(*r);
            }
            let same_policies = old.route_policies == new.route_policies;
            let same_lists = old.prefix_lists == new.prefix_lists;
            let old_part = router_origins(topo, *r, old);
            let new_part = router_origins(topo, *r, &new);
            if old_part != new_part {
                for p in old_part.keys().chain(new_part.keys()) {
                    if old_part.get(p) != new_part.get(p) {
                        changed_origin_prefixes.insert(*p);
                    }
                }
                origin_repl.insert(*r, new_part);
            }
            policy_changed |= as_changed || (!same_policies && bound_policy_differs(old, &new));
            if !same_lists {
                diff_prefix_lists(old, &new, &mut changed_pl_entries);
            }
            models[r.index()] = Arc::new(new);
        }
        let origin = if origin_repl.is_empty() {
            self.origin.clone()
        } else {
            Arc::new(self.origin.with_replaced(&origin_repl))
        };
        let compile = t.elapsed();
        drop(_compile_span);
        DELTA_BUILDS.inc();
        DELTA_COMPILED.add(touched.len() as u64);

        let t = Instant::now();
        let _establish_span = span!("sim.establish.delta", "sim");
        let mut established_routers = 0usize;
        let mut parts = self.parts.clone();
        let (sessions, session_diags, session_delta) = if session_changed.is_empty() {
            (
                self.sessions.clone(),
                self.session_diags.clone(),
                SessionDelta::Unchanged,
            )
        } else {
            // Re-establish the changed routers and their neighbors (whose
            // parts read the changed `peers` maps / AS values).
            let mut affected = session_changed.clone();
            for r in &session_changed {
                for (n, _) in topo.neighbors(*r) {
                    affected.insert(n);
                }
            }
            established_routers = affected.len();
            for r in &affected {
                let (sessions, diags) = establish_router(topo, &models, *r);
                let part = SessionPart { sessions, diags };
                if *self.parts[r.index()] != part {
                    Arc::make_mut(&mut parts)[r.index()] = Arc::new(part);
                }
            }
            if Arc::ptr_eq(&parts, &self.parts) {
                (
                    self.sessions.clone(),
                    self.session_diags.clone(),
                    SessionDelta::Unchanged,
                )
            } else {
                let (sessions, diags) = concat_parts(&parts);
                let structural =
                    !same_structure(&sessions, &diags, &self.sessions, &self.session_diags);
                (
                    Arc::new(sessions),
                    Arc::new(diags),
                    if structural {
                        SessionDelta::Structural
                    } else {
                        SessionDelta::LinesOnly
                    },
                )
            }
        };
        let stale_session_lines = if session_delta == SessionDelta::LinesOnly {
            let changed = self.sessions.iter().zip(sessions.iter());
            changed
                .filter(|(old, new)| old != new)
                .flat_map(|(old, _)| old.a_lines.iter().chain(&old.b_lines).copied())
                .collect()
        } else {
            Vec::new()
        };
        let establish = t.elapsed();
        drop(_establish_span);
        DELTA_ESTABLISHED.add(established_routers as u64);

        let base = CompiledBase {
            models,
            parts,
            sessions,
            session_diags,
            origin,
            build: SimBuild {
                compile,
                establish,
                compiled_devices: touched.len(),
                established_routers,
                delta: true,
            },
        };
        let info = DeltaInfo {
            session_delta,
            stale_session_lines,
            policy_changed,
            changed_origin_prefixes,
            changed_pl_entries,
            lines,
        };
        (base, info)
    }
}

/// The semantic model of router `id` under `cfg` — the one model builder:
/// an unconfigured router models as an empty device carrying its
/// topology name.
pub fn compile_device(topo: &Topology, cfg: &NetworkConfig, id: RouterId) -> DeviceModel {
    match cfg.device(id) {
        Some(dc) => DeviceModel::from_config(dc),
        None => DeviceModel {
            name: topo.router(id).name.clone(),
            ..DeviceModel::default()
        },
    }
}

fn as_value(m: &DeviceModel) -> Option<acr_net_types::Asn> {
    m.asn.map(|(a, _)| a)
}

/// Whether a route-policy some peer of the old or the new model binds has
/// a different node list once line numbers are set aside — a policy
/// appearing or disappearing included (an undefined policy permits).
fn bound_policy_differs(old: &DeviceModel, new: &DeviceModel) -> bool {
    fn same_node(a: &PolicyNode, b: &PolicyNode) -> bool {
        (a.node, a.action) == (b.node, b.action)
            && a.matches
                .iter()
                .map(|m| &m.0)
                .eq(b.matches.iter().map(|m| &m.0))
            && a.applies
                .iter()
                .map(|x| &x.0)
                .eq(b.applies.iter().map(|x| &x.0))
    }
    let peers = old.peers.values().chain(new.peers.values());
    let mut bound = peers
        .flat_map(|p| [&p.import_policy, &p.export_policy])
        .flatten();
    bound.any(
        |(name, _)| match (old.route_policies.get(name), new.route_policies.get(name)) {
            (Some(a), Some(b)) => {
                a.len() != b.len() || !a.iter().zip(b).all(|(a, b)| same_node(a, b))
            }
            (a, b) => a.is_some() != b.is_some(),
        },
    )
}

/// Appends [`DeltaInfo::changed_pl_entries`] of one router. Entries the
/// two lists share at the head and at the tail are scanned identically by
/// a first-match walk; an entry in between can only decide a route it
/// matches.
fn diff_prefix_lists(old: &DeviceModel, new: &DeviceModel, out: &mut Vec<PlEntry>) {
    let same = |a: &PlEntry, b: &PlEntry| {
        (a.index, a.action, a.prefix, a.ge, a.le) == (b.index, b.action, b.prefix, b.ge, b.le)
    };
    let names: BTreeSet<&String> = old
        .prefix_lists
        .keys()
        .chain(new.prefix_lists.keys())
        .collect();
    for name in names {
        let a = old.prefix_lists.get(name).map_or(&[][..], Vec::as_slice);
        let b = new.prefix_lists.get(name).map_or(&[][..], Vec::as_slice);
        let head = a.iter().zip(b).take_while(|(a, b)| same(a, b)).count();
        let (a, b) = (&a[head..], &b[head..]);
        let tail = a.iter().rev().zip(b.iter().rev());
        let tail = tail.take_while(|(a, b)| same(a, b)).count();
        out.extend_from_slice(&a[..a.len() - tail]);
        out.extend_from_slice(&b[..b.len() - tail]);
    }
}

fn concat_parts(parts: &[Arc<SessionPart>]) -> (Vec<Session>, Vec<SessionDiag>) {
    let mut sessions = Vec::new();
    let mut diags = Vec::new();
    for p in parts {
        sessions.extend(p.sessions.iter().cloned());
        diags.extend(p.diags.iter().cloned());
    }
    (sessions, diags)
}

/// Structure equality: identical sessions/diagnostics up to line
/// attribution. A line-only difference invalidates the prefixes whose
/// closures hold the changed sessions' lines; anything else (endpoints,
/// policy names, failure modes) changes where routes can flow and forces
/// a full reset.
fn same_structure(
    a_sessions: &[Session],
    a_diags: &[SessionDiag],
    b_sessions: &[Session],
    b_diags: &[SessionDiag],
) -> bool {
    let skey = |s: &Session| {
        (
            s.a,
            s.b,
            s.a_addr,
            s.b_addr,
            s.a_import.as_ref().map(|(n, _)| n.clone()),
            s.a_export.as_ref().map(|(n, _)| n.clone()),
            s.b_import.as_ref().map(|(n, _)| n.clone()),
            s.b_export.as_ref().map(|(n, _)| n.clone()),
        )
    };
    let dkey = |d: &SessionDiag| (d.router, d.peer_addr, d.failure.clone());
    a_sessions.len() == b_sessions.len()
        && a_diags.len() == b_diags.len()
        && a_sessions
            .iter()
            .zip(b_sessions)
            .all(|(a, b)| skey(a) == skey(b))
        && a_diags.iter().zip(b_diags).all(|(a, b)| dkey(a) == dkey(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_cfg::parse::parse_device;
    use acr_cfg::{Edit, PlAction, Stmt};
    use acr_net_types::Asn;
    use acr_topo::gen;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn line3() -> (Topology, NetworkConfig) {
        let topo = gen::line(3);
        let cfgs = [
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n",
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n",
            "bgp 65002\n network 10.2.0.0 16\n peer 172.16.0.5 as-number 65001\n",
        ];
        let mut cfg = NetworkConfig::new();
        for (r, c) in topo.routers().iter().zip(cfgs) {
            cfg.insert(r.id, parse_device(r.name.clone(), c).unwrap());
        }
        (topo, cfg)
    }

    #[test]
    fn non_session_patch_shares_sessions_with_base() {
        let (topo, cfg) = line3();
        let base = CompiledBase::new(&topo, &cfg);
        let patch = Patch::single(Edit::Insert {
            router: RouterId(0),
            index: cfg.device(RouterId(0)).unwrap().len(),
            stmt: Stmt::Network(p("10.7.0.0/16")),
        });
        let cfg2 = patch.apply_cloned(&cfg).unwrap();
        let (d, info) = base.delta(&topo, &cfg2, &patch);
        assert_eq!(info.session_delta, SessionDelta::Unchanged);
        assert!(Arc::ptr_eq(&d.sessions, &base.sessions));
        assert!(Arc::ptr_eq(&d.parts, &base.parts));
        assert_eq!(
            info.changed_origin_prefixes,
            [p("10.7.0.0/16")].into_iter().collect()
        );
        // Untouched models are shared, the touched one is rebuilt.
        assert!(Arc::ptr_eq(&d.models[1], &base.models[1]));
        assert!(!Arc::ptr_eq(&d.models[0], &base.models[0]));
    }

    #[test]
    fn session_breaking_patch_is_structural() {
        let (topo, cfg) = line3();
        let base = CompiledBase::new(&topo, &cfg);
        let patch = Patch::single(Edit::Replace {
            router: RouterId(1),
            index: 2,
            stmt: Stmt::PeerAs {
                peer: acr_cfg::PeerRef::Ip(acr_net_types::Ipv4Addr::new(172, 16, 0, 6)),
                asn: Asn(64999),
            },
        });
        let cfg2 = patch.apply_cloned(&cfg).unwrap();
        let (d, info) = base.delta(&topo, &cfg2, &patch);
        assert_eq!(info.session_delta, SessionDelta::Structural);
        // Rendered, the delta state matches a fresh compile exactly.
        let fresh = CompiledBase::new(&topo, &cfg2);
        let render = |p: &SessionPart| SessionPart {
            sessions: p.sessions.iter().map(|s| s.rendered(&info.lines)).collect(),
            diags: p.diags.iter().map(|d| d.rendered(&info.lines)).collect(),
        };
        assert!(d
            .parts
            .iter()
            .map(|p| render(p))
            .eq(fresh.parts.iter().map(|p| (**p).clone())));
        let sessions = d.sessions.iter().map(|s| s.rendered(&info.lines));
        assert!(sessions.eq(fresh.sessions.iter().cloned()));
        let diags = d.session_diags.iter().map(|s| s.rendered(&info.lines));
        assert!(diags.eq(fresh.session_diags.iter().cloned()));
        assert_eq!(
            info.lines.dead().collect::<Vec<_>>(),
            [LineId::new(RouterId(1), 3)]
        );
    }

    /// A statement inserted above every line of a device moves them all
    /// and changes none: the sessions, originations and prefix lists
    /// compile as before, and no line is dead.
    #[test]
    fn a_renumbering_patch_changes_nothing() {
        let (topo, cfg) = line3();
        let base = CompiledBase::new(&topo, &cfg);
        for router in [RouterId(0), RouterId(1)] {
            let patch = Patch::single(Edit::Insert {
                router,
                index: 0,
                stmt: Stmt::Remark("moved".into()),
            });
            let cfg2 = patch.apply_cloned(&cfg).unwrap();
            let (d, info) = base.delta(&topo, &cfg2, &patch);
            assert_eq!(info.session_delta, SessionDelta::Unchanged);
            assert!(Arc::ptr_eq(&d.sessions, &base.sessions));
            assert!(info.changed_origin_prefixes.is_empty());
            assert!(!info.policy_changed && info.changed_pl_entries.is_empty());
            assert_eq!(info.lines.dead().count(), 0);
            assert_eq!(*d.models[router.index()], *base.models[router.index()]);
            // In the candidate's own lines it is a fresh compile, sharing
            // what the patch left alone.
            let own = base.patched(&topo, &cfg2, &patch);
            let fresh = CompiledBase::new(&topo, &cfg2);
            assert_eq!(own.models, fresh.models);
            assert_eq!(own.sessions, fresh.sessions);
            assert_eq!(own.session_diags, fresh.session_diags);
            assert_eq!(own.origin, fresh.origin);
            assert!(Arc::ptr_eq(&own.models[2], &base.models[2]));
        }
    }

    /// The model diff sets line numbers aside: a remark that renumbers a
    /// bound policy and its prefix list changes neither, an unbound policy
    /// may change freely, and a replaced entry reports both of its forms.
    #[test]
    fn model_diff_ignores_line_numbers_and_unbound_policies() {
        let (topo, mut cfg) = line3();
        let text = "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.1 route-policy IN import\n peer 172.16.0.6 as-number 65002\nroute-policy IN permit node 10\n if-match ip-prefix l\nroute-policy UNUSED deny node 10\nip prefix-list l index 10 permit 10.0.0.0 16\nip prefix-list l index 20 permit 10.2.0.0 16\n";
        cfg.insert(RouterId(1), parse_device("R1", text).unwrap());
        let base = CompiledBase::new(&topo, &cfg);
        let info = |patch: Patch| {
            base.delta(&topo, &patch.apply_cloned(&cfg).unwrap(), &patch)
                .1
        };
        let router = RouterId(1);

        let remark = info(Patch::single(Edit::Insert {
            router,
            index: 4,
            stmt: Stmt::Remark("shift".into()),
        }));
        assert!(!remark.policy_changed && remark.changed_pl_entries.is_empty());

        let unbound = info(Patch::single(Edit::Delete { router, index: 6 }));
        assert!(!unbound.policy_changed);
        let bound = info(Patch::single(Edit::Delete { router, index: 5 }));
        assert!(bound.policy_changed);

        let replaced = info(Patch::single(Edit::Replace {
            router,
            index: 7,
            stmt: Stmt::PrefixListEntry {
                list: "l".into(),
                index: 10,
                action: PlAction::Permit,
                prefix: p("10.7.0.0/16"),
                ge: None,
                le: None,
            },
        }));
        let literals: Vec<Prefix> = replaced
            .changed_pl_entries
            .iter()
            .map(|e| e.prefix)
            .collect();
        assert_eq!(literals, [p("10.0.0.0/16"), p("10.7.0.0/16")]);
        assert!(!replaced.policy_changed);
    }
}
