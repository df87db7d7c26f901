//! # acr-lint
//!
//! Semantic static analysis over parsed router configurations — the
//! "compiler warnings" layer of the repair pipeline. Where simulation
//! answers *"does this network satisfy the spec?"*, the linter answers
//! *"is this configuration internally coherent?"* — without simulating
//! anything, in one pass over the ASTs and the topology.
//!
//! The rule catalog ([`Rule`]) targets the misconfiguration classes of
//! the paper's Table 1: dangling references (a route-policy applied but
//! never defined — "missing a routing policy"), shadowed prefix-list
//! entries (the Figure 2 `0.0.0.0 0` catch-all makes every later entry
//! dead), PBR rules behind a catch-all redirect, dead peer-group items,
//! wrong-AS overwrites, and cross-device session asymmetries. One rule
//! reads the `acr-flow` may-propagation facts: `unimportable-route`, an
//! originated prefix some export offers and no neighbor can import.
//!
//! Findings feed the repair loop twice (see `acr-core`):
//!
//! - **localization seeding** — lines carrying findings get their SBFL
//!   suspiciousness boosted, pulling the template expansion toward
//!   statically suspect statements even when coverage alone ties;
//! - **search-space pruning** — a candidate patch that *introduces* a
//!   new [`Severity::Error`] finding is rejected before simulation.
//!   Error rules flag only semantically inert or dangling constructs
//!   (see [`Severity`]), so a rejected candidate can never have been
//!   the needed fix.
//!
//! ```
//! use acr_cfg::parse::parse_device;
//! use acr_topo::{Role, TopologyBuilder};
//!
//! let mut tb = TopologyBuilder::new();
//! let a = tb.router("A", Role::Backbone);
//! let topo = tb.build();
//! let mut cfg = acr_cfg::NetworkConfig::new();
//! cfg.insert(a, parse_device("A", "bgp 65001\n peer 10.0.0.1 route-policy Absent import\n").unwrap());
//!
//! let report = acr_lint::lint_network(&topo, &cfg);
//! assert_eq!(report.errors().count(), 1);
//! assert!(report.render(&cfg).contains("undefined-route-policy"));
//! ```

mod ctx;
mod diag;
mod flow;
mod pbr;
mod policy;
mod refs;
mod session;

pub use diag::{DiagKey, Diagnostic, LintReport, RelatedNote, Rule, Severity};

use acr_cfg::{DeviceModel, NetworkConfig};
use acr_flow::FlowFacts;
use acr_net_types::RouterId;
use acr_sim::{compile_device, CompiledBase};
use acr_topo::Topology;
use std::sync::Arc;

/// Lints a network, compiling it and running the `acr-flow` fixed point
/// itself.
pub fn lint_network(topo: &Topology, cfg: &NetworkConfig) -> LintReport {
    let base = CompiledBase::new(topo, cfg);
    let facts = acr_flow::analyze_with_models(topo, &base);
    lint_with_models(topo, cfg, &base, &facts)
}

/// Lints a network against its compiled form and the dataflow facts the
/// caller computed over it — the repair engine runs one `acr-flow` fixed
/// point per configuration and shares it between the dataflow rule here
/// and its localization prior.
///
/// `base` must be the compiled form of `cfg` and `facts` must be
/// `acr_flow::analyze_with_models(topo, base)`.
pub fn lint_with_models(
    topo: &Topology,
    cfg: &NetworkConfig,
    base: &CompiledBase,
    facts: &FlowFacts,
) -> LintReport {
    let models = base.models().iter().map(Arc::as_ref);
    let ctx = ctx::Ctx::new(topo, cfg, topo.routers().iter().map(|r| r.id).zip(models));
    let mut diagnostics = Vec::new();
    per_device(&ctx, &mut diagnostics);
    session::run(&ctx, &mut diagnostics);
    flow::run(&ctx, facts, &mut diagnostics);
    report(diagnostics)
}

/// The per-device rules alone, over `routers` alone: what
/// [`lint_network`] reports *on those devices* from the `refs`, `policy`
/// and `pbr` modules. Every [`Severity::Error`] rule lives in one of the
/// three and reads nothing but its own device, so for a configuration
/// that differs from a linted baseline only on `routers`, the baseline's
/// error keys plus this report's are the configuration's error keys —
/// the repair engine's candidate gate, at a cost proportional to the
/// patch rather than the network.
pub fn lint_devices(topo: &Topology, cfg: &NetworkConfig, routers: &[RouterId]) -> LintReport {
    let models: Vec<(RouterId, DeviceModel)> = routers
        .iter()
        .map(|&r| (r, compile_device(topo, cfg, r)))
        .collect();
    let ctx = ctx::Ctx::new(topo, cfg, models.iter().map(|(r, m)| (*r, m)));
    let mut diagnostics = Vec::new();
    per_device(&ctx, &mut diagnostics);
    report(diagnostics)
}

/// The rule modules that loop over devices and read only the device at
/// hand — home of every [`Severity::Error`] rule.
fn per_device(ctx: &ctx::Ctx<'_>, out: &mut Vec<Diagnostic>) {
    refs::run(ctx, out);
    policy::run(ctx, out);
    pbr::run(ctx, out);
}

/// Canonical order (device, line, rule, message), duplicates dropped.
fn report(mut diagnostics: Vec<Diagnostic>) -> LintReport {
    diagnostics.sort_by(|a, b| {
        (a.device, a.span, a.rule)
            .cmp(&(b.device, b.span, b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    diagnostics.dedup();
    LintReport { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_cfg::parse::parse_device;
    use acr_net_types::RouterId;
    use acr_topo::{Role, Topology, TopologyBuilder};

    /// Two routers on one link; `a_text`/`b_text` become their configs.
    fn pair(a_text: &str, b_text: &str) -> (Topology, NetworkConfig, RouterId, RouterId) {
        let mut tb = TopologyBuilder::new();
        let a = tb.router("A", Role::Backbone);
        let b = tb.router("B", Role::Backbone);
        tb.link(a, b); // 172.16.0.1 / .2
        let topo = tb.build();
        let mut cfg = NetworkConfig::new();
        cfg.insert(a, parse_device("A", a_text).unwrap());
        cfg.insert(b, parse_device("B", b_text).unwrap());
        (topo, cfg, a, b)
    }

    fn rules_of(report: &LintReport) -> Vec<Rule> {
        report.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn symmetric_pair_is_clean() {
        let (topo, cfg, _, _) = pair(
            "bgp 65001\n peer 172.16.0.2 as-number 65002\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let report = lint_network(&topo, &cfg);
        assert!(report.is_clean(), "{}", report.render(&cfg));
    }

    #[test]
    fn undefined_references_are_errors() {
        let (topo, cfg, a, _) = pair(
            "bgp 65001\n peer 172.16.0.2 as-number 65002\n peer 172.16.0.2 route-policy Nope import\n peer 172.16.0.2 group Ghost\napply traffic-policy missing\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let report = lint_network(&topo, &cfg);
        let rules = rules_of(&report);
        assert!(rules.contains(&Rule::UndefinedRoutePolicy), "{rules:?}");
        assert!(rules.contains(&Rule::UndefinedPeerGroup), "{rules:?}");
        assert!(rules.contains(&Rule::UndefinedTrafficPolicy), "{rules:?}");
        assert!(report.errors().all(|d| d.device == a));
    }

    #[test]
    fn catch_all_shadows_later_entries() {
        let (topo, cfg, _, _) = pair(
            "bgp 65001\n peer 172.16.0.2 as-number 65002\n peer 172.16.0.2 route-policy P import\nroute-policy P permit node 10\n if-match ip-prefix L\nip prefix-list L index 10 permit 0.0.0.0 0\nip prefix-list L index 20 permit 10.0.0.0 16\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let report = lint_network(&topo, &cfg);
        let shadows: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::ShadowedPrefixListEntry)
            .collect();
        assert_eq!(shadows.len(), 1, "{}", report.render(&cfg));
        assert!(
            shadows[0].message.contains("entry index 20"),
            "{}",
            shadows[0].message
        );
        assert_eq!(shadows[0].severity, Severity::Error);
        // A `le 32` catch-all shadows too; disjoint entries do not.
        let (topo, cfg, _, _) = pair(
            "bgp 65001\n peer 172.16.0.2 as-number 65002\n peer 172.16.0.2 route-policy P import\nroute-policy P permit node 10\n if-match ip-prefix L\nip prefix-list L index 10 permit 10.0.0.0 8 le 32\nip prefix-list L index 20 permit 10.1.0.0 16\nip prefix-list L index 30 permit 20.0.0.0 16\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let report = lint_network(&topo, &cfg);
        let shadows: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::ShadowedPrefixListEntry)
            .collect();
        assert_eq!(shadows.len(), 1, "{}", report.render(&cfg));
        assert!(shadows[0].message.contains("entry index 20"));
    }

    #[test]
    fn policy_dataflow_rules_fire() {
        let (topo, cfg, _, _) = pair(
            concat!(
                "bgp 65001\n",
                " peer 172.16.0.2 as-number 65002\n",
                " peer 172.16.0.2 route-policy P import\n",
                "route-policy P permit node 10\n",
                " apply as-path prepend 65001 3\n",
                " apply as-path overwrite\n",
                "route-policy P deny node 20\n",
                " apply local-preference 200\n",
                "route-policy P permit node 30\n",
                " if-match ip-prefix L\n",
                "ip prefix-list L index 10 permit 10.0.0.0 16\n",
            ),
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let report = lint_network(&topo, &cfg);
        let rules = rules_of(&report);
        // Node 10 has no if-match: nodes 20 and 30 are unreachable, the
        // prepend is clobbered, and node 20's apply is on a deny node.
        assert!(rules.contains(&Rule::UnreachablePolicyNode), "{rules:?}");
        assert!(rules.contains(&Rule::ClobberedAsPathPrepend), "{rules:?}");
        assert!(rules.contains(&Rule::ApplyOnDenyNode), "{rules:?}");
    }

    #[test]
    fn override_asn_mismatch_is_flagged() {
        let (topo, cfg, _, _) = pair(
            "bgp 65001\n peer 172.16.0.2 as-number 65002\n peer 172.16.0.2 route-policy P import\nroute-policy P permit node 10\n if-match ip-prefix L\n apply as-path overwrite 64999\nip prefix-list L index 10 permit 10.0.0.0 16\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let report = lint_network(&topo, &cfg);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::OverrideAsnMismatch)
            .expect("mismatch flagged");
        assert!(d.message.contains("AS 64999"), "{}", d.message);
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn session_asn_mismatch_and_one_sided() {
        let (topo, cfg, a, b) = pair(
            "bgp 65001\n peer 172.16.0.2 as-number 64999\n",
            "bgp 65002\n",
        );
        let report = lint_network(&topo, &cfg);
        let rules = rules_of(&report);
        assert!(rules.contains(&Rule::SessionAsnMismatch), "{rules:?}");
        assert!(rules.contains(&Rule::OneSidedSession), "{rules:?}");
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.device == a || d.device == b));
    }

    #[test]
    fn unknown_peer_is_flagged() {
        let (topo, cfg, _, _) = pair(
            "bgp 65001\n peer 172.16.0.2 as-number 65002\n peer 192.0.2.9 as-number 65009\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let report = lint_network(&topo, &cfg);
        assert!(rules_of(&report).contains(&Rule::UnknownPeer));
    }

    #[test]
    fn pbr_shadowing_rules_fire() {
        let (topo, cfg, _, _) = pair(
            concat!(
                "bgp 65001\n",
                " peer 172.16.0.2 as-number 65002\n",
                "acl 3800\n",
                " rule 5 permit ip source 0.0.0.0 0 destination 10.0.0.0 8\n",
                "acl 3801\n",
                " rule 5 permit ip source 0.0.0.0 0 destination 0.0.0.0 0\n",
                "traffic-policy guard\n",
                " match acl 3801 redirect next-hop 172.16.0.2\n",
                " match acl 3800 permit\n",
                " match acl 3801 deny\n",
                "apply traffic-policy guard\n",
            ),
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let report = lint_network(&topo, &cfg);
        let shadows: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::ShadowedPbrRule)
            .collect();
        // The catch-all redirect shadows the permit; the second acl-3801
        // rule is a same-acl shadow.
        assert_eq!(shadows.len(), 2, "{}", report.render(&cfg));
    }

    #[test]
    fn unused_definitions_warn() {
        let (topo, cfg, _, _) = pair(
            "bgp 65001\n peer 172.16.0.2 as-number 65002\nroute-policy Orphan permit node 10\n if-match ip-prefix L\nip prefix-list L index 10 permit 10.0.0.0 16\nacl 3800\n rule 5 permit ip source 0.0.0.0 0 destination 10.0.0.0 8\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let report = lint_network(&topo, &cfg);
        let unused: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::UnusedDefinition)
            .collect();
        // The orphan policy and the orphan acl — the list is used by the
        // (unused) policy and stays quiet.
        assert_eq!(unused.len(), 2, "{}", report.render(&cfg));
        assert!(unused.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn group_asn_conflict_fires() {
        let (topo, cfg, _, _) = pair(
            concat!(
                "bgp 65001\n",
                " peer 172.16.0.2 as-number 65002\n",
                " group Cust external\n",
                " peer Cust as-number 64999\n",
                " peer 172.16.0.2 group Cust\n",
            ),
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let report = lint_network(&topo, &cfg);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::GroupAsnConflict)
            .expect("conflict flagged");
        assert!(
            d.message.contains("64999") && d.message.contains("65002"),
            "{}",
            d.message
        );
    }

    #[test]
    fn import_filter_gap_spots_unroutable_neighbor_prefix() {
        let mut tb = TopologyBuilder::new();
        let a = tb.router("A", Role::Backbone);
        let b = tb.router("PoP", Role::PoP);
        tb.link(a, b);
        tb.attach(b, "10.7.0.0/16".parse().unwrap());
        let topo = tb.build();
        let mut cfg = NetworkConfig::new();
        let a_text = concat!(
            "bgp 65001\n",
            " peer 172.16.0.2 as-number 64999\n",
            " peer 172.16.0.2 route-policy In import\n",
            "route-policy In permit node 10\n",
            " if-match ip-prefix space\n",
            "ip prefix-list space index 10 permit 20.0.0.0 16\n",
        );
        cfg.insert(a, parse_device("A", a_text).unwrap());
        cfg.insert(
            b,
            parse_device(
                "PoP",
                "bgp 64999\n peer 172.16.0.1 as-number 65001\n network 10.7.0.0 16\n",
            )
            .unwrap(),
        );
        let report = lint_network(&topo, &cfg);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::ImportFilterGap)
            .expect("gap flagged");
        assert!(d.message.contains("10.7.0.0/16"), "{}", d.message);
        // Widening the list to cover the prefix silences the rule.
        let fixed = a_text.replace("permit 20.0.0.0 16", "permit 10.0.0.0 8 le 24");
        let mut cfg2 = cfg.clone();
        cfg2.insert(a, parse_device("A", &fixed).unwrap());
        let report = lint_network(&topo, &cfg2);
        assert!(
            !rules_of(&report).contains(&Rule::ImportFilterGap),
            "{}",
            report.render(&cfg2)
        );
    }

    #[test]
    fn duplicate_router_id_across_devices() {
        let (topo, cfg, _, b) = pair(
            "bgp 65001\n router-id 1.1.1.1\n peer 172.16.0.2 as-number 65002\n",
            "bgp 65002\n router-id 1.1.1.1\n peer 172.16.0.1 as-number 65001\n",
        );
        let report = lint_network(&topo, &cfg);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::DuplicateRouterId)
            .expect("duplicate flagged");
        assert_eq!(d.device, b);
        assert_eq!(d.related.len(), 1);
    }

    #[test]
    fn lint_with_models_matches_lint_network() {
        let (topo, cfg, _, _) = pair(
            "bgp 65001\n peer 172.16.0.2 as-number 64999\n",
            "bgp 65002\n peer 172.16.0.1 as-number 65001\n",
        );
        let base = CompiledBase::new(&topo, &cfg);
        let facts = acr_flow::analyze_with_models(&topo, &base);
        let a = lint_network(&topo, &cfg);
        let b = lint_with_models(&topo, &cfg, &base, &facts);
        assert_eq!(a.keys(), b.keys());
    }

    /// The contract the repair engine's candidate gate rests on: every
    /// `Severity::Error` rule is emitted by the per-device modules and by
    /// nothing else, so (a) linting one device in isolation reproduces
    /// exactly the error keys the whole-network lint reports on it, and
    /// (b) the cross-device modules (session symmetry, dataflow) never
    /// veto. Checked over the healthy and the faulted workload corpus.
    #[test]
    fn error_rules_are_emitted_by_the_per_device_modules_only() {
        use acr_workloads::{generate, try_inject, TABLE1};
        let net = generate(&acr_topo::gen::wan(4, 8));
        let fig2 = acr_workloads::fig2::fig2_incident();
        let mut corpus: Vec<(&Topology, NetworkConfig)> = vec![
            (&net.topo, net.cfg.clone()),
            (&fig2.topo, fig2.broken.clone()),
            (&fig2.topo, fig2.intended.clone()),
        ];
        for (fault, _) in TABLE1 {
            for seed in 0..3 {
                if let Some(inc) = try_inject(fault, &net, seed) {
                    corpus.push((&net.topo, inc.broken));
                }
            }
        }
        // A device that trips an error rule of each per-device module.
        let (topo, cfg, _, _) = pair(
            concat!(
                "bgp 65001\n",
                " peer 172.16.0.2 as-number 64999\n",
                " peer 172.16.0.2 route-policy Nope import\n",
                " peer 172.16.0.2 route-policy P export\n",
                "route-policy P permit node 10\n",
                "route-policy P deny node 20\n",
                " apply local-preference 200\n",
                "traffic-policy guard\n",
                " match acl 3801 deny\n",
                " match acl 3801 permit\n",
                "apply traffic-policy guard\n",
            ),
            "bgp 65002\n",
        );
        corpus.push((&topo, cfg));

        let mut errors_seen = 0;
        for (topo, cfg) in &corpus {
            let whole = lint_network(topo, cfg);
            for r in topo.routers() {
                let alone = lint_devices(topo, cfg, &[r.id]);
                let of = |rep: &LintReport| -> Vec<DiagKey> {
                    let mut keys: Vec<DiagKey> = rep
                        .errors()
                        .filter(|d| d.device == r.id)
                        .map(Diagnostic::key)
                        .collect();
                    keys.sort();
                    keys
                };
                assert_eq!(of(&whole), of(&alone), "device {}", r.name);
                assert!(alone.diagnostics.iter().all(|d| d.device == r.id));
                errors_seen += of(&whole).len();
            }
            // (b): the cross-device modules, run on their own.
            let base = CompiledBase::new(topo, cfg);
            let facts = acr_flow::analyze_with_models(topo, &base);
            let models = base.models().iter().map(Arc::as_ref);
            let ctx = ctx::Ctx::new(topo, cfg, topo.routers().iter().map(|r| r.id).zip(models));
            let mut cross = Vec::new();
            session::run(&ctx, &mut cross);
            flow::run(&ctx, &facts, &mut cross);
            assert!(
                cross.iter().all(|d| d.severity == Severity::Warning),
                "a cross-device rule emitted an error"
            );
        }
        assert!(
            errors_seen >= 4,
            "the corpus exercised {errors_seen} errors"
        );
    }
}
