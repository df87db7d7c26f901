//! Semantic device model.
//!
//! [`DeviceModel`] is the *resolved* view of a [`DeviceConfig`]: peer-group
//! inheritance applied, policies and prefix lists collected by name, ACLs
//! and PBR rules assembled. Every semantic element carries the 1-based
//! source line(s) that defined it — the attribution the provenance layer
//! threads through route derivations so that SBFL can map test coverage
//! back onto configuration lines. A model built with
//! [`DeviceModel::numbered`] carries the lines of a numbering instead
//! (a patched device in its committed configuration's lines, see
//! [`crate::LineMap`]).
//!
//! Model construction is *total* for parseable configs: dangling references
//! (a peer policy naming an undefined route-policy, an undefined prefix
//! list, a peer joining an undefined group) are given "match nothing"
//! semantics rather than rejected, because injected misconfigurations (the
//! whole point of ACR) frequently *are* dangling references. Reporting
//! them is `acr-lint`'s job (its `undefined-*` rules).

use crate::ast::{AclRuleCfg, Dir, NextHop, PbrAction, PeerRef, PlAction, Proto, Stmt};
use crate::config::DeviceConfig;
use acr_net_types::{Asn, Flow, Ipv4Addr, Prefix, Protocol};
use std::collections::BTreeMap;

/// A prefix-list entry with source attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlEntry {
    pub index: u32,
    pub action: PlAction,
    pub prefix: Prefix,
    pub ge: Option<u8>,
    pub le: Option<u8>,
    /// Defining line (1-based).
    pub line: u32,
}

impl PlEntry {
    /// Whether the entry matches a route for `p`.
    ///
    /// Paper-example semantics: the entry prefix must *cover* the route
    /// prefix, with optional `ge`/`le` bounds on the route length. Hence
    /// `0.0.0.0 0` (the `default_all` list of Figure 2b) matches every
    /// route.
    pub fn matches(&self, p: Prefix) -> bool {
        self.prefix.covers(p) && p.len() >= self.ge.unwrap_or(0) && p.len() <= self.le.unwrap_or(32)
    }
}

/// One `if-match` condition of a policy node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchCond {
    /// `if-match ip-prefix <list>`.
    PrefixList(String),
    /// `if-match community <c>`.
    Community(acr_net_types::Community),
}

/// One `route-policy <name> … node <n>` block with its clauses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyNode {
    pub node: u32,
    pub action: PlAction,
    /// Header line.
    pub line: u32,
    /// `if-match` clauses, each with its line.
    pub matches: Vec<(MatchCond, u32)>,
    /// `apply …` actions in order, each with its line.
    pub applies: Vec<(ApplyAction, u32)>,
}

/// A route-policy `apply` action (resolved form of the `Apply*` statements).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyAction {
    /// Replace the AS_PATH with the given AS (`None` = the device's own).
    AsPathOverwrite(Option<Asn>),
    AsPathPrepend {
        asn: Asn,
        count: u32,
    },
    LocalPref(u32),
    Med(u32),
    Community(acr_net_types::Community),
}

/// Per-peer BGP settings after group inheritance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PeerCfg {
    /// Remote AS and the line configuring it.
    pub asn: Option<(Asn, u32)>,
    /// Import route-policy name and the line applying it.
    pub import_policy: Option<(String, u32)>,
    /// Export route-policy name and the line applying it.
    pub export_policy: Option<(String, u32)>,
    /// Group the peer joined, with the `peer … group …` line.
    pub group: Option<(String, u32)>,
    /// Every line that contributed to this peer (incl. inherited group
    /// lines) — the session's provenance support.
    pub lines: Vec<u32>,
}

impl PeerCfg {
    /// The session-establishing lines only: everything in [`PeerCfg::lines`]
    /// except the route-policy application lines. Provenance uses these
    /// for plain session facts (a route crossed this session) and adds the
    /// policy-application line only when the policy actually ran — keeping
    /// SBFL coverage of `peer … route-policy …` lines direction-accurate.
    pub fn base_lines(&self) -> Vec<u32> {
        let skip = [
            self.import_policy.as_ref().map(|(_, l)| *l),
            self.export_policy.as_ref().map(|(_, l)| *l),
        ];
        self.lines
            .iter()
            .copied()
            .filter(|l| !skip.iter().flatten().any(|s| s == l))
            .collect()
    }
}

/// A peer group's shared settings.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GroupCfg {
    /// `group <name> external` line.
    pub def_line: Option<u32>,
    pub asn: Option<(Asn, u32)>,
    pub import_policy: Option<(String, u32)>,
    pub export_policy: Option<(String, u32)>,
}

/// A static route with attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticRouteCfg {
    pub prefix: Prefix,
    pub next_hop: NextHop,
    pub line: u32,
}

/// An ACL rule with attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclEntry {
    pub rule: AclRuleCfg,
    pub line: u32,
}

impl AclEntry {
    /// Whether the rule matches a concrete flow.
    pub fn matches(&self, flow: &Flow) -> bool {
        let proto_ok = match self.rule.proto {
            crate::ast::MatchProto::Ip => true,
            crate::ast::MatchProto::Tcp => flow.proto == Protocol::Tcp,
            crate::ast::MatchProto::Udp => flow.proto == Protocol::Udp,
            crate::ast::MatchProto::Icmp => flow.proto == Protocol::Icmp,
        };
        proto_ok
            && self.rule.src.contains(flow.src)
            && self.rule.dst.contains(flow.dst)
            && self.rule.dst_port.is_none_or(|p| p == flow.dst_port)
    }
}

/// A PBR rule with attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PbrEntry {
    pub acl: u32,
    pub action: PbrAction,
    pub line: u32,
}

/// An interface with attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceCfg {
    pub name: String,
    pub addr: Option<(Ipv4Addr, u8, u32)>,
    pub line: u32,
}

/// The resolved semantic view of one device configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeviceModel {
    pub name: String,
    /// Local AS, with the `bgp <asn>` line.
    pub asn: Option<(Asn, u32)>,
    pub router_id: Option<(Ipv4Addr, u32)>,
    /// `network` originations.
    pub networks: Vec<(Prefix, u32)>,
    /// `import-route` redistributions.
    pub redistribute: Vec<(Proto, u32)>,
    pub interfaces: Vec<InterfaceCfg>,
    pub static_routes: Vec<StaticRouteCfg>,
    pub prefix_lists: BTreeMap<String, Vec<PlEntry>>,
    /// Policy nodes per policy name, sorted by node number.
    pub route_policies: BTreeMap<String, Vec<PolicyNode>>,
    /// Concrete peers (group inheritance resolved).
    pub peers: BTreeMap<Ipv4Addr, PeerCfg>,
    pub groups: BTreeMap<String, GroupCfg>,
    pub acls: BTreeMap<u32, Vec<AclEntry>>,
    /// PBR policies by name.
    pub pbr_policies: BTreeMap<String, Vec<PbrEntry>>,
    /// Applied PBR policy (name, line) if any.
    pub pbr_applied: Option<(String, u32)>,
}

impl DeviceModel {
    /// Builds the semantic model from a parsed configuration.
    pub fn from_config(cfg: &DeviceConfig) -> DeviceModel {
        let mut m = DeviceModel {
            name: cfg.name().to_string(),
            ..DeviceModel::default()
        };
        // First pass: collect raw structures following block context.
        let mut current_policy: Option<(String, usize)> = None; // name + node idx
        let mut current_acl: Option<u32> = None;
        let mut current_pbr: Option<String> = None;
        let mut current_iface: Option<usize> = None;

        for (line, stmt) in cfg.lines() {
            match stmt {
                Stmt::BgpProcess(asn) => m.asn = Some((*asn, line)),
                Stmt::RouterId(ip) => m.router_id = Some((*ip, line)),
                Stmt::Network(p) => m.networks.push((*p, line)),
                Stmt::ImportRoute(proto) => m.redistribute.push((*proto, line)),
                Stmt::GroupDef(name) => {
                    m.groups.entry(name.clone()).or_default().def_line = Some(line);
                }
                Stmt::PeerAs { peer, asn } => match peer {
                    PeerRef::Ip(ip) => {
                        let p = m.peers.entry(*ip).or_default();
                        p.asn = Some((*asn, line));
                        p.lines.push(line);
                    }
                    PeerRef::Group(g) => {
                        m.groups.entry(g.clone()).or_default().asn = Some((*asn, line));
                    }
                },
                Stmt::PeerGroup { peer, group } => {
                    let p = m.peers.entry(*peer).or_default();
                    p.group = Some((group.clone(), line));
                    p.lines.push(line);
                }
                Stmt::PeerPolicy { peer, policy, dir } => match peer {
                    PeerRef::Ip(ip) => {
                        let p = m.peers.entry(*ip).or_default();
                        match dir {
                            Dir::Import => p.import_policy = Some((policy.clone(), line)),
                            Dir::Export => p.export_policy = Some((policy.clone(), line)),
                        }
                        p.lines.push(line);
                    }
                    PeerRef::Group(g) => {
                        let grp = m.groups.entry(g.clone()).or_default();
                        match dir {
                            Dir::Import => grp.import_policy = Some((policy.clone(), line)),
                            Dir::Export => grp.export_policy = Some((policy.clone(), line)),
                        }
                    }
                },
                Stmt::RoutePolicyDef { name, action, node } => {
                    let nodes = m.route_policies.entry(name.clone()).or_default();
                    nodes.push(PolicyNode {
                        node: *node,
                        action: *action,
                        line,
                        matches: Vec::new(),
                        applies: Vec::new(),
                    });
                    current_policy = Some((name.clone(), nodes.len() - 1));
                }
                Stmt::IfMatchPrefixList(list) => {
                    if let Some((name, idx)) = &current_policy {
                        m.route_policies.get_mut(name).unwrap()[*idx]
                            .matches
                            .push((MatchCond::PrefixList(list.clone()), line));
                    }
                }
                Stmt::IfMatchCommunity(c) => {
                    if let Some((name, idx)) = &current_policy {
                        m.route_policies.get_mut(name).unwrap()[*idx]
                            .matches
                            .push((MatchCond::Community(*c), line));
                    }
                }
                Stmt::ApplyAsPathOverwrite(asn) => push_apply(
                    &mut m,
                    &current_policy,
                    ApplyAction::AsPathOverwrite(*asn),
                    line,
                ),
                Stmt::ApplyAsPathPrepend { asn, count } => push_apply(
                    &mut m,
                    &current_policy,
                    ApplyAction::AsPathPrepend {
                        asn: *asn,
                        count: *count,
                    },
                    line,
                ),
                Stmt::ApplyLocalPref(v) => {
                    push_apply(&mut m, &current_policy, ApplyAction::LocalPref(*v), line)
                }
                Stmt::ApplyMed(v) => {
                    push_apply(&mut m, &current_policy, ApplyAction::Med(*v), line)
                }
                Stmt::ApplyCommunity(c) => {
                    push_apply(&mut m, &current_policy, ApplyAction::Community(*c), line)
                }
                Stmt::AclDef(n) => {
                    m.acls.entry(*n).or_default();
                    current_acl = Some(*n);
                }
                Stmt::AclRule(rule) => {
                    if let Some(n) = current_acl {
                        m.acls.get_mut(&n).unwrap().push(AclEntry {
                            rule: rule.clone(),
                            line,
                        });
                    }
                }
                Stmt::PbrPolicyDef(name) => {
                    m.pbr_policies.entry(name.clone()).or_default();
                    current_pbr = Some(name.clone());
                }
                Stmt::PbrRule { acl, action } => {
                    if let Some(name) = &current_pbr {
                        m.pbr_policies.get_mut(name).unwrap().push(PbrEntry {
                            acl: *acl,
                            action: *action,
                            line,
                        });
                    }
                }
                Stmt::Interface(name) => {
                    m.interfaces.push(InterfaceCfg {
                        name: name.clone(),
                        addr: None,
                        line,
                    });
                    current_iface = Some(m.interfaces.len() - 1);
                }
                Stmt::IpAddress { addr, len } => {
                    if let Some(i) = current_iface {
                        m.interfaces[i].addr = Some((*addr, *len, line));
                    }
                }
                Stmt::PrefixListEntry {
                    list,
                    index,
                    action,
                    prefix,
                    ge,
                    le,
                } => {
                    m.prefix_lists
                        .entry(list.clone())
                        .or_default()
                        .push(PlEntry {
                            index: *index,
                            action: *action,
                            prefix: *prefix,
                            ge: *ge,
                            le: *le,
                            line,
                        });
                }
                Stmt::StaticRoute { prefix, next_hop } => {
                    m.static_routes.push(StaticRouteCfg {
                        prefix: *prefix,
                        next_hop: *next_hop,
                        line,
                    });
                }
                Stmt::ApplyTrafficPolicy(name) => m.pbr_applied = Some((name.clone(), line)),
                Stmt::Remark(_) => {}
            }
            // Maintain the per-block cursors: a header selects its own
            // cursor and clears the rest; any other top-level statement
            // clears all of them; sub-statements leave them untouched
            // (the parser already guaranteed they sit in the right block).
            if stmt.is_header() {
                if !matches!(stmt, Stmt::RoutePolicyDef { .. }) {
                    current_policy = None;
                }
                if !matches!(stmt, Stmt::AclDef(_)) {
                    current_acl = None;
                }
                if !matches!(stmt, Stmt::PbrPolicyDef(_)) {
                    current_pbr = None;
                }
                if !matches!(stmt, Stmt::Interface(_)) {
                    current_iface = None;
                }
            } else if stmt.required_block().is_none() {
                current_policy = None;
                current_acl = None;
                current_pbr = None;
                current_iface = None;
            }
        }

        // Second pass: resolve group inheritance onto member peers.
        let groups = m.groups.clone();
        for peer in m.peers.values_mut() {
            if let Some((gname, _)) = &peer.group {
                if let Some(g) = groups.get(gname) {
                    if peer.asn.is_none() {
                        peer.asn = g.asn;
                        if let Some((_, l)) = g.asn {
                            peer.lines.push(l);
                        }
                    }
                    if peer.import_policy.is_none() {
                        peer.import_policy = g.import_policy.clone();
                        if let Some((_, l)) = &g.import_policy {
                            peer.lines.push(*l);
                        }
                    }
                    if peer.export_policy.is_none() {
                        peer.export_policy = g.export_policy.clone();
                        if let Some((_, l)) = &g.export_policy {
                            peer.lines.push(*l);
                        }
                    }
                    if let Some(l) = g.def_line {
                        peer.lines.push(l);
                    }
                }
            }
            peer.lines.sort_unstable();
            peer.lines.dedup();
        }

        // Sort policy nodes and prefix-list entries for deterministic
        // evaluation order. Both sorts are stable, so ties keep statement
        // order and no evaluation order reads a line number.
        for nodes in m.route_policies.values_mut() {
            nodes.sort_by_key(|n| n.node);
        }
        for entries in m.prefix_lists.values_mut() {
            entries.sort_by_key(|e| e.index);
        }
        m
    }

    /// The model of `cfg` with its statements numbered by `ids` — the
    /// line of each statement, by index — instead of `1..=len`: the model
    /// [`DeviceModel::from_config`] builds, every line replaced by its
    /// number. Orders are the text's, so two numberings of one
    /// configuration differ in their line labels alone.
    pub fn numbered(cfg: &DeviceConfig, ids: &[u32]) -> DeviceModel {
        debug_assert_eq!(ids.len(), cfg.len());
        let mut m = DeviceModel::from_config(cfg);
        m.relabel(|line| ids[line as usize - 1]);
        m
    }

    /// Replaces every line this model names by `f(line)`.
    fn relabel(&mut self, f: impl Fn(u32) -> u32) {
        let at = |l: &mut u32| *l = f(*l);
        let named = |x: &mut Option<(String, u32)>| x.iter_mut().for_each(|(_, l)| at(l));
        self.asn.iter_mut().for_each(|(_, l)| at(l));
        self.router_id.iter_mut().for_each(|(_, l)| at(l));
        self.networks.iter_mut().for_each(|(_, l)| at(l));
        self.redistribute.iter_mut().for_each(|(_, l)| at(l));
        for i in &mut self.interfaces {
            at(&mut i.line);
            i.addr.iter_mut().for_each(|(_, _, l)| at(l));
        }
        self.static_routes.iter_mut().for_each(|s| at(&mut s.line));
        for e in self.prefix_lists.values_mut().flatten() {
            at(&mut e.line);
        }
        for n in self.route_policies.values_mut().flatten() {
            at(&mut n.line);
            n.matches.iter_mut().for_each(|(_, l)| at(l));
            n.applies.iter_mut().for_each(|(_, l)| at(l));
        }
        for p in self.peers.values_mut() {
            p.asn.iter_mut().for_each(|(_, l)| at(l));
            named(&mut p.import_policy);
            named(&mut p.export_policy);
            named(&mut p.group);
            p.lines.iter_mut().for_each(at);
        }
        for g in self.groups.values_mut() {
            g.def_line.iter_mut().for_each(at);
            g.asn.iter_mut().for_each(|(_, l)| at(l));
            named(&mut g.import_policy);
            named(&mut g.export_policy);
        }
        for e in self.acls.values_mut().flatten() {
            at(&mut e.line);
        }
        for e in self.pbr_policies.values_mut().flatten() {
            at(&mut e.line);
        }
        named(&mut self.pbr_applied);
    }

    /// Evaluates a named prefix list against a route prefix.
    ///
    /// Returns `Some((permitted, matched_line))` when some entry matches,
    /// `None` when no entry matches (or the list is undefined) — the caller
    /// treats that as "no match" (deny), per module-level semantics.
    pub fn eval_prefix_list(&self, list: &str, p: Prefix) -> Option<(bool, u32)> {
        let entries = self.prefix_lists.get(list)?;
        entries
            .iter()
            .find(|e| e.matches(p))
            .map(|e| (e.action == PlAction::Permit, e.line))
    }

    /// Looks up an interface that owns `addr` (used to resolve which local
    /// interface a peering session binds to).
    pub fn interface_with_addr(&self, addr: Ipv4Addr) -> Option<&InterfaceCfg> {
        self.interfaces
            .iter()
            .find(|i| i.addr.map(|(a, _, _)| a) == Some(addr))
    }
}

fn push_apply(
    m: &mut DeviceModel,
    current: &Option<(String, usize)>,
    action: ApplyAction,
    line: u32,
) {
    if let Some((name, idx)) = current {
        m.route_policies.get_mut(name).unwrap()[*idx]
            .applies
            .push((action, line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_device;

    const SAMPLE: &str = "\
bgp 65001
 router-id 1.1.1.1
 network 10.70.0.0 16
 import-route static
 peer 10.1.1.2 as-number 65002
 peer 10.1.1.2 route-policy Override_All import
 group PoPSide external
 peer PoPSide as-number 65100
 peer PoPSide route-policy Override_All import
 peer 10.2.1.2 group PoPSide
route-policy Override_All permit node 10
 if-match ip-prefix default_all
 apply as-path overwrite
ip prefix-list default_all index 10 permit 0.0.0.0 0
ip route-static 20.0.0.0 16 NULL0
";

    fn model() -> DeviceModel {
        DeviceModel::from_config(&parse_device("A", SAMPLE).unwrap())
    }

    #[test]
    fn collects_bgp_basics() {
        let m = model();
        assert_eq!(m.asn, Some((Asn(65001), 1)));
        assert_eq!(
            m.router_id.map(|(ip, _)| ip),
            Some(Ipv4Addr::new(1, 1, 1, 1))
        );
        assert_eq!(m.networks, vec![("10.70.0.0/16".parse().unwrap(), 3)]);
        assert_eq!(m.redistribute, vec![(Proto::Static, 4)]);
        assert_eq!(m.static_routes.len(), 1);
    }

    #[test]
    fn resolves_group_inheritance() {
        let m = model();
        let member = &m.peers[&Ipv4Addr::new(10, 2, 1, 2)];
        assert_eq!(
            member.asn,
            Some((Asn(65100), 8)),
            "asn inherited from group"
        );
        assert_eq!(
            member.import_policy.as_ref().map(|(n, _)| n.as_str()),
            Some("Override_All")
        );
        // Provenance lines include the group's defining lines.
        assert!(member.lines.contains(&7), "group def line");
        assert!(member.lines.contains(&8), "group asn line");
        assert!(member.lines.contains(&9), "group policy line");
        assert!(member.lines.contains(&10), "membership line");
        // The direct peer keeps its own settings.
        let direct = &m.peers[&Ipv4Addr::new(10, 1, 1, 2)];
        assert_eq!(direct.asn, Some((Asn(65002), 5)));
    }

    #[test]
    fn policy_structure_with_lines() {
        let m = model();
        let nodes = &m.route_policies["Override_All"];
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].line, 11);
        assert_eq!(
            nodes[0].matches,
            vec![(MatchCond::PrefixList("default_all".to_string()), 12)]
        );
        assert_eq!(
            nodes[0].applies,
            vec![(ApplyAction::AsPathOverwrite(None), 13)]
        );
    }

    #[test]
    fn default_all_matches_everything() {
        let m = model();
        for p in ["10.0.0.0/16", "0.0.0.0/0", "1.2.3.4/32"] {
            let (permit, line) = m
                .eval_prefix_list("default_all", p.parse().unwrap())
                .expect("must match");
            assert!(permit);
            assert_eq!(line, 14);
        }
    }

    #[test]
    fn prefix_list_bounds_respected() {
        let cfg = parse_device(
            "X",
            "ip prefix-list p index 10 permit 10.0.0.0 8 ge 16 le 24\n",
        )
        .unwrap();
        let m = DeviceModel::from_config(&cfg);
        assert!(m
            .eval_prefix_list("p", "10.1.0.0/16".parse().unwrap())
            .is_some());
        assert!(
            m.eval_prefix_list("p", "10.0.0.0/8".parse().unwrap())
                .is_none(),
            "below ge"
        );
        assert!(
            m.eval_prefix_list("p", "10.1.1.0/25".parse().unwrap())
                .is_none(),
            "above le"
        );
        assert!(
            m.eval_prefix_list("p", "11.0.0.0/16".parse().unwrap())
                .is_none(),
            "not covered"
        );
        assert!(m
            .eval_prefix_list("nolist", "10.0.0.0/8".parse().unwrap())
            .is_none());
    }

    /// Dangling references build a model with "match nothing" semantics;
    /// warning about them is `acr-lint`'s `undefined-*` rules' job.
    #[test]
    fn dangling_references_warn_not_fail() {
        let cfg = parse_device(
            "X",
            "bgp 1\n peer 10.0.0.1 group ghost\n peer 10.0.0.2 route-policy nopol import\nroute-policy real permit node 10\n if-match ip-prefix nolist\n",
        )
        .unwrap();
        let m = DeviceModel::from_config(&cfg);
        // A peer of an undefined group inherits nothing from it.
        let ghost = &m.peers[&Ipv4Addr::new(10, 0, 0, 1)];
        assert_eq!(ghost.group, Some(("ghost".to_string(), 2)));
        assert_eq!((ghost.asn, &ghost.import_policy), (None, &None));
        assert_eq!(ghost.lines, [2]);
        // An undefined policy stays applied by name, with no nodes.
        let nopol = &m.peers[&Ipv4Addr::new(10, 0, 0, 2)];
        assert_eq!(nopol.import_policy, Some(("nopol".to_string(), 3)));
        assert!(!m.route_policies.contains_key("nopol"));
        // An undefined list matches nothing.
        assert_eq!(
            m.eval_prefix_list("nolist", "10.0.0.0/8".parse().unwrap()),
            None
        );
    }

    #[test]
    fn acl_flow_matching() {
        let cfg = parse_device(
            "X",
            "acl 3000\n rule 5 permit tcp source 10.0.0.0 16 destination 20.0.0.0 16 destination-port eq 80\n",
        )
        .unwrap();
        let m = DeviceModel::from_config(&cfg);
        let entry = &m.acls[&3000][0];
        let mut flow = Flow::tcp(
            Ipv4Addr::new(10, 0, 1, 1),
            555,
            Ipv4Addr::new(20, 0, 1, 1),
            80,
        );
        assert!(entry.matches(&flow));
        flow.dst_port = 81;
        assert!(!entry.matches(&flow));
        flow.dst_port = 80;
        flow.proto = Protocol::Udp;
        assert!(!entry.matches(&flow));
    }

    #[test]
    fn pbr_policy_collection() {
        let cfg = parse_device(
            "X",
            "traffic-policy pbr1\n match acl 3000 permit\n match acl 3001 redirect next-hop 10.1.1.9\napply traffic-policy pbr1\n",
        )
        .unwrap();
        let m = DeviceModel::from_config(&cfg);
        assert_eq!(
            m.pbr_applied.as_ref().map(|(n, _)| n.as_str()),
            Some("pbr1")
        );
        assert_eq!(m.pbr_policies["pbr1"].len(), 2);
    }

    /// Numbering a configuration by `k + line` labels it as the same text
    /// behind `k` remarks: every line field is relabeled, nothing else.
    #[test]
    fn a_numbered_model_is_the_model_with_its_lines_relabeled() {
        let text = format!(
            "{SAMPLE}acl 3000\n rule 5 permit ip source 10.0.0.0 16 destination 20.0.0.0 16\ninterface G0\n ip address 10.9.9.1 30\ntraffic-policy pbr1\n match acl 3000 permit\napply traffic-policy pbr1\n"
        );
        let cfg = parse_device("A", &text).unwrap();
        let k = 1000;
        let ids: Vec<u32> = (1..=cfg.len() as u32).map(|l| l + k).collect();
        let numbered = DeviceModel::numbered(&cfg, &ids);
        let mut behind = vec![Stmt::Remark("r".into()); k as usize];
        behind.extend(cfg.stmts().iter().cloned());
        let shifted = DeviceModel::from_config(&DeviceConfig::new("A", behind));
        assert_eq!(numbered, shifted);
        let natural: Vec<u32> = (1..=cfg.len() as u32).collect();
        assert_eq!(
            DeviceModel::numbered(&cfg, &natural),
            DeviceModel::from_config(&cfg)
        );
    }

    /// Entries of one index keep statement order whatever their lines.
    #[test]
    fn prefix_list_ties_keep_statement_order() {
        let cfg = parse_device(
            "X",
            "ip prefix-list p index 10 deny 10.0.0.0 16\nip prefix-list p index 10 permit 10.0.0.0 8\n",
        )
        .unwrap();
        let m = DeviceModel::numbered(&cfg, &[7, 3]);
        let lines: Vec<u32> = m.prefix_lists["p"].iter().map(|e| e.line).collect();
        assert_eq!(lines, [7, 3]);
        assert_eq!(
            m.eval_prefix_list("p", "10.0.0.0/16".parse().unwrap()),
            Some((false, 7))
        );
    }

    /// A second `bgp` process replaces the first; nothing reports it.
    #[test]
    fn duplicate_bgp_keeps_the_last_process() {
        let cfg = parse_device("X", "bgp 1\nbgp 2\n").unwrap();
        let m = DeviceModel::from_config(&cfg);
        assert_eq!(m.asn, Some((Asn(2), 2)));
    }
}
