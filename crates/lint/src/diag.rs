//! Diagnostic types and the rustc-style text renderer.

use acr_cfg::NetworkConfig;
use acr_net_types::RouterId;
use std::fmt;

/// How severe a finding is — and, operationally, whether the repair
/// engine may reject a candidate for *introducing* it.
///
/// `Error` is reserved for findings whose flagged construct is either
/// **semantically inert** (a fully shadowed filter entry, an unreachable
/// policy node) or a **dangling reference** (a policy applied but never
/// defined). A candidate patch that introduces such a finding cannot be
/// the needed fix — an inert edit cannot improve fitness — so rejecting
/// it before simulation is sound. Everything heuristic or cross-device
/// is a `Warning`: it seeds localization but never vetoes a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Declares [`Rule`] with its kebab-case names, deriving [`Rule::ALL`]
/// and [`Rule::name`] from one list so they can never desynchronize —
/// adding a variant anywhere else is a compile error, forgetting the
/// name here is one too.
macro_rules! rules {
    ($( $(#[$meta:meta])* $variant:ident => $name:literal ),* $(,)?) => {
        /// The lint rules. Each rule name renders kebab-case (the
        /// `error[...]` tag) and most map onto one row of the paper's
        /// Table 1 via [`Rule::table1`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Rule {
            $( $(#[$meta])* $variant, )*
        }

        impl Rule {
            /// Every rule, for iteration in reports and tests.
            pub const ALL: [Rule; rules!(@count $($variant)*)] =
                [ $(Rule::$variant),* ];

            /// Kebab-case rule name (the `error[...]` tag).
            pub fn name(self) -> &'static str {
                match self {
                    $( Rule::$variant => $name, )*
                }
            }
        }
    };
    (@count) => { 0usize };
    (@count $head:ident $($tail:ident)*) => { 1usize + rules!(@count $($tail)*) };
}

rules! {
    /// `peer … route-policy P` / `group … route-policy P` where `P` has
    /// no `route-policy P … node …` definition.
    UndefinedRoutePolicy => "undefined-route-policy",
    /// `if-match ip-prefix L` where list `L` has no entries.
    UndefinedPrefixList => "undefined-prefix-list",
    /// `peer … group G` where `G` has no `group G external` definition.
    UndefinedPeerGroup => "undefined-peer-group",
    /// A traffic-policy `match acl N …` rule whose ACL is undefined or
    /// empty.
    UndefinedAcl => "undefined-acl",
    /// `apply traffic-policy T` where `T` is never defined.
    UndefinedTrafficPolicy => "undefined-traffic-policy",
    /// A route-policy / prefix-list / ACL / traffic-policy / peer-group
    /// definition nothing on the device references.
    UnusedDefinition => "unused-definition",
    /// A prefix-list entry no route can ever reach: an earlier entry
    /// matches everything it matches (e.g. after a `0.0.0.0 0` or
    /// `… le 32` catch-all), or its own `ge`/`le` bounds are empty.
    ShadowedPrefixListEntry => "shadowed-prefix-list-entry",
    /// A PBR rule shadowed by an earlier rule on the same ACL or by an
    /// earlier rule whose ACL starts with a universal permit.
    ShadowedPbrRule => "shadowed-pbr-rule",
    /// A route-policy node following a terminal match-all node.
    UnreachablePolicyNode => "unreachable-policy-node",
    /// `apply …` actions on a `deny` node — denied routes carry no
    /// attributes.
    ApplyOnDenyNode => "apply-on-deny-node",
    /// An `apply as-path prepend` whose effect is clobbered by a later
    /// `apply as-path overwrite` in the same node.
    ClobberedAsPathPrepend => "clobbered-as-path-prepend",
    /// A block sub-statement outside the block kind it requires.
    MisplacedStatement => "misplaced-statement",
    /// A peer's configured `as-number` disagrees with the neighbor's
    /// `bgp <asn>` process.
    SessionAsnMismatch => "session-asn-mismatch",
    /// A peer statement toward a neighbor that has no matching peer
    /// statement back.
    OneSidedSession => "one-sided-session",
    /// A peer address owned by no interface in the topology.
    UnknownPeer => "unknown-peer",
    /// A peer with a direct `as-number` joining a group carrying a
    /// different one — the group item is dead for this member.
    GroupAsnConflict => "group-asn-conflict",
    /// `apply as-path overwrite <asn>` naming an AS other than the
    /// device's own.
    OverrideAsnMismatch => "override-asn-mismatch",
    /// An import policy on a session that cannot admit a prefix the
    /// neighbor originates.
    ImportFilterGap => "import-filter-gap",
    /// Two devices sharing one router-id.
    DuplicateRouterId => "duplicate-router-id",

    // ---- the cross-device rule over the acr-flow may-propagation facts ----
    /// An originated route offered to at least one neighbor but
    /// importable by none of them.
    UnimportableRoute => "unimportable-route",
}

impl Rule {
    /// The rule's severity (see [`Severity`] for the soundness contract).
    pub fn severity(self) -> Severity {
        match self {
            Rule::UndefinedRoutePolicy
            | Rule::UndefinedPrefixList
            | Rule::UndefinedPeerGroup
            | Rule::UndefinedAcl
            | Rule::UndefinedTrafficPolicy
            | Rule::ShadowedPrefixListEntry
            | Rule::ShadowedPbrRule
            | Rule::UnreachablePolicyNode
            | Rule::ApplyOnDenyNode
            | Rule::ClobberedAsPathPrepend
            | Rule::MisplacedStatement => Severity::Error,
            _ => Severity::Warning,
        }
    }

    /// The Table-1 fault class (its display string in
    /// `acr_workloads::FaultType`) the rule most directly detects, when
    /// there is one. Kept as a string to avoid a dependency cycle with
    /// `acr-workloads`.
    pub fn table1(self) -> Option<&'static str> {
        match self {
            Rule::UndefinedRoutePolicy => Some("missing a routing policy"),
            Rule::UndefinedPrefixList | Rule::ShadowedPrefixListEntry => {
                Some("missing items in ip prefix-list")
            }
            Rule::UndefinedPeerGroup => Some("missing peer group"),
            Rule::UndefinedAcl | Rule::UndefinedTrafficPolicy | Rule::UnusedDefinition => {
                Some("missing permit rules in PBR")
            }
            Rule::ShadowedPbrRule => Some("extra redirect rule in PBR"),
            Rule::GroupAsnConflict => Some("extra items in peer group"),
            Rule::OverrideAsnMismatch => Some("override to wrong AS number"),
            Rule::ImportFilterGap => Some("fail to dis-enable route map"),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A secondary location attached to a diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelatedNote {
    pub device: RouterId,
    pub device_name: String,
    pub line: u32,
    pub note: String,
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub rule: Rule,
    pub severity: Severity,
    pub device: RouterId,
    pub device_name: String,
    /// 1-based inclusive line span on `device`.
    pub span: (u32, u32),
    /// The finding, stated **without line numbers** so [`DiagKey`]s are
    /// stable under unrelated inserts/deletes elsewhere in the file.
    pub message: String,
    pub related: Vec<RelatedNote>,
}

impl Diagnostic {
    /// Line-independent identity, used to compare a candidate's findings
    /// against the pre-repair baseline: a candidate is only penalized
    /// for findings the broken network did not already have.
    pub fn key(&self) -> DiagKey {
        DiagKey {
            rule: self.rule,
            device: self.device,
            message: self.message.clone(),
        }
    }
}

/// See [`Diagnostic::key`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DiagKey {
    pub rule: Rule,
    pub device: RouterId,
    pub message: String,
}

/// The findings of one lint pass, sorted by device then line.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The identity set of every finding (baseline comparison).
    pub fn keys(&self) -> std::collections::HashSet<DiagKey> {
        self.diagnostics.iter().map(Diagnostic::key).collect()
    }

    /// Renders every diagnostic rustc-style, quoting the offending
    /// source lines out of `cfg`.
    pub fn render(&self, cfg: &NetworkConfig) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            render_one(&mut out, d, cfg);
        }
        let (errors, warnings) =
            self.diagnostics
                .iter()
                .fold((0, 0), |(e, w), d| match d.severity {
                    Severity::Error => (e + 1, w),
                    Severity::Warning => (e, w + 1),
                });
        if !self.diagnostics.is_empty() {
            out.push_str(&format!(
                "{errors} error{}, {warnings} warning{}\n",
                if errors == 1 { "" } else { "s" },
                if warnings == 1 { "" } else { "s" },
            ));
        }
        out
    }
}

/// One configuration line exactly as `to_text` prints it (the `Stmt`
/// display already indents block sub-statements one space).
fn source_line(cfg: &NetworkConfig, device: RouterId, line: u32) -> Option<String> {
    Some(cfg.device(device)?.line(line)?.to_string())
}

fn render_one(out: &mut String, d: &Diagnostic, cfg: &NetworkConfig) {
    out.push_str(&format!("{}[{}]: {}\n", d.severity, d.rule, d.message));
    out.push_str(&format!("  --> {}:{}\n", d.device_name, d.span.0));
    let width = d.span.1.to_string().len().max(2);
    out.push_str(&format!("{:width$} |\n", ""));
    for line in d.span.0..=d.span.1 {
        match source_line(cfg, d.device, line) {
            Some(text) => out.push_str(&format!("{line:width$} | {text}\n")),
            None => out.push_str(&format!("{line:width$} | <line missing>\n")),
        }
    }
    out.push_str(&format!("{:width$} |\n", ""));
    for r in &d.related {
        let quoted = source_line(cfg, r.device, r.line)
            .map(|t| format!(" `{}`", t.trim_start()))
            .unwrap_or_default();
        out.push_str(&format!(
            "{:width$} = related: {}:{} {} —{}\n",
            "", r.device_name, r.line, r.note, quoted
        ));
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_a_distinct_name() {
        let mut names: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Rule::ALL.len());
    }

    #[test]
    fn error_rules_are_the_inert_or_dangling_ones() {
        assert_eq!(Rule::ShadowedPrefixListEntry.severity(), Severity::Error);
        assert_eq!(Rule::UndefinedRoutePolicy.severity(), Severity::Error);
        assert_eq!(Rule::ImportFilterGap.severity(), Severity::Warning);
        assert_eq!(Rule::SessionAsnMismatch.severity(), Severity::Warning);
    }

    #[test]
    fn diag_key_ignores_lines() {
        let d = |span: (u32, u32)| Diagnostic {
            rule: Rule::UndefinedPrefixList,
            severity: Severity::Error,
            device: RouterId(1),
            device_name: "A".into(),
            span,
            message: "prefix-list `x` is matched but never defined".into(),
            related: Vec::new(),
        };
        assert_eq!(d((3, 3)).key(), d((9, 9)).key());
    }
}
