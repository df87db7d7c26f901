//! Configuration containers and line addressing.
//!
//! [`DeviceConfig`] is the flat, ordered statement list of one router;
//! [`NetworkConfig`] maps router ids to device configs. [`LineId`] —
//! `(router, 1-based line)` — is the coordinate system shared by coverage,
//! SBFL suspiciousness and repair templates.

use crate::ast::{BlockKind, Stmt};
use acr_net_types::RouterId;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Address of one configuration line in the network: router + 1-based line
/// number (line = statement index + 1). A delta-built candidate's compiled
/// form names its statements in the committed configuration's lines
/// instead, which [`crate::LineMap::render`] turns back into these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineId {
    pub router: RouterId,
    pub line: u32,
}

impl LineId {
    /// Builds a line id; `line` is 1-based.
    pub fn new(router: RouterId, line: u32) -> Self {
        debug_assert!(line >= 1, "LineId lines are 1-based");
        LineId { router, line }
    }

    /// The 0-based statement index this id refers to.
    pub fn index(self) -> usize {
        (self.line - 1) as usize
    }
}

impl fmt::Display for LineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.router, self.line)
    }
}

/// The configuration of one device: a name plus an ordered statement list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceConfig {
    name: String,
    stmts: Vec<Stmt>,
}

impl DeviceConfig {
    /// Creates a config from parts. Use [`crate::parse::parse_device`] for text.
    pub fn new(name: impl Into<String>, stmts: Vec<Stmt>) -> Self {
        DeviceConfig {
            name: name.into(),
            stmts,
        }
    }

    /// The device's human-readable name (e.g. `"A"` in Figure 2).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered statements.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Number of statements (= number of printed lines).
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the config has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Statement at a 1-based line number.
    pub fn line(&self, line: u32) -> Option<&Stmt> {
        self.stmts.get((line.checked_sub(1)?) as usize)
    }

    /// Iterates `(1-based line, statement)`.
    pub fn lines(&self) -> impl Iterator<Item = (u32, &Stmt)> {
        self.stmts
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32 + 1, s))
    }

    /// The block kind each statement lives in (`None` = top level), derived
    /// from header positions. Indexed by statement index.
    pub fn block_map(&self) -> Vec<Option<BlockKind>> {
        let mut out = Vec::with_capacity(self.stmts.len());
        let mut current: Option<BlockKind> = None;
        for stmt in &self.stmts {
            if stmt.opens_block().is_some() {
                current = stmt.opens_block();
                out.push(None); // the header itself is top level
            } else if stmt.required_block().is_some() {
                out.push(current);
            } else {
                current = None;
                out.push(None);
            }
        }
        out
    }

    /// Renders the configuration as text, one statement per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for stmt in &self.stmts {
            out.push_str(&stmt.to_string());
            out.push('\n');
        }
        out
    }

    /// Mutable access for the patch engine (kept crate-private so all
    /// mutation flows through [`crate::patch`]).
    pub(crate) fn stmts_mut(&mut self) -> &mut Vec<Stmt> {
        &mut self.stmts
    }
}

impl fmt::Display for DeviceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// The configurations of an entire network, keyed by [`RouterId`].
///
/// The map is a `BTreeMap` so iteration order — and therefore every
/// downstream spectrum, ranking and search — is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetworkConfig {
    devices: BTreeMap<RouterId, DeviceConfig>,
}

impl NetworkConfig {
    /// Creates an empty network configuration.
    pub fn new() -> Self {
        NetworkConfig::default()
    }

    /// Adds (or replaces) a device's configuration.
    pub fn insert(&mut self, router: RouterId, config: DeviceConfig) {
        self.devices.insert(router, config);
    }

    /// The configuration of one device.
    pub fn device(&self, router: RouterId) -> Option<&DeviceConfig> {
        self.devices.get(&router)
    }

    /// Mutable device access for the patch engine.
    pub(crate) fn device_mut(&mut self, router: RouterId) -> Option<&mut DeviceConfig> {
        self.devices.get_mut(&router)
    }

    /// Iterates devices in router-id order.
    pub fn devices(&self) -> impl Iterator<Item = (RouterId, &DeviceConfig)> {
        self.devices.iter().map(|(r, c)| (*r, c))
    }

    /// Router ids present in the network, in order.
    pub fn routers(&self) -> Vec<RouterId> {
        self.devices.keys().copied().collect()
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the network has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Total number of configuration lines across all devices — the raw
    /// search-space unit in the paper's Figure 3 comparison.
    pub fn total_lines(&self) -> usize {
        self.devices.values().map(|c| c.len()).sum()
    }

    /// The statement a [`LineId`] addresses.
    pub fn stmt(&self, id: LineId) -> Option<&Stmt> {
        self.devices.get(&id.router)?.line(id.line)
    }

    /// Iterates every line id in the network in deterministic order.
    pub fn all_lines(&self) -> impl Iterator<Item = LineId> + '_ {
        self.devices.iter().flat_map(|(router, cfg)| {
            (1..=cfg.len() as u32).map(move |line| LineId::new(*router, line))
        })
    }

    /// A stable fingerprint over the full text, used by the incremental
    /// verifier to key its memo tables.
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        for (router, cfg) in &self.devices {
            router.hash(&mut hasher);
            cfg.name().hash(&mut hasher);
            for stmt in cfg.stmts() {
                stmt.hash(&mut hasher);
            }
        }
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_net_types::{Asn, Ipv4Addr, Prefix};

    fn sample() -> DeviceConfig {
        DeviceConfig::new(
            "A",
            vec![
                Stmt::BgpProcess(Asn(65001)),
                Stmt::RouterId(Ipv4Addr::new(1, 1, 1, 1)),
                Stmt::Network("10.0.0.0/16".parse::<Prefix>().unwrap()),
                Stmt::StaticRoute {
                    prefix: "20.0.0.0/16".parse().unwrap(),
                    next_hop: crate::ast::NextHop::Null0,
                },
            ],
        )
    }

    #[test]
    fn line_ids_are_one_based() {
        let cfg = sample();
        assert_eq!(cfg.line(1), Some(&Stmt::BgpProcess(Asn(65001))));
        assert_eq!(
            cfg.line(4).map(|s| s.to_string()).unwrap(),
            "ip route-static 20.0.0.0 16 NULL0"
        );
        assert_eq!(cfg.line(0), None);
        assert_eq!(cfg.line(5), None);
        assert_eq!(LineId::new(RouterId(0), 3).index(), 2);
    }

    #[test]
    fn block_map_tracks_headers() {
        let cfg = sample();
        let map = cfg.block_map();
        assert_eq!(map[0], None); // bgp header itself
        assert_eq!(map[1], Some(BlockKind::Bgp)); // router-id
        assert_eq!(map[2], Some(BlockKind::Bgp)); // network
        assert_eq!(map[3], None); // static route resets to top level
    }

    #[test]
    fn network_lines_and_fingerprint() {
        let mut net = NetworkConfig::new();
        net.insert(RouterId(1), sample());
        net.insert(
            RouterId(0),
            DeviceConfig::new("B", vec![Stmt::Remark("x".into())]),
        );
        assert_eq!(net.total_lines(), 5);
        let ids: Vec<LineId> = net.all_lines().collect();
        assert_eq!(ids.len(), 5);
        assert_eq!(ids[0], LineId::new(RouterId(0), 1));
        let fp1 = net.fingerprint();
        net.insert(
            RouterId(0),
            DeviceConfig::new("B", vec![Stmt::Remark("y".into())]),
        );
        assert_ne!(
            fp1,
            net.fingerprint(),
            "fingerprint must see content changes"
        );
    }

    #[test]
    fn to_text_one_line_per_stmt() {
        let text = sample().to_text();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("bgp 65001\n"));
    }
}
