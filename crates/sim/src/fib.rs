//! FIB construction and lookup.
//!
//! Each router's forwarding decision merges three sources with standard
//! administrative preference (connected > static > BGP):
//!
//! - **connected**: link subnets and attached customer prefixes deliver
//!   locally,
//! - **static**: `ip route-static`, with `NULL0` installing a discard
//!   entry (aggregate origination) and an address next hop resolving to an
//!   adjacent router or to a locally attached subnet,
//! - **BGP**: the converged best route per prefix; flapping prefixes
//!   contribute nothing (their forwarding state is unstable by definition).
//!
//! Only the first two are materialized: [`base_fib`] builds a router's
//! connected + static table. BGP is never installed into a table.
//! [`FibView`] answers a lookup from the base FIB and the per-prefix
//! outcomes covering the destination, exactly as a table holding both
//! would (a BGP entry at a prefix loses to a base entry at the same
//! prefix, and the longest match wins).

use crate::bgp::PrefixOutcome;
use crate::deriv::{DerivArena, DerivId, DerivKind};
use crate::route::Route;
use acr_cfg::model::DeviceModel;
use acr_cfg::{LineId, NextHop};
use acr_net_types::{Ipv4Addr, Prefix, PrefixTrie, RouterId};
use acr_topo::Topology;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// What a FIB entry does with a matching packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FibAction {
    /// Hand to the adjacent router owning `addr`.
    Forward { router: RouterId, addr: Ipv4Addr },
    /// The packet is at its destination network; deliver locally.
    Deliver,
    /// Discard (NULL0 static).
    Drop,
}

/// Source preference (lower wins), mirroring administrative distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FibSource {
    Connected,
    Static,
    Bgp,
}

/// One FIB entry with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FibEntry {
    pub action: FibAction,
    pub source: FibSource,
    pub deriv: DerivId,
}

/// A router's forwarding table.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    trie: PrefixTrie<FibEntry>,
}

// Semantic equality: same (prefix, entry) set, regardless of trie node
// layout (removals leave tombstones, so structural equality would be
// order-sensitive).
impl PartialEq for Fib {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut a: Vec<_> = self.iter().collect();
        let mut b: Vec<_> = other.iter().collect();
        a.sort_by_key(|(p, _)| *p);
        b.sort_by_key(|(p, _)| *p);
        a == b
    }
}
impl Eq for Fib {}

impl Fib {
    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Prefix, &FibEntry)> {
        self.trie.lookup(addr)
    }

    /// Exact-prefix lookup.
    pub fn get(&self, prefix: Prefix) -> Option<&FibEntry> {
        self.trie.get(prefix)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// Whether the FIB is empty.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// All entries.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &FibEntry)> {
        self.trie.iter()
    }

    /// Inserts honoring source preference: an existing entry is replaced
    /// only by a strictly more-preferred source.
    pub fn install(&mut self, prefix: Prefix, entry: FibEntry) {
        match self.trie.get(prefix) {
            Some(existing) if existing.source <= entry.source => {}
            _ => {
                self.trie.insert(prefix, entry);
            }
        }
    }
}

/// The FIB entry a router's converged best route yields: forward to the
/// neighbor it was learned from. A locally originated best yields none
/// (the base FIB already handles local delivery or statics).
pub fn bgp_entry(route: &Route) -> Option<FibEntry> {
    Some(FibEntry {
        action: FibAction::Forward {
            router: route.learned_from?,
            addr: route.next_hop,
        },
        source: FibSource::Bgp,
        deriv: route.deriv,
    })
}

/// The forwarding state toward one destination, as a lookup view: every
/// router's base FIB plus the outcomes of the universe prefixes covering
/// the destination. Nothing is installed; a lookup answers what a FIB
/// holding the base entries and every converged best's [`bgp_entry`]
/// would.
#[derive(Clone, Copy)]
pub struct FibView<'a> {
    base: &'a [&'a Fib],
    covering: &'a [(Prefix, &'a PrefixOutcome)],
}

impl<'a> FibView<'a> {
    /// `base` is indexed by `RouterId::index()`; `covering` holds the
    /// simulated prefixes containing the destination, longest first (see
    /// [`covering`]).
    pub fn new(base: &'a [&'a Fib], covering: &'a [(Prefix, &'a PrefixOutcome)]) -> Self {
        debug_assert!(covering.windows(2).all(|w| w[0].0.len() > w[1].0.len()));
        FibView { base, covering }
    }

    /// Longest-prefix match at `router` for `dst`, which every covering
    /// prefix contains. A BGP entry at a covering prefix `p` answers when
    /// `p` is longer than the base FIB's match: then the base FIB has no
    /// entry at `p`, which would have blocked the install.
    pub fn lookup(&self, router: RouterId, dst: Ipv4Addr) -> Option<(Prefix, FibEntry)> {
        let base = self.base[router.index()].lookup(dst);
        let floor = base.map_or(0, |(p, _)| p.len() + 1);
        for (p, outcome) in self.covering {
            if p.len() < floor {
                break;
            }
            debug_assert!(p.contains(dst));
            if let Some(entry) = outcome.best_of(router).and_then(bgp_entry) {
                return Some((*p, entry));
            }
        }
        base.map(|(p, e)| (p, *e))
    }
}

/// Fills `out` with the outcomes of the prefixes in `outcomes` that
/// contain `dst`, longest first: the `covering` argument of
/// [`FibView::new`].
pub fn covering<'o, O: Borrow<PrefixOutcome>>(
    outcomes: &'o BTreeMap<Prefix, O>,
    dst: Ipv4Addr,
    out: &mut Vec<(Prefix, &'o PrefixOutcome)>,
) {
    out.clear();
    out.extend(
        (outcomes.iter())
            .filter(|(p, _)| p.contains(dst))
            .map(|(p, o)| (*p, o.borrow())),
    );
    // Prefixes order by (address, length), so the ones containing one
    // address come shortest first.
    out.reverse();
}

/// Builds the connected + static part of a router's FIB (the BGP part is
/// answered by a [`FibView`] from per-prefix outcomes).
pub fn base_fib(
    topo: &Topology,
    router: RouterId,
    model: &DeviceModel,
    arena: &mut DerivArena,
) -> Fib {
    let mut fib = Fib::default();
    // Connected: link subnets.
    for link in topo.links_of(router) {
        let lines = link
            .endpoint_of(router)
            .and_then(|e| model.interface_with_addr(e.addr))
            .map(|i| {
                let mut v = vec![LineId::new(router, i.line)];
                if let Some((_, _, l)) = i.addr {
                    v.push(LineId::new(router, l));
                }
                v
            })
            .unwrap_or_default();
        let deriv = arena.intern(DerivKind::FibConnected, lines, vec![]);
        fib.install(
            link.subnet,
            FibEntry {
                action: FibAction::Deliver,
                source: FibSource::Connected,
                deriv,
            },
        );
    }
    // Connected: attached customer prefixes.
    for p in &topo.router(router).attached {
        let deriv = arena.intern(DerivKind::FibConnected, vec![], vec![]);
        fib.install(
            *p,
            FibEntry {
                action: FibAction::Deliver,
                source: FibSource::Connected,
                deriv,
            },
        );
    }
    // Static routes.
    for sr in &model.static_routes {
        let deriv = arena.intern(
            DerivKind::FibStatic,
            vec![LineId::new(router, sr.line)],
            vec![],
        );
        let action = match sr.next_hop {
            NextHop::Null0 => Some(FibAction::Drop),
            NextHop::Addr(addr) => resolve_next_hop(topo, router, addr),
        };
        if let Some(action) = action {
            fib.install(
                sr.prefix,
                FibEntry {
                    action,
                    source: FibSource::Static,
                    deriv,
                },
            );
        }
        // Unresolvable next hop: the static stays out of the FIB, exactly
        // like an inactive static route on a real device.
    }
    fib
}

/// Resolves a next-hop address from `router`'s point of view: an adjacent
/// router's interface, or a locally attached subnet (deliver).
pub fn resolve_next_hop(topo: &Topology, router: RouterId, addr: Ipv4Addr) -> Option<FibAction> {
    if let Some(owner) = topo.owner_of(addr) {
        if owner == router {
            return Some(FibAction::Deliver);
        }
        let adjacent = topo
            .links_of(router)
            .any(|l| l.peer_of(router).map(|e| e.addr) == Some(addr));
        if adjacent {
            return Some(FibAction::Forward {
                router: owner,
                addr,
            });
        }
        return None;
    }
    // A gateway inside one of our attached subnets (e.g. the DCN edge).
    if topo
        .router(router)
        .attached
        .iter()
        .any(|p| p.contains(addr))
    {
        return Some(FibAction::Deliver);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_cfg::parse::parse_device;
    use acr_topo::{Role, TopologyBuilder};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn setup(cfg_a: &str) -> (Topology, DeviceModel) {
        let mut b = TopologyBuilder::new();
        let a = b.router("A", Role::Backbone);
        let s = b.router("S", Role::Backbone);
        b.link(a, s); // A=172.16.0.1, S=172.16.0.2
        b.attach(a, p("20.0.0.0/16"));
        (
            b.build(),
            DeviceModel::from_config(&parse_device("A", cfg_a).unwrap()),
        )
    }

    #[test]
    fn connected_entries_deliver() {
        let (topo, model) = setup("bgp 1\n");
        let mut arena = DerivArena::new();
        let fib = base_fib(&topo, RouterId(0), &model, &mut arena);
        // Link subnet + attached prefix.
        assert_eq!(fib.len(), 2);
        let (pfx, e) = fib.lookup(Ipv4Addr::new(20, 0, 1, 1)).unwrap();
        assert_eq!(pfx, p("20.0.0.0/16"));
        assert_eq!(e.action, FibAction::Deliver);
        let (pfx, _) = fib.lookup(Ipv4Addr::new(172, 16, 0, 2)).unwrap();
        assert_eq!(pfx, p("172.16.0.0/30"));
    }

    #[test]
    fn static_null0_drops() {
        let (topo, model) = setup("ip route-static 30.0.0.0 8 NULL0\n");
        let mut arena = DerivArena::new();
        let fib = base_fib(&topo, RouterId(0), &model, &mut arena);
        let e = fib.get(p("30.0.0.0/8")).unwrap();
        assert_eq!(e.action, FibAction::Drop);
        assert_eq!(e.source, FibSource::Static);
        // Its derivation carries the static-route line.
        assert_eq!(arena.node(e.deriv).lines, vec![LineId::new(RouterId(0), 1)]);
    }

    #[test]
    fn static_via_neighbor_forwards() {
        let (topo, model) = setup("ip route-static 30.0.0.0 8 172.16.0.2\n");
        let mut arena = DerivArena::new();
        let fib = base_fib(&topo, RouterId(0), &model, &mut arena);
        match fib.get(p("30.0.0.0/8")).unwrap().action {
            FibAction::Forward { router, addr } => {
                assert_eq!(router, RouterId(1));
                assert_eq!(addr, Ipv4Addr::new(172, 16, 0, 2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn static_via_attached_gateway_delivers() {
        let (topo, model) = setup("ip route-static 30.0.0.0 8 20.0.0.99\n");
        let mut arena = DerivArena::new();
        let fib = base_fib(&topo, RouterId(0), &model, &mut arena);
        assert_eq!(fib.get(p("30.0.0.0/8")).unwrap().action, FibAction::Deliver);
    }

    #[test]
    fn unresolvable_static_is_inactive() {
        let (topo, model) = setup("ip route-static 30.0.0.0 8 9.9.9.9\n");
        let mut arena = DerivArena::new();
        let fib = base_fib(&topo, RouterId(0), &model, &mut arena);
        assert!(fib.get(p("30.0.0.0/8")).is_none());
    }

    #[test]
    fn source_preference_connected_over_static_over_bgp() {
        let (topo, model) = setup("ip route-static 20.0.0.0 16 NULL0\n");
        let mut arena = DerivArena::new();
        let mut fib = base_fib(&topo, RouterId(0), &model, &mut arena);
        // The attached 20.0/16 (connected) must shadow the NULL0 static.
        assert_eq!(
            fib.get(p("20.0.0.0/16")).unwrap().source,
            FibSource::Connected
        );
        // A BGP entry cannot displace either.
        let deriv = arena.intern(DerivKind::Import, vec![], vec![]);
        fib.install(
            p("20.0.0.0/16"),
            FibEntry {
                action: FibAction::Drop,
                source: FibSource::Bgp,
                deriv,
            },
        );
        assert_eq!(
            fib.get(p("20.0.0.0/16")).unwrap().source,
            FibSource::Connected
        );
        // But a BGP entry installs fine for a new prefix, and a static then
        // replaces it.
        fib.install(
            p("40.0.0.0/8"),
            FibEntry {
                action: FibAction::Drop,
                source: FibSource::Bgp,
                deriv,
            },
        );
        assert_eq!(fib.get(p("40.0.0.0/8")).unwrap().source, FibSource::Bgp);
        fib.install(
            p("40.0.0.0/8"),
            FibEntry {
                action: FibAction::Deliver,
                source: FibSource::Static,
                deriv,
            },
        );
        assert_eq!(fib.get(p("40.0.0.0/8")).unwrap().source, FibSource::Static);
    }

    #[test]
    fn interface_lines_attributed_when_configured() {
        let (topo, model) = setup("interface eth0\n ip address 172.16.0.1 30\n");
        let mut arena = DerivArena::new();
        let fib = base_fib(&topo, RouterId(0), &model, &mut arena);
        let e = fib.get(p("172.16.0.0/30")).unwrap();
        let lines = &arena.node(e.deriv).lines;
        assert_eq!(lines.len(), 2, "{lines:?}"); // interface + ip address lines
    }
}
