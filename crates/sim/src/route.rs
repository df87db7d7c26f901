//! BGP routes, best-path selection, and the hash-consed route arena.

use crate::deriv::DerivId;
use crate::fxhash::{FxHashMap, FxHasher};
use acr_net_types::{AsPath, Community, Ipv4Addr, Prefix, RouterId};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// Default LOCAL_PREF when no policy sets one.
pub const DEFAULT_LOCAL_PREF: u32 = 100;

/// A route as held in a router's Loc-RIB (or carried in an announcement).
/// `Hash` covers every field (derivation id included) — the sparse
/// engine's policy memo keys on the full route, since communities and
/// provenance influence transfer results even though they are outside
/// the route's protocol key (see [`RouteInterner::key_id`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Route {
    pub prefix: Prefix,
    pub as_path: AsPath,
    pub local_pref: u32,
    pub med: u32,
    pub communities: Vec<Community>,
    /// Address packets for this route are forwarded to; `0.0.0.0` for
    /// locally originated routes (delivered / resolved locally).
    pub next_hop: Ipv4Addr,
    /// The BGP neighbor the route was learned from; `None` if local.
    pub learned_from: Option<RouterId>,
    /// Derivation node in the arena (provenance).
    pub deriv: DerivId,
}

impl Route {
    /// A locally originated route (empty path, no next hop).
    pub fn local(prefix: Prefix, deriv: DerivId) -> Self {
        Route {
            prefix,
            as_path: AsPath::empty(),
            local_pref: DEFAULT_LOCAL_PREF,
            med: 0,
            communities: Vec::new(),
            next_hop: Ipv4Addr::UNSPECIFIED,
            learned_from: None,
            deriv,
        }
    }

    /// BGP decision process: `Ordering::Greater` means `self` is preferred
    /// over `other`.
    ///
    /// Order of comparison (standard, restricted to modelled attributes):
    /// 1. higher LOCAL_PREF,
    /// 2. shorter AS_PATH,
    /// 3. lower MED,
    /// 4. local routes over learned routes,
    /// 5. lower neighbor router id (deterministic tiebreak).
    pub fn prefer(&self, other: &Route) -> Ordering {
        self.local_pref
            .cmp(&other.local_pref)
            .then_with(|| other.as_path.len().cmp(&self.as_path.len()))
            .then_with(|| other.med.cmp(&self.med))
            .then_with(|| {
                // Local (None) beats learned (Some); among learned, lower
                // router id wins, hence reversed comparison.
                match (self.learned_from, other.learned_from) {
                    (None, None) => Ordering::Equal,
                    (None, Some(_)) => Ordering::Greater,
                    (Some(_), None) => Ordering::Less,
                    (Some(a), Some(b)) => b.cmp(&a),
                }
            })
    }
}

/// Handle into a [`RouteInterner`]: `u32`-sized, `Copy`, and with the
/// guarantee that two handles from the *same* interner are equal iff the
/// full routes (communities and derivation id included) are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouteId(pub u32);

/// Hash-consed route arena. Interning is content-addressed twice over:
///
/// * the **route id** identifies the full route (id equality ⟺ `Route`
///   equality), so candidate comparison, memo lookup, and dirty-set
///   checks in the sparse engine collapse to integer ops;
/// * each route additionally carries a **key id**, hash-consed over the
///   route's protocol key — everything that influences routing
///   behaviour, the derivation id and communities excluded (key-id
///   equality ⟺ key equality) — so convergence/stability checks and
///   state hashing compare integers and never clone an AS path.
///
/// The arena is append-only: ids stay valid for the interner's lifetime,
/// which lets a [`crate::bgp::PolicyMemo`] keep one interner alive across
/// an entire repair loop. Each index maps a content hash to the newest id
/// with that hash, and older ids with the same hash chain through a
/// per-id `next` — `DerivArena::intern_ref`'s layout, so an index costs
/// no heap block per hash. A lookup confirms by full content compare: the
/// 64-bit hash only routes.
#[derive(Debug, Default, Clone)]
pub struct RouteInterner {
    routes: Vec<Route>,
    key_ids: Vec<u32>,
    /// Representative route per key id (first route interned with it).
    key_repr: Vec<RouteId>,
    /// Route hash -> the newest route id with that hash.
    index: FxHashMap<u64, u32>,
    /// Per route id, the next older route id with the same hash, or
    /// [`END`].
    next: Vec<u32>,
    /// Key hash -> the newest key id with that hash.
    key_index: FxHashMap<u64, u32>,
    /// Per key id, the next older key id with the same hash, or [`END`].
    key_next: Vec<u32>,
}

/// No older id shares the hash.
const END: u32 = u32::MAX;

/// Protocol-key equality: every field but the derivation id and the
/// communities.
pub(crate) fn same_key(a: &Route, b: &Route) -> bool {
    a.prefix == b.prefix
        && a.as_path == b.as_path
        && a.local_pref == b.local_pref
        && a.med == b.med
        && a.next_hop == b.next_hop
        && a.learned_from == b.learned_from
}

impl RouteInterner {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.routes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    pub fn get(&self, id: RouteId) -> &Route {
        &self.routes[id.0 as usize]
    }

    /// The hash-consed protocol-key identity of `id`: equal key ids ⟺
    /// equal routes once the derivation id and the communities are set
    /// aside, across all routes in this interner.
    pub fn key_id(&self, id: RouteId) -> u32 {
        self.key_ids[id.0 as usize]
    }

    fn route_hash(r: &Route) -> u64 {
        let mut h = FxHasher::default();
        r.hash(&mut h);
        h.finish()
    }

    fn key_hash(r: &Route) -> u64 {
        let mut h = FxHasher::default();
        r.prefix.hash(&mut h);
        r.as_path.hash(&mut h);
        r.local_pref.hash(&mut h);
        r.med.hash(&mut h);
        r.next_hop.hash(&mut h);
        r.learned_from.hash(&mut h);
        h.finish()
    }

    fn lookup(&self, hash: u64, r: &Route) -> Option<RouteId> {
        let mut at = self.index.get(&hash).copied().unwrap_or(END);
        while at != END {
            if self.routes[at as usize] == *r {
                return Some(RouteId(at));
            }
            at = self.next[at as usize];
        }
        None
    }

    /// Appends a route no id holds yet, with its key id: an existing one
    /// when a route with the same key was interned before, else fresh.
    fn push(&mut self, hash: u64, r: Route) -> RouteId {
        let id = self.routes.len() as u32;
        let kh = Self::key_hash(&r);
        let newest = self.key_index.get(&kh).copied().unwrap_or(END);
        let mut at = newest;
        while at != END && !same_key(&self.routes[self.key_repr[at as usize].0 as usize], &r) {
            at = self.key_next[at as usize];
        }
        let kid = if at != END {
            at
        } else {
            let fresh = self.key_repr.len() as u32;
            self.key_repr.push(RouteId(id));
            self.key_next.push(newest);
            self.key_index.insert(kh, fresh);
            fresh
        };
        self.routes.push(r);
        self.key_ids.push(kid);
        self.next.push(self.index.insert(hash, id).unwrap_or(END));
        RouteId(id)
    }

    /// Interns a route by reference, cloning only on a miss.
    pub fn intern(&mut self, r: &Route) -> RouteId {
        let hash = Self::route_hash(r);
        if let Some(id) = self.lookup(hash, r) {
            return id;
        }
        self.push(hash, r.clone())
    }

    /// Interns an owned route; on a hit the value is dropped.
    pub fn intern_owned(&mut self, r: Route) -> RouteId {
        let hash = Self::route_hash(&r);
        if let Some(id) = self.lookup(hash, &r) {
            return id;
        }
        self.push(hash, r)
    }
}

/// Picks the best route among candidates (deterministic): the maximum
/// under [`Route::prefer`], then the lower next hop. Among equal
/// candidates the *last* wins, as `Iterator::max_by` would pick it — the
/// dense reference in `tests/converge_oracle.rs` selects over whole
/// routes that way and must agree with this id-level selector.
pub fn select_best_id(
    interner: &RouteInterner,
    ids: impl IntoIterator<Item = RouteId>,
) -> Option<RouteId> {
    let mut best: Option<RouteId> = None;
    for id in ids {
        best = Some(match best {
            None => id,
            Some(b) => {
                let (rb, rc) = (interner.get(b), interner.get(id));
                if rb.prefer(rc).then_with(|| rc.next_hop.cmp(&rb.next_hop)) == Ordering::Greater {
                    b
                } else {
                    id
                }
            }
        });
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_net_types::Asn;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn base() -> Route {
        Route {
            prefix: p("10.0.0.0/16"),
            as_path: AsPath::from_hops([Asn(1), Asn(2)]),
            local_pref: 100,
            med: 0,
            communities: vec![],
            next_hop: Ipv4Addr::new(172, 16, 0, 1),
            learned_from: Some(RouterId(1)),
            deriv: DerivId(0),
        }
    }

    #[test]
    fn higher_local_pref_wins() {
        let a = Route {
            local_pref: 200,
            ..base()
        };
        let b = Route {
            as_path: AsPath::from_hops([Asn(9)]),
            ..base()
        };
        assert_eq!(a.prefer(&b), Ordering::Greater);
        assert_eq!(b.prefer(&a), Ordering::Less);
        // The selector the engine runs agrees, whichever comes first.
        let mut it = RouteInterner::new();
        let (ia, ib) = (it.intern(&a), it.intern(&b));
        assert_eq!(select_best_id(&it, [ia, ib]), Some(ia));
        assert_eq!(select_best_id(&it, [ib, ia]), Some(ia));
        assert_eq!(select_best_id(&it, []), None);
    }

    #[test]
    fn shorter_path_wins_at_equal_pref() {
        let short = Route {
            as_path: AsPath::from_hops([Asn(9)]),
            ..base()
        };
        let long = base();
        assert_eq!(short.prefer(&long), Ordering::Greater);
        // This asymmetry is the Figure 2 mechanism: an overwritten
        // (length-1) path beats the honest longer path.
        let overwritten = Route {
            as_path: AsPath::overwrite(Asn(7)),
            ..base()
        };
        assert_eq!(overwritten.prefer(&long), Ordering::Greater);
    }

    #[test]
    fn lower_med_wins() {
        let lo = base();
        let hi = Route { med: 50, ..base() };
        assert_eq!(lo.prefer(&hi), Ordering::Greater);
    }

    #[test]
    fn local_beats_learned() {
        let local = Route {
            as_path: AsPath::from_hops([Asn(1), Asn(2)]),
            learned_from: None,
            ..base()
        };
        assert_eq!(local.prefer(&base()), Ordering::Greater);
    }

    #[test]
    fn neighbor_id_tiebreak() {
        let from1 = base();
        let from2 = Route {
            learned_from: Some(RouterId(2)),
            ..base()
        };
        assert_eq!(from1.prefer(&from2), Ordering::Greater);
    }

    #[test]
    fn select_best_is_deterministic_and_max() {
        let routes = [
            base(),
            Route {
                local_pref: 200,
                ..base()
            },
            Route {
                as_path: AsPath::from_hops([Asn(9)]),
                ..base()
            },
        ];
        let mut it = RouteInterner::new();
        let ids: Vec<RouteId> = routes.iter().map(|r| it.intern(r)).collect();
        let best = it.get(select_best_id(&it, ids.clone()).unwrap());
        assert_eq!(best.local_pref, 200);
        let best2 = it.get(select_best_id(&it, ids.into_iter().rev()).unwrap());
        assert!(same_key(best, best2), "order of candidates must not matter");
        assert!(select_best_id(&it, std::iter::empty()).is_none());
    }

    #[test]
    fn key_ignores_deriv() {
        let a = base();
        let b = Route {
            deriv: DerivId(99),
            ..base()
        };
        assert!(same_key(&a, &b));
        assert!(!same_key(&a, &Route { med: 1, ..base() }));
    }

    #[test]
    fn intern_is_content_addressed() {
        let mut it = RouteInterner::new();
        let a = it.intern(&base());
        let b = it.intern_owned(base());
        assert_eq!(a, b, "identical routes intern to one id");
        assert_eq!(it.len(), 1);
        let c = it.intern_owned(Route {
            local_pref: 200,
            ..base()
        });
        assert_ne!(a, c);
        assert_eq!(it.get(a), &base());
        assert_eq!(it.get(c).local_pref, 200);
    }

    #[test]
    fn key_id_tracks_route_key_not_full_route() {
        let mut it = RouteInterner::new();
        let a = it.intern(&base());
        // Same key, different deriv / communities -> distinct route ids,
        // same key id.
        let b = it.intern_owned(Route {
            deriv: DerivId(7),
            ..base()
        });
        let c = it.intern_owned(Route {
            communities: vec![Community {
                asn: 65000,
                value: 1,
            }],
            ..base()
        });
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(it.key_id(a), it.key_id(b));
        assert_eq!(it.key_id(a), it.key_id(c));
        // Different key -> different key id.
        let d = it.intern_owned(Route { med: 9, ..base() });
        assert_ne!(it.key_id(a), it.key_id(d));
    }
}
