//! The abstract route domain.
//!
//! An [`AbstractRoute`] over-approximates *every* concrete [`acr_sim`]
//! route a given (router, prefix) pair may ever hold: AS-path length and
//! LOCAL_PREF as intervals and communities as a *may*-set (a community
//! outside the set is definitely absent). MED is not tracked, and the
//! configuration lines that may have contributed to a route — the
//! abstract derivation path the localization prior boosts — are not part
//! of the value: no transfer function reads them, so they live in one
//! set per prefix beside the RIB (`FlowFacts::support`).
//!
//! The domain is a join-semilattice. Path-length intervals are the only
//! unbounded component (`as-path prepend` in a policy cycle grows them
//! forever), so joins accept a widening cap: once the upper bound
//! crosses the cap it jumps to [`Interval::INF`], which guarantees the
//! fixed point terminates (see `analysis.rs` for the cap choice).

use acr_net_types::Community;
use std::collections::BTreeSet;
use std::fmt;

/// A closed interval of `u32`s; `hi == Interval::INF` means unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Interval {
    pub lo: u32,
    pub hi: u32,
}

impl Interval {
    /// The "unbounded above" sentinel.
    pub const INF: u32 = u32::MAX;

    pub fn point(v: u32) -> Interval {
        Interval { lo: v, hi: v }
    }

    pub fn new(lo: u32, hi: u32) -> Interval {
        debug_assert!(lo <= hi);
        Interval { lo, hi }
    }

    pub fn contains(&self, v: u32) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Least upper bound.
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Adds `n` to both bounds (saturating; `INF` stays `INF`).
    pub fn add(&self, n: u32) -> Interval {
        Interval {
            lo: self.lo.saturating_add(n).min(Self::INF - 1),
            hi: if self.hi == Self::INF {
                Self::INF
            } else {
                self.hi.saturating_add(n)
            },
        }
    }

    /// Widening: an upper bound past `cap` jumps to `INF`, so chains of
    /// joins through `add` cannot climb forever.
    pub fn widen(&self, cap: u32) -> Interval {
        if self.hi != Self::INF && self.hi > cap {
            Interval {
                lo: self.lo,
                hi: Self::INF,
            }
        } else {
            *self
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hi == Self::INF {
            write!(f, "[{}, inf)", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// The abstract value: everything a route for one prefix at one router
/// *may* look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractRoute {
    /// AS-path length (hops) interval.
    pub path_len: Interval,
    /// LOCAL_PREF interval.
    pub local_pref: Interval,
    /// Communities that *may* be attached. Anything outside is
    /// definitely absent — the complement drives the definite-negative
    /// lints.
    pub communities: BTreeSet<Community>,
}

impl AbstractRoute {
    /// A locally originated route: empty AS path, default LOCAL_PREF,
    /// no communities (matches `acr_sim::Route::local`).
    pub fn origin() -> AbstractRoute {
        AbstractRoute {
            path_len: Interval::point(0),
            local_pref: Interval::point(acr_sim::route::DEFAULT_LOCAL_PREF),
            communities: BTreeSet::new(),
        }
    }

    /// In-place join; returns whether `self` changed (the fixed-point
    /// driver's dirty test).
    pub fn join_from(&mut self, other: &AbstractRoute) -> bool {
        let mut changed = false;
        let pl = self.path_len.join(&other.path_len);
        if pl != self.path_len {
            self.path_len = pl;
            changed = true;
        }
        let lp = self.local_pref.join(&other.local_pref);
        if lp != self.local_pref {
            self.local_pref = lp;
            changed = true;
        }
        for c in &other.communities {
            changed |= self.communities.insert(*c);
        }
        changed
    }

    /// Whether this abstract value covers a concrete simulator route —
    /// the soundness relation `tests/prop_flow.rs` checks. (MED is not
    /// tracked, so it is not part of the ordering.)
    pub fn covers(&self, route: &acr_sim::Route) -> bool {
        self.path_len.contains(route.as_path.len() as u32)
            && self.local_pref.contains(route.local_pref)
            && route
                .communities
                .iter()
                .all(|c| self.communities.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_join_add_widen() {
        let a = Interval::point(2);
        let b = Interval::new(4, 6);
        assert_eq!(a.join(&b), Interval::new(2, 6));
        assert_eq!(a.add(3), Interval::new(5, 5));
        assert_eq!(
            Interval::new(1, 9).widen(8),
            Interval::new(1, Interval::INF)
        );
        assert_eq!(Interval::new(1, 8).widen(8), Interval::new(1, 8));
        assert!(Interval::new(1, Interval::INF).contains(1_000_000));
        assert_eq!(
            Interval::new(2, Interval::INF).add(5),
            Interval::new(7, Interval::INF)
        );
    }

    #[test]
    fn join_from_reports_change() {
        let mut a = AbstractRoute::origin();
        let b = AbstractRoute {
            path_len: Interval::point(3),
            ..AbstractRoute::origin()
        };
        assert!(a.join_from(&b));
        assert!(!a.join_from(&b));
        assert_eq!(a.path_len, Interval::new(0, 3));
    }
}
