//! The abstract route domain.
//!
//! An [`AbstractRoute`] over-approximates *every* concrete [`acr_sim`]
//! route a given (router, prefix) pair may ever hold by its communities
//! alone, as a *may*-set: a community outside the set is definitely
//! absent. Policy matching reads only prefix lists (exact, given the
//! prefix under analysis) and communities, so AS-path length,
//! LOCAL_PREF and MED are not tracked. The configuration lines that may
//! have contributed to a route — the abstract derivation path the
//! localization prior damps — are not part of the value either: no
//! transfer function reads them, so they live in one set per prefix
//! beside the RIB (`FlowFacts::support`).
//!
//! The domain is a finite join-semilattice: every community a may-set
//! can hold is named by some `apply community` line of the
//! configuration, so the fixed point terminates without widening.

use acr_net_types::Community;
use std::collections::BTreeSet;

/// The abstract value: everything a route for one prefix at one router
/// *may* look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractRoute {
    /// Communities that *may* be attached. Anything outside is
    /// definitely absent — a community clause it fails is definitely
    /// skipped.
    pub communities: BTreeSet<Community>,
}

impl AbstractRoute {
    /// A locally originated route: no communities (matches
    /// `acr_sim::Route::local`).
    pub fn origin() -> AbstractRoute {
        AbstractRoute {
            communities: BTreeSet::new(),
        }
    }

    /// In-place join (the may-set union); returns whether `self` grew
    /// (the fixed-point driver's dirty test).
    pub fn join_from(&mut self, other: &AbstractRoute) -> bool {
        let before = self.communities.len();
        self.communities.extend(&other.communities);
        self.communities.len() != before
    }

    /// Whether this abstract value covers a concrete simulator route —
    /// the soundness relation `tests/prop_flow.rs` checks: every
    /// community the route carries is in the may-set.
    pub fn covers(&self, route: &acr_sim::Route) -> bool {
        route
            .communities
            .iter()
            .all(|c| self.communities.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_from_reports_change() {
        let mut a = AbstractRoute::origin();
        let mut b = AbstractRoute::origin();
        b.communities.insert("65000:1".parse().unwrap());
        assert!(a.join_from(&b));
        assert!(!a.join_from(&b));
        assert_eq!(a, b);
    }
}
