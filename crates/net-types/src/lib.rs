//! # acr-net-types
//!
//! Foundation network types shared by every ACR crate:
//!
//! - [`Ipv4Addr`] and [`Prefix`] — IPv4 addresses and CIDR prefixes with
//!   canonicalization, containment and parsing,
//! - [`PrefixTrie`] — a binary trie supporting longest-prefix-match lookup,
//! - [`AsPath`] / [`Asn`] — BGP AS paths, including the `overwrite`
//!   operation that drives the paper's Figure 2 incident,
//! - [`Flow`] and [`HeaderSpace`] — 5-tuple test packets and the header
//!   spaces that intents quantify over (§4.1 of the paper samples one
//!   packet per property's header space),
//! - [`RouterId`] / [`Community`] — miscellaneous identifiers,
//! - [`SplitMix64`] and [`fnv1a`] — the deterministic PRNG and the content
//!   hash every printed digest is folded with.
//!
//! The crate is dependency-free and fully deterministic; all sampling takes
//! an explicit deterministic position rather than an RNG so that upper
//! layers control randomness.

pub mod addr;
pub mod aspath;
pub mod community;
pub mod flow;
pub mod fnv;
pub mod headerspace;
pub mod prefix;
pub mod rng;
pub mod trie;

pub use addr::Ipv4Addr;
pub use aspath::{AsPath, Asn};
pub use community::Community;
pub use flow::{Flow, Protocol};
pub use fnv::{fnv1a, FNV_OFFSET};
pub use headerspace::HeaderSpace;
pub use prefix::{ParsePrefixError, Prefix};
pub use rng::SplitMix64;
pub use trie::PrefixTrie;

/// Identifier of a router in a network, stable across simulation runs.
///
/// Router ids double as the BGP tiebreaker of last resort (lowest id wins),
/// mirroring the real protocol's router-id comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub u32);

impl RouterId {
    /// Returns the numeric index, useful for dense per-router tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RouterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_id_orders_numerically() {
        assert!(RouterId(3) < RouterId(10));
        assert_eq!(RouterId(7).index(), 7);
        assert_eq!(RouterId(7).to_string(), "r7");
    }
}
