//! Header spaces.
//!
//! Each intent in the specification covers a *header space*: a rectangle
//! over (src prefix, dst prefix, protocol, port ranges). The paper's test
//! generation (§4.1) samples one packet per property from its header space;
//! [`HeaderSpace::sample`] implements that sampling deterministically so a
//! test suite is reproducible.

use crate::flow::{Flow, Protocol};
use crate::prefix::Prefix;
use std::fmt;
use std::ops::RangeInclusive;

/// A rectangle of packet headers: the 5-tuple space an intent quantifies
/// over.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HeaderSpace {
    pub src: Prefix,
    pub dst: Prefix,
    pub proto: Protocol,
    pub src_ports: PortRange,
    pub dst_ports: PortRange,
}

/// An inclusive port range; `PortRange::ANY` covers 0..=65535.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRange {
    pub lo: u16,
    pub hi: u16,
}

impl PortRange {
    /// The full port range.
    pub const ANY: PortRange = PortRange {
        lo: 0,
        hi: u16::MAX,
    };

    /// A range covering exactly one port.
    pub const fn single(p: u16) -> Self {
        PortRange { lo: p, hi: p }
    }

    /// Builds a range; panics if `lo > hi`.
    pub fn new(lo: u16, hi: u16) -> Self {
        assert!(lo <= hi, "port range {lo}..={hi} is empty");
        PortRange { lo, hi }
    }

    /// Whether `p` is inside the range.
    pub fn contains(self, p: u16) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// Number of ports covered.
    pub fn size(self) -> u32 {
        (self.hi - self.lo) as u32 + 1
    }

    /// The `i`-th port of the range, wrapping.
    pub fn pick(self, i: u32) -> u16 {
        self.lo + (i % self.size()) as u16
    }
}

impl From<RangeInclusive<u16>> for PortRange {
    fn from(r: RangeInclusive<u16>) -> Self {
        PortRange::new(*r.start(), *r.end())
    }
}

impl HeaderSpace {
    /// The space of all packets from `src` to `dst`, any protocol/ports.
    pub fn between(src: Prefix, dst: Prefix) -> Self {
        HeaderSpace {
            src,
            dst,
            proto: Protocol::Any,
            src_ports: PortRange::ANY,
            dst_ports: PortRange::ANY,
        }
    }

    /// Whether a concrete flow lies inside this space.
    pub fn contains(&self, flow: &Flow) -> bool {
        self.src.contains(flow.src)
            && self.dst.contains(flow.dst)
            && (self.proto == Protocol::Any || self.proto == flow.proto)
            && self.src_ports.contains(flow.src_port)
            && self.dst_ports.contains(flow.dst_port)
    }

    /// Deterministically samples the `i`-th packet of the space.
    ///
    /// Sampling is *total*: every `i` yields a member flow, and
    /// `sample(i) == sample(i)` across runs, which keeps the SBFL spectrum
    /// reproducible.
    pub fn sample(&self, i: u32) -> Flow {
        // Spread the index across dimensions with odd multipliers so
        // consecutive samples differ in every field.
        Flow {
            src: self.src.host(i.wrapping_mul(2654435761) >> 8),
            dst: self.dst.host(i),
            proto: self.proto,
            src_port: self.src_ports.pick(i.wrapping_mul(40503)),
            dst_port: self.dst_ports.pick(i),
        }
    }
}

impl fmt::Display for HeaderSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} ({})", self.src, self.dst, self.proto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn sample_is_member_and_deterministic() {
        let hs = HeaderSpace {
            src: p("10.1.0.0/16"),
            dst: p("10.2.0.0/16"),
            proto: Protocol::Tcp,
            src_ports: PortRange::ANY,
            dst_ports: PortRange::new(80, 443),
        };
        for i in [0u32, 1, 7, 1000, u32::MAX] {
            let f = hs.sample(i);
            assert!(hs.contains(&f), "sample({i}) = {f} escaped {hs}");
            assert_eq!(f, hs.sample(i), "sampling must be deterministic");
        }
    }

    #[test]
    fn distinct_indices_usually_differ() {
        let hs = HeaderSpace::between(p("10.0.0.0/8"), p("20.0.0.0/8"));
        assert_ne!(hs.sample(0), hs.sample(1));
    }

    #[test]
    fn contains_enforces_every_dimension() {
        let hs = HeaderSpace {
            src: p("10.0.0.0/8"),
            dst: p("20.0.0.0/8"),
            proto: Protocol::Udp,
            src_ports: PortRange::ANY,
            dst_ports: PortRange::single(53),
        };
        let good = Flow {
            src: Ipv4Addr::new(10, 1, 1, 1),
            dst: Ipv4Addr::new(20, 1, 1, 1),
            proto: Protocol::Udp,
            src_port: 999,
            dst_port: 53,
        };
        assert!(hs.contains(&good));
        assert!(!hs.contains(&Flow {
            dst_port: 54,
            ..good
        }));
        assert!(!hs.contains(&Flow {
            proto: Protocol::Tcp,
            ..good
        }));
        assert!(!hs.contains(&Flow {
            src: Ipv4Addr::new(11, 0, 0, 1),
            ..good
        }));
    }

    #[test]
    fn port_range_arithmetic() {
        let r = PortRange::new(10, 12);
        assert_eq!(r.size(), 3);
        assert_eq!(r.pick(0), 10);
        assert_eq!(r.pick(5), 12);
        assert!(r.contains(11));
        assert!(!r.contains(13));
        assert_eq!(PortRange::ANY.size(), 65536);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_port_range_panics() {
        PortRange::new(5, 4);
    }
}
