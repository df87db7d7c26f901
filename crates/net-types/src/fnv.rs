//! FNV-1a 64, the one content hash behind every printed digest.
//!
//! Report, corpus and flow-fact digests are compared across processes and
//! pinned as literals in tests and `ci.sh`, so they need a hash fixed by
//! its specification rather than `std`'s `DefaultHasher`, whose algorithm
//! may change between releases.

/// The FNV-1a 64 offset basis: the accumulator before any byte.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64 accumulator `h`; start from
/// [`FNV_OFFSET`]. Folding two slices in turn equals folding their
/// concatenation.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference vectors of the FNV specification.
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }
}
