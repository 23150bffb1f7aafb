//! Partial checksums over packet fragments.
//!
//! The paper's send-side integration (§4.1.1) checksums each chunk of
//! user data *as it is copied into an mbuf at the socket layer* and
//! stores the partial sum in the mbuf header. When TCP later builds a
//! segment, it combines the stored partial sums instead of walking the
//! data again — but only if every byte in the mbuf ends up in the same
//! segment; otherwise the partial sum is useless and TCP falls back to
//! summing the data.
//!
//! Combining partial sums requires tracking each fragment's byte
//! length, because a fragment appended at an odd byte offset
//! contributes its sum byte-swapped (RFC 1071 §2B). A
//! [`PartialChecksum`] is therefore a `(sum, length)` pair forming a
//! monoid under [`PartialChecksum::append`].

use crate::sum::Sum16;

/// The checksum of a fragment of a larger packet: the ones-complement
/// sum of the fragment's bytes together with the fragment's length.
///
/// # Examples
///
/// ```
/// use cksum::PartialChecksum;
///
/// let whole = PartialChecksum::over(b"hello world");
/// let parts = PartialChecksum::over(b"hello")
///     .append(PartialChecksum::over(b" wor"))
///     .append(PartialChecksum::over(b"ld"));
/// assert_eq!(whole, parts);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct PartialChecksum {
    sum: Sum16,
    len: usize,
}

impl PartialChecksum {
    /// The empty fragment (identity of [`append`](Self::append)).
    pub const EMPTY: PartialChecksum = PartialChecksum {
        sum: Sum16::ZERO,
        len: 0,
    };

    /// Computes the partial checksum of a fragment.
    #[must_use]
    pub fn over(data: &[u8]) -> Self {
        PartialChecksum {
            sum: crate::algos::optimized_cksum(data),
            len: data.len(),
        }
    }

    /// The fragment's ones-complement sum, as if the fragment started
    /// at offset zero.
    #[inline]
    #[must_use]
    pub const fn sum(self) -> Sum16 {
        self.sum
    }

    /// The fragment length in bytes.
    #[inline]
    #[must_use]
    pub const fn len(self) -> usize {
        self.len
    }

    /// Whether the fragment is empty.
    #[inline]
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Concatenation: the partial checksum of `self` followed by
    /// `right`.
    ///
    /// If `self` has odd length, `right`'s sum enters byte-swapped.
    #[must_use]
    pub const fn append(self, right: PartialChecksum) -> PartialChecksum {
        let right_sum = if self.len % 2 == 1 {
            right.sum.swapped()
        } else {
            right.sum
        };
        PartialChecksum {
            sum: self.sum.add(right_sum),
            len: self.len + right.len,
        }
    }

    /// The wire checksum of the whole (complement of the sum), valid
    /// when this fragment *is* the whole packet.
    #[inline]
    #[must_use]
    pub const fn finish(self) -> u16 {
        self.sum.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::naive_cksum;

    #[test]
    fn identity() {
        let p = PartialChecksum::over(b"abcdef");
        assert_eq!(PartialChecksum::EMPTY.append(p), p);
        assert_eq!(p.append(PartialChecksum::EMPTY), p);
        assert!(PartialChecksum::EMPTY.is_empty());
    }

    #[test]
    fn append_matches_whole_for_even_split() {
        let data: Vec<u8> = (0..100u8).collect();
        let (a, b) = data.split_at(40);
        let combined = PartialChecksum::over(a).append(PartialChecksum::over(b));
        assert_eq!(combined.sum(), naive_cksum(&data));
        assert_eq!(combined.len(), 100);
    }

    #[test]
    fn append_matches_whole_for_every_split_point() {
        let data: Vec<u8> = (0..64).map(|i| (i * 37 + 5) as u8).collect();
        let whole = naive_cksum(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            let combined = PartialChecksum::over(a).append(PartialChecksum::over(b));
            assert_eq!(combined.sum(), whole, "split {split}");
        }
    }

    #[test]
    fn three_way_odd_splits() {
        let data: Vec<u8> = (0..31).map(|i| (i * 3) as u8).collect();
        let whole = naive_cksum(&data);
        // Split 31 bytes as 7 + 9 + 15 (all odd pieces).
        let combined = PartialChecksum::over(&data[..7])
            .append(PartialChecksum::over(&data[7..16]))
            .append(PartialChecksum::over(&data[16..]));
        assert_eq!(combined.sum(), whole);
    }

    #[test]
    fn associativity() {
        let a = PartialChecksum::over(b"abc");
        let b = PartialChecksum::over(b"defgh");
        let c = PartialChecksum::over(b"ij");
        assert_eq!(a.append(b).append(c), a.append(b.append(c)));
    }
}
