//! Mbuf chains: packets and socket buffers.
//!
//! A [`Chain`] models BSD's `m_next`-linked list of mbufs. The
//! operations mirror the kernel primitives the paper's code paths use:
//!
//! - the ULTRIX socket-layer fill (`sosend`'s uiomove loop), including
//!   the 1 KB switch from ordinary mbufs to clusters;
//! - `m_copy`, with the deep-copy vs reference-count split that
//!   produces the *mcopy* row of Table 2;
//! - `M_PREPEND` for the 40-byte TCP/IP header;
//! - `sbdrop`-style front trimming for socket buffers;
//! - checksum over a chain, both by walking the data and by combining
//!   per-mbuf partial checksums stored at fill time (§4.1.1).
//!
//! Every operation returns an [`OpCost`] receipt so the simulator can
//! charge calibrated DECstation time for the memory traffic.

use std::collections::VecDeque;

use cksum::{PartialChecksum, Sum16};

use crate::cost::OpCost;
use crate::mbuf::{Mbuf, PktHdr, MCLBYTES, MHLEN, MLEN};
use crate::pool::{self as free, Enobufs, MbufPool};

/// The ULTRIX 4.2A socket layer switches from ordinary mbufs to
/// cluster mbufs once the transfer exceeds 1 KB (§2.2.1).
pub const CLUSTER_THRESHOLD: usize = 1024;

/// A chain of mbufs representing a packet or a socket buffer.
///
/// # Examples
///
/// ```
/// use mbuf::{Chain, MbufPool};
///
/// let pool = MbufPool::new();
/// let (chain, cost) = Chain::from_user_data(&pool, b"hello", false);
/// assert_eq!(chain.to_vec(), b"hello");
/// assert_eq!(cost.bytes_copied, 5);
/// assert_eq!(cost.mbufs_allocated, 1);
/// ```
///
/// The chain keeps its byte count, so [`Chain::len`] is O(1). A
/// dropped chain's mbuf list goes onto this thread's free list of
/// lists, from which the next chain built from user data or by
/// [`Chain::copy_range`] takes it (see [`crate::pool`]).
#[derive(Default)]
pub struct Chain {
    mbufs: VecDeque<Mbuf>,
    /// Total data bytes: the sum of `Mbuf::len` over `mbufs`.
    len: usize,
}

impl Drop for Chain {
    fn drop(&mut self) {
        if self.mbufs.capacity() > 0 {
            free::recycle_list(std::mem::take(&mut self.mbufs));
        }
    }
}

impl Chain {
    /// An empty chain. It holds no storage until an mbuf is added.
    #[must_use]
    pub fn new() -> Self {
        Chain::default()
    }

    /// An empty chain over a recycled mbuf list, for the builders
    /// that add mbufs straight away.
    fn with_list() -> Self {
        Chain {
            mbufs: free::alloc_list(),
            len: 0,
        }
    }

    /// Adds `m` at the back.
    fn push_back(&mut self, m: Mbuf) {
        self.len += m.len();
        self.mbufs.push_back(m);
    }

    /// Fills a chain from user data the way the ULTRIX socket layer
    /// does: cluster mbufs when `use_clusters` (the caller applies the
    /// [`CLUSTER_THRESHOLD`] policy), otherwise a packet-header mbuf
    /// (100 bytes) followed by ordinary mbufs (108 bytes each).
    ///
    /// Returns the chain and the work receipt (real copy of every
    /// byte plus the allocations).
    #[must_use]
    pub fn from_user_data(pool: &MbufPool, data: &[u8], use_clusters: bool) -> (Chain, OpCost) {
        Self::fill(pool, data, use_clusters, false)
    }

    /// Like [`Chain::from_user_data`], but also computes and stores a
    /// partial checksum in each mbuf as the data is copied in — the
    /// paper's send-side integrated copy-and-checksum (§4.1.1).
    ///
    /// The copy receipt is identical; the *checksum* work is implied
    /// by `integrated = true` and priced differently by the cost
    /// model (one integrated pass instead of copy + separate sum).
    #[must_use]
    pub fn from_user_data_cksum(
        pool: &MbufPool,
        data: &[u8],
        use_clusters: bool,
    ) -> (Chain, OpCost) {
        Self::fill(pool, data, use_clusters, true)
    }

    /// Fallible [`Chain::from_user_data`]: checks the pool's limit
    /// before each allocation and returns [`Enobufs`] when exhausted.
    /// A partially built chain is dropped (its mbufs return to the
    /// pool), so the receive path's failure mode is one counted drop,
    /// never a leak or a panic.
    pub fn try_from_user_data(
        pool: &MbufPool,
        data: &[u8],
        use_clusters: bool,
    ) -> Result<(Chain, OpCost), Enobufs> {
        let needed = expected_mbuf_count(data.len()) as u64;
        if let Some(limit) = pool.limit() {
            let outstanding = pool.stats().mbufs_outstanding();
            if outstanding + needed > limit {
                // Single counted refusal for the whole packet.
                pool.note_enobufs();
                return Err(Enobufs);
            }
        }
        Ok(Self::fill(pool, data, use_clusters, false))
    }

    fn fill(pool: &MbufPool, data: &[u8], use_clusters: bool, cksum: bool) -> (Chain, OpCost) {
        let mut chain = Chain::with_list();
        let mut cost = OpCost::ZERO;
        let mut remaining = data;
        let mut first = true;
        while !remaining.is_empty() || first {
            let mut m = if use_clusters {
                cost.clusters_allocated += 1;
                cost.mbufs_allocated += 1;
                let mut m = Mbuf::getcl(pool);
                if first {
                    m.pkthdr = Some(PktHdr::default());
                }
                m
            } else if first {
                cost.mbufs_allocated += 1;
                Mbuf::gethdr(pool)
            } else {
                cost.mbufs_allocated += 1;
                Mbuf::get(pool)
            };
            first = false;
            let taken = m.append_from(remaining);
            cost.bytes_copied += taken;
            if cksum {
                m.partial_cksum = Some(PartialChecksum::over(m.data()));
            }
            remaining = &remaining[taken..];
            chain.push_back(m);
            if remaining.is_empty() {
                break;
            }
        }
        let total = data.len();
        if let Some(front) = chain.mbufs.front_mut() {
            if let Some(hdr) = front.pkthdr.as_mut() {
                hdr.len = total;
            }
        }
        (chain, cost)
    }

    /// Total data bytes in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        debug_assert_eq!(
            self.len,
            self.mbufs.iter().map(Mbuf::len).sum::<usize>(),
            "kept byte count"
        );
        self.len
    }

    /// Whether the chain holds no data.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of mbufs in the chain.
    #[must_use]
    pub fn mbuf_count(&self) -> usize {
        self.mbufs.len()
    }

    /// Iterates over the mbufs.
    pub fn iter(&self) -> impl Iterator<Item = &Mbuf> {
        self.mbufs.iter()
    }

    /// Flattens the chain into a vector (test/verification helper; the
    /// stack never does this on the data path).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for m in &self.mbufs {
            out.extend_from_slice(m.data());
        }
        out
    }

    /// Copies `len` bytes starting at byte offset `off` into `dst`,
    /// returning the receipt. This is the `uiomove`-style copy used on
    /// the receive side (kernel → user) and by drivers (mbuf → device
    /// FIFO).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn copy_out(&self, off: usize, dst: &mut [u8]) -> OpCost {
        let len = dst.len();
        assert!(off + len <= self.len(), "copy_out range out of bounds");
        let mut skipped = 0usize;
        let mut written = 0usize;
        for m in &self.mbufs {
            if written == len {
                break;
            }
            let d = m.data();
            let start = off.saturating_sub(skipped).min(d.len());
            let take = (d.len() - start).min(len - written);
            dst[written..written + take].copy_from_slice(&d[start..start + take]);
            written += take;
            skipped += d.len();
        }
        OpCost::copy(len)
    }

    /// Appends the first `len` bytes to `dst`: [`Chain::copy_out`]
    /// into a growing buffer.
    ///
    /// # Panics
    ///
    /// Panics if the chain holds fewer than `len` bytes.
    pub fn copy_prefix_into(&self, len: usize, dst: &mut Vec<u8>) -> OpCost {
        let at = dst.len();
        dst.resize(at + len, 0);
        self.copy_out(0, &mut dst[at..])
    }

    /// BSD `m_copy(m, off, len)`: a copy of the byte range for
    /// retransmission-safe transmission. Cluster mbufs are *shared*
    /// (reference count bump, no bytes move); ordinary mbufs are
    /// deep-copied into fresh mbufs. This asymmetry is the paper's
    /// *mcopy* row.
    ///
    /// Stored partial checksums transfer to the copy only when the
    /// copy covers the entire source mbuf (otherwise the partial sum
    /// no longer describes the copied bytes).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn copy_range(&self, pool: &MbufPool, off: usize, len: usize) -> (Chain, OpCost) {
        assert!(off + len <= self.len(), "copy_range out of bounds");
        let mut cost = OpCost::ZERO;
        if len == 0 {
            return (Chain::new(), cost);
        }
        let mut out = Chain::with_list();
        let mut skipped = 0usize;
        let mut remaining = len;
        for m in &self.mbufs {
            if remaining == 0 {
                break;
            }
            let d_len = m.len();
            let start = off.saturating_sub(skipped).min(d_len);
            skipped += d_len;
            if start == d_len {
                continue;
            }
            let take = (d_len - start).min(remaining);
            remaining -= take;
            if m.is_cluster() {
                // Reference-count copy: "no storage is allocated or
                // data copied" (§2.2.1).
                let mut shared = m.share_cluster_range(pool, start, take);
                cost.mbufs_allocated += 1;
                cost.clusters_shared += 1;
                if take == d_len {
                    shared.partial_cksum = m.partial_cksum;
                }
                out.push_back(shared);
            } else {
                // Deep copy through fresh ordinary mbufs.
                let src = &m.data()[start..start + take];
                let mut rest = src;
                while !rest.is_empty() {
                    let mut fresh = Mbuf::get(pool);
                    cost.mbufs_allocated += 1;
                    let n = fresh.append_from(rest);
                    cost.bytes_copied += n;
                    if n == d_len && take == d_len {
                        fresh.partial_cksum = m.partial_cksum;
                    }
                    rest = &rest[n..];
                    out.push_back(fresh);
                }
            }
        }
        (out, cost)
    }

    /// Appends another chain (BSD `m_cat` without compaction). An
    /// empty chain takes `other`'s mbuf list whole.
    pub fn append(&mut self, mut other: Chain) {
        if self.mbufs.is_empty() {
            std::mem::swap(&mut self.mbufs, &mut other.mbufs);
        } else {
            self.mbufs.append(&mut other.mbufs);
        }
        self.len += std::mem::take(&mut other.len);
    }

    /// Drops `n` bytes from the front, freeing emptied mbufs (BSD
    /// `sbdrop`). No bytes are copied.
    #[must_use]
    pub fn trim_front(&mut self, mut n: usize) -> OpCost {
        let mut cost = OpCost::ZERO;
        while n > 0 {
            let Some(front) = self.mbufs.front_mut() else {
                break;
            };
            if front.len() <= n {
                n -= front.len();
                self.len -= front.len();
                self.mbufs.pop_front();
                cost.mbufs_freed += 1;
            } else {
                front.trim_front(n);
                self.len -= n;
                n = 0;
            }
        }
        cost
    }

    /// Drops `n` bytes from the back, freeing emptied mbufs (BSD
    /// `m_adj` with a negative count). Used to strip link-layer
    /// padding. No bytes are copied.
    pub fn trim_back_bytes(&mut self, mut n: usize) {
        while n > 0 {
            let Some(back) = self.mbufs.back_mut() else {
                break;
            };
            if back.len() <= n {
                n -= back.len();
                self.len -= back.len();
                self.mbufs.pop_back();
            } else {
                back.trim_back(n);
                self.len -= n;
                n = 0;
            }
        }
    }

    /// Prepends a protocol header (BSD `M_PREPEND`): in place when the
    /// first mbuf has leading space and exclusive storage, otherwise
    /// via a fresh header mbuf.
    #[must_use]
    pub fn prepend_header(&mut self, pool: &MbufPool, header: &[u8]) -> OpCost {
        let mut cost = OpCost::copy(header.len());
        let total = self.len() + header.len();
        let in_place = self
            .mbufs
            .front()
            .is_some_and(|m| !m.is_shared() && m.leading_space() >= header.len());
        if in_place {
            let front = self.mbufs.front_mut().expect("nonempty checked");
            front.prepend_from(header);
        } else {
            let mut m = Mbuf::gethdr(pool);
            cost.mbufs_allocated += 1;
            let took = m.append_from(header);
            assert_eq!(took, header.len(), "header exceeds MHLEN");
            self.mbufs.push_front(m);
        }
        self.len = total;
        if let Some(front) = self.mbufs.front_mut() {
            let hdr = front.pkthdr.get_or_insert(PktHdr::default());
            hdr.len = total;
        }
        cost
    }

    /// Computes the ones-complement sum by walking all data in the
    /// chain (the non-integrated checksum path). The receipt is the
    /// number of bytes summed, which the cost model prices at the
    /// in-kernel checksum rate.
    #[must_use]
    pub fn checksum_walk(&self) -> (Sum16, usize) {
        let mut acc = PartialChecksum::EMPTY;
        for m in &self.mbufs {
            acc = acc.append(PartialChecksum::over(m.data()));
        }
        (acc.sum(), acc.len())
    }

    /// Combines the partial checksums stored in the mbuf headers, if
    /// *every* mbuf carries one. Returns `None` when any mbuf lacks a
    /// stored sum — the TCP layer then falls back to
    /// [`Chain::checksum_walk`], exactly as the paper describes for
    /// chunks that straddle segment boundaries.
    #[must_use]
    pub fn stored_checksum(&self) -> Option<Sum16> {
        let mut acc = PartialChecksum::EMPTY;
        for m in &self.mbufs {
            let p = m.partial_cksum?;
            debug_assert_eq!(p.len(), m.len(), "stale partial checksum");
            acc = acc.append(p);
        }
        Some(acc.sum())
    }

    /// Recomputes and stores the partial checksum of every mbuf (used
    /// by the receive-side integration where the driver checksums
    /// during the device→mbuf copy).
    pub fn store_partial_checksums(&mut self) {
        for m in &mut self.mbufs {
            m.partial_cksum = Some(PartialChecksum::over(m.data()));
        }
    }

    /// Verifies the chain's data equals `expect` (end-to-end payload
    /// integrity check used by tests and the harness).
    #[must_use]
    pub fn data_equals(&self, expect: &[u8]) -> bool {
        if self.len() != expect.len() {
            return false;
        }
        let mut off = 0;
        for m in &self.mbufs {
            if m.data() != &expect[off..off + m.len()] {
                return false;
            }
            off += m.len();
        }
        true
    }
}

/// Decides whether a transfer of `len` bytes uses cluster mbufs under
/// the ULTRIX policy the paper observed (switch above 1 KB).
#[must_use]
pub fn ultrix_uses_clusters(len: usize) -> bool {
    len > CLUSTER_THRESHOLD
}

/// Expected mbuf count for a transfer under the ULTRIX fill policy —
/// the "one to eight mbufs ... for transfers of less than 1 KB"
/// arithmetic of §2.2.1. Exposed for tests and the harness.
#[must_use]
pub fn expected_mbuf_count(len: usize) -> usize {
    if ultrix_uses_clusters(len) {
        len.div_ceil(MCLBYTES)
    } else if len <= MHLEN {
        1
    } else {
        1 + (len - MHLEN).div_ceil(MLEN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cksum::optimized_cksum;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 13 + 5) as u8).collect()
    }

    #[test]
    fn small_fill_matches_paper_mbuf_counts() {
        let pool = MbufPool::new();
        // §2.2.1: 500 bytes -> 100 + 4×108-ish = 5 mbufs.
        let (chain, cost) = Chain::from_user_data(&pool, &payload(500), false);
        assert_eq!(chain.mbuf_count(), 5);
        assert_eq!(chain.mbuf_count(), expected_mbuf_count(500));
        assert_eq!(cost.bytes_copied, 500);
        assert_eq!(cost.mbufs_allocated, 5);
        assert_eq!(cost.clusters_allocated, 0);
        assert!(chain.data_equals(&payload(500)));
    }

    #[test]
    fn tiny_fill_uses_one_mbuf() {
        let pool = MbufPool::new();
        for n in [0usize, 1, 4, 20, 80, 100] {
            let (chain, _) = Chain::from_user_data(&pool, &payload(n), false);
            assert_eq!(chain.mbuf_count(), 1, "{n} bytes");
            assert_eq!(chain.len(), n);
        }
    }

    #[test]
    fn cluster_fill_counts() {
        let pool = MbufPool::new();
        let (chain, cost) = Chain::from_user_data(&pool, &payload(8000), true);
        assert_eq!(chain.mbuf_count(), 2);
        assert_eq!(cost.clusters_allocated, 2);
        assert_eq!(cost.bytes_copied, 8000);
        assert!(chain.data_equals(&payload(8000)));
        assert_eq!(expected_mbuf_count(8000), 2);
        assert_eq!(expected_mbuf_count(1400), 1);
        assert_eq!(expected_mbuf_count(4000), 1);
    }

    #[test]
    fn ultrix_cluster_policy() {
        assert!(!ultrix_uses_clusters(500));
        assert!(!ultrix_uses_clusters(1024));
        assert!(ultrix_uses_clusters(1025));
        assert!(ultrix_uses_clusters(1400));
    }

    #[test]
    fn pkthdr_len_is_total() {
        let pool = MbufPool::new();
        let (chain, _) = Chain::from_user_data(&pool, &payload(500), false);
        assert_eq!(chain.iter().next().unwrap().pkthdr.unwrap().len, 500);
    }

    #[test]
    fn copy_range_shares_clusters() {
        let pool = MbufPool::new();
        let data = payload(8000);
        let (chain, _) = Chain::from_user_data(&pool, &data, true);
        let (copy, cost) = chain.copy_range(&pool, 0, 8000);
        assert_eq!(cost.bytes_copied, 0, "cluster copy must be zero-copy");
        assert_eq!(cost.clusters_shared, 2);
        assert_eq!(cost.mbufs_allocated, 2);
        assert!(copy.data_equals(&data));
    }

    #[test]
    fn copy_range_deep_copies_small_mbufs() {
        let pool = MbufPool::new();
        let data = payload(500);
        let (chain, _) = Chain::from_user_data(&pool, &data, false);
        let (copy, cost) = chain.copy_range(&pool, 0, 500);
        assert_eq!(cost.bytes_copied, 500);
        assert_eq!(cost.clusters_shared, 0);
        assert!(copy.data_equals(&data));
    }

    #[test]
    fn copy_range_subrange() {
        let pool = MbufPool::new();
        let data = payload(6000);
        let (chain, _) = Chain::from_user_data(&pool, &data, true);
        let (copy, _) = chain.copy_range(&pool, 4096, 1500);
        assert!(copy.data_equals(&data[4096..4096 + 1500]));
        // A misaligned range spanning both clusters.
        let (copy2, _) = chain.copy_range(&pool, 4000, 200);
        assert!(copy2.data_equals(&data[4000..4200]));
    }

    #[test]
    fn copy_out_arbitrary_ranges() {
        let pool = MbufPool::new();
        let data = payload(777);
        let (chain, _) = Chain::from_user_data(&pool, &data, false);
        let mut dst = vec![0u8; 300];
        let cost = chain.copy_out(111, &mut dst);
        assert_eq!(cost.bytes_copied, 300);
        assert_eq!(&dst[..], &data[111..411]);
    }

    #[test]
    fn trim_front_frees_mbufs() {
        let pool = MbufPool::new();
        let (mut chain, _) = Chain::from_user_data(&pool, &payload(500), false);
        // Drop the first 250 bytes: mbuf sizes are 100 + 108 + ...; two
        // mbufs empty completely, the third is trimmed.
        let cost = chain.trim_front(250);
        assert_eq!(cost.mbufs_freed, 2);
        assert_eq!(chain.len(), 250);
        assert!(chain.data_equals(&payload(500)[250..]));
    }

    #[test]
    fn prepend_uses_leading_space_or_new_mbuf() {
        let pool = MbufPool::new();
        let (mut chain, _) = Chain::from_user_data(&pool, &payload(50), false);
        // gethdr leaves MLEN-MHLEN = 8 bytes of space.
        let cost = chain.prepend_header(&pool, &[0xaa; 8]);
        assert_eq!(cost.mbufs_allocated, 0, "8 bytes fit in leading space");
        assert_eq!(chain.len(), 58);
        // A 40-byte TCP/IP header no longer fits: a new mbuf appears.
        let cost = chain.prepend_header(&pool, &[0xbb; 40]);
        assert_eq!(cost.mbufs_allocated, 1);
        assert_eq!(chain.len(), 98);
        let flat = chain.to_vec();
        assert_eq!(&flat[..40], &[0xbb; 40]);
        assert_eq!(&flat[40..48], &[0xaa; 8]);
        assert_eq!(chain.iter().next().unwrap().pkthdr.unwrap().len, 98);
    }

    #[test]
    fn checksum_walk_matches_flat() {
        let pool = MbufPool::new();
        for n in [4usize, 500, 1400, 8000] {
            let data = payload(n);
            let use_cl = ultrix_uses_clusters(n);
            let (chain, _) = Chain::from_user_data(&pool, &data, use_cl);
            let (sum, bytes) = chain.checksum_walk();
            assert_eq!(bytes, n);
            assert_eq!(sum, optimized_cksum(&data), "{n} bytes");
        }
    }

    #[test]
    fn stored_checksums_combine() {
        let pool = MbufPool::new();
        let data = payload(5000);
        let (chain, _) = Chain::from_user_data_cksum(&pool, &data, true);
        let stored = chain.stored_checksum().expect("all mbufs have partials");
        assert_eq!(stored, optimized_cksum(&data));
    }

    #[test]
    fn stored_checksum_absent_without_integration() {
        let pool = MbufPool::new();
        let (chain, _) = Chain::from_user_data(&pool, &payload(100), false);
        assert!(chain.stored_checksum().is_none());
    }

    #[test]
    fn stored_checksums_survive_full_mbuf_copy() {
        let pool = MbufPool::new();
        let data = payload(5000);
        let (chain, _) = Chain::from_user_data_cksum(&pool, &data, true);
        let (copy, _) = chain.copy_range(&pool, 0, 5000);
        let stored = copy
            .stored_checksum()
            .expect("cluster shares keep partials");
        assert_eq!(stored, optimized_cksum(&data));
    }

    #[test]
    fn partial_checksums_cleared_by_mutation() {
        let pool = MbufPool::new();
        let (mut chain, _) = Chain::from_user_data_cksum(&pool, &payload(500), false);
        let _ = chain.trim_front(10);
        assert!(
            chain.stored_checksum().is_none(),
            "trim invalidates partials"
        );
    }

    #[test]
    fn try_from_user_data_respects_the_pool_limit() {
        let pool = MbufPool::new();
        pool.set_limit(Some(3));
        // 500 bytes needs 5 small mbufs: refused, nothing allocated.
        assert!(Chain::try_from_user_data(&pool, &payload(500), false).is_err());
        let s = pool.stats();
        assert_eq!(s.mbufs_outstanding(), 0);
        assert_eq!(s.enobufs_drops, 1);
        // A small packet still fits.
        let (chain, _) = Chain::try_from_user_data(&pool, &payload(50), false).expect("fits");
        assert!(chain.data_equals(&payload(50)));
        drop(chain);
        assert_eq!(pool.stats().mbufs_outstanding(), 0);
    }

    #[test]
    fn no_leaks_after_mixed_workload() {
        let pool = MbufPool::new();
        {
            let data = payload(8000);
            let (chain, _) = Chain::from_user_data(&pool, &data, true);
            let (copy, _) = chain.copy_range(&pool, 100, 7000);
            let mut sb = Chain::new();
            sb.append(copy);
            let _ = sb.trim_front(5000);
            let (small, _) = Chain::from_user_data(&pool, &payload(300), false);
            drop(small);
        }
        let s = pool.stats();
        assert_eq!(s.mbufs_outstanding(), 0, "{s:?}");
        assert_eq!(s.clusters_outstanding(), 0, "{s:?}");
    }
}
