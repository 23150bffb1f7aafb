//! The mbuf itself: a small fixed buffer or a reference-counted
//! cluster page.
//!
//! Sizes match the system the paper measured: `MSIZE` = 128 with 108
//! data bytes (100 when a packet header is present), and 4096-byte
//! cluster pages — "they hold 4 KB of data, the size of a memory page,
//! whereas normal mbufs hold only 108 bytes" (§2.2.1).

use std::sync::Arc;

use cksum::PartialChecksum;

use crate::pool::{self as free, ClusterPage, Enobufs, MbufPool, PoolInner};

/// Total size of an mbuf including its header (BSD `MSIZE`).
pub const MSIZE: usize = 128;

/// Data bytes in an ordinary mbuf (BSD `MLEN`).
pub const MLEN: usize = 108;

/// Data bytes in an mbuf that carries a packet header (BSD `MHLEN`).
pub const MHLEN: usize = 100;

/// Bytes in a cluster page (BSD `MCLBYTES`, one VM page on the
/// DECstation).
pub const MCLBYTES: usize = 4096;

/// The kind of storage behind an mbuf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MbufKind {
    /// Inline storage of up to [`MLEN`] (or [`MHLEN`]) bytes.
    Small,
    /// A shared 4096-byte cluster page.
    Cluster,
}

enum Storage {
    Small {
        buf: Box<[u8; MLEN]>,
        /// First valid byte (leading space supports header prepends).
        off: usize,
        len: usize,
    },
    Cluster {
        page: Arc<ClusterPage>,
        off: usize,
        len: usize,
    },
    /// Transient state seen only inside `Drop`, after the buffer has
    /// moved to the pool's free list.
    Reclaimed,
}

/// Packet-header metadata carried by the first mbuf of a chain.
#[derive(Clone, Copy, Debug, Default)]
pub struct PktHdr {
    /// Total length of the packet the chain describes.
    pub len: usize,
}

/// One memory buffer.
///
/// Allocation and drop are accounted against the owning
/// [`MbufPool`]'s statistics; the simulation converts those counts to
/// the ≈7 µs DECstation allocator cost.
///
/// # Examples
///
/// ```
/// use mbuf::{Mbuf, MbufKind, MbufPool, MLEN};
///
/// let pool = MbufPool::new();
/// let mut m = Mbuf::get(&pool);
/// assert_eq!(m.kind(), MbufKind::Small);
/// let took = m.append_from(&[1, 2, 3]);
/// assert_eq!(took, 3);
/// assert_eq!(m.data(), &[1, 2, 3]);
/// assert_eq!(m.capacity_remaining(), MLEN - 3);
/// ```
pub struct Mbuf {
    storage: Storage,
    /// Present on the first mbuf of a packet chain.
    pub pkthdr: Option<PktHdr>,
    /// Partial checksum of this mbuf's data, stored by the socket
    /// layer under the integrated copy-and-checksum scheme (§4.1.1).
    /// Valid only while the data is unchanged; every mutating
    /// operation clears it.
    pub partial_cksum: Option<PartialChecksum>,
    pool: Arc<PoolInner>,
}

impl Drop for Mbuf {
    fn drop(&mut self) {
        PoolInner::bump(&self.pool.mbufs_freed);
        match core::mem::replace(&mut self.storage, Storage::Reclaimed) {
            // Small buffers go straight to the free list; cluster
            // pages when their last reference drops.
            Storage::Small { buf, .. } => free::recycle_small(buf),
            Storage::Cluster { page, .. } => free::release_cluster(page),
            Storage::Reclaimed => {}
        }
    }
}

impl Mbuf {
    /// Allocates an ordinary mbuf (BSD `MGET`).
    #[must_use]
    pub fn get(pool: &MbufPool) -> Mbuf {
        PoolInner::bump(&pool.inner.mbufs_allocated);
        Mbuf {
            storage: Storage::Small {
                buf: free::alloc_small(),
                off: 0,
                len: 0,
            },
            pkthdr: None,
            partial_cksum: None,
            pool: Arc::clone(&pool.inner),
        }
    }

    /// Allocates an mbuf with a packet header (BSD `MGETHDR`). Its
    /// data capacity is [`MHLEN`]; the 8 reserved bytes are counted as
    /// leading space so headers can be prepended in place.
    #[must_use]
    pub fn gethdr(pool: &MbufPool) -> Mbuf {
        let mut m = Mbuf::get(pool);
        // Model the pkthdr by reserving MLEN - MHLEN bytes at the
        // front; this doubles as prepend room.
        if let Storage::Small { off, .. } = &mut m.storage {
            *off = MLEN - MHLEN;
        }
        m.pkthdr = Some(PktHdr::default());
        m
    }

    /// Allocates an mbuf backed by a fresh cluster page (BSD `MGET` +
    /// `MCLGET`).
    #[must_use]
    pub fn getcl(pool: &MbufPool) -> Mbuf {
        PoolInner::bump(&pool.inner.mbufs_allocated);
        PoolInner::bump(&pool.inner.clusters_allocated);
        Mbuf {
            storage: Storage::Cluster {
                page: free::alloc_cluster(&pool.inner),
                off: 0,
                len: 0,
            },
            pkthdr: None,
            partial_cksum: None,
            pool: Arc::clone(&pool.inner),
        }
    }

    /// Fallible [`Mbuf::get`]: refuses with [`Enobufs`] when the pool
    /// is at its configured limit. Used by the receive/interrupt path,
    /// which in BSD sheds load rather than blocking.
    pub fn try_get(pool: &MbufPool) -> Result<Mbuf, Enobufs> {
        pool.admit()?;
        Ok(Mbuf::get(pool))
    }

    /// The storage kind.
    #[must_use]
    pub fn kind(&self) -> MbufKind {
        match self.storage {
            Storage::Small { .. } => MbufKind::Small,
            Storage::Cluster { .. } => MbufKind::Cluster,
            Storage::Reclaimed => unreachable!("reclaimed mbuf"),
        }
    }

    /// Whether this mbuf references a cluster page.
    #[must_use]
    pub fn is_cluster(&self) -> bool {
        self.kind() == MbufKind::Cluster
    }

    /// Whether a cluster page is shared with another mbuf.
    #[must_use]
    pub fn is_shared(&self) -> bool {
        match &self.storage {
            Storage::Small { .. } => false,
            Storage::Cluster { page, .. } => Arc::strong_count(page) > 1,
            Storage::Reclaimed => unreachable!("reclaimed mbuf"),
        }
    }

    /// The valid data bytes.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        match &self.storage {
            Storage::Small { buf, off, len } => &buf[*off..*off + *len],
            Storage::Cluster { page, off, len } => &page.data[*off..*off + *len],
            Storage::Reclaimed => unreachable!("reclaimed mbuf"),
        }
    }

    /// Number of valid data bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.storage {
            Storage::Small { len, .. } | Storage::Cluster { len, .. } => *len,
            Storage::Reclaimed => unreachable!("reclaimed mbuf"),
        }
    }

    /// Whether the mbuf holds no data.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes that can still be appended.
    #[must_use]
    pub fn capacity_remaining(&self) -> usize {
        match &self.storage {
            Storage::Small { off, len, .. } => MLEN - off - len,
            Storage::Cluster { off, len, .. } => MCLBYTES - off - len,
            Storage::Reclaimed => unreachable!("reclaimed mbuf"),
        }
    }

    /// Unused bytes before the data (room for header prepends).
    #[must_use]
    pub fn leading_space(&self) -> usize {
        match &self.storage {
            Storage::Small { off, .. } | Storage::Cluster { off, .. } => *off,
            Storage::Reclaimed => unreachable!("reclaimed mbuf"),
        }
    }

    /// Appends as many bytes of `src` as fit; returns how many were
    /// taken. The copy is real.
    ///
    /// # Panics
    ///
    /// Panics if the mbuf is a shared cluster: BSD cluster sharing is
    /// copy-free precisely because shared pages are never written, and
    /// a write here would silently corrupt the other reference.
    pub fn append_from(&mut self, src: &[u8]) -> usize {
        self.partial_cksum = None;
        let n = src.len().min(self.capacity_remaining());
        match &mut self.storage {
            Storage::Small { buf, off, len } => {
                buf[*off + *len..*off + *len + n].copy_from_slice(&src[..n]);
                *len += n;
            }
            Storage::Cluster { page, off, len } => {
                let page = Arc::get_mut(page)
                    .expect("append to a shared cluster page would corrupt peer data");
                page.data[*off + *len..*off + *len + n].copy_from_slice(&src[..n]);
                *len += n;
            }
            Storage::Reclaimed => unreachable!("reclaimed mbuf"),
        }
        n
    }

    /// Prepends `src` into leading space.
    ///
    /// # Panics
    ///
    /// Panics if the leading space is insufficient (callers check
    /// [`Mbuf::leading_space`], mirroring BSD `M_PREPEND`'s fall-back
    /// to a fresh mbuf) or if the mbuf is a shared cluster.
    pub fn prepend_from(&mut self, src: &[u8]) {
        self.partial_cksum = None;
        let n = src.len();
        assert!(
            self.leading_space() >= n,
            "prepend of {n} bytes exceeds leading space {}",
            self.leading_space()
        );
        match &mut self.storage {
            Storage::Small { buf, off, len } => {
                *off -= n;
                *len += n;
                buf[*off..*off + n].copy_from_slice(src);
            }
            Storage::Cluster { page, off, len } => {
                let page = Arc::get_mut(page)
                    .expect("prepend to a shared cluster page would corrupt peer data");
                *off -= n;
                *len += n;
                page.data[*off..*off + n].copy_from_slice(src);
            }
            Storage::Reclaimed => unreachable!("reclaimed mbuf"),
        }
    }

    /// Drops `n` bytes from the front (BSD `m_adj` with positive
    /// argument). `n` may exceed the length; the mbuf then empties.
    pub fn trim_front(&mut self, n: usize) {
        self.partial_cksum = None;
        match &mut self.storage {
            Storage::Small { off, len, .. } | Storage::Cluster { off, len, .. } => {
                let n = n.min(*len);
                *off += n;
                *len -= n;
            }
            Storage::Reclaimed => unreachable!("reclaimed mbuf"),
        }
    }

    /// Drops `n` bytes from the back (BSD `m_adj` with negative
    /// argument).
    pub fn trim_back(&mut self, n: usize) {
        self.partial_cksum = None;
        match &mut self.storage {
            Storage::Small { len, .. } | Storage::Cluster { len, .. } => {
                *len -= n.min(*len);
            }
            Storage::Reclaimed => unreachable!("reclaimed mbuf"),
        }
    }

    /// Produces a zero-copy reference to a sub-range of a cluster
    /// mbuf: the cluster `m_copy` fast case. The pool's share counter
    /// is bumped; no bytes move.
    ///
    /// # Panics
    ///
    /// Panics if this is not a cluster mbuf or the range is out of
    /// bounds.
    #[must_use]
    pub fn share_cluster_range(&self, pool: &MbufPool, start: usize, len: usize) -> Mbuf {
        match &self.storage {
            Storage::Small { .. } | Storage::Reclaimed => {
                panic!("share_cluster_range on an ordinary mbuf")
            }
            Storage::Cluster {
                page,
                off,
                len: mlen,
            } => {
                assert!(start + len <= *mlen, "share range out of bounds");
                PoolInner::bump(&pool.inner.mbufs_allocated);
                PoolInner::bump(&pool.inner.cluster_refs);
                Mbuf {
                    storage: Storage::Cluster {
                        page: Arc::clone(page),
                        off: off + start,
                        len,
                    },
                    pkthdr: None,
                    partial_cksum: None,
                    pool: Arc::clone(&pool.inner),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_the_paper() {
        assert_eq!(MLEN, 108);
        assert_eq!(MHLEN, 100);
        assert_eq!(MCLBYTES, 4096);
        assert_eq!(MSIZE, 128);
    }

    #[test]
    fn small_mbuf_roundtrip() {
        let pool = MbufPool::new();
        let mut m = Mbuf::get(&pool);
        assert_eq!(m.capacity_remaining(), MLEN);
        let data: Vec<u8> = (0..200u8).collect();
        let took = m.append_from(&data);
        assert_eq!(took, MLEN);
        assert_eq!(m.data(), &data[..MLEN]);
        assert_eq!(m.capacity_remaining(), 0);
        assert!(!m.is_cluster());
        assert!(!m.is_shared());
    }

    #[test]
    fn pkthdr_mbuf_has_leading_space() {
        let pool = MbufPool::new();
        let m = Mbuf::gethdr(&pool);
        assert_eq!(m.capacity_remaining(), MHLEN);
        assert_eq!(m.leading_space(), MLEN - MHLEN);
        assert!(m.pkthdr.is_some());
    }

    #[test]
    fn cluster_holds_a_page() {
        let pool = MbufPool::new();
        let mut m = Mbuf::getcl(&pool);
        assert_eq!(m.capacity_remaining(), MCLBYTES);
        let data = vec![0x5au8; MCLBYTES + 10];
        assert_eq!(m.append_from(&data), MCLBYTES);
        assert_eq!(m.len(), MCLBYTES);
        let stats = pool.stats();
        assert_eq!(stats.clusters_allocated, 1);
        assert_eq!(stats.mbufs_allocated, 1);
    }

    #[test]
    fn cluster_share_is_zero_copy_and_reads_same_bytes() {
        let pool = MbufPool::new();
        let mut m = Mbuf::getcl(&pool);
        m.append_from(&[1, 2, 3, 4, 5, 6]);
        let shared = m.share_cluster_range(&pool, 2, 3);
        assert_eq!(shared.data(), &[3, 4, 5]);
        assert!(m.is_shared());
        assert!(shared.is_shared());
        assert_eq!(pool.stats().cluster_refs, 1);
        // Only one page was ever allocated.
        assert_eq!(pool.stats().clusters_allocated, 1);
        drop(shared);
        assert!(!m.is_shared());
        // The page is freed only when the last reference drops.
        assert_eq!(pool.stats().clusters_freed, 0);
        drop(m);
        assert_eq!(pool.stats().clusters_freed, 1);
    }

    #[test]
    #[should_panic(expected = "shared cluster")]
    fn writing_a_shared_cluster_panics() {
        let pool = MbufPool::new();
        let mut m = Mbuf::getcl(&pool);
        m.append_from(&[1, 2, 3]);
        let _shared = m.share_cluster_range(&pool, 0, 3);
        m.append_from(&[4]);
    }

    #[test]
    fn prepend_uses_leading_space() {
        let pool = MbufPool::new();
        let mut m = Mbuf::gethdr(&pool);
        m.append_from(&[10, 11]);
        m.prepend_from(&[1, 2, 3]);
        assert_eq!(m.data(), &[1, 2, 3, 10, 11]);
        assert_eq!(m.leading_space(), MLEN - MHLEN - 3);
    }

    #[test]
    #[should_panic(expected = "exceeds leading space")]
    fn oversized_prepend_panics() {
        let pool = MbufPool::new();
        let mut m = Mbuf::get(&pool);
        m.prepend_from(&[0; 4]);
    }

    #[test]
    fn trim_front_and_back() {
        let pool = MbufPool::new();
        let mut m = Mbuf::get(&pool);
        m.append_from(&[1, 2, 3, 4, 5]);
        m.trim_front(2);
        assert_eq!(m.data(), &[3, 4, 5]);
        m.trim_back(1);
        assert_eq!(m.data(), &[3, 4]);
        // Over-trim empties without panicking.
        m.trim_front(100);
        assert!(m.is_empty());
        m.trim_back(100);
        assert!(m.is_empty());
    }

    #[test]
    fn drop_accounting_balances() {
        let pool = MbufPool::new();
        {
            let _a = Mbuf::get(&pool);
            let _b = Mbuf::gethdr(&pool);
            let _c = Mbuf::getcl(&pool);
            assert_eq!(pool.stats().mbufs_outstanding(), 3);
            assert_eq!(pool.stats().clusters_outstanding(), 1);
        }
        let s = pool.stats();
        assert_eq!(s.mbufs_outstanding(), 0);
        assert_eq!(s.clusters_outstanding(), 0);
    }
}
