//! The mbuf allocator.
//!
//! BSD allocated mbufs from a dedicated kernel map with free lists;
//! the measured cost to allocate and free one (of either kind) on the
//! DECstation 5000/200 was "just over 7 µs" (§2.2.1). The simulation
//! prices allocator events from the [`OpCost`](crate::OpCost) receipts;
//! this module provides the shared statistics that let tests and the
//! harness assert on allocator behaviour (and on the absence of leaks).
//!
//! The counters are atomics behind an [`Arc`] so a whole simulated
//! world — pools, chains and all — is `Send` and can be fanned out
//! across sweep worker threads. At runtime each pool still belongs to
//! exactly one world on one thread; relaxed ordering is all the
//! statistics need.
//!
//! The recycled buffers are not the pool's: each thread keeps one
//! small-mbuf and one cluster free list, shared by every pool on it,
//! so allocation takes no lock. A buffer is zeroed on reuse, and a
//! chain dropped on another thread feeds that thread's lists. A third
//! list keeps the emptied mbuf lists of dropped [`Chain`]s, so
//! building a packet chain allocates no heap memory either.
//!
//! [`Chain`]: crate::Chain

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::LocalKey;

use crate::mbuf::{Mbuf, MCLBYTES, MLEN};

/// Typed allocation-failure signal: the pool is at its configured
/// limit. BSD returns `ENOBUFS` from the allocator in this situation;
/// callers on the receive path drop the packet (a counted drop that
/// TCP recovers from by retransmission), never panic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Enobufs;

impl std::fmt::Display for Enobufs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ENOBUFS: mbuf pool exhausted")
    }
}

impl std::error::Error for Enobufs {}

/// Cumulative allocator statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Ordinary mbufs ever allocated.
    pub mbufs_allocated: u64,
    /// Ordinary mbufs ever freed.
    pub mbufs_freed: u64,
    /// Cluster pages ever allocated.
    pub clusters_allocated: u64,
    /// Cluster pages ever freed (last reference dropped).
    pub clusters_freed: u64,
    /// Cluster reference-count bumps (shared copies).
    pub cluster_refs: u64,
    /// Fallible allocations refused because the pool was at its
    /// limit (each is one [`Enobufs`] returned to a caller).
    pub enobufs_drops: u64,
}

impl PoolStats {
    /// Ordinary mbufs currently live.
    #[must_use]
    pub fn mbufs_outstanding(&self) -> u64 {
        self.mbufs_allocated - self.mbufs_freed
    }

    /// Cluster pages currently live.
    #[must_use]
    pub fn clusters_outstanding(&self) -> u64 {
        self.clusters_allocated - self.clusters_freed
    }
}

/// Most buffers of each kind a thread keeps for reuse; past this,
/// freed ones go back to the host allocator. A list need only cover a
/// run of frees before the allocations that reuse them, and the
/// deepest chain a cell builds is an 8 KB message (≈ 76 small mbufs)
/// or a 9188-byte datagram (3 pages). 512 leaves ample slack and caps
/// what a thread holds idle at ≈ 2.1 MB, whatever the number of pools.
const FREE_LIST_CAP: usize = 512;

/// Most emptied chain lists a thread keeps, and the largest capacity
/// (in mbufs) of a list it keeps. 4 is the least a `VecDeque` of
/// mbufs grows to, so a recycled list never makes a chain hold more
/// than it would have grown itself; a list that grew past it (a long
/// small-mbuf fill, a socket buffer) is freed. 64 covers the chains a
/// fan-out round drops before it builds new ones. Together the caps
/// bound what a thread holds idle at ≈ 21 kB.
const LIST_FREE_CAP: usize = 64;
const LIST_CAPACITY_CAP: usize = 4;

thread_local! {
    /// This thread's recycled buffers: BSD's free lists, so the
    /// steady-state fast path allocates no heap memory. Boxed, so
    /// push/pop moves a pointer, not the bytes.
    #[allow(clippy::vec_box)]
    static SMALL: RefCell<Vec<Box<[u8; MLEN]>>> = const { RefCell::new(Vec::new()) };
    static CLUSTERS: RefCell<Vec<Arc<ClusterPage>>> = const { RefCell::new(Vec::new()) };
    static LISTS: RefCell<Vec<VecDeque<Mbuf>>> = const { RefCell::new(Vec::new()) };
}

/// Pops from this thread's `list`: `None` when it is empty, or gone
/// (thread teardown).
fn take<T>(list: &'static LocalKey<RefCell<Vec<T>>>) -> Option<T> {
    list.try_with(|l| l.borrow_mut().pop()).ok().flatten()
}

/// Pushes onto this thread's `list`, or frees `item` past `cap`.
fn give<T>(list: &'static LocalKey<RefCell<Vec<T>>>, item: T, cap: usize) {
    let _ = list.try_with(|l| {
        let mut l = l.borrow_mut();
        if l.len() < cap {
            l.push(item);
        }
    });
}

/// A zeroed small-mbuf buffer: zeroing on reuse keeps a recycled
/// buffer indistinguishable from a fresh one.
pub(crate) fn alloc_small() -> Box<[u8; MLEN]> {
    let mut buf = take(&SMALL).unwrap_or_else(|| Box::new([0; MLEN]));
    buf.fill(0);
    buf
}

/// Recycles a small-mbuf buffer.
pub(crate) fn recycle_small(buf: Box<[u8; MLEN]>) {
    give(&SMALL, buf, FREE_LIST_CAP);
}

/// An empty mbuf list for a new chain, recycled when one is free.
pub(crate) fn alloc_list() -> VecDeque<Mbuf> {
    take(&LISTS).unwrap_or_default()
}

/// Recycles a dropped chain's mbuf list: its mbufs are freed first,
/// and a list past [`LIST_CAPACITY_CAP`] goes back to the host
/// allocator.
pub(crate) fn recycle_list(mut list: VecDeque<Mbuf>) {
    list.clear();
    if list.capacity() <= LIST_CAPACITY_CAP {
        give(&LISTS, list, LIST_FREE_CAP);
    }
}

/// A reference-counted cluster page. The reference that drops last
/// counts the page freed and recycles it ([`release_cluster`]).
pub(crate) struct ClusterPage {
    pub(crate) data: [u8; MCLBYTES],
    /// The pool counting the page; `None` on a free list.
    pool: Option<Arc<PoolInner>>,
}

impl Drop for ClusterPage {
    /// Counts the page freed if [`release_cluster`] did not: the last
    /// two references dropped at once on two threads.
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            PoolInner::bump(&pool.clusters_freed);
        }
    }
}

/// A zeroed, unshared cluster page counted against `pool`.
pub(crate) fn alloc_cluster(pool: &Arc<PoolInner>) -> Arc<ClusterPage> {
    let pool = Some(Arc::clone(pool));
    let Some(mut page) = take(&CLUSTERS) else {
        return Arc::new(ClusterPage {
            data: [0; MCLBYTES],
            pool,
        });
    };
    let p = Arc::get_mut(&mut page).expect("a free page is unshared");
    p.data.fill(0);
    p.pool = pool;
    page
}

/// Drops one reference to a cluster page; the last one counts the
/// page freed and recycles it.
pub(crate) fn release_cluster(mut page: Arc<ClusterPage>) {
    if let Some(p) = Arc::get_mut(&mut page) {
        if let Some(pool) = p.pool.take() {
            PoolInner::bump(&pool.clusters_freed);
        }
        give(&CLUSTERS, page, FREE_LIST_CAP);
    }
}

#[derive(Default)]
pub(crate) struct PoolInner {
    pub(crate) mbufs_allocated: AtomicU64,
    pub(crate) mbufs_freed: AtomicU64,
    pub(crate) clusters_allocated: AtomicU64,
    pub(crate) clusters_freed: AtomicU64,
    pub(crate) cluster_refs: AtomicU64,
    /// Maximum mbufs outstanding for *fallible* allocations; 0 means
    /// unlimited (the default, matching the pre-faultkit behaviour).
    pub(crate) limit: AtomicU64,
    pub(crate) enobufs_drops: AtomicU64,
}

/// Handle to a host's mbuf allocator.
///
/// Cloning the handle shares the same statistics; each simulated host
/// owns one pool.
///
/// # Examples
///
/// ```
/// use mbuf::{Mbuf, MbufPool};
///
/// let pool = MbufPool::new();
/// {
///     let _m = Mbuf::get(&pool);
///     assert_eq!(pool.stats().mbufs_outstanding(), 1);
/// }
/// // Dropping the mbuf returns it to the pool.
/// assert_eq!(pool.stats().mbufs_outstanding(), 0);
/// ```
#[derive(Clone, Default)]
pub struct MbufPool {
    pub(crate) inner: Arc<PoolInner>,
}

impl MbufPool {
    /// Creates a fresh pool.
    #[must_use]
    pub fn new() -> Self {
        MbufPool::default()
    }

    /// Snapshot of the allocator statistics.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            mbufs_allocated: self.inner.mbufs_allocated.load(Ordering::Relaxed),
            mbufs_freed: self.inner.mbufs_freed.load(Ordering::Relaxed),
            clusters_allocated: self.inner.clusters_allocated.load(Ordering::Relaxed),
            clusters_freed: self.inner.clusters_freed.load(Ordering::Relaxed),
            cluster_refs: self.inner.cluster_refs.load(Ordering::Relaxed),
            enobufs_drops: self.inner.enobufs_drops.load(Ordering::Relaxed),
        }
    }

    /// Caps the number of outstanding mbufs that *fallible*
    /// allocations ([`crate::Mbuf::try_get`] and friends) may reach;
    /// `None` removes the cap. The infallible allocators are
    /// unaffected — they model BSD's reserved kernel map, so the
    /// transmit path (which already holds its data) never fails, while
    /// the receive/interrupt path sheds load with [`Enobufs`].
    pub fn set_limit(&self, limit: Option<u64>) {
        self.inner
            .limit
            .store(limit.unwrap_or(0), Ordering::Relaxed);
    }

    /// The configured cap, if any.
    #[must_use]
    pub fn limit(&self) -> Option<u64> {
        match self.inner.limit.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// Records one refused allocation (used when a caller detects
    /// exhaustion for a multi-mbuf request before allocating).
    pub(crate) fn note_enobufs(&self) {
        PoolInner::bump(&self.inner.enobufs_drops);
    }

    /// Whether a fallible allocation may proceed right now. On refusal
    /// the `enobufs_drops` counter is bumped.
    pub(crate) fn admit(&self) -> Result<(), Enobufs> {
        let limit = self.inner.limit.load(Ordering::Relaxed);
        if limit == 0 {
            return Ok(());
        }
        let allocated = self.inner.mbufs_allocated.load(Ordering::Relaxed);
        let freed = self.inner.mbufs_freed.load(Ordering::Relaxed);
        if allocated - freed < limit {
            Ok(())
        } else {
            PoolInner::bump(&self.inner.enobufs_drops);
            Err(Enobufs)
        }
    }
}

impl PoolInner {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_start_at_zero() {
        let pool = MbufPool::new();
        assert_eq!(pool.stats(), PoolStats::default());
        assert_eq!(pool.stats().mbufs_outstanding(), 0);
        assert_eq!(pool.stats().clusters_outstanding(), 0);
    }

    #[test]
    fn pools_mbufs_and_chains_are_send() {
        // Sweep workers move whole worlds (pools and chains included)
        // across threads; this must keep compiling.
        fn check<T: Send>() {}
        check::<MbufPool>();
        check::<crate::Mbuf>();
        check::<crate::Chain>();
    }

    #[test]
    fn a_buffer_freed_by_one_pool_is_reused_zeroed_by_another() {
        use crate::Mbuf;
        let (a, b, scratch) = (MbufPool::new(), MbufPool::new(), MbufPool::new());
        let mut small = Mbuf::get(&a);
        small.append_from(&[0xa5; MLEN]);
        let mut cluster = Mbuf::getcl(&a);
        cluster.append_from(&[0x5a; MCLBYTES]);
        let addrs = (small.data().as_ptr(), cluster.data().as_ptr());
        drop((small, cluster));
        // The next buffers this thread hands out are those two, zeroed.
        let buf = alloc_small();
        let page = alloc_cluster(&scratch.inner);
        assert_eq!((buf.as_ptr(), page.data.as_ptr()), addrs);
        assert!(buf.iter().chain(&page.data).all(|&x| x == 0));
        recycle_small(buf);
        release_cluster(page);
        // A buffer belongs to no pool: `b` takes the same two.
        let small = Mbuf::get(&b);
        let cluster = Mbuf::getcl(&b);
        assert_eq!((small.data().as_ptr(), cluster.data().as_ptr()), addrs);
        drop((small, cluster));
        // Each pool counts its own mbufs only.
        for pool in [&a, &b] {
            let s = pool.stats();
            assert_eq!((s.mbufs_allocated, s.mbufs_freed), (2, 2), "two mbufs each");
            assert_eq!((s.clusters_allocated, s.clusters_freed), (1, 1));
        }
    }

    #[test]
    fn a_chain_dropped_on_another_thread_is_counted_freed() {
        let pool = MbufPool::new();
        let (chain, _) = crate::Chain::from_user_data(&pool, &[7; 6000], true);
        let copy = chain.copy_range(&pool, 0, 6000).0;
        assert!(pool.stats().mbufs_outstanding() > 0);
        std::thread::spawn(move || drop((chain, copy)))
            .join()
            .expect("dropping thread");
        assert_eq!(pool.stats().mbufs_outstanding(), 0);
        assert_eq!(pool.stats().clusters_outstanding(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let pool = MbufPool::new();
        let alias = pool.clone();
        PoolInner::bump(&pool.inner.mbufs_allocated);
        assert_eq!(alias.stats().mbufs_allocated, 1);
    }

    #[test]
    fn unlimited_pool_always_admits() {
        let pool = MbufPool::new();
        assert_eq!(pool.limit(), None);
        for _ in 0..1000 {
            assert_eq!(pool.admit(), Ok(()));
        }
        assert_eq!(pool.stats().enobufs_drops, 0);
    }

    #[test]
    fn limited_pool_refuses_at_the_cap_and_counts() {
        let pool = MbufPool::new();
        pool.set_limit(Some(2));
        assert_eq!(pool.limit(), Some(2));
        let Ok(a) = crate::Mbuf::try_get(&pool) else {
            panic!("first allocation fits under the limit");
        };
        let Ok(_b) = crate::Mbuf::try_get(&pool) else {
            panic!("second allocation fits under the limit");
        };
        assert!(crate::Mbuf::try_get(&pool).is_err());
        assert_eq!(pool.stats().enobufs_drops, 1);
        // Freeing makes room again.
        drop(a);
        assert!(crate::Mbuf::try_get(&pool).is_ok());
        // Lifting the cap restores unlimited behaviour.
        pool.set_limit(None);
        for _ in 0..10 {
            assert!(pool.admit().is_ok());
        }
        assert_eq!(pool.stats().enobufs_drops, 1);
    }
}
