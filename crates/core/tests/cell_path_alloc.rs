//! The warm per-packet paths allocate no heap memory: not per cell,
//! not per datagram.
//!
//! A counting global allocator watches `AtmNic::transmit` and
//! `atm_receive` carry datagrams of 1 cell (an SSM), 34 cells and 209
//! cells (the 9188-byte MTU) from one NIC to another. Each datagram
//! makes exactly [`PER_DATAGRAM`] heap allocations, at all three
//! sizes. A second test allocates and frees mbufs and cluster
//! mbufs on a warm thread and must allocate nothing. Each test counts
//! only its own thread, so tests running in parallel cannot add to a
//! count.
//!
//! The receiving host's mbuf pool is held at its cap, so the driver
//! sheds each reassembled datagram with a counted ENOBUFS after all
//! of its cell work is done.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use atm::{Aal34Segmenter, FiberLink, LinkConfig};
use decstation::CostModel;
use latency_core::nic::{atm_receive, AtmNic};
use mbuf::{Chain, Mbuf, MbufPool};
use simkit::SimTime;
use tcpip::{Kernel, SpanRecorder, StackConfig, TxDriver};

struct Counting;

thread_local! {
    /// This thread's allocations while counting; `None` when not.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

/// Runs `f` and returns how many heap allocations it made on this
/// thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCATIONS.set(Some(0));
    f();
    ALLOCATIONS.take().expect("counting")
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PEER: [u8; 4] = [10, 0, 0, 2];

/// Heap allocations per carried datagram, whatever its cell count.
/// The cell train `transmit` stages is one `atm_receive` read and
/// kept for the thread; the reassembly buffer the CPCS-PDU is rebuilt
/// in is the last datagram's, handed back to the reassembler once
/// shed.
/// The transmit copy of the chain, the staging vector and the list of
/// completed datagrams are buffers the NICs keep.
const PER_DATAGRAM: usize = 0;

/// `len` patterned bytes whose IPv4 destination field names [`PEER`].
fn datagram(len: usize) -> Vec<u8> {
    let mut d: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    d[16..20].copy_from_slice(&PEER);
    d
}

#[test]
fn warm_cell_path_allocates_nothing() {
    let costs = CostModel::calibrated();
    let mut tx = AtmNic::new(FiberLink::new(LinkConfig::default(), 1), costs.clone(), 1);
    tx.add_peer(PEER, 1, 42, 1);
    let mut rx = AtmNic::new(FiberLink::new(LinkConfig::default(), 2), costs.clone(), 2);
    let mut kernel = Kernel::new(StackConfig::default(), costs);
    // One mbuf held against a cap of one (a cap of zero means none):
    // every receive-side chain is refused.
    let _pinned = Mbuf::get(&kernel.pool);
    kernel.pool.set_limit(Some(1));
    let mut spans = SpanRecorder::new();

    let user = MbufPool::new();
    let chains: Vec<Chain> = [(36, 1), (1480, 34), (9188, 209)]
        .into_iter()
        .map(|(len, cells)| {
            assert_eq!(Aal34Segmenter::cells_for(len), cells, "{len} B");
            Chain::from_user_data(&user, &datagram(len), len > 1024).0
        })
        .collect();

    let mut now = SimTime::ZERO;
    let mut carried = 0u64;
    let mut carry = |chain: &Chain| -> usize {
        let n = allocations_in(|| {
            let done = tx.transmit(now, chain, &mut spans);
            let train = tx.staged.pop().expect("one delivery per datagram").train;
            let last = train.iter().map(|&(t, _)| t).max().expect("cells");
            let _ = atm_receive(&mut kernel, &mut rx, last, train);
            now = last.max(done);
        });
        carried += 1;
        assert_eq!(rx.reasm.stats().datagrams_ok, carried, "reassembled");
        assert_eq!(rx.enobufs_drops, carried, "shed at the mbuf cap");
        n
    };
    // Warm-up: the FIFOs, the staging vector, the train and the NICs'
    // kept buffers reach their working capacity, which they keep.
    for _ in 0..2 {
        for chain in &chains {
            carry(chain);
        }
    }
    let counts: Vec<usize> = chains.iter().map(&mut carry).collect();
    assert_eq!(
        counts, [PER_DATAGRAM; 3],
        "allocations per datagram at 1, 34 and 209 cells"
    );
}

#[test]
fn warm_mbuf_allocation_reuses_freed_buffers() {
    let pool = MbufPool::new();
    // Arrays, not vectors: the mbufs are all the heap there is.
    let cycle = || {
        let small: [Mbuf; 100] = std::array::from_fn(|_| Mbuf::get(&pool));
        let clusters: [Mbuf; 8] = std::array::from_fn(|_| Mbuf::getcl(&pool));
        drop((small, clusters));
    };
    // Warm-up: this thread's free lists fill as the mbufs drop.
    cycle();
    assert_eq!(allocations_in(cycle), 0, "warm Mbuf::get/getcl plus drop");
    assert_eq!(pool.stats().mbufs_outstanding(), 0);
    assert_eq!(pool.stats().clusters_outstanding(), 0);
}
