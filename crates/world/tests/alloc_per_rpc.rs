//! A warm datacenter world allocates no heap memory per RPC.
//!
//! A counting global allocator watches `run_dc` on
//! `Topology::fanout(1, 16)`: one client fanning each round out to 16
//! servers over the shared switch. The world is one component, so it
//! runs inline on the test thread, and only this thread's allocations
//! are counted. Building the world and growing its buffers to their
//! working size costs the same at R and at 2R rounds, so the
//! difference between the two runs is what the extra R × 16 sub-RPCs
//! allocate: the whole ATM datagram path of both ends, TCP input and
//! output, the socket layer, the wakeups and the event queue.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use world::{run_dc, Topology, TrafficSchedule};

struct Counting;

thread_local! {
    /// This thread's allocations while counting; `None` when not.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
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

/// Fan-out width: sub-RPCs per round.
const WIDTH: usize = 16;

/// Most heap allocations per sub-RPC past warm-up.
const PER_SUB_RPC: f64 = 0.25;

/// Heap allocations this thread makes running the world for `rounds`.
fn allocations(rounds: u64) -> usize {
    let mut topo = Topology::fanout(1, WIDTH);
    topo.iterations = rounds;
    assert_eq!(topo.components().len(), 1, "runs inline on this thread");
    ALLOCATIONS.set(Some(0));
    let r = run_dc(&topo, TrafficSchedule::staggered(), 7);
    let n = ALLOCATIONS.take().expect("counting");
    assert_eq!(r.completions.len() as u64, rounds, "every round completes");
    assert_eq!(r.verify_failures, 0, "payloads verify");
    assert_eq!(r.mbufs_leaked, 0, "no mbuf leaks");
    n
}

#[test]
fn warm_fanout_world_allocates_nothing_per_sub_rpc() {
    const R: u64 = 40;
    // A first run warms this thread's mbuf free lists.
    let _ = allocations(R);
    let (once, twice) = (allocations(R), allocations(2 * R));
    let per = twice.saturating_sub(once) as f64 / (R as usize * WIDTH) as f64;
    assert!(
        per <= PER_SUB_RPC,
        "{per:.2} allocations per sub-RPC ({once} at {R} rounds, {twice} at {} rounds)",
        2 * R
    );
}
