//! The datacenter world and the two-host world run one host event
//! path (`latency_core::host`). A one-client, one-server incast through
//! the shared switch must then reproduce the two-host RPC experiment
//! routed through a 2-port switch: the same RTTs and the same number of
//! events, at every size from one cell to a 16 kB RPC.

use simkit::SimTime;
use tcp_atm_latency::{Experiment, NetKind};
use world::{run_dc, PcbStrategy, Topology, TrafficSchedule};

/// Warm-up of both sides. The RTT is read from the 40 ns-quantized
/// clock, so the two sides agree only at the same warm-up: a different
/// one starts the measured rounds at another clock phase.
const WARMUP: u64 = 8;
const ITERATIONS: u64 = 50;

#[test]
fn incast_of_one_reproduces_the_switched_two_host_rpc() {
    for seed in [1, 2, 7] {
        for size in [4, 200, 1400, 4000, 8000, 16_000] {
            let mut topo = Topology::incast(1, 1, 1);
            topo.rpc_size = size;
            topo.strategy = PcbStrategy::LastPcb;
            topo.base_delay = SimTime::from_ns(200);
            topo.delay_step = SimTime::ZERO;
            topo.warmup = WARMUP;
            topo.iterations = ITERATIONS;
            let dc = run_dc(&topo, TrafficSchedule::staggered(), seed);

            let mut exp = Experiment::rpc(NetKind::Atm, size).through_switch(topo.switch);
            exp.cfg = PcbStrategy::LastPcb.apply(exp.cfg);
            exp.warmup = WARMUP;
            exp.iterations = ITERATIONS;
            let two = exp.plan().seed(seed).reps(1).execute();

            assert_eq!(dc.rtts.len() as u64, ITERATIONS, "seed {seed}, {size} B");
            assert_eq!(dc.rtts, two.rtts, "seed {seed}, {size} B: RTTs");
            assert_eq!(dc.events, two.events, "seed {seed}, {size} B: events");
        }
    }
}
