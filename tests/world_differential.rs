//! The datacenter world and the two-host world run one host event
//! path (`latency_core::host`): delivery, arrival, software interrupt,
//! TCP timers and the pause rule. A one-client, one-server incast
//! through the shared switch must then reproduce the two-host RPC
//! experiment routed through a 2-port switch: the same RTTs and the
//! same number of events, at every size from one cell to a 16 kB RPC,
//! clean and with both hosts stalled on the same pause schedule.

use faultkit::{FaultSchedule, PauseSchedule};
use simkit::SimTime;
use tcp_atm_latency::{Experiment, NetKind};
use world::{run_dc, PcbStrategy, Topology, TrafficSchedule};

/// Warm-up of both sides. The RTT is read from the 40 ns-quantized
/// clock, so the two sides agree only at the same warm-up: a different
/// one starts the measured rounds at another clock phase.
const WARMUP: u64 = 8;
const ITERATIONS: u64 = 50;
const SEEDS: [u64; 3] = [1, 2, 7];
const SIZES: [usize; 6] = [4, 200, 1400, 4000, 8000, 16_000];

/// Runs the incast of one and the switched two-host RPC under
/// `faults`; returns each side's RTTs and event count.
fn both(size: usize, seed: u64, faults: FaultSchedule) -> [(Vec<SimTime>, u64); 2] {
    let mut topo = Topology::incast(1, 1, 1);
    topo.rpc_size = size;
    topo.strategy = PcbStrategy::LastPcb;
    topo.base_delay = SimTime::from_ns(200);
    topo.delay_step = SimTime::ZERO;
    topo.warmup = WARMUP;
    topo.iterations = ITERATIONS;
    topo.faults = faults;
    let dc = run_dc(&topo, TrafficSchedule::staggered(), seed);

    let mut exp = Experiment::rpc(NetKind::Atm, size)
        .through_switch(topo.switch)
        .with_faults(faults);
    exp.cfg = PcbStrategy::LastPcb.apply(exp.cfg);
    exp.warmup = WARMUP;
    exp.iterations = ITERATIONS;
    let two = exp.plan().seed(seed).reps(1).execute();

    assert_eq!(dc.rtts.len() as u64, ITERATIONS, "seed {seed}, {size} B");
    [(dc.rtts, dc.events), (two.rtts, two.events)]
}

#[test]
fn incast_of_one_reproduces_the_switched_two_host_rpc() {
    for seed in SEEDS {
        for size in SIZES {
            let [(dc_rtts, dc_events), (rtts, events)] = both(size, seed, FaultSchedule::default());
            assert_eq!(dc_rtts, rtts, "seed {seed}, {size} B: RTTs");
            assert_eq!(dc_events, events, "seed {seed}, {size} B: events");
        }
    }
}

#[test]
fn incast_of_one_reproduces_the_paused_two_host_rpc() {
    // Both hosts stall 300 µs in every 2 ms, from 1 ms on: a pure
    // function of time, so both worlds see the same windows.
    let pause = PauseSchedule::new(
        SimTime::from_ms(1),
        SimTime::from_ms(2),
        SimTime::from_us(300),
    );
    let faults = FaultSchedule::default().with_host_pause(pause);
    for seed in SEEDS {
        for size in SIZES {
            let [(dc_rtts, dc_events), (rtts, events)] = both(size, seed, faults);
            assert_eq!(dc_rtts, rtts, "seed {seed}, {size} B: RTTs");
            assert_eq!(dc_events, events, "seed {seed}, {size} B: events");
            let (clean, _) = both(size, seed, FaultSchedule::default())[1].clone();
            assert_ne!(rtts, clean, "seed {seed}, {size} B: the pause bites");
        }
    }
}
