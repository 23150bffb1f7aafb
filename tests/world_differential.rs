//! The datacenter world and the two-host world run one host event
//! path (`latency_core::host`): delivery, arrival, software interrupt,
//! TCP timers and the pause rule; and one process loop
//! (`latency_core::app`): the write, read and verify step of every RPC
//! endpoint. A one-client, one-server incast through the shared switch
//! must then reproduce the two-host RPC experiment routed through a
//! 2-port switch: the same RTTs and the same number of events, at
//! every size from one cell to a 16 kB RPC, clean, with both hosts
//! stalled on the same pause schedule, with both uplinks flapping
//! (recovered by RTO), and through an outage that aborts both runs at
//! the same simulated time.

use faultkit::{FaultSchedule, FlapSchedule, PauseSchedule};
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

/// One world's outcome of a run.
struct Run {
    rtts: Vec<SimTime>,
    events: u64,
    sim_time: SimTime,
    aborted: bool,
}

/// Runs the incast of one and the switched two-host RPC under
/// `faults`; returns the incast's run, then the two-host one.
fn both(size: usize, seed: u64, faults: FaultSchedule) -> [Run; 2] {
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

    [
        Run {
            rtts: dc.rtts,
            events: dc.events,
            sim_time: dc.sim_time,
            aborted: dc.aborted_conns > 0,
        },
        Run {
            rtts: two.rtts,
            events: two.events,
            sim_time: two.sim_time,
            aborted: two.aborted,
        },
    ]
}

/// Asserts that both worlds complete every iteration under `faults`
/// with equal RTTs and events; returns the RTTs.
fn agree(size: usize, seed: u64, faults: FaultSchedule) -> Vec<SimTime> {
    let [dc, two] = both(size, seed, faults);
    assert_eq!(dc.rtts.len() as u64, ITERATIONS, "seed {seed}, {size} B");
    assert_eq!(dc.rtts, two.rtts, "seed {seed}, {size} B: RTTs");
    assert_eq!(dc.events, two.events, "seed {seed}, {size} B: events");
    two.rtts
}

#[test]
fn incast_of_one_reproduces_the_switched_two_host_rpc() {
    for seed in SEEDS {
        for size in SIZES {
            agree(size, seed, FaultSchedule::default());
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
            let rtts = agree(size, seed, faults);
            let clean = agree(size, seed, FaultSchedule::default());
            assert_ne!(rtts, clean, "seed {seed}, {size} B: the pause bites");
        }
    }
}

#[test]
fn incast_of_one_reproduces_the_flapping_two_host_rpc() {
    // Both uplinks drop every cell for 150 µs in every 3 ms, from 2 ms
    // on: a pure function of time. Each lost datagram is resent when
    // the retransmit timer fires, and every run completes.
    let flap = FlapSchedule::new(
        SimTime::from_ms(2),
        SimTime::from_ms(3),
        SimTime::from_us(150),
    );
    let faults = FaultSchedule::default().with_link_flap(flap);
    for seed in SEEDS {
        for size in SIZES {
            let rtts = agree(size, seed, faults);
            let clean = agree(size, seed, FaultSchedule::default());
            assert_ne!(rtts, clean, "seed {seed}, {size} B: the flap bites");
        }
    }
}

#[test]
fn incast_of_one_reproduces_the_aborted_two_host_rpc() {
    // Both uplinks go down at 20 ms for 999 s: the retransmit limit
    // aborts the connection, and each world ends both endpoints.
    let outage = FlapSchedule::new(
        SimTime::from_ms(20),
        SimTime::from_secs(1000),
        SimTime::from_secs(999),
    );
    let faults = FaultSchedule::default().with_link_flap(outage);
    for seed in SEEDS {
        for size in SIZES {
            let [dc, two] = both(size, seed, faults);
            assert!(dc.aborted && two.aborted, "seed {seed}, {size} B: aborts");
            assert_eq!(dc.rtts, two.rtts, "seed {seed}, {size} B: RTTs");
            assert_eq!(dc.events, two.events, "seed {seed}, {size} B: events");
            assert_eq!(dc.sim_time, two.sim_time, "seed {seed}, {size} B: end");
        }
    }
}
