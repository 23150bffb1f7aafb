//! Injector liveness: an armed fault that silently does nothing is a
//! bug. Every `FaultSchedule` field, armed alone at a setting that
//! bites, must either change the run (events, simulated time, RTTs or
//! counters) or be refused when the world is built — on the two-host
//! ATM world, the two-host Ethernet world, and a small fan-out
//! datacenter world.

use std::panic::{catch_unwind, AssertUnwindSafe};

use faultkit::{FaultSchedule, FlapSchedule, GilbertElliott, PauseSchedule};
use latency_core::experiment::{Experiment, NetKind};
use simkit::SimTime;
use world::{run_dc, Topology, TrafficSchedule};

/// One case per schedule field: its name and a schedule with only that
/// field armed.
fn cases() -> Vec<(&'static str, FaultSchedule)> {
    // Frequent total-loss bursts: a short run still sees a drop.
    let bursts = GilbertElliott {
        p_good_to_bad: 0.2,
        p_bad_to_good: 0.5,
        loss_good: 0.0,
        loss_bad: 1.0,
    };
    let armed = FaultSchedule::default()
        .with_atm_loss(bursts)
        .with_reorder(0.05)
        .with_rx_contention(0.5, 24)
        // A zero-cell FIFO overruns on every cell; any FIFO of one
        // cell or more is drained on every arrival unless contention
        // stalls it.
        .with_rx_fifo_cells(0)
        .with_ether_loss(bursts)
        .with_mbuf_limit(1)
        .with_host_pause(PauseSchedule::new(
            SimTime::from_ms(1),
            SimTime::from_ms(5),
            SimTime::from_ms(2),
        ))
        .with_link_flap(FlapSchedule::new(
            SimTime::ZERO,
            SimTime::from_ms(5),
            SimTime::from_ms(2),
        ));
    // Exhaustive: a new field fails to compile here until it has a case.
    let FaultSchedule {
        atm_loss,
        train,
        rx_contention,
        rx_fifo_cells,
        ether_loss,
        mbuf_limit,
        host_pause,
        link_flap,
    } = armed;
    let clean = FaultSchedule::default();
    vec![
        ("atm_loss", FaultSchedule { atm_loss, ..clean }),
        ("train", FaultSchedule { train, ..clean }),
        (
            "rx_contention",
            FaultSchedule {
                rx_contention,
                ..clean
            },
        ),
        (
            "rx_fifo_cells",
            FaultSchedule {
                rx_fifo_cells,
                ..clean
            },
        ),
        (
            "ether_loss",
            FaultSchedule {
                ether_loss,
                ..clean
            },
        ),
        (
            "mbuf_limit",
            FaultSchedule {
                mbuf_limit,
                ..clean
            },
        ),
        (
            "host_pause",
            FaultSchedule {
                host_pause,
                ..clean
            },
        ),
        ("link_flap", FaultSchedule { link_flap, ..clean }),
    ]
}

/// Runs `run` once per case and asserts each armed field either
/// changes the run's fingerprint against the clean run or makes the
/// world refuse it (a panic naming the field).
fn assert_every_field_bites<F: PartialEq + std::fmt::Debug>(
    world: &str,
    run: impl Fn(Option<FaultSchedule>) -> F,
) {
    let clean = run(None);
    for (field, faults) in cases() {
        match catch_unwind(AssertUnwindSafe(|| run(Some(faults)))) {
            Ok(armed) => assert_ne!(
                armed, clean,
                "{world}: `{field}` armed alone changed nothing"
            ),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map_or("<non-string panic>", String::as_str);
                assert!(
                    msg.contains(&format!("`{field}` cannot be armed")),
                    "{world}: `{field}` panicked without a refusal: {msg}"
                );
            }
        }
    }
}

fn two_host(net: NetKind, size: usize) -> impl Fn(Option<FaultSchedule>) -> String {
    move |faults| {
        let mut e = Experiment::rpc(net, size);
        e.iterations = 20;
        e.warmup = 2;
        if let Some(f) = faults {
            e = e.with_faults(f);
        }
        let r = e.plan().seed(3).execute();
        format!(
            "events {} sim_time {:?} rtts {:?} enobufs {:?} aborted {} nics {:?} {:?}",
            r.events, r.sim_time, r.rtts, r.enobufs, r.aborted, r.client_nic, r.server_nic
        )
    }
}

#[test]
fn every_fault_field_bites_or_is_refused_on_two_host_atm() {
    assert_every_field_bites("two-host ATM", two_host(NetKind::Atm, 8000));
}

#[test]
fn every_fault_field_bites_or_is_refused_on_two_host_ethernet() {
    assert_every_field_bites("two-host Ethernet", two_host(NetKind::Ether, 1400));
}

#[test]
fn every_fault_field_bites_or_is_refused_on_fanout_world() {
    assert_every_field_bites("fan-out", |faults| {
        let mut t = Topology::fanout(2, 4);
        t.iterations = 4;
        t.warmup = 1;
        t.faults = faults;
        let r = run_dc(&t, TrafficSchedule::staggered(), 3);
        (r.events, r.sim_time, r.rtts, r.completions, r.fanout_aborts)
    });
}
