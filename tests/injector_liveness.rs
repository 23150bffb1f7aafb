//! Injector liveness: an armed fault that silently does nothing is a
//! bug. Every `FaultSchedule` field, armed alone at a setting that
//! bites, must change the run (events, simulated time, RTTs or
//! counters) or, where the world lists it as one its hosts cannot
//! carry, be refused when the world is built — on the two-host ATM
//! world, the two-host Ethernet world, and a small fan-out datacenter
//! world. Every `TailPolicy` lever, armed alone, must
//! change the fan-out run the same way. Every switch `DropPolicy` must
//! change an overloaded incast run against every other policy, and
//! every `CcVariant` on a cold start must change a lossy incast run
//! against every other variant.

use std::panic::{catch_unwind, AssertUnwindSafe};

use atm::DropPolicy;
use faultkit::{FaultSchedule, FlapSchedule, GilbertElliott, PauseSchedule};
use latency_core::experiment::{Experiment, NetKind};
use simkit::SimTime;
use tcpip::CcVariant;
use world::{run_dc, HedgePolicy, RetryPolicy, TailPolicy, Topology, TrafficSchedule};

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
    let armed = FaultSchedule {
        ber: 1e-4,
        cell_loss: 0.05,
        controller_corrupt: 0.5,
        gateway_corrupt: 0.5,
        ..armed
    };
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
        ber,
        cell_loss,
        controller_corrupt,
        gateway_corrupt,
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
        ("ber", FaultSchedule { ber, ..clean }),
        ("cell_loss", FaultSchedule { cell_loss, ..clean }),
        (
            "controller_corrupt",
            FaultSchedule {
                controller_corrupt,
                ..clean
            },
        ),
        (
            "gateway_corrupt",
            FaultSchedule {
                gateway_corrupt,
                ..clean
            },
        ),
    ]
}

/// Runs `run` once per case and asserts each armed field in `refused`
/// makes the world refuse it (a panic naming the field), and every
/// other field changes the run's fingerprint against the clean run.
fn assert_every_field_bites<F: PartialEq + std::fmt::Debug>(
    world: &str,
    refused: &[&str],
    run: impl Fn(FaultSchedule) -> F,
) {
    let clean = run(FaultSchedule::default());
    for (field, faults) in cases() {
        match catch_unwind(AssertUnwindSafe(|| run(faults))) {
            Ok(armed) => {
                assert!(
                    !refused.contains(&field),
                    "{world}: `{field}` was armed, not refused"
                );
                assert_ne!(
                    armed, clean,
                    "{world}: `{field}` armed alone changed nothing"
                );
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map_or("<non-string panic>", String::as_str);
                assert!(
                    refused.contains(&field) && msg.contains(&format!("`{field}` cannot be armed")),
                    "{world}: `{field}` panicked without its refusal: {msg}"
                );
            }
        }
    }
}

fn two_host(net: NetKind, size: usize) -> impl Fn(FaultSchedule) -> String {
    move |faults| {
        let mut e = Experiment::rpc(net, size).with_faults(faults);
        e.iterations = 20;
        e.warmup = 2;
        let r = e.plan().seed(3).execute();
        format!(
            "events {} sim_time {:?} rtts {:?} enobufs {:?} aborted {} nics {:?} {:?}",
            r.events, r.sim_time, r.rtts, r.enobufs, r.aborted, r.client_nic, r.server_nic
        )
    }
}

#[test]
fn every_fault_field_bites_or_is_refused_on_two_host_atm() {
    assert_every_field_bites(
        "two-host ATM",
        &["ether_loss", "gateway_corrupt"],
        two_host(NetKind::Atm, 8000),
    );
}

#[test]
fn every_fault_field_bites_or_is_refused_on_two_host_ethernet() {
    assert_every_field_bites(
        "two-host Ethernet",
        &[
            "atm_loss",
            "train",
            "rx_contention",
            "rx_fifo_cells",
            "link_flap",
            "cell_loss",
        ],
        two_host(NetKind::Ether, 1400),
    );
}

#[test]
fn every_fault_field_bites_or_is_refused_on_fanout_world() {
    assert_every_field_bites("fan-out", &["ether_loss", "gateway_corrupt"], |faults| {
        let mut t = Topology::fanout(2, 4);
        t.iterations = 4;
        t.warmup = 1;
        t.faults = faults;
        let r = run_dc(&t, TrafficSchedule::staggered(), 3);
        (r.events, r.sim_time, r.rtts, r.completions, r.fanout_aborts)
    });
}

/// One case per `TailPolicy` lever: its name and a policy with only
/// that lever armed, at a setting that bites on a clean fan-out world.
fn tail_cases() -> Vec<(&'static str, TailPolicy)> {
    let armed = TailPolicy {
        // Far below a clean round's ~1 ms: every round misses it.
        deadline: Some(SimTime::from_us(100)),
        // Backoff below the RTT: a retry fires before the echo lands.
        retry: Some(RetryPolicy {
            backoff: SimTime::from_us(50),
            ..RetryPolicy::default()
        }),
        // Hedge almost at once, so every round hedges.
        hedge: Some(HedgePolicy {
            delay: Some(SimTime::from_us(100)),
            ..HedgePolicy::default()
        }),
        // First of four: the fastest reply, not the slowest.
        quorum: 1,
    };
    // Exhaustive: a new lever fails to compile here until it has a case.
    let TailPolicy {
        deadline,
        retry,
        hedge,
        quorum,
    } = armed;
    let wait_for_all = TailPolicy::default();
    vec![
        (
            "deadline",
            TailPolicy {
                deadline,
                ..wait_for_all
            },
        ),
        (
            "retry",
            TailPolicy {
                retry,
                ..wait_for_all
            },
        ),
        (
            "hedge",
            TailPolicy {
                hedge,
                ..wait_for_all
            },
        ),
        (
            "quorum",
            TailPolicy {
                quorum,
                ..wait_for_all
            },
        ),
    ]
}

#[test]
fn every_tail_policy_lever_changes_the_fanout_run() {
    let run = |tail: TailPolicy| {
        let mut t = Topology::fanout(2, 4);
        t.iterations = 4;
        t.warmup = 1;
        t.tail = tail;
        // Each lever must show in its own cost counters. The event
        // count would pass a lever that does nothing (any armed policy
        // adds one round-arm event per client), and so would the
        // completions (a hedge policy's replica wiring moves them
        // before any hedge fires).
        run_dc(&t, TrafficSchedule::staggered(), 3).cost
    };
    let wait_for_all = run(TailPolicy::default());
    for (lever, tail) in tail_cases() {
        assert!(!tail.is_noop(), "`{lever}` case arms nothing");
        assert_ne!(
            run(tail),
            wait_for_all,
            "fan-out: `{lever}` armed alone changed nothing"
        );
    }
}

/// A 4-into-1 incast of 16 kB requests over a 128-cell switch queue
/// (the cc study's smallest buffer): the queue overruns every round.
/// Returns what the switch and the senders saw.
fn overloaded_incast(cc: CcVariant, drop_policy: DropPolicy) -> impl PartialEq + std::fmt::Debug {
    let mut t = Topology::incast(4, 4, 1);
    t.rpc_size = 16_000;
    t.iterations = 3;
    t.warmup = 1;
    t.mtu = 1500;
    t.stack.cc = cc;
    t.stack.initial_cwnd_segs = Some(2);
    t.switch.queue_cells = 128;
    t.switch.drop_policy = drop_policy;
    let r = run_dc(&t, TrafficSchedule::staggered(), 3);
    assert!(
        r.switch_drops + r.epd_drops + r.ppd_drops > 0,
        "{cc:?}/{drop_policy:?}: the switch dropped nothing"
    );
    (
        r.events,
        r.sim_time,
        r.rtts,
        r.switch_drops,
        r.epd_drops,
        r.ppd_drops,
        r.rexmits,
        r.rto_fires,
    )
}

/// Asserts no two levers ran the same: each changes the run against
/// every other, so none is dead.
fn assert_pairwise_distinct<L: std::fmt::Debug, R: PartialEq + std::fmt::Debug>(
    levers: &[L],
    run: impl Fn(&L) -> R,
) {
    let runs: Vec<R> = levers.iter().map(run).collect();
    for (i, a) in levers.iter().enumerate() {
        for (j, b) in levers.iter().enumerate().skip(i + 1) {
            assert_ne!(runs[i], runs[j], "{a:?} and {b:?} ran the same");
        }
    }
}

#[test]
fn every_drop_policy_changes_an_overloaded_switch_run() {
    let policies = [
        DropPolicy::Tail,
        DropPolicy::Epd {
            threshold_cells: 64,
        },
        DropPolicy::Ppd,
    ];
    // Exhaustive: a new policy fails to compile here until it has a case.
    for p in policies {
        match p {
            DropPolicy::Tail | DropPolicy::Epd { .. } | DropPolicy::Ppd => {}
        }
    }
    assert_pairwise_distinct(&policies, |&p| overloaded_incast(CcVariant::default(), p));
}

#[test]
fn every_cold_start_cc_variant_changes_a_lossy_run() {
    // Exhaustive: a new variant fails to compile here until `ALL`
    // lists it.
    for v in CcVariant::ALL {
        match v {
            CcVariant::Tahoe | CcVariant::Reno | CcVariant::NewReno | CcVariant::Sack => {}
        }
    }
    assert_pairwise_distinct(&CcVariant::ALL, |&v| overloaded_incast(v, DropPolicy::Tail));
}
