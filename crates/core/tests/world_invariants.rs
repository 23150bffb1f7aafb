//! Whole-world invariants checked after complete experiment runs:
//! the single CPU never runs two instrumented sections at once, the
//! buffer subsystem doesn't leak, and the recorded spans account for
//! the CPU time the hosts charged.

use latency_core::experiment::{Experiment, NetKind};
use latency_core::world::run_world;
use tcpip::SpanKind;

/// Span kinds that represent CPU execution (as opposed to queueing or
/// scheduling latency).
const CPU_KINDS: [SpanKind; 11] = [
    SpanKind::TxUser,
    SpanKind::TxTcpChecksum,
    SpanKind::TxTcpMcopy,
    SpanKind::TxTcpSegment,
    SpanKind::TxIp,
    SpanKind::TxDriver,
    SpanKind::RxDriver,
    SpanKind::RxIp,
    SpanKind::RxTcpChecksum,
    SpanKind::RxTcpSegment,
    SpanKind::RxUser,
];

fn run(size: usize) -> simkit::Sim<latency_core::world::World> {
    let mut e = Experiment::rpc(NetKind::Atm, size);
    e.iterations = 25;
    e.warmup = 4;
    // Rebuild at world level to keep the state for inspection.
    use latency_core::app::{App, Role};
    use latency_core::nic::{AtmNic, Nic};
    let costs = e.costs.clone();
    let apps = [
        App::new(Role::RpcClient, size, e.iterations, e.warmup),
        App::new(Role::RpcServer, size, u64::MAX / 4, 0),
    ];
    let nics = [
        Nic::Atm(AtmNic::new(
            atm::FiberLink::new(atm::LinkConfig::default(), 1),
            costs.clone(),
            1,
        )),
        Nic::Atm(AtmNic::new(
            atm::FiberLink::new(atm::LinkConfig::default(), 2),
            costs.clone(),
            2,
        )),
    ];
    run_world(
        latency_core::world::World::new(e.cfg, costs, nics, apps),
        None,
    )
}

/// CPU-kind spans on one host never overlap: one processor, one
/// section at a time.
#[test]
fn cpu_spans_never_overlap() {
    for size in [200usize, 8000] {
        let sim = run(size);
        for host in &sim.world.hosts {
            let mut spans: Vec<_> = host
                .kernel
                .spans
                .spans()
                .iter()
                .filter(|s| CPU_KINDS.contains(&s.kind))
                .collect();
            spans.sort_by_key(|s| (s.start, s.end));
            for w in spans.windows(2) {
                assert!(
                    w[0].end <= w[1].start,
                    "size {size}: {:?} [{:?}..{:?}] overlaps {:?} [{:?}..{:?}]",
                    w[0].kind,
                    w[0].start,
                    w[0].end,
                    w[1].kind,
                    w[1].start,
                    w[1].end,
                );
            }
        }
    }
}

/// The mbuf subsystem returns every buffer: after the run, the only
/// outstanding storage belongs to still-open socket buffers (empty in
/// a completed RPC run).
#[test]
fn no_mbuf_leaks_after_run() {
    let sim = run(1400);
    for (i, host) in sim.world.hosts.iter().enumerate() {
        assert_eq!(
            host.kernel.rcv_buffered(host.sock),
            0,
            "host {i} receive buffer drained"
        );
        assert_eq!(
            host.kernel.snd_buffered(host.sock),
            0,
            "host {i} send buffer acked and freed"
        );
        let stats = host.kernel.pool.stats();
        assert_eq!(stats.mbufs_outstanding(), 0, "host {i}: {stats:?}");
        assert_eq!(stats.clusters_outstanding(), 0, "host {i}: {stats:?}");
    }
}

/// The CPU's accounted busy time equals the sum of CPU-kind span
/// durations (nothing charged without a probe, nothing probed without
/// a charge) — within the warm-up slice that probes skipped.
#[test]
fn cpu_accounting_matches_spans() {
    let sim = run(500);
    let client = &sim.world.hosts[0];
    let span_total: f64 = client
        .kernel
        .spans
        .spans()
        .iter()
        .filter(|s| CPU_KINDS.contains(&s.kind))
        .map(|s| (s.end - s.start).as_us_f64())
        .sum();
    let busy = client.kernel.cpu.stats().total_busy().as_us_f64();
    // The recorder was enabled only after warm-up (4 of 29
    // iterations), so spans cover ≈ 25/29 of the charged time.
    let expected_fraction = 25.0 / 29.0;
    let fraction = span_total / busy;
    assert!(
        (fraction - expected_fraction).abs() < 0.05,
        "span {span_total:.0} us vs busy {busy:.0} us (fraction {fraction:.3})"
    );
}

/// Round-trip statistics are stable: the stddev across measured
/// iterations of a clean deterministic run is negligible.
#[test]
fn steady_state_is_steady() {
    let mut e = Experiment::rpc(NetKind::Atm, 500);
    e.iterations = 50;
    e.warmup = 8;
    let r = e.plan().seed(1).execute();
    assert!(
        r.stddev_rtt_us() < r.mean_rtt_us() * 0.01,
        "mean {:.1} stddev {:.2}",
        r.mean_rtt_us(),
        r.stddev_rtt_us()
    );
}

/// A switchless ATM path raises no interrupt for a train that lost
/// every cell: nothing reaches the adapter, so no `atm-arrival` fires
/// and no RxDriver span is charged, as on switched and datacenter
/// paths. The link flaps down for 1 ms in every 4 ms, so whole trains
/// vanish.
#[test]
fn a_train_that_loses_every_cell_raises_no_interrupt() {
    use std::cell::Cell;
    use std::rc::Rc;

    use latency_core::nic::Nic;

    // (cells that reached an adapter, RxDriver spans) at the last
    // arrival, and the arrivals that brought no cell or charged a span
    // for none.
    #[derive(Clone, Copy, Default)]
    struct Seen {
        cells: u64,
        spans: usize,
        arrivals: u64,
        empty: u64,
        empty_spans: u64,
    }
    let seen = Rc::new(Cell::new(Seen::default()));
    let log = Rc::clone(&seen);
    let mut e = Experiment::rpc(NetKind::Atm, 200).with_faults(
        faultkit::FaultSchedule::default().with_link_flap(faultkit::FlapSchedule::new(
            simkit::SimTime::from_ms(1),
            simkit::SimTime::from_ms(4),
            simkit::SimTime::from_ms(1),
        )),
    );
    e.iterations = 30;
    e.warmup = 2;
    let r = e
        .plan()
        .seed(3)
        .observer(Box::new(move |w, _, label| {
            if label != "atm-arrival" {
                return;
            }
            let (mut cells, mut spans) = (0, 0);
            for host in &w.hosts {
                let Nic::Atm(nic) = &host.nic else {
                    unreachable!("an ATM world")
                };
                let rx = &nic.adapter.rx;
                cells += rx.cells_received + rx.overflow_drops + nic.hec_drops;
                let all = host.kernel.spans.spans().iter();
                spans += all.filter(|s| s.kind == SpanKind::RxDriver).count();
            }
            let mut s = log.get();
            s.arrivals += 1;
            if cells == s.cells {
                s.empty += 1;
                s.empty_spans += u64::from(spans > s.spans);
            }
            (s.cells, s.spans) = (cells, spans);
            log.set(s);
        }))
        .execute();
    let s = seen.get();
    assert!(
        r.client_tcp.rexmits + r.server_tcp.rexmits > 0,
        "the flap bites"
    );
    assert!(s.arrivals > 0);
    assert_eq!(s.empty, 0, "an all-lost train raised an interrupt");
    assert_eq!(s.empty_spans, 0, "an all-lost train charged the driver");
}
