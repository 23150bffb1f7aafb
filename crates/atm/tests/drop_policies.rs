//! Drop-policy conformance: AAL3/4 trains through the output-queued
//! switch under Tail / EPD / PPD, validated end-to-end against the
//! reassembler.
//!
//! The properties mirror what the cc study relies on: EPD refuses
//! whole trains (no queue space wasted on doomed PDUs), PPD stops
//! spending line time on a train once one of its cells is lost but
//! preserves the PDU boundary, and both are invisible when the queue
//! never fills.

use std::collections::HashMap;

use atm::{
    Aal34Reassembler, Aal34Segmenter, AtmSwitch, Cell, CellHeader, DropPolicy, LinkFault,
    PortStats, SwitchConfig, SwitchOutcome, VcRoute, CELL_PAYLOAD,
};
use proptest::prelude::*;
use simkit::{SimRng, SimTime};

const VCI: u16 = 42;

fn switch_with(policy: DropPolicy, queue_cells: usize) -> AtmSwitch {
    let mut sw = AtmSwitch::new(
        2,
        SwitchConfig {
            queue_cells,
            drop_policy: policy,
            ..SwitchConfig::default()
        },
        11,
    );
    sw.add_vc(
        0,
        0,
        VCI,
        VcRoute {
            out_port: 1,
            out_vpi: 0,
            out_vci: VCI,
        },
    );
    sw
}

fn datagram(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// Pushes `data` as one AAL3/4 train at `t`, feeding whatever the
/// switch forwards into `reasm`. Returns the per-cell outcomes and
/// any datagram the reassembler completed.
fn send_pdu(
    sw: &mut AtmSwitch,
    reasm: &mut Aal34Reassembler,
    t: SimTime,
    data: &[u8],
) -> (Vec<SwitchOutcome>, Option<Vec<u8>>) {
    let mut outcomes = Vec::new();
    let mut delivered = None;
    for cell in Aal34Segmenter::new(0, VCI, 1).segment(data) {
        let out = sw.forward(0, t, &cell);
        if let SwitchOutcome::Forwarded { cell: fwd, .. } = &out {
            if let Ok(Some(d)) = reasm.push(fwd) {
                delivered = Some(d);
            }
        }
        outcomes.push(out);
    }
    (outcomes, delivered)
}

/// With queues that never fill, every policy forwards every cell and
/// the delivered bytes are identical — the packet-aware policies are
/// pure overload behaviour, invisible on clean paths.
#[test]
fn policies_identical_when_buffers_never_fill() {
    let policies = [
        DropPolicy::Tail,
        DropPolicy::Epd {
            threshold_cells: 200,
        },
        DropPolicy::Ppd,
    ];
    let mut delivered_sets = Vec::new();
    for policy in policies {
        let mut sw = switch_with(policy, 256);
        let mut reasm = Aal34Reassembler::new();
        let mut got = Vec::new();
        for (i, len) in [500usize, 4040, 1400, 8040].iter().enumerate() {
            let data = datagram(*len, i as u8);
            // Space trains out so the queue fully drains between them.
            let t = SimTime::from_ms(1 + i as u64);
            let (outs, d) = send_pdu(&mut sw, &mut reasm, t, &data);
            assert!(
                outs.iter()
                    .all(|o| matches!(o, SwitchOutcome::Forwarded { .. })),
                "{}: all cells forwarded on an empty queue",
                policy.name()
            );
            got.push(d.expect("PDU reassembles"));
            assert_eq!(got[i], data);
        }
        assert_eq!(sw.queue_drops, 0);
        assert_eq!(sw.epd_drops, 0);
        assert_eq!(sw.ppd_drops, 0);
        delivered_sets.push(got);
    }
    assert_eq!(delivered_sets[0], delivered_sets[1]);
    assert_eq!(delivered_sets[0], delivered_sets[2]);
}

/// Once EPD commits to refusing a train, none of its cells reaches
/// the output — the reassembler never even sees the train.
#[test]
fn epd_never_forwards_a_refused_train() {
    let mut sw = switch_with(DropPolicy::Epd { threshold_cells: 8 }, 256);
    let mut reasm = Aal34Reassembler::new();
    let t = SimTime::from_ms(1);
    // First train commits and fills the backlog past the threshold.
    let first = datagram(4040, 1);
    let (outs, d) = send_pdu(&mut sw, &mut reasm, t, &first);
    assert!(outs
        .iter()
        .all(|o| matches!(o, SwitchOutcome::Forwarded { .. })));
    assert_eq!(d.expect("first PDU delivered"), first);
    // Second train arrives against that backlog: refused in full.
    let (outs, d) = send_pdu(&mut sw, &mut reasm, t, &datagram(4040, 2));
    assert!(
        outs.iter().all(|o| *o == SwitchOutcome::Discarded),
        "every cell of a refused train is discarded: {outs:?}"
    );
    assert_eq!(d, None);
    assert_eq!(sw.epd_drops, outs.len() as u64);
    assert_eq!(
        reasm.stats().datagrams_dropped,
        0,
        "a cleanly refused train never reaches the reassembler, so it \
         costs no reassembly failure"
    );
    // After the queue drains, the next train delivers: the refusal
    // left no residue in either the switch or the reassembler.
    let third = datagram(4040, 3);
    let (_, d) = send_pdu(&mut sw, &mut reasm, SimTime::from_ms(50), &third);
    assert_eq!(d.expect("third PDU delivered"), third);
}

/// PPD: after the first tail-dropped cell of a train, the remainder
/// is policy-discarded except the end-of-PDU marker, which delimits
/// the ruined PDU so the next one reassembles cleanly.
#[test]
fn ppd_drops_remainder_except_marker() {
    let mut sw = switch_with(DropPolicy::Ppd, 16);
    let mut reasm = Aal34Reassembler::new();
    let t = SimTime::from_ms(1);
    let (outs, d) = send_pdu(&mut sw, &mut reasm, t, &datagram(4040, 1));
    let first_loss = outs
        .iter()
        .position(|o| *o == SwitchOutcome::QueueFull)
        .expect("a 92-cell train into a 16-cell queue must overflow");
    for (i, o) in outs.iter().enumerate() {
        if i < first_loss {
            assert!(
                matches!(o, SwitchOutcome::Forwarded { .. }),
                "cell {i}: {o:?}"
            );
        } else if i == first_loss {
            assert_eq!(*o, SwitchOutcome::QueueFull);
        } else if i < outs.len() - 1 {
            assert_eq!(*o, SwitchOutcome::Discarded, "cell {i}: {o:?}");
        } else {
            assert!(
                matches!(o, SwitchOutcome::Forwarded { .. }),
                "marker cell forwarded: {o:?}"
            );
        }
    }
    assert_eq!(d, None, "the ruined PDU fails reassembly");
    assert_eq!(
        reasm.stats().datagrams_dropped,
        1,
        "rejected at the marker, on the sequence-number gap"
    );
    assert_eq!(sw.queue_drops, 1, "exactly one cell charged to the queue");
    assert_eq!(sw.ppd_drops as usize, outs.len() - first_loss - 2);
    // The boundary survived: the next train, sent once the queue
    // drains, is not merged into the ruined one. (It must also fit
    // the 16-cell queue as a same-instant burst, so keep it small.)
    let next = datagram(500, 2);
    let (_, d) = send_pdu(&mut sw, &mut reasm, SimTime::from_ms(50), &next);
    assert_eq!(d.expect("next PDU delivered"), next);
}

/// Tail drop clips mid-train cells: the surviving siblings of a
/// clipped cell cross the switch for a PDU that cannot reassemble.
/// (This is the waste EPD/PPD exist to avoid.)
#[test]
fn tail_drop_wastes_the_surviving_siblings() {
    let mut sw = switch_with(DropPolicy::Tail, 16);
    let mut reasm = Aal34Reassembler::new();
    let (outs, d) = send_pdu(&mut sw, &mut reasm, SimTime::from_ms(1), &datagram(4040, 1));
    let forwarded = outs
        .iter()
        .filter(|o| matches!(o, SwitchOutcome::Forwarded { .. }))
        .count();
    assert!(forwarded > 0 && forwarded < outs.len(), "a partial train");
    assert_eq!(d, None, "partial train cannot reassemble");
    assert_eq!(
        sw.queue_drops as usize,
        outs.len() - forwarded,
        "tail drop charges every clipped cell to the queue"
    );
    assert_eq!(sw.ppd_drops, 0);
    assert_eq!(sw.epd_drops, 0);
}

/// Per-port counters sum to the switch-wide totals across a mixed
/// workload on two output ports.
#[test]
fn port_stats_sum_to_switch_totals() {
    let mut sw = AtmSwitch::new(
        3,
        SwitchConfig {
            queue_cells: 16,
            drop_policy: DropPolicy::Ppd,
            ..SwitchConfig::default()
        },
        13,
    );
    for (vci, out_port) in [(VCI, 1), (VCI + 1, 2)] {
        sw.add_vc(
            0,
            0,
            vci,
            VcRoute {
                out_port,
                out_vpi: 0,
                out_vci: vci,
            },
        );
    }
    let t = SimTime::from_ms(1);
    for (i, vci) in [VCI, VCI + 1, VCI, VCI + 1].iter().enumerate() {
        for cell in Aal34Segmenter::new(0, *vci, 1).segment(&datagram(4040, i as u8)) {
            let _ = sw.forward(0, t, &cell);
        }
    }
    let summed = (0..sw.ports()).fold((0u64, 0u64, 0u64, 0u64), |(f, q, e, p), i| {
        let s = sw.port_stats(i);
        (
            f + s.forwarded,
            q + s.queue_drops,
            e + s.epd_drops,
            p + s.ppd_drops,
        )
    });
    assert_eq!(summed.0, sw.forwarded);
    assert_eq!(summed.1, sw.queue_drops);
    assert_eq!(summed.2, sw.epd_drops);
    assert_eq!(summed.3, sw.ppd_drops);
    assert!(sw.queue_drops > 0, "the workload overflowed");
    assert!(sw.ppd_drops > 0, "PPD engaged");
}

/// The per-cell switch the header memo replaced, kept as the
/// reference: every cell pays a HEC check, a `HashMap` route lookup
/// and a header decode and re-encode, and train state lives in a
/// second `HashMap`.
struct RefSwitch {
    config: SwitchConfig,
    routes: HashMap<(usize, u8, u16), VcRoute>,
    busy_until: Vec<SimTime>,
    stats: Vec<PortStats>,
    trains: HashMap<(usize, u8, u16), (bool, bool)>,
    rng: SimRng,
    /// forwarded, hec, unknown VC, queue, EPD, PPD, corrupted.
    counters: [u64; 7],
}

impl RefSwitch {
    fn new(n_ports: usize, config: SwitchConfig, seed: u64) -> Self {
        RefSwitch {
            config,
            routes: HashMap::new(),
            busy_until: vec![SimTime::ZERO; n_ports],
            stats: vec![PortStats::default(); n_ports],
            trains: HashMap::new(),
            rng: SimRng::seed_stream(seed, 0x5c),
            counters: [0; 7],
        }
    }

    fn add_vc(&mut self, in_port: usize, vpi: u8, vci: u16, route: VcRoute) {
        self.routes.insert((in_port, vpi, vci), route);
    }

    fn forward(&mut self, in_port: usize, arrival: SimTime, cell: &Cell) -> SwitchOutcome {
        if !cell.header_ok() {
            self.counters[1] += 1;
            return SwitchOutcome::HeaderError;
        }
        let h = cell.header();
        let key = (in_port, h.vpi, h.vci);
        let Some(route) = self.routes.get(&key).copied() else {
            self.counters[2] += 1;
            return SwitchOutcome::UnknownVc;
        };
        let out = route.out_port;
        let backlog = self.busy_until[out]
            .saturating_since(arrival)
            .as_ns()
            .div_ceil(self.config.cell_time.as_ns().max(1)) as usize;
        let stats = &mut self.stats[out];
        stats.max_backlog_cells = stats.max_backlog_cells.max(backlog);
        let policy = self.config.drop_policy;
        if policy == DropPolicy::Tail {
            if backlog >= self.config.queue_cells {
                return self.tail_drop(out);
            }
            return self.admit(route, arrival, cell);
        }
        let eom = cell.payload()[0] & 0x40 != 0;
        let (mut mid_train, mut discarding) = self.trains.get(&key).copied().unwrap_or_default();
        if let DropPolicy::Epd { threshold_cells } = policy {
            if !mid_train && backlog >= threshold_cells {
                discarding = true;
            }
        }
        let was_discarding = discarding;
        mid_train = !eom;
        if eom {
            discarding = false;
        }
        if was_discarding {
            self.trains.insert(key, (mid_train, discarding));
            if policy == DropPolicy::Ppd && eom {
                return self.admit(route, arrival, cell);
            }
            if matches!(policy, DropPolicy::Epd { .. }) {
                self.counters[4] += 1;
                self.stats[out].epd_drops += 1;
            } else {
                self.counters[5] += 1;
                self.stats[out].ppd_drops += 1;
            }
            return SwitchOutcome::Discarded;
        }
        if backlog >= self.config.queue_cells {
            if !eom {
                discarding = true;
            }
            self.trains.insert(key, (mid_train, discarding));
            return self.tail_drop(out);
        }
        self.trains.insert(key, (mid_train, discarding));
        self.admit(route, arrival, cell)
    }

    fn forward_train(
        &mut self,
        in_port: usize,
        mut train: Vec<(SimTime, LinkFault)>,
        downlink: SimTime,
    ) -> Option<(SimTime, Vec<(SimTime, LinkFault)>)> {
        let may_corrupt = self.config.corrupt_prob > 0.0;
        let mut last = None;
        for (at, fault) in &mut train {
            let (LinkFault::Clean(c) | LinkFault::Corrupted(c)) = &*fault else {
                continue;
            };
            *fault = match self.forward(in_port, *at, c) {
                SwitchOutcome::Forwarded {
                    departure, cell, ..
                } => {
                    *at = departure + downlink;
                    last = last.max(Some(*at));
                    if may_corrupt && cell.payload() != c.payload() {
                        LinkFault::Corrupted(cell)
                    } else {
                        LinkFault::Clean(cell)
                    }
                }
                _ => LinkFault::Lost,
            };
        }
        last.map(|t| (t, train))
    }

    fn tail_drop(&mut self, out: usize) -> SwitchOutcome {
        self.counters[3] += 1;
        self.stats[out].queue_drops += 1;
        SwitchOutcome::QueueFull
    }

    fn admit(&mut self, route: VcRoute, arrival: SimTime, cell: &Cell) -> SwitchOutcome {
        let header = CellHeader {
            vpi: route.out_vpi,
            vci: route.out_vci,
            ..cell.header()
        };
        let mut out = Cell::new(header, *cell.payload());
        if self.rng.chance(self.config.corrupt_prob) {
            let bit = 40 + self.rng.next_below(48 * 8) as usize;
            out.flip_bit(bit);
            self.counters[6] += 1;
        }
        let start = (arrival + self.config.latency).max(self.busy_until[route.out_port]);
        let departure = start + self.config.cell_time;
        self.busy_until[route.out_port] = departure;
        self.stats[route.out_port].forwarded += 1;
        self.counters[0] += 1;
        SwitchOutcome::Forwarded {
            out_port: route.out_port,
            departure,
            cell: out,
        }
    }
}

/// The VCs trains travel on. The last is never installed.
const VCS: [(u8, u16); 4] = [(0, 40), (0, 41), (1, 40), (2, 99)];

/// Cell `i` of a train on `VCS[vc]`; the train's last cell carries
/// the AAL3/4 end-of-PDU mark (segment type EOM).
fn make_cell(vc: usize, i: usize, last: bool, pt: u8, clp: bool, st: u8) -> Cell {
    let (vpi, vci) = VCS[vc];
    let st = if last { 0b01 } else { st };
    let mut payload = [0u8; CELL_PAYLOAD];
    for (k, b) in payload.iter_mut().enumerate() {
        *b = (k as u8).wrapping_mul(13).wrapping_add(i as u8);
    }
    payload[0] = (st << 6) | (i as u8 & 0x3f);
    Cell::new(
        CellHeader {
            gfc: 0,
            vpi,
            vci,
            pt,
            clp,
        },
        payload,
    )
}

fn assert_same_state(sw: &AtmSwitch, rf: &RefSwitch) {
    let counters = [
        sw.forwarded,
        sw.hec_drops,
        sw.unknown_vc_drops,
        sw.queue_drops,
        sw.epd_drops,
        sw.ppd_drops,
        sw.corrupted,
    ];
    assert_eq!(counters, rf.counters, "switch counters");
    for (p, want) in rf.stats.iter().enumerate() {
        assert_eq!(sw.port_stats(p), *want, "port {p} stats");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The header memo changes no outcome. Random trains over 2-4
    /// in-ports, under every drop policy, with
    /// unknown VCs, damaged headers, lost cells, fabric corruption
    /// and re-routes between trains, leave the switch and the
    /// per-cell reference with identical outcomes, departures, cell
    /// bytes, counters and port stats. Half the re-routes and trains
    /// land on the last train's VC, where the memo sits.
    #[test]
    fn memoized_switch_matches_per_cell_reference(
        n_ports in 2..5usize,
        policy in 0..3u8,
        threshold_cells in 1..24usize,
        queue_cells in 2..32usize,
        corrupt in 0..3usize,
        seed in any::<u64>(),
        scenario in any::<u64>(),
        n_ops in 1..40usize,
    ) {
        let config = SwitchConfig {
            queue_cells,
            corrupt_prob: [0.0, 0.05, 0.5][corrupt],
            drop_policy: [DropPolicy::Tail, DropPolicy::Epd { threshold_cells }, DropPolicy::Ppd]
                [usize::from(policy)],
            ..SwitchConfig::default()
        };
        let mut sw = AtmSwitch::new(n_ports, config, seed);
        let mut rf = RefSwitch::new(n_ports, config, seed);
        let mut g = SimRng::seed_stream(scenario, 1);
        let mut pick = |n: usize| g.next_below(n as u32) as usize;
        let add_vc = |sw: &mut AtmSwitch, rf: &mut RefSwitch, in_port: usize, vc: usize, r| {
            let (vpi, vci) = VCS[vc];
            sw.add_vc(in_port, vpi, vci, r);
            rf.add_vc(in_port, vpi, vci, r);
        };
        for _ in 0..1 + pick(8) {
            let (in_port, vc) = (pick(n_ports), pick(VCS.len() - 1));
            let r = VcRoute { out_port: pick(n_ports), out_vpi: 0, out_vci: VCS[vc].1 };
            add_vc(&mut sw, &mut rf, in_port, vc, r);
        }
        let downlink = SimTime::from_ns(200);
        let mut now = SimTime::from_us(1);
        let mut last = (0, 0);
        for _ in 0..n_ops {
            let (in_port, vc) = if pick(2) == 0 {
                last
            } else {
                (pick(n_ports), pick(VCS.len()))
            };
            if pick(4) == 0 {
                // A route op: install or re-route a known VC.
                if vc + 1 < VCS.len() {
                    let r = VcRoute {
                        out_port: pick(n_ports),
                        out_vpi: pick(3) as u8,
                        out_vci: 40 + pick(3) as u16,
                    };
                    add_vc(&mut sw, &mut rf, in_port, vc, r);
                }
                continue;
            }
            last = (in_port, vc);
            if pick(2) == 0 {
                now += SimTime::from_ns(pick(200_000) as u64);
            }
            let n = 1 + pick(24);
            let mut train = Vec::with_capacity(n);
            for i in 0..n {
                let pt = if pick(4) == 0 { pick(8) as u8 } else { 0 };
                let mut c = make_cell(vc, i, i + 1 == n, pt, pick(10) == 0, pick(4) as u8);
                let fault = match pick(9) {
                    0 => LinkFault::Lost,
                    1 => {
                        // A damaged header: a bit of its first four octets.
                        c.flip_bit(pick(32));
                        LinkFault::Corrupted(c)
                    }
                    2 => {
                        c.flip_bit(40 + pick(48 * 8));
                        LinkFault::Corrupted(c)
                    }
                    _ => LinkFault::Clean(c),
                };
                train.push((now, fault));
                if pick(2) == 0 {
                    now += SimTime::from_ns(pick(4_000) as u64);
                }
            }
            if pick(2) == 0 {
                let got = sw.forward_train(in_port, train.clone(), downlink);
                let want = rf.forward_train(in_port, train, downlink);
                prop_assert_eq!(got, want);
            } else {
                for (at, fault) in &train {
                    let (LinkFault::Clean(c) | LinkFault::Corrupted(c)) = fault else {
                        continue;
                    };
                    prop_assert_eq!(sw.forward(in_port, *at, c), rf.forward(in_port, *at, c));
                }
            }
            assert_same_state(&sw, &rf);
        }
    }
}
