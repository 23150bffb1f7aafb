//! An output-queued ATM switch.
//!
//! The paper's testbed was a *switchless* private fiber, but its
//! §4.2.1 analysis reasons about switched paths: the first potential
//! error source is "errors introduced by switches in transferring
//! data between their input and output ports", and the defence is
//! that "AAL payload checksums are end-to-end, i.e., intermediate
//! switches do not recompute the checksum". This model lets the
//! reproduction quantify both halves of that argument:
//!
//! - cells are forwarded through a **VC table** (VPI/VCI rewriting,
//!   with the HEC recomputed for the new header — header protection
//!   is hop-by-hop, so a cell whose HEC fails on ingress is discarded
//!   and counted in `hec_drops`, as the NIC does);
//! - the **payload is carried untouched** — a corruption injected by
//!   the fabric is invisible to the switch itself and must be caught
//!   by the end-to-end AAL CRC;
//! - cells pay a fixed **switching latency** plus **output-queue**
//!   serialization at the port's line rate, with tail drop beyond the
//!   queue's capacity.
//!
//! The header work is done once per train, not once per cell. The
//! switch remembers the last header it validated: its in-port and
//! all five octets as they arrived, HEC included, with the route, the
//! train slot and the rewritten five octets they resolved to. A cell
//! whose header octets equal that key is the same validated header:
//! its HEC holds, it decodes to the same VPI/VCI/PT/CLP and so finds
//! the same route, and its rewrite is the same five octets. Only
//! [`AtmSwitch::add_vc`] can change what a header resolves to, and it
//! clears the memo. A damaged header differs from the key in some
//! octet, so it still meets the HEC check.

use std::collections::hash_map::Entry;

use simkit::{FxHashMap, SimRng, SimTime};

use crate::cell::{Cell, CellHeader};
use crate::link::LinkFault;

/// Route entry: where a VC leaves the switch and as what.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VcRoute {
    /// Output port.
    pub out_port: usize,
    /// Outgoing VPI.
    pub out_vpi: u8,
    /// Outgoing VCI.
    pub out_vci: u16,
}

/// What a UBR output queue does when cells press against its
/// capacity.
///
/// On UBR there is no reservation: when TCP overruns a queue, the
/// switch's only lever is *which* cells it throws away. Tail drop
/// judges each cell alone and so tends to clip cells out of the middle
/// of AAL3/4 trains — every surviving sibling of a clipped cell is
/// then wasted bandwidth, because the reassembler drops the PDU at the
/// sequence-number gap anyway. The packet-aware policies avoid exactly
/// that waste. They find a train's end in the SAR header: segment type
/// EOM or SSM (bit 6 of the first payload byte).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DropPolicy {
    /// Plain tail drop (the seed behaviour): each cell is judged
    /// alone against the queue capacity.
    #[default]
    Tail,
    /// Early Packet Discard: when a *new* train's first cell
    /// arrives and the backlog has reached `threshold_cells`, the
    /// whole train — every cell through its end-of-PDU marker — is
    /// refused before any of it commits queue space.
    Epd {
        /// Backlog (in cells) at or beyond which new trains are
        /// refused. Sensible values sit below `queue_cells` by at
        /// least one PDU's worth of cells.
        threshold_cells: usize,
    },
    /// Partial Packet Discard: once one cell of a train is lost to a
    /// full queue, the train's remaining cells are discarded too —
    /// they could only waste downstream bandwidth on a PDU the
    /// reassembler will reject — except the end-of-PDU marker, which is
    /// forwarded so the reassembler still sees the PDU boundary and
    /// does not merge the ruined train into the next one.
    Ppd,
}

impl DropPolicy {
    /// Short lowercase name for table keys and CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DropPolicy::Tail => "tail",
            DropPolicy::Epd { .. } => "epd",
            DropPolicy::Ppd => "ppd",
        }
    }
}

/// Configuration of a switch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwitchConfig {
    /// Fixed fabric transit latency per cell.
    pub latency: SimTime,
    /// Cell serialization time on each output port (line rate).
    pub cell_time: SimTime,
    /// Output queue capacity in cells (tail drop beyond).
    pub queue_cells: usize,
    /// Probability that the fabric corrupts a payload bit in a cell —
    /// the §4.2.1 error source #1.
    pub corrupt_prob: f64,
    /// Cell-drop policy at the output queues.
    pub drop_policy: DropPolicy,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            // A first-generation ATM switch: ~10 µs port-to-port.
            latency: SimTime::from_us(10),
            // 140 Mbit/s TAXI ports.
            cell_time: SimTime::from_ns(3_029),
            queue_cells: 256,
            corrupt_prob: 0.0,
            drop_policy: DropPolicy::Tail,
        }
    }
}

/// Per-output-port contention counters, exposed so fan-in studies can
/// see *where* queueing happened rather than only switch-wide totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Cells serialized out of this port.
    pub forwarded: u64,
    /// Cells tail-dropped at this port's full queue.
    pub queue_drops: u64,
    /// Cells discarded by Early Packet Discard (whole refused trains).
    pub epd_drops: u64,
    /// Cells discarded by Partial Packet Discard (train remainders
    /// after a tail-dropped cell).
    pub ppd_drops: u64,
    /// Largest queue occupancy (in cells) seen at any arrival.
    pub max_backlog_cells: usize,
}

/// Per-output-port queue state.
#[derive(Clone, Debug, Default)]
struct OutPort {
    busy_until: SimTime,
    stats: PortStats,
}

/// What the switch did with a cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwitchOutcome {
    /// Forwarded: leaves `out_port` fully serialized at `departure`.
    Forwarded {
        /// Output port.
        out_port: usize,
        /// Time the last bit leaves the output port.
        departure: SimTime,
        /// The (possibly rewritten, possibly corrupted) cell.
        cell: Cell,
    },
    /// The header failed its HEC on ingress: cell discarded.
    HeaderError,
    /// No VC table entry: cell discarded.
    UnknownVc,
    /// Output queue full: tail drop.
    QueueFull,
    /// Discarded by the packet-aware drop policy (EPD refusing a new
    /// train, or PPD dropping the remainder of a ruined one).
    Discarded,
}

/// Per-VC train tracking for the packet-aware drop policies.
#[derive(Clone, Copy, Debug, Default)]
struct TrainState {
    /// A train has started (some cell seen) and its end-of-PDU marker
    /// has not yet arrived.
    mid_train: bool,
    /// The rest of this train is being discarded.
    discarding: bool,
}

/// What one validated ingress header resolved to.
#[derive(Clone, Copy, Debug)]
struct Resolved {
    route: VcRoute,
    /// Index of the VC's [`TrainState`].
    slot: usize,
    /// The outgoing header octets: VPI/VCI rewritten, fresh HEC.
    out_header: [u8; 5],
}

/// The switch.
pub struct AtmSwitch {
    /// Configuration.
    pub config: SwitchConfig,
    /// Route and train slot of each `(in_port, vpi, vci)`.
    routes: FxHashMap<(usize, u8, u16), (VcRoute, usize)>,
    ports: Vec<OutPort>,
    trains: Vec<TrainState>,
    /// The last validated header: `(in_port, octets)` and what it
    /// resolved to (see the module docs).
    memo: Option<((usize, [u8; 5]), Resolved)>,
    rng: SimRng,
    /// Cells forwarded.
    pub forwarded: u64,
    /// Cells discarded on ingress for HEC (header CRC) failures.
    pub hec_drops: u64,
    /// Cells dropped for unknown VCs.
    pub unknown_vc_drops: u64,
    /// Cells dropped on full output queues.
    pub queue_drops: u64,
    /// Cells discarded by Early Packet Discard.
    pub epd_drops: u64,
    /// Cells discarded by Partial Packet Discard.
    pub ppd_drops: u64,
    /// Cells whose payload the fabric corrupted (invisibly).
    pub corrupted: u64,
}

impl AtmSwitch {
    /// Creates a switch with `n_ports` ports.
    #[must_use]
    pub fn new(n_ports: usize, config: SwitchConfig, seed: u64) -> Self {
        AtmSwitch {
            config,
            routes: FxHashMap::default(),
            ports: vec![OutPort::default(); n_ports],
            trains: Vec::new(),
            memo: None,
            rng: SimRng::seed_stream(seed, 0x5c),
            forwarded: 0,
            hec_drops: 0,
            unknown_vc_drops: 0,
            queue_drops: 0,
            epd_drops: 0,
            ppd_drops: 0,
            corrupted: 0,
        }
    }

    /// Installs a VC: cells arriving on `in_port` with `(vpi, vci)`
    /// leave via `route`.
    pub fn add_vc(&mut self, in_port: usize, vpi: u8, vci: u16, route: VcRoute) {
        assert!(route.out_port < self.ports.len(), "output port exists");
        match self.routes.entry((in_port, vpi, vci)) {
            // A re-routed VC keeps its train state.
            Entry::Occupied(mut e) => e.get_mut().0 = route,
            Entry::Vacant(e) => {
                e.insert((route, self.trains.len()));
                self.trains.push(TrainState::default());
            }
        }
        self.memo = None;
    }

    /// Validates and routes the header of a cell arriving on
    /// `in_port`, or says why the cell is discarded. A header equal to
    /// the memo skips the HEC check, the lookup and the re-encode.
    fn resolve(&mut self, in_port: usize, cell: &Cell) -> Result<Resolved, SwitchOutcome> {
        let key = (in_port, cell.header_bytes());
        if let Some((k, r)) = self.memo {
            if k == key {
                return Ok(r);
            }
        }
        // Header protection is hop-by-hop: check the HEC on ingress, as
        // the NIC does, before the header steers anything. `admit`
        // stamps a fresh HEC, so a damaged header that got past here
        // would leave the switch looking clean.
        if !cell.header_ok() {
            self.hec_drops += 1;
            return Err(SwitchOutcome::HeaderError);
        }
        let h = cell.header();
        let Some(&(route, slot)) = self.routes.get(&(in_port, h.vpi, h.vci)) else {
            self.unknown_vc_drops += 1;
            return Err(SwitchOutcome::UnknownVc);
        };
        let out_header = CellHeader {
            vpi: route.out_vpi,
            vci: route.out_vci,
            ..h
        }
        .encode5();
        let r = Resolved {
            route,
            slot,
            out_header,
        };
        self.memo = Some((key, r));
        Ok(r)
    }

    /// Forwards one cell arriving on `in_port` at `arrival`.
    pub fn forward(&mut self, in_port: usize, arrival: SimTime, cell: &Cell) -> SwitchOutcome {
        let mut cell = cell.clone();
        match self.pass(in_port, arrival, &mut cell) {
            Ok((out_port, departure)) => SwitchOutcome::Forwarded {
                out_port,
                departure,
                cell,
            },
            Err(dropped) => dropped,
        }
    }

    /// The one cell path: admits `cell`, rewritten in place, and
    /// returns its output port and departure, or says why it was
    /// discarded.
    fn pass(
        &mut self,
        in_port: usize,
        arrival: SimTime,
        cell: &mut Cell,
    ) -> Result<(usize, SimTime), SwitchOutcome> {
        let r = self.resolve(in_port, cell)?;
        let route = r.route;
        let port = &mut self.ports[route.out_port];
        // Queue occupancy at arrival: cells not yet serialized.
        let backlog = port
            .busy_until
            .saturating_since(arrival)
            .as_ns()
            .div_ceil(self.config.cell_time.as_ns().max(1)) as usize;
        port.stats.max_backlog_cells = port.stats.max_backlog_cells.max(backlog);
        let policy = self.config.drop_policy;
        if policy == DropPolicy::Tail {
            // The seed path: each cell judged alone, no train state
            // touched (per-VC tracking exists only for the
            // packet-aware policies).
            if backlog >= self.config.queue_cells {
                return Err(self.tail_drop(route.out_port));
            }
            return Ok(self.admit(r, arrival, cell));
        }

        // SAR segment type EOM (0b01) or SSM (0b11): bit 6 of the
        // first payload byte.
        let eom = cell.payload()[0] & 0x40 != 0;
        let mut train = self.trains[r.slot];
        // EPD decides at a train's first cell, before any of it
        // commits queue space.
        if let DropPolicy::Epd { threshold_cells } = policy {
            if !train.mid_train && backlog >= threshold_cells {
                train.discarding = true;
            }
        }
        let discarding = train.discarding;
        // The end-of-PDU cell closes the train either way.
        train.mid_train = !eom;
        if eom {
            train.discarding = false;
        }

        if discarding {
            // PPD forwards the marker so the reassembler still sees
            // the PDU boundary; EPD refused the whole train, marker
            // included. The marker is admitted even at a full queue —
            // one cell of headroom spent on keeping PDU boundaries
            // intact, as switches that reserve slots for end-of-PDU
            // cells do.
            self.trains[r.slot] = train;
            if policy == DropPolicy::Ppd && eom {
                return Ok(self.admit(r, arrival, cell));
            }
            return Err(self.policy_drop(policy, route.out_port));
        }
        if backlog >= self.config.queue_cells {
            // Overflow on a committed train: its queued cells are
            // already wasted downstream, so discard the remainder
            // too rather than spend more line time on it (PPD
            // behaviour; EPD switches fall back to the same rule).
            if !eom {
                train.discarding = true;
            }
            self.trains[r.slot] = train;
            return Err(self.tail_drop(route.out_port));
        }
        self.trains[r.slot] = train;
        Ok(self.admit(r, arrival, cell))
    }

    /// Forwards one timed cell train arriving on `in_port` — the
    /// uplink train a NIC staged — and times each forwarded cell at
    /// the destination adapter, `downlink` after it leaves the output
    /// port. Cells lost upstream stay lost, cells the switch drops
    /// become lost, and a forwarded cell is rewritten in place and
    /// labeled `Corrupted` exactly when the fabric flipped one of its
    /// payload bits on this pass.
    ///
    /// Returns the train with the arrival time of its last delivered
    /// cell, or `None` when no cell got through (nothing arrives, so
    /// no interrupt fires).
    pub fn forward_train(
        &mut self,
        in_port: usize,
        mut train: Vec<(SimTime, LinkFault)>,
        downlink: SimTime,
    ) -> Option<(SimTime, Vec<(SimTime, LinkFault)>)> {
        let mut last = None;
        for (at, fault) in &mut train {
            let (LinkFault::Clean(c) | LinkFault::Corrupted(c)) = fault else {
                continue;
            };
            let hits = self.corrupted;
            match self.pass(in_port, *at, c) {
                Ok((_, departure)) => {
                    *at = departure + downlink;
                    last = last.max(Some(*at));
                    // `admit` counts each payload bit it flips.
                    if (self.corrupted != hits) != matches!(fault, LinkFault::Corrupted(_)) {
                        relabel(fault);
                    }
                }
                Err(_) => *fault = LinkFault::Lost,
            }
        }
        last.map(|t| (t, train))
    }

    /// Tail-drops a cell at a full output queue.
    fn tail_drop(&mut self, out_port: usize) -> SwitchOutcome {
        self.queue_drops += 1;
        self.ports[out_port].stats.queue_drops += 1;
        SwitchOutcome::QueueFull
    }

    /// Discards a cell under the packet-aware policy in force.
    fn policy_drop(&mut self, policy: DropPolicy, out_port: usize) -> SwitchOutcome {
        if matches!(policy, DropPolicy::Epd { .. }) {
            self.epd_drops += 1;
            self.ports[out_port].stats.epd_drops += 1;
        } else {
            self.ppd_drops += 1;
            self.ports[out_port].stats.ppd_drops += 1;
        }
        SwitchOutcome::Discarded
    }

    /// Admits a cell to an output queue: VPI/VCI rewrite, optional
    /// fabric corruption, serialization scheduling.
    fn admit(&mut self, r: Resolved, arrival: SimTime, cell: &mut Cell) -> (usize, SimTime) {
        // VPI/VCI rewrite with a fresh HEC (header protection is
        // hop-by-hop); the payload is carried through untouched.
        let route = r.route;
        cell.set_header(r.out_header);
        if self.rng.chance(self.config.corrupt_prob) {
            // Fabric corruption: a payload bit, after the HEC was
            // computed — exactly what an end-to-end AAL CRC exists
            // to catch.
            let bit = 40 + self.rng.next_below(48 * 8) as usize;
            cell.flip_bit(bit);
            self.corrupted += 1;
        }
        let port = &mut self.ports[route.out_port];
        let start = (arrival + self.config.latency).max(port.busy_until);
        let departure = start + self.config.cell_time;
        port.busy_until = departure;
        port.stats.forwarded += 1;
        self.forwarded += 1;
        (route.out_port, departure)
    }

    /// Number of ports.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports.len()
    }

    /// Contention counters for one output port.
    #[must_use]
    pub fn port_stats(&self, port: usize) -> PortStats {
        self.ports[port].stats
    }
}

/// Swaps a delivered cell's label between `Clean` and `Corrupted`.
fn relabel(fault: &mut LinkFault) {
    *fault = match std::mem::replace(fault, LinkFault::Lost) {
        LinkFault::Clean(c) => LinkFault::Corrupted(c),
        LinkFault::Corrupted(c) => LinkFault::Clean(c),
        LinkFault::Lost => LinkFault::Lost,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CELL_PAYLOAD;

    fn cell(vci: u16) -> Cell {
        Cell::new(
            CellHeader {
                gfc: 0,
                vpi: 0,
                vci,
                pt: 0,
                clp: false,
            },
            [0x5a; CELL_PAYLOAD],
        )
    }

    fn switch() -> AtmSwitch {
        let mut sw = AtmSwitch::new(4, SwitchConfig::default(), 1);
        sw.add_vc(
            0,
            0,
            42,
            VcRoute {
                out_port: 1,
                out_vpi: 0,
                out_vci: 77,
            },
        );
        sw
    }

    #[test]
    fn forwards_and_rewrites() {
        let mut sw = switch();
        let out = sw.forward(0, SimTime::from_us(100), &cell(42));
        let SwitchOutcome::Forwarded {
            out_port,
            departure,
            cell: c,
        } = out
        else {
            panic!("{out:?}")
        };
        assert_eq!(out_port, 1);
        assert_eq!(c.header().vci, 77, "VCI rewritten");
        assert!(c.header_ok(), "HEC recomputed for the new header");
        assert_eq!(c.payload(), cell(42).payload(), "payload untouched");
        assert_eq!(
            departure,
            SimTime::from_us(110) + SwitchConfig::default().cell_time
        );
    }

    #[test]
    fn train_pass_times_delivered_cells_and_drops_dead_trains() {
        let mut sw = switch();
        let down = SimTime::from_us(5);
        let t = SimTime::from_us(100);
        let train = vec![
            (t, LinkFault::Clean(cell(42))),
            (t, LinkFault::Lost),
            (t, LinkFault::Clean(cell(99))),
        ];
        let (last, out) = sw
            .forward_train(0, train, down)
            .expect("one cell got through");
        let departure = t + SwitchConfig::default().latency + SwitchConfig::default().cell_time;
        assert_eq!(last, departure + down);
        assert!(
            matches!(&out[0], (at, LinkFault::Clean(c)) if *at == last && c.header().vci == 77)
        );
        assert!(matches!(out[1], (at, LinkFault::Lost) if at == t));
        assert!(
            matches!(out[2], (at, LinkFault::Lost) if at == t),
            "unknown VC"
        );
        let dead = vec![(t, LinkFault::Lost), (t, LinkFault::Clean(cell(99)))];
        assert!(sw.forward_train(0, dead, down).is_none(), "nothing arrives");
    }

    #[test]
    fn unknown_vc_dropped() {
        let mut sw = switch();
        assert_eq!(
            sw.forward(0, SimTime::ZERO, &cell(99)),
            SwitchOutcome::UnknownVc
        );
        assert_eq!(sw.unknown_vc_drops, 1);
    }

    #[test]
    fn output_queue_serializes() {
        let mut sw = switch();
        let t = SimTime::from_us(1);
        let d1 = match sw.forward(0, t, &cell(42)) {
            SwitchOutcome::Forwarded { departure, .. } => departure,
            o => panic!("{o:?}"),
        };
        let d2 = match sw.forward(0, t, &cell(42)) {
            SwitchOutcome::Forwarded { departure, .. } => departure,
            o => panic!("{o:?}"),
        };
        assert_eq!(d2, d1 + SwitchConfig::default().cell_time);
    }

    #[test]
    fn queue_overflow_tail_drops() {
        let mut sw = AtmSwitch::new(
            2,
            SwitchConfig {
                queue_cells: 4,
                ..SwitchConfig::default()
            },
            2,
        );
        sw.add_vc(
            0,
            0,
            42,
            VcRoute {
                out_port: 1,
                out_vpi: 0,
                out_vci: 42,
            },
        );
        let t = SimTime::from_us(1);
        let mut drops = 0;
        for _ in 0..10 {
            if sw.forward(0, t, &cell(42)) == SwitchOutcome::QueueFull {
                drops += 1;
            }
        }
        assert!(drops > 0, "a burst into one port must tail-drop");
        assert_eq!(sw.queue_drops, drops);
        let ps = sw.port_stats(1);
        assert_eq!(ps.queue_drops, drops);
        assert_eq!(ps.forwarded, 10 - drops);
        // The backlog figure counts whole cell-times of busy port
        // ahead of the arrival — the fixed switch latency included —
        // so at the first drop it is at least the queue capacity.
        assert!(ps.max_backlog_cells >= 4, "drops only past capacity");
        assert_eq!(
            sw.port_stats(0),
            PortStats::default(),
            "idle port untouched"
        );
    }

    /// A switch with a tiny queue and the given policy, one VC 42 on
    /// port 0 → port 1.
    fn tiny_switch(policy: DropPolicy, queue_cells: usize) -> AtmSwitch {
        let mut sw = AtmSwitch::new(
            2,
            SwitchConfig {
                queue_cells,
                drop_policy: policy,
                ..SwitchConfig::default()
            },
            7,
        );
        sw.add_vc(
            0,
            0,
            42,
            VcRoute {
                out_port: 1,
                out_vpi: 0,
                out_vci: 42,
            },
        );
        sw
    }

    /// Sends an `n`-cell AAL3/4 train at `t` (`44n - 8` bytes: 44 per
    /// SAR payload, less the CPCS header and trailer), returning the
    /// outcomes. Every cell carries PT 0: its end is in the SAR header.
    fn send_train(sw: &mut AtmSwitch, t: SimTime, n: usize) -> Vec<SwitchOutcome> {
        let data = vec![0xa5; n * 44 - 8];
        let cells = crate::aal34::Aal34Segmenter::new(0, 42, 1).segment(&data);
        assert_eq!(cells.len(), n);
        cells.iter().map(|c| sw.forward(0, t, c)).collect()
    }

    #[test]
    fn epd_refuses_a_whole_train_at_threshold() {
        let mut sw = tiny_switch(DropPolicy::Epd { threshold_cells: 2 }, 64);
        let t = SimTime::from_us(1);
        // First train of 4 commits (backlog 0 < 2 at its first cell).
        let first = send_train(&mut sw, t, 4);
        assert!(first
            .iter()
            .all(|o| matches!(o, SwitchOutcome::Forwarded { .. })));
        // Second train arrives with 4 cells backlogged: refused whole,
        // marker included.
        let second = send_train(&mut sw, t, 4);
        assert!(second.iter().all(|o| *o == SwitchOutcome::Discarded));
        assert_eq!(sw.epd_drops, 4);
        assert_eq!(sw.port_stats(1).epd_drops, 4);
        assert_eq!(sw.queue_drops, 0, "EPD refuses before tail drop");
        // A later train, once the queue drains, commits again.
        let later = send_train(&mut sw, SimTime::from_ms(10), 4);
        assert!(later
            .iter()
            .all(|o| matches!(o, SwitchOutcome::Forwarded { .. })));
    }

    #[test]
    fn ppd_drops_remainder_but_keeps_the_marker() {
        let mut sw = tiny_switch(DropPolicy::Ppd, 4);
        let t = SimTime::from_us(1);
        let outs = send_train(&mut sw, t, 10);
        // Some prefix forwards, one cell tail-drops, the remainder is
        // policy-discarded — except the final marker cell, forwarded
        // to delimit the ruined PDU.
        let first_loss = outs
            .iter()
            .position(|o| *o == SwitchOutcome::QueueFull)
            .expect("a 10-cell train into a 4-cell queue must drop");
        for (i, o) in outs.iter().enumerate() {
            match i {
                _ if i < first_loss => {
                    assert!(
                        matches!(o, SwitchOutcome::Forwarded { .. }),
                        "cell {i}: {o:?}"
                    );
                }
                _ if i == first_loss => {}
                _ if i < outs.len() - 1 => {
                    assert_eq!(*o, SwitchOutcome::Discarded, "cell {i}");
                }
                _ => {
                    assert!(
                        matches!(o, SwitchOutcome::Forwarded { .. }),
                        "end-of-PDU marker forwarded: {o:?}"
                    );
                }
            }
        }
        assert_eq!(sw.queue_drops, 1, "only the first lost cell tail-drops");
        assert_eq!(sw.ppd_drops as usize, outs.len() - first_loss - 2);
        assert_eq!(sw.port_stats(1).ppd_drops, sw.ppd_drops);
        // The next train starts with a clean slate (one cell: the
        // fixed latency counts toward backlog, so same-instant bursts
        // into this tiny queue would tail-drop on their own).
        let next = send_train(&mut sw, SimTime::from_ms(10), 1);
        assert!(matches!(next[0], SwitchOutcome::Forwarded { .. }));
    }

    #[test]
    fn epd_single_cell_train_refusal_resets_state() {
        let mut sw = tiny_switch(DropPolicy::Epd { threshold_cells: 1 }, 64);
        let t = SimTime::from_us(1);
        assert!(matches!(
            send_train(&mut sw, t, 1)[0],
            SwitchOutcome::Forwarded { .. }
        ));
        // Backlog now 1 >= threshold: single-cell train refused.
        assert_eq!(send_train(&mut sw, t, 1)[0], SwitchOutcome::Discarded);
        // Drained: forwarded again — the refusal did not wedge the VC.
        assert!(matches!(
            send_train(&mut sw, SimTime::from_ms(5), 1)[0],
            SwitchOutcome::Forwarded { .. }
        ));
        assert_eq!(sw.epd_drops, 1);
    }

    #[test]
    fn drop_policy_names() {
        assert_eq!(DropPolicy::Tail.name(), "tail");
        assert_eq!(DropPolicy::Epd { threshold_cells: 8 }.name(), "epd");
        assert_eq!(DropPolicy::Ppd.name(), "ppd");
        assert_eq!(SwitchConfig::default().drop_policy, DropPolicy::Tail);
    }

    #[test]
    fn fabric_corruption_keeps_header_valid() {
        let mut sw = AtmSwitch::new(
            2,
            SwitchConfig {
                corrupt_prob: 1.0,
                ..SwitchConfig::default()
            },
            3,
        );
        sw.add_vc(
            0,
            0,
            42,
            VcRoute {
                out_port: 1,
                out_vpi: 0,
                out_vci: 42,
            },
        );
        let SwitchOutcome::Forwarded { cell: c, .. } = sw.forward(0, SimTime::ZERO, &cell(42))
        else {
            panic!()
        };
        assert!(c.header_ok(), "corruption hits the payload, not the header");
        assert_ne!(c.payload(), cell(42).payload());
        assert_eq!(sw.corrupted, 1);
    }

    /// A cell whose header arrives damaged is discarded on ingress and
    /// counted; it is not routed and re-stamped with a fresh HEC. The
    /// damage here is the CLP bit, which leaves the VC lookup intact.
    #[test]
    fn header_corrupted_cell_is_dropped_on_ingress() {
        let mut sw = AtmSwitch::new(2, SwitchConfig::default(), 1);
        sw.add_vc(
            0,
            0,
            42,
            VcRoute {
                out_port: 1,
                out_vpi: 0,
                out_vci: 42,
            },
        );
        let mut bad = cell(42);
        bad.flip_bit(31); // CLP: the last bit of the fourth octet.
        assert!(!bad.header_ok());
        let train = vec![
            (SimTime::ZERO, LinkFault::Clean(cell(42))),
            (SimTime::ZERO, LinkFault::Corrupted(bad)),
        ];
        let (_, out) = sw
            .forward_train(0, train, SimTime::ZERO)
            .expect("the clean cell gets through");
        assert!(matches!(&out[0].1, LinkFault::Clean(c) if c.header_ok()));
        assert_eq!(out[1].1, LinkFault::Lost);
        assert_eq!(sw.hec_drops, 1);
        assert_eq!(sw.forwarded, 1);
    }
}
