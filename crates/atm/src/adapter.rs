//! The FORE TCA-100 TurboChannel ATM adapter model.
//!
//! §1.1: "The ATM network interface uses a memory mapped receive FIFO
//! that stores up to 292 53-byte ATM cells, and a similar transmit
//! FIFO that stores up to 36 cells. The transmit engine starts
//! reading from the transmit FIFO as soon as there is one complete
//! cell in the FIFO."
//!
//! Three behavioural consequences matter to the paper and are
//! reproduced here:
//!
//! 1. **Cut-through transmit.** Cells leave the wire while the host
//!    is still copying later cells in — so transmit wire time
//!    overlaps driver time, and the send-side checksum cannot be
//!    computed during the device copy (§4.1.1: the first cell is
//!    gone before the checksum of the whole packet is known).
//! 2. **TX FIFO backpressure.** A >36-cell packet can only be copied
//!    in as fast as the wire drains the FIFO, producing the
//!    nonlinear growth of the Table 2 ATM row.
//! 3. **Receive overlap.** Cells accumulate in the 292-cell RX FIFO
//!    while the sender is still transmitting; the driver's
//!    reassembly work for an earlier datagram overlaps the arrival
//!    of the next (the nonlinear Table 3 ATM row).
//!
//! The adapter model is pure state + timing arithmetic; the
//! simulation layer owns event scheduling.

use std::collections::VecDeque;

use simkit::SimTime;

use crate::cell::Cell;

/// TX FIFO capacity of the TCA-100, in cells.
pub const FORE_TX_FIFO_CELLS: usize = 36;

/// RX FIFO capacity of the TCA-100, in cells.
pub const FORE_RX_FIFO_CELLS: usize = 292;

/// Timing outcome of admitting one cell to the transmit FIFO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxAdmit {
    /// When the host could begin the programmed-I/O copy (delayed
    /// beyond the requested time iff the FIFO was full).
    pub copy_start: SimTime,
    /// When the cell is fully inside the FIFO.
    pub copy_end: SimTime,
    /// When the last bit of the cell leaves on the wire.
    pub wire_exit: SimTime,
}

/// The transmit FIFO with cut-through drain.
///
/// # Examples
///
/// ```
/// use atm::TxFifo;
/// use simkit::SimTime;
///
/// let cell_time = SimTime::from_ns(3029); // 53 B at 140 Mbit/s.
/// let mut tx = TxFifo::new(36, cell_time);
/// let a = tx.admit(SimTime::ZERO, SimTime::from_us(2));
/// // Wire transmission starts as soon as the first cell is in.
/// assert_eq!(a.wire_exit, a.copy_end + cell_time);
/// ```
#[derive(Clone, Debug)]
pub struct TxFifo {
    capacity: usize,
    cell_time: SimTime,
    /// Wire-exit times of cells still relevant for occupancy checks.
    exits: VecDeque<SimTime>,
    wire_busy_until: SimTime,
    /// Total cells ever admitted.
    pub cells_sent: u64,
    /// Total host time spent stalled on a full FIFO.
    pub stall_time: SimTime,
}

impl TxFifo {
    /// Creates an empty FIFO.
    #[must_use]
    pub fn new(capacity: usize, cell_time: SimTime) -> Self {
        assert!(capacity > 0, "FIFO capacity must be positive");
        TxFifo {
            capacity,
            cell_time,
            exits: VecDeque::new(),
            wire_busy_until: SimTime::ZERO,
            cells_sent: 0,
            stall_time: SimTime::ZERO,
        }
    }

    /// Admits one cell: the host is ready to start the copy at
    /// `ready` and the copy itself takes `copy_cost`. Returns the
    /// resolved timing. If the FIFO is full at `ready`, the copy is
    /// delayed until a slot frees (the host spins, as the real driver
    /// did).
    #[inline]
    pub fn admit(&mut self, ready: SimTime, copy_cost: SimTime) -> TxAdmit {
        // The cell occupies a slot from copy_end to wire_exit. With
        // `capacity` slots, cell k must wait for cell k-capacity to
        // exit the wire.
        let gate = if self.exits.len() >= self.capacity {
            self.exits[self.exits.len() - self.capacity]
        } else {
            SimTime::ZERO
        };
        let copy_start = ready.max(gate);
        if copy_start > ready {
            self.stall_time += copy_start - ready;
        }
        let copy_end = copy_start + copy_cost;
        let wire_start = copy_end.max(self.wire_busy_until);
        let wire_exit = wire_start + self.cell_time;
        self.wire_busy_until = wire_exit;
        self.exits.push_back(wire_exit);
        // Keep only what future occupancy checks can reference.
        while self.exits.len() > self.capacity {
            self.exits.pop_front();
        }
        self.cells_sent += 1;
        TxAdmit {
            copy_start,
            copy_end,
            wire_exit,
        }
    }
}

/// The receive FIFO.
///
/// Cells arrive from the link at their wire-arrival times; the driver
/// drains them under interrupt. A cell arriving into a full FIFO is
/// dropped and counted — the overflow path of the loss experiments.
/// A cell is stored only while a stalled drain leaves it waiting.
#[derive(Debug)]
pub struct RxFifo {
    capacity: usize,
    /// The cells a stalled drain left waiting, oldest first.
    backlog: VecDeque<Cell>,
    /// Cells dropped on overflow.
    pub overflow_drops: u64,
    /// Cells accepted.
    pub cells_received: u64,
}

impl RxFifo {
    /// Creates an empty FIFO of `capacity` cells.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        RxFifo {
            capacity,
            backlog: VecDeque::new(),
            overflow_drops: 0,
            cells_received: 0,
        }
    }

    /// A cell arrives; returns whether it was accepted. When `stalled`,
    /// an accepted cell waits in the FIFO. Otherwise the driver drains
    /// the whole FIFO under this interrupt, handing `service` each
    /// waiting cell, oldest first, and then the arriving one if it was
    /// accepted.
    #[inline]
    pub fn arrive(&mut self, cell: &Cell, stalled: bool, mut service: impl FnMut(&Cell)) -> bool {
        let accepted = self.backlog.len() < self.capacity;
        self.cells_received += u64::from(accepted);
        self.overflow_drops += u64::from(!accepted);
        if stalled && accepted {
            self.backlog.push_back(cell.clone());
        } else if !stalled {
            self.backlog.drain(..).for_each(|waiting| service(&waiting));
            if accepted {
                service(cell);
            }
        }
        accepted
    }

    /// Current occupancy.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.backlog.len()
    }
}

/// A complete TCA-100: one TX and one RX FIFO plus identity.
#[derive(Debug)]
pub struct ForeTca100 {
    /// Transmit side.
    pub tx: TxFifo,
    /// Receive side.
    pub rx: RxFifo,
}

impl ForeTca100 {
    /// Builds an adapter with the real FIFO depths for a link with
    /// the given cell time.
    #[must_use]
    pub fn new(cell_time: SimTime) -> Self {
        ForeTca100 {
            tx: TxFifo::new(FORE_TX_FIFO_CELLS, cell_time),
            rx: RxFifo::new(FORE_RX_FIFO_CELLS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellHeader, CELL_PAYLOAD};

    const CELL_TIME: SimTime = SimTime::from_ns(3_029);

    fn a_cell() -> Cell {
        cell_with(0)
    }

    fn cell_with(byte: u8) -> Cell {
        Cell::new(
            CellHeader {
                gfc: 0,
                vpi: 0,
                vci: 1,
                pt: 0,
                clp: false,
            },
            [byte; CELL_PAYLOAD],
        )
    }

    #[test]
    fn cut_through_first_cell() {
        let mut tx = TxFifo::new(36, CELL_TIME);
        let a = tx.admit(SimTime::from_us(10), SimTime::from_us(2));
        assert_eq!(a.copy_start, SimTime::from_us(10));
        assert_eq!(a.copy_end, SimTime::from_us(12));
        assert_eq!(a.wire_exit, SimTime::from_us(12) + CELL_TIME);
    }

    #[test]
    fn wire_serializes_cells() {
        let mut tx = TxFifo::new(36, CELL_TIME);
        // Copy is much faster than the wire: cells queue and the wire
        // paces them back to back.
        let copy = SimTime::from_ns(500);
        let first = tx.admit(SimTime::ZERO, copy);
        let mut prev_exit = first.wire_exit;
        for _ in 1..10 {
            let adm = tx.admit(SimTime::ZERO, copy);
            assert_eq!(adm.wire_exit, prev_exit + CELL_TIME);
            prev_exit = adm.wire_exit;
        }
    }

    #[test]
    fn full_fifo_backpressures_host() {
        let mut tx = TxFifo::new(4, CELL_TIME);
        let copy = SimTime::from_ns(100); // Host much faster than wire.
        let mut last = TxAdmit {
            copy_start: SimTime::ZERO,
            copy_end: SimTime::ZERO,
            wire_exit: SimTime::ZERO,
        };
        let mut exits = Vec::new();
        for _ in 0..10 {
            last = tx.admit(last.copy_end, copy);
            exits.push(last.wire_exit);
        }
        // The 5th cell (index 4) could not start copying before cell
        // 0 exited the wire.
        assert!(tx.stall_time > SimTime::ZERO);
        // The final exit is wire-limited: ~10 cell times.
        assert!(exits[9] >= CELL_TIME * 10);
    }

    #[test]
    fn large_fifo_never_stalls_small_bursts() {
        let mut tx = TxFifo::new(36, CELL_TIME);
        let mut t = SimTime::ZERO;
        for _ in 0..36 {
            let adm = tx.admit(t, SimTime::from_ns(100));
            assert_eq!(adm.copy_start, t, "no stall within capacity");
            t = adm.copy_end;
        }
        assert_eq!(tx.stall_time, SimTime::ZERO);
    }

    /// Feeds `cells` to `rx`, stalled where `stalls` says; returns
    /// the first payload byte of each cell serviced, in order.
    fn feed(rx: &mut RxFifo, cells: impl IntoIterator<Item = (u8, bool)>) -> Vec<u8> {
        let mut serviced = Vec::new();
        for (byte, stalled) in cells {
            let _ = rx.arrive(&cell_with(byte), stalled, |c| serviced.push(c.payload()[0]));
        }
        serviced
    }

    #[test]
    fn rx_fifo_services_each_cell_once_in_arrival_order() {
        let mut rx = RxFifo::new(292);
        // Every third arrival finds the drain unstalled.
        let serviced = feed(&mut rx, (0..100u8).map(|i| (i, i % 3 != 2)));
        assert_eq!(serviced, (0..99).collect::<Vec<u8>>());
        // The last arrival's cell waits in the FIFO.
        assert_eq!(rx.occupancy(), 1);
        assert_eq!(feed(&mut rx, [(100, false)]), [99, 100]);
        assert_eq!(rx.occupancy(), 0);
        assert_eq!(rx.cells_received, 101);
        assert_eq!(rx.overflow_drops, 0);
    }

    #[test]
    fn rx_fifo_overflow_drops() {
        let mut rx = RxFifo::new(4);
        assert!(feed(&mut rx, (0..6).map(|i| (i, true))).is_empty());
        assert_eq!(rx.occupancy(), 4);
        assert_eq!(rx.overflow_drops, 2);
        // An overflowing arrival still drains the backlog.
        let mut serviced = 0;
        assert!(!rx.arrive(&a_cell(), false, |_| serviced += 1));
        assert_eq!(serviced, 4);
        assert_eq!(rx.overflow_drops, 3);
        assert_eq!(rx.occupancy(), 0);
        assert_eq!(feed(&mut rx, [(9, false)]), [9]);
        assert_eq!(rx.cells_received, 5);
    }

    #[test]
    fn zero_capacity_rx_fifo_drops_every_cell() {
        let mut rx = RxFifo::new(0);
        assert!(feed(&mut rx, (0..5).map(|i| (i, i % 2 == 0))).is_empty());
        assert_eq!((rx.cells_received, rx.overflow_drops), (0, 5));
    }

    #[test]
    fn fore_depths() {
        let adapter = ForeTca100::new(CELL_TIME);
        // 9 KB MTU fits in the RX FIFO: 9188+8 CPCS bytes = 209 cells.
        let mtu_cells = crate::Aal34Segmenter::cells_for(9188);
        assert!(mtu_cells < FORE_RX_FIFO_CELLS);
        drop(adapter);
        assert_eq!(FORE_TX_FIFO_CELLS, 36);
        assert_eq!(FORE_RX_FIFO_CELLS, 292);
    }
}
