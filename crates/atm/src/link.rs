//! The point-to-point fiber link.
//!
//! The paper's hosts communicated "over a switchless private ATM
//! network" — two TCA-100s connected back to back with TAXI fiber at
//! 140 Mbit/s. The link model provides cell timing plus the error
//! processes of the §4.2.1 analysis:
//!
//! - **bit errors** at a configurable BER (the paper quotes fiber
//!   rates around 10⁻¹² — "one bit error in 3 hours" at 100 Mbit/s);
//! - **cell loss** (ATM "does not guarantee freedom from cell loss");
//! - a **controller-corruption** process modelling the paper's second
//!   error source (a buggy controller corrupting data between host
//!   and controller memory *after* the CRC is checked/before it is
//!   computed — the one class a link CRC cannot catch).

use simkit::{SimRng, SimTime};

use crate::cell::{Cell, CELL_SIZE};

/// Configuration of one fiber direction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Line rate in bits per second (TAXI: 140 Mbit/s).
    pub bit_rate: f64,
    /// One-way propagation delay.
    pub propagation: SimTime,
    /// Bit error rate (probability per transmitted bit).
    pub ber: f64,
    /// Independent whole-cell loss probability.
    pub cell_loss: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            bit_rate: 140e6,
            // A few tens of metres of fiber: ~0.2 µs.
            propagation: SimTime::from_ns(200),
            ber: 0.0,
            cell_loss: 0.0,
        }
    }
}

impl LinkConfig {
    /// Time for one 53-byte cell to serialize onto the wire.
    #[must_use]
    pub fn cell_time(&self) -> SimTime {
        SimTime::from_us_f64(CELL_SIZE as f64 * 8.0 / self.bit_rate * 1e6)
    }
}

/// What the link did to a cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkFault {
    /// Delivered unmodified.
    Clean(Cell),
    /// Delivered with one or more flipped bits.
    Corrupted(Cell),
    /// Dropped entirely.
    Lost,
}

/// One direction of the fiber.
#[derive(Clone, Debug)]
pub struct FiberLink {
    /// Link parameters.
    pub config: LinkConfig,
    rng: SimRng,
    /// Cells carried (including lost/corrupted).
    pub cells_carried: u64,
    /// Cells dropped by the loss process.
    pub cells_lost: u64,
    /// Cells delivered with bit corruption.
    pub cells_corrupted: u64,
    /// Optional Gilbert–Elliott burst-loss process (faultkit). When
    /// armed, burst drops are counted in `cells_lost` alongside the
    /// i.i.d. process; when absent the link behaves exactly as before
    /// (no extra RNG draws).
    pub burst: Option<faultkit::LossProcess>,
    /// Optional deterministic up/down schedule (faultkit). While the
    /// link is down every offered cell is dropped before the loss and
    /// error processes run; the flap itself consumes no RNG, so the
    /// drop decision is a pure function of the cell's wire-exit time.
    pub flap: Option<faultkit::FlapSchedule>,
    /// Cells dropped by the flap schedule (also counted in
    /// `cells_lost`).
    pub cells_flapped: u64,
    /// Raw-cell capture tap (`LinkCell`): every delivered 53-byte
    /// cell, stamped at its arrival time. Zero-cost unless armed.
    pub taps: simcap::TapSet,
}

impl FiberLink {
    /// Creates a link with the given config and deterministic seed.
    #[must_use]
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        FiberLink {
            config,
            rng: SimRng::seed_stream(seed, 0xa7),
            cells_carried: 0,
            cells_lost: 0,
            cells_corrupted: 0,
            burst: None,
            flap: None,
            cells_flapped: 0,
            taps: simcap::TapSet::off(),
        }
    }

    /// Arms a deterministic burst-loss process on this direction.
    pub fn arm_burst_loss(&mut self, model: faultkit::GilbertElliott, seed: u64) {
        self.burst = Some(faultkit::LossProcess::new(model, seed));
    }

    /// Arms a deterministic up/down schedule on this direction.
    pub fn arm_flap(&mut self, schedule: faultkit::FlapSchedule) {
        self.flap = Some(schedule);
    }

    /// Arrival time at the far adapter for a cell whose last bit left
    /// the sender's wire at `wire_exit`.
    #[must_use]
    pub fn arrival(&self, wire_exit: SimTime) -> SimTime {
        wire_exit + self.config.propagation
    }

    /// Carries the cell in `slot`, as the segmenter wrote it (`Clean`),
    /// whose last bit left the sender's wire at `wire_exit`: the slot
    /// is stamped with the cell's arrival at the far adapter and
    /// rewritten in place by the flap schedule, the burst-loss process,
    /// independent cell loss and bit errors, in that order. A
    /// delivered cell (clean or corrupted) then feeds the `LinkCell`
    /// capture tap with its 53 raw bytes at the arrival time.
    #[inline]
    pub fn carry(&mut self, wire_exit: SimTime, slot: &mut (SimTime, LinkFault)) {
        let (at, fault) = slot;
        *at = self.arrival(wire_exit);
        self.cells_carried += 1;
        if self.flap.as_ref().is_some_and(|f| f.is_down(wire_exit)) {
            self.cells_lost += 1;
            self.cells_flapped += 1;
            *fault = LinkFault::Lost;
            return;
        }
        if self
            .burst
            .as_mut()
            .is_some_and(faultkit::LossProcess::drop_next)
            || self.rng.chance(self.config.cell_loss)
        {
            self.cells_lost += 1;
            *fault = LinkFault::Lost;
            return;
        }
        let nbits = (CELL_SIZE * 8) as u64;
        let flips = self.rng.binomial_small_p(nbits, self.config.ber);
        if flips > 0 {
            let LinkFault::Clean(cell) = fault else {
                unreachable!("a cell as sent")
            };
            // Flip `flips` *distinct* bits (re-flipping the same bit
            // would undo the corruption).
            let mut chosen = [0u64; (CELL_SIZE * 8).div_ceil(64)];
            let mut flipped = 0;
            while flipped < flips && flipped < nbits {
                let bit = self.rng.next_below(nbits as u32) as usize;
                let (word, mask) = (bit / 64, 1u64 << (bit % 64));
                if chosen[word] & mask == 0 {
                    chosen[word] |= mask;
                    cell.flip_bit(bit);
                    flipped += 1;
                }
            }
            *fault = LinkFault::Corrupted(std::mem::replace(cell, Cell::BLANK));
            self.cells_corrupted += 1;
        }
        if self.taps.wants(simcap::TapPoint::LinkCell) {
            if let LinkFault::Clean(c) | LinkFault::Corrupted(c) = fault {
                self.taps
                    .record(simcap::TapPoint::LinkCell, *at, c.to_bytes().to_vec());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellHeader, CELL_PAYLOAD};

    fn a_cell() -> Cell {
        Cell::new(
            CellHeader {
                gfc: 0,
                vpi: 0,
                vci: 1,
                pt: 0,
                clp: false,
            },
            [0x5a; CELL_PAYLOAD],
        )
    }

    /// Carries [`a_cell`] leaving the wire at `wire_exit`; returns its
    /// arrival and what the link did to it.
    fn carry_at(link: &mut FiberLink, wire_exit: SimTime) -> (SimTime, LinkFault) {
        let mut slot = (SimTime::ZERO, LinkFault::Clean(a_cell()));
        link.carry(wire_exit, &mut slot);
        slot
    }

    /// [`carry_at`] at time zero, for the processes that do not look
    /// at the time.
    fn carry(link: &mut FiberLink) -> LinkFault {
        carry_at(link, SimTime::ZERO).1
    }

    #[test]
    fn flap_drops_only_inside_down_windows() {
        let mut link = FiberLink::new(LinkConfig::default(), 9);
        link.arm_flap(faultkit::FlapSchedule::new(
            SimTime::from_us(10),
            SimTime::from_us(100),
            SimTime::from_us(20),
        ));
        let (_, f) = carry_at(&mut link, SimTime::from_us(5));
        assert!(matches!(f, LinkFault::Clean(_)), "up before the window");
        let (at, f) = carry_at(&mut link, SimTime::from_us(15));
        assert!(matches!(f, LinkFault::Lost), "down inside [10, 30)");
        assert_eq!(
            at,
            link.arrival(SimTime::from_us(15)),
            "arrival still computed"
        );
        let (_, f) = carry_at(&mut link, SimTime::from_us(30));
        assert!(matches!(f, LinkFault::Clean(_)), "window end is up again");
        assert_eq!(link.cells_flapped, 1);
        assert_eq!(link.cells_lost, 1);
        assert_eq!(link.cells_carried, 3);
    }

    #[test]
    fn cell_time_at_taxi_rate() {
        let c = LinkConfig::default();
        let t = c.cell_time().as_us_f64();
        // 424 bits at 140 Mbit/s ≈ 3.03 µs.
        assert!((t - 3.03).abs() < 0.01, "{t}");
    }

    /// Tallies every [`LinkFault`] variant as a count — no variant is
    /// "unexpected", so no fault outcome can panic here.
    fn tally(link: &mut FiberLink, cells: usize) -> (u64, u64, u64) {
        let (mut clean, mut corrupted, mut lost) = (0u64, 0u64, 0u64);
        for _ in 0..cells {
            match carry(link) {
                LinkFault::Clean(c) => {
                    assert_eq!(c, a_cell());
                    clean += 1;
                }
                LinkFault::Corrupted(c) => {
                    assert_ne!(c, a_cell());
                    corrupted += 1;
                }
                LinkFault::Lost => lost += 1,
            }
        }
        (clean, corrupted, lost)
    }

    #[test]
    fn clean_link_delivers_everything() {
        let mut link = FiberLink::new(LinkConfig::default(), 1);
        let (clean, corrupted, lost) = tally(&mut link, 1000);
        assert_eq!((clean, corrupted, lost), (1000, 0, 0));
        assert_eq!(link.cells_lost, 0);
        assert_eq!(link.cells_corrupted, 0);
    }

    #[test]
    fn lossy_link_drops_at_rate() {
        let mut link = FiberLink::new(
            LinkConfig {
                cell_loss: 0.1,
                ..LinkConfig::default()
            },
            7,
        );
        let mut lost = 0;
        for _ in 0..10_000 {
            if carry(&mut link) == LinkFault::Lost {
                lost += 1;
            }
        }
        assert!((800..1200).contains(&lost), "{lost}");
        assert_eq!(link.cells_lost, lost as u64);
    }

    #[test]
    fn noisy_link_corrupts() {
        let mut link = FiberLink::new(
            LinkConfig {
                ber: 1e-3, // 424 bits/cell -> ~35% of cells hit.
                ..LinkConfig::default()
            },
            11,
        );
        let (clean, corrupted, lost) = tally(&mut link, 1000);
        assert!((200..500).contains(&corrupted), "{corrupted}");
        assert_eq!(clean + corrupted, 1000);
        assert_eq!(lost, 0, "no loss configured, every drop is counted");
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = LinkConfig {
            ber: 1e-4,
            cell_loss: 0.01,
            ..LinkConfig::default()
        };
        let run = |seed| {
            let mut link = FiberLink::new(cfg, seed);
            (0..500).map(|_| carry(&mut link)).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn burst_loss_process_drops_in_runs_and_counts() {
        let mut link = FiberLink::new(LinkConfig::default(), 1);
        link.arm_burst_loss(
            faultkit::GilbertElliott {
                p_good_to_bad: 0.02,
                p_bad_to_good: 0.1,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            9,
        );
        let (clean, corrupted, lost) = tally(&mut link, 10_000);
        assert_eq!(corrupted, 0);
        assert_eq!(clean + lost, 10_000);
        assert!(lost > 200, "bad state should drop cells: {lost}");
        assert_eq!(link.cells_lost, lost);
        assert_eq!(
            link.burst.as_ref().map(|b| b.cells_dropped),
            Some(lost),
            "all drops attributed to the burst process"
        );
    }

    #[test]
    fn arrival_adds_propagation() {
        let link = FiberLink::new(LinkConfig::default(), 1);
        let t = link.arrival(SimTime::from_us(10));
        assert_eq!(t, SimTime::from_us(10) + SimTime::from_ns(200));
    }
}
