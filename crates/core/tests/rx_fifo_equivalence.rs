//! `atm_receive` against a reference receive path that pushes every
//! delivered cell through a plain `VecDeque` FIFO and drains the whole
//! FIFO into the reassembler at every unstalled arrival.
//!
//! Random trains mix clean cells, lost cells, cells corrupted in the
//! payload (the CRC-10 catches them) and cells corrupted in the header
//! (the HEC catches them), on RX FIFOs of 0, 1, 8 and 292 cells, with
//! random contention stalls whose backlog can outlive one
//! `atm_receive` call. The datagrams delivered, in order, the AAL and
//! HEC drop counts, the FIFO's counters and final occupancy, and the
//! cells charged to the driver on every call must all match the
//! reference.

use std::collections::VecDeque;

use atm::{Aal34Error, Aal34Reassembler, Aal34Segmenter, Cell, FiberLink, LinkConfig, LinkFault};
use decstation::CostModel;
use faultkit::{ContentionCfg, ContentionProcess};
use latency_core::nic::{atm_receive, AtmNic};
use proptest::prelude::*;
use simkit::SimTime;
use tcpip::{Kernel, StackConfig};

/// What the link does to a cell, drawn as `(kind, bit)`: of 15
/// kinds, 12 deliver it clean, one loses it, one flips payload bit
/// 40 + `bit` % 384 (the CRC-10's to catch) and one flips header bit
/// `bit` % 40 (the HEC's to catch).
fn deal(cell: Cell, (kind, bit): (u8, usize)) -> LinkFault {
    let mut cell = cell;
    match kind {
        12 => LinkFault::Lost,
        13 => {
            cell.flip_bit(40 + bit % 384);
            LinkFault::Corrupted(cell)
        }
        14 => {
            cell.flip_bit(bit % 40);
            LinkFault::Corrupted(cell)
        }
        _ => LinkFault::Clean(cell),
    }
}

/// The receive path as it was specified: every delivered cell enters
/// the FIFO (or overflows it), and an unstalled arrival drains the
/// whole FIFO into the reassembler.
struct Reference {
    fifo: VecDeque<Cell>,
    capacity: usize,
    contention: Option<ContentionProcess>,
    reasm: Aal34Reassembler,
    datagrams: Vec<Vec<u8>>,
    aal_drops: u64,
    hec_drops: u64,
    cells_received: u64,
    overflow_drops: u64,
}

impl Reference {
    /// One receive interrupt; returns the cells charged to the driver.
    fn receive(&mut self, train: &[(SimTime, LinkFault)]) -> usize {
        let mut processed = 0;
        for (_, fault) in train {
            let cell = match fault {
                LinkFault::Lost => continue,
                LinkFault::Clean(c) => c,
                LinkFault::Corrupted(c) if !c.header_ok() => {
                    self.hec_drops += 1;
                    continue;
                }
                LinkFault::Corrupted(c) => c,
            };
            if self.fifo.len() >= self.capacity {
                self.overflow_drops += 1;
            } else {
                self.fifo.push_back(cell.clone());
                self.cells_received += 1;
            }
            if self
                .contention
                .as_mut()
                .is_some_and(ContentionProcess::stalled_next)
            {
                continue;
            }
            while let Some(c) = self.fifo.pop_front() {
                processed += 1;
                match self.reasm.push(&c) {
                    Ok(Some(d)) => self.datagrams.push(d),
                    Ok(None) | Err(Aal34Error::Orphan) => {}
                    Err(_) => self.aal_drops += 1,
                }
            }
        }
        processed
    }
}

/// Builds one train: the cells of a `len`-byte datagram, each dealt
/// the fate at its index in `fates` (cyclically).
fn train(seg: &mut Aal34Segmenter, len: usize, fates: &[(u8, usize)]) -> Vec<(SimTime, LinkFault)> {
    let data: Vec<u8> = (0..len).map(|i| (i * 13 + len) as u8).collect();
    seg.segment(&data)
        .into_iter()
        .enumerate()
        .map(|(i, cell)| {
            let at = SimTime::from_ns(3_029 * i as u64);
            (at, deal(cell, fates[i % fates.len()]))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn atm_receive_matches_the_plain_fifo_reference(
        capacity in 0usize..4,
        stalls in proptest::option::of((0.0f64..0.6, 1u32..40)),
        seed in any::<u64>(),
        trains in proptest::collection::vec(
            (0usize..1500, proptest::collection::vec((0u8..15, 0usize..384), 1..40)),
            1..8,
        ),
    ) {
        // The FIFO sizes: none (every cell overflows), one cell, a
        // few, and the TCA-100's 292.
        let capacity = [0usize, 1, 8, 292][capacity];
        let contention = stalls.map(|(stall_prob, burst_cells)| {
            ContentionProcess::new(ContentionCfg { stall_prob, burst_cells }, seed)
        });
        // One microsecond per drained cell and no fixed cost: the
        // driver span reads back the cells charged.
        let mut costs = CostModel::calibrated();
        costs.atm_rx_fixed_us = 0.0;
        costs.atm_rx_per_cell_us = 1.0;
        let mut nic = AtmNic::new(FiberLink::new(LinkConfig::default(), 1), costs.clone(), 1);
        nic.adapter.rx = atm::RxFifo::new(capacity);
        nic.contention.clone_from(&contention);
        nic.taps = simcap::TapSet::all();
        nic.taps.arm();
        let mut kernel = Kernel::new(StackConfig::default(), costs);
        let mut reference = Reference {
            fifo: VecDeque::new(),
            capacity,
            contention,
            reasm: Aal34Reassembler::new(),
            datagrams: Vec::new(),
            aal_drops: 0,
            hec_drops: 0,
            cells_received: 0,
            overflow_drops: 0,
        };

        let mut seg = Aal34Segmenter::new(0, 42, 3);
        for (k, (len, fates)) in trains.iter().enumerate() {
            let train = train(&mut seg, *len, fates);
            let charged = reference.receive(&train);
            // A second apart, so every call is a fresh interrupt.
            let now = SimTime::from_us(1_000_000 * (k as u64 + 1));
            let _ = atm_receive(&mut kernel, &mut nic, now, train);
            let driver = kernel.cpu.busy_until().max(now) - now;
            prop_assert_eq!(driver, SimTime::from_us(charged as u64), "train {}", k);
        }

        let delivered: Vec<Vec<u8>> = nic
            .taps
            .take()
            .into_iter()
            .filter(|f| f.tap == simcap::TapPoint::Wire)
            .map(|f| f.bytes)
            .collect();
        prop_assert_eq!(delivered, reference.datagrams);
        prop_assert_eq!(nic.aal_drops, reference.aal_drops);
        prop_assert_eq!(nic.hec_drops, reference.hec_drops);
        let rx = &nic.adapter.rx;
        prop_assert_eq!(rx.cells_received, reference.cells_received);
        prop_assert_eq!(rx.overflow_drops, reference.overflow_drops);
        prop_assert_eq!(rx.occupancy(), reference.fifo.len());
    }
}
