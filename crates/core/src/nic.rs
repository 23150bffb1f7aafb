//! Network interface bindings: the ATM (FORE TCA-100 + AAL3/4) and
//! Ethernet (LANCE) drivers that connect the kernel to the simulated
//! wire.
//!
//! The transmit side implements [`tcpip::TxDriver`]: it charges
//! driver CPU time, models the cut-through FIFO (ATM) or the
//! descriptor ring (Ethernet), applies the link fault processes, and
//! stages *deliveries* — per-datagram cell trains or frames with
//! arrival times — that [`crate::host::flush`] turns into events. An
//! ATM train is timed at the far end of the sender's fiber; a world
//! with a switch runs it through [`atm::AtmSwitch::forward_train`] at
//! flush. Each cell is written once, in its train slot, and the link
//! faults it there.
//!
//! The receive side is a plain function called from
//! [`crate::host`]'s arrival event handler: it charges the
//! hardware-interrupt costs, runs real reassembly (AAL3/4 CRC-10 /
//! Ethernet FCS over real bytes) on the cells where they lie in the
//! train, builds the mbuf chain (with stored partial checksums in the
//! integrated configuration), and hands the datagram to the kernel's
//! IP queue.
//!
//! [`arm_host`] is the one place a [`FaultSchedule`] is armed on a
//! host, for every world.

use std::cell::RefCell;

use atm::{Aal34Reassembler, Aal34Segmenter, FiberLink, ForeTca100, LinkFault};
use decstation::CostModel;
use ether::{EtherAddr, EtherFrame, EtherWire, LanceAdapter, ETHERTYPE_IP};
use faultkit::{FaultSchedule, PauseSchedule};
use mbuf::chain::ultrix_uses_clusters;
use mbuf::Chain;
use simkit::{CpuBand, FxHashMap, SimTime};
use tcpip::{Kernel, Mark, SpanKind, SpanRecorder, TxDriver};

/// The default ATM MTU (RFC 1626 style, "close to 9K" per §1.2).
pub const ATM_MTU: usize = 9188;

/// The Ethernet MTU.
pub const ETHER_MTU: usize = 1500;

/// A staged ATM delivery: one datagram's cell train headed for host
/// `dst`, each cell timed at the far end of the sender's fiber.
pub struct AtmDelivery {
    /// Destination host index, as installed by [`AtmNic::add_peer`].
    pub dst: usize,
    /// Per-cell (arrival at the end of the uplink, link fault).
    pub train: Vec<(SimTime, LinkFault)>,
}

/// A staged Ethernet delivery: one frame as the wire delivered it.
pub struct EtherDelivery {
    /// Destination host index: the peer on the two-host segment.
    pub dst: usize,
    /// Arrival time of the frame at the peer's controller.
    pub arrival: SimTime,
    /// The frame bytes as delivered.
    pub frame: Vec<u8>,
}

/// The ATM interface of one host: a TCA-100 on one outbound fiber,
/// routing each datagram by its IP destination onto that peer's VC.
pub struct AtmNic {
    /// The FORE TCA-100 adapter.
    pub adapter: ForeTca100,
    /// AAL3/4 segmentation state per peer, keyed by IP address, with
    /// the peer's host index.
    peers: FxHashMap<[u8; 4], (usize, Aal34Segmenter)>,
    /// AAL3/4 reassembly state.
    pub reasm: Aal34Reassembler,
    /// The outbound fiber.
    pub link: FiberLink,
    /// Driver cost constants (host-local copy).
    pub costs: CostModel,
    /// The MTU advertised to the stack (MSS derives from it).
    pub mtu: usize,
    /// Staged deliveries for the world loop to schedule.
    pub staged: Vec<AtmDelivery>,
    /// Cells discarded for HEC (header CRC) failures.
    pub hec_drops: u64,
    /// Datagrams dropped by AAL3/4 reassembly (CRC-10, sequence...).
    pub aal_drops: u64,
    /// Controller-corruption probability per datagram on receive —
    /// the §4.2.1 "second error source" (bit flips between controller
    /// and host memory, past all link CRCs).
    pub controller_corrupt_prob: f64,
    /// Datagram-level capture taps (`NicDmaTx`, `Wire`, `NicDmaRx`).
    /// Zero-cost unless armed; cell-level capture lives on the link.
    pub taps: simcap::TapSet,
    /// Train shaper (faultkit): reorder/duplicate/jitter applied to
    /// each staged cell train. `None` is transparent.
    pub shaper: Option<faultkit::TrainShaper>,
    /// RX drain contention (faultkit): stalls the FIFO drain so a
    /// small FIFO overruns. `None` never stalls.
    pub contention: Option<faultkit::ContentionProcess>,
    /// Received datagrams shed because the mbuf pool refused the
    /// allocation (`ENOBUFS` backpressure, not a crash).
    pub enobufs_drops: u64,
    rng: simkit::SimRng,
    /// The datagram being segmented, kept to reuse its buffer.
    tx_bytes: Vec<u8>,
    /// The datagrams one receive interrupt completes; empty between.
    rx_done: Vec<Vec<u8>>,
}

/// A cell train: per cell, its arrival time and link fault.
pub type Train = Vec<(SimTime, LinkFault)>;

/// Trains of at most this many cells are small: every ACK and every
/// datagram of up to 300 bytes, such as a 200-byte RPC.
const SMALL_TRAIN: usize = 8;

/// Most received trains a thread keeps, small and large. Small trains
/// carry the per-RPC traffic, so the thread keeps a 64-wide fan-out
/// round's worth (at most 32 KB). A large train's cells cost far more
/// host time than its allocation, so the thread keeps only the last
/// two, enough for a stream of large datagrams. Trains are recycled
/// across every NIC on the thread, so what is kept is also bounded by
/// what the thread's worlds had in flight at once, and keeping the
/// classes apart keeps a large train from carrying an ACK.
const SPARE_TRAINS_KEPT: [usize; 2] = [64, 2];

thread_local! {
    /// This thread's received trains, small then large.
    static SPARE_TRAINS: RefCell<[Vec<Train>; 2]> = const { RefCell::new([Vec::new(), Vec::new()]) };
}

/// The size class of a train of `cells` cells: 0 small, 1 large.
fn train_class(cells: usize) -> usize {
    usize::from(cells > SMALL_TRAIN)
}

/// A train with room for `cells` cells, recycled when one of its
/// class is free. A recycled train still holds up to `cells` of its
/// last cells, for the segmenter to write over.
fn alloc_train(cells: usize) -> Train {
    let spare = SPARE_TRAINS.try_with(|spare| spare.borrow_mut()[train_class(cells)].pop());
    let mut train = spare.ok().flatten().unwrap_or_default();
    train.truncate(cells);
    train.reserve_exact(cells - train.len());
    train
}

/// Recycles a train [`atm_receive`] read, or frees it past its
/// class's [`SPARE_TRAINS_KEPT`]. Its cells stay in their slots for
/// the next train to be written over.
fn recycle_train(train: Train) {
    let _ = SPARE_TRAINS.try_with(|spare| {
        let class = train_class(train.capacity());
        let trains = &mut spare.borrow_mut()[class];
        if trains.len() < SPARE_TRAINS_KEPT[class] {
            trains.push(train);
        }
    });
}

impl AtmNic {
    /// Builds an ATM interface over the given outbound link, with the
    /// plain [`ATM_MTU`] and no peers installed.
    #[must_use]
    pub fn new(link: FiberLink, costs: CostModel, seed: u64) -> Self {
        let cell_time = link.config.cell_time();
        AtmNic {
            adapter: ForeTca100::new(cell_time),
            peers: FxHashMap::default(),
            reasm: Aal34Reassembler::new(),
            link,
            costs,
            mtu: ATM_MTU,
            staged: Vec::new(),
            hec_drops: 0,
            aal_drops: 0,
            controller_corrupt_prob: 0.0,
            taps: simcap::TapSet::off(),
            shaper: None,
            contention: None,
            enobufs_drops: 0,
            rng: simkit::SimRng::seed_stream(seed, 0xc0),
            tx_bytes: Vec::new(),
            rx_done: Vec::new(),
        }
    }

    /// Installs the VC to host `dst` at IP address `addr`: datagrams
    /// for `addr` are segmented on `vci` with AAL3/4 MID `mid` and
    /// staged for `dst`.
    pub fn add_peer(&mut self, addr: [u8; 4], dst: usize, vci: u16, mid: u16) {
        self.peers
            .insert(addr, (dst, Aal34Segmenter::new(0, vci, mid)));
    }
}

impl TxDriver for AtmNic {
    fn mtu(&self) -> usize {
        self.mtu
    }

    /// §2.2: the TxDriver span runs "up to when the ATM adapter is
    /// signaled to send the last byte of data"; everything after that
    /// overlaps network transmission. With the cut-through FIFO the
    /// signal *is* the completion of the last programmed-I/O cell
    /// copy, which the FIFO may backpressure to wire speed.
    fn transmit(&mut self, now: SimTime, packet: &Chain, spans: &mut SpanRecorder) -> SimTime {
        // The one copy out of the chain is `tx_bytes`; each cell takes
        // its 44-byte window of the CPCS-PDU straight from it.
        self.tx_bytes.clear();
        for m in packet.iter() {
            self.tx_bytes.extend_from_slice(m.data());
        }
        let bytes = &self.tx_bytes;
        let dst_addr = [bytes[16], bytes[17], bytes[18], bytes[19]];
        let (dst, seg) = self
            .peers
            .get_mut(&dst_addr)
            .expect("IP destination installed as a peer");
        let dst = *dst;
        let mut cursor = now + SimTime::from_us_f64(self.costs.atm_tx_fixed_us);
        let per_cell = SimTime::from_us_f64(self.costs.atm_tx_per_cell_us);
        let mut train = alloc_train(Aal34Segmenter::cells_for(bytes.len()));
        let (tx, link) = (&mut self.adapter.tx, &mut self.link);
        seg.segment_into(bytes, &mut train, |slot| {
            let admit = tx.admit(cursor, per_cell);
            cursor = admit.copy_end;
            link.carry(admit.wire_exit, slot);
        });
        if let Some(shaper) = self.shaper.as_mut() {
            shaper.shape(&mut train);
        }
        spans.span(SpanKind::TxDriver, now, cursor);
        spans.mark(Mark::TxSignalled, cursor);
        if self.taps.wants(simcap::TapPoint::NicDmaTx) {
            // The datagram leaves host memory when the adapter is
            // signalled to send its last byte — the same instant
            // `TxSignalled` marks.
            self.taps
                .record(simcap::TapPoint::NicDmaTx, cursor, self.tx_bytes.clone());
        }
        self.staged.push(AtmDelivery { dst, train });
        cursor
    }
}

/// Receive-side hard-interrupt processing for one arrived ATM
/// datagram (called by the world loop at the last-cell arrival
/// event). Returns the softintr dispatch time if one must be
/// scheduled.
///
/// The train's cells are read where they lie: a cell enters the RX
/// FIFO's storage only when a stalled drain leaves it waiting, and
/// otherwise goes from its train slot straight to reassembly, with no
/// copy and no heap allocation per cell. The train, cells and all, is
/// then kept for this thread's next `transmit` to write over. A
/// completed datagram is the reassembler's own buffer, handed over
/// and, once copied into mbufs (or shed), handed back.
pub fn atm_receive(
    kernel: &mut Kernel,
    nic: &mut AtmNic,
    now: SimTime,
    train: Train,
) -> Option<SimTime> {
    kernel.spans.mark(Mark::SegmentArrived, now);
    // The driver drains the whole RX FIFO under one interrupt. Cells
    // that arrive while the service routine is still running (the
    // back-to-back-segment case) are picked up by the ongoing drain
    // loop rather than by a fresh interrupt: charge the fixed
    // interrupt cost only when the CPU's driver work had finished.
    let continuation = kernel.cpu.busy_until() > now;
    let start = now.max(kernel.cpu.busy_until());
    let mut datagrams = std::mem::take(&mut nic.rx_done);
    let mut cells_processed = 0usize;
    for (cell_at, fault) in &train {
        let cell = match fault {
            LinkFault::Lost => continue,
            LinkFault::Clean(c) => c,
            LinkFault::Corrupted(c) => {
                if !c.header_ok() {
                    // The adapter discards cells with HEC failures.
                    nic.hec_drops += 1;
                    continue;
                }
                c
            }
        };
        // DMA/bus contention may stall the drain for this arrival: the
        // cell then sits in the FIFO as backlog, and if enough stalls
        // pile up, later arrivals overrun the FIFO.
        let stalled = nic
            .contention
            .as_mut()
            .is_some_and(faultkit::ContentionProcess::stalled_next);
        // On overflow the arriving cell is gone (counted by the
        // adapter) and reassembly will notice the sequence gap — but
        // the service opportunity still happens, so a full FIFO clears
        // as soon as the host stops stalling rather than blackholing
        // every later cell. Unstalled, the driver drains the FIFO —
        // the whole backlog, then this cell — under this interrupt.
        let _ = nic.adapter.rx.arrive(cell, stalled, |cell| {
            cells_processed += 1;
            match nic.reasm.push(cell) {
                Ok(Some(dgram)) => {
                    if nic.taps.wants(simcap::TapPoint::Wire) {
                        // Datagram granularity on the wire: stamped at
                        // the arrival of its completing (EOM) cell.
                        nic.taps
                            .record(simcap::TapPoint::Wire, *cell_at, dgram.clone());
                    }
                    datagrams.push(dgram);
                }
                Ok(None) => {}
                // Orphan COM/EOM cells are trailing consequences of an
                // error already counted on the same datagram.
                Err(atm::Aal34Error::Orphan) => {}
                Err(_) => nic.aal_drops += 1,
            }
        });
    }
    recycle_train(train);
    // Driver CPU: fixed per interrupt plus per-cell SAR + copy work.
    let fixed = if continuation {
        0.0
    } else {
        nic.costs.atm_rx_fixed_us
    };
    let mut us = fixed + nic.costs.atm_rx_per_cell_us * cells_processed as f64;
    let integrated = matches!(kernel.cfg.checksum, tcpip::ChecksumMode::Integrated);
    if integrated {
        // §4.1.1: the combined copy-and-checksum runs in the driver's
        // device→mbuf copy; each payload byte costs the integration
        // delta, plus the fixed restructuring overhead.
        let bytes: usize = datagrams.iter().map(Vec::len).sum();
        us += nic.costs.integrated_delta_per_byte_us * bytes as f64
            + nic.costs.integrated_rx_fixed_us * datagrams.len() as f64;
    }
    let end = start + SimTime::from_us_f64(us);
    kernel.spans.span(SpanKind::RxDriver, start, end);
    kernel.cpu.occupy(start, end, CpuBand::HardIntr);

    let mut softintr_at = None;
    for mut dgram in datagrams.drain(..) {
        // The §4.2.1 controller-corruption fault: bits flipped while
        // moving data from controller to host memory — after every
        // link-level CRC has been checked.
        if nic.controller_corrupt_prob > 0.0 && nic.rng.chance(nic.controller_corrupt_prob) {
            let bit = nic.rng.next_below((dgram.len() * 8) as u32) as usize;
            dgram[bit / 8] ^= 1 << (bit % 8);
        }
        if nic.taps.wants(simcap::TapPoint::NicDmaRx) {
            // DMA into host memory is complete when the driver's
            // interrupt work ends and the datagram joins the IP queue.
            nic.taps
                .record(simcap::TapPoint::NicDmaRx, end, dgram.clone());
        }
        let use_clusters = ultrix_uses_clusters(dgram.len());
        let filled = Chain::try_from_user_data(&kernel.pool, &dgram, use_clusters);
        Aal34Reassembler::recycle(dgram);
        let Ok((mut chain, _)) = filled else {
            // ENOBUFS: the pool is at its limit, so the driver sheds
            // the datagram instead of allocating past it — BSD's
            // receive-path backpressure. TCP retransmits.
            nic.enobufs_drops += 1;
            continue;
        };
        if integrated {
            chain.store_partial_checksums();
        }
        if let Some(at) = kernel.enqueue_ip(end, chain) {
            softintr_at = Some(softintr_at.map_or(at, |t: SimTime| t.min(at)));
        }
    }
    nic.rx_done = datagrams;
    if continuation {
        // Datagrams completed by an earlier interrupt of this drain
        // are handed to IP together with ours, at the end.
        kernel.retime_ipq(end);
    }
    softintr_at
}

/// The Ethernet interface of one host.
pub struct EtherNic {
    /// The LANCE controller.
    pub lance: LanceAdapter,
    /// The outbound wire.
    pub wire: EtherWire,
    /// Source MAC.
    pub addr: EtherAddr,
    /// Destination MAC (two-host segment).
    pub peer: EtherAddr,
    /// The peer's host index.
    peer_host: usize,
    /// Driver cost constants.
    pub costs: CostModel,
    /// Staged deliveries.
    pub staged: Vec<EtherDelivery>,
    /// Frames dropped for FCS errors.
    pub fcs_drops: u64,
    /// Controller-corruption probability per frame on receive.
    pub controller_corrupt_prob: f64,
    /// Gateway-injection probability per frame on transmit: the
    /// §4.2.1 third error source — "erroneous data injected into the
    /// network through external gateways or bridges". The corruption
    /// happens *before* framing, so the local FCS is computed over
    /// already-bad bytes and validates; only the end-to-end TCP
    /// checksum can catch it.
    pub gateway_corrupt_prob: f64,
    /// Datagram-level capture taps (`NicDmaTx`, `Wire`, `NicDmaRx`).
    /// Zero-cost unless armed; frame-level capture lives on the wire.
    pub taps: simcap::TapSet,
    /// Received frames shed because the mbuf pool refused the
    /// allocation (`ENOBUFS` backpressure, not a crash).
    pub enobufs_drops: u64,
    rng: simkit::SimRng,
}

impl EtherNic {
    /// Builds an Ethernet interface over the given outbound wire.
    #[must_use]
    pub fn new(wire: EtherWire, costs: CostModel, host_id: u8, seed: u64) -> Self {
        EtherNic {
            lance: LanceAdapter::new(),
            wire,
            addr: EtherAddr::from_host_id(host_id),
            peer: EtherAddr::from_host_id(host_id ^ 1),
            peer_host: usize::from(host_id ^ 1),
            costs,
            staged: Vec::new(),
            fcs_drops: 0,
            controller_corrupt_prob: 0.0,
            gateway_corrupt_prob: 0.0,
            taps: simcap::TapSet::off(),
            enobufs_drops: 0,
            rng: simkit::SimRng::seed_stream(seed, 0xe1),
        }
    }
}

impl TxDriver for EtherNic {
    fn mtu(&self) -> usize {
        ETHER_MTU
    }

    fn transmit(&mut self, now: SimTime, packet: &Chain, spans: &mut SpanRecorder) -> SimTime {
        let mut payload = packet.to_vec();
        debug_assert!(payload.len() <= ETHER_MTU, "TCP MSS keeps IP under the MTU");
        if self.gateway_corrupt_prob > 0.0 && self.rng.chance(self.gateway_corrupt_prob) {
            // Corrupt a payload bit before framing: the FCS will be
            // computed over the corrupted bytes and verify fine.
            let bit = 40 * 8
                + self
                    .rng
                    .next_below(((payload.len() - 40) * 8).max(8) as u32)
                    as usize;
            let bit = bit.min(payload.len() * 8 - 1);
            payload[bit / 8] ^= 1 << (bit % 8);
        }
        let frame = EtherFrame {
            dst: self.peer,
            src: self.addr,
            ethertype: ETHERTYPE_IP,
            payload,
        };
        let wire_bytes = frame.encode();
        // Driver work: descriptor + copy into the DMA buffer.
        let cost = SimTime::from_us_f64(
            self.costs.eth_tx_fixed_us + self.costs.eth_tx_per_byte_us * wire_bytes.len() as f64,
        );
        let granted = self.lance.claim_tx_slot(now);
        let cursor = granted + cost;
        if self.taps.wants(simcap::TapPoint::NicDmaTx) {
            // The IP datagram as handed to the LANCE, stamped when the
            // copy into the DMA buffer completes (`TxSignalled`).
            self.taps
                .record(simcap::TapPoint::NicDmaTx, cursor, frame.payload.clone());
        }
        let (delivered_at, delivered) = self.wire.carry(cursor, wire_bytes);
        self.lance.tx_complete(delivered_at);
        spans.span(SpanKind::TxDriver, now, cursor);
        spans.mark(Mark::TxSignalled, cursor);
        if let Some(frame) = delivered {
            self.staged.push(EtherDelivery {
                dst: self.peer_host,
                arrival: delivered_at,
                frame,
            });
        }
        // A burst-lost frame stages no delivery: the wire time is
        // consumed but nothing arrives; TCP's retransmit timer is the
        // recovery path.
        cursor
    }
}

/// Receive-side processing for one Ethernet frame.
pub fn ether_receive(
    kernel: &mut Kernel,
    nic: &mut EtherNic,
    now: SimTime,
    wire_bytes: &[u8],
) -> Option<SimTime> {
    kernel.spans.mark(Mark::SegmentArrived, now);
    if nic.taps.wants(simcap::TapPoint::Wire) {
        // The frame exactly as the wire delivered it (FCS included,
        // corruption applied), stamped at arrival.
        nic.taps
            .record(simcap::TapPoint::Wire, now, wire_bytes.to_vec());
    }
    nic.lance.rx_packet();
    let start = now.max(kernel.cpu.busy_until());
    let mut us = nic.costs.eth_rx_fixed_us + nic.costs.eth_rx_per_byte_us * wire_bytes.len() as f64;

    // Real FCS verification over the delivered bytes.
    let frame = match EtherFrame::decode(wire_bytes, None) {
        Ok(f) => Some(f),
        Err(_) => {
            nic.fcs_drops += 1;
            None
        }
    };
    let integrated = matches!(kernel.cfg.checksum, tcpip::ChecksumMode::Integrated);
    if integrated {
        if let Some(f) = &frame {
            us += nic.costs.integrated_delta_per_byte_us * f.payload.len() as f64
                + nic.costs.integrated_rx_fixed_us;
        }
    }
    let end = start + SimTime::from_us_f64(us);
    kernel.spans.span(SpanKind::RxDriver, start, end);
    kernel.cpu.occupy(start, end, CpuBand::HardIntr);

    let frame = frame?;
    let mut payload = frame.payload;
    if nic.controller_corrupt_prob > 0.0 && nic.rng.chance(nic.controller_corrupt_prob) {
        let bit = nic.rng.next_below((payload.len() * 8) as u32) as usize;
        payload[bit / 8] ^= 1 << (bit % 8);
    }
    if nic.taps.wants(simcap::TapPoint::NicDmaRx) {
        // FCS-verified IP datagram as DMAed into host memory, stamped
        // when the driver's interrupt work ends.
        nic.taps
            .record(simcap::TapPoint::NicDmaRx, end, payload.clone());
    }
    let use_clusters = ultrix_uses_clusters(payload.len());
    let Ok((mut chain, _)) = Chain::try_from_user_data(&kernel.pool, &payload, use_clusters) else {
        // ENOBUFS: shed the frame rather than allocate past the pool
        // limit; TCP retransmits.
        nic.enobufs_drops += 1;
        return None;
    };
    if integrated {
        chain.store_partial_checksums();
    }
    kernel.enqueue_ip(end, chain)
}

/// A host's network interface.
#[allow(clippy::large_enum_variant)] // Two long-lived instances per world.
pub enum Nic {
    /// FORE TCA-100 over TAXI fiber.
    Atm(AtmNic),
    /// LANCE over 10 Mbit/s Ethernet.
    Ether(EtherNic),
}

impl Nic {
    /// Configures and arms every NIC- and medium-level capture tap
    /// (datagram taps on the NIC, raw cells/frames on the link).
    /// `flight_k` selects flight-recorder rings of that depth instead
    /// of unbounded full capture.
    pub fn arm_taps_mode(&mut self, flight_k: Option<usize>) {
        let fresh = || match flight_k {
            Some(k) => simcap::TapSet::flight(k),
            None => simcap::TapSet::all(),
        };
        match self {
            Nic::Atm(a) => {
                a.taps = fresh();
                a.taps.arm();
                a.link.taps = fresh();
                a.link.taps.arm();
            }
            Nic::Ether(e) => {
                e.taps = fresh();
                e.taps.arm();
                e.wire.taps = fresh();
                e.wire.taps.arm();
            }
        }
    }

    /// Drains every frame captured by this NIC and its medium, merged
    /// in timestamp order (stable within equal timestamps).
    pub fn take_taps(&mut self) -> Vec<simcap::CapturedFrame> {
        let (mut frames, medium) = match self {
            Nic::Atm(a) => (a.taps.take(), a.link.taps.take()),
            Nic::Ether(e) => (e.taps.take(), e.wire.taps.take()),
        };
        frames.extend(medium);
        frames.sort_by_key(|f| f.at);
        frames
    }
}

/// A borrowed host interface, as [`arm_host`] takes it.
pub enum NicMut<'a> {
    /// An ATM interface.
    Atm(&'a mut AtmNic),
    /// An Ethernet interface.
    Ether(&'a mut EtherNic),
}

impl<'a> From<&'a mut Nic> for NicMut<'a> {
    fn from(nic: &'a mut Nic) -> Self {
        match nic {
            Nic::Atm(a) => NicMut::Atm(a),
            Nic::Ether(e) => NicMut::Ether(e),
        }
    }
}

impl<'a> NicMut<'a> {
    /// The interface as the kernel transmits through it.
    pub fn driver(self) -> &'a mut dyn TxDriver {
        match self {
            NicMut::Atm(a) => a,
            NicMut::Ether(e) => e,
        }
    }
}

/// A [`FaultSchedule`] field the host it was armed on cannot carry.
/// Arming refuses it rather than silently injecting nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultRefusal {
    /// An ATM-only field (named) on an Ethernet host.
    AtmFieldOnEthernet(&'static str),
    /// An Ethernet-only field (named) on an ATM host.
    EtherFieldOnAtm(&'static str),
}

impl std::fmt::Display for FaultRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultRefusal::AtmFieldOnEthernet(field) => {
                write!(f, "fault `{field}` cannot be armed on an Ethernet host")
            }
            FaultRefusal::EtherFieldOnAtm(field) => {
                write!(f, "fault `{field}` cannot be armed on an ATM host")
            }
        }
    }
}

impl std::error::Error for FaultRefusal {}

/// Arms every field of `faults` on one host: link loss, bit errors,
/// train shaping, RX contention, RX FIFO size and link flap on the
/// medium and the adapter, controller and gateway corruption on the
/// NIC, the mbuf pool limit on the kernel. Every stochastic process
/// draws from its own stream of `seed`.
///
/// Returns the pause schedule for the host's events to defer by
/// ([`crate::host::deferred`]), or the first field the host cannot
/// carry — before arming anything.
///
/// # Errors
///
/// [`FaultRefusal`] for an ATM-only field on Ethernet or an
/// Ethernet-only field on ATM.
pub fn arm_host(
    faults: &FaultSchedule,
    kernel: &Kernel,
    nic: NicMut<'_>,
    seed: u64,
) -> Result<Option<PauseSchedule>, FaultRefusal> {
    // Exhaustive: a new field fails to compile here until it is wired.
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
    } = *faults;
    match nic {
        NicMut::Atm(nic) => {
            let ether_only = [
                ("ether_loss", ether_loss.is_some()),
                ("gateway_corrupt", gateway_corrupt != 0.0),
            ];
            if let Some(&(field, _)) = ether_only.iter().find(|(_, set)| *set) {
                return Err(FaultRefusal::EtherFieldOnAtm(field));
            }
            nic.link.config.ber = ber;
            nic.link.config.cell_loss = cell_loss;
            nic.controller_corrupt_prob = controller_corrupt;
            if let Some(model) = atm_loss {
                nic.link.arm_burst_loss(model, seed);
            }
            if train.any() {
                nic.shaper = Some(faultkit::TrainShaper::new(train, seed));
            }
            if let Some(cfg) = rx_contention {
                nic.contention = Some(faultkit::ContentionProcess::new(cfg, seed));
            }
            if let Some(cells) = rx_fifo_cells {
                nic.adapter.rx = atm::RxFifo::new(cells);
            }
            if let Some(flap) = link_flap {
                nic.link.arm_flap(flap);
            }
        }
        NicMut::Ether(nic) => {
            let atm_only = [
                ("atm_loss", atm_loss.is_some()),
                ("train", train.any()),
                ("rx_contention", rx_contention.is_some()),
                ("rx_fifo_cells", rx_fifo_cells.is_some()),
                ("link_flap", link_flap.is_some()),
                ("cell_loss", cell_loss != 0.0),
            ];
            if let Some(&(field, _)) = atm_only.iter().find(|(_, set)| *set) {
                return Err(FaultRefusal::AtmFieldOnEthernet(field));
            }
            nic.wire.config.ber = ber;
            nic.controller_corrupt_prob = controller_corrupt;
            nic.gateway_corrupt_prob = gateway_corrupt;
            if let Some(model) = ether_loss {
                nic.wire.arm_burst_loss(model, seed);
            }
        }
    }
    // The mbuf cap is per host pool: allocations beyond it fail with
    // ENOBUFS on the fallible (receive) paths.
    kernel.pool.set_limit(mbuf_limit);
    Ok(host_pause)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm::LinkConfig;
    use decstation::CostModel;
    use ether::WireConfig;
    use tcpip::StackConfig;

    fn kernel() -> Kernel {
        Kernel::new(StackConfig::default(), CostModel::calibrated())
    }

    const PEER: [u8; 4] = [10, 0, 0, 2];

    fn atm_nic(seed: u64) -> AtmNic {
        let mut nic = AtmNic::new(
            FiberLink::new(LinkConfig::default(), seed),
            CostModel::calibrated(),
            seed,
        );
        nic.add_peer(PEER, 1, 42, 1);
        nic
    }

    /// `len` patterned bytes whose IPv4 destination field names
    /// [`PEER`].
    fn datagram(len: usize) -> Vec<u8> {
        let mut d: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        d[16..20].copy_from_slice(&PEER);
        d
    }

    #[test]
    fn atm_transmit_stages_one_delivery_per_datagram() {
        let mut k = kernel();
        let mut nic = atm_nic(1);
        let (chain, _) = Chain::from_user_data(&k.pool, &datagram(540), false);
        let done = nic.transmit(SimTime::ZERO, &chain, &mut k.spans);
        assert!(done > SimTime::ZERO);
        assert_eq!(nic.staged.len(), 1);
        let d = &nic.staged[0];
        assert_eq!(d.dst, 1);
        // 540 + 8 CPCS = 548 -> 13 cells.
        assert_eq!(d.train.len(), 13);
        let last = d.train.iter().map(|&(t, _)| t).max().expect("cells");
        assert!(last > done, "wire lags the host for small packets");
    }

    #[test]
    fn atm_transmit_routes_by_ip_destination() {
        let mut k = kernel();
        let mut nic = atm_nic(5);
        nic.add_peer([10, 1, 0, 3], 3, 67, 0);
        let mut bytes = datagram(140);
        bytes[16..20].copy_from_slice(&[10, 1, 0, 3]);
        let (chain, _) = Chain::from_user_data(&k.pool, &bytes, false);
        let _ = nic.transmit(SimTime::ZERO, &chain, &mut k.spans);
        let d = &nic.staged[0];
        assert_eq!(d.dst, 3);
        // 140 + 8 CPCS bytes -> 4 cells, all on the destination VC.
        assert_eq!(d.train.len(), 4);
        for (_, fault) in &d.train {
            let LinkFault::Clean(c) = fault else {
                panic!("clean link")
            };
            assert_eq!(c.header().vci, 67);
        }
    }

    #[test]
    fn atm_large_packet_is_wire_limited() {
        let mut k = kernel();
        let mut nic = atm_nic(2);
        let (chain, _) = Chain::from_user_data(&k.pool, &datagram(8040), true);
        let t0 = SimTime::ZERO;
        let done = nic.transmit(t0, &chain, &mut k.spans);
        // 8048 CPCS bytes -> 183 cells; the 36-cell FIFO forces the
        // host to pace at wire speed for the tail: > 147 cell times.
        let cell_time = LinkConfig::default().cell_time();
        assert!(done > cell_time * 140, "done {done}");
        assert!(nic.adapter.tx.stall_time > SimTime::ZERO);
    }

    #[test]
    fn atm_roundtrip_through_receive() {
        let mut ka = kernel();
        let mut kb = kernel();
        let mut na = atm_nic(3);
        let mut nb = atm_nic(4);
        // Use na to send, nb to receive.
        let (chain, _) = Chain::from_user_data(&ka.pool, &datagram(777), false);
        let _ = na.transmit(SimTime::ZERO, &chain, &mut ka.spans);
        let train = na.staged.pop().unwrap().train;
        let last = train.iter().map(|&(t, _)| t).max().expect("cells");
        let soft = atm_receive(&mut kb, &mut nb, last, train);
        assert!(soft.is_some(), "datagram enqueued raises softintr");
        assert_eq!(kb.stats.ipq_enqueued, 1);
        assert_eq!(nb.aal_drops, 0);
        assert_eq!(nb.reasm.stats().datagrams_ok, 1);
    }

    #[test]
    fn ether_roundtrip_with_fcs() {
        let mut ka = kernel();
        let mut kb = kernel();
        let mut na = EtherNic::new(
            EtherWire::new(WireConfig::default(), 5),
            CostModel::calibrated(),
            0,
            5,
        );
        let mut nb = EtherNic::new(
            EtherWire::new(WireConfig::default(), 6),
            CostModel::calibrated(),
            1,
            6,
        );
        let payload: Vec<u8> = (0..540).map(|i| (i % 199) as u8).collect();
        let (chain, _) = Chain::from_user_data(&ka.pool, &payload, false);
        let done = na.transmit(SimTime::ZERO, &chain, &mut ka.spans);
        assert!(done >= SimTime::from_us(255));
        let d = na.staged.pop().unwrap();
        let soft = ether_receive(&mut kb, &mut nb, d.arrival, &d.frame);
        assert!(soft.is_some());
        assert_eq!(nb.fcs_drops, 0);
        assert_eq!(kb.stats.ipq_enqueued, 1);
    }

    #[test]
    fn gateway_corruption_is_refused_on_atm() {
        let faults = FaultSchedule {
            ber: 1e-6,
            gateway_corrupt: 0.005,
            ..FaultSchedule::default()
        };
        let mut nic = atm_nic(9);
        let refusal = arm_host(&faults, &kernel(), NicMut::Atm(&mut nic), 9);
        assert_eq!(
            refusal,
            Err(FaultRefusal::EtherFieldOnAtm("gateway_corrupt"))
        );
        assert_eq!(nic.link.config.ber, 0.0, "refused before arming anything");
    }

    #[test]
    fn cell_loss_is_refused_on_ethernet() {
        let faults = FaultSchedule {
            ber: 1e-6,
            cell_loss: 0.01,
            ..FaultSchedule::default()
        };
        let mut nic = EtherNic::new(
            EtherWire::new(WireConfig::default(), 9),
            CostModel::calibrated(),
            0,
            9,
        );
        let refusal = arm_host(&faults, &kernel(), NicMut::Ether(&mut nic), 9);
        assert_eq!(refusal, Err(FaultRefusal::AtmFieldOnEthernet("cell_loss")));
        assert_eq!(nic.wire.config.ber, 0.0, "refused before arming anything");
        assert_eq!(
            refusal.unwrap_err().to_string(),
            "fault `cell_loss` cannot be armed on an Ethernet host"
        );
    }

    #[test]
    fn corrupted_frame_dropped_by_fcs() {
        let mut ka = kernel();
        let mut kb = kernel();
        let mut na = EtherNic::new(
            EtherWire::new(WireConfig::default(), 7),
            CostModel::calibrated(),
            0,
            7,
        );
        let mut nb = EtherNic::new(
            EtherWire::new(WireConfig::default(), 8),
            CostModel::calibrated(),
            1,
            8,
        );
        let (chain, _) = Chain::from_user_data(&ka.pool, &[1u8; 100], false);
        let _ = na.transmit(SimTime::ZERO, &chain, &mut ka.spans);
        let mut d = na.staged.pop().unwrap();
        d.frame[30] ^= 0x08;
        let soft = ether_receive(&mut kb, &mut nb, d.arrival, &d.frame);
        assert!(soft.is_none(), "dropped frames never reach IP");
        assert_eq!(nb.fcs_drops, 1);
        assert_eq!(kb.stats.ipq_enqueued, 0);
    }
}
