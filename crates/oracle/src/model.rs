//! The analytic latency model: a closed-form walker over the clean
//! RPC orbit.
//!
//! [`predict`] re-derives every Table 1–7 cell from first principles:
//! it replays the steady-state request/response orbit using only the
//! calibrated cost tables ([`decstation::CostModel`]), the protocol
//! constants ([`tcpip::StackConfig`]), and the link timing formulas —
//! without running the production kernel, socket, mbuf-pool, or NIC
//! code. The walker keeps length-only mbuf bookkeeping, ports the
//! TCP decision functions (header prediction, Nagle, delayed ACK,
//! congestion window) as pure arithmetic, and applies each cost with
//! the same one-rounding-per-charge discipline as the kernel. Spans
//! land in a real [`tcpip::SpanRecorder`] and are reduced through the
//! same [`latency_core::compute_breakdown_samples`] methodology, so
//! the *only* shared code between prediction and simulation is the
//! measurement reduction itself — the timeline, the charges, and the
//! protocol state machine are derived independently.
//!
//! Agreement contract: for every clean configuration the walker's
//! per-iteration breakdown rows and RTTs must match the event-driven
//! simulation to within one 40 ns clock tick per contributing span
//! (`tests/predict_matches_sim.rs` asserts this across the full
//! Tables 1–7 grid).

use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use decstation::{ChecksumImpl, CostModel};
use latency_core::app::Phase;
use latency_core::experiment::Workload;
use latency_core::nic::{ATM_MTU, ETHER_MTU};
use latency_core::{compute_breakdown_samples, Experiment, NetKind, RxBreakdown, TxBreakdown};
use mbuf::chain::ultrix_uses_clusters;
use mbuf::{MCLBYTES, MHLEN, MLEN};
use simkit::SimTime;
use tcpip::config::tcp_mss;
use tcpip::{
    seq_gt, seq_le, seq_lt, ChecksumMode, Mark, PcbOrg, SpanKind, SpanRecorder, StackConfig,
};

/// TCP flag bits (mirrors `tcpip::hdr::flags`).
const F_PSH: u8 = 0x08;
/// TCP ACK flag.
const F_ACK: u8 = 0x10;
/// Combined TCP/IP header length.
const HDR_LEN: usize = 40;
/// FORE TCA-100 transmit FIFO depth in cells.
const TX_FIFO_CELLS: usize = 36;
/// LANCE transmit descriptor ring depth.
const LANCE_TX_RING: usize = 16;
/// Fiber propagation delay (crates/atm `LinkConfig::default`).
const ATM_PROP_NS: u64 = 200;
/// Ethernet delivery delay after the last bit (crates/ether wire).
const ETHER_PROP_NS: u64 = 500;
/// Hard ceiling on walker events; exceeding it means the orbit never
/// settled (a walker bug, not a measurement).
const MAX_EVENTS: u64 = 2_000_000;
/// Consecutive identical iterations required to declare convergence.
const CONVERGE_RUN: usize = 3;

/// Why [`predict`] declined to produce a prediction.
#[derive(Clone, Debug, PartialEq)]
pub enum PredictError {
    /// The experiment uses machinery the analytic model does not
    /// cover (faults, switches, bulk/UDP workloads, loss).
    Unsupported(String),
    /// The orbit failed to reach a steady state within the walked
    /// iterations.
    NoConvergence(String),
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::Unsupported(s) => write!(f, "analytic model unsupported: {s}"),
            PredictError::NoConvergence(s) => write!(f, "analytic model did not converge: {s}"),
        }
    }
}

impl std::error::Error for PredictError {}

/// The analytic model's output for one experiment configuration.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Converged per-iteration transmit breakdown (Table 2 rows).
    pub tx: TxBreakdown,
    /// Converged per-iteration receive breakdown (Table 3 rows).
    pub rx: RxBreakdown,
    /// Converged round-trip time (40 ns-quantized, as the benchmark
    /// measures it).
    pub rtt: SimTime,
    /// Every walked iteration's RTT, from iteration 0 of the
    /// timeline. `rtts[warmup + i]` aligns with the simulation's
    /// `RunResult::rtts[i]` and must match it exactly.
    pub rtts: Vec<SimTime>,
    /// Every walked iteration's breakdown sample, from iteration 0.
    pub samples: Vec<(TxBreakdown, RxBreakdown)>,
    /// Number of client iterations walked.
    pub iterations: u64,
}

/// Predicts the steady-state latency decomposition for a clean RPC
/// experiment without running the event-driven simulation.
///
/// # Errors
///
/// [`PredictError::Unsupported`] for configurations outside the
/// analytic model (fault injection, ATM switches, non-RPC workloads,
/// loss/corruption); [`PredictError::NoConvergence`] if the orbit
/// does not settle.
pub fn predict(exp: &Experiment) -> Result<Prediction, PredictError> {
    check_supported(exp)?;
    let total = (exp.warmup + exp.iterations).max(16);
    let mut w = Walker::new(exp, total);
    w.run()?;
    let samples = compute_breakdown_samples(&w.rec);
    let n = samples.len();
    if n < CONVERGE_RUN + 2 || w.raw_rtts.len() < CONVERGE_RUN + 2 {
        return Err(PredictError::NoConvergence(format!(
            "only {n} breakdown samples from {total} iterations"
        )));
    }
    let tail = &samples[n - CONVERGE_RUN..];
    let settled_samples = tail.windows(2).all(|p| p[0] == p[1]);
    let rn = w.raw_rtts.len();
    let rtail = &w.raw_rtts[rn - CONVERGE_RUN..];
    let settled_rtts = rtail.windows(2).all(|p| p[0] == p[1]);
    if !settled_samples || !settled_rtts {
        return Err(PredictError::NoConvergence(format!(
            "last {CONVERGE_RUN} iterations not identical (samples settled: \
             {settled_samples}, raw rtts settled: {settled_rtts})"
        )));
    }
    let last = samples[n - 1];
    Ok(Prediction {
        tx: last.0,
        rx: last.1,
        rtt: *w.rtts.last().expect("rtts nonempty"),
        rtts: w.rtts,
        samples,
        iterations: w.completed,
    })
}

fn check_supported(exp: &Experiment) -> Result<(), PredictError> {
    let unsup = |s: &str| Err(PredictError::Unsupported(s.to_string()));
    match exp.workload {
        Workload::Rpc => {}
        _ => return unsup("only the RPC ping-pong workload has a closed form"),
    }
    if !exp.faults.is_clean() {
        return unsup("fault injection breaks the deterministic orbit");
    }
    if exp.switch.is_some() {
        return unsup("switched-path timing is not modeled analytically");
    }
    if exp.size == 0 {
        return unsup("zero-byte RPC has no data orbit");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Length-only mbuf accounting (mirrors crates/mbuf chain.rs).
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct MB {
    len: usize,
    cluster: bool,
    /// Carries a stored partial checksum (integrated-checksum mode).
    partial: bool,
}

#[derive(Clone, Debug, Default)]
struct MChain {
    m: VecDeque<MB>,
}

#[derive(Clone, Copy, Debug, Default)]
struct FillReceipt {
    mbufs_allocated: usize,
    clusters_allocated: usize,
}

#[derive(Clone, Copy, Debug, Default)]
struct CopyReceipt {
    mbufs_allocated: usize,
    clusters_shared: usize,
}

impl MChain {
    fn len(&self) -> usize {
        self.m.iter().map(|b| b.len).sum()
    }

    fn mbuf_count(&self) -> usize {
        self.m.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn any_cluster(&self) -> bool {
        self.m.iter().any(|b| b.cluster)
    }

    /// `Chain::stored_checksum` presence: every mbuf carries a
    /// partial (vacuously true for the empty chain).
    fn stored_all(&self) -> bool {
        self.m.iter().all(|b| b.partial)
    }

    /// `Chain::from_user_data[_cksum]`: clusters get one mbuf per
    /// MCLBYTES; small data starts with a 100-byte header mbuf then
    /// 108-byte mbufs. An empty fill still allocates one mbuf.
    fn fill(len: usize, use_clusters: bool, with_partials: bool) -> (Self, FillReceipt) {
        let mut c = MChain::default();
        let mut r = FillReceipt::default();
        let mut rem = len;
        let mut first = true;
        while rem > 0 || first {
            let cap = if use_clusters {
                MCLBYTES
            } else if first {
                MHLEN
            } else {
                MLEN
            };
            let take = rem.min(cap);
            c.m.push_back(MB {
                len: take,
                cluster: use_clusters,
                partial: with_partials,
            });
            r.mbufs_allocated += 1;
            if use_clusters {
                r.clusters_allocated += 1;
            }
            rem -= take;
            first = false;
        }
        (c, r)
    }

    /// `Chain::copy_range` (the retransmission copy): clusters are
    /// shared by reference; small mbufs are deep-copied one fresh
    /// mbuf per overlapped source mbuf (fresh capacity MLEN exceeds
    /// any small source length). Partial checksums transfer only on
    /// whole-mbuf copies.
    fn copy_range(&self, off: usize, len: usize) -> (Self, CopyReceipt) {
        let mut c = MChain::default();
        let mut r = CopyReceipt::default();
        let mut skip = off;
        let mut rem = len;
        for b in &self.m {
            if rem == 0 {
                break;
            }
            if skip >= b.len {
                skip -= b.len;
                continue;
            }
            let take = (b.len - skip).min(rem);
            let whole = skip == 0 && take == b.len;
            if b.cluster {
                c.m.push_back(MB {
                    len: take,
                    cluster: true,
                    partial: b.partial && whole,
                });
                r.mbufs_allocated += 1;
                r.clusters_shared += 1;
            } else {
                let mut rest = take;
                while rest > 0 {
                    let n = rest.min(MLEN);
                    c.m.push_back(MB {
                        len: n,
                        cluster: false,
                        partial: b.partial && whole && n == b.len,
                    });
                    r.mbufs_allocated += 1;
                    rest -= n;
                }
            }
            skip = 0;
            rem -= take;
        }
        (c, r)
    }

    /// `Chain::trim_front`: emptied mbufs are freed; a partially
    /// trimmed mbuf loses its stored partial checksum.
    fn trim_front(&mut self, mut n: usize) {
        while n > 0 {
            let Some(front) = self.m.front_mut() else {
                return;
            };
            if front.len <= n {
                n -= front.len;
                self.m.pop_front();
            } else {
                front.len -= n;
                front.partial = false;
                n = 0;
            }
        }
    }

    /// `Chain::trim_back_bytes` (link-padding removal).
    fn trim_back(&mut self, mut n: usize) {
        while n > 0 {
            let Some(back) = self.m.back_mut() else {
                return;
            };
            if back.len <= n {
                n -= back.len;
                self.m.pop_back();
            } else {
                back.len -= n;
                back.partial = false;
                n = 0;
            }
        }
    }

    /// Socket-buffer append: splices the mbuf list (no compaction).
    fn append(&mut self, mut other: MChain) {
        self.m.append(&mut other.m);
    }
}

// ---------------------------------------------------------------------------
// TCP control block arithmetic (mirrors crates/tcpip tcb.rs).
// ---------------------------------------------------------------------------

fn seq_diff(a: u32, b: u32) -> usize {
    b.wrapping_sub(a) as usize
}

#[derive(Clone, Copy, Debug)]
struct MHdr {
    seq: u32,
    ack: u32,
    win: u16,
    flags: u8,
    ip_len: usize,
}

impl MHdr {
    fn payload_len(&self) -> usize {
        self.ip_len.saturating_sub(HDR_LEN)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Path {
    Slow,
    FastAck,
    FastData,
}

#[derive(Clone, Debug)]
struct MTcb {
    snd_una: u32,
    snd_nxt: u32,
    snd_max: u32,
    snd_wnd: usize,
    cwnd: usize,
    ssthresh: usize,
    rcv_nxt: u32,
    rcv_adv_wnd: usize,
    dupacks: u32,
    delack: bool,
    acknow: bool,
    mss: usize,
    nodelay: bool,
}

impl MTcb {
    fn new(snd_iss: u32, rcv_iss: u32, mss: usize, cfg: &StackConfig) -> Self {
        MTcb {
            snd_una: snd_iss,
            snd_nxt: snd_iss,
            snd_max: snd_iss,
            snd_wnd: cfg.sockbuf,
            cwnd: cfg.sockbuf,
            ssthresh: cfg.sockbuf,
            rcv_nxt: rcv_iss,
            rcv_adv_wnd: cfg.sockbuf,
            dupacks: 0,
            delack: false,
            acknow: false,
            mss,
            nodelay: cfg.nodelay,
        }
    }

    fn flight_size(&self) -> usize {
        seq_diff(self.snd_una, self.snd_nxt)
    }

    fn next_send(&self, sndbuf_len: usize) -> Option<(usize, usize)> {
        let offset = seq_diff(self.snd_una, self.snd_nxt);
        let avail = sndbuf_len.saturating_sub(offset);
        let wnd = self.snd_wnd.min(self.cwnd);
        let allowed = wnd.saturating_sub(offset);
        let len = avail.min(allowed).min(self.mss);
        if len == 0 {
            return None;
        }
        if len < self.mss && offset > 0 && !self.nodelay {
            return None; // Nagle: sub-MSS with data outstanding
        }
        Some((offset, len))
    }

    fn build_data_header(&mut self, offset: usize, len: usize, rcv_space: usize) -> MHdr {
        let seq = self.snd_una.wrapping_add(offset as u32);
        let win = rcv_space.min(65535) as u16;
        self.rcv_adv_wnd = win as usize;
        let mut flags = F_ACK;
        if len > 0 {
            flags |= F_PSH;
        }
        MHdr {
            seq,
            ack: self.rcv_nxt,
            win,
            flags,
            ip_len: HDR_LEN + len,
        }
    }

    fn build_ack_header(&mut self, rcv_space: usize) -> MHdr {
        self.delack = false;
        self.acknow = false;
        let offset = seq_diff(self.snd_una, self.snd_nxt);
        self.build_data_header(offset, 0, rcv_space)
    }

    fn note_sent(&mut self, seq: u32, len: usize) {
        let end = seq.wrapping_add(len as u32);
        if seq_gt(end, self.snd_nxt) {
            self.snd_nxt = end;
        }
        if seq_gt(end, self.snd_max) {
            self.snd_max = end;
        }
        self.delack = false;
        self.acknow = false;
    }

    fn predict_path(&self, h: &MHdr, plen: usize) -> Path {
        let base = (h.flags & !F_PSH) == F_ACK
            && h.seq == self.rcv_nxt
            && h.win > 0
            && h.win as usize == self.snd_wnd
            && self.snd_nxt == self.snd_max;
        if !base {
            return Path::Slow;
        }
        if plen == 0 {
            if seq_gt(h.ack, self.snd_una)
                && seq_le(h.ack, self.snd_max)
                && self.cwnd >= self.snd_wnd
            {
                Path::FastAck
            } else {
                Path::Slow
            }
        } else if h.ack == self.snd_una && plen <= self.rcv_adv_wnd {
            // Reassembly queue is always empty on the clean orbit.
            Path::FastData
        } else {
            Path::Slow
        }
    }

    fn process_ack(&mut self, ack: u32, win: u16) -> usize {
        self.snd_wnd = win as usize;
        if seq_le(ack, self.snd_una) {
            if ack == self.snd_una && self.flight_size() > 0 {
                self.dupacks += 1;
                assert!(
                    self.dupacks < 3,
                    "oracle walker: fast retransmit on a clean orbit"
                );
            }
            return 0;
        }
        if seq_gt(ack, self.snd_max) {
            return 0;
        }
        let newly = seq_diff(self.snd_una, ack);
        self.snd_una = ack;
        if seq_lt(self.snd_nxt, self.snd_una) {
            self.snd_nxt = self.snd_una;
        }
        self.dupacks = 0;
        self.cwnd += if self.cwnd < self.ssthresh {
            self.mss
        } else {
            (self.mss * self.mss / self.cwnd).max(1)
        };
        newly
    }

    /// Returns the delivered in-order chain, if any.
    fn process_data(&mut self, seq: u32, plen: usize, chain: MChain) -> Option<MChain> {
        if plen == 0 {
            return None;
        }
        let end = seq.wrapping_add(plen as u32);
        if seq_le(end, self.rcv_nxt) {
            self.acknow = true;
            return None;
        }
        assert_eq!(
            seq, self.rcv_nxt,
            "oracle walker: out-of-order data on a clean orbit"
        );
        self.rcv_nxt = end;
        if self.delack {
            self.delack = false;
            self.acknow = true;
        } else {
            self.delack = true;
        }
        Some(chain)
    }

    fn window_update_due(&self, space: usize) -> bool {
        space >= self.rcv_adv_wnd + 2 * self.mss
    }
}

// ---------------------------------------------------------------------------
// Link-layer timing (mirrors crates/atm adapter.rs/link.rs and
// crates/ether lance.rs/wire.rs).
// ---------------------------------------------------------------------------

/// AAL3/4-style cell count: 8 bytes of CPCS overhead plus the padded
/// PDU, 44 payload bytes per cell.
fn atm_cells(dgram_len: usize) -> usize {
    (8 + dgram_len.div_ceil(4) * 4).div_ceil(44)
}

#[derive(Clone, Debug)]
struct AtmTx {
    exits: VecDeque<SimTime>,
    wire_busy: SimTime,
    cell_time: SimTime,
}

impl AtmTx {
    fn new() -> Self {
        AtmTx {
            exits: VecDeque::new(),
            wire_busy: SimTime::ZERO,
            // 53-byte cells at the 140 Mb/s TAXI rate.
            cell_time: SimTime::from_us_f64(53.0 * 8.0 / 140.0e6 * 1.0e6),
        }
    }

    /// `TxFifo::admit`: host copy-in gated by the cell that frees the
    /// FIFO slot; wire drain serialized behind the previous cell.
    fn admit(&mut self, ready: SimTime, copy_cost: SimTime) -> (SimTime, SimTime) {
        let gate = if self.exits.len() >= TX_FIFO_CELLS {
            self.exits[self.exits.len() - TX_FIFO_CELLS]
        } else {
            SimTime::ZERO
        };
        let copy_start = ready.max(gate);
        let copy_end = copy_start + copy_cost;
        let wire_start = copy_end.max(self.wire_busy);
        let wire_exit = wire_start + self.cell_time;
        self.wire_busy = wire_exit;
        self.exits.push_back(wire_exit);
        while self.exits.len() > TX_FIFO_CELLS {
            self.exits.pop_front();
        }
        (copy_end, wire_exit)
    }
}

#[derive(Clone, Debug, Default)]
struct EthTx {
    completions: VecDeque<SimTime>,
    wire_busy: SimTime,
}

impl EthTx {
    /// `LanceAdapter::claim_tx_slot`: retire completed descriptors,
    /// then either grant immediately or stall until the oldest
    /// in-flight frame completes.
    fn claim(&mut self, ready: SimTime) -> SimTime {
        while let Some(&f) = self.completions.front() {
            if f <= ready {
                self.completions.pop_front();
            } else {
                break;
            }
        }
        if self.completions.len() < LANCE_TX_RING {
            ready
        } else {
            self.completions.pop_front().expect("ring nonempty")
        }
    }

    fn frame_time(wire_len: usize) -> SimTime {
        // Preamble+SFD (8 bytes) plus the frame, plus the 9.6 µs IFG,
        // at 10 Mb/s.
        SimTime::from_us_f64(((wire_len + 8) as f64 * 8.0 + 96.0) / 10.0e6 * 1.0e6)
    }

    /// `EtherWire::carry` + `tx_complete`.
    fn carry(&mut self, ready: SimTime, wire_len: usize) -> SimTime {
        let start = ready.max(self.wire_busy);
        let end = start + Self::frame_time(wire_len);
        self.wire_busy = end;
        let delivered = end + SimTime::from_ns(ETHER_PROP_NS);
        self.completions.push_back(delivered);
        delivered
    }
}

#[derive(Clone, Debug)]
enum NicState {
    Atm(AtmTx),
    Eth(EthTx),
}

// ---------------------------------------------------------------------------
// The walker proper.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
enum KProc {
    Running,
    BlockedInRead,
    BlockedInWrite,
}

#[derive(Clone, Copy, Debug)]
struct Pkt {
    hdr: MHdr,
    /// Full IP datagram length (header + payload).
    dgram_len: usize,
}

enum Ev {
    App(usize),
    Arrive(usize, Pkt),
    Softintr(usize),
}

struct QEvent {
    t: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for QEvent {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for QEvent {}
impl PartialOrd for QEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap via reversal: earliest (time, seq) first.
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

struct WHost {
    tcb: MTcb,
    snd: MChain,
    rcv: MChain,
    proc: KProc,
    busy: SimTime,
    ipq: Vec<(SimTime, MHdr, MChain)>,
    ipq_ready_at: SimTime,
    softintr_pending: bool,
    staged: Vec<(SimTime, Pkt)>,
    wakeups: Vec<SimTime>,
    pcb_cache_ok: bool,
    nic: NicState,
    app: Phase,
    done_count: u64,
    got_len: usize,
}

struct WriteOut {
    done_at: SimTime,
    accepted: usize,
    blocked: bool,
}

struct ReadOut {
    done_at: SimTime,
    taken: usize,
    blocked: bool,
}

struct Walker {
    cfg: StackConfig,
    costs: CostModel,
    net: NetKind,
    size: usize,
    total_iters: u64,
    rec: SpanRecorder,
    hosts: Vec<WHost>,
    events: BinaryHeap<QEvent>,
    next_seq: u64,
    now: SimTime,
    t_start: SimTime,
    raw_start: SimTime,
    rtts: Vec<SimTime>,
    raw_rtts: Vec<SimTime>,
    completed: u64,
}

impl Walker {
    fn new(exp: &Experiment, total_iters: u64) -> Self {
        let cfg = exp.cfg;
        let mtu = match exp.net {
            NetKind::Atm => ATM_MTU,
            NetKind::Ether => ETHER_MTU,
        };
        let mss = tcp_mss(mtu, cfg.mss_one_cluster);
        let client_snd = cfg.iss;
        let client_rcv = cfg.iss ^ 0x5a5a_0000;
        let mk = |snd_iss: u32, rcv_iss: u32, client: bool| WHost {
            tcb: MTcb::new(snd_iss, rcv_iss, mss, &cfg),
            snd: MChain::default(),
            rcv: MChain::default(),
            proc: KProc::Running,
            busy: SimTime::ZERO,
            ipq: Vec::new(),
            ipq_ready_at: SimTime::ZERO,
            softintr_pending: false,
            staged: Vec::new(),
            wakeups: Vec::new(),
            pcb_cache_ok: false,
            nic: match exp.net {
                NetKind::Atm => NicState::Atm(AtmTx::new()),
                NetKind::Ether => NicState::Eth(EthTx::default()),
            },
            app: if client { Phase::Write(0) } else { Phase::Read },
            done_count: 0,
            got_len: 0,
        };
        let hosts = vec![
            mk(client_snd, client_rcv, true),
            mk(client_rcv, client_snd, false),
        ];
        let mut rec = SpanRecorder::new();
        rec.enabled = true;
        let mut w = Walker {
            cfg,
            costs: exp.costs.clone(),
            net: exp.net,
            size: exp.size,
            total_iters,
            rec,
            hosts,
            events: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            t_start: SimTime::ZERO,
            raw_start: SimTime::ZERO,
            rtts: Vec::new(),
            raw_rtts: Vec::new(),
            completed: 0,
        };
        // World::run schedules the client's app start, then the
        // server's, both at t = 0 (FIFO tie-break by sequence).
        w.schedule(SimTime::ZERO, Ev::App(0));
        w.schedule(SimTime::ZERO, Ev::App(1));
        w
    }

    fn schedule(&mut self, t: SimTime, ev: Ev) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(QEvent { t, seq, ev });
    }

    fn run(&mut self) -> Result<(), PredictError> {
        let mut handled = 0u64;
        while let Some(q) = self.events.pop() {
            handled += 1;
            if handled > MAX_EVENTS {
                return Err(PredictError::NoConvergence(format!(
                    "walker exceeded {MAX_EVENTS} events"
                )));
            }
            self.now = q.t;
            match q.ev {
                Ev::App(h) => self.app_step(h),
                Ev::Arrive(h, pkt) => self.on_arrive(h, pkt),
                Ev::Softintr(h) => self.on_softintr(h),
            }
        }
        Ok(())
    }

    fn integrated(&self) -> bool {
        self.cfg.checksum == ChecksumMode::Integrated
    }

    fn span(&mut self, h: usize, kind: SpanKind, a: SimTime, b: SimTime) {
        if h == 0 {
            self.rec.span(kind, a, b);
        }
    }

    fn mark(&mut self, h: usize, m: Mark, at: SimTime) {
        if h == 0 {
            self.rec.mark(m, at);
        }
    }

    // -- application loop (mirrors crates/core app.rs + world.rs) ----------

    fn app_step(&mut self, h: usize) {
        let mut now = self.now;
        loop {
            match self.hosts[h].app {
                Phase::Parked | Phase::Done => return,
                Phase::Write(offset) => {
                    if h == 0 && self.hosts[0].done_count >= self.total_iters {
                        self.hosts[0].app = Phase::Done;
                        self.hosts[1].app = Phase::Done;
                        return;
                    }
                    if h == 0 && offset == 0 {
                        let entry = now.max(self.hosts[0].busy);
                        self.raw_start = entry;
                        self.t_start = entry.quantized();
                    }
                    let out = self.syscall_write(h, now, self.size - offset);
                    self.flush(h);
                    now = out.done_at;
                    if out.blocked {
                        self.hosts[h].app = Phase::Write(offset + out.accepted);
                        break;
                    }
                    if h == 1 {
                        self.hosts[1].done_count += 1;
                    }
                    self.hosts[h].got_len = 0;
                    self.hosts[h].app = Phase::Read;
                }
                Phase::Read => {
                    let want = self.size - self.hosts[h].got_len;
                    let out = self.syscall_read(h, now, want);
                    self.flush(h);
                    if out.blocked {
                        break;
                    }
                    now = out.done_at;
                    self.hosts[h].got_len += out.taken;
                    if self.hosts[h].got_len < self.size {
                        continue;
                    }
                    if h == 0 {
                        self.mark(0, Mark::ReadReturn, now);
                        self.rtts
                            .push(now.quantized().saturating_since(self.t_start));
                        self.raw_rtts.push(now.saturating_since(self.raw_start));
                        self.hosts[0].done_count += 1;
                        self.completed = self.hosts[0].done_count;
                    }
                    self.hosts[h].app = Phase::Write(0);
                }
            }
        }
    }

    // -- system calls (mirrors crates/tcpip kernel.rs) ---------------------

    fn syscall_write(&mut self, h: usize, now: SimTime, len: usize) -> WriteOut {
        let start = now.max(self.hosts[h].busy);
        self.mark(h, Mark::WriteStart, start);
        let space = self.cfg.sockbuf - self.hosts[h].snd.len();
        let accepted = len.min(space);
        let blocked = accepted < len;
        let use_clusters = ultrix_uses_clusters(len);
        let (chain, receipt) = MChain::fill(accepted, use_clusters, self.integrated());
        let units = if use_clusters {
            receipt.clusters_allocated
        } else {
            receipt.mbufs_allocated.saturating_sub(1)
        };
        let base = if use_clusters {
            &self.costs.user_tx_cluster
        } else {
            &self.costs.user_tx_small
        };
        let mut user_us = base.us(accepted, units);
        if self.integrated() {
            user_us += self.costs.integrated_delta_per_byte_us * accepted as f64
                + self.costs.integrated_tx_fixed_us;
        }
        let cost = SimTime::from_us_f64(user_us);
        self.span(h, SpanKind::TxUser, start, start + cost);
        let mut cursor = start + cost;
        self.hosts[h].snd.append(chain);
        if blocked {
            self.hosts[h].proc = KProc::BlockedInWrite;
        }
        cursor = self.tcp_output(h, cursor);
        self.mark(h, Mark::WriteEnd, cursor);
        self.hosts[h].busy = self.hosts[h].busy.max(cursor);
        WriteOut {
            done_at: cursor,
            accepted,
            blocked,
        }
    }

    fn syscall_read(&mut self, h: usize, now: SimTime, want: usize) -> ReadOut {
        let start = now.max(self.hosts[h].busy);
        let avail = self.hosts[h].rcv.len();
        if avail == 0 {
            self.hosts[h].proc = KProc::BlockedInRead;
            return ReadOut {
                done_at: start,
                taken: 0,
                blocked: true,
            };
        }
        let take = want.min(avail);
        let mbufs = self.hosts[h].rcv.mbuf_count();
        let cost = self.costs.user_rx.eval(take, mbufs);
        self.span(h, SpanKind::RxUser, start, start + cost);
        let mut cursor = start + cost;
        self.hosts[h].rcv.trim_front(take);
        let space = self.cfg.sockbuf - self.hosts[h].rcv.len();
        if self.hosts[h].tcb.window_update_due(space) {
            self.hosts[h].tcb.acknow = true;
            cursor = self.tcp_output(h, cursor);
        }
        self.hosts[h].busy = self.hosts[h].busy.max(cursor);
        ReadOut {
            done_at: cursor,
            taken: take,
            blocked: false,
        }
    }

    // -- TCP output (mirrors kernel.rs tcp_output) -------------------------

    fn tcp_output(&mut self, h: usize, mut cursor: SimTime) -> SimTime {
        let mut first = true;
        while let Some((offset, len)) = self.hosts[h].tcb.next_send(self.hosts[h].snd.len()) {
            let (seg, receipt) = self.hosts[h].snd.copy_range(offset, len);
            let mcopy = if receipt.clusters_shared > 0 {
                self.costs.mcopy_cluster.eval(0, receipt.clusters_shared)
            } else {
                self.costs.mcopy_small.eval(len, receipt.mbufs_allocated)
            };
            self.span(h, SpanKind::TxTcpMcopy, cursor, cursor + mcopy);
            cursor += mcopy;
            let rcv_space = self.cfg.sockbuf - self.hosts[h].rcv.len();
            let hdr = self.hosts[h].tcb.build_data_header(offset, len, rcv_space);
            cursor = self.checksum_out(h, cursor, &seg);
            let seg_cost = SimTime::from_us_f64(if first {
                self.costs.tcp_out_segment_us
            } else {
                self.costs.tcp_out_segment_warm_us
            });
            self.span(h, SpanKind::TxTcpSegment, cursor, cursor + seg_cost);
            cursor += seg_cost;
            self.hosts[h].tcb.note_sent(hdr.seq, len);
            let ip_cost = SimTime::from_us_f64(if first {
                self.costs.ip_out_us
            } else {
                self.costs.ip_out_warm_us
            });
            self.span(h, SpanKind::TxIp, cursor, cursor + ip_cost);
            cursor += ip_cost;
            cursor = self.nic_transmit(h, cursor, hdr, HDR_LEN + len);
            first = false;
        }
        if self.hosts[h].tcb.acknow {
            cursor = self.send_pure_ack(h, cursor);
        }
        cursor
    }

    fn send_pure_ack(&mut self, h: usize, mut cursor: SimTime) -> SimTime {
        let rcv_space = self.cfg.sockbuf - self.hosts[h].rcv.len();
        let hdr = self.hosts[h].tcb.build_ack_header(rcv_space);
        let seg = MChain::default();
        cursor = self.checksum_out(h, cursor, &seg);
        let seg_cost = SimTime::from_us_f64(self.costs.tcp_out_segment_us);
        self.span(h, SpanKind::TxTcpSegment, cursor, cursor + seg_cost);
        cursor += seg_cost;
        self.hosts[h].tcb.note_sent(hdr.seq, 0);
        let ip_cost = SimTime::from_us_f64(self.costs.ip_out_us);
        self.span(h, SpanKind::TxIp, cursor, cursor + ip_cost);
        cursor += ip_cost;
        self.nic_transmit(h, cursor, hdr, HDR_LEN)
    }

    fn checksum_out(&mut self, h: usize, cursor: SimTime, seg: &MChain) -> SimTime {
        let cost = match self.cfg.checksum {
            ChecksumMode::Standard(which) => {
                self.costs
                    .kernel_cksum(which, seg.len() + HDR_LEN, seg.mbuf_count().max(1))
            }
            ChecksumMode::Integrated => {
                if seg.stored_all() {
                    self.costs.partial_combine.eval(HDR_LEN, seg.mbuf_count())
                } else {
                    self.costs.kernel_cksum(
                        ChecksumImpl::Optimized,
                        seg.len() + HDR_LEN,
                        seg.mbuf_count().max(1),
                    )
                }
            }
            ChecksumMode::None => return cursor,
        };
        self.span(h, SpanKind::TxTcpChecksum, cursor, cursor + cost);
        cursor + cost
    }

    // -- NIC models --------------------------------------------------------

    fn nic_transmit(&mut self, h: usize, cursor: SimTime, hdr: MHdr, dgram_len: usize) -> SimTime {
        match self.net {
            NetKind::Atm => {
                let cells = atm_cells(dgram_len);
                let t0 = cursor;
                let mut cur = cursor + SimTime::from_us_f64(self.costs.atm_tx_fixed_us);
                let per_cell = SimTime::from_us_f64(self.costs.atm_tx_per_cell_us);
                let mut last_arrival = SimTime::ZERO;
                let NicState::Atm(fifo) = &mut self.hosts[h].nic else {
                    unreachable!()
                };
                for _ in 0..cells {
                    let (copy_end, wire_exit) = fifo.admit(cur, per_cell);
                    cur = copy_end;
                    last_arrival = last_arrival.max(wire_exit + SimTime::from_ns(ATM_PROP_NS));
                }
                self.span(h, SpanKind::TxDriver, t0, cur);
                self.mark(h, Mark::TxSignalled, cur);
                self.hosts[h]
                    .staged
                    .push((last_arrival, Pkt { hdr, dgram_len }));
                cur
            }
            NetKind::Ether => {
                let wire_len = (18 + dgram_len).max(64);
                let cost = SimTime::from_us_f64(
                    self.costs.eth_tx_fixed_us + self.costs.eth_tx_per_byte_us * wire_len as f64,
                );
                let NicState::Eth(eth) = &mut self.hosts[h].nic else {
                    unreachable!()
                };
                let granted = eth.claim(cursor);
                let cur = granted + cost;
                let delivered = eth.carry(cur, wire_len);
                self.span(h, SpanKind::TxDriver, cursor, cur);
                self.mark(h, Mark::TxSignalled, cur);
                self.hosts[h]
                    .staged
                    .push((delivered, Pkt { hdr, dgram_len }));
                cur
            }
        }
    }

    fn flush(&mut self, h: usize) {
        let staged = std::mem::take(&mut self.hosts[h].staged);
        let peer = 1 - h;
        let now = self.now;
        for (arrival, pkt) in staged {
            self.schedule(arrival.max(now), Ev::Arrive(peer, pkt));
        }
    }

    fn on_arrive(&mut self, h: usize, pkt: Pkt) {
        let soft = match self.net {
            NetKind::Atm => self.atm_receive(h, pkt),
            NetKind::Ether => self.ether_receive(h, pkt),
        };
        if let Some(at) = soft {
            self.schedule(at, Ev::Softintr(h));
        }
    }

    fn atm_receive(&mut self, h: usize, pkt: Pkt) -> Option<SimTime> {
        let now = self.now;
        self.mark(h, Mark::SegmentArrived, now);
        let continuation = self.hosts[h].busy > now;
        let start = now.max(self.hosts[h].busy);
        let cells = atm_cells(pkt.dgram_len);
        let mut us = if continuation {
            0.0
        } else {
            self.costs.atm_rx_fixed_us
        } + self.costs.atm_rx_per_cell_us * cells as f64;
        if self.integrated() {
            us += self.costs.integrated_delta_per_byte_us * pkt.dgram_len as f64
                + self.costs.integrated_rx_fixed_us;
        }
        let end = start + SimTime::from_us_f64(us);
        self.span(h, SpanKind::RxDriver, start, end);
        self.hosts[h].busy = end;
        let use_clusters = ultrix_uses_clusters(pkt.dgram_len);
        let (chain, _) = MChain::fill(pkt.dgram_len, use_clusters, self.integrated());
        let soft = self.enqueue_ip(h, end, pkt.hdr, chain);
        if continuation {
            self.retime_ipq(h, end);
        }
        soft
    }

    fn ether_receive(&mut self, h: usize, pkt: Pkt) -> Option<SimTime> {
        let now = self.now;
        self.mark(h, Mark::SegmentArrived, now);
        let start = now.max(self.hosts[h].busy);
        let wire_len = (18 + pkt.dgram_len).max(64);
        let payload_len = pkt.dgram_len.max(46);
        let mut us = self.costs.eth_rx_fixed_us + self.costs.eth_rx_per_byte_us * wire_len as f64;
        if self.integrated() {
            us += self.costs.integrated_delta_per_byte_us * payload_len as f64
                + self.costs.integrated_rx_fixed_us;
        }
        let end = start + SimTime::from_us_f64(us);
        self.span(h, SpanKind::RxDriver, start, end);
        self.hosts[h].busy = end;
        let use_clusters = ultrix_uses_clusters(payload_len);
        let (chain, _) = MChain::fill(payload_len, use_clusters, self.integrated());
        self.enqueue_ip(h, end, pkt.hdr, chain)
    }

    fn enqueue_ip(&mut self, h: usize, now: SimTime, hdr: MHdr, chain: MChain) -> Option<SimTime> {
        let cluster = chain.any_cluster();
        self.hosts[h].ipq.push((now, hdr, chain));
        let dispatch = SimTime::from_us_f64(self.costs.softintr_dispatch_us);
        self.hosts[h].ipq_ready_at = self.hosts[h].ipq_ready_at.max(now + dispatch);
        if self.hosts[h].softintr_pending {
            None
        } else {
            self.hosts[h].softintr_pending = true;
            let extra = if cluster {
                self.costs.ipq_cluster_extra_us
            } else {
                0.0
            };
            Some(now + SimTime::from_us_f64(self.costs.softintr_dispatch_us + extra))
        }
    }

    fn retime_ipq(&mut self, h: usize, t: SimTime) {
        for (enq, _, _) in &mut self.hosts[h].ipq {
            *enq = (*enq).max(t);
        }
        let dispatch = SimTime::from_us_f64(self.costs.softintr_dispatch_us);
        self.hosts[h].ipq_ready_at = self.hosts[h].ipq_ready_at.max(t + dispatch);
    }

    fn on_softintr(&mut self, h: usize) {
        self.hosts[h].softintr_pending = false;
        let start = self
            .now
            .max(self.hosts[h].busy)
            .max(self.hosts[h].ipq_ready_at);
        let mut cursor = start;
        let mut first = true;
        let entries = std::mem::take(&mut self.hosts[h].ipq);
        for (enq, hdr, chain) in entries {
            self.span(h, SpanKind::RxIpq, enq, start.max(enq));
            cursor = self.ip_input(h, cursor, hdr, chain, first);
            first = false;
        }
        self.hosts[h].busy = self.hosts[h].busy.max(cursor);
        self.flush(h);
        let wakeups = std::mem::take(&mut self.hosts[h].wakeups);
        let now = self.now;
        for run_at in wakeups {
            self.schedule(run_at.max(now), Ev::App(h));
        }
    }

    fn ip_input(
        &mut self,
        h: usize,
        mut cursor: SimTime,
        hdr: MHdr,
        mut chain: MChain,
        first: bool,
    ) -> SimTime {
        let cluster = chain.any_cluster();
        let ip_us = if !first {
            // Subsequent datagrams in one softintr run are cache-warm.
            self.costs.ip_in_small_us.min(self.costs.ip_in_cluster_us) * 0.2
        } else if cluster {
            self.costs.ip_in_cluster_us
        } else if chain.mbuf_count() > 1 {
            self.costs.ip_in_small_us + self.costs.ip_in_multi_mbuf_extra_us
        } else {
            self.costs.ip_in_small_us
        };
        let ip_cost = SimTime::from_us_f64(ip_us);
        self.span(h, SpanKind::RxIp, cursor, cursor + ip_cost);
        cursor += ip_cost;
        if chain.len() > hdr.ip_len {
            let excess = chain.len() - hdr.ip_len;
            chain.trim_back(excess);
        }
        self.tcp_input(h, cursor, hdr, chain)
    }

    fn tcp_input(
        &mut self,
        h: usize,
        mut cursor: SimTime,
        hdr: MHdr,
        mut chain: MChain,
    ) -> SimTime {
        let plen = hdr.payload_len();
        if self.cfg.checksum.verifies() {
            let cost = self.checksum_in(&chain);
            self.span(h, SpanKind::RxTcpChecksum, cursor, cursor + cost);
            cursor += cost;
        }
        chain.trim_front(HDR_LEN);
        let lookup_us = self.pcb_lookup_us(h);
        let path = if self.cfg.header_prediction {
            self.hosts[h].tcb.predict_path(&hdr, plen)
        } else {
            Path::Slow
        };
        let seg_start = cursor;
        let mut woke_reader = false;
        let mut woke_writer = false;
        match path {
            Path::FastAck => {
                let newly = self.hosts[h].tcb.process_ack(hdr.ack, hdr.win);
                self.hosts[h].snd.trim_front(newly);
                let space = self.cfg.sockbuf - self.hosts[h].snd.len();
                if self.hosts[h].proc == KProc::BlockedInWrite && space > 0 {
                    woke_writer = true;
                }
                cursor += SimTime::from_us_f64(self.costs.tcp_in_fast_us + lookup_us);
            }
            Path::FastData => {
                if let Some(d) = self.hosts[h].tcb.process_data(hdr.seq, plen, chain) {
                    self.hosts[h].rcv.append(d);
                }
                if self.hosts[h].proc == KProc::BlockedInRead {
                    woke_reader = true;
                }
                cursor += SimTime::from_us_f64(self.costs.tcp_in_fast_us + lookup_us);
            }
            Path::Slow => {
                let mbufs = chain.mbuf_count();
                let newly = self.hosts[h].tcb.process_ack(hdr.ack, hdr.win);
                self.hosts[h].snd.trim_front(newly);
                let space = self.cfg.sockbuf - self.hosts[h].snd.len();
                if newly > 0 && self.hosts[h].proc == KProc::BlockedInWrite && space > 0 {
                    woke_writer = true;
                }
                if plen > 0 {
                    if let Some(d) = self.hosts[h].tcb.process_data(hdr.seq, plen, chain) {
                        self.hosts[h].rcv.append(d);
                    }
                }
                if self.hosts[h].proc == KProc::BlockedInRead && !self.hosts[h].rcv.is_empty() {
                    woke_reader = true;
                }
                cursor += SimTime::from_us_f64(self.costs.tcp_in_slow.us(0, mbufs) + lookup_us);
            }
        }
        self.span(h, SpanKind::RxTcpSegment, seg_start, cursor);
        if woke_reader {
            let run_at = cursor + SimTime::from_us_f64(self.costs.wakeup_us);
            self.span(h, SpanKind::RxWakeup, cursor, run_at);
            self.hosts[h].wakeups.push(run_at);
            self.hosts[h].proc = KProc::Running;
        }
        if woke_writer {
            let run_at = cursor + SimTime::from_us_f64(self.costs.wakeup_us);
            self.hosts[h].wakeups.push(run_at);
            self.hosts[h].proc = KProc::Running;
        }
        self.tcp_output(h, cursor)
    }

    fn checksum_in(&self, chain: &MChain) -> SimTime {
        match self.cfg.checksum {
            ChecksumMode::Standard(which) => {
                self.costs
                    .kernel_cksum(which, chain.len(), chain.mbuf_count().max(1))
            }
            ChecksumMode::Integrated => {
                if chain.stored_all() {
                    self.costs.partial_combine.eval(0, chain.mbuf_count())
                } else {
                    self.costs.kernel_cksum(
                        ChecksumImpl::Optimized,
                        chain.len(),
                        chain.mbuf_count().max(1),
                    )
                }
            }
            ChecksumMode::None => SimTime::ZERO,
        }
    }

    fn pcb_lookup_us(&mut self, h: usize) -> f64 {
        let use_cache = self.cfg.pcb_use_cache();
        if use_cache && self.hosts[h].pcb_cache_ok {
            return self.costs.pcb_cache_check_us;
        }
        let us = match self.cfg.pcb_org {
            PcbOrg::Hash => self.costs.pcb_hash_probe_us,
            // Move-to-front is indistinguishable from the plain list
            // here: the lone benchmark PCB is already at the head.
            PcbOrg::List | PcbOrg::Mtf => {
                // The benchmark PCB sits at the list head (inserted
                // after the ambient PCBs, newest-first), so the scan
                // touches one entry; a failed cache probe precedes
                // the scan when header prediction enables the cache.
                self.costs.pcb_lookup_call_us
                    + self.costs.pcb_lookup_base_us
                    + self.costs.pcb_lookup_per_entry_us
                    + if use_cache {
                        self.costs.pcb_cache_check_us
                    } else {
                        0.0
                    }
            }
        };
        if use_cache {
            self.hosts[h].pcb_cache_ok = true;
        }
        us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atm_cell_counts_match_adapter() {
        assert_eq!(atm_cells(40), 2);
        assert_eq!(atm_cells(540 + 8), 13); // 540 payload + CPCS handled by caller
        assert_eq!(atm_cells(540), 13);
        assert_eq!(atm_cells(4136), 95);
        assert_eq!(atm_cells(4040), 92);
        assert_eq!(atm_cells(3944), 90);
        assert_eq!(atm_cells(8040), 183);
        assert_eq!(atm_cells(9188), 209);
    }

    #[test]
    fn cell_time_matches_link_config() {
        assert_eq!(AtmTx::new().cell_time.as_ns(), 3029);
    }

    #[test]
    fn fill_matches_expected_mbuf_counts() {
        let (c, r) = MChain::fill(8000, true, false);
        assert_eq!(c.mbuf_count(), 2);
        assert_eq!(r.clusters_allocated, 2);
        let (c, _) = MChain::fill(200, false, false);
        assert_eq!(c.mbuf_count(), 2); // 100 + 100
        let (c, _) = MChain::fill(100, false, false);
        assert_eq!(c.mbuf_count(), 1);
        let (c, _) = MChain::fill(0, false, false);
        assert_eq!(c.mbuf_count(), 1);
    }

    #[test]
    fn unsupported_configs_are_refused() {
        // Each §4.2.1 knob alone.
        for knob in 0..4 {
            let mut exp = Experiment::rpc(NetKind::Atm, 200);
            let f = &mut exp.faults;
            *[
                &mut f.ber,
                &mut f.cell_loss,
                &mut f.controller_corrupt,
                &mut f.gateway_corrupt,
            ][knob] = 1e-9;
            assert!(matches!(predict(&exp), Err(PredictError::Unsupported(_))));
        }
        let mut exp = Experiment::rpc(NetKind::Atm, 200);
        exp.workload = Workload::Bulk;
        assert!(matches!(predict(&exp), Err(PredictError::Unsupported(_))));
    }

    #[test]
    fn predict_converges_on_small_atm_rpc() {
        let exp = Experiment::rpc(NetKind::Atm, 200);
        let p = predict(&exp).expect("prediction");
        assert!(p.rtt > SimTime::ZERO);
        assert!(p.tx.total() > 0.0);
        assert!(p.rx.total() > 0.0);
        assert_eq!(p.rtt.as_ns() % 40, 0, "RTT must be clock-quantized");
    }
}
