//! The TCP control block and protocol decisions.
//!
//! This is the BSD 4.4 alpha TCP the paper studies, reduced to the
//! established-connection data path plus the machinery the
//! experiments exercise:
//!
//! - segmentation against MSS, the send window and the congestion
//!   window, with Nagle's algorithm (disabled by the RPC benchmark);
//! - **header prediction** exactly as §3 describes it: the fast path
//!   succeeds only for a pure in-sequence ACK (the sender of a
//!   unidirectional transfer) or a pure in-sequence data segment
//!   acknowledging nothing new (the receiver of one). The RPC
//!   round-trip — "data with a piggybacked acknowledgment" — fails
//!   both predicates;
//! - ACK processing with duplicate-ACK fast retransmit and slow-start
//!   congestion control (needed by the cell-loss experiments);
//! - out-of-order segment reassembly;
//! - delayed ACKs (every-other-segment in bulk transfers) and
//!   retransmission timing.
//!
//! The control block makes protocol *decisions*; the
//! [`crate::kernel::Kernel`] owns buffers, charges costs, and moves
//! real bytes.

use mbuf::Chain;
use simkit::SimTime;

use crate::config::{CcVariant, StackConfig, RTO_MIN_US};
use crate::hdr::{flags, TcpIpHeader};
use crate::pcb::PcbKey;
use crate::seq::{seq_diff, seq_gt, seq_le, seq_lt};

/// Typed connection error delivered to the application instead of a
/// hang: the socket's `so_error`, returned by the next read/write
/// syscall after the connection dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnError {
    /// The retransmission limit was exhausted (BSD `ETIMEDOUT`): the
    /// peer stopped acknowledging and the connection was dropped.
    TimedOut,
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::TimedOut => write!(f, "ETIMEDOUT: retransmission limit exceeded"),
        }
    }
}

impl std::error::Error for ConnError {}

/// What the header-prediction check concluded (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Prediction {
    /// Pure in-sequence ACK: take the sender-side fast path.
    FastAck,
    /// Pure in-sequence data acknowledging nothing new: take the
    /// receiver-side fast path.
    FastData,
    /// Anything else — including the RPC case of data with a
    /// piggybacked ACK — takes the slow path.
    Slow,
}

/// Counters the experiments read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Segments transmitted (including retransmissions).
    pub segs_out: u64,
    /// Data segments received.
    pub segs_in: u64,
    /// Pure ACKs transmitted.
    pub acks_only_out: u64,
    /// Header-prediction evaluations.
    pub predict_checks: u64,
    /// Fast path taken for pure data.
    pub predict_data_hits: u64,
    /// Fast path taken for pure ACKs.
    pub predict_ack_hits: u64,
    /// Retransmissions (timer or fast retransmit).
    pub rexmits: u64,
    /// Segments dropped for bad TCP checksums.
    pub cksum_drops: u64,
    /// Out-of-order segments queued.
    pub ooo_segments: u64,
}

impl std::ops::AddAssign for TcpStats {
    /// Field-wise sum. Destructures exhaustively, so a new counter
    /// fails to compile here until it is pooled too.
    fn add_assign(&mut self, o: TcpStats) {
        let TcpStats {
            segs_out,
            segs_in,
            acks_only_out,
            predict_checks,
            predict_data_hits,
            predict_ack_hits,
            rexmits,
            cksum_drops,
            ooo_segments,
        } = o;
        self.segs_out += segs_out;
        self.segs_in += segs_in;
        self.acks_only_out += acks_only_out;
        self.predict_checks += predict_checks;
        self.predict_data_hits += predict_data_hits;
        self.predict_ack_hits += predict_ack_hits;
        self.rexmits += rexmits;
        self.cksum_drops += cksum_drops;
        self.ooo_segments += ooo_segments;
    }
}

/// Connection state (the subset of the RFC 793 machine the
/// experiments exercise; teardown is administrative).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// Passive open: waiting for a SYN (wildcard PCB).
    Listen,
    /// Active open: SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Passive side: SYN received, SYN-ACK sent, waiting for ACK.
    SynReceived,
    /// Data transfer.
    Established,
    /// Active close: FIN sent, waiting for its ACK (and the peer's
    /// FIN).
    FinWait1,
    /// Our FIN is acknowledged; waiting for the peer's FIN.
    FinWait2,
    /// Passive close: peer's FIN received; the application has not
    /// closed yet.
    CloseWait,
    /// Passive close: our FIN sent after theirs, awaiting its ACK.
    LastAck,
    /// Both FINs exchanged; draining the 2MSL quiet period.
    TimeWait,
    /// Gone; the PCB is reclaimed.
    Closed,
}

/// One TCP connection.
pub struct Tcb {
    /// Connection state.
    pub state: TcpState,
    /// Demultiplexing key.
    pub key: PcbKey,
    /// Id in the PCB table.
    pub id: usize,
    /// Maximum segment size (negotiated).
    pub mss: usize,
    /// Send unacknowledged.
    pub snd_una: u32,
    /// Send next.
    pub snd_nxt: u32,
    /// Highest sequence sent (for retransmit bookkeeping).
    pub snd_max: u32,
    /// Peer's advertised window.
    pub snd_wnd: usize,
    /// Congestion window.
    pub cwnd: usize,
    /// Slow-start threshold.
    pub ssthresh: usize,
    /// Receive next (expected sequence).
    pub rcv_nxt: u32,
    /// Window size advertised in the last segment we sent.
    pub rcv_adv_wnd: usize,
    /// Duplicate-ACK counter.
    pub dupacks: u32,
    /// A delayed ACK is pending.
    pub delack: bool,
    /// An ACK must be sent immediately.
    pub acknow: bool,
    /// Out-of-order segments awaiting the gap fill: `(seq, chain)`.
    pub reasm: Vec<(u32, Chain)>,
    /// Retransmit deadline, when data is in flight.
    pub rexmt_deadline: Option<SimTime>,
    /// Persist (zero-window probe) deadline, when the peer closed its
    /// window while we still have data to send.
    pub persist_deadline: Option<SimTime>,
    /// Exponential backoff shift.
    pub rexmt_shift: u32,
    /// Smoothed round-trip time, microseconds (BSD `t_srtt`).
    pub srtt_us: f64,
    /// Smoothed mean deviation, microseconds (BSD `t_rttvar`).
    pub rttvar_us: f64,
    /// RTT samples folded into the estimator.
    pub rtt_samples: u64,
    /// The segment currently being timed: `(end_seq, sent_at)`. Karn's
    /// algorithm: only *first* transmissions are timed; any retransmit
    /// cancels the measurement so an ACK for the old or the new copy
    /// cannot poison the estimator.
    pub rtt_timed: Option<(u32, SimTime)>,
    /// Karn's algorithm, second half: after a retransmission the
    /// backed-off RTO is kept until an ACK covers `snd_max` as of the
    /// retransmit (the recovery point). Acks of the retransmitted data
    /// itself are ambiguous and must not reset the backoff.
    pub rexmt_recover: Option<u32>,
    /// Pending socket error (BSD `so_error`): set when the connection
    /// is aborted, delivered by the next read/write syscall.
    pub so_error: Option<ConnError>,
    /// IP identification counter.
    pub ip_id: u16,
    /// Counters.
    pub stats: TcpStats,
    /// Congestion-control variant.
    pub cc: CcVariant,
    /// Whether the RFC 5681/6582/6675 machinery is armed. Cold starts
    /// (`initial_cwnd_segs: Some(_)`) arm it; the warm seed start
    /// keeps the pre-CC stack's ACK processing bit-for-bit — including
    /// its idiosyncratic counting of data-bearing segments as
    /// duplicate ACKs — so the original goldens stay byte-identical.
    pub cc_armed: bool,
    /// In fast recovery (Reno/NewReno inflation, SACK scoreboard
    /// retransmission). Tahoe never sets this: it falls back to slow
    /// start instead.
    pub in_recovery: bool,
    /// The recovery point: `snd_max` when the last loss-recovery
    /// episode (fast retransmit or RTO) began. An ACK at or above it
    /// ends recovery (RFC 6582's `recover`); a third duplicate ACK
    /// below it must not start a new episode.
    pub recover: u32,
    /// A single forced retransmission `(seq, len)` queued by fast
    /// retransmit or a NewReno partial ACK; consumed by
    /// [`Tcb::next_send`]/[`Tcb::note_sent`] ahead of normal sending.
    pub force_rexmt: Option<(u32, usize)>,
    /// Sender SACK scoreboard: disjoint SACKed ranges `[start, end)`,
    /// ascending, clipped to `(snd_una, snd_max]`.
    pub sacked: Vec<(u32, u32)>,
    /// Highest sequence retransmitted by the SACK scoreboard this
    /// episode (RFC 6675 `HighRxt`): holes below it are not resent
    /// again until an RTO.
    pub high_rxt: u32,
    /// Bytes retransmitted and not yet acknowledged this episode;
    /// counted into [`Tcb::pipe`] so scoreboard resends self-clock.
    pub rexmt_out: usize,
    nodelay: bool,
}

impl Tcb {
    /// Creates an established control block (the harness sets up the
    /// connection administratively; the paper measures established-
    /// connection traffic only).
    #[must_use]
    pub fn established(key: PcbKey, id: usize, mss: usize, cfg: &StackConfig) -> Self {
        let iss = cfg.iss;
        // Warm start (the seed behaviour, and the paper's steady-state
        // measurements): cwnd never binds on a clean path. Cold start
        // (the cc study) begins in slow start from a few segments.
        let cwnd = match cfg.initial_cwnd_segs {
            None => cfg.sockbuf,
            Some(n) => (n as usize).max(1) * mss.max(1),
        };
        Tcb {
            state: TcpState::Established,
            key,
            id,
            mss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            snd_wnd: cfg.sockbuf,
            cwnd,
            ssthresh: cfg.sockbuf,
            rcv_nxt: iss ^ 0x5a5a_0000,
            rcv_adv_wnd: cfg.sockbuf,
            dupacks: 0,
            delack: false,
            acknow: false,
            reasm: Vec::new(),
            rexmt_deadline: None,
            persist_deadline: None,
            rexmt_shift: 0,
            srtt_us: 0.0,
            rttvar_us: 0.0,
            rtt_samples: 0,
            rtt_timed: None,
            rexmt_recover: None,
            so_error: None,
            ip_id: 1,
            stats: TcpStats::default(),
            cc: cfg.cc,
            cc_armed: cfg.initial_cwnd_segs.is_some(),
            in_recovery: false,
            recover: iss,
            force_rexmt: None,
            sacked: Vec::new(),
            high_rxt: iss,
            rexmt_out: 0,
            nodelay: cfg.nodelay,
        }
    }

    /// Creates a listener control block (passive open on a wildcard
    /// key).
    #[must_use]
    pub fn listener(key: PcbKey, id: usize, cfg: &StackConfig) -> Self {
        let mut t = Tcb::established(key, id, 536, cfg);
        t.state = TcpState::Listen;
        t
    }

    /// Creates a control block in SYN-SENT (active open). `iss` is
    /// randomized by the caller per connection.
    #[must_use]
    pub fn syn_sent(key: PcbKey, id: usize, mss_offer: usize, iss: u32, cfg: &StackConfig) -> Self {
        let mut t = Tcb::established(key, id, mss_offer, cfg);
        t.state = TcpState::SynSent;
        t.snd_una = iss;
        t.snd_nxt = iss;
        t.snd_max = iss;
        t.recover = iss;
        t.high_rxt = iss;
        t.rcv_nxt = 0;
        t
    }

    /// Bytes in flight.
    #[must_use]
    pub fn flight_size(&self) -> usize {
        seq_diff(self.snd_una, self.snd_nxt) as usize
    }

    /// Decides the next transmission given `sndbuf_len` bytes
    /// buffered: returns `(offset_in_sndbuf, len)` or `None` when
    /// nothing should be sent now (empty, window-limited, or Nagle).
    ///
    /// A forced retransmission (fast retransmit, NewReno partial ACK)
    /// takes precedence; during SACK recovery the scoreboard drives
    /// hole retransmission, pipe-limited, ahead of new data.
    #[must_use]
    pub fn next_send(&self, sndbuf_len: usize) -> Option<(usize, usize)> {
        if let Some((seq, len)) = self.force_rexmt {
            let offset = seq_diff(self.snd_una, seq) as usize;
            let len = len.min(sndbuf_len.saturating_sub(offset)).min(self.mss);
            if len > 0 {
                return Some((offset, len));
            }
        }
        if self.cc == CcVariant::Sack && self.in_recovery {
            let pipe = self.pipe();
            if pipe >= self.cwnd {
                return None;
            }
            if let Some((seq, len)) = self.sack_next_hole() {
                let offset = seq_diff(self.snd_una, seq) as usize;
                let len = len.min(sndbuf_len.saturating_sub(offset));
                if len > 0 {
                    return Some((offset, len));
                }
            }
            // No holes left below snd_nxt: forward-transmit new data,
            // still pipe-limited (RFC 6675 NextSeg rule 2).
            let offset = self.flight_size();
            let avail = sndbuf_len.saturating_sub(offset);
            let allowed = self.snd_wnd.saturating_sub(offset);
            let len = avail.min(allowed).min(self.mss);
            if len == 0 {
                return None;
            }
            return Some((offset, len));
        }
        let offset = seq_diff(self.snd_una, self.snd_nxt) as usize;
        let avail = sndbuf_len.saturating_sub(offset);
        let wnd = self.snd_wnd.min(self.cwnd);
        let allowed = wnd.saturating_sub(offset);
        let len = avail.min(allowed).min(self.mss);
        if len == 0 {
            return None;
        }
        // Nagle: hold sub-MSS segments while data is outstanding
        // (TCP_NODELAY bypasses; the RPC benchmark sets it).
        if len < self.mss && offset > 0 && !self.nodelay {
            return None;
        }
        Some((offset, len))
    }

    /// RFC 6675-style `pipe`: an estimate of bytes in the network —
    /// flight minus what the scoreboard says arrived, plus what this
    /// episode retransmitted and has not yet seen acknowledged.
    #[must_use]
    pub fn pipe(&self) -> usize {
        self.flight_size().saturating_sub(self.sacked_bytes()) + self.rexmt_out
    }

    /// Total bytes covered by the SACK scoreboard.
    #[must_use]
    pub fn sacked_bytes(&self) -> usize {
        self.sacked
            .iter()
            .map(|&(s, e)| seq_diff(s, e) as usize)
            .sum()
    }

    /// The next scoreboard hole to retransmit: the first unSACKed
    /// range at or above `high_rxt` and below `snd_nxt`, capped at
    /// one MSS and at the next SACKed range.
    fn sack_next_hole(&self) -> Option<(u32, usize)> {
        let mut s = if seq_gt(self.high_rxt, self.snd_una) {
            self.high_rxt
        } else {
            self.snd_una
        };
        while seq_lt(s, self.snd_nxt) {
            if let Some(&(_, e)) = self
                .sacked
                .iter()
                .find(|&&(bs, be)| seq_le(bs, s) && seq_lt(s, be))
            {
                s = e;
                continue;
            }
            let mut end = self.snd_nxt;
            for &(bs, _) in &self.sacked {
                if seq_gt(bs, s) && seq_lt(bs, end) {
                    end = bs;
                }
            }
            let len = (seq_diff(s, end) as usize).min(self.mss);
            return Some((s, len));
        }
        None
    }

    /// Folds incoming SACK blocks into the sender scoreboard,
    /// clipping to `(snd_una, snd_max]` and keeping the ranges
    /// disjoint and ascending.
    pub fn sack_update(&mut self, blocks: &[(u32, u32)]) {
        for &(bs, be) in blocks {
            let mut s = bs;
            let mut e = be;
            if seq_lt(s, self.snd_una) {
                s = self.snd_una;
            }
            if seq_gt(e, self.snd_max) {
                e = self.snd_max;
            }
            if !seq_lt(s, e) {
                continue;
            }
            let pos = self
                .sacked
                .iter()
                .position(|&(os, _)| seq_gt(os, s))
                .unwrap_or(self.sacked.len());
            self.sacked.insert(pos, (s, e));
        }
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.sacked.len());
        for &(s, e) in &self.sacked {
            if let Some(last) = merged.last_mut() {
                if seq_le(s, last.1) {
                    if seq_gt(e, last.1) {
                        last.1 = e;
                    }
                    continue;
                }
            }
            merged.push((s, e));
        }
        self.sacked = merged;
    }

    /// Drops scoreboard ranges cumulatively acknowledged.
    fn sack_prune(&mut self) {
        let una = self.snd_una;
        self.sacked.retain(|&(_, e)| seq_gt(e, una));
        for b in &mut self.sacked {
            if seq_lt(b.0, una) {
                b.0 = una;
            }
        }
    }

    /// Receiver side: up to three SACK blocks describing the
    /// out-of-order data queued for reassembly, as disjoint ascending
    /// ranges. Empty when nothing is queued (the pure ACK stays the
    /// bare 40-byte header).
    #[must_use]
    pub fn sack_blocks(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = Vec::new();
        for (s, c) in &self.reasm {
            let e = s.wrapping_add(c.len() as u32);
            if let Some(last) = out.last_mut() {
                if seq_le(*s, last.1) {
                    if seq_gt(e, last.1) {
                        last.1 = e;
                    }
                    continue;
                }
            }
            out.push((*s, e));
        }
        out.truncate(3);
        out
    }

    /// Builds the header for a data segment of `len` bytes at
    /// `offset` into the send buffer, advertising `rcv_space`.
    pub fn build_data_header(
        &mut self,
        offset: usize,
        len: usize,
        rcv_space: usize,
    ) -> TcpIpHeader {
        let seq = self.snd_una.wrapping_add(offset as u32);
        self.ip_id = self.ip_id.wrapping_add(1);
        let win = rcv_space.min(usize::from(u16::MAX)) as u16;
        self.rcv_adv_wnd = usize::from(win);
        TcpIpHeader {
            ip_len: (40 + len) as u16,
            ip_id: self.ip_id,
            ttl: 30,
            src: self.key.laddr,
            dst: self.key.faddr,
            sport: self.key.lport,
            dport: self.key.fport,
            seq,
            ack: self.rcv_nxt,
            flags: flags::ACK | if len > 0 { flags::PSH } else { 0 },
            win,
            tcp_cksum: 0,
        }
    }

    /// Registers that a data segment `[seq, seq+len)` was handed to
    /// IP.
    pub fn note_sent(&mut self, seq: u32, len: usize, now: SimTime, rto: SimTime) {
        let end = seq.wrapping_add(len as u32);
        // A forced retransmission (fast retransmit, NewReno partial
        // ACK) is consumed by the send that matches its sequence.
        if len > 0 && self.force_rexmt.is_some_and(|(fs, _)| fs == seq) {
            self.force_rexmt = None;
            self.stats.rexmits += 1;
        } else if len > 0
            && self.in_recovery
            && self.cc == CcVariant::Sack
            && seq_lt(seq, self.snd_nxt)
        {
            // A scoreboard hole resend: advance HighRxt so the hole is
            // not resent again this episode, and count it into pipe.
            if seq_gt(end, self.high_rxt) {
                self.high_rxt = end;
            }
            self.rexmt_out += len;
            self.stats.rexmits += 1;
        }
        // Karn: time only first transmissions (seq at snd_max), one
        // segment at a time.
        if len > 0 && seq == self.snd_max && self.rtt_timed.is_none() {
            self.rtt_timed = Some((end, now));
        }
        if seq_gt(end, self.snd_nxt) {
            self.snd_nxt = end;
        }
        if seq_gt(end, self.snd_max) {
            self.snd_max = end;
        }
        self.stats.segs_out += 1;
        self.delack = false;
        self.acknow = false;
        if self.rexmt_deadline.is_none() && len > 0 {
            self.rexmt_deadline = Some(now + rto);
        }
    }

    /// Registers a retransmission for Karn's algorithm: cancel the
    /// in-flight RTT measurement (an ACK would be ambiguous) and hold
    /// the backed-off RTO until an ACK covers everything sent so far.
    pub fn note_retransmit(&mut self) {
        self.rtt_timed = None;
        self.rexmt_recover = Some(self.snd_max);
    }

    /// The current retransmission timeout: `srtt + 4·rttvar` (BSD's
    /// estimator) clamped to `[RTO_MIN_US, 64 s]`, doubled per backoff
    /// shift. With no samples yet the floor applies, which on this
    /// LAN (RTTs well under a millisecond against a 500 ms floor) is
    /// also the steady state — clean-run timing is unchanged by the
    /// estimator.
    #[must_use]
    pub fn rto(&self) -> SimTime {
        let floor = RTO_MIN_US as f64;
        let base_us = if self.rtt_samples > 0 {
            (self.srtt_us + 4.0 * self.rttvar_us).clamp(floor, 64_000_000.0)
        } else {
            floor
        };
        SimTime::from_us_f64(base_us) * (1u64 << self.rexmt_shift.min(6))
    }

    /// Folds one RTT sample (microseconds) into the smoothed
    /// estimator, BSD-style: gain 1/8 on srtt, 1/4 on the deviation.
    fn rtt_update(&mut self, sample_us: f64) {
        if self.rtt_samples == 0 {
            self.srtt_us = sample_us;
            self.rttvar_us = sample_us / 2.0;
        } else {
            let delta = sample_us - self.srtt_us;
            self.srtt_us += delta / 8.0;
            self.rttvar_us += (delta.abs() - self.rttvar_us) / 4.0;
        }
        self.rtt_samples += 1;
    }

    /// The §3 header-prediction predicate, evaluated against an
    /// incoming header. Mirrors BSD `tcp_input`'s fast-path test.
    #[must_use]
    pub fn predict(&self, h: &TcpIpHeader, payload_len: usize) -> Prediction {
        let flags_ok = h.flags & !(flags::PSH) == flags::ACK;
        let base = flags_ok
            && h.seq == self.rcv_nxt
            && h.win > 0
            && usize::from(h.win) == self.snd_wnd
            && self.snd_nxt == self.snd_max;
        if !base {
            return Prediction::Slow;
        }
        if payload_len == 0 {
            // Pure ACK that acks new data, within bounds, with no
            // congestion-window growth pending.
            if seq_gt(h.ack, self.snd_una)
                && seq_le(h.ack, self.snd_max)
                && self.cwnd >= self.snd_wnd
            {
                return Prediction::FastAck;
            }
        } else if h.ack == self.snd_una && self.reasm.is_empty() && payload_len <= self.rcv_adv_wnd
        {
            // Pure in-sequence data acknowledging nothing new.
            return Prediction::FastData;
        }
        Prediction::Slow
    }

    /// Processes the acknowledgment field. `pure` says the segment
    /// carried no payload: when the CC machinery is armed, only pure
    /// ACKs count as duplicates — a data-carrying segment whose ACK
    /// field merely repeats `snd_una` is the peer talking, not the
    /// network signalling loss. (Unarmed, the seed stack's counting —
    /// which had that off-by-one and counted data segments too — is
    /// preserved bit-for-bit.) `sacks` are any SACK blocks the
    /// segment carried. Returns the number of newly acknowledged
    /// bytes (to drop from the send buffer) and whether a fast
    /// retransmit fired.
    pub fn process_ack(
        &mut self,
        ack: u32,
        peer_win: u16,
        pure: bool,
        sacks: &[(u32, u32)],
        now: SimTime,
    ) -> AckOutcome {
        self.snd_wnd = usize::from(peer_win);
        if self.cc == CcVariant::Sack && !sacks.is_empty() {
            self.sack_update(sacks);
        }
        if seq_le(ack, self.snd_una) {
            // Not a new ACK: count duplicates when data is in flight.
            // A SACK-carrying pure ACK counts like any other dup —
            // the blocks refine *what* to resend, not *whether* loss
            // was signalled.
            if (pure || !self.cc_armed) && ack == self.snd_una && self.flight_size() > 0 {
                self.dupacks += 1;
                if self.dupacks == 3 {
                    if !self.cc_armed {
                        // Seed-compatible fast retransmit (the 4.4BSD
                        // alpha behaviour the original goldens were
                        // blessed under): halve the window and
                        // go-back-N from snd_una. Karn: the resend
                        // invalidates any RTT measurement and pins
                        // the recovery point.
                        self.ssthresh = (self.flight_size() / 2).max(2 * self.mss);
                        self.cwnd = self.ssthresh;
                        self.snd_nxt = self.snd_una;
                        self.note_retransmit();
                        self.stats.rexmits += 1;
                        return AckOutcome {
                            newly_acked: 0,
                            fast_retransmit: true,
                        };
                    }
                    if !self.in_recovery && seq_le(self.recover, self.snd_una) {
                        self.enter_fast_recovery();
                        return AckOutcome {
                            newly_acked: 0,
                            fast_retransmit: true,
                        };
                    }
                }
                if self.in_recovery && matches!(self.cc, CcVariant::Reno | CcVariant::NewReno) {
                    // Fast-recovery inflation: each further dup means
                    // one more segment left the network.
                    self.cwnd += self.mss;
                }
            }
            return AckOutcome {
                newly_acked: 0,
                fast_retransmit: false,
            };
        }
        if seq_gt(ack, self.snd_max) {
            // Acks data we never sent; ignore (a real stack would
            // respond with an ACK).
            return AckOutcome {
                newly_acked: 0,
                fast_retransmit: false,
            };
        }
        // RTT sample: the timed segment is fully acknowledged and was
        // never retransmitted (note_retransmit clears the timer).
        if let Some((end, sent_at)) = self.rtt_timed {
            if seq_le(end, ack) {
                let sample_us = (now - sent_at).as_us_f64();
                self.rtt_update(sample_us);
                self.rtt_timed = None;
            }
        }
        let newly = seq_diff(self.snd_una, ack) as usize;
        self.snd_una = ack;
        if seq_lt(self.snd_nxt, self.snd_una) {
            self.snd_nxt = self.snd_una;
        }
        if self
            .force_rexmt
            .is_some_and(|(fs, _)| seq_lt(fs, self.snd_una))
        {
            self.force_rexmt = None;
        }
        self.sack_prune();
        if seq_lt(self.high_rxt, self.snd_una) {
            self.high_rxt = self.snd_una;
        }
        self.rexmt_out = self.rexmt_out.saturating_sub(newly);
        self.dupacks = 0;
        // Karn: keep the backed-off RTO until the ACK covers the
        // recovery point; an ACK of retransmitted data is ambiguous.
        match self.rexmt_recover {
            Some(recover) if seq_lt(ack, recover) => {}
            _ => {
                self.rexmt_shift = 0;
                self.rexmt_recover = None;
            }
        }
        self.rexmt_deadline = None; // Kernel re-arms if data remains.
        if self.in_recovery {
            if seq_lt(ack, self.recover) {
                // Partial ACK: the window held more than one loss.
                match self.cc {
                    CcVariant::NewReno => {
                        // RFC 6582: retransmit the next hole without
                        // leaving recovery; deflate by the new data
                        // acknowledged, then add back one MSS.
                        let remaining = self.flight_size();
                        self.force_rexmt = Some((self.snd_una, self.mss.min(remaining.max(1))));
                        self.cwnd = self.cwnd.saturating_sub(newly).max(self.mss) + self.mss;
                    }
                    CcVariant::Sack => {
                        // The scoreboard keeps driving retransmission;
                        // pipe shrank by `newly` above.
                    }
                    CcVariant::Reno | CcVariant::Tahoe => {
                        // Classic Reno leaves recovery on the first
                        // new ACK; the remaining losses must earn a
                        // fresh dup-ACK volley or wait for the RTO.
                        self.exit_recovery();
                    }
                }
            } else {
                // Full ACK: the whole pre-loss window is covered.
                self.exit_recovery();
            }
        } else {
            if seq_lt(self.recover, self.snd_una) {
                self.recover = self.snd_una;
            }
            // Congestion window growth: slow start then linear —
            // exactly the seed stack's arithmetic (RFC 5681 with the
            // BSD increment).
            if self.cwnd < self.ssthresh {
                self.cwnd += self.mss;
            } else {
                self.cwnd += (self.mss * self.mss / self.cwnd).max(1);
            }
        }
        AckOutcome {
            newly_acked: newly,
            fast_retransmit: false,
        }
    }

    /// The third duplicate ACK: halve `ssthresh`, pin the recovery
    /// point, and dispatch on the variant's recovery style.
    fn enter_fast_recovery(&mut self) {
        let flight = self.flight_size();
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.recover = self.snd_max;
        // Karn: the resend invalidates any RTT measurement and pins
        // the backoff recovery point.
        self.note_retransmit();
        match self.cc {
            CcVariant::Tahoe => {
                // Fast retransmit then slow start: go-back-N from
                // snd_una with a one-segment window.
                self.cwnd = self.mss;
                self.snd_nxt = self.snd_una;
                self.stats.rexmits += 1;
            }
            CcVariant::Reno | CcVariant::NewReno => {
                // Fast recovery: resend only the missing segment;
                // inflate by the three dups already received.
                self.cwnd = self.ssthresh + 3 * self.mss;
                self.in_recovery = true;
                self.force_rexmt = Some((self.snd_una, self.mss.min(flight)));
            }
            CcVariant::Sack => {
                // Scoreboard recovery: pipe-limited hole resends.
                self.cwnd = self.ssthresh;
                self.in_recovery = true;
                self.high_rxt = self.snd_una;
                self.rexmt_out = 0;
            }
        }
    }

    /// Leaves fast recovery: deflate to `ssthresh` (RFC 5681 §3.2
    /// step 6) and clear the episode's retransmission state.
    fn exit_recovery(&mut self) {
        self.in_recovery = false;
        self.cwnd = self.ssthresh;
        self.force_rexmt = None;
        self.rexmt_out = 0;
    }

    /// Clears loss-recovery state when the retransmission timer
    /// fires: the kernel rewinds to go-back-N slow start, which
    /// supersedes any in-progress fast recovery or scoreboard.
    pub fn on_rto(&mut self) {
        self.in_recovery = false;
        self.recover = self.snd_max;
        self.force_rexmt = None;
        self.sacked.clear();
        self.high_rxt = self.snd_una;
        self.rexmt_out = 0;
    }

    /// Accepts a data segment. In-order data (plus any reassembly-
    /// queue continuation it unblocks) is appended to `rcv`, the
    /// receive buffer; out-of-order data is queued; stale data is
    /// dropped.
    pub fn process_data(&mut self, seq: u32, mut chain: Chain, rcv: &mut Chain) {
        let len = chain.len();
        if len == 0 {
            return;
        }
        self.stats.segs_in += 1;
        let end = seq.wrapping_add(len as u32);
        if seq_le(end, self.rcv_nxt) {
            // Entirely old: a retransmission we already have. ACK now
            // so the peer resynchronizes.
            self.acknow = true;
            return;
        }
        if seq_lt(seq, self.rcv_nxt) {
            // Partial overlap: trim the stale prefix.
            let stale = seq_diff(seq, self.rcv_nxt) as usize;
            let _ = chain.trim_front(stale);
            return self.accept_in_order(chain, rcv);
        }
        if seq == self.rcv_nxt {
            return self.accept_in_order(chain, rcv);
        }
        // A gap: queue out of order, ACK immediately (dup ACK driving
        // the peer's fast retransmit).
        self.stats.ooo_segments += 1;
        self.acknow = true;
        let pos = self
            .reasm
            .iter()
            .position(|(s, _)| seq_lt(seq, *s))
            .unwrap_or(self.reasm.len());
        self.reasm.insert(pos, (seq, chain));
    }

    fn accept_in_order(&mut self, chain: Chain, rcv: &mut Chain) {
        self.rcv_nxt = self.rcv_nxt.wrapping_add(chain.len() as u32);
        rcv.append(chain);
        // Drain the reassembly queue as the gap closes.
        while let Some(pos) = self.reasm.iter().position(|(s, c)| {
            seq_le(*s, self.rcv_nxt) && seq_gt(s.wrapping_add(c.len() as u32), self.rcv_nxt)
        }) {
            let (s, mut c) = self.reasm.remove(pos);
            let stale = seq_diff(s, self.rcv_nxt) as usize;
            let _ = c.trim_front(stale);
            self.rcv_nxt = self.rcv_nxt.wrapping_add(c.len() as u32);
            rcv.append(c);
        }
        // Discard fully stale queue entries.
        self.reasm
            .retain(|(s, c)| seq_gt(s.wrapping_add(c.len() as u32), self.rcv_nxt));
        // BSD 4.3-style ACK policy: every second segment acks
        // immediately; otherwise a delayed ACK is scheduled.
        if self.delack {
            self.delack = false;
            self.acknow = true;
        } else {
            self.delack = true;
        }
    }

    /// Whether a window update should be sent after the reader
    /// drained the receive buffer (BSD sends one when the advertised
    /// window can grow by two segments or more).
    #[must_use]
    pub fn window_update_due(&self, rcv_space: usize) -> bool {
        rcv_space >= self.rcv_adv_wnd + 2 * self.mss
    }

    /// Builds a pure ACK / window-update header.
    pub fn build_ack_header(&mut self, rcv_space: usize) -> TcpIpHeader {
        self.delack = false;
        self.acknow = false;
        self.stats.acks_only_out += 1;
        self.build_data_header(seq_diff(self.snd_una, self.snd_nxt) as usize, 0, rcv_space)
    }
}

/// Result of ACK processing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckOutcome {
    /// Bytes to drop from the front of the send buffer.
    pub newly_acked: usize,
    /// Resend from `snd_una` immediately.
    pub fast_retransmit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbuf::MbufPool;

    fn cfg() -> StackConfig {
        StackConfig::default()
    }

    fn tcb() -> Tcb {
        let key = PcbKey {
            laddr: [10, 0, 0, 1],
            lport: 1055,
            faddr: [10, 0, 0, 2],
            fport: 4242,
        };
        Tcb::established(key, 0, 4096, &cfg())
    }

    fn chain_of(pool: &MbufPool, n: usize) -> Chain {
        let data: Vec<u8> = (0..n).map(|i| i as u8).collect();
        Chain::from_user_data(pool, &data, n > 1024).0
    }

    fn data_hdr(t: &Tcb, seq: u32, len: usize, ack: u32) -> TcpIpHeader {
        TcpIpHeader {
            ip_len: (40 + len) as u16,
            ip_id: 9,
            ttl: 30,
            src: t.key.faddr,
            dst: t.key.laddr,
            sport: t.key.fport,
            dport: t.key.lport,
            seq,
            ack,
            flags: flags::ACK | flags::PSH,
            win: 16384,
            tcp_cksum: 0,
        }
    }

    #[test]
    fn segmentation_respects_mss_and_window() {
        let mut t = tcb();
        // 8000 bytes buffered: first segment is one MSS.
        assert_eq!(t.next_send(8000), Some((0, 4096)));
        t.note_sent(t.snd_nxt, 4096, SimTime::ZERO, SimTime::from_ms(500));
        assert_eq!(t.next_send(8000), Some((4096, 3904)));
        t.note_sent(t.snd_nxt, 3904, SimTime::ZERO, SimTime::from_ms(500));
        assert_eq!(t.next_send(8000), None, "everything in flight");
    }

    #[test]
    fn window_limits_sending() {
        let mut t = tcb();
        t.snd_wnd = 1000;
        assert_eq!(t.next_send(8000), Some((0, 1000)));
        t.note_sent(t.snd_nxt, 1000, SimTime::ZERO, SimTime::from_ms(500));
        assert_eq!(t.next_send(8000), None, "window full");
    }

    #[test]
    fn nagle_holds_trailing_fragment_without_nodelay() {
        let mut c = cfg();
        c.nodelay = false;
        let key = tcb().key;
        let mut t = Tcb::established(key, 0, 4096, &c);
        assert_eq!(t.next_send(5000), Some((0, 4096)));
        t.note_sent(t.snd_nxt, 4096, SimTime::ZERO, SimTime::from_ms(500));
        assert_eq!(t.next_send(5000), None, "Nagle holds the 904-byte tail");
        // The ACK frees it (the kernel also drops the acked bytes
        // from the send buffer, so 904 remain).
        let _ = t.process_ack(
            t.snd_una.wrapping_add(4096),
            16384,
            true,
            &[],
            SimTime::ZERO,
        );
        assert_eq!(t.next_send(904), Some((0, 904)));
    }

    #[test]
    fn ack_advances_and_grows_cwnd() {
        let mut t = tcb();
        t.cwnd = 4096;
        t.ssthresh = 100_000;
        t.note_sent(t.snd_nxt, 4096, SimTime::ZERO, SimTime::from_ms(500));
        let una = t.snd_una;
        let out = t.process_ack(
            una.wrapping_add(4096),
            16384,
            true,
            &[],
            SimTime::from_us(600),
        );
        assert_eq!(out.newly_acked, 4096);
        assert!(!out.fast_retransmit);
        assert_eq!(t.snd_una, una.wrapping_add(4096));
        assert_eq!(t.cwnd, 8192, "slow start doubles per ack");
        assert_eq!(t.flight_size(), 0);
    }

    /// Sends two segments and feeds three duplicate ACKs; returns the
    /// Tcb right after the fast retransmit fired.
    fn tripled(cc: CcVariant) -> Tcb {
        let mut c = cfg();
        c.cc = cc;
        // Cold start arms the RFC machinery; 4 segments = sockbuf.
        c.initial_cwnd_segs = Some(4);
        let key = tcb().key;
        let mut t = Tcb::established(key, 0, 4096, &c);
        t.note_sent(t.snd_nxt, 4096, SimTime::ZERO, SimTime::from_ms(500));
        t.note_sent(t.snd_nxt, 4096, SimTime::ZERO, SimTime::from_ms(500));
        let una = t.snd_una;
        for i in 0..2 {
            let out = t.process_ack(una, 16384, true, &[], SimTime::ZERO);
            assert!(!out.fast_retransmit, "dup {i}");
        }
        let out = t.process_ack(una, 16384, true, &[], SimTime::ZERO);
        assert!(out.fast_retransmit, "third dup fires ({})", cc.name());
        assert_eq!(
            t.rexmt_recover,
            Some(t.snd_max),
            "Karn recovery point pinned by the fast retransmit"
        );
        assert!(t.rtt_timed.is_none(), "RTT measurement cancelled");
        t
    }

    #[test]
    fn triple_dupack_tahoe_goes_back_n() {
        let t = tripled(CcVariant::Tahoe);
        assert_eq!(t.snd_nxt, t.snd_una, "resend from snd_una");
        assert_eq!(t.cwnd, t.mss, "slow start restart");
        assert_eq!(t.ssthresh, 8192, "max(flight/2, 2·MSS) = 2·MSS here");
        assert!(!t.in_recovery);
        assert_eq!(t.stats.rexmits, 1, "the go-back-N resend is counted");
    }

    #[test]
    fn triple_dupack_reno_enters_fast_recovery() {
        for cc in [CcVariant::Reno, CcVariant::NewReno] {
            let mut t = tripled(cc);
            assert!(t.in_recovery);
            assert_eq!(t.ssthresh, 8192);
            assert_eq!(t.cwnd, 8192 + 3 * 4096, "ssthresh + 3 MSS");
            assert_eq!(
                t.force_rexmt,
                Some((t.snd_una, 4096)),
                "only the missing segment is resent"
            );
            assert_eq!(t.snd_nxt, t.snd_max, "no go-back-N");
            // A fourth dup inflates by one MSS.
            let una = t.snd_una;
            let _ = t.process_ack(una, 16384, true, &[], SimTime::ZERO);
            assert_eq!(t.cwnd, 8192 + 4 * 4096, "inflation per extra dup");
            // The full ACK deflates to ssthresh and leaves recovery.
            let _ = t.process_ack(t.snd_max, 16384, true, &[], SimTime::ZERO);
            assert!(!t.in_recovery);
            assert_eq!(t.cwnd, t.ssthresh, "deflate on exit");
        }
    }

    #[test]
    fn triple_dupack_sack_uses_scoreboard() {
        let mut t = tripled(CcVariant::Sack);
        assert!(t.in_recovery);
        assert_eq!(t.cwnd, t.ssthresh, "no +3 inflation under SACK");
        assert_eq!(t.high_rxt, t.snd_una);
        let _ = t.process_ack(t.snd_max, 16384, true, &[], SimTime::ZERO);
        assert!(!t.in_recovery);
    }

    #[test]
    fn data_bearing_segments_never_count_as_dup_acks_when_armed() {
        // A segment carrying payload whose ACK field repeats snd_una
        // is the peer sending, not a loss signal (RFC 5681 §2's
        // duplicate definition). Only the armed machinery applies the
        // fix; the seed-compatible warm start keeps the old counting.
        let mut c = cfg();
        c.initial_cwnd_segs = Some(4);
        let key = tcb().key;
        let mut t = Tcb::established(key, 0, 4096, &c);
        t.note_sent(t.snd_nxt, 4096, SimTime::ZERO, SimTime::from_ms(500));
        let una = t.snd_una;
        for _ in 0..5 {
            let out = t.process_ack(una, 16384, false, &[], SimTime::ZERO);
            assert!(!out.fast_retransmit);
        }
        assert_eq!(t.dupacks, 0, "impure ACKs never advance the counter");
    }

    #[test]
    fn sack_carrying_pure_ack_still_counts_as_dup() {
        let mut c = cfg();
        c.cc = CcVariant::Sack;
        c.initial_cwnd_segs = Some(4);
        let key = tcb().key;
        let mut t = Tcb::established(key, 0, 4096, &c);
        for _ in 0..3 {
            t.note_sent(t.snd_nxt, 4096, SimTime::ZERO, SimTime::from_ms(500));
        }
        let una = t.snd_una;
        let blk = (una.wrapping_add(4096), una.wrapping_add(8192));
        for _ in 0..2 {
            let out = t.process_ack(una, 16384, true, &[blk], SimTime::ZERO);
            assert!(!out.fast_retransmit);
        }
        let out = t.process_ack(una, 16384, true, &[blk], SimTime::ZERO);
        assert!(out.fast_retransmit, "SACK blocks don't disqualify a dup");
        assert_eq!(t.sacked, vec![blk], "scoreboard recorded the block");
    }

    #[test]
    fn warm_start_keeps_the_seed_fast_retransmit_bit_for_bit() {
        // Unarmed (warm start), the pre-CC behaviour survives: data-
        // bearing dups count, the third fires a go-back-N halving
        // regardless of variant, and there is no recovery state.
        let mut t = tcb();
        assert!(!t.cc_armed);
        t.note_sent(t.snd_nxt, 4096, SimTime::ZERO, SimTime::from_ms(500));
        t.note_sent(t.snd_nxt, 4096, SimTime::ZERO, SimTime::from_ms(500));
        let una = t.snd_una;
        for _ in 0..2 {
            let out = t.process_ack(una, 16384, false, &[], SimTime::ZERO);
            assert!(!out.fast_retransmit);
        }
        let out = t.process_ack(una, 16384, false, &[], SimTime::ZERO);
        assert!(out.fast_retransmit, "impure dups count when unarmed");
        assert_eq!(t.snd_nxt, t.snd_una, "go-back-N");
        assert_eq!(t.cwnd, t.ssthresh);
        assert!(!t.in_recovery);
        assert_eq!(t.stats.rexmits, 1);
        assert_eq!(t.rexmt_recover, Some(t.snd_max));
    }

    #[test]
    fn dupack_reentry_blocked_until_recover_passed() {
        // RFC 6582 heuristic: after a retransmit episode, stale dups
        // below `recover` must not trigger a second window reduction.
        let mut t = tripled(CcVariant::NewReno);
        let _ = t.process_ack(t.snd_max, 16384, true, &[], SimTime::ZERO);
        assert!(!t.in_recovery);
        t.note_sent(t.snd_nxt, 4096, SimTime::ZERO, SimTime::from_ms(500));
        let cwnd_before = t.cwnd;
        let una = t.snd_una;
        for _ in 0..3 {
            let out = t.process_ack(una, 16384, true, &[], SimTime::ZERO);
            // recover == snd_una here, so seq_le(recover, snd_una)
            // holds and re-entry is permitted — this is a fresh
            // episode, not a stale storm.
            let _ = out;
        }
        assert!(t.in_recovery || t.cwnd <= cwnd_before);
    }

    #[test]
    fn prediction_fast_ack() {
        let mut t = tcb();
        t.note_sent(t.snd_nxt, 1000, SimTime::ZERO, SimTime::from_ms(500));
        let mut h = data_hdr(&t, t.rcv_nxt, 0, t.snd_una.wrapping_add(1000));
        h.flags = flags::ACK;
        h.win = t.snd_wnd as u16;
        assert_eq!(t.predict(&h, 0), Prediction::FastAck);
    }

    #[test]
    fn prediction_fast_data() {
        let t = tcb();
        let mut h = data_hdr(&t, t.rcv_nxt, 500, t.snd_una);
        h.win = t.snd_wnd as u16;
        assert_eq!(t.predict(&h, 500), Prediction::FastData);
    }

    #[test]
    fn rpc_piggyback_defeats_prediction() {
        // §3: "one receives data with a piggybacked acknowledgment,
        // and this does not arise in a single sender, high throughput
        // style of communication".
        let mut t = tcb();
        t.note_sent(t.snd_nxt, 1000, SimTime::ZERO, SimTime::from_ms(500));
        let mut h = data_hdr(&t, t.rcv_nxt, 500, t.snd_una.wrapping_add(1000));
        h.win = t.snd_wnd as u16;
        // Data present AND the ack advances: neither fast path fits.
        assert_eq!(t.predict(&h, 500), Prediction::Slow);
    }

    #[test]
    fn prediction_fails_out_of_sequence() {
        let t = tcb();
        let mut h = data_hdr(&t, t.rcv_nxt.wrapping_add(100), 500, t.snd_una);
        h.win = t.snd_wnd as u16;
        assert_eq!(t.predict(&h, 500), Prediction::Slow);
    }

    #[test]
    fn in_order_data_delivers_and_alternates_acks() {
        let pool = MbufPool::new();
        let mut t = tcb();
        let mut rcv = Chain::new();
        t.process_data(t.rcv_nxt, chain_of(&pool, 100), &mut rcv);
        assert_eq!(rcv.len(), 100);
        assert!(!t.acknow, "first segment: delayed ack");
        assert!(t.delack);
        t.process_data(t.rcv_nxt, chain_of(&pool, 100), &mut rcv);
        assert_eq!(rcv.len(), 200);
        assert!(t.acknow, "second segment: ack now (every other)");
    }

    #[test]
    fn out_of_order_data_queues_then_drains() {
        let pool = MbufPool::new();
        let mut t = tcb();
        let mut rcv = Chain::new();
        let base = t.rcv_nxt;
        // Segment 2 arrives first.
        t.process_data(base.wrapping_add(100), chain_of(&pool, 100), &mut rcv);
        assert!(rcv.is_empty());
        assert!(t.acknow, "gap triggers immediate ack");
        assert_eq!(t.stats.ooo_segments, 1);
        // Segment 1 fills the gap; both deliver.
        t.process_data(base, chain_of(&pool, 100), &mut rcv);
        assert_eq!(rcv.len(), 200);
        assert_eq!(t.rcv_nxt, base.wrapping_add(200));
        assert!(t.reasm.is_empty());
    }

    #[test]
    fn duplicate_data_acked_not_delivered() {
        let pool = MbufPool::new();
        let mut t = tcb();
        let mut rcv = Chain::new();
        let base = t.rcv_nxt;
        t.process_data(base, chain_of(&pool, 100), &mut rcv);
        t.acknow = false;
        t.process_data(base, chain_of(&pool, 100), &mut rcv);
        assert_eq!(rcv.len(), 100);
        assert!(t.acknow);
    }

    #[test]
    fn partial_overlap_trimmed() {
        let pool = MbufPool::new();
        let mut t = tcb();
        let mut rcv = Chain::new();
        let base = t.rcv_nxt;
        t.process_data(base, chain_of(&pool, 100), &mut rcv);
        // Retransmission covering [50, 150): only [100, 150) is new.
        t.process_data(base.wrapping_add(50), chain_of(&pool, 100), &mut rcv);
        assert_eq!(rcv.len(), 150);
        assert_eq!(t.rcv_nxt, base.wrapping_add(150));
    }

    #[test]
    fn sequence_wrap_during_transfer() {
        let pool = MbufPool::new();
        let mut c = cfg();
        c.iss = u32::MAX - 2000;
        let key = tcb().key;
        let mut t = Tcb::established(key, 0, 4096, &c);
        t.rcv_nxt = u32::MAX - 1000;
        let base = t.rcv_nxt;
        let mut rcv = Chain::new();
        t.process_data(base, chain_of(&pool, 4000), &mut rcv);
        assert_eq!(rcv.len(), 4000);
        assert_eq!(t.rcv_nxt, base.wrapping_add(4000), "wrapped cleanly");
        // Sender side wrap.
        assert_eq!(t.next_send(8000), Some((0, 4096)));
        t.note_sent(t.snd_nxt, 4096, SimTime::ZERO, SimTime::from_ms(500));
        let out = t.process_ack(
            t.snd_una.wrapping_add(4096),
            16384,
            true,
            &[],
            SimTime::ZERO,
        );
        assert_eq!(out.newly_acked, 4096);
    }

    #[test]
    fn rto_starts_at_the_floor_and_doubles_with_backoff() {
        let mut t = tcb();
        assert_eq!(t.rto(), SimTime::from_us(RTO_MIN_US), "no samples: floor");
        t.rexmt_shift = 1;
        assert_eq!(t.rto(), SimTime::from_us(RTO_MIN_US) * 2);
        t.rexmt_shift = 3;
        assert_eq!(t.rto(), SimTime::from_us(RTO_MIN_US) * 8);
        // The doubling saturates at shift 6 (64x), as before.
        t.rexmt_shift = 10;
        assert_eq!(t.rto(), SimTime::from_us(RTO_MIN_US) * 64);
    }

    #[test]
    fn rtt_samples_feed_the_estimator_but_lan_rtts_stay_floored() {
        let mut t = tcb();
        t.note_sent(t.snd_nxt, 1000, SimTime::ZERO, SimTime::from_ms(500));
        assert!(t.rtt_timed.is_some(), "first transmission is timed");
        let una = t.snd_una;
        let _ = t.process_ack(
            una.wrapping_add(1000),
            16384,
            true,
            &[],
            SimTime::from_us(600),
        );
        assert_eq!(t.rtt_samples, 1);
        assert!((t.srtt_us - 600.0).abs() < 1e-9);
        assert!((t.rttvar_us - 300.0).abs() < 1e-9);
        // 600 + 4*300 = 1800 µs, far under the 500 ms floor.
        assert_eq!(t.rto(), SimTime::from_us(RTO_MIN_US));
    }

    #[test]
    fn karn_no_rtt_sample_from_retransmitted_segment() {
        let mut t = tcb();
        t.note_sent(t.snd_nxt, 1000, SimTime::ZERO, SimTime::from_ms(500));
        // The RTO fires; the kernel resends and notes the retransmit.
        t.snd_nxt = t.snd_una;
        t.note_retransmit();
        t.note_sent(
            t.snd_nxt,
            1000,
            SimTime::from_ms(500),
            SimTime::from_ms(1000),
        );
        assert!(
            t.rtt_timed.is_none(),
            "retransmissions are never timed (seq < snd_max)"
        );
        let una = t.snd_una;
        let _ = t.process_ack(
            una.wrapping_add(1000),
            16384,
            true,
            &[],
            SimTime::from_ms(501),
        );
        assert_eq!(t.rtt_samples, 0, "ambiguous ACK produced no sample");
    }

    #[test]
    fn karn_backoff_held_until_ack_covers_recovery_point() {
        let mut t = tcb();
        // Two segments in flight; the first is retransmitted.
        t.note_sent(t.snd_nxt, 1000, SimTime::ZERO, SimTime::from_ms(500));
        t.note_sent(t.snd_nxt, 1000, SimTime::ZERO, SimTime::from_ms(500));
        t.rexmt_shift = 2;
        t.snd_nxt = t.snd_una;
        t.note_retransmit();
        let una = t.snd_una;
        // ACK of the retransmitted segment only: ambiguous, backoff
        // must hold.
        let _ = t.process_ack(
            una.wrapping_add(1000),
            16384,
            true,
            &[],
            SimTime::from_ms(600),
        );
        assert_eq!(t.rexmt_shift, 2, "backoff held on ambiguous ACK");
        // ACK covering the recovery point clears it.
        let _ = t.process_ack(
            una.wrapping_add(2000),
            16384,
            true,
            &[],
            SimTime::from_ms(700),
        );
        assert_eq!(t.rexmt_shift, 0);
        assert_eq!(t.rexmt_recover, None);
    }

    #[test]
    fn window_update_policy() {
        let mut t = tcb();
        t.rcv_adv_wnd = 4096;
        assert!(!t.window_update_due(4096 + 4096));
        assert!(t.window_update_due(4096 + 2 * 4096));
    }

    #[test]
    fn build_headers_are_valid() {
        let mut t = tcb();
        let h = t.build_data_header(0, 500, 8192);
        assert_eq!(h.payload_len(), 500);
        assert_eq!(h.flags, flags::ACK | flags::PSH);
        let enc = h.encode();
        assert!(TcpIpHeader::decode(&enc).is_some());
        let a = t.build_ack_header(8192);
        assert_eq!(a.payload_len(), 0);
        assert_eq!(t.stats.acks_only_out, 1);
    }
}
