//! The simulated kernel of one host.
//!
//! [`Kernel`] owns everything above the network driver: the mbuf
//! pool, sockets, TCP control blocks, the PCB table, the IP input
//! queue, the CPU timeline and the span recorder. Its methods are
//! the entry points the simulation binding calls:
//!
//! - [`Kernel::syscall_write`] — the transmit path: socket-layer
//!   copy, TCP output (mcopy + checksum + segment), IP output, and
//!   the driver handoff (via the [`TxDriver`] the binding supplies);
//! - [`Kernel::enqueue_ip`] — the driver placing a received datagram
//!   on the IP queue and raising the software interrupt;
//! - [`Kernel::ipintr`] — the software interrupt: IP input, TCP
//!   input with header prediction, socket wakeups, ACK generation;
//! - [`Kernel::syscall_read`] — soreceive: copy to user, window
//!   updates;
//! - [`Kernel::check_timers`] — the TCP timers: delayed ACK, persist,
//!   TIME-WAIT and retransmission.
//!
//! Every step charges calibrated DECstation time and records the
//! paper's spans. Time flows as a *cursor*: a path starts at
//! `max(event time, cpu busy)`, advances as costs are charged, and
//! the whole interval is committed to the CPU at the end.

use std::collections::{BTreeSet, VecDeque};

use decstation::{CostModel, CostTables};
use mbuf::chain::ultrix_uses_clusters;
use mbuf::{Chain, MbufPool};
use simkit::{Cpu, CpuBand, SimTime};

use crate::config::{CcVariant, ChecksumMode, StackConfig};
use crate::hdr::{TcpIpHeader, TCPIP_HDR_LEN};
use crate::options::{encode_sack_option, parse_sack_blocks};
use crate::pcb::{PcbKey, PcbTable};
use crate::span::{Mark, SpanKind, SpanRecorder};
use crate::tcb::{ConnError, Prediction, Tcb};

/// Index of a connection within a kernel.
pub type SockId = usize;

/// The network driver interface the kernel transmits through. The
/// simulation binding implements this over the ATM or Ethernet
/// substrate; it charges its own driver costs, records the TxDriver
/// span, and queues wire deliveries internally.
pub trait TxDriver {
    /// Interface MTU (determines the MSS).
    fn mtu(&self) -> usize;

    /// Hands one IP datagram (real bytes in an mbuf chain) to the
    /// driver at CPU time `now`. Returns the time the driver gives
    /// the CPU back to the stack.
    fn transmit(&mut self, now: SimTime, packet: &Chain, spans: &mut SpanRecorder) -> SimTime;
}

/// A loopback driver for protocol-level tests: zero cost, captures
/// packets.
#[derive(Default)]
pub struct CaptureDriver {
    /// Transmitted datagrams, flattened.
    pub packets: Vec<Vec<u8>>,
    /// MTU to advertise.
    pub mtu: usize,
}

impl CaptureDriver {
    /// A capture driver with an ATM-like MTU.
    #[must_use]
    pub fn new(mtu: usize) -> Self {
        CaptureDriver {
            packets: Vec::new(),
            mtu,
        }
    }
}

impl TxDriver for CaptureDriver {
    fn mtu(&self) -> usize {
        self.mtu
    }

    fn transmit(&mut self, now: SimTime, packet: &Chain, _spans: &mut SpanRecorder) -> SimTime {
        self.packets.push(packet.to_vec());
        now
    }
}

/// One connection: protocol state plus socket buffers.
struct Conn {
    tcb: Tcb,
    sock: crate::socket::Socket,
    /// Delayed-ACK deadline, when `tcb.delack` is set.
    delack_deadline: Option<SimTime>,
    /// The Alternate Checksum negotiation concluded with checksum
    /// elimination on this connection (§4.2): both SYNs requested it.
    cksum_off: bool,
    /// 2MSL expiry for TIME-WAIT.
    time_wait_deadline: Option<SimTime>,
    /// The deadline this connection holds in [`Kernel`]'s timer index.
    indexed: Option<SimTime>,
    /// Queued for a timer-index resync (see [`Kernel::touch`]).
    dirty: bool,
}

impl Conn {
    fn new(tcb: Tcb, sockbuf: usize, cksum_off: bool) -> Self {
        Conn {
            tcb,
            sock: crate::socket::Socket::new(sockbuf),
            delack_deadline: None,
            cksum_off,
            time_wait_deadline: None,
            indexed: None,
            dirty: false,
        }
    }

    /// The earliest of the connection's pending timer deadlines.
    fn earliest_deadline(&self) -> Option<SimTime> {
        [
            self.delack_deadline,
            self.tcb.rexmt_deadline,
            self.tcb.persist_deadline,
            self.time_wait_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }
}

/// Outcome of a write syscall.
#[derive(Debug)]
pub struct TxOutcome {
    /// When the syscall returned (or the process blocked).
    pub done_at: SimTime,
    /// Bytes accepted into the send buffer.
    pub accepted: usize,
    /// The process blocked waiting for buffer space.
    pub blocked: bool,
    /// The connection's pending `so_error`, delivered instead of data
    /// transfer: the write failed and will never succeed.
    pub error: Option<ConnError>,
}

/// Outcome of a read syscall.
#[derive(Debug)]
pub struct RxSyscallOutcome {
    /// When the syscall returned (or the process blocked).
    pub done_at: SimTime,
    /// Bytes delivered, appended to the caller's buffer (0 when
    /// blocked).
    pub len: usize,
    /// The process blocked waiting for data.
    pub blocked: bool,
    /// The connection's pending `so_error`, delivered instead of
    /// data: the connection is dead and no more data will arrive.
    pub error: Option<ConnError>,
}

/// A datagram emitted by the stack, for bindings that want them (the
/// [`CaptureDriver`] records flattened bytes instead).
pub struct TxEmission {
    /// The IP datagram.
    pub chain: Chain,
    /// When IP handed it to the driver.
    pub at: SimTime,
}

/// Aggregate kernel counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Datagrams enqueued to the IP input queue.
    pub ipq_enqueued: u64,
    /// Datagrams dropped for malformed/corrupt IP headers.
    pub ip_header_drops: u64,
    /// Datagrams dropped because no PCB matched.
    pub no_pcb_drops: u64,
    /// TCP checksum failures (only counted when verification is on).
    pub tcp_cksum_drops: u64,
    /// Delayed ACKs fired by the timer.
    pub delack_fires: u64,
    /// Retransmission timeouts fired.
    pub rto_fires: u64,
    /// Connections aborted after exhausting the retransmission limit
    /// (each left `ETIMEDOUT` in `so_error`, never a hang).
    pub conn_aborts: u64,
}

impl std::ops::AddAssign for KernelStats {
    /// Field-wise sum. Destructures exhaustively, so a new counter
    /// fails to compile here until it is pooled too.
    fn add_assign(&mut self, o: KernelStats) {
        let KernelStats {
            ipq_enqueued,
            ip_header_drops,
            no_pcb_drops,
            tcp_cksum_drops,
            delack_fires,
            rto_fires,
            conn_aborts,
        } = o;
        self.ipq_enqueued += ipq_enqueued;
        self.ip_header_drops += ip_header_drops;
        self.no_pcb_drops += no_pcb_drops;
        self.tcp_cksum_drops += tcp_cksum_drops;
        self.delack_fires += delack_fires;
        self.rto_fires += rto_fires;
        self.conn_aborts += conn_aborts;
    }
}

/// A bound UDP socket.
struct UdpSock {
    laddr: [u8; 4],
    port: u16,
    /// Compute/verify the UDP checksum on this socket? §4.2 notes
    /// local NFS traffic commonly ran with it off.
    checksum: bool,
    rcvq: VecDeque<([u8; 4], u16, Vec<u8>)>,
    reader_blocked: bool,
    ip_id: u16,
    /// Datagrams dropped for bad UDP checksums.
    pub cksum_drops: u64,
}

/// The kernel of one simulated host.
pub struct Kernel {
    /// Stack configuration.
    pub cfg: StackConfig,
    /// Cost model (one per host; hosts are identical DECstations).
    pub costs: CostModel,
    /// The scalar costs of `costs`, converted to [`SimTime`] once
    /// (rebuild them if the model is replaced; see [`CostTables`]).
    /// The linear costs are evaluated from `costs` at each charge.
    pub tables: CostTables,
    /// The host's mbuf pool.
    pub pool: MbufPool,
    /// The single CPU.
    pub cpu: Cpu,
    /// Probe recorder.
    pub spans: SpanRecorder,
    /// Packet-capture taps at the kernel layer boundaries
    /// (`SockSend`, `TcpSend`, `TcpRecv`, `SockRecv`). Zero-cost
    /// unless armed; see `simcap`.
    pub taps: simcap::TapSet,
    /// PCB table.
    pub pcbs: PcbTable,
    /// Counters.
    pub stats: KernelStats,
    conns: Vec<Conn>,
    /// The socket of each PCB id. Ids are never reused; ambient PCBs
    /// have no socket.
    sock_of_pcb: Vec<Option<SockId>>,
    /// Each connection's earliest deadline, ordered by time then
    /// socket, so that the next deadline and the due sockets are read
    /// without a walk over every connection.
    timers: BTreeSet<(SimTime, SockId)>,
    /// Sockets whose deadlines may have moved since the index was
    /// last synced.
    dirty: Vec<SockId>,
    udp_socks: Vec<UdpSock>,
    ipq: VecDeque<(Chain, SimTime)>,
    /// A software interrupt has been raised and not yet serviced.
    pub softintr_pending: bool,
    /// The outstanding TCP-timer event's time ([`Kernel::timer_event`]).
    timer_pending: Option<SimTime>,
    /// Earliest time the software interrupt may begin (dispatch
    /// latency from the most recent enqueue).
    ipq_ready_at: SimTime,
    /// Floor on the queued datagrams' enqueue times, raised by
    /// [`Kernel::retime_ipq`] and applied as each one is dequeued;
    /// zero again once the queue drains.
    ipq_floor: SimTime,
    /// Wakeups produced by [`Kernel::check_timers`] (a connection
    /// abort wakes its blocked process so it observes `so_error`).
    /// The binding drains these with [`Kernel::drain_timer_wakeups`].
    timer_wakeups: Vec<(SockId, SimTime)>,
    /// Sockets whose blocked readers the software interrupt woke, with
    /// the time each process starts running; drained by
    /// [`Kernel::drain_wakeups`].
    wakeups: Vec<(SockId, SimTime)>,
    /// Sockets whose blocked writers it woke (buffer space freed).
    writer_wakeups: Vec<(SockId, SimTime)>,
    /// Scratch list of the sockets due in [`Kernel::check_timers`].
    due: Vec<SockId>,
}

impl Kernel {
    /// Creates a kernel with the given configuration and cost model.
    #[must_use]
    pub fn new(cfg: StackConfig, costs: CostModel) -> Self {
        let pcbs = PcbTable::new(cfg.pcb_org, cfg.pcb_use_cache());
        let tables = CostTables::new(&costs);
        let mut k = Kernel {
            cfg,
            costs,
            tables,
            pool: MbufPool::new(),
            cpu: Cpu::new(),
            spans: SpanRecorder::new(),
            taps: simcap::TapSet::off(),
            pcbs,
            stats: KernelStats::default(),
            conns: Vec::new(),
            sock_of_pcb: Vec::new(),
            timers: BTreeSet::new(),
            dirty: Vec::new(),
            udp_socks: Vec::new(),
            ipq: VecDeque::new(),
            softintr_pending: false,
            timer_pending: None,
            ipq_ready_at: SimTime::ZERO,
            ipq_floor: SimTime::ZERO,
            timer_wakeups: Vec::new(),
            wakeups: Vec::new(),
            writer_wakeups: Vec::new(),
            due: Vec::new(),
        };
        k.pcbs.add_ambient(k.cfg.ambient_pcbs);
        k
    }

    /// Creates an established connection and returns its socket id.
    /// [`Kernel::connect_pair`] creates both ends with mirrored keys
    /// (the paper measures established connections only; the MSS is
    /// computed from the interface MTU with BSD rounding).
    pub fn create_connection(&mut self, key: PcbKey, mss: usize) -> SockId {
        let id = self.pcbs.insert(key);
        let tcb = Tcb::established(key, id, mss, &self.cfg);
        let cksum_off = matches!(self.cfg.checksum, ChecksumMode::None);
        self.push_conn(tcb, cksum_off)
    }

    /// Adds a connection and records its socket under its PCB id.
    fn push_conn(&mut self, tcb: Tcb, cksum_off: bool) -> SockId {
        let sock = self.conns.len();
        if self.sock_of_pcb.len() <= tcb.id {
            self.sock_of_pcb.resize(tcb.id + 1, None);
        }
        self.sock_of_pcb[tcb.id] = Some(sock);
        self.conns.push(Conn::new(tcb, self.cfg.sockbuf, cksum_off));
        sock
    }

    /// The socket of PCB `id`.
    fn sock_of(&self, id: usize) -> Option<SockId> {
        self.sock_of_pcb.get(id).copied().flatten()
    }

    /// Creates both ends of one established connection: `key` on `a`
    /// and its mirror on `b`, with `b`'s sequence state aligned to
    /// `a`'s so each side's `rcv_nxt` equals the peer's `snd_nxt`.
    /// Returns `(a's socket, b's socket)`.
    pub fn connect_pair(
        a: &mut Kernel,
        b: &mut Kernel,
        key: PcbKey,
        mss: usize,
    ) -> (SockId, SockId) {
        let sa = a.create_connection(key, mss);
        let mirror = PcbKey {
            laddr: key.faddr,
            lport: key.fport,
            faddr: key.laddr,
            fport: key.lport,
        };
        let sb = b.create_connection(mirror, mss);
        let (a_snd, a_rcv) = {
            let t = a.tcb(sa);
            (t.snd_nxt, t.rcv_nxt)
        };
        let t = &mut b.conns[sb].tcb;
        t.rcv_nxt = a_snd;
        t.snd_una = a_rcv;
        t.snd_nxt = a_rcv;
        t.snd_max = a_rcv;
        (sa, sb)
    }

    /// Passive open: installs a listener on `laddr:port` (a wildcard
    /// PCB). Incoming SYNs to it spawn connections.
    pub fn listen(&mut self, laddr: [u8; 4], port: u16) -> SockId {
        let key = PcbKey {
            laddr,
            lport: port,
            faddr: [0, 0, 0, 0],
            fport: 0,
        };
        let id = self.pcbs.insert(key);
        let tcb = Tcb::listener(key, id, &self.cfg);
        self.push_conn(tcb, false)
    }

    /// Active open: sends a SYN carrying our MSS offer and, when the
    /// configuration asks for checksum elimination, the Alternate
    /// Checksum request (§4.2). Returns the socket id; the connection
    /// is usable once [`Kernel::is_established`] reports true (the
    /// SYN-ACK arrived).
    pub fn connect(&mut self, now: SimTime, key: PcbKey, drv: &mut dyn TxDriver) -> SockId {
        let start = now.max(self.cpu.busy_until());
        let mut cursor = start + self.tables.user_tx_small_fixed;
        let id = self.pcbs.insert(key);
        let mss_offer = crate::config::tcp_mss(drv.mtu(), self.cfg.mss_one_cluster);
        // Derive a per-connection ISS from the configured base.
        let iss = self.cfg.iss.wrapping_add(u32::from(key.lport) << 8);
        let tcb = Tcb::syn_sent(key, id, mss_offer, iss, &self.cfg);
        let sock = self.push_conn(tcb, false);
        cursor = self.send_syn(cursor, sock, false, drv);
        self.cpu.occupy(start, cursor, CpuBand::Process);
        sock
    }

    /// Whether the three-way handshake has completed.
    #[must_use]
    pub fn is_established(&self, sock: SockId) -> bool {
        self.conns[sock].tcb.state == crate::tcb::TcpState::Established
    }

    /// Whether the Alternate Checksum negotiation turned the TCP
    /// checksum off for this connection.
    #[must_use]
    pub fn cksum_eliminated(&self, sock: SockId) -> bool {
        self.conns[sock].cksum_off
    }

    /// Emits a SYN (or SYN-ACK when `ack` is set) for `sock`.
    fn send_syn(
        &mut self,
        mut cursor: SimTime,
        sock: SockId,
        ack: bool,
        drv: &mut dyn TxDriver,
    ) -> SimTime {
        self.touch(sock);
        let rto = self.conns[sock].tcb.rto(&self.cfg);
        let conn = &mut self.conns[sock];
        let rcv_space = conn.sock.rcv.space();
        let mut hdr = conn.tcb.build_data_header(0, 0, rcv_space);
        hdr.flags = crate::hdr::flags::SYN | if ack { crate::hdr::flags::ACK } else { 0 };
        hdr.seq = conn.tcb.snd_una;
        let mut opts = vec![crate::options::TcpOption::Mss(conn.tcb.mss as u16)];
        if matches!(self.cfg.checksum, ChecksumMode::None) {
            opts.push(crate::options::TcpOption::AltChecksum(
                crate::options::altck::NONE,
            ));
        }
        let wire = crate::options::encode_syn(&hdr, &opts);
        let (chain, _) = Chain::from_user_data(&self.pool, &wire, false);
        // Control segments pay the ordinary output-path costs.
        let seg_cost = self.tables.tcp_out_segment;
        self.spans
            .span(SpanKind::TxTcpSegment, cursor, cursor + seg_cost);
        cursor += seg_cost;
        let ip_cost = self.tables.ip_out;
        self.spans.span(SpanKind::TxIp, cursor, cursor + ip_cost);
        cursor += ip_cost;
        conn.tcb.rexmt_deadline = Some(cursor + rto);
        // The SYN consumes one sequence number.
        conn.tcb.snd_nxt = conn.tcb.snd_una.wrapping_add(1);
        if crate::seq::seq_gt(conn.tcb.snd_nxt, conn.tcb.snd_max) {
            conn.tcb.snd_max = conn.tcb.snd_nxt;
        }
        if self.taps.wants(simcap::TapPoint::TcpSend) {
            self.taps
                .record(simcap::TapPoint::TcpSend, cursor, chain.to_vec());
        }
        drv.transmit(cursor, &chain, &mut self.spans)
    }

    /// Access a connection's TCP state (tests, harness statistics).
    #[must_use]
    pub fn tcb(&self, sock: SockId) -> &Tcb {
        &self.conns[sock].tcb
    }

    /// Like [`Kernel::tcb`] but `None` when the socket id has no TCP
    /// connection (UDP-only worlds).
    #[must_use]
    pub fn try_tcb(&self, sock: SockId) -> Option<&Tcb> {
        self.conns.get(sock).map(|c| &c.tcb)
    }

    /// Segments retransmitted, summed over every TCP connection —
    /// RTO and fast retransmits both (harness reporting; the split
    /// is visible as [`KernelStats::rto_fires`]).
    #[must_use]
    pub fn rexmits_total(&self) -> u64 {
        self.conns.iter().map(|c| c.tcb.stats.rexmits).sum()
    }

    /// Receive-buffer occupancy (harness).
    #[must_use]
    pub fn rcv_buffered(&self, sock: SockId) -> usize {
        self.conns[sock].sock.rcv.len()
    }

    /// Send-buffer occupancy (harness).
    #[must_use]
    pub fn snd_buffered(&self, sock: SockId) -> usize {
        self.conns[sock].sock.snd.len()
    }

    /// Whether the reader is blocked in read().
    #[must_use]
    pub fn reader_blocked(&self, sock: SockId) -> bool {
        self.conns[sock].sock.proc_state == crate::socket::ProcState::BlockedInRead
    }

    // ------------------------------------------------------------------
    // Transmit path.
    // ------------------------------------------------------------------

    /// The write system call: copies `data` into the socket buffer
    /// through the ULTRIX socket layer and runs TCP output.
    ///
    /// If the send buffer cannot take all of `data`, as much as fits
    /// is accepted and the outcome reports `blocked`; the process
    /// model retries with the remainder after a writer wakeup.
    pub fn syscall_write(
        &mut self,
        now: SimTime,
        sock: SockId,
        data: &[u8],
        drv: &mut dyn TxDriver,
    ) -> TxOutcome {
        let start = now.max(self.cpu.busy_until());
        let mut cursor = start;
        // A dead connection delivers its pending error instead of
        // accepting data (BSD sosend checks so_error first).
        if let Some(err) = self.conns[sock].tcb.so_error {
            return TxOutcome {
                done_at: cursor,
                accepted: 0,
                blocked: false,
                error: Some(err),
            };
        }
        self.spans.mark(Mark::WriteStart, cursor);

        // Socket layer: build the mbuf chain (the uiomove copies) and
        // charge the User span.
        let space = self.conns[sock].sock.snd.space();
        let accepted = data.len().min(space);
        let blocked = accepted < data.len();
        let use_clusters = ultrix_uses_clusters(data.len());
        let to_copy = &data[..accepted];
        if self.taps.wants(simcap::TapPoint::SockSend) {
            self.taps
                .record(simcap::TapPoint::SockSend, start, to_copy.to_vec());
        }
        let (chain, fill_cost) = match self.cfg.checksum {
            ChecksumMode::Integrated => {
                Chain::from_user_data_cksum(&self.pool, to_copy, use_clusters)
            }
            _ => Chain::from_user_data(&self.pool, to_copy, use_clusters),
        };
        let units = if use_clusters {
            fill_cost.clusters_allocated
        } else {
            fill_cost.mbufs_allocated.saturating_sub(1)
        };
        let base = if use_clusters {
            &self.costs.user_tx_cluster
        } else {
            &self.costs.user_tx_small
        };
        let mut user_us = base.us(accepted, units);
        if matches!(self.cfg.checksum, ChecksumMode::Integrated) {
            // The integrated copy touches each byte once but runs the
            // combined loop; charge the per-byte delta plus the fixed
            // bookkeeping overhead (§4.1.1).
            user_us += self.costs.integrated_delta_per_byte_us * accepted as f64
                + self.costs.integrated_tx_fixed_us;
        }
        let user_cost = SimTime::from_us_f64(user_us);
        self.spans
            .span(SpanKind::TxUser, cursor, cursor + user_cost);
        cursor += user_cost;

        self.conns[sock].sock.snd.append(chain);
        if blocked {
            self.conns[sock].sock.proc_state = crate::socket::ProcState::BlockedInWrite;
        }

        // TCP output.
        cursor = self.tcp_output(cursor, sock, drv);

        self.spans.mark(Mark::WriteEnd, cursor);
        self.cpu.occupy(start, cursor, CpuBand::Process);
        TxOutcome {
            done_at: cursor,
            accepted,
            blocked,
            error: None,
        }
    }

    /// Runs `tcp_output` for a connection: emits as many segments as
    /// the window, MSS and Nagle permit. Returns the advanced cursor.
    fn tcp_output(&mut self, mut cursor: SimTime, sock: SockId, drv: &mut dyn TxDriver) -> SimTime {
        self.touch(sock);
        let rto = self.conns[sock].tcb.rto(&self.cfg);
        let mut first_segment = true;
        loop {
            let conn = &mut self.conns[sock];
            let Some((offset, len)) = conn.tcb.next_send(conn.sock.snd.len()) else {
                break;
            };

            // mcopy: the retransmission-safe copy out of the socket
            // buffer (Table 2 mcopy row).
            let (mut seg, copy_receipt) = conn.sock.snd.peek_copy(&self.pool, offset, len);
            let mcopy_cost = if copy_receipt.clusters_shared > 0 {
                self.costs
                    .mcopy_cluster
                    .eval(0, copy_receipt.clusters_shared)
            } else {
                self.costs
                    .mcopy_small
                    .eval(len, copy_receipt.mbufs_allocated)
            };
            self.spans
                .span(SpanKind::TxTcpMcopy, cursor, cursor + mcopy_cost);
            cursor += mcopy_cost;

            // Header construction.
            let rcv_space = conn.sock.rcv.space();
            let mut hdr = conn.tcb.build_data_header(offset, len, rcv_space);

            // Checksum (Table 2 checksum row).
            cursor = self.checksum_out(cursor, &mut hdr, &seg);

            // Remaining TCP output processing (Table 2 segment row).
            let seg_cost = if first_segment {
                self.tables.tcp_out_segment
            } else {
                self.tables.tcp_out_segment_warm
            };
            self.spans
                .span(SpanKind::TxTcpSegment, cursor, cursor + seg_cost);
            cursor += seg_cost;

            let _hdr_cost = seg.prepend_header(&self.pool, &hdr.encode());
            if self.taps.wants(simcap::TapPoint::TcpSend) {
                self.taps
                    .record(simcap::TapPoint::TcpSend, cursor, seg.to_vec());
            }
            let conn = &mut self.conns[sock];
            conn.tcb.note_sent(hdr.seq, len, cursor, rto);

            // IP output (Table 2 IP row).
            let ip_cost = if first_segment {
                self.tables.ip_out
            } else {
                self.tables.ip_out_warm
            };
            self.spans.span(SpanKind::TxIp, cursor, cursor + ip_cost);
            cursor += ip_cost;

            // Driver.
            cursor = drv.transmit(cursor, &seg, &mut self.spans);
            first_segment = false;
        }
        // A pending immediate ACK with no data to carry it: send a
        // pure ACK.
        if self.conns[sock].tcb.acknow {
            cursor = self.send_pure_ack(cursor, sock, drv);
        }
        if self.conns[sock].tcb.delack && self.conns[sock].delack_deadline.is_none() {
            self.conns[sock].delack_deadline = Some(cursor + SimTime::from_us(self.cfg.delack_us));
        }
        // Re-arm the retransmit timer when an ACK cleared it but data
        // is still outstanding (BSD's REXMT re-arm on partial ACKs).
        let conn = &mut self.conns[sock];
        if conn.tcb.flight_size() > 0 && conn.tcb.rexmt_deadline.is_none() {
            conn.tcb.rexmt_deadline = Some(cursor + rto);
        }
        // Persist: unsent data, nothing in flight, and a closed peer
        // window — arm the zero-window probe so a lost window update
        // cannot deadlock the connection.
        let stalled = conn.tcb.flight_size() == 0
            && !conn.sock.snd.is_empty()
            && conn.tcb.snd_wnd.min(conn.tcb.cwnd) == 0;
        if stalled {
            if conn.tcb.persist_deadline.is_none() {
                conn.tcb.persist_deadline = Some(cursor + rto);
            }
        } else {
            conn.tcb.persist_deadline = None;
        }
        cursor
    }

    /// Emits a pure ACK / window update.
    fn send_pure_ack(
        &mut self,
        mut cursor: SimTime,
        sock: SockId,
        drv: &mut dyn TxDriver,
    ) -> SimTime {
        let conn = &mut self.conns[sock];
        let rcv_space = conn.sock.rcv.space();
        let mut hdr = conn.tcb.build_ack_header(rcv_space);
        conn.delack_deadline = None;
        // SACK blocks ride in the option space of pure ACKs when the
        // variant is enabled (RFC 2018); the checksum covers them as
        // payload of the doff-5 base header, so both sides agree.
        let sack_opt = if self.cfg.cc == CcVariant::Sack {
            encode_sack_option(&conn.tcb.sack_blocks())
        } else {
            Vec::new()
        };
        let mut seg = if sack_opt.is_empty() {
            Chain::new()
        } else {
            hdr.ip_len = (TCPIP_HDR_LEN + sack_opt.len()) as u16;
            Chain::from_user_data(&self.pool, &sack_opt, false).0
        };
        cursor = self.checksum_out(cursor, &mut hdr, &seg);
        let seg_cost = self.tables.tcp_out_segment;
        self.spans
            .span(SpanKind::TxTcpSegment, cursor, cursor + seg_cost);
        cursor += seg_cost;
        let mut wire = hdr.encode();
        if !sack_opt.is_empty() {
            // Patch the data offset for the options (the checksum was
            // computed over the doff-5 encode on both ends).
            wire[32] = ((((20 + sack_opt.len()) / 4) as u8) << 4) | (wire[32] & 0x0f);
        }
        let _ = seg.prepend_header(&self.pool, &wire);
        if self.taps.wants(simcap::TapPoint::TcpSend) {
            self.taps
                .record(simcap::TapPoint::TcpSend, cursor, seg.to_vec());
        }
        let ip_cost = self.tables.ip_out;
        self.spans.span(SpanKind::TxIp, cursor, cursor + ip_cost);
        cursor += ip_cost;
        drv.transmit(cursor, &seg, &mut self.spans)
    }

    /// Computes and charges the transmit-side TCP checksum per the
    /// configured mode, filling `hdr.tcp_cksum`.
    fn checksum_out(&mut self, mut cursor: SimTime, hdr: &mut TcpIpHeader, seg: &Chain) -> SimTime {
        match self.cfg.checksum {
            ChecksumMode::Standard(which) => {
                let (payload_sum, bytes) = seg.checksum_walk();
                hdr.tcp_cksum = hdr.tcp_checksum_with(payload_sum);
                let cost =
                    self.costs
                        .kernel_cksum(which, bytes + TCPIP_HDR_LEN, seg.mbuf_count().max(1));
                self.spans
                    .span(SpanKind::TxTcpChecksum, cursor, cursor + cost);
                cursor += cost;
            }
            ChecksumMode::Integrated => {
                // Combine the partial sums stored at socket-fill time;
                // fall back to a walk when a chunk was split across
                // segments (§4.1.1).
                let (payload_sum, cost) = match seg.stored_checksum() {
                    Some(sum) => (
                        sum,
                        self.costs
                            .partial_combine
                            .eval(TCPIP_HDR_LEN, seg.mbuf_count()),
                    ),
                    None => {
                        let (sum, bytes) = seg.checksum_walk();
                        (
                            sum,
                            self.costs.kernel_cksum(
                                decstation::ChecksumImpl::Optimized,
                                bytes + TCPIP_HDR_LEN,
                                seg.mbuf_count().max(1),
                            ),
                        )
                    }
                };
                hdr.tcp_cksum = hdr.tcp_checksum_with(payload_sum);
                self.spans
                    .span(SpanKind::TxTcpChecksum, cursor, cursor + cost);
                cursor += cost;
            }
            ChecksumMode::None => {
                hdr.tcp_cksum = 0;
            }
        }
        cursor
    }

    // ------------------------------------------------------------------
    // Receive path.
    // ------------------------------------------------------------------

    /// Driver upcall: a reassembled IP datagram (real bytes, 40-byte
    /// header included) is placed on the IP input queue at CPU time
    /// `now`. Returns the time at which the software interrupt should
    /// be dispatched, or `None` if one is already pending.
    pub fn enqueue_ip(&mut self, now: SimTime, chain: Chain) -> Option<SimTime> {
        // The floor reaches datagrams queued after it rose too, which
        // is harmless: driver interrupt ends never decrease.
        debug_assert!(
            now >= self.ipq_floor,
            "datagram enqueued at {now:?} below the IPQ floor {:?}",
            self.ipq_floor
        );
        self.stats.ipq_enqueued += 1;
        let cluster = chain.iter().any(mbuf::Mbuf::is_cluster);
        self.ipq.push_back((chain, now));
        self.ipq_ready_at = self.ipq_ready_at.max(now + self.tables.softintr_dispatch);
        if self.softintr_pending {
            return None;
        }
        self.softintr_pending = true;
        let mut delay_us = self.costs.softintr_dispatch_us;
        if cluster {
            delay_us += self.costs.ipq_cluster_extra_us;
        }
        Some(now + SimTime::from_us_f64(delay_us))
    }

    /// Driver upcall when a hardware-interrupt service *extends* an
    /// ongoing FIFO drain (back-to-back datagrams): the driver hands
    /// everything to IP only when its drain loop finishes, so queued
    /// datagrams' enqueue times move to the end of the service. O(1):
    /// the move is applied as each datagram leaves the queue.
    pub fn retime_ipq(&mut self, t: SimTime) {
        self.ipq_floor = self.ipq_floor.max(t);
        self.ipq_ready_at = self.ipq_ready_at.max(t + self.tables.softintr_dispatch);
    }

    /// The software interrupt: drains the IP input queue. Returns when
    /// the handler finished; the processes it woke wait for
    /// [`Kernel::drain_wakeups`].
    pub fn ipintr(&mut self, now: SimTime, drv: &mut dyn TxDriver) -> SimTime {
        self.softintr_pending = false;
        let start = now.max(self.cpu.busy_until()).max(self.ipq_ready_at);
        let mut cursor = start;
        let mut first_dgram = true;
        while let Some((chain, enq_at)) = self.ipq.pop_front() {
            let enq_at = enq_at.max(self.ipq_floor);
            // The IPQ span: enqueue to the start of this drain batch
            // (the dispatch latency). Waiting behind an earlier
            // datagram's protocol processing is attributed to that
            // processing, keeping the rows a disjoint partition of
            // the receive window as in the paper's tables.
            self.spans.span(SpanKind::RxIpq, enq_at, start.max(enq_at));
            cursor = self.ip_input(cursor, chain, first_dgram, drv);
            first_dgram = false;
        }
        self.ipq_floor = SimTime::ZERO;
        self.cpu.occupy(start, cursor, CpuBand::SoftIntr);
        cursor
    }

    /// Drains the processes the software interrupt woke, each with the
    /// time it starts running: every blocked reader, then every
    /// blocked writer, in the order they were woken.
    pub fn drain_wakeups(&mut self) -> impl Iterator<Item = (SockId, SimTime)> + '_ {
        self.wakeups.drain(..).chain(self.writer_wakeups.drain(..))
    }

    /// IP input for one datagram, then TCP input.
    fn ip_input(
        &mut self,
        mut cursor: SimTime,
        mut chain: Chain,
        first_dgram: bool,
        drv: &mut dyn TxDriver,
    ) -> SimTime {
        let cluster = chain.iter().any(mbuf::Mbuf::is_cluster);
        let ip_us = if !first_dgram {
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
        self.spans.span(SpanKind::RxIp, cursor, cursor + ip_cost);
        cursor += ip_cost;

        // Parse and validate the combined header (real bytes). The
        // protocol dispatch (the `ipintr` switch on ip_p) happens
        // before the per-protocol minimum-length checks: a minimal
        // UDP datagram is shorter than a TCP header.
        if chain.len() < crate::udp::UDPIP_HDR_LEN {
            self.stats.ip_header_drops += 1;
            return cursor;
        }
        let mut proto = [0u8; 10];
        let _ = chain.copy_out(0, &mut proto);
        if proto[9] == crate::udp::IPPROTO_UDP {
            return self.udp_input(cursor, &chain);
        }
        let mut hdr40 = [0u8; TCPIP_HDR_LEN];
        if chain.len() < TCPIP_HDR_LEN {
            self.stats.ip_header_drops += 1;
            return cursor;
        }
        let _ = chain.copy_out(0, &mut hdr40);
        let Some(hdr) = TcpIpHeader::decode(&hdr40) else {
            self.stats.ip_header_drops += 1;
            return cursor;
        };
        // Truncate any link padding beyond the IP length (Ethernet
        // pads small frames).
        if chain.len() > usize::from(hdr.ip_len) {
            let excess = chain.len() - usize::from(hdr.ip_len);
            chain.trim_back_bytes(excess);
        }
        self.tcp_input(cursor, hdr, chain, drv)
    }

    /// TCP input for one segment.
    fn tcp_input(
        &mut self,
        mut cursor: SimTime,
        hdr: TcpIpHeader,
        mut chain: Chain,
        drv: &mut dyn TxDriver,
    ) -> SimTime {
        if hdr.flags & crate::hdr::flags::SYN != 0 {
            return self.handshake_input(cursor, &chain, drv);
        }
        // Data offset: established-flow segments normally carry the
        // bare 20-byte TCP header (doff 5), but SACK blocks ride in
        // the option space of pure ACKs when the variant is enabled.
        let mut b32 = [0u8; 1];
        let _ = chain.copy_out(32, &mut b32);
        let doff = usize::from(b32[0] >> 4);
        if !(5..=15).contains(&doff) {
            self.stats.tcp_cksum_drops += 1;
            return cursor;
        }
        let hdr_len = 20 + doff * 4;
        let payload_len = usize::from(hdr.ip_len).saturating_sub(hdr_len);

        // Checksum verification (Table 3 checksum row).
        if self.cfg.checksum.verifies() {
            let (ok, cost) = self.checksum_in(&hdr, &chain, payload_len);
            self.spans
                .span(SpanKind::RxTcpChecksum, cursor, cursor + cost);
            cursor += cost;
            if !ok {
                self.stats.tcp_cksum_drops += 1;
                return cursor;
            }
        }

        // Capture the full segment (header attached) before the chain
        // is trimmed and consumed; recorded below at the time TCP
        // input processing completes.
        let tap_bytes = if self.taps.wants(simcap::TapPoint::TcpRecv) {
            Some(chain.to_vec())
        } else {
            None
        };

        // Lift any SACK blocks out of the option space before the
        // header is stripped.
        let sacks = if doff > 5 {
            let mut opts = vec![0u8; hdr_len - TCPIP_HDR_LEN];
            let _ = chain.copy_out(TCPIP_HDR_LEN, &mut opts);
            parse_sack_blocks(&opts)
        } else {
            Vec::new()
        };

        // Strip the header (and options); the payload chain is what
        // gets appended to the receive buffer.
        let _ = chain.trim_front(hdr_len);
        debug_assert_eq!(chain.len(), payload_len);

        // Demultiplex: PCB cache, then the configured organization.
        let key = PcbKey {
            laddr: hdr.dst,
            lport: hdr.dport,
            faddr: hdr.src,
            fport: hdr.sport,
        };
        let receipt = self.pcbs.lookup(&key);
        let lookup_us = if receipt.cache_hit {
            self.costs.pcb_cache_check_us
        } else if receipt.hashed {
            self.costs.pcb_hash_probe_us
        } else {
            let mut us = self.costs.pcb_lookup_call_us
                + self.costs.pcb_lookup_base_us
                + self.costs.pcb_lookup_per_entry_us * receipt.search_len as f64;
            if self.pcbs.use_cache {
                us += self.costs.pcb_cache_check_us; // The failed cache probe.
            }
            us
        };
        let Some(pcb_id) = receipt.id else {
            self.stats.no_pcb_drops += 1;
            let cost = SimTime::from_us_f64(lookup_us);
            self.spans
                .span(SpanKind::RxTcpSegment, cursor, cursor + cost);
            return cursor + cost;
        };
        let sock = self.sock_of(pcb_id).expect("pcb id maps to a connection");
        self.touch(sock);

        // Passive-open completion: the final ACK of the handshake.
        {
            let conn = &mut self.conns[sock];
            if conn.tcb.state == crate::tcb::TcpState::SynReceived {
                if hdr.ack == conn.tcb.snd_nxt {
                    conn.tcb.snd_una = hdr.ack;
                    conn.tcb.state = crate::tcb::TcpState::Established;
                    conn.tcb.rexmt_deadline = None;
                    conn.tcb.rexmt_shift = 0;
                }
                let cost = SimTime::from_us_f64(self.costs.tcp_in_slow.fixed_us + lookup_us);
                self.spans
                    .span(SpanKind::RxTcpSegment, cursor, cursor + cost);
                return cursor + cost;
            }
        }

        // Teardown handling (FIN exchange, TIME-WAIT).
        if self.conns[sock].tcb.state != crate::tcb::TcpState::Established
            || hdr.flags & crate::hdr::flags::FIN != 0
        {
            let seg_cost = self.tables.tcp_in_slow_fixed;
            self.spans
                .span(SpanKind::RxTcpSegment, cursor, cursor + seg_cost);
            cursor += seg_cost;
            if self.teardown_input(cursor, sock, &hdr, drv) {
                return cursor;
            }
        }

        // Header prediction (§3).
        let conn = &mut self.conns[sock];
        conn.tcb.stats.predict_checks += 1;
        let prediction = if self.cfg.header_prediction && doff == 5 {
            conn.tcb.predict(&hdr, payload_len)
        } else {
            Prediction::Slow
        };

        let mut woke_reader = false;
        let mut woke_writer = false;
        let seg_start = cursor;
        match prediction {
            Prediction::FastAck => {
                conn.tcb.stats.predict_ack_hits += 1;
                let res = conn.tcb.process_ack(hdr.ack, hdr.win, true, &[], cursor);
                let _ = conn.sock.snd.drop_front(res.newly_acked);
                if conn.sock.proc_state == crate::socket::ProcState::BlockedInWrite
                    && conn.sock.snd.space() > 0
                {
                    woke_writer = true;
                }
                cursor += SimTime::from_us_f64(self.costs.tcp_in_fast_us + lookup_us);
            }
            Prediction::FastData => {
                conn.tcb.stats.predict_data_hits += 1;
                conn.tcb
                    .process_data(hdr.seq, chain, &mut conn.sock.rcv.chain);
                if conn.sock.proc_state == crate::socket::ProcState::BlockedInRead {
                    woke_reader = true;
                }
                cursor += SimTime::from_us_f64(self.costs.tcp_in_fast_us + lookup_us);
            }
            Prediction::Slow => {
                let mbufs = chain.mbuf_count();
                let ack_res =
                    conn.tcb
                        .process_ack(hdr.ack, hdr.win, payload_len == 0, &sacks, cursor);
                let _ = conn.sock.snd.drop_front(ack_res.newly_acked);
                if ack_res.newly_acked > 0
                    && conn.sock.proc_state == crate::socket::ProcState::BlockedInWrite
                    && conn.sock.snd.space() > 0
                {
                    woke_writer = true;
                }
                if payload_len > 0 {
                    conn.tcb
                        .process_data(hdr.seq, chain, &mut conn.sock.rcv.chain);
                }
                if conn.sock.proc_state == crate::socket::ProcState::BlockedInRead
                    && !conn.sock.rcv.is_empty()
                {
                    woke_reader = true;
                }
                let slow = self.costs.tcp_in_slow.us(payload_len, mbufs) + lookup_us;
                cursor += SimTime::from_us_f64(slow);
            }
        }
        self.spans.span(SpanKind::RxTcpSegment, seg_start, cursor);
        if let Some(bytes) = tap_bytes {
            self.taps.record(simcap::TapPoint::TcpRecv, cursor, bytes);
        }

        // Wakeups: the process is placed on the run queue now; it
        // runs after the softintr completes plus the scheduler
        // latency (Table 3 Wakeup row). The span is recorded by the
        // caller of syscall_read via the wakeup time we report.
        if woke_reader {
            let run_at = cursor + self.tables.wakeup;
            self.spans.span(SpanKind::RxWakeup, cursor, run_at);
            self.conns[sock].sock.proc_state = crate::socket::ProcState::Running;
            self.wakeups.push((sock, run_at));
        }
        if woke_writer {
            let run_at = cursor + self.tables.wakeup;
            self.conns[sock].sock.proc_state = crate::socket::ProcState::Running;
            self.writer_wakeups.push((sock, run_at));
        }

        // Output in response: retransmit (fast retransmit reset
        // snd_nxt), new data unblocked by the ACK, or an immediate
        // ACK.
        cursor = self.tcp_output(cursor, sock, drv);
        cursor
    }

    /// Verifies the receive-side checksum per mode; returns validity
    /// and cost.
    fn checksum_in(
        &mut self,
        hdr: &TcpIpHeader,
        chain: &Chain,
        payload_len: usize,
    ) -> (bool, SimTime) {
        match self.cfg.checksum {
            ChecksumMode::Standard(which) => {
                let (whole_sum, bytes) = chain.checksum_walk();
                // The walk covered header + payload; subtract the
                // header bytes' sum to get the payload sum.
                let mut hdr40 = [0u8; TCPIP_HDR_LEN];
                let _ = chain.copy_out(0, &mut hdr40);
                let hdr_sum = cksum::optimized_cksum(&hdr40);
                let payload_sum = whole_sum.sub(hdr_sum);
                let ok = hdr.tcp_checksum_ok(payload_sum);
                let cost = self
                    .costs
                    .kernel_cksum(which, bytes, chain.mbuf_count().max(1));
                (ok, cost)
            }
            ChecksumMode::Integrated => {
                // The driver summed the datagram during its copy and
                // stored per-mbuf partials; combining them replaces
                // the checksum pass (§4.1.1). The integrated copy's
                // per-byte delta and fixed costs were charged by the
                // driver.
                match chain.stored_checksum() {
                    Some(whole_sum) => {
                        let mut hdr40 = [0u8; TCPIP_HDR_LEN];
                        let _ = chain.copy_out(0, &mut hdr40);
                        let hdr_sum = cksum::optimized_cksum(&hdr40);
                        let payload_sum = whole_sum.sub(hdr_sum);
                        let ok = hdr.tcp_checksum_ok(payload_sum);
                        let cost = self.costs.partial_combine.eval(0, chain.mbuf_count());
                        (ok, cost)
                    }
                    None => {
                        let (whole_sum, bytes) = chain.checksum_walk();
                        let mut hdr40 = [0u8; TCPIP_HDR_LEN];
                        let _ = chain.copy_out(0, &mut hdr40);
                        let payload_sum = whole_sum.sub(cksum::optimized_cksum(&hdr40));
                        let ok = hdr.tcp_checksum_ok(payload_sum);
                        let cost = self.costs.kernel_cksum(
                            decstation::ChecksumImpl::Optimized,
                            bytes,
                            chain.mbuf_count().max(1),
                        );
                        (ok, cost)
                    }
                }
            }
            ChecksumMode::None => {
                let _ = payload_len;
                (true, SimTime::ZERO)
            }
        }
    }

    // ------------------------------------------------------------------
    // Read path and timers.
    // ------------------------------------------------------------------

    /// The read system call: appends up to `want` bytes to `buf`, or
    /// blocks.
    pub fn syscall_read(
        &mut self,
        now: SimTime,
        sock: SockId,
        want: usize,
        buf: &mut Vec<u8>,
        drv: &mut dyn TxDriver,
    ) -> RxSyscallOutcome {
        let start = now.max(self.cpu.busy_until());
        let mut cursor = start;
        let conn = &mut self.conns[sock];
        let avail = conn.sock.rcv.len();
        // Deliver buffered data first; once drained, a dead connection
        // returns its pending error (BSD soreceive's so_error check).
        if avail == 0 {
            if let Some(err) = conn.tcb.so_error {
                return RxSyscallOutcome {
                    done_at: cursor,
                    len: 0,
                    blocked: false,
                    error: Some(err),
                };
            }
            conn.sock.proc_state = crate::socket::ProcState::BlockedInRead;
            // Entering the kernel and sleeping costs a few µs; folded
            // into the wakeup constant as the paper's probes did.
            return RxSyscallOutcome {
                done_at: cursor,
                len: 0,
                blocked: true,
                error: None,
            };
        }
        let take = want.min(avail);
        let mbufs = conn.sock.rcv.chain.mbuf_count();
        let _ = conn.sock.rcv.chain.copy_prefix_into(take, buf);
        let _ = conn.sock.rcv.drop_front(take);
        let cost = self.costs.user_rx.eval(take, mbufs);
        self.spans.span(SpanKind::RxUser, cursor, cursor + cost);
        cursor += cost;

        // PRU_RCVD: window update if the reader opened the window
        // enough (drives the bulk-transfer workload).
        let conn = &mut self.conns[sock];
        let space = conn.sock.rcv.space();
        if conn.tcb.window_update_due(space) {
            conn.tcb.acknow = true;
            cursor = self.tcp_output(cursor, sock, drv);
        }

        // The probe point is the return to user space, after any
        // window-update output — the same instant `ReadReturn` marks.
        if self.taps.wants(simcap::TapPoint::SockRecv) {
            let data = buf[buf.len() - take..].to_vec();
            self.taps.record(simcap::TapPoint::SockRecv, cursor, data);
        }

        self.cpu.occupy(start, cursor, CpuBand::Process);
        RxSyscallOutcome {
            done_at: cursor,
            len: take,
            blocked: false,
            error: None,
        }
    }

    /// Fires every timer due at `now`: delayed ACKs, persist probes,
    /// TIME-WAIT expiry, data, FIN and SYN retransmission, and the
    /// abort at the retransmission limit. Only the due sockets, those
    /// whose earliest deadline is at or before `now`, are visited, in
    /// ascending socket index. Returns the next deadline, if any.
    pub fn check_timers(&mut self, now: SimTime, drv: &mut dyn TxDriver) -> Option<SimTime> {
        self.timer_pending = None;
        let start = now.max(self.cpu.busy_until());
        let mut cursor = start;
        let mut due = std::mem::take(&mut self.due);
        self.due_socks(now, &mut due);
        for &sock in &due {
            self.touch(sock);
            let conn = &mut self.conns[sock];
            if let Some(dl) = conn.delack_deadline {
                if dl <= now && conn.tcb.delack {
                    conn.tcb.acknow = true;
                    conn.delack_deadline = None;
                    self.stats.delack_fires += 1;
                    cursor = self.tcp_output(cursor, sock, drv);
                } else if dl <= now {
                    conn.delack_deadline = None;
                }
            }
            let conn = &mut self.conns[sock];
            if let Some(dl) = conn.tcb.persist_deadline {
                if dl <= now && conn.tcb.flight_size() == 0 && !conn.sock.snd.is_empty() {
                    // Zero-window probe: force one byte past the
                    // closed window (BSD's persist output).
                    conn.tcb.persist_deadline = None;
                    let saved_wnd = conn.tcb.snd_wnd;
                    let saved_cwnd = conn.tcb.cwnd;
                    conn.tcb.snd_wnd = conn.tcb.snd_wnd.max(1);
                    conn.tcb.cwnd = conn.tcb.cwnd.max(1);
                    cursor = self.tcp_output(cursor.max(now), sock, drv);
                    let conn = &mut self.conns[sock];
                    // Restore the real window; the probe's ACK will
                    // refresh it through `process_ack`.
                    conn.tcb.snd_wnd = saved_wnd;
                    conn.tcb.cwnd = saved_cwnd;
                    // Re-arm until the window reopens.
                    if conn.tcb.snd_wnd == 0 {
                        conn.tcb.persist_deadline =
                            Some(cursor + SimTime::from_us(self.cfg.rto_min_us));
                    }
                    continue;
                } else if dl <= now {
                    conn.tcb.persist_deadline = None;
                }
            }
            let conn = &mut self.conns[sock];
            if let Some(dl) = conn.time_wait_deadline {
                if dl <= now {
                    self.reclaim(sock);
                    continue;
                }
            }
            let conn = &mut self.conns[sock];
            if let Some(dl) = conn.tcb.rexmt_deadline {
                use crate::tcb::TcpState;
                // Retransmission limit (BSD TCP_MAXRXTSHIFT): when the
                // backoff is already at the cap and the timer fires
                // again, drop the connection with ETIMEDOUT. This is
                // the liveness guarantee — no fault schedule can make
                // a run retry forever.
                if dl <= now
                    && conn.tcb.rexmt_shift >= self.cfg.max_rexmt_shift
                    && conn.tcb.state != TcpState::Closed
                {
                    self.abort_connection(sock, cursor.max(now));
                    continue;
                }
                if dl <= now && matches!(conn.tcb.state, TcpState::FinWait1 | TcpState::LastAck) {
                    // FIN retransmission (backed off like data, so the
                    // abort limit above is reachable).
                    self.stats.rto_fires += 1;
                    self.taps.trigger(simcap::TriggerReason::Rto, now);
                    conn.tcb.stats.rexmits += 1;
                    conn.tcb.rexmt_shift = (conn.tcb.rexmt_shift + 1).min(self.cfg.max_rexmt_shift);
                    conn.tcb.note_retransmit();
                    conn.tcb.snd_nxt = conn.tcb.snd_una;
                    conn.tcb.rexmt_deadline = None;
                    cursor = self.send_fin(cursor.max(now), sock, drv);
                    continue;
                }
                if dl <= now && matches!(conn.tcb.state, TcpState::SynSent | TcpState::SynReceived)
                {
                    // Handshake retransmission.
                    self.stats.rto_fires += 1;
                    self.taps.trigger(simcap::TriggerReason::Rto, now);
                    conn.tcb.stats.rexmits += 1;
                    conn.tcb.rexmt_shift = (conn.tcb.rexmt_shift + 1).min(self.cfg.max_rexmt_shift);
                    conn.tcb.note_retransmit();
                    conn.tcb.snd_nxt = conn.tcb.snd_una;
                    conn.tcb.rexmt_deadline = None;
                    let synack = conn.tcb.state == crate::tcb::TcpState::SynReceived;
                    cursor = self.send_syn(cursor, sock, synack, drv);
                    continue;
                }
                if dl <= now && conn.tcb.flight_size() > 0 {
                    // RTO: back off, shrink the window, resend. Karn:
                    // the retransmit cancels the RTT measurement and
                    // pins the recovery point.
                    self.stats.rto_fires += 1;
                    self.taps.trigger(simcap::TriggerReason::Rto, now);
                    conn.tcb.stats.rexmits += 1;
                    conn.tcb.rexmt_shift = (conn.tcb.rexmt_shift + 1).min(self.cfg.max_rexmt_shift);
                    conn.tcb.note_retransmit();
                    conn.tcb.ssthresh = (conn.tcb.flight_size() / 2).max(2 * conn.tcb.mss);
                    conn.tcb.cwnd = conn.tcb.mss;
                    conn.tcb.snd_nxt = conn.tcb.snd_una;
                    conn.tcb.rexmt_deadline = None;
                    conn.tcb.on_rto();
                    cursor = self.tcp_output(cursor, sock, drv);
                } else if dl <= now {
                    conn.tcb.rexmt_deadline = None;
                }
            }
        }
        due.clear();
        self.due = due;
        if cursor > start {
            self.cpu.occupy(start, cursor, CpuBand::Process);
        }
        self.next_deadline()
    }

    /// Closes a connection: sends a FIN (after any buffered data has
    /// been transmitted — the caller ensures the buffer is drained,
    /// as the benchmark processes do) and walks the teardown states.
    pub fn close(&mut self, now: SimTime, sock: SockId, drv: &mut dyn TxDriver) {
        use crate::tcb::TcpState;
        let start = now.max(self.cpu.busy_until());
        let state = self.conns[sock].tcb.state;
        let next = match state {
            TcpState::Established => TcpState::FinWait1,
            TcpState::CloseWait => TcpState::LastAck,
            _ => return, // Already closing or never open.
        };
        self.conns[sock].tcb.state = next;
        let cursor = self.send_fin(start, sock, drv);
        self.cpu.occupy(start, cursor, CpuBand::Process);
    }

    /// Whether the connection has fully closed (PCB reclaimed).
    #[must_use]
    pub fn is_closed(&self, sock: SockId) -> bool {
        self.conns[sock].tcb.state == crate::tcb::TcpState::Closed
    }

    /// Emits a FIN|ACK segment; the FIN consumes one sequence number.
    fn send_fin(&mut self, mut cursor: SimTime, sock: SockId, drv: &mut dyn TxDriver) -> SimTime {
        self.touch(sock);
        let rto = self.conns[sock].tcb.rto(&self.cfg);
        let conn = &mut self.conns[sock];
        let rcv_space = conn.sock.rcv.space();
        let offset = crate::seq::seq_diff(conn.tcb.snd_una, conn.tcb.snd_nxt) as usize;
        let mut hdr = conn.tcb.build_data_header(offset, 0, rcv_space);
        hdr.flags = crate::hdr::flags::FIN | crate::hdr::flags::ACK;
        hdr.seq = conn.tcb.snd_nxt;
        hdr.tcp_cksum = if conn.cksum_off {
            0
        } else {
            hdr.tcp_checksum_with(cksum::Sum16::ZERO)
        };
        conn.tcb.snd_nxt = conn.tcb.snd_nxt.wrapping_add(1);
        if crate::seq::seq_gt(conn.tcb.snd_nxt, conn.tcb.snd_max) {
            conn.tcb.snd_max = conn.tcb.snd_nxt;
        }
        conn.tcb.rexmt_deadline = Some(cursor + rto);
        let mut seg = Chain::new();
        let _ = seg.prepend_header(&self.pool, &hdr.encode());
        let seg_cost = self.tables.tcp_out_segment;
        self.spans
            .span(SpanKind::TxTcpSegment, cursor, cursor + seg_cost);
        cursor += seg_cost;
        if self.taps.wants(simcap::TapPoint::TcpSend) {
            self.taps
                .record(simcap::TapPoint::TcpSend, cursor, seg.to_vec());
        }
        let ip_cost = self.tables.ip_out;
        self.spans.span(SpanKind::TxIp, cursor, cursor + ip_cost);
        cursor += ip_cost;
        drv.transmit(cursor, &seg, &mut self.spans)
    }

    /// Handles teardown-state transitions for an arriving segment.
    /// Returns true when the segment was fully consumed here.
    fn teardown_input(
        &mut self,
        cursor: SimTime,
        sock: SockId,
        hdr: &TcpIpHeader,
        drv: &mut dyn TxDriver,
    ) -> bool {
        use crate::tcb::TcpState;
        let fin = hdr.flags & crate::hdr::flags::FIN != 0;
        let conn = &mut self.conns[sock];
        let acks_our_fin = hdr.ack == conn.tcb.snd_nxt;
        match conn.tcb.state {
            TcpState::Established if fin => {
                // Passive close begins: their FIN consumes a sequence
                // number; ACK it and tell the application (EOF).
                conn.tcb.rcv_nxt = conn.tcb.rcv_nxt.wrapping_add(1);
                conn.tcb.state = TcpState::CloseWait;
                conn.tcb.acknow = true;
                let _ = self.send_pure_ack(cursor, sock, drv);
                true
            }
            TcpState::FinWait1 => {
                if acks_our_fin {
                    conn.tcb.snd_una = hdr.ack;
                    conn.tcb.rexmt_deadline = None;
                    conn.tcb.state = if fin {
                        TcpState::TimeWait
                    } else {
                        TcpState::FinWait2
                    };
                } else if fin {
                    // Simultaneous close: their FIN before our ACK.
                    conn.tcb.state = TcpState::TimeWait;
                }
                if fin {
                    conn.tcb.rcv_nxt = conn.tcb.rcv_nxt.wrapping_add(1);
                    let _ = self.send_pure_ack(cursor, sock, drv);
                    self.enter_time_wait(cursor, sock);
                }
                true
            }
            TcpState::FinWait2 if fin => {
                conn.tcb.rcv_nxt = conn.tcb.rcv_nxt.wrapping_add(1);
                conn.tcb.state = TcpState::TimeWait;
                let _ = self.send_pure_ack(cursor, sock, drv);
                self.enter_time_wait(cursor, sock);
                true
            }
            TcpState::LastAck if acks_our_fin => {
                self.reclaim(sock);
                true
            }
            TcpState::TimeWait => {
                // Retransmitted FIN: re-ACK.
                if fin {
                    let _ = self.send_pure_ack(cursor, sock, drv);
                }
                true
            }
            _ => false,
        }
    }

    /// Starts the 2MSL timer (shortened: one RTO-floor interval keeps
    /// experiment runtimes sane; the mechanism is what matters).
    fn enter_time_wait(&mut self, now: SimTime, sock: SockId) {
        self.conns[sock].time_wait_deadline = Some(now + SimTime::from_us(self.cfg.rto_min_us) * 2);
    }

    /// Removes the PCB and marks the connection closed.
    fn reclaim(&mut self, sock: SockId) {
        let key = self.conns[sock].tcb.key;
        let _ = self.pcbs.remove(&key);
        self.conns[sock].tcb.state = crate::tcb::TcpState::Closed;
        self.conns[sock].tcb.rexmt_deadline = None;
        self.conns[sock].tcb.persist_deadline = None;
        self.conns[sock].delack_deadline = None;
        self.conns[sock].time_wait_deadline = None;
    }

    /// Drops a connection that exhausted its retransmission limit:
    /// reclaims the PCB, posts `ETIMEDOUT` in `so_error`, and wakes
    /// any blocked process so it observes the error instead of
    /// sleeping forever.
    fn abort_connection(&mut self, sock: SockId, now: SimTime) {
        self.stats.conn_aborts += 1;
        self.taps.trigger(simcap::TriggerReason::Abort, now);
        self.reclaim(sock);
        let conn = &mut self.conns[sock];
        conn.tcb.so_error = Some(ConnError::TimedOut);
        if conn.sock.proc_state != crate::socket::ProcState::Running {
            conn.sock.proc_state = crate::socket::ProcState::Running;
            let run_at = now + self.tables.wakeup;
            self.timer_wakeups.push((sock, run_at));
        }
    }

    /// Drains the wakeups produced by timer processing (connection
    /// aborts waking blocked readers/writers).
    pub fn drain_timer_wakeups(&mut self) -> impl Iterator<Item = (SockId, SimTime)> + '_ {
        self.timer_wakeups.drain(..)
    }

    /// The connection's pending socket error, if it was aborted.
    #[must_use]
    pub fn so_error(&self, sock: SockId) -> Option<ConnError> {
        self.conns.get(sock).and_then(|c| c.tcb.so_error)
    }

    // ------------------------------------------------------------------
    // UDP (extension; see `crate::udp`).
    // ------------------------------------------------------------------

    /// Binds a UDP socket on `laddr:port`. `checksum` selects whether
    /// datagrams sent from (and verified at) this socket carry the
    /// optional UDP checksum.
    pub fn udp_bind(&mut self, laddr: [u8; 4], port: u16, checksum: bool) -> SockId {
        self.udp_socks.push(UdpSock {
            laddr,
            port,
            checksum,
            rcvq: VecDeque::new(),
            reader_blocked: false,
            ip_id: 1,
            cksum_drops: 0,
        });
        self.udp_socks.len() - 1
    }

    /// UDP checksum failures on a socket.
    #[must_use]
    pub fn udp_cksum_drops(&self, sock: SockId) -> u64 {
        self.udp_socks[sock].cksum_drops
    }

    /// Sends one datagram. The caller respects the interface MTU
    /// (there is no fragmentation, as in the era's RPC systems).
    pub fn udp_sendto(
        &mut self,
        now: SimTime,
        sock: SockId,
        dst: [u8; 4],
        dport: u16,
        data: &[u8],
        drv: &mut dyn TxDriver,
    ) -> TxOutcome {
        assert!(
            data.len() + crate::udp::UDPIP_HDR_LEN <= drv.mtu(),
            "UDP datagram exceeds the MTU"
        );
        let start = now.max(self.cpu.busy_until());
        let mut cursor = start;
        self.spans.mark(Mark::WriteStart, cursor);
        if self.taps.wants(simcap::TapPoint::SockSend) {
            self.taps
                .record(simcap::TapPoint::SockSend, start, data.to_vec());
        }
        // Socket-layer copy, as for TCP.
        let use_clusters = ultrix_uses_clusters(data.len());
        let (mut chain, fill) = Chain::from_user_data(&self.pool, data, use_clusters);
        let units = if use_clusters {
            fill.clusters_allocated
        } else {
            fill.mbufs_allocated.saturating_sub(1)
        };
        let base = if use_clusters {
            &self.costs.user_tx_cluster
        } else {
            &self.costs.user_tx_small
        };
        let user_cost = base.eval(data.len(), units);
        self.spans
            .span(SpanKind::TxUser, cursor, cursor + user_cost);
        cursor += user_cost;

        let s = &mut self.udp_socks[sock];
        s.ip_id = s.ip_id.wrapping_add(1);
        let mut hdr = crate::udp::UdpIpHeader {
            ip_len: (crate::udp::UDPIP_HDR_LEN + data.len()) as u16,
            ip_id: s.ip_id,
            src: s.laddr,
            dst,
            sport: s.port,
            dport,
            udp_cksum: 0,
        };
        if s.checksum {
            let (sum, bytes) = chain.checksum_walk();
            hdr.udp_cksum = hdr.udp_checksum_with(sum);
            let cost = self.costs.kernel_cksum(
                decstation::ChecksumImpl::Bsd,
                bytes + crate::udp::UDPIP_HDR_LEN,
                chain.mbuf_count().max(1),
            );
            self.spans
                .span(SpanKind::TxTcpChecksum, cursor, cursor + cost);
            cursor += cost;
        }
        let udp_cost = self.tables.udp_out;
        self.spans
            .span(SpanKind::TxTcpSegment, cursor, cursor + udp_cost);
        cursor += udp_cost;
        let _ = chain.prepend_header(&self.pool, &hdr.encode());
        if self.taps.wants(simcap::TapPoint::TcpSend) {
            self.taps
                .record(simcap::TapPoint::TcpSend, cursor, chain.to_vec());
        }
        let ip_cost = self.tables.ip_out;
        self.spans.span(SpanKind::TxIp, cursor, cursor + ip_cost);
        cursor += ip_cost;
        cursor = drv.transmit(cursor, &chain, &mut self.spans);
        self.spans.mark(Mark::WriteEnd, cursor);
        self.cpu.occupy(start, cursor, CpuBand::Process);
        TxOutcome {
            done_at: cursor,
            accepted: data.len(),
            blocked: false,
            error: None,
        }
    }

    /// Receives one whole datagram, appended to `buf`, or blocks.
    pub fn udp_recvfrom(
        &mut self,
        now: SimTime,
        sock: SockId,
        buf: &mut Vec<u8>,
    ) -> RxSyscallOutcome {
        let start = now.max(self.cpu.busy_until());
        let mut cursor = start;
        let s = &mut self.udp_socks[sock];
        let Some((_, _, data)) = s.rcvq.pop_front() else {
            s.reader_blocked = true;
            return RxSyscallOutcome {
                done_at: cursor,
                len: 0,
                blocked: true,
                error: None,
            };
        };
        let cost = self
            .costs
            .user_rx
            .eval(data.len(), 1 + data.len() / mbuf::MCLBYTES);
        self.spans.span(SpanKind::RxUser, cursor, cursor + cost);
        cursor += cost;
        buf.extend_from_slice(&data);
        let len = data.len();
        if self.taps.wants(simcap::TapPoint::SockRecv) {
            self.taps.record(simcap::TapPoint::SockRecv, cursor, data);
        }
        self.cpu.occupy(start, cursor, CpuBand::Process);
        RxSyscallOutcome {
            done_at: cursor,
            len,
            blocked: false,
            error: None,
        }
    }

    /// UDP input for one datagram.
    fn udp_input(&mut self, mut cursor: SimTime, chain: &Chain) -> SimTime {
        let mut hdr28 = [0u8; crate::udp::UDPIP_HDR_LEN];
        if chain.len() < crate::udp::UDPIP_HDR_LEN {
            self.stats.ip_header_drops += 1;
            return cursor;
        }
        let _ = chain.copy_out(0, &mut hdr28);
        let Some(hdr) = crate::udp::UdpIpHeader::decode(&hdr28) else {
            self.stats.ip_header_drops += 1;
            return cursor;
        };
        let Some(sock) = self
            .udp_socks
            .iter()
            .position(|s| s.port == hdr.dport && s.laddr == hdr.dst)
        else {
            self.stats.no_pcb_drops += 1;
            return cursor;
        };
        // Copy the payload out of the chain (the UDP receive queue
        // models sockbuf mbufs by value here).
        let mut payload = vec![
            0u8;
            hdr.payload_len()
                .min(chain.len() - crate::udp::UDPIP_HDR_LEN)
        ];
        let _ = chain.copy_out(crate::udp::UDPIP_HDR_LEN, &mut payload);
        if hdr.udp_cksum != 0 {
            let sum = cksum::optimized_cksum(&payload);
            let cost = self.costs.kernel_cksum(
                decstation::ChecksumImpl::Bsd,
                payload.len() + crate::udp::UDPIP_HDR_LEN,
                chain.mbuf_count().max(1),
            );
            self.spans
                .span(SpanKind::RxTcpChecksum, cursor, cursor + cost);
            cursor += cost;
            if !hdr.udp_checksum_ok(sum) {
                self.udp_socks[sock].cksum_drops += 1;
                return cursor;
            }
        }
        let udp_cost = self.tables.udp_in;
        self.spans
            .span(SpanKind::RxTcpSegment, cursor, cursor + udp_cost);
        cursor += udp_cost;
        let s = &mut self.udp_socks[sock];
        s.rcvq.push_back((hdr.src, hdr.sport, payload));
        if s.reader_blocked {
            s.reader_blocked = false;
            let run_at = cursor + self.tables.wakeup;
            self.spans.span(SpanKind::RxWakeup, cursor, run_at);
            self.wakeups.push((sock, run_at));
        }
        cursor
    }

    /// Processes a SYN or SYN-ACK segment.
    fn handshake_input(
        &mut self,
        mut cursor: SimTime,
        chain: &Chain,
        drv: &mut dyn TxDriver,
    ) -> SimTime {
        let wire = chain.to_vec();
        // SYN checksums are always verified (the negotiation cannot
        // assume its own outcome).
        let ck_cost = self.costs.kernel_cksum(
            decstation::ChecksumImpl::Bsd,
            wire.len(),
            chain.mbuf_count().max(1),
        );
        self.spans
            .span(SpanKind::RxTcpChecksum, cursor, cursor + ck_cost);
        cursor += ck_cost;
        if !crate::options::syn_checksum_ok(&wire) {
            self.stats.tcp_cksum_drops += 1;
            return cursor;
        }
        let Some((hdr, opts, _hlen)) = crate::options::decode_with_options(&wire) else {
            self.stats.ip_header_drops += 1;
            return cursor;
        };
        let peer_mss = opts
            .iter()
            .find_map(|o| match o {
                crate::options::TcpOption::Mss(m) => Some(usize::from(*m)),
                crate::options::TcpOption::AltChecksum(_) => None,
            })
            .unwrap_or(536);
        let peer_wants_no_cksum = opts.contains(&crate::options::TcpOption::AltChecksum(
            crate::options::altck::NONE,
        ));
        let we_want_no_cksum = matches!(self.cfg.checksum, ChecksumMode::None);

        let seg_cost = self.tables.tcp_in_slow_fixed;
        self.spans
            .span(SpanKind::RxTcpSegment, cursor, cursor + seg_cost);
        cursor += seg_cost;

        if hdr.flags & crate::hdr::flags::ACK != 0 {
            // SYN-ACK: complete an active open.
            let key = PcbKey {
                laddr: hdr.dst,
                lport: hdr.dport,
                faddr: hdr.src,
                fport: hdr.sport,
            };
            let receipt = self.pcbs.lookup(&key);
            let Some(pcb_id) = receipt.id else {
                self.stats.no_pcb_drops += 1;
                return cursor;
            };
            let Some(sock) = self.sock_of(pcb_id) else {
                self.stats.no_pcb_drops += 1;
                return cursor;
            };
            self.touch(sock);
            let conn = &mut self.conns[sock];
            if conn.tcb.state != crate::tcb::TcpState::SynSent
                || hdr.ack != conn.tcb.snd_una.wrapping_add(1)
            {
                return cursor; // Stale or mismatched; a real stack RSTs.
            }
            conn.tcb.snd_una = hdr.ack;
            conn.tcb.snd_nxt = hdr.ack;
            conn.tcb.snd_max = hdr.ack;
            conn.tcb.rcv_nxt = hdr.seq.wrapping_add(1);
            conn.tcb.snd_wnd = usize::from(hdr.win);
            conn.tcb.mss = conn.tcb.mss.min(peer_mss);
            conn.tcb.state = crate::tcb::TcpState::Established;
            conn.tcb.rexmt_deadline = None;
            conn.tcb.rexmt_shift = 0;
            conn.cksum_off = peer_wants_no_cksum && we_want_no_cksum;
            // Third leg of the handshake.
            cursor = self.send_handshake_ack(cursor, sock, drv);
            cursor
        } else {
            // A bare SYN: passive open through a listener.
            if self.pcbs.lookup_wildcard(hdr.dst, hdr.dport).is_none() {
                self.stats.no_pcb_drops += 1;
                return cursor;
            }
            let key = PcbKey {
                laddr: hdr.dst,
                lport: hdr.dport,
                faddr: hdr.src,
                fport: hdr.sport,
            };
            // A retransmitted SYN for an existing embryo: resend the
            // SYN-ACK rather than spawning a duplicate.
            if let Some(id) = self.pcbs.lookup(&key).id {
                if let Some(sock) = self.sock_of(id) {
                    let c = &mut self.conns[sock];
                    c.tcb.snd_nxt = c.tcb.snd_una;
                    return self.send_syn(cursor, sock, true, drv);
                }
            }
            let id = self.pcbs.insert(key);
            let mss_offer = crate::config::tcp_mss(drv.mtu(), self.cfg.mss_one_cluster);
            let iss = self
                .cfg
                .iss
                .wrapping_add(u32::from(key.fport))
                .wrapping_add(0x9e37);
            let mut tcb = Tcb::syn_sent(key, id, mss_offer.min(peer_mss), iss, &self.cfg);
            tcb.state = crate::tcb::TcpState::SynReceived;
            tcb.rcv_nxt = hdr.seq.wrapping_add(1);
            tcb.snd_wnd = usize::from(hdr.win);
            let sock = self.push_conn(tcb, peer_wants_no_cksum && we_want_no_cksum);
            self.send_syn(cursor, sock, true, drv)
        }
    }

    /// Sends the bare ACK that completes an active open.
    fn send_handshake_ack(
        &mut self,
        mut cursor: SimTime,
        sock: SockId,
        drv: &mut dyn TxDriver,
    ) -> SimTime {
        let conn = &mut self.conns[sock];
        let rcv_space = conn.sock.rcv.space();
        let mut hdr = conn.tcb.build_ack_header(rcv_space);
        hdr.tcp_cksum = hdr.tcp_checksum_with(cksum::Sum16::ZERO);
        let mut seg = Chain::new();
        let _ = seg.prepend_header(&self.pool, &hdr.encode());
        let seg_cost = self.tables.tcp_out_segment;
        self.spans
            .span(SpanKind::TxTcpSegment, cursor, cursor + seg_cost);
        cursor += seg_cost;
        if self.taps.wants(simcap::TapPoint::TcpSend) {
            self.taps
                .record(simcap::TapPoint::TcpSend, cursor, seg.to_vec());
        }
        let ip_cost = self.tables.ip_out;
        self.spans.span(SpanKind::TxIp, cursor, cursor + ip_cost);
        cursor += ip_cost;
        drv.transmit(cursor, &seg, &mut self.spans)
    }

    /// Earliest pending timer deadline.
    #[must_use]
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        self.sync_timers();
        self.timers.first().map(|&(dl, _)| dl)
    }

    /// When to schedule a TCP-timer event for the next deadline, at
    /// `max(deadline, now)`; `None` while the outstanding one is yet to
    /// fire, no later than it. [`Kernel::check_timers`] forgets it.
    pub fn timer_event(&mut self, now: SimTime) -> Option<SimTime> {
        let dl = self.next_deadline()?;
        if self.timer_pending.is_some_and(|t| t <= dl && t > now) {
            return None;
        }
        self.timer_pending = Some(dl);
        Some(dl.max(now))
    }

    /// Sets `due` to the sockets with a deadline at or before `now`,
    /// ascending.
    fn due_socks(&mut self, now: SimTime, due: &mut Vec<SockId>) {
        self.sync_timers();
        due.clear();
        due.extend(
            self.timers
                .iter()
                .take_while(|&&(dl, _)| dl <= now)
                .map(|&(_, sock)| sock),
        );
        due.sort_unstable();
    }

    /// Queues `sock` for a timer-index resync. Every path that can move
    /// a connection's deadlines calls this for it: `tcp_output`,
    /// `send_syn`, `send_fin`, `tcp_input` after demux, the SYN-ACK
    /// branch of `handshake_input`, and `check_timers` per due socket.
    fn touch(&mut self, sock: SockId) {
        let conn = &mut self.conns[sock];
        if !conn.dirty {
            conn.dirty = true;
            self.dirty.push(sock);
        }
    }

    /// Moves each queued socket's index entry to its earliest deadline.
    fn sync_timers(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for sock in dirty.drain(..) {
            let conn = &mut self.conns[sock];
            conn.dirty = false;
            let earliest = conn.earliest_deadline();
            if earliest != conn.indexed {
                if let Some(old) = conn.indexed {
                    self.timers.remove(&(old, sock));
                }
                if let Some(new) = earliest {
                    self.timers.insert((new, sock));
                }
                conn.indexed = earliest;
            }
        }
        self.dirty = dirty;
        debug_assert!(self.timers_match_scan(), "timer index out of sync");
    }

    /// Whether the timer index holds exactly each connection's earliest
    /// deadline, by a walk over every connection (debug builds only).
    fn timers_match_scan(&self) -> bool {
        let mut armed = 0;
        for conn in &self.conns {
            if conn.indexed != conn.earliest_deadline() {
                return false;
            }
            armed += usize::from(conn.indexed.is_some());
        }
        armed == self.timers.len()
            && self
                .timers
                .iter()
                .all(|&(dl, sock)| self.conns[sock].indexed == Some(dl))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tcp_mss;

    fn pair() -> (Kernel, Kernel, SockId, SockId) {
        pair_cfg(StackConfig::default())
    }

    fn pair_cfg(cfg: StackConfig) -> (Kernel, Kernel, SockId, SockId) {
        let costs = CostModel::calibrated();
        let mut a = Kernel::new(cfg, costs.clone());
        let mut b = Kernel::new(cfg, costs);
        let key = PcbKey {
            laddr: [10, 0, 0, 1],
            lport: 1055,
            faddr: [10, 0, 0, 2],
            fport: 4242,
        };
        let mss = tcp_mss(9188, cfg.mss_one_cluster);
        let (sa, sb) = Kernel::connect_pair(&mut a, &mut b, key, mss);
        (a, b, sa, sb)
    }

    /// A connected pair over ports 1 and 2 with a 4096-byte MSS.
    fn small_pair(cfg: StackConfig) -> (Kernel, Kernel, SockId, SockId) {
        let costs = CostModel::calibrated();
        let mut a = Kernel::new(cfg, costs.clone());
        let mut b = Kernel::new(cfg, costs);
        let key = PcbKey {
            laddr: [10, 0, 0, 1],
            lport: 1,
            faddr: [10, 0, 0, 2],
            fport: 2,
        };
        let (sa, sb) = Kernel::connect_pair(&mut a, &mut b, key, 4096);
        (a, b, sa, sb)
    }

    /// Carries every packet captured on one side into the other
    /// kernel, round-robin, until both sides quiesce. Returns data
    /// read by each side.
    fn pump(
        a: &mut Kernel,
        b: &mut Kernel,
        sa: SockId,
        sb: SockId,
        da: &mut CaptureDriver,
        db: &mut CaptureDriver,
    ) {
        let mut t = SimTime::from_ms(1);
        for _ in 0..64 {
            let pkts: Vec<_> = da.packets.drain(..).collect();
            for p in pkts {
                let (chain, _) = Chain::from_user_data(&b.pool, &p, p.len() > 1024);
                if let Some(at) = b.enqueue_ip(t, chain) {
                    let _ = b.ipintr(at, db);
                }
                t += SimTime::from_ms(1);
            }
            let pkts: Vec<_> = db.packets.drain(..).collect();
            for p in pkts {
                let (chain, _) = Chain::from_user_data(&a.pool, &p, p.len() > 1024);
                if let Some(at) = a.enqueue_ip(t, chain) {
                    let _ = a.ipintr(at, da);
                }
                t += SimTime::from_ms(1);
            }
            if da.packets.is_empty() && db.packets.is_empty() {
                break;
            }
        }
        let _ = (sa, sb);
    }

    /// `retime_ipq`'s floor gives every datagram the IPQ span that
    /// moving each queued enqueue time at the retime would, over
    /// random enqueue/retime/softintr sequences.
    #[test]
    fn ipq_floor_matches_retiming_every_queued_datagram() {
        for seed in 0..50 {
            let mut rng = simkit::SimRng::seed_from(seed);
            let mut k = Kernel::new(StackConfig::default(), CostModel::calibrated());
            k.spans.enabled = true;
            let mut drv = CaptureDriver::new(9188);
            // The walk the floor replaces: each queued enqueue time,
            // and the earliest instant the softintr may start.
            let mut queued: Vec<SimTime> = Vec::new();
            let mut ready = SimTime::ZERO;
            let dispatch = k.tables.softintr_dispatch;
            let mut softintr_at = None;
            let mut now = SimTime::ZERO;
            for _ in 0..200 {
                now += SimTime::from_us(u64::from(rng.next_below(40)));
                match rng.next_below(3) {
                    0 => {
                        // Shorter than any IP header: dropped after
                        // its IPQ and IP spans.
                        let (chain, _) = Chain::from_user_data(&k.pool, &[0; 20], false);
                        let raised = k.enqueue_ip(now, chain);
                        assert_eq!(raised.is_some(), softintr_at.is_none());
                        softintr_at = softintr_at.or(raised);
                        queued.push(now);
                        ready = ready.max(now + dispatch);
                    }
                    1 => {
                        k.retime_ipq(now);
                        queued.iter_mut().for_each(|e| *e = (*e).max(now));
                        ready = ready.max(now + dispatch);
                    }
                    _ => {
                        let Some(at) = softintr_at.take() else {
                            continue;
                        };
                        let seen = k.spans.spans().len();
                        let start = now.max(at).max(k.cpu.busy_until()).max(ready);
                        now = k.ipintr(now.max(at), &mut drv);
                        let new = &k.spans.spans()[seen..];
                        let first_ip = new.iter().find(|s| s.kind == SpanKind::RxIp);
                        assert_eq!(first_ip.map(|s| s.start), Some(start), "seed {seed}");
                        let got: Vec<_> = new
                            .iter()
                            .filter(|s| s.kind == SpanKind::RxIpq)
                            .map(|s| (s.start, s.end))
                            .collect();
                        let want: Vec<_> = queued.drain(..).map(|e| (e, start.max(e))).collect();
                        assert_eq!(got, want, "seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn write_emits_correct_segments() {
        let (mut a, _b, sa, _sb) = pair();
        let mut drv = CaptureDriver::new(9188);
        let data: Vec<u8> = (0..8000).map(|i| (i % 251) as u8).collect();
        let out = a.syscall_write(SimTime::ZERO, sa, &data, &mut drv);
        assert!(!out.blocked);
        assert_eq!(out.accepted, 8000);
        // MSS 4096: exactly two segments, as the paper observed.
        assert_eq!(drv.packets.len(), 2);
        assert_eq!(drv.packets[0].len(), 40 + 4096);
        assert_eq!(drv.packets[1].len(), 40 + 3904);
        // Headers decode and carry consecutive sequence numbers.
        let h0 = TcpIpHeader::decode(&drv.packets[0]).unwrap();
        let h1 = TcpIpHeader::decode(&drv.packets[1]).unwrap();
        assert_eq!(h1.seq, h0.seq.wrapping_add(4096));
        // Payload bytes survived the socket layer and segmentation.
        assert_eq!(&drv.packets[0][40..], &data[..4096]);
        assert_eq!(&drv.packets[1][40..], &data[4096..]);
    }

    #[test]
    fn end_to_end_data_transfer_verifies() {
        let (mut a, mut b, sa, sb) = pair();
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        let data: Vec<u8> = (0..5000).map(|i| (i % 241) as u8).collect();
        let _ = a.syscall_write(SimTime::ZERO, sa, &data, &mut da);
        pump(&mut a, &mut b, sa, sb, &mut da, &mut db);
        assert_eq!(b.rcv_buffered(sb), 5000);
        let mut got_buf = Vec::new();
        let got = b.syscall_read(SimTime::from_ms(100), sb, 5000, &mut got_buf, &mut db);
        assert!(!got.blocked);
        assert_eq!(got_buf, data, "payload integrity end to end");
    }

    #[test]
    fn checksum_verifies_and_acks_flow_back() {
        let (mut a, mut b, sa, sb) = pair();
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        let data = vec![0x42u8; 500];
        let _ = a.syscall_write(SimTime::ZERO, sa, &data, &mut da);
        pump(&mut a, &mut b, sa, sb, &mut da, &mut db);
        assert_eq!(b.stats.tcp_cksum_drops, 0);
        // The sender's buffer drains once the (delayed or immediate)
        // ACK returns; force the delayed ACK.
        let mut t = SimTime::from_secs(1);
        if let Some(_dl) = b.next_deadline() {
            let _ = b.check_timers(t, &mut db);
            t += SimTime::from_ms(1);
        }
        let pkts: Vec<_> = db.packets.drain(..).collect();
        for p in pkts {
            let (chain, _) = Chain::from_user_data(&a.pool, &p, false);
            if let Some(at) = a.enqueue_ip(t, chain) {
                let _ = a.ipintr(at, &mut da);
            }
        }
        assert_eq!(a.snd_buffered(sa), 0, "ACK freed the send buffer");
    }

    #[test]
    fn corrupted_segment_dropped_by_tcp_checksum() {
        let (mut a, mut b, sa, _sb) = pair();
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        let _ = a.syscall_write(SimTime::ZERO, sa, &[7u8; 200], &mut da);
        let mut pkt = da.packets.remove(0);
        pkt[100] ^= 0x01; // Corrupt the payload.
        let (chain, _) = Chain::from_user_data(&b.pool, &pkt, false);
        let at = b.enqueue_ip(SimTime::from_ms(1), chain).unwrap();
        let _ = b.ipintr(at, &mut db);
        assert_eq!(b.stats.tcp_cksum_drops, 1);
        assert_eq!(b.rcv_buffered(0), 0);
    }

    #[test]
    fn checksum_none_mode_skips_verification() {
        let (mut a, mut b, sa, sb) = small_pair(StackConfig {
            checksum: ChecksumMode::None,
            ..StackConfig::default()
        });
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        let _ = a.syscall_write(SimTime::ZERO, sa, &vec![9u8; 300], &mut da);
        // Corrupt: without the TCP checksum this is NOT caught (the
        // AAL CRC would have caught it on a real link; the capture
        // driver models the §4.2.1 "error injected past the CRC").
        let mut pkt = da.packets.remove(0);
        pkt[200] ^= 0x80;
        let (chain, _) = Chain::from_user_data(&b.pool, &pkt, false);
        let at = b.enqueue_ip(SimTime::from_ms(1), chain).unwrap();
        let _ = b.ipintr(at, &mut db);
        assert_eq!(b.stats.tcp_cksum_drops, 0);
        assert_eq!(b.rcv_buffered(sb), 300, "corruption delivered undetected");
    }

    #[test]
    fn reader_blocks_then_wakes() {
        let (mut a, mut b, sa, sb) = pair();
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        let r = b.syscall_read(SimTime::ZERO, sb, 100, &mut Vec::new(), &mut db);
        assert!(r.blocked);
        assert!(b.reader_blocked(sb));
        let _ = a.syscall_write(SimTime::ZERO, sa, &[1u8; 100], &mut da);
        let pkt = da.packets.remove(0);
        let (chain, _) = Chain::from_user_data(&b.pool, &pkt, false);
        let at = b.enqueue_ip(SimTime::from_ms(1), chain).unwrap();
        let done = b.ipintr(at, &mut db);
        let wakeups: Vec<_> = b.drain_wakeups().collect();
        assert_eq!(wakeups.len(), 1);
        let (wsock, run_at) = wakeups[0];
        assert_eq!(wsock, sb);
        assert!(run_at >= done);
        let mut r = Vec::new();
        let _ = b.syscall_read(run_at, sb, 100, &mut r, &mut db);
        assert_eq!(r, vec![1u8; 100]);
    }

    #[test]
    fn rto_retransmits_lost_segment() {
        let (mut a, mut b, sa, _sb) = pair();
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        let _ = a.syscall_write(SimTime::ZERO, sa, &vec![5u8; 700], &mut da);
        assert_eq!(da.packets.len(), 1);
        da.packets.clear(); // The network "loses" it.
        let dl = a.next_deadline().expect("rexmt armed");
        let _ = a.check_timers(dl + SimTime::from_us(1), &mut da);
        assert_eq!(da.packets.len(), 1, "retransmitted");
        assert_eq!(a.stats.rto_fires, 1);
        // The retransmission is byte-identical payload.
        let (chain, _) = Chain::from_user_data(&b.pool, &da.packets[0], false);
        let at = b.enqueue_ip(SimTime::from_secs(2), chain).unwrap();
        let _ = b.ipintr(at, &mut db);
        assert_eq!(b.rcv_buffered(0), 700);
    }

    #[test]
    fn rto_backoff_doubles_per_fire_until_acked() {
        let (mut a, _b, sa, _sb) = pair();
        let cfg = a.cfg;
        let mut da = CaptureDriver::new(9188);
        let _ = a.syscall_write(SimTime::ZERO, sa, &[5u8; 700], &mut da);
        da.packets.clear(); // The network keeps losing everything.
        for fire in 1..=4u32 {
            let dl = a.next_deadline().expect("rexmt armed");
            let _ = a.check_timers(dl + SimTime::from_us(1), &mut da);
            assert_eq!(da.packets.len(), 1, "one retransmission per fire");
            da.packets.clear();
            assert_eq!(a.tcb(sa).rexmt_shift, fire, "backoff shift grows");
            assert_eq!(
                a.tcb(sa).rto(&cfg),
                SimTime::from_us(cfg.rto_min_us) * (1u64 << fire),
                "RTO doubles per fire"
            );
            assert_eq!(
                a.tcb(sa).rexmt_recover,
                Some(a.tcb(sa).snd_max),
                "Karn recovery point pinned"
            );
        }
        assert_eq!(a.stats.rto_fires, 4);
        assert_eq!(a.stats.conn_aborts, 0, "well short of the limit");
    }

    #[test]
    fn retransmit_limit_aborts_instead_of_hanging() {
        // A tight limit keeps the test fast; the mechanism is the same
        // at the default 12.
        let cfg = StackConfig {
            max_rexmt_shift: 3,
            ..StackConfig::default()
        };
        let (mut a, _b, sa, _sb) = pair_cfg(cfg);
        let mut da = CaptureDriver::new(9188);
        let _ = a.syscall_write(SimTime::ZERO, sa, &[9u8; 300], &mut da);
        da.packets.clear();
        // The application now waits for a response that will never
        // come; the abort must wake it rather than hang it.
        let r = a.syscall_read(SimTime::ZERO, sa, 100, &mut Vec::new(), &mut da);
        assert!(r.blocked);
        // Every retransmission is also lost; the timer escalates to
        // the abort in a bounded number of fires.
        let mut fires = 0;
        while let Some(dl) = a.next_deadline() {
            let _ = a.check_timers(dl + SimTime::from_us(1), &mut da);
            da.packets.clear();
            fires += 1;
            assert!(fires < 16, "timer processing must terminate");
            if a.so_error(sa).is_some() {
                break;
            }
        }
        assert_eq!(a.stats.rto_fires, 3, "one fire per shift up to the limit");
        assert_eq!(a.stats.conn_aborts, 1);
        assert_eq!(a.so_error(sa), Some(crate::tcb::ConnError::TimedOut));
        assert!(a.is_closed(sa), "PCB reclaimed");
        assert_eq!(a.next_deadline(), None, "no timers survive the abort");
        // The blocked reader was woken to observe the error.
        let wakeups: Vec<_> = a.drain_timer_wakeups().collect();
        assert_eq!(wakeups.len(), 1);
        assert_eq!(wakeups[0].0, sa);
        let r = a.syscall_read(wakeups[0].1, sa, 100, &mut Vec::new(), &mut da);
        assert!(!r.blocked, "reader returns instead of sleeping forever");
        assert_eq!(r.error, Some(crate::tcb::ConnError::TimedOut));
        // Writes fail the same way.
        let w = a.syscall_write(wakeups[0].1, sa, &[1u8; 10], &mut da);
        assert_eq!(w.error, Some(crate::tcb::ConnError::TimedOut));
        assert_eq!(w.accepted, 0);
    }

    #[test]
    fn fast_retransmit_recovers_leading_burst_drop() {
        let (mut a, mut b, sa, sb) = pair();
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        let data: Vec<u8> = (0..16_000).map(|i| (i % 239) as u8).collect();
        let w = a.syscall_write(SimTime::ZERO, sa, &data, &mut da);
        assert_eq!(w.accepted, 16_000);
        assert_eq!(da.packets.len(), 4, "four MSS segments in flight");
        // A burst at the head of the train: the first segment's cells
        // are lost; the following three arrive out of order.
        let mut t = SimTime::from_ms(1);
        let pkts: Vec<_> = da.packets.drain(..).collect();
        for p in &pkts[1..] {
            let (chain, _) = Chain::from_user_data(&b.pool, p, p.len() > 1024);
            if let Some(at) = b.enqueue_ip(t, chain) {
                let _ = b.ipintr(at, &mut db);
            }
            t += SimTime::from_ms(1);
        }
        assert_eq!(b.tcb(sb).stats.ooo_segments, 3, "gap queued out of order");
        let dups: Vec<_> = db.packets.drain(..).collect();
        assert!(dups.len() >= 3, "each gap arrival forced a duplicate ACK");
        for p in dups {
            let (chain, _) = Chain::from_user_data(&a.pool, &p, false);
            if let Some(at) = a.enqueue_ip(t, chain) {
                let _ = a.ipintr(at, &mut da);
            }
            t += SimTime::from_ms(1);
        }
        assert!(
            a.tcb(sa).stats.rexmits >= 1,
            "third duplicate ACK triggered fast retransmit"
        );
        assert_eq!(a.stats.rto_fires, 0, "recovery did not wait for the timer");
        // The retransmission fills the gap; everything delivers.
        pump(&mut a, &mut b, sa, sb, &mut da, &mut db);
        let mut got = Vec::new();
        let _ = b.syscall_read(t + SimTime::from_ms(5), sb, 16_000, &mut got, &mut db);
        assert_eq!(got, data, "payload intact after burst recovery");
    }

    #[test]
    fn rpc_exchange_defeats_header_prediction() {
        let (mut a, mut b, sa, sb) = pair();
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        // Three ping-pong rounds of 200 bytes.
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            let _ = a.syscall_write(t, sa, &[3u8; 200], &mut da);
            let pkts: Vec<_> = da.packets.drain(..).collect();
            for p in pkts {
                let (chain, _) = Chain::from_user_data(&b.pool, &p, false);
                if let Some(at) = b.enqueue_ip(t + SimTime::from_us(100), chain) {
                    let _ = b.ipintr(at, &mut db);
                }
            }
            t += SimTime::from_ms(1);
            let _ = b.syscall_read(t, sb, 200, &mut Vec::new(), &mut db);
            let _ = b.syscall_write(t, sb, &[4u8; 200], &mut db);
            let pkts: Vec<_> = db.packets.drain(..).collect();
            for p in pkts {
                let (chain, _) = Chain::from_user_data(&a.pool, &p, false);
                if let Some(at) = a.enqueue_ip(t + SimTime::from_us(100), chain) {
                    let _ = a.ipintr(at, &mut da);
                }
            }
            let _ = a.syscall_read(t + SimTime::from_ms(1), sa, 200, &mut Vec::new(), &mut da);
            t += SimTime::from_ms(10);
        }
        // §3: the piggybacked-ACK round trip does not take the fast
        // path in steady state. (The very first request of the
        // conversation is pure data — nothing to acknowledge yet — so
        // it legitimately predicts; every later one fails.)
        let tb = b.tcb(sb);
        assert!(tb.stats.predict_checks >= 3);
        assert!(
            tb.stats.predict_data_hits <= 1,
            "{}",
            tb.stats.predict_data_hits
        );
        let ta = a.tcb(sa);
        assert_eq!(ta.stats.predict_data_hits, 0, "responses always piggyback");
    }

    /// Shuttles all captured packets from one kernel to the other.
    fn shuttle(from: &mut CaptureDriver, to: &mut Kernel, to_drv: &mut CaptureDriver, t: SimTime) {
        let pkts: Vec<_> = from.packets.drain(..).collect();
        for p in pkts {
            let (chain, _) = Chain::from_user_data(&to.pool, &p, p.len() > 1024);
            if let Some(at) = to.enqueue_ip(t, chain) {
                let _ = to.ipintr(at, to_drv);
            }
        }
    }

    #[test]
    fn udp_roundtrip_with_checksum() {
        let cfg = StackConfig::default();
        let costs = CostModel::calibrated();
        let mut a = Kernel::new(cfg, costs.clone());
        let mut b = Kernel::new(cfg, costs);
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        let ua = a.udp_bind([10, 0, 0, 1], 700, true);
        let ub = b.udp_bind([10, 0, 0, 2], 2049, true);
        let data: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        let _ = a.udp_sendto(SimTime::ZERO, ua, [10, 0, 0, 2], 2049, &data, &mut da);
        assert_eq!(da.packets.len(), 1, "one datagram, no segmentation");
        shuttle(&mut da, &mut b, &mut db, SimTime::from_ms(1));
        let mut r_buf = Vec::new();
        let r = b.udp_recvfrom(SimTime::from_ms(2), ub, &mut r_buf);
        assert!(!r.blocked);
        assert_eq!(r_buf, data);
        assert_eq!(b.udp_cksum_drops(ub), 0);
    }

    #[test]
    fn udp_checksum_catches_corruption_only_when_enabled() {
        let cfg = StackConfig::default();
        let costs = CostModel::calibrated();
        let mut a = Kernel::new(cfg, costs.clone());
        let mut b = Kernel::new(cfg, costs);
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        // Socket 0: checksummed; socket 1: NFS-style, checksum off.
        let with = a.udp_bind([10, 0, 0, 1], 700, true);
        let without = a.udp_bind([10, 0, 0, 1], 701, false);
        let rb_with = b.udp_bind([10, 0, 0, 2], 800, true);
        let rb_without = b.udp_bind([10, 0, 0, 2], 801, false);
        for (src_sock, dport) in [(with, 800u16), (without, 801)] {
            let _ = a.udp_sendto(
                SimTime::ZERO,
                src_sock,
                [10, 0, 0, 2],
                dport,
                &[7u8; 200],
                &mut da,
            );
            let mut pkt = da.packets.remove(0);
            pkt[100] ^= 0x10; // Corrupt the payload.
            let (chain, _) = Chain::from_user_data(&b.pool, &pkt, false);
            if let Some(at) = b.enqueue_ip(SimTime::from_ms(1), chain) {
                let _ = b.ipintr(at, &mut db);
            }
        }
        // Checksummed socket: dropped. Checksum-off socket: delivered
        // corrupted — the §4.2 trade, demonstrated on UDP.
        let r1 = b.udp_recvfrom(SimTime::from_ms(5), rb_with, &mut Vec::new());
        assert!(r1.blocked, "corrupted datagram was dropped");
        assert_eq!(b.udp_cksum_drops(rb_with), 1);
        let mut r2_buf = Vec::new();
        let r2 = b.udp_recvfrom(SimTime::from_ms(5), rb_without, &mut r2_buf);
        assert!(!r2.blocked);
        assert_ne!(r2_buf, vec![7u8; 200], "corruption delivered silently");
    }

    #[test]
    fn udp_reader_blocks_and_wakes() {
        let cfg = StackConfig::default();
        let costs = CostModel::calibrated();
        let mut a = Kernel::new(cfg, costs.clone());
        let mut b = Kernel::new(cfg, costs);
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        let ua = a.udp_bind([10, 0, 0, 1], 700, true);
        let ub = b.udp_bind([10, 0, 0, 2], 800, true);
        let r = b.udp_recvfrom(SimTime::ZERO, ub, &mut Vec::new());
        assert!(r.blocked);
        let _ = a.udp_sendto(SimTime::ZERO, ua, [10, 0, 0, 2], 800, &[1u8; 50], &mut da);
        let pkt = da.packets.remove(0);
        let (chain, _) = Chain::from_user_data(&b.pool, &pkt, false);
        let at = b.enqueue_ip(SimTime::from_ms(1), chain).unwrap();
        let _ = b.ipintr(at, &mut db);
        let wakeups: Vec<_> = b.drain_wakeups().collect();
        assert_eq!(wakeups.len(), 1, "blocked UDP reader woken");
        let mut r = Vec::new();
        let _ = b.udp_recvfrom(wakeups[0].1, ub, &mut r);
        assert_eq!(r, vec![1u8; 50]);
    }

    #[test]
    fn three_way_handshake_establishes() {
        let cfg = StackConfig::default();
        let costs = CostModel::calibrated();
        let mut client = Kernel::new(cfg, costs.clone());
        let mut server = Kernel::new(cfg, costs);
        let mut dc = CaptureDriver::new(9188);
        let mut ds = CaptureDriver::new(9188);

        let ls = server.listen([10, 0, 0, 2], 4242);
        let key = PcbKey {
            laddr: [10, 0, 0, 1],
            lport: 2000,
            faddr: [10, 0, 0, 2],
            fport: 4242,
        };
        let sc = client.connect(SimTime::ZERO, key, &mut dc);
        assert!(!client.is_established(sc));
        assert_eq!(dc.packets.len(), 1, "SYN sent");
        // SYN -> server spawns an embryo and answers SYN-ACK.
        shuttle(&mut dc, &mut server, &mut ds, SimTime::from_ms(1));
        assert_eq!(ds.packets.len(), 1, "SYN-ACK sent");
        // SYN-ACK -> client establishes and sends the final ACK.
        shuttle(&mut ds, &mut client, &mut dc, SimTime::from_ms(2));
        assert!(client.is_established(sc));
        assert_eq!(dc.packets.len(), 1, "final ACK");
        // ACK -> server establishes.
        shuttle(&mut dc, &mut server, &mut ds, SimTime::from_ms(3));
        let srv_sock = 1; // The listener is 0; the spawned conn is 1.
        assert!(server.is_established(srv_sock));
        let _ = ls;

        // MSS was negotiated to the ATM/page value on both sides.
        assert_eq!(client.tcb(sc).mss, 4096);
        assert_eq!(server.tcb(srv_sock).mss, 4096);

        // Data now flows over the negotiated connection.
        let data: Vec<u8> = (0..5000).map(|i| (i % 247) as u8).collect();
        let _ = client.syscall_write(SimTime::from_ms(4), sc, &data, &mut dc);
        shuttle(&mut dc, &mut server, &mut ds, SimTime::from_ms(5));
        let mut r = Vec::new();
        let _ = server.syscall_read(SimTime::from_ms(6), srv_sock, 5000, &mut r, &mut ds);
        assert_eq!(r, data);
    }

    #[test]
    fn alternate_checksum_negotiation() {
        // Both ends configured for elimination: the option is carried
        // in both SYNs and the connection runs without checksums.
        let cfg = StackConfig {
            checksum: ChecksumMode::None,
            ..StackConfig::default()
        };
        let costs = CostModel::calibrated();
        let mut client = Kernel::new(cfg, costs.clone());
        let mut server = Kernel::new(cfg, costs);
        let mut dc = CaptureDriver::new(9188);
        let mut ds = CaptureDriver::new(9188);
        let _ls = server.listen([10, 0, 0, 2], 4242);
        let key = PcbKey {
            laddr: [10, 0, 0, 1],
            lport: 2001,
            faddr: [10, 0, 0, 2],
            fport: 4242,
        };
        let sc = client.connect(SimTime::ZERO, key, &mut dc);
        // The SYN itself is still checksummed and carries the option.
        let syn = dc.packets[0].clone();
        assert!(crate::options::syn_checksum_ok(&syn));
        let (_, opts, _) = crate::options::decode_with_options(&syn).unwrap();
        assert!(opts.contains(&crate::options::TcpOption::AltChecksum(
            crate::options::altck::NONE
        )));
        shuttle(&mut dc, &mut server, &mut ds, SimTime::from_ms(1));
        shuttle(&mut ds, &mut client, &mut dc, SimTime::from_ms(2));
        shuttle(&mut dc, &mut server, &mut ds, SimTime::from_ms(3));
        assert!(client.is_established(sc));
        assert!(client.cksum_eliminated(sc));
        assert!(server.cksum_eliminated(1));
        // Data segments go out with a zero checksum field.
        let _ = client.syscall_write(SimTime::from_ms(4), sc, &[9u8; 100], &mut dc);
        let seg = &dc.packets[0];
        assert_eq!(u16::from_be_bytes([seg[36], seg[37]]), 0);
    }

    #[test]
    fn asymmetric_checksum_request_is_refused() {
        // Client asks for elimination; server does not: the checksum
        // stays on.
        let ccfg = StackConfig {
            checksum: ChecksumMode::None,
            ..StackConfig::default()
        };
        let scfg = StackConfig::default();
        let costs = CostModel::calibrated();
        let mut client = Kernel::new(ccfg, costs.clone());
        let mut server = Kernel::new(scfg, costs);
        let mut dc = CaptureDriver::new(9188);
        let mut ds = CaptureDriver::new(9188);
        let _ls = server.listen([10, 0, 0, 2], 4242);
        let key = PcbKey {
            laddr: [10, 0, 0, 1],
            lport: 2002,
            faddr: [10, 0, 0, 2],
            fport: 4242,
        };
        let sc = client.connect(SimTime::ZERO, key, &mut dc);
        shuttle(&mut dc, &mut server, &mut ds, SimTime::from_ms(1));
        shuttle(&mut ds, &mut client, &mut dc, SimTime::from_ms(2));
        shuttle(&mut dc, &mut server, &mut ds, SimTime::from_ms(3));
        assert!(client.is_established(sc));
        assert!(
            !client.cksum_eliminated(sc),
            "one-sided request must not stick"
        );
        assert!(!server.cksum_eliminated(1));
    }

    #[test]
    fn full_lifecycle_open_transfer_close() {
        use crate::tcb::TcpState;
        let cfg = StackConfig::default();
        let costs = CostModel::calibrated();
        let mut client = Kernel::new(cfg, costs.clone());
        let mut server = Kernel::new(cfg, costs);
        let mut dc = CaptureDriver::new(9188);
        let mut ds = CaptureDriver::new(9188);
        let _ls = server.listen([10, 0, 0, 2], 4242);
        let key = PcbKey {
            laddr: [10, 0, 0, 1],
            lport: 3000,
            faddr: [10, 0, 0, 2],
            fport: 4242,
        };
        // Open.
        let sc = client.connect(SimTime::ZERO, key, &mut dc);
        shuttle(&mut dc, &mut server, &mut ds, SimTime::from_ms(1));
        shuttle(&mut ds, &mut client, &mut dc, SimTime::from_ms(2));
        shuttle(&mut dc, &mut server, &mut ds, SimTime::from_ms(3));
        let ss = 1;
        assert!(client.is_established(sc) && server.is_established(ss));
        let pcbs_before = server.pcbs.len();

        // Transfer.
        let data = vec![0x3cu8; 700];
        let _ = client.syscall_write(SimTime::from_ms(4), sc, &data, &mut dc);
        shuttle(&mut dc, &mut server, &mut ds, SimTime::from_ms(5));
        let mut r = Vec::new();
        let _ = server.syscall_read(SimTime::from_ms(6), ss, 700, &mut r, &mut ds);
        assert_eq!(r, data);
        // Let the delayed ACK drain so the client's buffer empties.
        let t = SimTime::from_secs(1);
        let _ = server.check_timers(t, &mut ds);
        shuttle(&mut ds, &mut client, &mut dc, t + SimTime::from_ms(1));
        assert_eq!(client.snd_buffered(sc), 0);

        // Active close from the client.
        let t = SimTime::from_secs(2);
        client.close(t, sc, &mut dc);
        assert_eq!(client.tcb(sc).state, TcpState::FinWait1);
        shuttle(&mut dc, &mut server, &mut ds, t + SimTime::from_ms(1));
        assert_eq!(server.tcb(ss).state, TcpState::CloseWait);
        // The server's ACK of the FIN moves the client to FinWait2.
        shuttle(&mut ds, &mut client, &mut dc, t + SimTime::from_ms(2));
        assert_eq!(client.tcb(sc).state, TcpState::FinWait2);
        // Server closes too.
        server.close(t + SimTime::from_ms(3), ss, &mut ds);
        assert_eq!(server.tcb(ss).state, TcpState::LastAck);
        shuttle(&mut ds, &mut client, &mut dc, t + SimTime::from_ms(4));
        assert_eq!(client.tcb(sc).state, TcpState::TimeWait);
        // The client's final ACK releases the server immediately.
        shuttle(&mut dc, &mut server, &mut ds, t + SimTime::from_ms(5));
        assert!(server.is_closed(ss));
        assert_eq!(server.pcbs.len(), pcbs_before - 1, "server PCB reclaimed");
        // The client leaves TIME-WAIT when 2MSL expires.
        let dl = client.next_deadline().expect("time-wait armed");
        let _ = client.check_timers(dl + SimTime::from_us(1), &mut dc);
        assert!(client.is_closed(sc));
    }

    #[test]
    fn persist_probe_survives_lost_window_update() {
        // Fill the receiver's window completely, lose the window
        // update, and check the zero-window probe recovers.
        let (mut a, mut b, sa, sb) = small_pair(StackConfig {
            sockbuf: 8192, // Small windows make this quick.
            ..StackConfig::default()
        });
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        // 10000 bytes into an 8192-byte window: the tail stalls.
        let data: Vec<u8> = (0..10_000).map(|i| (i % 241) as u8).collect();
        let mut written = 0;
        let out = a.syscall_write(SimTime::ZERO, sa, &data, &mut da);
        written += out.accepted;
        shuttle(&mut da, &mut b, &mut db, SimTime::from_ms(1));
        // b's receive buffer is full; its ACKs advertise win 0. Let
        // the delayed ACK fire and deliver it.
        let mut t = SimTime::from_secs(1);
        let _ = b.check_timers(t, &mut db);
        shuttle(&mut db, &mut a, &mut da, t);
        assert_eq!(a.tcb(sa).snd_wnd, 0, "peer window closed");
        // a accepts the remaining bytes into its buffer now.
        if written < data.len() {
            let out = a.syscall_write(t, sa, &data[written..], &mut da);
            written += out.accepted;
        }
        assert_eq!(written, data.len());
        assert!(a.tcb(sa).persist_deadline.is_some(), "persist armed");
        // b's app drains everything; the window update is LOST.
        let mut r = Vec::new();
        let _ = b.syscall_read(t, sb, 8192, &mut r, &mut db);
        assert_eq!(r.len(), 8192);
        db.packets.clear(); // The lost window update.
                            // The persist timer fires and probes; b now advertises an
                            // open window and the transfer completes.
        for _ in 0..8 {
            t += SimTime::from_secs(1);
            let _ = a.check_timers(t, &mut da);
            shuttle(&mut da, &mut b, &mut db, t);
            let _ = b.check_timers(t, &mut db);
            shuttle(&mut db, &mut a, &mut da, t);
            if b.rcv_buffered(sb) >= data.len() - 8192 {
                break;
            }
        }
        let mut r = Vec::new();
        let _ = b.syscall_read(t + SimTime::from_ms(1), sb, 10_000, &mut r, &mut db);
        assert_eq!(r, data[8192..].to_vec(), "tail delivered after probe");
    }

    #[test]
    fn lost_fin_is_retransmitted() {
        use crate::tcb::TcpState;
        let (mut a, _b, sa, _sb) = pair();
        let mut da = CaptureDriver::new(9188);
        a.close(SimTime::ZERO, sa, &mut da);
        assert_eq!(a.tcb(sa).state, TcpState::FinWait1);
        da.packets.clear(); // FIN lost.
        let dl = a.next_deadline().expect("FIN rexmt armed");
        let _ = a.check_timers(dl + SimTime::from_us(1), &mut da);
        assert_eq!(da.packets.len(), 1, "FIN retransmitted");
        let hdr = TcpIpHeader::decode(&da.packets[0][..40]).unwrap();
        assert!(hdr.flags & crate::hdr::flags::FIN != 0);
    }

    #[test]
    fn lost_syn_is_retransmitted() {
        let cfg = StackConfig::default();
        let costs = CostModel::calibrated();
        let mut client = Kernel::new(cfg, costs);
        let mut dc = CaptureDriver::new(9188);
        let key = PcbKey {
            laddr: [10, 0, 0, 1],
            lport: 2003,
            faddr: [10, 0, 0, 2],
            fport: 4242,
        };
        let sc = client.connect(SimTime::ZERO, key, &mut dc);
        dc.packets.clear(); // The network loses the SYN.
        let dl = client.next_deadline().expect("handshake timer armed");
        let _ = client.check_timers(dl + SimTime::from_us(1), &mut dc);
        assert_eq!(dc.packets.len(), 1, "SYN retransmitted");
        assert!(!client.is_established(sc));
        assert_eq!(client.stats.rto_fires, 1);
        // Backoff doubles the next deadline.
        assert!(client.next_deadline().unwrap() > dl + SimTime::from_ms(500));
    }

    #[test]
    fn spans_recorded_when_enabled() {
        let (mut a, _b, sa, _sb) = pair();
        a.spans.enabled = true;
        let mut da = CaptureDriver::new(9188);
        let _ = a.syscall_write(SimTime::ZERO, sa, &vec![1u8; 500], &mut da);
        let kinds: Vec<_> = a.spans.spans().iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SpanKind::TxUser));
        assert!(kinds.contains(&SpanKind::TxTcpChecksum));
        assert!(kinds.contains(&SpanKind::TxTcpMcopy));
        assert!(kinds.contains(&SpanKind::TxTcpSegment));
        assert!(kinds.contains(&SpanKind::TxIp));
        // Spans are contiguous and ordered.
        for w in a.spans.spans().windows(2) {
            assert!(w[1].start >= w[0].start);
        }
    }

    #[test]
    fn integrated_mode_roundtrip() {
        let (mut a, mut b, sa, sb) = small_pair(StackConfig {
            checksum: ChecksumMode::Integrated,
            ..StackConfig::default()
        });
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        let data: Vec<u8> = (0..8000).map(|i| (i % 239) as u8).collect();
        let _ = a.syscall_write(SimTime::ZERO, sa, &data, &mut da);
        assert_eq!(da.packets.len(), 2);
        // Receive side: the driver normally stores partials during
        // its copy; emulate that before enqueueing.
        let mut t = SimTime::from_ms(1);
        let pkts: Vec<_> = da.packets.drain(..).collect();
        for p in pkts {
            let (mut chain, _) = Chain::from_user_data(&b.pool, &p, p.len() > 1024);
            chain.store_partial_checksums();
            if let Some(at) = b.enqueue_ip(t, chain) {
                let _ = b.ipintr(at, &mut db);
            }
            t += SimTime::from_ms(1);
        }
        assert_eq!(b.stats.tcp_cksum_drops, 0);
        let mut r = Vec::new();
        let _ = b.syscall_read(t, sb, 8000, &mut r, &mut db);
        assert_eq!(r, data);
    }

    /// Every deadline a connection holds, read straight from its
    /// fields: the reference the timer index must match.
    fn deadlines(c: &Conn) -> impl Iterator<Item = SimTime> {
        [
            c.delack_deadline,
            c.tcb.rexmt_deadline,
            c.tcb.persist_deadline,
            c.time_wait_deadline,
        ]
        .into_iter()
        .flatten()
    }

    /// Checks `k`'s timer index against a walk over every connection:
    /// the next deadline, every indexed entry, and the due sockets at
    /// `now`, at the next deadline, and when every armed socket is due.
    fn assert_index_matches_scan(k: &mut Kernel, now: SimTime) {
        let next = k.conns.iter().flat_map(deadlines).min();
        assert_eq!(k.next_deadline(), next, "next deadline");
        let earliest: BTreeSet<(SimTime, SockId)> = (0..k.conns.len())
            .filter_map(|s| deadlines(&k.conns[s]).min().map(|dl| (dl, s)))
            .collect();
        assert_eq!(k.timers, earliest, "indexed entries");
        let all_due = earliest.last().map(|&(dl, _)| dl);
        for at in [Some(now), next, all_due].into_iter().flatten() {
            let due: Vec<SockId> = (0..k.conns.len())
                .filter(|&s| deadlines(&k.conns[s]).any(|dl| dl <= at))
                .collect();
            let mut got = Vec::new();
            k.due_socks(at, &mut got);
            assert_eq!(got, due, "due sockets at {at:?}");
        }
    }

    /// Which timer branches came due during a run.
    #[derive(Default)]
    struct Seen {
        delack: bool,
        persist: bool,
        time_wait: bool,
        syn_rexmt: bool,
        fin_rexmt: bool,
    }

    impl Seen {
        /// Records the branches due on `k` at `now`.
        fn note(&mut self, k: &Kernel, now: SimTime) {
            use crate::tcb::TcpState;
            let due = |dl: Option<SimTime>| dl.is_some_and(|dl| dl <= now);
            for c in &k.conns {
                self.delack |= due(c.delack_deadline) && c.tcb.delack;
                self.persist |= due(c.tcb.persist_deadline)
                    && c.tcb.flight_size() == 0
                    && !c.sock.snd.is_empty();
                self.time_wait |= due(c.time_wait_deadline);
                let rexmt = due(c.tcb.rexmt_deadline);
                self.syn_rexmt |=
                    rexmt && matches!(c.tcb.state, TcpState::SynSent | TcpState::SynReceived);
                self.fin_rexmt |=
                    rexmt && matches!(c.tcb.state, TcpState::FinWait1 | TcpState::LastAck);
            }
        }
    }

    /// A client and a server kernel joined by a lossy link. Both timer
    /// indexes are checked against the reference walk after every
    /// kernel call.
    struct LossyLink {
        client: Kernel,
        server: Kernel,
        dc: CaptureDriver,
        ds: CaptureDriver,
        now: SimTime,
        rng: u64,
        /// Percent of packets lost.
        loss: u64,
        /// A client port whose packets are all lost, both ways.
        blackhole: Option<u16>,
        seen: Seen,
    }

    impl LossyLink {
        fn check(&mut self) {
            assert_index_matches_scan(&mut self.client, self.now);
            assert_index_matches_scan(&mut self.server, self.now);
        }

        fn lost(&mut self, pkt: &[u8]) -> bool {
            self.rng = self
                .rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let ports = [
                u16::from_be_bytes([pkt[20], pkt[21]]),
                u16::from_be_bytes([pkt[22], pkt[23]]),
            ];
            (self.rng >> 33) % 100 < self.loss || self.blackhole.is_some_and(|p| ports.contains(&p))
        }

        /// Carries every queued packet across the link, one kernel call
        /// per packet. Returns whether any packet was queued.
        fn carry(&mut self) -> bool {
            let to_server: Vec<_> = self.dc.packets.drain(..).map(|p| (p, true)).collect();
            let to_client: Vec<_> = self.ds.packets.drain(..).map(|p| (p, false)).collect();
            let any = !to_server.is_empty() || !to_client.is_empty();
            for (pkt, to_server) in to_server.into_iter().chain(to_client) {
                self.now += SimTime::from_us(50);
                if self.lost(&pkt) {
                    continue;
                }
                let (k, drv) = if to_server {
                    (&mut self.server, &mut self.ds)
                } else {
                    (&mut self.client, &mut self.dc)
                };
                let (chain, _) = Chain::from_user_data(&k.pool, &pkt, pkt.len() > 1024);
                if let Some(at) = k.enqueue_ip(self.now, chain) {
                    let _ = k.ipintr(at, drv);
                }
                self.check();
            }
            any
        }

        /// Jumps to the earliest deadline of either kernel and fires
        /// both kernels' timers there. Returns false when none is armed.
        fn fire_next(&mut self) -> bool {
            let next = [self.client.next_deadline(), self.server.next_deadline()]
                .into_iter()
                .flatten()
                .min();
            let Some(dl) = next else {
                return false;
            };
            self.now = self.now.max(dl) + SimTime::from_us(1);
            for server in [false, true] {
                let (k, drv) = if server {
                    (&mut self.server, &mut self.ds)
                } else {
                    (&mut self.client, &mut self.dc)
                };
                self.seen.note(k, self.now);
                let _ = k.check_timers(self.now, drv);
                self.check();
            }
            true
        }
    }

    #[test]
    fn timer_event_keeps_one_outstanding_event() {
        let (mut a, _b, sa, _sb) = pair();
        let mut da = CaptureDriver::new(9188);
        let _ = a.syscall_write(SimTime::ZERO, sa, &[7; 100], &mut da);
        let dl = a.next_deadline().expect("the retransmit timer runs");
        let (us, t0) = (SimTime::from_us(1), SimTime::from_us(1));
        assert!(t0 < dl);
        // The first deadline is returned, and is then outstanding.
        assert_eq!(a.timer_event(t0), Some(dl));
        // A deadline equal to or later than the outstanding event: none.
        assert_eq!(a.timer_event(t0), None);
        a.timer_pending = Some(dl - us);
        assert_eq!(a.timer_event(t0), None);
        // A deadline earlier than the outstanding event is returned.
        a.timer_pending = Some(dl + us);
        assert_eq!(a.timer_event(t0), Some(dl));
        // Once `now` reaches the outstanding event it has fired: the
        // next deadline is returned again, at `max(dl, now)`.
        assert_eq!(a.timer_event(dl), Some(dl));
        assert_eq!(a.timer_event(dl + us), Some(dl + us));
        assert_eq!(a.timer_event(t0), None);
        // `check_timers` forgets the outstanding event even when it has
        // not fired, so the unchanged deadline gets a second event.
        let _ = a.check_timers(t0, &mut da);
        assert_eq!(a.next_deadline(), Some(dl));
        assert_eq!(a.timer_event(t0), Some(dl));
    }

    #[test]
    fn timer_index_tracks_a_lossy_many_connection_exchange() {
        use crate::tcb::TcpState;
        const CONNS: u16 = 16;
        const BYTES: usize = 12_000;
        let cfg = StackConfig {
            sockbuf: 8192,
            max_rexmt_shift: 6,
            ..StackConfig::default()
        };
        let costs = CostModel::calibrated();
        let mut net = LossyLink {
            client: Kernel::new(cfg, costs.clone()),
            server: Kernel::new(cfg, costs),
            dc: CaptureDriver::new(9188),
            ds: CaptureDriver::new(9188),
            now: SimTime::ZERO,
            rng: 7,
            loss: 20,
            blackhole: None,
            seen: Seen::default(),
        };
        let _ = net.server.listen([10, 0, 0, 2], 4242);
        net.check();
        let mut socks = Vec::new();
        for i in 0..CONNS {
            let key = PcbKey {
                laddr: [10, 0, 0, 1],
                lport: 5000 + i,
                faddr: [10, 0, 0, 2],
                fport: 4242,
            };
            socks.push(net.client.connect(net.now, key, &mut net.dc));
            net.check();
        }
        let payload: Vec<u8> = (0..BYTES).map(|i| (i % 251) as u8).collect();
        let mut written = vec![0; socks.len()];
        let mut quiesced = false;
        for step in 0..20_000 {
            // Clients write the payload as buffer space allows, then
            // close. The last connection loses everything once it is
            // open, so it runs into the retransmission limit.
            for (i, &s) in socks.iter().enumerate() {
                if net.client.tcb(s).state != TcpState::Established {
                    continue;
                }
                if i + 1 == socks.len() {
                    net.blackhole = Some(net.client.tcb(s).key.lport);
                }
                if written[i] < BYTES && net.client.snd_buffered(s) < cfg.sockbuf {
                    let out =
                        net.client
                            .syscall_write(net.now, s, &payload[written[i]..], &mut net.dc);
                    written[i] += out.accepted;
                    net.check();
                } else if written[i] == BYTES && net.client.snd_buffered(s) == 0 {
                    net.client.close(net.now, s, &mut net.dc);
                    net.check();
                }
            }
            // The server reads odd client ports late, so their windows
            // close and the clients probe them; it closes after EOF.
            for s in 1..net.server.conns.len() {
                let late = net.server.tcb(s).key.fport % 2 == 1;
                if net.server.rcv_buffered(s) > 0 && (!late || step >= 300) {
                    let _ = net
                        .server
                        .syscall_read(net.now, s, 4096, &mut Vec::new(), &mut net.ds);
                    net.check();
                } else if net.server.tcb(s).state == TcpState::CloseWait {
                    net.server.close(net.now, s, &mut net.ds);
                    net.check();
                }
            }
            if !net.carry() && !net.fire_next() {
                quiesced = true;
                break;
            }
        }
        assert!(quiesced, "the exchange ran down");
        let seen = &net.seen;
        assert!(seen.delack, "a delayed ACK fired");
        assert!(seen.persist, "a persist probe fired");
        assert!(seen.time_wait, "a TIME-WAIT expired");
        assert!(seen.syn_rexmt, "a SYN or SYN-ACK was retransmitted");
        assert!(seen.fin_rexmt, "a FIN was retransmitted");
        assert!(
            net.client.stats.conn_aborts > 0,
            "the limit aborted a connection"
        );
        assert!(net.client.stats.rto_fires > 0 && net.server.stats.delack_fires > 0);
    }

    #[test]
    fn demux_maps_pcb_ids_to_sockets() {
        use crate::tcb::TcpState;
        for ambient_pcbs in [12, 0] {
            let cfg = StackConfig {
                ambient_pcbs,
                ..StackConfig::default()
            };
            let costs = CostModel::calibrated();
            let mut client = Kernel::new(cfg, costs.clone());
            let mut server = Kernel::new(cfg, costs);
            let mut dc = CaptureDriver::new(9188);
            let mut ds = CaptureDriver::new(9188);
            let ls = server.listen([10, 0, 0, 2], 4242);
            let ports = [2000u16, 2001, 2002];
            let socks: Vec<SockId> = ports
                .iter()
                .map(|&lport| {
                    let key = PcbKey {
                        laddr: [10, 0, 0, 1],
                        lport,
                        faddr: [10, 0, 0, 2],
                        fport: 4242,
                    };
                    client.connect(SimTime::ZERO, key, &mut dc)
                })
                .collect();
            // Passive opens, in reverse order of the connects, so the
            // server's sockets run opposite to the client's.
            let syns: Vec<_> = dc.packets.drain(..).collect();
            let mut t = SimTime::from_ms(1);
            for syn in syns.iter().rev() {
                let (chain, _) = Chain::from_user_data(&server.pool, syn, false);
                let at = server.enqueue_ip(t, chain).expect("softintr raised");
                let _ = server.ipintr(at, &mut ds);
                t += SimTime::from_ms(1);
            }
            let server_sock = |server: &Kernel, port: u16| {
                (0..server.conns.len())
                    .find(|&s| s != ls && server.tcb(s).key.fport == port)
                    .expect("embryo for the port")
            };
            for &port in &ports {
                let s = server_sock(&server, port);
                assert_eq!(server.tcb(s).state, TcpState::SynReceived);
                if ambient_pcbs > 0 {
                    assert_ne!(server.tcb(s).id, s, "PCB ids are not socket indices");
                }
            }
            // A retransmitted SYN resolves to its embryo: one more
            // SYN-ACK, no new connection or PCB.
            let (conns, pcbs) = (server.conns.len(), server.pcbs.len());
            let synacks = ds.packets.len();
            let (chain, _) = Chain::from_user_data(&server.pool, &syns[1], false);
            let at = server.enqueue_ip(t, chain).expect("softintr raised");
            let _ = server.ipintr(at, &mut ds);
            assert_eq!((server.conns.len(), server.pcbs.len()), (conns, pcbs));
            assert_eq!(ds.packets.len(), synacks + 1, "SYN-ACK resent");
            let resent = TcpIpHeader::decode(&ds.packets[synacks][..40]).unwrap();
            assert_eq!(resent.dport, ports[1]);
            // Each SYN-ACK completes its own active open; each final
            // ACK completes its own passive open.
            shuttle(&mut ds, &mut client, &mut dc, t + SimTime::from_ms(1));
            for (&s, &port) in socks.iter().zip(&ports) {
                assert!(client.is_established(s));
                assert_eq!(client.tcb(s).key.lport, port);
            }
            shuttle(&mut dc, &mut server, &mut ds, t + SimTime::from_ms(2));
            for &port in &ports {
                assert!(server.is_established(server_sock(&server, port)));
            }
            // Established data lands on the socket of its own port.
            let _ = client.syscall_write(t + SimTime::from_ms(3), socks[2], &[6u8; 300], &mut dc);
            shuttle(&mut dc, &mut server, &mut ds, t + SimTime::from_ms(4));
            for &port in &ports {
                let want = if port == ports[2] { 300 } else { 0 };
                assert_eq!(server.rcv_buffered(server_sock(&server, port)), want);
            }
        }
    }
}
