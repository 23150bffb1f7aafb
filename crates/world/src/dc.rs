//! The N-host datacenter world: many hosts, one shared cell switch.
//!
//! [`DcWorld`] generalizes the two-host world of `latency-core` to an
//! arbitrary [`Topology`]: every host runs its own `tcpip` kernel with
//! its own CPU timeline and its own TCA-100 uplink, and all traffic
//! crosses one shared output-queued [`AtmSwitch`], so incast fan-in
//! actually queues (and, past the port queue capacity, tail-drops into
//! TCP's loss recovery). The event loop is the same four-event cycle —
//! connection step, datagram arrival, software interrupt, TCP timer —
//! with the host index packed into the raw event payload.
//!
//! Determinism: the world is a pure function of
//! `(Topology, TrafficSchedule, seed)`. Per-host randomness derives
//! from the seed by host index, the switch has its own stream, and the
//! switch pass runs at event-execution time inside one simulation —
//! nothing depends on wall clock or scheduling outside the sim.

use atm::{AtmSwitch, LinkFault, VcRoute};
use decstation::CostModel;
use latency_core::nic::{arm_host, atm_receive, AtmDelivery, AtmNic, NicMut};
use simkit::{Scheduler, Sim, SimTime};
use tcpip::config::tcp_mss;
use tcpip::{Kernel, PcbCounters, PcbKey, SockId};

use crate::topology::{TailPolicy, Topology, TrafficSchedule};

/// Base port of client-side connections (`+ conn index`).
const CLIENT_PORT: u16 = 1024;
/// The well-known server port (one per server host; connections are
/// demultiplexed by the client's address and port, which is exactly
/// what makes the server's PCB table grow with fan-in).
const SERVER_PORT: u16 = 4242;

/// Where one connection endpoint is in its RPC loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Writing a message, `offset` bytes already accepted.
    WantWrite(usize),
    /// Reading the next message.
    WantRead,
    /// Sub-request done, waiting for the host's other fan-out
    /// connections to finish the round (fan-out clients only).
    AtBarrier,
    /// Parked replica connection of a hedged fan-out world: it carries
    /// no traffic until the hedge trigger activates it for a round.
    Idle,
    /// Finished (client: all iterations done; server: released).
    Done,
}

/// One TCP connection endpoint on one host.
pub struct DcConn {
    /// The socket (== this connection's index in the host's `conns`).
    pub sock: SockId,
    /// Client side (drives the RPC loop) or server side (echoes).
    pub client: bool,
    /// Peer host index.
    pub peer_host: usize,
    /// Peer connection index on the peer host.
    pub peer_conn: usize,
    /// Connection identity for payload verification: the client-side
    /// `(host, conn)` pair, identical on both endpoints.
    pub ident: (usize, usize),
    state: ConnState,
    /// Completed RPCs (client) / echoed RPCs (server).
    pub done_count: u64,
    got: Vec<u8>,
    t_start: SimTime,
    /// Measured RPC round-trip times (client side only).
    pub rtts: Vec<SimTime>,
    /// Payload verification failures.
    pub verify_failures: u64,
    /// Set when the connection died (retransmit limit under faults).
    pub aborted: bool,
    /// This connection's RPC size in bytes (per-connection because
    /// churn traffic runs a different size than the measured flows).
    size: usize,
    /// Rounds the client side runs (`warmup + iterations`;
    /// `u64::MAX` for background churn, which never finishes on its
    /// own).
    total: u64,
    /// Background churn connection: never measured, never counted
    /// toward run completion.
    background: bool,
    /// Idle time between rounds (churn pacing; `ZERO` = closed loop).
    think: SimTime,
    /// When the last train from this connection's peer landed (the
    /// hardware interrupt for its last cell). Fan-out clients end the
    /// sub-request RTT here — "the slowest reply lands" — so the
    /// client CPU's serialized protocol processing of N near-
    /// simultaneous replies prices the *next* round's start, not the
    /// completion being measured. Each fan-out connection has a
    /// distinct peer server, so the sender identifies the connection
    /// without TCP demultiplexing.
    last_arrival: SimTime,
    /// Messages fully written on this connection (client side): the
    /// payload-pattern index of the next outgoing message. Equal to
    /// `done_count` on classic paths; diverges under application
    /// retries, which reissue a round's request on the same stream.
    sent: u64,
    /// Full messages read back (client side): the pattern index the
    /// next incoming echo must verify against.
    rcvd: u64,
    /// Copies of the current round's request written on this stream
    /// (initial send + retries); mitigated fan-out only.
    round_sent: u32,
    /// Echoes of the current round received so far; mitigated fan-out
    /// only. A connection parks at the barrier only once
    /// `round_rcvd == round_sent`, draining late retry echoes first.
    round_rcvd: u32,
}

/// Typed outcome of one logical fan-out request (mitigated worlds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The request completed within its deadline (or no deadline was
    /// set).
    Ok,
    /// The deadline passed before the quorum completed: the recorded
    /// completion is the deadline itself and the stragglers were
    /// cancelled.
    DeadlineExceeded,
}

/// Fan-out/wait-for-all bookkeeping for one client host: the host's
/// `width` connections each carry one sub-request per round, and the
/// logical request completes when the slowest reply lands.
///
/// With a [`TailPolicy`] armed the barrier turns into a tail-tolerant
/// control loop: each of the `width` *slots* resolves at its first
/// reply (primary or hedged replica), the logical completion is the
/// K-th smallest slot time capped by the deadline, and late copies
/// drain through the barrier without being re-measured.
pub struct FanoutCtl {
    /// Fan-out width (== the host's primary connection count).
    pub width: usize,
    /// Connections still mid-round (primaries plus the activated
    /// replica, if any).
    pending: usize,
    /// Completed barrier rounds.
    round: u64,
    /// Slowest sub-request RTT seen in the current round.
    round_max: SimTime,
    /// Per-round completion times, recorded after warm-up: the max
    /// over the round's sub-request RTTs (wait-for-all), or the
    /// policy's K-th smallest capped by the deadline (mitigated).
    pub completions: Vec<SimTime>,
    /// Set when the retransmit limit killed one of the host's
    /// sub-request connections: the remaining rounds can never
    /// complete, so the whole fan-out host aborts.
    pub aborted: bool,
    /// The tail-tolerance policy, normalized: `None` when the
    /// topology carries no policy *or* an all-default one, so a no-op
    /// policy runs the classic wait-for-all path event-for-event.
    tail: Option<TailPolicy>,
    /// First-reply time of each slot this round (`width` entries in
    /// mitigated mode, empty otherwise).
    slot_rtt: Vec<Option<SimTime>>,
    /// When the current round was released.
    round_start: SimTime,
    /// Retry tokens left in the per-client budget bucket.
    tokens: u32,
    /// The slot hedged this round, if the hedge trigger fired.
    hedged_slot: Option<usize>,
    /// Running upper-tail estimate of resolved slot times — the
    /// adaptive hedge delay (an upper-only [`simcap::Recorder`]).
    p95: simcap::Recorder,
    /// Typed per-request outcomes, parallel to `completions`.
    pub outcomes: Vec<RequestOutcome>,
    /// Hedged requests issued.
    pub hedges_issued: u64,
    /// Hedges whose replica reply resolved the slot first.
    pub hedges_won: u64,
    /// Hedges beaten by their own primary — pure extra load.
    pub hedges_wasted: u64,
    /// Application-level retries written.
    pub retries_issued: u64,
    /// Retries suppressed by an empty budget bucket.
    pub budget_exhausted: u64,
    /// Rounds that recorded `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Sub-request results discarded as stragglers (slots slower than
    /// the recorded completion: beyond the quorum or the deadline).
    pub cancelled: u64,
}

/// One simulated host.
pub struct DcHost {
    /// The kernel (stack + CPU + spans).
    pub kernel: Kernel,
    /// The TCA-100 uplink into the shared switch: one VC per peer
    /// host, the host index as AAL3/4 MID.
    pub nic: AtmNic,
    /// Connection endpoints, indexed by socket id.
    pub conns: Vec<DcConn>,
    /// Earliest scheduled TCP timer event, to avoid duplicates.
    timer_at: Option<SimTime>,
    /// Fan-out barrier state (measured client hosts of a fan-out
    /// world only).
    pub fanout: Option<FanoutCtl>,
    /// Deterministic pause/resume windows (faultkit `host_pause`):
    /// every event targeting this host while it is paused is deferred
    /// to the window's end, modeling a GC or scheduler stall.
    pause: Option<faultkit::PauseSchedule>,
}

/// The datacenter world.
pub struct DcWorld {
    /// The topology (plain data).
    pub topo: Topology,
    /// The traffic schedule (plain data).
    pub sched: TrafficSchedule,
    /// All hosts: clients `0..topo.clients`, then servers.
    pub hosts: Vec<DcHost>,
    /// The shared switch; host `h` is both input and output port `h`.
    pub switch: AtmSwitch,
    /// Client connections still running.
    live_clients: usize,
    /// The world seed; churn think-time draws derive from it.
    seed: u64,
}

// The parallel sweep runner builds and runs one world per cell inside
// a worker thread; the world must be able to cross threads.
const _: () = simkit::assert_world_send::<DcWorld>();

/// The expected bytes of one RPC, a pure function of the connection
/// identity and the iteration — so a segment delivered to the wrong
/// connection (a PCB demultiplex bug) fails verification instead of
/// passing silently.
#[must_use]
pub fn dc_pattern(size: usize, iter: u64, ident: (usize, usize)) -> Vec<u8> {
    let salt = iter
        .wrapping_mul(131)
        .wrapping_add(ident.0 as u64 * 17)
        .wrapping_add(ident.1 as u64 * 7);
    (0..size).map(|i| ((i as u64 + salt) % 251) as u8).collect()
}

/// Seed for host `h`, derived by key so every host has an independent
/// stream and the derivation is order-free.
fn host_seed(seed: u64, h: usize) -> u64 {
    seed ^ (h as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// splitmix64 finalizer: one strong mixing step, used to turn a
/// `(seed, host, conn, round)` tuple into an independent draw.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DcWorld {
    /// Builds the world: one kernel + uplink per host, the shared
    /// switch with a per-destination VC plan, and every client-server
    /// connection pair established administratively with aligned
    /// sequence state (the paper measures established connections).
    #[must_use]
    pub fn new(topo: Topology, sched: TrafficSchedule, seed: u64) -> DcWorld {
        assert!(topo.clients > 0, "a world needs at least one client");
        assert!(topo.conns_per_host > 0, "at least one connection");
        assert!(topo.conns_per_host <= 4096, "client port space");
        if topo.fanout_width > 0 {
            assert_eq!(
                topo.conns_per_host, topo.fanout_width,
                "fan-out wiring: one connection per server"
            );
        }
        let n = topo.hosts();
        let measured = topo.measured_hosts();
        let costs = CostModel::calibrated();
        let cfg = topo.strategy.apply(topo.stack);
        let mut hosts = Vec::with_capacity(n);
        for h in 0..n {
            let hs = host_seed(seed, h);
            let link = atm::FiberLink::new(
                atm::LinkConfig {
                    propagation: topo.link_delay(h),
                    ..atm::LinkConfig::default()
                },
                hs,
            );
            let mut nic = AtmNic::new(link, costs.clone(), hs);
            nic.mtu = topo.mtu;
            let kernel = Kernel::new(cfg, costs.clone());
            // Churn hosts are outside every fault scope: per-cell
            // jitter would break the FIFO order of a multi-cell AAL5
            // train and the reassembler would drop the PDU. The
            // aperiodic think-time draw is the churn RNG stream
            // instead.
            let pause = match &topo.faults {
                Some(faults) if topo.faults_apply_to(h) => {
                    arm_host(faults, &kernel, NicMut::Atm(&mut nic), hs, true)
                        .unwrap_or_else(|refusal| panic!("{refusal}"))
                }
                _ => None,
            };
            // A no-op policy normalizes to None: the classic
            // wait-for-all path runs event-for-event.
            let tail = topo.tail.filter(|t| !t.is_noop());
            let fanout = (topo.fanout_width > 0 && h < topo.clients).then(|| FanoutCtl {
                width: topo.fanout_width,
                pending: topo.fanout_width,
                round: 0,
                round_max: SimTime::ZERO,
                completions: Vec::new(),
                aborted: false,
                tail,
                slot_rtt: if tail.is_some() {
                    vec![None; topo.fanout_width]
                } else {
                    Vec::new()
                },
                round_start: SimTime::ZERO,
                tokens: tail.and_then(|t| t.retry).map_or(0, |r| r.budget),
                hedged_slot: None,
                p95: simcap::Recorder::upper_only(),
                outcomes: Vec::new(),
                hedges_issued: 0,
                hedges_won: 0,
                hedges_wasted: 0,
                retries_issued: 0,
                budget_exhausted: 0,
                deadline_exceeded: 0,
                cancelled: 0,
            });
            hosts.push(DcHost {
                kernel,
                nic,
                conns: Vec::new(),
                timer_at: None,
                fanout,
                pause,
            });
        }

        // Client-side hosts in wiring order: measured clients, then
        // churn hosts.
        let client_side: Vec<usize> = (0..topo.clients).chain(measured..n).collect();

        let mut switch = AtmSwitch::new(n, topo.switch, host_seed(seed, n + 1));
        for &c in &client_side {
            let mut wired: Vec<usize> = Vec::new();
            for j in 0..topo.conns_of(c) {
                let srv = topo.peer_server(c, j);
                if wired.contains(&srv) {
                    continue;
                }
                wired.push(srv);
                for (src, dst) in [(c, srv), (srv, c)] {
                    // The MID carries the low bits of the sender index
                    // (10-bit field); trains are delivered whole, so
                    // MID collisions cannot occur mid-reassembly.
                    let mid = (src & 0x3ff) as u16;
                    hosts[src]
                        .nic
                        .add_peer(Topology::addr(dst), dst, Topology::vci_to(dst), mid);
                    switch.add_vc(
                        src,
                        0,
                        Topology::vci_to(dst),
                        VcRoute {
                            out_port: dst,
                            out_vpi: 0,
                            out_vci: Topology::vci_to(dst),
                        },
                    );
                }
            }
        }

        let mss = tcp_mss(topo.mtu, cfg.mss_one_cluster);
        for &c in &client_side {
            let background = c >= measured;
            for j in 0..topo.conns_of(c) {
                let srv = topo.peer_server(c, j);
                let (size, total, think) = if background {
                    let ch = topo.churn.as_ref().expect("churn host implies config");
                    // Per-server echo size: the heterogeneous hiccup
                    // severity that keeps max-of-N growing with N.
                    (ch.size_for(srv - topo.clients), u64::MAX, ch.think)
                } else {
                    (topo.rpc_size, topo.warmup + topo.iterations, SimTime::ZERO)
                };
                let key = PcbKey {
                    laddr: Topology::addr(c),
                    lport: CLIENT_PORT + j as u16,
                    faddr: Topology::addr(srv),
                    fport: SERVER_PORT,
                };
                let [client, server] = hosts
                    .get_disjoint_mut([c, srv])
                    .expect("client and server are distinct hosts");
                let (sock_c, sock_s) =
                    Kernel::connect_pair(&mut client.kernel, &mut server.kernel, key, mss);
                debug_assert_eq!(sock_c, hosts[c].conns.len());
                debug_assert_eq!(sock_s, hosts[srv].conns.len());
                let conn_s = hosts[srv].conns.len();
                // Replica connections of a hedged fan-out client park
                // idle until a hedge trigger activates them.
                let replica =
                    !background && topo.replicated() && c < topo.clients && j >= topo.fanout_width;
                hosts[c].conns.push(DcConn {
                    sock: sock_c,
                    client: true,
                    peer_host: srv,
                    peer_conn: conn_s,
                    ident: (c, j),
                    state: if replica {
                        ConnState::Idle
                    } else {
                        ConnState::WantWrite(0)
                    },
                    done_count: 0,
                    got: Vec::new(),
                    t_start: SimTime::ZERO,
                    rtts: Vec::new(),
                    verify_failures: 0,
                    aborted: false,
                    size,
                    total,
                    background,
                    think,
                    last_arrival: SimTime::ZERO,
                    sent: 0,
                    rcvd: 0,
                    round_sent: 0,
                    round_rcvd: 0,
                });
                hosts[srv].conns.push(DcConn {
                    sock: sock_s,
                    client: false,
                    peer_host: c,
                    peer_conn: sock_c,
                    ident: (c, j),
                    state: ConnState::WantRead,
                    done_count: 0,
                    got: Vec::new(),
                    t_start: SimTime::ZERO,
                    rtts: Vec::new(),
                    verify_failures: 0,
                    aborted: false,
                    size,
                    total,
                    background,
                    think: SimTime::ZERO,
                    last_arrival: SimTime::ZERO,
                    sent: 0,
                    rcvd: 0,
                    round_sent: 0,
                    round_rcvd: 0,
                });
            }
        }

        let live_clients = topo.client_conns();
        DcWorld {
            topo,
            sched,
            hosts,
            switch,
            live_clients,
            seed,
        }
    }

    /// Whether every connection on every host has finished.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.hosts
            .iter()
            .all(|h| h.conns.iter().all(|c| c.state == ConnState::Done))
    }

    /// PCB lookup counters summed over `hosts` (by predicate on the
    /// host index).
    fn pcb_counters_where(&self, keep: impl Fn(usize) -> bool) -> PcbCounters {
        let mut acc = PcbCounters::default();
        for (h, host) in self.hosts.iter().enumerate() {
            if keep(h) {
                acc += host.kernel.pcbs.counters();
            }
        }
        acc
    }
}

/// One run's pooled results.
pub struct DcRunResult {
    /// Every measured RPC round-trip, pooled in (client host,
    /// connection, iteration) order — a stable order so reports are
    /// byte-identical across `--jobs` values.
    pub rtts: Vec<SimTime>,
    /// Payload verification failures across every endpoint.
    pub verify_failures: u64,
    /// Connections that aborted (retransmit limit, under faults).
    pub aborted_conns: u64,
    /// Fan-out worlds: per-logical-request completion times (the max
    /// over each round's sub-request RTTs), pooled in client-host
    /// order. Empty in classic incast mode.
    pub completions: Vec<SimTime>,
    /// Fan-out client hosts whose rounds were cut short by an abort.
    pub fanout_aborts: u64,
    /// Events executed by the simulation.
    pub events: u64,
    /// Final simulated time.
    pub sim_time: SimTime,
    /// PCB lookup counters summed over every host.
    pub pcb: PcbCounters,
    /// PCB lookup counters summed over the server hosts only — the
    /// side whose table holds `fanin x conns_per_host` entries and
    /// where the paper's strategy differences live.
    pub server_pcb: PcbCounters,
    /// Cells forwarded by the switch.
    pub switch_forwarded: u64,
    /// Cells tail-dropped at full output queues.
    pub switch_drops: u64,
    /// Cells discarded by Early Packet Discard (whole refused trains).
    pub epd_drops: u64,
    /// Cells discarded by Partial Packet Discard (train remainders).
    pub ppd_drops: u64,
    /// Largest output-queue backlog (cells) seen on any port.
    pub max_backlog_cells: usize,
    /// Segments retransmitted (RTO + fast), summed over every host.
    pub rexmits: u64,
    /// Retransmission timeouts fired, summed over every host — the
    /// expensive recovery path the fast-recovery variants exist to
    /// avoid.
    pub rto_fires: u64,
    /// Mbufs still outstanding after world teardown, summed over every
    /// host pool — covers cancelled and hedged sub-requests too, whose
    /// connections must release their buffers like any other.
    pub mbufs_leaked: u64,
    /// Hedged requests issued across every fan-out client.
    pub hedges_issued: u64,
    /// Hedges whose replica reply won the slot.
    pub hedges_won: u64,
    /// Hedges beaten by their own primary.
    pub hedges_wasted: u64,
    /// Application-level retries written.
    pub retries_issued: u64,
    /// Retries suppressed by an empty budget bucket.
    pub budget_exhausted: u64,
    /// Logical requests that recorded `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Sub-request results discarded as stragglers.
    pub cancelled: u64,
}

impl DcRunResult {
    /// Mean traversed list entries per lookup — the paper's §3 cost
    /// driver — on the server side.
    #[must_use]
    pub fn server_search_len(&self) -> f64 {
        if self.server_pcb.lookups == 0 {
            return 0.0;
        }
        self.server_pcb.traversed as f64 / self.server_pcb.lookups as f64
    }

    /// Server-side cache hit rate over cache probes (0 when the cache
    /// is off).
    #[must_use]
    pub fn server_cache_hit_rate(&self) -> f64 {
        let probes = self.server_pcb.cache_hits + self.server_pcb.cache_misses;
        if probes == 0 {
            return 0.0;
        }
        self.server_pcb.cache_hits as f64 / probes as f64
    }
}

/// Builds and runs a world to completion.
///
/// # Panics
///
/// Panics if the event queue drains while a client connection is
/// still waiting — a protocol deadlock, which the tests treat as a
/// bug.
#[must_use]
pub fn run_dc(topo: &Topology, sched: TrafficSchedule, seed: u64) -> DcRunResult {
    let sim = run_dc_sim(topo, sched, seed);
    let w = &sim.world;
    let mut rtts = Vec::new();
    let mut verify_failures = 0;
    let mut aborted_conns = 0;
    let mut completions = Vec::new();
    let mut fanout_aborts = 0;
    let (mut hedges_issued, mut hedges_won, mut hedges_wasted) = (0, 0, 0);
    let (mut retries_issued, mut budget_exhausted) = (0, 0);
    let (mut deadline_exceeded, mut cancelled) = (0, 0);
    for host in &w.hosts {
        for conn in &host.conns {
            rtts.extend_from_slice(&conn.rtts);
            verify_failures += conn.verify_failures;
            aborted_conns += u64::from(conn.aborted);
        }
        if let Some(ctl) = &host.fanout {
            completions.extend_from_slice(&ctl.completions);
            fanout_aborts += u64::from(ctl.aborted);
            hedges_issued += ctl.hedges_issued;
            hedges_won += ctl.hedges_won;
            hedges_wasted += ctl.hedges_wasted;
            retries_issued += ctl.retries_issued;
            budget_exhausted += ctl.budget_exhausted;
            deadline_exceeded += ctl.deadline_exceeded;
            cancelled += ctl.cancelled;
        }
    }
    let clients = w.topo.clients;
    let (mut fwd, mut drops, mut backlog) = (0, 0, 0usize);
    let (mut epd, mut ppd) = (0, 0);
    for p in 0..w.switch.ports() {
        let ps = w.switch.port_stats(p);
        fwd += ps.forwarded;
        drops += ps.queue_drops;
        epd += ps.epd_drops;
        ppd += ps.ppd_drops;
        backlog = backlog.max(ps.max_backlog_cells);
    }
    let rexmits = w.hosts.iter().map(|h| h.kernel.rexmits_total()).sum();
    let rto_fires = w.hosts.iter().map(|h| h.kernel.stats.rto_fires).sum();
    let mut result = DcRunResult {
        rtts,
        verify_failures,
        aborted_conns,
        completions,
        fanout_aborts,
        events: sim.events_executed(),
        sim_time: sim.now(),
        pcb: w.pcb_counters_where(|_| true),
        server_pcb: w.pcb_counters_where(|h| h >= clients && h < w.topo.measured_hosts()),
        switch_forwarded: fwd,
        switch_drops: drops,
        epd_drops: epd,
        ppd_drops: ppd,
        max_backlog_cells: backlog,
        rexmits,
        rto_fires,
        mbufs_leaked: 0,
        hedges_issued,
        hedges_won,
        hedges_wasted,
        retries_issued,
        budget_exhausted,
        deadline_exceeded,
        cancelled,
    };
    // Teardown frees every chain still held by sockets, queues and
    // adapters — including the connections of cancelled or hedged
    // sub-requests; whatever remains outstanding is a genuine leak.
    let pools: Vec<_> = w.hosts.iter().map(|h| h.kernel.pool.clone()).collect();
    drop(sim);
    result.mbufs_leaked = pools.iter().map(|p| p.stats().mbufs_outstanding()).sum();
    result
}

/// Builds and runs a world, returning the final world state — tests
/// inspect per-connection sub-request RTTs and per-host fan-out
/// completions directly.
///
/// # Panics
///
/// Panics on protocol deadlock, like [`run_dc`].
#[must_use]
pub fn run_dc_world(topo: &Topology, sched: TrafficSchedule, seed: u64) -> DcWorld {
    run_dc_sim(topo, sched, seed).world
}

fn run_dc_sim(topo: &Topology, sched: TrafficSchedule, seed: u64) -> Sim<DcWorld> {
    let world = DcWorld::new(topo.clone(), sched, seed);
    let mut sim = prepare_dc(world);
    if sim.world.topo.churn.is_some() {
        // Churn connections never finish on their own: stop when the
        // measured clients are done instead of draining the queue.
        let _ = sim.run_while(|w| !w.finished());
    } else {
        sim.run();
    }
    assert!(
        sim.world.finished(),
        "deadlock: event queue empty with live connections \
         (live_clients {})",
        sim.world.live_clients
    );
    sim
}

/// Packs a (host, connection) pair into a raw event payload.
fn pack(h: usize, c: usize) -> u64 {
    ((h as u64) << 32) | c as u64
}

/// Builds the simulation over a world: schedules every connection's
/// start event (servers first, at t = 0, so they are blocked in read
/// before any client writes; clients per the traffic schedule).
fn prepare_dc(world: DcWorld) -> Sim<DcWorld> {
    let mut sim = Sim::new(world);
    let clients = sim.world.topo.clients;
    let measured = sim.world.topo.measured_hosts();
    for h in clients..measured {
        for c in 0..sim.world.hosts[h].conns.len() {
            sim.schedule_raw(SimTime::ZERO, "dc-conn-start", conn_step_raw, pack(h, c));
        }
    }
    let sched = sim.world.sched;
    let fanout = sim.world.topo.fanout_width > 0;
    for h in 0..clients {
        // A mitigated fan-out host re-arms its control events (hedge
        // trigger, retry timers, token refill) at each round start.
        let mitigated = sim.world.hosts[h]
            .fanout
            .as_ref()
            .is_some_and(|f| f.tail.is_some());
        if mitigated {
            sim.schedule_raw(
                sched.start_of(h, 0),
                "dc-round-arm",
                on_round_arm_raw,
                h as u64,
            );
        }
        for c in 0..sim.world.hosts[h].conns.len() {
            // Hedge replicas park idle until their trigger fires.
            if sim.world.hosts[h].conns[c].state == ConnState::Idle {
                continue;
            }
            // A fan-out host issues its whole round at once: every
            // sub-request starts at the host's slot (the client CPU
            // serializes the actual writes).
            let at = if fanout {
                sched.start_of(h, 0)
            } else {
                sched.start_of(h, c)
            };
            sim.schedule_raw(at, "dc-conn-start", conn_step_raw, pack(h, c));
        }
    }
    // Churn connections spread their first rounds across one think
    // period so the background load starts de-phased instead of as
    // one burst.
    if let Some(ch) = sim.world.topo.churn.clone() {
        let servers = sim.world.topo.servers() as u64;
        let clients = sim.world.topo.clients;
        for h in measured..sim.world.hosts.len() {
            for c in 0..sim.world.hosts[h].conns.len() {
                // Spread by the global server index so the whole
                // churn population covers one think period even when
                // it is sliced across several churn hosts.
                let srv = (sim.world.topo.peer_server(h, c) - clients) as u64;
                let spread = SimTime::from_ns(ch.think.as_ns() / servers * srv);
                sim.schedule_raw(
                    sched.start_of(h, c) + spread,
                    "dc-churn-start",
                    conn_step_raw,
                    pack(h, c),
                );
            }
        }
    }
    sim
}

/// If host `h` is inside a pause window at `now`, the time it
/// resumes. Every event entry point defers itself to that instant —
/// a paused host stops servicing *everything* (arrivals, timers,
/// process steps), exactly like a GC or scheduler stall. The resume
/// point is outside the window (faultkit invariant), so a deferred
/// event runs on its second attempt: pauses delay, never hang.
fn paused_until(w: &DcWorld, h: usize, now: SimTime) -> Option<SimTime> {
    w.hosts[h].pause.and_then(|p| p.resume_after(now))
}

/// Raw-event trampolines (function pointer + packed payload: the
/// steady-state loop allocates only for arrival trains).
fn conn_step_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, data: u64) {
    let h = (data >> 32) as usize;
    if let Some(resume) = paused_until(w, h, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-step", conn_step_raw, data);
        return;
    }
    conn_step(w, s, h, (data & 0xffff_ffff) as usize);
}

fn on_softintr_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: u64) {
    if let Some(resume) = paused_until(w, h as usize, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-softintr", on_softintr_raw, h);
        return;
    }
    on_softintr(w, s, h as usize);
}

fn on_timer_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: u64) {
    if let Some(resume) = paused_until(w, h as usize, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-timer", on_timer_raw, h);
        return;
    }
    on_timer(w, s, h as usize);
}

/// Schedules staged deliveries — running each train through the
/// shared switch — and (re)arms the TCP timer after any kernel
/// interaction on host `h`.
fn flush_dc(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize) {
    for AtmDelivery { dst, train } in std::mem::take(&mut w.hosts[h].nic.staged) {
        // The hardware interrupt fires when the train's last cell
        // reaches the destination adapter. A fully-lost train arrives
        // nowhere; TCP's retransmit timer is the recovery path.
        if let Some((last, out)) = w.switch.forward_train(h, train, w.topo.link_delay(dst)) {
            s.schedule_at(last.max(s.now()), "dc-arrival", move |w, s| {
                on_dc_arrival(w, s, h, dst, out)
            });
        }
    }
    if let Some(dl) = w.hosts[h].kernel.next_deadline() {
        let stale = w.hosts[h].timer_at.is_none_or(|t| dl < t || t <= s.now());
        if stale {
            w.hosts[h].timer_at = Some(dl);
            s.schedule_raw_at(dl.max(s.now()), "dc-tcp-timer", on_timer_raw, h as u64);
        }
    }
}

/// ATM datagram arrival at host `h` from host `src`: the hardware
/// interrupt.
fn on_dc_arrival(
    w: &mut DcWorld,
    s: &mut Scheduler<DcWorld>,
    src: usize,
    h: usize,
    train: Vec<(SimTime, LinkFault)>,
) {
    // A paused host's adapter holds the interrupt until it resumes.
    if let Some(resume) = paused_until(w, h, s.now()) {
        s.schedule_at(resume, "dc-paused-arrival", move |w, s| {
            on_dc_arrival(w, s, src, h, train)
        });
        return;
    }
    // Fan-out landing stamp: on a fan-out client, connection `c`
    // talks exclusively to server `clients + h*span + c` (the
    // client's private server block, primaries then replicas), so the
    // sender maps to the connection without waiting for TCP
    // demultiplexing (which runs serialized on the client CPU, after
    // this interrupt).
    if w.hosts[h].fanout.is_some() {
        let span = w.topo.fanout_conns();
        let first = w.topo.clients + h * span;
        if (first..first + span).contains(&src) {
            w.hosts[h].conns[src - first].last_arrival = s.now();
        }
    }
    let host = &mut w.hosts[h];
    if let Some(at) = atm_receive(&mut host.kernel, &mut host.nic, s.now(), &train) {
        s.schedule_raw_at(at, "dc-softintr", on_softintr_raw, h as u64);
    }
}

/// The software interrupt: IP/TCP input, wakeups, responses.
fn on_softintr(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize) {
    let host = &mut w.hosts[h];
    let out = {
        let DcHost { kernel, nic, .. } = host;
        kernel.ipintr(s.now(), nic)
    };
    flush_dc(w, s, h);
    for (sock, run_at) in out.wakeups.iter().chain(out.writer_wakeups.iter()) {
        let at = (*run_at).max(s.now());
        s.schedule_raw_at(at, "dc-wakeup", conn_step_raw, pack(h, *sock));
    }
}

/// A TCP timer event on host `h`.
fn on_timer(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize) {
    w.hosts[h].timer_at = None;
    let host = &mut w.hosts[h];
    let _ = {
        let DcHost { kernel, nic, .. } = host;
        kernel.check_timers(s.now(), nic)
    };
    flush_dc(w, s, h);
    // A timer may have aborted a connection (retransmit limit) and
    // woken the blocked process so it can observe the error.
    for (sock, run_at) in w.hosts[h].kernel.take_timer_wakeups() {
        let at = run_at.max(s.now());
        s.schedule_raw_at(at, "dc-abort-wakeup", conn_step_raw, pack(h, sock));
    }
}

/// Marks a client connection finished and releases its server peer
/// once no client traffic can reach it (the paper's RPC servers block
/// in read forever; the run is over when every client is done).
fn finish_client(w: &mut DcWorld, h: usize, c: usize) {
    if w.hosts[h].conns[c].state != ConnState::Done {
        w.hosts[h].conns[c].state = ConnState::Done;
        // Background churn runs until the measured clients are done;
        // it never counts toward completion.
        if !w.hosts[h].conns[c].background {
            w.live_clients -= 1;
        }
    }
    if w.live_clients == 0 {
        for host in &mut w.hosts {
            for conn in &mut host.conns {
                conn.state = ConnState::Done;
            }
        }
    }
}

/// Aborts both endpoints of a dead connection (a real stack would RST
/// the peer); keeps the run live under faults.
///
/// On a fan-out host the whole logical request dies with any one of
/// its sub-request connections — no future round can complete — so
/// the abort widens to every connection of that client host.
fn abort_pair(w: &mut DcWorld, h: usize, c: usize) {
    w.hosts[h].conns[c].aborted = true;
    let (peer_host, peer_conn, client) = {
        let conn = &w.hosts[h].conns[c];
        (conn.peer_host, conn.peer_conn, conn.client)
    };
    let client_host = if client { h } else { peer_host };
    if w.hosts[client_host].fanout.is_some() {
        abort_fanout_host(w, client_host);
        return;
    }
    w.hosts[peer_host].conns[peer_conn].state = ConnState::Done;
    if client {
        finish_client(w, h, c);
    } else {
        w.hosts[h].conns[c].state = ConnState::Done;
        finish_client(w, peer_host, peer_conn);
    }
}

/// Kills a fan-out client host: releases every server peer and
/// finishes every sub-request connection. The host's completed
/// rounds stay in `FanoutCtl::completions`; the aborted flag marks
/// the truncation.
fn abort_fanout_host(w: &mut DcWorld, ch: usize) {
    if let Some(ctl) = &mut w.hosts[ch].fanout {
        ctl.aborted = true;
    }
    for j in 0..w.hosts[ch].conns.len() {
        let (ph, pc) = {
            let conn = &w.hosts[ch].conns[j];
            (conn.peer_host, conn.peer_conn)
        };
        w.hosts[ph].conns[pc].state = ConnState::Done;
        finish_client(w, ch, j);
    }
}

/// Runs one connection endpoint until it blocks or finishes — the RPC
/// loop of the two-host world's app, per connection.
fn conn_step(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize, c: usize) {
    let mut now = s.now();
    // A mitigated fan-out host's round lifecycle is owned by its
    // control layer (release/record/finish), not by per-connection
    // done-counts — retries make done_count exceed the round index.
    let ctl_managed = w.hosts[h].fanout.as_ref().is_some_and(|f| f.tail.is_some());
    loop {
        let state = w.hosts[h].conns[c].state;
        match state {
            ConnState::Done | ConnState::AtBarrier | ConnState::Idle => break,
            ConnState::WantWrite(offset) => {
                let host = &mut w.hosts[h];
                let conn = &mut host.conns[c];
                let size = conn.size;
                if conn.client && !ctl_managed && conn.done_count >= conn.total {
                    finish_client(w, h, c);
                    break;
                }
                let data = if conn.client {
                    // `sent` equals `done_count` on classic paths and
                    // indexes past any retried copies on mitigated
                    // ones, so every message on the stream carries a
                    // distinct pattern.
                    dc_pattern(size, conn.sent, conn.ident)
                } else {
                    // The server echoes what it received.
                    conn.got.clone()
                };
                if offset == 0 && conn.client {
                    // Start the iteration timer: read the clock just
                    // before write(), as the benchmark did.
                    conn.t_start = now.max(host.kernel.cpu.busy_until()).quantized();
                }
                let sock = conn.sock;
                let out = {
                    let DcHost { kernel, nic, .. } = host;
                    kernel.syscall_write(now, sock, &data[offset..], nic)
                };
                flush_dc(w, s, h);
                let conn = &mut w.hosts[h].conns[c];
                now = out.done_at;
                if out.error.is_some() {
                    abort_pair(w, h, c);
                    break;
                }
                if out.blocked {
                    conn.state = ConnState::WantWrite(offset + out.accepted);
                    break;
                }
                if conn.client {
                    conn.sent += 1;
                } else {
                    conn.done_count += 1;
                }
                // Mitigated clients clear per-echo in the control
                // layer instead: a retry write can interleave with a
                // partially-assembled echo, which must survive the
                // write.
                if !(ctl_managed && conn.client) {
                    conn.got.clear();
                }
                conn.state = ConnState::WantRead;
            }
            ConnState::WantRead => {
                let host = &mut w.hosts[h];
                let conn = &mut host.conns[c];
                let size = conn.size;
                let want = size - conn.got.len();
                let sock = conn.sock;
                let out = {
                    let DcHost { kernel, nic, .. } = host;
                    kernel.syscall_read(now, sock, want, nic)
                };
                flush_dc(w, s, h);
                let conn = &mut w.hosts[h].conns[c];
                if out.error.is_some() {
                    abort_pair(w, h, c);
                    break;
                }
                if out.blocked {
                    break;
                }
                now = out.done_at;
                conn.got.extend_from_slice(&out.data);
                if conn.got.len() < size {
                    continue;
                }
                // A full message arrived. Clients verify against the
                // receive index (echoes land in send order on the
                // in-order stream, including retried copies); servers
                // verify against their own echo count.
                let idx = if conn.client {
                    conn.rcvd
                } else {
                    conn.done_count
                };
                let expect = dc_pattern(size, idx, conn.ident);
                if conn.got != expect {
                    conn.verify_failures += 1;
                }
                if !conn.client {
                    conn.state = ConnState::WantWrite(0);
                    continue;
                }
                conn.rcvd += 1;
                // Fan-out sub-requests end when the reply *lands* (the
                // last train from the peer server); everyone else ends
                // at read completion, as the benchmark did. The
                // landing stamp keeps the client CPU's serialized
                // processing of N near-simultaneous replies out of the
                // measured completion — it delays the next round, not
                // this one's slowest-reply arrival.
                let landed = conn.last_arrival;
                let is_fanout = landed > SimTime::ZERO && !conn.background;
                let end = if is_fanout { landed } else { now };
                let rtt = end.quantized().saturating_since(conn.t_start);
                if ctl_managed {
                    // Tail-tolerant round: the control layer decides
                    // what this echo means (first reply, retry
                    // duplicate, hedge outcome) and owns the round
                    // release / host finish.
                    conn.round_rcvd += 1;
                    if fanout_reply_tail(w, s, h, c, rtt, end, now) {
                        continue;
                    }
                    break;
                }
                if !conn.background && conn.done_count >= w.topo.warmup {
                    conn.rtts.push(rtt);
                }
                conn.done_count += 1;
                conn.state = ConnState::WantWrite(0);
                let think = conn.think;
                let rounds = conn.done_count;
                if w.hosts[h].fanout.is_some() {
                    // The sub-request is done; the logical request is
                    // done when the host's slowest one is.
                    fanout_reply(w, s, h, c, rtt, now);
                    break;
                }
                if think > SimTime::ZERO {
                    // Churn pacing: idle before the next round, drawn
                    // uniformly from [think, 2*think). A fixed period
                    // would phase-lock with the measured rounds and
                    // turn the collision rate into a per-seed lottery;
                    // the draw makes background arrivals aperiodic, so
                    // fan-out amplification reflects probability, not
                    // phase.
                    let draw = splitmix64(host_seed(w.seed, h) ^ ((c as u64) << 40) ^ rounds)
                        % think.as_ns().max(1);
                    let at = now.max(s.now()) + think + SimTime::from_ns(draw);
                    s.schedule_raw_at(at, "dc-churn-next", conn_step_raw, pack(h, c));
                    break;
                }
            }
        }
    }
}

/// A fan-out sub-request's reply landed on client host `h`: update
/// the wait-for-all barrier. The last reply of a round records the
/// logical completion (the round's slowest sub-request RTT) and
/// either releases every connection into the next round or, after the
/// final round, finishes the host.
fn fanout_reply(
    w: &mut DcWorld,
    s: &mut Scheduler<DcWorld>,
    h: usize,
    c: usize,
    rtt: SimTime,
    now: SimTime,
) {
    let warmup = w.topo.warmup;
    let total = w.hosts[h].conns[c].total;
    let (pending, round, width) = {
        let ctl = w.hosts[h].fanout.as_mut().expect("fan-out host");
        ctl.round_max = ctl.round_max.max(rtt);
        ctl.pending -= 1;
        (ctl.pending, ctl.round, ctl.width)
    };
    if pending > 0 {
        w.hosts[h].conns[c].state = ConnState::AtBarrier;
        return;
    }
    {
        let ctl = w.hosts[h].fanout.as_mut().expect("fan-out host");
        if round >= warmup {
            let done = ctl.round_max;
            ctl.completions.push(done);
        }
        ctl.round += 1;
        ctl.round_max = SimTime::ZERO;
    }
    if round + 1 >= total {
        for j in 0..w.hosts[h].conns.len() {
            finish_client(w, h, j);
        }
        return;
    }
    w.hosts[h].fanout.as_mut().expect("fan-out host").pending = width;
    let at = now.max(s.now());
    for j in 0..w.hosts[h].conns.len() {
        w.hosts[h].conns[j].state = ConnState::WantWrite(0);
        s.schedule_raw_at(at, "dc-fanout-next", conn_step_raw, pack(h, j));
    }
}

/// The mitigated counterpart of [`fanout_reply`]: one full echo
/// arrived on connection `c` of tail-tolerant fan-out host `h`.
///
/// Returns `true` when the connection should keep reading (late retry
/// copies of the round are still in flight on its stream) and `false`
/// when it parked or the round ended. The round barrier itself is
/// unchanged — every stream drains before release — but the *recorded*
/// completion is the policy's: the K-th smallest slot time capped by
/// the deadline. Slots slower than that are counted as cancelled
/// stragglers; they drain through the barrier without being
/// re-measured (see DESIGN §2.17 on observational cancellation).
fn fanout_reply_tail(
    w: &mut DcWorld,
    s: &mut Scheduler<DcWorld>,
    h: usize,
    c: usize,
    rtt: SimTime,
    end: SimTime,
    now: SimTime,
) -> bool {
    let warmup = w.topo.warmup;
    let total = w.hosts[h].conns[c].total;
    let width = w.hosts[h].fanout.as_ref().expect("fan-out host").width;
    let slot = if c < width { c } else { c - width };
    let first_echo = w.hosts[h].conns[c].round_rcvd == 1;
    w.hosts[h].conns[c].got.clear();
    if first_echo {
        // A slot resolves at its first reply from either path; a
        // replica's reply is timed from the *primary's* request start,
        // since both race to answer the same logical sub-request.
        let slot_time = if c < width {
            rtt
        } else {
            end.quantized()
                .saturating_since(w.hosts[h].conns[slot].t_start)
        };
        let ctl = w.hosts[h].fanout.as_mut().expect("fan-out host");
        if ctl.slot_rtt[slot].is_none() {
            ctl.slot_rtt[slot] = Some(slot_time);
            ctl.p95.observe(slot_time);
            if ctl.hedged_slot == Some(slot) {
                // Scored when the slot resolves: the replica either
                // beat the primary or duplicated work it lost to.
                if c >= width {
                    ctl.hedges_won += 1;
                } else {
                    ctl.hedges_wasted += 1;
                }
            }
        }
        if ctl.round >= warmup {
            w.hosts[h].conns[c].rtts.push(rtt);
        }
    }
    {
        let conn = &w.hosts[h].conns[c];
        if conn.round_sent > conn.round_rcvd {
            // Retry copies of this round are still owed echoes on this
            // stream: drain them before parking at the barrier.
            return true;
        }
    }
    let (pending, round) = {
        let ctl = w.hosts[h].fanout.as_mut().expect("fan-out host");
        ctl.pending -= 1;
        (ctl.pending, ctl.round)
    };
    if pending > 0 {
        w.hosts[h].conns[c].state = if c < width {
            ConnState::AtBarrier
        } else {
            ConnState::Idle
        };
        return false;
    }
    // Barrier: every stream drained, so every slot resolved. Record
    // the policy's completion, not the slowest straggler's.
    let mut deadline_hit = false;
    {
        let ctl = w.hosts[h].fanout.as_mut().expect("fan-out host");
        let tail = ctl.tail.expect("mitigated fan-out host");
        let mut times: Vec<SimTime> = ctl
            .slot_rtt
            .iter()
            .map(|t| t.expect("every slot resolves by the barrier"))
            .collect();
        times.sort_unstable();
        let k = if tail.quorum == 0 {
            width
        } else {
            tail.quorum.min(width)
        };
        let kth = times[k - 1];
        let (completion, outcome) = match tail.deadline {
            Some(d) if kth > d => (d, RequestOutcome::DeadlineExceeded),
            _ => (kth, RequestOutcome::Ok),
        };
        ctl.cancelled += times.iter().filter(|&&t| t > completion).count() as u64;
        if outcome == RequestOutcome::DeadlineExceeded {
            ctl.deadline_exceeded += 1;
            deadline_hit = true;
        }
        if round >= warmup {
            ctl.completions.push(completion);
            ctl.outcomes.push(outcome);
        }
        ctl.round += 1;
    }
    if deadline_hit {
        // Flight recorder: a missed deadline is a trigger-worthy
        // anomaly — freeze the window around the straggling round.
        w.hosts[h]
            .kernel
            .taps
            .trigger(simcap::TriggerReason::DeadlineExceeded, now);
    }
    if round + 1 >= total {
        for j in 0..w.hosts[h].conns.len() {
            finish_client(w, h, j);
        }
        return false;
    }
    // Release the next round: primaries write, replicas park idle
    // until the hedge trigger activates one.
    let at = now.max(s.now());
    w.hosts[h].fanout.as_mut().expect("fan-out host").pending = width;
    for j in 0..w.hosts[h].conns.len() {
        if j < width {
            w.hosts[h].conns[j].state = ConnState::WantWrite(0);
            s.schedule_raw_at(at, "dc-fanout-next", conn_step_raw, pack(h, j));
        } else {
            w.hosts[h].conns[j].state = ConnState::Idle;
        }
    }
    arm_round(w, s, h, at);
    false
}

/// Arms one tail-tolerant round on fan-out host `h` released at `at`:
/// resets the slot scoreboard, refills the retry token bucket, and
/// schedules the round's hedge trigger and first-retry timers. Stale
/// timers from earlier rounds no-op via the round guard in their
/// handlers.
fn arm_round(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize, at: SimTime) {
    let (tail, width, round) = {
        let Some(ctl) = w.hosts[h].fanout.as_mut() else {
            return;
        };
        if ctl.aborted {
            return;
        }
        let Some(tail) = ctl.tail else {
            return;
        };
        ctl.round_start = at;
        for slot in ctl.slot_rtt.iter_mut() {
            *slot = None;
        }
        ctl.hedged_slot = None;
        if let Some(rp) = tail.retry {
            if ctl.round > 0 {
                // Token-bucket refill, once per round; the first round
                // starts from the full budget set at construction.
                ctl.tokens = (ctl.tokens + rp.refill).min(rp.budget);
            }
        }
        (tail, ctl.width, ctl.round)
    };
    for (j, conn) in w.hosts[h].conns.iter_mut().enumerate() {
        conn.round_sent = u32::from(j < width);
        conn.round_rcvd = 0;
    }
    if let Some(hp) = tail.hedge {
        // Adaptive trigger: the running p95 of resolved slot times,
        // falling back to the configured initial delay until the
        // estimator has seen a sample.
        let delay = hp.delay.unwrap_or_else(|| {
            let ctl = w.hosts[h].fanout.as_ref().expect("fan-out host");
            ctl.p95.upper_estimate().unwrap_or(hp.initial)
        });
        s.schedule_raw_at(
            at + delay,
            "dc-hedge",
            on_hedge_raw,
            pack(h, round as usize),
        );
    }
    if let Some(rp) = tail.retry {
        if rp.max_attempts > 1 {
            for slot in 0..width {
                let jitter = retry_jitter(w.seed, h, slot, round, 1, rp.jitter);
                s.schedule_raw_at(
                    at + rp.backoff + jitter,
                    "dc-retry",
                    on_retry_raw,
                    pack_retry(h, slot, round, 1),
                );
            }
        }
    }
}

/// First-round arm for a mitigated fan-out host (scheduled by
/// `prepare_dc` at the host's traffic slot; later rounds re-arm at the
/// barrier release).
fn on_round_arm_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: u64) {
    if let Some(resume) = paused_until(w, h as usize, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-arm", on_round_arm_raw, h);
        return;
    }
    arm_round(w, s, h as usize, s.now());
}

fn on_hedge_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, data: u64) {
    let h = (data >> 32) as usize;
    if let Some(resume) = paused_until(w, h, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-hedge", on_hedge_raw, data);
        return;
    }
    on_hedge(w, s, h, data & 0xffff_ffff);
}

/// The hedge trigger for round `round` on host `h`: reissue the
/// slowest outstanding sub-request to its replica server, race the
/// copies, take the first reply.
fn on_hedge(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize, round: u64) {
    let slot = {
        let Some(ctl) = w.hosts[h].fanout.as_ref() else {
            return;
        };
        // Stale trigger (the round already ended), an aborted host, or
        // a round that already hedged: no-op.
        if ctl.aborted || ctl.tail.is_none() || ctl.round != round || ctl.hedged_slot.is_some() {
            return;
        }
        // "Slowest outstanding": the round's sub-requests all started
        // together, so every unresolved slot is equally late; take the
        // first. If all resolved, the barrier is imminent.
        match ctl.slot_rtt.iter().position(Option::is_none) {
            Some(slot) => slot,
            None => return,
        }
    };
    let width = w.hosts[h].fanout.as_ref().expect("fan-out host").width;
    let rc = width + slot;
    if rc >= w.hosts[h].conns.len() || w.hosts[h].conns[rc].state != ConnState::Idle {
        return;
    }
    {
        let ctl = w.hosts[h].fanout.as_mut().expect("fan-out host");
        ctl.hedged_slot = Some(slot);
        ctl.hedges_issued += 1;
        ctl.pending += 1;
    }
    let conn = &mut w.hosts[h].conns[rc];
    conn.state = ConnState::WantWrite(0);
    conn.round_sent = 1;
    conn.round_rcvd = 0;
    s.schedule_raw_at(s.now(), "dc-hedge-send", conn_step_raw, pack(h, rc));
}

/// Packs a retry timer payload: host, slot, round (low 20 bits — the
/// handler compares masked, and stale timers are at most one round
/// old), attempt.
fn pack_retry(h: usize, slot: usize, round: u64, attempt: u32) -> u64 {
    ((h as u64) << 48) | ((slot as u64) << 36) | ((round & 0xf_ffff) << 16) | u64::from(attempt)
}

fn on_retry_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, data: u64) {
    let h = (data >> 48) as usize;
    if let Some(resume) = paused_until(w, h, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-retry", on_retry_raw, data);
        return;
    }
    let slot = ((data >> 36) & 0xfff) as usize;
    let round = (data >> 16) & 0xf_ffff;
    let attempt = (data & 0xffff) as u32;
    on_retry(w, s, h, slot, round, attempt);
}

/// Application-level retry timer for `slot` of round `round`: if the
/// slot is still unresolved and the budget has a token, write another
/// copy of the round's request on the same stream and chain the next
/// attempt at doubled backoff.
fn on_retry(
    w: &mut DcWorld,
    s: &mut Scheduler<DcWorld>,
    h: usize,
    slot: usize,
    round: u64,
    attempt: u32,
) {
    let rp = {
        let Some(ctl) = w.hosts[h].fanout.as_ref() else {
            return;
        };
        let Some(rp) = ctl.tail.and_then(|t| t.retry) else {
            return;
        };
        if ctl.aborted || (ctl.round & 0xf_ffff) != round || ctl.slot_rtt[slot].is_some() {
            return;
        }
        rp
    };
    {
        // Only retry a fully-written, still-waiting request: a primary
        // mid-write resolves through the normal continuation, and
        // interleaving a second copy into a partial first would
        // corrupt the stream.
        let conn = &w.hosts[h].conns[slot];
        if conn.state != ConnState::WantRead || conn.aborted {
            return;
        }
    }
    {
        let ctl = w.hosts[h].fanout.as_mut().expect("fan-out host");
        if ctl.tokens == 0 {
            ctl.budget_exhausted += 1;
            return;
        }
        ctl.tokens -= 1;
        ctl.retries_issued += 1;
    }
    let now = s.now();
    let (sock, data) = {
        let conn = &w.hosts[h].conns[slot];
        (conn.sock, dc_pattern(conn.size, conn.sent, conn.ident))
    };
    let out = {
        let host = &mut w.hosts[h];
        let DcHost { kernel, nic, .. } = host;
        kernel.syscall_write(now, sock, &data, nic)
    };
    flush_dc(w, s, h);
    if out.error.is_some() {
        abort_pair(w, h, slot);
        return;
    }
    if out.blocked {
        if out.accepted > 0 {
            // A partial copy entered the stream; the writer-wakeup
            // machinery completes it (effectively unreachable: the
            // socket buffer dwarfs a handful of small RPC copies).
            let conn = &mut w.hosts[h].conns[slot];
            conn.state = ConnState::WantWrite(out.accepted);
            conn.round_sent += 1;
        }
        // accepted == 0 leaves the stream untouched: the token is
        // spent, the copy never went out.
    } else {
        let conn = &mut w.hosts[h].conns[slot];
        conn.sent += 1;
        conn.round_sent += 1;
    }
    if attempt + 1 < rp.max_attempts {
        let backoff = SimTime::from_ns(rp.backoff.as_ns() << attempt);
        let jitter = retry_jitter(w.seed, h, slot, round, attempt + 1, rp.jitter);
        s.schedule_raw_at(
            now + backoff + jitter,
            "dc-retry",
            on_retry_raw,
            pack_retry(h, slot, round, attempt + 1),
        );
    }
}

/// Deterministic key-derived retry jitter in `[0, jitter)`: a pure
/// function of `(seed, host, slot, round, attempt)`, so the schedule
/// is byte-identical at any sweep worker count.
fn retry_jitter(
    seed: u64,
    h: usize,
    slot: usize,
    round: u64,
    attempt: u32,
    jitter: SimTime,
) -> SimTime {
    if jitter == SimTime::ZERO {
        return SimTime::ZERO;
    }
    let key = host_seed(seed, h) ^ ((slot as u64) << 40) ^ (round << 8) ^ u64::from(attempt);
    SimTime::from_ns(splitmix64(key) % jitter.as_ns())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PcbStrategy;

    fn quick(clients: usize, fanin: usize, conns: usize) -> Topology {
        let mut t = Topology::incast(clients, fanin, conns);
        t.iterations = 2;
        t.warmup = 1;
        t
    }

    #[test]
    fn two_host_world_completes() {
        let r = run_dc(&quick(1, 1, 1), TrafficSchedule::staggered(), 7);
        assert_eq!(r.rtts.len(), 2);
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.aborted_conns, 0);
        assert!(r.switch_forwarded > 0, "traffic crossed the switch");
        assert!(r.rtts.iter().all(|&t| t > SimTime::ZERO));
    }

    #[test]
    fn incast_completes_and_measures_every_connection() {
        let topo = quick(4, 4, 2);
        let r = run_dc(&topo, TrafficSchedule::staggered(), 11);
        // 4 clients x 2 conns x 2 measured iterations.
        assert_eq!(r.rtts.len(), 16);
        assert_eq!(r.verify_failures, 0);
        assert!(r.server_pcb.lookups > 0);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let topo = quick(3, 2, 2);
        let a = run_dc(&topo, TrafficSchedule::staggered(), 5);
        let b = run_dc(&topo, TrafficSchedule::staggered(), 5);
        assert_eq!(a.rtts, b.rtts);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.pcb, b.pcb);
    }

    #[test]
    fn fanin_contention_raises_tail_latency() {
        // Same client count and load; fan-in 1 gives every client its
        // own server, fan-in 8 funnels them into one port.
        let spread = run_dc(&quick(8, 1, 1), TrafficSchedule::synchronized(), 3);
        let funnel = run_dc(&quick(8, 8, 1), TrafficSchedule::synchronized(), 3);
        let max = |r: &DcRunResult| r.rtts.iter().copied().fold(SimTime::ZERO, SimTime::max);
        assert!(
            max(&funnel) > max(&spread),
            "incast must queue: funnel {:?} vs spread {:?}",
            max(&funnel),
            max(&spread)
        );
        assert!(funnel.max_backlog_cells > spread.max_backlog_cells);
    }

    #[test]
    fn strategies_agree_on_results_and_differ_on_traversal() {
        let mut base = quick(2, 2, 8);
        let mut results = Vec::new();
        for strat in PcbStrategy::ALL {
            base.strategy = strat;
            results.push(run_dc(&base, TrafficSchedule::staggered(), 9));
        }
        for r in &results {
            assert_eq!(r.verify_failures, 0);
            assert_eq!(r.rtts.len(), results[0].rtts.len());
        }
        let hash = &results[2];
        let mtf = &results[0];
        assert!(
            hash.server_search_len() < mtf.server_search_len(),
            "hash probes beat list traversal at 16 server PCBs: {} vs {}",
            hash.server_search_len(),
            mtf.server_search_len()
        );
    }

    #[test]
    fn fanout_world_completes_and_records_completions() {
        let mut t = Topology::fanout(2, 4);
        t.iterations = 3;
        t.warmup = 1;
        let r = run_dc(&t, TrafficSchedule::staggered(), 7);
        // 2 clients x 3 measured logical requests.
        assert_eq!(r.completions.len(), 6);
        // Sub-request RTTs: 2 clients x 4 conns x 3 measured rounds.
        assert_eq!(r.rtts.len(), 24);
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.fanout_aborts, 0);
        assert!(r.completions.iter().all(|&t| t > SimTime::ZERO));
    }

    #[test]
    fn fanout_completion_is_the_rounds_slowest_subrequest() {
        let mut t = Topology::fanout(1, 4);
        t.iterations = 4;
        t.warmup = 1;
        let w = run_dc_world(&t, TrafficSchedule::staggered(), 3);
        let ctl = w.hosts[0].fanout.as_ref().expect("fan-out client");
        assert_eq!(ctl.completions.len(), 4);
        for r in 0..4 {
            let slowest = (0..4)
                .map(|j| w.hosts[0].conns[j].rtts[r])
                .max()
                .expect("four sub-requests");
            assert_eq!(ctl.completions[r], slowest, "round {r}");
        }
    }

    #[test]
    fn fanout_width_one_matches_subrequest_rtts_exactly() {
        let mut t = Topology::fanout(2, 1);
        t.iterations = 3;
        t.warmup = 1;
        let r = run_dc(&t, TrafficSchedule::staggered(), 9);
        assert_eq!(r.completions, r.rtts, "N=1: the sub-request IS the request");
    }

    #[test]
    fn fanout_same_seed_is_bit_identical() {
        let mut t = Topology::fanout(2, 4);
        t.iterations = 2;
        t.warmup = 1;
        t.churn = Some(crate::topology::ChurnTraffic::background());
        let a = run_dc(&t, TrafficSchedule::staggered(), 5);
        let b = run_dc(&t, TrafficSchedule::staggered(), 5);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.rtts, b.rtts);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_time, b.sim_time);
    }

    #[test]
    fn churn_world_stops_when_measured_clients_finish() {
        let mut t = Topology::fanout(1, 2);
        t.iterations = 2;
        t.warmup = 1;
        t.churn = Some(crate::topology::ChurnTraffic::background());
        let r = run_dc(&t, TrafficSchedule::staggered(), 5);
        assert_eq!(r.completions.len(), 2);
        assert_eq!(r.verify_failures, 0);
    }

    #[test]
    fn noop_tail_policy_is_byte_identical_to_classic() {
        // An all-default TailPolicy normalizes away: the classic
        // wait-for-all path must run event-for-event.
        let mut t = Topology::fanout(2, 4);
        t.iterations = 2;
        t.warmup = 1;
        let classic = run_dc(&t, TrafficSchedule::staggered(), 5);
        t.tail = Some(crate::topology::TailPolicy::default());
        let noop = run_dc(&t, TrafficSchedule::staggered(), 5);
        assert_eq!(classic.rtts, noop.rtts);
        assert_eq!(classic.completions, noop.completions);
        assert_eq!(classic.events, noop.events);
        assert_eq!(classic.sim_time, noop.sim_time);
        assert_eq!(noop.hedges_issued, 0);
        assert_eq!(noop.retries_issued, 0);
    }

    #[test]
    fn deadline_caps_completions_and_types_the_outcome() {
        let mut t = Topology::fanout(1, 4);
        t.iterations = 4;
        t.warmup = 1;
        let base = run_dc(&t, TrafficSchedule::staggered(), 3);
        // A deadline strictly below the slowest clean-run completion
        // must cap that round and mark it DeadlineExceeded. (One
        // quantum below: clean deterministic rounds can all complete
        // in exactly the same time.)
        let slowest = base.completions.iter().copied().max().unwrap();
        let deadline = SimTime::from_ns(slowest.as_ns() - 40);
        t.tail = Some(crate::topology::TailPolicy {
            deadline: Some(deadline),
            ..Default::default()
        });
        let capped = run_dc(&t, TrafficSchedule::staggered(), 3);
        assert_eq!(capped.completions.len(), base.completions.len());
        assert!(capped.deadline_exceeded > 0, "no round hit the deadline");
        assert!(capped.cancelled > 0, "no straggler was cancelled");
        assert!(capped
            .completions
            .iter()
            .all(|&c| c <= deadline.max(slowest)));
        assert!(
            capped.completions.contains(&deadline),
            "an exceeded round records the deadline itself"
        );
        assert_eq!(capped.mbufs_leaked, 0);
    }

    #[test]
    fn hedged_world_issues_hedges_and_scores_them() {
        let mut t = Topology::fanout(1, 4);
        t.iterations = 6;
        t.warmup = 1;
        t.tail = Some(crate::topology::TailPolicy {
            hedge: Some(crate::topology::HedgePolicy {
                // Hedge almost immediately so every round hedges.
                delay: Some(SimTime::from_us(100)),
                ..Default::default()
            }),
            ..Default::default()
        });
        let r = run_dc(&t, TrafficSchedule::staggered(), 7);
        assert_eq!(r.completions.len(), 6);
        assert_eq!(r.verify_failures, 0);
        assert!(r.hedges_issued > 0, "no hedge fired");
        assert_eq!(r.hedges_won + r.hedges_wasted, r.hedges_issued);
        assert_eq!(r.mbufs_leaked, 0);
    }

    #[test]
    fn retry_budget_bounds_retries_per_round() {
        let mut t = Topology::fanout(1, 2);
        t.iterations = 4;
        t.warmup = 0;
        t.tail = Some(crate::topology::TailPolicy {
            retry: Some(crate::topology::RetryPolicy {
                max_attempts: 4,
                // Backoff far below the RTT: every attempt fires
                // before the first echo lands.
                backoff: SimTime::from_us(50),
                jitter: SimTime::ZERO,
                budget: 3,
                refill: 1,
            }),
            ..Default::default()
        });
        let r = run_dc(&t, TrafficSchedule::staggered(), 11);
        assert_eq!(r.completions.len(), 4);
        assert_eq!(r.verify_failures, 0, "retried echoes must still verify");
        assert!(r.retries_issued > 0, "no retry fired");
        assert!(
            r.budget_exhausted > 0,
            "the token bucket never ran dry: {} retries",
            r.retries_issued
        );
        // 3 initial tokens + 1 per round refill across 3 releases.
        assert!(r.retries_issued <= 6, "budget leak: {}", r.retries_issued);
        assert_eq!(r.mbufs_leaked, 0);
    }

    #[test]
    fn pattern_is_connection_unique() {
        let a = dc_pattern(64, 0, (0, 0));
        assert_ne!(a, dc_pattern(64, 0, (0, 1)));
        assert_ne!(a, dc_pattern(64, 0, (1, 0)));
        assert_ne!(a, dc_pattern(64, 1, (0, 0)));
        assert_eq!(a, dc_pattern(64, 0, (0, 0)));
    }
}
