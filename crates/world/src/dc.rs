//! The N-host datacenter world: many hosts, one shared cell switch.
//!
//! [`DcWorld`] generalizes the two-host world of `latency-core` to an
//! arbitrary [`Topology`]: every host runs its own `tcpip` kernel with
//! its own CPU timeline and its own TCA-100 uplink, and all traffic
//! crosses one shared output-queued [`AtmSwitch`], so incast fan-in
//! actually queues (and, past the port queue capacity, tail-drops into
//! TCP's loss recovery). The event loop is the same four-event cycle —
//! connection step, datagram arrival, software interrupt, TCP timer —
//! with the host index packed into the raw event payload. Delivery,
//! arrival, the software interrupt, the timers and the pause rule are
//! `latency_core::host`'s, as in the two-host world; this world owns
//! the connection steps and the fan-out round events, where a train
//! lands (through the shared switch, then down the destination's
//! link), and the fan-out landing stamp.
//!
//! Determinism: the world is a pure function of
//! `(Topology, TrafficSchedule, seed)`. Per-host randomness derives
//! from the seed by host index, the switch has its own stream, and the
//! switch pass runs at event-execution time inside one simulation —
//! nothing depends on wall clock or scheduling outside the sim.
//!
//! A world is the disjoint union of its components
//! ([`Topology::components`]), and [`run_dc`] runs each one as its own
//! simulation, on the sweep pool, then merges the results. A run and a
//! study cell's repetitions pool into one result type, [`DcResult`],
//! by one rule: counters add, the final time and the deepest backlog
//! keep their maximum, samples append. That run is
//! the whole world's, byte for byte: a component's events keep their
//! relative `(time, seq)` order, the switch keeps its queues and
//! counters per output port, and every per-host stream, delay, start
//! time, address, VCI and MID derives from the host's *global* index
//! (`DcWorld::ids`), never from its place in the component.

use std::sync::OnceLock;

use atm::{AtmSwitch, VcRoute};
use decstation::CostModel;
use faultkit::PauseSchedule;
use latency_core::app::{period_fill, period_matches};
use latency_core::host::{deferred, flush, pack, unpack, Hosts, InFlight, RawEvent};
use latency_core::nic::{arm_host, AtmNic, NicMut, Train};
use latency_core::Samples;
use simkit::{Scheduler, Sim, SimTime};
use tcpip::config::tcp_mss;
use tcpip::{Kernel, PcbCounters, PcbKey, SockId};

use crate::study::MitigationCost;
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
    /// Peer host index, in the world's own (local) numbering.
    pub peer_host: usize,
    /// Peer connection index on the peer host.
    pub peer_conn: usize,
    /// Connection identity for payload verification: the client-side
    /// `(global host, conn)` pair, identical on both endpoints.
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
    /// `done_count` until application retries reissue a round's
    /// request on the same stream.
    sent: u64,
    /// Full messages read back (client side): the pattern index the
    /// next incoming echo must verify against.
    rcvd: u64,
    /// Copies of the current round's request written on this stream
    /// (initial send + retries); fan-out only.
    round_sent: u32,
    /// Echoes of the current round received so far; fan-out only. A
    /// connection parks at the barrier only once
    /// `round_rcvd == round_sent`, draining late retry echoes first.
    round_rcvd: u32,
}

/// Typed outcome of one logical fan-out request.
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

/// Fan-out bookkeeping for one client host: the host's `width`
/// connections each carry one sub-request per round.
///
/// Each of the `width` *slots* resolves at its first reply (primary or
/// hedged replica), and the logical completion is the K-th smallest
/// slot time capped by the [`TailPolicy`] deadline; late copies drain
/// through the barrier without being re-measured. The default policy
/// is wait-for-all: K = width and no deadline, so the completion is
/// the slowest reply.
pub struct FanoutCtl {
    /// Fan-out width (== the host's primary connection count).
    pub width: usize,
    /// Connections still mid-round (primaries plus the activated
    /// replica, if any).
    pending: usize,
    /// Completed barrier rounds.
    round: u64,
    /// Per-round completion times, recorded after warm-up: the
    /// policy's K-th smallest slot time capped by the deadline.
    pub completions: Vec<SimTime>,
    /// Set when the retransmit limit killed one of the host's
    /// sub-request connections: the remaining rounds can never
    /// complete, so the whole fan-out host aborts.
    pub aborted: bool,
    /// The tail-tolerance policy.
    tail: TailPolicy,
    /// First-reply time of each of the `width` slots this round.
    slot_rtt: Vec<Option<SimTime>>,
    /// Retry tokens left in the per-client budget bucket.
    tokens: u32,
    /// The slot hedged this round, if the hedge trigger fired.
    hedged_slot: Option<usize>,
    /// Running upper-tail estimate of resolved slot times — the
    /// adaptive hedge delay (an upper-only [`simcap::Recorder`]).
    p95: simcap::Recorder,
    /// Typed per-request outcomes, parallel to `completions`.
    pub outcomes: Vec<RequestOutcome>,
    /// The policy's cost counters over the whole run, warm-up
    /// included.
    pub cost: MitigationCost,
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
    /// Fan-out barrier state (measured client hosts of a fan-out
    /// world only).
    pub fanout: Option<FanoutCtl>,
    /// Pause windows, as `arm_host` returned them.
    pause: Option<PauseSchedule>,
}

/// The datacenter world.
pub struct DcWorld {
    /// The topology (plain data).
    pub topo: Topology,
    /// The traffic schedule (plain data).
    pub sched: TrafficSchedule,
    /// The world's hosts, in ascending global order: `hosts[h]` is
    /// topology host `ids[h]`. A whole world holds every host, clients
    /// `0..topo.clients` then servers.
    pub hosts: Vec<DcHost>,
    /// Global topology index of each local host, ascending. Events,
    /// `DcConn::peer_host`, NIC peers, parked trains and switch ports
    /// use local indices; topology queries and seeds take `ids[h]`.
    ids: Vec<usize>,
    /// The shared switch; local host `h` is both input and output
    /// port `h`.
    pub switch: AtmSwitch,
    /// Client connections of this world still running.
    live_clients: usize,
    /// The world seed; churn think-time draws derive from it.
    seed: u64,
    /// The cell trains past the switch.
    in_flight: InFlight,
    /// The request a client connection is writing, built in place each
    /// time ([`dc_pattern`]). One per world: a write copies it into
    /// mbufs before the next one starts.
    request: Vec<u8>,
}

// The parallel sweep runner builds and runs one world per cell inside
// a worker thread; the world must be able to cross threads.
const _: () = simkit::assert_world_send::<DcWorld>();

/// The expected bytes of one RPC, a pure function of the connection
/// identity and the iteration — so a segment delivered to the wrong
/// connection (a PCB demultiplex bug) fails verification instead of
/// passing silently. Byte `i` is `(i + salt) % 251`, where the salt
/// mixes `iter` and `ident`. Written into `buf`, reusing its storage.
pub fn dc_pattern(buf: &mut Vec<u8>, size: usize, iter: u64, ident: (usize, usize)) {
    period_fill(buf, &PATTERN_PERIOD, pattern_start(iter, ident), size);
}

/// Whether `got` is exactly the `dc_pattern` of `size`, `iter` and
/// `ident`, compared in place.
fn pattern_matches(got: &[u8], size: usize, iter: u64, ident: (usize, usize)) -> bool {
    period_matches(got, &PATTERN_PERIOD, pattern_start(iter, ident), size)
}

/// One period of the pattern: byte `k` is `k`.
const PATTERN_PERIOD: [u8; 251] = {
    let mut t = [0; 251];
    let mut k = 0;
    while k < t.len() {
        t[k] = k as u8;
        k += 1;
    }
    t
};

/// Where the pattern starts in [`PATTERN_PERIOD`]: `salt % 251`.
fn pattern_start(iter: u64, ident: (usize, usize)) -> usize {
    let salt = iter
        .wrapping_mul(131)
        .wrapping_add(ident.0 as u64 * 17)
        .wrapping_add(ident.1 as u64 * 7);
    (salt % 251) as usize
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
    /// Builds the whole world: one kernel + uplink per host, the
    /// shared switch with a per-destination VC plan, and every
    /// client-server connection pair established administratively with
    /// aligned sequence state (the paper measures established
    /// connections).
    #[must_use]
    pub fn new(topo: Topology, sched: TrafficSchedule, seed: u64) -> DcWorld {
        let ids = (0..topo.hosts()).collect();
        DcWorld::over(topo, sched, seed, ids)
    }

    /// Builds the world over the topology hosts `ids` (ascending), which
    /// must hold every peer of every client among them: the whole world,
    /// or one of [`Topology::components`].
    fn over(topo: Topology, sched: TrafficSchedule, seed: u64, ids: Vec<usize>) -> DcWorld {
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
        debug_assert!(ids.windows(2).all(|p| p[0] < p[1]), "ascending host ids");
        let mut local = vec![usize::MAX; n];
        for (l, &g) in ids.iter().enumerate() {
            local[g] = l;
        }
        let costs = CostModel::calibrated();
        let cfg = topo.strategy.apply(topo.stack);
        let mut hosts = Vec::with_capacity(ids.len());
        for &h in &ids {
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
            // jitter would reorder a multi-cell AAL3/4 train, and the
            // reassembler drops the PDU on the sequence-number gap
            // (`Aal34Error::Sequence`). The aperiodic think-time draw
            // is the churn RNG stream instead.
            let faults = if topo.faults_apply_to(h) {
                topo.faults
            } else {
                faultkit::FaultSchedule::default()
            };
            let pause = arm_host(&faults, &kernel, NicMut::Atm(&mut nic), hs)
                .unwrap_or_else(|refusal| panic!("{refusal}"));
            let fanout = (topo.fanout_width > 0 && h < topo.clients).then(|| FanoutCtl {
                width: topo.fanout_width,
                pending: topo.fanout_width,
                round: 0,
                completions: Vec::new(),
                aborted: false,
                tail: topo.tail,
                slot_rtt: vec![None; topo.fanout_width],
                tokens: topo.tail.retry.map_or(0, |r| r.budget),
                hedged_slot: None,
                p95: simcap::Recorder::upper_only(),
                outcomes: Vec::new(),
                cost: MitigationCost::default(),
            });
            hosts.push(DcHost {
                kernel,
                nic,
                conns: Vec::new(),
                fanout,
                pause,
            });
        }

        // Client-side hosts in wiring order: measured clients, then
        // churn hosts (ascending ids put them in that order).
        let client_side: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&h| h < topo.clients || h >= measured)
            .collect();
        // The switch stream keys on the whole topology's size.
        let mut switch = AtmSwitch::new(ids.len(), topo.switch, host_seed(seed, n + 1));
        for &c in &client_side {
            let mut wired: Vec<usize> = Vec::new();
            for j in 0..topo.conns_of(c) {
                let srv = topo.peer_server(c, j);
                if wired.contains(&srv) {
                    continue;
                }
                wired.push(srv);
                for (src, dst) in [(c, srv), (srv, c)] {
                    let (src_l, dst_l) = (local[src], local[dst]);
                    // The MID carries the low bits of the sender index
                    // (10-bit field); trains are delivered whole, so
                    // MID collisions cannot occur mid-reassembly.
                    let mid = (src & 0x3ff) as u16;
                    hosts[src_l].nic.add_peer(
                        Topology::addr(dst),
                        dst_l,
                        Topology::vci_to(dst),
                        mid,
                    );
                    switch.add_vc(
                        src_l,
                        0,
                        Topology::vci_to(dst),
                        VcRoute {
                            out_port: dst_l,
                            out_vpi: 0,
                            out_vci: Topology::vci_to(dst),
                        },
                    );
                }
            }
        }

        let mss = tcp_mss(topo.mtu, cfg.mss_one_cluster);
        let mut live_clients = 0;
        for &c in &client_side {
            let background = c >= measured;
            if !background {
                live_clients += topo.conns_of(c);
            }
            let c_l = local[c];
            for j in 0..topo.conns_of(c) {
                let srv = topo.peer_server(c, j);
                let srv_l = local[srv];
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
                    .get_disjoint_mut([c_l, srv_l])
                    .expect("client and server are distinct hosts");
                let (sock_c, sock_s) =
                    Kernel::connect_pair(&mut client.kernel, &mut server.kernel, key, mss);
                debug_assert_eq!(sock_c, hosts[c_l].conns.len());
                debug_assert_eq!(sock_s, hosts[srv_l].conns.len());
                let conn_s = hosts[srv_l].conns.len();
                // Replica connections of a hedged fan-out client park
                // idle until a hedge trigger activates them.
                let fanout_client = !background && topo.fanout_width > 0 && c < topo.clients;
                let replica = fanout_client && j >= topo.fanout_width;
                hosts[c_l].conns.push(DcConn {
                    sock: sock_c,
                    client: true,
                    peer_host: srv_l,
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
                    // Round one's request is on its way from the start;
                    // `arm_round` resets this for every later round.
                    round_sent: u32::from(fanout_client && !replica),
                    round_rcvd: 0,
                });
                hosts[srv_l].conns.push(DcConn {
                    sock: sock_s,
                    client: false,
                    peer_host: c_l,
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

        DcWorld {
            topo,
            sched,
            hosts,
            ids,
            switch,
            live_clients,
            seed,
            in_flight: InFlight::default(),
            request: Vec::new(),
        }
    }

    /// Whether every connection on every host has finished.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.hosts
            .iter()
            .all(|h| h.conns.iter().all(|c| c.state == ConnState::Done))
    }
}

/// A datacenter world's pooled outcome, declared once for both of its
/// sample containers: one run of a world ([`DcRunResult`], every
/// sample in a `Vec`) and one study cell pooled over its repetitions
/// ([`DcCellResult`], exact or sketched [`Samples`]). Components merge
/// into a run, and runs into a cell, through one pooling rule, the
/// crate's `DcResult::absorb`.
#[derive(Debug, Default, PartialEq)]
pub struct DcResult<S> {
    /// The study cell's key; empty on a bare run.
    pub key: String,
    /// The cell's key-derived base seed (its rep 0's); 0 on a bare run.
    pub seed: u64,
    /// Repetitions a cell pools; 0 on a bare run.
    pub reps: u64,
    /// Every measured RPC round-trip, in (rep, client host,
    /// connection, iteration) order — a stable order so reports are
    /// byte-identical across `--jobs` values.
    pub rtts: S,
    /// Fan-out worlds: per-logical-request completion times (the tail
    /// policy's K-th smallest sub-request RTT capped by its deadline;
    /// the max under wait-for-all), in (rep, client host) order.
    /// Empty in incast worlds.
    pub completions: S,
    /// Events executed by the simulation.
    pub events: u64,
    /// Final simulated time (the longest component's and rep's).
    pub sim_time: SimTime,
    /// Payload verification failures across every endpoint.
    pub verify_failures: u64,
    /// Connections that aborted (retransmit limit, under faults).
    pub aborted_conns: u64,
    /// Fan-out client hosts whose rounds were cut short by an abort.
    pub fanout_aborts: u64,
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
    /// Tail-policy cost counters summed over every fan-out client.
    pub cost: MitigationCost,
}

/// One run of a world.
pub type DcRunResult = DcResult<Vec<SimTime>>;

/// One study cell's outcome, pooled over its repetitions.
pub type DcCellResult = DcResult<Samples>;

/// A sample container a [`DcResult`] pools round trips into.
pub(crate) trait Pool {
    /// Appends `times`, in order.
    fn pool(&mut self, times: &[SimTime]);
}

impl Pool for Vec<SimTime> {
    fn pool(&mut self, times: &[SimTime]) {
        self.extend_from_slice(times);
    }
}

impl Pool for Samples {
    fn pool(&mut self, times: &[SimTime]) {
        self.extend_from(times);
    }
}

impl<S> DcResult<S> {
    /// Pools one run (or one component's share of a run) into this
    /// result: samples append in order, counters add, and the
    /// simulated time and the deepest backlog keep their maximum.
    /// `key`, `seed` and `reps` name the pooled result and stay as
    /// they are. The run is destructured field by field, so a field
    /// added to [`DcResult`] fails to compile here until it is pooled.
    pub(crate) fn absorb(&mut self, r: &DcRunResult)
    where
        S: Pool,
    {
        let DcResult {
            key: _,
            seed: _,
            reps: _,
            rtts,
            completions,
            events,
            sim_time,
            verify_failures,
            aborted_conns,
            fanout_aborts,
            server_pcb,
            switch_forwarded,
            switch_drops,
            epd_drops,
            ppd_drops,
            max_backlog_cells,
            rexmits,
            rto_fires,
            mbufs_leaked,
            cost,
        } = r;
        self.rtts.pool(rtts);
        self.completions.pool(completions);
        self.events += events;
        self.sim_time = self.sim_time.max(*sim_time);
        self.verify_failures += verify_failures;
        self.aborted_conns += aborted_conns;
        self.fanout_aborts += fanout_aborts;
        self.server_pcb += *server_pcb;
        self.switch_forwarded += switch_forwarded;
        self.switch_drops += switch_drops;
        self.epd_drops += epd_drops;
        self.ppd_drops += ppd_drops;
        self.max_backlog_cells = self.max_backlog_cells.max(*max_backlog_cells);
        self.rexmits += rexmits;
        self.rto_fires += rto_fires;
        self.mbufs_leaked += mbufs_leaked;
        self.cost += *cost;
    }
}

/// Builds and runs a world to completion: each of its
/// [`Topology::components`] as its own simulation on the sweep pool,
/// with up to `available_parallelism()` workers (inline when called
/// from inside a sweep worker), merged into the whole world's result.
/// Each component is built inside its worker and dropped there once
/// its result is taken; the whole world is never built.
///
/// # Panics
///
/// Panics if a component's event queue drains while one of its client
/// connections is still waiting — a protocol deadlock, which the tests
/// treat as a bug.
#[must_use]
pub fn run_dc(topo: &Topology, sched: TrafficSchedule, seed: u64) -> DcRunResult {
    // The host's parallelism, read once: the query parses cgroup files.
    static WORKERS: OnceLock<usize> = OnceLock::new();
    let workers = *WORKERS.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    merge(sweep::pool::run_ordered(
        &topo.components(),
        workers,
        |_, ids| run_part(topo, sched, seed, ids.clone()),
    ))
}

/// One component's share of a run.
struct Part {
    /// `(global host, round trips, fan-out completions)` of each host,
    /// ascending.
    hosts: Vec<(usize, Vec<SimTime>, Vec<SimTime>)>,
    /// Every other field over the component; `rtts` and `completions`
    /// stay empty.
    totals: DcRunResult,
}

/// Builds and runs the world over hosts `ids` and takes its results.
fn run_part(topo: &Topology, sched: TrafficSchedule, seed: u64, ids: Vec<usize>) -> Part {
    let mut sim = run_dc_sim(DcWorld::over(topo.clone(), sched, seed, ids));
    let (events, sim_time) = (sim.events_executed(), sim.now());
    let w = &mut sim.world;
    let (clients, measured) = (w.topo.clients, w.topo.measured_hosts());
    let mut totals = DcRunResult {
        events,
        sim_time,
        rexmits: w.hosts.iter().map(|h| h.kernel.rexmits_total()).sum(),
        rto_fires: w.hosts.iter().map(|h| h.kernel.stats.rto_fires).sum(),
        ..DcRunResult::default()
    };
    for p in 0..w.switch.ports() {
        let ps = w.switch.port_stats(p);
        totals.switch_forwarded += ps.forwarded;
        totals.switch_drops += ps.queue_drops;
        totals.epd_drops += ps.epd_drops;
        totals.ppd_drops += ps.ppd_drops;
        totals.max_backlog_cells = totals.max_backlog_cells.max(ps.max_backlog_cells);
    }
    let mut hosts = Vec::with_capacity(w.hosts.len());
    for (&g, host) in w.ids.iter().zip(&mut w.hosts) {
        if g >= clients && g < measured {
            totals.server_pcb += host.kernel.pcbs.counters();
        }
        let mut rtts = Vec::new();
        for conn in &mut host.conns {
            rtts.append(&mut conn.rtts);
            totals.verify_failures += conn.verify_failures;
            totals.aborted_conns += u64::from(conn.aborted);
        }
        let mut completions = Vec::new();
        if let Some(ctl) = &mut host.fanout {
            completions = std::mem::take(&mut ctl.completions);
            totals.fanout_aborts += u64::from(ctl.aborted);
            totals.cost += ctl.cost;
        }
        hosts.push((g, rtts, completions));
    }
    // Teardown frees every chain still held by sockets, queues and
    // adapters — including the connections of cancelled or hedged
    // sub-requests; whatever remains outstanding is a genuine leak.
    let pools: Vec<_> = w.hosts.iter().map(|h| h.kernel.pool.clone()).collect();
    drop(sim);
    totals.mbufs_leaked = pools.iter().map(|p| p.stats().mbufs_outstanding()).sum();
    Part { hosts, totals }
}

/// Merges component results into the whole world's, in any part
/// order: each part's totals through [`DcResult::absorb`], then round
/// trips and completions in global host order.
fn merge(parts: Vec<Part>) -> DcRunResult {
    let mut r = DcRunResult::default();
    let mut hosts = Vec::new();
    for part in parts {
        hosts.extend(part.hosts);
        r.absorb(&part.totals);
    }
    hosts.sort_unstable_by_key(|&(g, ..)| g);
    for (_, rtts, completions) in hosts {
        r.rtts.extend(rtts);
        r.completions.extend(completions);
    }
    r
}

/// Builds and runs the whole world, returning the final world state —
/// tests inspect per-connection sub-request RTTs and per-host fan-out
/// completions directly.
///
/// # Panics
///
/// Panics on protocol deadlock, like [`run_dc`].
#[must_use]
pub fn run_dc_world(topo: &Topology, sched: TrafficSchedule, seed: u64) -> DcWorld {
    run_dc_sim(DcWorld::new(topo.clone(), sched, seed)).world
}

fn run_dc_sim(world: DcWorld) -> Sim<DcWorld> {
    let mut sim = prepare_dc(world);
    if sim.world.topo.churn.is_some() {
        // Churn connections never finish on their own: stop when the
        // measured clients are done instead of draining the queue.
        let _ = sim.run_while(|w| !w.finished());
    } else {
        sim.run();
        debug_assert!(
            sim.world.in_flight.is_empty(),
            "a drained run parks nothing"
        );
    }
    let w = &sim.world;
    assert!(
        w.finished(),
        "deadlock: event queue empty with live connections \
         (hosts {}..={} of {}, live_clients {})",
        w.ids[0],
        w.ids[w.ids.len() - 1],
        w.topo.hosts(),
        w.live_clients
    );
    sim
}

/// Builds the simulation over a world: schedules every connection's
/// start event (servers first, at t = 0, so they are blocked in read
/// before any client writes; clients per the traffic schedule).
fn prepare_dc(world: DcWorld) -> Sim<DcWorld> {
    let mut sim = Sim::new(world);
    let clients = sim.world.topo.clients;
    let measured = sim.world.topo.measured_hosts();
    // `(local, global)` of the hosts whose global index is in `role`,
    // ascending, as in the whole world.
    let ids = sim.world.ids.clone();
    let local = |role: std::ops::Range<usize>| -> Vec<(usize, usize)> {
        ids.iter()
            .enumerate()
            .filter(|&(_, g)| role.contains(g))
            .map(|(h, &g)| (h, g))
            .collect()
    };
    for (h, _) in local(clients..measured) {
        for c in 0..sim.world.hosts[h].conns.len() {
            sim.schedule_raw(SimTime::ZERO, "dc-conn-start", conn_step, pack(h, c));
        }
    }
    let sched = sim.world.sched;
    let fanout = sim.world.topo.fanout_width > 0;
    let mitigated = fanout && sim.world.topo.mitigated();
    for (h, g) in local(0..clients) {
        // A fan-out host whose policy arms a lever schedules round
        // one's control events (hedge trigger, retry timers) at its
        // traffic slot; every later round re-arms at its release.
        // Wait-for-all arms nothing, so it schedules no event here.
        if mitigated {
            sim.schedule_raw(sched.start_of(g, 0), "dc-round-arm", on_round_arm, h as u64);
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
                sched.start_of(g, 0)
            } else {
                sched.start_of(g, c)
            };
            sim.schedule_raw(at, "dc-conn-start", conn_step, pack(h, c));
        }
    }
    // Churn connections spread their first rounds across one think
    // period so the background load starts de-phased instead of as
    // one burst.
    if let Some(ch) = sim.world.topo.churn.clone() {
        let servers = sim.world.topo.servers() as u64;
        for (h, g) in local(measured..usize::MAX) {
            for c in 0..sim.world.hosts[h].conns.len() {
                // Spread by the global server index so the whole
                // churn population covers one think period even when
                // it is sliced across several churn hosts.
                let srv = (sim.world.topo.peer_server(g, c) - clients) as u64;
                let spread = SimTime::from_ns(ch.think.as_ns() / servers * srv);
                sim.schedule_raw(
                    sched.start_of(g, c) + spread,
                    "dc-churn-start",
                    conn_step,
                    pack(h, c),
                );
            }
        }
    }
    sim
}

impl Hosts for DcWorld {
    fn stack(&mut self, h: usize) -> (&mut Kernel, NicMut<'_>) {
        let DcHost { kernel, nic, .. } = &mut self.hosts[h];
        (kernel, NicMut::Atm(nic))
    }

    fn in_flight(&mut self) -> &mut InFlight {
        &mut self.in_flight
    }

    fn pause(&self, h: usize) -> Option<PauseSchedule> {
        self.hosts[h].pause
    }

    /// Through the shared switch, then down `dst`'s link.
    fn route(&mut self, h: usize, dst: usize, train: Train) -> Option<(SimTime, Train)> {
        let downlink = self.topo.link_delay(self.ids[dst]);
        self.switch.forward_train(h, train, downlink)
    }

    fn wakeup(h: usize, sock: SockId, abort: bool) -> RawEvent<DcWorld> {
        let label = if abort {
            "dc-abort-wakeup"
        } else {
            "dc-wakeup"
        };
        (label, conn_step, pack(h, sock))
    }

    /// The fan-out landing stamp: on a fan-out client, connection `c`
    /// talks exclusively to server `clients + h*span + c` (the
    /// client's private server block, primaries then replicas), so
    /// the sender maps to the connection without waiting for TCP
    /// demultiplexing (which runs serialized on the client CPU, after
    /// this interrupt).
    fn landed(&mut self, h: usize, src: usize, now: SimTime) {
        if self.hosts[h].fanout.is_some() {
            let span = self.topo.fanout_conns();
            let first = self.topo.clients + self.ids[h] * span;
            let src = self.ids[src];
            if (first..first + span).contains(&src) {
                self.hosts[h].conns[src - first].last_arrival = now;
            }
        }
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

/// Runs connection endpoint `pack(h, c)` until it blocks or finishes —
/// the RPC loop of the two-host world's app, per connection. Like
/// every event entry point here, it first defers while `h` is paused.
fn conn_step(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, data: u64) {
    let (h, c) = unpack(data);
    if deferred(w, s, h, ("paused-step", conn_step, data)) {
        return;
    }
    let mut now = s.now();
    // A fan-out host's round lifecycle (release, record, finish) is
    // owned by `fanout_reply`, not by this connection's echo.
    let fanout_host = w.hosts[h].fanout.is_some();
    loop {
        let state = w.hosts[h].conns[c].state;
        match state {
            ConnState::Done | ConnState::AtBarrier | ConnState::Idle => break,
            ConnState::WantWrite(offset) => {
                let host = &mut w.hosts[h];
                let conn = &mut host.conns[c];
                let size = conn.size;
                if conn.client && conn.done_count >= conn.total {
                    finish_client(w, h, c);
                    break;
                }
                if offset == 0 && conn.client {
                    // Start the iteration timer: read the clock just
                    // before write(), as the benchmark did.
                    conn.t_start = now.max(host.kernel.cpu.busy_until()).quantized();
                }
                let out = {
                    let DcHost {
                        kernel, nic, conns, ..
                    } = host;
                    let conn = &conns[c];
                    let data = if conn.client {
                        // `sent` indexes past any retried copies, so
                        // every message on the stream carries a
                        // distinct pattern.
                        dc_pattern(&mut w.request, size, conn.sent, conn.ident);
                        &w.request
                    } else {
                        // The server echoes what it received.
                        &conn.got
                    };
                    kernel.syscall_write(now, conn.sock, &data[offset..], nic)
                };
                flush(w, s, h);
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
                    let DcHost {
                        kernel, nic, conns, ..
                    } = host;
                    kernel.syscall_read(now, sock, want, &mut conns[c].got, nic)
                };
                flush(w, s, h);
                let conn = &mut w.hosts[h].conns[c];
                if out.error.is_some() {
                    abort_pair(w, h, c);
                    break;
                }
                if out.blocked {
                    break;
                }
                now = out.done_at;
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
                if !pattern_matches(&conn.got, size, idx, conn.ident) {
                    conn.verify_failures += 1;
                }
                if !conn.client {
                    conn.state = ConnState::WantWrite(0);
                    continue;
                }
                // A client's buffer holds one echo at a time. It is
                // cleared here, not at the next write: a retry copy
                // may be written while a partial echo is assembling.
                conn.got.clear();
                conn.rcvd += 1;
                // Fan-out sub-requests end when the reply *lands* (the
                // last train from the peer server); everyone else ends
                // at read completion, as the benchmark did. The
                // landing stamp keeps the client CPU's serialized
                // processing of N near-simultaneous replies out of the
                // measured completion — it delays the next round, not
                // this one's slowest-reply arrival.
                let end = if fanout_host { conn.last_arrival } else { now };
                let rtt = end.quantized().saturating_since(conn.t_start);
                if fanout_host {
                    if fanout_reply(w, s, h, c, rtt, end, now) {
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
                if think > SimTime::ZERO {
                    // Churn pacing: idle before the next round, drawn
                    // uniformly from [think, 2*think). A fixed period
                    // would phase-lock with the measured rounds and
                    // turn the collision rate into a per-seed lottery;
                    // the draw makes background arrivals aperiodic, so
                    // fan-out amplification reflects probability, not
                    // phase.
                    let draw =
                        splitmix64(host_seed(w.seed, w.ids[h]) ^ ((c as u64) << 40) ^ rounds)
                            % think.as_ns().max(1);
                    let at = now.max(s.now()) + think + SimTime::from_ns(draw);
                    s.schedule_raw_at(at, "dc-churn-next", conn_step, pack(h, c));
                    break;
                }
            }
        }
    }
}

/// One full echo arrived on connection `c` of fan-out host `h`.
///
/// Returns `true` when the connection should keep reading (late retry
/// copies of the round are still in flight on its stream) and `false`
/// when it parked or the round ended. The round barrier waits for
/// every stream to drain, but the *recorded* completion is the
/// policy's: the K-th smallest slot time capped by the deadline (the
/// slowest slot under wait-for-all). Slots slower than that are
/// counted as cancelled stragglers; they drain through the barrier
/// without being re-measured (see DESIGN §2.17 on observational
/// cancellation). The last reply of a round either releases the next
/// round or, after the final round, finishes the host.
fn fanout_reply(
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
    w.hosts[h].conns[c].round_rcvd += 1;
    if w.hosts[h].conns[c].round_rcvd == 1 {
        w.hosts[h].conns[c].done_count += 1;
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
                    ctl.cost.hedges_won += 1;
                } else {
                    ctl.cost.hedges_wasted += 1;
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
        let tail = ctl.tail;
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
        ctl.cost.cancelled += times.iter().filter(|&&t| t > completion).count() as u64;
        if outcome == RequestOutcome::DeadlineExceeded {
            ctl.cost.deadline_exceeded += 1;
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
            s.schedule_raw_at(at, "dc-fanout-next", conn_step, pack(h, j));
        } else {
            w.hosts[h].conns[j].state = ConnState::Idle;
        }
    }
    arm_round(w, s, h, at);
    false
}

/// Arms one round on fan-out host `h` released at `at`: resets the
/// slot scoreboard, refills the retry token bucket, and schedules the
/// round's hedge trigger and first-retry timers (none under
/// wait-for-all). Stale timers from earlier rounds no-op via the round
/// guard in their handlers.
fn arm_round(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize, at: SimTime) {
    let (tail, width, round) = {
        let Some(ctl) = w.hosts[h].fanout.as_mut() else {
            return;
        };
        if ctl.aborted {
            return;
        }
        let tail = ctl.tail;
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
        s.schedule_raw_at(at + delay, "dc-hedge", on_hedge, pack(h, round as usize));
    }
    if let Some(rp) = tail.retry {
        if rp.max_attempts > 1 {
            for slot in 0..width {
                let jitter = retry_jitter(w.seed, w.ids[h], slot, round, 1, rp.jitter);
                s.schedule_raw_at(
                    at + rp.backoff + jitter,
                    "dc-retry",
                    on_retry,
                    pack_retry(h, slot, round, 1),
                );
            }
        }
    }
}

/// First-round arm for a fan-out host whose policy arms a lever
/// (scheduled by `prepare_dc` at the host's traffic slot; later rounds
/// re-arm at the barrier release). Wait-for-all needs none: the world
/// is built with round one's scoreboard ready.
fn on_round_arm(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: u64) {
    if deferred(w, s, h as usize, ("paused-arm", on_round_arm, h)) {
        return;
    }
    arm_round(w, s, h as usize, s.now());
}

/// The hedge trigger for round `round` on host `h`, packed as
/// `pack(h, round)`: reissue the slowest outstanding sub-request to
/// its replica server, race the copies, take the first reply.
fn on_hedge(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, data: u64) {
    let (h, round) = unpack(data);
    if deferred(w, s, h, ("paused-hedge", on_hedge, data)) {
        return;
    }
    let slot = {
        let Some(ctl) = w.hosts[h].fanout.as_ref() else {
            return;
        };
        // Stale trigger (the round already ended), an aborted host, or
        // a round that already hedged: no-op.
        if ctl.aborted || ctl.round != round as u64 || ctl.hedged_slot.is_some() {
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
        ctl.cost.hedges_issued += 1;
        ctl.pending += 1;
    }
    let conn = &mut w.hosts[h].conns[rc];
    conn.state = ConnState::WantWrite(0);
    conn.round_sent = 1;
    conn.round_rcvd = 0;
    s.schedule_raw_at(s.now(), "dc-hedge-send", conn_step, pack(h, rc));
}

/// Packs a retry timer payload: host, slot, round (low 20 bits — the
/// handler compares masked, and stale timers are at most one round
/// old), attempt.
fn pack_retry(h: usize, slot: usize, round: u64, attempt: u32) -> u64 {
    ((h as u64) << 48) | ((slot as u64) << 36) | ((round & 0xf_ffff) << 16) | u64::from(attempt)
}

/// Application-level retry timer for `slot` of round `round`, packed
/// by [`pack_retry`]: if the slot is still unresolved and the budget
/// has a token, write another copy of the round's request on the same
/// stream and chain the next attempt at doubled backoff.
fn on_retry(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, data: u64) {
    let h = (data >> 48) as usize;
    if deferred(w, s, h, ("paused-retry", on_retry, data)) {
        return;
    }
    let slot = ((data >> 36) & 0xfff) as usize;
    let round = (data >> 16) & 0xf_ffff;
    let attempt = (data & 0xffff) as u32;
    let rp = {
        let Some(ctl) = w.hosts[h].fanout.as_ref() else {
            return;
        };
        let Some(rp) = ctl.tail.retry else {
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
            ctl.cost.budget_exhausted += 1;
            return;
        }
        ctl.tokens -= 1;
        ctl.cost.retries_issued += 1;
    }
    let now = s.now();
    let out = {
        let DcHost {
            kernel, nic, conns, ..
        } = &mut w.hosts[h];
        let conn = &conns[slot];
        dc_pattern(&mut w.request, conn.size, conn.sent, conn.ident);
        kernel.syscall_write(now, conn.sock, &w.request, nic)
    };
    flush(w, s, h);
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
        let jitter = retry_jitter(w.seed, w.ids[h], slot, round, attempt + 1, rp.jitter);
        s.schedule_raw_at(
            now + backoff + jitter,
            "dc-retry",
            on_retry,
            pack_retry(h, slot, round, attempt + 1),
        );
    }
}

/// Deterministic key-derived retry jitter in `[0, jitter)`: a pure
/// function of `(seed, global host, slot, round, attempt)`, so the schedule
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
        assert_eq!(a.server_pcb, b.server_pcb);
    }

    #[test]
    fn paused_arrivals_keep_their_trains_parked() {
        use std::cell::Cell;
        use std::rc::Rc;

        // Cell loss plus servers stalled 1 ms in every 4 ms: arrivals
        // that land in a window re-schedule with their train parked.
        let mut topo = quick(2, 2, 2);
        topo.iterations = 12;
        topo.faults = faultkit::FaultSchedule::default()
            .with_atm_loss(faultkit::GilbertElliott::heavy_bursts())
            .with_host_pause(faultkit::PauseSchedule::new(
                SimTime::from_us(500),
                SimTime::from_ms(4),
                SimTime::from_ms(1),
            ));
        let run = || {
            let paused = Rc::new(Cell::new(0u64));
            let seen = Rc::clone(&paused);
            let mut sim = prepare_dc(DcWorld::new(topo.clone(), TrafficSchedule::staggered(), 3));
            sim.set_observer(Box::new(move |_, _, label| {
                seen.set(seen.get() + u64::from(label == "paused-arrival"));
            }));
            sim.run();
            assert!(sim.world.finished(), "the paused, lossy run completes");
            assert!(sim.world.in_flight.is_empty(), "no train left parked");
            let rtts: Vec<SimTime> = sim
                .world
                .hosts
                .iter()
                .flat_map(|h| h.conns.iter().flat_map(|c| c.rtts.iter().copied()))
                .collect();
            let rexmits: u64 = sim
                .world
                .hosts
                .iter()
                .map(|h| h.kernel.rexmits_total())
                .sum();
            (
                rtts,
                rexmits,
                paused.get(),
                sim.events_executed(),
                sim.now(),
            )
        };
        let a = run();
        assert_eq!(a.0.len(), 2 * 2 * 12, "every measured RPC completes");
        assert!(a.1 > 0, "the loss bites");
        assert!(a.2 > 0, "some arrival lands in a pause window");
        assert_eq!(a, run(), "the same seed replays bit for bit");
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
            hash.server_pcb.search_len() < mtf.server_pcb.search_len(),
            "hash probes beat list traversal at 16 server PCBs: {} vs {}",
            hash.server_pcb.search_len(),
            mtf.server_pcb.search_len()
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
    fn wait_for_all_types_every_completion() {
        // The default policy runs the same round as every other: each
        // recorded completion gets an outcome, and with no deadline
        // every outcome is Ok.
        let mut t = Topology::fanout(2, 4);
        t.iterations = 3;
        t.warmup = 1;
        let w = run_dc_world(&t, TrafficSchedule::staggered(), 5);
        for h in 0..t.clients {
            let ctl = w.hosts[h].fanout.as_ref().expect("fan-out client");
            assert_eq!(ctl.completions.len(), 3);
            assert_eq!(ctl.outcomes.len(), ctl.completions.len());
            assert!(ctl.outcomes.iter().all(|&o| o == RequestOutcome::Ok));
            assert_eq!(ctl.cost, MitigationCost::default());
        }
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
        t.tail = TailPolicy {
            deadline: Some(deadline),
            ..Default::default()
        };
        let capped = run_dc(&t, TrafficSchedule::staggered(), 3);
        assert_eq!(capped.completions.len(), base.completions.len());
        assert!(
            capped.cost.deadline_exceeded > 0,
            "no round hit the deadline"
        );
        assert!(capped.cost.cancelled > 0, "no straggler was cancelled");
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
        t.tail = TailPolicy {
            hedge: Some(crate::topology::HedgePolicy {
                // Hedge almost immediately so every round hedges.
                delay: Some(SimTime::from_us(100)),
                ..Default::default()
            }),
            ..Default::default()
        };
        let r = run_dc(&t, TrafficSchedule::staggered(), 7);
        assert_eq!(r.completions.len(), 6);
        assert_eq!(r.verify_failures, 0);
        assert!(r.cost.hedges_issued > 0, "no hedge fired");
        assert_eq!(
            r.cost.hedges_won + r.cost.hedges_wasted,
            r.cost.hedges_issued
        );
        assert_eq!(r.mbufs_leaked, 0);
    }

    #[test]
    fn retry_budget_bounds_retries_per_round() {
        let mut t = Topology::fanout(1, 2);
        t.iterations = 4;
        t.warmup = 0;
        t.tail = TailPolicy {
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
        };
        let r = run_dc(&t, TrafficSchedule::staggered(), 11);
        assert_eq!(r.completions.len(), 4);
        assert_eq!(r.verify_failures, 0, "retried echoes must still verify");
        assert!(r.cost.retries_issued > 0, "no retry fired");
        assert!(
            r.cost.budget_exhausted > 0,
            "the token bucket never ran dry: {} retries",
            r.cost.retries_issued
        );
        // 3 initial tokens + 1 per round refill across 3 releases.
        assert!(
            r.cost.retries_issued <= 6,
            "budget leak: {}",
            r.cost.retries_issued
        );
        assert_eq!(r.mbufs_leaked, 0);
    }

    /// The whole world run as one simulation: the reference that the
    /// component split must reproduce.
    fn whole(topo: &Topology, sched: TrafficSchedule, seed: u64) -> DcRunResult {
        merge(vec![run_part(
            topo,
            sched,
            seed,
            (0..topo.hosts()).collect(),
        )])
    }

    /// `run_dc` equals the one-component run field by field, and so
    /// does a merge of the components taken in reverse order.
    fn assert_split_exact(topo: &Topology, sched: TrafficSchedule, seed: u64, what: &str) {
        let reference = whole(topo, sched, seed);
        assert_eq!(run_dc(topo, sched, seed), reference, "{what}");
        let mut parts: Vec<Part> = topo
            .components()
            .into_iter()
            .map(|ids| run_part(topo, sched, seed, ids))
            .collect();
        parts.reverse();
        assert_eq!(merge(parts), reference, "{what}: reversed parts");
    }

    #[test]
    fn components_reproduce_the_whole_world() {
        use crate::study::{cc_quick_grid, dc_quick_grid, hedge_quick_grid, tails_quick_grid};
        use crate::{rep_seed, DcCell};

        let mut cells: Vec<DcCell> = dc_quick_grid();
        cells.extend(tails_quick_grid().into_iter().map(|c| c.cell));
        cells.extend(hedge_quick_grid().into_iter().map(|c| c.cell));
        cells.extend(cc_quick_grid().into_iter().map(|c| c.cell));
        for cell in &cells {
            for rep in 0..cell.reps.max(1) {
                let seed = rep_seed(&cell.key, rep);
                assert_split_exact(&cell.topo, cell.sched, seed, &cell.key);
            }
        }

        // The benchmark's shapes, scaled down.
        let small_incast = Topology::incast(32, 8, 16);
        assert_eq!(small_incast.components().len(), 4);
        assert_split_exact(
            &small_incast,
            TrafficSchedule::staggered(),
            7,
            "incast(32, 8, 16)",
        );
        let mut small_fanout = Topology::fanout(4, 8);
        small_fanout.iterations = 20;
        assert_split_exact(
            &small_fanout,
            TrafficSchedule::staggered(),
            7,
            "fanout(4, 8) x 20",
        );

        // A faulted, host-paused fan-out world: lossy uplinks and
        // stalled hosts on every component.
        let mut faulted = Topology::fanout(4, 4);
        faulted.iterations = 8;
        faulted.faults = faultkit::FaultSchedule::default()
            .with_atm_loss(faultkit::GilbertElliott::heavy_bursts())
            .with_host_pause(faultkit::PauseSchedule::new(
                SimTime::from_us(500),
                SimTime::from_ms(4),
                SimTime::from_ms(1),
            ));
        let r = whole(&faulted, TrafficSchedule::staggered(), 5);
        assert!(r.rexmits > 0, "the loss bites");
        assert_split_exact(&faulted, TrafficSchedule::staggered(), 5, "faulted fan-out");
    }

    fn pattern(size: usize, iter: u64, ident: (usize, usize)) -> Vec<u8> {
        let mut buf = vec![0xee; 3];
        dc_pattern(&mut buf, size, iter, ident);
        buf
    }

    #[test]
    fn pattern_is_connection_unique() {
        let a = pattern(64, 0, (0, 0));
        assert_ne!(a, pattern(64, 0, (0, 1)));
        assert_ne!(a, pattern(64, 0, (1, 0)));
        assert_ne!(a, pattern(64, 1, (0, 0)));
        assert_eq!(a, pattern(64, 0, (0, 0)));
    }

    /// The pattern's per-byte formula, the reference for the period
    /// table.
    fn pattern_reference(size: usize, iter: u64, ident: (usize, usize)) -> Vec<u8> {
        let salt = iter
            .wrapping_mul(131)
            .wrapping_add(ident.0 as u64 * 17)
            .wrapping_add(ident.1 as u64 * 7);
        (0..size).map(|i| ((i as u64 + salt) % 251) as u8).collect()
    }

    #[test]
    fn pattern_matches_the_per_byte_formula() {
        // Salts ≡ 0 and ≡ 250 (mod 251) start the period at its first
        // and its last byte.
        let edges = [
            ((251, (0, 0)), 0),
            ((0, (2, 31)), 0),
            ((228, (0, 0)), 250),
            ((0, (11, 9)), 250),
        ];
        for ((iter, ident), first) in edges {
            assert_eq!(pattern_reference(1, iter, ident), [first]);
        }
        let idents = edges.map(|(c, _)| c).into_iter().chain([
            (0, (0, 0)),
            (5, (3, 9)),
            (1000, (63, 255)),
            (123_456, (7, 1023)),
        ]);
        for (iter, ident) in idents {
            for size in (0..=1004).chain([16_000]) {
                assert_eq!(
                    pattern(size, iter, ident),
                    pattern_reference(size, iter, ident),
                    "size {size}, iter {iter}, ident {ident:?}"
                );
            }
        }
    }

    /// The in-place verifier counts what a full comparison counts: an
    /// exact buffer passes, and any wrong byte or length fails.
    #[test]
    fn in_place_verifier_agrees_with_comparison() {
        let (iter, ident) = (228, (2, 3));
        for size in [1, 252, 1400] {
            let want = pattern(size, iter, ident);
            let check = |got: &[u8]| {
                assert_eq!(
                    pattern_matches(got, size, iter, ident),
                    got == want.as_slice(),
                    "size {size}, got {} bytes",
                    got.len()
                );
            };
            check(&want);
            for pos in 0..size {
                let mut got = want.clone();
                got[pos] ^= 0x10;
                check(&got);
            }
            check(&want[..size - 1]);
            let mut long = want.clone();
            long.push(want[0]);
            check(&long);
        }
        assert!(pattern_matches(&[], 0, iter, ident));
    }
}
