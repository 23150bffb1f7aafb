//! Declarative topology and traffic description.
//!
//! A [`Topology`] is plain data: how many client hosts, how wide the
//! incast fan-in is (clients per server), how many concurrent TCP
//! connections each client runs, per-link delays and the switch
//! configuration. A [`TrafficSchedule`] is equally plain: when each
//! client connection issues its first RPC. Both are functions of
//! configuration only — never of execution order — so a sweep cell's
//! world is fully determined by `(Topology, TrafficSchedule, seed)`
//! and stays byte-identical at any `--jobs` value.

use atm::SwitchConfig;
use simkit::SimTime;
use tcpip::config::PcbOrg;
use tcpip::StackConfig;

/// The paper's three PCB lookup strategies (§3), as a grid axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PcbStrategy {
    /// Move-to-front linked list.
    Mtf,
    /// BSD list with the last-PCB single-entry cache in front.
    LastPcb,
    /// Hash table.
    Hash,
}

impl PcbStrategy {
    /// Every strategy, in report order.
    pub const ALL: [PcbStrategy; 3] = [PcbStrategy::Mtf, PcbStrategy::LastPcb, PcbStrategy::Hash];

    /// The key fragment naming this strategy.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            PcbStrategy::Mtf => "mtf",
            PcbStrategy::LastPcb => "cache",
            PcbStrategy::Hash => "hash",
        }
    }

    /// Applies the strategy to a stack configuration. The cache
    /// override decouples the single-entry cache from header
    /// prediction so each strategy is exercised in isolation.
    #[must_use]
    pub fn apply(self, cfg: StackConfig) -> StackConfig {
        match self {
            PcbStrategy::Mtf => StackConfig {
                pcb_org: PcbOrg::Mtf,
                pcb_cache_override: Some(false),
                ..cfg
            },
            PcbStrategy::LastPcb => StackConfig {
                pcb_org: PcbOrg::List,
                pcb_cache_override: Some(true),
                ..cfg
            },
            PcbStrategy::Hash => StackConfig {
                pcb_org: PcbOrg::Hash,
                pcb_cache_override: Some(false),
                ..cfg
            },
        }
    }
}

/// Which hosts a [`Topology::faults`] schedule is armed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultScope {
    /// Every measured host (clients and servers) — the `repro dc`
    /// behavior. Background churn hosts are never fault-armed; their
    /// only randomness is the aperiodic think-time draw.
    AllHosts,
    /// Server hosts only: the tails study's "server hiccup" story,
    /// where the client fabric is healthy and the slowness lives on
    /// the far side of the fan-out.
    ServersOnly,
}

/// Background best-effort traffic sharing the fabric with the
/// measured flows.
///
/// The churn hosts together run one paced RPC connection **per server
/// host** (so the per-server background duty stays constant as the
/// fan-out axis widens — the tail-at-scale comparison across widths
/// would be confounded otherwise), each host covering a contiguous
/// slice of at most `servers_per_host` servers so the think-time
/// pacing is set by `think`, not by a saturated churn CPU. A churn
/// connection echoes `rpc_size` bytes, then idles a uniformly drawn
/// `[think, 2*think)` before the next round; that draw is the RNG
/// stream that de-phases the background load from the measured rounds
/// (per-cell jitter would reorder a multi-cell AAL3/4 train, dropped on
/// the sequence-number gap, so churn uplinks carry no fault schedule).
/// Churn connections are never measured and never counted toward run
/// completion.
#[derive(Clone, Debug)]
pub struct ChurnTraffic {
    /// Most servers one churn host covers (ports added after the
    /// servers; the host count is `ceil(servers / servers_per_host)`).
    pub servers_per_host: usize,
    /// Largest background RPC size in bytes; each server's churn
    /// connection echoes a fixed per-server size drawn from
    /// `[rpc_size/4, rpc_size]` (see [`ChurnTraffic::size_for`]).
    /// Bigger echoes hold the server CPU and its switch output queue
    /// longer, so the per-server hiccup *severity* is heterogeneous —
    /// which is what keeps the max-of-N completion growing with the
    /// fan-out width instead of saturating at one fixed hiccup cost.
    pub rpc_size: usize,
    /// Base idle time between one churn connection's rounds; the
    /// actual idle is drawn uniformly from `[think, 2*think)` each
    /// round so the background arrivals stay aperiodic (a fixed
    /// period would phase-lock with the measured rounds). Sets the
    /// per-server background duty cycle.
    pub think: SimTime,
}

impl ChurnTraffic {
    /// The tails-study default: per-server echo sizes in 500..2000
    /// bytes and a 300 ms base think time. The duty is sparse on
    /// purpose: a fan-out-1 request collides with a background echo
    /// well under 1% of the time (its p99 stays at the clean
    /// baseline), while a fan-out-64 request watches 64 servers at
    /// once and its p99 climbs the severity distribution — the
    /// tail-at-scale signature.
    #[must_use]
    pub fn background() -> Self {
        ChurnTraffic {
            servers_per_host: 8,
            rpc_size: 2000,
            think: SimTime::from_ms(300),
        }
    }

    /// The churn echo size for (0-based) server index `srv`: a fixed
    /// per-server draw from `[rpc_size/4, rpc_size]`, uniform via a
    /// splitmix64 hash of the index. Pure topology — independent of
    /// the world seed — so a cell's layout is part of its identity.
    #[must_use]
    pub fn size_for(&self, srv: usize) -> usize {
        let lo = self.rpc_size / 4;
        let span = (self.rpc_size - lo).max(1);
        let mut z = (srv as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        lo + (z % span as u64) as usize
    }
}

/// Application-level retry policy, as plain data.
///
/// Retries are issued by the fan-out control layer on the *same*
/// connection (the transport keeps its own RTO state; see DESIGN
/// §2.17): a duplicate copy of the request is written after an
/// exponentially backed-off delay with key-derived deterministic
/// jitter, bounded by `max_attempts` and by a per-client token
/// *budget* so retries degrade gracefully under overload instead of
/// amplifying it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per sub-request per round, including the first
    /// send (so 1 means "never retry").
    pub max_attempts: u32,
    /// Delay from the round start to the first retry; each further
    /// attempt doubles it.
    pub backoff: SimTime,
    /// Maximum key-derived jitter added to each retry delay; the draw
    /// is a pure hash of `(seed, host, slot, round, attempt)`, so it
    /// is reproducible at any worker count.
    pub jitter: SimTime,
    /// Token-bucket capacity of the per-client retry budget.
    pub budget: u32,
    /// Tokens returned to the bucket at each round start (capped at
    /// `budget`).
    pub refill: u32,
}

impl Default for RetryPolicy {
    /// The hedge study's bounded-retry default: up to 3 retries per
    /// slot per round at 2 ms/4 ms/8 ms (+≤1 ms jitter), from a
    /// 16-token bucket refilling 4 tokens per round.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff: SimTime::from_ms(2),
            jitter: SimTime::from_ms(1),
            budget: 16,
            refill: 4,
        }
    }
}

/// Hedged-request policy, as plain data.
///
/// When armed, every fan-out client gets a replica server per primary
/// (the topology doubles its server block) and, once per round, may
/// reissue the slowest outstanding sub-request to the replica after
/// the hedge delay, taking whichever reply lands first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HedgePolicy {
    /// Fixed hedge delay; `None` tracks the running p95 of completed
    /// sub-requests with the [`simcap::Recorder::upper_only`] estimate
    /// instead.
    pub delay: Option<SimTime>,
    /// Delay used while the estimator has no sample yet (first round).
    pub initial: SimTime,
}

impl Default for HedgePolicy {
    /// Hedge at the running p95, 2 ms until the estimator warms up.
    fn default() -> Self {
        HedgePolicy {
            delay: None,
            initial: SimTime::from_ms(2),
        }
    }
}

/// Tail-tolerance policy for fan-out worlds, as plain data.
///
/// The default policy is wait-for-all: K = width, no deadline, no
/// retry, no hedge, so a round completes when its slowest reply lands.
/// It schedules no control event, builds no replica server and draws
/// no randomness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TailPolicy {
    /// Per-logical-request deadline: a round still outstanding at the
    /// deadline records the deadline as its completion with a typed
    /// `DeadlineExceeded` outcome, instead of waiting out the RTO
    /// tail. Stragglers are cancelled (drained administratively).
    pub deadline: Option<SimTime>,
    /// Bounded, budgeted application-level retries.
    pub retry: Option<RetryPolicy>,
    /// Hedged requests to replica servers.
    pub hedge: Option<HedgePolicy>,
    /// Partial fan-out: the round completes at the K-th sub-request
    /// reply (`first K of N`); 0 means wait for all N.
    pub quorum: usize,
}

impl TailPolicy {
    /// Whether the policy arms no lever, i.e. is wait-for-all.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.deadline.is_none() && self.retry.is_none() && self.hedge.is_none() && self.quorum == 0
    }
}

/// A declarative N-host datacenter topology: `clients` client hosts
/// and `ceil(clients / fanin)` server hosts, all ports of one
/// output-queued cell switch. Client `c` talks to server
/// `clients + c / fanin`, so `fanin` clients converge on each server
/// — the incast axis.
///
/// With `fanout_width > 0` the wiring flips from incast to
/// fan-out/wait-for-all: every client host gets its **own disjoint
/// block** of `fanout_width` server hosts (`clients * fanout_width`
/// servers in all) and opens one connection to each server in its
/// block, so a client's `fanout_width` sub-requests form one logical
/// request that completes when the slowest reply lands (the tails
/// axis). Disjoint blocks keep the per-server load at one sub-request
/// per round at every width — the baseline a shared server pool would
/// contaminate with cross-client contention. Optional [`ChurnTraffic`]
/// hosts are appended after the servers.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Number of client hosts.
    pub clients: usize,
    /// Clients per server (incast fan-in); clamped to `clients`.
    pub fanin: usize,
    /// Concurrent TCP connections per client host.
    pub conns_per_host: usize,
    /// RPC message size in bytes (each RPC is an echoed message).
    pub rpc_size: usize,
    /// Measured RPCs per connection.
    pub iterations: u64,
    /// Unmeasured leading RPCs per connection.
    pub warmup: u64,
    /// PCB lookup strategy on every host.
    pub strategy: PcbStrategy,
    /// Host-to-switch propagation delay of host 0.
    pub base_delay: SimTime,
    /// Extra propagation per host index (a rack-position spread; zero
    /// for an equidistant fabric).
    pub delay_step: SimTime,
    /// The shared cell switch.
    pub switch: SwitchConfig,
    /// Base stack configuration; [`PcbStrategy::apply`] runs on top.
    pub stack: StackConfig,
    /// Interface MTU every host's NIC advertises (MSS derives from it
    /// BSD-style). The default is the ATM MTU of 9188; the cc study
    /// drops it to 1500 — the classical-IP-over-ATM LIS configuration
    /// — so windows hold enough segments for dup-ACK-driven recovery.
    pub mtu: usize,
    /// Fault schedule armed on every host in
    /// [`fault_scope`](Self::fault_scope); the default is clean.
    pub faults: faultkit::FaultSchedule,
    /// Hosts the fault schedule is armed on.
    pub fault_scope: FaultScope,
    /// Fan-out width N (0 = classic incast wiring). When positive,
    /// `conns_per_host` must equal the width: connection `j` of client
    /// `h` goes to server `clients + h * fanout_width + j`, its own
    /// disjoint server block.
    pub fanout_width: usize,
    /// Optional background churn traffic.
    pub churn: Option<ChurnTraffic>,
    /// Tail-tolerance policy (fan-out worlds only; the default is
    /// wait-for-all). With a hedge policy armed, every client's server
    /// block doubles: its first `fanout_width` connections go to the
    /// primaries, the next `fanout_width` to the replicas.
    pub tail: TailPolicy,
}

impl Topology {
    /// An incast topology with the defaults of the `repro dc` study:
    /// 200-byte RPCs, 3 measured iterations after 1 warm-up, 2 µs base
    /// delay with a 10 ns per-host spread, default switch.
    #[must_use]
    pub fn incast(clients: usize, fanin: usize, conns_per_host: usize) -> Self {
        Topology {
            clients,
            fanin,
            conns_per_host,
            rpc_size: 200,
            iterations: 3,
            warmup: 1,
            strategy: PcbStrategy::Hash,
            base_delay: SimTime::from_us(2),
            delay_step: SimTime::from_ns(10),
            switch: SwitchConfig::default(),
            stack: StackConfig::default(),
            mtu: latency_core::nic::ATM_MTU,
            faults: faultkit::FaultSchedule::default(),
            fault_scope: FaultScope::AllHosts,
            fanout_width: 0,
            churn: None,
            tail: TailPolicy::default(),
        }
    }

    /// A fan-out/wait-for-all topology with the defaults of the
    /// `repro tails` study: a disjoint block of `width` server hosts
    /// per client, one connection from each client to every server in
    /// its block, 200-byte sub-requests, 2 µs base delay with a 10 ns
    /// per-host spread, default switch.
    #[must_use]
    pub fn fanout(clients: usize, width: usize) -> Self {
        assert!(width > 0, "a fan-out world needs at least one server");
        Topology {
            clients,
            fanin: clients,
            conns_per_host: width,
            rpc_size: 200,
            iterations: 3,
            warmup: 1,
            strategy: PcbStrategy::Hash,
            base_delay: SimTime::from_us(2),
            delay_step: SimTime::from_ns(10),
            switch: SwitchConfig::default(),
            stack: StackConfig::default(),
            mtu: latency_core::nic::ATM_MTU,
            faults: faultkit::FaultSchedule::default(),
            fault_scope: FaultScope::AllHosts,
            fanout_width: width,
            churn: None,
            tail: TailPolicy::default(),
        }
    }

    /// Effective fan-in (clamped to the client count).
    #[must_use]
    pub fn effective_fanin(&self) -> usize {
        self.fanin.clamp(1, self.clients.max(1))
    }

    /// Whether any tail-tolerance mitigation is armed.
    #[must_use]
    pub fn mitigated(&self) -> bool {
        !self.tail.is_noop()
    }

    /// Whether the fan-out server blocks carry replicas (hedging
    /// armed).
    #[must_use]
    pub fn replicated(&self) -> bool {
        self.fanout_width > 0 && self.tail.hedge.is_some()
    }

    /// Connections per fan-out client host: one per primary server,
    /// plus one per replica when hedging is armed.
    #[must_use]
    pub fn fanout_conns(&self) -> usize {
        self.fanout_width * if self.replicated() { 2 } else { 1 }
    }

    /// Number of server hosts.
    #[must_use]
    pub fn servers(&self) -> usize {
        if self.fanout_width > 0 {
            // Disjoint per-client server sets: every width sees the
            // same per-server load (one sub-request per round), so the
            // fan-out axis varies only the order statistic, not the
            // contention baseline. Hedging doubles each block with
            // replica servers.
            self.clients * self.fanout_conns()
        } else {
            self.clients.div_ceil(self.effective_fanin())
        }
    }

    /// Number of background churn hosts.
    #[must_use]
    pub fn churn_hosts(&self) -> usize {
        self.churn
            .as_ref()
            .map_or(0, |c| self.servers().div_ceil(c.servers_per_host.max(1)))
    }

    /// The `[lo, hi)` slice of server indices (0-based, relative to
    /// the first server) that churn host `k` covers.
    fn churn_slice(&self, k: usize) -> (usize, usize) {
        let per = self.churn.as_ref().map_or(1, |c| c.servers_per_host.max(1));
        (
            (k * per).min(self.servers()),
            ((k + 1) * per).min(self.servers()),
        )
    }

    /// Measured hosts: clients then servers, in switch-port order.
    #[must_use]
    pub fn measured_hosts(&self) -> usize {
        self.clients + self.servers()
    }

    /// Total hosts (clients, then servers, then churn hosts, in
    /// switch-port order).
    #[must_use]
    pub fn hosts(&self) -> usize {
        self.measured_hosts() + self.churn_hosts()
    }

    /// The server host index assigned to a client host (classic
    /// incast wiring; fan-out worlds route per connection, see
    /// [`Topology::peer_server`]).
    #[must_use]
    pub fn server_of(&self, client: usize) -> usize {
        self.clients + client / self.effective_fanin()
    }

    /// The server host that connection `conn` of client-side host `h`
    /// (a measured client or a churn host) targets.
    #[must_use]
    pub fn peer_server(&self, h: usize, conn: usize) -> usize {
        if h >= self.measured_hosts() {
            // Churn host: one connection per server in its slice.
            let (lo, _) = self.churn_slice(h - self.measured_hosts());
            self.clients + lo + conn
        } else if self.fanout_width > 0 {
            // Client h's private server block: primaries at
            // conn < fanout_width, replicas (if any) after them.
            self.clients + h * self.fanout_conns() + conn
        } else {
            self.server_of(h)
        }
    }

    /// Connection count on client-side host `h` (a measured client or
    /// a churn host).
    #[must_use]
    pub fn conns_of(&self, h: usize) -> usize {
        if h >= self.measured_hosts() {
            let (lo, hi) = self.churn_slice(h - self.measured_hosts());
            hi - lo
        } else if self.fanout_width > 0 && h < self.clients {
            self.fanout_conns()
        } else {
            self.conns_per_host
        }
    }

    /// Whether the fault schedule is armed on host `h`.
    #[must_use]
    pub fn faults_apply_to(&self, h: usize) -> bool {
        match self.fault_scope {
            FaultScope::AllHosts => h < self.measured_hosts(),
            FaultScope::ServersOnly => (self.clients..self.measured_hosts()).contains(&h),
        }
    }

    /// The IP address of host `h`.
    #[must_use]
    pub fn addr(h: usize) -> [u8; 4] {
        assert!(h < 60_000, "host index fits the address/VCI plan");
        [10, 1, (h >> 8) as u8, (h & 0xff) as u8]
    }

    /// The VCI a sender uses for cells destined to host `dst` (the
    /// switch routes on `(in_port, vpi, vci)`, so a per-destination
    /// VCI is enough for any number of senders).
    #[must_use]
    pub fn vci_to(dst: usize) -> u16 {
        64 + dst as u16
    }

    /// Host-to-switch propagation delay of host `h` (symmetric:
    /// uplink and downlink).
    #[must_use]
    pub fn link_delay(&self, h: usize) -> SimTime {
        self.base_delay + self.delay_step * h as u64
    }

    /// Total client connections (including replica connections in a
    /// hedged fan-out world).
    #[must_use]
    pub fn client_conns(&self) -> usize {
        if self.fanout_width > 0 {
            self.clients * self.fanout_conns()
        } else {
            self.clients * self.conns_per_host
        }
    }

    /// The world's independent components: the hosts joined by some
    /// connection, each group ascending, groups ordered by their
    /// smallest host. No cell, timer or counter crosses between
    /// groups, so each runs as its own simulation with the same
    /// events in the same order (see [`crate::run_dc`]).
    ///
    /// Two couplings force one group over every host: churn, whose run
    /// stops on a predicate over the whole world, and fabric
    /// corruption (`switch.corrupt_prob > 0`), which every output port
    /// draws from one switch random stream.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.hosts();
        if self.churn.is_some() || self.switch.corrupt_prob > 0.0 {
            return vec![(0..n).collect()];
        }
        // Union-find over every (client, server) pair, linking each
        // root to the smaller one so a root is its group's first host.
        let mut root: Vec<usize> = (0..n).collect();
        fn find(root: &mut [usize], mut h: usize) -> usize {
            while root[h] != h {
                root[h] = root[root[h]];
                h = root[h];
            }
            h
        }
        for c in 0..self.clients {
            for j in 0..self.conns_of(c) {
                let (a, b) = (find(&mut root, c), find(&mut root, self.peer_server(c, j)));
                root[a.max(b)] = a.min(b);
            }
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of = vec![usize::MAX; n];
        for h in 0..n {
            let r = find(&mut root, h);
            if r == h {
                group_of[h] = groups.len();
                groups.push(Vec::new());
            }
            groups[group_of[r]].push(h);
        }
        groups
    }
}

/// When each client connection starts: plain data, a pure function of
/// `(host, conn)` indices.
#[derive(Clone, Copy, Debug)]
pub struct TrafficSchedule {
    /// Delay before the first connection of each successive host.
    pub host_stagger: SimTime,
    /// Delay between successive connection starts on one host.
    pub conn_stagger: SimTime,
}

impl TrafficSchedule {
    /// The `repro dc` default: a light de-phasing stagger so hosts do
    /// not run in artificial lockstep.
    #[must_use]
    pub fn staggered() -> Self {
        TrafficSchedule {
            host_stagger: SimTime::from_ns(3_100),
            conn_stagger: SimTime::from_ns(7_300),
        }
    }

    /// Every client connection fires at t = 0: maximal synchronized
    /// incast pressure.
    #[must_use]
    pub fn synchronized() -> Self {
        TrafficSchedule {
            host_stagger: SimTime::ZERO,
            conn_stagger: SimTime::ZERO,
        }
    }

    /// Start time of connection `conn` on client host `host`.
    #[must_use]
    pub fn start_of(&self, host: usize, conn: usize) -> SimTime {
        self.host_stagger * host as u64 + self.conn_stagger * conn as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hedged_fanout_doubles_server_blocks() {
        let mut t = Topology::fanout(2, 3);
        assert_eq!(t.servers(), 6);
        assert_eq!(t.fanout_conns(), 3);
        assert!(!t.replicated() && !t.mitigated());
        t.tail = TailPolicy {
            hedge: Some(HedgePolicy::default()),
            ..TailPolicy::default()
        };
        assert!(t.replicated() && t.mitigated());
        assert_eq!(t.servers(), 12);
        assert_eq!(t.fanout_conns(), 6);
        assert_eq!(t.conns_of(0), 6);
        assert_eq!(t.client_conns(), 12);
        // Primaries first, replicas after them, per-client blocks
        // disjoint.
        assert_eq!(t.peer_server(0, 0), 2);
        assert_eq!(t.peer_server(0, 3), 5);
        assert_eq!(t.peer_server(1, 0), 8);
        assert_eq!(t.peer_server(1, 5), 13);
        // A non-hedge mitigation leaves the wiring untouched.
        t.tail = TailPolicy {
            deadline: Some(SimTime::from_ms(10)),
            ..TailPolicy::default()
        };
        assert!(t.mitigated() && !t.replicated());
        assert_eq!(t.servers(), 6);
        assert_eq!(t.conns_of(0), 3);
        // The default policy is wait-for-all.
        t.tail = TailPolicy::default();
        assert!(!t.mitigated());
    }

    #[test]
    fn incast_shape() {
        let t = Topology::incast(32, 16, 4);
        assert_eq!(t.servers(), 2);
        assert_eq!(t.hosts(), 34);
        assert_eq!(t.server_of(0), 32);
        assert_eq!(t.server_of(15), 32);
        assert_eq!(t.server_of(16), 33);
        assert_eq!(t.server_of(31), 33);
    }

    #[test]
    fn fanin_clamps_to_clients() {
        let t = Topology::incast(2, 16, 1);
        assert_eq!(t.effective_fanin(), 2);
        assert_eq!(t.servers(), 1);
        assert_eq!(t.server_of(1), 2);
    }

    #[test]
    fn link_delays_spread() {
        let t = Topology::incast(4, 4, 1);
        assert_eq!(t.link_delay(0), SimTime::from_us(2));
        assert!(t.link_delay(3) > t.link_delay(0));
    }

    #[test]
    fn schedule_is_a_pure_function() {
        let s = TrafficSchedule::staggered();
        assert_eq!(s.start_of(0, 0), SimTime::ZERO);
        assert_eq!(s.start_of(1, 1), s.host_stagger + s.conn_stagger);
        assert!(s.start_of(1, 0) > s.start_of(0, 0));
        assert!(s.start_of(0, 1) > s.start_of(0, 0));
        assert_eq!(
            TrafficSchedule::synchronized().start_of(9, 9),
            SimTime::ZERO
        );
    }

    #[test]
    fn fanout_shape() {
        let t = Topology::fanout(2, 16);
        assert_eq!(t.servers(), 32, "a disjoint block per client");
        assert_eq!(t.measured_hosts(), 34);
        assert_eq!(t.hosts(), 34);
        assert_eq!(t.conns_per_host, 16);
        // Connection j of client h goes to server clients + h*16 + j.
        assert_eq!(t.peer_server(0, 0), 2);
        assert_eq!(t.peer_server(0, 15), 17);
        assert_eq!(t.peer_server(1, 0), 18);
        assert_eq!(t.peer_server(1, 15), 33);
        // Classic topologies keep the incast wiring.
        let inc = Topology::incast(4, 2, 1);
        assert_eq!(inc.peer_server(0, 0), inc.server_of(0));
        assert_eq!(inc.peer_server(3, 0), inc.server_of(3));
    }

    #[test]
    fn churn_hosts_append_after_servers() {
        let mut t = Topology::fanout(2, 4);
        t.churn = Some(ChurnTraffic::background());
        // 8 servers, 8 per churn host -> one churn host covers all.
        assert_eq!(t.servers(), 8);
        assert_eq!(t.measured_hosts(), 10);
        assert_eq!(t.churn_hosts(), 1);
        assert_eq!(t.hosts(), 11);
        // The churn host runs one connection per server, in order.
        assert_eq!(t.conns_of(10), 8);
        assert_eq!(t.peer_server(10, 0), 2);
        assert_eq!(t.peer_server(10, 7), 9);
        // Measured clients keep their own connection count.
        assert_eq!(t.conns_of(0), 4);
        // Wider worlds split the servers across churn hosts in
        // contiguous slices of at most servers_per_host each.
        let mut w = Topology::fanout(4, 5);
        w.churn = Some(ChurnTraffic::background());
        assert_eq!(w.servers(), 20);
        assert_eq!(w.churn_hosts(), 3);
        assert_eq!(w.hosts(), 27);
        assert_eq!(w.conns_of(24), 8);
        assert_eq!(w.conns_of(25), 8);
        assert_eq!(w.conns_of(26), 4, "the last slice takes the remainder");
        assert_eq!(w.peer_server(24, 0), 4);
        assert_eq!(w.peer_server(25, 0), 12);
        assert_eq!(w.peer_server(26, 3), 23, "the last server is covered");
    }

    #[test]
    fn fault_scope_selects_hosts() {
        let mut t = Topology::fanout(2, 4);
        t.churn = Some(ChurnTraffic::background());
        assert!(t.faults_apply_to(0), "AllHosts arms clients");
        assert!(t.faults_apply_to(9), "AllHosts arms servers");
        assert!(!t.faults_apply_to(10), "churn hosts are never fault-armed");
        t.fault_scope = FaultScope::ServersOnly;
        assert!(!t.faults_apply_to(0));
        assert!(!t.faults_apply_to(1));
        assert!(t.faults_apply_to(2));
        assert!(t.faults_apply_to(9));
        assert!(!t.faults_apply_to(10));
    }

    #[test]
    fn components_split_disjoint_groups() {
        let sizes = |t: &Topology| t.components().iter().map(Vec::len).collect::<Vec<_>>();
        // Incast: each server and its fan-in clients.
        let t = Topology::incast(256, 16, 64);
        let groups = t.components();
        assert_eq!(sizes(&t), vec![17; 16]);
        for (k, g) in groups.iter().enumerate() {
            let mut want: Vec<usize> = (16 * k..16 * k + 16).collect();
            want.push(256 + k);
            assert_eq!(*g, want, "group {k}");
        }
        // Fan-out: each client and its private server block.
        let t = Topology::fanout(4, 64);
        assert_eq!(sizes(&t), vec![65; 4]);
        assert_eq!(t.components()[1][..2], [1, 4 + 64]);
        // Hedged fan-out: the block doubles with the replicas.
        let mut t = Topology::fanout(4, 3);
        t.tail = TailPolicy {
            hedge: Some(HedgePolicy::default()),
            ..TailPolicy::default()
        };
        assert_eq!(sizes(&t), vec![1 + 2 * 3; 4]);
        // The cc cells' world, four clients and their server, is one
        // group.
        assert_eq!(sizes(&Topology::incast(4, 4, 1)), vec![5]);
    }

    #[test]
    fn churn_and_fabric_corruption_couple_every_host() {
        let mut t = Topology::fanout(4, 4);
        t.churn = Some(ChurnTraffic::background());
        assert_eq!(t.components(), vec![(0..t.hosts()).collect::<Vec<_>>()]);
        let mut t = Topology::incast(32, 8, 2);
        t.churn = Some(ChurnTraffic::background());
        assert_eq!(t.components(), vec![(0..t.hosts()).collect::<Vec<_>>()]);
        let mut t = Topology::incast(32, 8, 2);
        assert_eq!(t.components().len(), 4);
        t.switch.corrupt_prob = 1e-6;
        assert_eq!(t.components(), vec![(0..t.hosts()).collect::<Vec<_>>()]);
    }

    #[test]
    fn strategies_map_to_stack_config() {
        let base = StackConfig::default();
        let m = PcbStrategy::Mtf.apply(base);
        assert_eq!(m.pcb_org, PcbOrg::Mtf);
        assert_eq!(m.pcb_cache_override, Some(false));
        let c = PcbStrategy::LastPcb.apply(base);
        assert_eq!(c.pcb_org, PcbOrg::List);
        assert_eq!(c.pcb_cache_override, Some(true));
        assert!(c.pcb_use_cache());
        let h = PcbStrategy::Hash.apply(base);
        assert_eq!(h.pcb_org, PcbOrg::Hash);
        assert!(!h.pcb_use_cache());
    }
}
