//! Runnable experiments: one per configuration the paper measures.
//!
//! An [`Experiment`] describes a two-host run (network, message
//! size, stack configuration, and one [`faultkit::FaultSchedule`]
//! that [`arm_host`] arms on both hosts); [`Experiment::plan`]
//! builds a [`RunPlan`] that executes it deterministically — one
//! repetition or several averaged ones, as the paper did ("we ran
//! 40000 iterations for at least 3 repetitions and took the
//! average"), optionally with read-only per-event observers armed.

use std::cell::RefCell;
use std::rc::Rc;

use atm::{FiberLink, LinkConfig};
use decstation::CostModel;
use ether::{EtherWire, WireConfig};
use simkit::SimTime;
use tcpip::tcb::TcpStats;
use tcpip::{ChecksumMode, KernelStats, StackConfig};

use crate::app::{App, Role};
use crate::breakdown::{iterations, mean, Iteration, RxBreakdown, TxBreakdown};
use crate::nic::{arm_host, AtmNic, EtherNic, Nic, NicMut};
use crate::stats;
use crate::world::{run_world, World};

/// Which substrate carries the traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetKind {
    /// FORE TCA-100 over 140 Mbit/s TAXI fiber (AAL3/4).
    Atm,
    /// LANCE over 10 Mbit/s Ethernet.
    Ether,
}

/// The benchmark shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's RPC echo ping-pong (§1.2).
    Rpc,
    /// Unidirectional bulk transfer (validates §3's explanation of
    /// when header prediction fires).
    Bulk,
    /// The same RPC echo over UDP datagrams (extension: the
    /// comparison implicit in §1's "is TCP viable for RPC?").
    UdpRpc,
}

/// A configured experiment.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Substrate.
    pub net: NetKind,
    /// Workload shape.
    pub workload: Workload,
    /// Message size in bytes.
    pub size: usize,
    /// Timed iterations per repetition.
    pub iterations: u64,
    /// Untimed warm-up iterations.
    pub warmup: u64,
    /// Stack configuration (checksum mode, prediction, PCBs...).
    pub cfg: StackConfig,
    /// Host cost model.
    pub costs: CostModel,
    /// Route both directions through an ATM switch (the paper's
    /// testbed was switchless).
    pub switch: Option<atm::SwitchConfig>,
    /// Injected faults (faultkit): the §4.2.1 error sources (bit
    /// errors, cell loss, controller and gateway corruption), burst
    /// loss, train shaping, RX contention, FIFO/pool limits. The
    /// default schedule is clean.
    pub faults: faultkit::FaultSchedule,
}

impl Experiment {
    /// The paper's RPC benchmark on the given network and size, with
    /// the baseline kernel configuration.
    #[must_use]
    pub fn rpc(net: NetKind, size: usize) -> Self {
        Experiment {
            net,
            workload: Workload::Rpc,
            size,
            iterations: 400,
            warmup: 8,
            cfg: StackConfig::default(),
            costs: CostModel::calibrated(),
            switch: None,
            faults: faultkit::FaultSchedule::default(),
        }
    }

    /// The RPC echo over UDP (sizes must fit one datagram in the
    /// MTU).
    #[must_use]
    pub fn udp_rpc(net: NetKind, size: usize) -> Self {
        let mut e = Experiment::rpc(net, size);
        e.workload = Workload::UdpRpc;
        e
    }

    /// A unidirectional bulk transfer of `messages × size` bytes.
    #[must_use]
    pub fn bulk(net: NetKind, size: usize, messages: u64) -> Self {
        let mut e = Experiment::rpc(net, size);
        e.workload = Workload::Bulk;
        e.iterations = messages;
        e.warmup = 0;
        e
    }

    fn build_world(&self, seed: u64) -> World {
        let apps = match self.workload {
            Workload::Rpc => [
                App::new(Role::RpcClient, self.size, self.iterations, self.warmup),
                App::new(Role::RpcServer, self.size, u64::MAX / 4, 0),
            ],
            Workload::Bulk => [
                App::new(Role::BulkSender, self.size, self.iterations, self.warmup),
                App::new(Role::BulkReceiver, self.size, self.iterations, self.warmup),
            ],
            Workload::UdpRpc => [
                App::new(Role::UdpRpcClient, self.size, self.iterations, self.warmup),
                App::new(Role::UdpRpcServer, self.size, u64::MAX / 4, 0),
            ],
        };
        let nics = [0u8, 1].map(|h| {
            let (link_seed, nic_seed) = (seed * 2 + 1 + u64::from(h), seed + 9 * u64::from(h));
            match self.net {
                NetKind::Atm => Nic::Atm(AtmNic::new(
                    FiberLink::new(LinkConfig::default(), link_seed),
                    self.costs.clone(),
                    nic_seed,
                )),
                NetKind::Ether => Nic::Ether(EtherNic::new(
                    EtherWire::new(WireConfig::default(), link_seed),
                    self.costs.clone(),
                    h,
                    nic_seed,
                )),
            }
        });
        let mut world = World::new(self.cfg, self.costs.clone(), nics, apps);
        for (h, host) in (0u64..).zip(&mut world.hosts) {
            if let (Some(swc), NetKind::Atm) = (self.switch, self.net) {
                host.route_through_switch(swc, seed * 3 + 1 + h);
            }
            // Per-direction seeds match the link seeds; the fault
            // processes draw from their own RNG streams, so they never
            // collide with the BER streams.
            let nic = NicMut::from(&mut host.nic);
            host.pause = arm_host(&self.faults, &host.kernel, nic, seed * 2 + 1 + h)
                .unwrap_or_else(|refusal| panic!("{refusal}"));
        }
        world
    }

    /// Starts a [`RunPlan`] for this experiment: seed, repetitions,
    /// observers and capture are all configured on the plan, and
    /// [`RunPlan::execute`] (or [`crate::capture::CapturePlan::execute`]
    /// after [`RunPlan::captured`]) runs it.
    #[must_use]
    pub fn plan(&self) -> RunPlan<'_> {
        RunPlan {
            exp: self,
            seed: 1,
            reps: 1,
            observers: Vec::new(),
        }
    }

    /// Builds and runs one world, hands it to `inspect` (the capture
    /// harness drains its taps there), then tears it down and counts
    /// the mbufs still outstanding. The result's breakdown fields are
    /// left empty: the caller reduces the client's returned iterations,
    /// pooling repetitions if it runs several.
    pub(crate) fn run_sim_with<T>(
        &self,
        seed: u64,
        capture: bool,
        flight: Option<usize>,
        obs: Option<simkit::ObserverFn<World>>,
        inspect: impl FnOnce(&mut World) -> T,
    ) -> (RunResult, Vec<Iteration>, T) {
        let mut world = self.build_world(seed);
        world.capture = capture;
        world.flight_k = flight;
        let sim = run_world(world, obs);
        let events = sim.events_executed();
        let sim_time = sim.now();
        let mut w = sim.world;
        let client = &w.hosts[0];
        let server = &w.hosts[1];
        let (client_nic_stats, server_nic_stats) = (nic_stats(&client.nic), nic_stats(&server.nic));
        let mut result = RunResult {
            rtts: client.app.stats.rtts.clone(),
            tx: TxBreakdown::default(),
            rx: RxBreakdown::default(),
            breakdown_iters: 0,
            verify_failures: client.app.stats.verify_failures + server.app.stats.verify_failures,
            bytes_moved: client.app.stats.bytes + server.app.stats.bytes,
            client_tcp: client
                .kernel
                .try_tcb(client.sock)
                .map(|t| t.stats)
                .unwrap_or_default(),
            server_tcp: server
                .kernel
                .try_tcb(server.sock)
                .map(|t| t.stats)
                .unwrap_or_default(),
            client_kernel: client.kernel.stats,
            server_kernel: server.kernel.stats,
            client_nic: client_nic_stats,
            server_nic: server_nic_stats,
            enobufs: (
                client.kernel.pool.stats().enobufs_drops,
                server.kernel.pool.stats().enobufs_drops,
            ),
            aborted: client.app.aborted
                || server.app.aborted
                || client.kernel.stats.conn_aborts + server.kernel.stats.conn_aborts > 0,
            mbufs_leaked: (0, 0),
            events,
            sim_time,
        };
        let its = iterations(&w.hosts[0].kernel.spans);
        let inspected = inspect(&mut w);
        let pools = (
            w.hosts[0].kernel.pool.clone(),
            w.hosts[1].kernel.pool.clone(),
        );
        // Teardown frees every chain still held by sockets, queues and
        // adapters; whatever remains outstanding is a genuine leak.
        drop(w);
        result.mbufs_leaked = (
            pools.0.stats().mbufs_outstanding(),
            pools.1.stats().mbufs_outstanding(),
        );
        (result, its, inspected)
    }
}

/// A declaratively configured execution of an [`Experiment`], built
/// by [`Experiment::plan`].
///
/// The plan is the single way to run an experiment — seed,
/// repetitions, observers and capture are all builder state:
///
/// ```
/// use latency_core::experiment::{Experiment, NetKind};
///
/// let mut exp = Experiment::rpc(NetKind::Atm, 200);
/// exp.iterations = 20;
/// exp.warmup = 2;
/// let one = exp.plan().seed(7).execute();
/// let avg = exp.plan().reps(3).execute();
/// assert_eq!(avg.rtts.len(), 3 * one.rtts.len());
/// ```
///
/// Semantics:
///
/// - [`seed`](RunPlan::seed) is the seed of the **first** repetition
///   (default 1); repetition `r` (1-based) runs with seed
///   `seed + (r - 1)` (wrapping). A plan's results therefore depend
///   only on `(experiment, seed, reps)` — never on which thread runs
///   it or in what order, which is what the sweep runner's
///   per-cell-key seeding relies on.
/// - [`reps`](RunPlan::reps) (default 1) pools the RTT samples and
///   sums every counter across repetitions; the layer breakdowns are
///   one mean over every kept iteration of every repetition — the
///   paper's "at least 3 repetitions … and took the average".
/// - [`observer`](RunPlan::observer) arms read-only per-event
///   observers (any number; they fire in registration order after
///   every executed event of every repetition). Observers never
///   perturb the simulation, so an observed plan is bit-identical to
///   an unobserved one with the same seed — including the
///   post-teardown `mbufs_leaked` accounting the oracle's
///   mbuf-conservation checker relies on.
/// - [`captured`](RunPlan::captured) turns the plan into a
///   [`crate::capture::CapturePlan`], whose `execute` also returns
///   both hosts' packet captures.
pub struct RunPlan<'a> {
    pub(crate) exp: &'a Experiment,
    pub(crate) seed: u64,
    pub(crate) reps: u64,
    pub(crate) observers: Vec<simkit::ObserverFn<World>>,
}

impl RunPlan<'_> {
    /// Sets the seed of the first repetition (default 1); repetition
    /// `r` (1-based) runs with seed `seed + (r - 1)`, wrapping.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of repetitions (default 1; must stay ≥ 1).
    #[must_use]
    pub fn reps(mut self, reps: u64) -> Self {
        self.reps = reps;
        self
    }

    /// Arms a read-only per-event observer: it fires after every
    /// executed event of every repetition with `(world, time, label)`.
    #[must_use]
    pub fn observer(mut self, obs: simkit::ObserverFn<World>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Executes the plan: `reps` repetitions starting at `seed`. RTT
    /// samples append in repetition order, breakdown iterations pool
    /// into one mean, and every counter is the sum over repetitions.
    #[must_use]
    pub fn execute(self) -> RunResult {
        assert!(self.reps >= 1, "a plan needs at least one repetition");
        let shared = share_observers(self.observers);
        let run = |seed| {
            self.exp
                .run_sim_with(seed, false, None, fan_out(&shared), |_| ())
        };
        let (mut acc, mut its, ()) = run(self.seed);
        for rep in 1..self.reps {
            let (r, more, ()) = run(self.seed.wrapping_add(rep));
            its.extend(more);
            acc.absorb(r);
        }
        (acc.tx, acc.rx, acc.breakdown_iters) = mean(&its);
        acc
    }
}

/// A plan's observers, shared across its repetitions (each repetition
/// builds a fresh engine, so the engine cannot own them outright).
/// `None` when the plan armed no observer — that path must stay
/// observer-free so an unobserved plan runs the exact production
/// event loop.
pub(crate) type SharedObservers = Option<Rc<RefCell<Vec<simkit::ObserverFn<World>>>>>;

pub(crate) fn share_observers(observers: Vec<simkit::ObserverFn<World>>) -> SharedObservers {
    if observers.is_empty() {
        None
    } else {
        Some(Rc::new(RefCell::new(observers)))
    }
}

/// One boxed trampoline fanning an engine callback out to every armed
/// observer in registration order.
pub(crate) fn fan_out(shared: &SharedObservers) -> Option<simkit::ObserverFn<World>> {
    shared.as_ref().map(|observers| {
        let observers = Rc::clone(observers);
        Box::new(move |w: &World, t: SimTime, label: &'static str| {
            for obs in observers.borrow_mut().iter_mut() {
                obs(w, t, label);
            }
        }) as simkit::ObserverFn<World>
    })
}

// Sweep workers receive experiments and hand back results across
// thread boundaries; keep both plain data.
const _: () = simkit::assert_world_send::<Experiment>();
const _: () = simkit::assert_world_send::<RunResult>();

/// NIC counters of interest to the fault experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct NicStats {
    /// Cells dropped by the adapter for HEC failures.
    pub hec_drops: u64,
    /// Datagrams dropped by AAL3/4 reassembly.
    pub aal_drops: u64,
    /// Frames dropped for Ethernet FCS failures.
    pub fcs_drops: u64,
    /// Cells lost on the link.
    pub link_lost: u64,
    /// Cells/frames corrupted on the link.
    pub link_corrupted: u64,
    /// Cells shed by RX FIFO overrun at the adapter.
    pub rx_overflow_drops: u64,
    /// Received datagrams/frames shed for mbuf exhaustion (ENOBUFS).
    pub enobufs_drops: u64,
}

impl std::ops::AddAssign for NicStats {
    /// Field-wise sum. Destructures exhaustively, so a new counter
    /// fails to compile here until it is pooled too.
    fn add_assign(&mut self, o: NicStats) {
        let NicStats {
            hec_drops,
            aal_drops,
            fcs_drops,
            link_lost,
            link_corrupted,
            rx_overflow_drops,
            enobufs_drops,
        } = o;
        self.hec_drops += hec_drops;
        self.aal_drops += aal_drops;
        self.fcs_drops += fcs_drops;
        self.link_lost += link_lost;
        self.link_corrupted += link_corrupted;
        self.rx_overflow_drops += rx_overflow_drops;
        self.enobufs_drops += enobufs_drops;
    }
}

fn nic_stats(nic: &Nic) -> NicStats {
    match nic {
        Nic::Atm(a) => NicStats {
            hec_drops: a.hec_drops,
            aal_drops: a.aal_drops,
            fcs_drops: 0,
            link_lost: a.link.cells_lost,
            link_corrupted: a.link.cells_corrupted,
            rx_overflow_drops: a.adapter.rx.overflow_drops,
            enobufs_drops: a.enobufs_drops,
        },
        Nic::Ether(e) => NicStats {
            hec_drops: 0,
            aal_drops: 0,
            fcs_drops: e.fcs_drops,
            link_lost: e.wire.frames_lost,
            link_corrupted: e.wire.frames_corrupted,
            rx_overflow_drops: 0,
            enobufs_drops: e.enobufs_drops,
        },
    }
}

/// Everything a repetition produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Per-iteration round-trip times.
    pub rtts: Vec<SimTime>,
    /// Average transmit breakdown (client side).
    pub tx: TxBreakdown,
    /// Average receive breakdown (client side).
    pub rx: RxBreakdown,
    /// Iterations that contributed to the breakdowns.
    pub breakdown_iters: usize,
    /// End-to-end payload verification failures.
    pub verify_failures: u64,
    /// Total application bytes moved.
    pub bytes_moved: u64,
    /// Client TCP counters.
    pub client_tcp: TcpStats,
    /// Server TCP counters.
    pub server_tcp: TcpStats,
    /// Client kernel counters.
    pub client_kernel: KernelStats,
    /// Server kernel counters.
    pub server_kernel: KernelStats,
    /// Client NIC counters.
    pub client_nic: NicStats,
    /// Server NIC counters.
    pub server_nic: NicStats,
    /// ENOBUFS allocation failures per host pool (client, server).
    pub enobufs: (u64, u64),
    /// Whether a connection was aborted by the retransmit limit: the
    /// run terminated early on a clean `ETIMEDOUT` instead of
    /// completing its iterations (the liveness guarantee under
    /// unsurvivable fault schedules).
    pub aborted: bool,
    /// Mbufs still outstanding per host pool (client, server) *after*
    /// the world was torn down. Non-zero means a leak: every code
    /// path — including every fault path — must return its buffers.
    pub mbufs_leaked: (u64, u64),
    /// Events executed.
    pub events: u64,
    /// Final simulation time.
    pub sim_time: SimTime,
}

impl RunResult {
    /// Mean round-trip time in microseconds.
    #[must_use]
    pub fn mean_rtt_us(&self) -> f64 {
        stats::mean_us(&self.rtts)
    }

    /// RTT standard deviation in microseconds.
    #[must_use]
    pub fn stddev_rtt_us(&self) -> f64 {
        stats::stddev_us(&self.rtts)
    }

    /// Pools a later repetition into this one: samples append,
    /// counters add, `aborted` ors and `sim_time` keeps its maximum;
    /// the caller reduces the breakdowns. Destructures exhaustively, so
    /// a new field fails to compile here until it is pooled too.
    fn absorb(&mut self, r: RunResult) {
        let RunResult {
            rtts,
            tx: _,
            rx: _,
            breakdown_iters: _,
            verify_failures,
            bytes_moved,
            client_tcp,
            server_tcp,
            client_kernel,
            server_kernel,
            client_nic,
            server_nic,
            enobufs,
            aborted,
            mbufs_leaked,
            events,
            sim_time,
        } = r;
        self.rtts.extend(rtts);
        self.verify_failures += verify_failures;
        self.bytes_moved += bytes_moved;
        self.client_tcp += client_tcp;
        self.server_tcp += server_tcp;
        self.client_kernel += client_kernel;
        self.server_kernel += server_kernel;
        self.client_nic += client_nic;
        self.server_nic += server_nic;
        self.enobufs.0 += enobufs.0;
        self.enobufs.1 += enobufs.1;
        self.aborted |= aborted;
        self.mbufs_leaked.0 += mbufs_leaked.0;
        self.mbufs_leaked.1 += mbufs_leaked.1;
        self.events += events;
        self.sim_time = self.sim_time.max(sim_time);
    }
}

/// Convenience: the experiment variants of §3 and §4 applied to a
/// base experiment.
impl Experiment {
    /// Disables header prediction (both the PCB cache and the fast
    /// path), as the §3 comparison kernel did.
    #[must_use]
    pub fn without_prediction(mut self) -> Self {
        self.cfg.header_prediction = false;
        self
    }

    /// Switches to the integrated copy-and-checksum kernel (§4.1.1).
    #[must_use]
    pub fn with_integrated_checksum(mut self) -> Self {
        self.cfg.checksum = ChecksumMode::Integrated;
        self
    }

    /// Eliminates the TCP checksum (§4.2).
    #[must_use]
    pub fn without_checksum(mut self) -> Self {
        self.cfg.checksum = ChecksumMode::None;
        self
    }

    /// Routes the path through an ATM switch with default parameters.
    #[must_use]
    pub fn through_switch(mut self, config: atm::SwitchConfig) -> Self {
        self.switch = Some(config);
        self
    }

    /// Attaches a faultkit schedule, armed per host at build time by
    /// [`crate::nic::arm_host`]. Running the experiment panics with
    /// the [`crate::nic::FaultRefusal`] if a field cannot be carried:
    /// ATM-only fields on Ethernet, or Ethernet-only fields on ATM.
    #[must_use]
    pub fn with_faults(mut self, faults: faultkit::FaultSchedule) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(net: NetKind, size: usize) -> Experiment {
        let mut e = Experiment::rpc(net, size);
        e.iterations = 30;
        e.warmup = 4;
        e
    }

    #[test]
    fn rpc_atm_runs_and_verifies() {
        let r = quick(NetKind::Atm, 200).plan().seed(1).execute();
        assert_eq!(r.rtts.len(), 30);
        assert_eq!(r.verify_failures, 0);
        assert!(r.mean_rtt_us() > 300.0, "rtt {}", r.mean_rtt_us());
        assert!(r.mean_rtt_us() < 5_000.0, "rtt {}", r.mean_rtt_us());
        assert!(r.breakdown_iters > 0);
    }

    #[test]
    fn rpc_ether_slower_than_atm() {
        let atm = quick(NetKind::Atm, 200).plan().seed(1).execute();
        let eth = quick(NetKind::Ether, 200).plan().seed(1).execute();
        assert_eq!(eth.verify_failures, 0);
        assert!(
            eth.mean_rtt_us() > atm.mean_rtt_us() * 1.3,
            "eth {} vs atm {}",
            eth.mean_rtt_us(),
            atm.mean_rtt_us()
        );
    }

    #[test]
    fn eight_kb_sends_two_segments() {
        let r = quick(NetKind::Atm, 8000).plan().seed(1).execute();
        assert_eq!(r.verify_failures, 0);
        // Two data segments per direction per iteration.
        let iters = 34; // 30 + 4 warmup.
        assert!(r.client_tcp.segs_out >= 2 * iters);
    }

    #[test]
    fn determinism() {
        let a = quick(NetKind::Atm, 500).plan().seed(7).execute();
        let b = quick(NetKind::Atm, 500).plan().seed(7).execute();
        assert_eq!(a.rtts, b.rtts);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn reps_pool_samples() {
        let mut e = quick(NetKind::Atm, 80);
        e.iterations = 10;
        let r = e.plan().reps(3).execute();
        assert_eq!(r.rtts.len(), 30);
    }

    #[test]
    fn switched_path_adds_latency_only() {
        let direct = quick(NetKind::Atm, 200).plan().seed(1).execute();
        let switched = quick(NetKind::Atm, 200)
            .through_switch(atm::SwitchConfig::default())
            .plan()
            .seed(1)
            .execute();
        assert_eq!(switched.verify_failures, 0);
        let delta = switched.mean_rtt_us() - direct.mean_rtt_us();
        // Two traversals (one per direction) of ~13 us each.
        assert!((15.0..60.0).contains(&delta), "delta {delta:.1}");
    }

    #[test]
    fn switch_fabric_corruption_caught_by_aal() {
        // §4.2.1 error source #1: the switch corrupts payloads; the
        // end-to-end AAL3/4 CRC-10 catches every instance even with
        // the TCP checksum eliminated.
        let mut e = quick(NetKind::Atm, 1400).without_checksum();
        e.switch = Some(atm::SwitchConfig {
            corrupt_prob: 0.002,
            ..atm::SwitchConfig::default()
        });
        let r = e.plan().seed(1).execute();
        assert_eq!(r.verify_failures, 0, "AAL shields the app");
        let caught = r.client_nic.aal_drops + r.server_nic.aal_drops;
        assert!(caught > 0, "some cells must have been corrupted: {r:?}");
    }

    #[test]
    fn udp_rpc_runs_and_is_faster_than_tcp() {
        let tcp = quick(NetKind::Atm, 200).plan().seed(1).execute();
        let mut u = Experiment::udp_rpc(NetKind::Atm, 200);
        u.iterations = 30;
        u.warmup = 4;
        let udp = u.plan().seed(1).execute();
        assert_eq!(udp.verify_failures, 0);
        // UDP skips mcopy, retransmission state, and the heavier TCP
        // input path: a few hundred µs per round trip.
        assert!(
            udp.mean_rtt_us() < tcp.mean_rtt_us() - 200.0,
            "udp {:.0} vs tcp {:.0}",
            udp.mean_rtt_us(),
            tcp.mean_rtt_us()
        );
        // But it is the same order: TCP is "viable for RPC" (§1).
        assert!(udp.mean_rtt_us() > tcp.mean_rtt_us() * 0.5);
    }

    #[test]
    fn bulk_transfer_completes() {
        let mut e = Experiment::bulk(NetKind::Atm, 4000, 50);
        e.warmup = 0;
        let r = e.plan().seed(1).execute();
        assert_eq!(r.verify_failures, 0);
        // The receiver of a unidirectional stream takes the fast
        // path; the sender's pure ACKs do too (§3).
        assert!(
            r.server_tcp.predict_data_hits > 0,
            "receiver fast path: {:?}",
            r.server_tcp
        );
    }
}
