//! The two-host discrete-event world.
//!
//! A [`World`] is two DECstations — client and server — joined by a
//! pair of unidirectional links (ATM fiber or Ethernet). Events move
//! datagrams between them:
//!
//! 1. an **app step** runs a benchmark process until it blocks
//!    (issuing writes and reads through the kernel, which charges
//!    CPU time and stages link deliveries);
//! 2. a **datagram arrival** runs the receiving host's hardware
//!    interrupt (driver + reassembly) and may schedule
//! 3. a **software interrupt** (`ipintr`: IP + TCP input), which may
//!    wake the blocked process, scheduling another app step;
//! 4. **TCP timers** (delayed ACK, retransmit) fire as events.
//!
//! Each host's CPU serializes all of its work through the busy-until
//! timeline in [`simkit::Cpu`], which is what turns the paper's IPQ
//! and Wakeup rows — and the transmit/receive overlap of the 8000-
//! byte case — into emergent measurements rather than inputs.
//!
//! Events 2 to 4, the delivery of each staged datagram and the pause
//! rule are [`crate::host`]'s, and the write, read and verify step of
//! event 1 is [`crate::app`]'s, both shared with the datacenter world.
//! This world owns its processes' roles (RPC, UDP RPC, bulk sender and
//! receiver), the arming of spans and taps at measurement start, the
//! rules that a finished client ends the echo server and an abort ends
//! both, and where an ATM train lands: at the last surviving cell on
//! bare fiber, or past a 2-port switch. An Ethernet frame lands when
//! the wire delivers it.

use atm::{AtmSwitch, VcRoute};
use faultkit::PauseSchedule;
use simkit::{Scheduler, Sim, SimTime};
use tcpip::config::tcp_mss;
use tcpip::{Kernel, Mark, PcbKey, SockId, StackConfig};

use crate::app::{App, Phase, Role, Step};
use crate::host::{deferred, flush, Hosts, InFlight, RawEvent};
use crate::nic::{Nic, NicMut, Train};

/// Client and server IP addresses.
const ADDRS: [[u8; 4]; 2] = [[10, 0, 0, 1], [10, 0, 0, 2]];
/// Client and server ports.
const PORTS: [u16; 2] = [1055, 4242];
/// The one ATM VC each direction carries, and its AAL3/4 MID.
const VCI: u16 = 42;
const MID: u16 = 1;

/// One simulated host.
pub struct Host {
    /// The kernel (stack + CPU + spans).
    pub kernel: Kernel,
    /// The network interface.
    pub nic: Nic,
    /// An ATM switch on this host's outbound path (the paper's
    /// testbed was switchless; §4.2.1 reasons about switched paths).
    switch: Option<AtmSwitch>,
    /// The benchmark process.
    pub app: App,
    /// Pause windows, as [`crate::nic::arm_host`] returned them.
    pub(crate) pause: Option<PauseSchedule>,
}

impl Host {
    /// Routes this host's outbound direction through a 2-port switch:
    /// the world's VC enters port 0 and leaves port 1 unchanged.
    pub(crate) fn route_through_switch(&mut self, config: atm::SwitchConfig, seed: u64) {
        let mut sw = AtmSwitch::new(2, config, seed);
        sw.add_vc(
            0,
            0,
            VCI,
            VcRoute {
                out_port: 1,
                out_vpi: 0,
                out_vci: VCI,
            },
        );
        self.switch = Some(sw);
    }
}

/// The simulation world: exactly two hosts, index 0 (client) and 1
/// (server).
pub struct World {
    /// The hosts.
    pub hosts: Vec<Host>,
    /// Set when measurement (post-warm-up) began.
    pub measuring: bool,
    /// When true, every capture tap (kernel, NIC, medium) is armed at
    /// measurement start, alongside the span recorders.
    pub capture: bool,
    /// When set alongside `capture`, kernel taps run as a flight
    /// recorder retaining only the last K frames per tap point;
    /// triggers ([`simcap::TriggerReason`]) freeze pcapng-ready
    /// snapshots instead of the run retaining everything.
    pub flight_k: Option<usize>,
    /// The datagrams on the wire.
    in_flight: InFlight,
    /// The client's request of the iteration being written, built in
    /// place each time.
    request: Vec<u8>,
}

// The parallel sweep runner builds and runs one world per cell inside
// a worker thread; the world (not the Sim, whose observer box stays
// thread-local) must be able to cross threads.
const _: () = simkit::assert_world_send::<World>();

impl World {
    /// Builds a world over pre-built NICs and apps. Each ATM NIC gets
    /// the VC to its peer. The connection is established
    /// administratively with BSD MSS rules; sequence state is aligned
    /// across the pair.
    #[must_use]
    pub fn new(
        cfg: StackConfig,
        costs: decstation::CostModel,
        mut nics: [Nic; 2],
        apps: [App; 2],
    ) -> World {
        for (h, nic) in nics.iter_mut().enumerate() {
            if let Nic::Atm(a) = nic {
                a.add_peer(ADDRS[1 - h], 1 - h, VCI, MID);
            }
        }
        let mss = tcp_mss(
            NicMut::from(&mut nics[0]).driver().mtu(),
            cfg.mss_one_cluster,
        );
        let [mut kc, mut ks] = [Kernel::new(cfg, costs.clone()), Kernel::new(cfg, costs)];
        // UDP workloads bind datagram sockets instead of a connection.
        let udp = apps[0].role == Role::UdpRpcClient;
        let socks = if udp {
            (
                kc.udp_bind(ADDRS[0], PORTS[0], true),
                ks.udp_bind(ADDRS[1], PORTS[1], true),
            )
        } else {
            let key = PcbKey {
                laddr: ADDRS[0],
                lport: PORTS[0],
                faddr: ADDRS[1],
                fport: PORTS[1],
            };
            Kernel::connect_pair(&mut kc, &mut ks, key, mss)
        };
        let hosts = [(kc, socks.0), (ks, socks.1)]
            .into_iter()
            .zip(nics)
            .zip(apps)
            .enumerate()
            .map(|(h, (((kernel, sock), nic), mut app))| {
                app.ep.sock = sock;
                app.ep.udp = udp.then_some((ADDRS[1 - h], PORTS[1 - h]));
                Host {
                    kernel,
                    nic,
                    switch: None,
                    app,
                    pause: None,
                }
            })
            .collect();
        World {
            hosts,
            measuring: false,
            capture: false,
            flight_k: None,
            in_flight: InFlight::default(),
            request: Vec::new(),
        }
    }

    /// Whether every process has finished.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.hosts.iter().all(|h| h.app.finished())
    }

    /// Arms both hosts' span recorders, and with `capture` every
    /// capture tap, once warm-up completes.
    fn start_measuring(&mut self) {
        self.measuring = true;
        for host in &mut self.hosts {
            host.kernel.spans.enabled = true;
            if self.capture {
                // Captures cover exactly the measured iterations, like
                // the span recorders.
                host.kernel.taps = match self.flight_k {
                    Some(k) => simcap::TapSet::flight(k),
                    None => simcap::TapSet::all(),
                };
                host.kernel.taps.arm();
                host.nic.arm_taps_mode(self.flight_k);
            }
        }
    }
}

/// Runs a world to completion; returns the simulation for inspection.
///
/// Every event is a function pointer plus one `u64`: the host index,
/// or for "atm-arrival" and "eth-arrival" the destination host and the
/// slot where the datagram waits in the world's in-flight slab,
/// packed by [`crate::host::pack`]. Scheduling an event allocates
/// nothing.
///
/// `obs`, when given, fires after every executed event with
/// `(world, event_time, event_label)`. Observation is read-only, so
/// the results are identical with or without it — this is how the
/// oracle's runtime invariant checkers watch a simulation without
/// perturbing it.
///
/// # Panics
///
/// Panics if the event queue drains while a process is still waiting
/// — a protocol deadlock, which the tests treat as a bug.
pub fn run_world(world: World, obs: Option<simkit::ObserverFn<World>>) -> Sim<World> {
    let mut sim = Sim::new(world);
    sim.schedule_raw(SimTime::ZERO, "app-start-client", app_step, 0);
    sim.schedule_raw(SimTime::ZERO, "app-start-server", app_step, 1);
    if let Some(obs) = obs {
        sim.set_observer(obs);
    }
    sim.run();
    debug_assert!(
        sim.world.in_flight.is_empty(),
        "a drained run parks nothing"
    );
    assert!(
        sim.world.finished(),
        "deadlock: event queue empty, apps not finished \
         (client {:?} iter {}, server {:?} iter {})",
        sim.world.hosts[0].app.ep.phase,
        sim.world.hosts[0].app.ep.done_count,
        sim.world.hosts[1].app.ep.phase,
        sim.world.hosts[1].app.ep.done_count,
    );
    sim
}

impl Hosts for World {
    fn stack(&mut self, h: usize) -> (&mut Kernel, NicMut<'_>) {
        let host = &mut self.hosts[h];
        (&mut host.kernel, NicMut::from(&mut host.nic))
    }

    fn in_flight(&mut self) -> &mut InFlight {
        &mut self.in_flight
    }

    fn pause(&self, h: usize) -> Option<PauseSchedule> {
        self.hosts[h].pause
    }

    fn route(&mut self, h: usize, _dst: usize, train: Train) -> Option<(SimTime, Train)> {
        let host = &mut self.hosts[h];
        match (&mut host.switch, &host.nic) {
            (Some(sw), Nic::Atm(nic)) => sw.forward_train(0, train, nic.link.config.propagation),
            // Switchless fiber: the interrupt fires when the last
            // surviving cell arrives. A train that lost every cell
            // arrives nowhere, as through a switch.
            _ => train
                .iter()
                .filter(|(_, fault)| !matches!(fault, atm::LinkFault::Lost))
                .map(|&(t, _)| t)
                .max()
                .map(|last| (last, train)),
        }
    }

    fn wakeup(h: usize, _sock: SockId, abort: bool) -> RawEvent<World> {
        let label = if abort { "abort-wakeup" } else { "app-wakeup" };
        (label, app_step, h as u64)
    }
}

/// Steps host `h`'s process until it blocks or finishes, and plays
/// its role at each whole message: the client times the round trip,
/// the bulk sender keeps writing and the bulk receiver keeps reading.
fn app_step(w: &mut World, s: &mut Scheduler<World>, data: u64) {
    let h = data as usize;
    if deferred(w, s, h, ("paused-step", app_step, data)) {
        return;
    }
    let mut now = s.now();
    loop {
        let app = &w.hosts[h].app;
        match app.ep.phase {
            Phase::Parked | Phase::Done => break,
            Phase::Write(_) if app.ep.done_count >= app.total_iterations() => {
                w.hosts[h].app.ep.phase = Phase::Done;
                break;
            }
            // Enable measurement once warm-up completes (the client
            // drives this for both hosts).
            Phase::Write(_) if h == 0 && app.measuring() && !w.measuring => w.start_measuring(),
            _ => {}
        }
        let Host {
            kernel, nic, app, ..
        } = &mut w.hosts[h];
        let nic = NicMut::from(nic).driver();
        let step = app.ep.step(&mut now, kernel, nic, &mut w.request);
        flush(w, s, h);
        let Host { kernel, app, .. } = &mut w.hosts[h];
        let (measuring, total) = (app.measuring(), app.total_iterations());
        let ep = &mut app.ep;
        if step == Step::Received {
            app.bytes += ep.size as u64;
        }
        match (step, app.role) {
            (Step::Blocked | Step::Failed, _) => break,
            // One message in flight at a time: a client's pattern
            // indices `sent` and `rcvd` are its iteration count.
            (Step::Sent, Role::BulkSender) => {
                ep.done_count += 1;
                debug_assert_eq!(ep.sent, ep.done_count);
                app.bytes += ep.size as u64;
                ep.phase = Phase::Write(0);
            }
            (Step::Sent, _) => debug_assert!(!ep.client || ep.sent == ep.done_count + 1),
            (Step::Received, Role::RpcClient | Role::UdpRpcClient) => {
                debug_assert_eq!(ep.rcvd, ep.done_count + 1);
                kernel.spans.mark(Mark::ReadReturn, now);
                if measuring {
                    app.rtts.push(ep.rtt(now));
                }
                ep.done_count += 1;
            }
            (Step::Received, Role::BulkReceiver) => {
                ep.done_count += 1;
                ep.got.clear();
                ep.phase = if ep.done_count >= total {
                    Phase::Done
                } else {
                    Phase::Read
                };
            }
            _ => {}
        }
    }
    // When the RPC client finishes, the benchmark is over: the echo
    // server (which would otherwise block in read forever)
    // terminates too.
    if w.hosts[0].app.finished()
        && matches!(w.hosts[1].app.role, Role::RpcServer | Role::UdpRpcServer)
    {
        w.hosts[1].app.ep.phase = Phase::Done;
    }
    // Liveness under faults: an aborted connection can make no further
    // progress on either side (a real stack would RST the peer), so
    // the whole benchmark terminates rather than leaving the peer
    // blocked forever.
    if w.hosts.iter().any(|h| h.app.ep.aborted) {
        for host in &mut w.hosts {
            host.app.ep.phase = Phase::Done;
        }
    }
}
