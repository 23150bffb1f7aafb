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

use atm::{AtmSwitch, VcRoute};
use simkit::{Scheduler, Sim, SimTime};
use tcpip::config::tcp_mss;
use tcpip::{Kernel, Mark, PcbKey, SockId, StackConfig, TxDriver as _};

use crate::app::{App, AppState, Role};
use crate::nic::{atm_receive, ether_receive, AtmDelivery, EtherDelivery, Nic};

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
    /// The process's socket.
    pub sock: SockId,
    /// Earliest scheduled TCP timer event, to avoid duplicates.
    timer_at: Option<SimTime>,
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
}

// The parallel sweep runner builds and runs one world per cell inside
// a worker thread; the world (not the Sim — event closures stay
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
        let mss = tcp_mss(nics[0].mtu(), cfg.mss_one_cluster);
        let [mut kc, mut ks] = [Kernel::new(cfg, costs.clone()), Kernel::new(cfg, costs)];
        // UDP workloads bind datagram sockets instead of a connection.
        let socks = if apps[0].role == Role::UdpRpcClient {
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
            .map(|(((kernel, sock), nic), app)| Host {
                kernel,
                nic,
                switch: None,
                app,
                sock,
                timer_at: None,
            })
            .collect();
        World {
            hosts,
            measuring: false,
            capture: false,
            flight_k: None,
        }
    }

    /// Whether every process has finished.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.hosts.iter().all(|h| h.app.finished())
    }
}

/// Runs a world to completion; returns the simulation for inspection.
///
/// The start events and all hot-path follow-ups ("softintr",
/// "app-wakeup", "abort-wakeup", "tcp-timer") are raw events — a
/// function pointer plus the host index — so the steady-state event
/// loop performs no per-event allocation.
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
    sim.schedule_raw(SimTime::ZERO, "app-start-client", app_step_raw, 0);
    sim.schedule_raw(SimTime::ZERO, "app-start-server", app_step_raw, 1);
    if let Some(obs) = obs {
        sim.set_observer(obs);
    }
    sim.run();
    assert!(
        sim.world.finished(),
        "deadlock: event queue empty, apps not finished \
         (client {:?} iter {}, server {:?} iter {})",
        sim.world.hosts[0].app.state,
        sim.world.hosts[0].app.done_count,
        sim.world.hosts[1].app.state,
        sim.world.hosts[1].app.done_count,
    );
    sim
}

/// Schedules staged deliveries and (re)arms the TCP timer after any
/// kernel interaction on host `h`.
fn flush_host(w: &mut World, s: &mut Scheduler<World>, h: usize) {
    let peer = 1 - h;
    let host = &mut w.hosts[h];
    match &mut host.nic {
        Nic::Atm(nic) => {
            for AtmDelivery { train, .. } in std::mem::take(&mut nic.staged) {
                let delivery = match &mut host.switch {
                    // Switchless fiber: the interrupt fires when the
                    // train's last cell arrives, lost or not.
                    None => {
                        let last = train
                            .iter()
                            .map(|&(t, _)| t)
                            .fold(SimTime::ZERO, SimTime::max);
                        Some((last, train))
                    }
                    Some(sw) => sw.forward_train(0, train, nic.link.config.propagation),
                };
                if let Some((arrival, train)) = delivery {
                    s.schedule_at(arrival.max(s.now()), "atm-arrival", move |w, s| {
                        on_atm_arrival(w, s, peer, train);
                    });
                }
            }
        }
        Nic::Ether(nic) => {
            for EtherDelivery { arrival, frame } in std::mem::take(&mut nic.staged) {
                s.schedule_at(arrival.max(s.now()), "eth-arrival", move |w, s| {
                    on_eth_arrival(w, s, peer, frame);
                });
            }
        }
    }
    if let Some(dl) = host.kernel.next_deadline() {
        let stale = host.timer_at.is_none_or(|t| dl < t || t <= s.now());
        if stale {
            host.timer_at = Some(dl);
            s.schedule_raw_at(dl.max(s.now()), "tcp-timer", on_timer_raw, h as u64);
        }
    }
}

/// Raw-event trampolines: the engine hot path stores these as plain
/// function pointers with the host index as payload, so scheduling
/// them allocates nothing.
fn app_step_raw(w: &mut World, s: &mut Scheduler<World>, h: u64) {
    app_step(w, s, h as usize);
}

fn on_softintr_raw(w: &mut World, s: &mut Scheduler<World>, h: u64) {
    on_softintr(w, s, h as usize);
}

fn on_timer_raw(w: &mut World, s: &mut Scheduler<World>, h: u64) {
    on_timer(w, s, h as usize);
}

/// ATM datagram arrival: the hardware interrupt.
fn on_atm_arrival(
    w: &mut World,
    s: &mut Scheduler<World>,
    h: usize,
    train: Vec<(SimTime, atm::LinkFault)>,
) {
    let host = &mut w.hosts[h];
    let Nic::Atm(nic) = &mut host.nic else {
        panic!("ATM delivery to a non-ATM host");
    };
    if let Some(at) = atm_receive(&mut host.kernel, nic, s.now(), &train) {
        s.schedule_raw_at(at, "softintr", on_softintr_raw, h as u64);
    }
}

/// Ethernet frame arrival: the hardware interrupt.
fn on_eth_arrival(w: &mut World, s: &mut Scheduler<World>, h: usize, bytes: Vec<u8>) {
    let host = &mut w.hosts[h];
    let Nic::Ether(nic) = &mut host.nic else {
        panic!("Ethernet delivery to a non-Ethernet host");
    };
    if let Some(at) = ether_receive(&mut host.kernel, nic, s.now(), &bytes) {
        s.schedule_raw_at(at, "softintr", on_softintr_raw, h as u64);
    }
}

/// The software interrupt: IP/TCP input, wakeups, responses.
fn on_softintr(w: &mut World, s: &mut Scheduler<World>, h: usize) {
    let host = &mut w.hosts[h];
    let out = host.kernel.ipintr(s.now(), &mut host.nic);
    flush_host(w, s, h);
    for (_, run_at) in out.wakeups.iter().chain(out.writer_wakeups.iter()) {
        let at = (*run_at).max(s.now());
        s.schedule_raw_at(at, "app-wakeup", app_step_raw, h as u64);
    }
}

/// A TCP timer event.
fn on_timer(w: &mut World, s: &mut Scheduler<World>, h: usize) {
    w.hosts[h].timer_at = None;
    let host = &mut w.hosts[h];
    let _ = host.kernel.check_timers(s.now(), &mut host.nic);
    flush_host(w, s, h);
    // A timer may have aborted a connection (retransmit limit) and
    // woken the blocked process so it can observe the error: without
    // this wakeup an aborted run would hang instead of terminating.
    for (_sock, run_at) in w.hosts[h].kernel.take_timer_wakeups() {
        let at = run_at.max(s.now());
        s.schedule_raw_at(at, "abort-wakeup", app_step_raw, h as u64);
    }
}

/// Runs a process until it blocks or finishes.
fn app_step(w: &mut World, s: &mut Scheduler<World>, h: usize) {
    app_step_inner(w, s, h);
    // When the RPC client finishes, the benchmark is over: the echo
    // server (which would otherwise block in read forever)
    // terminates too.
    if w.hosts[0].app.state == AppState::Done
        && matches!(w.hosts[1].app.role, Role::RpcServer | Role::UdpRpcServer)
    {
        w.hosts[1].app.state = AppState::Done;
    }
    // Liveness under faults: an aborted connection can make no further
    // progress on either side (a real stack would RST the peer), so
    // the whole benchmark terminates rather than leaving the peer
    // blocked forever.
    if w.hosts.iter().any(|h| h.app.aborted) {
        for host in &mut w.hosts {
            host.app.state = AppState::Done;
        }
    }
}

fn app_step_inner(w: &mut World, s: &mut Scheduler<World>, h: usize) {
    let mut now = s.now();
    loop {
        // Borrow checker dance: each arm re-borrows the host.
        let state = w.hosts[h].app.state;
        match state {
            AppState::Done => break,
            AppState::WantWrite | AppState::BlockedInWrite(_) => {
                let host = &mut w.hosts[h];
                if host.app.done_count >= host.app.total_iterations() {
                    host.app.state = AppState::Done;
                    break;
                }
                // Enable measurement once warm-up completes (client
                // drives this for both hosts).
                if h == 0 && host.app.measuring() && !w.measuring {
                    w.measuring = true;
                    let capture = w.capture;
                    let flight_k = w.flight_k;
                    for host in &mut w.hosts {
                        host.kernel.spans.enabled = true;
                        if capture {
                            // Captures cover exactly the measured
                            // iterations, like the span recorders.
                            host.kernel.taps = match flight_k {
                                Some(k) => simcap::TapSet::flight(k),
                                None => simcap::TapSet::all(),
                            };
                            host.kernel.taps.arm();
                            host.nic.arm_taps_mode(flight_k);
                        }
                    }
                }
                let host = &mut w.hosts[h];
                let offset = match state {
                    AppState::BlockedInWrite(n) => n,
                    _ => 0,
                };
                let data = match host.app.role {
                    // The server echoes what it received.
                    Role::RpcServer | Role::UdpRpcServer => host.app.got.clone(),
                    _ => App::pattern(host.app.size, host.app.done_count),
                };
                if offset == 0 && matches!(host.app.role, Role::RpcClient | Role::UdpRpcClient) {
                    // Start the iteration timer: read the clock just
                    // before write(), as the benchmark did.
                    host.app.t_start = now.max(host.kernel.cpu.busy_until()).quantized();
                }
                let udp = matches!(host.app.role, Role::UdpRpcClient | Role::UdpRpcServer);
                let Host {
                    kernel, nic, sock, ..
                } = host;
                let out = if udp {
                    kernel.udp_sendto(now, *sock, ADDRS[1 - h], PORTS[1 - h], &data, nic)
                } else {
                    kernel.syscall_write(now, *sock, &data[offset..], nic)
                };
                flush_host(w, s, h);
                let host = &mut w.hosts[h];
                now = out.done_at;
                if out.error.is_some() {
                    // The connection was aborted (ETIMEDOUT): the
                    // write fails cleanly and the process exits.
                    host.app.aborted = true;
                    host.app.state = AppState::Done;
                    break;
                }
                if out.blocked {
                    host.app.state = AppState::BlockedInWrite(offset + out.accepted);
                    break;
                }
                // Write complete: what next depends on the role.
                match host.app.role {
                    Role::RpcClient | Role::UdpRpcClient => {
                        host.app.got.clear();
                        host.app.state = AppState::WantRead;
                    }
                    Role::RpcServer | Role::UdpRpcServer => {
                        host.app.done_count += 1;
                        host.app.got.clear();
                        host.app.state = AppState::WantRead;
                    }
                    Role::BulkSender => {
                        host.app.done_count += 1;
                        host.app.stats.iterations += 1;
                        host.app.stats.bytes += host.app.size as u64;
                        // Clear any blocked-write offset carried here.
                        host.app.state = AppState::WantWrite;
                    }
                    Role::BulkReceiver => unreachable!("receivers don't write"),
                }
            }
            AppState::WantRead => {
                let host = &mut w.hosts[h];
                let want = host.app.size - host.app.got.len();
                let udp = matches!(host.app.role, Role::UdpRpcClient | Role::UdpRpcServer);
                let Host {
                    kernel, nic, sock, ..
                } = host;
                let out = if udp {
                    kernel.udp_recvfrom(now, *sock)
                } else {
                    kernel.syscall_read(now, *sock, want, nic)
                };
                flush_host(w, s, h);
                let host = &mut w.hosts[h];
                if out.error.is_some() {
                    // Read on an aborted connection: error, exit.
                    host.app.aborted = true;
                    host.app.state = AppState::Done;
                    break;
                }
                if out.blocked {
                    break;
                }
                now = out.done_at;
                host.app.got.extend_from_slice(&out.data);
                host.app.stats.bytes += out.data.len() as u64;
                if host.app.got.len() < host.app.size {
                    continue;
                }
                // A full message arrived.
                match host.app.role {
                    Role::RpcClient | Role::UdpRpcClient => {
                        host.kernel.spans.mark(Mark::ReadReturn, now);
                        let expect = App::pattern(host.app.size, host.app.done_count);
                        if host.app.got != expect {
                            host.app.stats.verify_failures += 1;
                        }
                        if host.app.measuring() {
                            let rtt = now.quantized().saturating_since(host.app.t_start);
                            host.app.stats.rtts.push(rtt);
                            host.app.stats.iterations += 1;
                        }
                        host.app.done_count += 1;
                        host.app.state = AppState::WantWrite;
                    }
                    Role::RpcServer | Role::UdpRpcServer => {
                        let expect = App::pattern(host.app.size, host.app.done_count);
                        if host.app.got != expect {
                            host.app.stats.verify_failures += 1;
                        }
                        host.app.state = AppState::WantWrite;
                    }
                    Role::BulkReceiver => {
                        let expect = App::pattern(host.app.size, host.app.done_count);
                        if host.app.got != expect {
                            host.app.stats.verify_failures += 1;
                        }
                        host.app.done_count += 1;
                        host.app.stats.iterations += 1;
                        host.app.got.clear();
                        if host.app.done_count >= host.app.total_iterations() {
                            host.app.state = AppState::Done;
                        }
                    }
                    Role::BulkSender => unreachable!("senders don't read"),
                }
            }
        }
    }
}
