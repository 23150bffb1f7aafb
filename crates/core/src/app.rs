//! The benchmark process, one loop for every world.
//!
//! §1.2: "The client connected to the server using TCP, started a
//! timer, and then repeatedly executed the following steps: it sent
//! *size* bytes to the server, and then waited to receive *size*
//! bytes from the server." The server echoes. Payload bytes are
//! patterned and verified end-to-end on every iteration.
//!
//! This module owns that loop for both worlds: an [`Endpoint`] is one
//! side of one connection, and [`Endpoint::step`] runs its write or
//! read syscalls, the iteration timer and the payload check. A world
//! supplies only its roles and round control: the two-host world's
//! [`App`] (RPC, UDP RPC and the bulk transfer), the datacenter
//! world's per-connection endpoints and fan-out rounds.
//!
//! The bulk workload (a one-way transfer with a consuming reader)
//! exists to demonstrate the other side of §3: header prediction
//! *does* fire for unidirectional traffic.

use simkit::SimTime;
use tcpip::{Kernel, SockId, TxDriver};

/// Where an endpoint is in its loop between events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Writing a message, `offset` bytes already accepted (0 before
    /// the first write of the message).
    Write(usize),
    /// Reading until the message's `size` bytes arrive.
    Read,
    /// Waiting for its world's round control: a fan-out sub-request at
    /// the round barrier, or a hedge replica before its trigger.
    Parked,
    /// Finished: every iteration done, released or aborted.
    Done,
}

/// The bytes an endpoint's messages carry, a pure function of the
/// message index `i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// The two-host pattern: byte `b` is `31·b + 7·i + 1 (mod 256)`.
    Plain,
    /// The datacenter pattern, salted by the connection's identity
    /// (the client's global host index and connection index), so a
    /// segment delivered to the wrong connection (a PCB demultiplex
    /// bug) fails verification instead of passing silently: byte `b`
    /// is `(b + salt) mod 251`, the salt mixing `i` and the identity.
    Salted(usize, usize),
}

impl Payload {
    /// Sets `buf` to the `size`-byte message `i`, reusing its storage.
    /// Each pattern is one period read from a start that depends on
    /// `i` (and the salt), so it is built by slice copies.
    pub fn fill(self, buf: &mut Vec<u8>, size: usize, i: u64) {
        let (period, start) = self.period(i);
        buf.clear();
        buf.reserve(size);
        for chunk in period_chunks(period, start, size) {
            buf.extend_from_slice(chunk);
        }
    }

    /// Whether `got` is exactly message `i` of `size` bytes, compared
    /// in place without allocating.
    #[must_use]
    fn matches(self, got: &[u8], size: usize, i: u64) -> bool {
        let (period, start) = self.period(i);
        got.len() == size && {
            let mut rest = got;
            period_chunks(period, start, size).all(|chunk| {
                let (head, tail) = rest.split_at(chunk.len());
                rest = tail;
                head == chunk
            })
        }
    }

    /// The period message `i` repeats and where in it the message
    /// starts. As 223 is the inverse of 31 mod 256, the plain pattern
    /// is `31·(b + s)` with `s = 223·(7·i + 1) mod 256`.
    fn period(self, i: u64) -> (&'static [u8], usize) {
        match self {
            Payload::Plain => (
                &PLAIN_PERIOD,
                usize::from((i as u8).wrapping_mul(7).wrapping_add(1).wrapping_mul(223)),
            ),
            Payload::Salted(host, conn) => {
                let salt = i
                    .wrapping_mul(131)
                    .wrapping_add(host as u64 * 17)
                    .wrapping_add(conn as u64 * 7);
                (&SALTED_PERIOD, (salt % 251) as usize)
            }
        }
    }
}

/// One period of [`Payload::Plain`]: byte `k` is `31·k mod 256`.
const PLAIN_PERIOD: [u8; 256] = {
    let mut t = [0; 256];
    let mut k = 0;
    while k < t.len() {
        t[k] = (31 * k) as u8;
        k += 1;
    }
    t
};

/// One period of [`Payload::Salted`]: byte `k` is `k`.
const SALTED_PERIOD: [u8; 251] = {
    let mut t = [0; 251];
    let mut k = 0;
    while k < t.len() {
        t[k] = k as u8;
        k += 1;
    }
    t
};

/// The `size` bytes of a periodic payload as consecutive slices of
/// `period`: the first starts at `start`, every later one at 0.
fn period_chunks(
    period: &'static [u8],
    start: usize,
    size: usize,
) -> impl Iterator<Item = &'static [u8]> {
    let (mut start, mut left) = (start, size);
    std::iter::from_fn(move || {
        let chunk = &period[start..period.len().min(start + left)];
        left -= chunk.len();
        start = 0;
        (!chunk.is_empty()).then_some(chunk)
    })
}

/// What one [`Endpoint::step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The whole message went out; the endpoint reads next.
    Sent,
    /// The whole message came in and was verified; the endpoint writes
    /// next unless its world decides otherwise.
    Received,
    /// The socket blocked; the kernel's wakeup resumes the endpoint.
    Blocked,
    /// The connection failed (the retransmit limit aborted it): the
    /// endpoint is marked aborted, and its world ends it and its peer.
    Failed,
}

/// One side of one connection running the RPC loop: the client writes
/// message `sent` and checks each echo against message `rcvd`; the
/// server reads a message, checks it against `done_count` and echoes
/// it.
pub struct Endpoint {
    /// The socket.
    pub sock: SockId,
    /// Client side (writes the pattern and times the round trip) or
    /// server side (echoes).
    pub client: bool,
    /// Where the loop is.
    pub phase: Phase,
    /// Message size in bytes.
    pub size: usize,
    /// Bytes received toward the current message.
    pub got: Vec<u8>,
    /// Timer start of the current iteration (client).
    pub t_start: SimTime,
    /// Messages fully written (client): the pattern index of the next
    /// one. Ahead of `done_count` only while retried copies of a
    /// round's request are on the stream.
    pub sent: u64,
    /// Messages fully read back (client): the pattern index the next
    /// echo must match.
    pub rcvd: u64,
    /// Completed iterations (client, counted by its world) or echoed
    /// messages (server).
    pub done_count: u64,
    /// Payload verification failures.
    pub verify_failures: u64,
    /// Set when the kernel aborted the connection (the retransmit
    /// limit fired): the process terminated on a syscall error
    /// instead of completing its iterations.
    pub aborted: bool,
    /// The peer's address and port when the endpoint speaks UDP (one
    /// datagram per message); `None` over TCP.
    pub udp: Option<([u8; 4], u16)>,
    /// The bytes its messages carry.
    pub payload: Payload,
}

impl Endpoint {
    /// An endpoint over TCP socket `sock`: a client starts writing, a
    /// server reading.
    #[must_use]
    pub fn new(sock: SockId, client: bool, size: usize, payload: Payload) -> Self {
        Endpoint {
            sock,
            client,
            phase: if client { Phase::Write(0) } else { Phase::Read },
            size,
            got: Vec::new(),
            t_start: SimTime::ZERO,
            sent: 0,
            rcvd: 0,
            done_count: 0,
            verify_failures: 0,
            aborted: false,
            udp: None,
            payload,
        }
    }

    /// Runs the current message's write or reads from `now` until the
    /// message completes, the socket blocks or the connection fails,
    /// and advances `now` to the last syscall's return. The request is
    /// built in `request`, a buffer the world reuses. The syscalls
    /// stage what the kernel transmits; the caller runs
    /// [`crate::host::flush`] after every step, and steps again until
    /// the endpoint blocks, fails or its world parks or ends it.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint is parked or done.
    pub fn step(
        &mut self,
        now: &mut SimTime,
        kernel: &mut Kernel,
        nic: &mut dyn TxDriver,
        request: &mut Vec<u8>,
    ) -> Step {
        match self.phase {
            Phase::Write(offset) => self.write(now, kernel, nic, request, offset),
            Phase::Read => self.read(now, kernel, nic),
            Phase::Parked | Phase::Done => unreachable!("a parked or finished endpoint"),
        }
    }

    fn write(
        &mut self,
        now: &mut SimTime,
        kernel: &mut Kernel,
        nic: &mut dyn TxDriver,
        request: &mut Vec<u8>,
        offset: usize,
    ) -> Step {
        if offset == 0 && self.client {
            // Start the iteration timer: read the clock just before
            // write(), as the benchmark did.
            self.t_start = (*now).max(kernel.cpu.busy_until()).quantized();
        }
        let data = if self.client {
            self.payload.fill(request, self.size, self.sent);
            &*request
        } else {
            // The server echoes what it received.
            &self.got
        };
        let out = match self.udp {
            Some((addr, port)) => kernel.udp_sendto(*now, self.sock, addr, port, data, nic),
            None => kernel.syscall_write(*now, self.sock, &data[offset..], nic),
        };
        *now = out.done_at;
        if out.error.is_some() {
            self.aborted = true;
            return Step::Failed;
        }
        if out.blocked {
            self.phase = Phase::Write(offset + out.accepted);
            return Step::Blocked;
        }
        if self.client {
            self.sent += 1;
        } else {
            self.done_count += 1;
            self.got.clear();
        }
        self.phase = Phase::Read;
        Step::Sent
    }

    fn read(&mut self, now: &mut SimTime, kernel: &mut Kernel, nic: &mut dyn TxDriver) -> Step {
        loop {
            let out = match self.udp {
                Some(_) => kernel.udp_recvfrom(*now, self.sock, &mut self.got),
                None => {
                    let want = self.size - self.got.len();
                    kernel.syscall_read(*now, self.sock, want, &mut self.got, nic)
                }
            };
            if out.error.is_some() {
                self.aborted = true;
                return Step::Failed;
            }
            if out.blocked {
                return Step::Blocked;
            }
            *now = out.done_at;
            if self.got.len() >= self.size {
                break;
            }
        }
        // Echoes land in send order on the in-order stream, retried
        // copies included.
        let i = if self.client {
            self.rcvd
        } else {
            self.done_count
        };
        if !self.payload.matches(&self.got, self.size, i) {
            self.verify_failures += 1;
        }
        if self.client {
            // A client's buffer holds one echo at a time. It is
            // cleared here, not at the next write: a retry copy may be
            // written while a partial echo is assembling.
            self.got.clear();
            self.rcvd += 1;
        }
        self.phase = Phase::Write(0);
        Step::Received
    }

    /// The round trip of an iteration that ended at `end`, read from
    /// the quantized clock like its start.
    #[must_use]
    pub fn rtt(&self, end: SimTime) -> SimTime {
        end.quantized().saturating_since(self.t_start)
    }
}

/// A benchmark process of the two-host world.
pub struct App {
    /// Role-specific behaviour.
    pub role: Role,
    /// Measured iterations to run.
    pub iterations: u64,
    /// Warm-up iterations (not timed, spans disabled).
    pub warmup: u64,
    /// The process's one connection endpoint; its socket is bound when
    /// the world is built.
    pub ep: Endpoint,
    /// Round-trip times of the measured iterations (client only).
    pub rtts: Vec<SimTime>,
    /// Bytes transferred: every whole message read, and every message
    /// the bulk sender wrote.
    pub bytes: u64,
}

/// Process roles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// RPC client: write `size`, read `size`, repeat.
    RpcClient,
    /// RPC server: read `size`, echo it back, repeat.
    RpcServer,
    /// Bulk sender: stream `iterations × size` bytes.
    BulkSender,
    /// Bulk receiver: consume everything.
    BulkReceiver,
    /// RPC client over UDP datagrams (one datagram per message; the
    /// comparison §1's "is TCP viable for RPC?" question implies).
    UdpRpcClient,
    /// RPC echo server over UDP.
    UdpRpcServer,
}

impl App {
    /// Creates a process.
    #[must_use]
    pub fn new(role: Role, size: usize, iterations: u64, warmup: u64) -> Self {
        let client = matches!(
            role,
            Role::RpcClient | Role::BulkSender | Role::UdpRpcClient
        );
        App {
            role,
            iterations,
            warmup,
            ep: Endpoint::new(0, client, size, Payload::Plain),
            rtts: Vec::new(),
            bytes: 0,
        }
    }

    /// Whether this process has finished all its iterations.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.ep.phase == Phase::Done
    }

    /// Whether the current iteration is past warm-up (i.e. timed).
    #[must_use]
    pub fn measuring(&self) -> bool {
        self.ep.done_count >= self.warmup
    }

    /// Total iterations including warm-up.
    #[must_use]
    pub fn total_iterations(&self) -> u64 {
        self.iterations + self.warmup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_states_by_role() {
        let phase = |role| App::new(role, 4, 1, 0).ep.phase;
        assert_eq!(phase(Role::RpcClient), Phase::Write(0));
        assert_eq!(phase(Role::RpcServer), Phase::Read);
        assert_eq!(phase(Role::BulkSender), Phase::Write(0));
        assert_eq!(phase(Role::BulkReceiver), Phase::Read);
    }

    fn pattern(payload: Payload, size: usize, i: u64) -> Vec<u8> {
        let mut buf = vec![0xee; 3];
        payload.fill(&mut buf, size, i);
        buf
    }

    #[test]
    fn pattern_is_deterministic_and_iteration_dependent() {
        assert_eq!(
            pattern(Payload::Plain, 100, 3),
            pattern(Payload::Plain, 100, 3)
        );
        assert_ne!(
            pattern(Payload::Plain, 100, 3),
            pattern(Payload::Plain, 100, 4)
        );
        assert_eq!(pattern(Payload::Plain, 0, 1), Vec::<u8>::new());
    }

    #[test]
    fn salted_pattern_is_connection_unique() {
        let a = pattern(Payload::Salted(0, 0), 64, 0);
        assert_ne!(a, pattern(Payload::Salted(0, 1), 64, 0));
        assert_ne!(a, pattern(Payload::Salted(1, 0), 64, 0));
        assert_ne!(a, pattern(Payload::Salted(0, 0), 64, 1));
        assert_eq!(a, pattern(Payload::Salted(0, 0), 64, 0));
    }

    /// Each pattern's per-byte formula, the reference for its period
    /// table.
    fn pattern_reference(payload: Payload, size: usize, i: u64) -> Vec<u8> {
        match payload {
            Payload::Plain => (0..size)
                .map(|b| (b as u64).wrapping_mul(31).wrapping_add(i * 7 + 1) as u8)
                .collect(),
            Payload::Salted(host, conn) => {
                let salt = i
                    .wrapping_mul(131)
                    .wrapping_add(host as u64 * 17)
                    .wrapping_add(conn as u64 * 7);
                (0..size).map(|b| ((b as u64 + salt) % 251) as u8).collect()
            }
        }
    }

    #[test]
    fn pattern_matches_the_per_byte_formula() {
        // Plain: message 73 starts the period at its first byte, 32 at
        // its last (so the first chunk is one byte long). Salted:
        // salts ≡ 0 and ≡ 250 (mod 251) do the same.
        let edges = [
            (Payload::Plain, 73, 0),
            (Payload::Plain, 32, 255),
            (Payload::Salted(0, 0), 251, 0),
            (Payload::Salted(2, 31), 0, 0),
            (Payload::Salted(0, 0), 228, 250),
            (Payload::Salted(11, 9), 0, 250),
        ];
        for (payload, i, start) in edges {
            assert_eq!(payload.period(i).1, start, "{payload:?}, message {i}");
        }
        let plain = [0, 1, 255, 256, 1000, 123_456].map(|i| (Payload::Plain, i));
        let salted = [
            (Payload::Salted(0, 0), 0),
            (Payload::Salted(3, 9), 5),
            (Payload::Salted(63, 255), 1000),
            (Payload::Salted(7, 1023), 123_456),
        ];
        let cases = edges.map(|(p, i, _)| (p, i)).into_iter();
        for (payload, i) in cases.chain(plain).chain(salted) {
            for size in (0..=1024).chain([8000, 16_000]) {
                assert_eq!(
                    pattern(payload, size, i),
                    pattern_reference(payload, size, i),
                    "{payload:?}, size {size}, message {i}"
                );
            }
        }
    }

    /// The in-place check counts what a full comparison counts: an
    /// exact buffer passes, and any wrong byte or length fails.
    #[test]
    fn in_place_check_agrees_with_comparison() {
        let cases = [
            (Payload::Plain, 32),
            (Payload::Plain, 73),
            (Payload::Salted(2, 3), 228),
        ];
        for (payload, i) in cases {
            for size in [1, 252, 256, 1400] {
                let want = pattern(payload, size, i);
                let check = |got: &[u8]| {
                    assert_eq!(
                        payload.matches(got, size, i),
                        got == want.as_slice(),
                        "{payload:?}, size {size}, message {i}, got {} bytes",
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
            assert!(payload.matches(&[], 0, i));
        }
    }

    #[test]
    fn measuring_after_warmup() {
        let mut app = App::new(Role::RpcClient, 4, 10, 2);
        assert!(!app.measuring());
        app.ep.done_count = 2;
        assert!(app.measuring());
        assert_eq!(app.total_iterations(), 12);
    }
}
