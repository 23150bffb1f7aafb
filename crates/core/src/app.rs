//! The benchmark processes.
//!
//! §1.2: "The client connected to the server using TCP, started a
//! timer, and then repeatedly executed the following steps: it sent
//! *size* bytes to the server, and then waited to receive *size*
//! bytes from the server." The server echoes. Payload bytes are
//! patterned and verified end-to-end on every iteration.
//!
//! The bulk workload (a one-way transfer with a consuming reader)
//! exists to demonstrate the other side of §3: header prediction
//! *does* fire for unidirectional traffic.

use simkit::SimTime;

/// Progress state of a process between events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppState {
    /// Ready to issue the next write.
    WantWrite,
    /// Blocked in write for buffer space (`offset` bytes already
    /// accepted).
    BlockedInWrite(usize),
    /// Reading until the expected byte count arrives.
    WantRead,
    /// All iterations complete.
    Done,
}

/// Statistics one process accumulates.
#[derive(Clone, Debug, Default)]
pub struct AppStats {
    /// Completed request/response iterations (client) or messages
    /// (bulk receiver).
    pub iterations: u64,
    /// Per-iteration round-trip times (client only; measured
    /// iterations only).
    pub rtts: Vec<SimTime>,
    /// Payload verification failures.
    pub verify_failures: u64,
    /// Bytes transferred.
    pub bytes: u64,
}

/// A benchmark process.
pub struct App {
    /// Role-specific behaviour.
    pub role: Role,
    /// Current state.
    pub state: AppState,
    /// Message size.
    pub size: usize,
    /// Measured iterations to run.
    pub iterations: u64,
    /// Warm-up iterations (not timed, spans disabled).
    pub warmup: u64,
    /// Iterations completed so far (including warm-up).
    pub done_count: u64,
    /// Bytes received toward the current message.
    pub got: Vec<u8>,
    /// Timer start of the current iteration (client).
    pub t_start: SimTime,
    /// Set when the kernel aborted this process's connection (the
    /// retransmit limit fired): the process terminated on a syscall
    /// error instead of completing its iterations.
    pub aborted: bool,
    /// Statistics.
    pub stats: AppStats,
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
        let state = match role {
            Role::RpcClient | Role::BulkSender | Role::UdpRpcClient => AppState::WantWrite,
            Role::RpcServer | Role::BulkReceiver | Role::UdpRpcServer => AppState::WantRead,
        };
        App {
            role,
            state,
            size,
            iterations,
            warmup,
            done_count: 0,
            got: Vec::new(),
            t_start: SimTime::ZERO,
            aborted: false,
            stats: AppStats::default(),
        }
    }

    /// Sets `buf` to the deterministic `size`-byte request pattern for
    /// iteration `i`, reusing its storage: byte `b` is
    /// `31·b + 7·i + 1 (mod 256)`. As 223 is the inverse of 31 mod
    /// 256, that is `31·(b + s)` with `s = 223·(7·i + 1) mod 256`, so
    /// the pattern is one 256-byte period read from byte `s` on, built by
    /// slice copies.
    pub fn pattern(buf: &mut Vec<u8>, size: usize, i: u64) {
        period_fill(buf, &PATTERN_PERIOD, pattern_start(i), size);
    }

    /// Whether `got` is exactly the `App::pattern` of `size` and `i`,
    /// compared in place.
    #[must_use]
    pub(crate) fn pattern_matches(got: &[u8], size: usize, i: u64) -> bool {
        period_matches(got, &PATTERN_PERIOD, pattern_start(i), size)
    }

    /// Whether this process has finished all its iterations.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.state == AppState::Done
    }

    /// Whether the current iteration is past warm-up (i.e. timed).
    #[must_use]
    pub fn measuring(&self) -> bool {
        self.done_count >= self.warmup
    }

    /// Total iterations including warm-up.
    #[must_use]
    pub fn total_iterations(&self) -> u64 {
        self.iterations + self.warmup
    }
}

/// One period of [`App::pattern`]: byte `k` is `31·k mod 256`.
const PATTERN_PERIOD: [u8; 256] = {
    let mut t = [0; 256];
    let mut k = 0;
    while k < t.len() {
        t[k] = (31 * k) as u8;
        k += 1;
    }
    t
};

/// Where [`App::pattern`] of iteration `i` starts in [`PATTERN_PERIOD`]:
/// `223·(7·i + 1) mod 256`.
fn pattern_start(i: u64) -> usize {
    usize::from((i as u8).wrapping_mul(7).wrapping_add(1).wrapping_mul(223))
}

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

/// Sets `out` to the `size` bytes of `period` repeated from byte
/// `start` on, built by slice copies into its storage.
pub fn period_fill(out: &mut Vec<u8>, period: &'static [u8], start: usize, size: usize) {
    out.clear();
    out.reserve(size);
    for chunk in period_chunks(period, start, size) {
        out.extend_from_slice(chunk);
    }
}

/// Whether `got` is exactly what `period_fill(_, period, start, size)`
/// writes,
/// compared in place without allocating.
#[must_use]
pub fn period_matches(got: &[u8], period: &'static [u8], start: usize, size: usize) -> bool {
    got.len() == size && {
        let mut rest = got;
        period_chunks(period, start, size).all(|chunk| {
            let (head, tail) = rest.split_at(chunk.len());
            rest = tail;
            head == chunk
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_states_by_role() {
        assert_eq!(
            App::new(Role::RpcClient, 4, 1, 0).state,
            AppState::WantWrite
        );
        assert_eq!(App::new(Role::RpcServer, 4, 1, 0).state, AppState::WantRead);
        assert_eq!(
            App::new(Role::BulkSender, 4, 1, 0).state,
            AppState::WantWrite
        );
        assert_eq!(
            App::new(Role::BulkReceiver, 4, 1, 0).state,
            AppState::WantRead
        );
    }

    fn pattern(size: usize, i: u64) -> Vec<u8> {
        let mut buf = vec![0xee; 3];
        App::pattern(&mut buf, size, i);
        buf
    }

    #[test]
    fn pattern_is_deterministic_and_iteration_dependent() {
        assert_eq!(pattern(100, 3), pattern(100, 3));
        assert_ne!(pattern(100, 3), pattern(100, 4));
        assert_eq!(pattern(0, 1), Vec::<u8>::new());
    }

    /// The pattern's per-byte formula, the reference for the period
    /// table.
    fn pattern_reference(size: usize, i: u64) -> Vec<u8> {
        (0..size)
            .map(|b| (b as u64).wrapping_mul(31).wrapping_add(i * 7 + 1) as u8)
            .collect()
    }

    #[test]
    fn pattern_matches_the_per_byte_formula() {
        // Iteration 73 starts the period at its first byte, 32 at its
        // last (so the first chunk is one byte long).
        assert_eq!((pattern_start(73), pattern_start(32)), (0, 255));
        for i in [0, 1, 32, 73, 255, 256, 1000, 123_456] {
            for size in (0..=1024).chain([8000, 16_000]) {
                assert_eq!(
                    pattern(size, i),
                    pattern_reference(size, i),
                    "size {size}, iteration {i}"
                );
            }
        }
    }

    /// The in-place check counts what a full comparison counts: an
    /// exact buffer passes, and any wrong byte or length fails.
    #[test]
    fn in_place_check_agrees_with_comparison() {
        for i in [32, 73] {
            for size in [1, 256, 1400] {
                let want = pattern(size, i);
                let check = |got: &[u8]| {
                    assert_eq!(
                        App::pattern_matches(got, size, i),
                        got == want.as_slice(),
                        "size {size}, iteration {i}, got {} bytes",
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
        }
        assert!(App::pattern_matches(&[], 0, 5));
    }

    #[test]
    fn measuring_after_warmup() {
        let mut app = App::new(Role::RpcClient, 4, 10, 2);
        assert!(!app.measuring());
        app.done_count = 2;
        assert!(app.measuring());
        assert_eq!(app.total_iterations(), 12);
    }
}
