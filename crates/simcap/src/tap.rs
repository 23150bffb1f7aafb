//! Tap points and capture buffers.
//!
//! A [`TapSet`] sits at a layer boundary (socket, TCP, NIC DMA, wire)
//! and records serialized frames with 40 ns-quantized virtual
//! timestamps. A tap that is not armed costs one branch per potential
//! record and allocates nothing, so instrumented code paths are free
//! in ordinary runs.
//!
//! Two retention modes ([`CaptureMode`]):
//!
//! - **Full** keeps every recorded frame — the right mode for short
//!   diagnostic runs and the capture/inline cross-check;
//! - **Flight** is a flight recorder: only the last `K` frames per
//!   tap are retained (older frames are evicted as new ones arrive),
//!   so memory stays bounded on arbitrarily long runs. When something
//!   anomalous fires a [`TriggerReason`] — an invariant violation, an
//!   RTO, a typed connection abort, a deadline overrun — the set
//!   freezes the retained window into a [`TriggerSnapshot`] that can
//!   be dumped as a pcapng file: the frames *around* the anomaly,
//!   without having captured the whole run.

use simkit::time::SimTime;

/// Where in the stack a frame was observed.
///
/// The first seven mirror the paper's kernel probe points (§2.2):
/// the socket-layer entry/exit, the TCP output/input boundary, the
/// driver DMA hand-off, and the wire itself. The two `Link*` points
/// are raw medium captures recorded inside the `atm` / `ether`
/// substrate crates (53-byte cells, Ethernet frames with FCS).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TapPoint {
    /// `sosend` entry: user data accepted into the socket buffer.
    SockSend,
    /// TCP output: a finished segment (TCP/IP header prepended),
    /// before IP-layer spend.
    TcpSend,
    /// Driver transmit: the datagram handed to the NIC, stamped when
    /// the device signals transmit completion.
    NicDmaTx,
    /// Wire arrival at the receiving NIC (datagram granularity; for
    /// ATM this is the arrival of the last cell of the datagram).
    Wire,
    /// Receive driver completion: the reassembled datagram as the
    /// driver enqueues it for the IP input queue.
    NicDmaRx,
    /// TCP input: the segment as `tcp_input` first sees it
    /// (header still attached).
    TcpRecv,
    /// `soreceive` return: user data leaving the socket buffer.
    SockRecv,
    /// Raw ATM cells (53 bytes) as they leave the fiber.
    LinkCell,
    /// Raw Ethernet frames (with FCS) as they leave the wire.
    LinkFrame,
}

impl TapPoint {
    /// All tap points, in stack order.
    pub const ALL: [TapPoint; 9] = [
        TapPoint::SockSend,
        TapPoint::TcpSend,
        TapPoint::NicDmaTx,
        TapPoint::Wire,
        TapPoint::NicDmaRx,
        TapPoint::TcpRecv,
        TapPoint::SockRecv,
        TapPoint::LinkCell,
        TapPoint::LinkFrame,
    ];

    /// Bit position in a [`TapSet`] mask.
    #[must_use]
    pub fn bit(self) -> u16 {
        1 << (self as u16)
    }

    /// Short stable name (used for capture file names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TapPoint::SockSend => "sock_send",
            TapPoint::TcpSend => "tcp_send",
            TapPoint::NicDmaTx => "nic_dma_tx",
            TapPoint::Wire => "wire",
            TapPoint::NicDmaRx => "nic_dma_rx",
            TapPoint::TcpRecv => "tcp_recv",
            TapPoint::SockRecv => "sock_recv",
            TapPoint::LinkCell => "link_cell",
            TapPoint::LinkFrame => "link_frame",
        }
    }
}

/// One observed frame: tap point, 40 ns-quantized virtual time, bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapturedFrame {
    /// Where the frame was observed.
    pub tap: TapPoint,
    /// When (quantized to the 40 ns TurboChannel clock on record).
    pub at: SimTime,
    /// The serialized frame exactly as the layer saw it.
    pub bytes: Vec<u8>,
}

/// How a [`TapSet`] retains recorded frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CaptureMode {
    /// Keep every frame (memory grows with the run).
    #[default]
    Full,
    /// Flight recorder: keep only the last `last_k` frames per tap;
    /// a [`TriggerReason`] freezes the window into a snapshot.
    Flight {
        /// Frames retained per tap point.
        last_k: usize,
    },
}

/// Why a flight-recorder snapshot was frozen — the taxonomy of
/// anomalies worth a capture window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerReason {
    /// A runtime invariant checker reported a violation.
    Invariant,
    /// A retransmission timeout fired (slow-path recovery engaged).
    Rto,
    /// A connection was aborted (`ETIMEDOUT` at the retransmit
    /// limit — the typed abort path).
    Abort,
    /// A fan-out request ran past its deadline.
    DeadlineExceeded,
}

impl TriggerReason {
    /// Short stable name (used in snapshot dumps and logs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TriggerReason::Invariant => "invariant",
            TriggerReason::Rto => "rto",
            TriggerReason::Abort => "abort",
            TriggerReason::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

/// A frozen flight-recorder window: the frames the rings held when a
/// trigger fired, in observation order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriggerSnapshot {
    /// What froze the window.
    pub reason: TriggerReason,
    /// When the trigger fired (quantized).
    pub at: SimTime,
    /// The retained frames around the anomaly.
    pub frames: Vec<CapturedFrame>,
}

impl TriggerSnapshot {
    /// Serializes the snapshot window as a pcapng capture with the
    /// given link type (same format as a full capture, just shorter).
    #[must_use]
    pub fn to_pcapng_bytes(&self, linktype: u32) -> Vec<u8> {
        let records: Vec<(u64, Vec<u8>)> = self
            .frames
            .iter()
            .map(|f| (f.at.as_ns(), f.bytes.clone()))
            .collect();
        crate::pcapng::to_pcapng_bytes(linktype, &records)
    }
}

/// Maximum snapshots a set retains; later triggers on an already
/// well-documented anomaly storm are dropped so a pathological run
/// cannot grow memory through its own failure reporting.
pub const MAX_TRIGGER_SNAPSHOTS: usize = 4;

/// A set of taps plus the frames they captured, in observation order.
///
/// Two gates must both be open for a record to happen: the tap point
/// must be in the configured `mask`, and the set must be `armed`.
/// Harnesses configure the mask up front and arm at measurement
/// start, mirroring how the span recorder skips warmup iterations.
#[derive(Clone, Debug, Default)]
pub struct TapSet {
    mask: u16,
    armed: bool,
    mode: CaptureMode,
    frames: Vec<CapturedFrame>,
    /// Per-tap retained-frame counts (flight mode eviction accounting).
    per_tap: [usize; TapPoint::ALL.len()],
    snapshots: Vec<TriggerSnapshot>,
}

impl TapSet {
    /// A set with no taps configured — every record is a single
    /// always-false branch (the zero-cost disabled state).
    #[must_use]
    pub fn off() -> Self {
        TapSet::default()
    }

    /// A set with every tap point configured (still needs arming).
    #[must_use]
    pub fn all() -> Self {
        TapSet {
            mask: u16::MAX,
            ..TapSet::default()
        }
    }

    /// A set with exactly the given tap points configured.
    #[must_use]
    pub fn only(points: &[TapPoint]) -> Self {
        TapSet {
            mask: points.iter().fold(0, |m, p| m | p.bit()),
            ..TapSet::default()
        }
    }

    /// A flight recorder over every tap point: at most `last_k`
    /// frames per tap are retained (`last_k` must be ≥ 1).
    #[must_use]
    pub fn flight(last_k: usize) -> Self {
        TapSet::all().in_flight_mode(last_k)
    }

    /// Switches this set to flight mode with the given per-tap window.
    #[must_use]
    pub fn in_flight_mode(mut self, last_k: usize) -> Self {
        assert!(last_k >= 1, "a flight window needs at least one frame");
        self.mode = CaptureMode::Flight { last_k };
        self
    }

    /// This set's retention mode.
    #[must_use]
    pub fn mode(&self) -> CaptureMode {
        self.mode
    }

    /// Starts recording (idempotent).
    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// Whether a record at `p` would be kept. Instrumented code uses
    /// this to skip serialization work when the tap is cold.
    #[inline]
    #[must_use]
    pub fn wants(&self, p: TapPoint) -> bool {
        self.armed && self.mask & p.bit() != 0
    }

    /// Records a frame if the tap is hot. The timestamp is quantized
    /// to the 40 ns clock, exactly like the paper's timestamp probes.
    /// In flight mode, the oldest frame of the same tap is evicted
    /// once the per-tap window is full.
    pub fn record(&mut self, p: TapPoint, at: SimTime, bytes: Vec<u8>) {
        if !self.wants(p) {
            return;
        }
        if let CaptureMode::Flight { last_k } = self.mode {
            let slot = p as usize;
            if self.per_tap[slot] >= last_k {
                // The retained window is small (≤ taps × K frames),
                // so a linear scan for the oldest same-tap frame is
                // cheap and keeps `frames` in observation order.
                if let Some(idx) = self.frames.iter().position(|f| f.tap == p) {
                    self.frames.remove(idx);
                    self.per_tap[slot] -= 1;
                }
            }
            self.per_tap[slot] += 1;
        }
        self.frames.push(CapturedFrame {
            tap: p,
            at: at.quantized(),
            bytes,
        });
    }

    /// Fires a flight-recorder trigger: freezes the currently
    /// retained window into a [`TriggerSnapshot`] (up to
    /// [`MAX_TRIGGER_SNAPSHOTS`] per set). A no-op in
    /// [`CaptureMode::Full`] — a full capture already keeps
    /// everything — and on an unarmed or empty set, so instrumented
    /// anomaly paths can call it unconditionally.
    pub fn trigger(&mut self, reason: TriggerReason, at: SimTime) {
        if !matches!(self.mode, CaptureMode::Flight { .. })
            || !self.armed
            || self.frames.is_empty()
            || self.snapshots.len() >= MAX_TRIGGER_SNAPSHOTS
        {
            return;
        }
        self.snapshots.push(TriggerSnapshot {
            reason,
            at: at.quantized(),
            frames: self.frames.clone(),
        });
    }

    /// Frozen trigger snapshots, in firing order.
    #[must_use]
    pub fn snapshots(&self) -> &[TriggerSnapshot] {
        &self.snapshots
    }

    /// Takes the frozen snapshots, leaving the set configured.
    pub fn take_snapshots(&mut self) -> Vec<TriggerSnapshot> {
        std::mem::take(&mut self.snapshots)
    }

    /// All captured frames in observation order.
    #[must_use]
    pub fn frames(&self) -> &[CapturedFrame] {
        &self.frames
    }

    /// Frames observed at one tap point, in order.
    pub fn at(&self, p: TapPoint) -> impl Iterator<Item = &CapturedFrame> {
        self.frames.iter().filter(move |f| f.tap == p)
    }

    /// Takes the captured frames, leaving the set configured.
    pub fn take(&mut self) -> Vec<CapturedFrame> {
        self.per_tap = [0; TapPoint::ALL.len()];
        std::mem::take(&mut self.frames)
    }

    /// Number of captured frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when nothing has been captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = TapSet::off();
        t.arm();
        assert!(!t.wants(TapPoint::Wire));
        t.record(TapPoint::Wire, SimTime::from_ns(123), vec![1, 2, 3]);
        assert!(t.is_empty());
    }

    #[test]
    fn unarmed_records_nothing() {
        let mut t = TapSet::all();
        assert!(!t.wants(TapPoint::Wire));
        t.record(TapPoint::Wire, SimTime::from_ns(123), vec![1, 2, 3]);
        assert!(t.is_empty());
    }

    #[test]
    fn flight_mode_bounds_retention_per_tap() {
        let mut t = TapSet::flight(3);
        t.arm();
        for i in 0..10u64 {
            t.record(TapPoint::Wire, SimTime::from_ns(i * 40), vec![i as u8]);
            t.record(
                TapPoint::TcpSend,
                SimTime::from_ns(i * 40 + 1),
                vec![i as u8],
            );
        }
        assert_eq!(t.at(TapPoint::Wire).count(), 3);
        assert_eq!(t.at(TapPoint::TcpSend).count(), 3);
        assert_eq!(t.len(), 6);
        // The *last* K frames survive, in observation order.
        let kept: Vec<u8> = t.at(TapPoint::Wire).map(|f| f.bytes[0]).collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn trigger_freezes_the_window() {
        let mut t = TapSet::flight(2);
        t.arm();
        for i in 0..5u64 {
            t.record(TapPoint::Wire, SimTime::from_ns(i * 80), vec![i as u8]);
        }
        t.trigger(TriggerReason::Rto, SimTime::from_ns(400));
        // Later records do not disturb the frozen snapshot.
        t.record(TapPoint::Wire, SimTime::from_ns(999 * 40), vec![99]);
        assert_eq!(t.snapshots().len(), 1);
        let snap = &t.snapshots()[0];
        assert_eq!(snap.reason, TriggerReason::Rto);
        assert_eq!(snap.at, SimTime::from_ns(400));
        let seen: Vec<u8> = snap.frames.iter().map(|f| f.bytes[0]).collect();
        assert_eq!(seen, vec![3, 4]);
        // Snapshots serialize as a readable pcapng capture.
        let bytes = snap.to_pcapng_bytes(crate::pcap::LINKTYPE_USER0);
        let cap = crate::pcapng::read_pcapng(&bytes).unwrap();
        assert_eq!(cap.records.len(), 2);
    }

    #[test]
    fn trigger_is_inert_in_full_mode_and_caps_snapshots() {
        let mut full = TapSet::all();
        full.arm();
        full.record(TapPoint::Wire, SimTime::from_ns(0), vec![1]);
        full.trigger(TriggerReason::Abort, SimTime::from_ns(40));
        assert!(full.snapshots().is_empty());

        let mut t = TapSet::flight(1);
        t.arm();
        t.record(TapPoint::Wire, SimTime::from_ns(0), vec![1]);
        for _ in 0..(MAX_TRIGGER_SNAPSHOTS + 3) {
            t.trigger(TriggerReason::Invariant, SimTime::from_ns(40));
        }
        assert_eq!(t.snapshots().len(), MAX_TRIGGER_SNAPSHOTS);
    }

    #[test]
    fn armed_quantizes_timestamps() {
        let mut t = TapSet::only(&[TapPoint::TcpSend]);
        t.arm();
        t.record(TapPoint::TcpSend, SimTime::from_ns(123), vec![9]);
        t.record(TapPoint::Wire, SimTime::from_ns(200), vec![8]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.frames()[0].at, SimTime::from_ns(120));
        assert_eq!(t.at(TapPoint::TcpSend).count(), 1);
    }
}
