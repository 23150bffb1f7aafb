//! Latency spans: the paper's probe points.
//!
//! §1.2/§2.2: the authors bracketed each layer of the transmit and
//! receive paths with reads of the 40 ns TurboChannel clock. The
//! [`SpanRecorder`] reproduces that: protocol code records
//! `(kind, start, end)` intervals and point [`Mark`]s; the experiment
//! harness aggregates them with the paper's methodology (on the
//! receive side, only the portion of each span after the arrival of
//! the last cell group of the last segment "actually contributes to
//! the overall latency" and is counted).

use simkit::SimTime;

/// The instrumented code sections (rows of Tables 2 and 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// Transmit: write() to entry into TCP output (user copy +
    /// socket layer).
    TxUser,
    /// Transmit: TCP checksum over header and data.
    TxTcpChecksum,
    /// Transmit: the retransmission copy of the socket buffer.
    TxTcpMcopy,
    /// Transmit: remaining TCP output processing.
    TxTcpSegment,
    /// Transmit: IP output.
    TxIp,
    /// Transmit: ATM (or Ethernet) driver until the adapter is
    /// signalled to send the last byte.
    TxDriver,
    /// Receive: driver + adapter work (SAR, copy to mbufs).
    RxDriver,
    /// Receive: IP input queue residence (software interrupt
    /// scheduling).
    RxIpq,
    /// Receive: IP input processing.
    RxIp,
    /// Receive: TCP checksum verification.
    RxTcpChecksum,
    /// Receive: remaining TCP input processing.
    RxTcpSegment,
    /// Receive: run-queue wait from wakeup to the process running.
    RxWakeup,
    /// Receive: soreceive + copy to user + syscall return.
    RxUser,
}

/// Point events used to delimit measurement windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mark {
    /// The benchmark process entered write().
    WriteStart,
    /// The write() system call returned (end of the transmit path).
    WriteEnd,
    /// The adapter was signalled to send the last byte of the last
    /// segment of a send call.
    TxSignalled,
    /// The last cell group of a TCP segment arrived at the adapter.
    SegmentArrived,
    /// read() returned to the benchmark process with the full
    /// response.
    ReadReturn,
}

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Which code section.
    pub kind: SpanKind,
    /// Section entry time.
    pub start: SimTime,
    /// Section exit time.
    pub end: SimTime,
}

/// Collects spans and marks for one host.
///
/// Recording is O(1) per event into growing vectors; every
/// repetition builds a fresh world, and with it a fresh recorder.
#[derive(Clone, Debug, Default)]
pub struct SpanRecorder {
    spans: Vec<SpanEvent>,
    marks: Vec<(Mark, SimTime)>,
    /// When false, recording is a no-op (warm-up iterations).
    pub enabled: bool,
}

impl SpanRecorder {
    /// Creates a disabled recorder (enable for measured iterations).
    #[must_use]
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// Records an interval.
    pub fn span(&mut self, kind: SpanKind, start: SimTime, end: SimTime) {
        debug_assert!(end >= start, "span {kind:?} ends before it starts");
        if self.enabled {
            self.spans.push(SpanEvent { kind, start, end });
        }
    }

    /// Records a point event.
    pub fn mark(&mut self, mark: Mark, at: SimTime) {
        if self.enabled {
            self.marks.push((mark, at));
        }
    }

    /// All recorded intervals.
    #[must_use]
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// All recorded marks.
    #[must_use]
    pub fn marks(&self) -> &[(Mark, SimTime)] {
        &self.marks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_us(n)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = SpanRecorder::new();
        r.span(SpanKind::TxUser, us(0), us(5));
        r.mark(Mark::WriteStart, us(0));
        assert!(r.spans().is_empty());
        assert!(r.marks().is_empty());
    }
}
