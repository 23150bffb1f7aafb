//! Applying the paper's measurement methodology to recorded spans.
//!
//! Transmit (Table 2): spans are summed from the entry into write()
//! to the instant "the ATM adapter is signaled to send the last byte
//! of data" — everything later overlaps network transmission.
//!
//! Receive (Table 3): "We only measure the portion of the receive
//! processing that actually contributes to the overall latency. This
//! is the time from the arrival of the last group of ATM cells
//! comprising the last TCP segment of a data transfer to the time
//! when the read system call returns." Accordingly every receive
//! span is clipped to the window `[last segment arrival, read
//! return]`; work that overlapped the sender's transmission (e.g.
//! the driver processing of the first of two back-to-back segments)
//! is excluded exactly as the paper excluded it.

use simkit::SimTime;
use tcpip::{Mark, SpanKind, SpanRecorder};

/// Average transmit-side breakdown (µs), one field per Table 2 row.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TxBreakdown {
    /// User: write() to TCP entry.
    pub user: f64,
    /// TCP: checksum.
    pub cksum: f64,
    /// TCP: mcopy.
    pub mcopy: f64,
    /// TCP: remaining segment processing.
    pub segment: f64,
    /// IP output.
    pub ip: f64,
    /// Driver (the paper's ATM row).
    pub driver: f64,
}

impl TxBreakdown {
    /// Sum of the rows (the paper's Total).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.user + self.cksum + self.mcopy + self.segment + self.ip + self.driver
    }

    /// The TCP sub-total (checksum + mcopy + segment).
    #[must_use]
    pub fn tcp_total(&self) -> f64 {
        self.cksum + self.mcopy + self.segment
    }
}

/// Average receive-side breakdown (µs), one field per Table 3 row.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RxBreakdown {
    /// Driver + adapter (the paper's ATM row).
    pub driver: f64,
    /// IP queue + software-interrupt scheduling.
    pub ipq: f64,
    /// IP input.
    pub ip: f64,
    /// TCP checksum verification.
    pub cksum: f64,
    /// TCP remaining input processing.
    pub segment: f64,
    /// Run-queue wait.
    pub wakeup: f64,
    /// soreceive + copyout + return.
    pub user: f64,
}

impl RxBreakdown {
    /// Sum of the rows (the paper's Total).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.driver + self.ipq + self.ip + self.cksum + self.segment + self.wakeup + self.user
    }

    /// The TCP sub-total (checksum + segment).
    #[must_use]
    pub fn tcp_total(&self) -> f64 {
        self.cksum + self.segment
    }
}

/// Number of [`SpanKind`]s; an [`Iteration`] keeps one total per kind.
const KINDS: usize = SpanKind::RxUser as usize + 1;

/// One measured iteration: a `WriteStart`/`ReadReturn` mark pair,
/// its two windows, and the clipped span time of every kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Iteration {
    /// Entry into write(): the transmit window opens.
    pub write: SimTime,
    /// The transmit window closes: the first `WriteEnd` at or after
    /// [`write`](Self::write), capped at [`read`](Self::read).
    pub write_end: SimTime,
    /// The receive window opens at the last `SegmentArrived` at or
    /// before [`read`](Self::read); `None` when that arrival precedes
    /// the write (or there is none), and the iteration then has no
    /// receive half.
    pub arrival: Option<SimTime>,
    /// read() returned with the full response.
    pub read: SimTime,
    totals: [SimTime; KINDS],
}

impl Iteration {
    /// Span time of `kind` clipped to its side's window: transmit
    /// kinds to `[write, write_end]`, receive kinds to
    /// `[arrival, read]` (zero when there is no receive window).
    #[must_use]
    pub fn total(&self, kind: SpanKind) -> SimTime {
        self.totals[kind as usize]
    }

    /// The Table 2 rows of this iteration.
    #[must_use]
    pub fn tx(&self) -> TxBreakdown {
        rows(|k| self.total(k).as_us_f64()).0
    }

    /// The Table 3 rows, if the iteration has a receive window.
    #[must_use]
    pub fn rx(&self) -> Option<RxBreakdown> {
        self.arrival.map(|_| rows(|k| self.total(k).as_us_f64()).1)
    }
}

/// Both tables' rows, each read from `us(kind)`.
fn rows(us: impl Fn(SpanKind) -> f64) -> (TxBreakdown, RxBreakdown) {
    let tx = TxBreakdown {
        user: us(SpanKind::TxUser),
        cksum: us(SpanKind::TxTcpChecksum),
        mcopy: us(SpanKind::TxTcpMcopy),
        segment: us(SpanKind::TxTcpSegment),
        ip: us(SpanKind::TxIp),
        driver: us(SpanKind::TxDriver),
    };
    let rx = RxBreakdown {
        driver: us(SpanKind::RxDriver),
        ipq: us(SpanKind::RxIpq),
        ip: us(SpanKind::RxIp),
        cksum: us(SpanKind::RxTcpChecksum),
        segment: us(SpanKind::RxTcpSegment),
        wakeup: us(SpanKind::RxWakeup),
        user: us(SpanKind::RxUser),
    };
    (tx, rx)
}

/// One window of one side, `[from, to]`, of iteration `iter`.
struct Window {
    from: SimTime,
    to: SimTime,
    iter: usize,
}

/// The paper's pairing rule, in one pass over a client-side recorder.
///
/// The i-th `WriteStart` pairs with the i-th `ReadReturn`; pairs whose
/// read does not follow the write are dropped. Each pair's transmit
/// window is `[w, min(first WriteEnd ≥ w, r)]` and its receive window
/// `[last SegmentArrived ≤ r, r]`, kept only when that arrival is at
/// or after `w`. Every span is then clipped into each window of its
/// side that it overlaps, found by binary search; the totals are
/// integer [`SimTime`] sums, so they do not depend on span order.
///
/// Each mark kind is recorded in time order (the merged mark list is
/// not), and both ends of every window are monotone in the marks, so
/// each side's windows are sorted by start and by end alike: the
/// windows a span overlaps are one contiguous run. Spans may come in
/// any order.
#[must_use]
pub fn iterations(rec: &SpanRecorder) -> Vec<Iteration> {
    let times = |mark: Mark| -> Vec<SimTime> {
        let ts: Vec<SimTime> = rec
            .marks()
            .iter()
            .filter(|(m, _)| *m == mark)
            .map(|&(_, t)| t)
            .collect();
        debug_assert!(ts.is_sorted(), "{mark:?} marks out of time order");
        ts
    };
    let (writes, write_ends) = (times(Mark::WriteStart), times(Mark::WriteEnd));
    let (arrivals, returns) = (times(Mark::SegmentArrived), times(Mark::ReadReturn));
    let mut its: Vec<Iteration> = writes
        .iter()
        .zip(&returns)
        .filter(|(w, r)| r > w)
        .map(|(&write, &read)| {
            let end = write_ends.get(write_ends.partition_point(|&t| t < write));
            let last = arrivals.partition_point(|&t| t <= read).checked_sub(1);
            Iteration {
                write,
                write_end: end.map_or(read, |&t| t.min(read)),
                arrival: last.map(|i| arrivals[i]).filter(|&t| t >= write),
                read,
                totals: [SimTime::ZERO; KINDS],
            }
        })
        .collect();
    let windows = |side: fn(&Iteration) -> Option<(SimTime, SimTime)>| {
        its.iter()
            .enumerate()
            .filter_map(|(iter, it)| side(it).map(|(from, to)| Window { from, to, iter }))
            .collect::<Vec<_>>()
    };
    let tx = windows(|it| Some((it.write, it.write_end)));
    let rx = windows(|it| it.arrival.map(|a| (a, it.read)));
    for s in rec.spans() {
        // Transmit kinds come first in `SpanKind`.
        let side = if s.kind <= SpanKind::TxDriver {
            &tx
        } else {
            &rx
        };
        // Windows starting before the span ends, minus those that
        // end by the time it starts.
        let hi = side.partition_point(|w| w.from < s.end);
        let lo = side.partition_point(|w| w.to <= s.start).min(hi);
        for w in &side[lo..hi] {
            let (a, b) = (s.start.max(w.from), s.end.min(w.to));
            if b > a {
                its[w.iter].totals[s.kind as usize] += b - a;
            }
        }
    }
    its
}

/// Per-iteration breakdowns from a client-side recorder: the
/// [`iterations`] that have a receive window, so each sample has
/// both halves. The oracle's analytic cross-check compares its
/// closed-form prediction against one converged sample rather than
/// an average polluted by convergence transients.
#[must_use]
pub fn compute_breakdown_samples(rec: &SpanRecorder) -> Vec<(TxBreakdown, RxBreakdown)> {
    iterations(rec)
        .iter()
        .filter_map(|it| Some((it.tx(), it.rx()?)))
        .collect()
}

/// The Table 2/3 means over the iterations that have a receive
/// window, summed in iteration order; returns `(tx, rx, kept)`.
/// Both halves average over the same kept iterations.
#[must_use]
pub fn mean(its: &[Iteration]) -> (TxBreakdown, RxBreakdown, usize) {
    let mut sums = [0.0f64; KINDS];
    let mut kept = 0usize;
    for it in its.iter().filter(|it| it.arrival.is_some()) {
        for (sum, t) in sums.iter_mut().zip(it.totals) {
            *sum += t.as_us_f64();
        }
        kept += 1;
    }
    let k = kept.max(1) as f64;
    let (tx, rx) = rows(|kind| sums[kind as usize] / k);
    (tx, rx, kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn averaged(rec: &SpanRecorder) -> (TxBreakdown, RxBreakdown, usize) {
        mean(&iterations(rec))
    }

    #[test]
    fn empty_recorder_yields_zero() {
        let rec = SpanRecorder::new();
        let (tx, rx, n) = averaged(&rec);
        assert_eq!(n, 0);
        assert_eq!(tx.total(), 0.0);
        assert_eq!(rx.total(), 0.0);
    }

    #[test]
    fn single_iteration_breakdown() {
        let mut rec = SpanRecorder::new();
        rec.enabled = true;
        let us = SimTime::from_us;
        rec.mark(Mark::WriteStart, us(0));
        rec.span(SpanKind::TxUser, us(0), us(45));
        rec.span(SpanKind::TxTcpChecksum, us(45), us(55));
        rec.span(SpanKind::TxIp, us(55), us(90));
        rec.span(SpanKind::TxDriver, us(90), us(113));
        rec.mark(Mark::TxSignalled, us(113));
        // Response arrives at 600; driver work partly before (it
        // started on an earlier segment at 550).
        rec.span(SpanKind::RxDriver, us(550), us(650));
        rec.mark(Mark::SegmentArrived, us(600));
        rec.span(SpanKind::RxIp, us(650), us(690));
        rec.span(SpanKind::RxUser, us(690), us(754));
        rec.mark(Mark::ReadReturn, us(754));
        let (tx, rx, n) = averaged(&rec);
        assert_eq!(n, 1);
        assert!((tx.user - 45.0).abs() < 1e-9);
        assert!((tx.total() - 113.0).abs() < 1e-9);
        // Only the post-arrival half of the driver span counts.
        assert!((rx.driver - 50.0).abs() < 1e-9, "{}", rx.driver);
        assert!((rx.ip - 40.0).abs() < 1e-9);
        assert!((rx.user - 64.0).abs() < 1e-9);
        assert!((rx.total() - 154.0).abs() < 1e-9);
    }

    #[test]
    fn averaging_across_iterations() {
        let mut rec = SpanRecorder::new();
        rec.enabled = true;
        let us = SimTime::from_us;
        for i in 0..2u64 {
            let base = us(i * 1000);
            rec.mark(Mark::WriteStart, base);
            let dur = if i == 0 { 40 } else { 60 };
            rec.span(SpanKind::TxUser, base, base + us(dur));
            rec.mark(Mark::SegmentArrived, base + us(500));
            rec.span(SpanKind::RxUser, base + us(500), base + us(520));
            rec.mark(Mark::ReadReturn, base + us(520));
        }
        let (tx, rx, n) = averaged(&rec);
        assert_eq!(n, 2);
        assert!((tx.user - 50.0).abs() < 1e-9);
        assert!((rx.user - 20.0).abs() < 1e-9);
    }

    #[test]
    fn iteration_without_arrival_is_skipped_on_both_sides() {
        // The second window has no segment arrival: its receive half
        // is undefined, so its transmit half must not enter the mean
        // either (a tx sum over two iterations divided by one kept
        // iteration would double `tx.user`).
        let mut rec = SpanRecorder::new();
        rec.enabled = true;
        let us = SimTime::from_us;
        for i in 0..2u64 {
            let base = us(i * 1000);
            rec.mark(Mark::WriteStart, base);
            rec.span(SpanKind::TxUser, base, base + us(40));
            rec.mark(Mark::WriteEnd, base + us(40));
            if i == 0 {
                rec.mark(Mark::SegmentArrived, base + us(500));
                rec.span(SpanKind::RxUser, base + us(500), base + us(520));
            }
            rec.mark(Mark::ReadReturn, base + us(520));
        }
        let its = iterations(&rec);
        assert_eq!(its.len(), 2);
        assert_eq!(its[1].arrival, None);
        assert_eq!(its[1].rx(), None);
        assert_eq!(compute_breakdown_samples(&rec).len(), 1);
        let (tx, rx, n) = mean(&its);
        assert_eq!(n, 1);
        assert_eq!(tx.user, 40.0);
        assert_eq!(rx.user, 20.0);
    }

    #[test]
    fn spans_straddling_and_out_of_order_are_clipped_per_window() {
        // Two back-to-back iterations; spans recorded out of start
        // order, one straddling the receive window's left edge and one
        // spanning both transmit windows.
        let mut rec = SpanRecorder::new();
        rec.enabled = true;
        let us = SimTime::from_us;
        rec.mark(Mark::WriteStart, us(0));
        rec.mark(Mark::WriteEnd, us(30));
        rec.mark(Mark::SegmentArrived, us(60));
        rec.mark(Mark::ReadReturn, us(100));
        rec.mark(Mark::WriteStart, us(100));
        rec.mark(Mark::WriteEnd, us(130));
        rec.mark(Mark::SegmentArrived, us(170));
        rec.mark(Mark::ReadReturn, us(200));
        rec.span(SpanKind::RxDriver, us(150), us(180));
        rec.span(SpanKind::TxIp, us(20), us(120));
        rec.span(SpanKind::RxDriver, us(50), us(70));
        let its = iterations(&rec);
        assert_eq!(its[0].total(SpanKind::TxIp), us(10));
        assert_eq!(its[1].total(SpanKind::TxIp), us(20));
        assert_eq!(its[0].total(SpanKind::RxDriver), us(10));
        assert_eq!(its[1].total(SpanKind::RxDriver), us(10));
    }
}
