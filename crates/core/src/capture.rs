//! Re-deriving the paper's latency tables from wire captures.
//!
//! The paper's numbers come from *inline* instrumentation: probe
//! points bracketing each kernel layer (the [`crate::breakdown`]
//! machinery). This module derives the same quantities a second,
//! independent way — the way a network analyst without kernel source
//! would: arm packet taps at the layer boundaries, capture every
//! frame with its 40 ns-quantized timestamp, and subtract timestamps
//! of the *same packet* observed at two taps (RFC 1242 latency).
//!
//! [`compare_with_inline`] runs both accountings side by side and
//! reports, per span, the capture-derived mean, the inline mean, and
//! the worst per-iteration deviation. For single-segment workloads
//! the two agree to within one 40 ns clock tick per constituent span
//! (the only slack is the floor-quantization of the tap clock), which
//! [`assert_capture_matches_inline`] enforces.
//!
//! Multi-segment messages (e.g. the 8000-byte case) are *expected* to
//! diverge: the capture sees per-segment queueing and overlap that
//! the paper's clipped-window methodology deliberately excludes, so
//! the comparison refuses to run there rather than report noise.

use simcap::{CapturedFrame, TapPoint};
use tcpip::{Mark, SpanKind, SpanRecorder};

use crate::breakdown::{iterations, mean};
use crate::experiment::{Experiment, NetKind, RunResult};
use crate::world::Host;

/// One 40 ns tick of the TurboChannel clock, in nanoseconds.
const TICK_NS: i64 = 40;

/// Every frame captured on one host — kernel taps (socket/TCP), NIC
/// taps (DMA boundaries, wire arrival), and medium taps (raw cells or
/// frames) — merged in timestamp order.
#[derive(Clone, Debug)]
pub struct HostCapture {
    /// Captured frames, sorted by timestamp (stable).
    pub frames: Vec<CapturedFrame>,
    /// Whether the medium was Ethernet (selects pcap link types).
    pub ether: bool,
    /// Flight-recorder snapshots frozen by triggers (RTO, abort,
    /// deadline, invariant) during the run. Empty outside flight
    /// mode (see [`CapturePlan::flight`]).
    pub snapshots: Vec<simcap::TriggerSnapshot>,
}

impl HostCapture {
    fn drain(host: &mut Host, ether: bool) -> Self {
        let snapshots = host.kernel.taps.take_snapshots();
        let mut frames = host.kernel.taps.take();
        frames.extend(host.nic.take_taps());
        frames.sort_by_key(|f| f.at);
        HostCapture {
            frames,
            ether,
            snapshots,
        }
    }

    /// Frames observed at one tap point, in timestamp order.
    pub fn at(&self, p: TapPoint) -> impl Iterator<Item = &CapturedFrame> {
        self.frames.iter().filter(move |f| f.tap == p)
    }

    /// The pcap link type for one tap's records. Socket-layer taps
    /// carry raw user bytes and ATM cells are 53-byte slabs — both go
    /// out as `LINKTYPE_USER0`; everything else is a parseable IP
    /// datagram (`LINKTYPE_RAW`) or full Ethernet frame
    /// (`LINKTYPE_EN10MB`).
    #[must_use]
    pub fn linktype(&self, p: TapPoint) -> u32 {
        match p {
            TapPoint::SockSend | TapPoint::SockRecv | TapPoint::LinkCell => simcap::LINKTYPE_USER0,
            TapPoint::Wire | TapPoint::LinkFrame if self.ether => simcap::LINKTYPE_EN10MB,
            _ => simcap::LINKTYPE_RAW,
        }
    }

    fn records(&self, p: TapPoint) -> Vec<(u64, Vec<u8>)> {
        self.at(p)
            .map(|f| (f.at.as_ns(), f.bytes.clone()))
            .collect()
    }

    /// One tap's records as an in-memory [`simcap::Capture`], ready
    /// for [`simcap::hop_between`] without a file round-trip.
    #[must_use]
    pub fn capture(&self, p: TapPoint) -> simcap::Capture {
        simcap::Capture {
            linktype: self.linktype(p),
            records: self.records(p),
        }
    }

    /// Serializes one tap's records as a classic pcap file
    /// (nanosecond magic) — byte-identical across identical runs.
    #[must_use]
    pub fn pcap(&self, p: TapPoint) -> Vec<u8> {
        simcap::pcap::to_pcap_bytes(self.linktype(p), &self.records(p))
    }

    /// Serializes one tap's records as a pcapng file with
    /// `if_tsresol = 9` — byte-identical across identical runs.
    #[must_use]
    pub fn pcapng(&self, p: TapPoint) -> Vec<u8> {
        simcap::pcapng::to_pcapng_bytes(self.linktype(p), &self.records(p))
    }
}

/// A captured repetition: the ordinary results plus both hosts'
/// captures and the client's span recorder (for the cross-check).
pub struct CaptureRun {
    /// The results the uninstrumented run would have produced.
    pub result: RunResult,
    /// Client-side capture (host 0).
    pub client: HostCapture,
    /// Server-side capture (host 1).
    pub server: HostCapture,
    /// The client's inline span recorder.
    pub client_spans: SpanRecorder,
}

impl<'a> crate::experiment::RunPlan<'a> {
    /// Arms every capture tap: the resulting [`CapturePlan`]'s
    /// [`execute`](CapturePlan::execute) returns a [`CaptureRun`] with
    /// both hosts' captures alongside the ordinary results. Taps
    /// record serialized frames only; they never perturb timing, and
    /// the world is torn down after its taps are drained, so `result`
    /// equals an uncaptured plan's of the same seed field for field,
    /// `mbufs_leaked` included.
    ///
    /// A capture is one repetition: the plan's (first-repetition) seed
    /// is used and [`reps`](crate::experiment::RunPlan::reps) does not
    /// apply. Armed observers carry over.
    #[must_use]
    pub fn captured(self) -> CapturePlan<'a> {
        CapturePlan {
            exp: self.exp,
            seed: self.seed,
            flight: None,
            observers: self.observers,
        }
    }
}

/// A [`crate::experiment::RunPlan`] with every capture tap armed
/// (built by [`RunPlan::captured`](crate::experiment::RunPlan::captured)).
pub struct CapturePlan<'a> {
    exp: &'a Experiment,
    seed: u64,
    flight: Option<usize>,
    observers: Vec<simkit::ObserverFn<crate::world::World>>,
}

impl CapturePlan<'_> {
    /// Switches the kernel taps to flight-recorder mode: only the
    /// last `last_k` frames per tap point are retained, and a trigger
    /// (RTO, connection abort, missed deadline, invariant violation)
    /// freezes the window into a pcapng-ready
    /// [`simcap::TriggerSnapshot`] on [`HostCapture::snapshots`].
    /// Full captures stay the default; flight mode is for long runs
    /// where retaining everything would swamp memory but the frames
    /// *around an anomaly* are exactly what a postmortem needs.
    ///
    /// # Panics
    ///
    /// Panics if `last_k` is zero.
    #[must_use]
    pub fn flight(mut self, last_k: usize) -> Self {
        assert!(last_k >= 1, "a flight window needs at least one frame");
        self.flight = Some(last_k);
        self
    }

    /// Executes the captured repetition.
    #[must_use]
    pub fn execute(self) -> CaptureRun {
        let shared = crate::experiment::share_observers(self.observers);
        let ether = self.exp.net == NetKind::Ether;
        let (mut result, its, (client_spans, client, server)) = self.exp.run_sim_with(
            self.seed,
            true,
            self.flight,
            crate::experiment::fan_out(&shared),
            |w| {
                (
                    std::mem::take(&mut w.hosts[0].kernel.spans),
                    HostCapture::drain(&mut w.hosts[0], ether),
                    HostCapture::drain(&mut w.hosts[1], ether),
                )
            },
        );
        (result.tx, result.rx, result.breakdown_iters) = mean(&its);
        CaptureRun {
            result,
            client,
            server,
            client_spans,
        }
    }
}

/// One row of the capture-derived per-hop latency table: the same
/// TCP segments matched at two taps, `t_B − t_A` distribution.
pub struct HopRow {
    /// Human label, `tap_A → tap_B`.
    pub label: String,
    /// Matching statistics and the latency distribution.
    pub report: simcap::HopReport,
}

/// The per-hop latency table over the full round trip, derived
/// purely from the captures by RFC 1242 same-packet matching:
/// request direction through the client's transmit taps and the
/// server's receive taps, response direction mirrored. Pure ACKs are
/// excluded (`data_only`), so each hop sees exactly the RPC segments.
#[must_use]
pub fn hop_table(run: &CaptureRun) -> Vec<HopRow> {
    let c = &run.client;
    let s = &run.server;
    let hops: [(&str, &HostCapture, TapPoint, &HostCapture, TapPoint); 8] = [
        (
            "req tcp_send → nic_dma_tx",
            c,
            TapPoint::TcpSend,
            c,
            TapPoint::NicDmaTx,
        ),
        (
            "req nic_dma_tx → wire",
            c,
            TapPoint::NicDmaTx,
            s,
            TapPoint::Wire,
        ),
        (
            "req wire → nic_dma_rx",
            s,
            TapPoint::Wire,
            s,
            TapPoint::NicDmaRx,
        ),
        (
            "req nic_dma_rx → tcp_recv",
            s,
            TapPoint::NicDmaRx,
            s,
            TapPoint::TcpRecv,
        ),
        (
            "rsp tcp_send → nic_dma_tx",
            s,
            TapPoint::TcpSend,
            s,
            TapPoint::NicDmaTx,
        ),
        (
            "rsp nic_dma_tx → wire",
            s,
            TapPoint::NicDmaTx,
            c,
            TapPoint::Wire,
        ),
        (
            "rsp wire → nic_dma_rx",
            c,
            TapPoint::Wire,
            c,
            TapPoint::NicDmaRx,
        ),
        (
            "rsp nic_dma_rx → tcp_recv",
            c,
            TapPoint::NicDmaRx,
            c,
            TapPoint::TcpRecv,
        ),
    ];
    hops.iter()
        .map(|&(label, ha, pa, hb, pb)| HopRow {
            label: label.to_string(),
            report: simcap::hop_between(&ha.capture(pa), &hb.capture(pb), true),
        })
        .collect()
}

/// One compared span: the capture-derived duration next to the
/// inline span-accounting duration, averaged over iterations, plus
/// the worst single-iteration deviation and its tolerance.
#[derive(Clone, Debug)]
pub struct ComparedSpan {
    /// What the span covers.
    pub label: &'static str,
    /// Mean duration derived from tap timestamps (µs).
    pub capture_us: f64,
    /// Mean duration from the inline span recorder (µs).
    pub inline_us: f64,
    /// Worst per-iteration |capture − inline| (ns).
    pub max_dev_ns: i64,
    /// Allowed deviation: one 40 ns tick per constituent inline span
    /// (the tap clock floor-quantizes each endpoint).
    pub tol_ns: i64,
}

/// The full capture-vs-inline comparison.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Iterations that contributed.
    pub iterations: usize,
    /// Per-span rows, transmit path first, round trip last.
    pub spans: Vec<ComparedSpan>,
}

impl Comparison {
    /// Whether every span agreed within tolerance.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.spans.iter().all(|s| s.max_dev_ns <= s.tol_ns)
    }
}

fn first_at_or_after(frames: &[CapturedFrame], p: TapPoint, t: u64) -> Option<u64> {
    frames
        .iter()
        .find(|f| f.tap == p && f.at.as_ns() >= t)
        .map(|f| f.at.as_ns())
}

fn last_at_or_before(frames: &[CapturedFrame], p: TapPoint, t: u64) -> Option<u64> {
    frames
        .iter()
        .filter(|f| f.tap == p && f.at.as_ns() <= t)
        .map(|f| f.at.as_ns())
        .next_back()
}

fn has_at(frames: &[CapturedFrame], p: TapPoint, t: u64) -> bool {
    frames.iter().any(|f| f.tap == p && f.at.as_ns() == t)
}

/// Re-derives the client-side RTT breakdown from the capture and
/// compares it, iteration by iteration, against the inline span
/// accounting (the paper's methodology in [`crate::breakdown`]).
///
/// Only valid for single-segment messages (size ≤ MSS): with several
/// segments in flight the capture sees queueing the clipped-window
/// methodology excludes, and this returns an error instead of noise.
///
/// # Errors
///
/// Returns a description of the first missing tap frame, misaligned
/// iteration, or multi-segment write encountered.
pub fn compare_with_inline(run: &CaptureRun) -> Result<Comparison, String> {
    let rec = &run.client_spans;
    let frames = &run.client.frames;
    let its = iterations(rec);
    if its.is_empty() {
        return Err("no measured iterations in the span recorder".into());
    }

    // (label, constituent inline spans). The capture hop between two
    // adjacent taps must equal the sum of the inline spans between
    // the same boundaries; tolerance is one tick per span. Each
    // inline span counts within its own side's window.
    struct Def {
        label: &'static str,
        spans: &'static [SpanKind],
    }
    let defs = [
        Def {
            label: "write() → tcp out (user+tcp)",
            spans: &[
                SpanKind::TxUser,
                SpanKind::TxTcpChecksum,
                SpanKind::TxTcpMcopy,
                SpanKind::TxTcpSegment,
            ],
        },
        Def {
            label: "tcp out → adapter (ip+driver)",
            spans: &[SpanKind::TxIp, SpanKind::TxDriver],
        },
        Def {
            label: "wire → ip queue (rx driver)",
            spans: &[SpanKind::RxDriver],
        },
        Def {
            label: "ip queue → tcp in (ipq+ip+tcp)",
            spans: &[
                SpanKind::RxIpq,
                SpanKind::RxIp,
                SpanKind::RxTcpChecksum,
                SpanKind::RxTcpSegment,
            ],
        },
        Def {
            label: "tcp in → read() return (wakeup+user)",
            spans: &[SpanKind::RxWakeup, SpanKind::RxUser],
        },
        Def {
            label: "round trip (write() → read())",
            spans: &[],
        },
    ];
    let mut cap_sum = vec![0i64; defs.len()];
    let mut inl_sum = vec![0i64; defs.len()];
    let mut max_dev = vec![0i64; defs.len()];
    let mut used = 0usize;

    for (i, it) in its.iter().enumerate() {
        let (w, we, r) = (it.write, it.write_end, it.read);
        let wq = w.quantized().as_ns();
        let rq = r.quantized().as_ns();
        if !has_at(frames, TapPoint::SockSend, wq) {
            return Err(format!("iteration {i}: no SockSend frame at {wq} ns"));
        }
        if !has_at(frames, TapPoint::SockRecv, rq) {
            return Err(format!("iteration {i}: no SockRecv frame at {rq} ns"));
        }
        let weq = we.quantized().as_ns();
        let n_tx: usize = frames
            .iter()
            .filter(|f| f.tap == TapPoint::NicDmaTx && f.at.as_ns() >= wq && f.at.as_ns() <= weq)
            .count();
        if n_tx != 1 {
            return Err(format!(
                "iteration {i}: {n_tx} segments in the write window — \
                 the comparison is defined for single-segment messages"
            ));
        }
        let tcp_send = first_at_or_after(frames, TapPoint::TcpSend, wq)
            .filter(|&t| t <= weq)
            .ok_or_else(|| format!("iteration {i}: no TcpSend frame in the write window"))?;
        let nic_tx = last_at_or_before(frames, TapPoint::NicDmaTx, weq)
            .filter(|&t| t >= wq)
            .ok_or_else(|| format!("iteration {i}: no NicDmaTx frame in the write window"))?;
        let Some(arrival) = it.arrival else {
            continue;
        };
        // The comparison skips two kinds of window whose hop pairing
        // breaks; the breakdown keeps both, clipped to the paper's
        // windows:
        // - two arrivals (e.g. a delayed-ACK timer's pure ACK landing
        //   next to the response): the tap queries would mix frames of
        //   different segments;
        // - a segment the client transmits inside the receive window
        //   (e.g. its own delayed-ACK timer's pure ACK, sent while the
        //   response climbs the stack): its transmit processing lands
        //   in the capture hops, while the inline breakdown clips
        //   transmit spans to the write window.
        let arrivals = rec
            .marks()
            .iter()
            .filter(|&&(m, t)| m == Mark::SegmentArrived && t >= w && t <= r)
            .count();
        let aq = arrival.quantized().as_ns();
        let sent = frames
            .iter()
            .any(|f| f.tap == TapPoint::TcpSend && (aq..=rq).contains(&f.at.as_ns()));
        if arrivals != 1 || sent {
            continue;
        }
        let wire = last_at_or_before(frames, TapPoint::Wire, rq)
            .ok_or_else(|| format!("iteration {i}: no Wire frame before read return"))?;
        let nic_rx = last_at_or_before(frames, TapPoint::NicDmaRx, rq)
            .ok_or_else(|| format!("iteration {i}: no NicDmaRx frame before read return"))?;
        let tcp_recv = last_at_or_before(frames, TapPoint::TcpRecv, rq)
            .ok_or_else(|| format!("iteration {i}: no TcpRecv frame before read return"))?;

        // Capture-derived durations, one per def (same order).
        let caps = [
            tcp_send as i64 - wq as i64,
            nic_tx as i64 - tcp_send as i64,
            nic_rx as i64 - wire as i64,
            tcp_recv as i64 - nic_rx as i64,
            rq as i64 - tcp_recv as i64,
            rq as i64 - wq as i64,
        ];
        for (k, def) in defs.iter().enumerate() {
            let inline_ns = if def.spans.is_empty() {
                // Round trip: exactly what `rtts` records.
                rq as i64 - wq as i64
            } else {
                def.spans.iter().map(|&s| it.total(s).as_ns() as i64).sum()
            };
            let dev = (caps[k] - inline_ns).abs();
            cap_sum[k] += caps[k];
            inl_sum[k] += inline_ns;
            max_dev[k] = max_dev[k].max(dev);
        }
        used += 1;
    }
    if used == 0 {
        return Err("no iteration had a usable capture window".into());
    }
    let spans = defs
        .iter()
        .enumerate()
        .map(|(k, def)| ComparedSpan {
            label: def.label,
            capture_us: cap_sum[k] as f64 / used as f64 / 1000.0,
            inline_us: inl_sum[k] as f64 / used as f64 / 1000.0,
            max_dev_ns: max_dev[k],
            tol_ns: TICK_NS * (def.spans.len().max(1) as i64),
        })
        .collect();
    Ok(Comparison {
        iterations: used,
        spans,
    })
}

/// [`compare_with_inline`] that panics — the capture must agree with
/// the inline accounting within one 40 ns tick per span.
///
/// # Panics
///
/// Panics when the comparison cannot be computed or any span
/// disagrees beyond its tolerance.
pub fn assert_capture_matches_inline(run: &CaptureRun) -> Comparison {
    let cmp = compare_with_inline(run).expect("capture/inline comparison failed");
    for s in &cmp.spans {
        assert!(
            s.max_dev_ns <= s.tol_ns,
            "span `{}` deviates {} ns (tolerance {} ns): capture {:.3} µs vs inline {:.3} µs",
            s.label,
            s.max_dev_ns,
            s.tol_ns,
            s.capture_us,
            s.inline_us,
        );
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, NetKind};

    fn quick(net: NetKind, size: usize) -> Experiment {
        let mut e = Experiment::rpc(net, size);
        e.iterations = 20;
        e.warmup = 4;
        e
    }

    #[test]
    fn capture_does_not_perturb_results() {
        let plain = quick(NetKind::Atm, 200).plan().seed(3).execute();
        let cap = quick(NetKind::Atm, 200).plan().seed(3).captured().execute();
        assert_eq!(plain.rtts, cap.result.rtts);
        assert_eq!(plain.events, cap.result.events);
    }

    #[test]
    fn capture_agrees_with_inline_breakdown_atm() {
        let run = quick(NetKind::Atm, 200).plan().seed(1).captured().execute();
        let cmp = assert_capture_matches_inline(&run);
        assert_eq!(cmp.iterations, 20);
        // The re-derived round trip is the measured RTT itself.
        let rtt = cmp.spans.last().unwrap();
        assert!((rtt.capture_us - run.result.mean_rtt_us()).abs() < 0.001);
    }

    #[test]
    fn capture_agrees_with_inline_breakdown_ether() {
        let run = quick(NetKind::Ether, 200)
            .plan()
            .seed(1)
            .captured()
            .execute();
        let cmp = assert_capture_matches_inline(&run);
        assert!(cmp.ok());
    }

    #[test]
    fn hop_table_matches_every_rpc_segment() {
        let e = quick(NetKind::Atm, 200);
        let iters = e.iterations as usize;
        let run = e.plan().seed(1).captured().execute();
        for row in hop_table(&run) {
            assert_eq!(
                row.report.matched, iters,
                "hop `{}` should match one data segment per iteration",
                row.label
            );
            assert!(
                row.report.dist.min_ns().is_some_and(|m| m >= 0),
                "hop `{}`",
                row.label
            );
        }
    }

    #[test]
    fn captures_are_deterministic() {
        let a = quick(NetKind::Atm, 200).plan().seed(5).captured().execute();
        let b = quick(NetKind::Atm, 200).plan().seed(5).captured().execute();
        for p in TapPoint::ALL {
            assert_eq!(a.client.pcap(p), b.client.pcap(p), "{}", p.name());
            assert_eq!(a.server.pcapng(p), b.server.pcapng(p), "{}", p.name());
        }
    }

    #[test]
    fn pcap_round_trips_through_the_readers() {
        let run = quick(NetKind::Atm, 80).plan().seed(2).captured().execute();
        for p in [TapPoint::TcpSend, TapPoint::Wire, TapPoint::LinkCell] {
            let direct = run.client.capture(p);
            let via_pcap = simcap::read_any(&run.client.pcap(p)).unwrap();
            let via_ng = simcap::read_any(&run.client.pcapng(p)).unwrap();
            assert_eq!(direct.linktype, via_pcap.linktype);
            assert_eq!(direct.records, via_pcap.records);
            assert_eq!(direct.records, via_ng.records);
        }
    }

    #[test]
    fn multi_segment_messages_are_refused() {
        let run = quick(NetKind::Atm, 8000)
            .plan()
            .seed(1)
            .captured()
            .execute();
        let err = compare_with_inline(&run).unwrap_err();
        assert!(err.contains("single-segment"), "{err}");
    }
}
