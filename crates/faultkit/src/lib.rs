//! `faultkit` — deterministic, seed-reproducible fault schedules.
//!
//! The paper's robustness story (§4.2.1: when may a checksum be
//! elided?) turns on how the stack behaves when the network
//! misbehaves. The paper's own error sources are i.i.d. Bernoulli
//! knobs (per-bit error rate, per-cell loss, controller and gateway
//! corruption); the TCP-over-ATM literature, however, finds that the
//! regimes that actually hurt TCP are *bursty* and *congestive* —
//! consecutive cell drops from switch buffer overruns, not independent
//! bit flips (Kalyanaraman et al. on ABR; Goyal et al. on UBR).
//!
//! This crate provides the fault *processes* those regimes need, as
//! small deterministic state machines:
//!
//! - [`GilbertElliott`] / [`LossProcess`] — two-state burst loss. The
//!   chain sits in a good state (low loss) and occasionally jumps to a
//!   bad state (high loss) for a geometrically distributed dwell,
//!   producing the correlated drop runs that defeat fast retransmit.
//! - [`TrainFaults`] / [`TrainShaper`] — per-train cell reordering,
//!   duplication and delay jitter, applied to the timed delivery train
//!   a NIC hands to the wire.
//! - [`ContentionCfg`] / [`ContentionProcess`] — receive-side DMA/bus
//!   contention: the adapter's RX FIFO drain stalls for a burst of
//!   cell times, so a small FIFO overruns and sheds cells.
//! - [`PauseSchedule`] / [`FlapSchedule`] — deterministic periodic
//!   windows during which a host stops servicing events (GC/scheduler
//!   stall) or a link drops every cell (flap). These are pure
//!   functions of time — no RNG stream — so arming them never
//!   perturbs any other process's draws.
//! - [`FaultSchedule`] — the composable, plain-data description of all
//!   of the above plus the mbuf-pool limit and the four §4.2.1
//!   i.i.d. knobs, carried by an experiment or a datacenter topology
//!   and armed per host.
//! - [`shrink_schedule`] — reduces a schedule that makes a run fail to
//!   its smallest reproducer.
//!
//! # Determinism
//!
//! Every process draws from its own [`SimRng`] stream
//! ([`STREAM_LOSS`], [`STREAM_SHAPER`], [`STREAM_CONTENTION`],
//! [`STREAM_ETHER_LOSS`]) derived from the experiment seed, so a fault
//! schedule is a pure function of `(schedule, seed)`: the same seed
//! reproduces the same drops, swaps and stalls cell-for-cell, at any
//! sweep worker count. No process ever consults wall-clock time or
//! global state.
//!
//! # Examples
//!
//! ```
//! use faultkit::{FaultSchedule, GilbertElliott, LossProcess, STREAM_LOSS};
//!
//! let sched = FaultSchedule::default()
//!     .with_atm_loss(GilbertElliott::light_bursts())
//!     .with_reorder(0.01);
//! assert!(!sched.is_clean());
//!
//! // Same seed, same decisions — byte-identical reports follow.
//! let model = sched.atm_loss.unwrap();
//! let mut a = LossProcess::new(model, 7);
//! let mut b = LossProcess::new(model, 7);
//! for _ in 0..1000 {
//!     assert_eq!(a.drop_next(), b.drop_next());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shrink;

pub use shrink::shrink_schedule;

use simkit::{SimRng, SimTime};

/// RNG stream tag for ATM cell-loss processes (one per link
/// direction). Distinct from the link's own BER stream (0xa7).
pub const STREAM_LOSS: u64 = 0xf1;
/// RNG stream tag for train shapers (reorder/duplicate/jitter).
pub const STREAM_SHAPER: u64 = 0xf2;
/// RNG stream tag for RX-FIFO contention processes.
pub const STREAM_CONTENTION: u64 = 0xf3;
/// RNG stream tag for Ethernet frame-loss processes.
pub const STREAM_ETHER_LOSS: u64 = 0xf4;

/// Parameters of a two-state Gilbert–Elliott burst-loss chain.
///
/// The chain steps once per cell (or frame): from Good it moves to Bad
/// with probability `p_good_to_bad`, from Bad back to Good with
/// probability `p_bad_to_good`; the cell is then lost with the loss
/// probability of the current state. Mean bad-dwell is
/// `1 / p_bad_to_good` cells, so small `p_bad_to_good` means long
/// drop bursts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Per-cell probability of entering the bad state.
    pub p_good_to_bad: f64,
    /// Per-cell probability of leaving the bad state.
    pub p_bad_to_good: f64,
    /// Loss probability while in the good state (often 0).
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Occasional short drop bursts: rare bad state (~0.3% entry per
    /// cell) with a ~7-cell mean dwell and 30% loss inside it.
    #[must_use]
    pub fn light_bursts() -> Self {
        GilbertElliott {
            p_good_to_bad: 0.003,
            p_bad_to_good: 0.15,
            loss_good: 0.0,
            loss_bad: 0.3,
        }
    }

    /// Sustained congestion: frequent bad state with a ~20-cell mean
    /// dwell and 60% loss inside it — the switch-buffer-overrun regime
    /// of the TCP-over-UBR studies.
    #[must_use]
    pub fn heavy_bursts() -> Self {
        GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.05,
            loss_good: 0.0,
            loss_bad: 0.6,
        }
    }
}

/// A running Gilbert–Elliott loss chain.
#[derive(Clone, Debug)]
pub struct LossProcess {
    model: GilbertElliott,
    bad: bool,
    rng: SimRng,
    /// Cells the process has judged.
    pub cells_seen: u64,
    /// Cells the process dropped.
    pub cells_dropped: u64,
}

impl LossProcess {
    /// Builds the chain in the good state, drawing from
    /// [`STREAM_LOSS`] of `seed`.
    #[must_use]
    pub fn new(model: GilbertElliott, seed: u64) -> Self {
        LossProcess {
            model,
            bad: false,
            rng: SimRng::seed_stream(seed, STREAM_LOSS),
            cells_seen: 0,
            cells_dropped: 0,
        }
    }

    /// Steps the chain one cell and returns whether that cell is lost.
    pub fn drop_next(&mut self) -> bool {
        self.cells_seen += 1;
        let p_switch = if self.bad {
            self.model.p_bad_to_good
        } else {
            self.model.p_good_to_bad
        };
        if self.rng.chance(p_switch) {
            self.bad = !self.bad;
        }
        let p_loss = if self.bad {
            self.model.loss_bad
        } else {
            self.model.loss_good
        };
        let lost = self.rng.chance(p_loss);
        if lost {
            self.cells_dropped += 1;
        }
        lost
    }
}

/// Per-train cell faults: reordering, duplication and delay jitter.
/// All probabilities default to zero (a transparent shaper).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrainFaults {
    /// Per-adjacent-pair probability of swapping two cells' payloads
    /// (the cells arrive out of order at unchanged times).
    pub reorder_prob: f64,
    /// Per-cell probability of delivering the cell twice.
    pub duplicate_prob: f64,
    /// Per-cell probability of delaying the cell by a uniform jitter.
    pub jitter_prob: f64,
    /// Maximum added delay in nanoseconds when jitter strikes.
    pub jitter_max_ns: u64,
}

impl TrainFaults {
    /// Whether any fault has a nonzero probability.
    #[must_use]
    pub fn any(&self) -> bool {
        self.reorder_prob > 0.0
            || self.duplicate_prob > 0.0
            || (self.jitter_prob > 0.0 && self.jitter_max_ns > 0)
    }
}

/// A running train shaper: applies [`TrainFaults`] to the timed
/// delivery train a NIC stages on the wire.
#[derive(Clone, Debug)]
pub struct TrainShaper {
    cfg: TrainFaults,
    rng: SimRng,
    /// Cells whose payloads were swapped with a neighbour.
    pub cells_reordered: u64,
    /// Cells delivered twice.
    pub cells_duplicated: u64,
    /// Cells delayed by jitter.
    pub cells_jittered: u64,
}

impl TrainShaper {
    /// Builds a shaper drawing from [`STREAM_SHAPER`] of `seed`.
    #[must_use]
    pub fn new(cfg: TrainFaults, seed: u64) -> Self {
        TrainShaper {
            cfg,
            rng: SimRng::seed_stream(seed, STREAM_SHAPER),
            cells_reordered: 0,
            cells_duplicated: 0,
            cells_jittered: 0,
        }
    }

    /// Shapes one delivery train in place. Payload multiset is
    /// preserved except for duplicates (never removed — loss belongs
    /// to [`LossProcess`]); times only grow (jitter adds delay) and
    /// the train is re-sorted so arrival times stay monotone.
    pub fn shape<T: Clone>(&mut self, train: &mut Vec<(SimTime, T)>) {
        if !self.cfg.any() || train.is_empty() {
            return;
        }
        // Duplication first: a duplicate re-arrives one cell-time-ish
        // later (here: at the same timestamp; the stable sort keeps it
        // immediately after the original, which is how a duplicated
        // cell shows up at the AAL).
        if self.cfg.duplicate_prob > 0.0 {
            let mut dups = Vec::new();
            for (t, payload) in train.iter() {
                if self.rng.chance(self.cfg.duplicate_prob) {
                    self.cells_duplicated += 1;
                    dups.push((*t, payload.clone()));
                }
            }
            train.extend(dups);
        }
        // Reordering: swap adjacent payloads, leaving the timestamps
        // in place — two cells traded places on the wire.
        if self.cfg.reorder_prob > 0.0 {
            for i in 1..train.len() {
                if self.rng.chance(self.cfg.reorder_prob) {
                    self.cells_reordered += 1;
                    let (a, b) = train.split_at_mut(i);
                    std::mem::swap(&mut a[i - 1].1, &mut b[0].1);
                }
            }
        }
        // Jitter: delay individual cells; a large enough delay pushes
        // a cell past its successors, which the sort below turns into
        // reordering-by-lateness.
        if self.cfg.jitter_prob > 0.0 && self.cfg.jitter_max_ns > 0 {
            let bound = u32::try_from(self.cfg.jitter_max_ns).unwrap_or(u32::MAX);
            for (t, _) in train.iter_mut() {
                if self.rng.chance(self.cfg.jitter_prob) {
                    self.cells_jittered += 1;
                    let delay = u64::from(self.rng.next_below(bound)) + 1;
                    *t += SimTime::from_ns(delay);
                }
            }
        }
        train.sort_by_key(|(t, _)| *t);
    }
}

/// Receive-side contention: per-cell probability that the adapter's
/// FIFO drain stalls (DMA/bus contention), and for how many cell
/// arrivals the stall persists. While stalled, arriving cells queue in
/// the RX FIFO; a small FIFO then overruns and sheds cells.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContentionCfg {
    /// Per-cell probability of a stall starting.
    pub stall_prob: f64,
    /// Cell arrivals a stall lasts once started.
    pub burst_cells: u32,
}

/// A running contention process.
#[derive(Clone, Debug)]
pub struct ContentionProcess {
    cfg: ContentionCfg,
    rng: SimRng,
    remaining: u32,
    /// Stall bursts started.
    pub stalls: u64,
}

impl ContentionProcess {
    /// Builds the process drawing from [`STREAM_CONTENTION`] of
    /// `seed`.
    #[must_use]
    pub fn new(cfg: ContentionCfg, seed: u64) -> Self {
        ContentionProcess {
            cfg,
            rng: SimRng::seed_stream(seed, STREAM_CONTENTION),
            remaining: 0,
            stalls: 0,
        }
    }

    /// Steps one cell arrival; returns whether the drain is stalled
    /// for this cell.
    pub fn stalled_next(&mut self) -> bool {
        if self.remaining > 0 {
            self.remaining -= 1;
            return true;
        }
        if self.cfg.burst_cells > 0 && self.rng.chance(self.cfg.stall_prob) {
            self.stalls += 1;
            self.remaining = self.cfg.burst_cells - 1;
            return true;
        }
        false
    }
}

/// A deterministic host pause/resume schedule: the host stops
/// servicing events during periodic windows, modeling GC or scheduler
/// stalls.
///
/// Unlike the stochastic processes above, a pause schedule is a pure
/// function of time — no RNG stream, so arming it cannot perturb any
/// other process's draws. Pause windows are half-open:
/// `[start + k*period, start + k*period + pause)` for `k = 0, 1, ...`.
/// The constructor requires `pause < period`, so every window has an
/// interior resume point and any deferred event eventually runs — a
/// paused run always terminates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PauseSchedule {
    /// Start of the first pause window.
    pub start: SimTime,
    /// Distance between consecutive window starts.
    pub period: SimTime,
    /// Length of each window (strictly less than `period`).
    pub pause: SimTime,
}

impl PauseSchedule {
    /// Builds a periodic pause schedule.
    ///
    /// # Panics
    /// If `pause >= period` or `period` is zero — such a schedule
    /// would pause forever and hang the run.
    #[must_use]
    pub fn new(start: SimTime, period: SimTime, pause: SimTime) -> Self {
        assert!(period > SimTime::ZERO, "pause period must be positive");
        assert!(
            pause < period,
            "pause must be shorter than its period or the host never resumes"
        );
        PauseSchedule {
            start,
            period,
            pause,
        }
    }

    /// If `t` falls inside a pause window, the time the host resumes
    /// (the window's exclusive end); `None` when the host is live.
    #[must_use]
    pub fn resume_after(&self, t: SimTime) -> Option<SimTime> {
        if t < self.start || self.pause == SimTime::ZERO {
            return None;
        }
        let since = t.saturating_since(self.start).as_ns();
        let phase = since % self.period.as_ns();
        if phase < self.pause.as_ns() {
            let window_start = t.saturating_since(SimTime::from_ns(phase));
            Some(window_start + self.pause)
        } else {
            None
        }
    }
}

/// A deterministic link up/down schedule: the link drops every cell
/// offered while down, forcing the stack into RTO-driven recovery.
///
/// Like [`PauseSchedule`] this is a pure function of time with no RNG
/// stream. Down windows are half-open:
/// `[start + k*period, start + k*period + down)` for `k = 0, 1, ...`,
/// and the constructor requires `down < period` so the link always
/// comes back up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlapSchedule {
    /// Start of the first down window.
    pub start: SimTime,
    /// Distance between consecutive window starts.
    pub period: SimTime,
    /// Length of each down window (strictly less than `period`).
    pub down: SimTime,
}

impl FlapSchedule {
    /// Builds a periodic link-flap schedule.
    ///
    /// # Panics
    /// If `down >= period` or `period` is zero — such a link would
    /// never carry another cell.
    #[must_use]
    pub fn new(start: SimTime, period: SimTime, down: SimTime) -> Self {
        assert!(period > SimTime::ZERO, "flap period must be positive");
        assert!(
            down < period,
            "down-time must be shorter than its period or the link never recovers"
        );
        FlapSchedule {
            start,
            period,
            down,
        }
    }

    /// Whether the link is down (dropping cells) at time `t`.
    #[must_use]
    pub fn is_down(&self, t: SimTime) -> bool {
        if t < self.start || self.down == SimTime::ZERO {
            return false;
        }
        let since = t.saturating_since(self.start).as_ns();
        since % self.period.as_ns() < self.down.as_ns()
    }
}

/// A composable, plain-data fault schedule.
///
/// The schedule is configuration only — `Clone + Send`, carried by an
/// experiment across sweep worker threads; the stateful processes
/// above are instantiated from it per host with seeds derived from the
/// cell seed. `Default` is the clean schedule (no faults).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// Burst loss on the ATM fiber (per cell, each direction).
    pub atm_loss: Option<GilbertElliott>,
    /// Reorder/duplicate/jitter applied to each ATM cell train.
    pub train: TrainFaults,
    /// RX-FIFO drain contention at the receiving ATM adapter.
    pub rx_contention: Option<ContentionCfg>,
    /// Override of the adapter RX FIFO capacity in cells (the TCA-100
    /// hardware holds 292); small values make overrun reachable.
    pub rx_fifo_cells: Option<usize>,
    /// Burst loss on the Ethernet wire (per frame, each direction).
    pub ether_loss: Option<GilbertElliott>,
    /// Cap on outstanding mbufs per host pool; receive-path
    /// allocations beyond it fail with `ENOBUFS` (counted drops).
    pub mbuf_limit: Option<u64>,
    /// Periodic host pause/resume windows (GC / scheduler stalls).
    pub host_pause: Option<PauseSchedule>,
    /// Periodic link up/down windows (cells offered while down are
    /// dropped).
    pub link_flap: Option<FlapSchedule>,
    /// Bit error rate on the ATM fiber or the Ethernet wire (the
    /// §4.2.1 link errors the AAL CRC or the FCS catches).
    pub ber: f64,
    /// Independent per-cell loss probability on the ATM fiber.
    pub cell_loss: f64,
    /// Per-datagram probability that a bit flips between controller
    /// and host memory on receive, past every link CRC (§4.2.1).
    pub controller_corrupt: f64,
    /// Per-frame probability that an Ethernet gateway corrupts a
    /// payload bit before framing, so the FCS validates (§4.2.1).
    pub gateway_corrupt: f64,
}

impl FaultSchedule {
    /// Sets ATM burst loss.
    #[must_use]
    pub fn with_atm_loss(mut self, model: GilbertElliott) -> Self {
        self.atm_loss = Some(model);
        self
    }

    /// Sets per-pair cell reordering probability.
    #[must_use]
    pub fn with_reorder(mut self, prob: f64) -> Self {
        self.train.reorder_prob = prob;
        self
    }

    /// Sets per-cell duplication probability.
    #[must_use]
    pub fn with_duplicate(mut self, prob: f64) -> Self {
        self.train.duplicate_prob = prob;
        self
    }

    /// Sets per-cell jitter probability and its maximum delay.
    #[must_use]
    pub fn with_jitter(mut self, prob: f64, max_ns: u64) -> Self {
        self.train.jitter_prob = prob;
        self.train.jitter_max_ns = max_ns;
        self
    }

    /// Sets RX-FIFO drain contention.
    #[must_use]
    pub fn with_rx_contention(mut self, stall_prob: f64, burst_cells: u32) -> Self {
        self.rx_contention = Some(ContentionCfg {
            stall_prob,
            burst_cells,
        });
        self
    }

    /// Overrides the RX FIFO capacity in cells.
    #[must_use]
    pub fn with_rx_fifo_cells(mut self, cells: usize) -> Self {
        self.rx_fifo_cells = Some(cells);
        self
    }

    /// Sets Ethernet burst frame loss.
    #[must_use]
    pub fn with_ether_loss(mut self, model: GilbertElliott) -> Self {
        self.ether_loss = Some(model);
        self
    }

    /// Caps outstanding mbufs per host pool.
    #[must_use]
    pub fn with_mbuf_limit(mut self, limit: u64) -> Self {
        self.mbuf_limit = Some(limit);
        self
    }

    /// Sets periodic host pause/resume windows.
    #[must_use]
    pub fn with_host_pause(mut self, schedule: PauseSchedule) -> Self {
        self.host_pause = Some(schedule);
        self
    }

    /// Sets periodic link up/down windows.
    #[must_use]
    pub fn with_link_flap(mut self, schedule: FlapSchedule) -> Self {
        self.link_flap = Some(schedule);
        self
    }

    /// Whether the schedule injects nothing at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        // Exhaustive: a new field fails to compile here until it counts.
        let FaultSchedule {
            atm_loss,
            train,
            rx_contention,
            rx_fifo_cells,
            ether_loss,
            mbuf_limit,
            host_pause,
            link_flap,
            ber,
            cell_loss,
            controller_corrupt,
            gateway_corrupt,
        } = *self;
        atm_loss.is_none()
            && !train.any()
            && rx_contention.is_none()
            && rx_fifo_cells.is_none()
            && ether_loss.is_none()
            && mbuf_limit.is_none()
            && host_pause.is_none()
            && link_flap.is_none()
            && [ber, cell_loss, controller_corrupt, gateway_corrupt] == [0.0; 4]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_schedule_is_clean() {
        assert!(FaultSchedule::default().is_clean());
        assert!(!FaultSchedule::default().with_reorder(0.1).is_clean());
        assert!(!FaultSchedule::default().with_mbuf_limit(64).is_clean());
        assert!(!FaultSchedule::default().with_rx_fifo_cells(8).is_clean());
        let pause = PauseSchedule::new(
            SimTime::from_us(10),
            SimTime::from_us(100),
            SimTime::from_us(20),
        );
        assert!(!FaultSchedule::default().with_host_pause(pause).is_clean());
        let flap = FlapSchedule::new(
            SimTime::from_us(10),
            SimTime::from_us(100),
            SimTime::from_us(20),
        );
        assert!(!FaultSchedule::default().with_link_flap(flap).is_clean());
    }

    #[test]
    fn pause_windows_are_half_open_and_periodic() {
        let p = PauseSchedule::new(
            SimTime::from_us(10),
            SimTime::from_us(100),
            SimTime::from_us(20),
        );
        // Before the first window.
        assert_eq!(p.resume_after(SimTime::ZERO), None);
        assert_eq!(p.resume_after(SimTime::from_us(9)), None);
        // Inside [10, 30): resumes at 30.
        assert_eq!(
            p.resume_after(SimTime::from_us(10)),
            Some(SimTime::from_us(30))
        );
        assert_eq!(
            p.resume_after(SimTime::from_ns(29_999)),
            Some(SimTime::from_us(30))
        );
        // The window end itself is live (half-open).
        assert_eq!(p.resume_after(SimTime::from_us(30)), None);
        assert_eq!(p.resume_after(SimTime::from_us(75)), None);
        // Second window [110, 130).
        assert_eq!(
            p.resume_after(SimTime::from_us(111)),
            Some(SimTime::from_us(130))
        );
        // The resume point is never inside a window: deferring to it
        // terminates.
        for us in 0..400u64 {
            let t = SimTime::from_us(us);
            if let Some(r) = p.resume_after(t) {
                assert!(r > t);
                assert_eq!(p.resume_after(r), None, "resume point {us} still paused");
            }
        }
    }

    #[test]
    fn flap_windows_are_half_open_and_periodic() {
        let f = FlapSchedule::new(
            SimTime::from_us(5),
            SimTime::from_us(50),
            SimTime::from_us(10),
        );
        assert!(!f.is_down(SimTime::ZERO));
        assert!(!f.is_down(SimTime::from_ns(4_999)));
        assert!(f.is_down(SimTime::from_us(5)));
        assert!(f.is_down(SimTime::from_ns(14_999)));
        assert!(!f.is_down(SimTime::from_us(15)));
        assert!(f.is_down(SimTime::from_us(57)));
        assert!(!f.is_down(SimTime::from_us(70)));
    }

    #[test]
    #[should_panic(expected = "shorter than its period")]
    fn pause_longer_than_period_is_rejected() {
        let _ = PauseSchedule::new(SimTime::ZERO, SimTime::from_us(10), SimTime::from_us(10));
    }

    #[test]
    #[should_panic(expected = "shorter than its period")]
    fn flap_longer_than_period_is_rejected() {
        let _ = FlapSchedule::new(SimTime::ZERO, SimTime::from_us(10), SimTime::from_us(10));
    }

    #[test]
    fn loss_process_is_deterministic_per_seed() {
        let model = GilbertElliott::heavy_bursts();
        let mut a = LossProcess::new(model, 42);
        let mut b = LossProcess::new(model, 42);
        let mut c = LossProcess::new(model, 43);
        let (mut same, mut diff) = (0u32, 0u32);
        for _ in 0..4096 {
            let da = a.drop_next();
            assert_eq!(da, b.drop_next());
            if da == c.drop_next() {
                same += 1;
            } else {
                diff += 1;
            }
        }
        assert_eq!(a.cells_dropped, b.cells_dropped);
        assert!(diff > 0, "different seeds must differ ({same} same)");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // With loss only in the bad state, drops must arrive in runs:
        // the number of distinct drop-runs is much smaller than the
        // number of drops.
        let model = GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.1,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let mut p = LossProcess::new(model, 7);
        let mut drops = 0u64;
        let mut runs = 0u64;
        let mut prev = false;
        for _ in 0..100_000 {
            let d = p.drop_next();
            if d {
                drops += 1;
                if !prev {
                    runs += 1;
                }
            }
            prev = d;
        }
        assert!(drops > 1000, "bad state should be visited: {drops}");
        let mean_run = drops as f64 / runs as f64;
        assert!(
            mean_run > 3.0,
            "losses should be bursty, mean run {mean_run:.2}"
        );
        // And the long-run loss fraction tracks the stationary bad
        // fraction p_gb/(p_gb+p_bg) = 1/11 ≈ 9%.
        let frac = drops as f64 / p.cells_seen as f64;
        assert!((0.04..0.18).contains(&frac), "loss fraction {frac}");
    }

    #[test]
    fn zero_probability_shaper_is_transparent() {
        let mut s = TrainShaper::new(TrainFaults::default(), 1);
        let mut train: Vec<(SimTime, u32)> =
            (0..10).map(|i| (SimTime::from_us(i), i as u32)).collect();
        let before = train.clone();
        s.shape(&mut train);
        assert_eq!(train, before);
        assert_eq!(s.cells_reordered + s.cells_duplicated + s.cells_jittered, 0);
    }

    #[test]
    fn contention_stalls_for_whole_bursts() {
        let cfg = ContentionCfg {
            stall_prob: 1.0,
            burst_cells: 4,
        };
        let mut p = ContentionProcess::new(cfg, 5);
        // Always-stalling config: every cell is stalled.
        for _ in 0..16 {
            assert!(p.stalled_next());
        }
        assert_eq!(p.stalls, 4, "16 cells / 4-cell bursts");
        // Zero-probability config never stalls.
        let mut q = ContentionProcess::new(
            ContentionCfg {
                stall_prob: 0.0,
                burst_cells: 4,
            },
            5,
        );
        for _ in 0..16 {
            assert!(!q.stalled_next());
        }
        assert_eq!(q.stalls, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The shaper never loses or invents distinct payloads: the
        /// output is the input multiset plus exact duplicates, times
        /// never decrease, and the train stays sorted.
        #[test]
        fn shaper_preserves_payloads_and_monotone_times(
            seed in 0u64..1_000_000,
            n in 1usize..80,
            reorder in 0.0f64..0.5,
            dup in 0.0f64..0.5,
            jit in 0.0f64..0.5,
            jit_max in 1u64..10_000,
        ) {
            let cfg = TrainFaults {
                reorder_prob: reorder,
                duplicate_prob: dup,
                jitter_prob: jit,
                jitter_max_ns: jit_max,
            };
            let mut s = TrainShaper::new(cfg, seed);
            let mut train: Vec<(SimTime, usize)> =
                (0..n).map(|i| (SimTime::from_ns(40 * i as u64), i)).collect();
            let min_time = train[0].0;
            s.shape(&mut train);
            prop_assert!(train.len() >= n);
            prop_assert!(train.windows(2).all(|w| w[0].0 <= w[1].0));
            // Every original payload survives at least once, and no
            // payload outside the original set appears.
            let mut counts = vec![0usize; n];
            for (t, p) in &train {
                prop_assert!(*p < n);
                prop_assert!(*t >= min_time);
                counts[*p] += 1;
            }
            prop_assert!(counts.iter().all(|&c| c >= 1));
            prop_assert_eq!(
                train.len() - n,
                counts.iter().map(|&c| c - 1).sum::<usize>()
            );
            // Determinism: the same seed shapes identically.
            let mut s2 = TrainShaper::new(cfg, seed);
            let mut train2: Vec<(SimTime, usize)> =
                (0..n).map(|i| (SimTime::from_ns(40 * i as u64), i)).collect();
            s2.shape(&mut train2);
            prop_assert_eq!(train, train2);
        }
    }
}
