//! One unified measurement API: the [`Recorder`].
//!
//! [`Recorder`] puts every latency-measurement path behind one
//! `observe` loop with three retention modes:
//!
//! - [`RecorderMode::Exact`] retains every sample — identical numbers
//!   to `LatencyDist` (same sort, same nearest-rank formula, same
//!   float summation order), plus saturation counting for samples
//!   that overflow `i64` nanoseconds;
//! - [`RecorderMode::Sketch`] retains only a [`QuantileSketch`]:
//!   bounded memory, quantiles within [`RELATIVE_ERROR`], and a
//!   merge that is byte-deterministic in any order;
//! - [`RecorderMode::UpperOnly`] retains nothing but the O(1)
//!   streaming upper-quantile estimate (the hedge trigger).
//!
//! Every mode also maintains the streaming upper estimate, so a
//! recorder can both report a distribution *and* drive an online
//! trigger. The [`Quantiles`] trait is the common read side; it is
//! implemented by [`LatencyDist`], [`QuantileSketch`], and
//! [`Recorder`] itself, so reduction code can be written once.
//!
//! [`RELATIVE_ERROR`]: crate::sketch::RELATIVE_ERROR

use simkit::time::SimTime;

use crate::analyze::{LatencyDist, P999_MIN_SAMPLES};
use crate::sketch::QuantileSketch;

/// The common read side of every latency container: exact
/// distributions, sketches, and recorders all answer the same
/// questions, differing only in accuracy and memory.
///
/// Accessors return `None` on an empty container — the silent-zero
/// fallback the old `LatencyDist::min_ns` had is gone.
pub trait Quantiles {
    /// Number of samples observed.
    fn count(&self) -> usize;
    /// Smallest sample in ns, `None` when empty.
    fn min_ns(&self) -> Option<i64>;
    /// Largest sample in ns, `None` when empty.
    fn max_ns(&self) -> Option<i64>;
    /// Nearest-rank percentile in ns, `None` when empty. Same `p`
    /// clamping rules as [`LatencyDist::percentile_ns`].
    fn percentile_ns(&self, p: f64) -> Option<i64>;
    /// Mean in µs (0.0 when empty).
    fn mean_us(&self) -> f64;

    /// Median in ns, `None` when empty.
    fn median_ns(&self) -> Option<i64> {
        self.percentile_ns(50.0)
    }
    /// 99th percentile in ns, `None` when empty.
    fn p99_ns(&self) -> Option<i64> {
        self.percentile_ns(99.0)
    }
    /// 99.9th percentile in ns, `None` below the
    /// [`P999_MIN_SAMPLES`] floor (nearest-rank p999 on fewer samples
    /// is just the maximum wearing a percentile costume).
    fn p999_ns(&self) -> Option<i64> {
        if self.count() >= P999_MIN_SAMPLES {
            self.percentile_ns(99.9)
        } else {
            None
        }
    }
}

impl Quantiles for LatencyDist {
    fn count(&self) -> usize {
        LatencyDist::count(self)
    }
    fn min_ns(&self) -> Option<i64> {
        LatencyDist::min_ns(self)
    }
    fn max_ns(&self) -> Option<i64> {
        LatencyDist::max_ns(self)
    }
    fn percentile_ns(&self, p: f64) -> Option<i64> {
        (LatencyDist::count(self) > 0).then(|| LatencyDist::percentile_ns(self, p))
    }
    fn mean_us(&self) -> f64 {
        LatencyDist::mean_us(self)
    }
}

impl Quantiles for QuantileSketch {
    fn count(&self) -> usize {
        usize::try_from(QuantileSketch::count(self)).unwrap_or(usize::MAX)
    }
    fn min_ns(&self) -> Option<i64> {
        QuantileSketch::min_ns(self)
    }
    fn max_ns(&self) -> Option<i64> {
        QuantileSketch::max_ns(self)
    }
    fn percentile_ns(&self, p: f64) -> Option<i64> {
        QuantileSketch::percentile_ns(self, p)
    }
    fn mean_us(&self) -> f64 {
        QuantileSketch::mean_us(self)
    }
}

/// What a [`Recorder`] retains per sample.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecorderMode {
    /// Every sample, exactly (the `LatencyDist` numbers, byte for
    /// byte). Memory grows with the sample count.
    #[default]
    Exact,
    /// A [`QuantileSketch`] only: bounded memory, quantiles within
    /// the sketch's documented relative error.
    Sketch,
    /// Nothing but the O(1) streaming upper estimate — the hedge
    /// trigger without a distribution.
    UpperOnly,
}

/// The unified latency recorder (see the module docs).
///
/// Determinism: a recorder's state is a pure function of its
/// observation sequence and merge sequence — no RNG, no clocks. In
/// `Sketch` mode, merged results are additionally independent of
/// merge *order* (integer bucket addition); in `Exact` mode every
/// query sorts first, so merged results are also order-independent.
/// Only the stream-local upper estimate depends on order, and it is
/// never part of a canonical report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Recorder {
    mode: RecorderMode,
    exact: Vec<i64>,
    sketch: QuantileSketch,
    /// Samples that overflowed `i64` nanoseconds and were clamped to
    /// `i64::MAX` (still recorded; the count marks the tail a floor).
    saturated: u64,
    /// Frugal-style streaming upper-quantile estimate (Ma,
    /// Muthukrishnan & Sandler 2013), RNG-free: the first sample seeds
    /// it, then it moves up by an eighth of the gap and down by a
    /// 128th, settling near the point ~1 in 16 samples exceed (≈ p94).
    upper_est: Option<u64>,
    observed: u64,
}

impl Recorder {
    /// An exact-mode recorder (the default).
    #[must_use]
    pub fn exact() -> Self {
        Recorder::with_mode(RecorderMode::Exact)
    }

    /// A sketch-mode recorder.
    #[must_use]
    pub fn sketched() -> Self {
        Recorder::with_mode(RecorderMode::Sketch)
    }

    /// An upper-estimate-only recorder (the hedge trigger).
    #[must_use]
    pub fn upper_only() -> Self {
        Recorder::with_mode(RecorderMode::UpperOnly)
    }

    /// A recorder in the given mode.
    #[must_use]
    pub fn with_mode(mode: RecorderMode) -> Self {
        Recorder {
            mode,
            ..Recorder::default()
        }
    }

    /// An exact-mode recorder pre-loaded with `times`. Samples above
    /// `i64::MAX` nanoseconds are clamped and counted as
    /// [`saturated`](Recorder::saturated).
    #[must_use]
    pub fn from_times(times: &[SimTime]) -> Self {
        let mut r = Recorder::exact();
        r.observe_times(times);
        r
    }

    /// This recorder's retention mode.
    #[must_use]
    pub fn mode(&self) -> RecorderMode {
        self.mode
    }

    /// Records one simulated-time sample. Samples above `i64::MAX`
    /// nanoseconds are clamped and counted as saturated.
    pub fn observe(&mut self, t: SimTime) {
        let ns = i64::try_from(t.as_ns()).unwrap_or_else(|_| {
            self.saturated += 1;
            i64::MAX
        });
        self.update_upper(t.as_ns());
        self.record_ns(ns);
    }

    /// Records every sample in `times` in order.
    pub fn observe_times(&mut self, times: &[SimTime]) {
        for &t in times {
            self.observe(t);
        }
    }

    /// Records one raw signed nanosecond sample (capture deltas can
    /// be negative when a tap pair is reversed). Negative samples do
    /// not move the upper estimate.
    pub fn observe_ns(&mut self, ns: i64) {
        #[allow(clippy::cast_sign_loss)]
        self.update_upper(ns.max(0) as u64);
        self.record_ns(ns);
    }

    fn record_ns(&mut self, ns: i64) {
        self.observed += 1;
        match self.mode {
            RecorderMode::Exact => self.exact.push(ns),
            RecorderMode::Sketch => self.sketch.observe_ns(ns),
            RecorderMode::UpperOnly => {}
        }
    }

    fn update_upper(&mut self, t: u64) {
        self.upper_est = Some(match self.upper_est {
            None => t,
            Some(est) if t > est => est + (t - est) / 8,
            Some(est) => est - (est - t) / 128,
        });
    }

    /// Samples clamped to `i64::MAX` ns because they overflowed. A
    /// non-zero count means the max (and any percentile landing on a
    /// clamped sample) is a floor, not a measurement.
    #[must_use]
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// The streaming upper-quantile estimate (≈ p95, biased high on
    /// heavy tails — the side a hedging trigger wants to err on).
    /// `None` until the first sample. Stream-local: a merge keeps the
    /// left operand's estimate.
    #[must_use]
    pub fn upper_estimate(&self) -> Option<SimTime> {
        self.upper_est.map(SimTime::from_ns)
    }

    /// Merges `other` into `self`. Both recorders must be in the same
    /// mode (merging an exact shard into a sketch would silently mix
    /// accuracies).
    ///
    /// # Panics
    /// If the modes differ.
    pub fn merge(&mut self, other: &Recorder) {
        assert_eq!(
            self.mode, other.mode,
            "cannot merge recorders of different modes"
        );
        match self.mode {
            RecorderMode::Exact => self.exact.extend_from_slice(&other.exact),
            RecorderMode::Sketch => self.sketch.merge(&other.sketch),
            RecorderMode::UpperOnly => {}
        }
        self.saturated += other.saturated;
        self.observed += other.observed;
        if self.upper_est.is_none() {
            self.upper_est = other.upper_est;
        }
    }

    /// The exact distribution (sorted), `None` unless in
    /// [`RecorderMode::Exact`].
    #[must_use]
    pub fn dist(&self) -> Option<LatencyDist> {
        matches!(self.mode, RecorderMode::Exact)
            .then(|| LatencyDist::from_samples(self.exact.clone()))
    }

    /// The sketch, `None` unless in [`RecorderMode::Sketch`].
    #[must_use]
    pub fn sketch(&self) -> Option<&QuantileSketch> {
        matches!(self.mode, RecorderMode::Sketch).then_some(&self.sketch)
    }

    /// Population standard deviation in µs (0.0 when empty or in
    /// [`RecorderMode::UpperOnly`]). Exact mode sums `f64` squares
    /// over the sorted samples; sketch mode uses the exact integer
    /// sum of squares.
    #[must_use]
    pub fn stddev_us(&self) -> f64 {
        match self.mode {
            RecorderMode::Exact => {
                if self.exact.is_empty() {
                    return 0.0;
                }
                let mut sorted = self.exact.clone();
                sorted.sort_unstable();
                #[allow(clippy::cast_precision_loss)]
                {
                    let n = sorted.len() as f64;
                    let mean = sorted.iter().map(|&s| s as f64).sum::<f64>() / n;
                    let var = sorted
                        .iter()
                        .map(|&s| {
                            let d = s as f64 - mean;
                            d * d
                        })
                        .sum::<f64>()
                        / n;
                    var.sqrt() / 1000.0
                }
            }
            RecorderMode::Sketch => self.sketch.stddev_us(),
            RecorderMode::UpperOnly => 0.0,
        }
    }

    /// Bytes retained by this recorder (sample buffer or sketch
    /// buckets plus the header) — what the `--sketch` memory gate
    /// measures.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Recorder>() + self.exact.capacity() * 8 + self.sketch.memory_bytes()
            - std::mem::size_of::<QuantileSketch>()
    }
}

impl Quantiles for Recorder {
    fn count(&self) -> usize {
        usize::try_from(self.observed).unwrap_or(usize::MAX)
    }
    fn min_ns(&self) -> Option<i64> {
        match self.mode {
            RecorderMode::Exact => self.exact.iter().copied().min(),
            RecorderMode::Sketch => self.sketch.min_ns(),
            RecorderMode::UpperOnly => None,
        }
    }
    fn max_ns(&self) -> Option<i64> {
        match self.mode {
            RecorderMode::Exact => self.exact.iter().copied().max(),
            RecorderMode::Sketch => self.sketch.max_ns(),
            RecorderMode::UpperOnly => None,
        }
    }
    fn percentile_ns(&self, p: f64) -> Option<i64> {
        match self.mode {
            RecorderMode::Exact => self.dist().and_then(|d| Quantiles::percentile_ns(&d, p)),
            RecorderMode::Sketch => self.sketch.percentile_ns(p),
            RecorderMode::UpperOnly => None,
        }
    }
    fn mean_us(&self) -> f64 {
        match self.mode {
            RecorderMode::Exact => self.dist().map_or(0.0, |d| LatencyDist::mean_us(&d)),
            RecorderMode::Sketch => self.sketch.mean_us(),
            RecorderMode::UpperOnly => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_mode_matches_latency_dist_numbers() {
        let times: Vec<SimTime> = (1..=100).map(|i| SimTime::from_ns(i * 40)).collect();
        let rec = Recorder::from_times(&times);
        #[allow(clippy::cast_possible_wrap)]
        let dist = LatencyDist::from_samples(times.iter().map(|t| t.as_ns() as i64).collect());
        assert_eq!(Quantiles::count(&rec), 100);
        assert_eq!(Quantiles::min_ns(&rec), LatencyDist::min_ns(&dist));
        assert_eq!(Quantiles::max_ns(&rec), LatencyDist::max_ns(&dist));
        for p in [1.0, 50.0, 99.0, 100.0] {
            assert_eq!(
                Quantiles::percentile_ns(&rec, p),
                Some(LatencyDist::percentile_ns(&dist, p)),
                "p = {p}"
            );
        }
        assert!((Quantiles::mean_us(&rec) - LatencyDist::mean_us(&dist)).abs() < 1e-12);
        assert_eq!(rec.saturated(), 0);
    }

    #[test]
    fn saturation_is_counted_and_clamped() {
        let fits = SimTime::from_ns(1_000);
        let overflows = SimTime::from_ns(u64::MAX);
        let rec = Recorder::from_times(&[fits, overflows, overflows]);
        assert_eq!(rec.saturated(), 2);
        assert_eq!(Quantiles::count(&rec), 3);
        assert_eq!(
            Quantiles::max_ns(&rec),
            Some(i64::MAX),
            "clamped, and reported as such"
        );
        // The in-range path stays exact and reports zero saturation.
        let rec = Recorder::from_times(&[fits]);
        assert_eq!(rec.saturated(), 0);
        assert_eq!(rec.dist().expect("exact mode").samples(), &[1_000]);
    }

    #[test]
    fn upper_estimate_follows_the_pinned_asymmetric_rule() {
        // Hand-computed in integer ns: up by an eighth of the gap,
        // down by a 128th (truncating).
        let mut rec = Recorder::upper_only();
        assert_eq!(rec.upper_estimate(), None);
        let steps = [
            (100_000, 100_000),   // the first sample seeds the estimate
            (180_000, 110_000),   // + 80_000 / 8
            (100_000, 109_922),   // - 10_000 / 128
            (1_000_000, 221_181), // + 890_078 / 8
            (0, 219_454),         // - 221_181 / 128
        ];
        for (sample, est) in steps {
            rec.observe(SimTime::from_ns(sample));
            assert_eq!(
                rec.upper_estimate(),
                Some(SimTime::from_ns(est)),
                "after {sample} ns"
            );
        }
        assert_eq!(Quantiles::count(&rec), 5);
        assert_eq!(Quantiles::percentile_ns(&rec, 50.0), None);
    }

    #[test]
    fn upper_estimate_settles_between_the_bulk_and_the_outlier() {
        // 19 of 20 samples at 100 µs, 1 of 20 at 1 ms, repeated: the
        // estimate must end up well above the median and below the
        // outlier.
        let mut rec = Recorder::upper_only();
        for _ in 0..200 {
            for _ in 0..19 {
                rec.observe(SimTime::from_us(100));
            }
            rec.observe(SimTime::from_us(1000));
        }
        let est = rec.upper_estimate().expect("seeded").as_us_f64();
        assert!(est > 150.0, "collapsed to the bulk: {est}");
        assert!(est < 1000.0, "stuck at the outlier: {est}");
        assert_eq!(Quantiles::count(&rec), 4000);
    }

    #[test]
    fn constant_input_is_a_fixed_point_of_the_upper_estimate() {
        let mut rec = Recorder::upper_only();
        for _ in 0..100 {
            rec.observe(SimTime::from_us(42));
        }
        assert_eq!(rec.upper_estimate(), Some(SimTime::from_us(42)));
    }

    #[test]
    fn sketch_mode_merge_is_shard_order_independent() {
        let mut whole = Recorder::sketched();
        let mut shards: Vec<Recorder> = (0..4).map(|_| Recorder::sketched()).collect();
        for i in 0..4000u64 {
            let t = SimTime::from_ns((i * 7919) % 1_000_000);
            whole.observe(t);
            shards[(i % 4) as usize].observe(t);
        }
        let mut fwd = Recorder::sketched();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = Recorder::sketched();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd.sketch(), rev.sketch());
        assert_eq!(fwd.sketch(), whole.sketch());
        assert_eq!(Quantiles::p99_ns(&fwd), Quantiles::p99_ns(&whole));
    }

    #[test]
    #[should_panic(expected = "different modes")]
    fn merging_mixed_modes_panics() {
        let mut a = Recorder::exact();
        let b = Recorder::sketched();
        a.merge(&b);
    }

    #[test]
    fn sketch_mode_bounds_memory() {
        let mut exact = Recorder::exact();
        let mut sk = Recorder::sketched();
        for i in 0..100_000u64 {
            let t = SimTime::from_ns(i * 131);
            exact.observe(t);
            sk.observe(t);
        }
        assert!(exact.memory_bytes() >= 800_000);
        assert!(
            sk.memory_bytes() < crate::sketch::MAX_MEMORY_BYTES + 256,
            "sketch memory {}",
            sk.memory_bytes()
        );
    }

    #[test]
    fn p999_floor_applies_to_recorders() {
        let mut rec = Recorder::sketched();
        for i in 0..999u64 {
            rec.observe(SimTime::from_ns(i));
        }
        assert_eq!(Quantiles::p999_ns(&rec), None);
        rec.observe(SimTime::from_ns(999));
        assert!(Quantiles::p999_ns(&rec).is_some());
    }
}
