//! The one latency sample set: the [`Recorder`].
//!
//! Every measured latency — a study cell's round trips and fan-out
//! completions, a datacenter run's, the benchmark's report — lands in
//! a [`Recorder`] through one `observe`, in one of two retention
//! modes ([`RecorderMode`]):
//!
//! - **Exact** keeps every sample, in observation order. Its mean,
//!   stddev, min and max are this module's [`mean_us`], [`stddev_us`],
//!   [`min_us`] and [`max_us`] (float sums in observation order, the
//!   formulas the paper tables have always used); its percentiles
//!   sort a copy into a [`LatencyDist`], the one nearest-rank
//!   implementation.
//! - **Sketch** keeps only a [`QuantileSketch`]: bounded memory,
//!   quantiles within [`RELATIVE_ERROR`], and a merge that is
//!   byte-deterministic in any order.
//!
//! [`Recorder::summary`] builds the latency columns every study row
//! reports ([`Summary`]) in either mode. The [`Quantiles`] trait is
//! the common read side of [`LatencyDist`], [`QuantileSketch`] and
//! [`Recorder`], so reduction code can be written once.
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

/// Mean of a sample set in µs: a float sum in observation order
/// (0.0 when empty).
#[must_use]
pub fn mean_us(samples: &[SimTime]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = samples.len() as f64;
    samples.iter().map(|t| t.as_us_f64()).sum::<f64>() / n
}

/// Population standard deviation in µs, about [`mean_us`] (0.0 below
/// two samples).
#[must_use]
pub fn stddev_us(samples: &[SimTime]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean_us(samples);
    #[allow(clippy::cast_precision_loss)]
    let n = samples.len() as f64;
    let var = samples
        .iter()
        .map(|t| {
            let d = t.as_us_f64() - m;
            d * d
        })
        .sum::<f64>()
        / n;
    var.sqrt()
}

/// Smallest sample in µs (0.0 when empty).
#[must_use]
pub fn min_us(samples: &[SimTime]) -> f64 {
    samples.iter().min().map_or(0.0, |t| t.as_us_f64())
}

/// Largest sample in µs (0.0 when empty), unclamped: a sample past
/// `i64::MAX` ns reads as it is.
#[must_use]
pub fn max_us(samples: &[SimTime]) -> f64 {
    samples.iter().max().map_or(0.0, |t| t.as_us_f64())
}

/// What a [`Recorder`] retains per sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecorderMode {
    /// Every sample, in observation order (the mode the goldens pin,
    /// and [`Recorder::default`]'s). Memory grows with the sample
    /// count.
    Exact,
    /// A [`QuantileSketch`] only (`--sketch`): bounded memory,
    /// quantiles within the sketch's documented relative error.
    Sketch,
}

/// The one latency sample set (see the module docs).
///
/// Determinism: a recorder's state is a pure function of its
/// observation sequence and merge sequence — no RNG, no clocks. A
/// sketch's merged results are independent of merge *order* (integer
/// bucket addition); an exact recorder's percentiles sort first, so
/// they are too.
#[derive(Clone, Debug, PartialEq)]
pub struct Recorder {
    set: Set,
    /// Observations that overflowed `i64` nanoseconds. An exact set
    /// keeps them as they are; every nanosecond query clamps them to
    /// `i64::MAX`, and a non-zero count marks that tail a floor.
    saturated: u64,
}

#[derive(Clone, Debug, PartialEq)]
enum Set {
    Exact(Vec<SimTime>),
    Sketch(QuantileSketch),
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(RecorderMode::Exact)
    }
}

/// `t` in signed nanoseconds, clamped to `i64::MAX`.
fn clamped_ns(t: SimTime) -> i64 {
    i64::try_from(t.as_ns()).unwrap_or(i64::MAX)
}

/// An exact set as a sorted, clamped [`LatencyDist`]: one copy, one
/// sort.
fn dist(samples: &[SimTime]) -> LatencyDist {
    LatencyDist::from_samples(samples.iter().map(|&t| clamped_ns(t)).collect())
}

impl Recorder {
    /// An empty recorder in the given mode.
    #[must_use]
    pub fn new(mode: RecorderMode) -> Self {
        let set = match mode {
            RecorderMode::Exact => Set::Exact(Vec::new()),
            RecorderMode::Sketch => Set::Sketch(QuantileSketch::new()),
        };
        Recorder { set, saturated: 0 }
    }

    /// An exact recorder holding `times`.
    #[must_use]
    pub fn from_times(times: &[SimTime]) -> Self {
        let mut r = Recorder::default();
        r.extend(times.iter().copied());
        r
    }

    /// Records one sample. A sample past `i64::MAX` nanoseconds is
    /// counted as [`saturated`](Recorder::saturated).
    pub fn observe(&mut self, t: SimTime) {
        let ns = i64::try_from(t.as_ns()).unwrap_or_else(|_| {
            self.saturated += 1;
            i64::MAX
        });
        match &mut self.set {
            Set::Exact(v) => v.push(t),
            Set::Sketch(s) => s.observe_ns(ns),
        }
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.set {
            Set::Exact(v) => v.len(),
            Set::Sketch(s) => Quantiles::count(s),
        }
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Observations past `i64::MAX` ns. A non-zero count means the
    /// clamped max (and any percentile landing on a clamped sample) is
    /// a floor, not a measurement.
    #[must_use]
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// Merges `other` into `self`: an exact set appends `other`'s
    /// samples, a sketch adds its buckets.
    ///
    /// # Panics
    /// If the modes differ (merging an exact shard into a sketch would
    /// silently mix accuracies).
    pub fn merge(&mut self, other: &Recorder) {
        match (&mut self.set, &other.set) {
            (Set::Exact(a), Set::Exact(b)) => a.extend_from_slice(b),
            (Set::Sketch(a), Set::Sketch(b)) => a.merge(b),
            _ => panic!("cannot merge recorders of different modes"),
        }
        self.saturated += other.saturated;
    }

    /// The samples in observation order, `None` in sketch mode.
    #[must_use]
    pub fn raw(&self) -> Option<&[SimTime]> {
        match &self.set {
            Set::Exact(v) => Some(v),
            Set::Sketch(_) => None,
        }
    }

    /// Mean in µs: [`mean_us`] in exact mode, the sketch's exact
    /// integer sum over one float division otherwise.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        match &self.set {
            Set::Exact(v) => mean_us(v),
            Set::Sketch(s) => s.mean_us(),
        }
    }

    /// Population standard deviation in µs: [`stddev_us`] in exact
    /// mode, the sketch's integer sum of squares otherwise.
    #[must_use]
    pub fn stddev_us(&self) -> f64 {
        match &self.set {
            Set::Exact(v) => stddev_us(v),
            Set::Sketch(s) => s.stddev_us(),
        }
    }

    /// Smallest sample in µs (0.0 when empty).
    #[must_use]
    pub fn min_us(&self) -> f64 {
        match &self.set {
            Set::Exact(v) => min_us(v),
            #[allow(clippy::cast_precision_loss)]
            Set::Sketch(s) => s.min_ns().map_or(0.0, |ns| ns as f64 / 1000.0),
        }
    }

    /// Largest sample in µs (0.0 when empty): unclamped [`max_us`] in
    /// exact mode, the sketch's clamped max otherwise.
    #[must_use]
    pub fn max_us(&self) -> f64 {
        match &self.set {
            Set::Exact(v) => max_us(v),
            #[allow(clippy::cast_precision_loss)]
            Set::Sketch(s) => s.max_ns().map_or(0.0, |ns| ns as f64 / 1000.0),
        }
    }

    /// The latency columns of a study row. Exact mode sorts one copy
    /// of the samples for every percentile.
    #[must_use]
    pub fn summary(&self) -> Summary {
        let mean_us = self.mean_us();
        match &self.set {
            Set::Exact(v) => Summary::from_quantiles(&dist(v), self.saturated, mean_us),
            Set::Sketch(s) => Summary::from_quantiles(s, self.saturated, mean_us),
        }
    }

    /// Bytes retained by this recorder (sample buffer or sketch
    /// buckets plus the header) — what the `--sketch` memory gate
    /// measures.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Recorder>()
            + match &self.set {
                Set::Exact(v) => v.capacity() * std::mem::size_of::<SimTime>(),
                Set::Sketch(s) => s.memory_bytes() - std::mem::size_of::<QuantileSketch>(),
            }
    }
}

impl Extend<SimTime> for Recorder {
    fn extend<I: IntoIterator<Item = SimTime>>(&mut self, times: I) {
        for t in times {
            self.observe(t);
        }
    }
}

impl Quantiles for Recorder {
    fn count(&self) -> usize {
        self.len()
    }
    fn min_ns(&self) -> Option<i64> {
        match &self.set {
            Set::Exact(v) => v.iter().min().map(|&t| clamped_ns(t)),
            Set::Sketch(s) => s.min_ns(),
        }
    }
    fn max_ns(&self) -> Option<i64> {
        match &self.set {
            Set::Exact(v) => v.iter().max().map(|&t| clamped_ns(t)),
            Set::Sketch(s) => s.max_ns(),
        }
    }
    fn percentile_ns(&self, p: f64) -> Option<i64> {
        match &self.set {
            Set::Exact(v) => Quantiles::percentile_ns(&dist(v), p),
            Set::Sketch(s) => s.percentile_ns(p),
        }
    }
    fn mean_us(&self) -> f64 {
        Recorder::mean_us(self)
    }
}

/// The latency columns every study row reports, computed in one pass
/// over a sample set.
///
/// Percentiles are nearest-rank ([`Quantiles`]), and an empty set
/// reports zero in every column.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples summarized.
    pub samples: usize,
    /// Observations clamped to `i64::MAX` ns (must be zero for the tail
    /// columns to be trustworthy).
    pub saturated: u64,
    /// Mean in µs: [`Recorder::mean_us`], the canonical report's mean.
    pub mean_us: f64,
    /// Median in µs.
    pub p50_us: f64,
    /// 99th percentile in µs.
    pub p99_us: f64,
    /// 99.9th percentile in µs; `None` below [`P999_MIN_SAMPLES`]
    /// samples, where nearest-rank p999 would just repeat the maximum.
    pub p999_us: Option<f64>,
    /// Largest sample in µs, clamped at `i64::MAX` ns.
    pub max_us: f64,
}

impl Summary {
    fn from_quantiles(q: &impl Quantiles, saturated: u64, mean_us: f64) -> Summary {
        #[allow(clippy::cast_precision_loss)]
        let us = |ns: i64| ns as f64 / 1000.0;
        Summary {
            samples: q.count(),
            saturated,
            mean_us,
            p50_us: us(q.percentile_ns(50.0).unwrap_or(0)),
            p99_us: us(q.percentile_ns(99.0).unwrap_or(0)),
            p999_us: q.p999_ns().map(us),
            max_us: us(q.max_ns().unwrap_or(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(ns: &[u64]) -> Vec<SimTime> {
        ns.iter().map(|&n| SimTime::from_ns(n)).collect()
    }

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
        assert_eq!(rec.raw(), Some(&times[..]));
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
        assert_eq!(rec.raw(), Some(&[fits][..]));
    }

    #[test]
    fn mean_and_stddev() {
        let s = times(&[10_000, 20_000, 30_000]);
        assert!((mean_us(&s) - 20.0).abs() < 1e-9);
        assert!((stddev_us(&s) - 8.1649).abs() < 1e-3);
        assert_eq!(mean_us(&[]), 0.0);
        assert_eq!(stddev_us(&times(&[5_000])), 0.0);
    }

    #[test]
    fn min_max() {
        let s = times(&[7_000, 3_000, 9_000]);
        assert_eq!(min_us(&s), 3.0);
        assert_eq!(max_us(&s), 9.0);
    }

    #[test]
    fn summary_is_bit_identical_to_the_per_field_reductions() {
        #[allow(clippy::cast_precision_loss)]
        let us = |ns: Option<i64>| (ns.unwrap_or(0) as f64 / 1000.0).to_bits();
        let spread: Vec<u64> = (0..2_500u64)
            .map(|i| 1_000 + (i * 7919) % 1_000_003)
            .collect();
        let sets = [
            Vec::new(),
            times(&[1_000, 2_000, 40_000, 3_000]),
            times(&[5_000, u64::MAX, 7_000]),
            times(&spread),
        ];
        for mode in [RecorderMode::Exact, RecorderMode::Sketch] {
            for ts in &sets {
                let mut rec = Recorder::new(mode);
                rec.extend(ts.iter().copied());
                let sum = rec.summary();
                assert_eq!(sum.samples, ts.len());
                assert_eq!(sum.saturated, rec.saturated());
                assert_eq!(sum.mean_us.to_bits(), rec.mean_us().to_bits());
                assert_eq!(sum.p50_us.to_bits(), us(rec.percentile_ns(50.0)));
                assert_eq!(sum.p99_us.to_bits(), us(rec.percentile_ns(99.0)));
                assert_eq!(
                    sum.p999_us.map(f64::to_bits),
                    rec.p999_ns().map(|ns| us(Some(ns)))
                );
                assert_eq!(sum.max_us.to_bits(), us(Quantiles::max_ns(&rec)));
            }
        }
        assert_eq!(Recorder::default().summary(), Summary::default());
        assert_eq!(Recorder::from_times(&sets[2]).summary().saturated, 1);
        let big = Recorder::from_times(&sets[3]).summary();
        let p999 = big.p999_us.expect("2500 samples clear the p999 floor");
        assert!(p999 < big.max_us, "p999 {p999} must not collapse to max");
    }

    #[test]
    fn sketch_mode_merge_is_shard_order_independent() {
        let sketched = || Recorder::new(RecorderMode::Sketch);
        let mut whole = sketched();
        let mut shards: Vec<Recorder> = (0..4).map(|_| sketched()).collect();
        for i in 0..4000u64 {
            let t = SimTime::from_ns((i * 7919) % 1_000_000);
            whole.observe(t);
            shards[(i % 4) as usize].observe(t);
        }
        let mut fwd = sketched();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = sketched();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd, whole);
        assert_eq!(Quantiles::p99_ns(&fwd), Quantiles::p99_ns(&whole));
    }

    #[test]
    #[should_panic(expected = "different modes")]
    fn merging_mixed_modes_panics() {
        let mut a = Recorder::default();
        let b = Recorder::new(RecorderMode::Sketch);
        a.merge(&b);
    }

    #[test]
    fn sketch_mode_bounds_memory() {
        let mut exact = Recorder::default();
        let mut sk = Recorder::new(RecorderMode::Sketch);
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
        assert!(sk.raw().is_none());
        assert!(sk.max_us() >= sk.min_us());
    }

    #[test]
    fn p999_floor_applies_to_recorders() {
        let mut rec = Recorder::new(RecorderMode::Sketch);
        for i in 0..999u64 {
            rec.observe(SimTime::from_ns(i));
        }
        assert_eq!(Quantiles::p999_ns(&rec), None);
        rec.observe(SimTime::from_ns(999));
        assert!(Quantiles::p999_ns(&rec).is_some());
    }
}
