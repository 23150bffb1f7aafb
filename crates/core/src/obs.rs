//! Study-side sample containers: exact or sketched.
//!
//! Study cells used to pool every completion time into a `Vec` and
//! reduce it at report time — exact, but O(samples) memory per cell.
//! [`Samples`] keeps that exact path as the default (its reports stay
//! byte-identical to the historical ones) and adds an opt-in sketched
//! mode backed by [`simcap::Recorder`], whose memory is bounded and
//! whose merged quantiles are byte-deterministic at any worker count.
//!
//! The two modes intentionally share no float code: exact mode
//! reproduces the historical [`crate::stats`] summation order bit for
//! bit, sketch mode computes from the sketch's integer aggregates.
//!
//! [`Summary`] is the one set of latency columns every study row
//! reports, built by [`Samples::summary`].

use simcap::{Quantiles, Recorder};
use simkit::SimTime;

use crate::stats;

/// Which retention mode a study runs its cells in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsMode {
    /// Pool every sample (the historical, golden-stable default).
    #[default]
    Exact,
    /// Retain only a mergeable quantile sketch per cell (`--sketch`):
    /// bounded memory, quantiles within the sketch's documented
    /// relative error.
    Sketch,
}

/// A cell's pooled samples: an exact `Vec` or a bounded sketch.
#[derive(Clone, Debug)]
pub enum Samples {
    /// Every sample, in observation order.
    Exact(Vec<SimTime>),
    /// A sketch-mode recorder (bounded memory).
    Sketched(Recorder),
}

impl Samples {
    /// An empty container in the given mode.
    #[must_use]
    pub fn new(mode: ObsMode) -> Self {
        match mode {
            ObsMode::Exact => Samples::Exact(Vec::new()),
            ObsMode::Sketch => Samples::Sketched(Recorder::sketched()),
        }
    }

    /// Records one sample.
    pub fn push(&mut self, t: SimTime) {
        match self {
            Samples::Exact(v) => v.push(t),
            Samples::Sketched(r) => r.observe(t),
        }
    }

    /// Records every sample in `ts`, in order.
    pub fn extend_from(&mut self, ts: &[SimTime]) {
        match self {
            Samples::Exact(v) => v.extend_from_slice(ts),
            Samples::Sketched(r) => r.observe_times(ts),
        }
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Samples::Exact(v) => v.len(),
            Samples::Sketched(r) => Quantiles::count(r),
        }
    }

    /// True when no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw samples, `None` in sketch mode.
    #[must_use]
    pub fn raw(&self) -> Option<&[SimTime]> {
        match self {
            Samples::Exact(v) => Some(v),
            Samples::Sketched(_) => None,
        }
    }

    /// The latency columns of every study row. Exact mode sorts the
    /// samples once for every percentile; sketch mode reads the sketch
    /// recorder.
    #[must_use]
    pub fn summary(&self) -> Summary {
        match self {
            Samples::Exact(v) => Summary::exact(v),
            Samples::Sketched(r) => Summary::from_quantiles(r, r.saturated(), self.mean_us()),
        }
    }

    /// Mean in µs. Exact mode reproduces [`stats::mean_us`] bit for
    /// bit (float sum in observation order); sketch mode divides the
    /// exact integer sum.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        match self {
            Samples::Exact(v) => stats::mean_us(v),
            Samples::Sketched(r) => r.sketch().map_or(0.0, simcap::QuantileSketch::mean_us),
        }
    }

    /// Population standard deviation in µs ([`stats::stddev_us`]
    /// semantics; sketch mode uses the integer sum of squares).
    #[must_use]
    pub fn stddev_us(&self) -> f64 {
        match self {
            Samples::Exact(v) => stats::stddev_us(v),
            Samples::Sketched(r) => r.stddev_us(),
        }
    }

    /// Smallest sample in µs (0.0 when empty, matching
    /// [`stats::min_us`]).
    #[must_use]
    pub fn min_us(&self) -> f64 {
        match self {
            Samples::Exact(v) => stats::min_us(v),
            #[allow(clippy::cast_precision_loss)]
            Samples::Sketched(r) => Quantiles::min_ns(r).map_or(0.0, |ns| ns as f64 / 1000.0),
        }
    }

    /// Largest sample in µs (0.0 when empty, matching
    /// [`stats::max_us`]).
    #[must_use]
    pub fn max_us(&self) -> f64 {
        match self {
            Samples::Exact(v) => stats::max_us(v),
            #[allow(clippy::cast_precision_loss)]
            Samples::Sketched(r) => Quantiles::max_ns(r).map_or(0.0, |ns| ns as f64 / 1000.0),
        }
    }

    /// Bytes retained by this container — what the `--sketch` memory
    /// gate bounds.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        match self {
            Samples::Exact(v) => {
                std::mem::size_of::<Self>() + v.capacity() * std::mem::size_of::<SimTime>()
            }
            Samples::Sketched(r) => std::mem::size_of::<Self>() + r.memory_bytes(),
        }
    }
}

/// The latency columns every study row reports, computed in one pass
/// over a sample set.
///
/// Percentiles are nearest-rank ([`Quantiles`]), and an empty set
/// reports zero in every column.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub samples: usize,
    /// Samples clamped to `i64::MAX` ns (must be zero for the tail
    /// columns to be trustworthy).
    pub saturated: u64,
    /// Mean in µs: [`Samples::mean_us`], the canonical report's mean.
    pub mean_us: f64,
    /// Median in µs.
    pub p50_us: f64,
    /// 99th percentile in µs.
    pub p99_us: f64,
    /// 99.9th percentile in µs; `None` below
    /// [`simcap::P999_MIN_SAMPLES`] samples, where nearest-rank p999
    /// would just repeat the maximum.
    pub p999_us: Option<f64>,
    /// Largest sample in µs.
    pub max_us: f64,
}

impl Summary {
    /// The exact summary of `ts`. Samples above `i64::MAX` ns are
    /// clamped and counted as [`Recorder`] does, and the set is sorted
    /// once for every percentile.
    #[must_use]
    pub(crate) fn exact(ts: &[SimTime]) -> Summary {
        let rec = Recorder::from_times(ts);
        let dist = rec.dist().expect("an exact recorder keeps its samples");
        Summary::from_quantiles(&dist, rec.saturated(), stats::mean_us(ts))
    }

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

impl Default for Samples {
    fn default() -> Self {
        Samples::new(ObsMode::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(ns: &[u64]) -> Vec<SimTime> {
        ns.iter().map(|&n| SimTime::from_ns(n)).collect()
    }

    #[test]
    fn exact_mode_matches_stats_helpers() {
        let ts = times(&[1_000, 2_000, 40_000, 3_000]);
        let mut s = Samples::new(ObsMode::Exact);
        s.extend_from(&ts);
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean_us().to_bits(), stats::mean_us(&ts).to_bits());
        assert_eq!(s.stddev_us().to_bits(), stats::stddev_us(&ts).to_bits());
        assert_eq!(s.min_us().to_bits(), stats::min_us(&ts).to_bits());
        assert_eq!(s.max_us().to_bits(), stats::max_us(&ts).to_bits());
        assert_eq!(s.raw().unwrap(), &ts[..]);
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
        for ts in &sets {
            let mut s = Samples::new(ObsMode::Exact);
            s.extend_from(ts);
            let sum = s.summary();
            let rec = Recorder::from_times(ts);
            assert_eq!(sum.samples, ts.len());
            assert_eq!(sum.saturated, rec.saturated());
            assert_eq!(sum.mean_us.to_bits(), stats::mean_us(ts).to_bits());
            assert_eq!(sum.p50_us.to_bits(), us(rec.percentile_ns(50.0)));
            assert_eq!(sum.p99_us.to_bits(), us(rec.percentile_ns(99.0)));
            assert_eq!(
                sum.p999_us.map(f64::to_bits),
                rec.p999_ns().map(|ns| us(Some(ns)))
            );
            assert_eq!(sum.max_us.to_bits(), us(rec.max_ns()));
            assert_eq!(sum, Summary::exact(ts));
        }
        assert_eq!(Summary::exact(&sets[0]), Summary::default());
        assert_eq!(Summary::exact(&sets[2]).saturated, 1);
        let big = Summary::exact(&sets[3]);
        let p999 = big.p999_us.expect("2500 samples clear the p999 floor");
        assert!(p999 < big.max_us, "p999 {p999} must not collapse to max");

        for ts in &sets {
            let mut s = Samples::new(ObsMode::Sketch);
            s.extend_from(ts);
            let sum = s.summary();
            let Samples::Sketched(rec) = &s else {
                unreachable!("sketch mode")
            };
            assert_eq!(sum.samples, Quantiles::count(rec));
            assert_eq!(sum.saturated, rec.saturated());
            assert_eq!(sum.mean_us.to_bits(), s.mean_us().to_bits());
            assert_eq!(sum.p50_us.to_bits(), us(rec.percentile_ns(50.0)));
            assert_eq!(sum.p99_us.to_bits(), us(rec.percentile_ns(99.0)));
            assert_eq!(
                sum.p999_us.map(f64::to_bits),
                rec.p999_ns().map(|ns| us(Some(ns)))
            );
            assert_eq!(sum.max_us.to_bits(), us(Quantiles::max_ns(rec)));
        }
    }

    #[test]
    fn sketch_mode_bounds_memory_and_tracks_aggregates() {
        let mut s = Samples::new(ObsMode::Sketch);
        for i in 0..50_000u64 {
            s.push(SimTime::from_ns(1_000 + (i * 7919) % 1_000_000));
        }
        assert_eq!(s.len(), 50_000);
        assert!(s.raw().is_none());
        assert!(s.memory_bytes() < 200 * 1024, "got {}", s.memory_bytes());
        assert!(s.mean_us() > 0.0);
        assert!(s.max_us() >= s.min_us());
    }
}
