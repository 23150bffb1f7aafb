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

    /// A recorder over these samples for quantile reduction: exact
    /// mode loads an exact-mode [`Recorder`] (`i64::MAX` clamping
    /// with saturation counts), sketch mode clones the sketch.
    #[must_use]
    pub fn recorder(&self) -> Recorder {
        match self {
            Samples::Exact(v) => Recorder::from_times(v),
            Samples::Sketched(r) => r.clone(),
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
