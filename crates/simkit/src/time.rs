//! Simulated time.
//!
//! The paper measured latency with a free-running real-time clock on a
//! TurboChannel card (the DEC SRC AN-1 controller) with a **40 ns
//! period**. We represent simulated time as an integer count of
//! nanoseconds, and provide a quantization helper that rounds a time
//! down to the 40 ns tick, which the measurement layer applies to every
//! probe read so that the reproduction has the same clock granularity
//! as the original study.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Period of the TurboChannel real-time clock used by the paper, in
/// nanoseconds.
pub const CLOCK_PERIOD_NS: u64 = 40;

/// A point in (or span of) simulated time, stored as whole nanoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration;
/// the arithmetic provided covers both uses. Absolute time starts at
/// [`SimTime::ZERO`] when the simulation boots.
///
/// # Examples
///
/// ```
/// use simkit::SimTime;
///
/// let t = SimTime::from_us(3) + SimTime::from_ns(500);
/// assert_eq!(t.as_ns(), 3_500);
/// assert_eq!(t.as_us_f64(), 3.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The epoch: simulation boot time (also the zero duration).
    pub const ZERO: SimTime = SimTime(0);

    /// The maximum representable time; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole nanoseconds.
    #[inline]
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from whole microseconds.
    #[inline]
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from fractional microseconds, rounding to the
    /// nearest nanosecond.
    ///
    /// Negative inputs saturate to zero: cost-model arithmetic can
    /// produce tiny negative values when a fitted intercept is negative,
    /// and a negative duration is never meaningful here.
    #[inline]
    #[must_use]
    pub fn from_us_f64(us: f64) -> Self {
        if us <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((us * 1_000.0).round() as u64)
    }

    /// Creates a time from whole milliseconds.
    #[inline]
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    #[inline]
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Returns the time as whole nanoseconds.
    #[inline]
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional microseconds.
    #[inline]
    #[must_use]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the time as fractional seconds.
    #[inline]
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Quantizes this time down to the 40 ns TurboChannel clock tick.
    ///
    /// The paper's probes read a free-running counter with a 40 ns
    /// period; applying this to probe reads reproduces that granularity.
    ///
    /// # Examples
    ///
    /// ```
    /// use simkit::SimTime;
    ///
    /// assert_eq!(SimTime::from_ns(119).quantized().as_ns(), 80);
    /// assert_eq!(SimTime::from_ns(120).quantized().as_ns(), 120);
    /// ```
    #[inline]
    #[must_use]
    pub const fn quantized(self) -> Self {
        SimTime(self.0 - self.0 % CLOCK_PERIOD_NS)
    }

    /// Saturating subtraction: returns the duration from `earlier` to
    /// `self`, or zero if `earlier` is later.
    #[inline]
    #[must_use]
    pub const fn saturating_since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction.
    #[inline]
    #[must_use]
    pub const fn checked_sub(self, other: SimTime) -> Option<SimTime> {
        match self.0.checked_sub(other.0) {
            Some(ns) => Some(SimTime(ns)),
            None => None,
        }
    }

    /// Returns the larger of two times.
    #[inline]
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[inline]
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// Panics in debug builds on underflow, like integer subtraction.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;

    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;

    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    /// Renders with an adaptive unit: ns below 1 µs, µs below 1 s,
    /// seconds otherwise.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{} ns", self.0)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2} us", self.as_us_f64())
        } else {
            write!(f, "{:.4} s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
    }

    #[test]
    fn fractional_microseconds_round() {
        assert_eq!(SimTime::from_us_f64(1.2345).as_ns(), 1_235);
        assert_eq!(SimTime::from_us_f64(0.0004).as_ns(), 0);
        assert_eq!(SimTime::from_us_f64(0.0006).as_ns(), 1);
    }

    #[test]
    fn negative_microseconds_saturate_to_zero() {
        assert_eq!(SimTime::from_us_f64(-3.0), SimTime::ZERO);
    }

    #[test]
    fn quantization_rounds_down_to_40ns() {
        assert_eq!(SimTime::from_ns(0).quantized().as_ns(), 0);
        assert_eq!(SimTime::from_ns(39).quantized().as_ns(), 0);
        assert_eq!(SimTime::from_ns(40).quantized().as_ns(), 40);
        assert_eq!(SimTime::from_ns(79).quantized().as_ns(), 40);
        assert_eq!(SimTime::from_ns(1_000_003).quantized().as_ns(), 1_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(10);
        let b = SimTime::from_us(4);
        assert_eq!(a + b, SimTime::from_us(14));
        assert_eq!(a - b, SimTime::from_us(6));
        assert_eq!(a * 3, SimTime::from_us(30));
        assert_eq!(a / 2, SimTime::from_us(5));
        assert_eq!(b.saturating_since(a), SimTime::ZERO);
        assert_eq!(a.saturating_since(b), SimTime::from_us(6));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.checked_sub(b), Some(SimTime::from_us(6)));
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_us(1);
        let b = SimTime::from_us(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(a), a);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4u64).map(SimTime::from_us).sum();
        assert_eq!(total, SimTime::from_us(10));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_ns(999).to_string(), "999 ns");
        assert_eq!(SimTime::from_us(1021).to_string(), "1021.00 us");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.0000 s");
    }
}
