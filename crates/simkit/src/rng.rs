//! Deterministic pseudo-random numbers for the simulation.
//!
//! Error injection (bit errors on the fiber, cell loss, gateway
//! corruption) must be reproducible run-to-run, so the simulator uses
//! its own small PCG-XSH-RR generator seeded explicitly rather than an
//! OS-entropy source. The generator is the 64/32 PCG variant, which is
//! statistically strong far beyond what error-injection sampling needs.

/// A deterministic PCG-XSH-RR 64/32 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use simkit::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u32(), b.next_u32());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;
const PCG_DEFAULT_INC: u64 = 1_442_695_040_888_963_407;

impl SimRng {
    /// Creates a generator from a 64-bit seed with the default stream.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        Self::seed_stream(seed, 0)
    }

    /// Creates a generator from a seed and a stream id, so independent
    /// components (e.g. two link directions) can draw non-overlapping
    /// sequences from the same experiment seed.
    #[must_use]
    pub fn seed_stream(seed: u64, stream: u64) -> Self {
        // The increment must be odd (standard PCG stream selection).
        let inc = (stream.wrapping_add(PCG_DEFAULT_INC) << 1) | 1;
        let mut rng = SimRng { state: 0, inc };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Returns the next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Returns a uniform value in `[0, bound)` using Lemire rejection
    /// to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire's multiply-shift method with rejection.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u32();
            let m = u64::from(x) * u64::from(bound);
            if (m as u32) >= threshold {
                return (m >> 32) as u32;
            }
        }
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Draws a geometric "number of successes until failure" style
    /// count: returns how many independent `p`-probability events occur
    /// among `n` trials, using a binomial sample via inversion for the
    /// small-`p` regime typical of bit-error rates.
    ///
    /// For the tiny per-bit error probabilities used here (1e-12 to
    /// 1e-6 per bit), a direct Bernoulli loop over bits would be
    /// prohibitive; instead we sample the gap to the next error
    /// geometrically.
    pub fn binomial_small_p(&mut self, n: u64, p: f64) -> u64 {
        if p <= 0.0 || n == 0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        // Sample inter-arrival gaps: G = floor(ln(U)/ln(1-p)) + 1.
        let log1mp = (1.0 - p).ln();
        let mut count = 0u64;
        let mut pos = 0u64;
        loop {
            let u = self.next_f64().max(f64::MIN_POSITIVE);
            let gap = (u.ln() / log1mp).floor() as u64 + 1;
            pos = pos.saturating_add(gap);
            if pos > n {
                return count;
            }
            count += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "seeds should produce mostly distinct output");
    }

    #[test]
    fn different_streams_differ() {
        let mut a = SimRng::seed_stream(1, 0);
        let mut b = SimRng::seed_stream(1, 1);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = SimRng::seed_from(99);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = SimRng::seed_from(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "got {hits}");
    }

    #[test]
    fn binomial_small_p_edges() {
        let mut rng = SimRng::seed_from(3);
        assert_eq!(rng.binomial_small_p(0, 0.5), 0);
        assert_eq!(rng.binomial_small_p(100, 0.0), 0);
        assert_eq!(rng.binomial_small_p(100, 1.0), 100);
    }

    #[test]
    fn binomial_small_p_mean_is_np() {
        let mut rng = SimRng::seed_from(17);
        let n = 1_000_000u64;
        let p = 1e-4;
        let total: u64 = (0..200).map(|_| rng.binomial_small_p(n, p)).sum();
        let mean = total as f64 / 200.0;
        // Expected 100 errors per trial; allow generous slack.
        assert!((80.0..120.0).contains(&mean), "mean {mean}");
    }
}
