//! The paper's comparison metrics. The summary statistics of a
//! sample set live next to `simcap::Recorder`.

/// Percentage decrease from `from` to `to`, the paper's comparison
/// metric ("Percentage Decrease (%)" in Tables 1, 4, 6, 7).
///
/// A zero baseline has no meaningful decrease: the result is
/// [`f64::NAN`], which the table renderers print as `n/a` and the
/// JSON reports as `null`. (Returning `0.0` here would disguise a
/// broken baseline as "no change" in the paper-claims tables.)
#[must_use]
pub fn pct_decrease(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        return f64::NAN;
    }
    (1.0 - to / from) * 100.0
}

/// Relative error of `got` against a reference `want`, in percent.
///
/// A zero reference admits no relative error: the result is
/// [`f64::NAN`] (rendered `n/a` / `null`), not a masking `0.0`.
#[must_use]
pub fn pct_error(got: f64, want: f64) -> f64 {
    if want == 0.0 {
        return f64::NAN;
    }
    (got - want) / want * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentage_metrics() {
        // Table 1's 4-byte row: 1940 -> 1021 is a 47% decrease.
        let d = pct_decrease(1940.0, 1021.0);
        assert!((d - 47.4).abs() < 0.1, "{d}");
        assert!((pct_error(110.0, 100.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_baselines_yield_nan_not_a_masking_zero() {
        // A broken (zero) baseline must not read as "no change".
        assert!(pct_decrease(0.0, 5.0).is_nan());
        assert!(pct_decrease(0.0, 0.0).is_nan());
        assert!(pct_error(5.0, 0.0).is_nan());
        assert!(pct_error(0.0, 0.0).is_nan());
        // Non-zero baselines are unaffected.
        assert_eq!(pct_decrease(10.0, 10.0), 0.0);
        assert_eq!(pct_error(10.0, 10.0), 0.0);
    }
}
