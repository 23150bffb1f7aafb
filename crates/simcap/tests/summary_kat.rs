//! Known answers for both retention modes' latency columns: a fixed
//! 2 500-sample stream with one sample past `i64::MAX` ns, pinned to
//! the bit in every `Summary` field and in the canonical report's
//! mean, stddev, min and max.

use simcap::{Recorder, RecorderMode};
use simkit::SimTime;

fn stream() -> Vec<SimTime> {
    (0..2_500u64)
        .map(|i| {
            if i == 1_234 {
                SimTime::from_ns(u64::MAX)
            } else {
                SimTime::from_ns(1_000 + (i * 7919) % 1_000_003)
            }
        })
        .collect()
}

/// `[mean, p50, p99, p999, max]` of the summary, then the report's
/// `[mean, stddev, min, max]`, as `f64::to_bits`.
fn check(mode: RecorderMode, summary: [u64; 5], report: [u64; 4]) {
    let mut s = Recorder::new(mode);
    s.extend(stream());
    let m = s.summary();
    assert_eq!((m.samples, m.saturated), (2_500, 1), "{mode:?}");
    let p999 = m.p999_us.expect("2 500 samples clear the p999 floor");
    let got = [m.mean_us, m.p50_us, m.p99_us, p999, m.max_us].map(f64::to_bits);
    assert_eq!(got, summary, "{mode:?} summary");
    let got = [s.mean_us(), s.stddev_us(), s.min_us(), s.max_us()].map(f64::to_bits);
    assert_eq!(got, report, "{mode:?} report");
}

#[test]
fn exact_mode_known_answers() {
    check(
        RecorderMode::Exact,
        [
            0x429a_d7f2_9ac4_71ea,
            0x407e_fda9_fbe7_6c8b,
            0x408e_f700_0000_0000,
            0x408f_43b0_20c4_9ba6,
            0x4340_624d_d2f1_a9fc,
        ],
        [
            0x429a_d7f2_9ac4_71ea,
            0x42f4_f7a2_a11b_183c,
            0x3ff0_0000_0000_0000,
            // Unclamped: the sample past `i64::MAX` ns as it is.
            0x4350_624d_d2f1_a9fc,
        ],
    );
}

#[test]
fn sketch_mode_known_answers() {
    check(
        RecorderMode::Sketch,
        [
            0x428a_d7f2_9acc_3482,
            0x407f_0a39_5810_624e,
            0x408e_e976_c8b4_3958,
            0x408f_4bc4_9ba5_e354,
            0x4340_624d_d2f1_a9fc,
        ],
        [
            0x428a_d7f2_9acc_3482,
            0x42e4_f7a2_a11b_1869,
            0x3ff0_0000_0000_0000,
            0x4340_624d_d2f1_a9fc,
        ],
    );
}
