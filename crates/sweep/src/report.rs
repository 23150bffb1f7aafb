//! The canonical report: the one deterministic JSON artifact of every
//! sweep and every world study.
//!
//! [`canonical_report`] writes it: per-cell seed, repetitions, sample
//! count, mean/stddev/min/max, events executed, final simulated time
//! and verify failures, then any study-specific extras, one cell per
//! line in grid order. [`SweepResults::canonical_json`] and the world
//! studies both call it, so the report is byte-identical across runs
//! and across `--jobs` values, and the goldens under `tests/golden/`
//! are checked byte for byte. Host wall-clock lives only on
//! [`SweepResults::wall_ns`](crate::SweepResults) and
//! [`CellOutcome::wall_ns`](crate::CellOutcome), never in the report.
//!
//! Emitted by hand, no serde: the build works with no registry access.

use std::fmt::Write as _;

use crate::SweepResults;

/// Finite-number JSON rendering; NaN/inf become null (like
/// serde_json). Public so the world studies render their extra fields
/// the same way.
#[must_use]
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        // Shortest representation that round-trips.
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One cell of the canonical report: the ten schema fields, then the
/// cell's extra fields. Each caller computes its own numbers.
pub struct ReportCell<'a> {
    /// Grid key.
    pub key: &'a str,
    /// Key-derived base seed.
    pub seed: u64,
    /// Repetitions pooled.
    pub reps: u64,
    /// Samples in the reported set.
    pub samples: usize,
    /// Mean sample, µs.
    pub mean_us: f64,
    /// Sample standard deviation, µs.
    pub stddev_us: f64,
    /// Smallest sample, µs.
    pub min_us: f64,
    /// Largest sample, µs.
    pub max_us: f64,
    /// Events executed.
    pub events: u64,
    /// Final simulated time, µs.
    pub sim_time_us: f64,
    /// Payload verification failures.
    pub verify_failures: u64,
    /// Study-specific `(name, rendered JSON value)` pairs, written in
    /// order after `verify_failures`.
    pub extras: &'a [(&'static str, String)],
}

/// The one canonical report writer: the report name, then the
/// `"cells"` object with exactly one cell per line, in the order given.
/// `repro verify` compares this text to the goldens byte for byte and
/// explains a mismatch line by line.
pub fn canonical_report<'a>(name: &str, cells: impl IntoIterator<Item = ReportCell<'a>>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"name\": {},", json_string(name));
    out.push_str("  \"cells\": {");
    let mut empty = true;
    for c in cells {
        if !empty {
            out.push(',');
        }
        empty = false;
        let _ = write!(
            out,
            "\n    {}: {{ \"seed\": {}, \"reps\": {}, \"samples\": {}, \"mean_us\": {}, \
             \"stddev_us\": {}, \"min_us\": {}, \"max_us\": {}, \"events\": {}, \
             \"sim_time_us\": {}, \"verify_failures\": {}",
            json_string(c.key),
            c.seed,
            c.reps,
            c.samples,
            json_num(c.mean_us),
            json_num(c.stddev_us),
            json_num(c.min_us),
            json_num(c.max_us),
            c.events,
            json_num(c.sim_time_us),
            c.verify_failures
        );
        for (field, value) in c.extras {
            let _ = write!(out, ", \"{field}\": {value}");
        }
        out.push_str(" }");
    }
    out.push_str(if empty { "}" } else { "\n  }" });
    out.push_str("\n}\n");
    out
}

impl SweepResults {
    /// The deterministic report: byte-identical for a given grid at
    /// any `--jobs` value (and across repeated runs).
    #[must_use]
    pub fn canonical_json(&self) -> String {
        canonical_report(
            &self.name,
            self.outcomes.iter().map(|c| ReportCell {
                key: &c.key,
                seed: c.seed,
                reps: c.reps,
                samples: c.result.rtts.len(),
                mean_us: c.result.mean_rtt_us(),
                stddev_us: c.result.stddev_rtt_us(),
                min_us: latency_core::stats::min_us(&c.result.rtts),
                max_us: latency_core::stats::max_us(&c.result.rtts),
                events: c.result.events,
                sim_time_us: c.result.sim_time.as_us_f64(),
                verify_failures: c.result.verify_failures,
                extras: &[],
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_num_matches_serde_conventions() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
