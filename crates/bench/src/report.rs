//! Machine-readable result collection for the `repro` binary.
//!
//! Every table the binary prints is also recorded here as measured
//! series paired with the paper's values, and can be dumped as JSON
//! (used to generate `EXPERIMENTS.md`). The JSON is emitted by hand —
//! the build must work with no registry access, so no serde.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sweep::report::{json_num, json_string};

/// One measured series against the paper's.
pub struct Series {
    /// Measured values (one per paper size, usually).
    pub measured: Vec<f64>,
    /// The paper's published values.
    pub paper: Vec<f64>,
    /// Per-point relative error in percent.
    pub err_pct: Vec<f64>,
}

/// One scalar comparison.
pub struct Scalar {
    /// Measured value.
    pub measured: f64,
    /// The paper's value (0 when the paper gives no number).
    pub paper: f64,
}

/// The full report.
pub struct Report {
    /// Iterations per repetition used for the runs.
    pub iterations: u64,
    /// Repetitions averaged.
    pub reps: u64,
    /// Named series.
    pub series: BTreeMap<String, Series>,
    /// Named scalars.
    pub scalars: BTreeMap<String, Scalar>,
    /// Rendered table texts.
    pub texts: BTreeMap<String, String>,
}

impl Report {
    /// Creates an empty report.
    #[must_use]
    pub fn new(iterations: u64, reps: u64) -> Self {
        Report {
            iterations,
            reps,
            series: BTreeMap::new(),
            scalars: BTreeMap::new(),
            texts: BTreeMap::new(),
        }
    }

    /// Records a measured-vs-paper series. Points where the paper
    /// gives no number (0.0) have no defined relative error; they
    /// render as `null` (see `json_num`) rather than a masking `0.0`.
    pub fn series(&mut self, name: &str, measured: &[f64], paper: &[f64]) {
        let err_pct = measured
            .iter()
            .zip(paper)
            .map(|(&m, &p)| latency_core::stats::pct_error(m, p))
            .collect();
        self.series.insert(
            name.to_string(),
            Series {
                measured: measured.to_vec(),
                paper: paper.to_vec(),
                err_pct,
            },
        );
    }

    /// Records a scalar comparison.
    pub fn scalar(&mut self, name: &str, measured: f64, paper: f64) {
        self.scalars
            .insert(name.to_string(), Scalar { measured, paper });
    }

    /// Records a rendered table.
    pub fn text(&mut self, name: &str, text: String) {
        self.texts.insert(name.to_string(), text);
    }

    /// Renders the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"iterations\": {},", self.iterations);
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        out.push_str("  \"series\": {");
        emit_map(&mut out, &self.series, |out, s| {
            out.push_str("{\n");
            emit_num_array(out, "measured", &s.measured, 6);
            out.push_str(",\n");
            emit_num_array(out, "paper", &s.paper, 6);
            out.push_str(",\n");
            emit_num_array(out, "err_pct", &s.err_pct, 6);
            out.push_str("\n    }");
        });
        out.push_str(",\n  \"scalars\": {");
        emit_map(&mut out, &self.scalars, |out, s| {
            let _ = write!(
                out,
                "{{ \"measured\": {}, \"paper\": {} }}",
                json_num(s.measured),
                json_num(s.paper)
            );
        });
        out.push_str(",\n  \"texts\": {");
        emit_map(&mut out, &self.texts, |out, t| {
            out.push_str(&json_string(t));
        });
        out.push_str("\n}\n");
        out
    }

    /// Writes the report as pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_json(&self, path: &str) {
        std::fs::write(path, self.to_json()).expect("write report file");
    }
}

/// Emits the entries of a map as `"key": <value>` pairs; the caller
/// has already written the opening `{` and writes the closing brace's
/// line itself.
fn emit_map<V>(out: &mut String, map: &BTreeMap<String, V>, mut emit: impl FnMut(&mut String, &V)) {
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        out.push_str(&json_string(k));
        out.push_str(": ");
        emit(out, v);
    }
    if map.is_empty() {
        out.push('}');
    } else {
        out.push_str("\n  }");
    }
}

fn emit_num_array(out: &mut String, name: &str, xs: &[f64], indent: usize) {
    let pad = " ".repeat(indent);
    let _ = write!(out, "{pad}\"{name}\": [");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_num(*x));
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_structure() {
        let mut r = Report::new(10, 2);
        r.series("s1", &[1.5, 2.0], &[1.0, 0.0]);
        r.scalar("x", 3.25, 0.0);
        r.text("t", "line1\nline\"2\"".to_string());
        let j = r.to_json();
        assert!(j.contains("\"iterations\": 10,"));
        assert!(j.contains("\"measured\": [1.5, 2.0]"));
        // The second point's paper value is 0.0: relative error is
        // undefined there, and must surface as null, not 0.
        assert!(j.contains("\"err_pct\": [50.0, null]"));
        assert!(j.contains("\"x\": { \"measured\": 3.25, \"paper\": 0.0 }"));
        assert!(j.contains("line1\\nline\\\"2\\\""));
        // Balanced braces/brackets, since nothing nests beyond depth 2.
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced JSON: {j}"
        );
    }
}
