//! The golden check: a live canonical report must equal its blessed
//! copy under `tests/golden/` byte for byte.
//!
//! The canonical writer (`sweep::report::canonical_report`) puts
//! exactly one cell per line, so a mismatch is explained by pairing
//! the two files' cell lines on their key.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One line-level difference between a golden report and a live one.
#[derive(Debug, PartialEq, Eq)]
pub struct LineDiff {
    /// The cell key; empty for a difference outside the cell lines
    /// (cell order, report name, whitespace).
    pub key: String,
    /// The golden line, `None` for an extra live cell.
    pub golden: Option<String>,
    /// The live line, `None` for a missing cell.
    pub live: Option<String>,
}

/// A report's cell lines by cell key, without indent or separator
/// comma.
fn cell_lines(report: &str) -> BTreeMap<&str, &str> {
    report
        .lines()
        .filter_map(|l| {
            let cell = l.strip_prefix("    ")?.trim_end_matches(',');
            let key = cell.strip_prefix('"')?.split_once("\": {")?.0;
            Some((key, cell))
        })
        .collect()
}

/// Compares `live` to `golden` byte for byte. Empty when they match;
/// otherwise one entry per changed, missing or extra cell, or, when
/// every cell line matches, the first differing line (debug-quoted, so
/// whitespace shows).
#[must_use]
pub fn diff_report(golden: &str, live: &str) -> Vec<LineDiff> {
    if golden == live {
        return Vec::new();
    }
    let (g, l) = (cell_lines(golden), cell_lines(live));
    let keys: BTreeSet<&str> = g.keys().chain(l.keys()).copied().collect();
    let owned = |s: Option<&&str>| s.map(|s| (*s).to_string());
    let mut diffs: Vec<LineDiff> = keys
        .into_iter()
        .filter(|k| g.get(k) != l.get(k))
        .map(|k| LineDiff {
            key: k.to_string(),
            golden: owned(g.get(k)),
            live: owned(l.get(k)),
        })
        .collect();
    if diffs.is_empty() {
        let g: Vec<&str> = golden.split_inclusive('\n').collect();
        let l: Vec<&str> = live.split_inclusive('\n').collect();
        let i = (0..g.len().max(l.len()))
            .find(|&i| g.get(i) != l.get(i))
            .expect("unequal reports differ on some line");
        let quoted = |s: Option<&&str>| s.map(|s| format!("line {}: {s:?}", i + 1));
        diffs.push(LineDiff {
            key: String::new(),
            golden: quoted(g.get(i)),
            live: quoted(l.get(i)),
        });
    }
    diffs
}

impl fmt::Display for LineDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |s: &Option<String>| s.clone().unwrap_or_else(|| "(none)".into());
        let key = if self.key.is_empty() {
            "(outside the cell lines)"
        } else {
            &self.key
        };
        write!(
            f,
            "{key}\n    golden: {}\n    live:   {}",
            side(&self.golden),
            side(&self.live)
        )
    }
}
