//! End-to-end exit-code contract of `repro verify`, and the line diff
//! it explains a mismatch with:
//!
//! - `--bless` writes the goldens and succeeds;
//! - a clean re-run verifies with exit 0;
//! - any byte of golden drift makes verification exit 1 and names
//!   each drifted cell on stderr, however small the numeric change;
//! - missing goldens exit with a distinct code and a hint to bless;
//! - `tests/golden/` holds one golden per study, each one clean cell
//!   per line;
//! - `repro invariants --quick` checks each run the two-host goldens
//!   pin, once, from its golden seed.

use std::path::{Path, PathBuf};
use std::process::Command;

use oracle::{diff_report, LineDiff};
use sweep::report::{canonical_report, ReportCell};
use world::{Scale, Study};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_golden_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Rewrites the first cell line of `path` carrying `"field": <value>`,
/// `value` passing `pick`, to `"field": <bump(value)>`. Returns the
/// edited cell's key.
fn edit_cell(path: &Path, field: &str, pick: fn(f64) -> bool, bump: fn(f64) -> f64) -> String {
    let text = std::fs::read_to_string(path).expect("read golden");
    let tag = format!("\"{field}\": ");
    let (line, value) = text
        .lines()
        .find_map(|l| {
            let v = l.split(&tag).nth(1)?.split([',', ' ']).next()?;
            let v: f64 = v.parse().ok()?;
            pick(v).then_some((l, v))
        })
        .unwrap_or_else(|| panic!("{}: no cell with a matching {field}", path.display()));
    let edited = line.replacen(
        &format!("{tag}{value:?}"),
        &format!("{tag}{}", bump(value)),
        1,
    );
    assert_ne!(line, edited, "{field} {value} must render as {value:?}");
    std::fs::write(path, text.replacen(line, &edited, 1)).expect("write edited golden");
    line.trim_start()
        .split('"')
        .nth(1)
        .expect("cell key")
        .to_string()
}

#[test]
fn verify_roundtrip_and_drift_detection() {
    let dir = tmp_golden_dir("roundtrip");
    let dir_s = dir.to_str().expect("utf8 temp path");

    // Bless.
    let st = repro()
        .args(["verify", "--bless", "--golden-dir", dir_s])
        .status()
        .expect("run repro");
    assert!(st.success(), "--bless failed: {st:?}");
    for study in Study::ALL {
        let file = format!("{}.json", study.report_name(true));
        assert!(dir.join(&file).is_file(), "{file}");
    }

    // Clean re-run: the simulation is deterministic, so the live grid
    // must match what was just blessed byte for byte.
    let st = repro()
        .args(["verify", "--golden-dir", dir_s])
        .status()
        .expect("run repro");
    assert!(st.success(), "clean verify failed: {st:?}");

    // Drift far below any float tolerance: a 4% move in a tails
    // amplification ratio, 0.04 Mbit/s of cc goodput, and 0.03 µs on
    // one Table 1 mean. Each is a changed byte, so each is drift.
    let keys = [
        edit_cell(
            &dir.join("tails_quick.json"),
            "amp_p99",
            |v| v == 1.0,
            |_| 1.04,
        ),
        edit_cell(
            &dir.join("cc_quick.json"),
            "goodput_mbps",
            |_| true,
            |v| v + 0.04,
        ),
        edit_cell(
            &dir.join("tables_quick.json"),
            "mean_us",
            |_| true,
            |v| v + 0.03,
        ),
    ];
    let out = repro()
        .args(["verify", "--golden-dir", dir_s])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "edited goldens must drift:\n{stderr}"
    );
    for key in &keys {
        assert!(
            stderr.contains(key.as_str()),
            "stderr must name {key}:\n{stderr}"
        );
    }
    assert!(!stderr.contains("verify: clean"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_golden_has_one_clean_cell_per_line() {
    // The line diff pairs cells by key, one cell per line; a hand-edit
    // that breaks that shape, or a blessed cell that records payload
    // corruption, fails here rather than in CI's verify step.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    for study in Study::ALL {
        let grid = study.name();
        let path = dir.join(format!("{}.json", study.report_name(true)));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {}: {e} (run `repro verify --bless`)",
                path.display()
            )
        });
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            text.ends_with("\n}\n"),
            "{grid}: report must end in \"}}\\n\""
        );
        assert_eq!(lines[0], "{", "{grid}");
        assert!(
            lines[1].starts_with(&format!("  \"name\": \"{grid}")),
            "{grid}"
        );
        assert_eq!(lines[2], "  \"cells\": {", "{grid}");
        assert_eq!(lines[lines.len() - 2], "  }", "{grid}");
        let cells = &lines[3..lines.len() - 2];
        assert!(!cells.is_empty(), "{grid} has no cells");
        for (i, line) in cells.iter().enumerate() {
            let last = i + 1 == cells.len();
            assert!(
                line.starts_with("    \"") && line.ends_with(if last { " }" } else { " }," }),
                "{grid}: line {} is not one whole cell: {line}",
                i + 4
            );
            // Only a cell with the TCP checksum off may show corruption
            // reaching the application: extras' controller-corruption
            // run exists to show it.
            let body = line.trim_end_matches(',');
            assert!(
                body.contains("\"verify_failures\": 0,")
                    || body.ends_with("\"verify_failures\": 0 }")
                    || (grid == "extras" && body.contains("/nocksum/")),
                "{grid}: blessed cell records payload corruption: {line}"
            );
        }
    }
    // One golden per study and nothing else: an orphan or a missing
    // golden fails here.
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .expect("list tests/golden")
        .map(|e| {
            e.expect("golden entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    found.sort();
    let mut want: Vec<String> = Study::ALL
        .iter()
        .map(|s| format!("{}.json", s.report_name(true)))
        .collect();
    want.sort();
    assert_eq!(found, want);
}

#[test]
fn invariants_check_each_golden_two_host_run_once() {
    // At `--quick` the gate checks exactly the runs the two-host
    // goldens pin: every distinct key, once, from the seed its golden
    // line names, which is where the study runs it.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut pinned = std::collections::BTreeSet::new();
    for study in [Study::Tables, Study::Faults, Study::Extras] {
        let path = dir.join(format!("{}.json", study.report_name(true)));
        let text = std::fs::read_to_string(&path).expect("read golden");
        let golden: Vec<(String, u64)> = text
            .lines()
            .filter_map(|l| {
                let (key, rest) = l.trim_start().strip_prefix('"')?.split_once('"')?;
                let seed = rest.strip_prefix(": { \"seed\": ")?.split(',').next()?;
                Some((key.to_string(), seed.parse().expect("a seed")))
            })
            .collect();
        let declared: Vec<(String, u64)> = study
            .cells(Scale::QUICK)
            .into_iter()
            .map(|(key, _)| {
                let seed = sweep::run_seed(&key);
                (key, seed)
            })
            .collect();
        assert_eq!(declared, golden, "{}", study.name());
        pinned.extend(
            golden
                .into_iter()
                .map(|(key, seed)| format!("{key} (seed {seed})")),
        );
    }
    let out = repro()
        .args(["invariants", "--quick", "--jobs", "2"])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let mut checked: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("invariants: ")?.split_once(": clean ("))
        .map(|(cell, _)| cell)
        .collect();
    checked.sort_unstable();
    // A key the two-host studies share names one run and one seed.
    assert!(pinned.iter().eq(checked.iter().copied()), "{stderr}");
    assert!(stderr.contains(&format!("invariants: {} cell(s)", pinned.len())));
    assert!(stderr.ends_with("invariants: all clean\n"), "{stderr}");
}

#[test]
fn verify_without_goldens_asks_for_bless() {
    let dir = tmp_golden_dir("missing");
    let st = repro()
        .args(["verify", "--golden-dir", dir.to_str().expect("utf8")])
        .status()
        .expect("run repro");
    assert_eq!(
        st.code(),
        Some(2),
        "missing goldens are a setup error, not a drift"
    );
}

/// A canonical report over cells `(key, mean_us)`.
fn report(cells: &[(&str, f64)]) -> String {
    canonical_report(
        "sample",
        cells.iter().map(|&(key, mean_us)| ReportCell {
            key,
            seed: 7,
            reps: 1,
            samples: 3,
            mean_us,
            stddev_us: 0.5,
            min_us: 1.0,
            max_us: 2.0,
            events: 40,
            sim_time_us: 100.0,
            verify_failures: 0,
            extras: &[],
        }),
    )
}

/// The cell line `report` writes for `(key, mean_us)`.
fn line(key: &str, mean_us: f64) -> Option<String> {
    let r = report(&[(key, mean_us)]);
    r.lines().nth(3).map(|l| l.trim_start().to_string())
}

#[test]
fn line_diff_of_equal_reports_is_empty() {
    let r = report(&[("a", 1.5), ("b", 2.5)]);
    assert_eq!(diff_report(&r, &r), []);
}

#[test]
fn line_diff_pairs_a_changed_cell_by_key() {
    let g = report(&[("a", 1.5), ("b", 2.5), ("c", 3.5)]);
    let l = report(&[("a", 1.5), ("b", 2.51), ("c", 3.5)]);
    assert_eq!(
        diff_report(&g, &l),
        [LineDiff {
            key: "b".into(),
            golden: line("b", 2.5),
            live: line("b", 2.51),
        }]
    );
}

#[test]
fn line_diff_reports_missing_and_extra_cells() {
    let g = report(&[("a", 1.5), ("b", 2.5)]);
    let l = report(&[("a", 1.5), ("c", 3.5)]);
    assert_eq!(
        diff_report(&g, &l),
        [
            LineDiff {
                key: "b".into(),
                golden: line("b", 2.5),
                live: None,
            },
            LineDiff {
                key: "c".into(),
                golden: None,
                live: line("c", 3.5),
            },
        ]
    );
    // An appended cell adds a comma to the previous last line; only
    // the new cell is drift.
    let l = report(&[("a", 1.5), ("b", 2.5), ("c", 3.5)]);
    let diffs = diff_report(&g, &l);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert_eq!(
        (diffs[0].key.as_str(), diffs[0].golden.is_none()),
        ("c", true)
    );
}

#[test]
fn line_diff_catches_reordered_cells() {
    let g = report(&[("a", 1.5), ("b", 2.5)]);
    let l = report(&[("b", 2.5), ("a", 1.5)]);
    let diffs = diff_report(&g, &l);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert_eq!(diffs[0].key, "", "same cells, different order");
    assert!(diffs[0]
        .golden
        .as_deref()
        .is_some_and(|g| g.starts_with("line 4: ")));
    assert!(diffs[0]
        .live
        .as_deref()
        .is_some_and(|l| l.contains("\\\"b\\\"")));
}

#[test]
fn line_diff_catches_a_trailing_newline() {
    let g = report(&[("a", 1.5)]);
    let l = g.trim_end().to_string();
    let diffs = diff_report(&g, &l);
    assert_eq!(
        diffs,
        [LineDiff {
            key: String::new(),
            golden: Some("line 6: \"}\\n\"".into()),
            live: Some("line 6: \"}\"".into()),
        }]
    );
    assert!(diffs[0].to_string().starts_with("(outside the cell lines)"));
}
