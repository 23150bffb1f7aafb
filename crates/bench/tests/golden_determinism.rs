//! Determinism contract of the calendar-queue engine under the
//! parallel sweep runner: worker count must never leak into results.
//!
//! - `repro verify` passes against the blessed goldens at `--jobs 1`
//!   and `--jobs 4` — the reworked engine reproduces the pre-overhaul
//!   numbers cell for cell;
//! - the live canonical JSON of all six golden grids (tables, faults,
//!   and the dc, tails, hedge and cc studies) is **byte-identical** to
//!   the blessed goldens at both worker counts (and therefore
//!   byte-identical between them).

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// The repo's blessed goldens, independent of the test's working
/// directory.
fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

#[test]
fn goldens_byte_identical_at_one_and_four_workers() {
    let goldens = golden_dir();
    let goldens_s = goldens.to_str().expect("utf8 golden path");
    for jobs in ["1", "4"] {
        let out = std::env::temp_dir().join(format!("repro-determ-j{jobs}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        // Exit 0 = the comparator found no drift against the goldens.
        let st = repro()
            .args([
                "verify",
                "--jobs",
                jobs,
                "--golden-dir",
                goldens_s,
                "--dump-live",
                "--out-dir",
                out.to_str().expect("utf8 out path"),
            ])
            .status()
            .expect("run repro");
        assert!(st.success(), "verify --jobs {jobs} failed: {st:?}");
        // Stronger than the comparator: the live canonical JSON must
        // match the blessed bytes exactly, at every worker count.
        for grid in ["tables", "faults", "dc", "tails", "hedge", "cc"] {
            let live =
                std::fs::read(out.join(format!("{grid}_quick_live.json"))).expect("read live dump");
            let blessed =
                std::fs::read(goldens.join(format!("{grid}_quick.json"))).expect("read golden");
            assert!(!live.is_empty());
            assert_eq!(
                live, blessed,
                "{grid} canonical JSON at --jobs {jobs} differs from the blessed golden"
            );
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
