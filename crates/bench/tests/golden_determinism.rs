//! Determinism contract of the calendar-queue engine under the
//! parallel sweep runner: worker count must never leak into results.
//!
//! `repro verify` passes against the blessed goldens at `--jobs 1`
//! and `--jobs 4`. Verify compares bytes, so the live canonical
//! reports of all six golden grids (tables, faults, and the dc,
//! tails, hedge and cc studies) are byte-identical to the goldens at
//! both worker counts, and therefore to each other.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn goldens_byte_identical_at_one_and_four_workers() {
    let goldens = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let goldens_s = goldens.to_str().expect("utf8 golden path");
    for jobs in ["1", "4"] {
        let st = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["verify", "--jobs", jobs, "--golden-dir", goldens_s])
            .status()
            .expect("run repro");
        assert!(st.success(), "verify --jobs {jobs} failed: {st:?}");
    }
}
