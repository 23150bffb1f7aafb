//! The golden check: a perturbed cost constant must show up in the
//! line diff, and a clean rerun must not.
//!
//! This is the library half of `repro verify`, driven over a
//! miniature grid so the demonstration stays fast. The CLI half (exit
//! codes, `--bless`, the shape of every blessed golden) lives in
//! `crates/bench/tests/verify_cli.rs`.

use latency_core::{Experiment, NetKind};
use oracle::diff_report;
use sweep::{Sweep, SweepResults};

/// A three-cell grid; `perturb_us` is added to the process-wakeup
/// cost, a constant every RPC iteration pays twice (once per host),
/// so any nonzero value must move every cell's mean.
fn grid(perturb_us: f64) -> SweepResults {
    let mut sw = Sweep::new("golden-check");
    for &size in &[200usize, 1400, 8000] {
        let mut e = Experiment::rpc(NetKind::Atm, size);
        e.iterations = 30;
        e.warmup = 4;
        e.costs.wakeup_us += perturb_us;
        sw.ensure(format!("rpc/atm/{size}/base/i30r1"), e, 1);
    }
    sw.run(1)
}

#[test]
fn clean_rerun_has_no_drift() {
    let diffs = diff_report(&grid(0.0).canonical_json(), &grid(0.0).canonical_json());
    assert!(
        diffs.is_empty(),
        "identical deterministic runs must verify clean"
    );
}

#[test]
fn perturbed_cost_constant_is_caught() {
    let diffs = diff_report(&grid(0.0).canonical_json(), &grid(1.0).canonical_json());
    // The single-segment cells pay the wakeup serially on both hosts,
    // so their lines change. (At 8000 bytes the wakeup hides under the
    // second segment's driver/IP processing — receive pipelining keeps
    // it off the critical path, so that cell may legitimately match.)
    for &size in &[200usize, 1400] {
        let key = format!("rpc/atm/{size}/base/i30r1");
        let d = diffs.iter().find(|d| d.key == key);
        let d = d.unwrap_or_else(|| panic!("expected a line diff for {key}: {diffs:?}"));
        assert!(
            d.golden.is_some() && d.live.is_some(),
            "{key} changed, not moved"
        );
    }
}
