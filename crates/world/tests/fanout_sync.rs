//! Property tests for the fan-out/wait-for-all invariant: a logical
//! request completes exactly when its slowest sub-request lands, for
//! every fan-out width, seed, and churn setting — and the study report
//! built on top is byte-identical at any `--jobs` value.

use simcap::RecorderMode;
use simkit::SimTime;
use world::dc::run_dc_world;
use world::{ChurnTraffic, Scale, Study, Topology, TrafficSchedule};

/// Sweep fan-out widths x seeds x churn on/off and check, round by
/// round, that every recorded completion equals the max of that
/// round's sub-request RTTs across the host's connections.
#[test]
fn completion_is_max_of_subrequest_rtts_across_widths_and_seeds() {
    for &width in &[1usize, 2, 3, 5, 8] {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            for churn in [false, true] {
                let mut t = Topology::fanout(2, width);
                t.iterations = 3;
                t.warmup = 1;
                if churn {
                    t.churn = Some(ChurnTraffic::background());
                }
                let w = run_dc_world(&t, TrafficSchedule::staggered(), seed);
                for h in 0..t.clients {
                    let ctl = w.hosts[h].fanout.as_ref().expect("fan-out client");
                    assert!(
                        !ctl.aborted,
                        "width {width} seed {seed} churn {churn}: abort"
                    );
                    assert_eq!(
                        ctl.completions.len(),
                        t.iterations as usize,
                        "width {width} seed {seed} churn {churn}: measured rounds"
                    );
                    for (r, &done) in ctl.completions.iter().enumerate() {
                        let slowest = (0..width)
                            .map(|j| w.hosts[h].conns[j].rtts[r])
                            .max()
                            .expect("at least one sub-request");
                        assert_eq!(
                            done, slowest,
                            "width {width} seed {seed} churn {churn} host {h} round {r}"
                        );
                        assert!(done > SimTime::ZERO);
                    }
                }
            }
        }
    }
}

/// Runs the quick tails grid at 1, 2 and 4 workers and checks the
/// table and canonical JSON never change.
fn assert_report_is_jobs_invariant(mode: RecorderMode) {
    let one = Study::Tails.run(Scale::QUICK, 1, mode);
    for jobs in [2usize, 4] {
        let many = Study::Tails.run(Scale::QUICK, jobs, mode);
        assert_eq!(one.json, many.json, "jobs {jobs} changed the report bytes");
        assert_eq!(one.sections, many.sections, "jobs {jobs} changed the table");
    }
}

/// The quick tails grid renders to the same bytes no matter how many
/// worker threads run it — the CLI's `--jobs` flag must never leak
/// into the report.
#[test]
fn tails_quick_report_is_byte_identical_across_jobs() {
    assert_report_is_jobs_invariant(RecorderMode::Exact);
}

/// The same identity holds in sketch mode: per-shard sketches merged
/// in grid order are integer-exact, so `--sketch --jobs N` renders
/// the same bytes as `--sketch --jobs 1`.
#[test]
fn tails_quick_sketch_report_is_byte_identical_across_jobs() {
    assert_report_is_jobs_invariant(RecorderMode::Sketch);
}
