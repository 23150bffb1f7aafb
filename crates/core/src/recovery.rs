//! The loss-recovery latency study.
//!
//! The paper measures the *clean-path* round trip; this study asks
//! the robustness question next to it: **what does a lost, reordered,
//! duplicated or delayed cell cost, in units of that clean round
//! trip?** Each scenario attaches one faultkit schedule to the RPC
//! echo benchmark and compares the resulting RTT distribution — mean
//! *and* tail, via the same nearest-rank percentiles the capture
//! analyzer uses — against the clean baseline.
//!
//! The interesting structure is in the tail: a Gilbert–Elliott burst
//! that eats a whole cell train costs a 500 ms retransmission timeout
//! (hundreds of clean RTTs on ATM), while a short burst that leaves
//! three later segments standing is recovered by fast retransmit in a
//! handful of RTTs. Mean alone hides that; p99 shows it.

use faultkit::{FaultSchedule, GilbertElliott};
use simcap::{Recorder, Summary};

use crate::experiment::{Experiment, NetKind, RunResult};

/// A named fault regime of the study.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Stable name — part of the sweep cell key, so renaming a
    /// scenario re-seeds it.
    pub name: &'static str,
    /// What the schedule injects.
    pub blurb: &'static str,
    /// The schedule itself.
    pub faults: FaultSchedule,
}

/// The study's scenario set, clean baseline first.
///
/// Order is part of the report: tables render in this order.
#[must_use]
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "clean",
            blurb: "no faults (the paper's configuration)",
            faults: FaultSchedule::default(),
        },
        Scenario {
            name: "light-bursts",
            blurb: "rare short cell-loss bursts (GE light)",
            faults: FaultSchedule::default().with_atm_loss(GilbertElliott::light_bursts()),
        },
        Scenario {
            name: "heavy-bursts",
            blurb: "sustained congestion loss (GE heavy)",
            faults: FaultSchedule::default().with_atm_loss(GilbertElliott::heavy_bursts()),
        },
        // AAL3/4 has no resequencing: any cell displaced inside a
        // train invalidates that datagram, so reorder/duplicate/jitter
        // probabilities are per *cell* and the per-train kill rate is
        // ~6% at 1400 B (30 cells) to ~30% at 8000 B (176 cells) —
        // frequent enough to measure, rare enough that twelve
        // consecutive losses (an abort) stay negligible.
        Scenario {
            name: "reorder",
            blurb: "0.2% adjacent cell swaps per train",
            faults: FaultSchedule::default().with_reorder(0.002),
        },
        Scenario {
            name: "duplicate",
            blurb: "0.2% cell duplication",
            faults: FaultSchedule::default().with_duplicate(0.002),
        },
        Scenario {
            name: "jitter",
            blurb: "0.2% cells delayed up to 10 us (3+ cell slots)",
            faults: FaultSchedule::default().with_jitter(0.002, 10_000),
        },
        Scenario {
            name: "fifo-overrun",
            blurb: "8-cell RX FIFO + 12-cell drain stalls (contention)",
            faults: FaultSchedule::default()
                .with_rx_fifo_cells(8)
                .with_rx_contention(0.002, 12),
        },
        Scenario {
            name: "mbuf-squeeze",
            blurb: "pool too small for steady state: ENOBUFS sheds, clean abort",
            faults: FaultSchedule::default().with_mbuf_limit(2),
        },
    ]
}

/// The scenario named `name`, if the study defines it.
#[must_use]
pub fn scenario(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

/// The RPC experiment one study cell runs.
#[must_use]
pub fn experiment(sc: &Scenario, size: usize, iterations: u64) -> Experiment {
    let mut e = Experiment::rpc(NetKind::Atm, size);
    e.iterations = iterations;
    e.warmup = 16;
    e.faults = sc.faults;
    e
}

/// One row of the recovery table: a scenario × size cell reduced
/// against the clean baseline of the same size.
#[derive(Clone, Debug)]
pub struct RecoveryRow {
    /// Scenario name.
    pub scenario: String,
    /// Message size in bytes.
    pub size: usize,
    /// Whether the retransmit limit aborted the run.
    pub aborted: bool,
    /// The measured RTTs, one per completed iteration (an aborted run
    /// has fewer).
    pub latency: Summary,
    /// Mean cost in clean round trips (`mean / clean_mean`).
    pub mean_rtts: f64,
    /// Tail cost in clean round trips (`p99 / clean_mean`).
    pub p99_rtts: f64,
    /// TCP retransmissions (both hosts).
    pub rexmits: u64,
    /// Retransmission-timer fires (both hosts).
    pub rto_fires: u64,
    /// Cells lost on the links.
    pub link_lost: u64,
    /// Cells shed by RX FIFO overrun.
    pub overrun: u64,
    /// Datagrams shed for mbuf exhaustion.
    pub enobufs: u64,
    /// End-to-end payload verification failures (must be zero: faults
    /// cost time, never integrity).
    pub verify_failures: u64,
}

/// Reduces one faulted run against the clean-mean baseline.
///
/// `clean_mean_us` is the mean RTT of the *clean* scenario at the
/// same size; costs are expressed in that unit so "a burst costs ~840
/// clean round trips at p99" reads directly off the table.
#[must_use]
pub fn reduce(sc_name: &str, size: usize, r: &RunResult, clean_mean_us: f64) -> RecoveryRow {
    let latency = Recorder::from_times(&r.rtts).summary();
    debug_assert_eq!(
        latency.saturated, 0,
        "RTT sample(s) overflowed i64 nanoseconds and were clamped to \
         i64::MAX — the distribution's tail is a lie"
    );
    let unit = if clean_mean_us > 0.0 {
        clean_mean_us
    } else {
        f64::NAN
    };
    RecoveryRow {
        scenario: sc_name.to_string(),
        size,
        aborted: r.aborted,
        latency,
        mean_rtts: latency.mean_us / unit,
        p99_rtts: latency.p99_us / unit,
        rexmits: r.client_tcp.rexmits + r.server_tcp.rexmits,
        rto_fires: r.client_kernel.rto_fires + r.server_kernel.rto_fires,
        link_lost: r.client_nic.link_lost + r.server_nic.link_lost,
        overrun: r.client_nic.rx_overflow_drops + r.server_nic.rx_overflow_drops,
        enobufs: r.enobufs.0 + r.enobufs.1,
        verify_failures: r.verify_failures,
    }
}

/// Formats the study as a table, one row per scenario × size.
#[must_use]
pub fn format_table(rows: &[RecoveryRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "loss-recovery latency (RPC over ATM): RTT distribution under\n\
         scheduled faults, cost expressed in clean round trips\n",
    );
    let _ = writeln!(
        out,
        "{:<14} {:>6} | {:>9} {:>9} {:>9} {:>10} | {:>8} {:>8} | {:>6} {:>5} {:>7}",
        "scenario",
        "size",
        "mean(us)",
        "p50(us)",
        "p99(us)",
        "worst(us)",
        "mean/rtt",
        "p99/rtt",
        "rexmit",
        "rto",
        "iters"
    );
    for r in rows {
        if r.latency.samples == 0 {
            // Aborted before the first measured iteration: there is no
            // distribution to print, only the abort evidence.
            let _ = writeln!(
                out,
                "{:<14} {:>6} | {:>9} {:>9} {:>9} {:>10} | {:>8} {:>8} | {:>6} {:>5} {:>6}!",
                r.scenario, r.size, "-", "-", "-", "-", "-", "-", r.rexmits, r.rto_fires, 0,
            );
            continue;
        }
        let _ = writeln!(
            out,
            "{:<14} {:>6} | {:>9.0} {:>9.0} {:>9.0} {:>10.0} | {:>8.2} {:>8.2} | {:>6} {:>5} {:>6}{}",
            r.scenario,
            r.size,
            r.latency.mean_us,
            r.latency.p50_us,
            r.latency.p99_us,
            r.latency.max_us,
            r.mean_rtts,
            r.p99_rtts,
            r.rexmits,
            r.rto_fires,
            r.latency.samples,
            if r.aborted { "!" } else { "" },
        );
    }
    out.push_str(
        "('!' marks a run the retransmit limit aborted cleanly; a p99\n\
         near 1 clean RTT means recovery hid in the pipeline, hundreds\n\
         mean a retransmission timeout was paid.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(sc_name: &str, size: usize, iters: u64) -> RunResult {
        let sc = scenario(sc_name).expect("scenario");
        experiment(&sc, size, iters).plan().seed(11).execute()
    }

    #[test]
    fn scenario_names_are_unique_and_clean_first() {
        let all = scenarios();
        assert_eq!(all[0].name, "clean");
        assert!(all[0].faults.is_clean());
        let mut names: Vec<_> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn clean_scenario_matches_the_baseline_experiment() {
        // Attaching a clean schedule must not perturb the paper's
        // numbers: the clean scenario runs the plain experiment.
        let base = {
            let mut e = Experiment::rpc(NetKind::Atm, 200);
            e.iterations = 25;
            e.warmup = 16;
            e.plan().seed(3).execute()
        };
        let sc = scenario("clean").expect("clean");
        let r = experiment(&sc, 200, 25).plan().seed(3).execute();
        assert_eq!(r.rtts, base.rtts);
        assert_eq!(r.events, base.events);
    }

    #[test]
    fn light_bursts_cost_time_but_never_integrity() {
        let clean = quick("clean", 1400, 60);
        let r = quick("light-bursts", 1400, 60);
        assert_eq!(r.verify_failures, 0, "faults never corrupt payload");
        assert!(r.client_nic.link_lost + r.server_nic.link_lost > 0);
        let row = reduce("light-bursts", 1400, &r, clean.mean_rtt_us());
        assert!(row.rexmits > 0, "losses forced retransmissions: {row:?}");
        // The tail pays for recovery; the cheap iterations stay clean.
        assert!(
            row.p99_rtts > row.mean_rtts * 0.99,
            "p99 {} vs mean {}",
            row.p99_rtts,
            row.mean_rtts
        );
        assert!(row.latency.p50_us > 0.0 && row.latency.p99_us >= row.latency.p50_us);
    }

    #[test]
    fn reorder_within_a_train_is_absorbed_by_resequencing() {
        let clean = quick("clean", 1400, 40);
        let r = quick("reorder", 1400, 40);
        assert_eq!(r.verify_failures, 0);
        let row = reduce("reorder", 1400, &r, clean.mean_rtt_us());
        // Cell-level swaps inside one AAL3/4 train break that
        // datagram's CRC/sequence at worst — TCP resequences; the
        // median stays within a few clean RTTs.
        assert!(
            row.latency.samples == 40,
            "all iterations completed: {row:?}"
        );
        assert!(row.latency.p50_us < clean.mean_rtt_us() * 4.0, "{row:?}");
    }

    #[test]
    fn fifo_overrun_sheds_cells_and_recovers() {
        let r = quick("fifo-overrun", 8000, 40);
        assert_eq!(r.verify_failures, 0);
        let drops = r.client_nic.rx_overflow_drops + r.server_nic.rx_overflow_drops;
        assert!(drops > 0, "8-cell FIFO under stalls must overrun: {r:?}");
    }

    #[test]
    fn mbuf_squeeze_backpressures_then_aborts_cleanly() {
        // The RPC workload is lockstep, so a pool below its working
        // set refuses the same packet's every retry: the right outcome
        // is ENOBUFS shedding, retransmit backoff, and a typed abort —
        // never a hang, never corruption.
        let r = quick("mbuf-squeeze", 8000, 40);
        assert_eq!(r.verify_failures, 0);
        assert!(
            r.enobufs.0 + r.enobufs.1 > 0,
            "a 2-mbuf pool must refuse RX allocations: {r:?}"
        );
        assert!(r.aborted, "starvation ends in a clean abort: {r:?}");
        assert!(
            r.client_kernel.rto_fires + r.server_kernel.rto_fires > 0,
            "the abort came from the retransmit limit: {r:?}"
        );
        assert!(r.events < 10_000, "the run terminated promptly: {r:?}");
    }

    #[test]
    fn table_renders_every_row() {
        let clean = quick("clean", 200, 20);
        let row = reduce("clean", 200, &clean, clean.mean_rtt_us());
        let text = format_table(&[row]);
        assert!(text.contains("clean"));
        assert!(text.contains("mean/rtt"));
    }
}
