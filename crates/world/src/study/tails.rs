//! The tail-at-scale fan-out study.
//!
//! The paper's tables price one round trip between two hosts; modern
//! datacenter services price the *slowest of N*. A client that fans a
//! logical request out to N servers and waits for every reply turns a
//! rare per-server hiccup into a common per-request one: if a single
//! sub-request lands in the slow tail with probability `p`, the
//! logical request does with probability `1 - (1 - p)^N`. At N = 64
//! a 1-in-100 hiccup hits nearly half of all requests — the p99
//! becomes the p50's problem ("Deconstructing the Tail at Scale
//! Effect", PAPERS.md).
//!
//! Each study cell runs the fan-out/wait-for-all world under one
//! faultkit regime, with or without background churn traffic, and
//! reduces the per-request completion times (the max over the N
//! sub-request RTTs) to p50 / p99 / p999 plus the
//! **tail-amplification ratio**: p99 at fan-out N divided by p99 at
//! fan-out 1 in the same regime. The paper-predicted signature is
//! amplification growing with N while the median stays near flat.
//!
//! Percentile hygiene matters more here than anywhere else in the
//! repo, so the rows read the guarded [`Summary`]: p999 is `None`
//! (rendered `-`, JSON `null`) below `simcap`'s minimum sample floor,
//! and clamped samples are counted, never silently folded into the
//! max.

use faultkit::{FaultSchedule, GilbertElliott};
use latency_core::obs::{Samples, Summary};
use latency_core::recovery::Scenario;

use super::{amplify, cell};

/// The study's fault regimes, clean baseline first.
///
/// Order is part of the report: tables and canonical JSON render in
/// this order. Names are stable sweep-key components.
#[must_use]
pub(crate) fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "clean",
            blurb: "no injected faults (tail from contention alone)",
            faults: FaultSchedule::default(),
        },
        Scenario {
            name: "burst-loss",
            blurb: "rare short cell-loss bursts (GE light) on server uplinks",
            faults: FaultSchedule::default().with_atm_loss(GilbertElliott::light_bursts()),
        },
        Scenario {
            name: "fifo-overrun",
            blurb: "8-cell server RX FIFO + 12-cell drain stalls",
            faults: FaultSchedule::default()
                .with_rx_fifo_cells(8)
                .with_rx_contention(0.002, 12),
        },
        Scenario {
            name: "mbuf-exhaustion",
            blurb: "server pools sized below the incast burst: ENOBUFS sheds",
            faults: FaultSchedule::default().with_mbuf_limit(12),
        },
    ]
}

/// One row of the tails table: a scenario × fan-out × churn cell.
#[derive(Clone, Debug)]
pub(crate) struct TailsRow {
    /// Scenario name.
    pub scenario: String,
    /// Fan-out width N (sub-requests per logical request).
    pub fanout: usize,
    /// Whether background churn traffic shared the fabric.
    pub churn: bool,
    /// Client hosts whose fan-out round was aborted by the retransmit
    /// limit (their remaining rounds are missing from the samples).
    pub aborted: u64,
    /// The logical-request completion times.
    pub latency: Summary,
    /// `p50 / p50(fan-out 1)` within the same scenario × churn group;
    /// `None` until [`join_baselines`] runs or when the baseline is
    /// missing or degenerate.
    pub amp_p50: Option<f64>,
    /// `p99 / p99(fan-out 1)` — the tail-amplification ratio.
    pub amp_p99: Option<f64>,
}

/// Reduces one cell's completion times to a row.
///
/// Amplification columns start `None`; call [`join_baselines`] once
/// every row of the study exists, so each cell can find its fan-out-1
/// baseline.
#[must_use]
pub(crate) fn reduce(
    scenario: &str,
    fanout: usize,
    churn: bool,
    completions: &Samples,
    aborted: u64,
) -> TailsRow {
    TailsRow {
        scenario: scenario.to_string(),
        fanout,
        churn,
        aborted,
        latency: completions.summary(),
        amp_p50: None,
        amp_p99: None,
    }
}

/// Fills the amplification columns through the study's one
/// amplification join: each row over the fan-out-1 row of its
/// scenario × churn group.
pub(crate) fn join_baselines(rows: &mut [TailsRow]) {
    let amps = amplify(
        rows,
        |r| &r.latency,
        |r| (r.scenario.clone(), r.churn),
        |r| r.fanout == 1,
    );
    for (row, [p50, p99]) in rows.iter_mut().zip(amps) {
        row.amp_p50 = p50;
        row.amp_p99 = p99;
    }
}

/// Formats the study as a table, one row per scenario × fan-out ×
/// churn cell, in the given order.
#[must_use]
pub(crate) fn format_table(rows: &[TailsRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "tail at scale (fan-out/wait-for-all RPC over the switched ATM\n\
         fabric): completion time = max over N parallel sub-requests\n",
    );
    let _ = writeln!(
        out,
        "{:<16} {:>4} {:>6} | {:>9} {:>9} {:>9} {:>9} {:>10} | {:>8} {:>8} | {:>5}",
        "scenario",
        "N",
        "churn",
        "mean(us)",
        "p50(us)",
        "p99(us)",
        "p999(us)",
        "worst(us)",
        "amp(p50)",
        "amp(p99)",
        "n"
    );
    for r in rows {
        let l = &r.latency;
        let sampled = l.samples > 0;
        let us = |v: f64, width| cell(sampled.then_some(v), width, 0);
        let _ = writeln!(
            out,
            "{:<16} {:>4} {:>6} | {} {} {} {} {} | {} {} | {:>4}{}",
            r.scenario,
            r.fanout,
            if r.churn { "on" } else { "off" },
            us(l.mean_us, 9),
            us(l.p50_us, 9),
            us(l.p99_us, 9),
            cell(l.p999_us, 9, 0),
            us(l.max_us, 10),
            cell(r.amp_p50, 8, 2),
            cell(r.amp_p99, 8, 2),
            l.samples,
            if !sampled || r.aborted > 0 { "!" } else { "" },
        );
    }
    out.push_str(
        "(p999 '-' = under the 1000-sample nearest-rank floor; '!' =\n\
         some client rounds hit the retransmit-limit abort; amp = ratio\n\
         to the fan-out-1 cell of the same scenario x churn group.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_core::ObsMode;
    use simkit::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    fn pool(ts: &[SimTime]) -> Samples {
        let mut s = Samples::new(ObsMode::Exact);
        s.extend_from(ts);
        s
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
        assert!(names.contains(&"burst-loss"));
    }

    #[test]
    fn reduce_refuses_fake_p999_on_small_cells() {
        let row = reduce("clean", 4, false, &pool(&[t(100), t(110), t(500)]), 0);
        assert_eq!(row.latency.samples, 3);
        assert_eq!(row.latency.p999_us, None, "3 samples cannot estimate p999");
        assert_eq!(row.latency.saturated, 0);
        assert!(row.latency.p99_us >= row.latency.p50_us);
        assert!((row.latency.max_us - 500.0).abs() < 1e-9);
    }

    #[test]
    fn reduce_reports_p999_above_the_sample_floor() {
        let samples: Vec<SimTime> = (1..=2000).map(t).collect();
        let row = reduce("clean", 16, true, &pool(&samples), 0);
        assert_eq!(row.latency.samples, 2000);
        let p999 = row.latency.p999_us.expect("2000 samples clear the floor");
        assert!(
            p999 < row.latency.max_us,
            "p999 {p999} must not collapse to max"
        );
    }

    #[test]
    fn amplify_divides_by_the_matching_fanout_1_cell() {
        let mut rows = vec![
            reduce("clean", 1, false, &pool(&[t(100), t(100), t(100)]), 0),
            reduce("clean", 16, false, &pool(&[t(100), t(120), t(300)]), 0),
            // Different churn setting: must NOT share the baseline.
            reduce("clean", 16, true, &pool(&[t(400), t(400), t(400)]), 0),
            // Different scenario: must NOT share the baseline either.
            reduce("burst-loss", 16, false, &pool(&[t(400)]), 0),
            // Unsampled, though its group has a baseline.
            reduce("clean", 64, false, &pool(&[]), 1),
        ];
        join_baselines(&mut rows);
        assert_eq!(rows[0].amp_p99, Some(1.0), "baseline divides itself");
        assert_eq!(rows[0].amp_p50, Some(1.0));
        assert!((rows[1].amp_p99.unwrap() - 3.0).abs() < 1e-9);
        assert!((rows[1].amp_p50.unwrap() - 1.2).abs() < 1e-9);
        assert_eq!(rows[2].amp_p99, None, "churn group has no fan-out-1 cell");
        assert_eq!(rows[2].amp_p50, None);
        assert_eq!(rows[3].amp_p99, None, "scenario has no fan-out-1 cell");
        assert_eq!(rows[4].amp_p50, None, "an unsampled row gets no ratio");
        assert_eq!(rows[4].amp_p99, None);
    }

    #[test]
    fn amplify_skips_empty_and_degenerate_baselines() {
        let mut rows = vec![
            reduce("clean", 1, false, &pool(&[]), 1),
            reduce("clean", 4, false, &pool(&[t(10)]), 0),
            reduce("burst-loss", 1, false, &pool(&[SimTime::ZERO]), 0),
            reduce("burst-loss", 4, false, &pool(&[t(10)]), 0),
        ];
        join_baselines(&mut rows);
        assert_eq!(rows[0].amp_p99, None, "an empty row has no ratio");
        assert_eq!(rows[1].amp_p99, None, "empty baseline yields no ratio");
        assert_eq!(
            rows[3].amp_p99, None,
            "zero-valued baseline percentile yields no ratio"
        );
        assert_eq!(rows[3].amp_p50, None);
    }

    #[test]
    fn table_renders_sampled_empty_and_unsampled_rows() {
        let mut rows = vec![
            reduce("clean", 1, false, &pool(&[t(100), t(110)]), 0),
            reduce("clean", 64, true, &pool(&[t(100), t(900)]), 2),
            reduce("mbuf-exhaustion", 64, true, &pool(&[]), 0),
        ];
        join_baselines(&mut rows);
        let text = format_table(&rows);
        assert!(text.contains("scenario"));
        assert!(text.contains("amp(p99)"));
        let lines: Vec<&str> = text.lines().collect();
        // A sampled row: whole-µs columns, p999 and a missing baseline
        // as '-', no abort flag.
        let sampled = format!(
            "{:<16} {:>4} {:>6} | {:>9} {:>9} {:>9} {:>9} {:>10} | {:>8} {:>8} | {:>4}",
            "clean", 1, "off", 105, 100, 110, "-", 110, "1.00", "1.00", 2
        );
        assert!(lines.contains(&sampled.as_str()), "{text}");
        // Aborted rows are flagged.
        assert!(lines
            .iter()
            .any(|l| l.starts_with("clean") && l.ends_with("2!")));
        // An unsampled row is all '-' and flagged even without an
        // abort.
        let unsampled = format!(
            "{:<16} {:>4} {:>6} | {:>9} {:>9} {:>9} {:>9} {:>10} | {:>8} {:>8} | {:>4}!",
            "mbuf-exhaustion", 64, "on", "-", "-", "-", "-", "-", "-", "-", 0
        );
        assert!(lines.contains(&unsampled.as_str()), "{text}");
    }
}
