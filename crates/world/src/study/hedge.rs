//! The tail-tolerance (`repro hedge`) study.
//!
//! The tails study (see [`super::tails`]) establishes the problem:
//! fan-out turns rare per-server hiccups into common per-request
//! stalls. This study prices the *mitigations* from "The Tail at
//! Scale" (PAPERS.md) against each other on the same fan-out-16
//! world: request deadlines, budgeted application-level retries,
//! hedged requests to replica servers, and partial (`first K of N`)
//! fan-out — each under the same deterministic fault regimes.
//!
//! Every mitigation has a cost column, not just a latency column:
//! hedges won vs. wasted, retries issued vs. suppressed by the token
//! bucket, requests that traded completeness for the deadline, and
//! stragglers cancelled past the quorum. A mitigation that "wins" the
//! p99 while wasting most of its hedges or starving its retry budget
//! is visible as such — the study reports the trade, not a verdict.

use faultkit::{FaultSchedule, FlapSchedule, GilbertElliott, PauseSchedule};
use latency_core::obs::{Samples, Summary};
use latency_core::recovery::Scenario;
use simkit::SimTime;

use super::{amplify, cell};
use crate::topology::{HedgePolicy, RetryPolicy, TailPolicy};

/// The study's fault regimes, clean baseline first.
///
/// Order is part of the report. The pause and flap schedules are pure
/// time functions (no RNG): their windows land identically in every
/// cell, so mitigation columns differ only by the mitigation.
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
            name: "host-pause",
            blurb: "servers stall 3 ms every 25 ms (GC-style pause windows)",
            faults: FaultSchedule::default().with_host_pause(PauseSchedule::new(
                SimTime::from_ms(1),
                SimTime::from_ms(25),
                SimTime::from_ms(3),
            )),
        },
        Scenario {
            name: "link-flap",
            blurb: "server uplinks drop everything 2 ms every 30 ms",
            faults: FaultSchedule::default().with_link_flap(FlapSchedule::new(
                SimTime::from_us(500),
                SimTime::from_ms(30),
                SimTime::from_ms(2),
            )),
        },
    ]
}

/// One mitigation column of the study, armed on the fan-out world by
/// [`Mitigation::policy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mitigation {
    /// Classic wait-for-all: the tails-study baseline.
    None,
    /// A 10 ms request deadline; stragglers cancelled, the outcome
    /// typed `DeadlineExceeded`.
    Deadline,
    /// Budgeted application-level retries (exponential backoff,
    /// key-derived jitter, token-bucket budget).
    Retry,
    /// Hedged requests: reissue the slowest outstanding sub-request
    /// to a replica after the running-p95 delay, take the first reply.
    Hedge,
    /// Hedging plus partial fan-out: the request completes at the
    /// K-th fastest slot (K = N - 2) instead of the slowest.
    HedgeQuorum,
}

/// Every mitigation, in report order (baseline first).
pub(crate) const MITIGATIONS: [Mitigation; 5] = [
    Mitigation::None,
    Mitigation::Deadline,
    Mitigation::Retry,
    Mitigation::Hedge,
    Mitigation::HedgeQuorum,
];

impl Mitigation {
    /// Stable sweep-key component.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Mitigation::None => "none",
            Mitigation::Deadline => "deadline",
            Mitigation::Retry => "retry",
            Mitigation::Hedge => "hedge",
            Mitigation::HedgeQuorum => "hedge-kofn",
        }
    }

    /// The world's [`TailPolicy`] for this mitigation at fan-out
    /// `width`; the baseline is the default, wait-for-all policy.
    #[must_use]
    pub fn policy(self, width: usize) -> TailPolicy {
        match self {
            Mitigation::None => TailPolicy::default(),
            Mitigation::Deadline => TailPolicy {
                deadline: Some(SimTime::from_ms(10)),
                ..TailPolicy::default()
            },
            Mitigation::Retry => TailPolicy {
                retry: Some(RetryPolicy::default()),
                ..TailPolicy::default()
            },
            Mitigation::Hedge => TailPolicy {
                hedge: Some(HedgePolicy::default()),
                ..TailPolicy::default()
            },
            Mitigation::HedgeQuorum => TailPolicy {
                hedge: Some(HedgePolicy::default()),
                quorum: width.saturating_sub(2).max(1),
                ..TailPolicy::default()
            },
        }
    }
}

/// Mitigation-cost counters carried next to a cell's latency columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MitigationCost {
    /// Hedged requests issued.
    pub hedges_issued: u64,
    /// Hedges whose replica reply won the slot.
    pub hedges_won: u64,
    /// Hedges beaten by their own primary — pure extra load.
    pub hedges_wasted: u64,
    /// Application-level retries written.
    pub retries_issued: u64,
    /// Retries suppressed by an empty budget bucket.
    pub budget_exhausted: u64,
    /// Logical requests that recorded `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Sub-request results discarded as stragglers.
    pub cancelled: u64,
}

impl std::ops::AddAssign for MitigationCost {
    /// Field-wise sum. Destructures exhaustively, so a new counter
    /// fails to compile here until it is pooled too.
    fn add_assign(&mut self, o: MitigationCost) {
        let MitigationCost {
            hedges_issued,
            hedges_won,
            hedges_wasted,
            retries_issued,
            budget_exhausted,
            deadline_exceeded,
            cancelled,
        } = o;
        self.hedges_issued += hedges_issued;
        self.hedges_won += hedges_won;
        self.hedges_wasted += hedges_wasted;
        self.retries_issued += retries_issued;
        self.budget_exhausted += budget_exhausted;
        self.deadline_exceeded += deadline_exceeded;
        self.cancelled += cancelled;
    }
}

/// One row of the hedge table: a scenario × mitigation cell at fixed
/// fan-out.
#[derive(Clone, Debug)]
pub(crate) struct HedgeRow {
    /// Scenario name.
    pub scenario: String,
    /// Mitigation tag.
    pub mitigation: String,
    /// Fan-out width N.
    pub fanout: usize,
    /// Client hosts aborted by the retransmit limit.
    pub aborted: u64,
    /// The logical-request completion times.
    pub latency: Summary,
    /// `p99 / p99(no mitigation)` within the same scenario — below
    /// 1.0 means the mitigation cut the tail. `None` until
    /// [`join_baselines`] runs or when the baseline is missing.
    pub amp_p99: Option<f64>,
    /// The mitigation's cost counters.
    pub cost: MitigationCost,
}

/// Reduces one cell's completion times plus its cost counters to a
/// row. Call [`join_baselines`] once every row exists.
#[must_use]
pub(crate) fn reduce(
    scenario: &str,
    mitigation: &str,
    fanout: usize,
    completions: &Samples,
    aborted: u64,
    cost: MitigationCost,
) -> HedgeRow {
    HedgeRow {
        scenario: scenario.to_string(),
        mitigation: mitigation.to_string(),
        fanout,
        aborted,
        latency: completions.summary(),
        amp_p99: None,
        cost,
    }
}

/// Fills the `amp_p99` column through the study's one amplification
/// join: each row over the no-mitigation row of its scenario.
pub(crate) fn join_baselines(rows: &mut [HedgeRow]) {
    let amps = amplify(
        rows,
        |r| &r.latency,
        |r| r.scenario.clone(),
        |r| r.mitigation == Mitigation::None.tag(),
    );
    for (row, [_, p99]) in rows.iter_mut().zip(amps) {
        row.amp_p99 = p99;
    }
}

/// Formats the study as a table, one row per scenario × mitigation
/// cell, in the given order.
#[must_use]
pub(crate) fn format_table(rows: &[HedgeRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "tail tolerance (fan-out RPC under mitigation): completion =\n\
         K-th fastest sub-request capped by the deadline, vs. classic\n\
         wait-for-all in the same fault regime\n",
    );
    let _ = writeln!(
        out,
        "{:<12} {:<11} {:>4} | {:>8} {:>8} {:>8} {:>8} | {:>8} | {:>11} {:>7} {:>7} {:>5} | {:>5}",
        "scenario",
        "mitigation",
        "N",
        "p50(us)",
        "p99(us)",
        "p999(us)",
        "max(us)",
        "amp(p99)",
        "hedge w/l/i",
        "retry",
        "no-tok",
        "ddl",
        "n"
    );
    for r in rows {
        let (l, c) = (&r.latency, &r.cost);
        let sampled = l.samples > 0;
        #[allow(clippy::cast_precision_loss)]
        let n = |v: u64, width| cell(sampled.then_some(v as f64), width, 0);
        let hedge = if sampled {
            format!("{}/{}/{}", c.hedges_won, c.hedges_wasted, c.hedges_issued)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{:<12} {:<11} {:>4} | {} {} {} {} | {} | {:>11} {} {} {} | {:>4}{}",
            r.scenario,
            r.mitigation,
            r.fanout,
            cell(sampled.then_some(l.p50_us), 8, 0),
            cell(sampled.then_some(l.p99_us), 8, 0),
            cell(l.p999_us, 8, 0),
            cell(sampled.then_some(l.max_us), 8, 0),
            cell(r.amp_p99, 8, 2),
            hedge,
            n(c.retries_issued, 7),
            n(c.budget_exhausted, 7),
            n(c.deadline_exceeded, 5),
            l.samples,
            if !sampled || r.aborted > 0 { "!" } else { "" },
        );
    }
    out.push_str(
        "(amp(p99) = p99 / p99(none) in the same scenario, <1 = the\n\
         mitigation cut the tail; hedge w/l/i = hedges won/wasted/\n\
         issued; no-tok = retries suppressed by the budget; ddl =\n\
         requests past their deadline; '!' = retransmit-limit aborts.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_core::ObsMode;

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    fn pool(ts: &[SimTime]) -> Samples {
        let mut s = Samples::new(ObsMode::Exact);
        s.extend_from(ts);
        s
    }

    fn scenario(name: &str) -> Scenario {
        scenarios()
            .into_iter()
            .find(|s| s.name == name)
            .expect("a study scenario")
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
        assert!(names.contains(&"host-pause"));
        assert!(names.contains(&"link-flap"));
    }

    #[test]
    fn mitigation_tags_are_unique_and_baseline_first() {
        assert_eq!(MITIGATIONS[0], Mitigation::None);
        let mut tags: Vec<_> = MITIGATIONS.iter().map(|m| m.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), MITIGATIONS.len());
    }

    #[test]
    fn hedge_kofn_policy_sets_the_quorum() {
        let p = Mitigation::HedgeQuorum.policy(16);
        assert_eq!(p.quorum, 14);
        assert!(p.hedge.is_some());
        assert_eq!(Mitigation::None.policy(16), TailPolicy::default());
        let d = Mitigation::Deadline.policy(16);
        assert_eq!(d.deadline, Some(SimTime::from_ms(10)));
    }

    #[test]
    fn pause_and_flap_scenarios_carry_pure_time_schedules() {
        let pause = scenario("host-pause");
        assert!(pause.faults.host_pause.is_some());
        assert!(pause.faults.atm_loss.is_none(), "pause is RNG-free");
        let flap = scenario("link-flap");
        assert!(flap.faults.link_flap.is_some());
        assert!(flap.faults.atm_loss.is_none(), "flap is RNG-free");
    }

    #[test]
    fn amplify_divides_by_the_no_mitigation_cell() {
        let cost = MitigationCost::default();
        let mut rows = vec![
            reduce(
                "clean",
                "none",
                16,
                &pool(&[t(100), t(100), t(300)]),
                0,
                cost,
            ),
            reduce(
                "clean",
                "hedge",
                16,
                &pool(&[t(100), t(100), t(150)]),
                0,
                cost,
            ),
            // Different scenario: must NOT share the baseline.
            reduce("burst-loss", "hedge", 16, &pool(&[t(600)]), 0, cost),
            // A zero-valued baseline percentile yields no ratio.
            reduce("link-flap", "none", 16, &pool(&[SimTime::ZERO]), 0, cost),
            reduce("link-flap", "hedge", 16, &pool(&[t(10)]), 0, cost),
            // An unsampled baseline is no baseline.
            reduce("host-pause", "none", 16, &pool(&[]), 1, cost),
            reduce("host-pause", "retry", 16, &pool(&[t(10)]), 0, cost),
        ];
        join_baselines(&mut rows);
        assert_eq!(rows[0].amp_p99, Some(1.0), "baseline divides itself");
        assert!((rows[1].amp_p99.unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(rows[2].amp_p99, None, "no baseline in its scenario");
        assert_eq!(rows[4].amp_p99, None, "zero baseline yields no ratio");
        assert_eq!(rows[5].amp_p99, None, "an unsampled row gets no ratio");
        assert_eq!(rows[6].amp_p99, None, "empty baseline yields no ratio");
    }

    #[test]
    fn reduce_refuses_fake_p999_and_table_renders_costs() {
        let cost = MitigationCost {
            hedges_issued: 5,
            hedges_won: 3,
            hedges_wasted: 2,
            retries_issued: 7,
            budget_exhausted: 1,
            deadline_exceeded: 2,
            cancelled: 4,
        };
        let mut rows = vec![
            reduce(
                "clean",
                "none",
                16,
                &pool(&[t(100), t(110)]),
                0,
                MitigationCost::default(),
            ),
            reduce("clean", "hedge", 16, &pool(&[t(90), t(95)]), 1, cost),
            reduce("link-flap", "retry", 16, &pool(&[]), 0, cost),
        ];
        assert_eq!(
            rows[1].latency.p999_us, None,
            "2 samples cannot estimate p999"
        );
        join_baselines(&mut rows);
        let text = format_table(&rows);
        let lines: Vec<&str> = text.lines().collect();
        // A sampled, aborted row: whole-µs columns, the amplification
        // ratio, the cost columns and the abort flag.
        let hedged = format!(
            "{:<12} {:<11} {:>4} | {:>8} {:>8} {:>8} {:>8} | {:>8} | {:>11} {:>7} {:>7} {:>5} | {:>4}!",
            "clean", "hedge", 16, 90, 95, "-", 95, "0.86", "3/2/5", 7, 1, 2, 2
        );
        assert!(lines.contains(&hedged.as_str()), "{text}");
        // An unsampled row is all '-', cost columns included, and
        // flagged even without an abort.
        let unsampled = format!(
            "{:<12} {:<11} {:>4} | {:>8} {:>8} {:>8} {:>8} | {:>8} | {:>11} {:>7} {:>7} {:>5} | {:>4}!",
            "link-flap", "retry", 16, "-", "-", "-", "-", "-", "-", "-", "-", "-", 0
        );
        assert!(lines.contains(&unsampled.as_str()), "{text}");
    }
}
