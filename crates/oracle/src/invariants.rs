//! The runtime invariant engine.
//!
//! Pluggable checkers that any experiment can arm. Mirroring
//! `faultkit::FaultSchedule::is_clean`, the default set is empty and
//! costs nothing: per-event checkers hook into the engine only
//! through a [`latency_core::RunPlan::observer`], which an
//! unobserved plan never touches, and with an empty set
//! [`check_experiment`] runs no simulation at all.

use std::cell::RefCell;
use std::rc::Rc;

use latency_core::capture::compare_with_inline;
use latency_core::{Experiment, RunResult, World};
use simkit::time::CLOCK_PERIOD_NS;
use simkit::SimTime;
use tcpip::{seq_le, Tcb};

/// Cap on recorded violations, so a systemically broken run reports
/// a readable sample instead of one entry per event.
const MAX_VIOLATIONS: usize = 64;

/// Which invariants to arm. All flags default to off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvariantSet {
    /// Event timestamps never decrease (the engine's contract).
    pub event_monotonic: bool,
    /// Measured RTTs land on the 40 ns TurboChannel clock grid.
    pub clock_quantized: bool,
    /// No mbufs outstanding after teardown on either host.
    pub mbuf_conservation: bool,
    /// TCP sequence space stays sane after every event:
    /// `snd_una ≤ snd_nxt ≤ snd_max`, flight fits the send buffer,
    /// and the advertised window never exceeds the socket buffer.
    pub tcp_seq_sanity: bool,
    /// The simcap tap-derived breakdown agrees with the inline span
    /// accounting (one 40 ns tick per span).
    pub capture_agreement: bool,
}

impl InvariantSet {
    /// Every checker armed.
    #[must_use]
    pub fn all() -> Self {
        InvariantSet {
            event_monotonic: true,
            clock_quantized: true,
            mbuf_conservation: true,
            tcp_seq_sanity: true,
            capture_agreement: true,
        }
    }

    /// No checkers armed (the zero-cost default).
    #[must_use]
    pub fn none() -> Self {
        InvariantSet::default()
    }

    /// True when no checker is armed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == InvariantSet::default()
    }
}

/// One invariant failure.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which checker fired.
    pub invariant: &'static str,
    /// What it saw.
    pub detail: String,
}

/// The outcome of an armed run.
#[derive(Clone, Debug, Default)]
pub struct InvariantReport {
    /// Everything that fired, in event order (capped at a readable
    /// sample size).
    pub violations: Vec<Violation>,
    /// Events the per-event checkers examined (0 when none armed).
    pub events_checked: u64,
    /// Set when the capture-agreement comparator declined this
    /// configuration (e.g. multi-segment writes); a refusal is not a
    /// violation.
    pub capture_skipped: Option<String>,
}

impl InvariantReport {
    /// True when no invariant fired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

struct ObsState {
    last: SimTime,
    events: u64,
    violations: Vec<Violation>,
}

fn push(violations: &mut Vec<Violation>, invariant: &'static str, detail: String) {
    if violations.len() < MAX_VIOLATIONS {
        violations.push(Violation { invariant, detail });
    }
}

fn check_tcb(tcb: &Tcb, snd_buffered: usize, sockbuf: usize, host: usize) -> Option<String> {
    if !seq_le(tcb.snd_una, tcb.snd_nxt) {
        return Some(format!(
            "host {host}: snd_una {:#x} > snd_nxt {:#x}",
            tcb.snd_una, tcb.snd_nxt
        ));
    }
    if !seq_le(tcb.snd_nxt, tcb.snd_max) {
        return Some(format!(
            "host {host}: snd_nxt {:#x} > snd_max {:#x}",
            tcb.snd_nxt, tcb.snd_max
        ));
    }
    let flight = tcb.snd_nxt.wrapping_sub(tcb.snd_una) as usize;
    if flight > snd_buffered {
        return Some(format!(
            "host {host}: flight {flight} exceeds send buffer occupancy {snd_buffered}"
        ));
    }
    if tcb.rcv_adv_wnd > sockbuf {
        return Some(format!(
            "host {host}: advertised window {} exceeds socket buffer {sockbuf}",
            tcb.rcv_adv_wnd
        ));
    }
    None
}

/// Runs `exp` with the given checkers armed and reports every
/// violation.
///
/// With an empty set this runs nothing and returns a clean report.
/// Per-event checkers observe the world read-only after each engine
/// event, so an armed run's timeline is bit-identical to an unarmed
/// one with the same seed.
#[must_use]
pub fn check_experiment(exp: &Experiment, seed: u64, set: &InvariantSet) -> InvariantReport {
    let mut report = InvariantReport::default();
    if set.is_empty() {
        return report;
    }

    let per_event = set.event_monotonic || set.tcp_seq_sanity;
    let mut result: Option<RunResult> = None;

    if per_event {
        let state = Rc::new(RefCell::new(ObsState {
            last: SimTime::ZERO,
            events: 0,
            violations: Vec::new(),
        }));
        let st = Rc::clone(&state);
        let armed = *set;
        let obs = Box::new(move |w: &World, t: SimTime, label: &'static str| {
            let mut s = st.borrow_mut();
            s.events += 1;
            if armed.event_monotonic && t < s.last {
                let last = s.last;
                push(
                    &mut s.violations,
                    "event_monotonic",
                    format!("event '{label}' at {t} after clock reached {last}"),
                );
            }
            s.last = s.last.max(t);
            if armed.tcp_seq_sanity {
                for (h, host) in w.hosts.iter().enumerate() {
                    if let Some(tcb) = host.kernel.try_tcb(host.sock) {
                        let buffered = host.kernel.snd_buffered(host.sock);
                        let sockbuf = host.kernel.cfg.sockbuf;
                        if let Some(detail) = check_tcb(tcb, buffered, sockbuf, h) {
                            push(
                                &mut s.violations,
                                "tcp_seq_sanity",
                                format!("after '{label}' at {t}: {detail}"),
                            );
                        }
                    }
                }
            }
        });
        result = Some(exp.plan().seed(seed).observer(obs).execute());
        let state = Rc::try_unwrap(state)
            .unwrap_or_else(|_| panic!("observer still alive after run"))
            .into_inner();
        report.events_checked = state.events;
        report.violations.extend(state.violations);
    }

    if set.capture_agreement {
        let cap = exp.plan().seed(seed).captured().execute();
        match compare_with_inline(&cap) {
            Ok(cmp) => {
                if !cmp.ok() {
                    for s in cmp.spans.iter().filter(|s| s.max_dev_ns > s.tol_ns) {
                        push(
                            &mut report.violations,
                            "capture_agreement",
                            format!(
                                "{}: capture {:.3} µs vs inline {:.3} µs \
                                 (worst deviation {} ns, tolerance {} ns)",
                                s.label, s.capture_us, s.inline_us, s.max_dev_ns, s.tol_ns
                            ),
                        );
                    }
                }
            }
            Err(msg) => report.capture_skipped = Some(msg),
        }
        if result.is_none() {
            result = Some(cap.result);
        }
    }

    let result = result.unwrap_or_else(|| exp.plan().seed(seed).execute());

    if set.clock_quantized {
        for (i, rtt) in result.rtts.iter().enumerate() {
            if rtt.as_ns() % CLOCK_PERIOD_NS != 0 {
                push(
                    &mut report.violations,
                    "clock_quantized",
                    format!(
                        "rtt[{i}] = {} ns is off the {CLOCK_PERIOD_NS} ns grid",
                        rtt.as_ns()
                    ),
                );
            }
        }
    }

    if set.mbuf_conservation && result.mbufs_leaked != (0, 0) {
        push(
            &mut report.violations,
            "mbuf_conservation",
            format!(
                "mbufs outstanding after teardown: client {}, server {}",
                result.mbufs_leaked.0, result.mbufs_leaked.1
            ),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_core::NetKind;

    #[test]
    fn empty_set_is_zero_cost_and_clean() {
        let exp = Experiment::rpc(NetKind::Atm, 1_000_000_000); // absurd size never runs
        let report = check_experiment(&exp, 1, &InvariantSet::none());
        assert!(report.is_clean());
        assert_eq!(report.events_checked, 0);
    }

    #[test]
    fn clean_run_passes_all_checkers() {
        let mut exp = Experiment::rpc(NetKind::Atm, 200);
        exp.iterations = 20;
        exp.warmup = 2;
        let report = check_experiment(&exp, 7, &InvariantSet::all());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.events_checked > 0);
    }
}
