//! The runtime invariant engine.
//!
//! [`check_experiment`] runs an experiment once, observed and
//! captured, with every checker armed: event-time monotonicity and
//! TCP sequence-space sanity after every engine event (through a
//! read-only [`latency_core::RunPlan::observer`]), agreement of the
//! tap-derived breakdown with the inline spans, 40 ns quantization of
//! every RTT, and mbuf conservation after teardown. Observers and taps
//! never perturb the simulation, so the checked run is the run an
//! unobserved plan of the same seed makes.

use std::cell::RefCell;
use std::rc::Rc;

use latency_core::capture::compare_with_inline;
use latency_core::{Experiment, World};
use simkit::time::CLOCK_PERIOD_NS;
use simkit::SimTime;
use tcpip::{seq_le, Tcb};

/// Cap on recorded violations, so a systemically broken run reports
/// a readable sample instead of one entry per event.
const MAX_VIOLATIONS: usize = 64;

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
    /// Events the per-event checkers examined.
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

/// Runs `exp` once from `seed`, observed and captured, with every
/// checker armed, and reports every violation. A configuration the
/// capture comparator does not apply to (multi-segment writes, UDP,
/// bulk, a run with no usable window) sets
/// [`InvariantReport::capture_skipped`] instead.
///
/// # Panics
///
/// Panics if the observer outlives the run (an engine bug).
#[must_use]
pub fn check_experiment(exp: &Experiment, seed: u64) -> InvariantReport {
    let state = Rc::new(RefCell::new(ObsState {
        last: SimTime::ZERO,
        events: 0,
        violations: Vec::new(),
    }));
    let st = Rc::clone(&state);
    let obs = Box::new(move |w: &World, t: SimTime, label: &'static str| {
        let mut s = st.borrow_mut();
        s.events += 1;
        if t < s.last {
            let last = s.last;
            push(
                &mut s.violations,
                "event_monotonic",
                format!("event '{label}' at {t} after clock reached {last}"),
            );
        }
        s.last = s.last.max(t);
        for (h, host) in w.hosts.iter().enumerate() {
            if let Some(tcb) = host.kernel.try_tcb(host.app.ep.sock) {
                let buffered = host.kernel.snd_buffered(host.app.ep.sock);
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
    });
    let cap = exp.plan().seed(seed).observer(obs).captured().execute();
    let state = Rc::try_unwrap(state)
        .unwrap_or_else(|_| panic!("observer still alive after run"))
        .into_inner();
    let mut report = InvariantReport {
        violations: state.violations,
        events_checked: state.events,
        capture_skipped: None,
    };

    match compare_with_inline(&cap) {
        Ok(cmp) => {
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
        Err(msg) => report.capture_skipped = Some(msg),
    }

    let result = &cap.result;
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

    if result.mbufs_leaked != (0, 0) {
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
    use world::{Scale, Study};

    #[test]
    fn clean_run_passes_all_checkers() {
        let mut exp = Experiment::rpc(NetKind::Atm, 200);
        exp.iterations = 20;
        exp.warmup = 2;
        let report = check_experiment(&exp, 7);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.events_checked > 0);
    }

    #[test]
    fn a_pure_ack_sent_inside_the_receive_window_is_not_a_deviation() {
        // Table 1's 4 B Ethernet cell, as its golden line ran it: in
        // one iteration the client's delayed-ACK timer sends a pure
        // ACK between tcp input and read return. Its transmit spans
        // lie outside the paper's window, so they must not count
        // against the capture hop either.
        let key = "rpc/ether/4/base/i200r1";
        let (_, exp) = Study::Tables
            .cells(Scale::QUICK)
            .into_iter()
            .find(|(k, _)| k == key)
            .expect("a Table 1 cell");
        let seed = sweep::run_seed(key);
        let cap = exp.plan().seed(seed).captured().execute();
        let cmp = compare_with_inline(&cap).expect("a single-segment RPC");
        assert!(cmp.ok(), "{:?}", cmp.spans);
        // The window with the ACK sits out, beside one that the older
        // rules skip; the other 198 are compared.
        assert_eq!(cmp.iterations, 198);
        assert!(check_experiment(&exp, seed).is_clean());
    }
}
