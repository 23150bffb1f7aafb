//! Fault-schedule shrinking: reduce a failing [`FaultSchedule`] to a
//! smallest reproducer before reporting it.
//!
//! The `faults` study (for a cell whose payload was corrupted), and any
//! test that finds a boolean anomaly under a fault schedule, hands the
//! schedule plus a `fails` predicate to [`shrink_schedule`]. The shrinker greedily removes whole fault
//! components, then halves the magnitudes of whatever must stay,
//! re-running the predicate after each candidate simplification and
//! keeping only changes that still reproduce the failure — the
//! classic delta-debugging loop, specialized to the schedule's
//! structure.

use crate::FaultSchedule;

/// Upper bound on shrink passes; each pass either simplifies the
/// schedule or terminates the loop, and magnitudes halve at most ~60
/// times before reaching zero.
const MAX_ROUNDS: usize = 64;

/// Probabilities below this are indistinguishable from "never fires"
/// at sweep scale; candidates push them to exactly zero instead of
/// halving forever.
const EPS_PROB: f64 = 1e-6;

/// Candidates per pass: one removal per field, then one milder
/// magnitude per probability (12) and size (4).
const REMOVALS: usize = 12;
const MAGNITUDES: usize = 16;

/// One candidate per field: `cur` with that field reset to its clean
/// default.
fn removal_candidates(cur: &FaultSchedule) -> [FaultSchedule; REMOVALS] {
    // Exhaustive: a new field fails to compile here until it can be
    // removed.
    let FaultSchedule {
        atm_loss,
        train,
        rx_contention,
        rx_fifo_cells,
        ether_loss,
        mbuf_limit,
        host_pause,
        link_flap,
        ber,
        cell_loss,
        controller_corrupt,
        gateway_corrupt,
    } = FaultSchedule::default();
    let c = *cur;
    [
        FaultSchedule { atm_loss, ..c },
        FaultSchedule { train, ..c },
        FaultSchedule { rx_contention, ..c },
        FaultSchedule { rx_fifo_cells, ..c },
        FaultSchedule { ether_loss, ..c },
        FaultSchedule { mbuf_limit, ..c },
        FaultSchedule { host_pause, ..c },
        FaultSchedule { link_flap, ..c },
        FaultSchedule { ber, ..c },
        FaultSchedule { cell_loss, ..c },
        FaultSchedule {
            controller_corrupt,
            ..c
        },
        FaultSchedule {
            gateway_corrupt,
            ..c
        },
    ]
}

fn halve(p: f64) -> f64 {
    let h = p / 2.0;
    if h < EPS_PROB {
        0.0
    } else {
        h
    }
}

/// One candidate per magnitude, each a milder fault: `cur` with one
/// probability, burst or jitter bound halved, or its FIFO or pool cap
/// doubled.
fn magnitude_candidates(cur: &FaultSchedule) -> [FaultSchedule; MAGNITUDES] {
    // Exhaustive: a new field fails to compile here until it is
    // handled. Pause and flap windows are only ever removed whole.
    let FaultSchedule {
        atm_loss: _,
        train: _,
        rx_contention: _,
        rx_fifo_cells: _,
        ether_loss: _,
        mbuf_limit: _,
        host_pause: _,
        link_flap: _,
        ber: _,
        cell_loss: _,
        controller_corrupt: _,
        gateway_corrupt: _,
    } = cur;
    let probs: [fn(&mut FaultSchedule) -> Option<&mut f64>; 12] = [
        |s| Some(&mut s.atm_loss.as_mut()?.p_good_to_bad),
        |s| Some(&mut s.atm_loss.as_mut()?.loss_bad),
        |s| Some(&mut s.atm_loss.as_mut()?.loss_good),
        |s| Some(&mut s.ether_loss.as_mut()?.p_good_to_bad),
        |s| Some(&mut s.ether_loss.as_mut()?.loss_bad),
        |s| Some(&mut s.train.reorder_prob),
        |s| Some(&mut s.train.duplicate_prob),
        |s| Some(&mut s.rx_contention.as_mut()?.stall_prob),
        |s| Some(&mut s.ber),
        |s| Some(&mut s.cell_loss),
        |s| Some(&mut s.controller_corrupt),
        |s| Some(&mut s.gateway_corrupt),
    ];
    let sizes: [fn(&mut FaultSchedule); 4] = [
        |s| s.train.jitter_max_ns /= 2,
        |s| s.rx_contention.iter_mut().for_each(|c| c.burst_cells /= 2),
        // Grow toward the TCA-100's real 292-cell buffer.
        |s| s.rx_fifo_cells = s.rx_fifo_cells.map(|f| f.max((f * 2).min(292))),
        |s| s.mbuf_limit = s.mbuf_limit.map(|m| m.saturating_mul(2)),
    ];
    let mut out = [*cur; MAGNITUDES];
    for (c, prob) in out.iter_mut().zip(probs) {
        if let Some(p) = prob(c) {
            *p = halve(*p);
        }
    }
    for (c, size) in out[probs.len()..].iter_mut().zip(sizes) {
        size(c);
    }
    out
}

/// Candidate `i` of a pass, built from `cur`: the removals, then the
/// magnitudes.
fn candidate(cur: &FaultSchedule, i: usize) -> FaultSchedule {
    match i.checked_sub(REMOVALS) {
        None => removal_candidates(cur)[i],
        Some(j) => magnitude_candidates(cur)[j],
    }
}

/// Minimizes `base` against `fails` (true = the failure reproduces).
///
/// Returns the smallest schedule found that still fails; if `base`
/// itself does not fail, it is returned unchanged. Each candidate is
/// built from the schedule as the pass has shrunk it so far, so every
/// simplification a pass accepts survives it. The predicate is called
/// once per candidate that differs from that schedule, so callers
/// paying per-run simulation cost get a deterministic, bounded number
/// of runs.
pub fn shrink_schedule(
    base: FaultSchedule,
    mut fails: impl FnMut(&FaultSchedule) -> bool,
) -> FaultSchedule {
    if !fails(&base) {
        return base;
    }
    let mut cur = base;
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for i in 0..REMOVALS + MAGNITUDES {
            let cand = candidate(&cur, i);
            if cand != cur && fails(&cand) {
                cur = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GilbertElliott;

    #[test]
    fn non_failing_schedule_is_returned_unchanged() {
        let base = FaultSchedule::default().with_atm_loss(GilbertElliott::heavy_bursts());
        let out = shrink_schedule(base, |_| false);
        assert_eq!(out, base);
    }

    #[test]
    fn irrelevant_components_are_removed() {
        // The failure only needs ATM loss; everything else must go.
        let base = FaultSchedule::default()
            .with_atm_loss(GilbertElliott::heavy_bursts())
            .with_reorder(0.2)
            .with_duplicate(0.1);
        let out = shrink_schedule(base, |s| s.atm_loss.is_some());
        assert!(out.atm_loss.is_some());
        assert_eq!(out.train.reorder_prob, 0.0);
        assert_eq!(out.train.duplicate_prob, 0.0);
    }

    #[test]
    fn every_field_can_be_removed() {
        // `link_flap` is the field the failure does not need.
        let flap = crate::FlapSchedule::new(
            simkit::SimTime::ZERO,
            simkit::SimTime::from_us(100),
            simkit::SimTime::from_us(20),
        );
        let base = FaultSchedule::default()
            .with_link_flap(flap)
            .with_atm_loss(GilbertElliott::heavy_bursts());
        let out = shrink_schedule(base, |s| s.atm_loss.is_some());
        assert!(out.atm_loss.is_some());
        assert!(
            FaultSchedule {
                atm_loss: None,
                ..out
            }
            .is_clean(),
            "{out:?}"
        );
    }

    #[test]
    fn the_iid_probabilities_halve_and_go() {
        let base = FaultSchedule {
            ber: 1e-5,
            cell_loss: 0.01,
            controller_corrupt: 0.03,
            gateway_corrupt: 0.005,
            ..FaultSchedule::default()
        };
        let out = shrink_schedule(base, |s| s.controller_corrupt >= 0.01);
        assert_eq!(
            out,
            FaultSchedule {
                controller_corrupt: 0.015,
                ..FaultSchedule::default()
            }
        );
        assert!(shrink_schedule(base, |_| true).is_clean());
    }

    #[test]
    fn one_pass_keeps_every_removal_it_accepts() {
        // The failure needs neither `ber` nor `cell_loss`; both go in
        // the first pass, and a second pass confirms nothing else can.
        let base = FaultSchedule {
            ber: 1e-5,
            cell_loss: 0.01,
            controller_corrupt: 0.03,
            ..FaultSchedule::default()
        };
        let mut calls = 0;
        let out = shrink_schedule(base, |s| {
            calls += 1;
            s.controller_corrupt == 0.03
        });
        assert_eq!(
            out,
            FaultSchedule {
                controller_corrupt: 0.03,
                ..FaultSchedule::default()
            }
        );
        // 1 for `base`; pass 1: three removals and the one halving
        // left; pass 2: one removal and one halving. Building each
        // candidate from the pass's starting schedule took 11: pass 1
        // put `ber` back when it removed `cell_loss`.
        assert_eq!(calls, 7);
    }

    #[test]
    fn magnitudes_shrink_to_the_predicate_threshold() {
        let base = FaultSchedule::default().with_reorder(0.64);
        let out = shrink_schedule(base, |s| s.train.reorder_prob >= 0.02);
        assert!(out.train.reorder_prob >= 0.02);
        assert!(out.train.reorder_prob <= 0.04, "{}", out.train.reorder_prob);
    }

    #[test]
    fn shrink_terminates_on_always_failing_predicate() {
        let base = FaultSchedule::default()
            .with_atm_loss(GilbertElliott::light_bursts())
            .with_jitter(0.5, 10_000);
        let out = shrink_schedule(base, |_| true);
        assert!(
            out.is_clean(),
            "always-failing predicate shrinks to clean: {out:?}"
        );
    }
}
