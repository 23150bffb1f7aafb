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

fn removal_candidates(cur: &FaultSchedule) -> Vec<FaultSchedule> {
    let mut out = Vec::new();
    if cur.atm_loss.is_some() {
        let mut c = *cur;
        c.atm_loss = None;
        out.push(c);
    }
    if cur.ether_loss.is_some() {
        let mut c = *cur;
        c.ether_loss = None;
        out.push(c);
    }
    if cur.rx_contention.is_some() {
        let mut c = *cur;
        c.rx_contention = None;
        out.push(c);
    }
    if cur.rx_fifo_cells.is_some() {
        let mut c = *cur;
        c.rx_fifo_cells = None;
        out.push(c);
    }
    if cur.mbuf_limit.is_some() {
        let mut c = *cur;
        c.mbuf_limit = None;
        out.push(c);
    }
    if cur.train.reorder_prob > 0.0 {
        let mut c = *cur;
        c.train.reorder_prob = 0.0;
        out.push(c);
    }
    if cur.train.duplicate_prob > 0.0 {
        let mut c = *cur;
        c.train.duplicate_prob = 0.0;
        out.push(c);
    }
    if cur.train.jitter_prob > 0.0 || cur.train.jitter_max_ns > 0 {
        let mut c = *cur;
        c.train.jitter_prob = 0.0;
        c.train.jitter_max_ns = 0;
        out.push(c);
    }
    out
}

fn halve(p: f64) -> f64 {
    let h = p / 2.0;
    if h < EPS_PROB {
        0.0
    } else {
        h
    }
}

fn magnitude_candidates(cur: &FaultSchedule) -> Vec<FaultSchedule> {
    let mut out = Vec::new();
    if let Some(ge) = cur.atm_loss {
        if ge.p_good_to_bad > EPS_PROB {
            let mut c = *cur;
            c.atm_loss.as_mut().expect("present").p_good_to_bad = halve(ge.p_good_to_bad);
            out.push(c);
        }
        if ge.loss_bad > EPS_PROB {
            let mut c = *cur;
            c.atm_loss.as_mut().expect("present").loss_bad = halve(ge.loss_bad);
            out.push(c);
        }
        if ge.loss_good > EPS_PROB {
            let mut c = *cur;
            c.atm_loss.as_mut().expect("present").loss_good = halve(ge.loss_good);
            out.push(c);
        }
    }
    if let Some(ge) = cur.ether_loss {
        if ge.p_good_to_bad > EPS_PROB {
            let mut c = *cur;
            c.ether_loss.as_mut().expect("present").p_good_to_bad = halve(ge.p_good_to_bad);
            out.push(c);
        }
        if ge.loss_bad > EPS_PROB {
            let mut c = *cur;
            c.ether_loss.as_mut().expect("present").loss_bad = halve(ge.loss_bad);
            out.push(c);
        }
    }
    if cur.train.reorder_prob > EPS_PROB {
        let mut c = *cur;
        c.train.reorder_prob = halve(cur.train.reorder_prob);
        out.push(c);
    }
    if cur.train.duplicate_prob > EPS_PROB {
        let mut c = *cur;
        c.train.duplicate_prob = halve(cur.train.duplicate_prob);
        out.push(c);
    }
    if cur.train.jitter_max_ns > 1 {
        let mut c = *cur;
        c.train.jitter_max_ns /= 2;
        out.push(c);
    }
    if let Some(cc) = cur.rx_contention {
        if cc.stall_prob > EPS_PROB {
            let mut c = *cur;
            c.rx_contention.as_mut().expect("present").stall_prob = halve(cc.stall_prob);
            out.push(c);
        }
        if cc.burst_cells > 1 {
            let mut c = *cur;
            c.rx_contention.as_mut().expect("present").burst_cells = cc.burst_cells / 2;
            out.push(c);
        }
    }
    if let Some(f) = cur.rx_fifo_cells {
        // A larger FIFO is a milder fault; grow toward the TCA-100's
        // real 292-cell buffer.
        let grown = (f * 2).min(292);
        if grown > f {
            let mut c = *cur;
            c.rx_fifo_cells = Some(grown);
            out.push(c);
        }
    }
    if let Some(m) = cur.mbuf_limit {
        // A looser pool cap is a milder fault.
        let mut c = *cur;
        c.mbuf_limit = Some(m.saturating_mul(2));
        out.push(c);
    }
    out
}

/// Minimizes `base` against `fails` (true = the failure reproduces).
///
/// Returns the smallest schedule found that still fails; if `base`
/// itself does not fail, it is returned unchanged. The predicate is
/// called once per candidate, so callers paying per-run simulation
/// cost get a deterministic, bounded number of runs.
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
        for cand in removal_candidates(&cur) {
            if fails(&cand) {
                cur = cand;
                changed = true;
            }
        }
        for cand in magnitude_candidates(&cur) {
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
