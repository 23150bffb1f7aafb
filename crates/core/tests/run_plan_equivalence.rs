//! `RunPlan` semantics: seeding, repetition pooling, observer
//! transparency and capture transparency. These pin the exact
//! contract the blessed goldens were produced under, so the builder
//! cannot drift without a failure here.

use std::cell::RefCell;
use std::rc::Rc;

use latency_core::prelude::*;

fn quick(net: NetKind, size: usize) -> Experiment {
    let mut e = Experiment::rpc(net, size);
    e.iterations = 25;
    e.warmup = 3;
    e
}

fn assert_same(a: &RunResult, b: &RunResult) {
    assert_eq!(a.rtts, b.rtts);
    assert_eq!(a.events, b.events);
    assert_eq!(a.sim_time, b.sim_time);
    assert_eq!(a.bytes_moved, b.bytes_moved);
    assert_eq!(a.verify_failures, b.verify_failures);
    assert_eq!(a.mbufs_leaked, b.mbufs_leaked);
    assert_eq!(a.breakdown_iters, b.breakdown_iters);
    // Breakdowns are f64 averages computed by the same fold in the
    // same order, so they too must be bit-equal.
    assert_eq!(a.tx.user.to_bits(), b.tx.user.to_bits());
    assert_eq!(a.tx.cksum.to_bits(), b.tx.cksum.to_bits());
    assert_eq!(a.rx.user.to_bits(), b.rx.user.to_bits());
    assert_eq!(a.rx.cksum.to_bits(), b.rx.cksum.to_bits());
}

#[test]
fn same_seed_is_bit_identical() {
    for seed in [1, 7, 0xdead_beef] {
        let a = quick(NetKind::Atm, 200).plan().seed(seed).execute();
        let b = quick(NetKind::Atm, 200).plan().seed(seed).execute();
        assert_same(&a, &b);
    }
}

#[test]
fn different_seeds_differ() {
    // A clean run consumes no randomness — seed independence there is
    // the design. The seed must matter the moment a stochastic
    // element is armed, so drive a jittered fault schedule: same
    // workload, different RNG stream, different sample vector.
    let sc = latency_core::recovery::scenario("jitter").expect("jitter scenario exists");
    let a = latency_core::recovery::experiment(&sc, 1400, 25)
        .plan()
        .seed(1)
        .execute();
    let b = latency_core::recovery::experiment(&sc, 1400, 25)
        .plan()
        .seed(2)
        .execute();
    assert_eq!(a.rtts.len(), b.rtts.len());
    assert_ne!(a.rtts, b.rtts);
}

#[test]
fn reps_pool_sequential_seeds() {
    // Repetition r (1-based, starting from the plan seed) must be
    // bit-identical to a single run at that seed, and the pooled
    // vector is their concatenation in order.
    let base = 41u64;
    let pooled = quick(NetKind::Ether, 200)
        .plan()
        .seed(base.wrapping_add(1))
        .reps(3)
        .execute();
    let mut expect = Vec::new();
    for r in 1..=3u64 {
        let one = quick(NetKind::Ether, 200)
            .plan()
            .seed(base.wrapping_add(r))
            .execute();
        expect.extend_from_slice(&one.rtts);
    }
    assert_eq!(pooled.rtts, expect);
}

#[test]
fn reps_pool_breakdowns_over_every_kept_iteration() {
    // Three repetitions average as one mean over every kept iteration
    // of every repetition, summed in order — not pairwise, and not
    // over the first repetition's iteration count. Jittered faults
    // make the repetitions' breakdowns differ, so weighting shows.
    let sc = latency_core::recovery::scenario("jitter").expect("jitter scenario exists");
    let exp = latency_core::recovery::experiment(&sc, 1400, 25);
    let pooled = exp.plan().seed(4).reps(3).execute();
    let per_rep: Vec<Vec<(TxBreakdown, RxBreakdown)>> = (4..7)
        .map(|seed| {
            let run = exp.plan().seed(seed).captured().execute();
            latency_core::compute_breakdown_samples(&run.client_spans)
        })
        .collect();
    let means: Vec<f64> = per_rep
        .iter()
        .map(|s| {
            s.iter()
                .map(|(tx, rx)| tx.total() + rx.total())
                .sum::<f64>()
                / s.len() as f64
        })
        .collect();
    assert!(
        means.windows(2).any(|p| p[0] != p[1]),
        "the repetitions must differ for the test to bite: {means:?}"
    );
    let all: Vec<&(TxBreakdown, RxBreakdown)> = per_rep.iter().flatten().collect();
    assert_eq!(pooled.breakdown_iters, all.len());
    let n = all.len() as f64;
    let mean =
        |f: fn(&(TxBreakdown, RxBreakdown)) -> f64| all.iter().fold(0.0, |acc, s| acc + f(s)) / n;
    assert_eq!(pooled.tx.user.to_bits(), mean(|s| s.0.user).to_bits());
    assert_eq!(pooled.tx.cksum.to_bits(), mean(|s| s.0.cksum).to_bits());
    assert_eq!(pooled.tx.driver.to_bits(), mean(|s| s.0.driver).to_bits());
    assert_eq!(pooled.rx.driver.to_bits(), mean(|s| s.1.driver).to_bits());
    assert_eq!(pooled.rx.ipq.to_bits(), mean(|s| s.1.ipq).to_bits());
    assert_eq!(pooled.rx.wakeup.to_bits(), mean(|s| s.1.wakeup).to_bits());
    assert_eq!(pooled.rx.user.to_bits(), mean(|s| s.1.user).to_bits());
}

#[test]
fn observers_do_not_perturb_and_fire_in_order() {
    let silent = quick(NetKind::Atm, 500).plan().seed(5).execute();
    let firsts = Rc::new(RefCell::new(Vec::new()));
    let seconds = Rc::new(RefCell::new(Vec::new()));
    let (f, s) = (Rc::clone(&firsts), Rc::clone(&seconds));
    let observed = quick(NetKind::Atm, 500)
        .plan()
        .seed(5)
        .observer(Box::new(move |_, t, _| f.borrow_mut().push(t)))
        .observer(Box::new(move |w, t, _| {
            // Registration order: by the time the second observer
            // fires for event n, the first has already seen it.
            assert_eq!(w.hosts.len(), 2);
            s.borrow_mut().push(t);
        }))
        .execute();
    assert_same(&observed, &silent);
    let firsts = firsts.borrow();
    assert_eq!(firsts.len() as u64, silent.events);
    assert_eq!(*firsts, *seconds.borrow());
}

#[test]
fn captured_plan_matches_uncaptured_results() {
    let silent = quick(NetKind::Atm, 200).plan().seed(3).execute();
    let plan = quick(NetKind::Atm, 200).plan().seed(3).captured().execute();
    assert_same(&plan.result, &silent);
    assert!(!plan.client.frames.is_empty());
    assert!(!plan.server.frames.is_empty());
    // The captures themselves are deterministic too: serialize one
    // tap from each of two identical runs and compare the bytes.
    let again = quick(NetKind::Atm, 200).plan().seed(3).captured().execute();
    for tap in [simcap::TapPoint::Wire, simcap::TapPoint::SockSend] {
        assert_eq!(plan.client.pcap(tap), again.client.pcap(tap));
    }
}

#[test]
#[should_panic(expected = "at least one repetition")]
fn zero_reps_refused() {
    let _ = quick(NetKind::Atm, 200).plan().reps(0).execute();
}
