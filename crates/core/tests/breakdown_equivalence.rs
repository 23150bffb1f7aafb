//! The one-pass pairing rule against a naive reference.
//!
//! `breakdown::iterations` pairs `WriteStart`/`ReadReturn` marks,
//! builds each pair's windows from the per-kind mark lists, and clips
//! every span into the windows of its side by binary search. The
//! reference below is the rule written out as plainly as possible:
//! mark lookups walk the whole mark list in push order, and each
//! window total is a full scan over every span. The two must agree
//! bit for bit on random recorders (spans out of start order and
//! straddling window edges, marks interleaved across kinds) and on
//! the client recorders of real runs.

use latency_core::breakdown::{compute_breakdown_samples, iterations, mean, Iteration};
use latency_core::{recovery, Experiment, NetKind};
use simkit::{SimRng, SimTime};
use tcpip::{Mark, SpanKind, SpanRecorder};

const KINDS: [SpanKind; 13] = [
    SpanKind::TxUser,
    SpanKind::TxTcpChecksum,
    SpanKind::TxTcpMcopy,
    SpanKind::TxTcpSegment,
    SpanKind::TxIp,
    SpanKind::TxDriver,
    SpanKind::RxDriver,
    SpanKind::RxIpq,
    SpanKind::RxIp,
    SpanKind::RxTcpChecksum,
    SpanKind::RxTcpSegment,
    SpanKind::RxWakeup,
    SpanKind::RxUser,
];

/// One reference iteration: `(write, write_end, arrival, read)` and
/// the clipped total of every kind in `KINDS` order.
type RefIteration = (SimTime, SimTime, Option<SimTime>, SimTime, Vec<SimTime>);

fn marks_of(rec: &SpanRecorder, mark: Mark) -> Vec<SimTime> {
    rec.marks()
        .iter()
        .filter(|(m, _)| *m == mark)
        .map(|&(_, t)| t)
        .collect()
}

/// Sum of span time of `kind` within `[from, to]`, clipping at the
/// window edges: a full scan.
fn clipped_total(rec: &SpanRecorder, kind: SpanKind, from: SimTime, to: SimTime) -> SimTime {
    let mut total = SimTime::ZERO;
    for s in rec.spans().iter().filter(|s| s.kind == kind) {
        let (lo, hi) = (s.start.max(from), s.end.min(to));
        if hi > lo {
            total += hi - lo;
        }
    }
    total
}

/// First `mark` at or after `at`, in push order.
fn first_mark_after(rec: &SpanRecorder, mark: Mark, at: SimTime) -> Option<SimTime> {
    rec.marks()
        .iter()
        .find(|(m, t)| *m == mark && *t >= at)
        .map(|&(_, t)| t)
}

/// Last `mark` at or before `at`, in push order.
fn last_mark_before(rec: &SpanRecorder, mark: Mark, at: SimTime) -> Option<SimTime> {
    rec.marks()
        .iter()
        .filter(|(m, t)| *m == mark && *t <= at)
        .map(|&(_, t)| t)
        .next_back()
}

fn reference(rec: &SpanRecorder) -> Vec<RefIteration> {
    let writes = marks_of(rec, Mark::WriteStart);
    let returns = marks_of(rec, Mark::ReadReturn);
    let mut out = Vec::new();
    for (&w, &r) in writes.iter().zip(&returns) {
        if r <= w {
            continue;
        }
        let we = first_mark_after(rec, Mark::WriteEnd, w).unwrap_or(r).min(r);
        let arrival = last_mark_before(rec, Mark::SegmentArrived, r).filter(|&a| a >= w);
        let totals = KINDS
            .iter()
            .map(|&k| match (k <= SpanKind::TxDriver, arrival) {
                (true, _) => clipped_total(rec, k, w, we),
                (false, Some(a)) => clipped_total(rec, k, a, r),
                (false, None) => SimTime::ZERO,
            })
            .collect();
        out.push((w, we, arrival, r, totals));
    }
    out
}

fn flatten(it: &Iteration) -> RefIteration {
    let totals = KINDS.iter().map(|&k| it.total(k)).collect();
    (it.write, it.write_end, it.arrival, it.read, totals)
}

/// The one pass, its samples and its mean all agree with the
/// reference bit for bit.
fn assert_matches_reference(rec: &SpanRecorder, what: &str) {
    let want = reference(rec);
    let its = iterations(rec);
    let got: Vec<RefIteration> = its.iter().map(flatten).collect();
    assert_eq!(got, want, "{what}: iterations differ from the reference");

    let samples = compute_breakdown_samples(rec);
    let kept: Vec<&Iteration> = its.iter().filter(|it| it.arrival.is_some()).collect();
    assert_eq!(samples.len(), kept.len(), "{what}");
    for ((tx, rx), it) in samples.iter().zip(&kept) {
        assert_eq!(*tx, it.tx(), "{what}");
        assert_eq!(Some(*rx), it.rx(), "{what}");
        assert_eq!(
            tx.user.to_bits(),
            it.total(SpanKind::TxUser).as_us_f64().to_bits(),
            "{what}"
        );
        assert_eq!(
            rx.driver.to_bits(),
            it.total(SpanKind::RxDriver).as_us_f64().to_bits(),
            "{what}"
        );
    }

    // The mean sums the kept samples in iteration order, then divides.
    let (tx, rx, n) = mean(&its);
    assert_eq!(n, samples.len(), "{what}");
    let k = n.max(1) as f64;
    let sum = |f: &dyn Fn(&(latency_core::TxBreakdown, latency_core::RxBreakdown)) -> f64| {
        samples.iter().fold(0.0, |acc, s| acc + f(s)) / k
    };
    assert_eq!(tx.user.to_bits(), sum(&|s| s.0.user).to_bits(), "{what}");
    assert_eq!(
        tx.driver.to_bits(),
        sum(&|s| s.0.driver).to_bits(),
        "{what}"
    );
    assert_eq!(
        rx.driver.to_bits(),
        sum(&|s| s.1.driver).to_bits(),
        "{what}"
    );
    assert_eq!(rx.user.to_bits(), sum(&|s| s.1.user).to_bits(), "{what}");
}

/// A random recorder: iterations with jittered windows, missing or
/// late `WriteEnd`s, zero, one or several arrivals, the odd empty
/// pair or lost `ReadReturn`, and spans of every kind pushed in shuffled order, many
/// anchored on a window edge so they straddle it. Marks of one kind
/// are pushed in time order, but the kinds are interleaved at random.
fn random_recorder(rng: &mut SimRng) -> SpanRecorder {
    let ns = SimTime::from_ns;
    let mut lists: [Vec<(Mark, SimTime)>; 4] = Default::default();
    let mut edges = Vec::new();
    let mut t = u64::from(rng.next_below(50));
    let iters = 1 + rng.next_below(12);
    for _ in 0..iters {
        let w = t;
        let r = if rng.chance(0.05) {
            w
        } else {
            w + 1 + u64::from(rng.next_below(400))
        };
        lists[0].push((Mark::WriteStart, ns(w)));
        if !rng.chance(0.15) {
            let we = w + u64::from(rng.next_below(500));
            lists[1].push((Mark::WriteEnd, ns(we)));
            edges.push(we);
        }
        let mut a = w.saturating_sub(u64::from(rng.next_below(30)));
        for _ in 0..rng.next_below(4) {
            a += u64::from(rng.next_below(150));
            lists[2].push((Mark::SegmentArrived, ns(a)));
            edges.push(a);
        }
        // A lost `ReadReturn` shifts the pairing: later pairs then
        // span two iterations, and their windows overlap.
        if !rng.chance(0.04) {
            lists[3].push((Mark::ReadReturn, ns(r)));
        }
        edges.extend([w, r]);
        t = r + u64::from(rng.next_below(60));
    }
    if rng.chance(0.1) {
        lists[0].push((Mark::WriteStart, ns(t + 5)));
    }
    // A late `WriteEnd` or arrival can pass the next iteration's;
    // each kind is recorded in time order all the same.
    for l in &mut lists {
        l.sort_by_key(|&(_, at)| at);
    }

    let mut rec = SpanRecorder::new();
    rec.enabled = true;
    let mut next = [0usize; 4];
    while next.iter().zip(&lists).any(|(&i, l)| i < l.len()) {
        let k = rng.next_below(4) as usize;
        if let Some(&(m, at)) = lists[k].get(next[k]) {
            rec.mark(m, at);
            next[k] += 1;
        }
    }

    let horizon = t + 100;
    let mut spans = Vec::new();
    for _ in 0..rng.next_below(80) {
        let kind = KINDS[rng.next_below(KINDS.len() as u32) as usize];
        let start = if rng.chance(0.5) && !edges.is_empty() {
            let e = edges[rng.next_below(edges.len() as u32) as usize];
            (e + u64::from(rng.next_below(40))).saturating_sub(20)
        } else {
            u64::from(rng.next_below(horizon as u32))
        };
        let len = if rng.chance(0.1) {
            u64::from(rng.next_below(horizon as u32))
        } else {
            u64::from(rng.next_below(60))
        };
        spans.push((kind, start, start + len));
    }
    for i in (1..spans.len()).rev() {
        spans.swap(i, rng.next_below(i as u32 + 1) as usize);
    }
    for (kind, start, end) in spans {
        rec.span(kind, ns(start), ns(end));
    }
    rec
}

#[test]
fn one_pass_matches_reference_on_random_recorders() {
    let mut rng = SimRng::seed_from(0x5eed_b4ea);
    let (mut skipped_rx, mut overlapping) = (0, 0);
    for case in 0..2000 {
        let rec = random_recorder(&mut rng);
        assert_matches_reference(&rec, &format!("random case {case}"));
        let its = iterations(&rec);
        skipped_rx += its.iter().filter(|it| it.arrival.is_none()).count();
        overlapping += its.windows(2).filter(|p| p[0].read > p[1].write).count();
    }
    assert!(
        skipped_rx > 0,
        "the generator never produced a skipped receive window"
    );
    assert!(
        overlapping > 0,
        "the generator never produced overlapping windows"
    );
}

fn recorder_of(exp: &Experiment) -> SpanRecorder {
    exp.plan().seed(1).captured().execute().client_spans
}

#[test]
fn one_pass_matches_reference_on_real_runs() {
    let mut unsorted = 0;
    for net in [NetKind::Atm, NetKind::Ether] {
        for size in [4, 1400, 4000, 8000] {
            let mut exp = Experiment::rpc(net, size);
            exp.iterations = 40;
            exp.warmup = 4;
            let rec = recorder_of(&exp);
            assert!(!iterations(&rec).is_empty(), "{net:?} {size} B");
            assert_matches_reference(&rec, &format!("{net:?} {size} B"));
            if !rec.spans().is_sorted_by_key(|s| s.start) {
                unsorted += 1;
            }
        }
    }
    // The pass must not rely on span order: real runs do not record
    // spans in start order.
    assert!(unsorted > 0, "no run recorded spans out of start order");
    for name in ["light-bursts", "heavy-bursts"] {
        let sc = recovery::scenario(name).expect("scenario exists");
        let rec = recorder_of(&recovery::experiment(&sc, 8000, 60));
        assert_matches_reference(&rec, name);
    }
}
