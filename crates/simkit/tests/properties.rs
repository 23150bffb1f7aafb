//! Property tests for the discrete-event engine: the determinism and
//! causality guarantees everything else is built on.

use proptest::prelude::*;
use simkit::{Cpu, CpuBand, Sim, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events execute in nondecreasing time order regardless of the
    /// order they were scheduled, and ties preserve FIFO order.
    #[test]
    fn execution_order_is_causal(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut sim = Sim::new(Vec::<(u64, usize)>::new());
        for (i, &t) in times.iter().enumerate() {
            sim.schedule(
                SimTime::from_us(t),
                "ev",
                move |w: &mut Vec<(u64, usize)>, _| w.push((t, i)),
            );
        }
        sim.run();
        let log = &sim.world;
        prop_assert_eq!(log.len(), times.len());
        for pair in log.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "FIFO tie-break");
            }
        }
    }

    /// Chained scheduling from handlers preserves causality too.
    #[test]
    fn chained_events_respect_time(delays in proptest::collection::vec(1u64..100, 1..50)) {
        struct W {
            delays: Vec<u64>,
            idx: usize,
            stamps: Vec<SimTime>,
        }
        fn step(w: &mut W, s: &mut simkit::Scheduler<W>) {
            w.stamps.push(s.now());
            if w.idx < w.delays.len() {
                let d = w.delays[w.idx];
                w.idx += 1;
                s.schedule(SimTime::from_us(d), "step", step);
            }
        }
        let mut sim = Sim::new(W { delays: delays.clone(), idx: 0, stamps: Vec::new() });
        sim.schedule(SimTime::ZERO, "step", step);
        sim.run();
        prop_assert_eq!(sim.world.stamps.len(), delays.len() + 1);
        let total: u64 = delays.iter().sum();
        prop_assert_eq!(sim.now(), SimTime::from_us(total));
        for w in sim.world.stamps.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// The CPU never overlaps two work items and accounts every
    /// microsecond it runs.
    #[test]
    fn cpu_serializes_all_work(
        reqs in proptest::collection::vec((0u64..1000, 1u64..200), 1..60),
    ) {
        let mut cpu = Cpu::new();
        let mut intervals = Vec::new();
        let mut total = SimTime::ZERO;
        // Requests must be presented in nondecreasing arrival order,
        // as the event loop does.
        let mut sorted = reqs.clone();
        sorted.sort();
        for (at, cost) in sorted {
            let (s, e) = cpu.acquire(SimTime::from_us(at), SimTime::from_us(cost), CpuBand::Process);
            prop_assert!(s >= SimTime::from_us(at));
            prop_assert_eq!(e - s, SimTime::from_us(cost));
            intervals.push((s, e));
            total += SimTime::from_us(cost);
        }
        for w in intervals.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "no overlap");
        }
        prop_assert_eq!(cpu.stats().total_busy(), total);
    }

    /// The queue pops the exact total order `(at, seq)` that a sorted
    /// reference model predicts, across boxed events and raw events
    /// under two labels, with dense clustered times mixed with sparse
    /// far-future ones. The observer sees each event's own time and
    /// label.
    #[test]
    fn queue_matches_reference_order(
        evs in proptest::collection::vec((0u64..3, 0u64..500_000), 1..300),
    ) {
        use std::cell::RefCell;
        use std::rc::Rc;

        fn raw(w: &mut Vec<usize>, _: &mut simkit::Scheduler<Vec<usize>>, data: u64) {
            w.push(data as usize);
        }
        const LABELS: [&str; 3] = ["boxed", "raw", "raw-b"];
        // Mix dense and sparse times: every 7th event lands far out.
        let time_of = |i: usize, t_ns: u64| {
            if i % 7 == 3 { t_ns * 4_096 + 300_000_000 } else { t_ns }
        };
        let mut sim = Sim::new(Vec::<usize>::new());
        let seen: Rc<RefCell<Vec<(u64, &'static str)>>> = Rc::default();
        let log = Rc::clone(&seen);
        sim.set_observer(Box::new(move |_, at, label| log.borrow_mut().push((at.as_ns(), label))));
        for (i, &(kind, t_ns)) in evs.iter().enumerate() {
            let at = SimTime::from_ns(time_of(i, t_ns));
            match kind {
                0 => sim.schedule_at(at, LABELS[0], move |w: &mut Vec<usize>, _| w.push(i)),
                k => sim.schedule_raw_at(at, LABELS[k as usize], raw, i as u64),
            }
        }
        sim.run();
        // Reference: stable sort by time (stability = seq order).
        let mut expect: Vec<(u64, usize)> = evs
            .iter()
            .enumerate()
            .map(|(i, &(_, t_ns))| (time_of(i, t_ns), i))
            .collect();
        expect.sort_by_key(|&(at, _)| at);
        let want: Vec<usize> = expect.iter().map(|&(_, i)| i).collect();
        prop_assert_eq!(&sim.world, &want);
        let want_seen: Vec<(u64, &'static str)> = expect
            .iter()
            .map(|&(at, i)| (at, LABELS[evs[i].0 as usize]))
            .collect();
        prop_assert_eq!(&*seen.borrow(), &want_seen);
        prop_assert_eq!(sim.events_executed(), evs.len() as u64);
    }

    /// Follow-ups that handlers stage at `now` and later interleave
    /// with pre-scheduled events at equal times exactly as a naive
    /// reference queue predicts when it assigns `seq` at merge time,
    /// in staging order, after the handler returns.
    #[test]
    fn staged_followups_take_seq_in_staging_order(
        plan in proptest::collection::vec(
            (0u64..6, proptest::collection::vec(0u64..4, 0..4)),
            1..40,
        ),
    ) {
        // An event id is `parent << 8` for a pre-scheduled event and
        // `parent << 8 | (k + 1)` for its k-th follow-up.
        struct W {
            delays: Vec<Vec<u64>>,
            log: Vec<u64>,
        }
        fn fire(w: &mut W, s: &mut simkit::Scheduler<W>, id: u64) {
            w.log.push(id);
            if id & 0xff != 0 {
                return;
            }
            let delays = w.delays[(id >> 8) as usize].clone();
            for (k, d) in delays.into_iter().enumerate() {
                let child = id | (k as u64 + 1);
                // Delays are in 40 ns ticks, so 0 stages at `now` and
                // the rest collide with pre-scheduled times.
                let delay = SimTime::from_ns(d * 40);
                if k % 2 == 0 {
                    s.schedule_raw(delay, "child", fire, child);
                } else {
                    s.schedule(delay, "child-boxed", move |w: &mut W, s| fire(w, s, child));
                }
            }
        }
        let mut sim = Sim::new(W {
            delays: plan.iter().map(|(_, d)| d.clone()).collect(),
            log: Vec::new(),
        });
        for (i, &(t, _)) in plan.iter().enumerate() {
            let id = (i as u64) << 8;
            if i % 2 == 0 {
                sim.schedule_raw_at(SimTime::from_ns(t * 40), "pre", fire, id);
            } else {
                sim.schedule_at(SimTime::from_ns(t * 40), "pre-boxed", move |w: &mut W, s| {
                    fire(w, s, id)
                });
            }
        }
        sim.run();

        // Reference: an unsorted list of `(at, seq, id)`, popped by a
        // linear scan for the minimum `(at, seq)`.
        let mut pending: Vec<(u64, u64, u64)> = plan
            .iter()
            .enumerate()
            .map(|(i, &(t, _))| (t * 40, i as u64, (i as u64) << 8))
            .collect();
        let mut seq = plan.len() as u64;
        let mut want = Vec::new();
        while let Some(pos) = (0..pending.len()).min_by_key(|&p| (pending[p].0, pending[p].1)) {
            let (at, _, id) = pending.swap_remove(pos);
            want.push(id);
            if id & 0xff == 0 {
                for (k, &d) in plan[(id >> 8) as usize].1.iter().enumerate() {
                    pending.push((at + d * 40, seq, id | (k as u64 + 1)));
                    seq += 1;
                }
            }
        }
        prop_assert_eq!(&sim.world.log, &want);
    }

    /// Quantization is idempotent, monotone, and never in the future.
    #[test]
    fn clock_quantization(ns in any::<u64>()) {
        let t = SimTime::from_ns(ns);
        let q = t.quantized();
        prop_assert!(q <= t);
        prop_assert_eq!(q.quantized(), q);
        prop_assert_eq!(q.as_ns() % 40, 0);
        prop_assert!(t.as_ns() - q.as_ns() < 40);
    }
}
