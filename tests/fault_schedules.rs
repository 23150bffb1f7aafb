//! Property tests for the faultkit robustness contract: *any*
//! deterministic fault schedule — however hostile — yields a run that
//! terminates (completed or cleanly aborted, never hung), delivers
//! only verified payload, returns every mbuf at teardown, and
//! reproduces byte-identically regardless of worker count.

use faultkit::{FaultSchedule, FlapSchedule, GilbertElliott, PauseSchedule};
use latency_core::experiment::{Experiment, NetKind};
use proptest::prelude::*;
use simcap::RecorderMode;
use simkit::SimTime;
use sweep::Sweep;
use world::{run_dc, FaultScope, HedgePolicy, RetryPolicy, TailPolicy, Topology, TrafficSchedule};

/// Scales a `u16` draw onto `[0, max_prob]`.
fn prob(raw: u16, max_prob: f64) -> f64 {
    f64::from(raw) / f64::from(u16::MAX) * max_prob
}

#[allow(clippy::too_many_arguments)]
fn schedule(
    ge: Option<(u16, u16, u16)>,
    reorder: u16,
    duplicate: u16,
    jitter: (u16, u16),
    fifo_cells: Option<u16>,
    contention: Option<(u16, u16)>,
    mbuf_limit: Option<u16>,
) -> FaultSchedule {
    let mut f = FaultSchedule::default();
    if let Some((to_bad, to_good, loss_bad)) = ge {
        f = f.with_atm_loss(GilbertElliott {
            p_good_to_bad: prob(to_bad, 0.05),
            p_bad_to_good: prob(to_good, 1.0),
            loss_good: 0.0,
            loss_bad: prob(loss_bad, 1.0),
        });
    }
    f = f
        .with_reorder(prob(reorder, 0.02))
        .with_duplicate(prob(duplicate, 0.02))
        .with_jitter(prob(jitter.0, 0.02), u64::from(jitter.1) * 100);
    if let Some(cells) = fifo_cells {
        f = f.with_rx_fifo_cells(usize::from(cells % 64) + 4);
    }
    if let Some((stall, burst)) = contention {
        f = f.with_rx_contention(prob(stall, 0.02), u32::from(burst % 24) + 1);
    }
    if let Some(limit) = mbuf_limit {
        // 0 would mean "no limit" at the pool layer; keep it a real cap.
        f = f.with_mbuf_limit(u64::from(limit % 64) + 1);
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The liveness/integrity core of the fault model: every schedule
    /// terminates with either all iterations done or a typed abort;
    /// whatever payload was delivered verified end to end; teardown
    /// returns every mbuf; and the same (schedule, seed) reproduces
    /// the exact event count and RTT samples.
    #[test]
    fn any_fault_schedule_degrades_gracefully(
        ge in proptest::option::of((any::<u16>(), any::<u16>(), any::<u16>())),
        reorder in any::<u16>(),
        duplicate in any::<u16>(),
        jitter in (any::<u16>(), any::<u16>()),
        fifo_cells in proptest::option::of(any::<u16>()),
        contention in proptest::option::of((any::<u16>(), any::<u16>())),
        mbuf_limit in proptest::option::of(any::<u16>()),
        size_raw in any::<u16>(),
        seed in any::<u16>(),
    ) {
        let faults = schedule(ge, reorder, duplicate, jitter, fifo_cells, contention, mbuf_limit);
        let size = usize::from(size_raw) % 8000 + 4;
        let build = || {
            let mut e = Experiment::rpc(NetKind::Atm, size).with_faults(faults);
            e.iterations = 10;
            e.warmup = 2;
            e
        };
        let r = build().plan().seed(u64::from(seed)).execute();
        prop_assert_eq!(r.verify_failures, 0, "faults cost time, never integrity");
        prop_assert!(
            r.aborted || r.rtts.len() == 10,
            "terminate by completing or by clean abort: {} iters, aborted={}",
            r.rtts.len(),
            r.aborted
        );
        prop_assert_eq!(r.mbufs_leaked, (0, 0), "every fault path returns its mbufs");
        // Determinism: identical schedule + seed, identical universe.
        let again = build().plan().seed(u64::from(seed)).execute();
        prop_assert_eq!(&r.rtts, &again.rtts);
        prop_assert_eq!(r.events, again.events);
        prop_assert_eq!(r.enobufs, again.enobufs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pure-time injectors obey the same contract as the RNG-driven
    /// ones: any host-pause / link-flap schedule — any phase, period,
    /// and window length, against a mitigated or unmitigated fan-out
    /// world — terminates with every round measured or a typed abort,
    /// never corrupts payload, returns every mbuf, and reproduces
    /// exactly from the same seed.
    #[test]
    fn any_pause_or_flap_schedule_degrades_gracefully(
        pause in proptest::option::of((0u64..20_000, 1_000u64..40_000, any::<u16>())),
        flap in proptest::option::of((0u64..20_000, 1_000u64..40_000, any::<u16>())),
        mitigated in any::<bool>(),
        seed in any::<u16>(),
    ) {
        let mut f = FaultSchedule::default();
        if let Some((start, period, frac)) = pause {
            // Window length strictly inside the period, as the
            // constructor demands.
            let len = u64::from(frac) % period.max(2).saturating_sub(1) + 1;
            f = f.with_host_pause(PauseSchedule::new(
                SimTime::from_us(start),
                SimTime::from_us(period),
                SimTime::from_us(len),
            ));
        }
        if let Some((start, period, frac)) = flap {
            let len = u64::from(frac) % period.max(2).saturating_sub(1) + 1;
            f = f.with_link_flap(FlapSchedule::new(
                SimTime::from_us(start),
                SimTime::from_us(period),
                SimTime::from_us(len),
            ));
        }
        let build = || {
            let mut t = Topology::fanout(2, 4);
            t.iterations = 4;
            t.warmup = 1;
            if mitigated {
                // Every mitigation at once: the injectors must compose
                // with deadlines, retries, hedging, and partial fan-out.
                t.tail = TailPolicy {
                    deadline: Some(SimTime::from_ms(10)),
                    retry: Some(RetryPolicy::default()),
                    hedge: Some(HedgePolicy::default()),
                    quorum: 3,
                };
            }
            t.faults = f;
            t.fault_scope = FaultScope::ServersOnly;
            t
        };
        let t = build();
        let r = run_dc(&t, TrafficSchedule::staggered(), u64::from(seed));
        prop_assert_eq!(r.verify_failures, 0, "pauses and flaps cost time, never integrity");
        let measured = t.clients * t.iterations as usize;
        prop_assert!(
            r.fanout_aborts > 0 || r.completions.len() == measured,
            "terminate by completing or by typed abort: {} of {} rounds, aborts={}",
            r.completions.len(),
            measured,
            r.fanout_aborts
        );
        prop_assert_eq!(r.mbufs_leaked, 0, "every pause/flap path returns its mbufs");
        // Determinism: identical schedule + seed, identical universe.
        let again = run_dc(&build(), TrafficSchedule::staggered(), u64::from(seed));
        prop_assert_eq!(&r.rtts, &again.rtts);
        prop_assert_eq!(&r.completions, &again.completions);
        prop_assert_eq!(r.cost, again.cost);
    }
}

/// The `repro hedge` determinism contract for the pure-time injector
/// scenarios: the pause and flap cells of the quick grid render to the
/// same canonical bytes at every worker count.
#[test]
fn pause_and_flap_hedge_cells_are_byte_identical_across_worker_counts() {
    let injected = |key: &str| key.contains("/host-pause/") || key.contains("/link-flap/");
    let serial =
        world::Study::Hedge.run_where(world::Scale::QUICK, 1, RecorderMode::Exact, injected);
    assert!(serial.cells > 0, "quick grid covers the injector scenarios");
    let parallel =
        world::Study::Hedge.run_where(world::Scale::QUICK, 4, RecorderMode::Exact, injected);
    assert_eq!(serial.json, parallel.json);
}

/// The `repro faults` determinism contract: the fault study's
/// canonical sweep report is byte-identical at every worker count.
#[test]
fn fault_sweep_report_is_byte_identical_across_worker_counts() {
    let declare = || {
        let mut sw = Sweep::new("fault-prop");
        for sc in latency_core::recovery::scenarios() {
            sw.ensure(
                sweep::grid::fault_cell_key(sc.name, 1400, 30, 1),
                latency_core::recovery::experiment(&sc, 1400, 30),
                1,
            );
        }
        sw
    };
    let serial = declare().run(1).canonical_json();
    let parallel = declare().run(4).canonical_json();
    assert_eq!(serial, parallel);
}
