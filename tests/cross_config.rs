//! Cross-configuration invariants: properties that must hold in
//! *every* kernel configuration, network, and size — the reproduction
//! equivalent of "the system works no matter how you configure the
//! experiment".

use proptest::prelude::*;
use tcp_atm_latency::{ChecksumMode, Experiment, NetKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (size, network, checksum-mode, prediction) combination
    /// completes with intact payloads and a sane RTT.
    #[test]
    fn every_configuration_delivers(
        size_sel in 0usize..8,
        ether in any::<bool>(),
        mode_sel in 0u8..3,
        prediction in any::<bool>(),
        seed in 1u64..50,
    ) {
        let sizes = [4usize, 20, 80, 200, 500, 1400, 4000, 8000];
        let size = sizes[size_sel];
        let net = if ether { NetKind::Ether } else { NetKind::Atm };
        let mut e = Experiment::rpc(net, size);
        e.iterations = 12;
        e.warmup = 3;
        e.cfg.header_prediction = prediction;
        e.cfg.checksum = match mode_sel {
            0 => ChecksumMode::Standard(tcp_atm_latency::decstation::ChecksumImpl::Bsd),
            1 => ChecksumMode::Integrated,
            _ => ChecksumMode::None,
        };
        let r = e.plan().seed(seed).execute();
        prop_assert_eq!(r.verify_failures, 0, "payloads intact");
        prop_assert_eq!(r.rtts.len(), 12);
        // RTT sanity: above the wire floor, below a loose ceiling.
        let rtt = r.mean_rtt_us();
        prop_assert!(rtt > 100.0, "rtt {rtt}");
        prop_assert!(rtt < 60_000.0, "rtt {rtt}");
        // Determinism: the same seed reproduces exactly.
        let r2 = e.plan().seed(seed).execute();
        prop_assert_eq!(r.rtts, r2.rtts);
    }

    /// Under any survivable cell-loss rate, ATM RPC still completes
    /// every iteration with intact payloads (TCP recovers), and the
    /// RTT can only get worse, never better.
    #[test]
    fn loss_never_corrupts_and_never_speeds_up(
        loss_millis in 0u32..8,
        seed in 1u64..20,
    ) {
        let loss = f64::from(loss_millis) / 1000.0;
        let mut clean = Experiment::rpc(NetKind::Atm, 1400);
        clean.iterations = 15;
        clean.warmup = 2;
        let mut lossy = clean.clone();
        lossy.faults.cell_loss = loss;
        let rc = clean.plan().seed(seed).execute();
        let rl = lossy.plan().seed(seed).execute();
        prop_assert_eq!(rl.verify_failures, 0);
        prop_assert_eq!(rl.rtts.len(), 15, "all iterations completed");
        prop_assert!(
            rl.mean_rtt_us() >= rc.mean_rtt_us() - 1.0,
            "loss cannot speed things up: {} vs {}",
            rl.mean_rtt_us(),
            rc.mean_rtt_us()
        );
    }

    /// The checksum-elimination saving is non-negative at every size
    /// and grows into the data-touching regime.
    #[test]
    fn elimination_saving_is_monotone_enough(size_sel in 0usize..8) {
        let sizes = [4usize, 20, 80, 200, 500, 1400, 4000, 8000];
        let size = sizes[size_sel];
        let mut base = Experiment::rpc(NetKind::Atm, size);
        base.iterations = 20;
        let none = base.clone().without_checksum();
        let rb = base.plan().seed(1).execute().mean_rtt_us();
        let rn = none.plan().seed(1).execute().mean_rtt_us();
        prop_assert!(rn <= rb + 1.0, "removing work cannot add latency");
    }
}
