//! Differential property tests for the congestion-control variants.
//!
//! Congestion control decides *when* bytes move, never *which* bytes
//! arrive: for any seeded loss schedule, every `CcVariant` must
//! deliver the identical byte stream. And when the window never binds
//! (a large initial window on a clean path), the armed default
//! (NewReno) must be event-for-event byte-identical to the unarmed
//! seed stack — the invariant that keeps every pre-CC golden valid
//! without re-blessing.

use decstation::CostModel;
use mbuf::Chain;
use proptest::prelude::*;
use simkit::SimTime;
use tcpip::{CaptureDriver, CcVariant, Kernel, PcbKey, SockId, StackConfig};

const MTU: usize = 9188;

fn stream(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed))
        .collect()
}

/// Two kernels with pre-established, sequence-aligned connections.
fn pair(cfg: StackConfig) -> (Kernel, Kernel, SockId, SockId) {
    let costs = CostModel::calibrated();
    let mut a = Kernel::new(cfg, costs.clone());
    let mut b = Kernel::new(cfg, costs);
    let key = PcbKey {
        laddr: [10, 0, 0, 1],
        lport: 1,
        faddr: [10, 0, 0, 2],
        fport: 2,
    };
    let (sa, sb) = Kernel::connect_pair(&mut a, &mut b, key, 4096);
    (a, b, sa, sb)
}

/// Pushes `data` from `a` to `b` through a lossy shuttle driven by
/// `drop_mask` (one bit per a→b packet, cycling), firing timers
/// between rounds. Returns the bytes `b` buffered.
fn shuttle_lossy(cfg: StackConfig, data: &[u8], drop_mask: u64) -> Vec<u8> {
    let (mut a, mut b, sa, sb) = pair(cfg);
    let mut da = CaptureDriver::new(MTU);
    let mut db = CaptureDriver::new(MTU);
    let mut t = SimTime::from_ms(1);
    let mut written = 0usize;
    let mut drop_bit = 0u32;
    for _round in 0..200 {
        if written < data.len() {
            let out = a.syscall_write(t, sa, &data[written..], &mut da);
            written += out.accepted;
        }
        t += SimTime::from_ms(1);
        let pkts: Vec<_> = da.packets.drain(..).collect();
        for p in pkts {
            drop_bit = (drop_bit + 1) % 64;
            if (drop_mask >> drop_bit) & 1 == 1 {
                continue; // Lost.
            }
            let (chain, _) = Chain::from_user_data(&b.pool, &p, p.len() > 1024);
            if let Some(at) = b.enqueue_ip(t, chain) {
                let _ = b.ipintr(at, &mut db);
            }
            t += SimTime::from_us(200);
        }
        // ACKs are never dropped: data-loss recovery is under test,
        // and cumulative ACKs make ACK loss only a slowdown.
        let pkts: Vec<_> = db.packets.drain(..).collect();
        for p in pkts {
            let (chain, _) = Chain::from_user_data(&a.pool, &p, p.len() > 1024);
            if let Some(at) = a.enqueue_ip(t, chain) {
                let _ = a.ipintr(at, &mut da);
            }
            t += SimTime::from_us(200);
        }
        t += SimTime::from_secs(3);
        let _ = a.check_timers(t, &mut da);
        let _ = b.check_timers(t, &mut db);
        if written == data.len() && b.rcv_buffered(sb) == data.len() {
            break;
        }
    }
    let mut got = Vec::new();
    let _ = b.syscall_read(t, sb, data.len(), &mut got, &mut db);
    got
}

/// Runs a clean (lossless) request/response exchange and returns every
/// packet either side emitted, in order — the full event trace on the
/// wire.
fn clean_trace(cfg: StackConfig, reqs: &[u16]) -> Vec<Vec<u8>> {
    let (mut a, mut b, sa, sb) = pair(cfg);
    let mut da = CaptureDriver::new(MTU);
    let mut db = CaptureDriver::new(MTU);
    let mut wire = Vec::new();
    let mut t = SimTime::from_ms(1);
    for (i, &r) in reqs.iter().enumerate() {
        let n = usize::from(r % 8000) + 1;
        let data = stream(n, i as u8);
        let mut written = 0usize;
        for _ in 0..64 {
            if written < data.len() {
                let out = a.syscall_write(t, sa, &data[written..], &mut da);
                written += out.accepted;
            }
            t += SimTime::from_us(500);
            let pkts: Vec<_> = da.packets.drain(..).collect();
            for p in pkts {
                wire.push(p.clone());
                let (chain, _) = Chain::from_user_data(&b.pool, &p, p.len() > 1024);
                if let Some(at) = b.enqueue_ip(t, chain) {
                    let _ = b.ipintr(at, &mut db);
                }
                t += SimTime::from_us(200);
            }
            let pkts: Vec<_> = db.packets.drain(..).collect();
            for p in pkts {
                wire.push(p.clone());
                let (chain, _) = Chain::from_user_data(&a.pool, &p, p.len() > 1024);
                if let Some(at) = a.enqueue_ip(t, chain) {
                    let _ = a.ipintr(at, &mut da);
                }
                t += SimTime::from_us(200);
            }
            if written == data.len() && b.rcv_buffered(sb) == data.len() {
                break;
            }
            // Delayed-ACK timers only: the path is clean, so firing
            // them cannot retransmit, merely flush pending ACKs.
            if let Some(dl) = b.next_deadline() {
                t = t.max(dl) + SimTime::from_us(1);
                let _ = b.check_timers(t, &mut db);
            }
        }
        let mut got = Vec::new();
        let _ = b.syscall_read(t, sb, data.len(), &mut got, &mut db);
        assert_eq!(got, data, "clean path must deliver");
        // Drain the window-update ACK the read may have produced.
        for p in db.packets.drain(..) {
            wire.push(p.clone());
            let (chain, _) = Chain::from_user_data(&a.pool, &p, p.len() > 1024);
            if let Some(at) = a.enqueue_ip(t, chain) {
                let _ = a.ipintr(at, &mut da);
            }
        }
        wire.append(&mut da.packets);
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any seeded loss schedule and message size, every variant
    /// recovers the identical byte stream: congestion control may
    /// reshape the packet timeline arbitrarily, but reliability is
    /// variant-independent.
    #[test]
    fn all_variants_deliver_the_identical_stream_under_loss(
        n in 1usize..10_000,
        drop_mask in any::<u64>(),
        seed in any::<u8>(),
    ) {
        let data = stream(n, seed);
        for cc in CcVariant::ALL {
            let cfg = StackConfig {
                cc,
                initial_cwnd_segs: Some(2),
                ..StackConfig::default()
            };
            let got = shuttle_lossy(cfg, &data, drop_mask);
            prop_assert_eq!(
                &got, &data,
                "{:?} corrupted or lost bytes under mask {:#x}", cc, drop_mask
            );
        }
    }

    /// Clean path, cwnd never binding: the armed default variant is
    /// event-for-event byte-identical to the unarmed seed stack. A
    /// 4-segment initial window at MSS 4096 equals the 16 kB socket
    /// buffer — the warm stack's cwnd — so the only difference left
    /// is the cc machinery being switched on. This is the invariant
    /// that keeps the pre-CC tables/faults/dc goldens valid.
    #[test]
    fn armed_newreno_clean_path_is_byte_identical_to_the_seed_stack(
        reqs in proptest::collection::vec(any::<u16>(), 1..4),
    ) {
        let warm = StackConfig::default();
        prop_assert!(warm.initial_cwnd_segs.is_none());
        let mut armed = warm;
        armed.cc = CcVariant::NewReno;
        armed.initial_cwnd_segs = Some(4);

        let wire_warm = clean_trace(warm, &reqs);
        let wire_armed = clean_trace(armed, &reqs);
        prop_assert_eq!(wire_warm, wire_armed);
    }
}
