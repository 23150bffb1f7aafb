//! Property tests for TCP's resequencing and end-to-end delivery
//! invariants under adversarial segment arrival.

use decstation::CostModel;
use mbuf::{Chain, MbufPool};
use proptest::prelude::*;
use simkit::SimTime;
use tcpip::{CaptureDriver, Kernel, PcbKey, StackConfig, Tcb};

fn stream(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Receiver-side resequencing: segments of a stream arriving in
    /// any order, with arbitrary duplication, deliver exactly the
    /// original stream, in order, exactly once.
    #[test]
    fn resequencing_delivers_exact_stream(
        n in 1usize..6000,
        seg_len in 1usize..1500,
        order in proptest::collection::vec(any::<u16>(), 1..64),
        dups in proptest::collection::vec(any::<u16>(), 0..16),
        seed in any::<u8>(),
    ) {
        let cfg = StackConfig::default();
        let pool = MbufPool::new();
        let key = PcbKey { laddr: [10, 0, 0, 1], lport: 1, faddr: [10, 0, 0, 2], fport: 2 };
        let mut tcb = Tcb::established(key, 0, 4096, &cfg);
        let base = tcb.rcv_nxt;
        let data = stream(n, seed);

        // Build the segment list, then a permutation with duplicates.
        let segs: Vec<(usize, usize)> = (0..n)
            .step_by(seg_len)
            .map(|off| (off, seg_len.min(n - off)))
            .collect();
        let mut arrivals: Vec<usize> = order.iter().map(|&x| x as usize % segs.len()).collect();
        // Guarantee every segment eventually arrives.
        arrivals.extend(0..segs.len());
        arrivals.extend(dups.iter().map(|&x| x as usize % segs.len()));

        let mut rcv = Chain::new();
        for idx in arrivals {
            let (off, len) = segs[idx];
            let (chain, _) = Chain::from_user_data(&pool, &data[off..off + len], len > 1024);
            tcb.process_data(base.wrapping_add(off as u32), chain, &mut rcv);
        }
        prop_assert_eq!(rcv.to_vec(), data);
        prop_assert!(tcb.reasm.is_empty(), "queue drains once the stream completes");
    }

    /// Sender-side bookkeeping: any sequence of cumulative ACKs never
    /// moves snd_una backwards and never past snd_max.
    #[test]
    fn ack_processing_is_monotone(
        acks in proptest::collection::vec(any::<u32>(), 1..64),
    ) {
        let cfg = StackConfig::default();
        let key = PcbKey { laddr: [10, 0, 0, 1], lport: 1, faddr: [10, 0, 0, 2], fport: 2 };
        let mut tcb = Tcb::established(key, 0, 4096, &cfg);
        let iss = tcb.snd_una;
        // Pretend 64 KB are in flight.
        tcb.note_sent(iss, 65_000, SimTime::ZERO, SimTime::from_ms(500));
        let mut prev = tcb.snd_una;
        let mut total_acked = 0usize;
        for a in acks {
            let ack = iss.wrapping_add(a % 70_000);
            let out = tcb.process_ack(ack, 16384, true, &[], SimTime::ZERO);
            prop_assert!(tcpip::seq_ge(tcb.snd_una, prev), "snd_una went backwards");
            prop_assert!(tcpip::seq_le(tcb.snd_una, tcb.snd_max), "acked unsent data");
            total_acked += out.newly_acked;
            prev = tcb.snd_una;
        }
        prop_assert!(total_acked <= 65_000);
    }

    /// End-to-end: a kernel pair with random segment drops still
    /// delivers every byte intact (retransmission), for any drop
    /// pattern and message size.
    #[test]
    fn lossy_path_delivers_intact(
        n in 1usize..12_000,
        drop_mask in any::<u64>(),
        seed in any::<u8>(),
    ) {
        let cfg = StackConfig::default();
        let costs = CostModel::calibrated();
        let mut a = Kernel::new(cfg, costs.clone());
        let mut b = Kernel::new(cfg, costs);
        let key = PcbKey { laddr: [10, 0, 0, 1], lport: 1, faddr: [10, 0, 0, 2], fport: 2 };
        let (sa, sb) = Kernel::connect_pair(&mut a, &mut b, key, 4096);
        let mut da = CaptureDriver::new(9188);
        let mut db = CaptureDriver::new(9188);
        let data = stream(n, seed);
        let mut t = SimTime::from_ms(1);
        let mut written = 0usize;
        let mut drop_bit = 0u32;
        // Drive for a bounded number of rounds: write, shuttle with
        // drops, fire timers.
        for _round in 0..200 {
            if written < data.len() {
                let out = a.syscall_write(t, sa, &data[written..], &mut da);
                written += out.accepted;
            }
            t += SimTime::from_ms(1);
            // a -> b with drops from the mask.
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
            // b -> a: ACKs are never dropped (they are cumulative, so
            // dropping them only slows things; data-loss recovery is
            // what we are testing).
            let pkts: Vec<_> = db.packets.drain(..).collect();
            for p in pkts {
                let (chain, _) = Chain::from_user_data(&a.pool, &p, p.len() > 1024);
                if let Some(at) = a.enqueue_ip(t, chain) {
                    let _ = a.ipintr(at, &mut da);
                }
                t += SimTime::from_us(200);
            }
            // Fire any due timers (retransmission).
            t += SimTime::from_secs(3);
            let _ = a.check_timers(t, &mut da);
            let _ = b.check_timers(t, &mut db);
            if written == data.len() && b.rcv_buffered(sb) == data.len() {
                break;
            }
        }
        prop_assert_eq!(b.rcv_buffered(sb), data.len(), "all bytes arrived");
        let mut got = Vec::new();
        let _ = b.syscall_read(t, sb, data.len(), &mut got, &mut db);
        prop_assert_eq!(got, data);
    }
}
