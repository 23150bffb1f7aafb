//! Edge cases of the retransmission machinery, driven through the
//! public kernel API (write → lose → timer/dup-ACK → recover):
//!
//! - the RTO backoff is capped and the connection aborts at BSD's
//!   TCP_MAXRXTSHIFT (the default `max_rexmt_shift = 12`), with the
//!   RTO itself saturating at 64× the floor well before the abort;
//! - Karn's algorithm: an ACK of retransmitted data contributes no
//!   RTT sample, and the backed-off shift is held until the ACK
//!   covers the pinned recovery point;
//! - fast retransmit fires on exactly the third duplicate ACK — not
//!   the second, and not again on the fourth.
//!
//! `tcb.rs` unit-tests the same rules against a bare control block;
//! these tests prove the kernel's timer/input plumbing preserves them.

use decstation::CostModel;
use mbuf::Chain;
use simkit::SimTime;
use tcpip::config::{tcp_mss, RTO_MIN_US};
use tcpip::{CaptureDriver, CcVariant, Kernel, PcbKey, SockId, StackConfig};

const MTU: usize = 9188;

/// Two kernels with pre-established, sequence-aligned connections
/// (the handshake is not under test here).
fn pair(cfg: StackConfig) -> (Kernel, Kernel, SockId, SockId) {
    let costs = CostModel::calibrated();
    let mut a = Kernel::new(cfg, costs.clone());
    let mut b = Kernel::new(cfg, costs);
    let key = PcbKey {
        laddr: [10, 0, 0, 1],
        lport: 1055,
        faddr: [10, 0, 0, 2],
        fport: 4242,
    };
    let (sa, sb) = Kernel::connect_pair(&mut a, &mut b, key, tcp_mss(MTU, cfg.mss_one_cluster));
    (a, b, sa, sb)
}

/// Delivers one raw datagram into a kernel's IP queue and runs the
/// software interrupt.
fn deliver(k: &mut Kernel, drv: &mut CaptureDriver, t: SimTime, pkt: &[u8]) {
    let (chain, _) = Chain::from_user_data(&k.pool, pkt, pkt.len() > 1024);
    let at = k.enqueue_ip(t, chain).expect("ipq accepts");
    let _ = k.ipintr(at, drv);
}

/// Makes sure the receiver has emitted its pending ACK: a lone
/// in-order segment only arms the delayed-ACK timer, so fire it.
fn force_ack(k: &mut Kernel, drv: &mut CaptureDriver, t: SimTime) -> Vec<u8> {
    if drv.packets.is_empty() {
        let dl = k.next_deadline().expect("delack armed");
        let _ = k.check_timers(dl.max(t) + SimTime::from_us(1), drv);
    }
    assert!(!drv.packets.is_empty(), "receiver produced no ACK");
    drv.packets.remove(0)
}

#[test]
fn backoff_caps_and_aborts_at_default_maxrxtshift() {
    let cfg = StackConfig::default();
    assert_eq!(cfg.max_rexmt_shift, 12, "BSD TCP_MAXRXTSHIFT");
    let (mut a, _b, sa, _sb) = pair(cfg);
    let mut da = CaptureDriver::new(MTU);

    let _ = a.syscall_write(SimTime::ZERO, sa, &[3u8; 300], &mut da);
    da.packets.clear(); // The network loses everything, forever.

    let floor = SimTime::from_us(RTO_MIN_US);
    let mut fires = 0u32;
    while let Some(dl) = a.next_deadline() {
        let _ = a.check_timers(dl + SimTime::from_us(1), &mut da);
        da.packets.clear();
        if a.so_error(sa).is_some() {
            break;
        }
        fires += 1;
        assert!(fires <= 12, "must abort at the cap, not retry forever");
        assert_eq!(
            a.tcb(sa).rexmt_shift,
            fires.min(12),
            "shift grows to the cap"
        );
        // The RTO itself saturates at 64× the floor (shift.min(6)),
        // long before the abort limit: fires 6..=12 all wait the
        // same interval.
        assert_eq!(
            a.tcb(sa).rto(),
            floor * (1u64 << fires.min(6)),
            "RTO doubles then saturates at 64× the floor"
        );
    }
    assert_eq!(
        a.stats.rto_fires, 12,
        "one retransmission per shift up to the cap"
    );
    assert_eq!(
        a.stats.conn_aborts, 1,
        "the 13th fire aborts instead of resending"
    );
    assert_eq!(a.so_error(sa), Some(tcpip::tcb::ConnError::TimedOut));
    assert!(a.is_closed(sa), "the PCB is reclaimed");
    assert_eq!(a.next_deadline(), None, "no timer outlives the abort");
}

#[test]
fn karn_acks_of_retransmitted_data_neither_sample_nor_reset_backoff() {
    let cfg = StackConfig::default();
    let (mut a, mut b, sa, sb) = pair(cfg);
    let mut da = CaptureDriver::new(MTU);
    let mut db = CaptureDriver::new(MTU);
    let mss = a.tcb(sa).mss;

    // A clean exchange first, so "no new sample" is distinguishable
    // from "sampling never worked".
    let mut t = SimTime::ZERO;
    let _ = a.syscall_write(t, sa, &[7u8; 512], &mut da);
    let seg = da.packets.remove(0);
    t += SimTime::from_ms(1);
    deliver(&mut b, &mut db, t, &seg);
    let ack = force_ack(&mut b, &mut db, t);
    t += SimTime::from_ms(1);
    deliver(&mut a, &mut da, t, &ack);
    assert_eq!(a.tcb(sa).rtt_samples, 1, "the clean round trip was timed");
    assert_eq!(a.tcb(sa).flight_size(), 0);
    let _ = b.syscall_read(t, sb, 512, &mut Vec::new(), &mut db);
    db.packets.clear(); // Drop any window-update ACK from the read.

    // Two full segments, both lost. The RTO resends only the first
    // (the window collapsed to one MSS).
    let data = vec![9u8; 2 * mss];
    t += SimTime::from_ms(1);
    let _ = a.syscall_write(t, sa, &data, &mut da);
    assert_eq!(da.packets.len(), 2, "two MSS segments in flight");
    da.packets.clear();
    let dl = a.next_deadline().expect("rexmt armed");
    let _ = a.check_timers(dl + SimTime::from_us(1), &mut da);
    assert_eq!(a.stats.rto_fires, 1);
    assert_eq!(a.tcb(sa).rexmt_shift, 1, "backed off once");
    let recover = a.tcb(sa).rexmt_recover.expect("recovery point pinned");
    assert_eq!(recover, a.tcb(sa).snd_max);
    assert_eq!(
        da.packets.len(),
        1,
        "RTO resends one segment at cwnd = 1 MSS"
    );
    let reseg1 = da.packets.remove(0);

    // The ACK of the retransmitted first segment is ambiguous: no
    // RTT sample, and the backoff holds because it stops short of
    // the recovery point.
    t = dl + SimTime::from_ms(1);
    deliver(&mut b, &mut db, t, &reseg1);
    let partial_ack = force_ack(&mut b, &mut db, t);
    t += SimTime::from_ms(1);
    deliver(&mut a, &mut da, t, &partial_ack);
    assert_eq!(
        a.tcb(sa).rtt_samples,
        1,
        "Karn: ambiguous ACK takes no sample"
    );
    assert_eq!(
        a.tcb(sa).rexmt_shift,
        1,
        "backoff held below the recovery point"
    );
    assert_eq!(a.tcb(sa).rexmt_recover, Some(recover));

    // The ACK reopened the window; the kernel resent the second
    // segment. Its ACK covers the recovery point: the backoff resets,
    // but the round trip still yields no sample (the data was part of
    // the retransmitted burst).
    assert!(
        !da.packets.is_empty(),
        "the partial ACK triggered the next resend"
    );
    let reseg2 = da.packets.remove(0);
    t += SimTime::from_ms(1);
    deliver(&mut b, &mut db, t, &reseg2);
    let full_ack = force_ack(&mut b, &mut db, t);
    t += SimTime::from_ms(1);
    deliver(&mut a, &mut da, t, &full_ack);
    assert_eq!(a.tcb(sa).flight_size(), 0, "everything acknowledged");
    assert_eq!(
        a.tcb(sa).rexmt_shift,
        0,
        "recovery point covered: backoff resets"
    );
    assert_eq!(a.tcb(sa).rexmt_recover, None);
    assert_eq!(
        a.tcb(sa).rtt_samples,
        1,
        "no sample from any retransmitted data"
    );
    let mut got = Vec::new();
    let _ = b.syscall_read(t, sb, 2 * mss, &mut got, &mut db);
    assert_eq!(got, data, "payload intact through the recovery");
}

#[test]
fn app_write_during_rto_backoff_preserves_karn_state() {
    let cfg = StackConfig::default();
    let (mut a, _b, sa, _sb) = pair(cfg);
    let mut da = CaptureDriver::new(MTU);
    let floor = SimTime::from_us(RTO_MIN_US);

    // First request; the network loses it and two retransmissions.
    let _ = a.syscall_write(SimTime::ZERO, sa, &[4u8; 400], &mut da);
    da.packets.clear();
    let mut t = SimTime::ZERO;
    for fire in 1..=2u32 {
        let dl = a.next_deadline().expect("rexmt armed");
        t = dl + SimTime::from_us(1);
        let _ = a.check_timers(t, &mut da);
        da.packets.clear();
        assert_eq!(a.tcb(sa).rexmt_shift, fire);
    }
    let shift = a.tcb(sa).rexmt_shift;
    let recover = a.tcb(sa).rexmt_recover.expect("recovery point pinned");
    let deadline = a
        .tcb(sa)
        .rexmt_deadline
        .expect("timer armed for the next fire");
    assert_eq!(a.tcb(sa).rto(), floor * 4, "backed off twice");

    // The application gives up waiting and reissues the request
    // mid-backoff — the tail-tolerant retry path. The write must not
    // touch the retransmission machinery: Karn's backed-off shift and
    // the pinned recovery point hold, and the armed (backed-off)
    // deadline is neither cleared nor shortened to a fresh RTO.
    t += SimTime::from_ms(1);
    let out = a.syscall_write(t, sa, &[4u8; 400], &mut da);
    assert_eq!(out.accepted, 400, "socket buffer has room for the retry");
    da.packets.clear(); // Whatever it sent is lost like the rest.
    assert_eq!(
        a.tcb(sa).rexmt_shift,
        shift,
        "app-level retry must not reset the backoff"
    );
    assert_eq!(
        a.tcb(sa).rexmt_recover,
        Some(recover),
        "recovery point holds across the retry"
    );
    assert_eq!(
        a.tcb(sa).rexmt_deadline,
        Some(deadline),
        "retry neither re-arms nor shortens the backed-off deadline"
    );

    // The next fire continues the existing backoff sequence instead
    // of restarting it.
    let dl = a.next_deadline().expect("rexmt still armed");
    assert_eq!(dl, deadline, "next fire is the pre-retry deadline");
    let _ = a.check_timers(dl + SimTime::from_us(1), &mut da);
    assert_eq!(
        a.tcb(sa).rexmt_shift,
        shift + 1,
        "backoff continues, not restarts"
    );
    assert_eq!(a.tcb(sa).rto(), floor * 8);
}

/// The 3rd-dup-ACK edge, parameterized over every armed variant: the
/// counting rules are shared (a SACK-carrying pure ACK is still a
/// dup; the 2nd dup must not fire; the 4th must not re-fire), while
/// the recovery state entered differs per RFC. Driven through the
/// kernel plumbing end to end — the receiver really emits the dups
/// (and, under SACK, the blocks), and recovery really repairs the
/// stream.
#[test]
fn armed_variants_fire_on_exactly_the_third_duplicate_ack() {
    for cc in CcVariant::ALL {
        let cfg = StackConfig {
            cc,
            initial_cwnd_segs: Some(8),
            ..StackConfig::default()
        };
        let (mut a, mut b, sa, sb) = pair(cfg);
        let mut da = CaptureDriver::new(MTU);
        let mut db = CaptureDriver::new(MTU);
        let mss = a.tcb(sa).mss;

        // Four segments; the first is lost, the rest each force an
        // immediate duplicate ACK out of the receiver.
        let data: Vec<u8> = (0..4 * mss).map(|i| (i % 251) as u8).collect();
        let mut t = SimTime::ZERO;
        let _ = a.syscall_write(t, sa, &data, &mut da);
        assert_eq!(da.packets.len(), 4, "{cc:?}: four MSS segments");
        let pkts: Vec<_> = da.packets.drain(..).collect();
        for p in &pkts[1..] {
            t += SimTime::from_ms(1);
            deliver(&mut b, &mut db, t, p);
        }
        let dups: Vec<_> = db.packets.drain(..).collect();
        assert_eq!(dups.len(), 3, "{cc:?}: one dup per gap arrival");

        // Dups 1 and 2: counted, never fired — SACK blocks included.
        for (n, dupack) in dups.iter().take(2).enumerate() {
            t += SimTime::from_ms(1);
            deliver(&mut a, &mut da, t, dupack);
            assert_eq!(a.tcb(sa).dupacks, n as u32 + 1, "{cc:?}");
            assert_eq!(a.tcb(sa).stats.rexmits, 0, "{cc:?}: dup {} fired", n + 1);
        }
        if cc == CcVariant::Sack {
            assert!(
                !a.tcb(sa).sacked.is_empty(),
                "the dups carried SACK blocks into the scoreboard"
            );
        }

        // Dup 3: exactly one retransmission of the head, and the
        // variant's recovery state.
        t += SimTime::from_ms(1);
        deliver(&mut a, &mut da, t, &dups[2]);
        assert_eq!(a.tcb(sa).stats.rexmits, 1, "{cc:?}: third dup fires once");
        assert_eq!(a.stats.rto_fires, 0, "{cc:?}: no timer involved");
        assert!(!da.packets.is_empty(), "{cc:?}: the head was resent");
        let flight = 4 * mss;
        let ssthresh = (flight / 2).max(2 * mss);
        assert_eq!(a.tcb(sa).ssthresh, ssthresh, "{cc:?}");
        match cc {
            CcVariant::Tahoe => {
                assert_eq!(a.tcb(sa).cwnd, mss, "slow-start restart");
                assert!(!a.tcb(sa).in_recovery);
            }
            CcVariant::Reno | CcVariant::NewReno => {
                assert_eq!(a.tcb(sa).cwnd, ssthresh + 3 * mss, "inflated entry");
                assert!(a.tcb(sa).in_recovery);
            }
            CcVariant::Sack => {
                assert_eq!(a.tcb(sa).cwnd, ssthresh, "no +3 under SACK");
                assert!(a.tcb(sa).in_recovery);
            }
        }
        let resent: Vec<_> = da.packets.drain(..).collect();

        // Dup 4 (replayed): counted, must not re-fire.
        t += SimTime::from_ms(1);
        deliver(&mut a, &mut da, t, &dups[2]);
        assert_eq!(a.tcb(sa).dupacks, 4, "{cc:?}");
        assert_eq!(a.tcb(sa).stats.rexmits, 1, "{cc:?}: dup 4 re-fired");
        da.packets.clear(); // Reno inflation may release new data.

        // Recovery repairs the stream; whatever the variant resent,
        // the receiver ends with the exact bytes.
        for p in &resent {
            t += SimTime::from_ms(1);
            deliver(&mut b, &mut db, t, p);
        }
        let mut acks = vec![force_ack(&mut b, &mut db, t)];
        acks.append(&mut db.packets);
        for ackp in &acks {
            t += SimTime::from_ms(1);
            deliver(&mut a, &mut da, t, ackp);
        }
        // Anything still unacknowledged (Tahoe's rewind leaves the
        // tail to normal transmission) drains through the timer path.
        for _ in 0..8 {
            if a.tcb(sa).flight_size() == 0 && b.rcv_buffered(sb) == 4 * mss {
                break;
            }
            let pkts: Vec<_> = da.packets.drain(..).collect();
            for p in pkts {
                t += SimTime::from_ms(1);
                deliver(&mut b, &mut db, t, &p);
            }
            if b.rcv_buffered(sb) < 4 * mss || db.packets.is_empty() {
                if let Some(dl) = b.next_deadline() {
                    t = t.max(dl) + SimTime::from_us(1);
                    let _ = b.check_timers(t, &mut db);
                }
            }
            let pkts: Vec<_> = db.packets.drain(..).collect();
            for p in pkts {
                t += SimTime::from_ms(1);
                deliver(&mut a, &mut da, t, &p);
            }
            if a.tcb(sa).flight_size() > 0 && da.packets.is_empty() {
                if let Some(dl) = a.next_deadline() {
                    t = t.max(dl) + SimTime::from_us(1);
                    let _ = a.check_timers(t, &mut da);
                }
            }
        }
        assert_eq!(a.tcb(sa).dupacks, 0, "{cc:?}: new ACK reset the count");
        let mut got = Vec::new();
        let _ = b.syscall_read(t, sb, 4 * mss, &mut got, &mut db);
        assert_eq!(got, data, "{cc:?}: payload intact through recovery");
    }
}

#[test]
fn fast_retransmit_fires_on_exactly_the_third_duplicate_ack() {
    let cfg = StackConfig::default();
    let (mut a, mut b, sa, sb) = pair(cfg);
    let mut da = CaptureDriver::new(MTU);
    let mut db = CaptureDriver::new(MTU);
    let mss = a.tcb(sa).mss;

    // Four segments; the first is lost, the rest arrive and each
    // forces an immediate duplicate ACK.
    let data: Vec<u8> = (0..4 * mss).map(|i| (i % 251) as u8).collect();
    let mut t = SimTime::ZERO;
    let _ = a.syscall_write(t, sa, &data, &mut da);
    assert_eq!(da.packets.len(), 4, "four MSS segments in flight");
    let pkts: Vec<_> = da.packets.drain(..).collect();
    for p in &pkts[1..] {
        t += SimTime::from_ms(1);
        deliver(&mut b, &mut db, t, p);
    }
    assert_eq!(
        b.tcb(sb).stats.ooo_segments,
        3,
        "the gap queued three segments"
    );
    let dups: Vec<_> = db.packets.drain(..).collect();
    assert_eq!(dups.len(), 3, "one duplicate ACK per out-of-order arrival");

    // First and second duplicates: counted, nothing resent.
    for (n, dup) in dups.iter().take(2).enumerate() {
        t += SimTime::from_ms(1);
        deliver(&mut a, &mut da, t, dup);
        assert_eq!(a.tcb(sa).dupacks, n as u32 + 1);
        assert_eq!(
            a.tcb(sa).stats.rexmits,
            0,
            "dup {} must not retransmit",
            n + 1
        );
        assert!(da.packets.is_empty(), "dup {} emitted a segment", n + 1);
    }

    // Third duplicate: exactly one fast retransmit, without waiting
    // for the timer.
    t += SimTime::from_ms(1);
    deliver(&mut a, &mut da, t, &dups[2]);
    assert_eq!(
        a.tcb(sa).stats.rexmits,
        1,
        "third dup ACK fires fast retransmit"
    );
    assert_eq!(a.stats.rto_fires, 0, "recovery did not involve the RTO");
    assert!(!da.packets.is_empty(), "the missing segment was resent");
    let resent = da.packets.drain(..).collect::<Vec<_>>();

    // Fourth duplicate (the same ACK replayed): counted, but the
    // retransmit must not fire again.
    t += SimTime::from_ms(1);
    deliver(&mut a, &mut da, t, &dups[2]);
    assert_eq!(a.tcb(sa).dupacks, 4);
    assert_eq!(
        a.tcb(sa).stats.rexmits,
        1,
        "fourth dup ACK must not re-fire"
    );

    // The resent head fills the gap and the receiver ACKs the whole
    // train cumulatively.
    for p in &resent {
        t += SimTime::from_ms(1);
        deliver(&mut b, &mut db, t, p);
    }
    let cum = force_ack(&mut b, &mut db, t);
    let mut acks = vec![cum];
    acks.append(&mut db.packets);
    for ackp in &acks {
        t += SimTime::from_ms(1);
        deliver(&mut a, &mut da, t, ackp);
    }
    assert_eq!(a.tcb(sa).dupacks, 0, "a new ACK resets the duplicate count");
    let mut got = Vec::new();
    let _ = b.syscall_read(t, sb, 4 * mss, &mut got, &mut db);
    assert_eq!(got, data, "payload intact after fast recovery");
}
