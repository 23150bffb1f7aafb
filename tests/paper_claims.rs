//! Integration tests asserting the paper's headline claims hold in
//! the reproduction — the qualitative *shape* results, with
//! tolerances appropriate to a simulation.
//!
//! Each test names the section of the paper it checks.

use tcp_atm_latency::{paper, Experiment, NetKind};

fn rpc(net: NetKind, size: usize, iters: u64) -> Experiment {
    let mut e = Experiment::rpc(net, size);
    e.iterations = iters;
    e.warmup = 8;
    e
}

/// Table 1 / §2.1: "For the small transfer sizes, the network has a
/// large effect on overall latency (e.g., a 919 µs difference in the
/// 4 byte case)" — ATM roughly halves the Ethernet RTT.
#[test]
fn t1_atm_halves_small_message_latency() {
    for size in [4usize, 200] {
        let atm = rpc(NetKind::Atm, size, 100)
            .plan()
            .seed(1)
            .execute()
            .mean_rtt_us();
        let eth = rpc(NetKind::Ether, size, 100)
            .plan()
            .seed(1)
            .execute()
            .mean_rtt_us();
        let dec = (1.0 - atm / eth) * 100.0;
        assert!(
            (35.0..65.0).contains(&dec),
            "size {size}: ATM {atm:.0} vs Ether {eth:.0} = {dec:.1}% decrease"
        );
    }
}

/// Table 1: the measured ATM RTTs track the paper within 12% at every
/// size.
#[test]
fn t1_atm_rtts_track_paper() {
    for (i, &size) in paper::SIZES.iter().enumerate() {
        let got = rpc(NetKind::Atm, size, 120)
            .plan()
            .seed(1)
            .execute()
            .mean_rtt_us();
        let want = paper::T1_ATM_RTT[i];
        let err = ((got - want) / want).abs();
        assert!(
            err < 0.12,
            "size {size}: {got:.0} vs paper {want} ({:.1}%)",
            err * 100.0
        );
    }
}

/// Table 1: the measured Ethernet RTTs track the paper within 15%.
#[test]
fn t1_ethernet_rtts_track_paper() {
    for (i, &size) in paper::SIZES.iter().enumerate() {
        let got = rpc(NetKind::Ether, size, 60)
            .plan()
            .seed(1)
            .execute()
            .mean_rtt_us();
        let want = paper::T1_ETHERNET_RTT[i];
        let err = ((got - want) / want).abs();
        assert!(
            err < 0.15,
            "size {size}: {got:.0} vs paper {want} ({:.1}%)",
            err * 100.0
        );
    }
}

/// §2.3: "data-touching operations, such as copying and checksumming,
/// dominate latency for transfers larger than 200 bytes".
#[test]
fn s23_data_touching_dominates_large_transfers() {
    let r = rpc(NetKind::Atm, 4000, 60).plan().seed(1).execute();
    let data_touching = r.tx.user + r.tx.cksum + r.rx.cksum + r.rx.user + r.rx.driver + r.tx.driver;
    let total = r.tx.total() + r.rx.total();
    assert!(
        data_touching / total > 0.6,
        "data touching {data_touching:.0} of {total:.0}"
    );
    // And NOT for tiny transfers.
    let r4 = rpc(NetKind::Atm, 4, 60).plan().seed(1).execute();
    let dt4 = r4.tx.user + r4.tx.cksum + r4.rx.cksum + r4.rx.user + r4.rx.driver + r4.tx.driver;
    let t4 = r4.tx.total() + r4.rx.total();
    assert!(
        dt4 / t4 < 0.55,
        "tiny transfers are overhead-dominated: {dt4:.0}/{t4:.0}"
    );
}

/// §2.2.4: scheduling (IPQ + Wakeup) is ≈68 µs, about 6-7% of the
/// 4-byte round trip.
#[test]
fn s224_scheduling_share_of_small_rtt() {
    let r = rpc(NetKind::Atm, 4, 120).plan().seed(1).execute();
    let sched = r.rx.ipq + r.rx.wakeup;
    assert!((55.0..85.0).contains(&sched), "IPQ+Wakeup = {sched:.1}");
    let share = 2.0 * sched / r.mean_rtt_us();
    assert!((0.08..0.16).contains(&share), "share {share:.3}");
}

/// §3: header prediction gives only a small improvement for the RPC
/// pattern (PCB cache only), and the client's data fast path never
/// fires in steady state.
#[test]
fn s3_prediction_useless_for_rpc() {
    let base = rpc(NetKind::Atm, 200, 150);
    let with = base.plan().seed(1).execute();
    let without = base.clone().without_prediction().plan().seed(1).execute();
    // Steady-state RPC: no data fast-path hits at the client.
    assert_eq!(with.client_tcp.predict_data_hits, 0);
    // Disabling prediction costs only a few percent.
    let delta = without.mean_rtt_us() - with.mean_rtt_us();
    assert!((0.0..80.0).contains(&delta), "delta {delta:.1} us");
}

/// §3: for unidirectional transfers the fast path fires almost
/// always — receiver on data, sender on ACKs.
#[test]
fn s3_prediction_works_for_bulk() {
    let b = Experiment::bulk(NetKind::Atm, 4000, 200)
        .plan()
        .seed(1)
        .execute();
    let recv_rate =
        b.server_tcp.predict_data_hits as f64 / b.server_tcp.predict_checks.max(1) as f64;
    assert!(recv_rate > 0.8, "receiver fast-path rate {recv_rate:.2}");
    assert!(
        b.client_tcp.predict_ack_hits > 0,
        "sender should fast-path pure ACKs: {:?}",
        b.client_tcp
    );
}

/// §3 + Table 4's 8000-byte row: with two segments per message, the
/// second is predicted (half the received data packets), so
/// disabling prediction hurts the 8 KB case more than the small ones.
#[test]
fn s3_8kb_case_uses_fast_path_for_second_segment() {
    let exp = rpc(NetKind::Atm, 8000, 100);
    let with = exp.plan().seed(1).execute();
    // Exactly one of the two data segments of every response, warm-up
    // iterations included: a rate of exactly 0.5.
    assert_eq!(
        with.client_tcp.predict_data_hits,
        exp.warmup + exp.iterations,
        "second response segment is predicted: {:?}",
        with.client_tcp
    );
}

/// Table 6 / §4.1.1: the integrated copy-and-checksum LOSES on small
/// messages, breaks even between 500 and 1400 bytes, and wins
/// ~20-24% at 8 KB.
#[test]
fn t6_integrated_checksum_breakeven() {
    let at = |size| {
        let base = rpc(NetKind::Atm, size, 100)
            .plan()
            .seed(1)
            .execute()
            .mean_rtt_us();
        let integ = rpc(NetKind::Atm, size, 100)
            .with_integrated_checksum()
            .plan()
            .seed(1)
            .execute()
            .mean_rtt_us();
        (base, integ)
    };
    let (b4, i4) = at(4);
    assert!(i4 > b4 * 1.1, "4 B should lose >10%: {b4:.0} -> {i4:.0}");
    let (b500, i500) = at(500);
    let (b1400, i1400) = at(1400);
    assert!(
        i500 >= b500 * 0.99 || i1400 < b1400,
        "break-even between 500 and 1400"
    );
    assert!(i1400 < b1400, "1400 B should win: {b1400:.0} -> {i1400:.0}");
    let (b8k, i8k) = at(8000);
    let saving = (1.0 - i8k / b8k) * 100.0;
    assert!((15.0..30.0).contains(&saving), "8 KB saving {saving:.1}%");
}

/// Table 7 / §4.2: eliminating the checksum saves little at 4 bytes
/// and ≈35-41% at 8 KB.
#[test]
fn t7_checksum_elimination_savings() {
    let at = |size| {
        let base = rpc(NetKind::Atm, size, 100)
            .plan()
            .seed(1)
            .execute()
            .mean_rtt_us();
        let none = rpc(NetKind::Atm, size, 100)
            .without_checksum()
            .plan()
            .seed(1)
            .execute()
            .mean_rtt_us();
        (1.0 - none / base) * 100.0
    };
    let s4 = at(4);
    assert!(s4 < 6.0, "4 B saving {s4:.1}% should be tiny");
    let s8k = at(8000);
    assert!((28.0..45.0).contains(&s8k), "8 KB saving {s8k:.1}%");
    // Grows with size (the 8 KB point may dip slightly below 4 KB in
    // our overlap structure; the paper's grew monotonically).
    let s500 = at(500);
    let s4000 = at(4000);
    assert!(s4 < s500 && s500 < s4000 && s4000 < s8k + 4.0);
}

/// §1.2: the paper's methodology — results are averages of
/// repetitions; the simulation is deterministic per seed and
/// repetitions agree closely.
#[test]
fn methodology_repetitions_agree() {
    let e = rpc(NetKind::Atm, 500, 60);
    let a = e.plan().seed(1).execute().mean_rtt_us();
    let b = e.plan().seed(2).execute().mean_rtt_us();
    let c = e.plan().seed(3).execute().mean_rtt_us();
    let spread = (a.max(b).max(c) - a.min(b).min(c)) / a;
    assert!(spread < 0.01, "repetitions differ by {spread:.4}");
}

/// End-to-end payload integrity: every byte of every message is
/// verified on both sides, every size, both networks.
#[test]
fn payload_integrity_everywhere() {
    for &size in &paper::SIZES {
        let r = rpc(NetKind::Atm, size, 40).plan().seed(5).execute();
        assert_eq!(r.verify_failures, 0, "ATM size {size}");
    }
    for &size in &[4usize, 1400, 8000] {
        let r = rpc(NetKind::Ether, size, 25).plan().seed(5).execute();
        assert_eq!(r.verify_failures, 0, "Ether size {size}");
    }
}
