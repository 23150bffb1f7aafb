//! Known answers for the cell trains `AtmNic::transmit` stages on a
//! lossy link.
//!
//! Every fault the link and the train shaper apply is armed: bit
//! errors at 1e-4, independent cell loss at 5%, a Gilbert–Elliott
//! burst-loss process, a link-flap window and a
//! reorder/duplicate/jitter shaper. FNV-1a over each staged cell's
//! arrival (ns), fault kind and, for a delivered cell, its 53 bytes
//! pins the trains byte for byte. The answers were recorded when each
//! cell was still built on its own and moved into the train.
//!
//! The datagrams are staged twice on one thread: cold, with no spare
//! trains, and warm, in the trains the cold pass's `atm_receive`
//! handed back, whose slots still hold the cold pass's cells. A stale
//! byte left in a reused slot would show in the CPCS padding of a
//! BOM, EOM or SSM cell.

use atm::{FiberLink, LinkConfig, LinkFault};
use decstation::CostModel;
use faultkit::{FaultSchedule, FlapSchedule, GilbertElliott};
use latency_core::nic::{arm_host, atm_receive, AtmNic, NicMut};
use mbuf::{Chain, MbufPool};
use simkit::SimTime;
use tcpip::{Kernel, SpanRecorder, StackConfig, TxDriver};

const PEER: [u8; 4] = [10, 0, 0, 2];

/// Datagram sizes around the cell boundaries: 36 B fills one SSM
/// cell, 37 B and 44 B need a BOM and an EOM, 200 B is an RPC, 4040 B
/// a 4000-byte TCP segment and 9188 B the ATM MTU. Every size carries
/// the IPv4 destination `transmit` routes by.
const SIZES: [usize; 6] = [36, 37, 44, 200, 4040, 9188];

/// `len` patterned bytes whose IPv4 destination field names [`PEER`].
fn datagram(len: usize, salt: u8) -> Vec<u8> {
    let mut d: Vec<u8> = (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect();
    d[16..20].copy_from_slice(&PEER);
    d
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Folds one staged train into `h`: per cell, its arrival in ns, its
/// fault kind (0 clean, 1 corrupted, 2 lost) and, when delivered, its
/// 53 bytes.
fn fold_train(mut h: u64, train: &[(SimTime, LinkFault)]) -> u64 {
    for (at, fault) in train {
        h = fnv(h, &at.as_ns().to_le_bytes());
        h = match fault {
            LinkFault::Clean(c) => fnv(fnv(h, &[0]), &c.to_bytes()),
            LinkFault::Corrupted(c) => fnv(fnv(h, &[1]), &c.to_bytes()),
            LinkFault::Lost => fnv(h, &[2]),
        };
    }
    h
}

#[test]
fn lossy_trains_match_their_known_answers() {
    let costs = CostModel::calibrated();
    let mut tx = AtmNic::new(FiberLink::new(LinkConfig::default(), 3), costs.clone(), 3);
    tx.add_peer(PEER, 1, 42, 5);
    let mut rx = AtmNic::new(FiberLink::new(LinkConfig::default(), 4), costs.clone(), 4);
    let tx_kernel = Kernel::new(StackConfig::default(), costs.clone());
    let mut rx_kernel = Kernel::new(StackConfig::default(), costs);
    let faults = FaultSchedule {
        ber: 1e-4,
        cell_loss: 0.05,
        ..FaultSchedule::default()
    }
    .with_atm_loss(GilbertElliott {
        p_good_to_bad: 0.02,
        p_bad_to_good: 0.2,
        loss_good: 0.0,
        loss_bad: 0.5,
    })
    .with_link_flap(FlapSchedule::new(
        SimTime::from_us(300),
        SimTime::from_us(2_000),
        SimTime::from_us(60),
    ))
    .with_reorder(0.05)
    .with_duplicate(0.03)
    .with_jitter(0.1, 5_000);
    let pause = arm_host(&faults, &tx_kernel, NicMut::Atm(&mut tx), 17);
    assert_eq!(pause, Ok(None));
    let mut spans = SpanRecorder::new();
    let user = MbufPool::new();

    let mut now = SimTime::ZERO;
    let mut pass = |salt: u8| -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for len in SIZES {
            let (chain, _) = Chain::from_user_data(&user, &datagram(len, salt), len > 1024);
            now = tx.transmit(now, &chain, &mut spans);
        }
        // Every train is folded before any is received, so none of
        // this pass's trains is staged in a slot of another.
        for delivery in &tx.staged {
            h = fold_train(h, &delivery.train);
        }
        for delivery in tx.staged.drain(..) {
            let last = delivery.train.iter().map(|&(t, _)| t).max();
            now = now.max(last.unwrap_or(now));
            let _ = atm_receive(&mut rx_kernel, &mut rx, now, delivery.train);
        }
        h
    };
    let cold = pass(1);
    let warm = pass(2);
    assert_eq!(
        (cold, warm),
        (0xd18e_2175_eecd_ada9, 0xef15_ea2d_0469_605e),
        "FNV-1a of the staged trains, cold and warm"
    );
    // Every fault fired, so every kind of slot was rewritten.
    let link = &tx.link;
    let burst = link.burst.as_ref().map_or(0, |b| b.cells_dropped);
    let shaper = tx.shaper.as_ref().expect("armed");
    let fired = [
        link.cells_corrupted,
        link.cells_flapped,
        burst,
        link.cells_lost - link.cells_flapped - burst,
        shaper.cells_reordered,
        shaper.cells_duplicated,
        shaper.cells_jittered,
    ];
    assert!(fired.iter().all(|&n| n > 0), "{fired:?}");
}
