//! Property tests for the ATM substrate.
//!
//! The load-bearing invariant — the one the paper's §4.2.1 checksum-
//! elimination argument rests on — is **no silent corruption**: for
//! any pattern of cell loss and bit corruption on the wire, the
//! AAL3/4 receiver either delivers the exact original datagram or
//! delivers nothing. It must never hand up wrong bytes.

use atm::{Aal34Reassembler, Aal34Segmenter, Cell, CellHeader};
use cksum::crc::crc10_sar;
use proptest::prelude::*;

fn datagram(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
        .collect()
}

/// Applies a fault plan to a cell train: per-cell `(drop, flip_bit)`.
fn damage(cells: Vec<Cell>, plan: &[(bool, Option<usize>)]) -> Vec<Cell> {
    cells
        .into_iter()
        .enumerate()
        .filter_map(|(i, mut c)| {
            let (drop, flip) = plan.get(i).copied().unwrap_or((false, None));
            if drop {
                return None;
            }
            if let Some(bit) = flip {
                c.flip_bit(bit % (53 * 8));
            }
            Some(c)
        })
        .collect()
}

/// Builds a cell from an arbitrary SAR payload, keeping its LI bits
/// and stamping a valid CRC-10 over them: the cells a CRC-10
/// collision under a high bit error rate can hand the reassembler.
fn crc_valid_cell(mut payload: [u8; 48]) -> Cell {
    payload[46] &= 0xfc;
    let crc = crc10_sar(&payload);
    payload[46] |= (crc >> 8) as u8;
    payload[47] = (crc & 0xff) as u8;
    let hdr = CellHeader {
        gfc: 0,
        vpi: 0,
        vci: 7,
        pt: 0,
        clp: false,
    };
    Cell::new(hdr, payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any cell whose CRC-10 verifies, whatever its segment type,
    /// sequence number and length indicator, yields `Ok` or a typed
    /// error and never panics: pushed into an idle reassembler and
    /// into one with a message in progress, half the time carrying
    /// the sequence number it expects so that COM and EOM reach their
    /// LI checks.
    #[test]
    fn aal34_any_crc_valid_cell_is_ok_or_typed_error(
        mut raw in any::<[u8; 48]>(),
        expected_sn in any::<bool>(),
    ) {
        let cell = crc_valid_cell(raw);
        let mut idle = Aal34Reassembler::new();
        let _ = idle.push(&cell);
        let stats = idle.stats();
        prop_assert_eq!(stats.cells_ok, 1);
        prop_assert!(stats.datagrams_ok + stats.datagrams_dropped <= 1);

        let mut seg = Aal34Segmenter::new(0, 7, 3);
        let train = seg.segment(&datagram(200, 9));
        let mut busy = Aal34Reassembler::new();
        prop_assert_eq!(busy.push(&train[0]), Ok(None));
        if expected_sn {
            raw[0] = (raw[0] & 0xc3) | (1 << 2);
        }
        let _ = busy.push(&crc_valid_cell(raw));
        let stats = busy.stats();
        prop_assert_eq!(stats.cells_ok, 2);
        prop_assert!(stats.datagrams_ok + stats.datagrams_dropped <= 2);
    }

    /// AAL3/4 round-trips any datagram on a clean channel.
    #[test]
    fn aal34_clean_roundtrip(n in 0usize..9000, seed in any::<u8>()) {
        let data = datagram(n, seed);
        let mut seg = Aal34Segmenter::new(0, 7, 3);
        let mut reasm = Aal34Reassembler::new();
        let mut out = None;
        for c in seg.segment(&data) {
            if let Some(d) = reasm.push(&c).unwrap() {
                out = Some(d);
            }
        }
        prop_assert_eq!(out.unwrap(), data);
    }

    /// No silent corruption through AAL3/4: under arbitrary loss and
    /// corruption, anything delivered is byte-identical to something
    /// that was sent.
    #[test]
    fn aal34_never_delivers_wrong_bytes(
        sizes in proptest::collection::vec(1usize..3000, 1..4),
        plan in proptest::collection::vec(
            (any::<bool>(), proptest::option::of(0usize..424)), 0..220),
        seed in any::<u8>(),
    ) {
        let mut seg = Aal34Segmenter::new(0, 7, 3);
        let mut sent = Vec::new();
        let mut cells = Vec::new();
        for (k, &n) in sizes.iter().enumerate() {
            let d = datagram(n, seed.wrapping_add(k as u8));
            cells.extend(seg.segment(&d));
            sent.push(d);
        }
        // Make drops/flips rarer than the raw plan (which is 50/50)
        // so some datagrams survive: only apply plan entries at even
        // indices.
        let plan: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(i, &(drop, flip))| if i % 4 == 0 { (drop, flip) } else { (false, None) })
            .collect();
        let cells = damage(cells, &plan);
        let mut reasm = Aal34Reassembler::new();
        let mut delivered = Vec::new();
        for c in &cells {
            // HEC screening, as the adapter does.
            if !c.header_ok() {
                continue;
            }
            if let Ok(Some(d)) = reasm.push(c) {
                delivered.push(d);
            }
        }
        // Every delivered datagram is byte-identical to a sent one,
        // and deliveries preserve sending order.
        let mut next_candidate = 0usize;
        for d in &delivered {
            let pos = sent[next_candidate..].iter().position(|s| s == d);
            prop_assert!(pos.is_some(), "delivered bytes match nothing sent (len {})", d.len());
            next_candidate += pos.unwrap() + 1;
        }
    }

    /// Cell encode/decode round-trips arbitrary headers and payloads.
    #[test]
    fn cell_roundtrip(vpi in any::<u8>(), vci in any::<u16>(), pt in 0u8..8,
                      payload in proptest::array::uniform32(any::<u8>())) {
        let mut full = [0u8; 48];
        full[..32].copy_from_slice(&payload);
        let hdr = atm::CellHeader { gfc: 0, vpi, vci, pt, clp: false };
        let cell = Cell::new(hdr, full);
        let back = Cell::from_bytes(&cell.to_bytes()).unwrap();
        prop_assert_eq!(back.header(), hdr);
        prop_assert_eq!(back.payload(), &full);
    }

    /// AAL3/4 cell counts match the closed form for every size.
    #[test]
    fn aal34_cell_count_formula(n in 0usize..9000) {
        let mut seg = Aal34Segmenter::new(0, 7, 3);
        let cells = seg.segment(&datagram(n, 1));
        prop_assert_eq!(cells.len(), Aal34Segmenter::cells_for(n));
    }
}
