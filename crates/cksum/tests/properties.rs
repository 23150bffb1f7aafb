//! Property-based tests for the checksum algebra.
//!
//! These pin down the invariants the kernel integration relies on:
//! algorithm agreement, partial-sum combination at arbitrary split
//! points, incremental update, and error detection of the checksum as
//! actually used on the wire; and each table-driven CRC (CRC-10,
//! CRC-32, HEC) against a bit-serial reference.

use cksum::crc::{crc10_sar, crc32, hec};
use cksum::{
    copy_and_cksum, naive_cksum, optimized_cksum, pseudo_header_sum, ultrix_cksum, PartialChecksum,
    Sum16,
};
use proptest::prelude::*;

/// Bit-serial CRC-10 over the first `nbits` bits of `data`, MSB-first,
/// zero initial value, non-augmented: the reference the slicing-by-8
/// `crc10_sar` must agree with at `nbits = 374`. Polynomial bits below x^10:
/// x^9+x^5+x^4+x+1 = 0x233.
fn crc10_reference(data: &[u8], nbits: usize) -> u16 {
    let mut crc: u16 = 0;
    for i in 0..nbits {
        let bit = (data[i / 8] >> (7 - i % 8)) & 1;
        let feedback = ((crc >> 9) as u8 ^ bit) & 1;
        crc = (crc << 1) & 0x3ff;
        if feedback != 0 {
            crc ^= 0x233;
        }
    }
    crc
}

/// Bit-serial IEEE 802.3 CRC-32 (reflected polynomial `0xEDB88320`,
/// init all-ones, final inversion): the reference the slicing-by-8
/// `crc32` must agree with. This was `crc32`'s own body before it took
/// tables.
fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xedb8_8320;
            }
        }
    }
    !crc
}

/// Bit-serial ATM HEC: CRC-8 with generator `x^8 + x^2 + x + 1`
/// over the four header octets, XORed with the coset leader 0x55. The
/// reference the byte-table `hec` must agree with; this was `hec`'s
/// own body before it took a table.
fn hec_reference(header4: [u8; 4]) -> u8 {
    let mut crc: u8 = 0;
    for byte in header4 {
        crc ^= byte;
        for _ in 0..8 {
            if crc & 0x80 != 0 {
                crc = (crc << 1) ^ 0x07;
            } else {
                crc <<= 1;
            }
        }
    }
    crc ^ 0x55
}

/// A deterministic pseudo-random buffer (64-bit LCG, high byte).
fn lcg_bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 56) as u8
        })
        .collect()
}

/// Every prefix length from empty to the largest Ethernet frame
/// (1518 bytes), so every remainder mod 8 meets every chunk count.
/// The published check value pins the reference itself.
#[test]
fn crc32_matches_bit_serial_reference_at_every_length() {
    assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
    for seed in [1u64, 0x5eed] {
        let buf = lcg_bytes(1518, seed);
        for len in 0..=buf.len() {
            assert_eq!(
                crc32(&buf[..len]),
                crc32_reference(&buf[..len]),
                "len {len}"
            );
        }
    }
    let ones = [0xffu8; 1518];
    assert_eq!(crc32(&ones), crc32_reference(&ones));
}

/// Every value of each header octet, the other three held at zero
/// and at a fixed header.
#[test]
fn hec_matches_bit_serial_reference_at_every_octet_value() {
    for base in [[0u8; 4], [0x12, 0x34, 0x56, 0x78]] {
        for pos in 0..4 {
            for v in 0..=255u8 {
                let mut h = base;
                h[pos] = v;
                assert_eq!(hec(h), hec_reference(h), "header {h:02x?}");
            }
        }
    }
}

/// Known answers, independent of both implementations: `0x199` is the
/// published CRC-10/ATM check value of "123456789", which pins the
/// reference itself; `0x1c8` was computed for a SAR-PDU with the
/// bit-serial implementation the CRC-10 had before it took tables.
#[test]
fn crc10_known_answers() {
    assert_eq!(crc10_reference(b"123456789", 72), 0x199);
    let pdu: [u8; 48] = std::array::from_fn(|i| (i as u32 * 37 + 11) as u8);
    assert_eq!(crc10_sar(&pdu), 0x1c8);
    assert_eq!(crc10_reference(&pdu, 46 * 8 + 6), 0x1c8);
}

/// CRC-10 is linear over GF(2) with a zero initial value and no final
/// XOR: the CRC of `a ^ b` is the CRC of `a` XOR the CRC of `b`. So a
/// kernel that matches the reference on the zero PDU and on each of
/// the 374 single-bit PDUs matches it on every PDU. The ten bits of
/// the CRC field itself are not covered: flipping any of them, on the
/// zero PDU and on a patterned one, leaves the result unchanged.
#[test]
fn crc10_sar_matches_reference_by_linearity() {
    const COVERED: usize = 46 * 8 + 6;
    assert_eq!(crc10_sar(&[0u8; 48]), 0);
    assert_eq!(crc10_reference(&[0u8; 48], COVERED), 0);
    for bit in 0..COVERED {
        let mut pdu = [0u8; 48];
        pdu[bit / 8] = 0x80 >> (bit % 8);
        assert_eq!(crc10_sar(&pdu), crc10_reference(&pdu, COVERED), "bit {bit}");
    }
    let patterned: [u8; 48] = std::array::from_fn(|i| (i as u32 * 37 + 11) as u8);
    for base in [[0u8; 48], patterned] {
        for bit in COVERED..48 * 8 {
            let mut pdu = base;
            pdu[bit / 8] ^= 0x80 >> (bit % 8);
            assert_eq!(crc10_sar(&pdu), crc10_sar(&base), "CRC-field bit {bit}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every implementation computes the same sum as the reference.
    #[test]
    fn algorithms_agree(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let expect = naive_cksum(&data);
        prop_assert_eq!(ultrix_cksum(&data), expect);
        prop_assert_eq!(optimized_cksum(&data), expect);
        let mut dst = vec![0u8; data.len()];
        prop_assert_eq!(copy_and_cksum(&data, &mut dst), expect);
        prop_assert_eq!(dst, data);
    }

    /// Splitting a buffer anywhere and combining partial checksums
    /// yields the checksum of the whole.
    #[test]
    fn partial_combination(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((data.len() as f64) * split_frac) as usize;
        let (a, b) = data.split_at(split);
        let combined = PartialChecksum::over(a).append(PartialChecksum::over(b));
        prop_assert_eq!(combined.sum(), naive_cksum(&data));
        prop_assert_eq!(combined.len(), data.len());
    }

    /// Chunking a buffer into many arbitrary pieces preserves the sum.
    #[test]
    fn many_chunk_combination(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        chunk in 1usize..97,
    ) {
        let combined = data
            .chunks(chunk)
            .map(PartialChecksum::over)
            .fold(PartialChecksum::EMPTY, PartialChecksum::append);
        prop_assert_eq!(combined.sum(), naive_cksum(&data));
    }

    /// A packet carrying its own checksum at an even offset always
    /// verifies; flipping any single bit afterwards always fails
    /// verification.
    #[test]
    fn embedded_checksum_detects_single_bit_errors(
        mut data in proptest::collection::vec(any::<u8>(), 2..512),
        flip_byte_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        // Force even length so the checksum lands on a halfword.
        if data.len() % 2 == 1 {
            data.pop();
        }
        let c = naive_cksum(&data).finish();
        data.extend_from_slice(&c.to_be_bytes());
        prop_assert!(Sum16::over(&data).is_valid());

        let idx = ((data.len() as f64) * flip_byte_frac) as usize % data.len();
        data[idx] ^= 1 << flip_bit;
        prop_assert!(!Sum16::over(&data).is_valid());
    }

    /// RFC 1624 incremental update agrees with recomputation for any
    /// halfword replacement.
    #[test]
    fn incremental_update(
        mut data in proptest::collection::vec(any::<u8>(), 2..512),
        word_frac in 0.0f64..1.0,
        new_word in any::<u16>(),
    ) {
        if data.len() % 2 == 1 {
            data.pop();
        }
        let words = data.len() / 2;
        let wi = ((words as f64) * word_frac) as usize % words;
        let before = naive_cksum(&data);
        let old = u16::from_be_bytes([data[2 * wi], data[2 * wi + 1]]);
        data[2 * wi..2 * wi + 2].copy_from_slice(&new_word.to_be_bytes());
        prop_assert_eq!(before.update_word(old, new_word), naive_cksum(&data));
    }

    /// The pseudo-header sum composes with a payload sum exactly as a
    /// flat byte concatenation would.
    #[test]
    fn pseudo_header_composes(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let tlen = payload.len() as u16;
        let via_api = pseudo_header_sum(src, dst, 6, tlen).add(naive_cksum(&payload));
        let mut flat = Vec::new();
        flat.extend_from_slice(&src);
        flat.extend_from_slice(&dst);
        flat.push(0);
        flat.push(6);
        flat.extend_from_slice(&tlen.to_be_bytes());
        flat.extend_from_slice(&payload);
        prop_assert_eq!(via_api, naive_cksum(&flat));
    }

    /// The AAL3/4 SAR shape: a 48-byte cell payload, CRC over the
    /// 46-byte header and payload plus the 6-bit LI.
    #[test]
    fn crc10_sar_cell_matches_bit_serial_reference(cell in any::<[u8; 48]>()) {
        prop_assert_eq!(crc10_sar(&cell), crc10_reference(&cell, 46 * 8 + 6));
    }

    /// CRC-32 agrees with the bit-serial reference on sub-slices
    /// starting at offsets 1-7, so the eight-byte chunks fall at
    /// every alignment.
    #[test]
    fn crc32_matches_bit_serial_reference_at_offsets(
        data in proptest::collection::vec(any::<u8>(), 7..1600),
    ) {
        for off in 1..8 {
            prop_assert_eq!(crc32(&data[off..]), crc32_reference(&data[off..]), "offset {}", off);
        }
    }

    /// The HEC agrees with the bit-serial reference on any header.
    #[test]
    fn hec_matches_bit_serial_reference(h in any::<[u8; 4]>()) {
        prop_assert_eq!(hec(h), hec_reference(h));
    }

    /// Byte swap is an involution and distributes over the sum.
    #[test]
    fn swap_involution(a in any::<u16>(), b in any::<u16>()) {
        let sa = Sum16::from_raw(a);
        let sb = Sum16::from_raw(b);
        prop_assert_eq!(sa.swapped().swapped(), sa);
        prop_assert_eq!(sa.add(sb).swapped(), sa.swapped().add(sb.swapped()));
    }
}
