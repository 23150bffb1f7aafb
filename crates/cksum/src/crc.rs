//! Cyclic redundancy checks used by the link layers.
//!
//! Three CRCs appear in the reproduced system:
//!
//! - **CRC-10** protects each AAL3/4 SAR cell payload (ITU-T I.363,
//!   generator `x^10 + x^9 + x^5 + x^4 + x + 1`).
//! - **CRC-32** protects the AAL5 CPCS-PDU and every Ethernet frame
//!   (IEEE 802.3, the usual reflected 0x04C11DB7 polynomial).
//! - **HEC** (CRC-8, `x^8 + x^2 + x + 1`, coset 0x55) protects the
//!   ATM cell header.
//!
//! §4.2.1 of the paper leans on these: "standard ATM adaptation
//! layers (e.g., AAL3/4 and AAL5) specify end-to-end CRC checksums on
//! the data, and host-network interfaces implement these in
//! hardware". The checksum-elimination experiments re-create that
//! layering: when the TCP checksum is off, these CRCs are the only
//! integrity checks left, and the error-injection experiment measures
//! what each layer catches.

/// One bit-serial step of the non-augmented CRC-10 register: the
/// feedback is the register's top bit XOR the input bit, so appending
/// the CRC itself then divides to zero. Polynomial bits below x^10:
/// x^9+x^5+x^4+x+1 = 0x233.
const fn crc10_step(crc: u16, bit: u8) -> u16 {
    let feedback = ((crc >> 9) as u8 ^ bit) & 1;
    let crc = (crc << 1) & 0x3ff;
    if feedback != 0 {
        crc ^ 0x233
    } else {
        crc
    }
}

/// Entry `i` is the register `i << 2` after eight zero input bits:
/// the whole-byte step `crc10_bits` takes.
const CRC10_TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 2;
        let mut k = 0;
        while k < 8 {
            crc = crc10_step(crc, 0);
            k += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Computes the 10-bit AAL3/4 SAR CRC over the first `nbits` bits of
/// `data` (MSB-first within each byte): generator
/// `x^10+x^9+x^5+x^4+x+1` (polynomial bits `0x633`), zero initial
/// value, no final XOR. Over a whole buffer pass `data.len() * 8`; a
/// buffer whose final 10 bits carry its own CRC then yields zero.
///
/// AAL3/4 needs sub-byte granularity: the SAR-PDU trailer packs a
/// 6-bit length indicator and the 10-bit CRC into two bytes, so the
/// CRC covers a bit count that is not a multiple of eight.
///
/// A 256-entry table computed at compile time takes the whole bytes,
/// one lookup each; the `nbits % 8` leftover bits (the 6-bit LI of a
/// SAR cell) go through the bit-serial step. The property test
/// `crc10_table_matches_bit_serial_reference` in
/// `crates/cksum/tests/properties.rs` pins this to a bit-serial
/// reference at every `nbits`.
///
/// # Examples
///
/// ```
/// use cksum::crc::crc10_bits;
///
/// assert_eq!(crc10_bits(&[0u8; 44], 44 * 8), 0);
/// assert_ne!(crc10_bits(b"data", 4 * 8), 0);
/// ```
///
/// # Panics
///
/// Panics if `nbits` exceeds the available bits.
#[must_use]
pub fn crc10_bits(data: &[u8], nbits: usize) -> u16 {
    assert!(nbits <= data.len() * 8, "nbits out of range");
    let (whole, rest) = data.split_at(nbits / 8);
    let mut crc: u16 = 0;
    for &byte in whole {
        crc = ((crc << 8) & 0x3ff) ^ CRC10_TABLE[usize::from((crc >> 2) as u8 ^ byte)];
    }
    for i in 0..nbits % 8 {
        crc = crc10_step(crc, rest[0] >> (7 - i));
    }
    crc
}

/// The IEEE 802.3 CRC-32 (reflected, init all-ones, final inversion).
///
/// # Examples
///
/// ```
/// use cksum::crc::crc32;
///
/// // The classic check value.
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
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

/// The ATM Header Error Control byte: CRC-8 with generator
/// `x^8 + x^2 + x + 1` over the first four header octets, XORed with
/// the coset leader 0x55 (ITU-T I.432).
#[must_use]
pub fn hec(header4: [u8; 4]) -> u8 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[i] ^= 1 << bit;
                assert_ne!(crc32(&bad), clean);
            }
        }
    }

    #[test]
    fn crc10_is_10_bits() {
        for pattern in [&b"hello"[..], &[0xffu8; 44][..], &[0x01u8][..]] {
            assert!(crc10_bits(pattern, pattern.len() * 8) <= 0x3ff);
        }
    }

    #[test]
    fn crc10_roundtrip_appended() {
        // AAL3/4 style: compute over payload + 6-bit LI, then stuff
        // the CRC into the final 10 bits; re-checking the whole
        // divides to zero.
        let payload = b"0123456789abcdef0123456789abcdef0123456789ab"; // 44 B.
        let mut cell = Vec::from(&payload[..]);
        cell.push(44 << 2); // LI in the top 6 bits of the trailer halfword.
        cell.push(0);
        let covered_bits = 44 * 8 + 6;
        let c = crc10_bits(&cell, covered_bits);
        let n = cell.len();
        cell[n - 2] |= (c >> 8) as u8;
        cell[n - 1] = (c & 0xff) as u8;
        assert_eq!(crc10_bits(&cell, n * 8), 0);
        // Any corruption breaks it.
        cell[3] ^= 0x40;
        assert_ne!(crc10_bits(&cell, n * 8), 0);
    }

    #[test]
    #[should_panic(expected = "nbits out of range")]
    fn crc10_bits_range_checked() {
        let _ = crc10_bits(&[0u8; 2], 17);
    }

    #[test]
    fn crc10_detects_burst_errors_within_10_bits() {
        let payload = vec![0xa5u8; 44];
        let clean = crc10_bits(&payload, payload.len() * 8);
        for start in (0..payload.len() * 8 - 10).step_by(13) {
            let mut bad = payload.clone();
            // Flip a 10-bit burst starting at `start`.
            for b in start..start + 10 {
                bad[b / 8] ^= 1 << (b % 8);
            }
            assert_ne!(crc10_bits(&bad, bad.len() * 8), clean, "burst at {start}");
        }
    }

    #[test]
    fn hec_distinguishes_headers() {
        let a = hec([0x00, 0x00, 0x00, 0x10]);
        let b = hec([0x00, 0x00, 0x01, 0x10]);
        assert_ne!(a, b);
        // The coset leader makes the all-zero header nonzero.
        assert_eq!(hec([0, 0, 0, 0]), 0x55);
    }
}
