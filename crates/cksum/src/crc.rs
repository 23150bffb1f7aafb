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
//!
//! Every cell and frame computes its CRCs over real bytes, so all
//! three are table-driven, one implementation each. CRC-10 has one
//! shape only, the 374 covered bits of a 48-byte SAR-PDU, and takes
//! exactly six slicing-by-8 steps per cell; CRC-32 takes eight bytes
//! per step through eight compile-time tables plus a byte tail; the
//! HEC takes one byte-table lookup per octet. This is host cost only;
//! simulated time comes from the DECstation cost model.
//! `crates/cksum/tests/properties.rs` pins each to a bit-serial
//! reference.

/// The CRC-10 generator's bits below x^10 (x^9+x^5+x^4+x+1 = 0x233),
/// left-aligned in the 16-bit register `crc10_sar` keeps.
const CRC10_POLY: u16 = 0x233 << 6;

/// One step of the left-aligned, non-augmented CRC-10 register: the
/// top bit shifts out and, if set, the generator is XORed in. The
/// low six bits stay zero, so `reg >> 6` is the 10-bit CRC.
const fn crc10_step(reg: u16) -> u16 {
    if reg & 0x8000 != 0 {
        (reg << 1) ^ CRC10_POLY
    } else {
        reg << 1
    }
}

/// Slicing-by-8 tables for CRC-10: `CRC10_TABLES[k][i]` is the
/// left-aligned register after byte `i` followed by `k` zero bytes.
static CRC10_TABLES: [[u16; 256]; 8] = {
    let mut t = [[0u16; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut reg = (i as u16) << 8;
        let mut b = 0;
        while b < 8 {
            reg = crc10_step(reg);
            b += 1;
        }
        t[0][i] = reg;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// The 10-bit AAL3/4 SAR CRC of a 48-byte SAR-PDU: generator
/// `x^10+x^9+x^5+x^4+x+1` (polynomial bits `0x633`), zero initial
/// value, no final XOR, over the first 374 bits (MSB-first) — the
/// 2-byte SAR header, the 44-byte payload and the 6-bit length
/// indicator. The last 10 bits, where the CRC itself travels, are
/// not covered, so the sender stamps the result there and the
/// receiver compares it with the stamped field.
///
/// Leading zero bits do not change a zero-initialised CRC, so the
/// 374 covered bits are taken as a 384-bit message with ten leading
/// zeros: the six big-endian `u64` words of the PDU shifted right by
/// 10 bits. Each word is one slicing-by-8 step: the left-aligned
/// 16-bit register is XORed into its top, and eight independent
/// lookups into compile-time tables give the new register. There is
/// no byte or bit tail. `crc10_sar_matches_reference_by_linearity` in
/// `crates/cksum/tests/properties.rs` pins this to a bit-serial
/// reference on every input.
///
/// # Examples
///
/// ```
/// use cksum::crc::crc10_sar;
///
/// assert_eq!(crc10_sar(&[0u8; 48]), 0);
/// // The CRC field (the last 10 bits) is not covered.
/// let mut pdu = [0u8; 48];
/// pdu[47] = 0xff;
/// assert_eq!(crc10_sar(&pdu), 0);
/// ```
#[must_use]
pub fn crc10_sar(pdu: &[u8; 48]) -> u16 {
    let t = &CRC10_TABLES;
    let mut reg: u16 = 0;
    let mut prev: u64 = 0;
    for chunk in pdu.chunks_exact(8) {
        let word = u64::from_be_bytes(chunk.try_into().expect("8 bytes"));
        let x = ((prev << 54) | (word >> 10)) ^ (u64::from(reg) << 48);
        prev = word;
        reg = t[7][usize::from((x >> 56) as u8)]
            ^ t[6][usize::from((x >> 48) as u8)]
            ^ t[5][usize::from((x >> 40) as u8)]
            ^ t[4][usize::from((x >> 32) as u8)]
            ^ t[3][usize::from((x >> 24) as u8)]
            ^ t[2][usize::from((x >> 16) as u8)]
            ^ t[1][usize::from((x >> 8) as u8)]
            ^ t[0][usize::from(x as u8)];
    }
    reg >> 6
}

/// Slicing-by-8 tables for the reflected CRC-32 (polynomial
/// `0xEDB88320`): `CRC32_TABLES[k][i]` is the register after byte `i`
/// followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            b += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// The IEEE 802.3 CRC-32 (reflected, init all-ones, final inversion).
///
/// Reflected slicing-by-8: each eight-byte chunk is read as two
/// little-endian `u32` words, the register is XORed into the first,
/// and eight independent lookups into compile-time tables give the
/// new register; the last `len % 8` bytes take table 0, one lookup
/// each. The `crc32_matches_bit_serial_reference_*` tests in
/// `crates/cksum/tests/properties.rs` pin it to a bit-serial
/// reference.
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
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xffff_ffff;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
        crc = t[7][usize::from(lo as u8)]
            ^ t[6][usize::from((lo >> 8) as u8)]
            ^ t[5][usize::from((lo >> 16) as u8)]
            ^ t[4][usize::from((lo >> 24) as u8)]
            ^ t[3][usize::from(hi as u8)]
            ^ t[2][usize::from((hi >> 8) as u8)]
            ^ t[1][usize::from((hi >> 16) as u8)]
            ^ t[0][usize::from((hi >> 24) as u8)];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ byte)];
    }
    !crc
}

/// CRC-8 table for the HEC (generator `x^8 + x^2 + x + 1`, bits
/// `0x07`): entry `i` is the register after byte `i`.
static HEC_TABLE: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u8;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
            b += 1;
        }
        t[i] = crc;
        i += 1;
    }
    t
};

/// The ATM Header Error Control byte: CRC-8 with generator
/// `x^8 + x^2 + x + 1` over the first four header octets, XORed with
/// the coset leader 0x55 (ITU-T I.432). One table lookup per octet;
/// `hec_matches_bit_serial_reference` in
/// `crates/cksum/tests/properties.rs` pins it to a bit-serial
/// reference.
#[must_use]
pub fn hec(header4: [u8; 4]) -> u8 {
    header4
        .into_iter()
        .fold(0u8, |crc, byte| HEC_TABLE[usize::from(crc ^ byte)])
        ^ 0x55
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

    /// A 48-byte SAR-PDU carrying `payload` with length indicator
    /// `li` and an empty CRC field.
    fn sar_pdu(payload: &[u8], li: u8) -> [u8; 48] {
        let mut pdu = [0u8; 48];
        pdu[..payload.len()].copy_from_slice(payload);
        pdu[46] = li << 2;
        pdu
    }

    #[test]
    fn crc10_is_10_bits() {
        for pdu in [sar_pdu(b"hello", 5), [0xffu8; 48], sar_pdu(&[0x01], 1)] {
            assert!(crc10_sar(&pdu) <= 0x3ff);
        }
    }

    #[test]
    fn crc10_roundtrip_appended() {
        // AAL3/4 style: compute over header, payload and the 6-bit LI,
        // then stuff the CRC into the final 10 bits. The stamp does
        // not change the CRC (its bits are not covered), so the
        // receiver's recomputation matches the stamped field.
        let mut pdu = sar_pdu(b"0123456789abcdef0123456789abcdef0123456789abcd", 44);
        let c = crc10_sar(&pdu);
        pdu[46] |= (c >> 8) as u8;
        pdu[47] = (c & 0xff) as u8;
        let stamped = (u16::from(pdu[46] & 0x3) << 8) | u16::from(pdu[47]);
        assert_eq!(crc10_sar(&pdu), stamped);
        // Any corruption of a covered bit breaks it.
        pdu[3] ^= 0x40;
        assert_ne!(crc10_sar(&pdu), stamped);
    }

    #[test]
    fn crc10_detects_burst_errors_within_10_bits() {
        let pdu = sar_pdu(&[0xa5u8; 46], 44);
        let clean = crc10_sar(&pdu);
        // Every 10-bit burst (MSB-first bit order) inside the 374
        // covered bits.
        for start in 0..=374 - 10 {
            let mut bad = pdu;
            for b in start..start + 10 {
                bad[b / 8] ^= 0x80 >> (b % 8);
            }
            assert_ne!(crc10_sar(&bad), clean, "burst at {start}");
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
