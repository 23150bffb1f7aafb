//! Cyclic redundancy checks used by the link layers.
//!
//! Three CRCs appear in the reproduced system:
//!
//! - **CRC-10** protects each AAL3/4 SAR cell payload (ITU-T I.363,
//!   generator `x^10 + x^9 + x^5 + x^4 + x + 1`).
//! - **CRC-32** protects every Ethernet frame
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
//! Every cell and frame computes its CRCs over real bytes, so each
//! is written for speed; this is host cost only, and simulated time
//! comes from the DECstation cost model. CRC-10 has one shape only,
//! the 374 covered bits of a 48-byte SAR-PDU. On an x86_64 CPU with
//! PCLMULQDQ and SSSE3, detected at run time, CRC-10 folds the PDU's
//! three 16-byte words with five carry-less multiplies and one Barrett
//! step, and CRC-32 folds buffers of 128 bytes or more 64 bytes per
//! step (the `clmul` module, the workspace's only `unsafe` library
//! code). Elsewhere, and for CRC-32's shorter buffers and last
//! `len % 16` bytes, the portable bodies run: six slicing-by-8 steps
//! per CRC-10, and eight bytes per step through eight compile-time
//! tables plus a byte tail for CRC-32. No flag or setting chooses a
//! path. The HEC takes one byte-table lookup per octet. The unit tests
//! below pin each CRC-10 and CRC-32 path, and
//! `crates/cksum/tests/properties.rs` each public function, to a
//! bit-serial reference.

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
/// On an x86_64 CPU with PCLMULQDQ (detected at run time) the
/// carry-less-multiply kernel in `clmul` computes it; elsewhere
/// `crc10_sar_portable` does. Both give the same result on every
/// input; the unit tests below pin each to a bit-serial reference.
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
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc10_sar(pdu) {
        return crc;
    }
    crc10_sar_portable(pdu)
}

/// The portable body of [`crc10_sar`]. Leading zero bits do not
/// change a zero-initialised CRC, so the 374 covered bits are taken
/// as a 384-bit message with ten leading zeros: the six big-endian
/// `u64` words of the PDU shifted right by 10 bits. Each word is one
/// slicing-by-8 step: the left-aligned 16-bit register is XORed into
/// its top, and eight independent lookups into compile-time tables
/// give the new register. There is no byte or bit tail.
fn crc10_sar_portable(pdu: &[u8; 48]) -> u16 {
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
/// On an x86_64 CPU with PCLMULQDQ (detected at run time) a buffer of
/// at least 128 bytes is folded 16 bytes at a time by the
/// carry-less-multiply kernel in `clmul`, and only its last
/// `len % 16` bytes go through `crc32_portable`; shorter buffers
/// and other CPUs take `crc32_portable` throughout. The
/// `crc32_matches_bit_serial_reference_*` tests in
/// `crates/cksum/tests/properties.rs` pin the result, and the unit
/// tests below each path, to a bit-serial reference.
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
    let (reg, tail) = (0xffff_ffff, data);
    #[cfg(target_arch = "x86_64")]
    let (reg, tail) = clmul::crc32_blocks(reg, tail);
    !crc32_portable(reg, tail)
}

/// Reflected slicing-by-8 over `data`, from register `crc` (not
/// inverted) to the register after the last byte: each eight-byte
/// chunk is read as two little-endian `u32` words, the register is
/// XORed into the first, and eight independent lookups into
/// compile-time tables give the new register; the last `len % 8`
/// bytes take table 0, one lookup each.
fn crc32_portable(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
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
    crc
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

/// Carry-less-multiply kernels for CRC-10 and CRC-32 on x86_64
/// (PCLMULQDQ), after Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009): fold the
/// message by multiplying 64-bit halves by `x^k mod P`, then reduce
/// the last fold with one Barrett step. Every constant is computed at
/// compile time from the generator by `xpow_divmod`.
///
/// This module holds the workspace's only `unsafe` library code: the
/// unaligned 16-byte loads and the calls into the `#[target_feature]`
/// kernels, each made only after `detected` has checked the CPU at run
/// time. On a CPU without the features the public functions take the
/// portable bodies above.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi128_si64,
        _mm_cvtsi32_si128, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_set_epi8,
        _mm_shuffle_epi8, _mm_slli_si128, _mm_srli_epi64, _mm_srli_si128, _mm_xor_si128,
    };

    /// Whether this CPU runs the kernels: PCLMULQDQ, and SSSE3 for
    /// the byte shuffle of CRC-10's big-endian loads.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("ssse3")
    }

    /// `(x^k div P, x^k mod P)` for the generator `poly` of degree
    /// `deg` (its bits, x^deg included), by long division one power
    /// of x at a time.
    const fn xpow_divmod(k: u32, poly: u64, deg: u32) -> (u128, u64) {
        let (mut quot, mut rem) = (0u128, 1u64);
        let mut i = 0;
        while i < k {
            quot <<= 1;
            rem <<= 1;
            if (rem >> deg) & 1 != 0 {
                rem ^= poly;
                quot |= 1;
            }
            i += 1;
        }
        (quot, rem)
    }

    /// The CRC-10 generator x^10+x^9+x^5+x^4+x+1.
    const P10: u64 = 0x633;

    /// `(x^k mod P10)·x^54`: a fold constant that leaves each product
    /// scaled by x^54, so that `floor(S / x^10)` of the folded sum `S`
    /// is exactly the high 64-bit lane. For k = 320, 256, 192, 128
    /// and 64, the positions of the five high 64-bit halves of a PDU.
    const FOLD10: [i64; 5] = {
        let mut k = [0i64; 5];
        let mut i = 0;
        while i < k.len() {
            k[i] = (xpow_divmod(320 - 64 * i as u32, P10, 10).1 << 54) as i64;
            i += 1;
        }
        k
    };

    /// The Barrett constant `floor(x^74 / P10)` without its x^64 term.
    const MU10: i64 = xpow_divmod(74, P10, 10).0 as u64 as i64;

    /// The IEEE 802.3 CRC-32 generator, x^32 included.
    const P32: u64 = 0x1_04c1_1db7;

    /// The low `bits` bits of `v`, in reverse order.
    const fn reflect(v: u64, bits: u32) -> u64 {
        v.reverse_bits() >> (64 - bits)
    }

    /// The reflected-domain constant that moves 64 bits `d` bits
    /// further on: `(x^(d-32) mod P32)·x^32`, bit-reversed as a 64-bit
    /// value and shifted left once, since a carry-less product of two
    /// reflected operands lands one bit low.
    const fn k32(d: u32) -> i64 {
        (reflect(xpow_divmod(d - 32, P32, 32).1, 32) << 1) as i64
    }

    /// [`k32`] at 576 and 512 bits (four lanes on), 192 and 128 bits
    /// (one lane on) and 96 bits (the 96 → 64-bit step).
    const FOLD32: [i64; 5] = [k32(576), k32(512), k32(192), k32(128), k32(96)];

    /// `floor(x^64 / P32)` and `P32`, reflected in 33 bits: the
    /// Barrett constants.
    const MU32: i64 = reflect(xpow_divmod(64, P32, 32).0 as u64, 33) as i64;
    const P32_REFLECTED: i64 = reflect(P32, 33) as i64;

    /// The first 16 bytes of `bytes`.
    fn load(bytes: &[u8]) -> __m128i {
        let block: &[u8; 16] = bytes[..16].try_into().expect("16 bytes");
        // SAFETY: `block` is 16 readable bytes, exactly what the load
        // reads, and `_mm_loadu_si128` has no alignment requirement.
        // SSE2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// The CRC-10 of a SAR-PDU, or `None` on a CPU without the kernel.
    pub(super) fn crc10_sar(pdu: &[u8; 48]) -> Option<u16> {
        // SAFETY: `detected` has just checked at run time that the CPU
        // has every feature the kernel enables; the kernel's loads stay
        // within the 48-byte PDU.
        detected().then(|| unsafe { crc10_sar_kernel(pdu) })
    }

    /// The PDU with its CRC field cleared is the 384-bit polynomial
    /// `A·x^256 + B·x^128 + C` of its three big-endian 16-byte words,
    /// and its CRC is that polynomial mod P10. Five carry-less
    /// multiplies by [`FOLD10`] fold the five high 64-bit halves onto
    /// the low one, giving `S ≡ PDU (mod P10)` of degree below 73,
    /// held as `S·x^54`. One Barrett step then gives `S mod P10`.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn crc10_sar_kernel(pdu: &[u8; 48]) -> u16 {
        let bswap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let a = _mm_shuffle_epi8(load(&pdu[..16]), bswap);
        let b = _mm_shuffle_epi8(load(&pdu[16..32]), bswap);
        let c = _mm_shuffle_epi8(load(&pdu[32..]), bswap);
        let ka = _mm_set_epi64x(FOLD10[0], FOLD10[1]);
        let kb = _mm_set_epi64x(FOLD10[2], FOLD10[3]);
        let kc = _mm_set_epi64x(P10 as i64, FOLD10[4]);
        // C's low half times x^54 is `C_lo >> 10` in the high lane:
        // the ten bits shifted out are the uncovered CRC field.
        let c_lo = _mm_slli_si128(_mm_srli_epi64(c, 10), 8);
        let s = _mm_xor_si128(
            _mm_xor_si128(
                _mm_xor_si128(
                    _mm_clmulepi64_si128(a, ka, 0x11),
                    _mm_clmulepi64_si128(a, ka, 0x00),
                ),
                _mm_xor_si128(
                    _mm_clmulepi64_si128(b, kb, 0x11),
                    _mm_clmulepi64_si128(b, kb, 0x00),
                ),
            ),
            _mm_xor_si128(_mm_clmulepi64_si128(c, kc, 0x01), c_lo),
        );
        // Barrett: with R1 = floor(S / x^10), the high lane, the
        // quotient floor(S / P10) is R1 ^ floor(R1·MU10 / x^64).
        let mu = _mm_set_epi64x(0, MU10);
        let q = _mm_srli_si128(_mm_xor_si128(_mm_clmulepi64_si128(s, mu, 0x01), s), 8);
        // S mod P10 is the low ten bits of S ^ q·P10; S's own low ten
        // bits are the top ten of the low lane.
        let qp = _mm_cvtsi128_si64(_mm_clmulepi64_si128(q, kc, 0x10)) as u64;
        let r0 = (_mm_cvtsi128_si64(s) as u64) >> 54;
        ((r0 ^ qp) & 0x3ff) as u16
    }

    /// Folds the whole 16-byte blocks of `data` into the CRC-32
    /// register `reg` (not inverted) and returns the new register and
    /// the `len % 16` bytes left over. A buffer shorter than 128
    /// bytes, or a CPU without the kernel, comes back unchanged.
    pub(super) fn crc32_blocks(reg: u32, data: &[u8]) -> (u32, &[u8]) {
        if data.len() < 128 || !detected() {
            return (reg, data);
        }
        let (blocks, tail) = data.split_at(data.len() - data.len() % 16);
        // SAFETY: `detected` has just checked at run time that the CPU
        // has every feature the kernel enables; the kernel loads only
        // whole 16-byte blocks of `blocks`, whose length is a multiple
        // of 16.
        (unsafe { crc32_kernel(reg, blocks) }, tail)
    }

    /// `x` folded 128 bits on and onto `next`: its low lane (the
    /// earlier 64 bits) times `k`'s low lane, its high lane times
    /// `k`'s high lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, next: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            next,
            _mm_xor_si128(
                _mm_clmulepi64_si128(x, k, 0x00),
                _mm_clmulepi64_si128(x, k, 0x11),
            ),
        )
    }

    /// The reflected CRC-32 register after `blocks` (at least 64
    /// bytes, a multiple of 16) from `reg`: four 16-byte lanes fold
    /// 512 bits per step while 64 bytes remain, then fold into one
    /// lane, which takes the remaining blocks one at a time. The last
    /// 128 bits times x^32 reduce to 96, then 64 bits, and a Barrett
    /// step gives the 32-bit remainder.
    #[target_feature(enable = "pclmulqdq")]
    fn crc32_kernel(reg: u32, blocks: &[u8]) -> u32 {
        let mut lanes = [
            load(blocks),
            load(&blocks[16..]),
            load(&blocks[32..]),
            load(&blocks[48..]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(reg as i32));
        let mut rest = &blocks[64..];
        let k4 = _mm_set_epi64x(FOLD32[1], FOLD32[0]);
        while rest.len() >= 64 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold(*lane, load(&rest[16 * i..]), k4);
            }
            rest = &rest[64..];
        }
        let k1 = _mm_set_epi64x(FOLD32[3], FOLD32[2]);
        let mut acc = lanes[0];
        for &lane in &lanes[1..] {
            acc = fold(acc, lane, k1);
        }
        while !rest.is_empty() {
            acc = fold(acc, load(rest), k1);
            rest = &rest[16..];
        }
        // 128 → 96 bits: the low lane moved 128 bits on, onto the high.
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k1, 0x10), _mm_srli_si128(acc, 8));
        // 96 → 64 bits: the low 32 bits moved 96 bits on, onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let barrett = _mm_set_epi64x(MU32, P32_REFLECTED);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(
                _mm_and_si128(acc, low32),
                _mm_set_epi64x(0, FOLD32[4]),
                0x00,
            ),
            _mm_srli_si128(acc, 4),
        );
        // Barrett: the quotient is the top 32 bits times MU32, and the
        // remainder the high 32 bits of acc ^ quotient·P32.
        let quot = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(quot, low32), barrett, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(acc, qp), 4)) as u32
    }

    #[cfg(test)]
    mod tests {
        /// The CRC-32 constants derived from the generator equal the
        /// values published for the reflected IEEE CRC-32 with this
        /// method: k1..k5, P' and µ' of Gopal et al. (2009).
        #[test]
        fn crc32_constants_match_the_published_ones() {
            assert_eq!(
                super::FOLD32.map(|k| k as u64),
                [
                    0x1_5444_2bd4,
                    0x1_c6e4_1596,
                    0x1_7519_97d0,
                    0x0_ccaa_009e,
                    0x1_63cd_6124
                ]
            );
            assert_eq!(super::MU32 as u64, 0x1_f701_1641);
            assert_eq!(super::P32_REFLECTED as u64, 0x1_db71_0641);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-serial CRC-10 over the 374 covered bits of a SAR-PDU,
    /// MSB-first, zero initial value: the reference both kernels must
    /// agree with.
    fn crc10_reference(pdu: &[u8; 48]) -> u16 {
        let mut crc: u16 = 0;
        for i in 0..46 * 8 + 6 {
            let bit = u16::from(pdu[i / 8] >> (7 - i % 8)) & 1;
            let feedback = (crc >> 9) ^ bit;
            crc = (crc << 1) & 0x3ff;
            if feedback != 0 {
                crc ^= 0x233;
            }
        }
        crc
    }

    /// One byte through the bit-serial reflected CRC-32 register.
    fn crc32_reference_step(mut crc: u32, byte: u8) -> u32 {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = (crc >> 1) ^ if crc & 1 != 0 { 0xedb8_8320 } else { 0 };
        }
        crc
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

    type Crc10Kernel = fn(&[u8; 48]) -> u16;
    type Crc32Kernel = fn(&[u8]) -> u32;

    /// Every CRC-10 kernel, by name. On x86_64 the CPU must run the
    /// carry-less one, so that these tests cannot pass without it.
    fn crc10_kernels() -> Vec<(&'static str, Crc10Kernel)> {
        #[allow(unused_mut)]
        let mut kernels: Vec<(&str, Crc10Kernel)> = vec![("portable", crc10_sar_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            assert!(clmul::detected(), "x86_64 CPU without PCLMULQDQ and SSSE3");
            kernels.push(("pclmulqdq", |pdu| clmul::crc10_sar(pdu).expect("detected")));
        }
        kernels
    }

    /// Every CRC-32 path over a whole buffer, by name, as
    /// [`crc10_kernels`]. The carry-less path must leave fewer than 16
    /// bytes of a buffer of 128 or more to the portable tail.
    fn crc32_kernels() -> Vec<(&'static str, Crc32Kernel)> {
        #[allow(unused_mut)]
        let mut kernels: Vec<(&str, Crc32Kernel)> =
            vec![("portable", |data| !crc32_portable(0xffff_ffff, data))];
        #[cfg(target_arch = "x86_64")]
        {
            assert!(clmul::detected(), "x86_64 CPU without PCLMULQDQ and SSSE3");
            kernels.push(("pclmulqdq", |data| {
                let (reg, tail) = clmul::crc32_blocks(0xffff_ffff, data);
                assert_eq!(
                    tail.len(),
                    if data.len() < 128 {
                        data.len()
                    } else {
                        data.len() % 16
                    }
                );
                !crc32_portable(reg, tail)
            }));
        }
        kernels
    }

    /// Each CRC-10 kernel against the bit-serial reference on the zero
    /// PDU, on every single-bit PDU (a bit of the CRC field must leave
    /// the result at the zero PDU's), and on 4096 pseudo-random PDUs.
    #[test]
    fn every_crc10_kernel_matches_the_bit_serial_reference() {
        let random = lcg_bytes(48 * 4096, 10);
        for (name, kernel) in crc10_kernels() {
            assert_eq!(kernel(&[0u8; 48]), 0, "{name}");
            for bit in 0..48 * 8 {
                let mut pdu = [0u8; 48];
                pdu[bit / 8] = 0x80 >> (bit % 8);
                assert_eq!(kernel(&pdu), crc10_reference(&pdu), "{name}, bit {bit}");
            }
            for chunk in random.chunks_exact(48) {
                let pdu: &[u8; 48] = chunk.try_into().expect("48 bytes");
                assert_eq!(kernel(pdu), crc10_reference(pdu), "{name}, {pdu:02x?}");
            }
        }
    }

    /// Each CRC-32 path against the bit-serial reference at every
    /// length from 0 to 4096 bytes at every start offset 0..16, and on
    /// a 65 535-byte buffer.
    #[test]
    fn every_crc32_kernel_matches_the_bit_serial_reference() {
        let buf = lcg_bytes(4096 + 16, 32);
        let big = lcg_bytes(65_535, 33);
        let big_crc = !big
            .iter()
            .fold(0xffff_ffff, |r, &b| crc32_reference_step(r, b));
        for (name, kernel) in crc32_kernels() {
            for off in 0..16 {
                let mut reg = 0xffff_ffff;
                for len in 0..=4096 {
                    assert_eq!(
                        kernel(&buf[off..off + len]),
                        !reg,
                        "{name}, offset {off}, len {len}"
                    );
                    reg = crc32_reference_step(reg, buf[off + len]);
                }
            }
            assert_eq!(kernel(&big), big_crc, "{name}, 65 535 bytes");
        }
    }

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
