//! The 53-byte ATM cell.
//!
//! Layout (UNI format): 4 header octets (GFC/VPI/VCI/PT/CLP), one HEC
//! octet protecting them, then 48 payload octets. The adapter model
//! verifies HEC on receive — a corrupted header is one of the error
//! classes the §4.2.1 analysis considers.

use cksum::crc::hec;

/// Total cell size in bytes.
pub const CELL_SIZE: usize = 53;

/// Payload bytes per cell.
pub const CELL_PAYLOAD: usize = 48;

/// The decoded ATM cell header (UNI).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellHeader {
    /// Generic flow control (unused on our point-to-point link).
    pub gfc: u8,
    /// Virtual path identifier (8 bits at the UNI).
    pub vpi: u8,
    /// Virtual channel identifier.
    pub vci: u16,
    /// Payload type indicator (3 bits). AAL5 uses bit 0 as the
    /// end-of-PDU flag.
    pub pt: u8,
    /// Cell loss priority.
    pub clp: bool,
}

impl CellHeader {
    /// Encodes the four addressed header octets (without HEC).
    #[must_use]
    pub fn encode4(&self) -> [u8; 4] {
        let b0 = (self.gfc << 4) | (self.vpi >> 4);
        let b1 = (self.vpi << 4) | ((self.vci >> 12) as u8 & 0x0f);
        let b2 = (self.vci >> 4) as u8;
        let b3 = ((self.vci << 4) as u8) | ((self.pt & 0x7) << 1) | u8::from(self.clp);
        [b0, b1, b2, b3]
    }

    /// Encodes the five header octets: the four addressed octets and
    /// their HEC.
    #[must_use]
    pub(crate) fn encode5(&self) -> [u8; 5] {
        let [b0, b1, b2, b3] = self.encode4();
        [b0, b1, b2, b3, hec([b0, b1, b2, b3])]
    }

    /// Decodes the four addressed header octets.
    #[must_use]
    pub fn decode4(b: [u8; 4]) -> CellHeader {
        CellHeader {
            gfc: b[0] >> 4,
            vpi: (b[0] << 4) | (b[1] >> 4),
            vci: (u16::from(b[1] & 0x0f) << 12) | (u16::from(b[2]) << 4) | u16::from(b[3] >> 4),
            pt: (b[3] >> 1) & 0x7,
            clp: b[3] & 1 != 0,
        }
    }
}

/// A complete 53-byte cell.
///
/// # Examples
///
/// ```
/// use atm::{Cell, CellHeader};
///
/// let hdr = CellHeader { gfc: 0, vpi: 0, vci: 42, pt: 0, clp: false };
/// let cell = Cell::new(hdr, [0xab; 48]);
/// let bytes = cell.to_bytes();
/// let back = Cell::from_bytes(&bytes).expect("HEC verifies");
/// assert_eq!(back.header().vci, 42);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    bytes: [u8; CELL_SIZE],
}

impl Cell {
    /// Builds a cell, computing the HEC.
    #[must_use]
    pub fn new(header: CellHeader, payload: [u8; CELL_PAYLOAD]) -> Cell {
        let mut bytes = [0u8; CELL_SIZE];
        bytes[..5].copy_from_slice(&header.encode5());
        bytes[5..].copy_from_slice(&payload);
        Cell { bytes }
    }

    /// A cell of zero bytes, whose HEC does not hold: only a slot for
    /// the segmenter to overwrite whole, header first.
    pub(crate) const BLANK: Cell = Cell {
        bytes: [0; CELL_SIZE],
    };

    /// The raw bytes, for the segmenter to write a cell in place. It
    /// writes the header from [`CellHeader::encode5`], so the HEC holds
    /// by construction.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8; CELL_SIZE] {
        &mut self.bytes
    }

    /// Parses a 53-byte buffer, verifying the HEC. Returns `None` on
    /// a header error (the adapter discards such cells, as real
    /// hardware does).
    #[must_use]
    pub fn from_bytes(raw: &[u8; CELL_SIZE]) -> Option<Cell> {
        let h4 = [raw[0], raw[1], raw[2], raw[3]];
        if hec(h4) != raw[4] {
            return None;
        }
        Some(Cell { bytes: *raw })
    }

    /// The raw 53 bytes.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; CELL_SIZE] {
        self.bytes
    }

    /// The decoded header.
    #[must_use]
    pub fn header(&self) -> CellHeader {
        Cell::header_of(&self.bytes)
    }

    fn header_of(bytes: &[u8; CELL_SIZE]) -> CellHeader {
        CellHeader::decode4([bytes[0], bytes[1], bytes[2], bytes[3]])
    }

    /// The five header octets as carried, HEC included.
    pub(crate) fn header_bytes(&self) -> [u8; 5] {
        self.bytes[..5].try_into().expect("fixed size")
    }

    /// Replaces the header with five octets that came from
    /// [`CellHeader::encode5`], so the HEC holds by construction.
    pub(crate) fn set_header(&mut self, header: [u8; 5]) {
        self.bytes[..5].copy_from_slice(&header);
    }

    /// The 48 payload bytes.
    #[must_use]
    pub fn payload(&self) -> &[u8; CELL_PAYLOAD] {
        self.bytes[5..].try_into().expect("fixed size")
    }

    /// Flips bit `bit` (0–423) of the raw cell — the fiber error
    /// model's corruption primitive. Flips in the header will be
    /// caught by HEC; flips in the payload are the AAL CRC's problem.
    pub fn flip_bit(&mut self, bit: usize) {
        assert!(bit < CELL_SIZE * 8, "bit index out of range");
        self.bytes[bit / 8] ^= 1 << (7 - bit % 8);
    }

    /// Whether the header still verifies (used after corruption).
    #[must_use]
    pub fn header_ok(&self) -> bool {
        let h4 = [self.bytes[0], self.bytes[1], self.bytes[2], self.bytes[3]];
        hec(h4) == self.bytes[4]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(vci: u16, pt: u8) -> CellHeader {
        CellHeader {
            gfc: 0,
            vpi: 3,
            vci,
            pt,
            clp: false,
        }
    }

    #[test]
    fn header_encode_decode_roundtrip() {
        for vci in [0u16, 1, 42, 0x0fff, 0xffff] {
            for pt in 0..8u8 {
                for clp in [false, true] {
                    let h = CellHeader {
                        gfc: 0x5,
                        vpi: 0xa7,
                        vci,
                        pt,
                        clp,
                    };
                    assert_eq!(CellHeader::decode4(h.encode4()), h);
                }
            }
        }
    }

    #[test]
    fn cell_roundtrip() {
        let mut payload = [0u8; CELL_PAYLOAD];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = i as u8;
        }
        let c = Cell::new(hdr(99, 1), payload);
        let parsed = Cell::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(parsed.header(), hdr(99, 1));
        assert_eq!(parsed.payload(), &payload);
    }

    #[test]
    fn header_corruption_detected_by_hec() {
        let mut c = Cell::new(hdr(7, 0), [0; CELL_PAYLOAD]);
        assert!(c.header_ok());
        c.flip_bit(13); // Within the 4 addressed octets.
        assert!(!c.header_ok());
        let raw = c.to_bytes();
        assert!(Cell::from_bytes(&raw).is_none());
    }

    #[test]
    fn payload_corruption_not_hecs_job() {
        let mut c = Cell::new(hdr(7, 0), [0; CELL_PAYLOAD]);
        c.flip_bit(5 * 8 + 3); // First payload byte.
        assert!(c.header_ok());
        assert!(Cell::from_bytes(&c.to_bytes()).is_some());
        assert_eq!(c.payload()[0], 0b0001_0000);
    }

    #[test]
    #[should_panic(expected = "bit index out of range")]
    fn flip_bit_bounds() {
        let mut c = Cell::new(hdr(1, 0), [0; CELL_PAYLOAD]);
        c.flip_bit(CELL_SIZE * 8);
    }
}
