//! AAL3/4 — the ATM adaptation layer the paper's driver and adapter
//! implement ("the Class 3/4 ATM Adaptation Layer (AAL), which is
//! responsible for all segmentation and reassembly of datagrams and
//! the detection of transmission errors and dropped cells", §1.1).
//!
//! Two sublayers (ITU-T I.363):
//!
//! - **CPCS** frames the datagram: a 4-byte header (CPI, BTag,
//!   BASize) and a 4-byte trailer (AL, ETag, Length), with the
//!   payload padded to a 4-byte multiple. BTag must equal ETag.
//! - **SAR** carries the CPCS-PDU in 44-byte cell payloads. Each
//!   SAR-PDU has a 2-byte header — segment type (BOM/COM/EOM/SSM),
//!   4-bit sequence number, 10-bit MID — and a 2-byte trailer with a
//!   6-bit length indicator and a **CRC-10** covering the whole
//!   SAR-PDU.
//!
//! The reassembler detects every error class the paper's §4.2.1
//! analysis assigns to this layer: per-cell CRC failures, sequence
//! gaps from dropped cells, length mismatches, and tag mismatches
//! from interleaved or lost frames.

use std::cell::RefCell;

use cksum::crc::crc10_sar;
use simkit::SimTime;

use crate::cell::{Cell, CellHeader};
use crate::link::LinkFault;

/// SAR payload bytes per cell (48 minus 2-byte header and 2-byte
/// trailer).
pub const SAR_PAYLOAD: usize = 44;

/// CPCS overhead: 4-byte header plus 4-byte trailer.
pub const CPCS_OVERHEAD: usize = 8;

/// Segment type codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SegType {
    /// Beginning of message.
    Bom = 0b10,
    /// Continuation of message.
    Com = 0b00,
    /// End of message.
    Eom = 0b01,
    /// Single-segment message.
    Ssm = 0b11,
}

/// Errors detected by the AAL3/4 receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Aal34Error {
    /// SAR-PDU CRC-10 failure (bit corruption within a cell).
    Crc,
    /// Sequence number gap — a cell was lost.
    Sequence,
    /// COM or EOM arrived with no reassembly in progress.
    Orphan,
    /// BOM arrived while a message was already in progress.
    MidCollision,
    /// CPCS BTag and ETag differ.
    TagMismatch,
    /// CPCS Length disagrees with the received byte count.
    LengthMismatch,
    /// SAR length indicator out of range for the segment type.
    BadLengthIndicator,
    /// Reassembled data exceeded the advertised buffer allocation.
    Overflow,
}

/// Segmentation: turns a datagram into a train of cells.
///
/// # Examples
///
/// ```
/// use atm::{Aal34Segmenter, Aal34Reassembler};
///
/// let mut seg = Aal34Segmenter::new(0, 42, 7);
/// let cells = seg.segment(b"a complete datagram");
/// let mut reasm = Aal34Reassembler::new();
/// let mut out = None;
/// for cell in cells {
///     if let Some(d) = reasm.push(&cell).unwrap() {
///         out = Some(d);
///     }
/// }
/// assert_eq!(out.unwrap(), b"a complete datagram");
/// ```
pub struct Aal34Segmenter {
    /// The cell header and its HEC, constant per virtual channel.
    header: [u8; 5],
    mid: u16,
    btag: u8,
    sn: u8,
}

impl Aal34Segmenter {
    /// Creates a segmenter for one virtual channel and MID.
    #[must_use]
    pub fn new(vpi: u8, vci: u16, mid: u16) -> Self {
        let header = CellHeader {
            gfc: 0,
            vpi,
            vci,
            pt: 0,
            clp: false,
        };
        Aal34Segmenter {
            header: header.encode5(),
            mid: mid & 0x3ff,
            btag: 0,
            sn: 0,
        }
    }

    /// Number of cells a datagram of `len` bytes occupies.
    #[must_use]
    pub fn cells_for(len: usize) -> usize {
        let cpcs = CPCS_OVERHEAD + len.div_ceil(4) * 4;
        cpcs.div_ceil(SAR_PAYLOAD)
    }

    /// Segments a datagram into cells.
    ///
    /// # Panics
    ///
    /// Panics on datagrams longer than 65535 bytes (the CPCS Length
    /// field width).
    pub fn segment(&mut self, data: &[u8]) -> Vec<Cell> {
        let mut train = Vec::new();
        self.segment_into(data, &mut train, |_| {});
        train
            .into_iter()
            .map(|(_, fault)| match fault {
                LinkFault::Clean(cell) => cell,
                _ => unreachable!("no link carried it"),
            })
            .collect()
    }

    /// Segments a datagram straight into the slots of `train`, each
    /// cell written once, where it lies: cell `i` fills slot `i`,
    /// labelled `Clean`, and `carry` then times and faults that slot
    /// in place before the next cell is written. The train is cut or
    /// grown to the datagram's cell count, and every byte of a reused
    /// slot is rewritten. The CPCS-PDU is never materialised.
    ///
    /// # Panics
    ///
    /// Panics on datagrams longer than 65535 bytes (the CPCS Length
    /// field width).
    pub fn segment_into(
        &mut self,
        data: &[u8],
        train: &mut Vec<(SimTime, LinkFault)>,
        mut carry: impl FnMut(&mut (SimTime, LinkFault)),
    ) {
        assert!(
            data.len() <= u16::MAX as usize,
            "datagram too long for AAL3/4"
        );
        self.btag = self.btag.wrapping_add(1);
        let pdu = CpcsPdu::new(self.btag, data);
        let n_cells = pdu.len().div_ceil(SAR_PAYLOAD);
        train.resize(n_cells, (SimTime::ZERO, LinkFault::Lost));
        for (i, slot) in train.iter_mut().enumerate() {
            let st = if n_cells == 1 {
                SegType::Ssm
            } else if i == 0 {
                SegType::Bom
            } else if i == n_cells - 1 {
                SegType::Eom
            } else {
                SegType::Com
            };
            // A lost or corrupted slot gets a blank cell to write over.
            if !matches!(slot.1, LinkFault::Clean(_)) {
                slot.1 = LinkFault::Clean(Cell::BLANK);
            }
            let LinkFault::Clean(cell) = &mut slot.1 else {
                unreachable!("relabelled above")
            };
            self.write_cell(st, &pdu, i * SAR_PAYLOAD, cell);
            self.sn = (self.sn + 1) & 0xf;
            carry(slot);
        }
    }

    /// Writes all 53 bytes of the cell carrying the CPCS-PDU bytes
    /// from `off` on (at most 44 of them) over `cell`.
    fn write_cell(&self, st: SegType, cpcs: &CpcsPdu, off: usize, cell: &mut Cell) {
        let li = (cpcs.len() - off).min(SAR_PAYLOAD);
        let bytes = cell.bytes_mut();
        bytes[..5].copy_from_slice(&self.header);
        let pdu: &mut [u8; 48] = (&mut bytes[5..]).try_into().expect("48-byte SAR-PDU");
        // SAR header: ST(2) SN(4) MID(10). SAR trailer: LI(6) CRC(10).
        let sar = (u16::from(st as u8) << 14) | (u16::from(self.sn) << 10) | self.mid;
        let li_bits = (li as u8) << 2;
        if let Some(src) = cpcs.data_window(off) {
            // A cell wholly inside the datagram (most COM cells) is
            // stored as the six big-endian words the CRC loads back, so
            // each load forwards from one store rather than stalling
            // on a byte-wise fill.
            let be = |i: usize| u64::from_be_bytes(src[i..i + 8].try_into().expect("8 bytes"));
            let words = [
                (u64::from(sar) << 48) | (be(0) >> 16),
                be(6),
                be(14),
                be(22),
                be(30),
                (be(36) << 16) | (u64::from(li_bits) << 8),
            ];
            for (chunk, word) in pdu.chunks_exact_mut(8).zip(words) {
                chunk.copy_from_slice(&word.to_be_bytes());
            }
        } else {
            // A cell with CPCS framing in it: zero the payload first,
            // since the slot may hold an earlier cell and the padding
            // is not written.
            pdu.fill(0);
            pdu[..2].copy_from_slice(&sar.to_be_bytes());
            cpcs.copy_window(off, &mut pdu[2..2 + li]);
            pdu[46] = li_bits;
        }
        // The CRC covers header, payload and LI: 46 bytes plus 6 bits.
        let crc = crc10_sar(pdu);
        pdu[46] |= (crc >> 8) as u8;
        pdu[47] = (crc & 0xff) as u8;
    }
}

/// A CPCS-PDU described rather than built: the 4-byte header (CPI,
/// BTag, BASize), the datagram, zero padding to a 4-byte multiple,
/// and the 4-byte trailer (AL, ETag, Length).
struct CpcsPdu<'a> {
    head: [u8; 4],
    data: &'a [u8],
    padded: usize,
    tail: [u8; 4],
}

impl<'a> CpcsPdu<'a> {
    fn new(btag: u8, data: &'a [u8]) -> Self {
        let padded = data.len().div_ceil(4) * 4;
        let [ba_hi, ba_lo] = (padded as u16).to_be_bytes();
        let [len_hi, len_lo] = (data.len() as u16).to_be_bytes();
        CpcsPdu {
            // CPI: only value 0 is defined. BASize: buffer allocation
            // hint. AL: alignment.
            head: [0, btag, ba_hi, ba_lo],
            data,
            padded,
            tail: [0, btag, len_hi, len_lo],
        }
    }

    fn len(&self) -> usize {
        CPCS_OVERHEAD + self.padded
    }

    /// PDU bytes `off..off + 44` when all of them are datagram bytes.
    fn data_window(&self, off: usize) -> Option<&'a [u8]> {
        off.checked_sub(4)
            .and_then(|d| self.data.get(d..d + SAR_PAYLOAD))
    }

    /// Copies PDU bytes `off..off + dst.len()` into `dst`, which is
    /// zeroed, so the padding needs no write.
    fn copy_window(&self, off: usize, dst: &mut [u8]) {
        let parts = [
            (0, &self.head[..]),
            (4, self.data),
            (4 + self.padded, &self.tail[..]),
        ];
        for (start, part) in parts {
            let lo = off.max(start);
            let hi = (off + dst.len()).min(start + part.len());
            if lo < hi {
                dst[lo - off..hi - off].copy_from_slice(&part[lo - start..hi - start]);
            }
        }
    }
}

/// Statistics kept by the reassembler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aal34Stats {
    /// Cells accepted.
    pub cells_ok: u64,
    /// Cells rejected by the CRC-10.
    pub cells_crc_bad: u64,
    /// Datagrams delivered.
    pub datagrams_ok: u64,
    /// Datagrams dropped (any reason).
    pub datagrams_dropped: u64,
}

struct Partial {
    sn_expect: u8,
    /// The CPCS-PDU after its 4-byte header (payload, padding and
    /// trailer), reserved once from BASize and handed over whole.
    buf: Vec<u8>,
    basize: usize,
    btag: u8,
}

/// Reassembly state machine for one message at a time.
///
/// `push` consumes cells in arrival order and yields a complete
/// datagram when an EOM/SSM validates. On error the in-progress
/// message is discarded and the error returned; the caller decides
/// whether to count or log it (the driver counts, like real drivers).
/// A BOM that arrives mid-message is a [`Aal34Error::MidCollision`],
/// so interleaved messages on one reassembler are an error, not
/// demultiplexed by MID.
///
/// A caller done with a delivered datagram hands its buffer back with
/// [`Aal34Reassembler::recycle`]; the next message any reassembler on
/// the thread starts is rebuilt in it, so a steady stream of
/// datagrams allocates no heap memory.
#[derive(Default)]
pub struct Aal34Reassembler {
    partial: Option<Partial>,
    stats: Aal34Stats,
}

thread_local! {
    /// This thread's buffer for the next message: the larger of the
    /// delivered datagrams handed back since it was last taken. One
    /// per thread, not one per reassembler: a message is reassembled
    /// and handed back within one receive interrupt, so the thread's
    /// reassemblers take turns with it.
    static SPARE: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl Aal34Reassembler {
    /// Creates an idle reassembler.
    #[must_use]
    pub fn new() -> Self {
        Aal34Reassembler::default()
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> Aal34Stats {
        self.stats
    }

    /// Takes back a datagram [`Aal34Reassembler::push`] delivered, to
    /// reassemble a later message into. The thread keeps one buffer,
    /// the larger.
    pub fn recycle(buf: Vec<u8>) {
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if buf.capacity() > spare.capacity() {
                *spare = buf;
            }
        });
    }

    /// Consumes one cell. Returns `Ok(Some(datagram))` when a message
    /// completes, `Ok(None)` while in progress, and `Err(..)` when the
    /// cell or message is invalid (the partial message is dropped).
    pub fn push(&mut self, cell: &Cell) -> Result<Option<Vec<u8>>, Aal34Error> {
        let payload = cell.payload();
        // CRC-10 first: it covers everything else we parse.
        let crc = (u16::from(payload[46] & 0x3) << 8) | u16::from(payload[47]);
        if crc10_sar(payload) != crc {
            self.stats.cells_crc_bad += 1;
            self.drop_partial();
            return Err(Aal34Error::Crc);
        }
        self.stats.cells_ok += 1;
        let st = payload[0] >> 6;
        let sn = (payload[0] >> 2) & 0xf;
        let li = usize::from(payload[46] >> 2);
        let data = &payload[2..46];
        match st {
            0b10 => self.on_bom(sn, li, data),
            0b00 => self.on_com(sn, li, data),
            0b01 => self.on_eom(sn, li, data),
            0b11 => {
                // Single-segment message: header and trailer in one cell.
                self.drop_partial();
                if li > SAR_PAYLOAD {
                    self.stats.datagrams_dropped += 1;
                    return Err(Aal34Error::BadLengthIndicator);
                }
                if li < 4 {
                    // Not even the CPCS header arrived.
                    self.stats.datagrams_dropped += 1;
                    return Err(Aal34Error::LengthMismatch);
                }
                self.start(sn, li, data)?;
                self.finish()
            }
            _ => unreachable!("2-bit field"),
        }
    }

    fn on_bom(&mut self, sn: u8, li: usize, data: &[u8]) -> Result<Option<Vec<u8>>, Aal34Error> {
        if li != SAR_PAYLOAD {
            self.drop_partial();
            return Err(Aal34Error::BadLengthIndicator);
        }
        if self.partial.is_some() {
            self.drop_partial();
            // Start the new message anyway, as real reassemblers do,
            // but report the collision.
            self.start(sn, li, data)?;
            return Err(Aal34Error::MidCollision);
        }
        self.start(sn, li, data)?;
        Ok(None)
    }

    /// Opens a message from its first cell (`li >= 4`), which carries
    /// the CPCS header: BTag and BASize are read, and the buffer is
    /// reserved for the BASize bytes and the trailer.
    fn start(&mut self, sn: u8, li: usize, data: &[u8]) -> Result<(), Aal34Error> {
        let basize = usize::from(u16::from_be_bytes([data[2], data[3]]));
        let mut buf = SPARE
            .try_with(|spare| std::mem::take(&mut *spare.borrow_mut()))
            .unwrap_or_default();
        buf.clear();
        buf.reserve(basize + 4);
        self.partial = Some(Partial {
            sn_expect: (sn + 1) & 0xf,
            buf,
            basize,
            btag: data[1],
        });
        self.ingest(&data[4..li])
    }

    fn on_com(&mut self, sn: u8, li: usize, data: &[u8]) -> Result<Option<Vec<u8>>, Aal34Error> {
        let Some(p) = self.partial.as_mut() else {
            self.stats.datagrams_dropped += 1;
            return Err(Aal34Error::Orphan);
        };
        if p.sn_expect != sn {
            self.drop_partial();
            return Err(Aal34Error::Sequence);
        }
        p.sn_expect = (sn + 1) & 0xf;
        if li != SAR_PAYLOAD {
            self.drop_partial();
            return Err(Aal34Error::BadLengthIndicator);
        }
        self.ingest(&data[..li])?;
        Ok(None)
    }

    fn on_eom(&mut self, sn: u8, li: usize, data: &[u8]) -> Result<Option<Vec<u8>>, Aal34Error> {
        let Some(p) = self.partial.as_mut() else {
            self.stats.datagrams_dropped += 1;
            return Err(Aal34Error::Orphan);
        };
        if p.sn_expect != sn {
            self.drop_partial();
            return Err(Aal34Error::Sequence);
        }
        if !(4..=SAR_PAYLOAD).contains(&li) {
            self.drop_partial();
            return Err(Aal34Error::BadLengthIndicator);
        }
        self.ingest(&data[..li])?;
        self.finish()
    }

    /// Appends SAR payload bytes, enforcing the buffer allocation
    /// size.
    fn ingest(&mut self, bytes: &[u8]) -> Result<(), Aal34Error> {
        let p = self.partial.as_mut().expect("ingest with active partial");
        p.buf.extend_from_slice(bytes);
        if p.buf.len() > p.basize + 4 {
            self.drop_partial();
            return Err(Aal34Error::Overflow);
        }
        Ok(())
    }

    /// Validates the CPCS framing and hands the buffer over as the
    /// datagram.
    fn finish(&mut self) -> Result<Option<Vec<u8>>, Aal34Error> {
        let Partial { mut buf, btag, .. } =
            self.partial.take().expect("finish with active partial");
        let n = buf.len();
        if n < 4 {
            self.stats.datagrams_dropped += 1;
            return Err(Aal34Error::LengthMismatch);
        }
        let etag = buf[n - 3];
        let length = usize::from(u16::from_be_bytes([buf[n - 2], buf[n - 1]]));
        if etag != btag {
            self.stats.datagrams_dropped += 1;
            return Err(Aal34Error::TagMismatch);
        }
        let padded = n - 4;
        if length > padded || padded != length.div_ceil(4) * 4 {
            self.stats.datagrams_dropped += 1;
            return Err(Aal34Error::LengthMismatch);
        }
        self.stats.datagrams_ok += 1;
        buf.truncate(length);
        Ok(Some(buf))
    }

    fn drop_partial(&mut self) {
        if self.partial.take().is_some() {
            self.stats.datagrams_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let mut reasm = Aal34Reassembler::new();
        let mut out = None;
        for cell in seg.segment(data) {
            if let Some(d) = reasm.push(&cell).expect("clean channel") {
                out = Some(d);
            }
        }
        out.expect("datagram completes")
    }

    #[test]
    fn roundtrip_various_sizes() {
        for n in [
            0usize, 1, 3, 4, 35, 36, 37, 44, 88, 100, 1400, 4040, 8040, 9188,
        ] {
            let data: Vec<u8> = (0..n).map(|i| (i * 7 + 1) as u8).collect();
            assert_eq!(roundtrip(&data), data, "size {n}");
        }
    }

    #[test]
    fn cell_counts_match_formula() {
        for n in [4usize, 20, 80, 200, 500, 1400, 4000, 8000] {
            let mut seg = Aal34Segmenter::new(0, 5, 1);
            let data = vec![0u8; n];
            let cells = seg.segment(&data);
            assert_eq!(cells.len(), Aal34Segmenter::cells_for(n), "size {n}");
        }
        // The paper's 4-byte case: 4+8 CPCS bytes = 12 -> one cell (SSM).
        assert_eq!(Aal34Segmenter::cells_for(4), 1);
        // A 4000-byte TCP packet (4040 with headers): 4048 -> 92 cells.
        assert_eq!(Aal34Segmenter::cells_for(4040), 92);
    }

    #[test]
    fn sequence_numbers_wrap_mod_16() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let cells = seg.segment(&vec![0u8; 2000]); // 46 cells.
        assert!(cells.len() > 16);
        let mut reasm = Aal34Reassembler::new();
        let mut done = false;
        for cell in &cells {
            if reasm.push(cell).unwrap().is_some() {
                done = true;
            }
        }
        assert!(done);
    }

    #[test]
    fn lost_cell_detected_as_sequence_gap() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let mut cells = seg.segment(&vec![0xabu8; 1000]);
        cells.remove(cells.len() / 2); // Drop a COM cell.
        let mut reasm = Aal34Reassembler::new();
        let mut errs = Vec::new();
        for cell in &cells {
            if let Err(e) = reasm.push(cell) {
                errs.push(e);
            }
        }
        assert!(errs.contains(&Aal34Error::Sequence), "{errs:?}");
        assert_eq!(reasm.stats().datagrams_ok, 0);
    }

    #[test]
    fn corrupted_payload_detected_by_crc10() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let mut cells = seg.segment(&vec![0x5au8; 500]);
        // Flip a payload bit in the middle cell.
        let idx = cells.len() / 2;
        let mut raw = cells[idx].to_bytes();
        raw[20] ^= 0x04;
        cells[idx] = Cell::from_bytes(&raw).expect("header untouched");
        let mut reasm = Aal34Reassembler::new();
        let mut saw_crc = false;
        for cell in &cells {
            if reasm.push(cell) == Err(Aal34Error::Crc) {
                saw_crc = true;
            }
        }
        assert!(saw_crc);
        assert_eq!(reasm.stats().cells_crc_bad, 1);
        assert_eq!(reasm.stats().datagrams_ok, 0);
    }

    #[test]
    fn orphan_cells_rejected() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let cells = seg.segment(&vec![0u8; 500]);
        let mut reasm = Aal34Reassembler::new();
        // Push a COM without its BOM.
        assert_eq!(reasm.push(&cells[1]), Err(Aal34Error::Orphan));
    }

    #[test]
    fn interleaved_boms_reported() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let first = seg.segment(&vec![1u8; 500]);
        let mut seg2 = Aal34Segmenter::new(0, 5, 1);
        let second = seg2.segment(&vec![2u8; 500]);
        let mut reasm = Aal34Reassembler::new();
        reasm.push(&first[0]).unwrap();
        assert_eq!(reasm.push(&second[0]), Err(Aal34Error::MidCollision));
        // The second message still completes.
        let mut out = None;
        for c in &second[1..] {
            if let Some(d) = reasm.push(c).unwrap() {
                out = Some(d);
            }
        }
        assert_eq!(out.unwrap(), vec![2u8; 500]);
    }

    /// Rewrites a cell's SAR trailer to carry `li` and a valid CRC-10,
    /// the way a CRC-10 collision under a high bit error rate would.
    fn restamp(cell: &Cell, li: u8) -> Cell {
        let mut payload = *cell.payload();
        payload[46] = li << 2;
        let crc = crc10_sar(&payload);
        payload[46] |= (crc >> 8) as u8;
        payload[47] = (crc & 0xff) as u8;
        Cell::new(cell.header(), payload)
    }

    #[test]
    fn ssm_with_length_indicator_above_44_is_rejected() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let ssm = seg.segment(b"tiny").remove(0);
        for li in 45..64u8 {
            let mut reasm = Aal34Reassembler::new();
            let bad = restamp(&ssm, li);
            assert_eq!(
                reasm.push(&bad),
                Err(Aal34Error::BadLengthIndicator),
                "li {li}"
            );
            assert_eq!(reasm.stats().datagrams_dropped, 1, "li {li}");
            // The reassembler is still usable.
            assert_eq!(reasm.push(&ssm), Ok(Some(b"tiny".to_vec())));
        }
    }

    /// Wire bytes, not a round trip: a CRC-10 or HEC table that is
    /// wrong the same way on both ends would still round-trip. The
    /// FNV-1a hash over every 53-byte cell of a fixed 8000-byte
    /// datagram was recorded with the bit-serial CRCs.
    #[test]
    fn segmented_cells_match_known_wire_bytes() {
        let data: Vec<u8> = (0..8000u32).map(|i| (i * 7 + 1) as u8).collect();
        let cells = Aal34Segmenter::new(0, 42, 7).segment(&data);
        assert_eq!(cells.len(), 182);
        let fnv = cells
            .iter()
            .flat_map(Cell::to_bytes)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(fnv, 0xd72e_6313_f361_5031);
    }

    /// Cells written over a train that still holds another VC's
    /// cells, some of its slots lost and some corrupted, are the cells
    /// [`Aal34Segmenter::segment`] builds fresh: no stale byte shows in
    /// the padding of a BOM, EOM or SSM cell. The FNV-1a answer over
    /// the sizes around the cell boundaries, 0 and 1 B included, was
    /// recorded when each cell was built on its own and moved out.
    #[test]
    fn cells_written_over_stale_slots_match_known_wire_bytes() {
        const SIZES: [usize; 8] = [0, 1, 36, 37, 44, 200, 4040, 9188];
        const KNOWN: u64 = 0x38ad_cdbb_7b4e_1f45;
        let data = |n: usize| (0..n).map(|i| (i * 7 + 1) as u8).collect::<Vec<u8>>();
        let fnv = |cells: &[Cell]| {
            cells
                .iter()
                .flat_map(Cell::to_bytes)
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                })
        };
        let mut fresh = Aal34Segmenter::new(0, 42, 7);
        let cells: Vec<Cell> = SIZES
            .iter()
            .flat_map(|&n| fresh.segment(&data(n)))
            .collect();
        assert_eq!(fnv(&cells), KNOWN, "fresh cells");

        let mut stale = Aal34Segmenter::new(3, 99, 1);
        let mut seg = Aal34Segmenter::new(0, 42, 7);
        let mut train = Vec::new();
        let mut written = Vec::new();
        for n in SIZES {
            stale.segment_into(&[0xff; 9188], &mut train, |_| {});
            for (i, (_, fault)) in train.iter_mut().enumerate() {
                if i % 3 == 1 {
                    *fault = LinkFault::Lost;
                } else if let (2, LinkFault::Clean(c)) = (i % 5, &*fault) {
                    *fault = LinkFault::Corrupted(c.clone());
                }
            }
            seg.segment_into(&data(n), &mut train, |_| {});
            assert_eq!(train.len(), Aal34Segmenter::cells_for(n), "{n} B");
            written.extend(train.iter().map(|(_, fault)| match fault {
                LinkFault::Clean(c) => c.clone(),
                other => panic!("{n} B: a written slot is {other:?}"),
            }));
        }
        assert_eq!(fnv(&written), KNOWN, "cells written over stale slots");
    }

    #[test]
    fn back_to_back_datagrams() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let a: Vec<u8> = (0..4136u32).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..3944u32).map(|i| (i ^ 0x5a) as u8).collect();
        let mut cells = seg.segment(&a);
        cells.extend(seg.segment(&b));
        let mut reasm = Aal34Reassembler::new();
        let mut got = Vec::new();
        for cell in &cells {
            if let Some(d) = reasm.push(cell).unwrap() {
                got.push(d);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], a);
        assert_eq!(got[1], b);
        assert_eq!(reasm.stats().datagrams_ok, 2);
    }
}
