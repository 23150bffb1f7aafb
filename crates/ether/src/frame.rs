//! Ethernet II framing with a real CRC-32.

use cksum::crc::crc32;

/// Maximum payload bytes per frame (the Ethernet MTU).
pub const ETHER_MAX_PAYLOAD: usize = 1500;

/// Minimum frame size on the wire (header + payload + FCS).
pub const ETHER_MIN_FRAME: usize = 64;

/// Header size: two addresses plus the EtherType.
pub const ETHER_HEADER: usize = 14;

/// Frame check sequence size.
pub const ETHER_FCS: usize = 4;

/// EtherType for IPv4.
pub const ETHERTYPE_IP: u16 = 0x0800;

/// A 48-bit MAC address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EtherAddr(pub [u8; 6]);

impl EtherAddr {
    /// A locally administered address derived from a host id.
    #[must_use]
    pub fn from_host_id(id: u8) -> Self {
        EtherAddr([0x02, 0x00, 0x00, 0x00, 0x00, id])
    }
}

/// Decode errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than a minimal frame.
    Runt,
    /// Longer than MTU + framing.
    Giant,
    /// FCS mismatch — the error class the paper's departmental
    /// Ethernet experiment counts ("TCP detects two orders of
    /// magnitude fewer errors than the Ethernet CRC").
    Fcs,
}

/// A decoded Ethernet frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EtherFrame {
    /// Destination address.
    pub dst: EtherAddr,
    /// Source address.
    pub src: EtherAddr,
    /// EtherType.
    pub ethertype: u16,
    /// Payload (without padding).
    pub payload: Vec<u8>,
}

impl EtherFrame {
    /// Encodes to wire bytes: header, payload, pad to the 64-byte
    /// minimum, FCS.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`ETHER_MAX_PAYLOAD`].
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.payload.len() <= ETHER_MAX_PAYLOAD,
            "payload exceeds the Ethernet MTU"
        );
        let mut out = Vec::with_capacity(ETHER_HEADER + self.payload.len() + ETHER_FCS);
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&self.ethertype.to_be_bytes());
        out.extend_from_slice(&self.payload);
        let min_body = ETHER_MIN_FRAME - ETHER_FCS;
        if out.len() < min_body {
            out.resize(min_body, 0);
        }
        let fcs = crc32(&out);
        out.extend_from_slice(&fcs.to_be_bytes());
        out
    }

    /// Decodes wire bytes, verifying length bounds and the FCS.
    ///
    /// The payload length cannot be recovered from the frame alone
    /// when padding was added (Ethernet II has no length field for
    /// IP); `payload_len` lets the caller pass the length from the IP
    /// header, or `None` to take everything after the header.
    pub fn decode(wire: &[u8], payload_len: Option<usize>) -> Result<EtherFrame, FrameError> {
        if wire.len() < ETHER_MIN_FRAME {
            return Err(FrameError::Runt);
        }
        if wire.len() > ETHER_HEADER + ETHER_MAX_PAYLOAD + ETHER_FCS {
            return Err(FrameError::Giant);
        }
        let body = &wire[..wire.len() - ETHER_FCS];
        let fcs = u32::from_be_bytes(wire[wire.len() - ETHER_FCS..].try_into().expect("4 bytes"));
        if crc32(body) != fcs {
            return Err(FrameError::Fcs);
        }
        let avail = body.len() - ETHER_HEADER;
        let take = payload_len.unwrap_or(avail).min(avail);
        Ok(EtherFrame {
            dst: EtherAddr(body[0..6].try_into().expect("6 bytes")),
            src: EtherAddr(body[6..12].try_into().expect("6 bytes")),
            ethertype: u16::from_be_bytes([body[12], body[13]]),
            payload: body[ETHER_HEADER..ETHER_HEADER + take].to_vec(),
        })
    }

    /// Wire length of this frame when encoded (without preamble/IFG).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        (ETHER_HEADER + self.payload.len() + ETHER_FCS).max(ETHER_MIN_FRAME)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> EtherFrame {
        EtherFrame {
            dst: EtherAddr::from_host_id(2),
            src: EtherAddr::from_host_id(1),
            ethertype: ETHERTYPE_IP,
            payload: (0..n).map(|i| (i * 3 + 1) as u8).collect(),
        }
    }

    #[test]
    fn roundtrip_with_known_length() {
        for n in [0usize, 1, 44, 46, 100, 1400, 1500] {
            let f = frame(n);
            let wire = f.encode();
            let back = EtherFrame::decode(&wire, Some(n)).unwrap();
            assert_eq!(back, f, "payload {n}");
        }
    }

    #[test]
    fn small_frames_are_padded_to_minimum() {
        let f = frame(4);
        let wire = f.encode();
        assert_eq!(wire.len(), ETHER_MIN_FRAME);
        assert_eq!(f.wire_len(), ETHER_MIN_FRAME);
        // Without a length hint the pad is kept (46-byte payload).
        let back = EtherFrame::decode(&wire, None).unwrap();
        assert_eq!(
            back.payload.len(),
            ETHER_MIN_FRAME - ETHER_HEADER - ETHER_FCS
        );
    }

    /// Wire bytes, not a round trip: a CRC-32 table that is wrong the
    /// same way on both ends would still round-trip. These FCS values
    /// were recorded with the bit-serial CRC-32.
    #[test]
    fn fcs_matches_known_answers() {
        for (n, len, fcs) in [(1500, 1518, 0xf583_f03a_u32), (46, 64, 0x72ce_4106)] {
            let wire = frame(n).encode();
            assert_eq!(wire.len(), len, "payload {n}");
            assert_eq!(wire[len - 4..], fcs.to_be_bytes(), "payload {n}");
        }
    }

    #[test]
    fn corruption_detected_by_fcs() {
        let f = frame(300);
        let mut wire = f.encode();
        wire[100] ^= 0x10;
        assert_eq!(EtherFrame::decode(&wire, Some(300)), Err(FrameError::Fcs));
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let f = frame(64);
        let wire = f.encode();
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    EtherFrame::decode(&bad, Some(64)).is_err(),
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }

    #[test]
    fn runt_and_giant_rejected() {
        assert_eq!(EtherFrame::decode(&[0u8; 10], None), Err(FrameError::Runt));
        let too_big = vec![0u8; ETHER_HEADER + ETHER_MAX_PAYLOAD + ETHER_FCS + 1];
        assert_eq!(EtherFrame::decode(&too_big, None), Err(FrameError::Giant));
    }

    #[test]
    #[should_panic(expected = "exceeds the Ethernet MTU")]
    fn oversized_payload_panics() {
        let _ = frame(1501).encode();
    }
}
