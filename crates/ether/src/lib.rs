//! `ether` — the 10 Mbit/s Ethernet substrate used as the paper's
//! baseline network (Table 1 compares TCP round-trip times over the
//! FORE ATM interface against the same stack over Ethernet).
//!
//! The DECstation's on-board interface was an AM7990 LANCE. Two
//! properties matter for the comparison and are modelled:
//!
//! - the **wire is 14× slower** than the 140 Mbit/s TAXI fiber and
//!   the 1500-byte MTU forces fragmentation (TCP segmentation) of the
//!   larger transfers;
//! - the **driver/controller path is much more expensive** per packet
//!   than the memory-mapped FORE FIFOs — the paper's 4-byte case
//!   shows a 919 µs gap, mostly controller/driver overhead.
//!
//! Frames are real bytes with a real IEEE CRC-32; the wire model
//! accounts preamble, inter-frame gap and minimum frame size. The
//! private two-host segment of the paper's testbed is collision-free
//! (the measurement hosts were "otherwise idle"), so no CSMA/CD
//! contention is modelled; the wire is still half-duplex serialized
//! per direction pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod lance;
pub mod wire;

pub use frame::{EtherAddr, EtherFrame, ETHERTYPE_IP, ETHER_MAX_PAYLOAD, ETHER_MIN_FRAME};
pub use lance::LanceAdapter;
pub use wire::{EtherWire, WireConfig};
