//! `cksum` — the Internet (ones-complement) checksum, as studied in §4
//! of *Latency Analysis of TCP on an ATM Network*.
//!
//! The paper examines three ways of computing the TCP checksum on a
//! DECstation 5000/200:
//!
//! 1. the stock **ULTRIX 4.2A algorithm**, which reads the data a
//!    halfword (16 bits) at a time ([`ultrix_cksum`]);
//! 2. an **optimized algorithm** in the style of Kay & Pasquale that
//!    reads 32-bit words and unrolls the summation loop
//!    ([`optimized_cksum`]);
//! 3. an **integrated copy-and-checksum** that folds the summation into
//!    a data copy so the bytes cross the memory bus once
//!    ([`copy_and_cksum`]).
//!
//! All three are implemented here as real, executable routines over
//! real bytes. They are verified against each other and against a
//! byte-at-a-time reference model by unit and property tests, and
//! `repro table5` times them natively (the *shape* of the paper's
//! Table 5). The simulator charges their calibrated DECstation costs
//! from the `decstation` crate.
//!
//! The crate also provides the **partial-sum algebra** (RFC 1071 §2)
//! that makes the paper's send-side integration possible: the socket
//! layer checksums each chunk as it is copied into an mbuf, stores the
//! partial sum in the mbuf header, and TCP later *combines* the partial
//! sums — provided it knows each chunk's byte offset parity within the
//! segment ([`PartialChecksum`]).
//!
//! The [`crc`] module holds the link CRCs (AAL3/4 CRC-10, the
//! Ethernet CRC-32, the ATM HEC). On x86_64 CPUs with PCLMULQDQ,
//! detected at run time, CRC-10 and CRC-32 run on the carry-less
//! multiplier; elsewhere on slicing-by-8 tables. Those kernels are the
//! workspace's only `unsafe` code: the lints below deny it everywhere
//! else in this crate, and every other library crate forbids it.
//!
//! # Examples
//!
//! ```
//! use cksum::{optimized_cksum, ultrix_cksum, Sum16};
//!
//! let data = b"hello, 1994";
//! assert_eq!(ultrix_cksum(data), optimized_cksum(data));
//!
//! // A packet that carries its own checksum verifies to zero.
//! let mut packet = vec![0x45, 0x00, 0x00, 0x1c, 0x00, 0x00];
//! let c = Sum16::over(&packet).finish();
//! packet.extend_from_slice(&c.to_be_bytes());
//! assert!(Sum16::over(&packet).is_valid());
//! ```

#![deny(
    unsafe_code,
    unsafe_op_in_unsafe_fn,
    clippy::undocumented_unsafe_blocks,
    clippy::missing_safety_doc
)]
#![warn(missing_docs)]

pub mod algos;
pub mod crc;
pub mod partial;
pub mod pseudo;
pub mod sum;

pub use algos::{copy_and_cksum, naive_cksum, optimized_cksum, ultrix_cksum};
pub use partial::PartialChecksum;
pub use pseudo::pseudo_header_sum;
pub use sum::Sum16;
