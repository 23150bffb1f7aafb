//! `tcpip` — a from-scratch reimplementation of the protocol stack
//! the paper measured: the BSD 4.4 alpha TCP grafted onto the ULTRIX
//! 4.2A socket and IP layers.
//!
//! Everything §2 and §3 of the paper attribute behaviour to is
//! implemented, over real bytes:
//!
//! - the **socket layer** with the ULTRIX mbuf/cluster fill policy
//!   and uiomove copies ([`socket`]);
//! - **TCP** with real 20-byte headers, sequence/window machinery,
//!   Nagle (off for the RPC benchmark), delayed ACKs, retransmission
//!   from the socket buffer (the *mcopy* path), MSS computation with
//!   BSD cluster rounding, and the BSD 4.4 **header prediction** fast
//!   path whose RPC-unfriendliness §3 diagnoses ([`tcb`]);
//! - **PCB management**: the move-to-front linked list, the
//!   single-entry PCB cache, and the hash-table organization the
//!   paper suggests ([`pcb`]);
//! - **IP** input/output with real header checksums and the input
//!   queue + software interrupt whose latency is the paper's *IPQ*
//!   span ([`kernel`]);
//! - four **checksum configurations** (§4): the stock BSD kernel
//!   checksum, the optimized algorithm, the integrated
//!   copy-and-checksum with per-mbuf partial sums, and negotiated
//!   checksum elimination ([`config::ChecksumMode`]);
//! - the paper's **probe points** as a span recorder ([`span`]).
//!
//! Time is virtual: every operation charges calibrated DECstation
//! costs from the [`decstation`] cost model. The network driver is
//! *not* here — the kernel emits IP datagrams as mbuf chains and the
//! simulation binding (crate `latency-core`) carries them through the
//! ATM or Ethernet substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod hdr;
pub mod kernel;
pub mod options;
pub mod pcb;
pub mod seq;
pub mod socket;
pub mod span;
pub mod tcb;
pub mod udp;

pub use config::{CcVariant, ChecksumMode, PcbOrg, StackConfig};
pub use hdr::TcpIpHeader;
pub use kernel::{
    CaptureDriver, Kernel, KernelStats, RxSyscallOutcome, SockId, TxDriver, TxEmission, TxOutcome,
};
pub use pcb::{PcbCounters, PcbKey, PcbLookup, PcbTable};
pub use seq::{seq_ge, seq_gt, seq_le, seq_lt};
pub use span::{Mark, SpanKind, SpanRecorder};
pub use tcb::{Tcb, TcpState};
