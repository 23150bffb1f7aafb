//! `mbuf` — a faithful model of the BSD memory-buffer subsystem as it
//! existed in ULTRIX 4.2A / BSD 4.4 alpha, with real byte storage.
//!
//! §2.2.1 of the paper turns on three properties of this subsystem, all
//! reproduced here:
//!
//! - **Two buffer kinds.** Ordinary mbufs hold 108 bytes of data (100
//!   when they carry a packet header); *cluster* mbufs reference a
//!   4096-byte page. The ULTRIX socket layer switches from ordinary
//!   mbufs to clusters once a transfer exceeds 1 KB — the cause of the
//!   nonlinearity between the 500- and 1400-byte rows of the paper's
//!   Table 2.
//! - **Copy semantics.** `m_copy` on ordinary mbufs allocates fresh
//!   mbufs and copies the bytes; on cluster mbufs it merely bumps a
//!   reference count. TCP `m_copy`s every segment it transmits (to
//!   keep data for retransmission), so this difference shows up
//!   directly in the *mcopy* row of Table 2.
//! - **Cheap allocation.** Allocating and freeing an mbuf of either
//!   kind costs just over 7 µs on the DECstation — "a small cost
//!   relative to the overall cost of sending or receiving data".
//!
//! Every operation that touches memory returns an [`OpCost`] receipt
//! (bytes copied, buffers allocated/freed, clusters shared) which the
//! simulation layers convert into DECstation time via the `decstation`
//! cost model. The bytes themselves are real: payload data round-trips
//! through this subsystem and is verified end-to-end by the stack.
//!
//! # Examples
//!
//! ```
//! use mbuf::{Chain, MbufPool, MCLBYTES};
//!
//! let pool = MbufPool::new();
//! // Socket-layer style fill: over 1 KB, so clusters are used.
//! let (chain, cost) = Chain::from_user_data(&pool, &vec![7u8; 4000], true);
//! assert_eq!(chain.len(), 4000);
//! assert_eq!(cost.clusters_allocated, 1);
//!
//! // TCP-style m_copy: clusters are shared, not copied.
//! let (copy, ccost) = chain.copy_range(&pool, 0, 4000);
//! assert_eq!(copy.to_vec(), chain.to_vec());
//! assert_eq!(ccost.bytes_copied, 0);
//! assert_eq!(ccost.clusters_shared, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod cost;
pub mod mbuf;
pub mod pool;

pub use chain::Chain;
pub use cost::OpCost;
pub use mbuf::{Mbuf, MbufKind, MCLBYTES, MHLEN, MLEN, MSIZE};
pub use pool::{Enobufs, MbufPool, PoolStats};
