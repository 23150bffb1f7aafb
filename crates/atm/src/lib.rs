//! `atm` — the ATM substrate: 53-byte cells, AAL3/4
//! segmentation/reassembly, the FORE TCA-100 adapter model, the
//! point-to-point fiber link and an output-queued switch.
//!
//! The paper's testbed was a pair of FORE TCA-100 TurboChannel
//! interfaces connected by a *switchless private* fiber at TAXI rates.
//! The interface is deliberately simple — this simplicity is central
//! to several of the paper's findings:
//!
//! - a **memory-mapped transmit FIFO holding 36 cells**, which the
//!   host CPU fills by programmed I/O; "the transmit engine starts
//!   reading from the transmit FIFO as soon as there is one complete
//!   cell in the FIFO" (cut-through), which is why the send-side
//!   checksum cannot be deferred to the driver copy (§4.1.1);
//! - a **receive FIFO holding 292 cells**;
//! - **AAL3/4** segmentation and reassembly "responsible for all
//!   segmentation and reassembly of datagrams and the detection of
//!   transmission errors and dropped cells".
//!
//! Cells, CRCs and reassembly are computed over real bytes; only time
//! is virtual (the adapter and link expose timing as data for the
//! simulator to schedule with).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aal34;
pub mod adapter;
pub mod cell;
pub mod link;
pub mod switch;

pub use aal34::{Aal34Error, Aal34Reassembler, Aal34Segmenter};
pub use adapter::{ForeTca100, RxFifo, TxFifo, FORE_RX_FIFO_CELLS, FORE_TX_FIFO_CELLS};
pub use cell::{Cell, CellHeader, CELL_PAYLOAD, CELL_SIZE};
pub use link::{FiberLink, LinkConfig, LinkFault};
pub use switch::{AtmSwitch, DropPolicy, PortStats, SwitchConfig, SwitchOutcome, VcRoute};
