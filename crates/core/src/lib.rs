//! `latency-core` — the experiment harness that reproduces every
//! measurement in *Latency Analysis of TCP on an ATM Network*
//! (Wolman, Voelker, Thekkath; USENIX Winter 1994).
//!
//! This crate binds the pieces together:
//!
//! - [`nic`] implements the network drivers over the [`atm`] and
//!   [`ether`] substrates, connecting the [`tcpip`] kernel to the
//!   simulated wire with cut-through FIFO timing;
//! - [`app`] models the paper's benchmark processes: the RPC
//!   ping-pong client/server pair (§1.2) plus the unidirectional bulk
//!   transfer used to validate the header-prediction analysis (§3);
//! - [`world`] is the two-host discrete-event simulation, and [`host`]
//!   the software-interrupt and TCP-timer handlers it shares with the
//!   datacenter world;
//! - [`breakdown`] applies the paper's measurement methodology to the
//!   recorded spans (transmit spans summed per send; receive spans
//!   clipped to the window after "the arrival of the last group of
//!   ATM cells comprising the last TCP segment");
//! - [`experiment`] defines one runnable experiment per table/figure,
//!   [`tables`] formats them, and [`paper`] embeds the published
//!   numbers for side-by-side comparison;
//! - [`micro`] covers the in-text microbenchmarks (PCB lookup
//!   scaling, mbuf allocation, the Table 5 copy/checksum costs);
//! - [`faults`] reduces a run to the §4.2.1 error-detection counts;
//! - [`obs`] holds the study-side sample containers and
//!   [`obs::Summary`], the latency columns every study row reads;
//!   [`recovery`] is the loss-recovery study built on it (the
//!   datacenter studies and their reducers live in the `world` crate);
//! - [`capture`] re-derives the latency tables a second, independent
//!   way: packet taps at the layer boundaries feed pcap/pcapng
//!   captures, and RFC 1242 same-packet matching across taps must
//!   reproduce the inline accounting to within one 40 ns clock tick
//!   per span.
//!
//! # Quickstart
//!
//! ```
//! use latency_core::prelude::*;
//!
//! let mut exp = Experiment::rpc(NetKind::Atm, 200);
//! exp.iterations = 50;
//! exp.warmup = 5;
//! let run = exp.plan().seed(1).execute();
//! assert!(run.mean_rtt_us() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod breakdown;
pub mod capture;
pub mod experiment;
pub mod faults;
pub mod host;
pub mod micro;
pub mod nic;
pub mod obs;
pub mod paper;
pub mod recovery;
pub mod stats;
pub mod tables;
pub mod world;

pub use breakdown::{compute_breakdown_samples, RxBreakdown, TxBreakdown};
pub use capture::{CapturePlan, CaptureRun, HostCapture};
pub use experiment::{Experiment, NetKind, RunPlan, RunResult};
pub use obs::{ObsMode, Samples, Summary};
pub use world::{Host, World};

/// One-stop imports for writing experiments: the experiment and plan
/// builders, the result/breakdown types, the capture harness, and the
/// fault-injection schedule.
///
/// ```
/// use latency_core::prelude::*;
///
/// let run = Experiment::rpc(NetKind::Atm, 200).plan().execute();
/// assert!(run.mean_rtt_us() > 0.0);
/// ```
pub mod prelude {
    pub use crate::breakdown::{RxBreakdown, TxBreakdown};
    pub use crate::capture::{CapturePlan, CaptureRun, HostCapture};
    pub use crate::experiment::{Experiment, NetKind, NicStats, RunPlan, RunResult, Workload};
    pub use faultkit::{ContentionCfg, FaultSchedule, GilbertElliott, TrainFaults};
    pub use simkit::SimTime;
}
