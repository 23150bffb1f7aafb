//! # tcp-atm-latency
//!
//! A full-system reproduction of **"Latency Analysis of TCP on an ATM
//! Network"** (Alec Wolman, Geoff Voelker, Chandramohan A. Thekkath —
//! USENIX Winter 1994) as a deterministic discrete-event simulation in
//! Rust.
//!
//! The original study instrumented the BSD 4.4 alpha TCP/IP stack on
//! ULTRIX 4.2A, running on DECstation 5000/200 workstations attached
//! to FORE TCA-100 ATM interfaces, and broke round-trip latency down
//! layer by layer. This crate rebuilds that entire system — protocol
//! stack, buffer subsystem, checksum algorithms, ATM and Ethernet
//! substrates, host cost model, and measurement harness — and
//! regenerates every table and figure in the paper's evaluation.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`simkit`] | Discrete-event engine, 40 ns clock, CPU occupancy model, deterministic RNG |
//! | [`decstation`] | Calibrated DECstation 5000/200 cost model and the TurboChannel measurement clock |
//! | [`mbuf`] | BSD mbuf subsystem: 108-byte mbufs, 4 KB refcounted clusters, `m_copy` semantics |
//! | [`cksum`] | Internet checksum algorithms (ULTRIX, optimized, integrated copy+checksum), partial-sum algebra, CRC-10/32/HEC |
//! | [`atm`] | 53-byte cells, AAL3/4 and AAL5 SAR, FORE TCA-100 FIFO model, fiber link with fault injection |
//! | [`ether`] | Ethernet baseline: real framing + FCS, 10 Mbit/s wire, LANCE-class controller model |
//! | [`tcpip`] | The BSD-style stack: sockets, TCP with header prediction, PCB management, IP queue, span instrumentation |
//! | [`simcap`] | Packet capture: layer-boundary taps, dependency-free pcap/pcapng I/O, RFC 1242 same-packet latency analysis, the `capdiff` CLI |
//! | [`latency_core`] | Experiments, workloads, breakdown methodology, paper data, fault studies, capture cross-check |
//! | [`sweep`] | Deterministic parallel sweep runner: declarative experiment grids, key-derived seeding, grid-order merge |
//!
//! ## Quickstart
//!
//! ```
//! use tcp_atm_latency::prelude::*;
//!
//! // The paper's benchmark: an RPC echo ping-pong over ATM.
//! let mut exp = Experiment::rpc(NetKind::Atm, 200);
//! exp.iterations = 100;
//! let run = exp.plan().seed(1).execute();
//! println!("200-byte RTT: {:.0} us", run.mean_rtt_us());
//! assert_eq!(run.verify_failures, 0);
//! ```
//!
//! See `DESIGN.md` for the system inventory, `EXPERIMENTS.md` for the
//! paper-vs-measured comparison, and the `repro` binary
//! (`cargo run --release -p repro-bench --bin repro`) to regenerate
//! every table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use atm;
pub use cksum;
pub use decstation;
pub use ether;
pub use latency_core;
pub use mbuf;
pub use simcap;
pub use simkit;
pub use sweep;
pub use tcpip;
pub use world;

pub use latency_core::capture::{CapturePlan, CaptureRun, HostCapture};
pub use latency_core::experiment::{Experiment, NetKind, RunPlan, RunResult, Workload};
pub use latency_core::prelude;
pub use latency_core::{breakdown, capture, faults, micro, paper, tables};
pub use tcpip::{ChecksumMode, StackConfig};
