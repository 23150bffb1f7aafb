//! `world` — the N-host switch-centered datacenter topology.
//!
//! The paper's testbed is two DECstations on a private fiber; its §3
//! PCB-lookup analysis, though, is about *scale*: "the time to find
//! the PCB grows linearly with the number of open connections", and
//! the remedies it weighs — a move-to-front list, the last-PCB
//! single-entry cache, a hash table — only separate from one another
//! when a host actually holds many connections. This crate builds the
//! world where that happens:
//!
//! - [`Topology`] / [`TrafficSchedule`] declare the world as plain
//!   data — clients, incast fan-in, connections per host, link
//!   delays, switch parameters, start times — so a sweep cell is a
//!   pure function of `(Topology, TrafficSchedule, seed)` and its
//!   report is byte-identical at any `--jobs` value;
//! - [`PcbStrategy`] maps the paper's three §3 lookup organizations
//!   onto the `tcpip` stack configuration;
//! - [`DcWorld`] runs N kernels against one shared output-queued cell
//!   switch, so fan-in queues at the output port (and, past the queue
//!   capacity, tail-drops into TCP loss recovery), composing with the
//!   `faultkit` fault processes on every uplink;
//! - [`run_dc`] pools per-connection RPC round-trips with PCB lookup
//!   and switch contention counters for the `repro dc` study. It runs
//!   each of the world's independent components
//!   ([`Topology::components`]: a server and its fan-in clients, or a
//!   fan-out client and its server block) as its own simulation on the
//!   sweep pool and merges the results into the whole world's, byte for
//!   byte; churn and fabric corruption couple every host into one. A
//!   run ([`DcRunResult`]) and a study cell pooled over its repetitions
//!   ([`DcCellResult`]) are one type, [`DcResult`], pooled by one rule;
//! - [`study`] is the one study layer: it runs every study's grid,
//!   the paper's Tables 1–7 and the loss-recovery grid over the
//!   two-host world included, and turns each cell into a table row and
//!   canonical-JSON fields, including the fan-out studies' scenarios,
//!   rows and reducers.
//!
//! The same machinery hosts the `repro tails` study: a fan-out
//! topology ([`Topology::fanout`]) turns each client into a fan-out
//! RPC issuer — one logical request becomes N parallel sub-requests
//! to N distinct servers, completing when the slowest reply lands —
//! optionally with background churn traffic
//! ([`topology::ChurnTraffic`]) sharing the fabric and fault
//! schedules scoped to the servers ([`topology::FaultScope`]).
//!
//! Every fan-out round runs one tail-tolerant control loop, shaped by
//! the topology's [`topology::TailPolicy`]. Its default is
//! wait-for-all; the `repro hedge` study arms per-request deadlines
//! with typed `DeadlineExceeded` outcomes, budgeted
//! application-level retries, hedged requests against replica
//! servers, and partial (`first K of N`) fan-out — each priced
//! against the wait-for-all baseline under deterministic host pause
//! and link-flap fault schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dc;
pub mod study;
pub mod topology;

pub use dc::{
    dc_pattern, run_dc, DcCellResult, DcConn, DcHost, DcResult, DcRunResult, DcWorld,
    RequestOutcome,
};
pub use study::{
    cc_canonical_json, cc_grid, cc_policies, cc_quick_grid, cc_rows, dc_grid, dc_quick_grid,
    hedge_grid, hedge_quick_grid, rep_seed, run_cc_cells, run_cells, tails_grid, tails_quick_grid,
    CcCell, CcRow, DcCell, HedgeCell, Mitigation, MitigationCost, Scale, Section, Study,
    StudyReport, TailsCell,
};
pub use topology::{
    ChurnTraffic, FaultScope, HedgePolicy, PcbStrategy, RetryPolicy, TailPolicy, Topology,
    TrafficSchedule,
};
