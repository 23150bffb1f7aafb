//! `oracle` — analytic cross-checks, runtime invariants, and the
//! golden-regression harness.
//!
//! Three independent lines of defense against silent drift in the
//! reproduction:
//!
//! - [`model`] re-derives the Tables 1–7 latency decompositions in
//!   closed form from the cost tables and protocol constants, and
//!   [`model::predict`] must agree with the event-driven simulation
//!   to within one 40 ns clock tick per span;
//! - [`invariants`] runs an experiment with every runtime checker
//!   armed (event-time monotonicity, clock quantization, mbuf
//!   conservation, TCP sequence-space sanity, capture/span
//!   agreement);
//! - [`golden`] checks live canonical reports against the blessed
//!   JSON under `tests/golden/` byte for byte and explains a mismatch
//!   cell line by cell line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod invariants;
pub mod model;

pub use golden::{diff_report, LineDiff};
pub use invariants::{check_experiment, InvariantReport, Violation};
pub use model::{predict, PredictError, Prediction};
