//! `simcap` — packet capture and trace analysis for the simulated
//! stack.
//!
//! The paper obtained its latency decomposition by timestamping
//! packets at fixed kernel probe points; this crate gives the
//! simulator the equivalent observability layer, but stronger: taps
//! at the layer boundaries record the *serialized frames* with
//! 40 ns-quantized virtual timestamps, captures serialize to standard
//! pcap / pcapng (openable in tcpdump or Wireshark), and latency —
//! including tail percentiles — is re-derived *from the captures* by
//! RFC 1242-style same-packet matching. The result independently
//! cross-checks the inline span accounting (see
//! `latency_core::capture`).
//!
//! - [`tap`]: [`TapPoint`] / [`TapSet`] — zero-cost when disabled,
//!   deterministic, 40 ns-quantized;
//! - [`pcap`] / [`pcapng`]: dependency-free capture file I/O
//!   (nanosecond precision in both formats);
//! - [`packet`]: TCP segment identity extraction from raw-IP or
//!   Ethernet records;
//! - [`analyze`]: FIFO same-packet matching between two captures and
//!   min/median/p99/max + histogram reduction;
//! - [`sketch`] / [`recorder`]: the streaming observability layer —
//!   a mergeable log-linear quantile sketch with byte-deterministic
//!   integer merges, and the [`Recorder`] that unifies exact,
//!   sketched and trigger-only measurement behind one [`Quantiles`]
//!   read interface;
//! - the `capdiff` binary: the same analysis as a CLI over capture
//!   files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod packet;
pub mod pcap;
pub mod pcapng;
pub mod recorder;
pub mod sketch;
pub mod tap;

pub use analyze::{hop_between, HopReport, LatencyDist, P999_MIN_SAMPLES};
pub use packet::TcpKey;
pub use pcap::{CapError, Capture, PcapWriter, LINKTYPE_EN10MB, LINKTYPE_RAW, LINKTYPE_USER0};
pub use pcapng::{read_any, PcapngWriter};
pub use recorder::{Quantiles, Recorder, RecorderMode};
pub use sketch::{QuantileSketch, MAX_MEMORY_BYTES, RELATIVE_ERROR};
pub use tap::{CaptureMode, CapturedFrame, TapPoint, TapSet, TriggerReason, TriggerSnapshot};
