//! The §4.2.1 error-detection counts of one run.
//!
//! The paper argues the TCP checksum can be eliminated on local ATM
//! because the AAL CRCs catch link errors, and enumerates four error
//! sources. Three of them can be injected through an [`Experiment`]'s
//! [`FaultSchedule`] (`ber`, `cell_loss` on ATM, `controller_corrupt`,
//! and `gateway_corrupt` on Ethernet), armed by
//! [`arm_host`](crate::nic::arm_host) like every other fault, and
//! [`DetectionReport::from_run`] counts which layer detected each:
//!
//! 1. **link bit errors** (BER on the fiber) — caught by HEC (header
//!    bits) or the AAL3/4 CRC-10 (payload bits); on Ethernet by the
//!    FCS;
//! 2. **cell loss** — caught by the AAL3/4 sequence numbers / length;
//! 3. **controller corruption** (bits flipped between controller and
//!    host memory) and **gateway corruption** (a frame damaged before
//!    framing) — invisible to every link CRC; only the TCP checksum
//!    (when enabled) or the application notices.
//!
//! The `errors` and `ethernet-errors` sections of the extras study
//! mirror the paper's departmental-Ethernet observation: with a
//! checksum-eliminating configuration, class 3 errors reach the
//! application, while classes 1–2 never do.
//!
//! [`Experiment`]: crate::experiment::Experiment
//! [`FaultSchedule`]: faultkit::FaultSchedule

use crate::experiment::RunResult;

/// Detection counts for one fault-injection run, summed over both
/// hosts.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectionReport {
    /// Cells (or frames) the link corrupted or dropped.
    pub injected_link: u64,
    /// Header corruptions caught by the HEC.
    pub caught_hec: u64,
    /// Payload corruptions / losses caught by AAL3/4.
    pub caught_aal: u64,
    /// Frames caught by the Ethernet FCS.
    pub caught_fcs: u64,
    /// Segments caught by the TCP checksum.
    pub caught_tcp: u64,
    /// Corruptions that reached the application (verification
    /// failures).
    pub reached_app: u64,
    /// TCP retransmissions triggered while recovering.
    pub retransmissions: u64,
    /// Iterations measured despite the faults.
    pub iterations: u64,
}

impl DetectionReport {
    /// The detection counts of `r`.
    #[must_use]
    pub fn from_run(r: &RunResult) -> DetectionReport {
        let (c, s) = (&r.client_nic, &r.server_nic);
        DetectionReport {
            injected_link: c.link_lost + c.link_corrupted + s.link_lost + s.link_corrupted,
            caught_hec: c.hec_drops + s.hec_drops,
            caught_aal: c.aal_drops + s.aal_drops,
            caught_fcs: c.fcs_drops + s.fcs_drops,
            caught_tcp: r.client_kernel.tcp_cksum_drops + r.server_kernel.tcp_cksum_drops,
            reached_app: r.verify_failures,
            retransmissions: r.client_tcp.rexmits + r.server_tcp.rexmits,
            iterations: r.rtts.len() as u64,
        }
    }
}
