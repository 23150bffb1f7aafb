//! Stack configuration: the experiment knobs of the paper.

use decstation::ChecksumImpl;

/// How the TCP checksum is handled (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChecksumMode {
    /// Compute the checksum in the TCP layer by walking the data,
    /// using the selected algorithm. The paper's baseline is
    /// `Standard(ChecksumImpl::Bsd)`.
    Standard(ChecksumImpl),
    /// §4.1.1: integrate the checksum with a data copy — on transmit
    /// during the user→mbuf copy (partial checksums stored per mbuf),
    /// on receive during the device→mbuf copy in the driver.
    Integrated,
    /// §4.2: both ends negotiated checksum elimination (Kay &
    /// Pasquale's Alternate Checksum Option); the field is sent as
    /// zero and not verified. Only AAL/link CRCs protect the data.
    None,
}

impl ChecksumMode {
    /// Whether TCP verifies payload checksums on input.
    #[must_use]
    pub fn verifies(self) -> bool {
        !matches!(self, ChecksumMode::None)
    }
}

/// Delayed-ACK timeout in microseconds (BSD fasttimo, 200 ms).
pub const DELACK_US: u64 = 200_000;

/// Retransmission timeout floor in microseconds (BSD slowtimo
/// granularity gives an effective 500 ms minimum initially).
pub const RTO_MIN_US: u64 = 500_000;

/// Congestion-control variant (RFC 5681/6582/2018 family).
///
/// The seed stack recovered like 4.4BSD's fast retransmit but had no
/// congestion-window dynamics beyond slow start; the variants here
/// layer the loss-recovery state machines over the same Jacobson
/// RTO/Karn machinery so the cc study can compare them. All variants
/// share the RFC 5681 slow-start / congestion-avoidance arithmetic
/// already in the stack; they differ only in what happens on the
/// third duplicate ACK and during recovery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CcVariant {
    /// Fast retransmit then slow start from `cwnd = 1 MSS`
    /// (go-back-N: `snd_nxt` rewinds to `snd_una`).
    Tahoe,
    /// Fast recovery: `cwnd = ssthresh + 3·MSS`, inflate per dup ACK,
    /// deflate to `ssthresh` on the first new ACK (RFC 5681 §3.2).
    Reno,
    /// Reno plus the RFC 6582 partial-ACK rule: an ACK that advances
    /// `snd_una` but not past `recover` retransmits the next hole and
    /// stays in recovery. The default: it is what 4.4BSD's successors
    /// shipped, and its clean path (no loss, cwnd never binding) is
    /// event-for-event identical to the seed stack.
    #[default]
    NewReno,
    /// Sender scoreboard built from SACK blocks (RFC 2018) driving
    /// selective retransmission of holes, pipe-limited (RFC 6675
    /// style), with NewReno-style recovery exit at `recover`.
    Sack,
}

impl CcVariant {
    /// Short lowercase name for table keys and CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CcVariant::Tahoe => "tahoe",
            CcVariant::Reno => "reno",
            CcVariant::NewReno => "newreno",
            CcVariant::Sack => "sack",
        }
    }

    /// Parses a variant name as produced by [`CcVariant::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tahoe" => Some(CcVariant::Tahoe),
            "reno" => Some(CcVariant::Reno),
            "newreno" => Some(CcVariant::NewReno),
            "sack" => Some(CcVariant::Sack),
            _ => None,
        }
    }

    /// All variants, in study order.
    pub const ALL: [CcVariant; 4] = [
        CcVariant::Tahoe,
        CcVariant::Reno,
        CcVariant::NewReno,
        CcVariant::Sack,
    ];
}

/// PCB lookup organization (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PcbOrg {
    /// BSD's linked list with most-recent-creation at the head.
    List,
    /// The move-to-front variant of the list: a successful lookup
    /// splices the PCB to the head, keeping active connections cheap.
    Mtf,
    /// The hash table the paper suggests "could eliminate the lookup
    /// problem entirely".
    Hash,
}

/// Per-host stack configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StackConfig {
    /// Checksum handling.
    pub checksum: ChecksumMode,
    /// Header prediction: the PCB cache *and* the precomputed-header
    /// fast path (§3 disables both together, as we do).
    pub header_prediction: bool,
    /// PCB organization.
    pub pcb_org: PcbOrg,
    /// Overrides whether the single-entry PCB cache is consulted.
    /// `None` (the default, and the paper's coupling) follows
    /// `header_prediction`; `Some(_)` decouples the two so the
    /// datacenter study can exercise the last-PCB-cache strategy
    /// independently of the header-prediction fast path.
    pub pcb_cache_override: Option<bool>,
    /// Number of ambient PCBs ahead of the benchmark connection in
    /// the list (standard daemons; §3 found "less than 50" on
    /// workstations). They cost lookup time on a cache miss.
    pub ambient_pcbs: usize,
    /// TCP_NODELAY (disable Nagle). The RPC benchmark sets it.
    pub nodelay: bool,
    /// Cap the MSS at one mbuf cluster (4096), reproducing the
    /// measured system's page-sized segments: the paper's 8000-byte
    /// case sends exactly two packets.
    pub mss_one_cluster: bool,
    /// Socket send/receive buffer size.
    pub sockbuf: usize,
    /// Initial send sequence number (exposed so tests can start near
    /// the wrap point).
    pub iss: u32,
    /// Retransmission limit: when the backoff shift has reached this
    /// value and the retransmit timer fires again, the connection is
    /// aborted with `ETIMEDOUT` (BSD `TCP_MAXRXTSHIFT`). Guarantees
    /// every faulted run terminates instead of retrying forever.
    pub max_rexmt_shift: u32,
    /// Congestion-control variant.
    pub cc: CcVariant,
    /// Initial congestion window in segments. `None` (the default,
    /// and the seed behaviour) starts warm with `cwnd = sockbuf`, so
    /// cwnd never binds on clean paths and the pre-CC goldens hold
    /// byte-identical. `Some(n)` cold-starts `cwnd = n·MSS` with
    /// `ssthresh = sockbuf` so the cc study actually exercises slow
    /// start and recovery.
    pub initial_cwnd_segs: Option<u32>,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            checksum: ChecksumMode::Standard(ChecksumImpl::Bsd),
            header_prediction: true,
            pcb_org: PcbOrg::List,
            pcb_cache_override: None,
            ambient_pcbs: 12,
            nodelay: true,
            mss_one_cluster: true,
            sockbuf: 16 * 1024,
            iss: 0x0001_0000,
            max_rexmt_shift: 12,
            cc: CcVariant::NewReno,
            initial_cwnd_segs: None,
        }
    }
}

impl StackConfig {
    /// Whether the single-entry PCB cache is consulted: the override
    /// when set, otherwise coupled to header prediction as in §3.
    #[must_use]
    pub fn pcb_use_cache(&self) -> bool {
        self.pcb_cache_override.unwrap_or(self.header_prediction)
    }
}

/// Computes the TCP MSS for an interface MTU, BSD style: subtract
/// the 40-byte header, then round down to a multiple of the cluster
/// size when larger than a cluster, optionally capping at one cluster
/// (see [`StackConfig::mss_one_cluster`]).
#[must_use]
pub fn tcp_mss(mtu: usize, mss_one_cluster: bool) -> usize {
    let mss = mtu.saturating_sub(40);
    if mss <= mbuf::MCLBYTES {
        return mss;
    }
    let rounded = mss / mbuf::MCLBYTES * mbuf::MCLBYTES;
    if mss_one_cluster {
        rounded.min(mbuf::MCLBYTES)
    } else {
        rounded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_baseline() {
        let c = StackConfig::default();
        assert_eq!(c.checksum, ChecksumMode::Standard(ChecksumImpl::Bsd));
        assert!(c.header_prediction);
        assert_eq!(c.pcb_org, PcbOrg::List);
        assert!(c.nodelay, "RPC benchmark disables Nagle");
    }

    #[test]
    fn mss_for_atm_mtu() {
        // 9188-byte ATM MTU: page-capped MSS is one cluster.
        assert_eq!(tcp_mss(9188, true), 4096);
        // Without the cap, BSD rounding gives two clusters.
        assert_eq!(tcp_mss(9188, false), 8192);
    }

    #[test]
    fn mss_for_ethernet_mtu() {
        // 1500 - 40: below a cluster, no rounding.
        assert_eq!(tcp_mss(1500, true), 1460);
        assert_eq!(tcp_mss(1500, false), 1460);
    }

    #[test]
    fn mss_tiny_mtu() {
        assert_eq!(tcp_mss(40, true), 0);
        assert_eq!(tcp_mss(576, true), 536);
    }

    #[test]
    fn cc_variant_names_roundtrip() {
        for v in CcVariant::ALL {
            assert_eq!(CcVariant::parse(v.name()), Some(v));
        }
        assert_eq!(CcVariant::parse("cubic"), None);
        assert_eq!(CcVariant::default(), CcVariant::NewReno);
        assert_eq!(StackConfig::default().cc, CcVariant::NewReno);
        assert!(StackConfig::default().initial_cwnd_segs.is_none());
    }

    #[test]
    fn checksum_mode_verifies() {
        assert!(ChecksumMode::Standard(ChecksumImpl::Bsd).verifies());
        assert!(ChecksumMode::Integrated.verifies());
        assert!(!ChecksumMode::None.verifies());
    }
}
