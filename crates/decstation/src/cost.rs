//! The calibrated cost model.
//!
//! Each field of [`CostModel`] prices one code path of the measured
//! system. The doc comment on every field records where its value
//! comes from in the paper. Fields fall into four groups:
//!
//! 1. **User-level algorithm costs** (`ua_*`) — the paper's Table 5:
//!    checksum and copy routines run *at user level* by the
//!    microbenchmark of §4.1. These anchor the pure data-touching
//!    rates of the machine.
//! 2. **Kernel span costs** — Tables 2 and 3: the per-layer costs at
//!    the same probe granularity the paper instrumented.
//! 3. **Driver costs** — the FORE TCA-100 and LANCE models.
//! 4. **Integration deltas** — the extra/removed work of the §4
//!    checksum optimizations.
//!
//! All raw constants are microseconds (`f64`); evaluation returns
//! [`SimTime`].

use simkit::SimTime;

/// A linear cost: `fixed + per_byte·bytes + per_unit·units`
/// microseconds, where *units* is usually an mbuf, cluster, or cell
/// count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearCost {
    /// Fixed microseconds per invocation.
    pub fixed_us: f64,
    /// Microseconds per byte touched.
    pub per_byte_us: f64,
    /// Microseconds per auxiliary unit (mbuf, cluster, cell ...).
    pub per_unit_us: f64,
}

impl LinearCost {
    /// A cost with only fixed and per-byte components.
    #[must_use]
    pub const fn rate(fixed_us: f64, per_byte_us: f64) -> Self {
        LinearCost {
            fixed_us,
            per_byte_us,
            per_unit_us: 0.0,
        }
    }

    /// Full three-component cost.
    #[must_use]
    pub const fn new(fixed_us: f64, per_byte_us: f64, per_unit_us: f64) -> Self {
        LinearCost {
            fixed_us,
            per_byte_us,
            per_unit_us,
        }
    }

    /// Evaluates the cost in microseconds.
    #[must_use]
    pub fn us(&self, bytes: usize, units: usize) -> f64 {
        self.fixed_us + self.per_byte_us * bytes as f64 + self.per_unit_us * units as f64
    }

    /// Evaluates the cost as simulated time.
    #[must_use]
    pub fn eval(&self, bytes: usize, units: usize) -> SimTime {
        SimTime::from_us_f64(self.us(bytes, units))
    }
}

/// Which checksum implementation the kernel runs (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChecksumImpl {
    /// The stock ULTRIX 4.2A halfword algorithm.
    Ultrix,
    /// The BSD 4.4 alpha `in_cksum` as measured in Tables 2–3 (the
    /// baseline kernel of the paper).
    Bsd,
    /// The optimized (unrolled, word-at-a-time) rewrite.
    Optimized,
}

/// The calibrated DECstation 5000/200 cost model.
///
/// `CostModel::calibrated()` returns the constants fitted to the
/// paper; tests and ablations may build variants (e.g. a faster CPU)
/// by mutating fields.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    // ------------------------------------------------------------------
    // User-level algorithm costs (Table 5 fits; `repro table5` also
    // times the native routines, the *shape* on modern hardware).
    // ------------------------------------------------------------------
    /// ULTRIX checksum at user level. Fit of Table 5 column 1:
    /// slope (1605−807)/4000 ≈ 0.1995 µs/B, intercept ≈ 4.2 µs.
    pub ua_ultrix_cksum: LinearCost,
    /// `bcopy` at user level. Fit of Table 5 column 2: 0.087 µs/B +
    /// 3.0 µs.
    pub ua_bcopy: LinearCost,
    /// Optimized checksum at user level. Fit of Table 5 column 3:
    /// 0.094 µs/B + 2.0 µs ("96 µs to checksum 1 KB").
    pub ua_opt_cksum: LinearCost,
    /// Integrated copy+checksum at user level. Fit of Table 5 column
    /// 4: 0.1085 µs/B + 2.0 µs ("effective bandwidth ... just above
    /// 9 MB/s").
    pub ua_integrated: LinearCost,

    // ------------------------------------------------------------------
    // Socket layer and user/kernel boundary (Tables 2–3, User rows).
    // ------------------------------------------------------------------
    /// Transmit `write` path through the socket layer when the data
    /// goes into ordinary mbufs (≤ 1 KB): syscall + sosend + uiomove.
    /// Fit of Table 2 User row, sizes 4–500: fixed 44, copyin at the
    /// bcopy rate, ≈7 µs per additional mbuf.
    pub user_tx_small: LinearCost,
    /// Same path when cluster mbufs are used (> 1 KB). The effective
    /// copyin rate is lower (page-aligned copies, no fragmentation):
    /// fit of Table 2 User row sizes 1400–8000: ≈0.030 µs/B + 12 µs
    /// per cluster.
    pub user_tx_cluster: LinearCost,
    /// Receive `read` return path: soreceive + copyout + syscall
    /// return. Fit of Table 3 User row: fixed 60, 0.0346 µs/B, 4 µs
    /// per mbuf.
    pub user_rx: LinearCost,

    // ------------------------------------------------------------------
    // Mbuf allocator (§2.2.1).
    // ------------------------------------------------------------------
    /// One allocate **and** free of an mbuf of either kind: "just
    /// over 7 µs". Used by the standalone allocator experiment; the
    /// span costs above already include their own allocator work.
    pub mbuf_alloc_free_pair_us: f64,

    // ------------------------------------------------------------------
    // TCP (Tables 2–3, §3).
    // ------------------------------------------------------------------
    /// `tcp_output` protocol processing per segment, excluding
    /// checksum and mcopy (the Table 2 *segment* row, ≈63 µs across
    /// all sizes).
    pub tcp_out_segment_us: f64,
    /// Subsequent segments within the same send call run warm
    /// (template and cache reuse): Table 2's 8000-byte column shows
    /// the two-segment case costing 72 µs, not 2×63.
    pub tcp_out_segment_warm_us: f64,
    /// `tcp_input` slow path (the RPC case: data + piggybacked ACK
    /// defeats header prediction). Table 3 segment row ≈ 135 µs plus
    /// ≈2.5 µs per mbuf in the chain (the 500-byte case reads 158).
    pub tcp_in_slow: LinearCost,
    /// `tcp_input` header-prediction fast path (pure in-sequence
    /// data, or pure ACK). Table 3's 8000-byte column: 59 µs.
    pub tcp_in_fast_us: f64,
    /// The transmit-side retransmission copy (`m_copy`) when the
    /// socket buffer holds ordinary mbufs: real copy. Fit of Table 2
    /// mcopy row sizes 4–500: 4.5 + 0.145 µs/B.
    pub mcopy_small: LinearCost,
    /// `m_copy` when the socket buffer holds clusters: reference
    /// count only. Table 2 mcopy row sizes 1400–8000: ≈25 µs + 5 µs
    /// per cluster.
    pub mcopy_cluster: LinearCost,
    /// Checking the single-entry PCB cache (§3).
    pub pcb_cache_check_us: f64,
    /// Linear PCB list lookup: base cost of the search loop itself
    /// (the §3 sweep measured the loop: 20 entries → 26 µs).
    pub pcb_lookup_base_us: f64,
    /// Fixed overhead of an `in_pcblookup` call from `tcp_input`
    /// (call setup, wildcard-match argument handling) — paid on every
    /// PCB-cache miss, on top of the search loop. Calibrated from
    /// Table 4's small-size deltas (the paper attributes them to "a
    /// hit in the PCB cache" avoiding the call).
    pub pcb_lookup_call_us: f64,
    /// Per-entry search cost: "just less than 1.3 µs" per element on
    /// the DECstation (§3; 20 entries → 26 µs, 1000 → 1280 µs).
    pub pcb_lookup_per_entry_us: f64,
    /// Cost to probe one bucket of the hash-table PCB organization
    /// the paper suggests (§3) — modelled as hash + one compare.
    pub pcb_hash_probe_us: f64,

    // ------------------------------------------------------------------
    // Kernel checksum rates (Tables 2–3 checksum rows).
    // ------------------------------------------------------------------
    /// BSD 4.4 `in_cksum` as shipped (the baseline kernel): fit of
    /// the Table 2/3 checksum rows over data+40 header bytes:
    /// 0.1425 µs/B, 2.5 µs fixed, ≈1.2 µs per mbuf.
    pub kcksum_bsd: LinearCost,
    /// The ULTRIX algorithm if run in the kernel (ablation): user
    /// rate plus the same per-mbuf walk overhead.
    pub kcksum_ultrix: LinearCost,
    /// The optimized algorithm in the kernel (§4.1, used by the
    /// integrated configuration's fallback path).
    pub kcksum_opt: LinearCost,

    // ------------------------------------------------------------------
    // Integrated copy-and-checksum deltas (§4.1.1, Table 6).
    // ------------------------------------------------------------------
    /// Extra per-byte cost of integrating the checksum into a copy.
    /// The user-level delta is 0.0215 µs/B (Table 5: 0.1085
    /// integrated − 0.087 bcopy); the in-kernel loop pays more
    /// (mbuf-chunk boundaries, cache pressure), calibrated to put
    /// Table 6's break-even between 500 and 1400 bytes.
    pub integrated_delta_per_byte_us: f64,
    /// Fixed per-send overhead of the integrated scheme: partial-
    /// checksum bookkeeping in the socket layer and TCP. Calibrated
    /// against Table 6's small-size slowdown (−22% at 4 B).
    pub integrated_tx_fixed_us: f64,
    /// Fixed per-receive overhead of the integrated scheme in the
    /// driver. Calibrated with the field above.
    pub integrated_rx_fixed_us: f64,
    /// Combining stored partial checksums in TCP instead of walking
    /// the data: fixed plus per-mbuf.
    pub partial_combine: LinearCost,

    // ------------------------------------------------------------------
    // UDP (extension; rates in the spirit of Kay & Pasquale's
    // DECstation 5000 measurements, which found UDP protocol
    // processing roughly a third of TCP's per-packet cost).
    // ------------------------------------------------------------------
    /// `udp_output` per datagram (header build + socket demux).
    pub udp_out_us: f64,
    /// `udp_input` per datagram.
    pub udp_in_us: f64,

    // ------------------------------------------------------------------
    // IP (Tables 2–3).
    // ------------------------------------------------------------------
    /// `ip_output` per packet (Table 2 IP row: ≈35.5 µs, size
    /// independent).
    pub ip_out_us: f64,
    /// Subsequent packets in the same send call (warm).
    pub ip_out_warm_us: f64,
    /// `ip_input` for a single-mbuf packet (Table 3 IP row, 4–20 B:
    /// 40 µs).
    pub ip_in_small_us: f64,
    /// Extra when the packet spans several ordinary mbufs (80–500 B
    /// rows read 62 µs).
    pub ip_in_multi_mbuf_extra_us: f64,
    /// `ip_input` when the data arrived into cluster mbufs (1400+
    /// rows: ≈51 µs).
    pub ip_in_cluster_us: f64,
    /// IP input queue: software-interrupt dispatch latency (Table 3
    /// IPQ row: 22 µs).
    pub softintr_dispatch_us: f64,
    /// Additional IPQ latency when cluster mbufs are in play (driver
    /// post-enqueue work; 1400+ rows read ≈45 µs).
    pub ipq_cluster_extra_us: f64,

    // ------------------------------------------------------------------
    // Scheduling (Table 3, §2.2.4).
    // ------------------------------------------------------------------
    /// Process wakeup: run-queue insertion to first user instruction
    /// (Table 3 Wakeup row: ≈47 µs).
    pub wakeup_us: f64,

    // ------------------------------------------------------------------
    // FORE TCA-100 ATM driver (Tables 2–3 ATM rows).
    // ------------------------------------------------------------------
    /// Transmit: fixed driver entry/packet setup.
    pub atm_tx_fixed_us: f64,
    /// Transmit: per-cell cost of segmenting and copying into the
    /// memory-mapped TX FIFO.
    pub atm_tx_per_cell_us: f64,
    /// Receive: interrupt dispatch and per-datagram driver fixed
    /// cost.
    pub atm_rx_fixed_us: f64,
    /// Receive: per-cell cost of reading the RX FIFO, AAL3/4 SAR
    /// processing, and the copy into mbufs. Fit of Table 3 ATM row:
    /// ≈0.22 µs/B ≈ 9.6 µs per 44-payload-byte cell.
    pub atm_rx_per_cell_us: f64,

    // ------------------------------------------------------------------
    // LANCE Ethernet driver (Table 1 baseline).
    // ------------------------------------------------------------------
    /// Ethernet transmit: fixed per-packet driver cost. Calibrated
    /// from Table 1's 919 µs ATM-vs-Ethernet gap at 4 bytes.
    pub eth_tx_fixed_us: f64,
    /// Ethernet transmit: per-byte host→LANCE copy.
    pub eth_tx_per_byte_us: f64,
    /// Ethernet receive: fixed per-packet driver cost.
    pub eth_rx_fixed_us: f64,
    /// Ethernet receive: per-byte LANCE→host copy.
    pub eth_rx_per_byte_us: f64,
}

impl CostModel {
    /// The constants calibrated to the paper (see field docs).
    #[must_use]
    pub fn calibrated() -> Self {
        CostModel {
            ua_ultrix_cksum: LinearCost::rate(4.2, 0.1995),
            ua_bcopy: LinearCost::rate(3.0, 0.087),
            ua_opt_cksum: LinearCost::rate(2.0, 0.094),
            ua_integrated: LinearCost::rate(2.0, 0.1085),

            user_tx_small: LinearCost::new(44.0, 0.087, 7.0),
            user_tx_cluster: LinearCost::new(44.0, 0.030, 12.0),
            user_rx: LinearCost::new(60.0, 0.0346, 4.0),

            mbuf_alloc_free_pair_us: 7.2,

            tcp_out_segment_us: 63.0,
            tcp_out_segment_warm_us: 9.0,
            tcp_in_slow: LinearCost::new(130.0, 0.0, 2.5),
            tcp_in_fast_us: 59.0,
            mcopy_small: LinearCost::rate(4.5, 0.145),
            mcopy_cluster: LinearCost::new(24.0, 0.0, 5.0),
            pcb_cache_check_us: 1.0,
            pcb_lookup_base_us: 1.5,
            pcb_lookup_call_us: 10.5,
            pcb_lookup_per_entry_us: 1.28,
            pcb_hash_probe_us: 3.0,

            kcksum_bsd: LinearCost::new(2.5, 0.1425, 1.2),
            kcksum_ultrix: LinearCost::new(4.2, 0.1995, 1.2),
            kcksum_opt: LinearCost::new(2.0, 0.094, 1.2),

            integrated_delta_per_byte_us: 0.035,
            integrated_tx_fixed_us: 70.0,
            integrated_rx_fixed_us: 65.0,
            partial_combine: LinearCost::new(3.0, 0.0, 1.0),

            udp_out_us: 24.0,
            udp_in_us: 45.0,

            ip_out_us: 35.5,
            ip_out_warm_us: 4.0,
            ip_in_small_us: 40.0,
            ip_in_multi_mbuf_extra_us: 22.0,
            ip_in_cluster_us: 51.0,
            softintr_dispatch_us: 22.0,
            ipq_cluster_extra_us: 23.0,

            wakeup_us: 47.0,

            atm_tx_fixed_us: 20.0,
            atm_tx_per_cell_us: 2.2,
            atm_rx_fixed_us: 40.0,
            atm_rx_per_cell_us: 9.6,

            eth_tx_fixed_us: 255.0,
            eth_tx_per_byte_us: 0.19,
            eth_rx_fixed_us: 200.0,
            eth_rx_per_byte_us: 0.34,
        }
    }

    /// Kernel checksum cost over `bytes` spread across `mbufs`
    /// buffers, for the selected implementation.
    #[must_use]
    pub fn kernel_cksum(&self, which: ChecksumImpl, bytes: usize, mbufs: usize) -> SimTime {
        let c = match which {
            ChecksumImpl::Ultrix => &self.kcksum_ultrix,
            ChecksumImpl::Bsd => &self.kcksum_bsd,
            ChecksumImpl::Optimized => &self.kcksum_opt,
        };
        c.eval(bytes, mbufs)
    }

    /// Returns a cost model for a host `speedup`× faster than the
    /// DECstation 5000/200: every CPU-bound constant is divided by
    /// the factor. Wire and adapter *transmission* times are not in
    /// this model (they live in the link configs), so scaling answers
    /// the paper's motivating question — "with faster network
    /// hardware, the disparity between software and hardware costs is
    /// even greater" — in the opposite direction: how much of the
    /// measured latency survives arbitrarily fast software?
    #[must_use]
    pub fn scaled_cpu(&self, speedup: f64) -> CostModel {
        assert!(speedup > 0.0, "speedup must be positive");
        let f = |c: &LinearCost| LinearCost {
            fixed_us: c.fixed_us / speedup,
            per_byte_us: c.per_byte_us / speedup,
            per_unit_us: c.per_unit_us / speedup,
        };
        CostModel {
            ua_ultrix_cksum: f(&self.ua_ultrix_cksum),
            ua_bcopy: f(&self.ua_bcopy),
            ua_opt_cksum: f(&self.ua_opt_cksum),
            ua_integrated: f(&self.ua_integrated),
            user_tx_small: f(&self.user_tx_small),
            user_tx_cluster: f(&self.user_tx_cluster),
            user_rx: f(&self.user_rx),
            mbuf_alloc_free_pair_us: self.mbuf_alloc_free_pair_us / speedup,
            tcp_out_segment_us: self.tcp_out_segment_us / speedup,
            tcp_out_segment_warm_us: self.tcp_out_segment_warm_us / speedup,
            tcp_in_slow: f(&self.tcp_in_slow),
            tcp_in_fast_us: self.tcp_in_fast_us / speedup,
            mcopy_small: f(&self.mcopy_small),
            mcopy_cluster: f(&self.mcopy_cluster),
            pcb_cache_check_us: self.pcb_cache_check_us / speedup,
            pcb_lookup_base_us: self.pcb_lookup_base_us / speedup,
            pcb_lookup_call_us: self.pcb_lookup_call_us / speedup,
            pcb_lookup_per_entry_us: self.pcb_lookup_per_entry_us / speedup,
            pcb_hash_probe_us: self.pcb_hash_probe_us / speedup,
            kcksum_bsd: f(&self.kcksum_bsd),
            kcksum_ultrix: f(&self.kcksum_ultrix),
            kcksum_opt: f(&self.kcksum_opt),
            udp_out_us: self.udp_out_us / speedup,
            udp_in_us: self.udp_in_us / speedup,
            integrated_delta_per_byte_us: self.integrated_delta_per_byte_us / speedup,
            integrated_tx_fixed_us: self.integrated_tx_fixed_us / speedup,
            integrated_rx_fixed_us: self.integrated_rx_fixed_us / speedup,
            partial_combine: f(&self.partial_combine),
            ip_out_us: self.ip_out_us / speedup,
            ip_out_warm_us: self.ip_out_warm_us / speedup,
            ip_in_small_us: self.ip_in_small_us / speedup,
            ip_in_multi_mbuf_extra_us: self.ip_in_multi_mbuf_extra_us / speedup,
            ip_in_cluster_us: self.ip_in_cluster_us / speedup,
            softintr_dispatch_us: self.softintr_dispatch_us / speedup,
            ipq_cluster_extra_us: self.ipq_cluster_extra_us / speedup,
            wakeup_us: self.wakeup_us / speedup,
            atm_tx_fixed_us: self.atm_tx_fixed_us / speedup,
            atm_tx_per_cell_us: self.atm_tx_per_cell_us / speedup,
            atm_rx_fixed_us: self.atm_rx_fixed_us / speedup,
            atm_rx_per_cell_us: self.atm_rx_per_cell_us / speedup,
            eth_tx_fixed_us: self.eth_tx_fixed_us / speedup,
            eth_tx_per_byte_us: self.eth_tx_per_byte_us / speedup,
            eth_rx_fixed_us: self.eth_rx_fixed_us / speedup,
            eth_rx_per_byte_us: self.eth_rx_per_byte_us / speedup,
        }
    }

    /// PCB list lookup cost when the entry is found at 1-based
    /// `position` in a linear search.
    #[must_use]
    pub fn pcb_lookup(&self, position: usize) -> SimTime {
        SimTime::from_us_f64(
            self.pcb_lookup_base_us + self.pcb_lookup_per_entry_us * position as f64,
        )
    }

    /// One mbuf allocate/free pair (§2.2.1 microbenchmark).
    #[must_use]
    pub fn mbuf_alloc_free_pair(&self) -> SimTime {
        SimTime::from_us_f64(self.mbuf_alloc_free_pair_us)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

/// The scalar costs the kernel charges per event, each converted to
/// [`SimTime`] once with the model's own `SimTime::from_us_f64`, so
/// the values are bit-identical. Linear costs are evaluated from the
/// model at each charge: [`LinearCost::eval`] is a multiply-add, and
/// no cache can then disagree with the model. Rebuild the tables if
/// the model changes.
#[derive(Clone, Debug)]
pub struct CostTables {
    /// `user_tx_small.fixed_us`: syscall entry overhead.
    pub user_tx_small_fixed: SimTime,
    /// `tcp_out_segment_us`: first-segment TCP output processing.
    pub tcp_out_segment: SimTime,
    /// `tcp_out_segment_warm_us`: warm-cache follow-up segments.
    pub tcp_out_segment_warm: SimTime,
    /// `tcp_in_slow.fixed_us`: slow-path TCP input, fixed part.
    pub tcp_in_slow_fixed: SimTime,
    /// `ip_out_us`: first-segment IP output.
    pub ip_out: SimTime,
    /// `ip_out_warm_us`: warm-cache follow-up segments.
    pub ip_out_warm: SimTime,
    /// `softintr_dispatch_us`: raising the software interrupt.
    pub softintr_dispatch: SimTime,
    /// `wakeup_us`: waking a blocked process.
    pub wakeup: SimTime,
    /// `udp_out_us`: UDP output processing.
    pub udp_out: SimTime,
    /// `udp_in_us`: UDP input processing.
    pub udp_in: SimTime,
}

impl CostTables {
    /// Converts the scalar costs of a cost model.
    #[must_use]
    pub fn new(m: &CostModel) -> Self {
        CostTables {
            user_tx_small_fixed: SimTime::from_us_f64(m.user_tx_small.fixed_us),
            tcp_out_segment: SimTime::from_us_f64(m.tcp_out_segment_us),
            tcp_out_segment_warm: SimTime::from_us_f64(m.tcp_out_segment_warm_us),
            tcp_in_slow_fixed: SimTime::from_us_f64(m.tcp_in_slow.fixed_us),
            ip_out: SimTime::from_us_f64(m.ip_out_us),
            ip_out_warm: SimTime::from_us_f64(m.ip_out_warm_us),
            softintr_dispatch: SimTime::from_us_f64(m.softintr_dispatch_us),
            wakeup: SimTime::from_us_f64(m.wakeup_us),
            udp_out: SimTime::from_us_f64(m.udp_out_us),
            udp_in: SimTime::from_us_f64(m.udp_in_us),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Table 5 fits reproduce the paper's user-level measurements
    /// within 15% at every published size (most are within 5%).
    #[test]
    fn table5_fits_track_the_paper() {
        let m = CostModel::calibrated();
        let sizes = [4usize, 20, 80, 200, 500, 1400, 4000, 8000];
        let ultrix = [5.0, 7.0, 20.0, 43.0, 104.0, 283.0, 807.0, 1605.0];
        let bcopy = [4.0, 5.0, 11.0, 20.0, 47.0, 124.0, 350.0, 698.0];
        let opt = [3.0, 4.0, 9.0, 21.0, 49.0, 134.0, 378.0, 754.0];
        let integ = [3.0, 5.0, 10.0, 24.0, 56.0, 153.0, 430.0, 864.0];
        let check = |cost: &LinearCost, table: &[f64], name: &str| {
            for (&n, &want) in sizes.iter().zip(table) {
                let got = cost.us(n, 0);
                let err = (got - want).abs() / want.max(3.0);
                assert!(err < 0.25, "{name} at {n}: model {got:.1} vs paper {want}");
            }
        };
        check(&m.ua_ultrix_cksum, &ultrix, "ultrix");
        check(&m.ua_bcopy, &bcopy, "bcopy");
        check(&m.ua_opt_cksum, &opt, "optimized");
        check(&m.ua_integrated, &integ, "integrated");
    }

    /// §4.1's headline comparisons hold in the model: checksumming
    /// 1 KB costs ≈96 µs, copying ≈91 µs, and the integrated routine
    /// ≈111 µs (a 40% saving over copy + separate checksum at 8 KB).
    #[test]
    fn section41_headline_numbers() {
        let m = CostModel::calibrated();
        let c1k = m.ua_opt_cksum.us(1024, 0);
        let b1k = m.ua_bcopy.us(1024, 0);
        let i1k = m.ua_integrated.us(1024, 0);
        assert!((c1k - 96.0).abs() < 8.0, "{c1k}");
        assert!((b1k - 91.0).abs() < 8.0, "{b1k}");
        assert!((i1k - 111.0).abs() < 8.0, "{i1k}");

        let separate = m.ua_opt_cksum.us(8000, 0) + m.ua_bcopy.us(8000, 0);
        let integrated = m.ua_integrated.us(8000, 0);
        let saving = 1.0 - integrated / separate;
        assert!((saving - 0.40).abs() < 0.03, "saving {saving}");
    }

    /// The integrated loop limits copy bandwidth to ≈9 MB/s.
    #[test]
    fn integrated_bandwidth_limit() {
        let m = CostModel::calibrated();
        let mb_per_s = 1.0 / m.ua_integrated.per_byte_us; // B/µs == MB/s.
        assert!((9.0..10.0).contains(&mb_per_s), "{mb_per_s}");
    }

    /// Kernel checksum rate fits the Table 2/3 checksum rows.
    #[test]
    fn kernel_checksum_rows() {
        let m = CostModel::calibrated();
        // (payload, mbufs, paper tx value)
        let rows: [(usize, usize, f64); 8] = [
            (4, 1, 10.0),
            (20, 1, 12.0),
            (80, 1, 23.0),
            (200, 2, 42.0),
            (500, 5, 90.0),
            (1400, 1, 209.0),
            (4000, 1, 576.0),
            (8000, 2, 1149.0),
        ];
        for (n, mbufs, want) in rows {
            let got = m
                .kernel_cksum(ChecksumImpl::Bsd, n + 40 * (n / 4096 + 1).min(2), mbufs)
                .as_us_f64();
            let err = (got - want).abs() / want;
            assert!(err < 0.15, "cksum({n}): model {got:.1} vs paper {want}");
        }
    }

    /// PCB lookup costs match §3: 20 entries ≈ 26 µs, 1000 ≈ 1280 µs.
    #[test]
    fn pcb_lookup_scaling() {
        let m = CostModel::calibrated();
        let at20 = m.pcb_lookup(20).as_us_f64();
        let at1000 = m.pcb_lookup(1000).as_us_f64();
        assert!((at20 - 26.0).abs() < 3.0, "{at20}");
        assert!((at1000 - 1280.0).abs() < 20.0, "{at1000}");
    }

    #[test]
    fn mbuf_pair_cost_is_just_over_7us() {
        let m = CostModel::calibrated();
        let us = m.mbuf_alloc_free_pair().as_us_f64();
        assert!((7.0..8.0).contains(&us));
    }

    #[test]
    fn scaled_cpu_divides_everything() {
        let base = CostModel::calibrated();
        let fast = base.scaled_cpu(4.0);
        assert!((fast.tcp_in_fast_us - base.tcp_in_fast_us / 4.0).abs() < 1e-12);
        assert!((fast.ua_bcopy.per_byte_us - base.ua_bcopy.per_byte_us / 4.0).abs() < 1e-12);
        assert!((fast.wakeup_us - base.wakeup_us / 4.0).abs() < 1e-12);
        // Identity scaling is the identity.
        assert_eq!(base.scaled_cpu(1.0), base);
    }

    #[test]
    #[should_panic(expected = "speedup must be positive")]
    fn scaled_cpu_rejects_zero() {
        let _ = CostModel::calibrated().scaled_cpu(0.0);
    }

    #[test]
    fn linear_cost_evaluation() {
        let c = LinearCost::new(10.0, 0.5, 2.0);
        assert_eq!(c.us(100, 3), 10.0 + 50.0 + 6.0);
        assert_eq!(c.eval(0, 0), SimTime::from_us(10));
        let r = LinearCost::rate(1.0, 1.0);
        assert_eq!(r.us(5, 100), 6.0);
    }
}
