//! The claims the paper makes in its text, and the experiments that
//! extend them, as one two-host study: §3's header-prediction hit
//! rates (`predict`), §4.2.1's layering of error detection (`errors`
//! and `ethernet-errors`), and §1's question of whether TCP suits RPC,
//! asked of faster CPUs, other checksum algorithms and MSS rounding
//! (`ablation`), a switched path (`switch`) and UDP (`udp`).
//!
//! Every run a section reads is one keyed [`Cell`]. A run that is one
//! of Tables 1–7's shares its `rpc_cell_key`, so it measures what that
//! table prints; every other cell is keyed by what it varies. Cells
//! run the scale's iterations after the tables' 16 warm-up ones; a
//! faulted cell, which pays retransmission timeouts, runs at most
//! [`FAULTED_ITERATIONS`]. Each cell pools the scale's repetitions:
//! the counters the sections print are sums over them, and the
//! canonical report carries all of them on every cell ([`counters`]).

use std::fmt::Write as _;

use decstation::ChecksumImpl;
use latency_core::experiment::{Experiment, NetKind, RunResult};
use latency_core::faults::DetectionReport;
use latency_core::paper;
use sweep::grid::{rpc_cell_key, Variant};
use sweep::SweepResults;
use tcpip::ChecksumMode;

use super::faults::FAULTED_ITERATIONS;
use super::{Extras, Scale, Section};

/// One run a section reads.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Cell {
    /// A Tables 1–7 RPC over ATM.
    Rpc(usize, Variant),
    /// The RPC on a host this many times faster than the DECstation.
    Cpu(u32, usize, Variant),
    /// The 8000 B RPC under another kernel checksum routine.
    Cksum(ChecksumImpl),
    /// The 8000 B RPC in one segment: the MSS rounded to a whole
    /// cluster instead of capped at a page.
    OneSegment,
    /// The RPC through an ATM switch.
    Switched(usize),
    /// The 1400 B RPC, TCP checksum off, through a switch fabric that
    /// corrupts 0.1% of cells.
    FabricCorruption,
    /// The RPC echo over UDP.
    Udp(usize),
    /// A 4000 B bulk transfer, one message per iteration.
    Bulk,
    /// The 1400 B RPC over a fiber with this bit error rate.
    Ber(f64),
    /// The 1400 B RPC losing this share of cells.
    Loss(f64),
    /// The 1400 B RPC with 3% of received datagrams corrupted past
    /// every link CRC, TCP checksum on or off.
    Controller { checksum: bool },
    /// The 1400 B RPC over Ethernet at a 1e-5 bit error rate, with or
    /// without 0.5% of frames corrupted by a gateway before framing.
    Ethernet { gateway: bool },
}

impl Cell {
    /// The scale's iterations, capped for a cell that injects faults
    /// and so pays retransmission timeouts.
    fn iterations(self, scale: Scale) -> u64 {
        match self {
            Cell::FabricCorruption
            | Cell::Ber(_)
            | Cell::Loss(_)
            | Cell::Controller { .. }
            | Cell::Ethernet { .. } => scale.iterations.min(FAULTED_ITERATIONS),
            _ => scale.iterations,
        }
    }

    fn key(self, scale: Scale) -> String {
        let iterations = self.iterations(scale);
        let what = match self {
            Cell::Rpc(size, v) => {
                return rpc_cell_key(NetKind::Atm, size, v, iterations, scale.reps)
            }
            Cell::Cpu(x, size, v) => format!("cpu/{x}x/atm/{size}/{}", v.tag()),
            Cell::Cksum(which) => format!("cksum/{which:?}/atm/8000").to_lowercase(),
            Cell::OneSegment => "mss/one-segment/atm/8000".to_string(),
            Cell::Switched(size) => format!("switch/atm/{size}"),
            Cell::FabricCorruption => "switch/corrupt-0.001/atm/1400/nocksum".to_string(),
            Cell::Udp(size) => format!("udp/atm/{size}"),
            Cell::Bulk => "bulk/atm/4000".to_string(),
            Cell::Ber(ber) => format!("errors/ber-{ber:e}/atm/1400"),
            Cell::Loss(p) => format!("errors/loss-{p}/atm/1400"),
            Cell::Controller { checksum } => format!(
                "errors/controller-0.03/atm/1400/{}",
                if checksum { "base" } else { "nocksum" }
            ),
            Cell::Ethernet { gateway } => format!(
                "errors/ber-1e-5{}/ether/1400",
                if gateway { "+gateway-0.005" } else { "" }
            ),
        };
        format!("{what}/i{iterations}r{}", scale.reps)
    }

    fn experiment(self, scale: Scale) -> Experiment {
        let rpc = |size| Experiment::rpc(NetKind::Atm, size);
        let mut e = match self {
            Cell::Rpc(size, v) => v.apply(rpc(size)),
            Cell::Cpu(x, size, v) => {
                let mut e = v.apply(rpc(size));
                e.costs = e.costs.scaled_cpu(f64::from(x));
                e
            }
            Cell::Cksum(which) => {
                let mut e = rpc(8000);
                e.cfg.checksum = ChecksumMode::Standard(which);
                e
            }
            Cell::OneSegment => {
                let mut e = rpc(8000);
                e.cfg.mss_one_cluster = false;
                e
            }
            Cell::Switched(size) => rpc(size).through_switch(atm::SwitchConfig::default()),
            Cell::FabricCorruption => {
                rpc(1400)
                    .without_checksum()
                    .through_switch(atm::SwitchConfig {
                        corrupt_prob: 0.001,
                        ..atm::SwitchConfig::default()
                    })
            }
            Cell::Udp(size) => Experiment::udp_rpc(NetKind::Atm, size),
            Cell::Bulk => Experiment::bulk(NetKind::Atm, 4000, 0),
            Cell::Ber(ber) => Experiment { ber, ..rpc(1400) },
            Cell::Loss(cell_loss) => Experiment {
                cell_loss,
                ..rpc(1400)
            },
            Cell::Controller { checksum } => {
                let e = Experiment {
                    controller_corrupt: 0.03,
                    ..rpc(1400)
                };
                if checksum {
                    e
                } else {
                    e.without_checksum()
                }
            }
            Cell::Ethernet { gateway } => Experiment {
                ber: 1e-5,
                gateway_corrupt: if gateway { 0.005 } else { 0.0 },
                ..Experiment::rpc(NetKind::Ether, 1400)
            },
        };
        e.iterations = self.iterations(scale);
        e.warmup = 16;
        e
    }
}

/// The sections in print order.
const SECTIONS: [&str; 6] = [
    "predict",
    "errors",
    "ablation",
    "switch",
    "ethernet-errors",
    "udp",
];

/// Host speedups of the CPU-scaling rows; 1× is the measured system.
const SPEEDUPS: [u32; 5] = [1, 2, 4, 10, 40];

/// The §4.2.1 error classes, as `errors` labels them.
const ERROR_CLASSES: [(&str, Cell); 5] = [
    ("fiber BER 1e-5", Cell::Ber(1e-5)),
    ("fiber BER 1e-4", Cell::Ber(1e-4)),
    ("cell loss 0.2%", Cell::Loss(0.002)),
    (
        "controller corruption, cksum ON",
        Cell::Controller { checksum: true },
    ),
    (
        "controller corruption, cksum OFF",
        Cell::Controller { checksum: false },
    ),
];

/// The kernel checksum routines `ablation` compares; the measured
/// system's is BSD's.
const CHECKSUMS: [(ChecksumImpl, Cell); 3] = [
    (ChecksumImpl::Ultrix, Cell::Cksum(ChecksumImpl::Ultrix)),
    (ChecksumImpl::Bsd, Cell::Rpc(8000, Variant::Base)),
    (
        ChecksumImpl::Optimized,
        Cell::Cksum(ChecksumImpl::Optimized),
    ),
];

/// The message sizes `switch` compares.
const SWITCH_SIZES: [usize; 3] = [4, 1400, 8000];

/// The CPU-scaling cell: at 1× the Tables cell itself.
fn cpu(speedup: u32, size: usize, v: Variant) -> Cell {
    if speedup == 1 {
        Cell::Rpc(size, v)
    } else {
        Cell::Cpu(speedup, size, v)
    }
}

/// The cells `section` reads.
fn reads_cells(section: &str) -> Vec<Cell> {
    let base = |size| Cell::Rpc(size, Variant::Base);
    match section {
        "predict" => vec![base(200), Cell::Bulk, base(8000)],
        "errors" => ERROR_CLASSES.map(|(_, c)| c).to_vec(),
        "ablation" => {
            let scaled = SPEEDUPS.iter().flat_map(|&x| {
                [
                    cpu(x, 4, Variant::Base),
                    cpu(x, 8000, Variant::Base),
                    cpu(x, 8000, Variant::NoChecksum),
                ]
            });
            let rest = CHECKSUMS.map(|(_, c)| c).into_iter();
            scaled.chain(rest).chain([Cell::OneSegment]).collect()
        }
        "switch" => SWITCH_SIZES
            .iter()
            .flat_map(|&size| [base(size), Cell::Switched(size)])
            .chain([Cell::FabricCorruption])
            .collect(),
        "ethernet-errors" => vec![
            Cell::Ethernet { gateway: false },
            Cell::Ethernet { gateway: true },
        ],
        "udp" => paper::SIZES
            .iter()
            .flat_map(|&size| [base(size), Cell::Udp(size)])
            .collect(),
        _ => Vec::new(),
    }
}

/// The grid: every section's cells in print order, each declared
/// once.
pub(super) fn cells(scale: Scale) -> Vec<(String, Experiment)> {
    let mut cells: Vec<Cell> = Vec::new();
    for c in SECTIONS.iter().flat_map(|s| reads_cells(s)) {
        if !cells.contains(&c) {
            cells.push(c);
        }
    }
    cells
        .into_iter()
        .map(|c| (c.key(scale), c.experiment(scale)))
        .collect()
}

/// Whether the section `name` reads the cell `key`.
pub(super) fn reads(name: &str, key: &str, scale: Scale) -> bool {
    reads_cells(name).iter().any(|c| c.key(scale) == key)
}

/// The counters every cell reports after the sweep schema: header
/// prediction per host (`[client, server]`), then the §4.2.1 detection
/// counts summed over both hosts.
pub(super) fn counters(r: &RunResult) -> Extras {
    let d = DetectionReport::from_run(r);
    let (c, s) = (&r.client_tcp, &r.server_tcp);
    let pair = |a: u64, b: u64| format!("[{a}, {b}]");
    vec![
        (
            "predict_data_hits",
            pair(c.predict_data_hits, s.predict_data_hits),
        ),
        (
            "predict_ack_hits",
            pair(c.predict_ack_hits, s.predict_ack_hits),
        ),
        ("predict_checks", pair(c.predict_checks, s.predict_checks)),
        ("link_faults", d.injected_link.to_string()),
        ("hec_drops", d.caught_hec.to_string()),
        ("aal_drops", d.caught_aal.to_string()),
        ("fcs_drops", d.caught_fcs.to_string()),
        ("tcp_cksum_drops", d.caught_tcp.to_string()),
        ("rexmits", d.retransmissions.to_string()),
    ]
}

/// Every section whose cells all ran in `grid`.
pub(super) fn render(grid: &SweepResults, scale: Scale) -> Vec<Section> {
    let run = |c: Cell| grid.get(&c.key(scale)).map(|o| &o.result);
    SECTIONS
        .iter()
        .filter(|name| reads_cells(name).into_iter().all(|c| run(c).is_some()))
        .map(|&name| {
            let run = |c: Cell| run(c).expect("the section's cells ran");
            let text = match name {
                "predict" => predict(run, scale),
                "errors" => errors(run),
                "ablation" => ablation(run),
                "switch" => switch(run),
                "ethernet-errors" => ethernet_errors(run),
                _ => udp(run),
            };
            (name, text + "\n")
        })
        .collect()
}

/// `100 · hits / checks`, 0 for no checks.
fn rate(hits: u64, checks: u64) -> f64 {
    100.0 * hits as f64 / checks.max(1) as f64
}

fn predict<'a>(run: impl Fn(Cell) -> &'a RunResult, scale: Scale) -> String {
    let r = &run(Cell::Rpc(200, Variant::Base)).client_tcp;
    let rpc_rate = rate(r.predict_data_hits + r.predict_ack_hits, r.predict_checks);
    let b = &run(Cell::Bulk).server_tcp;
    let bulk_rate = rate(b.predict_data_hits, b.predict_checks);
    // The hits count every iteration the client ran, warm-up included,
    // in every repetition: two data segments each.
    let r8k = Cell::Rpc(8000, Variant::Base);
    let e = r8k.experiment(scale);
    let segments = 2 * (e.warmup + e.iterations) * scale.reps;
    let second_seg = rate(run(r8k).client_tcp.predict_data_hits, segments);
    format!(
        "header-prediction fast path hit rates:\n\
         RPC 200 B client:         {rpc_rate:>5.1}%  (paper: fails for piggybacked-ACK RPC)\n\
         bulk 4000 B receiver:     {bulk_rate:>5.1}%  (paper: the case it was built for)\n\
         RPC 8000 B data segments: {second_seg:>5.1}%  (paper: succeeds for half: the 2nd of 2)\n"
    )
}

fn errors<'a>(run: impl Fn(Cell) -> &'a RunResult) -> String {
    let mut text =
        String::from("fault injection (RPC 1400 B): which layer detects each error class\n");
    let _ = writeln!(
        text,
        "{:<34} {:>8} {:>5} {:>5} {:>5} {:>5} {:>7} {:>6}",
        "class", "injected", "HEC", "AAL", "TCP", "app", "rexmit", "iters"
    );
    for (name, cell) in ERROR_CLASSES {
        let r = run(cell);
        let d = DetectionReport::from_run(r);
        let _ = writeln!(
            text,
            "{name:<34} {:>8} {:>5} {:>5} {:>5} {:>5} {:>7} {:>6}{}",
            d.injected_link,
            d.caught_hec,
            d.caught_aal,
            d.caught_tcp,
            d.reached_app,
            d.retransmissions,
            d.iterations,
            if r.aborted { "!" } else { "" },
        );
    }
    text.push_str(
        "('!' marks a run the retransmit limit aborted: it counts what was\n\
         injected and caught before the connection gave up.)\n\
         => link errors never pass AAL3/4; controller corruption passes every\n\
         link CRC and reaches the application once the TCP checksum is off —\n\
         the boundary condition of the paper's elimination argument.\n",
    );
    text
}

fn ablation<'a>(run: impl Fn(Cell) -> &'a RunResult) -> String {
    let rtt = |c| run(c).mean_rtt_us();
    let mut text = String::from(
        "CPU scaling (host speedup over the 25 MHz R3000; wire fixed at 140 Mbit/s)\n",
    );
    let _ = writeln!(
        text,
        "{:>8} | {:>10} {:>10} {:>16}",
        "speedup", "rtt4(us)", "rtt8k(us)", "elim saving(%)"
    );
    for x in SPEEDUPS {
        let rtt8k = rtt(cpu(x, 8000, Variant::Base));
        let saving = (1.0 - rtt(cpu(x, 8000, Variant::NoChecksum)) / rtt8k) * 100.0;
        let _ = writeln!(
            text,
            "{x:>8} | {:>10.0} {rtt8k:>10.0} {saving:>16.1}",
            rtt(cpu(x, 4, Variant::Base))
        );
    }
    text.push_str(
        "=> a wire/adapter latency floor remains; the checksum question\n   \
         fades as CPUs outrun the link (§1's technology question, forwards).\n\n\
         kernel checksum algorithm at 8000 B:\n",
    );
    for (which, cell) in CHECKSUMS {
        let _ = writeln!(text, "  {which:?}: {:.0} us", rtt(cell));
    }
    let _ = write!(
        text,
        "\nMSS rounding at 8000 B: two 4096-byte segments {:.0} us vs one\n         \
         8192-MSS segment {:.0} us — the page-sized segments WIN by\n         \
         pipelining receive processing against wire time.\n",
        rtt(Cell::Rpc(8000, Variant::Base)),
        rtt(Cell::OneSegment)
    );
    text
}

fn switch<'a>(run: impl Fn(Cell) -> &'a RunResult) -> String {
    let mut text = String::from("ATM switch in the path (the paper's testbed was switchless)\n");
    let _ = writeln!(
        text,
        "{:>6} | {:>12} {:>12} {:>8}",
        "size", "direct(us)", "switched(us)", "delta"
    );
    for size in SWITCH_SIZES {
        let direct = run(Cell::Rpc(size, Variant::Base)).mean_rtt_us();
        let switched = run(Cell::Switched(size)).mean_rtt_us();
        let _ = writeln!(
            text,
            "{size:>6} | {direct:>12.0} {switched:>12.0} {:>8.0}",
            switched - direct
        );
    }
    // Fabric corruption is caught end to end even without the TCP
    // checksum (§4.2.1 error source #1).
    let d = DetectionReport::from_run(run(Cell::FabricCorruption));
    let _ = write!(
        text,
        "\nfabric corruption, TCP checksum OFF: {} AAL3/4 drops, {} app-visible\n         \
         corruptions — the end-to-end AAL CRC covers the switch, as §4.2.1 argues.\n",
        d.caught_aal, d.reached_app
    );
    text
}

fn ethernet_errors<'a>(run: impl Fn(Cell) -> &'a RunResult) -> String {
    let local = DetectionReport::from_run(run(Cell::Ethernet { gateway: false }));
    let mixed = DetectionReport::from_run(run(Cell::Ethernet { gateway: true }));
    format!(
        "departmental Ethernet (§4.2.1): errors caught by the FCS vs TCP\n         \
         local traffic only : CRC {} / TCP {}  (paper: TCP detected none)\n         \
         with WAN traffic   : CRC {} / TCP {}  (paper: TCP ~100x fewer)\n",
        local.caught_fcs, local.caught_tcp, mixed.caught_fcs, mixed.caught_tcp
    )
}

fn udp<'a>(run: impl Fn(Cell) -> &'a RunResult) -> String {
    let mut text = String::from(
        "RPC echo over ATM: TCP vs UDP (extension; the comparison behind\n         \
         §1's 'is TCP a viable transport for RPC?')\n",
    );
    let _ = writeln!(
        text,
        "{:>6} | {:>9} {:>9} {:>12}",
        "size", "tcp(us)", "udp(us)", "tcp extra(%)"
    );
    for size in paper::SIZES {
        let tcp = run(Cell::Rpc(size, Variant::Base)).mean_rtt_us();
        let udp = run(Cell::Udp(size)).mean_rtt_us();
        let _ = writeln!(
            text,
            "{size:>6} | {tcp:>9.0} {udp:>9.0} {:>12.1}",
            (tcp / udp - 1.0) * 100.0
        );
    }
    text.push_str(
        "=> TCP costs ~30% over a bare datagram exchange at small sizes — the\n         \
         price of reliability state, mcopy and the heavier input path — and\n         \
         the gap closes with size until TCP WINS at 8 KB: its two page-sized\n         \
         segments pipeline receive processing against wire time, while the\n         \
         single large UDP datagram serializes. Same order of magnitude\n         \
         throughout, supporting the paper's 'viable for RPC' conclusion.\n",
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep::Sweep;

    /// The declared `cells` at the quick scale, each on its key's seed.
    fn run(cells: &[Cell]) -> SweepResults {
        let mut sw = Sweep::new("extras");
        for &c in cells {
            sw.ensure(c.key(Scale::QUICK), c.experiment(Scale::QUICK), 1);
        }
        sw.run(2)
    }

    fn result(grid: &SweepResults, c: Cell) -> &RunResult {
        &grid.expect(&c.key(Scale::QUICK)).result
    }

    fn detection(grid: &SweepResults, c: Cell) -> DetectionReport {
        DetectionReport::from_run(result(grid, c))
    }

    fn rtt(grid: &SweepResults, c: Cell) -> f64 {
        result(grid, c).mean_rtt_us()
    }

    #[test]
    fn clean_link_detects_nothing() {
        let clean = Cell::Rpc(1400, Variant::Base);
        let r = detection(&run(&[clean]), clean);
        assert_eq!(r.injected_link, 0);
        assert_eq!(r.caught_aal + r.caught_hec + r.caught_tcp, 0);
        assert_eq!(r.reached_app, 0);
        assert_eq!(r.iterations, 200);
    }

    #[test]
    fn noisy_fiber_is_caught_below_tcp() {
        // ~1 bit error per ~240 cells: AAL drops and retransmissions
        // are certain, but far from the ~12-consecutive-loss run that
        // would (correctly, per the retransmit limit) abort the
        // connection, as the 1e-4 fiber does.
        let noisy = Cell::Ber(1e-5);
        let r = detection(&run(&[noisy]), noisy);
        assert!(r.injected_link > 0, "{r:?}");
        assert!(r.caught_aal + r.caught_hec > 0, "{r:?}");
        assert_eq!(r.reached_app, 0, "AAL3/4 shields the app: {r:?}");
        assert!(r.retransmissions > 0, "TCP recovered the drops: {r:?}");
        assert_eq!(r.iterations, 200, "all iterations completed");
    }

    #[test]
    fn cell_loss_recovered_by_tcp() {
        let lossy = Cell::Loss(0.002);
        let r = detection(&run(&[lossy]), lossy);
        assert!(r.injected_link > 0);
        assert!(
            r.caught_aal > 0,
            "loss shows up as AAL sequence gaps: {r:?}"
        );
        assert_eq!(r.reached_app, 0);
        assert_eq!(r.iterations, 200);
    }

    #[test]
    fn departmental_ethernet_ratio() {
        let cells = [
            Cell::Ethernet { gateway: false },
            Cell::Ethernet { gateway: true },
        ];
        let grid = run(&cells);
        // Local-only traffic: the FCS catches everything, TCP sees
        // nothing — "Without wide-area traffic, TCP detected no
        // checksum errors."
        let local = detection(&grid, cells[0]);
        assert!(local.caught_fcs > 0, "{local:?}");
        assert_eq!(local.caught_tcp, 0, "{local:?}");
        assert_eq!(local.reached_app, 0);
        // Adding wide-area (gateway) traffic: TCP starts catching a
        // much smaller stream of errors the CRC cannot see. (The
        // paper's exact ratio — two orders of magnitude — reflects
        // its ambient traffic mix; the mechanism is what we check.)
        let mixed = detection(&grid, cells[1]);
        assert!(mixed.caught_tcp > 0, "{mixed:?}");
        assert!(
            mixed.caught_fcs > 8 * mixed.caught_tcp,
            "CRC should dominate: {mixed:?}"
        );
        assert_eq!(mixed.reached_app, 0, "TCP shields the app");
    }

    #[test]
    fn controller_corruption_needs_the_tcp_checksum() {
        let cells = [
            Cell::Controller { checksum: true },
            Cell::Controller { checksum: false },
        ];
        let grid = run(&cells);
        // With the checksum: TCP catches it, the app never sees it.
        let with = detection(&grid, cells[0]);
        assert!(with.caught_tcp > 0, "{with:?}");
        assert_eq!(with.reached_app, 0, "{with:?}");
        // Without: it sails past every CRC into the application —
        // the §4.2.1 caveat about buggy controllers.
        let without = detection(&grid, cells[1]);
        assert_eq!(without.caught_tcp, 0);
        assert!(without.reached_app > 0, "{without:?}");
    }

    #[test]
    fn faster_cpus_approach_the_wire_floor() {
        let cells = [1, 4, 40].map(|x| cpu(x, 4, Variant::Base));
        let grid = run(&cells);
        let pts = cells.map(|c| rtt(&grid, c));
        assert!(pts[1] < pts[0] / 2.5);
        assert!(pts[2] < pts[1]);
        // The floor: even infinite CPU cannot beat the wire + FIFO
        // drain time (~2×6 us at 4 B), so scaling is sub-linear by 40×.
        assert!(
            pts[2] > pts[0] / 32.0,
            "a latency floor must remain: {:.1}",
            pts[2]
        );
    }

    #[test]
    fn elimination_matters_less_on_fast_cpus() {
        let cells = [1, 40].map(|x| {
            [
                cpu(x, 8000, Variant::Base),
                cpu(x, 8000, Variant::NoChecksum),
            ]
        });
        let grid = run(cells.as_flattened());
        let saving = |[with, without]: [Cell; 2]| 1.0 - rtt(&grid, without) / rtt(&grid, with);
        let [slow, fast] = cells.map(saving);
        assert!(
            fast < slow,
            "checksum cost shrinks with the CPU: {:.1}% -> {:.1}%",
            slow * 100.0,
            fast * 100.0
        );
    }

    #[test]
    fn checksum_algorithm_ordering() {
        // The Bsd row is the Tables 1–7 cell: BSD's routine is the
        // measured kernel's.
        let base = Cell::Rpc(8000, Variant::Base).experiment(Scale::QUICK);
        assert_eq!(base.cfg.checksum, ChecksumMode::Standard(ChecksumImpl::Bsd));
        let cells = CHECKSUMS.map(|(_, c)| c);
        let grid = run(&cells);
        let [u, b, o] = cells.map(|c| rtt(&grid, c));
        assert!(
            u > b && b > o,
            "ULTRIX {u:.0} > BSD {b:.0} > optimized {o:.0}"
        );
        // The ULTRIX algorithm costs ~0.2 µs/B against 0.094: at 8 KB
        // in both directions that is a millisecond-class difference.
        assert!(u - o > 1000.0, "{:.0}", u - o);
    }

    #[test]
    fn two_page_segments_beat_one_big_segment() {
        let cells = [Cell::Rpc(8000, Variant::Base), Cell::OneSegment];
        let grid = run(&cells);
        let [two_seg, one_seg] = cells.map(|c| rtt(&grid, c));
        // An emergent pipelining result: one 8040-byte datagram saves
        // the second segment's per-packet overhead, but the receiver
        // then cannot start its (large) driver + checksum work until
        // the whole datagram has arrived. With two page-sized
        // segments, processing of the first overlaps the second's
        // wire time, and the overlap outweighs the extra overhead —
        // so the measured system's page-capped MSS was not actually
        // leaving latency on the table.
        assert!(
            two_seg < one_seg,
            "two segments {two_seg:.0} vs one {one_seg:.0}"
        );
        // But not by an unbounded amount (same data, same wire).
        assert!(one_seg - two_seg < 2_500.0);
    }
}
