//! The paper's Tables 1–7 as one study: each message size under every
//! kernel variant on ATM, then the Ethernet baseline at that size, so
//! the ATM baseline that Tables 1, 2/3, 4, 6 and 7 share runs once.
//! Keys and seeds are `sweep::grid::rpc_cell_key`'s. Table 5 prices
//! copy and checksum routines without a simulation, so it has no
//! cells.

use latency_core::experiment::{Experiment, NetKind, RunResult};
use latency_core::{paper, tables};
use sweep::grid::{rpc_cell_key, Variant};
use sweep::SweepResults;

use super::{Scale, Section};

/// Measured iterations for a cell on `net`. Ethernet at 8 KB is ~20
/// ms of simulated time per iteration, so full runs cap the slow
/// substrate.
fn iterations(net: NetKind, scale: Scale) -> u64 {
    if net == NetKind::Ether {
        scale.iterations.min(4_000)
    } else {
        scale.iterations
    }
}

fn key(net: NetKind, size: usize, v: Variant, scale: Scale) -> String {
    rpc_cell_key(net, size, v, iterations(net, scale), scale.reps)
}

/// The grid, size-major.
pub(super) fn cells(scale: Scale) -> Vec<(String, Experiment)> {
    let mut cells = Vec::new();
    for &size in &paper::SIZES {
        let atm = Variant::ALL.map(|v| (NetKind::Atm, v));
        for (net, v) in atm.into_iter().chain([(NetKind::Ether, Variant::Base)]) {
            let mut e = Experiment::rpc(net, size);
            e.iterations = iterations(net, scale);
            e.warmup = 16;
            cells.push((key(net, size, v, scale), v.apply(e)));
        }
    }
    cells
}

type Column = (NetKind, Variant);

const BASE: Column = (NetKind::Atm, Variant::Base);

/// Tables 1–4, 6 and 7 in print order, each with the two columns it
/// reads at every size.
const SECTIONS: [(&str, [Column; 2]); 6] = [
    ("table1", [(NetKind::Ether, Variant::Base), BASE]),
    ("table2", [BASE, BASE]),
    ("table3", [BASE, BASE]),
    ("table4", [(NetKind::Atm, Variant::NoPrediction), BASE]),
    (
        "table6",
        [BASE, (NetKind::Atm, Variant::IntegratedChecksum)],
    ),
    ("table7", [BASE, (NetKind::Atm, Variant::NoChecksum)]),
];

/// Whether the section `name` reads the cell `key`.
pub(super) fn reads(name: &str, key: &str, scale: Scale) -> bool {
    let columns = SECTIONS.iter().filter(|s| s.0 == name).flat_map(|s| s.1);
    columns
        .flat_map(|(net, v)| paper::SIZES.map(|size| self::key(net, size, v, scale)))
        .any(|k| k == key)
}

/// Every table (with Figure 1) whose cells all ran in `grid`.
pub(super) fn render(grid: &SweepResults, scale: Scale) -> Vec<Section> {
    let runs = |(net, v): Column| -> Option<Vec<&RunResult>> {
        let run = |size| grid.get(&key(net, size, v, scale)).map(|o| &o.result);
        paper::SIZES.iter().map(|&size| run(size)).collect()
    };
    let rtts = |runs: &[&RunResult]| runs.iter().map(|r| r.mean_rtt_us()).collect::<Vec<_>>();
    let section = |name, a: Vec<&RunResult>, b: Vec<&RunResult>| {
        // Two measured columns side by side with the paper's.
        let compare = |title, [la, lb]: [&str; 2], [pa, pb]: [&[f64]; 2]| {
            tables::rtt_comparison(title, la, lb, &paper::SIZES, &rtts(&a), &rtts(&b), pa, pb)
        };
        match name {
            "table1" => compare(
                "Table 1: ATM vs Ethernet round-trip times",
                ["Ether", "ATM"],
                [&paper::T1_ETHERNET_RTT, &paper::T1_ATM_RTT],
            ),
            "table2" => tables::table2(&paper::SIZES, &a.iter().map(|r| r.tx).collect::<Vec<_>>()),
            "table3" => tables::table3(&paper::SIZES, &a.iter().map(|r| r.rx).collect::<Vec<_>>()),
            "table4" => {
                let figure1 = tables::ascii_figure(
                    "Figure 1: Effects of Header Prediction (round-trip time, us)",
                    &paper::SIZES,
                    &[
                        ("with prediction", &rtts(&b)),
                        ("without prediction", &rtts(&a)),
                    ],
                    16,
                );
                compare(
                    "Table 4: effect of header prediction",
                    ["NoPred", "Pred"],
                    [&paper::T4_NO_PREDICTION_RTT, &paper::T1_ATM_RTT],
                ) + "\n"
                    + &figure1
            }
            "table6" => compare(
                "Table 6: standard vs combined copy-and-checksum round trips",
                ["Std", "Combined"],
                [&paper::T1_ATM_RTT, &paper::T6_COMBINED_RTT],
            ),
            "table7" => compare(
                "Table 7: round trips with and without the TCP checksum",
                ["Cksum", "NoCksum"],
                [&paper::T1_ATM_RTT, &paper::T7_NO_CKSUM_RTT],
            ),
            _ => unreachable!("{name} is not a table"),
        }
    };
    let sections = SECTIONS
        .iter()
        .filter_map(|&(name, [a, b])| Some((name, section(name, runs(a)?, runs(b)?) + "\n")));
    sections.collect()
}
