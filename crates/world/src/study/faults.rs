//! The loss-recovery study (`latency_core::recovery`) as a study:
//! every fault scenario at two message sizes, as one two-host grid
//! keyed by `sweep::grid::fault_cell_key`.

use faultkit::shrink_schedule;
use latency_core::experiment::Experiment;
use latency_core::recovery::{self, Scenario};
use sweep::grid::fault_cell_key;
use sweep::{CellOutcome, Sweep, SweepResults};

use super::{Scale, Section};

/// One single-segment size, and one that the 9180-byte ATM MSS still
/// carries whole but whose longer 176-cell train gives bursts more to
/// bite on.
const SIZES: [usize; 2] = [1400, 8000];

/// One grid cell: a scenario at one size.
pub(super) struct FaultCell {
    pub(super) key: String,
    scenario: Scenario,
    size: usize,
    iterations: u64,
}

impl FaultCell {
    pub(super) fn experiment(&self) -> Experiment {
        recovery::experiment(&self.scenario, self.size, self.iterations)
    }
}

/// The grid, scenario-major. Faulted runs pay real retransmission
/// timeouts (hundreds of ms of simulated time each), so the scale's
/// iterations are capped at 400 to keep `--full` pleasant.
pub(super) fn cells(scale: Scale) -> Vec<FaultCell> {
    let iterations = scale.iterations.min(400);
    recovery::scenarios()
        .into_iter()
        .flat_map(|scenario| {
            SIZES.map(|size| FaultCell {
                key: fault_cell_key(scenario.name, size, iterations, scale.reps),
                scenario,
                size,
                iterations,
            })
        })
        .collect()
}

/// The recovery table, size-major: each scenario priced against the
/// clean cell of its size. A size whose clean cell did not run has no
/// rows.
pub(super) fn render(cells: &[FaultCell], grid: &SweepResults) -> Section {
    let mut rows = Vec::new();
    for size in SIZES {
        let ran = cells
            .iter()
            .filter(|c| c.size == size)
            .filter_map(|c| Some((c, &grid.get(&c.key)?.result)));
        let Some((_, clean)) = ran.clone().find(|(c, _)| c.scenario.faults.is_clean()) else {
            continue;
        };
        let clean_mean = clean.mean_rtt_us();
        rows.extend(ran.map(|(c, r)| recovery::reduce(c.scenario.name, size, r, clean_mean)));
    }
    let corrupted: u64 = rows.iter().map(|r| r.verify_failures).sum();
    let text = format!(
        "{}payload verification failures across every scenario: {corrupted}\n\n",
        recovery::format_table(&rows)
    );
    ("faults", text)
}

/// For a cell whose payload was corrupted, the smallest schedule that
/// still corrupts one on the cell's own key and seed: the console
/// shows the injector that breaks the run, not the whole scenario.
pub(super) fn diagnose(cells: &[FaultCell], o: &CellOutcome, reps: u64) -> Option<String> {
    if o.result.verify_failures == 0 {
        return None;
    }
    let cell = cells.iter().find(|c| c.key == o.key)?;
    let minimal = shrink_schedule(cell.scenario.faults, |faults| {
        let probe = FaultCell {
            key: cell.key.clone(),
            scenario: Scenario {
                faults: *faults,
                ..cell.scenario
            },
            ..*cell
        };
        let mut sw = Sweep::new("shrink");
        sw.ensure(probe.key.clone(), probe.experiment(), reps);
        sw.run(1).outcomes[0].result.verify_failures > 0
    });
    Some(format!(
        "minimal schedule reproducing the corruption: {minimal:?}"
    ))
}
