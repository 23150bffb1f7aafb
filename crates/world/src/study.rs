//! The studies: deterministic grids, all driven through one pipeline.
//!
//! [`Study`] names seven studies. `tables` (the paper's Tables 1–7),
//! `faults` (the loss-recovery grid) and `extras` (the claims of the
//! paper's text and the experiments that extend them) run the two-host
//! world as one `sweep::Sweep` each. The rest run
//! [`DcWorld`](crate::DcWorld)s:
//! `repro dc` sweeps hosts x connections x PCB strategy x incast
//! fan-in; `repro tails` sweeps fan-out width x fault scenario x
//! background churn over the fan-out/wait-for-all world; `repro hedge`
//! prices tail mitigations under the same fault regimes; `repro cc`
//! sweeps congestion-control variant x UBR drop policy x switch
//! buffer. Every study runs the same way: its cells run on the
//! grid-order pool (the world studies' through [`run_cells`], which
//! pools each cell's repetitions into a [`DcCellResult`]), the study
//! renders its printed sections (and the world studies their extra
//! per-cell fields), one writer emits the canonical JSON, and one
//! failure predicate decides which cells failed.
//!
//! Every world-study row reads its latency columns from one
//! [`Summary`] per cell. The `tails` and `hedge` submodules hold the
//! fan-out studies' scenarios, rows and table formatters, priced by
//! one amplification join against each group's baseline row; the
//! `tables`, `faults` and `extras` submodules the three two-host grids
//! and their renderers.
//!
//! Every cell's seed derives from its *key* (not its position), so
//! adding or reordering cells never changes any other cell's bytes,
//! and cells run under `sweep::pool::run_ordered` so the report is
//! byte-identical at any `--jobs` value. Every canonical JSON comes
//! from one writer ([`sweep::report::canonical_report`]), with each
//! world study's extra per-cell fields after `verify_failures`;
//! `repro verify` checks it against the goldens byte for byte.
//!
//! Repetition seeding in the world studies: rep 0 runs on the
//! key-derived base seed (so single-rep grids — every golden — are
//! untouched), and rep `r > 0` folds the rep into the key hash
//! (`cell_seed("<key>/r<r>")`). The older `seed + rep` derivation
//! could collide with an adjacent cell's base seed, silently
//! correlating cells that must be independent.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use atm::DropPolicy;
use latency_core::experiment::Workload;
use latency_core::{Experiment, RunResult};
use simcap::{Recorder, RecorderMode, Summary};
use sweep::report::{canonical_report, json_num, ReportCell};
use sweep::{CellOutcome, Sweep, SweepResults};
use tcpip::{CcVariant, ChecksumMode};

use crate::dc::{run_dc, DcCellResult};
use crate::topology::{ChurnTraffic, FaultScope, PcbStrategy, Topology, TrafficSchedule};

mod extras;
mod faults;
mod hedge;
mod tables;
mod tails;

use hedge::MITIGATIONS;
pub use hedge::{Mitigation, MitigationCost};

/// The studies. A closed set: each variant names its grid, its sample
/// set, its printed sections and its canonical JSON.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Study {
    /// The paper's Tables 1–7 (`repro table1` .. `table7`), and the
    /// `pcb` and `mbuf` microbenchmarks. Table 5, `pcb` and `mbuf` run
    /// no simulation.
    Tables,
    /// `repro faults`: the loss-recovery study.
    Faults,
    /// `repro predict`, `errors`, `ablation`, `switch`,
    /// `ethernet-errors` and `udp`: the text's claims and their
    /// extensions.
    Extras,
    /// `repro dc`: the §3 PCB-lookup incast study.
    Dc,
    /// `repro tails`: fan-out/wait-for-all completion tails.
    Tails,
    /// `repro hedge`: tail mitigations priced against the baseline.
    Hedge,
    /// `repro cc`: congestion-control variant x UBR drop policy.
    Cc,
}

/// The scale a study runs at, as `repro` resolves it from `--quick`,
/// `--full`, `--iterations` and `--reps`. The two-host studies read
/// every field; the world studies read only `quick`, which picks
/// their CI grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Measured iterations per two-host cell (some grids cap it).
    pub iterations: u64,
    /// Repetitions pooled into each two-host cell.
    pub reps: u64,
    /// Whether this is the CI quick scale.
    pub quick: bool,
}

impl Scale {
    /// The CI quick scale, at which every golden is blessed: every
    /// cell key pins its scale, so verifying at any other scale could
    /// only ever report "cell missing".
    pub const QUICK: Scale = Scale {
        iterations: 200,
        reps: 1,
        quick: true,
    };
}

/// One printed section of a study: the `repro` subcommand that prints
/// it, and its text exactly as printed.
pub type Section = (&'static str, String);

/// What one study run produced.
pub struct StudyReport {
    /// The printed sections: one per world study and for `faults`,
    /// one per table or experiment for `tables` and `extras`. A
    /// filtered run ([`Study::run_where`]) of those two prints the
    /// sections whose every cell ran.
    pub sections: Vec<Section>,
    /// The canonical JSON report (`--sweep-json`, and the golden).
    pub json: String,
    /// Cells run.
    pub cells: usize,
    /// One line per failed cell, led by its key: payload corruption,
    /// a leaked mbuf, no samples and no abort to explain it, or an
    /// abort in a study whose world must never lose a connection.
    pub failed: Vec<String>,
}

/// A cell's extra canonical-JSON fields: `(name, rendered value)`,
/// written in order after the shared sweep-schema prefix.
type Extras = Vec<(&'static str, String)>;

/// Renders a study's table text and each cell's extra fields, one
/// list per cell.
type Render<C> = fn(&[C], &[DcCellResult]) -> (String, Vec<Extras>);

/// What the failure predicate reads of one cell, whichever world ran
/// it.
#[derive(Clone, Copy)]
struct Health<'a> {
    key: &'a str,
    /// Number of samples in the study's sample set.
    samples: usize,
    verify_failures: u64,
    /// Retransmit-limit aborts: connections in the incast worlds,
    /// fan-out clients in the fan-out worlds, an aborted run in the
    /// two-host world.
    aborts: u64,
    /// Mbufs still outstanding after teardown.
    mbufs_leaked: u64,
    /// The cell records no samples by design: a bulk transfer.
    unsampled: bool,
    /// Corruption reaching the application is what the cell shows:
    /// corruption past every link CRC with the TCP checksum off.
    corrupting: bool,
}

impl Study {
    /// Every study, in `repro verify` order.
    pub const ALL: [Study; 7] = [
        Study::Tables,
        Study::Faults,
        Study::Extras,
        Study::Dc,
        Study::Tails,
        Study::Hedge,
        Study::Cc,
    ];

    /// The study's name; the subcommand name of the world studies and
    /// of `faults`, the group name of `extras`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Study::Tables => "tables",
            Study::Faults => "faults",
            Study::Extras => "extras",
            Study::Dc => "dc",
            Study::Tails => "tails",
            Study::Hedge => "hedge",
            Study::Cc => "cc",
        }
    }

    /// `<name>_quick` at the quick scale (the stem of the study's
    /// golden file), `<name>` otherwise. The world studies' canonical
    /// JSON carries it as its `name`; the three `Sweep` studies' JSON
    /// carries their plain sweep name at every scale.
    #[must_use]
    pub fn report_name(self, quick: bool) -> String {
        if quick {
            format!("{}_quick", self.name())
        } else {
            self.name().to_string()
        }
    }

    /// Runs the study's grid at `scale` on up to `jobs` workers,
    /// recording world-study samples in `mode` (the two-host studies
    /// pool exact samples in every mode).
    #[must_use]
    pub fn run(self, scale: Scale, jobs: usize, mode: RecorderMode) -> StudyReport {
        self.run_where(scale, jobs, mode, |_| true)
    }

    /// Whether the printed section `section` reads the grid cell
    /// `key` at `scale`. Each section of `tables` and `extras` reads
    /// its own cells of the study's grid; every other study's one
    /// section reads every cell.
    #[must_use]
    pub fn reads(self, section: &str, key: &str, scale: Scale) -> bool {
        match self {
            Study::Tables => tables::reads(section, key, scale),
            Study::Extras => extras::reads(section, key, scale),
            _ => true,
        }
    }

    /// [`Study::run`] over only the grid cells whose key passes
    /// `keep`. Table-level joins (amplification baselines, the clean
    /// fault baseline) see only the kept cells.
    #[must_use]
    pub fn run_where(
        self,
        scale: Scale,
        jobs: usize,
        mode: RecorderMode,
        keep: impl Fn(&str) -> bool,
    ) -> StudyReport {
        let keep: &dyn Fn(&str) -> bool = &keep;
        let quick = scale.quick;
        match self {
            Study::Tables => {
                let render = |grid: &_| tables::render(grid, scale);
                self.sweep(scale, jobs, keep, render, |_| None)
            }
            Study::Faults => {
                let cells = faults::cells(scale);
                let render = |grid: &_| vec![faults::render(&cells, grid)];
                let diagnose = |o: &_| faults::diagnose(&cells, o, scale.reps);
                self.sweep(scale, jobs, keep, render, diagnose)
            }
            Study::Extras => {
                let render = |grid: &_| extras::render(grid, scale);
                self.sweep(scale, jobs, keep, render, |_| None)
            }
            Study::Dc => {
                let cells = if quick { dc_quick_grid() } else { dc_grid() };
                self.drive(quick, cells, jobs, mode, keep, dc_render)
            }
            Study::Tails => {
                let cells = if quick {
                    tails_quick_grid()
                } else {
                    tails_grid()
                };
                self.drive(quick, cells, jobs, mode, keep, tails_render)
            }
            Study::Hedge => {
                let cells = if quick {
                    hedge_quick_grid()
                } else {
                    hedge_grid()
                };
                self.drive(quick, cells, jobs, mode, keep, hedge_render)
            }
            Study::Cc => {
                let cells = if quick { cc_quick_grid() } else { cc_grid() };
                self.drive(quick, cells, jobs, mode, keep, cc_render)
            }
        }
    }

    fn drive<C: AsRef<DcCell> + Sync>(
        self,
        quick: bool,
        mut cells: Vec<C>,
        jobs: usize,
        mode: RecorderMode,
        keep: &dyn Fn(&str) -> bool,
        render: Render<C>,
    ) -> StudyReport {
        cells.retain(|c| keep(&c.as_ref().key));
        let results = run_cells(&cells, jobs, mode);
        let (table, extras) = render(&cells, &results);
        StudyReport {
            sections: vec![(self.name(), table)],
            json: canonical(&self.report_name(quick), self, &results, &extras),
            cells: results.len(),
            failed: results
                .iter()
                .filter_map(|r| self.failure(&self.health(r)))
                .collect(),
        }
    }

    /// The two-host cells the study declares at `scale`, in grid
    /// order: each cell's key and the experiment it runs, from the
    /// seed [`sweep::run_seed`] derives from the key, for `scale.reps`
    /// repetitions. Keys repeat across `tables` and `extras` where
    /// they name the same run. Empty for the world studies, whose
    /// cells are [`DcCell`]s.
    #[must_use]
    pub fn cells(self, scale: Scale) -> Vec<(String, Experiment)> {
        match self {
            Study::Tables => tables::cells(scale),
            Study::Faults => faults::cells(scale)
                .into_iter()
                .map(|c| (c.key.clone(), c.experiment()))
                .collect(),
            Study::Extras => extras::cells(scale),
            Study::Dc | Study::Tails | Study::Hedge | Study::Cc => Vec::new(),
        }
    }

    /// Runs a two-host study's kept [`cells`](Study::cells) as one
    /// `Sweep` named after the study, each pooling `scale.reps`
    /// repetitions, and reports `render`'s sections, the sweep's
    /// canonical JSON, and a failed line per cell the predicate flags,
    /// followed by whatever `diagnose` adds about the cell.
    fn sweep(
        self,
        scale: Scale,
        jobs: usize,
        keep: &dyn Fn(&str) -> bool,
        render: impl FnOnce(&SweepResults) -> Vec<Section>,
        diagnose: impl Fn(&CellOutcome) -> Option<String>,
    ) -> StudyReport {
        let mut sw = Sweep::new(self.name());
        // What each cell's configuration lets it show, read before the
        // sweep takes the experiment.
        let mut by_design = BTreeMap::new();
        for (key, exp) in self.cells(scale).into_iter().filter(|(key, _)| keep(key)) {
            let corrupting = (exp.faults.controller_corrupt > 0.0
                || exp.faults.gateway_corrupt > 0.0)
                && exp.cfg.checksum == ChecksumMode::None;
            by_design.insert(key.clone(), (exp.workload == Workload::Bulk, corrupting));
            sw.ensure(key, exp, scale.reps);
        }
        let grid = sw.run(jobs);
        let failed = grid.outcomes.iter().filter_map(|o| {
            let r = &o.result;
            let (unsampled, corrupting) = by_design[&o.key];
            let line = self.failure(&Health {
                key: &o.key,
                samples: r.rtts.len(),
                verify_failures: r.verify_failures,
                aborts: u64::from(r.aborted),
                mbufs_leaked: r.mbufs_leaked.0 + r.mbufs_leaked.1,
                unsampled,
                corrupting,
            })?;
            Some(match diagnose(o) {
                Some(why) => format!("{line}; {why}"),
                None => line,
            })
        });
        StudyReport {
            failed: failed.collect(),
            sections: render(&grid),
            json: grid.canonical_json_with(|o| self.counters(&o.result)),
            cells: grid.outcomes.len(),
        }
    }

    /// A two-host cell's extra canonical-JSON fields: the counters
    /// `extras` prints, none for the other studies.
    fn counters(self, r: &RunResult) -> Extras {
        match self {
            Study::Extras => extras::counters(r),
            _ => Vec::new(),
        }
    }

    /// The sample set a world study reports: RPC round trips for the
    /// incast studies, logical-request completions for the fan-out
    /// ones.
    fn samples(self, r: &DcCellResult) -> &Recorder {
        match self {
            Study::Tails | Study::Hedge => &r.completions,
            _ => &r.rtts,
        }
    }

    /// What the failure predicate reads of a world-study cell; the
    /// abort counter is aborted connections in the incast worlds,
    /// aborted fan-out clients in the fan-out worlds.
    fn health(self, r: &DcCellResult) -> Health<'_> {
        Health {
            key: &r.key,
            samples: self.samples(r).len(),
            verify_failures: r.verify_failures,
            aborts: match self {
                Study::Tails | Study::Hedge => r.fanout_aborts,
                _ => r.aborted_conns,
            },
            mbufs_leaked: r.mbufs_leaked,
            unsampled: false,
            corrupting: false,
        }
    }

    /// The one failure predicate. A cell fails on payload corruption,
    /// on an mbuf leaked past teardown (cancelled and hedged requests
    /// must clean up too), or on producing no samples with no abort to
    /// explain them, unless its configuration makes that outcome its
    /// point (a bulk transfer records no samples; controller
    /// corruption with the TCP checksum off reaches the application).
    /// Retransmit-limit aborts are data in every study but `tables`
    /// and `dc`, whose clean worlds must never lose a connection.
    /// `None` for a healthy cell, else a one-line reason led by the
    /// cell key.
    fn failure(self, h: &Health) -> Option<String> {
        let Health {
            key,
            samples,
            verify_failures,
            aborts,
            mbufs_leaked,
            unsampled,
            corrupting,
        } = *h;
        let failed = (verify_failures > 0 && !corrupting)
            || mbufs_leaked > 0
            || (samples == 0 && aborts == 0 && !unsampled)
            || (matches!(self, Study::Tables | Study::Dc) && aborts > 0);
        failed.then(|| {
            format!(
                "{key}: FAILED ({samples} sample(s), {verify_failures} verify failure(s), {aborts} abort(s), {mbufs_leaked} leaked mbuf(s))"
            )
        })
    }
}

/// One grid cell: a named, self-contained world description.
pub struct DcCell {
    /// The cell key; also the seed source via [`sweep::cell_seed`].
    pub key: String,
    /// The world.
    pub topo: Topology,
    /// The traffic schedule.
    pub sched: TrafficSchedule,
    /// Repetitions pooled into one sample set. Rep 0 runs on the
    /// key-derived base seed; rep `r > 0` runs on
    /// `cell_seed("<key>/r<r>")`, independent of every cell's base
    /// seed by construction.
    pub reps: u64,
}

impl DcCell {
    /// Builds a cell and derives its key from the topology axes.
    #[must_use]
    pub fn new(topo: Topology, sched: TrafficSchedule, reps: u64) -> DcCell {
        let key = format!(
            "dc/h{}/c{}/{}/f{}/i{}r{}",
            topo.clients,
            topo.conns_per_host,
            topo.strategy.tag(),
            topo.effective_fanin(),
            topo.iterations,
            reps,
        );
        DcCell {
            key,
            topo,
            sched,
            reps,
        }
    }

    /// A staggered-schedule cell under an explicit key.
    fn keyed(key: String, topo: Topology, reps: u64) -> DcCell {
        DcCell {
            key,
            topo,
            sched: TrafficSchedule::staggered(),
            reps,
        }
    }
}

impl AsRef<DcCell> for DcCell {
    fn as_ref(&self) -> &DcCell {
        self
    }
}

/// The seed for repetition `rep` of the cell named `key`.
///
/// Rep 0 is the base seed itself — single-rep grids (every golden)
/// see exactly the bytes they always did. Higher reps fold the rep
/// number into the key *hash* rather than adding it to the seed: the
/// old `base + rep` walk could land on a neighboring cell's base seed
/// (cell seeds are only 32 bits of FNV output), silently correlating
/// cells the grid treats as independent.
#[must_use]
pub fn rep_seed(key: &str, rep: u64) -> u64 {
    let base = sweep::cell_seed(key);
    if rep == 0 {
        base
    } else {
        sweep::cell_seed(&format!("{key}/r{rep}"))
    }
}

/// Runs one cell: every rep on its [`rep_seed`], outcomes pooled
/// into `mode`-appropriate containers.
fn run_one_cell(cell: &DcCell, mode: RecorderMode) -> DcCellResult {
    let reps = cell.reps.max(1);
    let mut pooled = DcCellResult {
        key: cell.key.clone(),
        seed: sweep::cell_seed(&cell.key),
        reps,
        rtts: Recorder::new(mode),
        completions: Recorder::new(mode),
        ..DcCellResult::default()
    };
    for rep in 0..reps {
        pooled.absorb(&run_dc(&cell.topo, cell.sched, rep_seed(&cell.key, rep)));
    }
    pooled
}

/// Runs any study's cells on up to `jobs` workers; results come back
/// in grid order regardless of scheduling, so downstream reports are
/// byte-identical at any worker count, in either retention mode.
#[must_use]
pub fn run_cells<C: AsRef<DcCell> + Sync>(
    cells: &[C],
    jobs: usize,
    mode: RecorderMode,
) -> Vec<DcCellResult> {
    sweep::pool::run_ordered(cells, jobs, move |_, c| run_one_cell(c.as_ref(), mode))
}

/// A study's canonical report: [`sweep::report::canonical_report`]
/// over the study's sample set, each cell followed by its extra fields
/// in order. `null` marks an honestly-unavailable statistic.
fn canonical(name: &str, study: Study, results: &[DcCellResult], extras: &[Extras]) -> String {
    assert_eq!(results.len(), extras.len(), "one extras list per cell");
    canonical_report(
        name,
        results.iter().zip(extras).map(|(c, extras)| {
            let s = study.samples(c);
            ReportCell {
                key: &c.key,
                seed: c.seed,
                reps: c.reps,
                samples: s.len(),
                mean_us: s.mean_us(),
                stddev_us: s.stddev_us(),
                min_us: s.min_us(),
                max_us: s.max_us(),
                events: c.events,
                sim_time_us: c.sim_time.as_us_f64(),
                verify_failures: c.verify_failures,
                extras,
            }
        }),
    )
}

/// An optional statistic as JSON: the number, or `null`.
fn opt_json(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_num)
}

/// A fan-out study's percentile JSON fields; `null` for an unsampled
/// cell.
fn percentile_extras(l: &Summary) -> Extras {
    let sampled = l.samples > 0;
    vec![
        ("p50_us", opt_json(sampled.then_some(l.p50_us))),
        ("p99_us", opt_json(sampled.then_some(l.p99_us))),
        ("p999_us", opt_json(l.p999_us)),
    ]
}

/// One table cell, right-aligned in `width` columns at `prec`
/// decimals, or `-` when the statistic is unavailable: p999 under its
/// sample floor, a ratio without a baseline, any latency column of an
/// unsampled row.
fn cell(v: Option<f64>, width: usize, prec: usize) -> String {
    match v {
        Some(x) => format!("{x:>width$.prec$}"),
        None => format!("{:>width$}", "-"),
    }
}

/// The amplification join: each row's p50 and p99 over those of its
/// group's baseline, the first sampled row that `is_base` picks among
/// the rows `group` maps to the same key. An unsampled row, a group
/// with no sampled baseline, and a zero baseline percentile all give
/// `None` (rendered `-`, JSON `null`) rather than a made-up ratio.
fn amplify<R, K: PartialEq>(
    rows: &[R],
    latency: impl Fn(&R) -> &Summary,
    group: impl Fn(&R) -> K,
    is_base: impl Fn(&R) -> bool,
) -> Vec<[Option<f64>; 2]> {
    let bases: Vec<(K, &Summary)> = rows
        .iter()
        .filter(|r| is_base(r) && latency(r).samples > 0)
        .map(|r| (group(r), latency(r)))
        .collect();
    rows.iter()
        .map(|r| {
            let l = latency(r);
            let key = group(r);
            match bases.iter().find(|(k, _)| *k == key) {
                Some((_, b)) if l.samples > 0 => {
                    let ratio = |v: f64, base: f64| (base > 0.0).then(|| v / base);
                    [ratio(l.p50_us, b.p50_us), ratio(l.p99_us, b.p99_us)]
                }
                _ => [None, None],
            }
        })
        .collect()
}

/// Builds the grid from explicit axes.
fn grid(
    clients: &[usize],
    conns: &[usize],
    fanins: &[usize],
    iterations: u64,
    reps: u64,
) -> Vec<DcCell> {
    let mut cells = Vec::new();
    for &h in clients {
        for &c in conns {
            for strat in PcbStrategy::ALL {
                for &f in fanins {
                    let mut topo = Topology::incast(h, f, c);
                    topo.iterations = iterations;
                    topo.warmup = 1;
                    topo.strategy = strat;
                    let cell = DcCell::new(topo, TrafficSchedule::staggered(), reps);
                    if cells.iter().all(|x: &DcCell| x.key != cell.key) {
                        cells.push(cell);
                    }
                }
            }
        }
    }
    cells
}

/// The full `repro dc` grid: hosts {2, 32, 256} x connections/host
/// {1, 64} x all three strategies x fan-in {1, 16}.
#[must_use]
pub fn dc_grid() -> Vec<DcCell> {
    grid(&[2, 32, 256], &[1, 64], &[1, 16], 3, 1)
}

/// The `--quick` grid (CI + golden): hosts {2, 8} x connections/host
/// {1, 16} x all three strategies x fan-in {1, 4}.
#[must_use]
pub fn dc_quick_grid() -> Vec<DcCell> {
    grid(&[2, 8], &[1, 16], &[1, 4], 2, 1)
}

/// The dc table: per-cell RTT distributions next to the server-side
/// PCB counters, then the §3 ordering made visible — per (clients,
/// conns, fan-in) group, the mean server-side search length under each
/// strategy. The single-entry cache's list degrades as the PCB table
/// grows; the hash table stays flat. The dc report has no extra JSON
/// fields.
fn dc_render(cells: &[DcCell], results: &[DcCellResult]) -> (String, Vec<Extras>) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6} {:>8}",
        "cell", "samples", "mean_us", "p50_us", "p99_us", "search", "hit%", "drops", "backlog"
    );
    for r in results {
        let l = r.rtts.summary();
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>7.2} {:>6.1} {:>6} {:>8}",
            r.key.trim_start_matches("dc/"),
            l.samples,
            l.mean_us,
            l.p50_us,
            l.p99_us,
            r.server_pcb.search_len(),
            r.server_pcb.cache_hit_rate() * 100.0,
            r.switch_drops,
            r.max_backlog_cells
        );
    }
    let group = |t: &Topology| (t.clients, t.conns_per_host, t.effective_fanin());
    let groups: std::collections::BTreeSet<_> = cells.iter().map(|c| group(&c.topo)).collect();
    out.push_str("\nserver-side mean search length by strategy (PCB lookup, §3):\n");
    let _ = writeln!(
        out,
        "{:<20} {:>8} {:>8} {:>8}",
        "clients x conns x fanin", "mtf", "cache", "hash"
    );
    for (h, c, f) in groups {
        let of = |strategy: PcbStrategy| {
            cells
                .iter()
                .zip(results)
                .find(|(cell, _)| group(&cell.topo) == (h, c, f) && cell.topo.strategy == strategy)
                .map_or(f64::NAN, |(_, r)| r.server_pcb.search_len())
        };
        let _ = writeln!(
            out,
            "h{h:<4} c{c:<4} f{f:<6} {:>8.2} {:>8.2} {:>8.2}",
            of(PcbStrategy::Mtf),
            of(PcbStrategy::LastPcb),
            of(PcbStrategy::Hash)
        );
    }
    (out, vec![Extras::new(); results.len()])
}

/// One `repro tails` cell: a fan-out world plus the study axes the
/// reducer needs back out (scenario name, width, churn flag).
pub struct TailsCell {
    /// The underlying world cell (key, topology, schedule, reps).
    pub cell: DcCell,
    /// Scenario name from the tails study's fault regimes.
    pub scenario: String,
    /// Fan-out width N.
    pub width: usize,
    /// Whether background churn traffic shares the fabric.
    pub churn: bool,
}

impl AsRef<DcCell> for TailsCell {
    fn as_ref(&self) -> &DcCell {
        &self.cell
    }
}

/// Builds the tails grid from explicit axes: every scenario x every
/// fan-out width x churn {off, on}.
fn tails_grid_from(
    widths: &[usize],
    clients: usize,
    iterations: u64,
    warmup: u64,
    reps: u64,
) -> Vec<TailsCell> {
    let mut cells = Vec::new();
    for sc in tails::scenarios() {
        for &w in widths {
            for churn in [false, true] {
                let mut topo = Topology::fanout(clients, w);
                topo.iterations = iterations;
                topo.warmup = warmup;
                topo.faults = sc.faults;
                // The story is "a server hiccups", not "the whole
                // fabric is broken": clients stay clean so every tail
                // in the data came from the remote side.
                topo.fault_scope = FaultScope::ServersOnly;
                if churn {
                    topo.churn = Some(ChurnTraffic::background());
                }
                let key = format!(
                    "tails/{}/f{}/{}/i{}r{}",
                    sc.name,
                    w,
                    if churn { "churn" } else { "solo" },
                    iterations,
                    reps,
                );
                cells.push(TailsCell {
                    cell: DcCell::keyed(key, topo, reps),
                    scenario: sc.name.to_string(),
                    width: w,
                    churn,
                });
            }
        }
    }
    cells
}

/// The full `repro tails` grid: fan-out {1, 4, 16, 64} x all four
/// scenarios x churn {off, on}, sized so every un-aborted cell clears
/// the p999 sample floor three times over (4 clients x 250 measured
/// rounds x 3 reps = 3000 completions — a p99 estimate stable enough
/// for the amplification ratio to be trusted), plus the `+reno`
/// headline re-runs (`arm_cold_reno`).
#[must_use]
pub fn tails_grid() -> Vec<TailsCell> {
    let mut cells = tails_grid_from(&[1, 4, 16, 64], 4, 250, 2, 3);
    cells.extend(tails_reno_rerun());
    cells
}

/// Arms the cc-study transport on a fan-out topology: cold-start Reno
/// over the classical-IP MTU with 16 kB sub-requests, so the
/// congestion window actually binds. The original tails/hedge worlds
/// move 200-byte single-segment sub-requests — cwnd never constrains
/// one segment, so arming a variant there changes nothing; the `+reno`
/// re-runs swap in the transport configuration of the cc study and
/// keep everything else (faults, scope, schedule) from the headline
/// cell.
fn arm_cold_reno(topo: &mut Topology) {
    topo.mtu = 1500;
    topo.rpc_size = 16_000;
    topo.stack.cc = CcVariant::Reno;
    topo.stack.initial_cwnd_segs = Some(2);
}

/// The `+reno` re-runs of the tails headline cells: every scenario at
/// fan-out {1, 16}, churn off, under [`arm_cold_reno`]. Width 1 rides
/// along as the in-family amplification baseline — `amplify` groups by
/// the scenario label, so `burst-loss+reno/f16` is priced against
/// `burst-loss+reno/f1`, not against the warm-stack cells. Shallower
/// than the base family (60 rounds, one rep): the column of interest
/// is the p99 shift under cwnd dynamics, not a p999 floor.
fn tails_reno_rerun() -> Vec<TailsCell> {
    let mut cells = Vec::new();
    for sc in tails::scenarios() {
        for &w in &[1usize, 16] {
            let mut topo = Topology::fanout(4, w);
            topo.iterations = 60;
            topo.warmup = 2;
            topo.faults = sc.faults;
            topo.fault_scope = FaultScope::ServersOnly;
            arm_cold_reno(&mut topo);
            let key = format!("tails/{}+reno/f{w}/solo/i60r1", sc.name);
            cells.push(TailsCell {
                cell: DcCell::keyed(key, topo, 1),
                scenario: format!("{}+reno", sc.name),
                width: w,
                churn: false,
            });
        }
    }
    cells
}

/// The `--quick` grid (CI + golden): fan-out {1, 4, 16} x all four
/// scenarios x churn {off, on}, 2 clients x 6 measured rounds. Small
/// enough for CI; its p999 column is honestly `null` throughout.
#[must_use]
pub fn tails_quick_grid() -> Vec<TailsCell> {
    tails_grid_from(&[1, 4, 16], 2, 6, 1, 1)
}

/// The tails table and its extra JSON fields: completion percentiles
/// and the amplification ratios against each scenario x churn group's
/// fan-out-1 cell, plus the abort count. Aborted rounds are data, not
/// failures: the mbuf-exhaustion regime is expected to kill client
/// rounds, and the table flags such cells with `!`.
fn tails_render(cells: &[TailsCell], results: &[DcCellResult]) -> (String, Vec<Extras>) {
    let mut rows: Vec<_> = cells
        .iter()
        .zip(results)
        .map(|(tc, r)| {
            tails::reduce(
                &tc.scenario,
                tc.width,
                tc.churn,
                &r.completions,
                r.fanout_aborts,
            )
        })
        .collect();
    tails::join_baselines(&mut rows);
    let extras = rows
        .iter()
        .map(|row| {
            let mut fields = percentile_extras(&row.latency);
            fields.extend([
                ("amp_p50", opt_json(row.amp_p50)),
                ("amp_p99", opt_json(row.amp_p99)),
                ("fanout_aborts", row.aborted.to_string()),
            ]);
            fields
        })
        .collect();
    (tails::format_table(&rows), extras)
}

/// One `repro hedge` cell: a fan-out-16 world under one fault regime
/// and one tail mitigation.
pub struct HedgeCell {
    /// The underlying world cell (key, topology, schedule, reps).
    pub cell: DcCell,
    /// Scenario name from the hedge study's fault regimes.
    pub scenario: String,
    /// The mitigation this cell runs under.
    pub mitigation: Mitigation,
    /// Fan-out width N.
    pub width: usize,
}

impl AsRef<DcCell> for HedgeCell {
    fn as_ref(&self) -> &DcCell {
        &self.cell
    }
}

/// Builds the hedge grid: every scenario x every mitigation at one
/// fan-out width.
fn hedge_grid_from(
    width: usize,
    clients: usize,
    iterations: u64,
    warmup: u64,
    reps: u64,
) -> Vec<HedgeCell> {
    let mut cells = Vec::new();
    for sc in hedge::scenarios() {
        for m in MITIGATIONS {
            let mut topo = Topology::fanout(clients, width);
            topo.iterations = iterations;
            topo.warmup = warmup;
            topo.faults = sc.faults;
            // Same story as the tails study: the servers hiccup, the
            // clients stay clean, every tail is remote.
            topo.fault_scope = FaultScope::ServersOnly;
            topo.tail = m.policy(width);
            let key = format!(
                "hedge/{}/{}/f{}/i{}r{}",
                sc.name,
                m.tag(),
                width,
                iterations,
                reps,
            );
            cells.push(HedgeCell {
                cell: DcCell::keyed(key, topo, reps),
                scenario: sc.name.to_string(),
                mitigation: m,
                width,
            });
        }
    }
    cells
}

/// The full `repro hedge` grid: all four scenarios x all five
/// mitigations at fan-out 16, sized to clear the p999 sample floor
/// (4 clients x 150 measured rounds x 2 reps = 1200 completions per
/// cell), plus the `+reno` headline re-runs (`arm_cold_reno`).
#[must_use]
pub fn hedge_grid() -> Vec<HedgeCell> {
    let mut cells = hedge_grid_from(16, 4, 150, 2, 2);
    cells.extend(hedge_reno_rerun());
    cells
}

/// The `+reno` re-runs of the hedge headline cells: every scenario at
/// fan-out 16 under the baseline and the retry mitigation, with
/// [`arm_cold_reno`] dynamics. The pairing targets the retry-storm
/// column: `retries_issued` and `amp_p99` (priced against the
/// in-family `+reno`/`none` baseline) show how slow-start restarts
/// after loss stretch sub-request completions into the retry window.
fn hedge_reno_rerun() -> Vec<HedgeCell> {
    let mut cells = Vec::new();
    for sc in hedge::scenarios() {
        for m in [Mitigation::None, Mitigation::Retry] {
            let mut topo = Topology::fanout(4, 16);
            topo.iterations = 60;
            topo.warmup = 2;
            topo.faults = sc.faults;
            topo.fault_scope = FaultScope::ServersOnly;
            topo.tail = m.policy(16);
            arm_cold_reno(&mut topo);
            let key = format!("hedge/{}+reno/{}/f16/i60r1", sc.name, m.tag());
            cells.push(HedgeCell {
                cell: DcCell::keyed(key, topo, 1),
                scenario: format!("{}+reno", sc.name),
                mitigation: m,
                width: 16,
            });
        }
    }
    cells
}

/// The `--quick` grid (CI + golden): the same 4 x 5 cells at 2
/// clients x 6 measured rounds. Its p999 column is honestly `null`.
#[must_use]
pub fn hedge_quick_grid() -> Vec<HedgeCell> {
    hedge_grid_from(16, 2, 6, 1, 1)
}

/// The hedge table and its extra JSON fields: completion percentiles,
/// `amp_p99` against the scenario's unmitigated cell, and the
/// mitigation-cost and leak counters.
fn hedge_render(cells: &[HedgeCell], results: &[DcCellResult]) -> (String, Vec<Extras>) {
    let mut rows: Vec<_> = cells
        .iter()
        .zip(results)
        .map(|(hc, r)| {
            hedge::reduce(
                &hc.scenario,
                hc.mitigation.tag(),
                hc.width,
                &r.completions,
                r.fanout_aborts,
                r.cost,
            )
        })
        .collect();
    hedge::join_baselines(&mut rows);
    let extras = results
        .iter()
        .zip(&rows)
        .map(|(c, row)| {
            let mut fields = percentile_extras(&row.latency);
            fields.extend([
                ("amp_p99", opt_json(row.amp_p99)),
                ("hedges_issued", c.cost.hedges_issued.to_string()),
                ("hedges_won", c.cost.hedges_won.to_string()),
                ("hedges_wasted", c.cost.hedges_wasted.to_string()),
                ("retries_issued", c.cost.retries_issued.to_string()),
                ("budget_exhausted", c.cost.budget_exhausted.to_string()),
                ("deadline_exceeded", c.cost.deadline_exceeded.to_string()),
                ("cancelled", c.cost.cancelled.to_string()),
                ("mbufs_leaked", c.mbufs_leaked.to_string()),
                ("fanout_aborts", c.fanout_aborts.to_string()),
            ]);
            fields
        })
        .collect();
    (hedge::format_table(&rows), extras)
}

/// One `repro cc` cell: an incast world under one congestion-control
/// variant, one cell-drop policy, and one switch buffer size.
pub struct CcCell {
    /// The underlying world cell (key, topology, schedule, reps).
    pub cell: DcCell,
    /// The sender-side congestion-control variant.
    pub variant: CcVariant,
    /// The switch's UBR cell-drop policy.
    pub policy: DropPolicy,
    /// The switch's output-queue capacity in cells.
    pub queue_cells: usize,
}

impl AsRef<DcCell> for CcCell {
    fn as_ref(&self) -> &DcCell {
        &self.cell
    }
}

/// The drop policies the cc study sweeps for a given buffer size.
///
/// The EPD threshold sits at half the queue: early refusal needs
/// headroom below capacity to be "early" at all, and half is the
/// classic rule of thumb — deep enough to admit a committed train's
/// tail, shallow enough to refuse new trains before tail drop starts.
#[must_use]
pub fn cc_policies(queue_cells: usize) -> [DropPolicy; 3] {
    [
        DropPolicy::Tail,
        DropPolicy::Epd {
            threshold_cells: (queue_cells / 2).max(1),
        },
        DropPolicy::Ppd,
    ]
}

/// Builds the cc grid: every variant x every drop policy x every
/// buffer size, over a 4-client incast into one server port.
///
/// The worlds start **cold** (`initial_cwnd_segs = Some(2)`) so slow
/// start, loss recovery and the variant differences are actually on
/// the wire, and the switch reads AAL3/4 SAR segment types for train
/// boundaries — the adaptation layer the world's NICs run.
fn cc_grid_from(buffers: &[usize], rpc_size: usize, iterations: u64, warmup: u64) -> Vec<CcCell> {
    let mut cells = Vec::new();
    for variant in CcVariant::ALL {
        for &q in buffers {
            for policy in cc_policies(q) {
                let mut topo = Topology::incast(4, 4, 1);
                topo.rpc_size = rpc_size;
                topo.iterations = iterations;
                topo.warmup = warmup;
                // Classical-IP LIS MTU: MSS 1460 instead of the ATM
                // 9188. A 16 kB RPC is then ~11 segments, so a loss
                // leaves enough trailing segments to generate the dup
                // ACKs fast retransmit needs — with page-sized
                // segments every window fits in 4 and all recovery
                // collapses into RTOs, erasing the variant contrast.
                topo.mtu = 1500;
                topo.stack.cc = variant;
                topo.stack.initial_cwnd_segs = Some(2);
                topo.switch.queue_cells = q;
                topo.switch.drop_policy = policy;
                let key = format!(
                    "cc/{}/{}/q{}/i{}r1",
                    variant.name(),
                    policy.name(),
                    q,
                    iterations,
                );
                cells.push(CcCell {
                    cell: DcCell::keyed(key, topo, 1),
                    variant,
                    policy,
                    queue_cells: q,
                });
            }
        }
    }
    cells
}

/// The full `repro cc` grid: 4 variants x 3 policies x buffers
/// {128, 256, 512, 1024} cells, 16 kB RPCs, 3 measured rounds.
///
/// 128 cells is barely more than one 16 kB request's worth of AAL3/4
/// cells, so a 4-way incast overruns it hard; 1024 gives the fabric
/// real room. The cc worlds are loss-deterministic (overflow, not a
/// fault process), so the full grid widens along the *buffer* axis
/// rather than re-running the same cell under more seeds or deeper
/// into steady-state congestion, where every variant collapses into
/// back-to-back RTO towers and the contrast washes out.
#[must_use]
pub fn cc_grid() -> Vec<CcCell> {
    cc_grid_from(&[128, 256, 512, 1024], 16_000, 3, 1)
}

/// The `--quick` grid (CI + golden): the {128, 512} buffer subset,
/// 24 cells.
#[must_use]
pub fn cc_quick_grid() -> Vec<CcCell> {
    cc_grid_from(&[128, 512], 16_000, 3, 1)
}

/// Runs a cc grid in exact mode; [`run_cells`] with the cc study's
/// historical signature.
#[must_use]
pub fn run_cc_cells(cells: &[CcCell], jobs: usize) -> Vec<DcCellResult> {
    run_cells(cells, jobs, RecorderMode::Exact)
}

/// One reduced cc-study row: goodput, recovery-latency percentiles,
/// and the loss ledger for one (variant, policy, buffer) cell.
pub struct CcRow {
    /// Congestion-control variant name.
    pub variant: &'static str,
    /// Drop-policy name.
    pub policy: &'static str,
    /// Switch queue capacity in cells.
    pub queue_cells: usize,
    /// Per-flow application goodput in Mbit/s over the measured RPCs:
    /// one round trip's request+echo payload bits over the mean round
    /// trip. Recovery stalls (RTO towers especially) land in the mean,
    /// so wasted windows show up here even though the final simulated
    /// time — which also spans warmup and trailing timer drain — does
    /// not enter the figure.
    pub goodput_mbps: f64,
    /// The measured RPC round trips. Recovery latency lives in the
    /// p99: a round trip is slow exactly when its segments needed
    /// retransmission.
    pub latency: Summary,
    /// Segments retransmitted (RTO + fast), all hosts.
    pub rexmits: u64,
    /// Retransmission timeouts fired, all hosts.
    pub rto_fires: u64,
    /// Cells tail-dropped at full queues.
    pub queue_drops: u64,
    /// Cells refused whole by EPD.
    pub epd_drops: u64,
    /// Train remainders discarded by PPD.
    pub ppd_drops: u64,
    /// Connections aborted at the retransmit limit.
    pub aborted_conns: u64,
}

/// Reduces cc grid results to table rows.
///
/// # Panics
///
/// Panics if `cells` and `results` disagree in length.
#[must_use]
pub fn cc_rows(cells: &[CcCell], results: &[DcCellResult]) -> Vec<CcRow> {
    assert_eq!(
        cells.len(),
        results.len(),
        "rows require one result per cell"
    );
    cells
        .iter()
        .zip(results)
        .map(|(cc, r)| {
            let latency = r.rtts.summary();
            let rpc_bits = (cc.cell.topo.rpc_size * 2 * 8) as f64;
            let goodput_mbps = if latency.mean_us > 0.0 {
                rpc_bits / latency.mean_us
            } else {
                0.0
            };
            CcRow {
                variant: cc.variant.name(),
                policy: cc.policy.name(),
                queue_cells: cc.queue_cells,
                goodput_mbps,
                latency,
                rexmits: r.rexmits,
                rto_fires: r.rto_fires,
                queue_drops: r.switch_drops,
                epd_drops: r.epd_drops,
                ppd_drops: r.ppd_drops,
                aborted_conns: r.aborted_conns,
            }
        })
        .collect()
}

/// The cc study's extra JSON fields: goodput, percentiles, and the
/// retransmission and drop ledger.
fn cc_extras(rows: &[CcRow], results: &[DcCellResult]) -> Vec<Extras> {
    rows.iter()
        .zip(results)
        .map(|(row, c)| {
            vec![
                ("goodput_mbps", json_num(row.goodput_mbps)),
                ("p50_us", json_num(row.latency.p50_us)),
                ("p99_us", json_num(row.latency.p99_us)),
                ("rexmits", row.rexmits.to_string()),
                ("rto_fires", row.rto_fires.to_string()),
                ("queue_drops", row.queue_drops.to_string()),
                ("epd_drops", row.epd_drops.to_string()),
                ("ppd_drops", row.ppd_drops.to_string()),
                ("aborted_conns", row.aborted_conns.to_string()),
                ("mbufs_leaked", c.mbufs_leaked.to_string()),
            ]
        })
        .collect()
}

/// The deterministic cc report: the shared canonical JSON over RPC
/// round-trip samples plus the cc study's extra fields.
#[must_use]
pub fn cc_canonical_json(name: &str, cells: &[CcCell], results: &[DcCellResult]) -> String {
    let extras = cc_extras(&cc_rows(cells, results), results);
    canonical(name, Study::Cc, results, &extras)
}

/// The cc table: goodput next to the recovery-latency percentiles and
/// the loss ledger. Retransmissions and RTOs are the study's data.
fn cc_render(cells: &[CcCell], results: &[DcCellResult]) -> (String, Vec<Extras>) {
    let rows = cc_rows(cells, results);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<5} {:>5} {:>7} {:>8} {:>9} {:>9} {:>10} {:>7} {:>4} {:>6} {:>6} {:>6}",
        "variant",
        "drop",
        "queue",
        "samples",
        "goodput",
        "p50_us",
        "p99_us",
        "max_us",
        "rexmit",
        "rto",
        "qdrop",
        "epd",
        "ppd"
    );
    for row in &rows {
        let _ = writeln!(
            out,
            "{:<8} {:<5} {:>5} {:>7} {:>8.2} {:>9.1} {:>9.1} {:>10.1} {:>7} {:>4} {:>6} {:>6} {:>6}",
            row.variant,
            row.policy,
            row.queue_cells,
            row.latency.samples,
            row.goodput_mbps,
            row.latency.p50_us,
            row.latency.p99_us,
            row.latency.max_us,
            row.rexmits,
            row.rto_fires,
            row.queue_drops,
            row.epd_drops,
            row.ppd_drops
        );
    }
    (out, cc_extras(&rows, results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DcRunResult;
    use simkit::SimTime;

    #[test]
    fn quick_grid_has_unique_keys_and_expected_axes() {
        let g = dc_quick_grid();
        for (i, a) in g.iter().enumerate() {
            for b in &g[i + 1..] {
                assert_ne!(a.key, b.key);
            }
        }
        // 2 client counts x 2 conn counts x 3 strategies x 2 fan-ins,
        // minus nothing (fan-in 4 clamps to 2 only when clients = 2,
        // which aliases with... it clamps to 2, distinct from 1).
        assert_eq!(g.len(), 24);
        assert!(g.iter().all(|c| c.topo.iterations == 2));
    }

    #[test]
    fn full_grid_covers_the_acceptance_axes() {
        let g = dc_grid();
        assert_eq!(g.len(), 36);
        assert!(g.iter().any(|c| c.topo.clients == 256));
        assert!(g.iter().any(|c| c.topo.conns_per_host == 64));
        assert!(g.iter().any(|c| c.key.contains("/hash/")));
        assert!(g.iter().any(|c| c.key.contains("/cache/")));
        assert!(g.iter().any(|c| c.key.contains("/mtf/")));
    }

    #[test]
    fn seeds_derive_from_keys_not_positions() {
        let g = dc_quick_grid();
        let r = run_cells(&g[..2], 1, RecorderMode::Exact);
        assert_eq!(r[0].seed, sweep::cell_seed(&g[0].key));
        assert_eq!(r[1].seed, sweep::cell_seed(&g[1].key));
    }

    #[test]
    fn amplify_prices_each_group_against_its_first_sampled_baseline() {
        let lat = |samples, p50_us, p99_us| Summary {
            samples,
            p50_us,
            p99_us,
            ..Summary::default()
        };
        // (group, is baseline, latency)
        let rows = [
            ('a', true, lat(0, 0.0, 0.0)),
            ('a', true, lat(3, 10.0, 20.0)),
            ('a', false, lat(3, 15.0, 60.0)),
            ('a', false, lat(0, 0.0, 0.0)),
            ('b', false, lat(3, 15.0, 60.0)),
        ];
        let amps = amplify(&rows, |r| &r.2, |r| r.0, |r| r.1);
        assert_eq!(amps[0], [None, None], "an unsampled baseline is skipped");
        assert_eq!(amps[1], [Some(1.0), Some(1.0)], "baseline divides itself");
        assert_eq!(amps[2], [Some(1.5), Some(3.0)]);
        assert_eq!(amps[3], [None, None], "an unsampled row gets no ratio");
        assert_eq!(amps[4], [None, None], "group b has no baseline");
    }

    #[test]
    fn absorb_pools_reps_without_dropping_a_counter() {
        let mut topo = Topology::incast(2, 2, 1);
        topo.iterations = 2;
        let run = run_dc(&topo, TrafficSchedule::staggered(), 7);
        let mut one = DcCellResult::default();
        one.absorb(&run);
        let mut two = DcCellResult::default();
        two.absorb(&run);
        two.absorb(&run);
        assert!(run.events > 0 && run.server_pcb.lookups > 0);
        assert_eq!(two.rtts.len(), 2 * run.rtts.len());
        assert_eq!(two.events, 2 * run.events);
        assert_eq!(two.server_pcb.lookups, 2 * run.server_pcb.lookups);
        assert_eq!(two.server_pcb.hits, 2 * run.server_pcb.hits);
        assert_eq!(two.switch_forwarded, 2 * run.switch_forwarded);
        // Maxima pool as maxima, not sums.
        assert_eq!(two.sim_time, run.sim_time);
        assert_eq!(two.max_backlog_cells, one.max_backlog_cells);
        // A run-shaped result pools by the same rule: its `Vec` holds
        // exactly what the cell's exact `Recorder`s hold.
        let mut twice = DcRunResult::default();
        twice.absorb(&run);
        twice.absorb(&run);
        assert_eq!(twice.rtts, [&run.rtts[..], &run.rtts[..]].concat());
        assert_eq!(two.rtts.raw(), Some(&twice.rtts[..]));
        assert_eq!(
            (twice.events, twice.server_pcb, twice.switch_forwarded),
            (two.events, two.server_pcb, two.switch_forwarded)
        );
        assert_eq!(
            (twice.sim_time, twice.max_backlog_cells),
            (run.sim_time, run.max_backlog_cells)
        );
    }

    #[test]
    fn a_table_runs_only_the_cells_it_reads() {
        let scale = Scale {
            iterations: 8,
            ..Scale::QUICK
        };
        let keys: Vec<String> = tables::cells(scale).into_iter().map(|c| c.0).collect();
        let read = |section| {
            let n = keys
                .iter()
                .filter(|k| Study::Tables.reads(section, k, scale));
            n.count()
        };
        let counts = ["table1", "table2", "table3", "table4", "table6", "table7"].map(read);
        assert_eq!(counts, [16, 8, 8, 16, 16, 16]);
        for modelled in ["table5", "pcb", "mbuf"] {
            assert_eq!(read(modelled), 0, "{modelled} has no cells");
        }
        assert!(Study::Dc.reads("dc", "any/key", scale));
        // Tables 2 and 3 read the same eight cells, so both print, and
        // so do the sections that read none.
        let r = Study::Tables.run_where(scale, 2, RecorderMode::Exact, |k| {
            Study::Tables.reads("table2", k, scale)
        });
        let names: Vec<&str> = r.sections.iter().map(|s| s.0).collect();
        assert_eq!(
            (r.cells, names),
            (8, vec!["table2", "table3", "table5", "pcb", "mbuf"])
        );
        assert!(
            r.sections[0].1.starts_with("Table 2"),
            "{}",
            r.sections[0].1
        );
    }

    #[test]
    fn every_study_report_is_byte_identical_across_jobs() {
        // Two-cell subsets keep this fast; the full quick grids run in
        // the CI determinism loop.
        let newreno = format!("cc/{}/", CcVariant::NewReno.name());
        let tiny = |study: Study, key: &str| match study {
            // The Ethernet baseline next to its ATM cell.
            Study::Tables => key.starts_with("rpc/atm/4/base/") || key.starts_with("rpc/ether/4/"),
            // The clean baseline and one faulted cell at one size.
            Study::Faults => {
                key.starts_with("faults/clean/1400/")
                    || key.starts_with("faults/light-bursts/1400/")
            }
            // Both cells of `ethernet-errors`, faulted and seeded.
            Study::Extras => Study::Extras.reads("ethernet-errors", key, Scale::QUICK),
            Study::Dc => key.starts_with("dc/h2/c1/mtf/"),
            // Widths 1 and 4 exercise the amplification join.
            Study::Tails => {
                key.starts_with("tails/clean/") && key.contains("/solo/") && !key.contains("/f16/")
            }
            // The baseline and one hedged cell.
            Study::Hedge => {
                key.starts_with("hedge/clean/none/") || key.starts_with("hedge/clean/hedge/")
            }
            Study::Cc => {
                key.starts_with(&newreno) && key.contains("/q128/") && !key.contains("/ppd/")
            }
        };
        for study in Study::ALL {
            let a = study.run_where(Scale::QUICK, 1, RecorderMode::Exact, |k| tiny(study, k));
            let b = study.run_where(Scale::QUICK, 4, RecorderMode::Exact, |k| tiny(study, k));
            assert_eq!(a.cells, 2, "{study:?}");
            assert_eq!(a.json, b.json, "{study:?}");
            assert_eq!(a.sections, b.sections, "{study:?}");
            assert!(a.failed.is_empty(), "{study:?}: {:?}", a.failed);
            // The three `Sweep` studies keep their plain sweep name.
            let name = match study {
                Study::Tables | Study::Faults | Study::Extras => study.name().to_string(),
                _ => study.report_name(true),
            };
            assert!(
                a.json.starts_with(&format!("{{\n  \"name\": \"{name}\",")),
                "{}",
                a.json
            );
            let json = &a.json;
            match study {
                // Every table needs all eight sizes: a two-cell run
                // prints only the sections that read no cells.
                Study::Tables => {
                    let names: Vec<&str> = a.sections.iter().map(|s| s.0).collect();
                    assert_eq!(names, ["table5", "pcb", "mbuf"]);
                }
                // The faulted row is priced against the clean one.
                Study::Faults => {
                    let [(name, text)] = &a.sections[..] else {
                        panic!("{:?}", a.sections)
                    };
                    assert_eq!(*name, "faults");
                    assert!(text.contains("light-bursts"), "{text}");
                    assert!(text.contains("across every scenario: 0\n"), "{text}");
                }
                // Every extras cell carries the counters its sections
                // print.
                Study::Extras => {
                    let [(name, text)] = &a.sections[..] else {
                        panic!("{:?}", a.sections)
                    };
                    assert_eq!(*name, "ethernet-errors");
                    assert!(text.contains("TCP 0  (paper"), "{text}");
                    assert_eq!(json.matches("\"fcs_drops\": ").count(), 2, "{json}");
                    assert!(json.contains("\"predict_checks\": ["), "{json}");
                }
                Study::Dc => {}
                Study::Tails => {
                    // The width-1 cell is its own baseline, and p999
                    // on a 12-sample quick cell is null, never a number.
                    assert!(json.contains("\"amp_p99\": 1.0"), "{json}");
                    assert!(json.contains("\"p999_us\": null"), "{json}");
                }
                Study::Hedge => {
                    // The no-mitigation cell is its own baseline, and
                    // cancelled/hedged teardown leaks nothing.
                    assert!(json.contains("\"amp_p99\": 1.0"), "{json}");
                    assert!(json.contains("\"mbufs_leaked\": 0"), "{json}");
                    assert!(!json.contains("\"mbufs_leaked\": 1"), "{json}");
                }
                Study::Cc => {
                    assert!(json.contains("\"goodput_mbps\": "), "{json}");
                    assert!(json.contains("\"mbufs_leaked\": 0"), "{json}");
                }
            }
        }
    }

    #[test]
    fn failure_predicate_flags_leaks_in_every_study() {
        let healthy = Health {
            key: "cell",
            samples: 1,
            verify_failures: 0,
            aborts: 0,
            mbufs_leaked: 0,
            unsampled: false,
            corrupting: false,
        };
        for study in Study::ALL {
            assert_eq!(study.failure(&healthy), None, "{study:?}");
            let leaked = Health {
                mbufs_leaked: 1,
                ..healthy
            };
            let why = study.failure(&leaked).expect("a leaked cell fails");
            assert!(why.contains("1 leaked mbuf(s)"), "{study:?}: {why}");
            let corrupt = Health {
                verify_failures: 1,
                ..healthy
            };
            assert!(study.failure(&corrupt).is_some(), "{study:?}");
            // Empty cells fail unless an abort explains them.
            let empty = Health {
                samples: 0,
                ..healthy
            };
            assert!(study.failure(&empty).is_some(), "{study:?}");
            let explained = Health { aborts: 1, ..empty };
            assert_eq!(
                study.failure(&explained).is_some(),
                matches!(study, Study::Tables | Study::Dc),
                "{study:?}: aborts are data everywhere but tables and dc"
            );
            // A cell whose configuration makes corruption or an empty
            // sample set its point passes on that alone, never on a
            // leak.
            let bulk = Health {
                unsampled: true,
                ..empty
            };
            let exposed = Health {
                corrupting: true,
                ..corrupt
            };
            assert_eq!(study.failure(&bulk), None, "{study:?}");
            assert_eq!(study.failure(&exposed), None, "{study:?}");
            for by_design in [bulk, exposed] {
                let leaked = Health {
                    mbufs_leaked: 1,
                    ..by_design
                };
                assert!(study.failure(&leaked).is_some(), "{study:?}");
            }
        }
        // The extras study exempts exactly its bulk transfer and its
        // controller corruption with the checksum off.
        let r = Study::Extras.run_where(Scale::QUICK, 2, RecorderMode::Exact, |k| {
            Study::Extras.reads("predict", k, Scale::QUICK) || k.starts_with("errors/controller-")
        });
        assert_eq!(r.cells, 5);
        assert!(r.failed.is_empty(), "{:?}", r.failed);
        let line = |key: &str| r.json.lines().find(|l| l.contains(key)).expect(key);
        assert!(line("bulk/").contains("\"samples\": 0,"), "{}", r.json);
        let off = line("controller-0.03/atm/1400/nocksum/");
        assert!(!off.contains("\"verify_failures\": 0,"), "{off}");
        // A world-study cell's health reads the study's own sample set
        // and abort counter.
        let mut r = DcCellResult {
            key: "cell".to_string(),
            aborted_conns: 2,
            mbufs_leaked: 3,
            ..DcCellResult::default()
        };
        r.completions.observe(SimTime::from_us(100));
        let (dc, tails) = (Study::Dc.health(&r), Study::Tails.health(&r));
        assert_eq!((dc.samples, dc.aborts, dc.mbufs_leaked), (0, 2, 3));
        assert_eq!((tails.samples, tails.aborts), (1, 0));
    }

    #[test]
    fn rep_zero_keeps_the_base_seed_and_later_reps_leave_the_walk() {
        // Rep 0 must stay the key-derived base seed: that is what every
        // blessed golden ran on, and the fix must not move their bytes.
        let key = "dc/h2/c1/list/f1/i2r1";
        assert_eq!(rep_seed(key, 0), sweep::cell_seed(key));
        // Later reps must NOT be base + rep: that walk can collide with
        // a neighboring cell's base seed. The key-folded derivation is
        // also distinct per rep.
        let base = sweep::cell_seed(key);
        let r1 = rep_seed(key, 1);
        let r2 = rep_seed(key, 2);
        assert_ne!(r1, base.wrapping_add(1), "rep 1 left the additive walk");
        assert_ne!(r1, r2);
        assert_ne!(r1, base);
        assert_eq!(r1, sweep::cell_seed("dc/h2/c1/list/f1/i2r1/r1"));
    }

    #[test]
    fn tails_quick_grid_covers_all_axes() {
        let g = tails_quick_grid();
        // 4 scenarios x 3 widths x churn {off, on}.
        assert_eq!(g.len(), 24);
        for (i, a) in g.iter().enumerate() {
            for b in &g[i + 1..] {
                assert_ne!(a.cell.key, b.cell.key);
            }
        }
        assert!(g.iter().any(|c| c.scenario == "mbuf-exhaustion"));
        assert!(g.iter().any(|c| c.width == 16 && c.churn));
        // Only the clean cells carry the clean schedule; every cell
        // scopes it to servers so client NICs stay pristine.
        for c in &g {
            assert_eq!(c.cell.topo.fanout_width, c.width);
            assert_eq!(c.cell.topo.churn.is_some(), c.churn);
            assert_eq!(c.cell.topo.faults.is_clean(), c.scenario == "clean");
            assert_eq!(c.cell.topo.fault_scope, FaultScope::ServersOnly);
        }
        let full = tails_grid();
        // 32 warm-stack cells + 8 `+reno` re-runs (4 scenarios x
        // widths {1, 16}).
        assert_eq!(full.len(), 40);
        assert!(full.iter().any(|c| c.width == 64));
        let reno: Vec<_> = full
            .iter()
            .filter(|c| c.scenario.ends_with("+reno"))
            .collect();
        assert_eq!(reno.len(), 8);
        for c in &reno {
            // The re-runs arm the cc-study transport; width 1 rides
            // along as the in-family amplification baseline.
            assert_eq!(c.cell.topo.stack.cc, CcVariant::Reno);
            assert_eq!(c.cell.topo.stack.initial_cwnd_segs, Some(2));
            assert_eq!(c.cell.topo.mtu, 1500);
            assert_eq!(c.cell.topo.rpc_size, 16_000);
            assert!(c.width == 1 || c.width == 16);
        }
        // Warm-stack cells stay warm: the re-runs must not leak cc
        // arming into the headline family (goldens depend on it).
        assert!(full
            .iter()
            .filter(|c| !c.scenario.ends_with("+reno"))
            .all(|c| c.cell.topo.stack.initial_cwnd_segs.is_none()));
    }

    #[test]
    fn hedge_quick_grid_covers_all_axes() {
        let g = hedge_quick_grid();
        // 4 scenarios x 5 mitigations.
        assert_eq!(g.len(), 20);
        for (i, a) in g.iter().enumerate() {
            for b in &g[i + 1..] {
                assert_ne!(a.cell.key, b.cell.key);
            }
        }
        for c in &g {
            assert_eq!(c.width, 16);
            assert_eq!(c.cell.topo.fanout_width, 16);
            match c.mitigation {
                Mitigation::None => assert!(c.cell.topo.tail.is_noop()),
                _ => assert!(!c.cell.topo.tail.is_noop()),
            }
            // Hedging doubles the server blocks (replicas); the other
            // mitigations must not.
            let replicated = matches!(c.mitigation, Mitigation::Hedge | Mitigation::HedgeQuorum);
            assert_eq!(c.cell.topo.replicated(), replicated, "{}", c.cell.key);
            assert_eq!(c.cell.topo.faults.is_clean(), c.scenario == "clean");
            assert_eq!(c.cell.topo.fault_scope, FaultScope::ServersOnly);
        }
        assert!(g.iter().any(|c| c.scenario == "host-pause"));
        assert!(g.iter().any(|c| c.scenario == "link-flap"));
        let full = hedge_grid();
        // 20 warm-stack cells + 8 `+reno` re-runs (4 scenarios x
        // {none, retry}).
        assert_eq!(full.len(), 28);
        // Warm full cells clear the p999 floor: 4 clients x 150 x 2
        // reps. The `+reno` contrast family is shallower by design.
        assert!(full
            .iter()
            .filter(|c| !c.scenario.ends_with("+reno"))
            .all(|c| c.cell.topo.clients as u64 * c.cell.topo.iterations * c.cell.reps >= 1000));
        let reno: Vec<_> = full
            .iter()
            .filter(|c| c.scenario.ends_with("+reno"))
            .collect();
        assert_eq!(reno.len(), 8);
        for c in &reno {
            assert_eq!(c.cell.topo.stack.cc, CcVariant::Reno);
            assert_eq!(c.cell.topo.stack.initial_cwnd_segs, Some(2));
            assert!(matches!(c.mitigation, Mitigation::None | Mitigation::Retry));
        }
    }

    #[test]
    fn cc_quick_grid_covers_all_axes() {
        let g = cc_quick_grid();
        // 4 variants x 3 policies x 2 buffer sizes.
        assert_eq!(g.len(), 24);
        for (i, a) in g.iter().enumerate() {
            for b in &g[i + 1..] {
                assert_ne!(a.cell.key, b.cell.key);
            }
        }
        for c in &g {
            // Cold start on every cell: the study is meaningless
            // without it.
            assert_eq!(c.cell.topo.stack.initial_cwnd_segs, Some(2));
            assert_eq!(c.cell.topo.stack.cc, c.variant);
            assert_eq!(c.cell.topo.switch.drop_policy, c.policy);
            assert_eq!(c.cell.topo.switch.queue_cells, c.queue_cells);
            assert_eq!(c.cell.reps, 1);
        }
        assert!(g.iter().any(|c| c.variant == CcVariant::Sack
            && c.policy == DropPolicy::Ppd
            && c.queue_cells == 128));
        // EPD thresholds sit at half the queue.
        assert!(g.iter().any(|c| c.policy
            == DropPolicy::Epd {
                threshold_cells: 64
            }
            && c.queue_cells == 128));
        let full = cc_grid();
        // Full widens along the buffer axis; same rounds per cell.
        assert_eq!(full.len(), 48);
        assert!(full.iter().all(|c| c.cell.topo.iterations == 3));
        assert!(full.iter().any(|c| c.queue_cells == 1024));
    }
}
