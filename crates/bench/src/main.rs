//! `repro` — regenerates every table and figure of *Latency Analysis
//! of TCP on an ATM Network* from the simulation, printing measured
//! values side by side with the paper's published numbers.
//!
//! ```sh
//! repro [all|table1|table2|table3|table4|table5|table6|table7|pcb|mbuf|predict|errors]
//!       [extras|faults|ablation|switch|ethernet-errors|udp]
//!       [verify [--bless] [--golden-dir DIR]] [invariants]
//!       [dc] [tails] [hedge] [cc]
//!       [--iterations N] [--reps N] [--jobs N]
//!       [--sweep-json FILE] [--out-dir DIR] [--full] [--quick] [--sketch]
//! ```
//!
//! Every subcommand is one entry of [`ENTRIES`]: a section of a
//! `world::Study`, or a gate (`verify`, `invariants`). `repro all` (the
//! default) runs the `all` group, the paper's tables and the claims of
//! its text; `repro extras` the `extras` group, the loss-recovery grid
//! and the experiments that extend the paper. Every selected entry
//! runs once, in table order, and the exit code is the worst of
//! theirs. An unknown subcommand or flag, a zero
//! `--iterations`, `--reps` or `--jobs`, or a flag that no selected
//! subcommand reads prints one line on stderr and exits with code 2.
//!
//! `--full` uses the paper's methodology scale (40 000 iterations ×
//! 3 repetitions); `--quick` is the CI fast pass (200 × 1); the
//! default produces the same means (the simulation is deterministic,
//! so extra iterations only confirm stability). The two presets and
//! `--jobs N` (sweep workers; no output depends on it) apply to every
//! subcommand. The other flags are refused unless a selected
//! subcommand reads them:
//!
//! - `--iterations N`: the paper's tables, the loss-recovery grid
//!   (`faults`), the extras study (`predict`, `errors`, `ablation`,
//!   `switch`, `ethernet-errors`, `udp`) and `invariants`; `--reps N`:
//!   the three two-host studies. Every cell's seed derives from its
//!   key, which is what pins the blessed goldens;
//! - `--sketch`: the four world studies record completions in
//!   mergeable-sketch mode;
//! - `--sweep-json FILE` and `--out-dir DIR`: write the canonical
//!   report of the one study the command line runs (the tables,
//!   `faults`, the extras, or a world study), the same bytes at any
//!   `--jobs`, to `FILE` under `DIR` (default `out/`, created on
//!   demand; an absolute `FILE` is honoured as given). `--sweep-json`
//!   is refused when two studies would each write one (`repro all`
//!   selects the tables and the extras), `--out-dir` without
//!   `--sweep-json`;
//! - `--bless` and `--golden-dir DIR`: `repro verify`.
//!
//! Every study runs through `world::Study`. The paper's tables are one
//! study, the extras another: a study's grid runs once however many
//! of its sections are asked for, and only the cells the asked-for
//! sections read (the whole grid under `--sweep-json`); cells shared
//! between sections run once, and the printed sections are
//! byte-identical at every worker count.

#![forbid(unsafe_code)]

use simcap::RecorderMode;
use world::{Scale, Study, StudyReport};

/// The flags a command line may give only if a selected subcommand
/// reads them ([`Entry::reads`]).
const KNOBS: [&str; 7] = [
    "--iterations",
    "--reps",
    "--sketch",
    "--sweep-json",
    "--out-dir",
    "--bless",
    "--golden-dir",
];
const TWO_HOST: &[&str] = &["--iterations", "--reps", "--sweep-json", "--out-dir"];
const WORLD: &[&str] = &["--sketch", "--sweep-json", "--out-dir"];
const GOLDEN: &[&str] = &["--bless", "--golden-dir"];

/// What an entry runs.
#[derive(Clone, Copy)]
enum Run {
    /// Prints the entry's section of a study. The study runs once per
    /// command line, when its first entry does.
    Study(Study),
    /// A gate: its verdict is its exit code.
    Gate(fn(&Opts) -> i32),
}

/// One subcommand.
struct Entry {
    name: &'static str,
    /// The group name that also selects it; `None` runs it only when
    /// named.
    group: Option<&'static str>,
    /// The [`KNOBS`] it reads.
    reads: &'static [&'static str],
    run: Run,
}

const fn entry(
    name: &'static str,
    group: Option<&'static str>,
    reads: &'static [&'static str],
    run: Run,
) -> Entry {
    Entry {
        name,
        group,
        reads,
        run,
    }
}

const ALL: Option<&str> = Some("all");
const EXTRAS: Option<&str> = Some("extras");
const TABLES: Run = Run::Study(Study::Tables);
const EXTRAS_STUDY: Run = Run::Study(Study::Extras);

/// Every subcommand, in run order. Table 5, `pcb` and `mbuf` run no
/// simulation, so they read no flag.
const ENTRIES: [Entry; 22] = [
    entry("table1", ALL, TWO_HOST, TABLES),
    entry("table2", ALL, TWO_HOST, TABLES),
    entry("table3", ALL, TWO_HOST, TABLES),
    entry("table4", ALL, TWO_HOST, TABLES),
    entry("table5", ALL, &[], TABLES),
    entry("table6", ALL, TWO_HOST, TABLES),
    entry("table7", ALL, TWO_HOST, TABLES),
    entry("pcb", ALL, &[], TABLES),
    entry("mbuf", ALL, &[], TABLES),
    entry("predict", ALL, TWO_HOST, EXTRAS_STUDY),
    entry("errors", ALL, TWO_HOST, EXTRAS_STUDY),
    entry("faults", EXTRAS, TWO_HOST, Run::Study(Study::Faults)),
    entry("ablation", EXTRAS, TWO_HOST, EXTRAS_STUDY),
    entry("switch", EXTRAS, TWO_HOST, EXTRAS_STUDY),
    entry("ethernet-errors", EXTRAS, TWO_HOST, EXTRAS_STUDY),
    entry("udp", EXTRAS, TWO_HOST, EXTRAS_STUDY),
    entry("verify", None, GOLDEN, Run::Gate(verify)),
    entry("invariants", None, &["--iterations"], Run::Gate(invariants)),
    entry("dc", None, WORLD, Run::Study(Study::Dc)),
    entry("tails", None, WORLD, Run::Study(Study::Tails)),
    entry("hedge", None, WORLD, Run::Study(Study::Hedge)),
    entry("cc", None, WORLD, Run::Study(Study::Cc)),
];

/// The entries `what` names, directly or by group, in table order.
fn selected(what: &[String]) -> impl Iterator<Item = &'static Entry> + '_ {
    ENTRIES.iter().filter(move |e| {
        what.iter()
            .any(|w| w == e.name || Some(w.as_str()) == e.group)
    })
}

/// Command-line options.
struct Opts {
    what: Vec<String>,
    scale: Scale,
    jobs: usize,
    /// The [`KNOBS`] given on the command line; `--bless` and
    /// `--sketch` are read from here.
    given: Vec<&'static str>,
    sweep_json: Option<String>,
    /// Directory every output file is written under.
    out_dir: String,
    golden_dir: String,
}

/// The value after `flag`, parsed and at least 1.
fn positive<T: std::str::FromStr + PartialEq + From<u8>>(
    flag: &str,
    v: Option<String>,
) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a number"))?;
    let n: T = v
        .parse()
        .map_err(|_| format!("{flag} needs a number, got `{v}`"))?;
    if n == T::from(0) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// Parses the command line. A usage error is a one-line message.
fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        what: Vec::new(),
        scale: Scale {
            iterations: 1500,
            reps: 1,
            quick: false,
        },
        jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        given: Vec::new(),
        sweep_json: None,
        out_dir: String::from("out"),
        golden_dir: String::from("tests/golden"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        o.given.extend(KNOBS.iter().find(|k| **k == a));
        match a.as_str() {
            "--iterations" => o.scale.iterations = positive(&a, args.next())?,
            "--reps" => o.scale.reps = positive(&a, args.next())?,
            "--jobs" => o.jobs = positive(&a, args.next())?,
            "--sweep-json" => o.sweep_json = Some(args.next().ok_or("--sweep-json needs a FILE")?),
            "--out-dir" => o.out_dir = args.next().ok_or("--out-dir needs a DIR")?,
            "--bless" | "--sketch" => {}
            "--golden-dir" => o.golden_dir = args.next().ok_or("--golden-dir needs a DIR")?,
            "--full" => {
                o.scale = Scale {
                    iterations: 40_000,
                    reps: 3,
                    quick: false,
                };
            }
            "--quick" => o.scale = Scale::QUICK,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => {
                let names = ["all", "extras"]
                    .into_iter()
                    .chain(ENTRIES.iter().map(|e| e.name));
                if !names.clone().any(|k| k == other) {
                    let known: Vec<&str> = names.collect();
                    return Err(format!(
                        "unknown subcommand `{other}` (known: {})",
                        known.join(" ")
                    ));
                }
                o.what.push(a);
            }
        }
    }
    if o.what.is_empty() {
        o.what.push("all".to_string());
    }
    let read = |f: &str| selected(&o.what).any(|e| e.reads.contains(&f));
    if let Some(flag) = KNOBS.iter().find(|f| o.given.contains(f) && !read(f)) {
        return Err(format!(
            "{flag} is read by none of the selected subcommands"
        ));
    }
    if o.given.contains(&"--out-dir") && o.sweep_json.is_none() {
        return Err("--out-dir is read only with --sweep-json".into());
    }
    // A study's entries are adjacent in the table.
    let mut writers: Vec<&str> = selected(&o.what)
        .filter_map(|e| match e.run {
            Run::Study(study) => Some(study.name()),
            _ => None,
        })
        .collect();
    writers.dedup();
    if o.sweep_json.is_some() && writers.len() > 1 {
        return Err(format!(
            "--sweep-json writes one report, but {} would each write one",
            writers.join(" and ")
        ));
    }
    Ok(o)
}

fn main() {
    let opts = parse_args().unwrap_or_else(|msg| {
        eprintln!("repro: {msg}");
        std::process::exit(2);
    });
    let mut reports = std::collections::BTreeMap::new();
    let mut code = 0;
    for e in selected(&opts.what) {
        code = code.max(match e.run {
            Run::Study(study) => {
                let report = reports
                    .entry(study.name())
                    .or_insert_with(|| run_study(study, &opts));
                let (_, text) = report
                    .sections
                    .iter()
                    .find(|(name, _)| *name == e.name)
                    .unwrap_or_else(|| panic!("the {} study prints no {}", study.name(), e.name));
                print!("{text}");
                i32::from(!report.failed.is_empty())
            }
            Run::Gate(f) => f(&opts),
        });
    }
    std::process::exit(code);
}

/// `repro verify`: every study's quick grid runs live in exact mode,
/// and its canonical report must equal
/// `<golden_dir>/<report_name(true)>.json` byte for byte. A mismatch
/// prints the golden and live line of every changed, missing or extra
/// cell; a failed cell prints its line too. Exit 0 when clean, 1 on
/// any drift or failed cell, 2 when a golden is missing. `--bless`
/// writes the live reports instead.
fn verify(opts: &Opts) -> i32 {
    let bless = opts.given.contains(&"--bless");
    let mut code = 0;
    for study in Study::ALL {
        let stem = study.report_name(true);
        let path = format!("{}/{stem}.json", opts.golden_dir);
        // Read the golden before paying for the live grid, so a
        // missing or corrupt file fails fast.
        let golden = if bless {
            None
        } else {
            match std::fs::read_to_string(&path) {
                Ok(t) => Some(t),
                Err(e) => {
                    eprintln!(
                        "verify: cannot read {path}: {e}\n\
                         verify: run `repro verify --bless` to create the goldens"
                    );
                    return 2;
                }
            }
        };
        eprintln!("verify: {stem}: running across {} worker(s)...", opts.jobs);
        let live = study.run(Scale::QUICK, opts.jobs, RecorderMode::Exact);
        for failure in &live.failed {
            code = 1;
            eprintln!("verify: {stem}: {failure}");
        }
        let Some(golden) = golden else {
            std::fs::create_dir_all(&opts.golden_dir).expect("create golden dir");
            std::fs::write(&path, &live.json).expect("write golden file");
            eprintln!("verify: blessed {} cell(s) into {path}", live.cells);
            continue;
        };
        let drifts = oracle::diff_report(&golden, &live.json);
        if drifts.is_empty() {
            eprintln!(
                "verify: {stem}: {} cell(s) byte-identical to {path}",
                live.cells
            );
            continue;
        }
        code = 1;
        eprintln!("verify: {stem}: {} drift(s) against {path}:", drifts.len());
        for d in &drifts {
            eprintln!("  {d}");
        }
    }
    if code == 0 && !bless {
        eprintln!("verify: clean");
    }
    code
}

/// `repro invariants`: every distinct cell of the three two-host
/// studies at the command line's scale, each once (its first
/// repetition), from the seed its canonical report names ([`sweep::run_seed`]), observed and captured
/// with every checker armed ([`oracle::check_experiment`]). At
/// `--quick` these are the runs the goldens pin. Exit 0 when clean, 1
/// on any violation.
fn invariants(opts: &Opts) -> i32 {
    let mut keys = std::collections::BTreeSet::new();
    // Each cell is named by its key and the seed it runs on, so a line
    // reruns as `exp.plan().seed(seed)`.
    let cells: Vec<_> = [Study::Tables, Study::Faults, Study::Extras]
        .into_iter()
        .flat_map(|study| study.cells(opts.scale))
        .filter(|(key, _)| keys.insert(key.clone()))
        .map(|(key, e)| (sweep::run_seed(&key), key, e))
        .collect();
    eprintln!(
        "invariants: {} cell(s) across {} worker(s), every checker armed...",
        cells.len(),
        opts.jobs
    );
    let reports = sweep::pool::run_ordered(&cells, opts.jobs, |_, (seed, _, e)| {
        oracle::check_experiment(e, *seed)
    });
    let mut failures = 0usize;
    for ((seed, key, _), rep) in cells.iter().zip(&reports) {
        let key = format!("{key} (seed {seed})");
        if let Some(msg) = &rep.capture_skipped {
            eprintln!("invariants: {key}: capture comparison skipped ({msg})");
        }
        if rep.is_clean() {
            eprintln!(
                "invariants: {key}: clean ({} event(s) checked)",
                rep.events_checked
            );
        } else {
            failures += rep.violations.len();
            eprintln!("invariants: {key}: {} violation(s):", rep.violations.len());
            for v in &rep.violations {
                eprintln!("  [{}] {}", v.invariant, v.detail);
            }
        }
    }
    if failures == 0 {
        eprintln!("invariants: all clean");
        0
    } else {
        eprintln!("invariants: {failures} violation(s) total");
        1
    }
}

/// Runs a study at the command line's scale: its failed cells go to
/// stderr (a cell fails on payload corruption, a leaked mbuf, no
/// samples with no abort to explain them, or, in `tables` and `dc`,
/// an abort; see `Study`'s failure predicate), its canonical report to
/// `--sweep-json FILE`.
fn run_study(study: Study, opts: &Opts) -> StudyReport {
    let name = study.name();
    eprintln!("{name}: running across {} worker(s)...", opts.jobs);
    let mode = if opts.given.contains(&"--sketch") {
        RecorderMode::Sketch
    } else {
        RecorderMode::Exact
    };
    // A report holds the whole grid; a printed section needs only the
    // cells it reads.
    let whole = opts.sweep_json.is_some();
    let sections: Vec<&str> = selected(&opts.what)
        .filter(|e| matches!(e.run, Run::Study(s) if s == study))
        .map(|e| e.name)
        .collect();
    let report = study.run_where(opts.scale, opts.jobs, mode, |key| {
        whole || sections.iter().any(|s| study.reads(s, key, opts.scale))
    });
    for failure in &report.failed {
        eprintln!("{name}: {failure}");
    }
    if let Some(path) = &opts.sweep_json {
        // An absolute FILE is honoured as given.
        let p = std::path::Path::new(&opts.out_dir).join(path);
        let dir = p.parent().expect("a file has a directory");
        std::fs::create_dir_all(dir).expect("create out dir");
        std::fs::write(&p, &report.json).expect("write canonical report");
        eprintln!("{name} canonical report written to {}", p.display());
    }
    if report.failed.is_empty() {
        eprintln!("{name}: {} cell(s) clean", report.cells);
    }
    report
}
