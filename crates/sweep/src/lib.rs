//! `sweep` — the deterministic parallel sweep runner.
//!
//! The paper's tables are products of a *grid* of runs: network ×
//! message size × kernel variant × repetitions. A [`Sweep`] declares
//! that grid as a list of keyed [`Cell`]s; [`Sweep::run`] fans the
//! cells out across N worker threads and merges the results back in
//! grid order. Three properties make the parallel run a drop-in
//! replacement for the sequential one:
//!
//! 1. **Per-cell seeding by identity.** Every cell's RNG seed is
//!    derived from its stable grid key ([`cell_seed`], FNV-1a over the
//!    key, folded to 32 bits so derived per-host seeds can never
//!    overflow), not from execution order. A cell computes the same
//!    result whether it runs first, last, or concurrently with the
//!    whole grid.
//! 2. **Thread-confined simulation.** Each worker builds, runs and
//!    tears down its own [`simkit::Sim`] — a simulation never crosses
//!    threads; only the (plain-data, `Send`) experiment in and the
//!    result out do. `simkit::assert_world_send` pins that contract at
//!    compile time next to the world type.
//! 3. **Grid-order merge.** Workers pull cells from an atomic work
//!    queue but results are written back into each cell's original
//!    slot ([`pool::run_ordered`]), so the report is byte-identical to
//!    the `jobs = 1` run and to itself at any `--jobs` value.
//!
//! Host wall-clock per cell is recorded alongside the simulated
//! results, but never enters the deterministic
//! [`SweepResults::canonical_json`] artifact (see [`report`]).
//!
//! ```
//! use latency_core::experiment::{Experiment, NetKind};
//! use sweep::{grid::Variant, Sweep};
//!
//! let mut sw = Sweep::new("demo");
//! for &size in &[4usize, 200] {
//!     let mut e = Experiment::rpc(NetKind::Atm, size);
//!     e.iterations = 10;
//!     e.warmup = 2;
//!     sw.ensure(
//!         sweep::grid::rpc_cell_key(NetKind::Atm, size, Variant::Base, 10, 1),
//!         e,
//!         1,
//!     );
//! }
//! let seq = sw.run(1);
//! let par = sw.run(4);
//! assert_eq!(seq.canonical_json(), par.canonical_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod pool;
pub mod report;

use std::collections::BTreeMap;
use std::time::Instant;

use latency_core::{Experiment, RunResult};

/// One cell of the grid: a stable key plus the experiment it runs.
pub struct Cell {
    /// The cell's identity (see [`grid`]): seed source, dedup handle,
    /// and name in `sweep.json`.
    pub key: String,
    /// The configured experiment.
    pub exp: Experiment,
    /// Repetitions pooled into this cell's result.
    pub reps: u64,
}

/// Everything one cell produced.
pub struct CellOutcome {
    /// The cell's grid key.
    pub key: String,
    /// Base seed derived from the key.
    pub seed: u64,
    /// Repetitions pooled.
    pub reps: u64,
    /// Pooled simulation results (RTT samples, breakdowns, counters).
    pub result: RunResult,
    /// Host wall-clock spent computing the cell, in nanoseconds.
    /// Excluded from the canonical report: it varies run to run.
    pub wall_ns: u64,
}

/// The merged outcome of a sweep, in grid order.
pub struct SweepResults {
    /// Sweep name (from [`Sweep::new`]).
    pub name: String,
    /// Host wall-clock for the whole sweep, in nanoseconds.
    pub wall_ns: u64,
    /// Per-cell outcomes, in the order the cells were declared.
    pub outcomes: Vec<CellOutcome>,
    index: BTreeMap<String, usize>,
}

impl SweepResults {
    /// The outcome for `key`, if the grid contained it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&CellOutcome> {
        self.index.get(key).map(|&i| &self.outcomes[i])
    }

    /// The outcome for `key`.
    ///
    /// # Panics
    ///
    /// Panics (with the key) when the grid did not contain it — a
    /// declaration/rendering mismatch in the caller.
    #[must_use]
    pub fn expect(&self, key: &str) -> &CellOutcome {
        self.get(key)
            .unwrap_or_else(|| panic!("sweep has no cell '{key}'"))
    }

    /// Mean RTT of the cell `key`, in microseconds.
    #[must_use]
    pub fn mean_us(&self, key: &str) -> f64 {
        self.expect(key).result.mean_rtt_us()
    }
}

/// Derives a cell's base RNG seed from its stable grid key: FNV-1a
/// over the key bytes, folded to 32 bits.
///
/// The fold keeps every derived per-host seed (`seed * 3 + 2` is the
/// largest multiplier a world builder applies) far from `u64`
/// overflow, while leaving 4 billion distinct streams — plenty for
/// any grid.
#[must_use]
pub fn cell_seed(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h >> 32) ^ (h & 0xffff_ffff)
}

/// A declarative grid of experiment cells.
pub struct Sweep {
    /// Sweep name, carried into the report.
    pub name: String,
    cells: Vec<Cell>,
    keys: BTreeMap<String, usize>,
}

impl Sweep {
    /// An empty sweep.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Sweep {
            name: name.to_string(),
            cells: Vec::new(),
            keys: BTreeMap::new(),
        }
    }

    /// Number of cells declared.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Whether `key` is already declared.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.keys.contains_key(key)
    }

    /// Declares a cell unless its key already exists (tables share
    /// baseline cells; the first declaration wins). Returns whether
    /// the cell was inserted.
    pub fn ensure(&mut self, key: String, exp: Experiment, reps: u64) -> bool {
        assert!(reps >= 1, "a cell needs at least one repetition");
        if self.contains(&key) {
            return false;
        }
        self.keys.insert(key.clone(), self.cells.len());
        self.cells.push(Cell { key, exp, reps });
        true
    }

    /// Runs every cell on up to `jobs` workers and merges the results
    /// in grid order.
    ///
    /// The returned report is byte-identical (see
    /// [`SweepResults::canonical_json`]) for any `jobs >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `jobs == 0` or a cell's simulation panics.
    #[must_use]
    pub fn run(&self, jobs: usize) -> SweepResults {
        let t0 = Instant::now();
        let outcomes = pool::run_ordered(&self.cells, jobs, |_, cell| {
            let started = Instant::now();
            let seed = cell_seed(&cell.key);
            let result = cell
                .exp
                .plan()
                .seed(seed.wrapping_add(1))
                .reps(cell.reps)
                .execute();
            CellOutcome {
                key: cell.key.clone(),
                seed,
                reps: cell.reps,
                result,
                wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            }
        });
        SweepResults {
            name: self.name.clone(),
            wall_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            outcomes,
            index: self.keys.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_core::experiment::NetKind;

    fn tiny(size: usize) -> Experiment {
        let mut e = Experiment::rpc(NetKind::Atm, size);
        e.iterations = 8;
        e.warmup = 2;
        e
    }

    #[test]
    fn seeds_depend_only_on_the_key() {
        let a = cell_seed("rpc/atm/4/base/i400r1");
        assert_eq!(a, cell_seed("rpc/atm/4/base/i400r1"));
        assert_ne!(a, cell_seed("rpc/atm/8/base/i400r1"));
        // Folded to 32 bits: derived per-host seeds cannot overflow.
        assert!(a <= u64::from(u32::MAX));
    }

    #[test]
    fn ensure_deduplicates_shared_cells() {
        let mut sw = Sweep::new("dedup");
        assert!(sw.ensure("k".into(), tiny(4), 1));
        assert!(!sw.ensure("k".into(), tiny(8000), 3));
        assert_eq!(sw.len(), 1);
        // The first declaration won.
        let r = sw.run(1);
        assert_eq!(r.expect("k").reps, 1);
        assert_eq!(r.expect("k").result.rtts.len(), 8);
    }

    #[test]
    fn results_merge_in_grid_order_and_index_by_key() {
        let mut sw = Sweep::new("order");
        sw.ensure("z-first".into(), tiny(4), 1);
        sw.ensure("a-second".into(), tiny(80), 1);
        let r = sw.run(2);
        // Declaration order, not key order and not completion order.
        assert_eq!(r.outcomes[0].key, "z-first");
        assert_eq!(r.outcomes[1].key, "a-second");
        assert!(r.get("a-second").is_some());
        assert!(r.get("missing").is_none());
        assert!(r.mean_us("a-second") > 0.0);
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        let mut sw = Sweep::new("ident");
        for &size in &[4usize, 200, 1400] {
            sw.ensure(format!("cell/{size}"), tiny(size), 2);
        }
        let seq = sw.run(1).canonical_json();
        for jobs in [2, 3, 8] {
            assert_eq!(seq, sw.run(jobs).canonical_json(), "jobs = {jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "no cell 'nope'")]
    fn expect_names_the_missing_key() {
        let sw = Sweep::new("e");
        let _ = sw.run(1).expect("nope");
    }
}
