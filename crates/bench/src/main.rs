//! `repro` — regenerates every table and figure of *Latency Analysis
//! of TCP on an ATM Network* from the simulation, printing measured
//! values side by side with the paper's published numbers.
//!
//! ```sh
//! repro [all|table1|table2|table3|table4|table5|table6|table7|pcb|mbuf|predict|errors]
//!       [faults|churn|ablation|switch|ethernet-errors|udp|trace]
//!       [dc] [tails] [hedge] [cc]
//!       [verify [--bless] [--golden-dir DIR]] [invariants]
//!       [--iterations N] [--reps N] [--jobs N] [--seed N]
//!       [--sweep-json FILE] [--out-dir DIR] [--full] [--quick] [--sketch]
//! ```
//!
//! The second group are extension experiments beyond the paper's
//! tables; `repro all` runs the tables, `repro extras` the extensions.
//! An unknown subcommand or flag, or a zero `--iterations`, `--reps`
//! or `--jobs`, prints one line on stderr and exits with code 2.
//!
//! `--full` uses the paper's methodology scale (40 000 iterations ×
//! 3 repetitions); `--quick` is the CI fast pass (200 × 1); the
//! default produces the same means (the simulation is deterministic,
//! so extra iterations only confirm stability).
//!
//! The shared flags mean the same thing under every subcommand:
//! `--jobs N` fans work across N sweep workers; `--quick` selects the
//! CI scale; `--sweep-json FILE` writes the canonical report of the
//! sweep grid or study that ran; `--seed N` is the base seed of every
//! directly seeded experiment (default 1). Sweep-grid cells derive
//! their seeds from their cell keys instead — that is what pins the
//! blessed goldens — so `--seed` shifts the directly seeded studies
//! (`predict`, `switch`, `udp`, `errors`, `invariants`) and never the
//! golden grids. All output files land under `--out-dir` (default
//! `out/`, created on demand); absolute paths are honoured as given.
//!
//! The table experiments are declared as one grid and executed by the
//! deterministic parallel sweep runner (`crates/sweep`): cells shared
//! between tables (the ATM baseline appears in Tables 1, 2/3, 4, 6
//! and 7) run once, `--jobs N` fans the grid across N workers
//! (default: available parallelism), and the printed tables are
//! byte-identical at every worker count. `--sweep-json` writes the
//! grid's canonical report (mean/stddev/min/max, events, simulated
//! time), the same bytes at any `--jobs`.

#![forbid(unsafe_code)]

use latency_core::experiment::{Experiment, NetKind};
use latency_core::{faults, micro, paper, tables};
use sweep::grid::Variant;
use sweep::{Sweep, SweepResults};
use world::Study;

/// Every subcommand besides the `world::Study` names.
const SUBCOMMANDS: &str = "all extras table1 table2 table3 table4 table5 table6 table7 \
    pcb mbuf predict errors faults churn ablation switch ethernet-errors udp trace \
    verify invariants";

/// Command-line options. The scale/fan-out/seed/output flags are
/// shared by every subcommand and mean the same thing under each.
struct Opts {
    what: Vec<String>,
    iterations: u64,
    reps: u64,
    jobs: usize,
    /// Base seed for directly seeded experiments (grid cells keep
    /// their key-derived seeds, which is what pins the goldens).
    seed: u64,
    /// Whether the scale flags were the `--quick` CI pass.
    quick: bool,
    sweep_json: Option<String>,
    /// Directory every output file is written under.
    out_dir: String,
    bless: bool,
    golden_dir: String,
    /// Record study completions in mergeable-sketch mode instead of
    /// exact pooled samples.
    sketch: bool,
}

/// The value after `flag`, parsed.
fn number<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a number"))?;
    v.parse()
        .map_err(|_| format!("{flag} needs a number, got `{v}`"))
}

/// The value after `flag`, parsed and at least 1.
fn positive<T: std::str::FromStr + PartialEq + From<u8>>(
    flag: &str,
    v: Option<String>,
) -> Result<T, String> {
    let n = number(flag, v)?;
    if n == T::from(0) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// Parses the command line. A usage error is a one-line message.
fn parse_args() -> Result<Opts, String> {
    let mut what = Vec::new();
    let mut iterations = 1500;
    let mut reps = 1;
    let mut jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut seed = 1;
    let mut quick = false;
    let mut sweep_json = None;
    let mut out_dir = String::from("out");
    let mut bless = false;
    let mut golden_dir = String::from("tests/golden");
    let mut sketch = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iterations" => iterations = positive(&a, args.next())?,
            "--reps" => reps = positive(&a, args.next())?,
            "--jobs" => jobs = positive(&a, args.next())?,
            "--seed" => seed = number(&a, args.next())?,
            "--sweep-json" => sweep_json = Some(args.next().ok_or("--sweep-json needs a FILE")?),
            "--out-dir" => out_dir = args.next().ok_or("--out-dir needs a DIR")?,
            "--bless" => bless = true,
            "--golden-dir" => golden_dir = args.next().ok_or("--golden-dir needs a DIR")?,
            "--sketch" => sketch = true,
            "--full" => {
                iterations = 40_000;
                reps = 3;
                quick = false;
            }
            "--quick" => {
                iterations = 200;
                reps = 1;
                quick = true;
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => {
                let studies = Study::ALL.map(Study::name);
                if !SUBCOMMANDS.split(' ').chain(studies).any(|k| k == other) {
                    return Err(format!(
                        "unknown subcommand `{other}` (known: {SUBCOMMANDS} {})",
                        studies.join(" ")
                    ));
                }
                what.push(a);
            }
        }
    }
    if what.is_empty() {
        what.push("all".to_string());
    }
    Ok(Opts {
        what,
        iterations,
        reps,
        jobs,
        seed,
        quick,
        sweep_json,
        out_dir,
        bless,
        golden_dir,
        sketch,
    })
}

/// The observation mode the study subcommands run under.
fn obs_mode(opts: &Opts) -> latency_core::ObsMode {
    if opts.sketch {
        latency_core::ObsMode::Sketch
    } else {
        latency_core::ObsMode::Exact
    }
}

/// Resolves an output file under `--out-dir`, creating the directory.
/// Absolute paths are honoured as given.
fn out_path(opts: &Opts, file: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(file);
    if p.is_absolute() {
        return p.to_path_buf();
    }
    let dir = std::path::Path::new(&opts.out_dir);
    std::fs::create_dir_all(dir).expect("create out dir");
    dir.join(p)
}

fn main() {
    let opts = parse_args().unwrap_or_else(|msg| {
        eprintln!("repro: {msg}");
        std::process::exit(2);
    });
    if opts.what.iter().any(|w| w == "verify") {
        std::process::exit(cmd_verify(&opts));
    }
    if opts.what.iter().any(|w| w == "invariants") {
        std::process::exit(cmd_invariants(&opts));
    }
    if let Some(study) = Study::ALL
        .into_iter()
        .find(|s| opts.what.iter().any(|w| w == s.name()))
    {
        std::process::exit(cmd_study(study, &opts));
    }
    let all = opts.what.iter().any(|w| w == "all");
    let want = |k: &str| all || opts.what.iter().any(|w| w == k);
    let extras = opts.what.iter().any(|w| w == "extras");
    let want_x = |k: &str| extras || opts.what.iter().any(|w| w == k);

    // Phase 1: declare the full grid up front. `ensure` deduplicates
    // cells shared between tables — the ATM baseline appears in
    // Tables 1, 2/3, 4, 6 and 7 but runs once.
    let mut sw = Sweep::new("repro");
    if want("table1") {
        for &size in &paper::SIZES {
            declare_rpc(&mut sw, NetKind::Atm, size, Variant::Base, &opts);
            declare_rpc(&mut sw, NetKind::Ether, size, Variant::Base, &opts);
        }
    }
    if want("table2") || want("table3") {
        for &size in &paper::SIZES {
            declare_rpc(&mut sw, NetKind::Atm, size, Variant::Base, &opts);
        }
    }
    if want("table4") {
        for &size in &paper::SIZES {
            declare_rpc(&mut sw, NetKind::Atm, size, Variant::Base, &opts);
            declare_rpc(&mut sw, NetKind::Atm, size, Variant::NoPrediction, &opts);
        }
    }
    if want("table6") {
        for &size in &paper::SIZES {
            declare_rpc(&mut sw, NetKind::Atm, size, Variant::Base, &opts);
            declare_rpc(
                &mut sw,
                NetKind::Atm,
                size,
                Variant::IntegratedChecksum,
                &opts,
            );
        }
    }
    if want("table7") {
        for &size in &paper::SIZES {
            declare_rpc(&mut sw, NetKind::Atm, size, Variant::Base, &opts);
            declare_rpc(&mut sw, NetKind::Atm, size, Variant::NoChecksum, &opts);
        }
    }
    if want_x("faults") {
        declare_faults(&mut sw, &opts);
    }

    // Phase 2: one deterministic parallel run over the merged grid.
    let grid = if sw.is_empty() {
        None
    } else {
        eprintln!(
            "sweep: {} cell(s) across {} worker(s)...",
            sw.len(),
            opts.jobs
        );
        Some(sw.run(opts.jobs))
    };
    if let Some(path) = &opts.sweep_json {
        match &grid {
            Some(grid) => {
                let p = out_path(&opts, path);
                std::fs::write(&p, grid.canonical_json()).expect("write sweep json");
                eprintln!("sweep report written to {}", p.display());
            }
            None => eprintln!("sweep-json: no grid cells were declared; nothing written"),
        }
    }

    // Phase 3: render the tables, in table order, from the merged
    // results. Rendering recomputes each cell's key; `expect` turns
    // any declaration/rendering mismatch into a named panic.
    if want("table1") {
        table1(&opts, grid.as_ref().expect("grid"));
    }
    if want("table2") || want("table3") {
        tables_2_3(&opts, grid.as_ref().expect("grid"));
    }
    if want("table4") {
        table4(&opts, grid.as_ref().expect("grid"));
    }
    if want("table5") {
        table5();
    }
    if want("table6") {
        table6(&opts, grid.as_ref().expect("grid"));
    }
    if want("table7") {
        table7(&opts, grid.as_ref().expect("grid"));
    }
    if want("pcb") {
        pcb();
    }
    if want("mbuf") {
        mbuf_bench();
    }
    if want("predict") {
        predict_stats(&opts);
    }
    if want("errors") {
        errors(&opts);
    }
    if want_x("faults") {
        faults_study(&opts, grid.as_ref().expect("grid"));
    }
    if want_x("churn") {
        churn_exp();
    }
    if want_x("ablation") {
        ablation_exp(&opts);
    }
    if want_x("switch") {
        switch_exp(&opts);
    }
    if want_x("ethernet-errors") {
        ethernet_errors(&opts);
    }
    if want_x("udp") {
        udp_exp(&opts);
    }
    if want_x("trace") {
        trace_timeline(&opts);
    }
}

/// The message sizes of the loss-recovery study: one single-segment
/// size and one that the 9180-byte ATM MSS still carries whole but
/// whose longer 176-cell train gives bursts more to bite on.
const FAULT_SIZES: [usize; 2] = [1400, 8000];

fn fault_iters(opts: &Opts) -> u64 {
    // Faulted runs pay real retransmission timeouts (hundreds of ms of
    // simulated time each); cap the scale so `--full` stays pleasant.
    opts.iterations.min(400)
}

/// The grid key of a loss-recovery cell. Declaration and rendering
/// share this, exactly like the table cells.
fn fault_key(scenario: &str, size: usize, opts: &Opts) -> String {
    sweep::grid::fault_cell_key(scenario, size, fault_iters(opts), opts.reps)
}

fn declare_faults(sw: &mut Sweep, opts: &Opts) {
    for sc in latency_core::recovery::scenarios() {
        for &size in &FAULT_SIZES {
            sw.ensure(
                fault_key(sc.name, size, opts),
                latency_core::recovery::experiment(&sc, size, fault_iters(opts)),
                opts.reps,
            );
        }
    }
}

fn faults_study(opts: &Opts, grid: &SweepResults) {
    eprintln!("faults: loss-recovery latency study...");
    use latency_core::recovery;
    let mut rows = Vec::new();
    for &size in &FAULT_SIZES {
        let clean_mean = grid
            .expect(&fault_key("clean", size, opts))
            .result
            .mean_rtt_us();
        for sc in recovery::scenarios() {
            let r = &grid.expect(&fault_key(sc.name, size, opts)).result;
            rows.push(recovery::reduce(sc.name, size, r, clean_mean));
        }
    }
    let mut text = recovery::format_table(&rows);
    let corrupted: u64 = rows.iter().map(|r| r.verify_failures).sum();
    text.push_str(&format!(
        "payload verification failures across every scenario: {corrupted}\n"
    ));
    assert_eq!(
        corrupted, 0,
        "faults must cost latency, never integrity: {rows:?}"
    );
    println!("{text}");
}

fn churn_exp() {
    eprintln!("churn: live connections under both PCB organizations...");
    use tcpip::config::PcbOrg;
    let mut text = String::from(
        "connection churn: server TCP-input cost for a segment on the OLDEST
         of n live connections (three-way handshakes, real SYN options)
",
    );
    text.push_str(&format!(
        "{:>6} | {:>14} {:>14} {:>14}
",
        "conns", "list(us)", "list+cache(us)", "hash(us)"
    ));
    for &n in &[5usize, 25, 100, 250] {
        let list = latency_core::churn::churn(n, PcbOrg::List);
        let hash = latency_core::churn::churn(n, PcbOrg::Hash);
        text.push_str(&format!(
            "{n:>6} | {:>14.1} {:>14.1} {:>14.1}
",
            list.oldest_input_us, list.cached_input_us, hash.oldest_input_us
        ));
    }
    text.push_str(
        "=> the list organization pays ~1.28 us per connection on a cache
   miss; the hash table is flat, as the paper predicted (§3).
",
    );
    println!("{text}");
}

fn ablation_exp(opts: &Opts) {
    eprintln!("ablation: CPU scaling, checksum algorithms, MSS rounding...");
    let iters = opts.iterations.min(400);
    let pts = latency_core::ablation::cpu_scaling(&[1.0, 2.0, 4.0, 10.0, 40.0], iters);
    let mut text = String::from(
        "CPU scaling (host speedup over the 25 MHz R3000; wire fixed at 140 Mbit/s)
",
    );
    text.push_str(&format!(
        "{:>8} | {:>10} {:>10} {:>16}
",
        "speedup", "rtt4(us)", "rtt8k(us)", "elim saving(%)"
    ));
    for p in &pts {
        text.push_str(&format!(
            "{:>8.0} | {:>10.0} {:>10.0} {:>16.1}
",
            p.speedup, p.rtt4_us, p.rtt8k_us, p.elim_saving_pct
        ));
    }
    text.push_str(
        "=> a wire/adapter latency floor remains; the checksum question
   fades as CPUs outrun the link (§1's technology question, forwards).

",
    );
    let impls = latency_core::ablation::checksum_impls(8000, iters);
    text.push_str(
        "kernel checksum algorithm at 8000 B:
",
    );
    for (which, rtt) in impls {
        text.push_str(&format!(
            "  {which:?}: {rtt:.0} us
"
        ));
    }
    let (two, one) = latency_core::ablation::mss_rounding(iters);
    text.push_str(&format!(
        "
MSS rounding at 8000 B: two 4096-byte segments {two:.0} us vs one
         8192-MSS segment {one:.0} us — the page-sized segments WIN by
         pipelining receive processing against wire time.
"
    ));
    println!("{text}");
}

fn switch_exp(opts: &Opts) {
    eprintln!("switch: switched vs switchless path...");
    let iters = opts.iterations.min(500);
    let mut text = String::from(
        "ATM switch in the path (the paper's testbed was switchless)
",
    );
    text.push_str(&format!(
        "{:>6} | {:>12} {:>12} {:>8}
",
        "size", "direct(us)", "switched(us)", "delta"
    ));
    for &size in &[4usize, 1400, 8000] {
        let mut d = Experiment::rpc(NetKind::Atm, size);
        d.iterations = iters;
        let mut s =
            Experiment::rpc(NetKind::Atm, size).through_switch(atm::SwitchConfig::default());
        s.iterations = iters;
        let direct = d.plan().seed(opts.seed).execute().mean_rtt_us();
        let switched = s.plan().seed(opts.seed).execute().mean_rtt_us();
        text.push_str(&format!(
            "{size:>6} | {direct:>12.0} {switched:>12.0} {:>8.0}
",
            switched - direct
        ));
    }
    // Fabric corruption is caught end to end even without the TCP
    // checksum (§4.2.1 error source #1).
    let mut e = Experiment::rpc(NetKind::Atm, 1400).without_checksum();
    e.iterations = iters;
    e.switch = Some(atm::SwitchConfig {
        corrupt_prob: 0.001,
        ..atm::SwitchConfig::default()
    });
    let r = e.plan().seed(opts.seed).execute();
    text.push_str(&format!(
        "
fabric corruption, TCP checksum OFF: {} AAL3/4 drops, {} app-visible
         corruptions — the end-to-end AAL CRC covers the switch, as §4.2.1 argues.
",
        r.client_nic.aal_drops + r.server_nic.aal_drops,
        r.verify_failures
    ));
    println!("{text}");
}

fn ethernet_errors(opts: &Opts) {
    eprintln!("ethernet-errors: the departmental-Ethernet observation...");
    let iters = opts.iterations.min(300);
    let local = faults::departmental_ethernet(1e-5, 0.0, iters, opts.seed.wrapping_add(8));
    let mixed = faults::departmental_ethernet(1e-5, 0.005, iters, opts.seed.wrapping_add(9));
    let text = format!(
        "departmental Ethernet (§4.2.1): errors caught by the FCS vs TCP
         local traffic only : CRC {} / TCP {}  (paper: TCP detected none)
         with WAN traffic   : CRC {} / TCP {}  (paper: TCP ~100x fewer)
",
        local.caught_by_crc, local.caught_by_tcp, mixed.caught_by_crc, mixed.caught_by_tcp
    );
    println!("{text}");
}

fn udp_exp(opts: &Opts) {
    eprintln!("udp: TCP vs UDP RPC latency...");
    let iters = opts.iterations.min(800);
    let mut text = String::from(
        "RPC echo over ATM: TCP vs UDP (extension; the comparison behind
         §1's 'is TCP a viable transport for RPC?')
",
    );
    text.push_str(&format!(
        "{:>6} | {:>9} {:>9} {:>12}
",
        "size", "tcp(us)", "udp(us)", "tcp extra(%)"
    ));
    for &size in &paper::SIZES {
        let mut t = Experiment::rpc(NetKind::Atm, size);
        t.iterations = iters;
        let mut u = Experiment::udp_rpc(NetKind::Atm, size);
        u.iterations = iters;
        let tcp = t.plan().seed(opts.seed).execute().mean_rtt_us();
        let udp = u.plan().seed(opts.seed).execute().mean_rtt_us();
        text.push_str(&format!(
            "{size:>6} | {tcp:>9.0} {udp:>9.0} {:>12.1}
",
            (tcp / udp - 1.0) * 100.0
        ));
    }
    text.push_str(
        "=> TCP costs ~30% over a bare datagram exchange at small sizes — the
         price of reliability state, mcopy and the heavier input path — and
         the gap closes with size until TCP WINS at 8 KB: its two page-sized
         segments pipeline receive processing against wire time, while the
         single large UDP datagram serializes. Same order of magnitude
         throughout, supporting the paper's 'viable for RPC' conclusion.
",
    );
    println!("{text}");
}

/// Prints an annotated timeline of one 1400-byte RPC iteration —
/// every probe interval the instrumentation recorded, in order.
fn trace_timeline(opts: &Opts) {
    let mut e = Experiment::rpc(NetKind::Atm, 1400);
    e.iterations = 1;
    e.warmup = 2;
    // Rebuild at the world level to keep the recorder.
    use latency_core::app::{App, Role};
    use latency_core::nic::{AtmNic, Nic};
    use latency_core::world::{run_world, World};
    let costs = e.costs.clone();
    let apps = [
        App::new(Role::RpcClient, e.size, e.iterations, e.warmup),
        App::new(Role::RpcServer, e.size, u64::MAX / 4, 0),
    ];
    let nics = [
        Nic::Atm(AtmNic::new(
            atm::FiberLink::new(atm::LinkConfig::default(), opts.seed),
            costs.clone(),
            opts.seed,
        )),
        Nic::Atm(AtmNic::new(
            atm::FiberLink::new(atm::LinkConfig::default(), opts.seed.wrapping_add(1)),
            costs.clone(),
            opts.seed.wrapping_add(1),
        )),
    ];
    let sim = run_world(World::new(e.cfg, costs, nics, apps), None);
    println!("timeline of one 1400-byte RPC iteration (client side, us relative to write()):");
    let rec = &sim.world.hosts[0].kernel.spans;
    let t0 = rec
        .marks()
        .iter()
        .find(|(m, _)| *m == tcpip::Mark::WriteStart)
        .map_or(simkit::SimTime::ZERO, |&(_, t)| t);
    let mut events: Vec<(f64, String)> = rec
        .spans()
        .iter()
        .map(|s| {
            (
                s.start.saturating_since(t0).as_us_f64(),
                format!(
                    "{:>9.1} ..{:>9.1}  {:?}",
                    s.start.saturating_since(t0).as_us_f64(),
                    s.end.saturating_since(t0).as_us_f64(),
                    s.kind
                ),
            )
        })
        .collect();
    events.extend(rec.marks().iter().map(|&(m, t)| {
        (
            t.saturating_since(t0).as_us_f64(),
            format!(
                "{:>9.1}              * {m:?}",
                t.saturating_since(t0).as_us_f64()
            ),
        )
    }));
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    for (_, line) in events {
        println!("{line}");
    }
}

fn effective_iterations(net: NetKind, opts: &Opts) -> u64 {
    // Ethernet at 8 KB is ~20 ms per iteration of simulated time; cap
    // the slow substrate so full runs stay pleasant.
    if net == NetKind::Ether {
        opts.iterations.min(4_000)
    } else {
        opts.iterations
    }
}

fn rpc(net: NetKind, size: usize, opts: &Opts) -> Experiment {
    let mut e = Experiment::rpc(net, size);
    e.iterations = effective_iterations(net, opts);
    e.warmup = 16;
    e
}

/// The grid key of an RPC cell. Declaration and rendering both go
/// through this, so a key mismatch between the two is impossible.
fn rpc_key(net: NetKind, size: usize, v: Variant, opts: &Opts) -> String {
    sweep::grid::rpc_cell_key(net, size, v, effective_iterations(net, opts), opts.reps)
}

fn declare_rpc(sw: &mut Sweep, net: NetKind, size: usize, v: Variant, opts: &Opts) {
    sw.ensure(
        rpc_key(net, size, v, opts),
        v.apply(rpc(net, size, opts)),
        opts.reps,
    );
}

fn table1(opts: &Opts, grid: &SweepResults) {
    eprintln!("table1: ATM vs Ethernet rendering...");
    let mean = |net, size| grid.mean_us(&rpc_key(net, size, Variant::Base, opts));
    let atm: Vec<f64> = paper::SIZES
        .iter()
        .map(|&s| mean(NetKind::Atm, s))
        .collect();
    let eth: Vec<f64> = paper::SIZES
        .iter()
        .map(|&s| mean(NetKind::Ether, s))
        .collect();
    let text = tables::rtt_comparison(
        "Table 1: ATM vs Ethernet round-trip times",
        "Ether",
        "ATM",
        &paper::SIZES,
        &eth,
        &atm,
        &paper::T1_ETHERNET_RTT,
        &paper::T1_ATM_RTT,
    );
    println!("{text}");
}

fn tables_2_3(opts: &Opts, grid: &SweepResults) {
    eprintln!("table2/3: breakdown rendering...");
    let mut txs = Vec::new();
    let mut rxs = Vec::new();
    for &size in &paper::SIZES {
        let r = &grid
            .expect(&rpc_key(NetKind::Atm, size, Variant::Base, opts))
            .result;
        txs.push(r.tx);
        rxs.push(r.rx);
    }
    let t2 = tables::table2(&paper::SIZES, &txs);
    let t3 = tables::table3(&paper::SIZES, &rxs);
    println!("{t2}");
    println!("{t3}");
}

fn table4(opts: &Opts, grid: &SweepResults) {
    eprintln!("table4: header prediction on/off...");
    let mut with = Vec::new();
    let mut without = Vec::new();
    for &size in &paper::SIZES {
        with.push(grid.mean_us(&rpc_key(NetKind::Atm, size, Variant::Base, opts)));
        without.push(grid.mean_us(&rpc_key(NetKind::Atm, size, Variant::NoPrediction, opts)));
    }
    let text = tables::rtt_comparison(
        "Table 4: effect of header prediction",
        "NoPred",
        "Pred",
        &paper::SIZES,
        &without,
        &with,
        &paper::T4_NO_PREDICTION_RTT,
        &paper::T1_ATM_RTT,
    );
    println!("{text}");
    let fig = tables::ascii_figure(
        "Figure 1: Effects of Header Prediction (round-trip time, us)",
        &paper::SIZES,
        &[("with prediction", &with), ("without prediction", &without)],
        16,
    );
    println!("{fig}");
}

fn table5() {
    eprintln!("table5: user-level copy & checksum (modelled DECstation costs)...");
    let costs = decstation::CostModel::calibrated();
    let rows = micro::table5_model(&costs, &paper::SIZES);
    let mut text = String::from("Table 5: copy and checksum costs (modelled us, measured/paper)\n");
    text.push_str(&format!(
        "{:>6} | {:>13} {:>13} {:>13} {:>13} {:>8}\n",
        "size", "ULTRIXcksum", "bcopy", "opt.cksum", "integrated", "save%"
    ));
    let mut integ_series = Vec::new();
    for (i, &size) in paper::SIZES.iter().enumerate() {
        let [u, b, o, g] = rows[i];
        let save = (1.0 - g / (b + o)) * 100.0;
        text.push_str(&format!(
            "{size:>6} | {u:>6.0}/{:<6.0} {b:>6.0}/{:<6.0} {o:>6.0}/{:<6.0} {g:>6.0}/{:<6.0} {save:>8.1}\n",
            paper::t5::ULTRIX_CKSUM[i],
            paper::t5::BCOPY[i],
            paper::t5::OPT_CKSUM[i],
            paper::t5::INTEGRATED[i],
        ));
        integ_series.push(g);
    }
    println!("{text}");
    // Figure 2: the three strategies for copy+checksum.
    let copy_ultrix: Vec<f64> = paper::SIZES
        .iter()
        .enumerate()
        .map(|(i, _)| rows[i][0] + rows[i][1])
        .collect();
    let copy_opt: Vec<f64> = paper::SIZES
        .iter()
        .enumerate()
        .map(|(i, _)| rows[i][2] + rows[i][1])
        .collect();
    let fig = tables::ascii_figure(
        "Figure 2: Copy and Checksum Measurements (us)",
        &paper::SIZES,
        &[
            ("copy & ULTRIX checksum", &copy_ultrix),
            ("copy & optimized checksum", &copy_opt),
            ("integrated copy & checksum", &integ_series),
        ],
        16,
    );
    println!("{fig}");
    // Native shape check: the real routines on this machine.
    let mut native = String::from("Native (this machine) checksum routine times, ns/call:\n");
    native.push_str(&format!(
        "{:>6} {:>12} {:>12} {:>12}\n",
        "size", "ultrix", "optimized", "copy+cksum"
    ));
    for &size in &paper::SIZES {
        let [u, o, i] = micro::native_cksum_ns(size, 2000);
        native.push_str(&format!("{size:>6} {u:>12.0} {o:>12.0} {i:>12.0}\n"));
    }
    println!("{native}");
}

fn table6(opts: &Opts, grid: &SweepResults) {
    eprintln!("table6: integrated copy-and-checksum kernel...");
    let mut base = Vec::new();
    let mut integ = Vec::new();
    for &size in &paper::SIZES {
        base.push(grid.mean_us(&rpc_key(NetKind::Atm, size, Variant::Base, opts)));
        integ.push(grid.mean_us(&rpc_key(
            NetKind::Atm,
            size,
            Variant::IntegratedChecksum,
            opts,
        )));
    }
    let text = tables::rtt_comparison(
        "Table 6: standard vs combined copy-and-checksum round trips",
        "Std",
        "Combined",
        &paper::SIZES,
        &base,
        &integ,
        &paper::T1_ATM_RTT,
        &paper::T6_COMBINED_RTT,
    );
    println!("{text}");
}

fn table7(opts: &Opts, grid: &SweepResults) {
    eprintln!("table7: checksum elimination...");
    let mut base = Vec::new();
    let mut none = Vec::new();
    for &size in &paper::SIZES {
        base.push(grid.mean_us(&rpc_key(NetKind::Atm, size, Variant::Base, opts)));
        none.push(grid.mean_us(&rpc_key(NetKind::Atm, size, Variant::NoChecksum, opts)));
    }
    let text = tables::rtt_comparison(
        "Table 7: round trips with and without the TCP checksum",
        "Cksum",
        "NoCksum",
        &paper::SIZES,
        &base,
        &none,
        &paper::T1_ATM_RTT,
        &paper::T7_NO_CKSUM_RTT,
    );
    println!("{text}");
}

fn pcb() {
    eprintln!("pcb: lookup scaling (§3)...");
    let costs = decstation::CostModel::calibrated();
    let lengths = [20usize, 50, 100, 250, 500, 750, 1000];
    let pts = micro::pcb_lookup_sweep(&costs, &lengths);
    let fit = micro::pcb_lookup_fit(&pts).expect("fit");
    let mut text = String::from(
        "PCB linear-search cost (paper: 20 -> 26 us, 1000 -> 1280 us, ~1.3 us/entry)\n",
    );
    text.push_str(&format!(
        "{:>8} {:>12} {:>12}\n",
        "entries", "model(us)", "steps"
    ));
    for p in &pts {
        text.push_str(&format!(
            "{:>8} {:>12.1} {:>12}\n",
            p.entries, p.model_us, p.real_steps
        ));
    }
    text.push_str(&format!(
        "fit: {:.3} us/entry (r^2 = {:.6}); paper: ~{} us/entry\n",
        fit.slope,
        fit.r_squared,
        paper::PCB_PER_ENTRY_US
    ));
    println!("{text}");
}

fn mbuf_bench() {
    eprintln!("mbuf: allocator microbenchmark (§2.2.1)...");
    let costs = decstation::CostModel::calibrated();
    let us = micro::mbuf_pair_cost_us(&costs);
    let text = format!(
        "mbuf allocate+free pair: {us:.1} us (paper: just over {} us)\n",
        paper::MBUF_ALLOC_FREE_US
    );
    println!("{text}");
}

fn predict_stats(opts: &Opts) {
    eprintln!("predict: fast-path statistics (§3)...");
    let r = rpc(NetKind::Atm, 200, opts)
        .plan()
        .seed(opts.seed)
        .execute();
    let rpc_rate = 100.0 * (r.client_tcp.predict_data_hits + r.client_tcp.predict_ack_hits) as f64
        / r.client_tcp.predict_checks.max(1) as f64;
    let b = Experiment::bulk(NetKind::Atm, 4000, opts.iterations.min(2_000))
        .plan()
        .seed(opts.seed)
        .execute();
    let bulk_rate =
        100.0 * b.server_tcp.predict_data_hits as f64 / b.server_tcp.predict_checks.max(1) as f64;
    let r8k = rpc(NetKind::Atm, 8000, opts)
        .plan()
        .seed(opts.seed)
        .execute();
    let second_seg =
        100.0 * r8k.client_tcp.predict_data_hits as f64 / (2.0 * r8k.rtts.len() as f64);
    let text = format!(
        "header-prediction fast path hit rates:\n\
         RPC 200 B client:         {rpc_rate:>5.1}%  (paper: fails for piggybacked-ACK RPC)\n\
         bulk 4000 B receiver:     {bulk_rate:>5.1}%  (paper: the case it was built for)\n\
         RPC 8000 B data segments: {second_seg:>5.1}%  (paper: succeeds for half: the 2nd of 2)\n"
    );
    println!("{text}");
}

fn errors(opts: &Opts) {
    eprintln!("errors: §4.2.1 detection layering...");
    let iters = opts.iterations.min(300);
    let mut text =
        String::from("fault injection (RPC 1400 B): which layer detects each error class\n");
    text.push_str(&format!(
        "{:<34} {:>8} {:>5} {:>5} {:>5} {:>5} {:>7}\n",
        "class", "injected", "HEC", "AAL", "TCP", "app", "rexmit"
    ));
    let mut row = |name: &str, r: &faults::DetectionReport| {
        text.push_str(&format!(
            "{name:<34} {:>8} {:>5} {:>5} {:>5} {:>5} {:>7}\n",
            r.injected_link,
            r.caught_hec,
            r.caught_aal,
            r.caught_tcp,
            r.reached_app,
            r.retransmissions
        ));
    };
    row(
        "fiber BER 1e-5",
        &faults::link_bit_errors(1e-5, iters, opts.seed.wrapping_add(1)),
    );
    row(
        "fiber BER 1e-4",
        &faults::link_bit_errors(1e-4, iters, opts.seed.wrapping_add(2)),
    );
    row(
        "cell loss 0.2%",
        &faults::cell_loss(0.002, iters, opts.seed.wrapping_add(3)),
    );
    let on = faults::controller_corruption(0.03, true, iters, opts.seed.wrapping_add(4));
    let off = faults::controller_corruption(0.03, false, iters, opts.seed.wrapping_add(5));
    row("controller corruption, cksum ON", &on);
    row("controller corruption, cksum OFF", &off);
    text.push_str(
        "=> link errors never pass AAL3/4; controller corruption passes every\n\
         link CRC and reaches the application once the TCP checksum is off —\n\
         the boundary condition of the paper's elimination argument.\n",
    );
    println!("{text}");
}

// --------------------------------------------------------------------------
// `repro verify` / `repro invariants` — the oracle subcommands.
// --------------------------------------------------------------------------

/// Golden comparisons run at the CI quick scale regardless of which
/// scale flags accompany the command: the blessed files pin their
/// scale into every cell key, so verifying at any other scale could
/// only ever report "cell missing".
fn golden_scale(opts: &Opts) -> Opts {
    Opts {
        what: Vec::new(),
        iterations: 200,
        reps: 1,
        jobs: opts.jobs,
        // Golden cells are seeded from their keys; the base seed is
        // pinned so `--seed` can never manufacture a drift.
        seed: 1,
        quick: true,
        sweep_json: None,
        out_dir: opts.out_dir.clone(),
        bless: opts.bless,
        golden_dir: opts.golden_dir.clone(),
        sketch: false,
    }
}

/// The two golden grids: every Tables 1–7 cell, and the
/// loss-recovery study.
fn golden_grids(q: &Opts) -> [Sweep; 2] {
    let mut tables = Sweep::new("tables");
    for &size in &paper::SIZES {
        for v in Variant::ALL {
            declare_rpc(&mut tables, NetKind::Atm, size, v, q);
        }
        declare_rpc(&mut tables, NetKind::Ether, size, Variant::Base, q);
    }
    let mut faults = Sweep::new("faults");
    declare_faults(&mut faults, q);
    [tables, faults]
}

/// A blessed grid: one of the two `Sweep` grids, or a world study's
/// quick grid.
enum Golden {
    Sweep(Sweep),
    Study(Study),
}

/// A golden grid's live side: its canonical JSON, its cell count, and
/// (for `Sweep` grids) the results drift shrinking reruns from.
struct Live {
    json: String,
    cells: usize,
    sweep: Option<SweepResults>,
}

impl Golden {
    /// The golden file's stem, `<grid>_quick`.
    fn stem(&self) -> String {
        match self {
            Golden::Sweep(grid) => format!("{}_quick", grid.name),
            Golden::Study(study) => study.report_name(true),
        }
    }

    fn run(self, jobs: usize) -> Live {
        match self {
            Golden::Sweep(grid) => {
                let live = grid.run(jobs);
                Live {
                    json: live.canonical_json(),
                    cells: live.outcomes.len(),
                    sweep: Some(live),
                }
            }
            // Goldens are blessed in exact mode; verify never sketches.
            Golden::Study(study) => {
                let live = study.run(true, jobs, latency_core::ObsMode::Exact);
                Live {
                    json: live.json,
                    cells: live.cells,
                    sweep: None,
                }
            }
        }
    }
}

/// `repro verify`: every golden — the tables and faults grids, then
/// each world study's quick grid — runs live, and its canonical report
/// must equal `<golden_dir>/<stem>.json` byte for byte. A mismatch
/// prints the golden and live line of every changed, missing or extra
/// cell.
fn cmd_verify(opts: &Opts) -> i32 {
    let q = golden_scale(opts);
    let mut code = 0;
    let goldens = golden_grids(&q)
        .into_iter()
        .map(Golden::Sweep)
        .chain(Study::ALL.map(Golden::Study));
    for grid in goldens {
        let stem = grid.stem();
        let path = format!("{}/{stem}.json", q.golden_dir);
        // Read the golden before paying for the live grid, so a
        // missing or corrupt file fails fast.
        let golden = if q.bless {
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
        eprintln!("verify: {stem}: running across {} worker(s)...", q.jobs);
        let live = grid.run(q.jobs);
        let Some(golden) = golden else {
            std::fs::create_dir_all(&q.golden_dir).expect("create golden dir");
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
        if let Some(sweep) = &live.sweep {
            shrink_fault_drifts(sweep, &drifts);
        }
    }
    if code == 0 && !q.bless {
        eprintln!("verify: clean");
    }
    code
}

/// Integrity anomalies in a drifted fault cell (payload corruption
/// reaching the application) shrink to a minimal reproducing schedule
/// before being reported, so the console shows the smallest injector
/// that still breaks the run rather than the full scenario.
fn shrink_fault_drifts(live: &SweepResults, drifts: &[oracle::LineDiff]) {
    use latency_core::recovery;
    for d in drifts {
        if !d.key.starts_with("faults/") {
            continue;
        }
        let Some(out) = live.get(&d.key) else {
            continue;
        };
        if out.result.verify_failures == 0 {
            continue;
        }
        // Key shape: faults/{scenario}/{size}/i{iters}r{reps}.
        let parts: Vec<&str> = d.key.split('/').collect();
        let (Some(name), Some(size), Some(iters)) = (
            parts.get(1),
            parts.get(2).and_then(|s| s.parse::<usize>().ok()),
            parts
                .get(3)
                .and_then(|s| s.strip_prefix('i'))
                .and_then(|s| s.split('r').next())
                .and_then(|s| s.parse::<u64>().ok()),
        ) else {
            continue;
        };
        let Some(sc) = recovery::scenarios().into_iter().find(|s| s.name == *name) else {
            continue;
        };
        let seed = out.seed;
        let minimal = oracle::shrink_schedule(sc.faults, |cand| {
            let probe = recovery::Scenario {
                name: sc.name,
                blurb: sc.blurb,
                faults: *cand,
            };
            recovery::experiment(&probe, size, iters)
                .plan()
                .seed(seed)
                .execute()
                .verify_failures
                > 0
        });
        eprintln!(
            "  minimal schedule reproducing the corruption in {}: {minimal:?}",
            d.key
        );
    }
}

fn cmd_invariants(opts: &Opts) -> i32 {
    use oracle::InvariantSet;
    let iters = opts.iterations.min(200);
    let mut cells: Vec<(String, Experiment, InvariantSet)> = Vec::new();
    for &size in &[4usize, 1400, 8000] {
        for v in Variant::ALL {
            let mut e = v.apply(Experiment::rpc(NetKind::Atm, size));
            e.iterations = iters;
            e.warmup = 8;
            cells.push((format!("atm/{size}/{}", v.tag()), e, InvariantSet::all()));
        }
    }
    for &size in &[200usize, 8000] {
        let mut e = Experiment::rpc(NetKind::Ether, size);
        e.iterations = iters.min(200);
        e.warmup = 8;
        cells.push((format!("ether/{size}/base"), e, InvariantSet::all()));
    }
    // Faulted runs too: the invariants must hold under injected loss.
    // The capture comparator assumes the clean orbit's frame pairing,
    // so it sits out here; every other checker stays armed.
    let mut faulted = InvariantSet::all();
    faulted.capture_agreement = false;
    for sc in latency_core::recovery::scenarios() {
        let e = latency_core::recovery::experiment(&sc, 1400, iters.min(60));
        cells.push((format!("faults/{}/1400", sc.name), e, faulted));
    }
    eprintln!(
        "invariants: {} run(s) across {} worker(s), checkers armed...",
        cells.len(),
        opts.jobs
    );
    // `--seed N` shifts every run's base seed uniformly (the default
    // of 1 keeps the historical key-derived seeds).
    let offset = opts.seed.wrapping_sub(1);
    let reports = sweep::pool::run_ordered(&cells, opts.jobs, move |_, (name, e, set)| {
        (
            name.clone(),
            oracle::check_experiment(e, sweep::cell_seed(name).wrapping_add(offset), set),
        )
    });
    let mut failures = 0usize;
    // Oracle scope guards: the analytic model must refuse each world
    // it cannot price with a typed error, never extrapolate the
    // two-host fiber path to it. Multi-host worlds share a switch.
    // Mitigated worlds get the most specific refusal of all: the
    // tail-tolerance control layer (hedge races, retry budgets,
    // deadlines) shapes completion before topology even matters.
    // Fan-out worlds complete at the max over N coupled sub-requests
    // (an order statistic), wrong for the per-connection orbit
    // regardless of host count.
    let mut mitigated = world::Topology::fanout(4, 16);
    mitigated.tail = world::Mitigation::Hedge.policy(16);
    type Expect = fn(&oracle::PredictError) -> Option<String>;
    let guards: [(&str, &str, world::Topology, Expect); 3] = [
        (
            "oracle scope guard",
            "multi-host",
            world::Topology::incast(32, 16, 4),
            |e| match e {
                oracle::PredictError::MultiHostWorld { hosts } => {
                    Some(format!("the {hosts}-host world"))
                }
                _ => None,
            },
        ),
        (
            "oracle mitigation scope guard",
            "mitigated",
            mitigated,
            |e| {
                matches!(e, oracle::PredictError::MitigatedWorld { .. })
                    .then(|| "the tail-mitigated world".to_string())
            },
        ),
        (
            "oracle fan-out scope guard",
            "fan-out",
            world::Topology::fanout(4, 16),
            |e| match e {
                oracle::PredictError::FanoutWorld { width } => {
                    Some(format!("the width-{width} fan-out world"))
                }
                _ => None,
            },
        ),
    ];
    for (guard, kind, topo, expect) in guards {
        match oracle::predict_dc(&topo) {
            Err(e) => match expect(&e) {
                Some(world) => eprintln!(
                    "invariants: oracle scope guard: clean (refused {world} with a typed error)"
                ),
                None => {
                    failures += 1;
                    eprintln!("invariants: {guard}: wrong error: {e}");
                }
            },
            Ok(_) => {
                failures += 1;
                eprintln!("invariants: {guard}: a {kind} world was accepted");
            }
        }
    }
    for (name, rep) in reports {
        if let Some(msg) = &rep.capture_skipped {
            eprintln!("invariants: {name}: capture comparison skipped ({msg})");
        }
        if rep.is_clean() {
            eprintln!(
                "invariants: {name}: clean ({} event(s) checked)",
                rep.events_checked
            );
        } else {
            failures += rep.violations.len();
            eprintln!("invariants: {name}: {} violation(s):", rep.violations.len());
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

/// `repro <study>`: one of the datacenter studies over the shared
/// world pipeline (`world::Study`). Prints the study table, writes the
/// canonical report under `--sweep-json FILE`, and fails the run if
/// any cell failed the study's predicate (payload corruption, a leaked
/// mbuf, or no samples with no abort to explain them; in `dc`, any
/// aborted connection). `--quick` runs the CI grid whose canonical
/// JSON is blessed as `tests/golden/<study>_quick.json` and gated by
/// `repro verify`; `--sketch` records samples in sketch mode.
fn cmd_study(study: Study, opts: &Opts) -> i32 {
    let name = study.name();
    eprintln!("{name}: running across {} worker(s)...", opts.jobs);
    let report = study.run(opts.quick, opts.jobs, obs_mode(opts));
    print!("{}", report.table);
    for failure in &report.failed {
        eprintln!("{name}: {failure}");
    }
    if let Some(path) = &opts.sweep_json {
        let p = out_path(opts, path);
        std::fs::write(&p, &report.json).expect("write study sweep json");
        eprintln!("{name} canonical report written to {}", p.display());
    }
    if report.failed.is_empty() {
        eprintln!("{name}: {} cell(s) clean", report.cells);
        0
    } else {
        1
    }
}
