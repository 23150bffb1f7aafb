//! `repro` refuses a command line it cannot run: an unknown
//! subcommand or flag, a zero count, a flag that no selected
//! subcommand reads, or a `--sweep-json` with no report or two. Each
//! refusal is one line on stderr and exit code 2, never a panic and
//! never a silent exit 0 (which would let a typo in a scripted run
//! pass). A command line it can run runs every subcommand it names.

use std::process::Command;

#[test]
fn bad_command_lines_exit_2_with_one_line() {
    let unread = "is read by none of the selected subcommands";
    let cases: [(&[&str], String); 21] = [
        // The refusal names every known subcommand, studies last.
        (
            &["extra", "--quick"],
            "unknown subcommand `extra` (known: all extras table1".into(),
        ),
        (&["tablex"], "unknown subcommand `tablex` (known: ".into()),
        (&["tablex"], " verify invariants dc tails hedge cc)".into()),
        // `churn` and `trace` printed what other studies print.
        (&["churn"], "unknown subcommand `churn` (known: ".into()),
        (
            &["trace", "--quick"],
            "unknown subcommand `trace` (known: ".into(),
        ),
        (
            &["table1", "--reps", "0"],
            "--reps must be at least 1".into(),
        ),
        (
            &["table1", "--quick", "--iterations", "0"],
            "--iterations must be at least 1".into(),
        ),
        (
            &["table1", "--jobs", "0"],
            "--jobs must be at least 1".into(),
        ),
        (&["table1", "--json", "x"], "unknown flag --json".into()),
        // Every cell's seed derives from its key: there is no seed flag.
        (
            &["invariants", "--quick", "--seed", "9"],
            "unknown flag --seed".into(),
        ),
        (&["errors", "--seed", "9"], "unknown flag --seed".into()),
        // A flag no selected subcommand reads would change nothing.
        (
            &["dc", "--quick", "--iterations", "7", "--reps", "3"],
            format!("--iterations {unread}"),
        ),
        (
            &["dc", "--quick", "--reps", "3"],
            format!("--reps {unread}"),
        ),
        // The gate checks each cell's first repetition.
        (
            &["invariants", "--quick", "--reps", "2"],
            format!("--reps {unread}"),
        ),
        (
            &["table1", "--quick", "--sketch", "--bless"],
            format!("--sketch {unread}"),
        ),
        (
            &["table1", "--quick", "--bless"],
            format!("--bless {unread}"),
        ),
        (
            &["verify", "--sketch", "--iterations", "5"],
            format!("--iterations {unread}"),
        ),
        // `--sweep-json` needs exactly one report to write, and
        // `--out-dir` a report to put there.
        (
            &["dc", "--quick", "--out-dir", "x"],
            "--out-dir is read only with --sweep-json".into(),
        ),
        (
            &["pcb", "mbuf", "--sweep-json", "x.json"],
            format!("--sweep-json {unread}"),
        ),
        (
            &["table1", "faults", "--quick", "--sweep-json", "x.json"],
            "--sweep-json writes one report, but tables and faults would each write one".into(),
        ),
        (
            &["dc", "tails", "--quick", "--sweep-json", "x.json"],
            "but dc and tails would each write one".into(),
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(stderr.contains(&message), "{args:?}:\n{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn every_named_subcommand_runs_in_table_order() {
    // Named out of order: both run, `mbuf` first, as in `repro all`.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["dc", "mbuf", "--quick", "--jobs", "2"])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mbuf = stdout.find("mbuf allocate+free pair: ");
    let dc = stdout.find("server-side mean search length by strategy");
    assert!(
        mbuf.is_some() && dc.is_some() && mbuf < dc,
        "both sections, mbuf first:\n{stdout}"
    );
}

#[test]
fn every_study_entry_prints_its_section() {
    // Each table is a section of one study, each experiment beyond
    // them a section of another, found by its entry's name. Every
    // two-host study pools `--reps` repetitions.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "table2", "table3", "table4", "table5", "table6"])
        .args(["table7", "pcb", "mbuf", "predict", "errors", "faults"])
        .args(["ablation", "switch", "ethernet-errors", "udp"])
        .args([
            "--quick",
            "--iterations",
            "20",
            "--reps",
            "2",
            "--jobs",
            "2",
        ])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let headings = [
        "Table 1: ",
        "Table 2: ",
        "Table 3: ",
        "Table 4: ",
        "Table 5: ",
        "Table 6: ",
        "Table 7: ",
        "PCB linear-search cost",
        "mbuf allocate+free pair",
        "header-prediction fast path",
        "fault injection (RPC 1400 B)",
        "loss-recovery latency",
        "CPU scaling",
        "ATM switch in the path",
        "departmental Ethernet",
        "RPC echo over ATM: TCP vs UDP",
    ];
    let at: Vec<Option<usize>> = headings.iter().map(|h| stdout.find(h)).collect();
    assert!(
        at.iter().all(Option::is_some) && at.is_sorted(),
        "{headings:?} in order:\n{stdout}"
    );
    // Warm-up iterations and repetitions count in the hits and in
    // the segments alike.
    assert!(
        stdout.contains("RPC 8000 B data segments:  50.0%"),
        "{stdout}"
    );
}
