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
    let cases: [(&[&str], String); 18] = [
        // The refusal names every known subcommand, studies last.
        (
            &["extra", "--quick"],
            "unknown subcommand `extra` (known: all extras table1".into(),
        ),
        (&["tablex"], "unknown subcommand `tablex` (known: ".into()),
        (&["tablex"], " verify invariants dc tails hedge cc)".into()),
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
        // A flag no selected subcommand reads would change nothing.
        (
            &[
                "dc",
                "--quick",
                "--iterations",
                "7",
                "--seed",
                "9",
                "--reps",
                "3",
            ],
            format!("--iterations {unread}"),
        ),
        (
            &["dc", "--quick", "--seed", "9"],
            format!("--seed {unread}"),
        ),
        (
            &["dc", "--quick", "--reps", "3"],
            format!("--reps {unread}"),
        ),
        // The clean two-host world draws nothing from the seed.
        (
            &["udp", "--quick", "--seed", "9"],
            format!("--seed {unread}"),
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
            &["pcb", "trace", "--sweep-json", "x.json"],
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
    // Each table is a section of one study, found by its entry's name.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "table2", "table3", "table4", "table6", "table7"])
        .args(["faults", "--quick", "--iterations", "20", "--jobs", "2"])
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
        "Table 6: ",
        "Table 7: ",
        "loss-recovery latency",
    ];
    let at: Vec<Option<usize>> = headings.iter().map(|h| stdout.find(h)).collect();
    assert!(
        at.iter().all(Option::is_some) && at.is_sorted(),
        "{headings:?} in order:\n{stdout}"
    );
}
