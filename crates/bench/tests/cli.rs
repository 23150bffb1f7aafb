//! `repro` refuses a command line it cannot run: an unknown
//! subcommand or flag, or a zero count. Each refusal is one line on
//! stderr and exit code 2, never a panic and never a silent exit 0
//! (which would let a typo in a scripted run pass).

use std::process::Command;

#[test]
fn bad_command_lines_exit_2_with_one_line() {
    let cases: [(&[&str], &str); 7] = [
        // The refusal names every known subcommand, studies last.
        (
            &["extra", "--quick"],
            "unknown subcommand `extra` (known: all extras table1",
        ),
        (&["tablex"], "unknown subcommand `tablex` (known: "),
        (&["tablex"], " verify invariants dc tails hedge cc)"),
        (&["table1", "--reps", "0"], "--reps must be at least 1"),
        (
            &["table1", "--quick", "--iterations", "0"],
            "--iterations must be at least 1",
        ),
        (&["table1", "--jobs", "0"], "--jobs must be at least 1"),
        (&["table1", "--json", "x"], "unknown flag --json"),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(stderr.contains(message), "{args:?}:\n{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}
