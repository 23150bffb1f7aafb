//! `capdiff` — per-hop latency between two capture files.
//!
//! ```text
//! capdiff [--data-only] [--hist] A.pcap B.pcap
//! ```
//!
//! Reads two captures (pcap or pcapng, auto-detected), matches TCP
//! segments across them by (src, dst, sport, dport, seq, ack) with
//! FIFO ordering for duplicates (RFC 1242 same-packet latency), and
//! prints the distribution of `t_B − t_A`: min / median / p99 / max,
//! plus a log2 histogram with `--hist`. `--data-only` ignores pure
//! ACKs on both sides.

#![forbid(unsafe_code)]

use simcap::analyze::{hop_between, summary_line};
use simcap::pcapng::read_any;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: capdiff [--data-only] [--hist] A.pcap B.pcap");
    eprintln!("  A, B: pcap or pcapng capture files (auto-detected)");
    eprintln!("  latency is reported as t_B - t_A per matched TCP segment");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut data_only = false;
    let mut hist = false;
    let mut files = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--data-only" => data_only = true,
            "--hist" => hist = true,
            "--help" | "-h" => return usage(),
            f if !f.starts_with('-') => files.push(f.to_string()),
            _ => return usage(),
        }
    }
    if files.len() != 2 {
        return usage();
    }
    let mut caps = Vec::new();
    for f in &files {
        let data = match std::fs::read(f) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("capdiff: {f}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match read_any(&data) {
            Ok(c) => caps.push(c),
            Err(e) => {
                eprintln!("capdiff: {f}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let r = hop_between(&caps[0], &caps[1], data_only);
    println!("A: {} ({} records)", files[0], caps[0].records.len());
    println!("B: {} ({} records)", files[1], caps[1].records.len());
    println!("{}", summary_line(&r));
    if r.unmatched_a + r.unmatched_b + r.skipped_a + r.skipped_b > 0 {
        println!(
            "unmatched: {} in A, {} in B; non-TCP records skipped: {} in A, {} in B",
            r.unmatched_a, r.unmatched_b, r.skipped_a, r.skipped_b
        );
    }
    if hist {
        for (lo, hi, count) in r.dist.histogram() {
            #[allow(clippy::cast_precision_loss)]
            let bar = "#".repeat(1 + count * 40 / r.matched.max(1));
            println!("{:>10} – {:<10} ns  {count:>6}  {bar}", lo, hi);
        }
    }
    if r.matched == 0 {
        eprintln!("capdiff: no segments matched between the captures");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
