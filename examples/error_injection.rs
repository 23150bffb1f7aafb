//! The §4.2.1 error-detection layering study.
//!
//! Injects the paper's error classes and reports which layer catches
//! each: link bit errors and cell loss are caught below TCP (HEC and
//! the AAL3/4 CRC-10/sequence numbers), while controller corruption —
//! bits flipped between controller and host memory, past every link
//! CRC — is caught only by the TCP checksum, or by nothing at all
//! when the checksum has been eliminated.
//!
//! ```sh
//! cargo run --release --example error_injection
//! ```

use tcp_atm_latency::faults::DetectionReport;
use tcp_atm_latency::{ChecksumMode, Experiment, NetKind};

fn main() {
    // The 1400-byte RPC over ATM, with one error class injected.
    let rpc = |set: fn(&mut Experiment)| {
        let mut e = Experiment::rpc(NetKind::Atm, 1400);
        e.iterations = 150;
        set(&mut e);
        e
    };
    println!("fault class                     | injected  HEC  AAL  TCP  app | rexmit done");
    let row = |name: &str, e: Experiment, seed: u64| {
        let r = DetectionReport::from_run(&e.plan().seed(seed).execute());
        println!(
            "{name:<31} | {:>8} {:>4} {:>4} {:>4} {:>4} | {:>6} {:>4}",
            r.injected_link,
            r.caught_hec,
            r.caught_aal,
            r.caught_tcp,
            r.reached_app,
            r.retransmissions,
            r.iterations
        );
    };

    row("clean fiber (baseline)", rpc(|_| {}), 1);
    row("fiber BER 1e-6", rpc(|e| e.ber = 1e-6), 2);
    row("fiber BER 1e-5", rpc(|e| e.ber = 1e-5), 3);
    row("fiber BER 1e-4", rpc(|e| e.ber = 1e-4), 4);
    row("cell loss 0.1%", rpc(|e| e.cell_loss = 0.001), 5);
    row("cell loss 0.5%", rpc(|e| e.cell_loss = 0.005), 6);
    row(
        "controller corrupt., cksum ON",
        rpc(|e| e.controller_corrupt = 0.03),
        7,
    );
    row(
        "controller corrupt., cksum OFF",
        rpc(|e| {
            e.controller_corrupt = 0.03;
            e.cfg.checksum = ChecksumMode::None;
        }),
        8,
    );

    println!();
    println!("Reading: with the TCP checksum eliminated (last row), controller");
    println!("corruption reaches the application undetected — the one §4.2.1");
    println!("error class no link-level CRC can catch. Everything the fiber does");
    println!("is caught by AAL3/4, and TCP recovers by retransmission.");
}
