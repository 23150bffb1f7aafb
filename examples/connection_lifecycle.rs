//! The full TCP connection lifecycle over the simulated stack:
//! three-way handshake with real options (MSS + RFC 1146 Alternate
//! Checksum negotiation), data transfer, and the FIN teardown with
//! TIME_WAIT — driven at the kernel level so every packet is visible.
//!
//! ```sh
//! cargo run --release --example connection_lifecycle
//! ```

use simkit::SimTime;
use tcp_atm_latency::decstation::CostModel;
use tcp_atm_latency::mbuf::Chain;
use tcp_atm_latency::tcpip::{CaptureDriver, Kernel, PcbKey, StackConfig, TcpIpHeader};

fn shuttle(
    label: &str,
    from: &mut CaptureDriver,
    to: &mut Kernel,
    to_drv: &mut CaptureDriver,
    t: SimTime,
) {
    let pkts: Vec<_> = from.packets.drain(..).collect();
    for p in pkts {
        if let Some(h) = TcpIpHeader::decode(&p[..40.min(p.len())]) {
            println!(
                "  {label}: {} bytes  seq={} ack={} flags={:#04x}",
                p.len(),
                h.seq,
                h.ack,
                h.flags
            );
        }
        let (chain, _) = Chain::from_user_data(&to.pool, &p, p.len() > 1024);
        if let Some(at) = to.enqueue_ip(t, chain) {
            let _ = to.ipintr(at, to_drv);
        }
    }
}

fn main() {
    let cfg = StackConfig::default();
    let costs = CostModel::calibrated();
    let mut client = Kernel::new(cfg, costs.clone());
    let mut server = Kernel::new(cfg, costs);
    let mut dc = CaptureDriver::new(9188);
    let mut ds = CaptureDriver::new(9188);

    println!("1. server listens on 10.0.0.2:4242");
    let _listener = server.listen([10, 0, 0, 2], 4242);

    println!("2. client connects (SYN carries the MSS offer):");
    let key = PcbKey {
        laddr: [10, 0, 0, 1],
        lport: 2000,
        faddr: [10, 0, 0, 2],
        fport: 4242,
    };
    let sc = client.connect(SimTime::ZERO, key, &mut dc);
    shuttle(
        "   SYN    ->",
        &mut dc,
        &mut server,
        &mut ds,
        SimTime::from_ms(1),
    );
    shuttle(
        "   SYN-ACK<-",
        &mut ds,
        &mut client,
        &mut dc,
        SimTime::from_ms(2),
    );
    shuttle(
        "   ACK    ->",
        &mut dc,
        &mut server,
        &mut ds,
        SimTime::from_ms(3),
    );
    let ss = 1;
    println!(
        "   established: client={} server={}  negotiated MSS={}",
        client.is_established(sc),
        server.is_established(ss),
        client.tcb(sc).mss
    );

    println!("3. transfer 5000 bytes:");
    let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
    let _ = client.syscall_write(SimTime::from_ms(4), sc, &data, &mut dc);
    shuttle(
        "   DATA   ->",
        &mut dc,
        &mut server,
        &mut ds,
        SimTime::from_ms(5),
    );
    let mut got = Vec::new();
    let _ = server.syscall_read(SimTime::from_ms(6), ss, 5000, &mut got, &mut ds);
    println!(
        "   server read {} bytes, intact: {}",
        got.len(),
        got == data
    );
    // Drain the delayed ACK so the client's send buffer is empty.
    let t = SimTime::from_secs(1);
    let _ = server.check_timers(t, &mut ds);
    shuttle(
        "   ACK    <-",
        &mut ds,
        &mut client,
        &mut dc,
        t + SimTime::from_ms(1),
    );

    println!("4. client closes (FIN handshake):");
    let t = SimTime::from_secs(2);
    client.close(t, sc, &mut dc);
    shuttle(
        "   FIN    ->",
        &mut dc,
        &mut server,
        &mut ds,
        t + SimTime::from_ms(1),
    );
    shuttle(
        "   ACK    <-",
        &mut ds,
        &mut client,
        &mut dc,
        t + SimTime::from_ms(2),
    );
    server.close(t + SimTime::from_ms(3), ss, &mut ds);
    shuttle(
        "   FIN    <-",
        &mut ds,
        &mut client,
        &mut dc,
        t + SimTime::from_ms(4),
    );
    shuttle(
        "   ACK    ->",
        &mut dc,
        &mut server,
        &mut ds,
        t + SimTime::from_ms(5),
    );
    println!(
        "   states: client={:?} server closed={}",
        client.tcb(sc).state,
        server.is_closed(ss)
    );
    let dl = client.next_deadline().expect("TIME_WAIT timer");
    let _ = client.check_timers(dl + SimTime::from_us(1), &mut dc);
    println!("   after 2MSL: client closed={}", client.is_closed(sc));
}
