//! The host event path every world runs: delivery of each staged
//! datagram, its arrival (the hardware interrupt), the software
//! interrupt, the TCP timers, the flush after each kernel interaction,
//! and the one pause rule. A world implements [`Hosts`] and answers
//! only where an ATM train lands ([`Hosts::route`]), which event runs
//! a woken process ([`Hosts::wakeup`]) and what it notes when a
//! datagram lands ([`Hosts::landed`]); the kernel keeps the one
//! outstanding timer event ([`Kernel::timer_event`]).

use faultkit::PauseSchedule;
use simkit::{Parked, RawEventFn, Scheduler, SimTime};
use tcpip::{Kernel, SockId};

use crate::nic::{atm_receive, ether_receive, AtmDelivery, NicMut, Train};

/// A datagram as the receiving adapter will see it.
pub enum Arrival {
    /// Per-cell (arrival, link fault) of one ATM cell train.
    Atm(Train),
    /// One Ethernet frame's bytes.
    Ether(Vec<u8>),
}

/// Each datagram on the wire and its source host, parked until its
/// arrival event, which carries `pack(dst, slot)`, takes it.
pub type InFlight = Parked<(usize, Arrival)>;

/// An event to schedule: label, handler, payload.
pub type RawEvent<W> = (&'static str, RawEventFn<W>, u64);

/// Packs a host index and a second index below 2^32 into a payload.
pub fn pack(h: usize, low: usize) -> u64 {
    ((h as u64) << 32) | low as u64
}

/// The host index and the second index [`pack`] packed.
pub fn unpack(data: u64) -> (usize, usize) {
    ((data >> 32) as usize, (data & 0xffff_ffff) as usize)
}

/// A world's hosts, indexed by the `h` every event here carries.
pub trait Hosts: Sized {
    /// Host `h`'s kernel and NIC.
    fn stack(&mut self, h: usize) -> (&mut Kernel, NicMut<'_>);
    /// The world's datagrams on the wire.
    fn in_flight(&mut self) -> &mut InFlight;
    /// Host `h`'s pause windows, if it has any.
    fn pause(&self, h: usize) -> Option<PauseSchedule>;
    /// Where the cell train host `h` sent to `dst` lands: when its last
    /// cell reaches `dst`'s adapter, and the train as it arrives there.
    /// `None` when no cell arrives; TCP's retransmit timer recovers it.
    fn route(&mut self, h: usize, dst: usize, train: Train) -> Option<(SimTime, Train)>;
    /// The event (label, handler, payload) that runs `sock`'s process
    /// once woken; `abort` when a timer's connection abort woke it.
    fn wakeup(h: usize, sock: SockId, abort: bool) -> RawEvent<Self>;
    /// Notes, before its interrupt runs, that a datagram from `src`
    /// landed at host `h`.
    fn landed(&mut self, _h: usize, _src: usize, _now: SimTime) {}
}

/// The one pause rule: while host `h` is paused, like a GC or
/// scheduler stall, the event that targets it waits for the window's
/// end, which lies outside the window (faultkit invariant), so pauses
/// delay and never hang. Returns whether `ev` was deferred.
pub fn deferred<W: Hosts>(w: &W, s: &mut Scheduler<'_, W>, h: usize, ev: RawEvent<W>) -> bool {
    let Some(resume) = w.pause(h).and_then(|p| p.resume_after(s.now())) else {
        return false;
    };
    s.schedule_raw_at(resume, ev.0, ev.1, ev.2);
    true
}

/// Parks every datagram host `h` staged, schedules its arrival, and
/// (re)arms the host's TCP timer. The drained `staged` list goes back
/// to the NIC, its capacity kept.
pub fn flush<W: Hosts>(w: &mut W, s: &mut Scheduler<'_, W>, h: usize) {
    let now = s.now();
    match w.stack(h).1 {
        NicMut::Atm(nic) if !nic.staged.is_empty() => {
            let mut staged = std::mem::take(&mut nic.staged);
            for AtmDelivery { dst, train } in staged.drain(..) {
                if let Some((at, train)) = w.route(h, dst, train) {
                    let slot = w.in_flight().park((h, Arrival::Atm(train))) as usize;
                    s.schedule_raw_at(at.max(now), "atm-arrival", on_arrival, pack(dst, slot));
                }
            }
            if let NicMut::Atm(nic) = w.stack(h).1 {
                nic.staged = staged;
            }
        }
        NicMut::Ether(nic) if !nic.staged.is_empty() => {
            let mut staged = std::mem::take(&mut nic.staged);
            for d in staged.drain(..) {
                let slot = w.in_flight().park((h, Arrival::Ether(d.frame))) as usize;
                let at = d.arrival.max(now);
                s.schedule_raw_at(at, "eth-arrival", on_arrival, pack(d.dst, slot));
            }
            if let NicMut::Ether(nic) = w.stack(h).1 {
                nic.staged = staged;
            }
        }
        _ => {}
    }
    if let Some(at) = w.stack(h).0.timer_event(now) {
        s.schedule_raw_at(at, "tcp-timer", on_timer::<W>, h as u64);
    }
}

/// Datagram arrival at the host and slot packed in `data`: the
/// receiving host's hardware interrupt. A paused host's adapter holds
/// the interrupt until it resumes; the datagram stays parked.
fn on_arrival<W: Hosts>(w: &mut W, s: &mut Scheduler<'_, W>, data: u64) {
    let ((h, slot), now) = (unpack(data), s.now());
    if deferred(w, s, h, ("paused-arrival", on_arrival, data)) {
        return;
    }
    let (src, arrival) = w.in_flight().take(slot as u64);
    w.landed(h, src, now);
    let softintr = match (arrival, w.stack(h)) {
        (Arrival::Atm(train), (kernel, NicMut::Atm(nic))) => atm_receive(kernel, nic, now, train),
        (Arrival::Ether(frame), (kernel, NicMut::Ether(nic))) => {
            ether_receive(kernel, nic, now, &frame)
        }
        _ => panic!("delivery to a host on another medium"),
    };
    if let Some(at) = softintr {
        softintr_at(s, at, h);
    }
}

/// Schedules host `h`'s software interrupt at `at`.
pub fn softintr_at<W: Hosts>(s: &mut Scheduler<'_, W>, at: SimTime, h: usize) {
    s.schedule_raw_at(at, "softintr", on_softintr::<W>, h as u64);
}

/// The software interrupt: IP/TCP input, responses, wakeups.
fn on_softintr<W: Hosts>(w: &mut W, s: &mut Scheduler<'_, W>, data: u64) {
    let (h, now) = (data as usize, s.now());
    if deferred(w, s, h, ("paused-softintr", on_softintr, data)) {
        return;
    }
    let (kernel, nic) = w.stack(h);
    let _ = kernel.ipintr(now, nic.driver());
    flush(w, s, h);
    for (sock, run_at) in w.stack(h).0.drain_wakeups() {
        let (label, f, data) = W::wakeup(h, sock, false);
        s.schedule_raw_at(run_at.max(now), label, f, data);
    }
}

/// A TCP timer event.
fn on_timer<W: Hosts>(w: &mut W, s: &mut Scheduler<'_, W>, data: u64) {
    let (h, now) = (data as usize, s.now());
    if deferred(w, s, h, ("paused-timer", on_timer, data)) {
        return;
    }
    let (kernel, nic) = w.stack(h);
    let _ = kernel.check_timers(now, nic.driver());
    flush(w, s, h);
    // A timer may have aborted a connection (retransmit limit) and
    // woken the blocked process to observe the error; without this
    // wakeup an aborted run would hang instead of terminating.
    for (sock, run_at) in w.stack(h).0.drain_timer_wakeups() {
        let (label, f, data) = W::wakeup(h, sock, true);
        s.schedule_raw_at(run_at.max(now), label, f, data);
    }
}
