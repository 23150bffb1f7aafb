//! The host event path both worlds run: the software interrupt, the
//! TCP timers, and the flush after each kernel interaction. A world
//! implements [`Hosts`]; the kernel keeps the one outstanding timer
//! event ([`Kernel::timer_event`]).

use simkit::{RawEventFn, Scheduler, SimTime};
use tcpip::{Kernel, SockId, TxDriver};

/// A world's hosts, indexed by the `h` every event here carries.
pub trait Hosts: Sized {
    /// Host `h`'s kernel and NIC.
    fn stack(&mut self, h: usize) -> (&mut Kernel, &mut dyn TxDriver);
    /// Schedules the arrival of every datagram host `h` staged.
    fn send_staged(&mut self, s: &mut Scheduler<'_, Self>, h: usize);
    /// The event (label, handler, payload) that runs `sock`'s process
    /// once woken; `abort` when a timer's connection abort woke it.
    fn wakeup(h: usize, sock: SockId, abort: bool) -> (&'static str, RawEventFn<Self>, u64);
    /// When host `h`, if paused at `now`, resumes.
    fn paused_until(&self, _h: usize, _now: SimTime) -> Option<SimTime> {
        None
    }
}

/// Schedules host `h`'s staged deliveries and (re)arms its TCP timer.
pub fn flush<W: Hosts>(w: &mut W, s: &mut Scheduler<'_, W>, h: usize) {
    w.send_staged(s, h);
    if let Some(at) = w.stack(h).0.timer_event(s.now()) {
        s.schedule_raw_at(at, "tcp-timer", on_timer::<W>, h as u64);
    }
}

/// Schedules host `h`'s software interrupt at `at`.
pub fn softintr_at<W: Hosts>(s: &mut Scheduler<'_, W>, at: SimTime, h: usize) {
    s.schedule_raw_at(at, "softintr", on_softintr::<W>, h as u64);
}

/// The software interrupt: IP/TCP input, responses, wakeups.
fn on_softintr<W: Hosts>(w: &mut W, s: &mut Scheduler<'_, W>, h: u64) {
    let (h, now) = (h as usize, s.now());
    if let Some(resume) = w.paused_until(h, now) {
        return softintr_at(s, resume, h);
    }
    let (kernel, nic) = w.stack(h);
    let _ = kernel.ipintr(now, nic);
    flush(w, s, h);
    for (sock, run_at) in w.stack(h).0.drain_wakeups() {
        let (label, f, data) = W::wakeup(h, sock, false);
        s.schedule_raw_at(run_at.max(now), label, f, data);
    }
}

/// A TCP timer event.
fn on_timer<W: Hosts>(w: &mut W, s: &mut Scheduler<'_, W>, h: u64) {
    let (h, now) = (h as usize, s.now());
    if let Some(resume) = w.paused_until(h, now) {
        return s.schedule_raw_at(resume, "tcp-timer", on_timer::<W>, h as u64);
    }
    let (kernel, nic) = w.stack(h);
    let _ = kernel.check_timers(now, nic);
    flush(w, s, h);
    // A timer may have aborted a connection (retransmit limit) and
    // woken the blocked process to observe the error; without this
    // wakeup an aborted run would hang instead of terminating.
    for (sock, run_at) in w.stack(h).0.drain_timer_wakeups() {
        let (label, f, data) = W::wakeup(h, sock, true);
        s.schedule_raw_at(run_at.max(now), label, f, data);
    }
}
