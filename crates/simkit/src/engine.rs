//! The discrete-event engine.
//!
//! [`Sim`] owns a pending-event set and a user-supplied *world* — the
//! mutable state the events act upon. Events come in two flavours: a
//! boxed `FnOnce(&mut W, &mut Scheduler<W>)` for arbitrary captured
//! state, and an allocation-free *raw* form — a plain function pointer
//! plus one `u64` payload — for the hot paths that only need to name a
//! host index. Handlers stage follow-up events on the [`Scheduler`],
//! which the engine merges into the queue when the handler returns.
//!
//! The pending set is one `std` [`BinaryHeap`] keyed on `(time, seq)`,
//! where `seq` is a counter assigned as each event is enqueued. Both a
//! raw event and a boxed closure ride in the heap entry itself, so
//! there is no side table to index. Two events at the same timestamp therefore
//! execute in the order they were scheduled, and the queue always pops
//! the strict minimum of `(time, seq)`, which makes every simulation
//! run fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The type of a boxed event handler.
///
/// The first argument is the simulation world, the second a
/// [`Scheduler`] for staging follow-up events.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Scheduler<W>)>;

/// The type of a *raw* event handler: a plain function pointer taking
/// the world, the scheduler, and the `u64` payload captured when the
/// event was scheduled.
///
/// Raw events cost no allocation to schedule — the function pointer
/// and payload are stored inline in the heap entry — so the per-event
/// hot paths (software interrupts, application wakeups, timer
/// firings) should prefer them over boxed closures.
pub type RawEventFn<W> = fn(&mut W, &mut Scheduler<W>, u64);

/// The type of a post-event observer (see [`Sim::set_observer`]).
///
/// Called after every executed event with the world, the event's
/// timestamp, and its label. Observers get a shared borrow only: they
/// can check invariants but never perturb the simulation.
pub type ObserverFn<W> = Box<dyn FnMut(&W, SimTime, &'static str)>;

/// What runs when an event comes due.
enum Payload<W> {
    /// A function pointer plus its payload: no allocation.
    Raw(RawEventFn<W>, u64),
    /// A boxed closure.
    Boxed(EventFn<W>),
}

/// A pending event in the heap.
struct Event<W> {
    at: SimTime,
    seq: u64,
    label: &'static str,
    payload: Payload<W>,
}

// Ordered on `(at, seq)` alone, reversed so that the max-heap pops the
// earliest event first and breaks equal times FIFO. `seq` is unique,
// so no two pending events compare equal.
impl<W> Ord for Event<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
impl<W> PartialOrd for Event<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> PartialEq for Event<W> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<W> Eq for Event<W> {}

/// Panics when an event named `label` is scheduled before `now`.
fn check_future(now: SimTime, at: SimTime, label: &'static str) {
    assert!(
        at >= now,
        "event '{label}' scheduled into the past: {at:?} < now {now:?}"
    );
}

/// Staging area handed to event handlers for scheduling follow-up work.
///
/// Times passed to [`Scheduler::schedule_at`] must not be earlier than
/// the current simulation time; scheduling into the past is a logic
/// error and panics, since it would silently corrupt causality.
///
/// The staging buffer is owned by the [`Sim`] and lent to each handler
/// in turn, so steady-state event dispatch allocates nothing for it.
pub struct Scheduler<W> {
    now: SimTime,
    staged: Vec<(SimTime, &'static str, Payload<W>)>,
}

impl<W> Scheduler<W> {
    /// Current simulation time (the timestamp of the running event).
    #[inline]
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Stages an event to run `delay` after the current time.
    pub fn schedule<F>(&mut self, delay: SimTime, label: &'static str, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    {
        self.schedule_at(self.now + delay, label, f);
    }

    /// Stages an event to run at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at<F>(&mut self, at: SimTime, label: &'static str, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    {
        check_future(self.now, at, label);
        self.staged.push((at, label, Payload::Boxed(Box::new(f))));
    }

    /// Stages a raw (allocation-free) event to run `delay` after the
    /// current time. `data` is passed back to `f` when it fires.
    pub fn schedule_raw(
        &mut self,
        delay: SimTime,
        label: &'static str,
        f: RawEventFn<W>,
        data: u64,
    ) {
        self.schedule_raw_at(self.now + delay, label, f, data);
    }

    /// Stages a raw (allocation-free) event at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_raw_at(
        &mut self,
        at: SimTime,
        label: &'static str,
        f: RawEventFn<W>,
        data: u64,
    ) {
        check_future(self.now, at, label);
        self.staged.push((at, label, Payload::Raw(f, data)));
    }
}

/// The simulation: an event queue plus the world `W` it drives.
///
/// # Examples
///
/// ```
/// use simkit::{Sim, SimTime};
///
/// let mut sim = Sim::new(0u32);
/// sim.schedule(SimTime::from_us(1), "tick", |w: &mut u32, s| {
///     *w += 1;
///     // Events may schedule further events.
///     s.schedule(SimTime::from_us(1), "tock", |w: &mut u32, _| *w += 10);
/// });
/// sim.run();
/// assert_eq!(sim.world, 11);
/// assert_eq!(sim.now(), SimTime::from_us(2));
/// ```
pub struct Sim<W> {
    /// The simulation world, freely accessible between runs.
    pub world: W,
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Event<W>>,
    /// Reused staging buffer lent to each handler's [`Scheduler`].
    staged_pool: Vec<(SimTime, &'static str, Payload<W>)>,
    executed: u64,
    observer: Option<ObserverFn<W>>,
}

impl<W> Sim<W> {
    /// Creates a simulation at time zero over the given world.
    #[must_use]
    pub fn new(world: W) -> Self {
        Sim {
            world,
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            staged_pool: Vec::new(),
            executed: 0,
            observer: None,
        }
    }

    /// Installs an observer called after every executed event with
    /// `(world, event_time, event_label)`.
    ///
    /// Observation is strictly read-only and fires outside the
    /// handler, so it cannot change event order, timing, or world
    /// state — the runtime invariant engine hooks in here. With no
    /// observer installed (the default) the per-event cost is a
    /// single `Option` check.
    pub fn set_observer(&mut self, obs: ObserverFn<W>) {
        self.observer = Some(obs);
    }

    /// Current simulation time.
    #[inline]
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    #[must_use]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule<F>(&mut self, delay: SimTime, label: &'static str, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    {
        self.schedule_at(self.now + delay, label, f);
    }

    /// Schedules an event at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at<F>(&mut self, at: SimTime, label: &'static str, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    {
        check_future(self.now, at, label);
        self.push(at, label, Payload::Boxed(Box::new(f)));
    }

    /// Schedules a raw (allocation-free) event `delay` after the
    /// current time. `data` is passed back to `f` when it fires.
    pub fn schedule_raw(
        &mut self,
        delay: SimTime,
        label: &'static str,
        f: RawEventFn<W>,
        data: u64,
    ) {
        self.schedule_raw_at(self.now + delay, label, f, data);
    }

    /// Schedules a raw (allocation-free) event at the absolute time
    /// `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_raw_at(
        &mut self,
        at: SimTime,
        label: &'static str,
        f: RawEventFn<W>,
        data: u64,
    ) {
        check_future(self.now, at, label);
        self.push(at, label, Payload::Raw(f, data));
    }

    /// Enqueues an event with the next sequence number.
    #[inline]
    fn push(&mut self, at: SimTime, label: &'static str, payload: Payload<W>) {
        self.queue.push(Event {
            at,
            seq: self.seq,
            label,
            payload,
        });
        self.seq += 1;
    }

    /// Executes the next pending event, if any.
    ///
    /// Returns `true` if an event ran, `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some(Event {
            at, label, payload, ..
        }) = self.queue.pop()
        else {
            return false;
        };
        debug_assert!(at >= self.now, "event violates causality");
        self.now = at;
        self.executed += 1;
        let mut sched = Scheduler {
            now: at,
            staged: core::mem::take(&mut self.staged_pool),
        };
        match payload {
            Payload::Raw(f, data) => f(&mut self.world, &mut sched, data),
            Payload::Boxed(f) => f(&mut self.world, &mut sched),
        }
        // Staging order is `seq` order: follow-ups keep the FIFO
        // tie-break in the order the handler scheduled them.
        let mut staged = sched.staged;
        for (at, label, payload) in staged.drain(..) {
            self.push(at, label, payload);
        }
        self.staged_pool = staged;
        if let Some(obs) = self.observer.as_mut() {
            obs(&self.world, self.now, label);
        }
        true
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Executes pending events while `keep_going` returns `true`,
    /// checking the predicate **after** every executed event.
    ///
    /// Returns `true` when the predicate stopped the run (it returned
    /// `false` after some event), and `false` when the queue drained
    /// first — including a queue that was empty on entry, in which
    /// case zero events run and the predicate is never called. When
    /// the queue is non-empty at least one event executes, even if
    /// `keep_going` would already have returned `false` beforehand.
    pub fn run_while<P: FnMut(&W) -> bool>(&mut self, mut keep_going: P) -> bool {
        loop {
            if !self.step() {
                return false;
            }
            if !keep_going(&self.world) {
                return true;
            }
        }
    }
}

/// Compile-time witness that a world type can be fanned out across
/// sweep worker threads.
///
/// A [`Sim`] itself is never sent anywhere — its event queue holds
/// non-`Send` boxed closures, so each worker builds and runs its own
/// simulation locally. The only requirement parallel sweeps place on a
/// simulation is therefore that the *world* (and whatever results are
/// extracted from it) crosses threads: assert it once, next to the
/// world type, as `const _: () = simkit::assert_world_send::<MyWorld>();`.
pub const fn assert_world_send<W: Send>() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(Vec::new());
        sim.schedule(SimTime::from_us(3), "c", |w: &mut Vec<u32>, _| w.push(3));
        sim.schedule(SimTime::from_us(1), "a", |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule(SimTime::from_us(2), "b", |w: &mut Vec<u32>, _| w.push(2));
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn equal_timestamps_run_fifo() {
        let mut sim = Sim::new(Vec::new());
        for i in 0..10u32 {
            sim.schedule(SimTime::from_us(7), "same", move |w: &mut Vec<u32>, _| {
                w.push(i)
            });
        }
        sim.run();
        assert_eq!(sim.world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut sim = Sim::new(0u64);
        fn tick(w: &mut u64, s: &mut Scheduler<u64>) {
            *w += 1;
            if *w < 100 {
                s.schedule(SimTime::from_us(1), "tick", tick);
            }
        }
        sim.schedule(SimTime::ZERO, "tick", tick);
        sim.run();
        assert_eq!(sim.world, 100);
        assert_eq!(sim.now(), SimTime::from_us(99));
    }

    #[test]
    fn run_while_predicate() {
        let mut sim = Sim::new(0u32);
        for _ in 0..10 {
            sim.schedule(SimTime::from_us(1), "inc", |w: &mut u32, _| *w += 1);
        }
        let satisfied = sim.run_while(|w| *w < 4);
        assert!(satisfied);
        assert_eq!(sim.world, 4);
        // The predicate is consulted only after an event executes: one
        // that is already false still lets exactly one event run.
        let satisfied = sim.run_while(|w| *w < 1);
        assert!(satisfied);
        assert_eq!(sim.world, 5);
        let exhausted = sim.run_while(|w| *w < 1000);
        assert!(!exhausted);
        assert_eq!(sim.world, 10);
    }

    #[test]
    fn run_while_on_an_empty_queue_reports_drained() {
        // Zero events ran, so the result must be "queue drained", not
        // "predicate satisfied" — and the predicate is never called.
        let mut sim = Sim::new(0u32);
        let drained = !sim.run_while(|_| panic!("predicate called with no events"));
        assert!(drained);
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule(SimTime::from_us(5), "later", |_: &mut (), s| {
            s.schedule_at(SimTime::from_us(1), "past", |_, _| {});
        });
        sim.run();
    }

    #[test]
    fn step_on_empty_queue_returns_false() {
        let mut sim = Sim::new(());
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn observer_sees_every_event_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;

        type Seen = Vec<(u32, u64, &'static str)>;
        let seen: Rc<RefCell<Seen>> = Rc::default();
        let log = Rc::clone(&seen);
        let mut sim = Sim::new(0u32);
        sim.set_observer(Box::new(move |w, at, label| {
            log.borrow_mut().push((*w, at.as_ns(), label));
        }));
        sim.schedule(SimTime::from_us(2), "b", |w: &mut u32, _| *w += 10);
        sim.schedule(SimTime::from_us(1), "a", |w: &mut u32, _| *w += 1);
        sim.run();
        // The observer runs after each handler, with its effects
        // already applied, in execution order.
        assert_eq!(*seen.borrow(), vec![(1, 1000, "a"), (11, 2000, "b")]);
    }

    #[test]
    fn raw_and_boxed_events_share_one_fifo_order() {
        fn push_raw(w: &mut Vec<u32>, _: &mut Scheduler<Vec<u32>>, data: u64) {
            w.push(data as u32);
        }
        let mut sim = Sim::new(Vec::new());
        let t = SimTime::from_us(5);
        sim.schedule_raw_at(t, "raw0", push_raw, 0);
        sim.schedule_at(t, "boxed1", |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_raw_at(t, "raw2", push_raw, 2);
        sim.schedule_at(t, "boxed3", |w: &mut Vec<u32>, _| w.push(3));
        sim.run();
        assert_eq!(sim.world, vec![0, 1, 2, 3]);
    }

    #[test]
    fn raw_events_can_stage_raw_followups() {
        fn tick(w: &mut u64, s: &mut Scheduler<u64>, data: u64) {
            *w += data;
            if *w < 10 {
                s.schedule_raw(SimTime::from_us(1), "tick", tick, data);
            }
        }
        let mut sim = Sim::new(0u64);
        sim.schedule_raw(SimTime::ZERO, "tick", tick, 2);
        sim.run();
        assert_eq!(sim.world, 10);
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn far_future_events_stay_ordered() {
        // A follow-up half a second out, staged from a microsecond-scale
        // event, still runs before a later pre-scheduled event.
        let mut sim = Sim::new(Vec::new());
        sim.schedule_at(SimTime::from_us(1), "near", |w: &mut Vec<u64>, s| {
            w.push(1);
            s.schedule_at(SimTime::from_ns(500_000_000), "rto", |w, _| w.push(2));
        });
        sim.schedule_at(
            SimTime::from_ns(500_000_040),
            "after",
            |w: &mut Vec<u64>, _| w.push(3),
        );
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ns(500_000_040));
    }

    #[test]
    fn clustered_bursts_stay_ordered() {
        // Hundreds of events in seven clusters a millisecond apart,
        // scheduled out of time order.
        let mut sim = Sim::new(Vec::new());
        let mut expect = Vec::new();
        for i in 0..500u64 {
            let at = SimTime::from_ns((i % 7) * 1_000_000 + i * 13);
            sim.schedule_at(at, "e", move |w: &mut Vec<(u64, u64)>, _| {
                w.push((at.as_ns(), i))
            });
            expect.push((at.as_ns(), i));
        }
        sim.run();
        // Sort by (time, insertion seq) — the engine's contract.
        expect.sort_by_key(|&(at, i)| (at, i));
        assert_eq!(sim.world, expect);
    }
}
