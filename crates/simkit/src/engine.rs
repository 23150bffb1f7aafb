//! The discrete-event engine.
//!
//! [`Sim`] owns a pending-event set and a user-supplied *world* — the
//! mutable state the events act upon. Every event is a plain function
//! pointer ([`RawEventFn`]) plus one `u64` payload, so scheduling one
//! allocates nothing. The payload names a host, a connection, or a
//! slot in a [`Parked`](crate::Parked) slab where the world keeps a
//! bigger value the event carries, such as a cell train. Handlers
//! schedule follow-up events through the [`Scheduler`], which lends
//! them the queue itself.
//!
//! The pending set is a 4-ary min-heap in a `Vec`, keyed by one
//! `u128`: `(time_ns << 64) | seq`, where `seq` is a counter assigned
//! as each event is scheduled. Two events at the same timestamp
//! therefore execute in the order they were scheduled, and the keys
//! are unique, so the queue always pops the strict minimum of
//! `(time, seq)`, which makes every simulation run fully
//! deterministic. Four children per node halve the depth of a binary
//! heap, and a sift compares one integer per step.

use crate::time::SimTime;

/// The type of an event handler: a plain function pointer taking the
/// world, the scheduler, and the `u64` payload captured when the event
/// was scheduled.
pub type RawEventFn<W> = fn(&mut W, &mut Scheduler<'_, W>, u64);

/// The type of a post-event observer (see [`Sim::set_observer`]).
///
/// Called after every executed event with the world, the event's
/// timestamp, and its label. Observers get a shared borrow only: they
/// can check invariants but never perturb the simulation.
pub type ObserverFn<W> = Box<dyn FnMut(&W, SimTime, &'static str)>;

/// A pending event in the heap.
struct Event<W> {
    /// `(at_ns << 64) | seq`.
    key: u128,
    label: &'static str,
    f: RawEventFn<W>,
    data: u64,
}

// Every field is `Copy` whatever `W` is; a derive would demand `W: Copy`.
impl<W> Clone for Event<W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W> Copy for Event<W> {}

impl<W> Event<W> {
    fn at(&self) -> SimTime {
        SimTime::from_ns((self.key >> 64) as u64)
    }
}

/// Children per heap node.
const ARITY: usize = 4;

/// The pending-event set: the 4-ary min-heap on `Event::key` and its
/// `seq` counter.
struct Queue<W> {
    heap: Vec<Event<W>>,
    seq: u64,
}

impl<W> Queue<W> {
    fn push(&mut self, at: SimTime, label: &'static str, f: RawEventFn<W>, data: u64) {
        let ev = Event {
            key: (u128::from(at.as_ns()) << 64) | u128::from(self.seq),
            label,
            f,
            data,
        };
        self.seq += 1;
        // Sift up: move parents down into the hole until `ev` fits.
        let mut i = self.heap.len();
        self.heap.push(ev);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key < ev.key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = ev;
    }

    fn pop(&mut self) -> Option<Event<W>> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some(last);
        };
        // Sift `last` down from the root: move the least child up
        // into the hole until `last` fits.
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            for c in first + 1..(first + ARITY).min(n) {
                if self.heap[c].key < self.heap[min].key {
                    min = c;
                }
            }
            if last.key < self.heap[min].key {
                break;
            }
            self.heap[i] = self.heap[min];
            i = min;
        }
        self.heap[i] = last;
        Some(top)
    }
}

/// The queue as a handler sees it: the current time and a borrow of
/// the engine's pending set, lent beside the world.
///
/// Times passed to [`Scheduler::schedule_raw_at`] must not be earlier
/// than the current simulation time; scheduling into the past is a
/// logic error and panics, since it would silently corrupt causality.
/// An event takes its `seq` when it is scheduled, so follow-ups keep
/// the FIFO tie-break in the order the handler scheduled them.
pub struct Scheduler<'a, W> {
    now: SimTime,
    queue: &'a mut Queue<W>,
}

impl<W> Scheduler<'_, W> {
    /// Current simulation time (the timestamp of the running event).
    #[inline]
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event to run `delay` after the current time.
    /// `data` is passed back to `f` when it fires.
    pub fn schedule_raw(
        &mut self,
        delay: SimTime,
        label: &'static str,
        f: RawEventFn<W>,
        data: u64,
    ) {
        self.schedule_raw_at(self.now + delay, label, f, data);
    }

    /// Schedules an event at the absolute time `at`.
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
        assert!(
            at >= self.now,
            "event '{label}' scheduled into the past: {at:?} < now {:?}",
            self.now
        );
        self.queue.push(at, label, f, data);
    }
}

/// The simulation: an event queue plus the world `W` it drives.
///
/// # Examples
///
/// ```
/// use simkit::{Scheduler, Sim, SimTime};
///
/// fn tick(w: &mut u32, s: &mut Scheduler<u32>, n: u64) {
///     *w += n as u32;
///     // Events may schedule further events.
///     if n == 1 {
///         s.schedule_raw(SimTime::from_us(1), "tock", tick, 10);
///     }
/// }
///
/// let mut sim = Sim::new(0u32);
/// sim.schedule_raw(SimTime::from_us(1), "tick", tick, 1);
/// sim.run();
/// assert_eq!(sim.world, 11);
/// assert_eq!(sim.now(), SimTime::from_us(2));
/// ```
pub struct Sim<W> {
    /// The simulation world, freely accessible between runs.
    pub world: W,
    now: SimTime,
    queue: Queue<W>,
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
            queue: Queue {
                heap: Vec::new(),
                seq: 0,
            },
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

    /// The scheduler at the current time.
    fn scheduler(&mut self) -> Scheduler<'_, W> {
        Scheduler {
            now: self.now,
            queue: &mut self.queue,
        }
    }

    /// Schedules an event `delay` after the current time. `data` is
    /// passed back to `f` when it fires.
    pub fn schedule_raw(
        &mut self,
        delay: SimTime,
        label: &'static str,
        f: RawEventFn<W>,
        data: u64,
    ) {
        self.scheduler().schedule_raw(delay, label, f, data);
    }

    /// Schedules an event at the absolute time `at`.
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
        self.scheduler().schedule_raw_at(at, label, f, data);
    }

    /// Executes the next pending event, if any.
    ///
    /// Returns `true` if an event ran, `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        let Event { label, f, data, .. } = ev;
        let at = ev.at();
        debug_assert!(at >= self.now, "event violates causality");
        self.now = at;
        self.executed += 1;
        // The handler borrows the world and the queue side by side.
        let queue = &mut self.queue;
        f(&mut self.world, &mut Scheduler { now: at, queue }, data);
        if let Some(obs) = self.observer.as_mut() {
            obs(&self.world, at, label);
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
/// A [`Sim`] itself is never sent anywhere. Its queue holds only
/// function pointers and `u64` payloads, but its observer slot is a
/// non-`Send` box (observers share their results through `Rc`), so
/// each worker builds and runs its own simulation locally. The only
/// requirement parallel sweeps place on a simulation is therefore that
/// the *world* (and whatever results are extracted from it) crosses
/// threads: assert it once, next to the world type, as
/// `const _: () = simkit::assert_world_send::<MyWorld>();`.
pub const fn assert_world_send<W: Send>() {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends the payload to the world.
    fn push(w: &mut Vec<u64>, _: &mut Scheduler<Vec<u64>>, data: u64) {
        w.push(data);
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(Vec::new());
        sim.schedule_raw(SimTime::from_us(3), "c", push, 3);
        sim.schedule_raw(SimTime::from_us(1), "a", push, 1);
        sim.schedule_raw(SimTime::from_us(2), "b", push, 2);
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn equal_timestamps_run_fifo() {
        let mut sim = Sim::new(Vec::new());
        for i in 0..10 {
            sim.schedule_raw(SimTime::from_us(7), "same", push, i);
        }
        sim.run();
        assert_eq!(sim.world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_chain_events() {
        fn tick(w: &mut u64, s: &mut Scheduler<u64>, _: u64) {
            *w += 1;
            if *w < 100 {
                s.schedule_raw(SimTime::from_us(1), "tick", tick, 0);
            }
        }
        let mut sim = Sim::new(0u64);
        sim.schedule_raw(SimTime::ZERO, "tick", tick, 0);
        sim.run();
        assert_eq!(sim.world, 100);
        assert_eq!(sim.now(), SimTime::from_us(99));
    }

    #[test]
    fn run_while_predicate() {
        fn inc(w: &mut u32, _: &mut Scheduler<u32>, _: u64) {
            *w += 1;
        }
        let mut sim = Sim::new(0u32);
        for _ in 0..10 {
            sim.schedule_raw(SimTime::from_us(1), "inc", inc, 0);
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
        fn later(_: &mut (), s: &mut Scheduler<()>, _: u64) {
            s.schedule_raw_at(SimTime::from_us(1), "past", later, 0);
        }
        let mut sim = Sim::new(());
        sim.schedule_raw(SimTime::from_us(5), "later", later, 0);
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

        type Seen = Vec<(u64, u64, &'static str)>;
        let seen: Rc<RefCell<Seen>> = Rc::default();
        let log = Rc::clone(&seen);
        let mut sim = Sim::new(Vec::new());
        sim.set_observer(Box::new(move |w, at, label| {
            log.borrow_mut().push((w.iter().sum(), at.as_ns(), label));
        }));
        sim.schedule_raw(SimTime::from_us(2), "b", push, 10);
        sim.schedule_raw(SimTime::from_us(1), "a", push, 1);
        sim.run();
        // The observer runs after each handler, with its effects
        // already applied, in execution order.
        assert_eq!(*seen.borrow(), vec![(1, 1000, "a"), (11, 2000, "b")]);
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
        // A follow-up half a second out, scheduled from a
        // microsecond-scale event, still runs before a later
        // pre-scheduled event.
        fn near(w: &mut Vec<u64>, s: &mut Scheduler<Vec<u64>>, _: u64) {
            w.push(1);
            s.schedule_raw_at(SimTime::from_ns(500_000_000), "rto", push, 2);
        }
        let mut sim = Sim::new(Vec::new());
        sim.schedule_raw_at(SimTime::from_us(1), "near", near, 0);
        sim.schedule_raw_at(SimTime::from_ns(500_000_040), "after", push, 3);
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ns(500_000_040));
    }

    #[test]
    fn clustered_bursts_stay_ordered() {
        // Hundreds of events in seven clusters a millisecond apart,
        // scheduled out of time order.
        fn stamp(w: &mut Vec<(u64, u64)>, s: &mut Scheduler<Vec<(u64, u64)>>, i: u64) {
            w.push((s.now().as_ns(), i));
        }
        let mut sim = Sim::new(Vec::new());
        let mut expect = Vec::new();
        for i in 0..500u64 {
            let at = SimTime::from_ns((i % 7) * 1_000_000 + i * 13);
            sim.schedule_raw_at(at, "e", stamp, i);
            expect.push((at.as_ns(), i));
        }
        sim.run();
        // Sort by (time, insertion seq) — the engine's contract.
        expect.sort_by_key(|&(at, i)| (at, i));
        assert_eq!(sim.world, expect);
    }
}
