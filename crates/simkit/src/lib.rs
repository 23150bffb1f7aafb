//! `simkit` — a small, deterministic discrete-event simulation engine.
//!
//! This crate provides the substrate on which the rest of the
//! `tcp-atm-latency` reproduction runs: a virtual clock with 40 ns
//! granularity (matching the TurboChannel real-time clock used by the
//! paper), an event queue with deterministic tie-breaking, a simple CPU
//! occupancy model used to serialize "kernel work" on each simulated
//! host, and a deterministic pseudo-random number generator for error
//! injection.
//!
//! # Design
//!
//! Every event is a function pointer ([`RawEventFn`]) plus one `u64`
//! payload, executed against a user-supplied world type `W`; a bigger
//! value waits in a [`Parked`] slab and the payload names its slot.
//! Handlers get the world and, beside it, a [`Scheduler`] that borrows
//! the engine's queue, so follow-ups go straight onto the heap.
//!
//! The queue is one binary heap on `(time, seq)`, so equal-time events
//! run in the order they were scheduled; see [`engine`].
//!
//! # Examples
//!
//! ```
//! use simkit::{Scheduler, Sim, SimTime};
//!
//! struct World {
//!     fired: Vec<u64>,
//! }
//!
//! fn fire(w: &mut World, _s: &mut Scheduler<World>, n: u64) {
//!     w.fired.push(n);
//! }
//!
//! let mut sim = Sim::new(World { fired: Vec::new() });
//! sim.schedule_raw(SimTime::from_us(5), "later", fire, 2);
//! sim.schedule_raw(SimTime::from_us(1), "sooner", fire, 1);
//! sim.run();
//! assert_eq!(sim.world.fired, vec![1, 2]);
//! assert_eq!(sim.now(), SimTime::from_us(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod engine;
pub mod hash;
pub mod parked;
pub mod rng;
pub mod time;

pub use cpu::{Cpu, CpuBand, CpuStats};
pub use engine::{assert_world_send, ObserverFn, RawEventFn, Scheduler, Sim};
pub use hash::{FxHashMap, FxHasher};
pub use parked::Parked;
pub use rng::SimRng;
pub use time::SimTime;
