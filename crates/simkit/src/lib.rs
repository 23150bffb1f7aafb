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
//! Events are either boxed closures of type [`EventFn`] or
//! allocation-free *raw* events ([`RawEventFn`]: a function pointer
//! plus a `u64` payload), executed against a user-supplied world type
//! `W`. Handlers cannot touch the event queue directly (that would
//! alias the engine borrow); instead they receive a [`Scheduler`] into
//! which new events are staged and merged after the handler returns.
//! This keeps the engine free of interior mutability while still
//! allowing handlers to schedule arbitrary follow-up work.
//!
//! The queue is one binary heap on `(time, seq)`, so equal-time events
//! run in the order they were scheduled; see [`engine`].
//!
//! # Examples
//!
//! ```
//! use simkit::{Sim, SimTime};
//!
//! struct World {
//!     fired: Vec<u32>,
//! }
//!
//! let mut sim = Sim::new(World { fired: Vec::new() });
//! sim.schedule(SimTime::from_us(5), "later", |w: &mut World, _s| w.fired.push(2));
//! sim.schedule(SimTime::from_us(1), "sooner", |w: &mut World, _s| w.fired.push(1));
//! sim.run();
//! assert_eq!(sim.world.fired, vec![1, 2]);
//! assert_eq!(sim.now(), SimTime::from_us(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod engine;
pub mod rng;
pub mod time;

pub use cpu::{Cpu, CpuBand, CpuStats};
pub use engine::{assert_world_send, EventFn, ObserverFn, RawEventFn, Scheduler, Sim};
pub use rng::SimRng;
pub use time::SimTime;
