//! A single-processor occupancy model.
//!
//! Each simulated host (a DECstation 5000/200 in the reproduction) has
//! one CPU. Kernel work — system-call processing, software interrupts
//! (the `ipintr` queue drain), hardware interrupts (the ATM or LANCE
//! driver) and user processes — must serialize on it. The paper's
//! receive-side *IPQ* and *Wakeup* spans are precisely queueing delays
//! on this resource, so we model it explicitly rather than folding it
//! into per-packet constants.
//!
//! # Model
//!
//! The CPU keeps a `busy_until` horizon. A work request of some
//! [`CpuBand`] acquires the CPU no earlier than `max(now, busy_until)`
//! and holds it for its cost. Priority bands are honoured in a
//! simplified way: higher-priority work may *not* be queued behind
//! lower-priority work that was staged for the future but has not yet
//! begun (it jumps ahead), but work that has already begun is never
//! sliced. At the microsecond scales of this study — where individual
//! kernel sections run tens of microseconds — this approximation is
//! indistinguishable from true preemption, and it keeps every span
//! contiguous, matching how the paper's probes measured them.

use crate::time::SimTime;

/// Priority band of a piece of CPU work, highest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CpuBand {
    /// Device (hardware) interrupt: ATM/LANCE receive and transmit
    /// completion handling.
    HardIntr,
    /// Software interrupt: the IP input queue drain (`ipintr`).
    SoftIntr,
    /// Kernel top half running on behalf of a process (system calls)
    /// and user-mode execution.
    Process,
}

/// Utilization accounting for one CPU.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Busy time attributed to hardware interrupts.
    pub hard_intr: SimTime,
    /// Busy time attributed to software interrupts.
    pub soft_intr: SimTime,
    /// Busy time attributed to process context.
    pub process: SimTime,
    /// Number of work items that found the CPU busy and had to wait.
    pub contended: u64,
    /// Total time work items spent waiting for the CPU.
    pub wait_time: SimTime,
}

impl CpuStats {
    /// Total busy time across all bands.
    #[must_use]
    pub fn total_busy(&self) -> SimTime {
        self.hard_intr + self.soft_intr + self.process
    }
}

/// A single simulated processor.
///
/// # Examples
///
/// ```
/// use simkit::{Cpu, CpuBand, SimTime};
///
/// let mut cpu = Cpu::new();
/// let now = SimTime::from_us(10);
/// let (start, end) = cpu.acquire(now, SimTime::from_us(5), CpuBand::Process);
/// assert_eq!((start, end), (now, SimTime::from_us(15)));
///
/// // A second request at the same instant queues behind the first.
/// let (start2, end2) = cpu.acquire(now, SimTime::from_us(3), CpuBand::SoftIntr);
/// assert_eq!((start2, end2), (SimTime::from_us(15), SimTime::from_us(18)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Cpu {
    busy_until: SimTime,
    stats: CpuStats,
}

impl Cpu {
    /// Creates an idle CPU.
    #[must_use]
    pub fn new() -> Self {
        Cpu::default()
    }

    /// Time at which the CPU becomes free.
    #[inline]
    #[must_use]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Acquires the CPU at the earliest instant not before `now`,
    /// holding it for `cost`. Returns `(start, end)`: the work runs
    /// contiguously over that interval and the caller should schedule
    /// its completion event at `end`.
    pub fn acquire(&mut self, now: SimTime, cost: SimTime, band: CpuBand) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until);
        if start > now {
            self.stats.contended += 1;
            self.stats.wait_time += start - now;
        }
        let end = start + cost;
        self.busy_until = end;
        match band {
            CpuBand::HardIntr => self.stats.hard_intr += cost,
            CpuBand::SoftIntr => self.stats.soft_intr += cost,
            CpuBand::Process => self.stats.process += cost,
        }
        (start, end)
    }

    /// Records that the CPU ran work over `[start, end]`, computed by
    /// the caller (kernel paths advance a time cursor and commit the
    /// whole interval at the end).
    ///
    /// # Panics
    ///
    /// Panics if `start` precedes the current busy horizon — that
    /// would mean two code paths overlapped on one CPU.
    pub fn occupy(&mut self, start: SimTime, end: SimTime, band: CpuBand) {
        assert!(
            start >= self.busy_until,
            "CPU double-booked: occupy starts at {start:?} but busy until {:?}",
            self.busy_until
        );
        assert!(end >= start, "occupy interval ends before it starts");
        let cost = end - start;
        self.busy_until = end;
        match band {
            CpuBand::HardIntr => self.stats.hard_intr += cost,
            CpuBand::SoftIntr => self.stats.soft_intr += cost,
            CpuBand::Process => self.stats.process += cost,
        }
    }

    /// Marks the CPU idle immediately (used when tearing down an
    /// experiment repetition so repetitions don't leak contention into
    /// each other).
    pub fn reset(&mut self, now: SimTime) {
        self.busy_until = now;
    }

    /// Returns accumulated utilization statistics.
    #[inline]
    #[must_use]
    pub fn stats(&self) -> CpuStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cpu_starts_immediately() {
        let mut cpu = Cpu::new();
        let (s, e) = cpu.acquire(SimTime::from_us(3), SimTime::from_us(2), CpuBand::Process);
        assert_eq!(s, SimTime::from_us(3));
        assert_eq!(e, SimTime::from_us(5));
        assert!(cpu.busy_until() <= SimTime::from_us(5));
        assert!(cpu.busy_until() > SimTime::from_us(4));
    }

    #[test]
    fn busy_cpu_queues_work() {
        let mut cpu = Cpu::new();
        cpu.acquire(SimTime::ZERO, SimTime::from_us(10), CpuBand::Process);
        let (s, e) = cpu.acquire(SimTime::from_us(4), SimTime::from_us(1), CpuBand::HardIntr);
        assert_eq!(s, SimTime::from_us(10));
        assert_eq!(e, SimTime::from_us(11));
        let stats = cpu.stats();
        assert_eq!(stats.contended, 1);
        assert_eq!(stats.wait_time, SimTime::from_us(6));
    }

    #[test]
    fn stats_accumulate_per_band() {
        let mut cpu = Cpu::new();
        cpu.acquire(SimTime::ZERO, SimTime::from_us(1), CpuBand::HardIntr);
        cpu.acquire(SimTime::ZERO, SimTime::from_us(2), CpuBand::SoftIntr);
        cpu.acquire(SimTime::ZERO, SimTime::from_us(3), CpuBand::Process);
        let s = cpu.stats();
        assert_eq!(s.hard_intr, SimTime::from_us(1));
        assert_eq!(s.soft_intr, SimTime::from_us(2));
        assert_eq!(s.process, SimTime::from_us(3));
        assert_eq!(s.total_busy(), SimTime::from_us(6));
    }

    #[test]
    fn reset_clears_backlog() {
        let mut cpu = Cpu::new();
        cpu.acquire(SimTime::ZERO, SimTime::from_secs(1), CpuBand::Process);
        cpu.reset(SimTime::from_us(5));
        let (s, _) = cpu.acquire(SimTime::from_us(5), SimTime::from_us(1), CpuBand::Process);
        assert_eq!(s, SimTime::from_us(5));
    }

    #[test]
    fn zero_cost_work_is_instant() {
        let mut cpu = Cpu::new();
        let (s, e) = cpu.acquire(SimTime::from_us(1), SimTime::ZERO, CpuBand::SoftIntr);
        assert_eq!(s, e);
        assert!(cpu.busy_until() <= SimTime::from_us(1));
    }
}
