//! A tiny dependency-free fork/join pool over `std::thread::scope`.
//!
//! The paper's tables are products of a *grid* of independent runs, so
//! the unit of parallelism is one grid cell. Workers pull cell indices
//! from a shared atomic counter (a work queue with no allocation and
//! no channel), compute locally, and hand `(index, result)` pairs back
//! through their join handles; the caller then writes every result
//! into its original slot. Scheduling therefore affects only *when* a
//! cell runs, never *what* it computes or where its result lands —
//! which is what lets [`crate::Sweep::run`] promise byte-identical
//! output at any worker count.
//!
//! **Nesting.** A `run_ordered` call made from inside another call's
//! `f` runs its items inline on the calling thread, whatever its
//! `jobs`. The outer call already holds the workers, so a nested pool
//! would only oversubscribe the cores: a study cell that splits its
//! world into components (`world::run_dc`) runs them one after another
//! inside its sweep worker, and `--jobs 1` stays on one thread. Only a
//! top-level call spawns threads.
//!
//! No registry access is available to this build, so there is no
//! rayon; this is the whole pool, matching the `vendor/` philosophy.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set while this thread runs some `run_ordered` call's `f`.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as inside a pool call until dropped, and
/// restores the previous mark then, unwinding included.
struct InPool(bool);

impl InPool {
    fn enter() -> InPool {
        InPool(IN_POOL.replace(true))
    }
}

impl Drop for InPool {
    fn drop(&mut self) {
        IN_POOL.set(self.0);
    }
}

/// Moves the shared claim counter past the last item if its worker
/// unwinds, so that the other workers claim nothing more.
struct StopOnPanic<'a>(&'a AtomicUsize, usize);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(self.1, Ordering::Relaxed);
        }
    }
}

/// Runs `f` over every item on up to `jobs` worker threads and
/// returns the results **in item order**, regardless of which worker
/// ran which item or in what interleaving.
///
/// `f` receives `(index, &item)`. With `jobs == 1` (or one item), or
/// when called from inside another call's `f`, no thread is spawned
/// at all: the items run inline on the caller's thread, which doubles
/// as the reference sequential execution that parallel runs must
/// reproduce.
///
/// # Panics
///
/// Panics if `jobs == 0`, or propagates a panic from `f` with its own
/// payload. Once one worker panics, the others claim no new item: each
/// finishes only the item it holds.
pub fn run_ordered<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert!(jobs >= 1, "a sweep needs at least one worker");
    if jobs == 1 || items.len() <= 1 || IN_POOL.get() {
        let _inside = InPool::enter();
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let jobs = jobs.min(items.len());
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let _inside = InPool::enter();
                    let _stop = StopOnPanic(&next, items.len());
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(i, item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    // Merge back into item order: each index was claimed exactly once.
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for chunk in per_worker {
        for (i, r) in chunk {
            debug_assert!(slots[i].is_none(), "cell {i} computed twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every cell claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_at_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for jobs in [1, 2, 3, 8, 64, 200] {
            let got = run_ordered(&items, jobs, |_, &x| x * x + 1);
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_single_item_grids() {
        let none: Vec<u32> = Vec::new();
        assert!(run_ordered(&none, 4, |_, &x| x).is_empty());
        assert_eq!(run_ordered(&[41u32], 4, |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn index_matches_item() {
        let items: Vec<usize> = (0..40).collect();
        let got = run_ordered(&items, 7, |i, &x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(got, items);
    }

    /// A nested call runs on its caller's thread: inside a 4-worker
    /// pool it spawns no thread and returns what a top-level call
    /// returns, and so does a nested call under the inline `jobs == 1`
    /// path.
    #[test]
    fn nested_calls_run_inline_on_the_callers_thread() {
        use std::thread::{current, ThreadId};
        let outer: Vec<u64> = (0..8).collect();
        let inner: Vec<u64> = (0..5).collect();
        let square = |_: usize, &x: &u64| (x * x, current().id());
        let top: Vec<u64> = run_ordered(&inner, 4, square)
            .into_iter()
            .map(|(x, _)| x)
            .collect();
        for jobs in [4, 1] {
            let got: Vec<(ThreadId, Vec<(u64, ThreadId)>)> = run_ordered(&outer, jobs, |_, _| {
                (current().id(), run_ordered(&inner, 4, square))
            });
            for (worker, nested) in got {
                let values: Vec<u64> = nested.iter().map(|&(x, _)| x).collect();
                assert_eq!(values, top, "jobs = {jobs}");
                assert!(
                    nested.iter().all(|&(_, t)| t == worker),
                    "jobs = {jobs}: a nested item ran off its caller's thread"
                );
            }
        }
        // The mark is scoped to the call: a later top-level call on
        // this thread fans out again.
        let after = run_ordered(&inner, 4, square);
        assert!(after.iter().all(|&(_, t)| t != current().id()));
    }

    #[test]
    #[should_panic(expected = "item 3 refused")]
    fn a_workers_panic_reaches_the_caller_with_its_message() {
        let items: Vec<u32> = (0..8).collect();
        let _ = run_ordered(&items, 4, |_, &x| {
            assert!(x != 3, "item {x} refused");
            x
        });
    }

    /// A panic stops the pool: the other worker finishes the item it
    /// holds and claims no more, instead of running the whole grid
    /// before the panic surfaces. Every other item waits until item 0
    /// unwinds out of `f` (the panic hook, which may print a slow
    /// backtrace, runs before that), then takes about 1 ms.
    #[test]
    fn a_panic_stops_the_other_workers_claiming() {
        use std::sync::atomic::AtomicBool;
        struct Unwound<'a>(&'a AtomicBool);
        impl Drop for Unwound<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let items: Vec<u32> = (0..200).collect();
        let (unwound, ran) = (AtomicBool::new(false), AtomicUsize::new(0));
        let outcome = std::panic::catch_unwind(|| {
            run_ordered(&items, 2, |i, _| {
                if i == 0 {
                    let _unwound = Unwound(&unwound);
                    panic!("item 0 refused");
                }
                while !unwound.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                ran.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
        });
        assert!(outcome.is_err(), "the panic reaches the caller");
        let ran = ran.into_inner();
        assert!(ran < 20, "{ran} of 199 items ran after the panic");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_panics() {
        let _ = run_ordered(&[1], 0, |_, &x: &i32| x);
    }
}
