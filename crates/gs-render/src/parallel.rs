//! Scoped parallel regions for the rasteriser's banded kernels.
//!
//! The build is network-free, so instead of rayon this module provides the
//! minimum the render forward/backward passes need on top of `std` only: a
//! `parallel_for_each` over a vector of owned jobs plus an index-preserving
//! `parallel_map` built on it.  Every region is one [`std::thread::scope`]:
//! `width - 1` scoped workers plus the calling thread drain one shared job
//! queue, and the scope joins the workers before the call returns.  Jobs
//! therefore borrow the caller's stack (image bands, per-band accumulators)
//! with no `Arc` plumbing, a panicking job reaches the caller through the
//! scope's own propagation, and independent callers (the render lane, the
//! CPU Adam lane, concurrent device rounds, tenants) open regions that run
//! side by side.  The rasterise bands, the projection/binning prologue, the
//! chunked Adam driver and the view-parallel waves all go through the two
//! functions below.
//!
//! # Determinism contract
//!
//! A region **never** influences what is computed — only *where*.  Two
//! properties make every caller bit-deterministic for any thread count:
//!
//! 1. each job is a pure function of its own inputs (jobs share data only
//!    through `&`-borrows), so the values a job produces cannot depend on
//!    which worker ran it or when;
//! 2. results are keyed by job index ([`parallel_map`]) or written to
//!    disjoint `&mut` regions owned by the job itself, so nothing depends on
//!    completion order.
//!
//! Any order-sensitive reduction (e.g. floating-point accumulation across
//! bands) must therefore happen *outside* the region, over the
//! index-ordered results — which is exactly how
//! [`crate::rasterize::render_backward`] merges its per-band gradient
//! accumulators.
//!
//! # Nested regions run serially
//!
//! A thread that is already inside a region — a scoped worker, or the
//! calling thread while it drains the region it opened — runs any region it
//! opens as a plain serial loop.  The width a caller asks for is then the
//! number of threads its region uses in total: a view-parallel wave of
//! banded renders spawns `width - 1` threads, not `width` per view, and at
//! band granularity nested splitting has nothing left to win.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on the workers one region spawns, whatever width the caller
/// asks for (the calling thread always participates too).
const MAX_WORKERS: usize = 64;

/// Process-wide default compute width used when a caller passes the
/// `compute_threads = 0` "inherit" sentinel.  0 = not configured yet, in
/// which case [`default_compute_threads`] falls back to the host's
/// available parallelism.
static DEFAULT_COMPUTE_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default compute width that
/// `compute_threads = 0` resolves to.  The runtime's autotuner calls this
/// once with the host's effective (cgroup-quota-aware) core count; callers
/// that pass an explicit thread count are unaffected.  `threads = 0`
/// clears the default back to the `available_parallelism` fallback.
///
/// Pure scheduling: the resolved width decides how many threads share the
/// banded kernels, never what they compute.
pub fn set_default_compute_threads(threads: usize) {
    DEFAULT_COMPUTE_THREADS.store(threads.min(MAX_WORKERS + 1), Ordering::Relaxed);
}

/// The width `compute_threads = 0` currently resolves to: the value set by
/// [`set_default_compute_threads`], or the host's available parallelism
/// when none was set.  Always at least 1.
pub fn default_compute_threads() -> usize {
    match DEFAULT_COMPUTE_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .max(1)
}

/// Resolves a requested compute width: explicit counts pass through, the
/// `0` "inherit" sentinel becomes [`default_compute_threads`].  Callers
/// that report their thread count must report this resolved value, never
/// the sentinel.
pub fn resolve_compute_threads(requested: usize) -> usize {
    if requested == 0 {
        default_compute_threads()
    } else {
        requested
    }
}

thread_local! {
    /// Set while this thread is inside a parallel region: for the lifetime
    /// of every scoped worker, and on a calling thread for as long as it
    /// drains the region it opened.  Nested parallel regions detect it and
    /// fall back to serial execution.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Holds the calling thread's previous in-region mark while it drains its
/// own region and restores it on every path out — a panicking job included.
struct RegionMark(bool);

impl Drop for RegionMark {
    fn drop(&mut self) {
        IN_REGION.set(self.0);
    }
}

/// Runs `f` over every job in `jobs` across up to `threads` threads (the
/// calling thread participates, so `threads = 4` means at most 3 scoped
/// workers).  Jobs are handed out through a shared queue in an unspecified
/// order; see the module docs for why callers stay deterministic anyway.
/// Returns once every job has run; a panic in any job resumes on the
/// caller after the other threads have drained the queue.
///
/// `threads <= 1`, fewer than two jobs, or a call from a thread that is
/// already inside a region (nested region — a scoped worker, or a caller
/// running one of its own jobs) degenerates to a plain serial loop, so the
/// serial path *is* the parallel path at width 1 — there is no separate
/// code path to diverge from.
pub fn parallel_for_each<J, F>(threads: usize, jobs: Vec<J>, f: F)
where
    J: Send,
    F: Fn(J) + Sync,
{
    let width = threads.min(jobs.len()).min(MAX_WORKERS + 1);
    if width <= 1 || IN_REGION.get() {
        for job in jobs {
            f(job);
        }
        return;
    }
    let queue = Mutex::new(jobs.into_iter());
    std::thread::scope(|scope| {
        for _ in 1..width {
            scope.spawn(|| {
                IN_REGION.set(true);
                drain(&queue, &f);
            });
        }
        let _mark = RegionMark(IN_REGION.replace(true));
        drain(&queue, &f);
    });
}

/// Participant loop: pop the next job (holding the queue lock only for the
/// pop), run it, repeat until the queue is empty.
fn drain<J, F: Fn(J)>(queue: &Mutex<std::vec::IntoIter<J>>, f: &F) {
    loop {
        // No job runs under the lock, so it cannot be poisoned mid-update:
        // the iterator is valid whatever happened to another participant.
        let job = queue.lock().unwrap_or_else(|p| p.into_inner()).next();
        match job {
            Some(job) => f(job),
            None => return,
        }
    }
}

/// Computes `f(0), f(1), …, f(count - 1)` across up to `threads` threads and
/// returns the results **in index order**, independent of which thread
/// computed what.
pub fn parallel_map<R, F>(threads: usize, count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads.min(count) <= 1 || IN_REGION.get() {
        // The region would run serially on this thread anyway (see
        // [`parallel_for_each`]): skip the slot vector and its two extra
        // passes.
        return (0..count).map(f).collect();
    }
    let mut results: Vec<Option<R>> = (0..count).map(|_| None).collect();
    {
        let jobs: Vec<(usize, &mut Option<R>)> = results.iter_mut().enumerate().collect();
        parallel_for_each(threads, jobs, |(i, slot)| *slot = Some(f(i)));
    }
    results
        .into_iter()
        .map(|r| r.expect("every indexed job runs exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Condvar;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// A barrier with a bounded wait: reports whether all `parties` arrived
    /// at `meet` within the limit, so a test that needs jobs on distinct
    /// threads fails with a message instead of parking the suite.
    fn arrive(meet: &(Mutex<usize>, Condvar), parties: usize) -> bool {
        let (arrived, all_here) = meet;
        let mut arrived = arrived.lock().unwrap();
        *arrived += 1;
        all_here.notify_all();
        let limit = Duration::from_secs(10);
        let (arrived, _) = all_here
            .wait_timeout_while(arrived, limit, |n| *n < parties)
            .unwrap();
        *arrived >= parties
    }

    #[test]
    fn map_preserves_index_order_for_any_thread_count() {
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(threads, 100, |i| i * i);
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn for_each_runs_every_job_exactly_once() {
        for threads in [1, 2, 5] {
            let counter = AtomicUsize::new(0);
            let jobs: Vec<usize> = (0..37).collect();
            parallel_for_each(threads, jobs, |i| {
                counter.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), (1..=37).sum::<usize>());
        }
    }

    #[test]
    fn jobs_may_own_disjoint_mutable_borrows() {
        // The forward pass's usage pattern: each job owns a `&mut` band of
        // one output buffer.
        let mut buf = vec![0u32; 64];
        {
            let jobs: Vec<(usize, &mut [u32])> = buf.chunks_mut(16).enumerate().collect();
            parallel_for_each(4, jobs, |(b, band)| {
                for (i, v) in band.iter_mut().enumerate() {
                    *v = (b * 100 + i) as u32;
                }
            });
        }
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, ((i / 16) * 100 + i % 16) as u32);
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let got = parallel_map(32, 3, |i| i + 1);
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn an_explicit_width_is_clamped_to_max_workers() {
        // `compute_threads` is caller-supplied: asking for more than the
        // clamp must not become that many spawns.
        let seen = Mutex::new(std::collections::HashSet::<ThreadId>::new());
        parallel_for_each(usize::MAX, (0..4 * MAX_WORKERS).collect(), |_: usize| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(seen.into_inner().unwrap().len() <= MAX_WORKERS + 1);
    }

    #[test]
    fn empty_and_single_job_degenerate_to_serial() {
        let got: Vec<usize> = parallel_map(8, 0, |i| i);
        assert!(got.is_empty());
        assert_eq!(parallel_map(8, 1, |i| i + 41), vec![41]);
    }

    #[test]
    fn nested_regions_run_serially_on_worker_and_caller() {
        // Two outer jobs meet, so the caller and the one scoped worker hold
        // one each; the region each of them opens must then stay on its own
        // thread.
        let meet = (Mutex::new(0), Condvar::new());
        let inner_jobs = AtomicUsize::new(0);
        let outer_threads = Mutex::new(Vec::new());
        parallel_for_each(2, vec![0usize, 1], |_| {
            assert!(arrive(&meet, 2), "outer jobs did not land on two threads");
            let outer = std::thread::current().id();
            outer_threads.lock().unwrap().push(outer);
            parallel_for_each(4, (0..8).collect(), |_: usize| {
                assert_eq!(
                    std::thread::current().id(),
                    outer,
                    "nested job left its thread"
                );
                inner_jobs.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_jobs.load(Ordering::Relaxed), 16);
        let outer_threads = outer_threads.into_inner().unwrap();
        assert!(outer_threads.contains(&std::thread::current().id()));
        assert_ne!(outer_threads[0], outer_threads[1]);
    }

    #[test]
    fn caller_is_not_left_marked_in_region_after_a_panicking_job() {
        // The in-region mark is restored on unwind: after a region whose
        // caller-side job panicked, the same thread still gets real regions.
        let result = catch_unwind(|| {
            parallel_for_each(2, vec![0usize, 1], |_| panic!("every job panics"));
        });
        assert!(result.is_err());
        assert!(!IN_REGION.get(), "mark must be restored on unwind");
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        // The two jobs meet, so one of them runs on the scoped worker; only
        // that one panics.
        let caller = std::thread::current().id();
        let meet = (Mutex::new(0), Condvar::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_for_each(2, vec![0usize, 1], |_| {
                assert!(arrive(&meet, 2), "jobs did not land on two threads");
                if std::thread::current().id() != caller {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic must cross the region boundary");
        assert!(!IN_REGION.get(), "mark must be restored on unwind");
    }

    #[test]
    fn concurrent_regions_overlap() {
        // Two independent callers (the render lane and the Adam lane, say)
        // each open a width-2 region; all four jobs must be able to run at
        // the same time.  A process-wide region lock admits one region's two
        // jobs at a time and lets the bounded wait expire.
        let meet = (Mutex::new(0), Condvar::new());
        let met = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    parallel_for_each(2, vec![0usize, 1], |_| {
                        if arrive(&meet, 4) {
                            met.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                });
            }
        });
        assert_eq!(
            met.load(Ordering::Relaxed),
            4,
            "regions of independent callers excluded each other"
        );
    }
}
