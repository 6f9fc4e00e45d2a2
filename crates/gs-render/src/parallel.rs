//! Persistent hand-rolled compute pool for the rasteriser's banded kernels.
//!
//! The build is network-free, so instead of rayon this module provides the
//! minimum the render forward/backward passes need on top of `std` only: a
//! work-stealing `parallel_for_each` over a vector of owned jobs plus an
//! index-preserving `parallel_map` built on it, both executed by a
//! **persistent** pool of worker threads ([`ComputePool`]).  Earlier
//! revisions spawned scoped threads per call; at band granularity (a few
//! hundred microseconds of work per region) the per-call spawn/join cost was
//! measurable, so workers are now spawned lazily on first use, parked on a
//! condvar between regions, and joined when the pool is dropped.  The
//! process-wide [`ComputePool::global`] instance is shared by the rasterise
//! bands, the projection/binning prologue, and the chunked Adam driver.
//!
//! # Determinism contract
//!
//! The pool **never** influences what is computed — only *where*.  Two
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
//! bands) must therefore happen *outside* the pool, over the
//! index-ordered results — which is exactly how
//! [`crate::rasterize::render_backward`] merges its per-band gradient
//! accumulators.
//!
//! # How non-`'static` jobs stay sound
//!
//! Jobs borrow the caller's stack (image bands, per-band accumulators) with
//! no `Arc` plumbing, exactly as the old scoped version allowed.  Soundness
//! rests on a strict rendezvous: a region hands workers a lifetime-erased
//! reference to the caller's closure, and the private `ComputePool::run_region` does
//! not return — not even on panic — until every participating worker has
//! reported completion and the shared job slot is cleared.  The borrow
//! therefore never outlives the caller's frame.
//!
//! Regions are serialised through the pool's region lock.  If a thread that
//! is already *inside* a region — a pool worker, or the calling thread while
//! it participates in the region it opened — enters another parallel region
//! (nested parallelism), that inner region degrades to a plain serial loop
//! on that thread: waiting for the region lock from inside a region would
//! deadlock (the caller holds it for the whole region), and at band
//! granularity nested splitting has nothing left to win.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Upper bound on persistent workers; callers asking for more parallelism
/// simply share these (the calling thread always participates too).
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
/// Pure scheduling: the resolved width decides how many pool workers share
/// the banded kernels, never what they compute.
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
    /// of every pool worker thread, and on a calling thread for as long as
    /// it participates in the region it opened.  Nested parallel regions
    /// detect it and fall back to serial execution.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Lifetime-erased region job.  Only ever dereferenced between region start
/// and the completion rendezvous, while the caller's frame is pinned.
type Job = &'static (dyn Fn() + Sync);

struct PoolState {
    /// Bumped once per region; workers use it to participate at most once.
    epoch: u64,
    /// The active region's job, present only while the region runs.
    job: Option<Job>,
    /// Worker participation slots remaining in the active region.
    slots: usize,
    /// Workers currently inside the job.
    running: usize,
    /// A worker's job call panicked during the active region.
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between regions.
    work_cv: Condvar,
    /// The region caller parks here until `slots == 0 && running == 0`.
    done_cv: Condvar,
}

/// A persistent compute pool: workers are spawned lazily up to the demanded
/// width, parked between regions, and joined on drop.
pub struct ComputePool {
    shared: Arc<PoolShared>,
    /// Doubles as the region lock: held for the whole of `run_region`, so
    /// regions are serialised and worker growth is race-free.
    inner: Mutex<PoolInner>,
}

struct PoolInner {
    workers: Vec<JoinHandle<()>>,
}

impl Default for ComputePool {
    fn default() -> Self {
        Self::new()
    }
}

impl ComputePool {
    /// Creates an empty pool; workers are spawned on first demand.
    pub fn new() -> Self {
        ComputePool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    slots: 0,
                    running: 0,
                    panicked: false,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            inner: Mutex::new(PoolInner {
                workers: Vec::new(),
            }),
        }
    }

    /// The process-wide pool shared by rasterise bands, the
    /// projection/binning prologue, and the chunked Adam driver.  Never
    /// dropped; its workers park on a condvar while idle.
    pub fn global() -> &'static ComputePool {
        static POOL: OnceLock<ComputePool> = OnceLock::new();
        POOL.get_or_init(ComputePool::new)
    }

    /// Number of worker threads spawned so far (test/diagnostic hook).
    pub fn spawned_workers(&self) -> usize {
        self.inner
            .lock()
            .expect("compute pool inner poisoned")
            .workers
            .len()
    }

    /// Runs `f` over every job in `jobs` across up to `threads` pool
    /// threads (the calling thread participates, so `threads = 4` means at
    /// most 3 workers).  Jobs are handed out through a shared queue in an
    /// unspecified order; see the module docs for why callers stay
    /// deterministic anyway.
    ///
    /// `threads <= 1`, fewer than two jobs, or a call from a thread that is
    /// already inside a region (nested region — a pool worker, or a caller
    /// running one of its own jobs) degenerates to a plain serial loop, so the
    /// serial path *is* the parallel path at width 1 — there is no separate
    /// code path to diverge from.
    pub fn for_each<J, F>(&self, threads: usize, jobs: Vec<J>, f: F)
    where
        J: Send,
        F: Fn(J) + Sync,
    {
        let width = threads.max(1).min(jobs.len());
        if width <= 1 || IN_REGION.get() {
            for job in jobs {
                f(job);
            }
            return;
        }
        let queue = Mutex::new(jobs.into_iter());
        let body = || drain(&queue, &f);
        self.run_region((width - 1).min(MAX_WORKERS), &body);
    }

    /// Runs one parallel region: `extra` workers plus the calling thread
    /// all invoke `job` once (the job drains a shared queue internally).
    /// Returns only after every participant has finished, even on panic —
    /// the soundness rendezvous for the lifetime-erased borrow.
    fn run_region(&self, extra: usize, job: &(dyn Fn() + Sync)) {
        let mut inner = self.inner.lock().expect("compute pool inner poisoned");
        while inner.workers.len() < extra {
            let shared = Arc::clone(&self.shared);
            let name = format!("clm-compute-{}", inner.workers.len());
            inner.workers.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn compute pool worker"),
            );
        }
        // SAFETY: the erased reference is only dereferenced by workers
        // between here and the completion wait below; we do not return
        // (even unwinding is deferred) until `slots == 0 && running == 0`
        // and the job slot is cleared, so the borrow cannot escape the
        // caller's frame.
        let erased: Job =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(job) };
        {
            let mut st = self
                .shared
                .state
                .lock()
                .expect("compute pool state poisoned");
            st.epoch += 1;
            st.job = Some(erased);
            st.slots = extra;
            st.running = 0;
            st.panicked = false;
            self.shared.work_cv.notify_all();
        }
        // The calling thread is always a participant.  It holds the region
        // lock, so a job it drains that opens a region of its own must run
        // that region serially instead of blocking on `inner` forever.
        // `catch_unwind` ends the job's unwinding here, so the mark is
        // restored on every path.
        let was_in_region = IN_REGION.replace(true);
        let caller = catch_unwind(AssertUnwindSafe(job));
        IN_REGION.set(was_in_region);
        let worker_panicked = {
            let mut st = self
                .shared
                .state
                .lock()
                .expect("compute pool state poisoned");
            while st.slots != 0 || st.running != 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .expect("compute pool state poisoned");
            }
            st.job = None;
            std::mem::take(&mut st.panicked)
        };
        drop(inner);
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("compute pool worker panicked while running a parallel region");
        }
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        let mut inner = self.inner.lock().expect("compute pool inner poisoned");
        {
            let mut st = self
                .shared
                .state
                .lock()
                .expect("compute pool state poisoned");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in inner.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Worker body: park until a region has participation slots left, run the
/// region job once, report completion, repeat until shutdown.
fn worker_loop(shared: Arc<PoolShared>) {
    IN_REGION.set(true);
    // Participate in any epoch newer than the last one seen; starting at 0
    // means a freshly spawned worker may join the region that spawned it.
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("compute pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    if st.slots > 0 {
                        break;
                    }
                    // Region is fully subscribed; skip this epoch.
                    seen = st.epoch;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .expect("compute pool state poisoned");
            }
            seen = st.epoch;
            st.slots -= 1;
            st.running += 1;
            st.job.expect("region with slots but no job")
        };
        let outcome = catch_unwind(AssertUnwindSafe(job));
        let mut st = shared.state.lock().expect("compute pool state poisoned");
        st.running -= 1;
        if outcome.is_err() {
            st.panicked = true;
        }
        if st.slots == 0 && st.running == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Runs `f` over every job in `jobs` across up to `threads` threads of the
/// [global pool](ComputePool::global).  See [`ComputePool::for_each`].
pub fn parallel_for_each<J, F>(threads: usize, jobs: Vec<J>, f: F)
where
    J: Send,
    F: Fn(J) + Sync,
{
    ComputePool::global().for_each(threads, jobs, f);
}

/// Worker loop: pop the next job (holding the queue lock only for the pop),
/// run it, repeat until the queue is empty.
fn drain<J, F: Fn(J)>(queue: &Mutex<std::vec::IntoIter<J>>, f: &F) {
    loop {
        let job = queue.lock().expect("compute pool queue poisoned").next();
        match job {
            Some(job) => f(job),
            None => return,
        }
    }
}

/// Computes `f(0), f(1), …, f(count - 1)` across up to `threads` workers and
/// returns the results **in index order**, independent of which worker
/// computed what.
pub fn parallel_map<R, F>(threads: usize, count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads.min(count) <= 1 || IN_REGION.get() {
        // The region would run serially on this thread anyway (see
        // [`ComputePool::for_each`]): skip the slot vector and its two
        // extra passes.
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn empty_and_single_job_degenerate_to_serial() {
        let got: Vec<usize> = parallel_map(8, 0, |i| i);
        assert!(got.is_empty());
        assert_eq!(parallel_map(8, 1, |i| i + 41), vec![41]);
    }

    #[test]
    fn pool_reuses_workers_across_regions() {
        let pool = ComputePool::new();
        assert_eq!(pool.spawned_workers(), 0, "workers are spawned lazily");
        let sum = AtomicUsize::new(0);
        pool.for_each(4, (0..32).collect(), |i: usize| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        let after_first = pool.spawned_workers();
        assert_eq!(after_first, 3, "threads=4 spawns 3 workers + caller");
        for _ in 0..10 {
            pool.for_each(4, (0..32).collect(), |i: usize| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
        }
        assert_eq!(
            pool.spawned_workers(),
            after_first,
            "subsequent same-width regions reuse the parked workers"
        );
        assert_eq!(sum.load(Ordering::Relaxed), 11 * (0..32).sum::<usize>());
        // Wider demand grows the pool instead of respawning.
        pool.for_each(6, (0..32).collect(), |_: usize| {});
        assert_eq!(pool.spawned_workers(), 5);
    }

    #[test]
    fn drop_joins_idle_workers() {
        let pool = ComputePool::new();
        let hits = AtomicUsize::new(0);
        pool.for_each(8, (0..64).collect(), |_: usize| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        drop(pool); // must not hang; joins the 7 parked workers
    }

    #[test]
    fn nested_regions_fall_back_to_serial() {
        // A job that itself calls parallel_for_each: on a worker thread the
        // inner region must run inline rather than deadlocking on the
        // region lock.
        let counter = AtomicUsize::new(0);
        parallel_for_each(4, (0..8).collect(), |_: usize| {
            parallel_for_each(4, (0..8).collect(), |_: usize| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn caller_thread_nesting_degrades_to_serial() {
        // The calling thread holds the region lock while it participates, so
        // a nesting job *it* drains must run its inner region serially.  At
        // width 2 the one worker is gated until the caller has nested, which
        // forces the caller to win a nesting job at any core count; a pool
        // that blocks on its own region lock instead never reports back, and
        // the bounded wait turns that hang into a failure.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = ComputePool::new();
            let caller = std::thread::current().id();
            let caller_nested = (Mutex::new(false), Condvar::new());
            let inner_jobs = AtomicUsize::new(0);
            pool.for_each(2, vec![0usize, 1], |_| {
                let (nested, cv) = &caller_nested;
                if std::thread::current().id() == caller {
                    pool.for_each(2, vec![0usize, 1], |_| {
                        inner_jobs.fetch_add(1, Ordering::Relaxed);
                    });
                    *nested.lock().unwrap() = true;
                    cv.notify_all();
                } else {
                    let mut open = nested.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                }
            });
            let _ = done_tx.send(inner_jobs.load(Ordering::Relaxed));
        });
        let inner = done_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a region nested on the calling thread deadlocked on the region lock");
        // The caller ran one or both outer jobs, two inner jobs each.
        assert!(inner == 2 || inner == 4, "inner jobs run: {inner}");
    }

    #[test]
    fn caller_is_not_left_marked_in_region_after_a_panicking_job() {
        // The in-region mark is restored on unwind: after a region whose
        // caller-side job panicked, the same thread still gets real regions.
        let pool = ComputePool::new();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each(2, vec![0usize, 1], |_| panic!("every job panics"));
        }));
        assert!(result.is_err());
        assert!(!IN_REGION.get(), "mark must be restored on unwind");
    }

    #[test]
    fn concurrent_callers_serialise_through_the_region_lock() {
        let pool = std::sync::Arc::new(ComputePool::new());
        let total = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = std::sync::Arc::clone(&pool);
                let total = std::sync::Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        pool.for_each(3, (0..10).collect(), |i: usize| {
                            total.fetch_add(i + 1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            total.load(Ordering::Relaxed),
            4 * 16 * (1..=10).sum::<usize>()
        );
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let pool = ComputePool::new();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each(4, (0..64).collect(), |i: usize| {
                if i == 13 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic must cross the region boundary");
        // The pool stays usable afterwards.
        let count = AtomicUsize::new(0);
        pool.for_each(4, (0..16).collect(), |_: usize| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }
}
