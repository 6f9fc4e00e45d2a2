//! What every workload's run produces, and the guard every pass runs under.

use crate::json::Json;
use crate::spans::Span;
use crate::stats;
use crate::watchdog::{self, Watchdog};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Most timed repetitions one run keeps, however fast the host is.
const MAX_REPETITIONS: usize = 64;

/// Deadline of the passes that run before the warm-up repetition has told us
/// how long a pass takes.  Under the driver's 180 s per-run limit.
const COLD_PASS_LIMIT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Per-layer metrics, in the order they were measured.
#[derive(Debug, Clone, Default)]
pub struct Layers(pub Vec<Metric>);

impl Layers {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "layer metric {name} put twice");
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// What one timed repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// The whole set-up, [`startup_calibration`] included.
    pub setup_s: f64,
    /// The share of `setup_s` spent in [`startup_calibration`].
    pub autotune_s: f64,
    pub product_first: bool,
    /// Per batch: the product path, index-aligned extras included.
    pub product_s: Vec<f64>,
    /// Per batch: one product-path batch alone.
    pub product_batch_s: Vec<f64>,
    /// Per batch: process CPU seconds of what `product_s` times.
    pub product_cpu_s: Vec<f64>,
    /// Per batch: the plain single-worker baseline.
    pub sync_s: Vec<f64>,
    pub peak_rss_mib: f64,
}

/// The wall-clock samples the six wall-clock end-to-end metrics come from.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// `[rep][batch]` seconds of the product path, index-aligned extras
    /// (densify boundary, evict/resume before a step) included.
    pub product: Vec<Vec<f64>>,
    /// `[rep][batch]` seconds of one product-path batch alone (`serve_mixed`:
    /// `step()` without the scripted evict/resume before it).
    pub product_batch: Vec<Vec<f64>>,
    /// `[rep][batch]` seconds of the plain single-worker baseline.
    pub sync: Vec<Vec<f64>>,
    /// Per-repetition set-up seconds, start-up calibration included.
    pub setup_s: Vec<f64>,
    /// Per-repetition seconds of the start-up calibration alone.
    pub autotune_s: Vec<f64>,
    /// `[rep][batch]` process CPU seconds of the product path, every thread.
    pub product_cpu: Vec<Vec<f64>>,
    /// Per-repetition peak resident set in MiB (set-up and both passes).
    pub peak_rss_mib: Vec<f64>,
    /// Seconds the process's one cold `autotune::tuned()` took: raw log only.
    pub cold_autotune_s: f64,
    /// Images one pass trains.
    pub images_per_pass: f64,
    /// Every repetition's samples, for the raw log.
    pub rep_log: Vec<Json>,
}

impl Timed {
    pub fn push(&mut self, rep: Rep) {
        self.rep_log.push(
            Json::obj()
                .with("rep", self.rep_log.len() + 1)
                .with("product_first", rep.product_first)
                .with("setup_s", rep.setup_s)
                .with("autotune_s", rep.autotune_s)
                .with("peak_rss_mib", rep.peak_rss_mib)
                .with("product_wall_s", rep.product_s.iter().sum::<f64>())
                .with("product_cpu_s", rep.product_cpu_s.iter().sum::<f64>())
                .with("sync_wall_s", rep.sync_s.iter().sum::<f64>())
                .with("product_batch_s", rep.product_s.clone())
                .with("product_batch_cpu_s", rep.product_cpu_s.clone())
                .with("sync_batch_s", rep.sync_s.clone()),
        );
        self.setup_s.push(rep.setup_s);
        self.autotune_s.push(rep.autotune_s);
        self.peak_rss_mib.push(rep.peak_rss_mib);
        self.product.push(rep.product_s);
        self.product_batch.push(rep.product_batch_s);
        self.product_cpu.push(rep.product_cpu_s);
        self.sync.push(rep.sync_s);
    }
}

/// The five metrics that are exact functions of `(workload, seed)`.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub sim_images_per_s: f64,
    pub sim_gpu_idle_frac: f64,
    pub comm_bytes_per_image: f64,
    pub device_mem_mb: f64,
    pub final_psnr_db: f64,
    pub initial_psnr_db: f64,
    /// Checksum of the reference final model(s).
    pub checksum: u64,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub timed: Timed,
    pub counts: Counts,
    pub layers: Layers,
    pub spans: Vec<Span>,
}

/// Runs passes under the watchdog, converts panics and reported mismatches
/// into failed batches, and keeps the run-wide counts.
#[derive(Debug)]
pub struct Guard {
    dog: Watchdog,
    limit: Duration,
    /// When the timed repetitions have to be over; `None` runs the
    /// workload's minimum and no more.
    deadline: Option<Instant>,
    slowest_rep: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Guard {
    pub fn new() -> Self {
        Guard {
            dog: Watchdog::start(),
            limit: COLD_PASS_LIMIT,
            deadline: None,
            slowest_rep: Duration::ZERO,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Lets the timed repetitions go on until `deadline`.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Whether to run another timed repetition after `done` of them, the
    /// last of which took `last`: always up to the workload's minimum, then
    /// for as long as one as slow as the slowest so far still ends before the
    /// run's deadline.  Disturbance on the host comes in bursts of ten
    /// seconds and more, so what steadies the per-index minimum is the time
    /// the repetitions span, and `--seconds` is that time.
    pub fn another_rep(&mut self, done: usize, min: usize, last: Duration) -> bool {
        self.slowest_rep = self.slowest_rep.max(last);
        done < min
            || (done < MAX_REPETITIONS
                && self
                    .deadline
                    .is_some_and(|d| Instant::now() + self.slowest_rep < d))
    }

    /// Sets the per-pass deadline from the warm-up repetition's slowest pass.
    pub fn calibrate(&mut self, warmup_pass_seconds: f64) {
        self.limit = watchdog::pass_limit(warmup_pass_seconds);
    }

    /// Runs one pass of `batches` batches.  `Err` from the pass (a final
    /// model that differs from the reference, a leaked staging buffer) and a
    /// panic inside it both fail every batch of the pass.  A pass of no
    /// batches (the probes) is not a walk of the trajectory, so the warm-up
    /// says nothing about how long it takes: it keeps the cold deadline.
    pub fn pass<T>(
        &mut self,
        name: &str,
        batches: usize,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        let limit = if batches == 0 {
            COLD_PASS_LIMIT
        } else {
            self.limit
        };
        self.dog.arm(name, batches, limit);
        // The closure owns or exclusively borrows everything it mutates, and
        // a failed pass's state is dropped, never read again.
        let result = catch_unwind(AssertUnwindSafe(f));
        let out = match result {
            Ok(Ok(value)) => Some(value),
            Ok(Err(problem)) => {
                self.problems.push(format!("{name}: {problem}"));
                None
            }
            Err(panic) => {
                let text = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("(non-string panic)");
                self.problems.push(format!("{name}: panicked: {text}"));
                None
            }
        };
        let failed = if out.is_some() { 0 } else { batches as u64 };
        self.attempted += batches as u64;
        self.failed += failed;
        self.dog.disarm(batches as u64, failed);
        out
    }

    /// Runs the product pass and the synchronous pass of repetition `r`
    /// (0 = the warm-up), alternating which goes first so neither always
    /// inherits the other's cache state.
    pub fn both_passes<P>(
        &mut self,
        r: usize,
        batches: usize,
        product_name: &str,
        product: impl FnOnce() -> Result<P, String>,
        sync: impl FnOnce() -> Result<Vec<f64>, String>,
    ) -> Option<(P, Vec<f64>)> {
        if product_first(r) {
            let p = self.pass(product_name, batches, product)?;
            Some((p, self.pass("sync", batches, sync)?))
        } else {
            let s = self.pass("sync", batches, sync)?;
            Some((self.pass(product_name, batches, product)?, s))
        }
    }

    /// Records a failed run-level check (a set-up that was refused).
    pub fn problem(&mut self, text: String) {
        self.problems.push(text);
    }

    /// Unwraps a reading the run cannot go on without, recording why not.
    pub fn require<T>(&mut self, reading: Option<T>, what: &str) -> Option<T> {
        if reading.is_none() {
            self.problem(format!("cannot read {what}"));
        }
        reading
    }

    /// Ends the watchdog thread and hands back `(attempted, failed, problems)`.
    pub fn finish(self) -> (u64, u64, Vec<String>) {
        (self.attempted, self.failed, self.problems)
    }
}

/// What a process of the product does once at start-up and
/// `autotune::tuned()` then caches, done again through the same public
/// functions: host probe, calibration micro-benches, knob derivation.  Every
/// repetition's set-up begins with it, so set-up time has as many samples of
/// it as of everything else.  Returns the seconds it took; the knobs are
/// dropped, every workload pins its own.
pub fn startup_calibration() -> f64 {
    let start = Instant::now();
    let topology = sim_device::HostTopology::detect();
    let calibration = clm_runtime::Calibration::run();
    std::hint::black_box(clm_runtime::derive_knobs(&topology, &calibration));
    start.elapsed().as_secs_f64()
}

/// Whether repetition `r` runs its product pass before its sync pass.
pub fn product_first(r: usize) -> bool {
    r.is_multiple_of(2)
}

/// Per-repetition throughput, for the spread each wall-clock metric carries
/// in the raw log.
pub fn rep_rates(work: f64, reps: &[Vec<f64>]) -> Vec<f64> {
    reps.iter().map(|r| work / r.iter().sum::<f64>()).collect()
}

/// `median`, but 0 for an empty sample: a layer the workload never exercised.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// Calls a probe makes when they are cheap (choosing-metrics: at least
/// twenty).
pub const PROBE_SAMPLES: usize = 20;
/// Calls a probe makes however dear they are.
const PROBE_MIN_SAMPLES: usize = 5;
/// Once a probe's timed calls add up to this, it stops early: twenty
/// checkpoint round trips of a 100 k-row model would take longer than every
/// timed pass of the run together.
const PROBE_BUDGET_SECONDS: f64 = 0.3;

/// Median seconds of one call of `f` on a state `prepare` builds untimed:
/// [`PROBE_SAMPLES`] calls, or as many as fit the probe's time budget but at
/// least [`PROBE_MIN_SAMPLES`].
pub fn probe_with<S>(mut prepare: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let mut samples = Vec::with_capacity(PROBE_SAMPLES);
    let mut spent = 0.0;
    while samples.len() < PROBE_SAMPLES
        && (samples.len() < PROBE_MIN_SAMPLES || spent < PROBE_BUDGET_SECONDS)
    {
        let state = prepare();
        let t = std::time::Instant::now();
        f(state);
        let s = t.elapsed().as_secs_f64();
        spent += s;
        samples.push(s);
    }
    stats::median(&samples)
}

/// [`probe_with`] for a call that needs no per-call state.
pub fn probe(mut f: impl FnMut()) -> f64 {
    probe_with(|| (), |()| f())
}

/// `work / seconds`, 0 when nothing was timed.
pub fn rate(work: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        work / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitions_stop_at_the_minimum_without_time_and_at_the_cap_with_it() {
        let rep = Duration::from_secs(2);
        let mut untimed = Guard::new();
        assert!(untimed.another_rep(4, 5, rep));
        assert!(!untimed.another_rep(5, 5, rep));

        let mut spent = Guard::new().with_deadline(Some(Instant::now()));
        assert!(spent.another_rep(4, 5, rep));
        assert!(!spent.another_rep(5, 5, rep));

        let hour = Instant::now() + Duration::from_secs(3600);
        let mut timed = Guard::new().with_deadline(Some(hour));
        assert!(timed.another_rep(5, 5, rep));
        assert!(timed.another_rep(MAX_REPETITIONS - 1, 5, rep));
        assert!(!timed.another_rep(MAX_REPETITIONS, 5, rep));
        // One repetition as slow as the slowest so far would not end in time.
        assert!(!timed.another_rep(6, 5, Duration::from_secs(3601)));
        assert!(!timed.another_rep(7, 5, rep));
    }
}
