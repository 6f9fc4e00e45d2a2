//! A per-pass deadline.  The repo has a known way to park forever (ROADMAP
//! P0: `ComputePool` self-deadlock); a benchmark that inherits it must end in
//! a diagnosis and a non-zero exit, not in the driver's timeout.

use crate::procfs;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exit code of a run the watchdog cut off.
pub const EXIT_WATCHDOG: i32 = 3;

/// Where the driver thread is, as far as the harness itself knows.
#[derive(Debug, Clone, Default)]
struct Progress {
    pass: String,
    batch: usize,
    batches: usize,
    span: Option<&'static str>,
    /// Batches attempted in passes that already ended.
    attempted_before: u64,
    /// Batches that failed in passes that already ended.
    failed_before: u64,
}

static PROGRESS: Mutex<Option<Progress>> = Mutex::new(None);

fn with_progress(f: impl FnOnce(&mut Progress)) {
    // A poisoned lock means another thread panicked mid-update of plain
    // fields; they are still good enough for a diagnosis.
    let mut guard = PROGRESS.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Progress::default));
}

/// Records which batch of the current pass is running.
pub fn note_batch(batch: usize) {
    with_progress(|p| p.batch = batch);
}

/// Records the innermost open span (traced pass only).
pub fn note_span(span: Option<&'static str>) {
    with_progress(|p| p.span = span);
}

#[derive(Debug)]
struct Shared {
    deadline: Option<Instant>,
    stop: bool,
}

/// The watchdog thread.  Arm it around each pass; dropping it ends and joins
/// the thread.
#[derive(Debug)]
pub struct Watchdog {
    shared: Arc<(Mutex<Shared>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start() -> Self {
        let shared = Arc::new((
            Mutex::new(Shared {
                deadline: None,
                stop: false,
            }),
            Condvar::new(),
        ));
        let for_thread = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("bench-watchdog".to_string())
            .spawn(move || watch(&for_thread))
            .expect("spawn watchdog thread");
        Watchdog {
            shared,
            handle: Some(handle),
        }
    }

    /// Arms the deadline for a pass of `batches` batches.
    pub fn arm(&self, pass: &str, batches: usize, limit: Duration) {
        with_progress(|p| {
            p.pass = pass.to_string();
            p.batch = 0;
            p.batches = batches;
            p.span = None;
        });
        self.set(Some(Instant::now() + limit));
    }

    /// Disarms after a pass that ended on its own, recording its outcome so
    /// a later expiry reports run-wide counts.
    pub fn disarm(&self, attempted: u64, failed: u64) {
        self.set(None);
        with_progress(|p| {
            p.attempted_before += attempted;
            p.failed_before += failed;
        });
    }

    fn set(&self, deadline: Option<Instant>) {
        let (lock, cv) = &*self.shared;
        lock.lock().expect("watchdog state lock").deadline = deadline;
        cv.notify_all();
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, cv) = &*self.shared;
        // The watchdog thread never panics while holding this lock.
        lock.lock().unwrap_or_else(|e| e.into_inner()).stop = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            // A panic in the watchdog thread has already been printed.
            let _ = handle.join();
        }
    }
}

fn watch(shared: &(Mutex<Shared>, Condvar)) {
    let (lock, cv) = shared;
    let mut state = lock.lock().expect("watchdog state lock");
    loop {
        if state.stop {
            return;
        }
        state = match state.deadline {
            None => cv.wait(state).expect("watchdog state lock"),
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    drop(state);
                    expire();
                }
                cv.wait_timeout(state, deadline - now)
                    .expect("watchdog state lock")
                    .0
            }
        };
    }
}

/// Writes the diagnosis and ends the process.  The wedged pass cannot be
/// unwound from outside, so this is `exit`, not a return.
fn expire() -> ! {
    let p = PROGRESS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or_default();
    let remaining = p.batches.saturating_sub(p.batch) as u64;
    eprintln!(
        "WATCHDOG: pass {:?} passed its deadline at batch {} of {}; last open span: {}",
        p.pass,
        p.batch,
        p.batches,
        p.span.unwrap_or("(none: untraced pass)"),
    );
    eprintln!(
        "WATCHDOG: attempted {} failed {} (the {} unfinished batches of this pass count as failed)",
        p.attempted_before + p.batches as u64,
        p.failed_before + remaining,
        remaining,
    );
    for line in procfs::thread_states() {
        eprintln!("WATCHDOG: {line}");
    }
    std::process::exit(EXIT_WATCHDOG);
}

/// The per-pass limit: ten times what the warm-up repetition's pass took,
/// never under thirty seconds.
pub fn pass_limit(warmup_pass_seconds: f64) -> Duration {
    Duration::from_secs_f64((10.0 * warmup_pass_seconds).max(30.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_is_ten_times_warmup_with_a_floor() {
        assert_eq!(pass_limit(0.5), Duration::from_secs(30));
        assert_eq!(pass_limit(7.0), Duration::from_secs(70));
    }

    #[test]
    fn armed_and_disarmed_watchdog_stops_cleanly() {
        let dog = Watchdog::start();
        dog.arm("unit", 4, Duration::from_secs(3600));
        note_batch(2);
        note_span(Some("plan"));
        dog.disarm(4, 0);
        drop(dog);
    }
}
