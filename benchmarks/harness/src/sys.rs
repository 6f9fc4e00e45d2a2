//! The two system calls the harness makes itself, because `std` has no
//! spelling for them and the offline build has no `libc` crate: the process
//! CPU clock and the CPU affinity mask.  Linux only, like everything that
//! reads `/proc`.
//!
//! # Pinning to one CPU (every run)
//!
//! Two reasons, both measured on the 2-vCPU reference host.  Whether the
//! threaded backend's lanes get the second vCPU at the same time as the
//! first is the host's decision, not the program's: `offload_bound` trained
//! 25.5 images/s for one half-hour (process CPU time 1.2× wall) and 20.6 for
//! the next (CPU time = wall, what it also trains on one CPU), same binary,
//! same seeds.  And `clm_serve::Session::build_backend` takes its compute
//! width from `RuntimeConfig::autotuned()`, i.e. from the host's effective
//! core count; nothing outside the crate can pin it.  At width 2 every
//! sub-millisecond render of a small tenant enters half a dozen
//! `ComputePool` regions, and the same binary then lands, per process, in
//! one of two modes 40 % apart.  `HostTopology::detect` honours the affinity
//! mask, so a process that restricts itself to one CPU *before* the first
//! probe makes the service resolve `compute_threads = 1` — the value the
//! training workloads pin through their config.

/// Room for 1024 CPUs, the kernel's default `CONFIG_NR_CPUS` ceiling on the
/// hosts this runs on; a host with more reports an error instead of pinning.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `struct timespec` of the 64-bit Linux ABIs: two 64-bit signed fields.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>` on Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has consumed, user and system, every thread,
/// living or already joined, at nanosecond resolution.  (`/proc/self/stat`
/// has the same number in 10 ms ticks — four ticks to a `serve_mixed` step.)
/// Steal time is not in it; spinning is.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_seconds() -> Option<f64> {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `Timespec` whose layout is the
    // `struct timespec` of the 64-bit Linux ABIs this function is compiled
    // for; the call writes that one struct and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    (rc == 0).then_some(now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_seconds() -> Option<f64> {
    None
}

/// Restricts the calling thread — and every thread it spawns afterwards — to
/// the highest-numbered CPU it is currently allowed on (CPU 0 is where most
/// hosts deliver interrupts).  Returns that CPU's index.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes, and
    // pid 0 names the calling thread; the call writes at most `bytes` bytes.
    let rc = unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| "the affinity mask names no CPU".to_string())?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the call
    // only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, bytes, one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("pinning to one CPU is implemented for Linux only".to_string())
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_not_with_sleep() {
        let start = process_cpu_seconds().expect("cpu clock");
        let mut x = 0u64;
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let worked = process_cpu_seconds().expect("cpu clock") - start;
        assert!(
            worked > 0.015,
            "30 ms of spinning cost {worked} CPU seconds"
        );
        let before = process_cpu_seconds().expect("cpu clock");
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = process_cpu_seconds().expect("cpu clock") - before;
        // Other tests run on other threads of this process, so "little", not
        // "nothing" — on an idle process this is microseconds.
        assert!(slept.is_finite() && slept >= 0.0);
    }

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        // On a thread of its own, so the test runner's other threads keep
        // their mask.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pins");
            assert_eq!(
                std::thread::available_parallelism().map(usize::from).ok(),
                Some(1)
            );
            // Pinning again is idempotent: the one allowed CPU is the highest.
            assert_eq!(pin_to_one_cpu(), Ok(cpu));
        })
        .join()
        .expect("pinning thread");
    }
}
