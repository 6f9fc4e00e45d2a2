//! Seeded, deterministic fault injection for the simulated lanes.
//!
//! Production training fleets lose devices, hit flaky interconnects and
//! stall on oversubscribed hosts; a runtime that only ever sees a perfect
//! world cannot claim robustness.  This module supplies the fault model the
//! execution backends inject against:
//!
//! * **Transient op failures** — a gather, all-reduce step or CPU Adam
//!   chunk fails and is retried under a bounded [`RetryPolicy`] with
//!   deterministic exponential backoff.  On the simulated timelines the
//!   failed attempts and backoff waits are priced into the op's duration;
//!   the threaded backend re-executes the (pure) work for real.
//! * **Straggler lanes** — a lane runs slow for its next K ops
//!   ([`StragglerSpec`]), modelling an oversubscribed worker.
//! * **Permanent device loss** — at a chosen batch boundary a sharded run
//!   loses devices ([`DeviceLossSpec`]) and must drain, repartition onto
//!   the survivors and continue.
//! * **Pinned-staging-buffer exhaustion** — a run of acquisitions from the
//!   staging pool is denied ([`ExhaustionSpec`]), forcing the backpressure
//!   path.
//!
//! Everything is driven by one splitmix64 stream seeded from
//! [`FaultSpec::seed`], so a fault schedule is a pure function of the spec:
//! two runs with the same spec see byte-identical fault sequences, which is
//! what lets the conformance suite assert that a faulted run converges to a
//! final model bit-identical to the fault-free one.
//!
//! Faults reach the scheduler through the [`FaultPlan`] a backend installs
//! on its [`Timeline`](crate::Timeline)s
//! ([`install_fault_plan`](crate::Timeline::install_fault_plan)): the shared
//! handle is cheaply cloneable, lockable from worker threads, and readable
//! after the run for [`FaultStats`] accounting.

use crate::timeline::{Lane, OpKind};
use std::sync::{Arc, Mutex};

/// Bounded-retry policy with deterministic exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum failed attempts a transient fault may cost before the op
    /// succeeds (simulated lanes) or the lane aborts (threaded timeouts).
    /// Zero disables transient injection entirely.
    pub max_retries: u32,
    /// Backoff after the first failed attempt, in simulated seconds.
    pub backoff_base: f64,
    /// Multiplier applied to the backoff after each further failure.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: 100.0e-6,
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Total backoff of `attempts` consecutive failures:
    /// `base * (1 + factor + factor² + …)`, one term per failure.
    pub fn total_backoff(&self, attempts: u32) -> f64 {
        let mut wait = self.backoff_base;
        let mut total = 0.0;
        for _ in 0..attempts {
            total += wait;
            wait *= self.backoff_factor;
        }
        total
    }
}

/// A lane that runs slow: its next `ops` operations cost `factor`× their
/// fault-free duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerSpec {
    /// The straggling lane.
    pub lane: Lane,
    /// Duration multiplier (> 1 for a slowdown).
    pub factor: f64,
    /// Number of ops the slowdown lasts.
    pub ops: u64,
}

/// Permanent loss of `lose` devices at the `at_batch` boundary (before the
/// batch with that index runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceLossSpec {
    /// Global batch index at whose boundary the loss strikes.
    pub at_batch: u64,
    /// Devices lost (the highest-indexed ones; survivors keep their ranks).
    pub lose: usize,
}

/// Denial of `denials` consecutive staging-pool acquisitions starting at
/// the `at_acquire`-th acquire (0-based) of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExhaustionSpec {
    /// Acquire index at which denials begin.
    pub at_acquire: u64,
    /// Number of consecutive denials.
    pub denials: u32,
}

/// The full seeded fault schedule of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed of the splitmix64 stream transient draws come from.
    pub seed: u64,
    /// Per-op probability of a transient failure on an injectable op
    /// (gather, all-reduce step, CPU Adam chunk).
    pub transient_rate: f64,
    /// Cap on the total number of injected transients (keeps fault
    /// schedules finite on long runs).
    pub max_transients: u64,
    /// Retry/backoff policy applied to every transient.
    pub retry: RetryPolicy,
    /// Optional straggler lane.
    pub straggler: Option<StragglerSpec>,
    /// Optional permanent device loss.
    pub device_loss: Option<DeviceLossSpec>,
    /// Optional staging-pool exhaustion window.
    pub staging_exhaustion: Option<ExhaustionSpec>,
}

impl FaultSpec {
    /// A spec with no faults enabled, drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            transient_rate: 0.0,
            max_transients: 0,
            retry: RetryPolicy::default(),
            straggler: None,
            device_loss: None,
            staging_exhaustion: None,
        }
    }

    /// Enables transient op failures at `rate`, at most `max` of them.
    pub fn with_transients(mut self, rate: f64, max: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.transient_rate = rate;
        self.max_transients = max;
        self
    }

    /// Makes `lane` straggle by `factor`× for its next `ops` operations.
    pub fn with_straggler(mut self, lane: Lane, factor: f64, ops: u64) -> Self {
        assert!(factor >= 1.0, "a straggler slows down, factor must be >= 1");
        self.straggler = Some(StragglerSpec { lane, factor, ops });
        self
    }

    /// Loses `lose` devices at the `at_batch` boundary.
    pub fn with_device_loss(mut self, at_batch: u64, lose: usize) -> Self {
        self.device_loss = Some(DeviceLossSpec { at_batch, lose });
        self
    }

    /// Denies `denials` staging acquisitions starting at acquire
    /// `at_acquire`.
    pub fn with_staging_exhaustion(mut self, at_acquire: u64, denials: u32) -> Self {
        self.staging_exhaustion = Some(ExhaustionSpec {
            at_acquire,
            denials,
        });
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Running totals of every fault injected and recovered from; surfaced on
/// the per-batch and per-run execution reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Transient op failures injected.
    pub transients: u64,
    /// Failed attempts those transients cost (≥ `transients`).
    pub retries: u64,
    /// Simulated seconds spent backing off between attempts.
    pub backoff_seconds: f64,
    /// Ops slowed by the straggler lane.
    pub straggled_ops: u64,
    /// Extra simulated seconds the straggler added.
    pub straggle_seconds: f64,
    /// Staging-pool acquisitions denied by injected exhaustion.
    pub exhaustion_denials: u64,
    /// Permanent device-loss events fired.
    pub device_losses: u64,
    /// Real recv timeouts observed by threaded worker lanes.
    pub timeouts: u64,
    /// Lanes aborted after exhausting their retry budget.
    pub aborts: u64,
}

impl FaultStats {
    /// Counter-wise difference `self - earlier`; used to attribute faults
    /// to one batch out of a run-level accumulator.
    pub fn since(&self, earlier: &FaultStats) -> FaultStats {
        FaultStats {
            transients: self.transients - earlier.transients,
            retries: self.retries - earlier.retries,
            backoff_seconds: self.backoff_seconds - earlier.backoff_seconds,
            straggled_ops: self.straggled_ops - earlier.straggled_ops,
            straggle_seconds: self.straggle_seconds - earlier.straggle_seconds,
            exhaustion_denials: self.exhaustion_denials - earlier.exhaustion_denials,
            device_losses: self.device_losses - earlier.device_losses,
            timeouts: self.timeouts - earlier.timeouts,
            aborts: self.aborts - earlier.aborts,
        }
    }

    /// Whether any fault at all was recorded.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }
}

/// The fault (if any) injected into one scheduled op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpFault {
    /// No fault: the op runs at its submitted duration.
    None,
    /// A transient failure: the op re-executes `attempts` extra times and
    /// waits `backoff` seconds in between before succeeding.
    Transient {
        /// Failed attempts before the success.
        attempts: u32,
        /// Total backoff seconds across the failures.
        backoff: f64,
    },
    /// A straggler slowdown: the op costs `factor`× its duration.
    Straggle {
        /// Duration multiplier.
        factor: f64,
    },
}

impl OpFault {
    /// The duration the op actually costs under this fault: failed
    /// attempts re-execute the work, backoff waits in between, stragglers
    /// multiply.
    pub fn apply(&self, dur: f64) -> f64 {
        match *self {
            OpFault::None => dur,
            OpFault::Transient { attempts, backoff } => dur * f64::from(attempts + 1) + backoff,
            OpFault::Straggle { factor } => dur * factor,
        }
    }
}

/// Op kinds a transient failure may strike: the paper pipeline's gathers,
/// all-reduce steps and CPU Adam chunks.
fn transient_injectable(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::LoadParams | OpKind::AllReduce | OpKind::CpuAdamUpdate
    )
}

/// splitmix64 — tiny, seedable, and plenty for fault scheduling.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from the stream.
fn unit_draw(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[derive(Debug)]
struct FaultState {
    spec: FaultSpec,
    rng: u64,
    stats: FaultStats,
    transients_left: u64,
    straggles_left: u64,
    device_loss_pending: bool,
    acquires: u64,
    denials_used: u32,
}

impl FaultState {
    fn new(spec: FaultSpec) -> Self {
        FaultState {
            rng: spec.seed,
            stats: FaultStats::default(),
            transients_left: spec.max_transients,
            straggles_left: spec.straggler.map(|s| s.ops).unwrap_or(0),
            device_loss_pending: spec.device_loss.is_some(),
            acquires: 0,
            denials_used: 0,
            spec,
        }
    }

    /// Draws whether the next injectable op suffers a transient failure;
    /// returns `(failed_attempts, total_backoff)` when it does.
    fn draw_transient(&mut self, kind: OpKind) -> Option<(u32, f64)> {
        if !transient_injectable(kind)
            || self.transients_left == 0
            || self.spec.retry.max_retries == 0
        {
            return None;
        }
        if unit_draw(&mut self.rng) >= self.spec.transient_rate {
            return None;
        }
        let attempts =
            1 + (splitmix64(&mut self.rng) % u64::from(self.spec.retry.max_retries)) as u32;
        self.transients_left -= 1;
        let backoff = self.spec.retry.total_backoff(attempts);
        self.stats.transients += 1;
        self.stats.retries += u64::from(attempts);
        self.stats.backoff_seconds += backoff;
        Some((attempts, backoff))
    }

    /// Consumes one straggle slot if `lane` is the straggler.
    fn draw_straggle(&mut self, lane: Lane, dur: f64) -> Option<f64> {
        let s = self.spec.straggler?;
        if lane != s.lane || self.straggles_left == 0 || dur <= 0.0 {
            return None;
        }
        self.straggles_left -= 1;
        self.stats.straggled_ops += 1;
        self.stats.straggle_seconds += dur * (s.factor - 1.0);
        Some(s.factor)
    }
}

/// The shared handle to one run's fault schedule.
///
/// Cloning is cheap (an `Arc` bump): the engine keeps one handle for
/// boundary decisions (device loss, staging denials) and stats reads while
/// its per-batch [`Timeline`](crate::Timeline)s — and, in the threaded
/// backend, its worker lanes — hold others.
#[derive(Debug, Clone)]
pub struct FaultPlan(Arc<Mutex<FaultState>>);

impl FaultPlan {
    /// Creates the plan for `spec`.
    pub fn new(spec: FaultSpec) -> Self {
        FaultPlan(Arc::new(Mutex::new(FaultState::new(spec))))
    }

    fn state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // A panicking worker must not wedge fault accounting: the state is
        // plain counters, valid regardless of where the panic struck.
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Decides the fault for one simulated op about to be scheduled — what
    /// a [`Timeline`](crate::Timeline) with this plan installed asks for
    /// every op submitted to it.  Measured spans cannot be re-timed after
    /// the fact; real injection for those backends happens inside the
    /// worker lanes ([`transient_attempts`](Self::transient_attempts),
    /// [`straggle_factor`](Self::straggle_factor)).
    pub fn on_op(&self, kind: OpKind, lane: Lane, dur: f64) -> OpFault {
        let mut st = self.state();
        if let Some(factor) = st.draw_straggle(lane, dur) {
            return OpFault::Straggle { factor };
        }
        if dur > 0.0 {
            if let Some((attempts, backoff)) = st.draw_transient(kind) {
                return OpFault::Transient { attempts, backoff };
            }
        }
        OpFault::None
    }

    /// Snapshot of the fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.state().stats
    }

    /// The retry policy backends should apply to real (threaded) faults.
    pub fn retry(&self) -> RetryPolicy {
        self.state().spec.retry
    }

    /// Scales the backoff base by `factor` — how engines price backoff
    /// through their cost model (a cost-scaled run backs off in the same
    /// scaled time units its ops are costed in).
    pub fn scale_backoff(&self, factor: f64) {
        assert!(factor > 0.0, "backoff scale must be positive");
        self.state().spec.retry.backoff_base *= factor;
    }

    /// Fires the permanent device loss if its boundary has been reached:
    /// returns the number of devices to lose, exactly once.
    pub fn device_loss_at(&self, batch: u64) -> Option<usize> {
        let mut st = self.state();
        let dl = st.spec.device_loss?;
        if st.device_loss_pending && batch >= dl.at_batch {
            st.device_loss_pending = false;
            st.stats.device_losses += 1;
            Some(dl.lose)
        } else {
            None
        }
    }

    /// Registers one staging-pool acquisition; `true` means the acquire is
    /// denied by injected exhaustion and the caller must take its
    /// backpressure path.
    pub fn next_staging_acquire(&self) -> bool {
        let mut st = self.state();
        let index = st.acquires;
        st.acquires += 1;
        let Some(e) = st.spec.staging_exhaustion else {
            return false;
        };
        if index >= e.at_acquire && st.denials_used < e.denials {
            st.denials_used += 1;
            st.stats.exhaustion_denials += 1;
            true
        } else {
            false
        }
    }

    /// Draws a transient failure for real (threaded) work of `kind`;
    /// returns the number of failed attempts the lane must re-execute.
    pub fn transient_attempts(&self, kind: OpKind) -> Option<u32> {
        self.state().draw_transient(kind).map(|(a, _)| a)
    }

    /// Draws a straggle for real (threaded) work on `lane`; returns the
    /// slowdown factor the lane must emulate by re-executing its work.
    pub fn straggle_factor(&self, lane: Lane) -> Option<f64> {
        // Real spans have no pre-known duration; account one straggle slot
        // without a seconds figure.
        let mut st = self.state();
        let s = st.spec.straggler?;
        if lane != s.lane || st.straggles_left == 0 {
            return None;
        }
        st.straggles_left -= 1;
        st.stats.straggled_ops += 1;
        Some(s.factor)
    }

    /// Records one real recv timeout observed by a threaded lane.
    pub fn note_timeout(&self) {
        self.state().stats.timeouts += 1;
    }

    /// Records one lane abort (retry budget exhausted).
    pub fn note_abort(&self) {
        self.state().stats.aborts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Timeline;

    #[test]
    fn total_backoff_is_a_geometric_sum() {
        let r = RetryPolicy {
            max_retries: 5,
            backoff_base: 1.0,
            backoff_factor: 2.0,
        };
        assert_eq!(r.total_backoff(0), 0.0);
        assert_eq!(r.total_backoff(1), 1.0);
        assert_eq!(r.total_backoff(3), 1.0 + 2.0 + 4.0);
    }

    #[test]
    fn fault_schedule_is_a_pure_function_of_the_spec() {
        let spec = FaultSpec::new(42).with_transients(0.5, 100);
        let a = FaultPlan::new(spec);
        let b = FaultPlan::new(spec);
        let mut faults_a = Vec::new();
        let mut faults_b = Vec::new();
        for _ in 0..200 {
            faults_a.push(a.on_op(OpKind::LoadParams, Lane::GpuComm, 1.0));
            faults_b.push(b.on_op(OpKind::LoadParams, Lane::GpuComm, 1.0));
        }
        assert_eq!(faults_a, faults_b);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().transients > 0, "rate 0.5 over 200 draws must hit");
    }

    #[test]
    fn transients_only_strike_injectable_kinds_and_respect_the_cap() {
        let plan = FaultPlan::new(FaultSpec::new(7).with_transients(1.0, 3));
        // Forward/Backward are never injectable.
        assert_eq!(
            plan.on_op(OpKind::Forward, Lane::GpuCompute, 1.0),
            OpFault::None
        );
        for _ in 0..3 {
            assert!(matches!(
                plan.on_op(OpKind::LoadParams, Lane::GpuComm, 1.0),
                OpFault::Transient { .. }
            ));
        }
        // Cap reached: rate 1.0 no longer fires.
        assert_eq!(
            plan.on_op(OpKind::LoadParams, Lane::GpuComm, 1.0),
            OpFault::None
        );
        let stats = plan.stats();
        assert_eq!(stats.transients, 3);
        assert!(stats.retries >= 3);
        assert!(stats.backoff_seconds > 0.0);
    }

    #[test]
    fn straggler_slows_exactly_k_ops_on_its_lane() {
        let plan = FaultPlan::new(FaultSpec::new(1).with_straggler(Lane::CpuAdam, 3.0, 2));
        // Wrong lane: untouched.
        assert_eq!(
            plan.on_op(OpKind::CpuAdamUpdate, Lane::GpuCompute, 1.0),
            OpFault::None
        );
        assert_eq!(
            plan.on_op(OpKind::CpuAdamUpdate, Lane::CpuAdam, 2.0),
            OpFault::Straggle { factor: 3.0 }
        );
        assert_eq!(
            plan.on_op(OpKind::CpuAdamUpdate, Lane::CpuAdam, 1.0),
            OpFault::Straggle { factor: 3.0 }
        );
        // Budget spent.
        assert_eq!(
            plan.on_op(OpKind::CpuAdamUpdate, Lane::CpuAdam, 1.0),
            OpFault::None
        );
        let stats = plan.stats();
        assert_eq!(stats.straggled_ops, 2);
        assert_eq!(stats.straggle_seconds, 2.0 * 2.0 + 1.0 * 2.0);
    }

    #[test]
    fn op_fault_pricing_inflates_durations() {
        assert_eq!(OpFault::None.apply(2.0), 2.0);
        assert_eq!(
            OpFault::Transient {
                attempts: 2,
                backoff: 0.5
            }
            .apply(2.0),
            2.0 * 3.0 + 0.5
        );
        assert_eq!(OpFault::Straggle { factor: 4.0 }.apply(2.0), 8.0);
    }

    #[test]
    fn timeline_with_installed_sink_prices_faults_into_the_schedule() {
        let plan = FaultPlan::new(FaultSpec::new(3).with_transients(1.0, 1).with_retry(
            RetryPolicy {
                max_retries: 1,
                backoff_base: 0.25,
                backoff_factor: 2.0,
            },
        ));
        let mut faulted = Timeline::new();
        faulted.install_fault_plan(plan.clone());
        let mut clean = Timeline::new();
        for t in [&mut faulted, &mut clean] {
            t.push(OpKind::LoadParams, Lane::GpuComm, 1.0, &[]);
            t.push(OpKind::Forward, Lane::GpuCompute, 1.0, &[]);
        }
        // rate 1.0, max_retries 1 → exactly one extra attempt + 0.25 backoff
        // on the load; the forward is untouched.
        assert_eq!(faulted.ops()[0].dur, 1.0 * 2.0 + 0.25);
        assert_eq!(faulted.ops()[1].dur, 1.0);
        assert_eq!(clean.ops()[0].dur, 1.0);
        assert_eq!(plan.stats().transients, 1);
    }

    #[test]
    fn device_loss_fires_exactly_once_at_its_boundary() {
        let plan = FaultPlan::new(FaultSpec::new(0).with_device_loss(2, 2));
        assert_eq!(plan.device_loss_at(0), None);
        assert_eq!(plan.device_loss_at(1), None);
        assert_eq!(plan.device_loss_at(2), Some(2));
        assert_eq!(
            plan.device_loss_at(3),
            None,
            "a loss is permanent, not periodic"
        );
        assert_eq!(plan.stats().device_losses, 1);
    }

    #[test]
    fn staging_exhaustion_denies_a_contiguous_window() {
        let plan = FaultPlan::new(FaultSpec::new(0).with_staging_exhaustion(2, 2));
        let denials: Vec<bool> = (0..6).map(|_| plan.next_staging_acquire()).collect();
        assert_eq!(denials, vec![false, false, true, true, false, false]);
        assert_eq!(plan.stats().exhaustion_denials, 2);
    }

    #[test]
    fn threaded_draw_paths_share_the_budget_with_the_sink() {
        let plan = FaultPlan::new(FaultSpec::new(9).with_transients(1.0, 2).with_straggler(
            Lane::GpuComm,
            2.0,
            1,
        ));
        assert!(plan.transient_attempts(OpKind::LoadParams).is_some());
        assert!(plan.transient_attempts(OpKind::Forward).is_none());
        assert!(plan.straggle_factor(Lane::GpuComm).is_some());
        assert!(plan.straggle_factor(Lane::GpuComm).is_none());
        plan.note_timeout();
        plan.note_abort();
        let stats = plan.stats();
        assert_eq!(stats.transients, 1);
        assert_eq!(stats.straggled_ops, 1);
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.aborts, 1);
    }

    #[test]
    fn stats_since_attributes_a_batch_delta() {
        let plan = FaultPlan::new(FaultSpec::new(5).with_transients(1.0, 10));
        let before = plan.stats();
        assert!(!before.any());
        plan.transient_attempts(OpKind::AllReduce);
        plan.transient_attempts(OpKind::AllReduce);
        let delta = plan.stats().since(&before);
        assert_eq!(delta.transients, 2);
        assert!(delta.any());
    }

    #[test]
    fn scaled_backoff_prices_through_the_cost_model() {
        let plan = FaultPlan::new(FaultSpec::new(0).with_transients(1.0, 1).with_retry(
            RetryPolicy {
                max_retries: 1,
                backoff_base: 1.0,
                backoff_factor: 2.0,
            },
        ));
        plan.scale_backoff(0.5);
        assert_eq!(plan.retry().backoff_base, 0.5);
    }
}
