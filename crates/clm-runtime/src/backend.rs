//! The execution-backend abstraction.
//!
//! Three executors walk the op graph [`clm_core::emit_system`] emits,
//! doing the trainer's stepwise calls inside its hooks, and therefore
//! produce identical numerics; they differ in what their schedules *are*.
//! All three implement [`ExecutionBackend`]:
//!
//! * [`clm_core::Trainer`] — the **synchronous** executor and the numerics
//!   oracle: a [`clm_core::SerialRun`] at prefetch window 0, every step on
//!   the calling thread.  Its [`backend_name`](ExecutionBackend::backend_name)
//!   is `"synchronous"`, and its report's timeline is the measured span of
//!   every hook ([`Trainer::train_batch_spanned`]).
//! * [`PipelinedEngine`](crate::PipelinedEngine) — the **simulated**
//!   backend, at any device count: the same `SerialRun` at the configured
//!   window, executing inline on the calling thread while a discrete-event
//!   [`Timeline`] models when each operation would have run on each
//!   simulated device's lane group.  It is the source of the paper-scale
//!   schedule metrics (Figures 11–15); its
//!   [`backend_name`](ExecutionBackend::backend_name) is `"simulated"` at
//!   one device and `"sharded"` above.
//! * [`ThreadedBackend`](crate::ThreadedBackend) — the **threaded**
//!   backend: the gather lane and the CPU Adam lane run on real worker
//!   threads, so communication and optimiser work genuinely overlap the
//!   render compute and the speedup is measurable in wall-clock time.
//!
//! [`ExecutionReport`] is the one report every executor returns: the
//! numeric batch outcome, the measured wall-clock time and the batch's
//! [`Timeline`], with the per-lane busy seconds, makespan and traffic read
//! off it.  For the simulated backend the timeline is the costed schedule
//! in simulated device seconds; for the other two it is measured spans.
//!
//! The trait is what the callers that loop over *every* executor hold: the
//! conformance suite and the trace recorder drive one list of
//! `Box<dyn ExecutionBackend>`.  Everything executor-specific — the
//! configuration, the staging pool's statistics, fault-plan installation —
//! is an inherent method of the concrete type, because every caller that
//! needs it already holds one (the service's sessions own a
//! [`PipelinedEngine`](crate::PipelinedEngine)).

use crate::report::{ExecutionReport, LaneBusy};
use clm_core::Trainer;
use gs_core::camera::Camera;
use gs_render::Image;
use gs_scene::Dataset;
use sim_device::Timeline;
use std::time::Instant;

/// A trainer execution strategy: how one batch's staged gathers, render
/// compute and optimiser updates are laid out on the host.
pub trait ExecutionBackend: std::fmt::Debug {
    /// Short stable identifier (`"synchronous"`, `"simulated"`,
    /// `"sharded"`, `"threaded"`) used in benchmark output and trace
    /// headers.
    fn backend_name(&self) -> &'static str;

    /// The wrapped trainer (model, config, counters).
    fn trainer(&self) -> &Trainer;

    /// Executes one training batch.
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty.
    fn execute_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> ExecutionReport;

    /// Trains over the whole dataset once (views grouped into batches in
    /// trajectory order), returning the per-batch reports.
    fn execute_epoch(&mut self, dataset: &Dataset, targets: &[Image]) -> Vec<ExecutionReport> {
        assert_eq!(dataset.cameras.len(), targets.len());
        let batch = self.trainer().config().batch_size.max(1);
        let mut reports = Vec::new();
        let mut start = 0;
        while start < dataset.cameras.len() {
            let end = (start + batch).min(dataset.cameras.len());
            reports.push(self.execute_batch(&dataset.cameras[start..end], &targets[start..end]));
            start = end;
        }
        reports
    }
}

impl ExecutionBackend for Trainer {
    fn backend_name(&self) -> &'static str {
        "synchronous"
    }

    fn trainer(&self) -> &Trainer {
        self
    }

    /// [`Trainer::train_batch_spanned`] plus the wall clock: the lanes are
    /// read off the measured spans, and nothing faults or ships to a lane.
    fn execute_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> ExecutionReport {
        let wall_start = Instant::now();
        let mut timeline = Timeline::new();
        let batch = self.train_batch_spanned(cameras, targets, &mut timeline);
        ExecutionReport {
            batch,
            lanes: LaneBusy::of(&timeline, self.config().num_devices),
            timeline,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
            faults: Default::default(),
            adam_rows_shipped: 0,
        }
    }
}
