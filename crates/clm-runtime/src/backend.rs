//! The execution-backend abstraction.
//!
//! Three ways to run a batch walk the op graph [`clm_core::emit_system`]
//! emits, doing the trainer's stepwise calls inside its hooks, and
//! therefore produce identical numerics; they differ in what their
//! schedules *are*:
//!
//! * [`clm_core::Trainer::train_batch`] — the **synchronous** reference: a
//!   [`clm_core::SerialRun`] at prefetch window 0, every step on the
//!   calling thread.  It is the numerics oracle and not (yet) an
//!   [`ExecutionBackend`].
//! * [`PipelinedEngine`](crate::PipelinedEngine) — the **simulated**
//!   backend, at any device count: the same `SerialRun` at the configured
//!   window, executing inline on the calling thread while a discrete-event
//!   [`Timeline`](sim_device::Timeline) models when each operation would
//!   have run on each simulated device's lane group.  It is the source of
//!   the paper-scale schedule metrics (Figures 11–15); its
//!   [`backend_name`](ExecutionBackend::backend_name) is `"simulated"` at
//!   one device and `"sharded"` above.
//! * [`ThreadedBackend`](crate::ThreadedBackend) — the **threaded**
//!   backend: the gather lane and the CPU Adam lane run on real worker
//!   threads, so communication and optimiser work genuinely overlap the
//!   render compute and the speedup is measurable in wall-clock time.
//!
//! [`ExecutionReport`] is the one report every backend returns: the numeric
//! batch outcome, the measured wall-clock time and the batch's
//! [`Timeline`](sim_device::Timeline), with the per-lane busy seconds,
//! makespan and traffic read off it.  For the simulated backend the
//! timeline is the costed schedule in simulated device seconds; for the
//! threaded backend it is the measured spans of its threads.
//!
//! The trait is what the callers that loop over *every* backend hold: the
//! conformance suite and the trace recorder drive a `dyn ExecutionBackend`.
//! Everything backend-specific — the staging pool's statistics, fault-plan
//! installation — is an inherent method of the concrete type, because every
//! caller that needs it already holds one (the service's sessions own a
//! [`PipelinedEngine`](crate::PipelinedEngine)).

use crate::report::ExecutionReport;
use clm_core::Trainer;
use gs_core::camera::Camera;
use gs_render::Image;
use gs_scene::Dataset;

/// A trainer execution strategy: how one batch's staged gathers, render
/// compute and optimiser updates are laid out on the host.
pub trait ExecutionBackend: std::fmt::Debug {
    /// Short stable identifier (`"simulated"`, `"sharded"`, `"threaded"`)
    /// used in benchmark output and trace headers.
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

    /// Mean PSNR of the current model over a set of posed images.
    fn evaluate_psnr(&self, cameras: &[Camera], targets: &[Image]) -> f32 {
        self.trainer().evaluate_psnr(cameras, targets)
    }
}
