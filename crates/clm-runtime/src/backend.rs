//! The execution-backend abstraction.
//!
//! Three ways to run a batch drive the trainer through the same stepwise
//! `plan → begin → stage/process/apply → finish` sequence and therefore
//! produce identical numerics; they differ in what their schedules *are*:
//!
//! * [`clm_core::Trainer::train_batch`] — the **synchronous** reference:
//!   every step back to back on the calling thread, no schedule at all.  It
//!   is the numerics oracle and not an [`ExecutionBackend`].
//! * [`PipelinedEngine`](crate::PipelinedEngine) — the **simulated**
//!   backend, at any device count: every lane executes inline on the
//!   calling thread while a discrete-event
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
//! [`ExecutionReport`] is the common currency: the numeric batch outcome
//! plus measured wall-clock time and per-lane busy seconds.  For the
//! simulated backend the lane times are simulated device seconds; for the
//! threaded backend they are measured thread busy times.
//!
//! Beyond executing batches the trait carries what every caller above the
//! runtime needs from *any* backend, so the service, the chaos matrix and
//! the trace recorder hold a `dyn ExecutionBackend` instead of matching on
//! concrete types: the pinned staging pool's statistics and capacity cap
//! (the per-tenant memory budget seam) and fault-plan installation.

use crate::pool::PoolStats;
use clm_core::{BatchReport, DensifyReport, Trainer};
use gs_core::camera::Camera;
use gs_render::Image;
use gs_scene::Dataset;
use sim_device::{FaultPlan, FaultStats};

/// Busy seconds of each pipeline lane over one batch.
///
/// Simulated device seconds for the simulated backend, measured thread busy
/// seconds for the threaded backend.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaneBusy {
    /// Forward/backward render compute (the would-be GPU lane).
    pub compute: f64,
    /// Parameter gathers / gradient stores (the communication lane).
    pub comm: f64,
    /// CPU Adam updates.
    pub adam: f64,
    /// Planning: frustum culling, ordering, finalisation analysis.
    pub scheduling: f64,
}

/// What one executed batch did, numerically and in time.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The numeric batch outcome (identical across backends by
    /// construction).
    pub batch: BatchReport,
    /// Number of views trained by the batch.
    pub views: usize,
    /// Prefetch lookahead window the batch ran with (the configured
    /// `prefetch_window`).
    pub prefetch_window: usize,
    /// Banded-render worker count the batch actually ran with — the
    /// resolved value, never the `0` "inherit/autotune" sentinel a config
    /// may carry.
    pub compute_threads: usize,
    /// Accumulation band height the batch rendered with (resolved, part of
    /// the numeric contract).
    pub band_height: u32,
    /// Measured wall-clock seconds the batch took on the host.
    pub wall_seconds: f64,
    /// Per-lane busy seconds (see [`LaneBusy`] for units per backend).  For
    /// the simulated backend these are summed across devices; the per-device
    /// breakdown is in [`device_lanes`](Self::device_lanes).
    pub lanes: LaneBusy,
    /// Per-device lane busy breakdown, indexed by device: exactly one entry
    /// per **simulated** device (so one entry at `num_devices = 1`), in
    /// simulated device seconds with `scheduling` 0 per device because the
    /// host scheduler is shared.  Empty for the threaded backend, whose
    /// device stand-ins share the measured lanes.
    pub device_lanes: Vec<LaneBusy>,
    /// Simulated makespan in device seconds (simulated backend only).
    pub sim_makespan: Option<f64>,
    /// The densification resize applied at this batch's boundary, if one
    /// was due (`None` for the fixed-size batches in between).
    pub resize: Option<DensifyReport>,
    /// Faults injected (and recovered from) while executing this batch.
    /// All-zero when no fault plan is installed.
    pub faults: FaultStats,
    /// Gaussian rows whose final gradients were shipped to the CPU Adam
    /// lane (threaded backend; 0 for backends that step the optimiser
    /// inline).  One row per Gaussian that **received** gradient
    /// (`batch.received`) — a touched Gaussian the renderer never reached
    /// ships nothing, and neither does `F_0`.
    pub adam_rows_shipped: u64,
    /// Bytes shipped to the CPU Adam lane: `adam_rows_shipped` flat
    /// 59-float gradient rows, each with its `u32` index.
    pub adam_bytes_shipped: u64,
}

impl ExecutionReport {
    /// Wall-clock training throughput in images per second.
    pub fn throughput(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.views as f64 / self.wall_seconds
        }
    }

    /// Busy fraction of the wall clock for a lane time (0 when the batch
    /// took no measurable time).
    pub fn busy_fraction(&self, lane_seconds: f64) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            (lane_seconds / self.wall_seconds).max(0.0)
        }
    }
}

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

    /// Pinned staging-pool statistics accumulated so far.
    fn pool_stats(&self) -> PoolStats;

    /// Caps the pinned staging pool at `limit` simultaneously checked-out
    /// buffers (`None` removes the cap) — the per-tenant pinned-memory
    /// budget seam used by the serving layer.
    fn set_staging_capacity(&mut self, limit: Option<usize>);

    /// Installs a fault-injection plan that takes effect from the next
    /// batch on.  Faults cost schedule (or wall-clock) time and are
    /// recovered from; they never change the numerics.
    fn install_fault_plan(&mut self, plan: FaultPlan);
}
