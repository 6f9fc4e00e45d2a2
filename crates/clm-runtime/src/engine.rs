//! The pipelined execution engine.
//!
//! [`PipelinedEngine`] runs a [`clm_core::Trainer`] as a discrete-event
//! pipeline on [`sim_device::Timeline`], reproducing the execution structure
//! of the paper's Figure 6: parameter gathers are prefetched on the
//! `GpuComm` lane up to a configurable lookahead window ahead of the
//! micro-batch that consumes them, forward/backward compute runs on
//! `GpuCompute`, gradient stores retire on `GpuComm`, and early-finalised
//! CPU Adam updates run on the `CpuAdam` lane as soon as their gradients
//! reach host memory.  Staged rows live in a recycling
//! [`PinnedBufferPool`].
//!
//! The engine's numeric path is exactly the synchronous trainer's: it calls
//! the same `plan_batch → begin_batch → stage/process/apply_finalized →
//! finish_batch` sequence, so the training trajectory is identical by
//! construction — only the *when* of each operation (and therefore the
//! makespan, overlap and idle metrics) differs.  The non-offloading systems
//! (`Baseline`, `EnhancedBaseline`) and `NaiveOffload` are also supported,
//! producing the no-overlap schedules the figures compare against.

use crate::backend::{ExecutionBackend, ExecutionReport, LaneBusy};
use crate::pool::PinnedBufferPool;
use crate::prefetch::{PrefetchPolicy, PrefetchWindow, WindowSelector};
use crate::report::IterationReport;
use clm_core::{BatchPlan, SystemKind, TrainConfig, Trainer};
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_optim::GradientBuffer;
use gs_render::Image;
use gs_scene::Dataset;
use sim_device::{DeviceProfile, FaultPlan, Lane, OpId, OpKind, Timeline};

/// Scheduling-lane cost per Gaussian-view of frustum culling (seconds).
const CULL_COST_PER_GAUSSIAN_VIEW: f64 = 2.0e-10;

/// Scheduling-lane cost per micro-batch pair of ordering/TSP work (seconds).
const ORDER_COST_PER_PAIR: f64 = 1.0e-6;

/// Host-side cost per changed row of a densification resize (seconds):
/// compacting/appending one Gaussian's attribute rows, optimiser state and
/// pinned host row is a few hundred bytes of memcpy.
pub(crate) const RESIZE_COST_PER_ROW: f64 = 1.0e-8;

/// Configuration of the pipelined runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The simulated device the schedule is costed against.
    pub device: DeviceProfile,
    /// Prefetch lookahead window: how many micro-batches ahead of the one
    /// currently computing may be gathered (0 = synchronous, 1 = double
    /// buffering).  Under [`PrefetchPolicy::Adaptive`] this seeds the first
    /// batch only.
    pub prefetch_window: usize,
    /// Fixed vs. adaptive per-batch window selection.
    pub policy: PrefetchPolicy,
    /// Multiplier applied to Gaussian counts and transferred bytes when
    /// costing timeline operations.  Numerics are unaffected; this lets
    /// reduced-scale scenes exercise the paper-scale (bandwidth-bound)
    /// regime the figures are about.
    pub cost_scale: f64,
    /// Multiplier applied to pixel counts when costing render operations.
    pub pixel_cost_scale: f64,
    /// Worker threads for the banded render compute (0 = inherit the
    /// trainer's `TrainConfig::compute_threads`).  Pure host scheduling:
    /// the simulated timeline costs and the numerics are unaffected; only
    /// the wall-clock time of executing the lanes inline shrinks.
    pub compute_threads: usize,
    /// Accumulation band height override (0 = inherit the trainer's
    /// `TrainConfig::band_height`).  Part of the numeric contract — see
    /// `TrainConfig::band_height`.
    pub band_height: u32,
    /// Simulated devices the scene is sharded across (1 = single device).
    /// [`PipelinedEngine`] is the single-device engine and requires 1; the
    /// multi-device lane groups live in
    /// [`ShardedEngine`](crate::ShardedEngine), which accepts any count.
    pub num_devices: usize,
    /// Warm start for the tracked prefetch fetch/compute ratio (e.g. a
    /// [`WarmStartCache`](crate::WarmStartCache) entry recorded by an
    /// earlier run on the same scene).  `None` cold-starts as before; under
    /// an adaptive/EWMA policy a warm-started engine picks an adapted
    /// window on its first batch.
    pub warm_start_ratio: Option<f64>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            device: DeviceProfile::rtx4090(),
            prefetch_window: 2,
            policy: PrefetchPolicy::Fixed,
            cost_scale: 1.0,
            pixel_cost_scale: 1.0,
            compute_threads: 0,
            band_height: 0,
            num_devices: 1,
            warm_start_ratio: None,
        }
    }
}

impl RuntimeConfig {
    /// A config whose scheduling knobs come from the startup autotuner
    /// ([`crate::autotune::tuned`]): quota-aware compute width, the
    /// calibrated prefetch-window seed and the host-derived band height.
    /// Set any field afterwards to override a derived value.
    pub fn autotuned() -> Self {
        let knobs = crate::autotune::tuned().knobs;
        RuntimeConfig {
            prefetch_window: knobs.prefetch_window,
            compute_threads: knobs.compute_threads,
            band_height: knobs.band_height,
            ..Default::default()
        }
    }
}

/// The discrete-event costing rules shared by the single-device
/// [`PipelinedEngine`] and the multi-device
/// [`ShardedEngine`](crate::ShardedEngine): how Gaussian counts, bytes and
/// pixels translate into simulated device seconds.
#[derive(Debug, Clone)]
pub(crate) struct CostModel {
    pub device: DeviceProfile,
    pub cost_scale: f64,
    pub pixel_cost_scale: f64,
}

impl CostModel {
    pub fn from_runtime(config: &RuntimeConfig) -> Self {
        CostModel {
            device: config.device.clone(),
            cost_scale: config.cost_scale,
            pixel_cost_scale: config.pixel_cost_scale,
        }
    }

    pub fn scaled_bytes(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.cost_scale).round() as u64
    }

    pub fn scaled_gaussians(&self, count: usize) -> u64 {
        (count as f64 * self.cost_scale).round() as u64
    }

    pub fn scaled_pixels(&self, image: &Image) -> u64 {
        (image.pixel_count() as f64 * self.pixel_cost_scale).round() as u64
    }

    pub fn scheduling_time(&self, model_len: usize, plan: &BatchPlan) -> f64 {
        let n = self.scaled_gaussians(model_len) as f64;
        let m = plan.num_microbatches() as f64;
        n * m * CULL_COST_PER_GAUSSIAN_VIEW + m * m * ORDER_COST_PER_PAIR
    }

    /// Host seconds the boundary resize recorded in `plan` costs (0 when
    /// the plan has none).
    pub fn resize_time(&self, plan: &BatchPlan) -> f64 {
        plan.resize
            .as_ref()
            .map(|e| self.scaled_gaussians(e.rows_changed()) as f64 * RESIZE_COST_PER_ROW)
            .unwrap_or(0.0)
    }
}

/// The largest per-micro-batch fetch of a plan, in rows — what the pinned
/// staging pool must be able to lease after a resize.
pub(crate) fn max_fetch_rows(plan: &BatchPlan) -> usize {
    plan.fetched.iter().map(|s| s.len()).max().unwrap_or(0)
}

/// A trainer executing as a discrete-event pipeline on the simulated device.
#[derive(Debug)]
pub struct PipelinedEngine {
    trainer: Trainer,
    config: RuntimeConfig,
    pool: PinnedBufferPool,
    /// Adaptive-window state fed by each batch's simulated fetch/compute
    /// times.
    window_selector: WindowSelector,
    /// Installed fault-injection plan, if any.  Faults only ever inflate
    /// simulated durations or inject staging denials — the numeric path is
    /// untouched by construction.
    fault_plan: Option<FaultPlan>,
}

impl PipelinedEngine {
    /// Creates an engine around an initial model.
    ///
    /// # Panics
    /// Panics if `cost_scale` or `pixel_cost_scale` is not strictly
    /// positive.
    pub fn new(initial_model: GaussianModel, train: TrainConfig, config: RuntimeConfig) -> Self {
        assert!(config.cost_scale > 0.0, "cost_scale must be positive");
        assert!(
            config.pixel_cost_scale > 0.0,
            "pixel_cost_scale must be positive"
        );
        assert!(
            config.num_devices == 1,
            "PipelinedEngine is single-device (num_devices must be exactly 1); \
             use ShardedEngine for multi-device configs"
        );
        let mut train = train;
        if config.compute_threads > 0 {
            train.compute_threads = config.compute_threads;
        }
        if config.band_height > 0 {
            train.band_height = config.band_height;
        }
        let window_selector = WindowSelector::warm_started(config.warm_start_ratio);
        PipelinedEngine {
            trainer: Trainer::new(initial_model, train),
            config,
            pool: PinnedBufferPool::new(),
            window_selector,
            fault_plan: None,
        }
    }

    /// Creates an engine around an already-built trainer — the
    /// checkpoint-restore path: the trainer carries its restored model,
    /// optimiser moments and counters, and training continues from there.
    ///
    /// # Panics
    /// Panics under the same config conditions as [`new`](Self::new).
    pub fn with_trainer(mut trainer: Trainer, config: RuntimeConfig) -> Self {
        assert!(config.cost_scale > 0.0, "cost_scale must be positive");
        assert!(
            config.pixel_cost_scale > 0.0,
            "pixel_cost_scale must be positive"
        );
        assert!(
            config.num_devices == 1,
            "PipelinedEngine is single-device (num_devices must be exactly 1); \
             use ShardedEngine for multi-device configs"
        );
        if config.compute_threads > 0 {
            trainer.set_compute_threads(config.compute_threads);
        }
        if config.band_height > 0 {
            trainer.set_band_height(config.band_height);
        }
        let window_selector = WindowSelector::warm_started(config.warm_start_ratio);
        PipelinedEngine {
            trainer,
            config,
            pool: PinnedBufferPool::new(),
            window_selector,
            fault_plan: None,
        }
    }

    /// Installs a fault-injection plan: from the next batch on, the
    /// timeline's ops are filtered through the plan's seeded schedule
    /// (transient retries, straggler lanes) and staging-pool acquires may
    /// be denied.  Simulated backoff is priced at the engine's cost scale.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        plan.scale_backoff(self.config.cost_scale);
        self.fault_plan = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The wrapped trainer (model, config, counters).
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Pinned staging-pool statistics accumulated so far.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    /// Caps the pinned staging pool at `limit` simultaneously checked-out
    /// buffers (`None` removes the cap).  A multi-tenant host enforces
    /// per-session pinned-memory budgets through this seam: the serving
    /// layer clamps the prefetch window so the cap is never reached, and the
    /// pool's high-water/`denied` accounting proves it.
    pub fn set_staging_capacity(&mut self, limit: Option<usize>) {
        self.pool.set_capacity_limit(limit);
    }

    /// The adaptive-window state (tracked fetch/compute ratios), e.g. for
    /// recording into a [`WarmStartCache`](crate::WarmStartCache).
    pub fn window_selector(&self) -> &WindowSelector {
        &self.window_selector
    }

    /// Mean PSNR of the current model over a set of posed images (delegates
    /// to the trainer).
    pub fn evaluate_psnr(&self, cameras: &[Camera], targets: &[Image]) -> f32 {
        self.trainer.evaluate_psnr(cameras, targets)
    }

    /// Executes one training batch as a pipelined schedule, returning the
    /// numeric batch report together with the executed timeline.
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty.
    pub fn run_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> IterationReport {
        assert_eq!(
            cameras.len(),
            targets.len(),
            "need one target image per camera"
        );
        assert!(!cameras.is_empty(), "batch must contain at least one view");

        // Densification boundary first: every lane of this engine is scoped
        // to one batch, so between batches the pipeline is drained and the
        // model may resize.  The plan is computed against the post-resize
        // model; the resize itself is costed on the host scheduler lane and
        // re-leases the pinned staging pool at the new row counts.
        let plan = self.trainer.resize_and_plan(cameras);
        let mut grads = GradientBuffer::for_model(self.trainer.model());
        let mut timeline = Timeline::new();
        let fault_before = self.fault_plan.as_ref().map(|p| p.stats());
        if let Some(fp) = &self.fault_plan {
            timeline.install_fault_sink(fp.sink());
        }
        let cost = CostModel::from_runtime(&self.config);
        let window = self
            .window_selector
            .choose(self.config.policy, self.config.prefetch_window);

        let mut sched_deps = Vec::new();
        if let Some(event) = plan.resize.as_ref() {
            self.pool.reprovision(crate::engine::max_fetch_rows(&plan));
            sched_deps.push(timeline.push_traced(
                OpKind::Resize,
                Lane::CpuScheduler,
                cost.resize_time(&plan),
                0,
                event.rows_changed() as u64,
                None,
                &[],
            ));
        }
        let sched = timeline.push_traced(
            OpKind::Scheduling,
            Lane::CpuScheduler,
            cost.scheduling_time(self.trainer.model().len(), &plan),
            0,
            self.trainer.model().len() as u64,
            None,
            &sched_deps,
        );

        let total_loss = match self.trainer.config().system {
            SystemKind::Clm => self.run_clm_batch(
                &plan,
                window,
                cameras,
                targets,
                &mut grads,
                &mut timeline,
                sched,
                &cost,
            ),
            SystemKind::NaiveOffload => run_naive_batch(
                &mut self.trainer,
                &cost,
                &plan,
                cameras,
                targets,
                &mut grads,
                &mut timeline,
                sched,
            ),
            SystemKind::Baseline | SystemKind::EnhancedBaseline => run_gpu_only_batch(
                &mut self.trainer,
                &cost,
                &plan,
                cameras,
                targets,
                &mut grads,
                &mut timeline,
                sched,
            ),
        };

        // Feed the adaptive window policy with this batch's simulated
        // fetch/compute balance.
        if self.trainer.config().system == SystemKind::Clm {
            self.window_selector.observe(
                self.config.policy,
                timeline.time_by_kind(OpKind::LoadParams),
                timeline.time_by_kind(OpKind::Forward) + timeline.time_by_kind(OpKind::Backward),
            );
        }

        let batch = self.trainer.finish_batch(&plan, &grads, total_loss);
        let faults = match (&self.fault_plan, fault_before) {
            (Some(p), Some(before)) => p.stats().since(&before),
            _ => Default::default(),
        };
        IterationReport {
            batch,
            timeline,
            views: cameras.len(),
            prefetch_window: window,
            compute_threads: gs_render::parallel::resolve_compute_threads(
                self.trainer.config().compute_threads,
            ),
            band_height: self.trainer.resolved_band_height(),
            resize: plan.resize.as_ref().map(|e| e.report()),
            faults,
        }
    }

    /// Trains over the whole dataset once (views grouped into batches in
    /// trajectory order), returning the per-iteration reports.
    pub fn run_epoch(&mut self, dataset: &Dataset, targets: &[Image]) -> Vec<IterationReport> {
        assert_eq!(dataset.cameras.len(), targets.len());
        let batch = self.trainer.config().batch_size.max(1);
        let mut reports = Vec::new();
        let mut start = 0;
        while start < dataset.cameras.len() {
            let end = (start + batch).min(dataset.cameras.len());
            reports.push(self.run_batch(&dataset.cameras[start..end], &targets[start..end]));
            start = end;
        }
        reports
    }

    /// Leases a staging buffer, honouring an installed fault plan's
    /// pinned-pool exhaustion schedule: a denied lease stalls one backoff
    /// interval on the host scheduler lane and then succeeds (the pool
    /// recycles at the batch boundary), so exhaustion costs schedule time
    /// but never changes what is staged.
    fn acquire_staging(
        &mut self,
        rows: usize,
        timeline: &mut Timeline,
    ) -> crate::pool::StagingBuffer {
        if let Some(fp) = &self.fault_plan {
            if fp.next_staging_acquire() {
                self.pool.note_denied();
                timeline.push_traced(
                    OpKind::Other,
                    Lane::CpuScheduler,
                    fp.retry().backoff_base,
                    0,
                    0,
                    None,
                    &[],
                );
            }
        }
        self.pool.acquire(rows)
    }

    /// The CLM pipeline: windowed gather prefetch on `GpuComm`, compute on
    /// `GpuCompute`, per-transition gradient stores, and early-finalised CPU
    /// Adam on `CpuAdam`.
    #[allow(clippy::too_many_arguments)]
    fn run_clm_batch(
        &mut self,
        plan: &BatchPlan,
        window: usize,
        cameras: &[Camera],
        targets: &[Image],
        grads: &mut GradientBuffer,
        timeline: &mut Timeline,
        sched: OpId,
        cost: &CostModel,
    ) -> f32 {
        let m = plan.num_microbatches();
        let window = PrefetchWindow::new(window, m);
        let overlapped = self.trainer.overlapped();

        self.trainer.begin_batch(plan, grads);
        if overlapped {
            // F_0: Gaussians the batch never touches are finalised from the
            // start; their CPU Adam update overlaps the whole pipeline.
            timeline.push_traced(
                OpKind::CpuAdamUpdate,
                Lane::CpuAdam,
                cost.device.cpu_adam_time(
                    cost.scaled_gaussians(plan.untouched.len()) * PARAMS_PER_GAUSSIAN as u64,
                ),
                0,
                plan.untouched.len() as u64,
                None,
                &[sched],
            );
        }

        let mut gather_ops: Vec<OpId> = Vec::with_capacity(m);
        let mut backward_ops: Vec<OpId> = Vec::with_capacity(m);
        let mut staging_slots: Vec<Option<crate::pool::StagingBuffer>> =
            (0..m).map(|_| None).collect();

        // Issue the initial prefetch frontier.
        for i in window.issuable_after(None) {
            self.issue_gather(
                plan,
                i,
                &window,
                &backward_ops,
                timeline,
                sched,
                &mut gather_ops,
                cost,
            );
            let mut buf = self.acquire_staging(plan.fetched[i].len(), timeline);
            self.trainer.stage_microbatch(plan, i, &mut buf);
            staging_slots[i] = Some(buf);
        }

        let mut total_loss = 0.0f32;
        let mut last_store = sched;
        for i in 0..m {
            let buf = staging_slots[i]
                .take()
                .expect("prefetch schedule must have staged this micro-batch");

            let pixels = cost.scaled_pixels(&targets[plan.order[i]]);
            let rows = plan.ordered_sets[i].len() as u64;
            let gaussians = cost.scaled_gaussians(plan.ordered_sets[i].len());
            let fwd = timeline.push_traced(
                OpKind::Forward,
                Lane::GpuCompute,
                cost.device.forward_time(gaussians, pixels),
                0,
                rows,
                Some(i as u32),
                &[gather_ops[i]],
            );
            let bwd = timeline.push_traced(
                OpKind::Backward,
                Lane::GpuCompute,
                cost.device.backward_time(gaussians, pixels),
                0,
                rows,
                Some(i as u32),
                &[fwd],
            );
            backward_ops.push(bwd);

            total_loss += self
                .trainer
                .process_microbatch(plan, i, cameras, targets, &buf, grads);
            self.pool.release(buf);

            // Retire this micro-batch's finalised gradients to host memory …
            let group_rows = plan.finalization.finalized_by(i).len() as u64;
            let store_bytes = cost.scaled_bytes(plan.store_bytes(i));
            let store = timeline.push_traced(
                OpKind::StoreGrads,
                Lane::GpuComm,
                cost.device.transfer_time(store_bytes),
                store_bytes,
                group_rows,
                Some(i as u32),
                &[bwd],
            );
            last_store = store;

            // … and update them on the CPU Adam thread while later
            // micro-batches keep the GPU busy.
            self.trainer.apply_finalized(plan, i, grads);
            if overlapped {
                let group = plan.finalization.finalized_by(i);
                timeline.push_traced(
                    OpKind::CpuAdamUpdate,
                    Lane::CpuAdam,
                    cost.device.cpu_adam_time(
                        cost.scaled_gaussians(group.len()) * PARAMS_PER_GAUSSIAN as u64,
                    ),
                    0,
                    group.len() as u64,
                    Some(i as u32),
                    &[store],
                );
            }

            // This completion frees the next prefetch slot.
            for j in window.issuable_after(Some(i)) {
                self.issue_gather(
                    plan,
                    j,
                    &window,
                    &backward_ops,
                    timeline,
                    sched,
                    &mut gather_ops,
                    cost,
                );
                let mut buf = self.acquire_staging(plan.fetched[j].len(), timeline);
                self.trainer.stage_microbatch(plan, j, &mut buf);
                staging_slots[j] = Some(buf);
            }
        }

        if !overlapped {
            // Batch-end CPU Adam over the whole model (dense semantics).
            let n = cost.scaled_gaussians(self.trainer.model().len());
            timeline.push_traced(
                OpKind::CpuAdamUpdate,
                Lane::CpuAdam,
                cost.device.cpu_adam_time(n * PARAMS_PER_GAUSSIAN as u64),
                0,
                self.trainer.model().len() as u64,
                None,
                &[last_store],
            );
        }
        total_loss
    }

    /// Pushes the gather of micro-batch `i` on the communication lane,
    /// honouring the prefetch window's compute dependency.
    #[allow(clippy::too_many_arguments)]
    fn issue_gather(
        &mut self,
        plan: &BatchPlan,
        i: usize,
        window: &PrefetchWindow,
        backward_ops: &[OpId],
        timeline: &mut Timeline,
        sched: OpId,
        gather_ops: &mut Vec<OpId>,
        cost: &CostModel,
    ) {
        debug_assert_eq!(gather_ops.len(), i, "gathers must be issued in order");
        let mut deps = vec![sched];
        if let Some(compute_of) = window.gather_depends_on_compute_of(i) {
            deps.push(backward_ops[compute_of]);
        }
        let bytes = cost.scaled_bytes(plan.fetch_bytes(i));
        let id = timeline.push_traced(
            OpKind::LoadParams,
            Lane::GpuComm,
            cost.device.transfer_time(bytes),
            bytes,
            plan.fetched[i].len() as u64,
            Some(i as u32),
            &deps,
        );
        gather_ops.push(id);
    }
}

/// Naive (ZeRO-Offload-style) schedule: whole-model upload, serial
/// compute, whole-gradient store, then one dense CPU Adam pass — no
/// overlap anywhere.  Shared by the single-device engine and the sharded
/// engine (which runs the no-overlap comparison systems on device 0).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_naive_batch(
    trainer: &mut Trainer,
    cost: &CostModel,
    plan: &BatchPlan,
    cameras: &[Camera],
    targets: &[Image],
    grads: &mut GradientBuffer,
    timeline: &mut Timeline,
    sched: OpId,
) -> f32 {
    let n = trainer.model().len();
    let full_bytes = cost.scaled_bytes((n * PARAMS_PER_GAUSSIAN * gs_core::BYTES_PER_PARAM) as u64);
    let upload = timeline.push_traced(
        OpKind::LoadParams,
        Lane::GpuComm,
        cost.device.transfer_time(full_bytes),
        full_bytes,
        n as u64,
        None,
        &[sched],
    );

    trainer.begin_batch(plan, grads);
    let mut total_loss = 0.0f32;
    let mut staging = Vec::new();
    let mut last_bwd = upload;
    for i in 0..plan.num_microbatches() {
        let pixels = cost.scaled_pixels(&targets[plan.order[i]]);
        let rows = plan.ordered_sets[i].len() as u64;
        let gaussians = cost.scaled_gaussians(plan.ordered_sets[i].len());
        let fwd = timeline.push_traced(
            OpKind::Forward,
            Lane::GpuCompute,
            cost.device.forward_time(gaussians, pixels),
            0,
            rows,
            Some(i as u32),
            &[upload],
        );
        let bwd = timeline.push_traced(
            OpKind::Backward,
            Lane::GpuCompute,
            cost.device.backward_time(gaussians, pixels),
            0,
            rows,
            Some(i as u32),
            &[fwd],
        );
        last_bwd = bwd;
        trainer.stage_microbatch(plan, i, &mut staging);
        total_loss += trainer.process_microbatch(plan, i, cameras, targets, &staging, grads);
        trainer.apply_finalized(plan, i, grads);
    }

    let store = timeline.push_traced(
        OpKind::StoreGrads,
        Lane::GpuComm,
        cost.device.transfer_time(full_bytes),
        full_bytes,
        n as u64,
        None,
        &[last_bwd],
    );
    timeline.push_traced(
        OpKind::CpuAdamUpdate,
        Lane::CpuAdam,
        cost.device
            .cpu_adam_time(cost.scaled_gaussians(n) * PARAMS_PER_GAUSSIAN as u64),
        0,
        n as u64,
        None,
        &[store],
    );
    total_loss
}

/// GPU-only baselines: compute per micro-batch plus a fused GPU Adam
/// step at batch end; no PCIe traffic at all.  Shared like
/// [`run_naive_batch`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_gpu_only_batch(
    trainer: &mut Trainer,
    cost: &CostModel,
    plan: &BatchPlan,
    cameras: &[Camera],
    targets: &[Image],
    grads: &mut GradientBuffer,
    timeline: &mut Timeline,
    sched: OpId,
) -> f32 {
    let n = trainer.model().len();
    let fused_culling = trainer.config().system == SystemKind::Baseline;

    trainer.begin_batch(plan, grads);
    let mut total_loss = 0.0f32;
    let mut staging = Vec::new();
    let mut last_bwd = sched;
    for i in 0..plan.num_microbatches() {
        let pixels = cost.scaled_pixels(&targets[plan.order[i]]);
        // The plain baseline feeds every Gaussian through the kernels;
        // the enhanced baseline pre-culls.
        let count = if fused_culling {
            n
        } else {
            plan.ordered_sets[i].len()
        };
        let gaussians = cost.scaled_gaussians(count);
        let fwd = timeline.push_traced(
            OpKind::Forward,
            Lane::GpuCompute,
            cost.device.forward_time(gaussians, pixels),
            0,
            count as u64,
            Some(i as u32),
            &[sched],
        );
        let bwd = timeline.push_traced(
            OpKind::Backward,
            Lane::GpuCompute,
            cost.device.backward_time(gaussians, pixels),
            0,
            count as u64,
            Some(i as u32),
            &[fwd],
        );
        last_bwd = bwd;
        trainer.stage_microbatch(plan, i, &mut staging);
        total_loss += trainer.process_microbatch(plan, i, cameras, targets, &staging, grads);
        trainer.apply_finalized(plan, i, grads);
    }

    timeline.push_traced(
        OpKind::GpuAdamUpdate,
        Lane::GpuCompute,
        cost.device
            .gpu_adam_time(cost.scaled_gaussians(n) * PARAMS_PER_GAUSSIAN as u64),
        0,
        n as u64,
        None,
        &[last_bwd],
    );
    total_loss
}

impl ExecutionBackend for PipelinedEngine {
    fn backend_name(&self) -> &'static str {
        "simulated"
    }

    fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Executes the batch inline while costing it on the event timeline.
    /// The report's wall-clock time is measured (all lanes ran on this
    /// thread), while the per-lane busy times are the *simulated* device
    /// seconds from the timeline.
    fn execute_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> ExecutionReport {
        let wall_start = std::time::Instant::now();
        let report = self.run_batch(cameras, targets);
        let wall_seconds = wall_start.elapsed().as_secs_f64();
        let t = &report.timeline;
        ExecutionReport {
            views: report.views,
            prefetch_window: report.prefetch_window,
            compute_threads: report.compute_threads,
            band_height: report.band_height,
            wall_seconds,
            lanes: LaneBusy {
                compute: t.busy_time(Lane::GpuCompute),
                comm: t.busy_time(Lane::GpuComm),
                adam: t.busy_time(Lane::CpuAdam),
                scheduling: t.busy_time(Lane::CpuScheduler),
            },
            device_lanes: Vec::new(),
            sim_makespan: Some(t.makespan()),
            resize: report.resize,
            faults: report.faults,
            // The optimiser steps inline: nothing is shipped to a lane.
            adam_rows_shipped: 0,
            adam_bytes_shipped: 0,
            batch: report.batch,
        }
    }
}
