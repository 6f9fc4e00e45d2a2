//! The simulated execution engine: one CLM schedule for any device count.
//!
//! [`PipelinedEngine`] runs a [`clm_core::Trainer`] as a discrete-event
//! pipeline on [`sim_device::Timeline`], reproducing the execution structure
//! of the paper's Figure 6 once per simulated device: parameter gathers are
//! prefetched on a communication lane up to a configurable lookahead window
//! ahead of the micro-batch that consumes them, forward/backward compute
//! runs on a compute lane, gradient stores retire on the communication
//! lane, and early-finalised CPU Adam updates run on an Adam lane as soon
//! as their gradients reach host memory.  Staged rows live in a recycling
//! [`PinnedBufferPool`].  Each of the `RuntimeConfig::num_devices` devices
//! has its own **lane group** ([`Lane::comm_of`], [`Lane::compute_of`],
//! [`Lane::adam_of`]), all driven on one shared timeline, so cross-device
//! overlap and the makespan come out of the same scheduler at every count.
//!
//! # Execution model (data-parallel micro-batches)
//!
//! * **Views**: micro-batch `i` of the planned batch runs on device
//!   `i mod num_devices` — each device renders its own view subset, with
//!   its own prefetch window over its local micro-batch sequence.
//! * **Gaussians**: with more than one device a visibility-aware partition
//!   ([`gs_scene::partition_by_footprint`], over the views handed to
//!   [`PipelinedEngine::partition_over`]) assigns every Gaussian an owner
//!   device by balancing projected-footprint load.  The owner's pinned host
//!   pool holds the Gaussian's offloaded attributes and optimiser state:
//!   gathers of rows owned by another device pay an extra peer hop
//!   ([`PEER_HOP_FACTOR`]), and each finalisation group's CPU Adam update is
//!   split across the owners' Adam lanes.
//! * **Gradients**: before a finalisation group's Adam update, its
//!   gradients are all-reduced across the devices in **fixed device order**
//!   (a chain of [`OpKind::AllReduce`] ops on the comm lanes, device 0
//!   first).
//!
//! The op graph itself — which op on which lane, waiting for what, as a
//! function of window and device count — is [`sim_device::pipeline`]'s; the
//! engine is that emitter's cost source and executes the batch inside its
//! hooks (see `BatchRun`).
//!
//! With `num_devices = 1` all of that degenerates to the paper's
//! single-device pipeline on the four classic lanes (device 0's lane group
//! *is* `GpuCompute`/`GpuComm`/`CpuAdam`): one device owns every Gaussian,
//! so the engine needs no partition views and runs no footprint sweep, no
//! gather pays a peer hop, and the all-reduce chain is empty — an Adam
//! update depends directly on its gradient store.
//!
//! # Why the trajectory is bit-identical for every device count
//!
//! The engine's numeric path is exactly the synchronous trainer's: it calls
//! the same `plan_batch → begin_batch → stage/process/apply_finalized →
//! finish_batch` sequence, and the reduction order is fixed by
//! construction — losses, gradient accumulations and finalised Adam steps
//! are replayed in the serial micro-batch order `0, 1, 2, …` regardless of
//! which device computed them (round `r`'s per-device results join the
//! shared gradient buffer as micro-batches `rD, rD+1, …`).  Renders are
//! pure and read only their own micro-batch's visibility set, and a
//! Gaussian finalised by micro-batch `i` is never in a later micro-batch's
//! visibility or fetch set, so neither prefetched staging nor deferred
//! reduction can observe a different value than the synchronous trainer's.
//! Device count, window and faults therefore change *where* and *when* work
//! is costed — never *what* is computed; `tests/sharded_runtime.rs` asserts
//! the trajectory equality for device counts {1, 2, 4} across seeds, and
//! CI's `shard-matrix` job gates on it.
//!
//! The no-overlap comparison systems (`Baseline`, `EnhancedBaseline`,
//! `NaiveOffload`) are not sharded — they run their single-device schedules
//! on device 0, mirroring how the paper's baselines are measured.

use crate::backend::{ExecutionBackend, ExecutionReport, LaneBusy};
use crate::pool::{PinnedBufferPool, PoolStats, StagingBuffer};
use crate::report::IterationReport;
use clm_core::{BatchPlan, SystemKind, TrainConfig, Trainer};
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_core::visibility::VisibilitySet;
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_optim::{GradientBuffer, StorePayload};
use gs_render::Image;
use gs_scene::{partition_by_footprint, Dataset, GaussianPartition};
use sim_device::pipeline::{self, AdamGroup, ClmShape, CostSource, OpCost};
use sim_device::{DeviceProfile, FaultPlan, Lane, OpId, OpKind, Timeline};

/// Scheduling-lane cost per Gaussian-view of frustum culling (seconds).
const CULL_COST_PER_GAUSSIAN_VIEW: f64 = 2.0e-10;

/// Scheduling-lane cost per micro-batch pair of ordering/TSP work (seconds).
const ORDER_COST_PER_PAIR: f64 = 1.0e-6;

/// Host-side cost per changed row of a densification resize (seconds):
/// compacting/appending one Gaussian's attribute rows, optimiser state and
/// pinned host row is a few hundred bytes of memcpy.
pub(crate) const RESIZE_COST_PER_ROW: f64 = 1.0e-8;

/// Cost multiplier for gathering a row whose owner is another device: the
/// copy crosses from the owner's pinned pool through host memory before the
/// fetching device's DMA engine sees it — one extra hop at PCIe cost.
pub const PEER_HOP_FACTOR: f64 = 2.0;

/// How the prefetch window is chosen: it is the configured
/// `prefetch_window`, always (the paper's fixed double buffering, §5.3).
///
/// Placeholder with one inhabitant: the frozen benchmark harness spells
/// `policy: PrefetchPolicy::Fixed` in exhaustive config literals.  Leaves
/// with ROADMAP item 4(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchPolicy {
    /// Always use the configured `prefetch_window`.
    #[default]
    Fixed,
}

/// Configuration of the pipelined runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The simulated device the schedule is costed against.
    pub device: DeviceProfile,
    /// Prefetch lookahead window: how many micro-batches ahead of the one
    /// currently computing may be gathered (0 = synchronous, 1 = double
    /// buffering).
    pub prefetch_window: usize,
    /// Placeholder — see [`PrefetchPolicy`].
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
    /// Simulated devices the scene is sharded across (1 = single device,
    /// the paper's Figure 6 pipeline).  Above 1 the engine needs the views
    /// to balance Gaussian ownership over —
    /// [`PipelinedEngine::partition_over`].
    pub num_devices: usize,
    /// Placeholder, always `None` (the payload type is uninhabited): the
    /// frozen benchmark harness spells `warm_start_ratio: None` in
    /// exhaustive config literals.  Leaves with ROADMAP item 4(a).
    pub warm_start_ratio: Option<std::convert::Infallible>,
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
    /// calibrated prefetch window and the host-derived band height.
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

/// The discrete-event costing rules of [`PipelinedEngine`]: how Gaussian
/// counts, bytes and pixels translate into simulated device seconds.
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

    /// An Adam update over `count` Gaussians at `rate`
    /// ([`DeviceProfile::cpu_adam_time`] or the baselines' fused
    /// [`DeviceProfile::gpu_adam_time`]).
    pub fn adam(&self, count: usize, rate: impl Fn(&DeviceProfile, u64) -> f64) -> OpCost {
        let params = self.scaled_gaussians(count) * PARAMS_PER_GAUSSIAN as u64;
        OpCost::compute(rate(&self.device, params), count as u64)
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

/// Emits `system`'s op graph for one batch after the ops in `after` — the
/// one place this crate picks an emitter, for the simulated engine and the
/// threaded backend alike.  Only CLM reads more of `shape` than its
/// micro-batch count.  The other systems end in whole-model ops no
/// [`CostSource`] hook prices: `whole_model` is the cost model and model
/// length they are priced from, or `None` for an executor that measures
/// instead of pricing.
pub(crate) fn emit_system(
    timeline: &mut Timeline,
    after: &[OpId],
    system: SystemKind,
    shape: &ClmShape,
    whole_model: Option<(&CostModel, usize)>,
    costs: &mut impl CostSource,
) {
    let adam = |rate: fn(&DeviceProfile, u64) -> f64| {
        whole_model.map_or_else(OpCost::default, |(cost, rows)| cost.adam(rows, rate))
    };
    match system {
        SystemKind::Clm => pipeline::emit_clm(timeline, after, shape, costs),
        SystemKind::NaiveOffload => {
            let transfer = whole_model.map_or_else(OpCost::default, |(cost, rows)| {
                let bytes = rows * PARAMS_PER_GAUSSIAN * gs_core::BYTES_PER_PARAM;
                cost.device
                    .transfer(cost.scaled_bytes(bytes as u64), rows as u64)
            });
            let adam = adam(DeviceProfile::cpu_adam_time);
            pipeline::emit_naive(timeline, after, shape.microbatches, transfer, adam, costs);
        }
        SystemKind::Baseline | SystemKind::EnhancedBaseline => {
            let adam = adam(DeviceProfile::gpu_adam_time);
            pipeline::emit_gpu_only(timeline, after, shape.microbatches, adam, costs);
        }
    }
}

/// A trainer executing as a discrete-event pipeline across
/// `RuntimeConfig::num_devices` simulated devices (see the module docs for
/// the execution model).
#[derive(Debug)]
pub struct PipelinedEngine {
    trainer: Trainer,
    config: RuntimeConfig,
    /// Gaussian → device ownership.  Trivial (everything on device 0) at one
    /// device and for the non-CLM comparison systems, which never consult
    /// it.
    partition: GaussianPartition,
    /// The views the partitioner balances projected footprints over
    /// ([`partition_over`](Self::partition_over)), kept so a densification
    /// boundary or a device loss can re-run the partition.  Empty at one
    /// device.
    partition_cameras: Vec<Camera>,
    pool: PinnedBufferPool,
    /// Staged rows served from the fetching device's own shard so far.
    local_rows: u64,
    /// Staged rows that crossed shards (owner ≠ fetching device) so far.
    cross_shard_rows: u64,
    /// Installed fault-injection plan, if any.  Faults inflate simulated
    /// durations, deny staging leases or drop devices at batch boundaries —
    /// the numeric path is untouched by construction.
    fault_plan: Option<FaultPlan>,
}

impl PipelinedEngine {
    /// Creates an engine around an initial model.  With
    /// `config.num_devices > 1`, follow up with
    /// [`partition_over`](Self::partition_over) before the first batch.
    ///
    /// # Panics
    /// Panics under the config conditions of
    /// [`with_trainer`](Self::with_trainer).
    pub fn new(initial_model: GaussianModel, train: TrainConfig, config: RuntimeConfig) -> Self {
        Self::with_trainer(Trainer::new(initial_model, train), config)
    }

    /// Creates an engine around an already-built trainer — the
    /// checkpoint-restore path: the trainer carries its restored model,
    /// optimiser moments and counters, and training continues from there.
    /// The trainer adopts the runtime's `compute_threads` / `band_height`
    /// overrides and its device count.
    ///
    /// # Panics
    /// Panics if `config.num_devices` is 0 or exceeds the timeline's device
    /// range, or if a cost scale is not strictly positive.
    pub fn with_trainer(mut trainer: Trainer, config: RuntimeConfig) -> Self {
        assert!(config.num_devices >= 1, "num_devices must be at least 1");
        assert!(
            config.num_devices <= Lane::MAX_DEVICE + 1,
            "num_devices must fit the timeline's device-lane range"
        );
        assert!(config.cost_scale > 0.0, "cost_scale must be positive");
        assert!(
            config.pixel_cost_scale > 0.0,
            "pixel_cost_scale must be positive"
        );
        if config.compute_threads > 0 {
            trainer.set_compute_threads(config.compute_threads);
        }
        if config.band_height > 0 {
            trainer.set_band_height(config.band_height);
        }
        // The trainer's config mirrors the engine's device count so reports
        // and introspection agree; the engine drives the stepwise API
        // itself, so this never re-shards the numeric path.
        trainer.set_num_devices(config.num_devices);
        PipelinedEngine {
            partition: GaussianPartition::single_device(trainer.model().len()),
            partition_cameras: Vec::new(),
            trainer,
            config,
            pool: PinnedBufferPool::new(),
            local_rows: 0,
            cross_shard_rows: 0,
            fault_plan: None,
        }
    }

    /// Supplies the views the visibility-aware partitioner balances the
    /// Gaussians' projected footprints over (normally the training dataset's
    /// cameras) and computes the ownership partition from the current
    /// model.  Required before the first batch when `num_devices > 1`; at
    /// one device the partition is trivial and no footprint sweep runs.
    pub fn partition_over(mut self, cameras: &[Camera]) -> Self {
        self.partition_cameras = cameras.to_vec();
        self.repartition();
        self
    }

    /// Installs a fault-injection plan: from the next batch on, the
    /// timeline's ops are filtered through the plan's seeded schedule
    /// (transient retries, straggler lanes), staging leases may be denied,
    /// and a scheduled permanent device loss fires at its batch boundary
    /// (see [`lose_devices`](Self::lose_devices)).  Simulated backoff is
    /// priced at the engine's cost scale.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        plan.scale_backoff(self.config.cost_scale);
        self.fault_plan = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Permanently removes `lose` devices at the current batch boundary:
    /// the engine's device count shrinks to the survivors and the Gaussian
    /// ownership partition is recomputed over them.  Because the trajectory
    /// is bit-identical at *every* device count, continuation on the
    /// survivors equals a fault-free run at the surviving count — graceful
    /// degradation, not divergence.
    ///
    /// # Panics
    /// Panics if the loss would leave no survivors.
    pub fn lose_devices(&mut self, lose: usize) {
        let survivors = self.config.num_devices.saturating_sub(lose);
        assert!(
            survivors >= 1,
            "device loss must leave at least one survivor (had {}, losing {lose})",
            self.config.num_devices
        );
        self.config.num_devices = survivors;
        self.trainer.set_num_devices(survivors);
        self.repartition();
    }

    /// The wrapped trainer (model, config, counters).
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The Gaussian→device ownership partition in force.
    pub fn partition(&self) -> &GaussianPartition {
        &self.partition
    }

    /// Recomputes the ownership partition from the current model over the
    /// [`partition_over`](Self::partition_over) views — run automatically
    /// at every densification boundary so new Gaussians land on balanced
    /// devices.  Pure scheduling: ownership never affects the numerics.
    /// Only a multi-device CLM schedule consults ownership, so only that
    /// case pays the footprint sweep (comparable to a render pass).
    pub fn repartition(&mut self) {
        let model = self.trainer.model();
        self.partition =
            if self.config.num_devices > 1 && self.trainer.config().system == SystemKind::Clm {
                partition_by_footprint(model, &self.partition_cameras, self.config.num_devices)
            } else {
                GaussianPartition::single_device(model.len())
            };
    }

    /// Pinned staging-pool statistics accumulated so far (one shared pool;
    /// all device gather lanes draw from it).
    pub fn pool_stats(&self) -> PoolStats {
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

    /// Staged rows served from the fetching device's own shard so far.
    pub fn local_rows(&self) -> u64 {
        self.local_rows
    }

    /// Staged rows whose owner was another device (each paid the
    /// [`PEER_HOP_FACTOR`] on the gather lane) so far.
    pub fn cross_shard_rows(&self) -> u64 {
        self.cross_shard_rows
    }

    /// Mean PSNR of the current model over a set of posed images (delegates
    /// to the trainer).
    pub fn evaluate_psnr(&self, cameras: &[Camera], targets: &[Image]) -> f32 {
        self.trainer.evaluate_psnr(cameras, targets)
    }

    /// Executes one training batch across the device lane groups, returning
    /// the numeric batch report together with the executed timeline.
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty, or
    /// if `num_devices > 1` and no partition views were supplied.
    pub fn run_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> IterationReport {
        assert_eq!(
            cameras.len(),
            targets.len(),
            "need one target image per camera"
        );
        assert!(!cameras.is_empty(), "batch must contain at least one view");
        assert!(
            self.config.num_devices == 1 || !self.partition_cameras.is_empty(),
            "num_devices = {} needs an ownership partition: call \
             partition_over(cameras) with the views to balance over before the first batch",
            self.config.num_devices
        );

        let fault_before = self.fault_plan.as_ref().map(|p| p.stats());
        // Scheduled permanent device loss fires here, at the batch
        // boundary: every lane is drained between batches, so the survivors
        // repartition and continue without any in-flight state to migrate.
        if let Some(lose) = self
            .fault_plan
            .as_ref()
            .and_then(|p| p.device_loss_at(self.trainer.batches_trained() as u64))
        {
            self.lose_devices(lose);
        }

        // Densification boundary first: the per-device lane groups are all
        // scoped to one batch, so between batches every lane is drained and
        // the model may resize.  The plan is computed against the
        // post-resize model; the boundary re-runs the ownership partition so
        // new Gaussians land on balanced devices, re-leases the shared
        // pinned pool at the new row counts and is costed on the host
        // scheduler lane — all pure scheduling, so the trajectory stays
        // bit-identical to the synchronous trainer's.
        let plan = self.trainer.resize_and_plan(cameras);
        let mut grads = self.trainer.take_gradients();
        let mut timeline = Timeline::new();
        if let Some(fp) = &self.fault_plan {
            timeline.install_fault_plan(fp.clone());
        }
        let cost = CostModel::from_runtime(&self.config);
        let window = self.config.prefetch_window;

        let mut sched_deps = Vec::new();
        if let Some(event) = plan.resize.as_ref() {
            self.repartition();
            self.pool.reprovision(max_fetch_rows(&plan));
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

        // One op graph per system, owned by `sim_device::pipeline`; the
        // engine is its cost source and runs the batch inside the hooks.
        let system = self.trainer.config().system;
        let overlapped = self.trainer.overlapped();
        let microbatches = plan.num_microbatches();
        let model_len = self.trainer.model().len();
        let mut run = BatchRun {
            trainer: &mut self.trainer,
            pool: &mut self.pool,
            partition: &self.partition,
            fault_plan: self.fault_plan.as_ref(),
            cost: &cost,
            plan: &plan,
            cameras,
            targets,
            grads: &mut grads,
            devices: self.config.num_devices,
            staged: (0..microbatches).map(|_| None).collect(),
            total_loss: 0.0,
            local_rows: 0,
            cross_shard_rows: 0,
        };
        run.trainer.begin_batch(&plan, run.grads);
        let shape = ClmShape {
            microbatches,
            window,
            devices: run.devices,
            overlapped,
        };
        let priced = Some((&cost, model_len));
        emit_system(&mut timeline, &[sched], system, &shape, priced, &mut run);
        let total_loss = run.total_loss;
        self.local_rows += run.local_rows;
        self.cross_shard_rows += run.cross_shard_rows;

        let batch = self.trainer.finish_batch(&plan, &grads, total_loss);
        self.trainer.return_gradients(grads);
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
}

/// One batch of the engine as the emitter's cost source: prices every op
/// from the [`BatchPlan`], the [`CostModel`] and the ownership partition —
/// and *executes* the batch inside the hooks.  [`staged`](CostSource::staged)
/// leases a pinned buffer and gathers into it, [`backward`](CostSource::backward)
/// renders the micro-batch, releases the buffer and applies the finalised
/// Adam group, so the numerics and the pool's `window + 1` high-water follow
/// the emitter's schedule order rather than a loop of their own.
struct BatchRun<'a> {
    trainer: &'a mut Trainer,
    pool: &'a mut PinnedBufferPool,
    partition: &'a GaussianPartition,
    fault_plan: Option<&'a FaultPlan>,
    cost: &'a CostModel,
    plan: &'a BatchPlan,
    cameras: &'a [Camera],
    targets: &'a [Image],
    grads: &'a mut GradientBuffer,
    devices: usize,
    /// Gathered-but-unconsumed staging buffers, by micro-batch (CLM only).
    staged: Vec<Option<StagingBuffer>>,
    total_loss: f32,
    local_rows: u64,
    cross_shard_rows: u64,
}

impl BatchRun<'_> {
    fn render_cost(&self, i: usize, time: impl Fn(&DeviceProfile, u64, u64) -> f64) -> OpCost {
        // The plain baseline's fused culling feeds every Gaussian through
        // the kernels; every other system pre-culls to the visibility set.
        let count = if self.trainer.config().system == SystemKind::Baseline {
            self.trainer.model().len()
        } else {
            self.plan.ordered_sets[i].len()
        };
        let pixels = self.cost.scaled_pixels(&self.targets[self.plan.order[i]]);
        let gaussians = self.cost.scaled_gaussians(count);
        OpCost::compute(time(&self.cost.device, gaussians, pixels), count as u64)
    }

    /// The Gaussians of `group`; `None` is the whole model.
    fn group_set(&self, group: AdamGroup) -> Option<&VisibilitySet> {
        match group {
            AdamGroup::Untouched => Some(&self.plan.untouched),
            AdamGroup::FinalizedBy(i) => Some(self.plan.finalization.finalized_by(i)),
            AdamGroup::Dense => None,
        }
    }
}

impl CostSource for BatchRun<'_> {
    /// Rows owned by another device pay the peer hop.
    fn gather(&mut self, i: usize) -> OpCost {
        // Split the fetch by ownership: local rows at full PCIe bandwidth,
        // cross-shard rows with the extra peer hop.  The recorded bytes are
        // the full fetch either way, so the timeline's communication volume
        // keeps matching the batch accounting.
        let cost = self.cost;
        let indices = self.plan.fetched[i].indices();
        let local = self.partition.split_counts(indices)[i % self.devices];
        let remote = indices.len() - local;
        self.local_rows += local as u64;
        self.cross_shard_rows += remote as u64;
        let local_bytes = cost.scaled_bytes((local * clm_core::NON_CRITICAL_BYTES) as u64);
        let remote_bytes = cost.scaled_bytes((remote * clm_core::NON_CRITICAL_BYTES) as u64);
        OpCost {
            dur: cost.device.transfer_time(local_bytes)
                + PEER_HOP_FACTOR * cost.device.transfer_time(remote_bytes),
            bytes: cost.scaled_bytes(self.plan.fetch_bytes(i)),
            rows: indices.len() as u64,
        }
    }

    fn staged(&mut self, timeline: &mut Timeline, i: usize) {
        if let Some(fp) = self.fault_plan {
            if fp.next_staging_acquire() {
                // Denied lease: stall one backoff interval on the host
                // scheduler, then succeed (the pool recycles at the batch
                // boundary) — exhaustion costs schedule time, never staging
                // content.
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
        let mut buf = self.pool.acquire(self.plan.fetched[i].len());
        self.trainer.stage_microbatch(self.plan, i, &mut buf);
        self.staged[i] = Some(buf);
    }

    fn forward(&mut self, i: usize) -> OpCost {
        self.render_cost(i, DeviceProfile::forward_time)
    }

    fn backward(&mut self, i: usize) -> OpCost {
        // Only CLM stages rows; the other systems render from the resident
        // model.
        let staged = (self.trainer.config().system == SystemKind::Clm).then(|| {
            self.staged[i]
                .take()
                .expect("prefetch schedule must have staged this micro-batch")
        });
        self.total_loss += self.trainer.process_microbatch(
            self.plan,
            i,
            self.cameras,
            self.targets,
            staged.as_deref().unwrap_or(&[]),
            self.grads,
        );
        if let Some(buf) = staged {
            self.pool.release(buf);
        }
        self.trainer.apply_finalized(self.plan, i, self.grads);
        self.render_cost(i, DeviceProfile::backward_time)
    }

    /// Runs right after `backward(i)` accumulated micro-batch `i`'s
    /// gradients: the op carries what the store actually sends.
    fn store(&mut self, i: usize) -> OpCost {
        let sent = self.plan.store_gradients(i, self.grads);
        let bytes = self.cost.scaled_bytes(sent.bytes);
        self.cost.device.transfer(bytes, sent.rows)
    }

    fn allreduce(&mut self, group: AdamGroup) -> OpCost {
        // Ring all-reduce: every device sends and receives (D-1)/D of the
        // group's gradient bytes — like a store, only the rows that
        // received gradient travel.
        let reduced = match self.group_set(group) {
            Some(set) => StorePayload::new(set.len(), self.grads.count_received(set.indices())),
            None => StorePayload::new(self.trainer.model().len(), self.grads.touched_count()),
        };
        let total = self.cost.scaled_bytes(reduced.bytes);
        let devices = self.devices as f64;
        let share = (total as f64 * (devices - 1.0) / devices).round() as u64;
        self.cost.device.transfer(share, reduced.rows)
    }

    fn adam(&mut self, group: AdamGroup) -> Vec<OpCost> {
        // Each owner device updates its shard of the group.
        let counts = match self.group_set(group) {
            Some(set) => self.partition.split_counts(set.indices()),
            None => self.partition.device_counts().to_vec(),
        };
        counts
            .into_iter()
            .map(|n| self.cost.adam(n, DeviceProfile::cpu_adam_time))
            .collect()
    }
}

impl ExecutionBackend for PipelinedEngine {
    fn backend_name(&self) -> &'static str {
        if self.config.num_devices == 1 {
            "simulated"
        } else {
            "sharded"
        }
    }

    fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Executes the batch inline while costing it on the shared event
    /// timeline.  The report's wall-clock time is measured (all lanes ran on
    /// this thread), while the lane busy times are *simulated* device
    /// seconds summed across devices, with the per-device breakdown in
    /// `device_lanes`.
    fn execute_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> ExecutionReport {
        let wall_start = std::time::Instant::now();
        let report = self.run_batch(cameras, targets);
        let wall_seconds = wall_start.elapsed().as_secs_f64();
        let t = &report.timeline;
        let device_lanes: Vec<LaneBusy> = (0..self.config.num_devices)
            .map(|dev| LaneBusy {
                compute: t.busy_time(Lane::compute_of(dev)),
                comm: t.busy_time(Lane::comm_of(dev)),
                adam: t.busy_time(Lane::adam_of(dev)),
                scheduling: 0.0,
            })
            .collect();
        ExecutionReport {
            views: report.views,
            prefetch_window: report.prefetch_window,
            compute_threads: report.compute_threads,
            band_height: report.band_height,
            wall_seconds,
            lanes: LaneBusy {
                compute: device_lanes.iter().map(|l| l.compute).sum(),
                comm: device_lanes.iter().map(|l| l.comm).sum(),
                adam: device_lanes.iter().map(|l| l.adam).sum(),
                scheduling: t.busy_time(Lane::CpuScheduler),
            },
            device_lanes,
            sim_makespan: Some(t.makespan()),
            resize: report.resize,
            faults: report.faults,
            // The optimiser steps inline: nothing is shipped to a lane.
            adam_rows_shipped: 0,
            adam_bytes_shipped: 0,
            batch: report.batch,
        }
    }

    // The inherent methods of the same names hold the definitions (callers
    // with a concrete engine need no trait import).
    fn pool_stats(&self) -> PoolStats {
        PipelinedEngine::pool_stats(self)
    }

    fn set_staging_capacity(&mut self, limit: Option<usize>) {
        PipelinedEngine::set_staging_capacity(self, limit);
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        PipelinedEngine::install_fault_plan(self, plan);
    }
}
