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
//!   ([`clm_core::PEER_HOP_FACTOR`]), and each finalisation group's CPU
//!   Adam update is split across the owners' Adam lanes.
//! * **Gradients**: before a finalisation group's Adam update, its
//!   gradients are all-reduced across the devices in **fixed device order**
//!   (a chain of [`OpKind::AllReduce`] ops on the comm lanes, device 0
//!   first).
//!
//! The op graph itself — which op on which lane, waiting for what, as a
//! function of window and device count — is [`sim_device::pipeline`]'s,
//! picked per system by [`clm_core::emit_system`]; the engine is that
//! emitter's cost source, and the trainer's [`SerialRun`] executes the
//! batch inside its hooks (see `BatchRun`).
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
//! The engine's numeric path is the synchronous trainer's: both walk a
//! [`SerialRun`] through the emitted graph, so losses, gradient
//! accumulations and finalised Adam steps run in the serial micro-batch
//! order whichever device computed them.  Window and device count only move
//! *gathers* earlier, and a Gaussian finalised by micro-batch `i` is never
//! in a later micro-batch's fetch set (`render_microbatch` asserts staged
//! rows never go stale).  Device count, window and faults therefore change
//! *where* and *when* work is costed — never *what* is computed;
//! `tests/sharded_runtime.rs` asserts the trajectory equality for device
//! counts {1, 2, 4} across seeds.
//!
//! The no-overlap comparison systems (`Baseline`, `EnhancedBaseline`,
//! `NaiveOffload`) are not sharded — they run their single-device schedules
//! on device 0, mirroring how the paper's baselines are measured.

use crate::backend::ExecutionBackend;
use crate::pool::{PinnedBufferPool, PoolStats};
use crate::report::{ExecutionReport, LaneBusy};
use clm_core::{
    emit_system, BatchCounts, BatchPlan, MicrobatchCounts, PriceList, SerialRun, SystemKind,
    TrainConfig, Trainer,
};
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_core::visibility::VisibilitySet;
use gs_render::Image;
use gs_scene::{partition_by_footprint, GaussianPartition};
use sim_device::pipeline::{AdamGroup, ClmShape, CostSource, OpCost};
use sim_device::{DeviceProfile, FaultPlan, Lane, OpId, OpKind, Timeline};

/// How the prefetch window is chosen: it is the configured
/// `prefetch_window`, always (the paper's fixed double buffering, §5.3).
///
/// Placeholder with one inhabitant: the frozen benchmark harness spells
/// `policy: PrefetchPolicy::Fixed` in exhaustive config literals.  Leaves
/// with ROADMAP item 5(a).
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
    /// Placeholder, never read: the render width comes from
    /// `TrainConfig::compute_threads` alone.  The frozen benchmark harness
    /// spells it in exhaustive config literals.  Leaves with ROADMAP item
    /// 5(a).
    pub compute_threads: usize,
    /// Placeholder, never read: the band height is part of the numeric
    /// contract and comes from `TrainConfig::band_height` alone.  The frozen
    /// benchmark harness spells it in exhaustive config literals.  Leaves
    /// with ROADMAP item 5(a).
    pub band_height: u32,
    /// Simulated devices the scene is sharded across (1 = single device,
    /// the paper's Figure 6 pipeline).  Above 1 the engine needs the views
    /// to balance Gaussian ownership over —
    /// [`PipelinedEngine::partition_over`].
    pub num_devices: usize,
    /// Placeholder, always `None` (the payload type is uninhabited): the
    /// frozen benchmark harness spells `warm_start_ratio: None` in
    /// exhaustive config literals.  Leaves with ROADMAP item 5(a).
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
    /// The price list the engine costs its schedule with.
    pub fn price_list(&self) -> PriceList {
        PriceList::new(self.device.clone(), self.cost_scale, self.pixel_cost_scale)
    }
}

/// The largest per-micro-batch fetch of a plan, in rows — what the pinned
/// staging pool must be able to lease after a resize.
pub(crate) fn max_fetch_rows(plan: &BatchPlan) -> usize {
    plan.fetched.iter().map(|s| s.len()).max().unwrap_or(0)
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
    /// The trainer's config stays its own: it renders at its own width and
    /// band height, and the engine shards by `config.num_devices`.
    ///
    /// # Panics
    /// Panics if `config.num_devices` is 0 or exceeds the timeline's device
    /// range, or if a cost scale is not strictly positive.
    pub fn with_trainer(trainer: Trainer, config: RuntimeConfig) -> Self {
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

    /// Placeholder that does nothing: the frozen benchmark harness still
    /// calls it.  A staging budget holds by the prefetch window alone — the
    /// pool never leases more than `window + 1` buffers per device — which
    /// is how `clm-serve` clamps and audits it.  Leaves with ROADMAP item
    /// 5(a).
    pub fn set_staging_capacity(&mut self, _limit: Option<usize>) {}

    /// Staged rows served from the fetching device's own shard so far.
    pub fn local_rows(&self) -> u64 {
        self.local_rows
    }

    /// Staged rows whose owner was another device (each paid the
    /// [`clm_core::PEER_HOP_FACTOR`] on the gather lane) so far.
    pub fn cross_shard_rows(&self) -> u64 {
        self.cross_shard_rows
    }

    /// Mean PSNR of the current model over a set of posed images (delegates
    /// to the trainer).
    pub fn evaluate_psnr(&self, cameras: &[Camera], targets: &[Image]) -> f32 {
        self.trainer.evaluate_psnr(cameras, targets)
    }

    /// Executes one training batch inline while costing it across the
    /// device lane groups.  The report's timeline is the costed schedule, so
    /// its lane busy times are simulated device seconds; its wall-clock time
    /// is measured (every lane ran on this thread).
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty, or
    /// if `num_devices > 1` and no partition views were supplied.
    pub fn run_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> ExecutionReport {
        let wall_start = std::time::Instant::now();
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
        let price = self.config.price_list();
        let window = self.config.prefetch_window;

        let mut sched_deps = Vec::new();
        if let Some(event) = plan.resize.as_ref() {
            self.repartition();
            self.pool.reprovision(max_fetch_rows(&plan));
            let cost = price.resize(event.rows_changed() as u64);
            sched_deps.push(push_host_op(&mut timeline, OpKind::Resize, cost, &[]));
        }
        let model_len = self.trainer.model().len() as u64;
        let cost = price.host_planning(model_len, plan.num_microbatches());
        let sched = push_host_op(&mut timeline, OpKind::Scheduling, cost, &sched_deps);

        // One op graph per system, picked by `clm_core::emit_system`; the
        // engine walks the trainer's `SerialRun` through it and prices each
        // op from the batch's counts.
        let system = self.trainer.config().system;
        let shape = ClmShape {
            microbatches: plan.num_microbatches(),
            window,
            devices: self.config.num_devices,
            overlapped: self.trainer.overlapped(),
        };
        let whole = price.whole_model(model_len);
        let baseline = (system == SystemKind::Baseline).then_some(model_len);
        let costs = batch_counts(&price, &plan, &self.partition, targets, baseline);
        for mb in &costs.microbatches {
            self.local_rows += mb.local;
            self.cross_shard_rows += mb.remote;
        }
        let mut run = BatchRun {
            run: SerialRun::new(
                &mut self.trainer,
                &plan,
                cameras,
                targets,
                &mut grads,
                &mut self.pool,
            )
            .owned_by(&self.partition),
            costs,
            fault_plan: self.fault_plan.as_ref(),
        };
        emit_system(&mut timeline, &[sched], system, &shape, &whole, &mut run);
        let batch = run.run.finish();
        self.trainer.return_gradients(grads);
        let faults = match (&self.fault_plan, fault_before) {
            (Some(p), Some(before)) => p.stats().since(&before),
            _ => Default::default(),
        };
        ExecutionReport {
            batch,
            lanes: LaneBusy::of(&timeline, self.config.num_devices),
            timeline,
            faults,
            // The optimiser steps inline: nothing is shipped to a lane.
            adam_rows_shipped: 0,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
        }
    }
}

/// Pushes a host-scheduler op priced at `cost`.
fn push_host_op(timeline: &mut Timeline, kind: OpKind, cost: OpCost, deps: &[OpId]) -> OpId {
    let (dur, rows) = (cost.dur, cost.rows);
    timeline.push_traced(kind, Lane::CpuScheduler, dur, 0, rows, None, deps)
}

/// The engine's counts of one batch: micro-batch `i` runs on device
/// `i mod D` of the partition's `D` and renders its frustum set (the plain
/// baseline's fused culling: the whole model, `baseline`), a fetched row is
/// local when that device owns it, no row is copied between buffers, and
/// each group all-reduces its rows across their owners.  The Adam updates
/// are priced from what the run stepped (`BatchRun`), not from here.
fn batch_counts<'a>(
    price: &'a PriceList,
    plan: &BatchPlan,
    partition: &GaussianPartition,
    targets: &[Image],
    baseline: Option<u64>,
) -> BatchCounts<'a> {
    let owners = |set: &VisibilitySet| -> Vec<u64> {
        let counts = partition.split_counts(set.indices());
        counts.into_iter().map(|n| n as u64).collect()
    };
    let count = |i: usize| {
        let local = owners(&plan.fetched[i])[i % partition.num_devices()];
        MicrobatchCounts {
            rendered: baseline.unwrap_or(plan.ordered_sets[i].len() as u64),
            pixels: targets[plan.order[i]].pixel_count() as u64,
            local,
            remote: plan.fetched[i].len() as u64 - local,
            copied: 0,
            stored: plan.stored[i].len() as u64,
            finalized: owners(plan.finalization.finalized_by(i)),
        }
    };
    let microbatches = (0..plan.num_microbatches()).map(count).collect();
    let model = partition.device_counts().iter().map(|&n| n as u64);
    BatchCounts {
        price,
        microbatches,
        model: model.collect(),
    }
}

/// One batch of the engine as the emitter's cost source: the trainer's
/// [`SerialRun`] does the batch's work inside the hooks — so the numerics
/// and the pinned pool's `window + 1` high-water follow the emitter's
/// schedule order — and the batch's [`BatchCounts`] price every op but the
/// CPU Adam updates, which are priced on the rows each owner's kernel
/// stepped: a cold row's step is the identity and costs nothing on any
/// executor, so it costs nothing on the virtual clock either.
struct BatchRun<'a> {
    run: SerialRun<'a, PinnedBufferPool>,
    costs: BatchCounts<'a>,
    fault_plan: Option<&'a FaultPlan>,
}

impl CostSource for BatchRun<'_> {
    fn gather(&mut self, i: usize) -> OpCost {
        self.costs.gather(i)
    }

    fn staged(&mut self, timeline: &mut Timeline, i: usize) {
        if let Some(fp) = self.fault_plan {
            if fp.next_staging_acquire() {
                // Denied lease: stall one backoff interval on the host
                // scheduler, then succeed (the pool recycles at the batch
                // boundary) — exhaustion costs schedule time, never staging
                // content.
                self.run.staging().note_denied();
                let stall = OpCost::compute(fp.retry().backoff_base, 0);
                push_host_op(timeline, OpKind::Other, stall, &[]);
            }
        }
        self.run.staged(timeline, i);
    }

    fn forward(&mut self, i: usize) -> OpCost {
        self.run.forward(i);
        self.costs.forward(i)
    }

    fn backward(&mut self, i: usize) -> OpCost {
        self.run.backward(i);
        self.costs.backward(i)
    }

    fn store(&mut self, i: usize) -> OpCost {
        self.costs.store(i)
    }

    fn allreduce(&mut self, group: AdamGroup) -> OpCost {
        self.costs.allreduce(group)
    }

    fn adam(&mut self, group: AdamGroup) -> Vec<OpCost> {
        let price = self.costs.price;
        let stepped = self.run.adam(group).into_iter();
        stepped.map(|share| price.cpu_adam(share.rows)).collect()
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

    fn execute_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> ExecutionReport {
        self.run_batch(cameras, targets)
    }
}
