//! Multi-device (sharded) execution of the CLM trainer.
//!
//! [`ShardedEngine`] is the N-device generalisation of the single-device
//! [`PipelinedEngine`](crate::PipelinedEngine): one scene trains across
//! `num_devices` simulated GPUs, each with its own **lane group** — a
//! gather/communication lane, a compute lane and a CPU Adam lane
//! ([`Lane::comm_of`], [`Lane::compute_of`], [`Lane::adam_of`]) — all driven
//! on one shared [`sim_device::Timeline`], so cross-device overlap and the
//! makespan come out of the same discrete-event scheduler the single-device
//! figures use.
//!
//! # Execution model (data-parallel micro-batches)
//!
//! * **Views**: micro-batch `i` of the planned batch runs on device
//!   `i mod num_devices` — each device renders its own view subset, with
//!   its own prefetch window over its local micro-batch sequence.
//! * **Gaussians**: a visibility-aware partition
//!   ([`gs_scene::partition_by_footprint`]) assigns every Gaussian an owner
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
//! # Why the trajectory is bit-identical for every shard count
//!
//! The engine drives the same stepwise trainer sequence as every other
//! backend, and the reduction order is fixed by construction: losses,
//! gradient accumulations and finalised Adam steps are replayed in the
//! serial micro-batch order `0, 1, 2, …` regardless of which device
//! computed them (round `r`'s per-device results join the shared gradient
//! buffer as micro-batches `rD, rD+1, …`).  Renders are pure and read only
//! their own micro-batch's visibility set, and a Gaussian finalised by
//! micro-batch `i` is never in a later micro-batch's visibility or fetch
//! set, so neither prefetched staging nor deferred reduction can observe a
//! different value than the synchronous trainer's.  Sharding therefore
//! changes *where* and *when* work is costed — never *what* is computed;
//! `tests/sharded_runtime.rs` asserts the trajectory equality for device
//! counts {1, 2, 4} across seeds, and CI's `shard-matrix` job gates on it.
//!
//! With `num_devices = 1` the schedule degenerates to exactly the
//! single-device engine's: the same ops on the same (classic) lanes with
//! the same durations and dependencies, so makespan and per-lane busy times
//! match [`PipelinedEngine`](crate::PipelinedEngine) to the last bit.
//!
//! The no-overlap comparison systems (`Baseline`, `EnhancedBaseline`,
//! `NaiveOffload`) are not sharded — they run their single-device schedules
//! on device 0, mirroring how the paper's baselines are measured.

use crate::backend::{ExecutionBackend, ExecutionReport, LaneBusy};
use crate::engine::{run_gpu_only_batch, run_naive_batch, CostModel, RuntimeConfig};
use crate::pool::{PinnedBufferPool, StagingBuffer};
use crate::prefetch::{PrefetchWindow, WindowSelector};
use crate::report::IterationReport;
use clm_core::{BatchPlan, SystemKind, TrainConfig, Trainer, GRADIENT_BYTES};
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_optim::GradientBuffer;
use gs_render::Image;
use gs_scene::{partition_by_footprint, Dataset, GaussianPartition};
use sim_device::{FaultPlan, Lane, OpId, OpKind, Timeline};

/// Cost multiplier for gathering a row whose owner is another device: the
/// copy crosses from the owner's pinned pool through host memory before the
/// fetching device's DMA engine sees it — one extra hop at PCIe cost.
pub const PEER_HOP_FACTOR: f64 = 2.0;

/// A trainer executing across several simulated devices as one
/// discrete-event pipeline (see the module docs for the execution model).
#[derive(Debug)]
pub struct ShardedEngine {
    trainer: Trainer,
    config: RuntimeConfig,
    partition: GaussianPartition,
    /// The views the partitioner balances projected footprints over, kept so
    /// a densification boundary can re-run the partition for the resized
    /// Gaussian population.
    partition_cameras: Vec<Camera>,
    pool: PinnedBufferPool,
    window_selector: WindowSelector,
    /// Staged rows served from the fetching device's own shard so far.
    local_rows: u64,
    /// Staged rows that crossed shards (owner ≠ fetching device) so far.
    cross_shard_rows: u64,
    /// Installed fault-injection plan, if any.  Faults inflate simulated
    /// durations, deny staging leases or drop devices at batch boundaries —
    /// the numeric path is untouched by construction.
    fault_plan: Option<FaultPlan>,
}

impl ShardedEngine {
    /// Creates a sharded engine around an initial model.  `cameras` are the
    /// views the visibility-aware partitioner balances the Gaussians'
    /// projected footprints over (normally the training dataset's cameras).
    ///
    /// # Panics
    /// Panics if `config.num_devices` is 0 or exceeds the timeline's device
    /// range, or if a cost scale is not strictly positive.
    pub fn new(
        initial_model: GaussianModel,
        train: TrainConfig,
        config: RuntimeConfig,
        cameras: &[Camera],
    ) -> Self {
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
        let mut train = train;
        if config.compute_threads > 0 {
            train.compute_threads = config.compute_threads;
        }
        // The trainer's config mirrors the engine's shard count so reports
        // and introspection agree; the engine drives the stepwise API
        // itself, so this never re-shards the numeric path.
        train.num_devices = config.num_devices;
        // The footprint sweep projects every culled Gaussian for every
        // camera — comparable to a render pass.  Only the CLM pipeline
        // consults the partition (the comparison systems run their
        // single-device schedules on device 0), so don't pay for it there.
        let partition = if train.system == SystemKind::Clm {
            partition_by_footprint(&initial_model, cameras, config.num_devices)
        } else {
            GaussianPartition::single_device(initial_model.len())
        };
        let window_selector = WindowSelector::warm_started(config.warm_start_ratio);
        ShardedEngine {
            trainer: Trainer::new(initial_model, train),
            config,
            partition,
            partition_cameras: cameras.to_vec(),
            pool: PinnedBufferPool::new(),
            window_selector,
            local_rows: 0,
            cross_shard_rows: 0,
            fault_plan: None,
        }
    }

    /// Creates a sharded engine around an already-built trainer — the
    /// checkpoint-restore path: the trainer carries its restored model,
    /// optimiser moments and counters, and training continues from there.
    /// The ownership partition is computed fresh from the restored model.
    ///
    /// # Panics
    /// Panics under the same config conditions as [`new`](Self::new).
    pub fn with_trainer(mut trainer: Trainer, config: RuntimeConfig, cameras: &[Camera]) -> Self {
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
        trainer.set_num_devices(config.num_devices);
        let partition = if trainer.config().system == SystemKind::Clm {
            partition_by_footprint(trainer.model(), cameras, config.num_devices)
        } else {
            GaussianPartition::single_device(trainer.model().len())
        };
        let window_selector = WindowSelector::warm_started(config.warm_start_ratio);
        ShardedEngine {
            trainer,
            config,
            partition,
            partition_cameras: cameras.to_vec(),
            pool: PinnedBufferPool::new(),
            window_selector,
            local_rows: 0,
            cross_shard_rows: 0,
            fault_plan: None,
        }
    }

    /// Installs a fault-injection plan: from the next batch on, the
    /// timeline's ops are filtered through the plan's seeded schedule,
    /// staging leases may be denied, and a scheduled permanent device loss
    /// fires at its batch boundary (see
    /// [`lose_devices`](Self::lose_devices)).  Simulated backoff is priced
    /// at the engine's cost scale.
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

    /// The Gaussian→device ownership partition in force (trivial for the
    /// non-CLM comparison systems, which never consult it).
    pub fn partition(&self) -> &GaussianPartition {
        &self.partition
    }

    /// Recomputes the ownership partition from the current model over the
    /// construction-time camera set — run automatically at every
    /// densification boundary so new Gaussians land on balanced devices.
    /// Pure scheduling: ownership never affects the numerics.
    pub fn repartition(&mut self) {
        if self.trainer.config().system == SystemKind::Clm {
            self.partition = partition_by_footprint(
                self.trainer.model(),
                &self.partition_cameras,
                self.config.num_devices,
            );
        } else {
            self.partition = GaussianPartition::single_device(self.trainer.model().len());
        }
    }

    /// Pinned staging-pool statistics accumulated so far (one shared pool;
    /// all device gather lanes draw from it).
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    /// Caps the shared pinned staging pool at `limit` simultaneously
    /// checked-out buffers (`None` removes the cap) — the per-tenant
    /// pinned-memory budget seam used by the serving layer.
    pub fn set_staging_capacity(&mut self, limit: Option<usize>) {
        self.pool.set_capacity_limit(limit);
    }

    /// The adaptive-window state (tracked fetch/compute ratios), e.g. for
    /// recording into a [`WarmStartCache`](crate::WarmStartCache).
    pub fn window_selector(&self) -> &WindowSelector {
        &self.window_selector
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
    /// Panics if `cameras` and `targets` differ in length or are empty.
    pub fn run_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> IterationReport {
        assert_eq!(
            cameras.len(),
            targets.len(),
            "need one target image per camera"
        );
        assert!(!cameras.is_empty(), "batch must contain at least one view");

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
        // the model may resize.  The boundary re-runs the footprint
        // partition so new Gaussians land on balanced devices, and
        // re-leases the shared pinned pool at the new row counts — both
        // pure scheduling, so the trajectory stays bit-identical to the
        // 1-device trainer.
        let plan = self.trainer.resize_and_plan(cameras);
        let mut grads = GradientBuffer::for_model(self.trainer.model());
        let mut timeline = Timeline::new();
        if let Some(fp) = &self.fault_plan {
            timeline.install_fault_sink(fp.sink());
        }
        let cost = CostModel::from_runtime(&self.config);
        let window = self
            .window_selector
            .choose(self.config.policy, self.config.prefetch_window);

        let mut sched_deps = Vec::new();
        if let Some(event) = plan.resize.as_ref() {
            self.repartition();
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
            SystemKind::Clm => self.run_clm_sharded(
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

    /// The sharded CLM pipeline: per-device windowed gather prefetch,
    /// per-device compute, fixed-order all-reduce, owner-sharded CPU Adam.
    #[allow(clippy::too_many_arguments)]
    fn run_clm_sharded(
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
        let devices = self.config.num_devices;
        let m = plan.num_microbatches();
        let overlapped = self.trainer.overlapped();
        // Device d's local micro-batch sequence is d, d + D, d + 2D, …;
        // each device gets its own prefetch window over that sequence.
        let local_len = |d: usize| (m + devices - 1 - d) / devices;
        let windows: Vec<PrefetchWindow> = (0..devices)
            .map(|d| PrefetchWindow::new(window, local_len(d)))
            .collect();

        self.trainer.begin_batch(plan, grads);
        if overlapped {
            // F_0: Gaussians the batch never touches are final from the
            // start; each owner device updates its shard immediately.
            for (dev, count) in self
                .partition
                .split_counts(plan.untouched.indices())
                .iter()
                .enumerate()
            {
                timeline.push_traced(
                    OpKind::CpuAdamUpdate,
                    Lane::adam_of(dev),
                    cost.device
                        .cpu_adam_time(cost.scaled_gaussians(*count) * PARAMS_PER_GAUSSIAN as u64),
                    0,
                    *count as u64,
                    None,
                    &[sched],
                );
            }
        }

        let mut gather_ops: Vec<Option<OpId>> = vec![None; m];
        let mut backward_ops: Vec<Option<OpId>> = vec![None; m];
        let mut staging_slots: Vec<Option<StagingBuffer>> = (0..m).map(|_| None).collect();
        let mut last_store: Vec<Option<OpId>> = vec![None; devices];
        let mut last_allreduce: Option<OpId> = None;

        // Initial prefetch frontier, device-major: every device fills its
        // own window before any compute is issued.
        for dev in 0..devices {
            for k in windows[dev].issuable_after(None) {
                let i = k * devices + dev;
                let (id, buf) = self
                    .issue_gather(plan, i, &windows, &backward_ops, timeline, sched, cost)
                    .expect("frontier indices are in range");
                gather_ops[i] = Some(id);
                staging_slots[i] = Some(buf);
            }
        }

        let mut total_loss = 0.0f32;
        for i in 0..m {
            let dev = i % devices;
            let k = i / devices;
            let buf = staging_slots[i]
                .take()
                .expect("prefetch schedule must have staged this micro-batch");

            let pixels = cost.scaled_pixels(&targets[plan.order[i]]);
            let rows = plan.ordered_sets[i].len() as u64;
            let gaussians = cost.scaled_gaussians(plan.ordered_sets[i].len());
            let fwd = timeline.push_traced(
                OpKind::Forward,
                Lane::compute_of(dev),
                cost.device.forward_time(gaussians, pixels),
                0,
                rows,
                Some(i as u32),
                &[gather_ops[i].expect("gather issued before compute")],
            );
            let bwd = timeline.push_traced(
                OpKind::Backward,
                Lane::compute_of(dev),
                cost.device.backward_time(gaussians, pixels),
                0,
                rows,
                Some(i as u32),
                &[fwd],
            );
            backward_ops[i] = Some(bwd);

            total_loss += self
                .trainer
                .process_microbatch(plan, i, cameras, targets, &buf, grads);
            self.pool.release(buf);

            // Retire this micro-batch's finalised gradients to the device's
            // host shard …
            let group_rows = plan.finalization.finalized_by(i).len() as u64;
            let store_bytes = cost.scaled_bytes(plan.store_bytes(i));
            let store = timeline.push_traced(
                OpKind::StoreGrads,
                Lane::comm_of(dev),
                cost.device.transfer_time(store_bytes),
                store_bytes,
                group_rows,
                Some(i as u32),
                &[bwd],
            );
            last_store[dev] = Some(store);

            // … reduce the finalised group across devices in fixed order,
            // then let each owner update its shard on its Adam lane.
            self.trainer.apply_finalized(plan, i, grads);
            if overlapped {
                let group = plan.finalization.finalized_by(i);
                let adam_dep = push_allreduce(
                    timeline,
                    cost,
                    devices,
                    group.len(),
                    Some(i as u32),
                    &last_store,
                    &mut last_allreduce,
                    sched,
                );
                for (dev2, count) in self
                    .partition
                    .split_counts(group.indices())
                    .iter()
                    .enumerate()
                {
                    timeline.push_traced(
                        OpKind::CpuAdamUpdate,
                        Lane::adam_of(dev2),
                        cost.device.cpu_adam_time(
                            cost.scaled_gaussians(*count) * PARAMS_PER_GAUSSIAN as u64,
                        ),
                        0,
                        *count as u64,
                        Some(i as u32),
                        &[adam_dep],
                    );
                }
            }

            // This completion frees the next prefetch slot on this device.
            for k2 in windows[dev].issuable_after(Some(k)) {
                let j = k2 * devices + dev;
                if let Some((id, buf)) =
                    self.issue_gather(plan, j, &windows, &backward_ops, timeline, sched, cost)
                {
                    gather_ops[j] = Some(id);
                    staging_slots[j] = Some(buf);
                }
            }
        }

        if !overlapped {
            // Batch-end dense Adam (no-overlap CLM semantics): all-reduce
            // the whole gradient, then every owner updates its shard.
            let adam_dep = push_allreduce(
                timeline,
                cost,
                devices,
                self.trainer.model().len(),
                None,
                &last_store,
                &mut last_allreduce,
                sched,
            );
            for (dev, count) in self.partition.device_counts().iter().enumerate() {
                timeline.push_traced(
                    OpKind::CpuAdamUpdate,
                    Lane::adam_of(dev),
                    cost.device
                        .cpu_adam_time(cost.scaled_gaussians(*count) * PARAMS_PER_GAUSSIAN as u64),
                    0,
                    *count as u64,
                    None,
                    &[adam_dep],
                );
            }
        }
        total_loss
    }

    /// Issues the gather of micro-batch `i` on its device's comm lane and
    /// stages the rows into a pooled buffer.  Rows owned by another device
    /// pay the peer hop.  Returns `None` when `i` is past the batch (the
    /// per-device windows clamp to each local sequence, so this is a pure
    /// defensive guard).
    fn issue_gather(
        &mut self,
        plan: &BatchPlan,
        i: usize,
        windows: &[PrefetchWindow],
        backward_ops: &[Option<OpId>],
        timeline: &mut Timeline,
        sched: OpId,
        cost: &CostModel,
    ) -> Option<(OpId, StagingBuffer)> {
        if i >= plan.num_microbatches() {
            return None;
        }
        let devices = self.config.num_devices;
        let dev = i % devices;
        let k = i / devices;
        let mut deps = vec![sched];
        if let Some(k_dep) = windows[dev].gather_depends_on_compute_of(k) {
            deps.push(
                backward_ops[k_dep * devices + dev]
                    .expect("window dependencies point at completed compute"),
            );
        }

        // Split the fetch by ownership: local rows at full PCIe bandwidth,
        // cross-shard rows with the extra peer hop.  The recorded bytes are
        // the full fetch either way, so the timeline's communication volume
        // keeps matching the batch accounting.
        let indices = plan.fetched[i].indices();
        let local = indices
            .iter()
            .filter(|&&g| self.partition.owner_of(g) == dev)
            .count();
        let remote = indices.len() - local;
        self.local_rows += local as u64;
        self.cross_shard_rows += remote as u64;
        let local_bytes = cost.scaled_bytes((local * clm_core::NON_CRITICAL_BYTES) as u64);
        let remote_bytes = cost.scaled_bytes((remote * clm_core::NON_CRITICAL_BYTES) as u64);
        let duration = cost.device.transfer_time(local_bytes)
            + PEER_HOP_FACTOR * cost.device.transfer_time(remote_bytes);
        let bytes = cost.scaled_bytes(plan.fetch_bytes(i));
        let id = timeline.push_traced(
            OpKind::LoadParams,
            Lane::comm_of(dev),
            duration,
            bytes,
            indices.len() as u64,
            Some(i as u32),
            &deps,
        );

        if let Some(fp) = &self.fault_plan {
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
        let mut buf = self.pool.acquire(plan.fetched[i].len());
        self.trainer.stage_microbatch(plan, i, &mut buf);
        Some((id, buf))
    }
}

/// Pushes the fixed-device-order all-reduce chain for one finalisation
/// group's gradients and returns the op the dependent Adam updates must
/// wait for.  With one device there is nothing to exchange — the dependency
/// is the device's latest gradient store, exactly as in the single-device
/// engine.
#[allow(clippy::too_many_arguments)]
fn push_allreduce(
    timeline: &mut Timeline,
    cost: &CostModel,
    devices: usize,
    group_len: usize,
    microbatch: Option<u32>,
    last_store: &[Option<OpId>],
    last_allreduce: &mut Option<OpId>,
    sched: OpId,
) -> OpId {
    if devices == 1 {
        return last_store[0].unwrap_or(sched);
    }
    // Ring all-reduce: every device sends and receives (D-1)/D of the
    // group's gradient bytes.  The chain over devices 0 → D-1 makes the
    // reduction order an explicit scheduling dependency — the determinism
    // the bit-identity argument relies on.
    let total_bytes = cost.scaled_bytes((group_len * GRADIENT_BYTES) as u64);
    let per_device = (total_bytes as f64 * (devices - 1) as f64 / devices as f64).round() as u64;
    let mut base_deps: Vec<OpId> = last_store.iter().flatten().copied().collect();
    if base_deps.is_empty() {
        base_deps.push(sched);
    }
    if let Some(prev) = *last_allreduce {
        base_deps.push(prev);
    }
    let mut tail: Option<OpId> = None;
    for dev in 0..devices {
        let mut deps = base_deps.clone();
        if let Some(t) = tail {
            deps.push(t);
        }
        tail = Some(timeline.push_traced(
            OpKind::AllReduce,
            Lane::comm_of(dev),
            cost.device.transfer_time(per_device),
            per_device,
            group_len as u64,
            microbatch,
            &deps,
        ));
    }
    *last_allreduce = tail;
    tail.expect("devices >= 2 pushed at least one op")
}

impl ExecutionBackend for ShardedEngine {
    fn backend_name(&self) -> &'static str {
        "sharded"
    }

    fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Executes the batch inline while costing it on the shared multi-device
    /// timeline; lane busy times are simulated device seconds summed across
    /// devices, with the per-device breakdown in `device_lanes`.
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
}
