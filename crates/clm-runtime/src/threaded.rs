//! The threaded execution backend: real overlap on real threads.
//!
//! [`ThreadedBackend`] is the fourth executor of [`sim_device::pipeline`]'s
//! one schedule description, next to the simulated
//! [`PipelinedEngine`](crate::PipelinedEngine), the trace what-if rebuild
//! and the analytic model.  After planning it hands the emitter the same
//! system and [`ClmShape`] the engine would and, as its [`CostSource`],
//! does the real work inside the hooks: which gather is requested when,
//! when a staging buffer goes back and which Adam group ships after which
//! micro-batch are the emitter's decisions.  Where the engine costs the
//! lanes on a discrete-event timeline, this backend *runs* them:
//!
//! * the **gather lane** (the GpuComm stream of Figure 6) stages the
//!   micro-batch the coordinator asks for — pinned host rows copied
//!   straight from a shared borrow of the offloaded store into a recycled
//!   [`PinnedBufferPool`] buffer — and recycles the buffers handed back;
//! * the **CPU Adam lane** *holds the optimiser* for the batch
//!   ([`Trainer::lend_optimizer`]): the moments and step counters never
//!   leave it.  A finalisation group reaches the lane as its group id plus
//!   the **final gradient rows of the Gaussians that received gradient**,
//!   each with its index — all the lane cannot already see; the group's
//!   indices come from the shared [`BatchPlan`], the parameters from the
//!   shared model, a row the renderer never reached is all-zero and is not
//!   shipped, and the untouched `F_0` group ships nothing at all.  The
//!   lane runs
//!   [`GaussianAdam::step_detached`](gs_optim::GaussianAdam::step_detached)
//!   — moments updated in place, optionally sharded across further threads
//!   — and leaves only the new parameter rows behind, in the group's slice
//!   of a buffer the coordinator writes back at batch end;
//! * the **main thread** is the coordinator and the GPU-compute stand-in:
//!   it renders micro-batches and accumulates gradients.
//!
//! Both lane buffers belong to the backend and are reused by every batch:
//! one parameter row per Gaussian (sized by the model, re-provisioned at a
//! densification boundary like the staging pool), and one gradient-row
//! list per finalisation group that grows to what its group ever shipped —
//! so once warm the lane allocates nothing.  Every interval a thread
//! times goes onto that thread's own `LaneSpans` list: the report's
//! [`LaneBusy`] is the per-lane sum of the lists, and
//! [`ThreadedBackend::run_batch_traced`] is the same lists on a
//! [`Timeline`].
//!
//! # Why this is bit-identical to the synchronous trainer
//!
//! The finalisation schedule guarantees a Gaussian finalised by micro-batch
//! `i` is never touched by micro-batches `> i`.  So (a) the gradient rows a
//! group ships are the values the synchronous `apply_finalized` reads at
//! the same point, and the rows it does not ship are the all-zero rows both
//! paths stage a zero lane for; (b) the model the lane reads a finalised Gaussian's
//! parameters from still holds exactly what the synchronous path would
//! update, because nothing is written back before batch end; (c) deferring
//! that write-back cannot change anything a later micro-batch reads; and
//! (d) the detached step stages the same values through the same
//! `adam_update_lanes` kernel as the in-place step — each row's update is
//! independent, so neither lane grouping nor the fan-out changes a bit.
//! Prefetched gathers are safe for the same reason the simulated engine's
//! are: within a batch no parameter a later micro-batch fetches is updated
//! before its last access (`Trainer::process_microbatch` asserts staged
//! rows never go stale).
//!
//! Bounded queues give the pipeline backpressure: a coordinator running
//! ahead of a lane blocks on that lane's full request queue.  The gather
//! lane's completion queue holds the emitter's whole staging-buffer budget
//! ([`ClmShape::staging_buffers`]: `window + 1` per device, the pinned
//! pool's high-water mark), so that lane never blocks on a reply while the
//! coordinator is blocked on a request.

use crate::backend::{ExecutionBackend, ExecutionReport, LaneBusy};
use crate::engine::{emit_system, PrefetchPolicy};
use crate::pool::{PinnedBufferPool, PoolStats, StagingBuffer};
use crate::workers::{spawn_lane, LaneSpans, WorkerLane};
use clm_core::{gather_rows_into, BatchPlan, SystemKind, TrainConfig, Trainer, TrainerView};
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_optim::{threads_for_chunk_rows, GradientBuffer, ParamRow};

/// One shipped gradient row: the Gaussian's index and its final gradient.
type GradRow = (u32, ParamRow);
use gs_render::parallel::parallel_map;
use gs_render::Image;
use gs_scene::Dataset;
use sim_device::pipeline::{AdamGroup, ClmShape, CostSource, OpCost};
use sim_device::{FaultPlan, Lane, OpKind, Timeline};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::time::{Duration, Instant};

/// How long the coordinator waits on a lane completion before counting a
/// timeout, once a fault plan is installed.  Generous against injected
/// straggles (which re-execute microseconds of real work) but bounded, so a
/// genuinely wedged lane aborts instead of hanging the batch.
const LANE_RECV_TIMEOUT: Duration = Duration::from_secs(2);

/// Configuration of the threaded backend.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Prefetch lookahead window (0 = synchronous gathers, 1 = double
    /// buffering).
    pub prefetch_window: usize,
    /// Placeholder — see [`PrefetchPolicy`].
    pub policy: PrefetchPolicy,
    /// Threads the CPU Adam lane may chunk one group's update math across
    /// (1 = the lane's own worker thread does everything).  The default is
    /// the host's *effective* core count — cgroup CPU quotas included — not
    /// the raw logical CPU count, which oversubscribes the lane by an order
    /// of magnitude on a quota-limited container.
    pub adam_threads: usize,
    /// Target rows per Adam chunk: groups smaller than
    /// `adam_threads × adam_chunk_rows` fan out across fewer threads, so a
    /// small group is not split 64 ways into shards whose hand-off costs
    /// more than their rows (0 = no target, always fan out to
    /// `adam_threads`).  Pure scheduling — the detached step is
    /// bit-identical for every thread count.
    pub adam_chunk_rows: usize,
    /// Capacity of the bounded request queues (≥ 1).  Capacity 1 gives the
    /// tightest backpressure; larger values let lanes run further ahead of
    /// their consumers.
    pub channel_capacity: usize,
    /// Worker threads for the banded render compute on the main thread's
    /// lane (0 = inherit the trainer's `TrainConfig::compute_threads`).
    /// This is the knob that lets the compute lane itself scale with cores;
    /// it never changes the numerics.
    pub compute_threads: usize,
    /// Accumulation band height override (0 = inherit the trainer's
    /// `TrainConfig::band_height`).  Part of the numeric contract — see
    /// `TrainConfig::band_height`.
    pub band_height: u32,
    /// Data-parallel device stand-ins (1 = single device).  With `D > 1`
    /// the batch is processed in rounds of `D` micro-batches whose views
    /// render concurrently — one thread per "device" — while losses,
    /// gradient accumulations and Adam hand-offs are replayed in the serial
    /// micro-batch order, so the numerics are bit-identical for every
    /// device count.  Each device gets its own prefetch window, exactly as
    /// on the simulated engine: up to `D · (prefetch_window + 1)` staging
    /// buffers are checked out at once.
    pub num_devices: usize,
    /// Placeholder, always `None` — see `RuntimeConfig::warm_start_ratio`.
    pub warm_start_ratio: Option<std::convert::Infallible>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            prefetch_window: 2,
            policy: PrefetchPolicy::Fixed,
            adam_threads: sim_device::HostTopology::cached().effective_cores(),
            adam_chunk_rows: 0,
            channel_capacity: 2,
            compute_threads: 0,
            band_height: 0,
            num_devices: 1,
            warm_start_ratio: None,
        }
    }
}

impl ThreadedConfig {
    /// A config whose scheduling knobs come from the startup autotuner
    /// ([`crate::autotune::tuned`]): quota-aware thread counts, an
    /// L2-fitted Adam chunk target, the calibrated prefetch window and
    /// the host-derived band height.  Set any field afterwards to override
    /// a derived value.
    pub fn autotuned() -> Self {
        let knobs = crate::autotune::tuned().knobs;
        ThreadedConfig {
            prefetch_window: knobs.prefetch_window,
            adam_threads: knobs.adam_threads,
            adam_chunk_rows: knobs.adam_chunk_rows,
            compute_threads: knobs.compute_threads,
            band_height: knobs.band_height,
            ..Default::default()
        }
    }
}

/// A trainer executing with real worker threads for the communication and
/// CPU Adam lanes.
#[derive(Debug)]
pub struct ThreadedBackend {
    trainer: Trainer,
    config: ThreadedConfig,
    pool: PinnedBufferPool,
    /// Installed fault-injection plan, if any.  Transients and straggles
    /// re-execute *pure* work (gathers into scratch, Adam math with the
    /// commit suppressed), so recovery costs real thread time but never
    /// changes the numerics.
    fault_plan: Option<FaultPlan>,
    /// The CPU Adam lane's output: one parameter row per Gaussian, group
    /// after group (`F_0` first) — where the lane leaves each group's new
    /// parameters for the batch-end write-back.  Reused by every batch.
    adam_params: Vec<ParamRow>,
    /// The final gradient rows shipped to the Adam lane, one list per
    /// finalisation group: the group's Gaussians that received gradient.
    /// Reused by every batch; each list's capacity is the most its group
    /// ever shipped, not a bound on what a batch could touch.
    adam_grads: Vec<Vec<GradRow>>,
}

impl ThreadedBackend {
    /// Creates a threaded backend around an initial model.
    ///
    /// # Panics
    /// Panics under the config conditions of
    /// [`with_trainer`](Self::with_trainer).
    pub fn new(initial_model: GaussianModel, train: TrainConfig, config: ThreadedConfig) -> Self {
        Self::with_trainer(Trainer::new(initial_model, train), config)
    }

    /// Creates a threaded backend around an already-built trainer — the
    /// checkpoint-restore path: the trainer carries its restored model,
    /// optimiser moments and counters, and training continues from there.
    /// The trainer adopts the backend's `compute_threads` / `band_height`
    /// overrides and its device count.
    ///
    /// # Panics
    /// Panics if `config.adam_threads`, `config.channel_capacity` or
    /// `config.num_devices` is 0.
    pub fn with_trainer(mut trainer: Trainer, config: ThreadedConfig) -> Self {
        let (threads, capacity, devices) = (
            config.adam_threads,
            config.channel_capacity,
            config.num_devices,
        );
        assert!(threads > 0, "adam_threads must be at least 1");
        assert!(capacity > 0, "channel_capacity must be at least 1");
        assert!(devices > 0, "num_devices must be at least 1");
        if config.compute_threads > 0 {
            trainer.set_compute_threads(config.compute_threads);
        }
        if config.band_height > 0 {
            trainer.set_band_height(config.band_height);
        }
        // Mirrored for introspection; the backend drives the stepwise API
        // and shards the rounds itself.
        trainer.set_num_devices(config.num_devices);
        ThreadedBackend {
            trainer,
            config,
            pool: PinnedBufferPool::new(),
            fault_plan: None,
            adam_params: Vec::new(),
            adam_grads: Vec::new(),
        }
    }

    /// Installs a fault-injection plan: from the next batch on, the worker
    /// lanes consult the plan's seeded schedule — transient gather/Adam
    /// failures re-execute their (pure) work, a straggler lane repeats its
    /// copies, staging leases may be denied — and the coordinator's lane
    /// waits become real receive timeouts with bounded retries.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
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

    /// The backend configuration.
    pub fn config(&self) -> &ThreadedConfig {
        &self.config
    }

    /// Pinned staging-pool statistics accumulated so far.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Caps the pinned staging pool at `limit` simultaneously checked-out
    /// buffers (`None` removes the cap) — the per-tenant pinned-memory
    /// budget seam used by the serving layer.
    pub fn set_staging_capacity(&mut self, limit: Option<usize>) {
        self.pool.set_capacity_limit(limit);
    }

    /// Rows of capacity the CPU Adam lane's recycled buffers hold:
    /// `(parameter rows, gradient rows)`.  The first is the model's row
    /// count; the second follows what the batches actually shipped.
    pub fn adam_lane_buffer_rows(&self) -> (usize, usize) {
        let grads = self.adam_grads.iter().map(Vec::capacity).sum();
        (self.adam_params.capacity(), grads)
    }

    /// Mean PSNR of the current model over a set of posed images (delegates
    /// to the trainer).
    pub fn evaluate_psnr(&self, cameras: &[Camera], targets: &[Image]) -> f32 {
        self.trainer.evaluate_psnr(cameras, targets)
    }

    /// Executes one training batch with threaded lanes, returning the
    /// numeric batch report plus measured wall-clock lane accounting.
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty.
    pub fn run_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> ExecutionReport {
        self.run_batch_traced(cameras, targets).0
    }

    /// [`run_batch`](Self::run_batch), also returning the batch's measured
    /// spans — every interval the report's lane accounting is the sum of —
    /// on a measurement [`Timeline`], so the threaded backend's real overlap
    /// feeds the same trace pipeline the simulated backends do.
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty.
    pub fn run_batch_traced(
        &mut self,
        cameras: &[Camera],
        targets: &[Image],
    ) -> (ExecutionReport, Timeline) {
        let views = cameras.len();
        assert_eq!(views, targets.len(), "need one target image per camera");
        assert!(views > 0, "batch must contain at least one view");

        let fault_before = self.fault_plan.as_ref().map(|p| p.stats());
        // Worker lanes and the coordinator all consult the same plan; the
        // clone is an `Arc` bump so the scoped threads can borrow a local.
        let fault_owned = self.fault_plan.clone();
        let fault = fault_owned.as_ref();

        // One clock for the batch, one span list per thread.
        let wall_start = Instant::now();
        let mut spans = LaneSpans::new(wall_start);
        let mut gather_spans = LaneSpans::new(wall_start);
        let mut adam_spans = LaneSpans::new(wall_start);

        // Densification boundary first: the worker lanes are scoped to one
        // batch (std::thread::scope below), so between batches nothing is in
        // flight and the model may resize; the lanes then spawn against the
        // post-resize store.  Resize (when due) and planning both run on
        // the host scheduler: one span for the whole boundary.
        let plan = self.trainer.resize_and_plan(cameras);
        if plan.resize.is_some() {
            self.pool.reprovision(crate::engine::max_fetch_rows(&plan));
        }
        let model_len = self.trainer.model().len();
        let rows = model_len as u64;
        spans.record(OpKind::Scheduling, Lane::CpuScheduler, None, 0, rows, 0.0);

        let (m, config) = (plan.num_microbatches(), &self.config);
        let window = config.prefetch_window;
        let system = self.trainer.config().system;
        let overlapped = self.trainer.overlapped();
        let is_clm = system == SystemKind::Clm;
        let shape = ClmShape {
            microbatches: m,
            window,
            devices: config.num_devices,
            overlapped,
        };
        let mut grads = self.trainer.take_gradients();

        // The Adam lane's parameter buffer holds one slice per group, in
        // slot order: slot 0 is F_0, slot i + 1 the group micro-batch i
        // finalises.  The groups partition the model, so it is exactly one
        // row per Gaussian.  Groups are shipped and stepped in slot order,
        // so the lane carves its next slice off the front of what is left.
        // F_0 ships no gradients; group i's received rows go into list i.
        if overlapped && (plan.resize.is_some() || self.adam_params.len() != model_len) {
            // Re-provisioned at a densification boundary (and before the
            // first batch), exact-sized like the staging pool.
            self.adam_params = vec![[0.0; PARAMS_PER_GAUSSIAN]; model_len];
        }
        let adam_slots = if overlapped { m + 1 } else { 0 };
        self.adam_grads
            .resize_with(adam_slots.saturating_sub(1), Vec::new);
        let mut params_left = &mut self.adam_params[..];

        // Disjoint borrows: the Adam lane holds the optimiser for the
        // batch, every lane shares the rest of the trainer read-only, and
        // the gather worker owns the staging pool.
        let (trainer, optimizer) = self.trainer.lend_optimizer();
        let (pool, plan_ref) = (&mut self.pool, &plan);

        // ---- Gather lane (CLM only): stage and reply, or recycle.
        let host_rows = trainer.offloaded().non_critical_rows();
        let gather_lane = |requests: Receiver<GatherRequest>, replies: SyncSender<_>| {
            while let Ok(request) = requests.recv() {
                let i = match request {
                    GatherRequest::Stage(i) => i,
                    GatherRequest::Release(i, buf) => {
                        // Recycling the consumed buffer is comm-lane work
                        // too (it is what a real pinned-pool free costs).
                        let (mb, rows) = (Some(i as u32), buf.len() as u64);
                        let release = || pool.release(buf);
                        gather_spans.time(OpKind::Other, Lane::GpuComm, mb, 0, rows, release);
                        continue;
                    }
                };
                let indices = plan_ref.fetched[i].indices();
                let stage = || {
                    if let Some(fp) = fault.filter(|fp| fp.next_staging_acquire()) {
                        // Denied lease: back off for real and retry — the
                        // retry always succeeds (the pool recycles), so the
                        // staged bytes are untouched.
                        pool.note_denied();
                        sleep_seconds(fp.retry().backoff_base);
                    }
                    let mut buf = pool.acquire(indices.len());
                    gather_rows_into(host_rows, indices, &mut buf);
                    if let Some(fp) = fault {
                        // Failed attempts and straggles re-execute the pure
                        // copy into scratch: real lane time, identical
                        // staged bytes.
                        let mut redo = 0usize;
                        let mut backoff = 0.0f64;
                        if let Some(attempts) = fp.transient_attempts(OpKind::LoadParams) {
                            redo += attempts as usize;
                            backoff += fp.retry().total_backoff(attempts);
                        }
                        if let Some(factor) = fp.straggle_factor(Lane::GpuComm) {
                            redo += (factor.round() as usize).saturating_sub(1);
                        }
                        let mut scratch = Vec::new();
                        for _ in 0..redo {
                            gather_rows_into(host_rows, indices, &mut scratch);
                        }
                        if backoff > 0.0 {
                            sleep_seconds(backoff);
                        }
                    }
                    buf
                };
                let (mb, rows) = (Some(i as u32), indices.len() as u64);
                let bytes = plan_ref.fetch_bytes(i);
                let staged =
                    gather_spans.time(OpKind::LoadParams, Lane::GpuComm, mb, bytes, rows, stage);
                if replies.send((i, staged)).is_err() {
                    return;
                }
            }
        };

        // ---- CPU Adam lane (overlapped CLM only): a request is a group's
        // slot and the final gradient rows of its Gaussians that received
        // gradient (none for F_0); nothing comes back — the new parameter
        // rows wait in the lane's buffer until the batch ends.
        let model = trainer.model();
        let adam_lane = |requests: Receiver<(usize, &[GradRow])>, _: SyncSender<()>| {
            while let Ok((slot, grad_rows)) = requests.recv() {
                let indices = adam_group(plan_ref, slot);
                let out = carve(&mut params_left, indices.len());
                // Chunk-target cap: small groups fan out across fewer
                // threads.  Identical numerics for any fan-out (the
                // detached step guarantees it).
                let fan_out = match config.adam_chunk_rows {
                    0 => config.adam_threads,
                    target => threads_for_chunk_rows(indices.len(), target, config.adam_threads),
                };
                let step = || {
                    if let Some(fp) = fault {
                        if let Some(attempts) = fp.transient_attempts(OpKind::CpuAdamUpdate) {
                            // Failed attempts run the update math for real
                            // but commit nothing, then back off.
                            for _ in 0..attempts {
                                optimizer
                                    .step_detached(model, indices, grad_rows, out, fan_out, false);
                            }
                            sleep_seconds(fp.retry().total_backoff(attempts));
                        }
                    }
                    optimizer.step_detached(model, indices, grad_rows, out, fan_out, true)
                };
                let (mb, rows) = (group_microbatch(slot), indices.len() as u64);
                adam_spans.time(OpKind::CpuAdamUpdate, Lane::CpuAdam, mb, 0, rows, step);
            }
        };

        let (total_loss, shipped_rows) = std::thread::scope(|scope| {
            // Replies get the emitter's whole buffer budget (module docs).
            let capacity = config.channel_capacity;
            let replies = shape.staging_buffers();
            let mut run = LaneRun {
                trainer,
                plan: plan_ref,
                cameras,
                targets,
                fault,
                devices: shape.devices,
                gather: is_clm.then(|| spawn_lane(scope, capacity, replies, gather_lane)),
                adam: overlapped.then(|| spawn_lane(scope, capacity, capacity, adam_lane).requests),
                grads_left: &mut self.adam_grads,
                packed: &[],
                shipped_rows: 0,
                staged: (0..m).map(|_| None).collect(),
                rendered: (0..m).map(|_| None).collect(),
                grads: &mut grads,
                total_loss: 0.0,
                spans: &mut spans,
            };
            emit_system(&mut Timeline::new(), &[], system, &shape, None, &mut run);

            // Shut the lanes down and drain what is still in flight; the
            // scope joins the Adam lane once it has stepped every queued
            // group.
            if let Some(lane) = run.gather {
                drop(lane.requests);
                let drained = lane.completions.recv().is_err();
                assert!(drained, "every staged micro-batch must already be consumed");
            }
            (run.total_loss, run.shipped_rows)
        });

        // Deferred write-back of the lane-computed parameter rows, group by
        // group (disjoint groups — order does not matter).  It is the Adam
        // lane's tail, so it is charged there; `Other` keeps it out of the
        // update-math histograms.
        let mut offset = 0;
        for slot in 0..adam_slots {
            let indices = adam_group(&plan, slot);
            let rows = &self.adam_params[offset..offset + indices.len()];
            offset += indices.len();
            if indices.is_empty() {
                continue;
            }
            let (mb, count, trainer) =
                (group_microbatch(slot), rows.len() as u64, &mut self.trainer);
            let write_back = || trainer.apply_param_rows(indices, rows);
            spans.time(OpKind::Other, Lane::CpuAdam, mb, 0, count, write_back);
        }
        if is_clm {
            let staged_rows: usize = plan.fetched.iter().map(|s| s.len()).sum();
            self.trainer.note_gathered_rows(staged_rows);
        }

        let batch = self.trainer.finish_batch(&plan, &grads, total_loss);
        self.trainer.return_gradients(grads);
        let wall_seconds = wall_start.elapsed().as_secs_f64();

        // The report's lane accounting is the per-lane sum of the batch's
        // spans — nothing is timed anywhere else.
        let timeline = LaneSpans::merge([spans, gather_spans, adam_spans]);
        let lanes = LaneBusy {
            compute: timeline.busy_time(Lane::GpuCompute),
            comm: timeline.busy_time(Lane::GpuComm),
            adam: timeline.busy_time(Lane::CpuAdam),
            scheduling: timeline.busy_time(Lane::CpuScheduler),
        };
        let faults = match (&self.fault_plan, fault_before) {
            (Some(p), Some(before)) => p.stats().since(&before),
            _ => Default::default(),
        };
        let report = ExecutionReport {
            batch,
            views,
            prefetch_window: window,
            compute_threads: gs_render::parallel::resolve_compute_threads(
                self.trainer.config().compute_threads,
            ),
            band_height: self.trainer.resolved_band_height(),
            wall_seconds,
            lanes,
            device_lanes: Vec::new(),
            sim_makespan: None,
            resize: plan.resize.as_ref().map(|e| e.report()),
            faults,
            adam_rows_shipped: shipped_rows,
            adam_bytes_shipped: shipped_rows * std::mem::size_of::<GradRow>() as u64,
        };
        (report, timeline)
    }

    /// Trains over the whole dataset once (views grouped into batches in
    /// trajectory order), returning the per-batch reports.
    pub fn run_epoch(&mut self, dataset: &Dataset, targets: &[Image]) -> Vec<ExecutionReport> {
        ExecutionBackend::execute_epoch(self, dataset, targets)
    }
}

/// What the coordinator asks of the gather lane.
enum GatherRequest {
    /// Stage this micro-batch's rows into a pool buffer and reply with it.
    Stage(usize),
    /// This micro-batch's compute has consumed its buffer: recycle it.
    Release(usize, StagingBuffer),
}

/// One batch of the threaded backend as the emitter's cost source: the
/// coordinator thread, doing the real work inside the hooks in emission
/// order.  `staged` asks the gather lane for a micro-batch, `forward` waits
/// for the buffer and renders, `backward` accumulates and hands the buffer
/// back, `store` retires the micro-batch's gradients (Figure 6's gradient
/// store) and packs the finalised group's rows, and `adam` ships them to
/// the Adam lane.  Every hook prices its op
/// at nothing: the emitted timeline is scratch, what ran when is in the
/// span lists.
struct LaneRun<'a> {
    trainer: TrainerView<'a>,
    plan: &'a BatchPlan,
    cameras: &'a [Camera],
    targets: &'a [Image],
    fault: Option<&'a FaultPlan>,
    devices: usize,
    /// The gather lane (CLM only).
    gather: Option<WorkerLane<GatherRequest, (usize, StagingBuffer)>>,
    /// The CPU Adam lane's request queue (overlapped CLM only).
    adam: Option<SyncSender<(usize, &'a [GradRow])>>,
    /// The Adam-lane gradient lists of the groups not packed yet.
    grads_left: &'a mut [Vec<GradRow>],
    /// The group `store` just packed, until `adam` ships it.
    packed: &'a [GradRow],
    /// Gradient rows packed for the Adam lane so far.
    shipped_rows: u64,
    /// Staged buffers received and not yet handed back, by micro-batch.
    staged: Vec<Option<StagingBuffer>>,
    /// Rendered and not yet accumulated micro-batches of the current round.
    rendered: Vec<Option<(f32, gs_render::RenderGradients)>>,
    grads: &'a mut GradientBuffer,
    total_loss: f32,
    spans: &'a mut LaneSpans,
}

impl CostSource for LaneRun<'_> {
    fn gather(&mut self, _i: usize) -> OpCost {
        OpCost::default()
    }

    fn staged(&mut self, _timeline: &mut Timeline, i: usize) {
        let lane = self.gather.as_ref().expect("only CLM emits gathers");
        let request = GatherRequest::Stage(i);
        lane.requests.send(request).expect("gather lane alive");
    }

    fn forward(&mut self, i: usize) -> OpCost {
        if !i.is_multiple_of(self.devices) {
            return OpCost::default();
        }
        // One round = one micro-batch per device (the tail round may be
        // short); its views render concurrently — one thread per "device".
        // Renders are pure (they read only their own micro-batch's
        // visibility set), so parallelism here cannot change what is
        // computed.  devices = 1 is the serial loop.
        let plan = self.plan;
        let round = i..(i + self.devices).min(plan.num_microbatches());
        if let Some(lane) = &self.gather {
            for j in round.clone() {
                // Replies arrive in request order, which interleaves the
                // devices: park what belongs to a later round.
                while self.staged[j].is_none() {
                    let (k, buf) = recv_completion(&lane.completions, self.fault, "gather");
                    self.staged[k] = Some(buf);
                }
            }
        }
        let (trainer, cameras, targets, staged) =
            (self.trainer, self.cameras, self.targets, &self.staged);
        let render = |j: usize| {
            let rows = staged[j].as_deref().unwrap_or(&[]);
            trainer.render_microbatch(plan, j, cameras, targets, rows)
        };
        let render_round = || match round.len() {
            1 => vec![render(i)],
            views => parallel_map(views, views, |r| render(i + r)),
        };
        // One span per round: with D > 1 the round's renders share the
        // measured interval.
        let (mb, rows) = (
            Some(i as u32),
            round
                .clone()
                .map(|j| plan.ordered_sets[j].len() as u64)
                .sum(),
        );
        let results = self
            .spans
            .time(OpKind::Forward, Lane::GpuCompute, mb, 0, rows, render_round);
        for (j, result) in round.zip(results) {
            self.rendered[j] = Some(result);
        }
        OpCost::default()
    }

    /// Fixed-order reduction: losses and gradient accumulations replay in
    /// the serial micro-batch order, so every floating-point reduction
    /// matches the 1-device path.
    fn backward(&mut self, i: usize) -> OpCost {
        let (loss, render_grads) = self.rendered[i]
            .take()
            .expect("the round's forward rendered this micro-batch");
        self.total_loss += loss;
        let (mb, rows) = (Some(i as u32), self.plan.ordered_sets[i].len() as u64);
        let grads = &mut *self.grads;
        let accumulate = || grads.accumulate_render(&render_grads);
        self.spans
            .time(OpKind::Backward, Lane::GpuCompute, mb, 0, rows, accumulate);
        if let Some(lane) = &self.gather {
            // Return the buffer for recycling; the emitter issues the
            // prefetch slot this frees.
            let buf = self.staged[i].take().expect("forward held this buffer");
            let request = GatherRequest::Release(i, buf);
            lane.requests.send(request).expect("gather lane alive");
        }
        OpCost::default()
    }

    /// The span carries what the store sends — the same payload every
    /// executor accounts at this point.  Its physical half is packing the
    /// finalised group's received gradient rows for the Adam lane (every
    /// one of them retires with this store); that runs on the coordinator
    /// but is optimiser-lane work, so the span is charged to the Adam lane.
    fn store(&mut self, i: usize) -> OpCost {
        let sent = self.plan.store_gradients(i, self.grads);
        let indices = self.plan.finalization.finalized_by(i).indices();
        // Without an Adam lane (non-overlapped CLM) nothing is packed.
        let list = match self.adam {
            Some(_) => Some(&mut carve(&mut self.grads_left, 1)[0]),
            None => None,
        };
        let grads = &*self.grads;
        let pack = || match list {
            Some(list) => {
                list.clear();
                grads.pack_received_into(indices, list);
                &list[..]
            }
            None => &[],
        };
        let mb = Some(i as u32);
        self.packed = self.spans.time(
            OpKind::StoreGrads,
            Lane::CpuAdam,
            mb,
            sent.bytes,
            sent.rows,
            pack,
        );
        self.shipped_rows += self.packed.len() as u64;
        OpCost::default()
    }

    /// The device stand-ins share one gradient buffer, reduced by the
    /// serial accumulation order: nothing to exchange.
    fn allreduce(&mut self, _group: AdamGroup) -> OpCost {
        OpCost::default()
    }

    fn adam(&mut self, group: AdamGroup) -> Vec<OpCost> {
        // F_0 — Gaussians the batch never touches — is final from the
        // start and ships nothing; the dense step of a non-overlapped
        // batch is `finish_batch`'s.
        let slot = match group {
            AdamGroup::Untouched => Some(0),
            AdamGroup::FinalizedBy(i) => Some(i + 1),
            AdamGroup::Dense => None,
        };
        if let (Some(requests), Some(slot)) = (&self.adam, slot) {
            let rows = std::mem::take(&mut self.packed);
            if !adam_group(self.plan, slot).is_empty() {
                requests.send((slot, rows)).expect("adam lane alive");
            }
        }
        vec![OpCost::default(); self.devices]
    }
}

/// The Gaussians of Adam-lane group `slot`: slot 0 is `F_0` (untouched by
/// the whole batch, final from the start), slot `i + 1` the group
/// micro-batch `i` finalises.
fn adam_group(plan: &BatchPlan, slot: usize) -> &[u32] {
    match slot.checked_sub(1) {
        None => plan.untouched.indices(),
        Some(i) => plan.finalization.finalized_by(i).indices(),
    }
}

/// The micro-batch tag of Adam-lane group `slot`'s spans (`F_0` has none).
fn group_microbatch(slot: usize) -> Option<u32> {
    slot.checked_sub(1).map(|i| i as u32)
}

fn sleep_seconds(seconds: f64) {
    std::thread::sleep(Duration::from_secs_f64(seconds));
}

/// Splits the first `len` elements off the front of `buf`.
///
/// # Panics
/// Panics if `buf` holds fewer than `len`.
fn carve<'a, T>(buf: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(buf).split_at_mut(len);
    *buf = tail;
    head
}

/// Waits for one lane completion under the installed fault plan's timeout
/// policy: each real recv timeout is counted, and a lane that stays silent
/// past the retry budget aborts the batch with a diagnostic instead of
/// hanging it.  Without a plan this is a plain blocking wait.
fn recv_completion<T>(rx: &Receiver<T>, fault: Option<&FaultPlan>, lane: &str) -> T {
    let Some(fp) = fault else {
        return rx
            .recv()
            .unwrap_or_else(|_| panic!("{lane} lane must outlive the batch"));
    };
    let mut timeouts = 0u32;
    loop {
        match rx.recv_timeout(LANE_RECV_TIMEOUT) {
            Ok(v) => return v,
            Err(RecvTimeoutError::Timeout) => {
                fp.note_timeout();
                timeouts += 1;
                if timeouts > fp.retry().max_retries {
                    fp.note_abort();
                    panic!(
                        "{lane} lane unresponsive after {timeouts} timeouts of \
                         {LANE_RECV_TIMEOUT:?} each; aborting the batch"
                    );
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                panic!("{lane} lane must outlive the batch")
            }
        }
    }
}

impl ExecutionBackend for ThreadedBackend {
    fn backend_name(&self) -> &'static str {
        "threaded"
    }

    fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    fn execute_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> ExecutionReport {
        self.run_batch(cameras, targets)
    }

    // The inherent methods of the same names hold the definitions (callers
    // with a concrete backend need no trait import).
    fn pool_stats(&self) -> PoolStats {
        ThreadedBackend::pool_stats(self)
    }

    fn set_staging_capacity(&mut self, limit: Option<usize>) {
        ThreadedBackend::set_staging_capacity(self, limit);
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        ThreadedBackend::install_fault_plan(self, plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::tiny_setup;
    use clm_core::{DensifyConfig, DensifySchedule};
    use sim_device::FaultSpec;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Asserts the backend's model and optimiser state equal the
    /// synchronous trainer's.
    fn assert_same_training_state(threaded: &ThreadedBackend, sync: &Trainer, label: &str) {
        assert_eq!(threaded.trainer().model(), sync.model(), "{label}: model");
        assert_eq!(
            threaded.trainer().optimizer().export_rows(),
            sync.optimizer().export_rows(),
            "{label}: optimiser state"
        );
    }

    /// `kind micro-batch` of the ops `keep` selects, in list order (push
    /// order for an emitted timeline, start order for a measured one).
    fn order(timeline: &Timeline, keep: impl Fn(&sim_device::ScheduledOp) -> bool) -> String {
        let ops = timeline.ops().iter().filter(|op| keep(op));
        let mut tokens: Vec<String> = ops
            .map(|op| {
                let kind = match op.kind {
                    OpKind::LoadParams => 'g',
                    OpKind::Forward => 'f',
                    OpKind::Backward => 'b',
                    OpKind::StoreGrads => 't',
                    OpKind::CpuAdamUpdate => 'a',
                    _ => 'x',
                };
                op.microbatch
                    .map_or(format!("{kind}U"), |i| format!("{kind}{i}"))
            })
            .collect();
        // The engine's per-device Adam shares are one group.
        tokens.dedup();
        tokens.join(" ")
    }

    #[test]
    fn threaded_backend_walks_the_engines_schedule() {
        // One thread's spans never overlap, so in start order they are the
        // hooks that thread served, in the order it served them: they must
        // be the engine's ops of the same kinds in emission order.  At one
        // device the gather lane's order is Figure 6's window rule for
        // m = 6, window = 2, spelled out (x = the buffer handed back).
        let (dataset, targets, init) = tiny_setup();
        let (cams, tgts) = (&dataset.cameras[..6], &targets[..6]);
        for devices in [1usize, 2] {
            let mut engine = crate::PipelinedEngine::new(
                init.clone(),
                TrainConfig::default(),
                crate::RuntimeConfig {
                    prefetch_window: 2,
                    num_devices: devices,
                    ..Default::default()
                },
            )
            .partition_over(&dataset.cameras);
            let mut threaded = ThreadedBackend::new(
                init.clone(),
                TrainConfig::default(),
                ThreadedConfig {
                    prefetch_window: 2,
                    num_devices: devices,
                    ..Default::default()
                },
            );
            let simulated = engine.run_batch(cams, tgts).timeline;
            let (_, executed) = threaded.run_batch_traced(cams, tgts);

            // Coordinator: one render per round, accumulation per
            // micro-batch, packing per non-empty group.
            let compute = |op: &sim_device::ScheduledOp| match op.kind {
                OpKind::Forward => (op.microbatch.unwrap() as usize).is_multiple_of(devices),
                OpKind::Backward => true,
                OpKind::StoreGrads => op.rows > 0,
                _ => false,
            };
            let coordinator = order(&executed, compute);
            assert_eq!(coordinator, order(&simulated, compute), "{devices} devices");
            // Gather lane: it stages on `staged(i)` and recycles on
            // `backward(i)`, one queue for both.
            let gather_lane = order(&executed, |op| op.lane == Lane::GpuComm);
            let gathers_and_backwards = order(&simulated, |op| {
                matches!(op.kind, OpKind::LoadParams | OpKind::Backward)
            });
            assert_eq!(
                gather_lane,
                gathers_and_backwards.replace('b', "x"),
                "{devices} devices"
            );
            // Adam lane: F0 first, empty groups skipped.
            let steps =
                |op: &sim_device::ScheduledOp| op.kind == OpKind::CpuAdamUpdate && op.rows > 0;
            let adam_lane = order(&executed, steps);
            assert_eq!(adam_lane, order(&simulated, steps), "{devices} devices");
            if devices == 1 {
                assert_eq!(gather_lane, "g0 g1 g2 x0 g3 x1 g4 x2 g5 x3 x4 x5");
                assert!(coordinator.starts_with("f0 b0 t0 f1 b1 "), "{coordinator}");
                assert!(adam_lane.starts_with("aU a0 "), "{adam_lane}");
            }
        }
    }

    #[test]
    fn adam_lane_ships_only_received_gradient_rows_in_buffers_sized_by_them() {
        let (dataset, targets, init) = tiny_setup();
        let rows = init.len();
        let mut threaded =
            ThreadedBackend::new(init, TrainConfig::default(), ThreadedConfig::default());
        let mut most_shipped = 0;
        for batch in 0..8 {
            // Rotate through the views so group sizes differ batch to batch.
            let start = (batch * 4) % 12;
            let report = threaded.run_batch(
                &dataset.cameras[start..start + 4],
                &targets[start..start + 4],
            );
            assert!(report.batch.touched > 0 && report.batch.touched < rows);
            // Every Gaussian that received gradient is finalised by exactly
            // one micro-batch and ships then; the rest of the frustum-touched
            // rows ship nothing.
            assert!(report.batch.received > 0 && report.batch.received <= report.batch.touched);
            assert_eq!(report.adam_rows_shipped, report.batch.received as u64);
            assert_eq!(
                report.adam_bytes_shipped,
                (report.batch.received * (PARAMS_PER_GAUSSIAN * 4 + 4)) as u64
            );
            most_shipped = most_shipped.max(report.batch.received);
            // One parameter row per Gaussian — fixed by the model — and
            // gradient lists that follow what was shipped (a list at most
            // doubles when it grows), not what a batch could touch.
            let (param_rows, grad_rows) = threaded.adam_lane_buffer_rows();
            assert_eq!(param_rows, rows);
            assert!(grad_rows <= 4 * (2 * most_shipped).max(4), "{grad_rows}");
        }
    }

    #[test]
    fn adam_lane_retries_commit_nothing() {
        // Every injectable op fails at least once: each Adam group is
        // stepped with the commit suppressed before the attempt that counts,
        // across a sharded fan-out.  Model and moments must still equal the
        // fault-free synchronous trainer's.
        let (dataset, targets, init) = tiny_setup();
        let train = TrainConfig::default();
        let mut sync = Trainer::new(init.clone(), train.clone());
        let mut threaded = ThreadedBackend::new(
            init,
            train,
            ThreadedConfig {
                adam_threads: 3,
                adam_chunk_rows: 16,
                ..Default::default()
            },
        );
        threaded.install_fault_plan(FaultPlan::new(
            FaultSpec::new(0xADA4).with_transients(1.0, u64::MAX),
        ));
        for start in [0usize, 4, 8] {
            let cams = &dataset.cameras[start..start + 4];
            let tgts = &targets[start..start + 4];
            let report = threaded.run_batch(cams, tgts);
            assert_eq!(report.batch, sync.train_batch(cams, tgts));
            // At least F_0 and the last group went through the Adam lane.
            assert!(report.faults.retries >= 2, "{:?}", report.faults);
            assert_eq!(report.faults.aborts, 0);
        }
        assert_same_training_state(&threaded, &sync, "after retried batches");
    }

    #[test]
    fn densify_boundary_reprovisions_the_adam_lane_buffers() {
        let (dataset, targets, init) = tiny_setup();
        let train = TrainConfig {
            densify: Some(DensifySchedule {
                every_batches: 2,
                config: DensifyConfig {
                    grad_threshold: 1.0e-5,
                    max_gaussians: init.len() + 40,
                    ..Default::default()
                },
            }),
            ..Default::default()
        };
        let mut sync = Trainer::new(init.clone(), train.clone());
        let mut threaded = ThreadedBackend::new(init, train, ThreadedConfig::default());
        let mut sizes = Vec::new();
        for batch in 0..6 {
            let start = (batch * 4) % 12;
            let cams = &dataset.cameras[start..start + 4];
            let tgts = &targets[start..start + 4];
            let report = threaded.run_batch(cams, tgts);
            assert_eq!(report.batch, sync.train_batch(cams, tgts));
            let rows = threaded.trainer().model().len();
            assert_eq!(
                threaded.adam_lane_buffer_rows().0,
                rows,
                "batch {batch}: the parameter buffer follows the model across a boundary"
            );
            sizes.push(rows);
        }
        sizes.dedup();
        assert!(sizes.len() > 1, "the run must cross a resizing boundary");
        assert_same_training_state(&threaded, &sync, "after densifying batches");
    }

    #[test]
    fn an_unwinding_batch_leaves_the_optimizer_with_the_trainer() {
        let (dataset, targets, init) = tiny_setup();
        let rows = init.len();
        let mut threaded =
            ThreadedBackend::new(init, TrainConfig::default(), ThreadedConfig::default());
        threaded.run_batch(&dataset.cameras[..4], &targets[..4]);
        // A target of the wrong size trips the loss assertion on the
        // coordinator while both lanes are up and F_0 is already shipped.
        let bad_targets = vec![Image::new(3, 3); 4];
        let result = catch_unwind(AssertUnwindSafe(|| {
            threaded.run_batch(&dataset.cameras[..4], &bad_targets)
        }));
        assert!(result.is_err(), "the batch must unwind");
        let optimizer = threaded.trainer().optimizer();
        assert_eq!(optimizer.len(), rows, "full state, not a placeholder");
        assert!((0..rows as u32).all(|i| optimizer.step_count(i) >= 1));
    }
}
