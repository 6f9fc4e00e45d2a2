//! The threaded execution backend: real overlap on real threads.
//!
//! [`ThreadedBackend`] is an executor of [`sim_device::pipeline`]'s one
//! schedule description, next to the synchronous trainer and the simulated
//! [`PipelinedEngine`](crate::PipelinedEngine) (both walking
//! [`clm_core::SerialRun`]), the trace what-if rebuild and the analytic
//! model.  After planning it hands [`emit_system`] the same system and
//! [`ClmShape`] the engine would and, as its [`CostSource`],
//! does the real work inside the hooks: which gather is requested when,
//! when a staging buffer goes back and which Adam group ships after which
//! micro-batch are the emitter's decisions.  Where the engine costs the
//! lanes on a discrete-event timeline, this backend *runs* them:
//!
//! * the **gather lane** (the GpuComm stream of Figure 6) stages the
//!   micro-batch the coordinator asks for — pinned host rows copied
//!   straight from a shared borrow of the model's SH column, the one pinned
//!   host store, into a recycled [`PinnedBufferPool`] buffer — and recycles
//!   the buffers handed back;
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
//!   — and writes each new parameter row to its own row of the **back
//!   model**, a second model of the same length that the coordinator swaps
//!   in at batch end;
//! * the **main thread** is the coordinator and the GPU-compute stand-in:
//!   it renders micro-batches and accumulates gradients.
//!
//! The model is double-buffered: the lane writes every row it steps to the
//! back model, and the swap (`Trainer::swap_model`) leaves the old model
//! behind as the next batch's back model — two model allocations
//! alternate, and no row is copied to publish a batch.  The lane skips
//! *cold* rows (no gradient, moments all `+0.0` bitwise: their step is the
//! identity, see `gs_optim::adam`), so a batch does not write every back
//! row.  The swap stays exact by one invariant: **every row whose moments
//! are `+0.0` holds the same bits in the front and the back model.**
//! `F_0` and the finalisation groups partition the model, so every row
//! that is not cold is stepped and written.  A stepped row whose moments
//! come out `+0.0` had an identity update, so its back row equals its
//! front row; a skipped row leaves both alone; the swap exchanges two
//! models that agree on those rows; and a batch that unwinds before its
//! swap has only written rows by the same rules.  The back model is
//! re-provisioned (`clone_from`) before the first batch and after every
//! applied densification boundary: a resize renumbers rows and appends
//! fresh cold ones, even when it keeps the length.  The gradient rows
//! travel in one list per finalisation group
//! that grows to what its group ever shipped — so once warm the lane
//! allocates nothing.  Every interval a thread times goes onto that
//! thread's own [`LaneSpans`] list, and the lists, merged onto one measured
//! [`Timeline`], are the report's timeline: its per-lane busy seconds are
//! the sums of those spans.
//!
//! # Why this is bit-identical to the synchronous trainer
//!
//! The finalisation schedule guarantees a Gaussian finalised by micro-batch
//! `i` is never touched by micro-batches `> i`.  So (a) the gradient rows a
//! group ships are the values the synchronous `apply_finalized` reads at
//! the same point, and the rows it does not ship are the all-zero rows both
//! paths step with a zero row instead; (b) the model the lane reads a finalised Gaussian's
//! parameters from still holds exactly what the synchronous path would
//! update, because the new rows go to the back model until batch end; (c)
//! deferring the swap cannot change anything a later micro-batch reads; and
//! (d) the detached step feeds the same rows, in the same order, through
//! the same `adam_update_row` kernel as the in-place step — each row's
//! update is independent, so the fan-out changes no bit.
//! Prefetched gathers are safe for the same reason the simulated engine's
//! are: within a batch no parameter a later micro-batch fetches is updated
//! before its last access (`TrainerView::render_microbatch` asserts staged
//! rows never go stale).
//!
//! Bounded queues give the pipeline backpressure: a coordinator running
//! ahead of a lane blocks on that lane's full request queue.  The gather
//! lane's completion queue holds the emitter's whole staging-buffer budget
//! ([`ClmShape::staging_buffers`]: `window + 1` per device, the pinned
//! pool's high-water mark), so that lane never blocks on a reply while the
//! coordinator is blocked on a request.

use crate::backend::ExecutionBackend;
use crate::engine::PrefetchPolicy;
use crate::pool::{PinnedBufferPool, PoolStats, StagingBuffer};
use crate::report::{ExecutionReport, LaneBusy};
use crate::workers::{spawn_lane, WorkerLane};
use clm_core::{
    emit_system, gather_rows_into, BatchPlan, SystemKind, TrainConfig, Trainer, TrainerView,
    WholeModelCosts,
};
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_optim::{threads_for_chunk_rows, GradientBuffer, ParamRow};

/// One shipped gradient row: the Gaussian's index and its final gradient.
type GradRow = (u32, ParamRow);
use gs_render::parallel::parallel_map;
use gs_render::Image;
use sim_device::pipeline::{AdamGroup, ClmShape, CostSource, OpCost};
use sim_device::{FaultPlan, Lane, LaneSpans, OpKind, Timeline};
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
    /// [`tuned`](crate::tuned)'s: the host's *effective* core count —
    /// cgroup CPU quotas included — not the raw logical CPU count, which
    /// oversubscribes the lane by an order of magnitude on a quota-limited
    /// container.
    pub adam_threads: usize,
    /// Target rows per Adam chunk: a group fans out across
    /// `ceil(rows / adam_chunk_rows)` threads, at most `adam_threads`, so a
    /// small group is not split 64 ways into shards whose hand-off costs
    /// more than their rows (0 counts as 1: one thread per row, up to
    /// `adam_threads`).  The default is [`tuned`](crate::tuned)'s, sized to
    /// the L2.  Pure scheduling — the detached step is bit-identical for
    /// every thread count.
    pub adam_chunk_rows: usize,
    /// Capacity of the bounded request queues (≥ 1).  Capacity 1 gives the
    /// tightest backpressure; larger values let lanes run further ahead of
    /// their consumers.
    pub channel_capacity: usize,
    /// Placeholder, never read — see `RuntimeConfig::compute_threads`.
    pub compute_threads: usize,
    /// Placeholder, never read — see `RuntimeConfig::band_height`.
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
        let knobs = crate::tuned().knobs;
        ThreadedConfig {
            prefetch_window: 2,
            policy: PrefetchPolicy::Fixed,
            adam_threads: knobs.adam_threads,
            adam_chunk_rows: knobs.adam_chunk_rows,
            channel_capacity: 2,
            compute_threads: 0,
            band_height: 0,
            num_devices: 1,
            warm_start_ratio: None,
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
    /// The back model the CPU Adam lane writes each group's new parameter
    /// rows into, swapped with the trainer's model at batch end (overlapped
    /// CLM only).  After the swap it holds the previous batch's model.
    back: GaussianModel,
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
    /// The trainer's config stays its own: it renders at its own width and
    /// band height, and the backend shards by `config.num_devices`.
    ///
    /// # Panics
    /// Panics if `config.adam_threads`, `config.channel_capacity` or
    /// `config.num_devices` is 0.
    pub fn with_trainer(trainer: Trainer, config: ThreadedConfig) -> Self {
        let (threads, capacity, devices) = (
            config.adam_threads,
            config.channel_capacity,
            config.num_devices,
        );
        assert!(threads > 0, "adam_threads must be at least 1");
        assert!(capacity > 0, "channel_capacity must be at least 1");
        assert!(devices > 0, "num_devices must be at least 1");
        ThreadedBackend {
            trainer,
            config,
            pool: PinnedBufferPool::new(),
            fault_plan: None,
            back: GaussianModel::new(),
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

    /// Rows the CPU Adam lane's recycled buffers hold: `(back-model rows,
    /// gradient-row capacity)`.  The first is the model's row count; the
    /// second follows what the batches actually shipped.
    pub fn adam_lane_buffer_rows(&self) -> (usize, usize) {
        let grads = self.adam_grads.iter().map(Vec::capacity).sum();
        (self.back.len(), grads)
    }

    /// Executes one training batch with threaded lanes.  The report's
    /// timeline is the batch's measured spans — every interval a lane
    /// thread timed — so the threaded backend's real overlap feeds the same
    /// trace pipeline the simulated backends do.
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty.
    pub fn run_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> ExecutionReport {
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

        // The Adam lane steps F_0, then the group each micro-batch
        // finalises.  Together they partition the model, so the batch writes
        // every back-model row that is not cold.  F_0 ships no gradients;
        // group i's received rows go into list i.
        if overlapped {
            let stepped = plan.untouched.len() + plan.finalization.total_touched();
            assert_eq!(
                stepped, model_len,
                "the Adam groups must partition the model"
            );
            if plan.resize.is_some() || self.back.len() != model_len {
                // Before the first batch and after every resize (which
                // renumbers rows): a copy of the model agrees with it on
                // every cold row, as the module docs' invariant needs.
                self.back.clone_from(self.trainer.model());
            }
        }
        self.adam_grads
            .resize_with(if overlapped { m } else { 0 }, Vec::new);

        // Disjoint borrows: the Adam lane holds the optimiser for the
        // batch, every lane shares the rest of the trainer read-only, and
        // the gather worker owns the staging pool.
        let (trainer, optimizer) = self.trainer.lend_optimizer();
        let (pool, plan_ref) = (&mut self.pool, &plan);

        // ---- Gather lane (CLM only): stage and reply, or recycle.
        let host_rows = trainer.model().sh_rows();
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

        // ---- CPU Adam lane (overlapped CLM only): a request is a group
        // and the final gradient rows of its Gaussians that received
        // gradient (none for F_0); nothing comes back — the new parameter
        // rows wait in the back model until the batch ends.
        let (model, back) = (trainer.model(), &mut self.back);
        let adam_lane = |requests: Receiver<(AdamGroup, &[GradRow])>, _: SyncSender<()>| {
            while let Ok((group, grad_rows)) = requests.recv() {
                let indices = plan_ref
                    .adam_group(group)
                    .expect("the lane steps F_0 and finalised groups only")
                    .indices();
                // Chunk-target cap: small groups fan out across fewer
                // threads.  Identical numerics for any fan-out (the
                // detached step guarantees it).
                let fan_out = threads_for_chunk_rows(
                    indices.len(),
                    config.adam_chunk_rows,
                    config.adam_threads,
                );
                let start = adam_spans.now();
                if let Some(fp) = fault {
                    if let Some(attempts) = fp.transient_attempts(OpKind::CpuAdamUpdate) {
                        // Failed attempts run the update math for real but
                        // commit nothing, then back off.
                        for _ in 0..attempts {
                            optimizer
                                .step_detached(model, indices, grad_rows, back, fan_out, false);
                        }
                        sleep_seconds(fp.retry().total_backoff(attempts));
                    }
                }
                let skipped = optimizer.rows_skipped();
                optimizer.step_detached(model, indices, grad_rows, back, fan_out, true);
                // The span carries the rows the kernel stepped: the group
                // less its cold rows.
                let skipped = optimizer.rows_skipped() - skipped;
                let rows = (indices.len() - skipped) as u64;
                let mb = group.microbatch();
                adam_spans.record(OpKind::CpuAdamUpdate, Lane::CpuAdam, mb, 0, rows, start);
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
            let whole = WholeModelCosts::default();
            emit_system(&mut Timeline::new(), &[], system, &shape, &whole, &mut run);

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

        // Publish the lane's rows: swap the back model in.  It is the Adam
        // lane's tail, so it is charged there; `Other` keeps it out of the
        // update-math histograms.
        if overlapped {
            let (trainer, back) = (&mut self.trainer, &mut self.back);
            let swap = || trainer.swap_model(back);
            spans.time(OpKind::Other, Lane::CpuAdam, None, 0, rows, swap);
        }
        if is_clm {
            let staged_rows: usize = plan.fetched.iter().map(|s| s.len()).sum();
            self.trainer.note_gathered_rows(staged_rows);
        }

        // Without overlap, CLM's dense step is the batch close, the one
        // step of the batch: it updated every row but the skipped ones.
        let start = spans.now();
        let batch = self.trainer.finish_batch(&plan, &grads, total_loss);
        if is_clm && !overlapped {
            let stepped = rows - batch.adam_rows_skipped as u64;
            spans.record(
                OpKind::CpuAdamUpdate,
                Lane::CpuAdam,
                None,
                0,
                stepped,
                start,
            );
        }
        self.trainer.return_gradients(grads);
        let wall_seconds = wall_start.elapsed().as_secs_f64();

        // The report's lane accounting is the per-lane sum of the batch's
        // spans — nothing is timed anywhere else.
        let mut timeline = Timeline::new();
        LaneSpans::merge_onto([spans, gather_spans, adam_spans], &mut timeline);
        let faults = match (&self.fault_plan, fault_before) {
            (Some(p), Some(before)) => p.stats().since(&before),
            _ => Default::default(),
        };
        ExecutionReport {
            batch,
            lanes: LaneBusy::of(&timeline, shape.devices),
            timeline,
            wall_seconds,
            faults,
            adam_rows_shipped: shipped_rows,
        }
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
    adam: Option<SyncSender<(AdamGroup, &'a [GradRow])>>,
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
        // reached set), so parallelism here cannot change what is
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
        let (bytes, rows) = (self.plan.store_bytes(i), self.plan.stored[i].len() as u64);
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
        self.packed = self
            .spans
            .time(OpKind::StoreGrads, Lane::CpuAdam, mb, bytes, rows, pack);
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
        if let (Some(requests), Some(set)) = (&self.adam, self.plan.adam_group(group)) {
            let rows = std::mem::take(&mut self.packed);
            if !set.is_empty() {
                requests.send((group, rows)).expect("adam lane alive");
            }
        }
        vec![OpCost::default(); self.devices]
    }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::tiny_setup;
    use clm_core::{DensifyConfig, DensifySchedule};
    use gs_core::PARAMS_PER_GAUSSIAN;
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

    /// Asserts the back model's invariant (module docs): every row whose
    /// moments are all `+0.0` bitwise — rows past the optimiser's state
    /// included — holds the same bits in the front and the back model.
    /// Returns how many rows that covered.
    fn assert_cold_rows_agree(threaded: &ThreadedBackend, label: &str) -> usize {
        let (front, back) = (threaded.trainer().model(), &threaded.back);
        assert_eq!(front.len(), back.len(), "{label}: back model length");
        let state = threaded.trainer().optimizer().export_rows();
        let zero = |row: &ParamRow| row.iter().all(|x| x.to_bits() == 0);
        let cold =
            (0..front.len()).filter(|&i| state.get(i).is_none_or(|r| zero(&r.m) && zero(&r.v)));
        let mut checked = 0;
        for i in cold {
            let bits = |model: &GaussianModel| model.param_row(i).map(f32::to_bits);
            assert_eq!(bits(front), bits(back), "{label}: cold row {i}");
            checked += 1;
        }
        checked
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
        // m = 6, window = 2, spelled out (x = the buffer handed back).  The
        // compared batch is the second: a fresh model's F0 is all cold, so
        // its step updates no row, and only after a first batch has it live
        // rows to step.
        let (dataset, targets, init) = tiny_setup();
        let (cams, tgts) = (&dataset.cameras[..6], &targets[..6]);
        let (first_cams, first_tgts) = (&dataset.cameras[6..12], &targets[6..12]);
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
            engine.run_batch(first_cams, first_tgts);
            threaded.run_batch(first_cams, first_tgts);
            let simulated = engine.run_batch(cams, tgts).timeline;
            let executed = threaded.run_batch(cams, tgts).timeline;

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
            // Adam lane: F0 first; a group that stepped no row is left out.
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
        // A shipped row is the Gaussian's 59 gradient floats and its index.
        assert_eq!(std::mem::size_of::<GradRow>(), PARAMS_PER_GAUSSIAN * 4 + 4);
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
            // one micro-batch and ships then; the rest of the touched
            // (reached) rows ship nothing.
            assert!(report.batch.received > 0 && report.batch.received <= report.batch.touched);
            assert_eq!(report.adam_rows_shipped, report.batch.received as u64);
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

    /// A densifying run capped at its initial size: the splats whose
    /// opacity sits below the prune threshold go, and high-gradient ones
    /// split into as many appended rows as were pruned.  Rows are renumbered
    /// and fresh cold rows appended without a change of length, so the back
    /// model must be re-provisioned at every boundary, not only when the
    /// length changed.
    #[test]
    fn densify_boundary_reprovisions_the_adam_lane_buffers() {
        let (dataset, targets, init) = tiny_setup();
        let train = TrainConfig {
            densify: Some(DensifySchedule {
                every_batches: 2,
                config: DensifyConfig {
                    grad_threshold: 1.0e-5,
                    prune_opacity: 0.32,
                    max_gaussians: init.len(),
                    ..Default::default()
                },
            }),
            ..Default::default()
        };
        let mut sync = Trainer::new(init.clone(), train.clone());
        let mut threaded = ThreadedBackend::new(init, train, ThreadedConfig::default());
        let (mut resizes, mut cold_rows) = (Vec::new(), 0);
        for batch in 0..8 {
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
            cold_rows += assert_cold_rows_agree(&threaded, &format!("batch {batch}"));
            resizes.extend(report.batch.resize);
        }
        assert!(resizes.len() >= 2, "the run must cross two boundaries");
        assert!(
            resizes.iter().any(|r| r.net_growth() == 0 && r.pruned > 0),
            "a boundary must renumber rows at an unchanged length: {resizes:?}"
        );
        assert!(cold_rows > 0, "the run must leave cold rows to check");
        assert_same_training_state(&threaded, &sync, "after densifying batches");
    }

    #[test]
    fn a_warm_batch_swaps_the_two_models_and_allocates_none() {
        let (dataset, targets, init) = tiny_setup();
        let mut threaded =
            ThreadedBackend::new(init, TrainConfig::default(), ThreadedConfig::default());
        let mut models = Vec::new();
        for batch in 0..6 {
            let start = (batch * 4) % 12;
            let cams = &dataset.cameras[start..start + 4];
            threaded.run_batch(cams, &targets[start..start + 4]);
            let at = |m: &GaussianModel| (m.positions().as_ptr(), m.sh_rows().as_ptr());
            models.push((at(threaded.trainer().model()), at(&threaded.back)));
        }
        // The first batch provisions the back model; from then on each batch
        // swaps the same two allocations.
        for (batch, pair) in models.windows(2).enumerate() {
            let (front, back) = pair[0];
            assert_eq!(pair[1], (back, front), "batch {}", batch + 1);
        }
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
        assert!(assert_cold_rows_agree(&threaded, "after the unwind") > 0);

        // The half-written back model leaks into nothing: the next batch
        // equals a synchronous trainer started from the state the unwind
        // left (the model untouched, the optimiser with F_0 stepped).
        let t = threaded.trainer();
        let mut sync = Trainer::from_checkpoint(
            t.model().clone(),
            t.optimizer().clone(),
            t.config().clone(),
            t.batches_trained(),
            t.grad_norm_accum().to_vec(),
            t.resize_events(),
            t.last_resize_batch(),
            0,
        );
        let (cams, tgts) = (&dataset.cameras[4..8], &targets[4..8]);
        let report = threaded.run_batch(cams, tgts);
        assert_eq!(report.batch, sync.train_batch(cams, tgts));
        assert_same_training_state(&threaded, &sync, "the batch after an unwound one");
        assert_cold_rows_agree(&threaded, "the batch after an unwound one");
    }
}
