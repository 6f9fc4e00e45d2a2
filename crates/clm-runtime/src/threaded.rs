//! The threaded execution backend: real overlap on real threads.
//!
//! [`ThreadedBackend`] executes the same stepwise trainer sequence as the
//! simulated [`PipelinedEngine`](crate::PipelinedEngine), but instead of
//! costing the lanes on a discrete-event timeline it *runs* them on
//! dedicated worker threads:
//!
//! * the **gather lane** (the GpuComm stream of Figure 6) copies pinned
//!   host rows into recycled [`PinnedBufferPool`] staging buffers up to a
//!   prefetch window ahead of the micro-batch that consumes them — the
//!   copies happen on the worker, straight from a shared borrow of the
//!   offloaded store (zero intermediate clones);
//! * the **CPU Adam lane** *holds the optimiser* for the batch
//!   ([`Trainer::lend_optimizer`]): the moments and step counters never
//!   leave it.  A finalisation group reaches the lane as its group id plus
//!   the group's **final gradient rows** — all the lane cannot already see;
//!   the indices come from the shared [`BatchPlan`],
//!   the parameters from the shared model, and the untouched `F_0` group
//!   ships nothing at all (its gradient is zero by construction).  The lane
//!   runs [`GaussianAdam::step_detached`](gs_optim::GaussianAdam::step_detached)
//!   — moments updated in place, optionally sharded across further threads
//!   — and leaves only the new parameter rows behind, in the group's slice
//!   of a buffer the coordinator writes back at batch end;
//! * the **main thread** is the GPU-compute stand-in: it renders
//!   micro-batches and accumulates gradients.
//!
//! Both lane buffers — one parameter row per Gaussian, and the batch's
//! gradient rows — belong to the backend and are reused by every batch;
//! they are sized by the model alone, so between densification boundaries
//! (where they are re-provisioned like the staging pool) the lane allocates
//! nothing.
//!
//! # Why this is bit-identical to the synchronous trainer
//!
//! The finalisation schedule guarantees a Gaussian finalised by micro-batch
//! `i` is never touched by micro-batches `> i`.  So (a) the gradient rows a
//! group ships are the values the synchronous `apply_finalized` reads at
//! the same point; (b) the model the lane reads a finalised Gaussian's
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
//! Bounded queues give the pipeline backpressure: a gather lane that runs
//! ahead blocks on its completion queue (capped at the window's
//! `staging_buffers()`, preserving the window+1 pinned-buffer high-water
//! mark), and an Adam lane that falls behind blocks the coordinator only
//! when its request queue is full.

use crate::backend::{ExecutionBackend, ExecutionReport, LaneBusy};
use crate::pool::{PinnedBufferPool, PoolStats, StagingBuffer};
use crate::prefetch::{PrefetchPolicy, WindowSelector};
use crate::workers::{spawn_lane, BusyTimer, SpanLog};
use clm_core::{gather_rows_into, BatchPlan, SystemKind, TrainConfig, Trainer};
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_optim::ParamRow;
use gs_render::parallel::parallel_map;
use gs_render::Image;
use gs_scene::Dataset;
use sim_device::{FaultPlan, Lane, OpKind, PrefetchWindow, Timeline};
use std::sync::mpsc::RecvTimeoutError;
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
    /// buffering).  Under [`PrefetchPolicy::Adaptive`] this seeds the first
    /// batch.
    pub prefetch_window: usize,
    /// Fixed vs. adaptive window selection.
    pub policy: PrefetchPolicy,
    /// Threads the CPU Adam lane may chunk one group's update math across
    /// (1 = the lane's own worker thread does everything).  The default is
    /// the host's *effective* core count — cgroup CPU quotas included — not
    /// the raw logical CPU count: on a quota-limited container the old
    /// `available_parallelism`-based default oversubscribed the Adam lane
    /// by an order of magnitude.
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
    /// device count.  A round holds `D` staged buffers at once, so the
    /// effective prefetch window is floored at `D − 1`.
    pub num_devices: usize,
    /// Warm start for the tracked prefetch fetch/compute ratio (e.g. a
    /// [`WarmStartCache`](crate::WarmStartCache) entry recorded by an
    /// earlier run on the same scene); `None` cold-starts as before.
    pub warm_start_ratio: Option<f64>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            prefetch_window: 2,
            policy: PrefetchPolicy::Fixed,
            // Effective cores, not raw available_parallelism: a cgroup CPU
            // quota (the common container case) caps how many Adam chunk
            // threads can actually run.
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
    /// L2-fitted Adam chunk target, the calibrated prefetch-window seed and
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
    /// Adaptive-window state fed by each batch's measured fetch/compute
    /// thread-busy times.
    window_selector: WindowSelector,
    /// Installed fault-injection plan, if any.  Transients and straggles
    /// re-execute *pure* work (gathers into scratch, Adam math with the
    /// commit suppressed), so recovery costs real thread time but never
    /// changes the numerics.
    fault_plan: Option<FaultPlan>,
    /// The CPU Adam lane's output: one parameter row per Gaussian, group
    /// after group (`F_0` first) — where the lane leaves each group's new
    /// parameters for the batch-end write-back.  Reused by every batch.
    adam_params: Vec<ParamRow>,
    /// The batch's final gradient rows, finalisation group after group —
    /// the only thing shipped to the Adam lane.  Reused by every batch; its
    /// capacity is the model's row count, the one bound on a batch's touched
    /// rows that does not depend on the batch.
    adam_grads: Vec<ParamRow>,
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
        assert!(config.adam_threads > 0, "adam_threads must be at least 1");
        assert!(
            config.channel_capacity > 0,
            "channel_capacity must be at least 1"
        );
        assert!(config.num_devices > 0, "num_devices must be at least 1");
        if config.compute_threads > 0 {
            trainer.set_compute_threads(config.compute_threads);
        }
        if config.band_height > 0 {
            trainer.set_band_height(config.band_height);
        }
        // Mirrored for introspection; the backend drives the stepwise API
        // and shards the rounds itself.
        trainer.set_num_devices(config.num_devices);
        let window_selector = WindowSelector::warm_started(config.warm_start_ratio);
        ThreadedBackend {
            trainer,
            config,
            pool: PinnedBufferPool::new(),
            window_selector,
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

    /// Rows of [`ParamRow`] capacity the CPU Adam lane's two recycled
    /// buffers hold.  Constant between densification boundaries: the lane
    /// allocates nothing in steady state.
    pub fn adam_lane_buffer_rows(&self) -> usize {
        self.adam_params.capacity() + self.adam_grads.capacity()
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

    /// Executes one training batch with threaded lanes, returning the
    /// numeric batch report plus measured wall-clock lane accounting.
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty.
    pub fn run_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> ExecutionReport {
        self.run_batch_inner(cameras, targets, None)
    }

    /// [`run_batch`](Self::run_batch) with measured span capture: every
    /// timed interval — on the worker threads and the coordinator alike —
    /// is additionally recorded against its lane and laid out on the
    /// returned measurement [`Timeline`], so the threaded backend's real
    /// overlap feeds the same trace pipeline the simulated backends do.
    /// Lane busy accounting in the report is untouched (it still comes
    /// from the [`BusyTimer`]s).
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty.
    pub fn run_batch_traced(
        &mut self,
        cameras: &[Camera],
        targets: &[Image],
    ) -> (ExecutionReport, Timeline) {
        let log = SpanLog::new();
        let report = self.run_batch_inner(cameras, targets, Some(&log));
        (report, log.into_timeline())
    }

    fn run_batch_inner(
        &mut self,
        cameras: &[Camera],
        targets: &[Image],
        spans: Option<&SpanLog>,
    ) -> ExecutionReport {
        assert_eq!(
            cameras.len(),
            targets.len(),
            "need one target image per camera"
        );
        assert!(!cameras.is_empty(), "batch must contain at least one view");

        let fault_before = self.fault_plan.as_ref().map(|p| p.stats());
        // Worker lanes and the coordinator all consult the same plan; the
        // clone is an `Arc` bump so the scoped threads can borrow a local.
        let fault_owned = self.fault_plan.clone();
        let fault = fault_owned.as_ref();

        let wall_start = Instant::now();
        // Densification boundary first: the worker lanes are scoped to one
        // batch (std::thread::scope below), so between batches nothing is in
        // flight and the model may resize; the lanes then spawn against the
        // post-resize store.  Boundary work is scheduler-lane time.
        let sched_start = spans.map(SpanLog::now);
        let plan = self.trainer.resize_and_plan(cameras);
        if plan.resize.is_some() {
            self.pool.reprovision(crate::engine::max_fetch_rows(&plan));
        }
        let scheduling_seconds = wall_start.elapsed().as_secs_f64();
        if let (Some(log), Some(s)) = (spans, sched_start) {
            // One span for the whole boundary: resize (when due) and
            // planning both run on the host scheduler here.
            log.record(
                OpKind::Scheduling,
                Lane::CpuScheduler,
                s,
                log.now(),
                0,
                self.trainer.model().len() as u64,
                None,
            );
        }

        let m = plan.num_microbatches();
        let devices = self.config.num_devices;
        // A D-device round holds D staged buffers at once, so the window
        // (and with it the gather lane's completion-queue budget) is
        // floored at D − 1; the round could not be staged otherwise.
        let window = self
            .window_selector
            .choose(self.config.policy, self.config.prefetch_window)
            .max(devices.saturating_sub(1));
        let pw = PrefetchWindow::new(window, m);

        let overlapped = self.trainer.overlapped();
        let is_clm = self.trainer.config().system == SystemKind::Clm;
        let mut grads = self.trainer.take_gradients();

        let gather_timer = BusyTimer::new();
        let adam_timer = BusyTimer::new();
        let mut compute_seconds = 0.0f64;
        let mut total_loss = 0.0f32;

        // The Adam lane's buffers, carved into one slice per group: slot 0
        // is F_0, slot i + 1 the group micro-batch i finalises.  The groups
        // partition the model, so the parameter buffer is exactly one row
        // per Gaussian; F_0 ships no gradients, so the gradient buffer
        // holds the touched rows only.
        let model_len = self.trainer.model().len();
        if overlapped && (plan.resize.is_some() || self.adam_params.len() != model_len) {
            // Re-provisioned at a densification boundary (and before the
            // first batch), exact-sized like the staging pool.
            self.adam_params = vec![[0.0; PARAMS_PER_GAUSSIAN]; model_len];
            self.adam_grads = Vec::with_capacity(model_len);
        }
        let (adam_slots, touched_rows) = if overlapped {
            (m + 1, plan.finalization.total_touched())
        } else {
            (0, 0)
        };
        self.adam_grads
            .resize(touched_rows, [0.0; PARAMS_PER_GAUSSIAN]);
        let group_len = |slot: usize| adam_group(&plan, slot).len();
        let param_slices = split_by_lens(&mut self.adam_params, (0..adam_slots).map(group_len));
        let mut grad_slices = split_by_lens(&mut self.adam_grads, (1..adam_slots).map(group_len));

        // Disjoint borrows: the Adam lane holds the optimiser for the
        // batch, every lane shares the rest of the trainer read-only, and
        // the gather worker owns the staging pool.
        let (trainer, optimizer) = self.trainer.lend_optimizer();
        let pool = &mut self.pool;
        let capacity = self.config.channel_capacity;
        let adam_threads = self.config.adam_threads;
        let adam_chunk_rows = self.config.adam_chunk_rows;
        // Chunk-target cap: small groups fan out across fewer threads.
        // Identical numerics for any fan-out (the detached step guarantees
        // it).
        let adam_fan_out = move |len: usize| {
            if adam_chunk_rows == 0 {
                adam_threads
            } else {
                gs_optim::threads_for_chunk_rows(len, adam_chunk_rows, adam_threads)
            }
        };
        let plan_ref = &plan;

        std::thread::scope(|scope| {
            // ---- Gather lane (CLM only): stages prefetched rows into
            // recycled pinned buffers.  Completion queue capacity equals the
            // window's buffer budget, so at most window+1 staged buffers are
            // ever in flight.
            let gather = is_clm.then(|| {
                let rows = trainer.offloaded().non_critical_rows();
                let timer = &gather_timer;
                spawn_lane::<(usize, StagingBuffer), (usize, StagingBuffer), _>(
                    scope,
                    capacity,
                    pw.staging_buffers(),
                    move |req_rx, resp_tx| {
                        let stage = |i: usize, pool: &mut PinnedBufferPool| {
                            let indices = plan_ref.fetched[i].indices();
                            let span_start = spans.map(SpanLog::now);
                            let buf = timer.time(|| {
                                if let Some(fp) = fault {
                                    if fp.next_staging_acquire() {
                                        // Denied lease: back off for real and
                                        // retry — the retry always succeeds
                                        // (the pool recycles), so the staged
                                        // bytes are untouched.
                                        pool.note_denied();
                                        std::thread::sleep(Duration::from_secs_f64(
                                            fp.retry().backoff_base,
                                        ));
                                    }
                                }
                                let mut buf = pool.acquire(indices.len());
                                gather_rows_into(rows, indices, &mut buf);
                                if let Some(fp) = fault {
                                    // Failed attempts and straggles re-execute
                                    // the pure copy into scratch: real lane
                                    // time, identical staged bytes.
                                    let mut redo = 0usize;
                                    let mut backoff = 0.0f64;
                                    if let Some(attempts) =
                                        fp.transient_attempts(OpKind::LoadParams)
                                    {
                                        redo += attempts as usize;
                                        backoff += fp.retry().total_backoff(attempts);
                                    }
                                    if let Some(factor) = fp.straggle_factor(Lane::GpuComm) {
                                        redo += (factor.round() as usize).saturating_sub(1);
                                    }
                                    let mut scratch = Vec::new();
                                    for _ in 0..redo {
                                        gather_rows_into(rows, indices, &mut scratch);
                                    }
                                    if backoff > 0.0 {
                                        std::thread::sleep(Duration::from_secs_f64(backoff));
                                    }
                                }
                                buf
                            });
                            if let (Some(log), Some(s)) = (spans, span_start) {
                                log.record(
                                    OpKind::LoadParams,
                                    Lane::GpuComm,
                                    s,
                                    log.now(),
                                    plan_ref.fetch_bytes(i),
                                    indices.len() as u64,
                                    Some(i as u32),
                                );
                            }
                            // Blocking send = backpressure once the buffer
                            // budget is staged but unconsumed.
                            resp_tx.send((i, buf)).is_ok()
                        };
                        for i in pw.issuable_after(None) {
                            if !stage(i, pool) {
                                return;
                            }
                        }
                        while let Ok((j, buf)) = req_rx.recv() {
                            // Recycling the consumed buffer is comm-lane
                            // work too (it is what a real pinned-pool free
                            // costs), so it counts towards the lane's busy
                            // time.
                            timer.time(|| pool.release(buf));
                            for i in pw.issuable_after(Some(j)) {
                                if !stage(i, pool) {
                                    return;
                                }
                            }
                        }
                    },
                )
            });

            // ---- CPU Adam lane (overlapped CLM only): steps each group
            // on the lent optimiser the moment its request arrives.  A
            // request is the group's slot and its final gradient rows;
            // nothing comes back — the new parameter rows wait in the
            // group's slice of the lane's buffer until the batch ends.
            let adam = overlapped.then(|| {
                let timer = &adam_timer;
                let model = trainer.model();
                let mut param_slices = param_slices;
                spawn_lane::<(usize, &[ParamRow]), (), _>(
                    scope,
                    capacity,
                    capacity,
                    move |req_rx, _completions| {
                        while let Ok((slot, grad_rows)) = req_rx.recv() {
                            let indices = adam_group(plan_ref, slot);
                            // F_0's gradient is zero by construction.
                            let grad_rows = (slot != 0).then_some(grad_rows);
                            let out = &mut *param_slices[slot];
                            let fan_out = adam_fan_out(indices.len());
                            let span_start = spans.map(SpanLog::now);
                            timer.time(|| {
                                if let Some(fp) = fault {
                                    if let Some(attempts) =
                                        fp.transient_attempts(OpKind::CpuAdamUpdate)
                                    {
                                        // Failed attempts run the update
                                        // math for real but commit nothing,
                                        // then back off.
                                        for _ in 0..attempts {
                                            optimizer.step_detached(
                                                model, indices, grad_rows, out, fan_out, false,
                                            );
                                        }
                                        std::thread::sleep(Duration::from_secs_f64(
                                            fp.retry().total_backoff(attempts),
                                        ));
                                    }
                                }
                                optimizer
                                    .step_detached(model, indices, grad_rows, out, fan_out, true)
                            });
                            if let (Some(log), Some(s)) = (spans, span_start) {
                                log.record(
                                    OpKind::CpuAdamUpdate,
                                    Lane::CpuAdam,
                                    s,
                                    log.now(),
                                    0,
                                    indices.len() as u64,
                                    None,
                                );
                            }
                        }
                    },
                )
            });

            // Empty groups would be pure handoff overhead; skipping them
            // cannot change numerics (an empty subset step is a no-op).
            // Packing the gradient rows runs on the coordinator but is
            // optimiser-lane work, so it is charged to the Adam lane's busy
            // time.
            let adam_requests = adam.as_ref().map(|lane| &lane.requests);
            let mut send_group = |slot: usize, grads: &gs_optim::GradientBuffer| {
                let Some(requests) = adam_requests else {
                    return;
                };
                let indices = adam_group(plan_ref, slot);
                if indices.is_empty() {
                    return;
                }
                let rows: &[ParamRow] = match slot.checked_sub(1) {
                    None => &[],
                    Some(group) => {
                        let rows = std::mem::take(&mut grad_slices[group]);
                        adam_timer.time(|| grads.read_rows_into(indices, rows));
                        rows
                    }
                };
                requests.send((slot, rows)).expect("adam lane alive");
            };

            // F_0: Gaussians the batch never touches are final from the
            // start; their update overlaps the whole pipeline.
            send_group(0, &grads);

            let empty: StagingBuffer = Vec::new();
            let mut i = 0;
            while i < m {
                // One round = one micro-batch per device (the tail round
                // may be short).  devices = 1 degenerates to the serial
                // micro-batch loop.
                let round = (m - i).min(devices);
                let staged: Vec<StagingBuffer> = match &gather {
                    Some(lane) => (0..round)
                        .map(|r| {
                            let (j, buf) = recv_completion(&lane.completions, fault, "gather");
                            debug_assert_eq!(j, i + r, "gathers complete in issue order");
                            buf
                        })
                        .collect(),
                    None => vec![empty.clone(); round],
                };

                // Render the round's views concurrently — one thread per
                // "device".  Renders are pure (they read only their own
                // micro-batch's visibility set), so parallelism here cannot
                // change what is computed.
                let span_start = spans.map(SpanLog::now);
                let t = Instant::now();
                let results: Vec<(f32, gs_render::RenderGradients)> = if round > 1 {
                    parallel_map(round, round, |r| {
                        trainer.render_microbatch(plan_ref, i + r, cameras, targets, &staged[r])
                    })
                } else {
                    vec![trainer.render_microbatch(plan_ref, i, cameras, targets, &staged[0])]
                };
                compute_seconds += t.elapsed().as_secs_f64();
                if let (Some(log), Some(s)) = (spans, span_start) {
                    // One span per round: with D > 1 the round's renders run
                    // concurrently and share the measured interval.
                    let rows: u64 = (0..round)
                        .map(|r| plan_ref.ordered_sets[i + r].len() as u64)
                        .sum();
                    log.record(
                        OpKind::Forward,
                        Lane::GpuCompute,
                        s,
                        log.now(),
                        0,
                        rows,
                        Some(i as u32),
                    );
                }

                // Fixed-order reduction: losses, gradient accumulations and
                // Adam hand-offs replay in the serial micro-batch order, so
                // every floating-point reduction matches the 1-device path.
                for (r, (loss, render_grads)) in results.iter().enumerate() {
                    total_loss += loss;
                    let span_start = spans.map(SpanLog::now);
                    let t = Instant::now();
                    grads.accumulate_render(render_grads);
                    compute_seconds += t.elapsed().as_secs_f64();
                    if let (Some(log), Some(s)) = (spans, span_start) {
                        log.record(
                            OpKind::Backward,
                            Lane::GpuCompute,
                            s,
                            log.now(),
                            0,
                            plan_ref.ordered_sets[i + r].len() as u64,
                            Some((i + r) as u32),
                        );
                    }

                    send_group(i + r + 1, &grads);
                }

                if let Some(lane) = &gather {
                    // Return the round's buffers for recycling and unlock
                    // the next prefetch slots.
                    for (r, buf) in staged.into_iter().enumerate() {
                        lane.requests.send((i + r, buf)).expect("gather lane alive");
                    }
                }
                i += round;
            }

            // Shut the lanes down and drain what is still in flight.
            if let Some(lane) = gather {
                drop(lane.requests);
                assert!(
                    lane.completions.recv().is_err(),
                    "every staged micro-batch must already be consumed"
                );
            }
            // The scope joins the Adam lane once it has stepped every
            // queued group.
            drop(adam);
        });

        // Deferred write-back of the lane-computed parameter rows, group by
        // group (disjoint groups — order does not matter), and the traffic
        // accounting for the worker-side copies.  The write-back is the
        // Adam lane's tail, so it is charged there.
        let mut offset = 0;
        for slot in 0..adam_slots {
            let indices = adam_group(&plan, slot);
            let rows = &self.adam_params[offset..offset + indices.len()];
            offset += indices.len();
            if indices.is_empty() {
                continue;
            }
            let span_start = spans.map(SpanLog::now);
            adam_timer.time(|| self.trainer.apply_param_rows(indices, rows));
            if let (Some(log), Some(s)) = (spans, span_start) {
                // `Other` keeps the write-back out of the update-math
                // histograms.
                log.record(
                    OpKind::Other,
                    Lane::CpuAdam,
                    s,
                    log.now(),
                    0,
                    indices.len() as u64,
                    None,
                );
            }
        }
        if is_clm {
            let staged_rows: usize = plan.fetched.iter().map(|s| s.len()).sum();
            self.trainer.note_gathered_rows(staged_rows);
        }

        let batch = self.trainer.finish_batch(&plan, &grads, total_loss);
        self.trainer.return_gradients(grads, &plan);
        let wall_seconds = wall_start.elapsed().as_secs_f64();

        let comm = gather_timer.busy_seconds();
        let adam_busy = adam_timer.busy_seconds();
        if is_clm {
            self.window_selector
                .observe(self.config.policy, comm, compute_seconds);
        }

        let faults = match (&self.fault_plan, fault_before) {
            (Some(p), Some(before)) => p.stats().since(&before),
            _ => Default::default(),
        };
        ExecutionReport {
            batch,
            views: cameras.len(),
            prefetch_window: window,
            compute_threads: gs_render::parallel::resolve_compute_threads(
                self.trainer.config().compute_threads,
            ),
            band_height: self.trainer.resolved_band_height(),
            wall_seconds,
            lanes: LaneBusy {
                compute: compute_seconds,
                comm,
                adam: adam_busy,
                scheduling: scheduling_seconds,
            },
            device_lanes: Vec::new(),
            sim_makespan: None,
            resize: plan.resize.as_ref().map(|e| e.report()),
            faults,
            adam_rows_shipped: touched_rows as u64,
            adam_bytes_shipped: (touched_rows * std::mem::size_of::<ParamRow>()) as u64,
        }
    }

    /// Trains over the whole dataset once (views grouped into batches in
    /// trajectory order), returning the per-batch reports.
    pub fn run_epoch(&mut self, dataset: &Dataset, targets: &[Image]) -> Vec<ExecutionReport> {
        ExecutionBackend::execute_epoch(self, dataset, targets)
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

/// Carves the front of `buf` into consecutive disjoint slices of the given
/// lengths.
///
/// # Panics
/// Panics if the lengths add up to more than `buf` holds.
fn split_by_lens<T>(mut buf: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    lens.map(|len| {
        let (head, tail) = std::mem::take(&mut buf).split_at_mut(len);
        buf = tail;
        head
    })
    .collect()
}

/// Waits for one lane completion under the installed fault plan's timeout
/// policy: each real recv timeout is counted, and a lane that stays silent
/// past the retry budget aborts the batch with a diagnostic instead of
/// hanging it.  Without a plan this is a plain blocking wait.
fn recv_completion<T>(
    rx: &std::sync::mpsc::Receiver<T>,
    fault: Option<&FaultPlan>,
    lane: &str,
) -> T {
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

    fn window_selector(&self) -> &WindowSelector {
        ThreadedBackend::window_selector(self)
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

    #[test]
    fn adam_lane_ships_only_touched_gradient_rows_and_allocates_nothing_in_steady_state() {
        let (dataset, targets, init) = tiny_setup();
        let rows = init.len();
        let mut threaded =
            ThreadedBackend::new(init, TrainConfig::default(), ThreadedConfig::default());
        let mut capacity_after = Vec::new();
        for batch in 0..8 {
            // Rotate through the views so group sizes differ batch to batch.
            let start = (batch * 4) % 12;
            let report = threaded.run_batch(
                &dataset.cameras[start..start + 4],
                &targets[start..start + 4],
            );
            assert!(report.batch.touched > 0 && report.batch.touched < rows);
            assert_eq!(report.adam_rows_shipped, report.batch.touched as u64);
            assert_eq!(
                report.adam_bytes_shipped,
                (report.batch.touched * PARAMS_PER_GAUSSIAN * 4) as u64
            );
            capacity_after.push(threaded.adam_lane_buffer_rows());
        }
        // One parameter row per Gaussian plus room for at most as many
        // gradient rows — fixed by the model, not by what a batch touched.
        assert_eq!(capacity_after[1], 2 * rows);
        assert_eq!(capacity_after[1], capacity_after[7]);
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
                threaded.adam_lane_buffer_rows(),
                2 * rows,
                "batch {batch}: buffers follow the model across a boundary"
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
