//! Functional trainers: real 3DGS training under each offloading strategy.
//!
//! This is the "does it actually train" layer of the reproduction: the same
//! differentiable renderer, loss and Adam optimiser are driven by four
//! different data-placement strategies — the GPU-only baseline, the enhanced
//! baseline with pre-rendering frustum culling, naive (ZeRO-Offload-style)
//! offloading, and CLM with attribute-wise offload, Gaussian caching,
//! micro-batch ordering and overlapped (early-finalised) CPU Adam.  All four
//! produce numerically equivalent training trajectories; they differ only in
//! how much data crosses the simulated PCIe link and how much GPU memory
//! they need, which is exactly the paper's claim.

use crate::offload::{gather_rows_into, OffloadAccounting, GRADIENT_BYTES, NON_CRITICAL_BYTES};
use crate::order::{order_batch, OrderingStrategy};
use crate::perf::SystemKind;
use crate::schedule::FinalizationPlan;
use gs_core::camera::Camera;
use gs_core::gaussian::{GaussianModel, NON_CRITICAL_FLOATS};
use gs_core::visibility::VisibilitySet;
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_optim::{AdamConfig, GaussianAdam, GradientBuffer};
use gs_render::{
    l1_loss, parallel::parallel_map, psnr, render, shade, shade_backward, Coverage, Image,
    RenderGradients, RenderOptions, DEFAULT_BAND_HEIGHT,
};
use gs_scene::{Dataset, DensifyConfig, DensifyReport, ResizeEvent};
use sim_device::{Lane, OpKind, Timeline};
use std::time::Instant;

/// When and how a training run densifies its model.
///
/// Real 3DGS training is not fixed-size: on a regular cadence the model
/// clones/splits high-gradient Gaussians and prunes transparent ones.  The
/// schedule makes that cadence part of the training configuration, so every
/// execution backend resizes at the **same** batch boundaries with the
/// **same** deterministic [`ResizeEvent`] — which is what keeps a densifying
/// run's trajectory bit-identical across backends.
#[derive(Debug, Clone, PartialEq)]
pub struct DensifySchedule {
    /// Densify every this many trained batches (a boundary sits **before**
    /// the batch at which `batches_trained` is a positive multiple of this;
    /// clamped to at least 1).
    pub every_batches: usize,
    /// Thresholds for each boundary's plan.  The boundary's RNG seed is
    /// `config.seed + batches_trained`, so distinct boundaries draw distinct
    /// (but deterministic) split offsets.
    pub config: DensifyConfig,
}

/// Configuration of a functional training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Which offloading strategy drives data placement.
    pub system: SystemKind,
    /// Micro-batch ordering strategy (CLM only; baselines use dataset order).
    pub ordering: OrderingStrategy,
    /// Images per batch.
    pub batch_size: usize,
    /// Adam hyper-parameters.
    pub adam: AdamConfig,
    /// Background colour composited behind the splats.
    pub background: [f32; 3],
    /// Enable precise Gaussian caching (CLM only; disable for ablations).
    pub gaussian_caching: bool,
    /// Enable overlapped (early-finalised) CPU Adam (CLM only).
    pub overlapped_adam: bool,
    /// Worker threads for the banded render forward/backward (clamped to at
    /// least 1).  Pure scheduling: the training trajectory is bit-identical
    /// for every value (`gs_render`'s band geometry never depends on it).
    pub compute_threads: usize,
    /// Accumulation band height for the banded renderer (0 = the renderer's
    /// default).  Unlike `compute_threads` this is **part of the numeric
    /// contract**: it fixes the grouping of floating-point accumulation, so
    /// runs compared bit-for-bit must use the same value on every backend.
    /// Autotuners derive it purely from host properties, never per run.
    pub band_height: u32,
    /// Second parallelism level: render the batch's views concurrently
    /// (each view serial inside) instead of band-parallel within one view.
    /// Views are independent until gradient accumulation, which
    /// [`Trainer::train_batch`] replays in the exact serial order, so this
    /// is bit-identical too.  Only takes effect when `compute_threads > 1`.
    pub view_parallel: bool,
    /// Data-parallel device count the batch's micro-batches are sharded
    /// across (1 = single device).  Micro-batch `i` runs on device `i mod
    /// num_devices`; the batch is processed in rounds of one micro-batch per
    /// device, with losses, gradient accumulations and finalised Adam steps
    /// replayed in the serial micro-batch order — the fixed-order reduction
    /// that keeps the trajectory bit-identical to the 1-device trainer for
    /// every shard count.  Pure scheduling, like `compute_threads`.
    pub num_devices: usize,
    /// Mid-training densification cadence (`None` = fixed-size model, the
    /// previous behaviour).  Resizes happen at batch boundaries, planned
    /// deterministically from the accumulated positional-gradient norms, so
    /// they are part of the numeric trajectory — identical for every
    /// execution backend.
    pub densify: Option<DensifySchedule>,
    /// RNG seed for ordering.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            system: SystemKind::Clm,
            ordering: OrderingStrategy::Tsp,
            batch_size: 4,
            adam: AdamConfig::default(),
            background: [0.0; 3],
            gaussian_caching: true,
            overlapped_adam: true,
            compute_threads: 1,
            band_height: DEFAULT_BAND_HEIGHT,
            view_parallel: false,
            num_devices: 1,
            densify: None,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// The band height renders actually use: the configured value, or the
    /// renderer's default when the config holds the 0 sentinel.
    pub fn resolved_band_height(&self) -> u32 {
        if self.band_height == 0 {
            DEFAULT_BAND_HEIGHT
        } else {
            self.band_height
        }
    }
}

/// What one training batch did.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Mean L1 loss over the batch's images.
    pub loss: f32,
    /// Number of distinct Gaussians touched by the batch: reached by some
    /// view's compositing walk (`|∪ R_i|`, [`BatchPlan::touched_union`]).
    pub touched: usize,
    /// Number of distinct Gaussians that received a non-zero gradient (of
    /// the touched ones; a reached row almost always does).
    pub received: usize,
    /// Parameter bytes moved CPU→GPU by this batch (0 for GPU-only systems).
    pub bytes_loaded: u64,
    /// Gradient bytes moved GPU→CPU by this batch: the stores' retiring rows
    /// ([`BatchPlan::store_bytes`]) summed, or the whole gradient for naive
    /// offloading.
    pub bytes_stored: u64,
    /// The micro-batch processing order used.
    pub order: Vec<usize>,
}

/// Everything a trainer decides **before** executing a batch: micro-batch
/// processing order, every view's coverage, per-micro-batch fetch/store
/// sets, finalisation groups and the batch's PCIe traffic.
///
/// Two families of sets describe a micro-batch.  The **frustum set** `S_i`
/// ([`ordered_sets`](Self::ordered_sets)) is what culling keeps: the
/// ordering tour, the visibility fraction and the simulated forward/backward
/// pricing are defined on it.  The **reached set** `R_i ⊆ S_i`
/// (`coverage[i].reached()`) is what the view's compositing walk reaches
/// ([`gs_render::coverage`], run here at plan time on resident attributes
/// only): the only rows whose colour the image depends on and the only ones
/// that can receive gradient.  Everything that moves or updates rows — the
/// fetch and store sets, the finalisation groups, `touched_union` and `F_0`
/// — is built from the reached sets, so a fetch carries the SH rows of
/// reached Gaussians only.
///
/// The plan is what lets the synchronous [`Trainer`] and the pipelined
/// runtime (`clm-runtime`) share one numeric execution path: both drive the
/// same [`Trainer::stage_microbatch`] / [`Trainer::process_microbatch`] /
/// [`Trainer::apply_finalized`] sequence over the same plan, so their
/// training trajectories are identical by construction — the runtime merely
/// interleaves the calls with discrete-event bookkeeping.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Processing order: `order[i]` is the view index of micro-batch `i`.
    pub order: Vec<usize>,
    /// Frustum sets `S_i` in processing order.
    pub ordered_sets: Vec<VisibilitySet>,
    /// `coverage[i]` = micro-batch `i`'s coverage: what its view's
    /// compositing walk reaches, computed against the model the batch
    /// starts from.  [`Trainer::render_microbatch`] shades from it.
    ///
    /// Every view's coverage stays alive for the whole batch, so the plan
    /// holds `batch_size × pixels × walk depth` records of 8 B each, plus
    /// the splats each view projected — only the depth slabs its walks
    /// needed (≈ 1 k of ≈ 13 k frustum rows per view on `offload_bound`,
    /// 36 B each).  Measured: ≈ 1.3 MB per view (≈ 104 records per pixel
    /// at 48×32) and ≈ 5 MB per batch on `offload_bound`; ≈ 6.7 MB per view
    /// and ≈ 27 MB per batch at 112×84 (`render_bound`, the largest view
    /// the repo trains on).  That is ≈ 0.8 kB per pixel per view: at the
    /// paper's resolutions storing the records stops being viable, and a
    /// render would recompute its view's walk instead.
    pub coverage: Vec<Coverage>,
    /// Finalisation groups for overlapped CPU Adam (over the reached sets:
    /// a row's last access is the last micro-batch that reaches it).
    pub finalization: FinalizationPlan,
    /// `fetched[i]` = Gaussians whose non-critical attributes micro-batch
    /// `i` must fetch from pinned host memory: `R_i` less what the previous
    /// micro-batch left on the device (empty for non-offloading systems).
    pub fetched: Vec<VisibilitySet>,
    /// `stored[i]` = Gaussians that retire from the device after
    /// micro-batch `i` completes (the last entry includes the batch's
    /// flush; empty for non-offloading systems).  The store carries their
    /// gradient rows ([`store_bytes`](Self::store_bytes)).
    pub stored: Vec<VisibilitySet>,
    /// Gaussians no micro-batch reaches (the `F_0` group, updatable
    /// immediately under overlapped CPU Adam — frustum-visible rows no
    /// pixel reaches included: nothing reads them within the batch).
    pub untouched: VisibilitySet,
    /// Union of every micro-batch's reached set.
    pub touched_union: VisibilitySet,
    /// Parameter bytes moved CPU→GPU by the batch.
    pub bytes_loaded: u64,
    /// The densification resize applied at this batch's boundary, if one was
    /// due (filled by [`Trainer::resize_and_plan`]; the plan's culling and
    /// fetch sets are always computed against the **post-resize** model).
    pub resize: Option<ResizeEvent>,
}

impl BatchPlan {
    /// Number of micro-batches in the batch.
    pub fn num_microbatches(&self) -> usize {
        self.order.len()
    }

    /// Parameter bytes micro-batch `i` fetches over PCIe.
    pub fn fetch_bytes(&self, i: usize) -> u64 {
        (self.fetched[i].len() * NON_CRITICAL_BYTES) as u64
    }

    /// Gradient bytes the store retiring micro-batch `i` moves over PCIe:
    /// every row of `stored[i]`, dense.  The rows are reached rows, and a
    /// reached row receives gradient unless every pixel it reaches has zero
    /// loss gradient, so a sparse (indexed) list of the received rows would
    /// never be cheaper on any benchmark workload.
    pub fn store_bytes(&self, i: usize) -> u64 {
        (self.stored[i].len() * GRADIENT_BYTES) as u64
    }
}

/// Everything of a [`Trainer`] a batch's render and gather lanes read —
/// the model (whose SH column is the pinned host store) and the
/// configuration — **without** the optimiser.  [`Trainer::lend_optimizer`]
/// hands this out next to an exclusive borrow of the optimiser, so a
/// threaded runtime can give the optimiser state to its CPU Adam lane for
/// the batch while the other lanes keep sharing the rest.
#[derive(Debug, Clone, Copy)]
pub struct TrainerView<'a> {
    model: &'a GaussianModel,
    config: &'a TrainConfig,
}

impl<'a> TrainerView<'a> {
    /// The current model.
    pub fn model(&self) -> &'a GaussianModel {
        self.model
    }

    /// [`Trainer::render_microbatch`] on the shared view.
    pub fn render_microbatch(
        &self,
        plan: &BatchPlan,
        micro_idx: usize,
        cameras: &[Camera],
        targets: &[Image],
        staging: &[[f32; NON_CRITICAL_FLOATS]],
    ) -> (f32, RenderGradients) {
        let view_idx = plan.order[micro_idx];
        let camera = &cameras[view_idx];
        let target = &targets[view_idx];
        if self.config.system == SystemKind::Clm {
            // The staged host rows must match the parameters the renderer
            // reads: a Gaussian is only updated after its last access, so
            // even rows prefetched several micro-batches ago stay current.
            // (A real check where staging runs ahead of `apply_finalized`,
            // as on the simulated engine; the serial loop stages each
            // micro-batch from the model right before rendering it.)
            assert_eq!(
                staging.len(),
                plan.fetched[micro_idx].len(),
                "staging buffer does not match the fetch plan"
            );
            for (&idx, row) in plan.fetched[micro_idx].indices().iter().zip(staging) {
                assert!(
                    row[..] == *self.model.sh_of(idx as usize),
                    "staged row for gaussian {idx} went stale before its micro-batch ran"
                );
            }
        }
        // Shade from the plan's coverage: only the reached rows are read,
        // and none of them has been updated yet (a row is finalised after
        // the last micro-batch that reaches it).
        let coverage = &plan.coverage[micro_idx];
        let (image, shading) = shade(self.model, coverage, self.config.background);
        let loss = l1_loss(&image, target);
        let render_grads = shade_backward(self.model, camera, coverage, &shading, &loss.d_image);
        (loss.value, render_grads)
    }
}

/// A 3DGS trainer parameterised by an offloading strategy.
#[derive(Debug)]
pub struct Trainer {
    model: GaussianModel,
    optimizer: GaussianAdam,
    config: TrainConfig,
    batches_trained: usize,
    /// Accumulated positional-gradient norm per Gaussian since the last
    /// densification boundary (the densification criterion).
    grad_norm_accum: Vec<f32>,
    /// Densification resizes applied so far.
    resize_events: usize,
    /// Boundary marker: the `batches_trained` value at which the last resize
    /// was applied, so a boundary fires exactly once even when
    /// [`pending_resize`](Self::pending_resize) is polled repeatedly.
    last_resize_batch: Option<usize>,
    /// The gradient accumulator, kept across batches: all-zero between
    /// batches, lent out by [`take_gradients`](Self::take_gradients).
    /// Empty until the first batch that asks for it.
    grads: GradientBuffer,
    /// Cumulative bytes gathered from (scattered to) pinned host memory —
    /// the offload's traffic counters ([`offloaded`](Self::offloaded)).
    bytes_gathered: u64,
    bytes_scattered: u64,
}

/// Optional measured-span capture for the serial reference loop.  The
/// loop's phases run back to back, so each recorded span lasts from the end
/// of the previous one (the batch start for the first) to now, in
/// batch-relative seconds; without a timeline no clock is read.
struct SpanRecorder<'a> {
    sink: Option<(Instant, &'a mut Timeline)>,
    mark: f64,
}

impl<'a> SpanRecorder<'a> {
    fn new(sink: Option<&'a mut Timeline>) -> Self {
        let sink = sink.map(|timeline| (Instant::now(), timeline));
        SpanRecorder { sink, mark: 0.0 }
    }

    /// Records the phase that just ended.
    fn lap(&mut self, kind: OpKind, lane: Lane, bytes: u64, rows: u64, microbatch: Option<u32>) {
        if let Some((t0, timeline)) = &mut self.sink {
            let now = t0.elapsed().as_secs_f64();
            timeline.push_span(kind, lane, self.mark, now, bytes, rows, microbatch);
            self.mark = now;
        }
    }
}

impl Trainer {
    /// Creates a trainer around an initial model.
    pub fn new(initial_model: GaussianModel, config: TrainConfig) -> Self {
        let optimizer = GaussianAdam::new(initial_model.len(), config.adam.clone());
        let grad_norm_accum = vec![0.0; initial_model.len()];
        Trainer {
            model: initial_model,
            optimizer,
            config,
            batches_trained: 0,
            grad_norm_accum,
            resize_events: 0,
            last_resize_batch: None,
            grads: GradientBuffer::default(),
            bytes_gathered: 0,
            bytes_scattered: 0,
        }
    }

    /// Rebuilds a trainer from checkpointed state so training continues
    /// bit-identically to the uninterrupted run.  The model's SH column is
    /// the pinned host store, so the model carries it; the offload's traffic
    /// counters are restored to `bytes_gathered` / `bytes_scattered`.
    ///
    /// # Panics
    /// Panics if the accumulator length does not match the model or the
    /// optimiser holds more rows than the model.
    #[allow(clippy::too_many_arguments)]
    pub fn from_checkpoint(
        model: GaussianModel,
        optimizer: GaussianAdam,
        config: TrainConfig,
        batches_trained: usize,
        grad_norm_accum: Vec<f32>,
        resize_events: usize,
        last_resize_batch: Option<usize>,
        bytes_gathered: u64,
        bytes_scattered: u64,
    ) -> Self {
        assert_eq!(
            grad_norm_accum.len(),
            model.len(),
            "gradient-norm accumulator does not match the model"
        );
        assert!(
            optimizer.len() <= model.len(),
            "optimiser holds more rows than the model"
        );
        Trainer {
            model,
            optimizer,
            config,
            batches_trained,
            grad_norm_accum,
            resize_events,
            last_resize_batch,
            grads: GradientBuffer::default(),
            bytes_gathered,
            bytes_scattered,
        }
    }

    /// The current model.
    pub fn model(&self) -> &GaussianModel {
        &self.model
    }

    /// The byte accounting of CLM's attribute-wise offload of the current
    /// model: resident and pinned bytes, and the traffic so far.
    pub fn offloaded(&self) -> OffloadAccounting {
        OffloadAccounting {
            rows: self.model.len(),
            bytes_gathered: self.bytes_gathered,
            bytes_scattered: self.bytes_scattered,
        }
    }

    /// The optimiser (moment estimates and per-Gaussian step counts).
    pub fn optimizer(&self) -> &GaussianAdam {
        &self.optimizer
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Number of batches trained so far.
    pub fn batches_trained(&self) -> usize {
        self.batches_trained
    }

    /// Number of densification resizes applied so far.
    pub fn resize_events(&self) -> usize {
        self.resize_events
    }

    /// Accumulated positional-gradient norms since the last densification
    /// boundary (one per Gaussian; all zeros without a densify schedule).
    pub fn grad_norm_accum(&self) -> &[f32] {
        &self.grad_norm_accum
    }

    /// The `batches_trained` value at which the last densification resize
    /// was applied, if any (part of the boundary cursor a checkpoint must
    /// carry to keep [`pending_resize`](Self::pending_resize) exact).
    pub fn last_resize_batch(&self) -> Option<usize> {
        self.last_resize_batch
    }

    /// Changes the device count mid-run — the elastic-recovery path a
    /// sharded runtime takes after permanent device loss.  Only the config
    /// changes; batch plans from the next boundary on shard across the new
    /// count.
    ///
    /// # Panics
    /// Panics if `num_devices` is zero.
    pub fn set_num_devices(&mut self, num_devices: usize) {
        assert!(num_devices >= 1, "need at least one device");
        self.config.num_devices = num_devices;
    }

    /// Overrides the compute-thread knob (used when a restored config is
    /// re-adopted by a runtime that pins its own thread count).
    pub fn set_compute_threads(&mut self, compute_threads: usize) {
        self.config.compute_threads = compute_threads;
    }

    /// Overrides the accumulation band height (the runtime adoption path for
    /// an autotuned value).  Part of the numeric contract — change it only
    /// between runs that are compared bit-for-bit.
    pub fn set_band_height(&mut self, band_height: u32) {
        self.config.band_height = band_height;
    }

    /// The band height renders actually use: the configured value, or the
    /// renderer's default when the config holds the 0 sentinel.
    pub fn resolved_band_height(&self) -> u32 {
        self.config.resolved_band_height()
    }

    /// The densification resize due **before** the next batch, if any.
    ///
    /// Pure: planning reads the model and the accumulated gradient norms but
    /// changes nothing, so a runtime may inspect the event (to size pinned
    /// buffers, repartition shards, cost the boundary) before committing to
    /// it with [`apply_resize`](Self::apply_resize).  A boundary is due when
    /// `batches_trained` is a positive multiple of the schedule's cadence
    /// and no resize was applied at this boundary yet; the plan's seed is
    /// `schedule.config.seed + batches_trained`, so each boundary draws its
    /// own deterministic split offsets.
    pub fn pending_resize(&self) -> Option<ResizeEvent> {
        let schedule = self.config.densify.as_ref()?;
        let every = schedule.every_batches.max(1);
        let b = self.batches_trained;
        if b == 0 || !b.is_multiple_of(every) || self.last_resize_batch == Some(b) {
            return None;
        }
        let config = DensifyConfig {
            seed: schedule.config.seed.wrapping_add(b as u64),
            ..schedule.config
        };
        Some(gs_scene::plan_resize(
            &self.model,
            &self.grad_norm_accum,
            &config,
        ))
    }

    /// Applies a planned resize at a batch boundary: the model rows
    /// clone/split/prune in the event's deterministic order, the optimiser
    /// state compacts (survivors keep their moments, appended rows start
    /// fresh), and the gradient-norm accumulator resets for the next
    /// densification interval.  The pinned host store is the model's SH
    /// column, so it resizes with the model.
    ///
    /// Runtimes must drain their in-flight lanes before calling this —
    /// every backend in this workspace scopes its lanes to one batch, so a
    /// batch boundary is always a safe drain point.
    ///
    /// # Panics
    /// Panics if the event was planned against a different model size.
    pub fn apply_resize(&mut self, event: &ResizeEvent) -> DensifyReport {
        let report = gs_scene::apply_resize(&mut self.model, event);
        self.optimizer.apply_resize(&event.pruned, self.model.len());
        // Fresh interval: norms restart from zero for survivors too (the
        // reference implementation resets its accumulators at each
        // densification), keeping the next boundary's plan independent of
        // how the rows were renumbered.
        self.grad_norm_accum.clear();
        self.grad_norm_accum.resize(self.model.len(), 0.0);
        self.resize_events += 1;
        self.last_resize_batch = Some(self.batches_trained);
        report
    }

    /// The batch-boundary entry point every execution backend shares:
    /// applies the pending densification resize (if one is due) and plans
    /// the batch against the **post-resize** model.  The applied event is
    /// recorded in the returned plan's [`resize`](BatchPlan::resize) field,
    /// so a runtime can re-lease staging buffers, repartition shards and
    /// cost the boundary from the plan alone.
    ///
    /// # Panics
    /// Panics if `cameras` is empty.
    pub fn resize_and_plan(&mut self, cameras: &[Camera]) -> BatchPlan {
        self.resize_and_plan_spanned(cameras, &mut SpanRecorder::new(None))
    }

    /// [`resize_and_plan`](Self::resize_and_plan), with the resize and the
    /// planning each recorded as a scheduler-lane span.
    fn resize_and_plan_spanned(
        &mut self,
        cameras: &[Camera],
        spans: &mut SpanRecorder<'_>,
    ) -> BatchPlan {
        let resize = self.pending_resize();
        if let Some(event) = &resize {
            self.apply_resize(event);
            let rows = event.rows_changed() as u64;
            spans.lap(OpKind::Resize, Lane::CpuScheduler, 0, rows, None);
        }
        let mut plan = self.plan_batch(cameras);
        plan.resize = resize;
        let rows = self.model.len() as u64;
        spans.lap(OpKind::Scheduling, Lane::CpuScheduler, 0, rows, None);
        plan
    }

    /// Whether this trainer runs the overlapped (early-finalised) CPU Adam
    /// path (CLM with `overlapped_adam` enabled).
    pub fn overlapped(&self) -> bool {
        self.config.system == SystemKind::Clm && self.config.overlapped_adam
    }

    /// Plans one batch: frustum culling, micro-batch ordering, every view's
    /// coverage, finalisation analysis and data-movement accounting.  Pure
    /// with respect to the model parameters; the plan for batch `k` depends
    /// on the ordering seed and [`batches_trained`](Self::batches_trained).
    ///
    /// # Panics
    /// Panics if `cameras` is empty.
    pub fn plan_batch(&self, cameras: &[Camera]) -> BatchPlan {
        assert!(!cameras.is_empty(), "batch must contain at least one view");

        // 1. Frustum culling for every view, reading only the model's
        //    geometry arrays (position/scale/rotation, device-resident
        //    with the opacity).  One pass over the model serves all views.
        let sets: Vec<VisibilitySet> = gs_core::cull_batch(&self.model, cameras);

        // 2. Order the micro-batches.
        let order: Vec<usize> = match self.config.system {
            SystemKind::Clm => order_batch(
                self.config.ordering,
                cameras,
                &sets,
                self.config.seed + self.batches_trained as u64,
            ),
            _ => (0..cameras.len()).collect(),
        };
        let ordered_sets: Vec<VisibilitySet> = order.iter().map(|&i| sets[i].clone()).collect();
        let m = ordered_sets.len();

        // 3. Every view's coverage, on resident attributes only (geometry
        //    and opacity): the reached sets R_i ⊆ S_i.
        let coverage = self.plan_coverage(cameras, &order, &ordered_sets);
        let reached: Vec<VisibilitySet> = coverage.iter().map(|c| c.reached().clone()).collect();
        // 4. Per-micro-batch fetch/store sets over the reached sets (CLM
        //    only; the other systems either keep everything resident or
        //    move the whole model, which the traffic accounting below
        //    handles wholesale).
        let empty = VisibilitySet::new();
        let (fetched, stored) = if self.config.system == SystemKind::Clm {
            if self.config.gaussian_caching {
                // The cache planner owns the transition algebra: plan `i`
                // fetches micro-batch `i`'s missing rows, and plan `i + 1`
                // (including the final flush) stores the gradients that
                // retire once micro-batch `i` has run.
                let plans = crate::cache::plan_batch(&reached);
                let fetched = plans[..m].iter().map(|p| p.fetched.clone()).collect();
                let stored = plans[1..]
                    .iter()
                    .map(|p| p.grads_to_store.clone())
                    .collect();
                (fetched, stored)
            } else {
                // Without caching every micro-batch reloads its whole
                // working set and retires all of its gradients.
                (reached.clone(), reached.clone())
            }
        } else {
            (vec![empty.clone(); m], vec![empty.clone(); m])
        };

        // 5. Finalisation plan for overlapped CPU Adam (CLM only).
        let finalization = FinalizationPlan::new(&reached);
        let mut touched_union = VisibilitySet::new();
        for s in &reached {
            touched_union = touched_union.union(s);
        }
        let untouched = touched_union.complement(self.model.len());

        // 6. Parameter traffic of this batch.  For CLM it is the
        //    per-micro-batch fetch sets summed; the other strategies move
        //    nothing or the whole model.  (What the gradient stores move is
        //    only known once the renderer has run: `finish_batch`.)
        let bytes_loaded = match self.config.system {
            SystemKind::Baseline | SystemKind::EnhancedBaseline => 0,
            SystemKind::NaiveOffload => self.whole_model_bytes(),
            SystemKind::Clm => fetched
                .iter()
                .map(|s| (s.len() * NON_CRITICAL_BYTES) as u64)
                .sum(),
        };

        BatchPlan {
            order,
            ordered_sets,
            coverage,
            finalization,
            fetched,
            stored,
            untouched,
            touched_union,
            bytes_loaded,
            resize: None,
        }
    }

    /// Every micro-batch's [`Coverage`] in processing order: the plain
    /// baseline's over the whole model (fused culling), the others' over
    /// the frustum set.  View-parallel configurations cover the views
    /// concurrently, one thread each; pure scheduling either way.
    fn plan_coverage(
        &self,
        cameras: &[Camera],
        order: &[usize],
        ordered_sets: &[VisibilitySet],
    ) -> Vec<Coverage> {
        let config = &self.config;
        let cover = |i: usize, compute_threads: usize| {
            let visible = match config.system {
                SystemKind::Baseline => None,
                _ => Some(ordered_sets[i].indices().to_vec()),
            };
            let options = RenderOptions {
                background: config.background,
                visible,
                compute_threads,
                band_height: config.resolved_band_height(),
            };
            gs_render::coverage(&self.model, &cameras[order[i]], &options)
        };
        if config.view_parallel && config.compute_threads > 1 {
            parallel_map(config.compute_threads, order.len(), |i| cover(i, 1))
        } else {
            (0..order.len())
                .map(|i| cover(i, config.compute_threads))
                .collect()
        }
    }

    /// Bytes of every parameter (or gradient) of the model: what naive
    /// offloading moves each way per batch.
    fn whole_model_bytes(&self) -> u64 {
        (self.model.len() * PARAMS_PER_GAUSSIAN * gs_core::BYTES_PER_PARAM) as u64
    }

    /// Opens a batch.  Under overlapped CPU Adam the Gaussians untouched by
    /// the whole batch (`F_0`) are updated immediately — their gradient is
    /// already final (zero).
    /// `grads` is the batch's (still all-zero) accumulator: no row has
    /// received gradient yet, so `F_0` steps with the zero gradient.
    pub fn begin_batch(&mut self, plan: &BatchPlan, grads: &GradientBuffer) {
        if self.overlapped() {
            self.optimizer
                .step_subset(&mut self.model, grads, plan.untouched.indices());
        }
    }

    /// Lends out the trainer's gradient accumulator for one batch: sized
    /// for the current (post-resize) model and all-zero — equal to a fresh
    /// buffer for the model, without the per-batch allocation and zeroing.
    /// Hand it back with
    /// [`return_gradients`](Self::return_gradients) after
    /// [`finish_batch`](Self::finish_batch); a batch that unwinds instead
    /// simply makes the next call allocate afresh.
    ///
    /// The stepwise API does not require it — `begin_batch` …
    /// `finish_batch` work on any caller-owned buffer.
    pub fn take_gradients(&mut self) -> GradientBuffer {
        let mut grads = std::mem::take(&mut self.grads);
        // A no-op except on first use and after a densification boundary
        // changed the model length; the buffer is all-zero at every batch
        // boundary, so a plain resize keeps it so.
        grads.resize(self.model.len());
        grads
    }

    /// Takes the accumulator back at the end of a batch and returns it to
    /// all-zero by clearing the rows that received gradient — O(receivers),
    /// not O(touched) or O(model).
    pub fn return_gradients(&mut self, mut grads: GradientBuffer) {
        grads.clear();
        self.grads = grads;
    }

    /// The selective-loading kernel for micro-batch `micro_idx`: gathers the
    /// rows `plan.fetched[micro_idx]` from pinned host memory — the model's
    /// SH column — into `staging` (reusing its allocation), counting the
    /// transferred bytes.
    ///
    /// A pipelined runtime may run this ahead of the micro-batch's compute:
    /// within a batch no Adam update can touch a Gaussian before its last
    /// access, so prefetched rows never go stale
    /// ([`process_microbatch`](Self::process_microbatch) asserts this).
    pub fn stage_microbatch(
        &mut self,
        plan: &BatchPlan,
        micro_idx: usize,
        staging: &mut Vec<[f32; NON_CRITICAL_FLOATS]>,
    ) {
        if self.config.system == SystemKind::Clm {
            let indices = plan.fetched[micro_idx].indices();
            gather_rows_into(self.model.sh_rows(), indices, staging);
            self.note_gathered_rows(indices.len());
        } else {
            staging.clear();
        }
    }

    /// Executes micro-batch `micro_idx`: renders its view, accumulates the
    /// loss gradient into `grads`, and returns the view's L1 loss.
    ///
    /// # Panics
    /// Panics if a staged host row disagrees with the model the renderer
    /// sees — that would mean a prefetch raced with an optimiser update,
    /// which the finalisation schedule is supposed to make impossible.
    pub fn process_microbatch(
        &self,
        plan: &BatchPlan,
        micro_idx: usize,
        cameras: &[Camera],
        targets: &[Image],
        staging: &[[f32; NON_CRITICAL_FLOATS]],
        grads: &mut GradientBuffer,
    ) -> f32 {
        let (loss, render_grads) =
            self.render_microbatch(plan, micro_idx, cameras, targets, staging);
        grads.accumulate_render(&render_grads);
        loss
    }

    /// The compute half of [`process_microbatch`](Self::process_microbatch):
    /// renders micro-batch
    /// `micro_idx`'s view (band-parallel on `self.config.compute_threads`
    /// workers) and returns its L1 loss plus the raw render gradients
    /// **without** touching the shared gradient buffer.  Pure with respect
    /// to the trainer, so independent micro-batches may run concurrently;
    /// the caller must still accumulate the returned gradients in the
    /// serial micro-batch order to stay bit-identical.
    pub fn render_microbatch(
        &self,
        plan: &BatchPlan,
        micro_idx: usize,
        cameras: &[Camera],
        targets: &[Image],
        staging: &[[f32; NON_CRITICAL_FLOATS]],
    ) -> (f32, RenderGradients) {
        self.view()
            .render_microbatch(plan, micro_idx, cameras, targets, staging)
    }

    /// Applies the optimiser to every Gaussian finalised by micro-batch
    /// `micro_idx` (overlapped CPU Adam only; no-op otherwise).
    pub fn apply_finalized(&mut self, plan: &BatchPlan, micro_idx: usize, grads: &GradientBuffer) {
        if self.overlapped() {
            let group = plan.finalization.finalized_by(micro_idx);
            self.optimizer
                .step_subset(&mut self.model, grads, group.indices());
        }
    }

    /// The shared, optimiser-free view of this trainer.
    pub fn view(&self) -> TrainerView<'_> {
        TrainerView {
            model: &self.model,
            config: &self.config,
        }
    }

    /// Lends the optimiser out for one batch: an exclusive borrow of the
    /// optimiser for the runtime's CPU Adam lane, next to the shared
    /// [`TrainerView`] the render and gather lanes keep using.  A split
    /// borrow, so the optimiser never leaves the trainer — a batch that
    /// unwinds mid-way leaves it in place with whatever groups it had
    /// already stepped.
    ///
    /// The lane steps each finalisation group with
    /// [`GaussianAdam::step_detached`] from `view.model()` into a back model
    /// the runtime owns, and the runtime swaps that in at batch end
    /// ([`swap_model`](Self::swap_model)).  The finalisation schedule
    /// guarantees a finalised Gaussian is never read again within the batch,
    /// and `F_0` and the groups together write every row exactly once, so
    /// the swap is bit-identical to the synchronous
    /// [`apply_finalized`](Self::apply_finalized).
    pub fn lend_optimizer(&mut self) -> (TrainerView<'_>, &mut GaussianAdam) {
        (
            TrainerView {
                model: &self.model,
                config: &self.config,
            },
            &mut self.optimizer,
        )
    }

    /// Swaps the model with `back`, a model of the same length whose every
    /// row a detached Adam step has written this batch: the new parameters
    /// take effect, and `back` keeps the old ones as the next batch's
    /// buffer.  O(1) — no row is copied.
    ///
    /// # Panics
    /// Panics if the two models differ in length.
    pub fn swap_model(&mut self, back: &mut GaussianModel) {
        assert_eq!(
            back.len(),
            self.model.len(),
            "the back model must have the model's rows"
        );
        std::mem::swap(&mut self.model, back);
    }

    /// Records host rows gathered by an external (worker-thread) copy, so
    /// the offload's traffic counters stay consistent with the in-line
    /// gather path.
    pub fn note_gathered_rows(&mut self, rows: usize) {
        self.bytes_gathered += (rows * NON_CRITICAL_BYTES) as u64;
    }

    /// Closes a batch: runs the batch-end optimiser step for strategies
    /// without overlap, feeds the densification criterion and returns the
    /// batch report.
    pub fn finish_batch(
        &mut self,
        plan: &BatchPlan,
        grads: &GradientBuffer,
        total_loss: f32,
    ) -> BatchReport {
        if !self.overlapped() {
            // CPU Adam (offloading systems) and GPU Adam (the baselines)
            // have identical dense semantics.
            self.optimizer.step_dense(&mut self.model, grads);
        }

        // Feed the densification criterion: accumulate each touched
        // Gaussian's positional-gradient norm (a row that received no
        // gradient adds nothing).  The gradients are identical across
        // backends (they all share this buffer's accumulation order), so the
        // next boundary's plan is too.
        if self.config.densify.is_some() {
            debug_assert_eq!(self.grad_norm_accum.len(), grads.len());
            let touched = plan.touched_union.indices().iter();
            for &idx in touched.filter(|&&idx| grads.is_touched(idx)) {
                self.grad_norm_accum[idx as usize] += grads.row(idx).d_position.length();
            }
        }
        self.batches_trained += 1;

        BatchReport {
            loss: total_loss / plan.num_microbatches() as f32,
            touched: plan.touched_union.len(),
            received: grads.touched_count(),
            bytes_loaded: plan.bytes_loaded,
            bytes_stored: match self.config.system {
                SystemKind::Baseline | SystemKind::EnhancedBaseline => 0,
                SystemKind::NaiveOffload => self.whole_model_bytes(),
                SystemKind::Clm => (0..plan.num_microbatches())
                    .map(|i| plan.store_bytes(i))
                    .sum(),
            },
            order: plan.order.clone(),
        }
    }

    /// Trains one batch of posed images.
    ///
    /// This is the synchronous reference path: plan, then stage → process →
    /// finalise each micro-batch back-to-back.  The pipelined runtime in
    /// `clm-runtime` drives exactly the same calls interleaved with
    /// discrete-event scheduling, which is why the two are numerically
    /// identical.
    ///
    /// With `view_parallel` enabled (and `compute_threads > 1`) the views
    /// render concurrently instead, and with `num_devices > 1` the batch is
    /// sharded across data-parallel device rounds — both through the wave
    /// path (`train_batch_waves`), which is bit-identical to the serial
    /// path for any wave size.
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty.
    pub fn train_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> BatchReport {
        self.train_batch_recorded(cameras, targets, SpanRecorder::new(None))
    }

    /// [`train_batch`](Self::train_batch) with measured wall-clock span
    /// capture: every phase of the **serial** reference path is timed on
    /// the host clock and pushed onto `timeline` as a measured span
    /// (batch-relative seconds), so the synchronous trainer can feed the
    /// same trace pipeline the scheduled backends do.  Span attribution
    /// mirrors the runtime engines' lanes: resize and planning on the
    /// scheduler lane, staging gathers and gradient stores on the
    /// communication lane, the render (forward + backward kernels) as a
    /// `Forward` span and the gradient accumulation as a `Backward` span on
    /// the compute lane, and optimiser work on the CPU Adam lane.  Always runs the serial loop —
    /// wave parallelism is bit-identical numerically, but its phases
    /// overlap and would not map one-to-one onto spans.
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty.
    pub fn train_batch_spanned(
        &mut self,
        cameras: &[Camera],
        targets: &[Image],
        timeline: &mut Timeline,
    ) -> BatchReport {
        self.train_batch_recorded(cameras, targets, SpanRecorder::new(Some(timeline)))
    }

    /// The one serial reference loop behind [`train_batch`](Self::train_batch)
    /// and [`train_batch_spanned`](Self::train_batch_spanned).
    fn train_batch_recorded(
        &mut self,
        cameras: &[Camera],
        targets: &[Image],
        mut spans: SpanRecorder<'_>,
    ) -> BatchReport {
        assert_eq!(
            cameras.len(),
            targets.len(),
            "need one target image per camera"
        );
        assert!(!cameras.is_empty(), "batch must contain at least one view");

        // Densification boundary first (if one is due), then plan against
        // the resized model — the same lifecycle every runtime backend runs.
        let plan = self.resize_and_plan_spanned(cameras, &mut spans);
        // One micro-batch per simulated device and round under sharding;
        // one per band worker under view parallelism.
        let wave = if self.config.num_devices > 1 {
            self.config.num_devices
        } else if self.config.view_parallel && self.config.compute_threads > 1 {
            self.config.compute_threads
        } else {
            1
        };
        if spans.sink.is_none() && wave > 1 && plan.order.len() > 1 {
            return self.train_batch_waves(&plan, cameras, targets, wave);
        }
        let mut grads = self.take_gradients();
        let mut staging = Vec::new();
        let mut total_loss = 0.0f32;
        let overlapped = self.overlapped();

        self.begin_batch(&plan, &grads);
        if overlapped {
            let rows = plan.untouched.len() as u64;
            spans.lap(OpKind::CpuAdamUpdate, Lane::CpuAdam, 0, rows, None);
        }
        for micro_idx in 0..plan.num_microbatches() {
            let mb = Some(micro_idx as u32);
            self.stage_microbatch(&plan, micro_idx, &mut staging);
            let fetched = plan.fetched[micro_idx].len() as u64;
            let bytes = plan.fetch_bytes(micro_idx);
            spans.lap(OpKind::LoadParams, Lane::GpuComm, bytes, fetched, mb);
            let rows = plan.ordered_sets[micro_idx].len() as u64;
            let (loss, render_grads) =
                self.render_microbatch(&plan, micro_idx, cameras, targets, &staging);
            spans.lap(OpKind::Forward, Lane::GpuCompute, 0, rows, mb);
            total_loss += loss;
            grads.accumulate_render(&render_grads);
            spans.lap(OpKind::Backward, Lane::GpuCompute, 0, rows, mb);
            // Only CLM retires gradients per micro-batch.
            if self.config.system == SystemKind::Clm {
                let (bytes, rows) = (plan.store_bytes(micro_idx), plan.stored[micro_idx].len());
                spans.lap(OpKind::StoreGrads, Lane::GpuComm, bytes, rows as u64, mb);
            }
            self.apply_finalized(&plan, micro_idx, &grads);
            if overlapped {
                let rows = plan.finalization.finalized_by(micro_idx).len() as u64;
                spans.lap(OpKind::CpuAdamUpdate, Lane::CpuAdam, 0, rows, mb);
            }
        }
        let rows = self.model.len() as u64;
        let report = self.finish_batch(&plan, &grads, total_loss);
        if overlapped {
            // Batch close is accounting: host-side work.
            spans.lap(OpKind::Other, Lane::CpuScheduler, 0, 0, None);
        } else {
            // The dense optimiser step dominates the close for
            // non-overlapped strategies.
            spans.lap(OpKind::CpuAdamUpdate, Lane::CpuAdam, 0, rows, None);
        }
        self.return_gradients(grads);
        report
    }

    /// Executes one planned batch in **waves of `wave` views** rendered
    /// concurrently — the second parallelism level above the banded
    /// per-view kernels (`wave = compute_threads` under `view_parallel`)
    /// and the data-parallel device rounds of a sharded run (`wave =
    /// num_devices`, micro-batch `i` on device `i mod num_devices`).
    ///
    /// Bit-identical to the serial path by the same finalisation argument
    /// the pipelined backends rely on:
    ///
    /// * renders read only their own micro-batch's reached set, and a
    ///   Gaussian finalised by micro-batch `i` is never in a later set, so
    ///   rendering every view against the wave-start parameters sees
    ///   exactly the values the serial path's interleaved renders see;
    /// * losses, gradient accumulations and `apply_finalized` steps are
    ///   then **replayed in the serial micro-batch order**, so every
    ///   floating-point reduction happens in the same order as the serial
    ///   path.  For a sharded run this is the fixed-device-order
    ///   all-reduce: round `r`'s per-device gradients join the shared
    ///   buffer as micro-batches `rD, rD+1, …` regardless of which device
    ///   finished first.
    ///
    /// At most `wave` staging buffers are ever live — the wave level must
    /// not quietly abandon the bounded-staging-memory property the prefetch
    /// machinery exists to provide.  Applying a wave's finalisation groups
    /// before the next wave renders is safe for the same reason the serial
    /// interleaving is: finalised Gaussians are never in any later
    /// micro-batch's reached or fetch set.
    ///
    /// Each view renders with one band thread (the wave level owns the
    /// workers: a region opened inside it runs serially); band count vs.
    /// view count never changes the numerics, only the schedule.
    fn train_batch_waves(
        &mut self,
        plan: &BatchPlan,
        cameras: &[Camera],
        targets: &[Image],
        wave: usize,
    ) -> BatchReport {
        let m = plan.num_microbatches();
        let wave = wave.max(1);
        let mut grads = self.take_gradients();
        self.begin_batch(plan, &grads);

        let mut total_loss = 0.0f32;
        let mut start = 0;
        while start < m {
            let end = (start + wave).min(m);
            // Stage this wave's micro-batches (same gathers, same traffic
            // accounting, same staleness assertions as the serial path).
            let mut staged: Vec<Vec<[f32; NON_CRITICAL_FLOATS]>> = Vec::with_capacity(end - start);
            for micro_idx in start..end {
                let mut buf = Vec::new();
                self.stage_microbatch(plan, micro_idx, &mut buf);
                staged.push(buf);
            }

            let view = self.view();
            let results: Vec<(f32, RenderGradients)> = parallel_map(wave, end - start, |offset| {
                view.render_microbatch(plan, start + offset, cameras, targets, &staged[offset])
            });

            // Replay the serial order: accumulate micro-batch i, then apply
            // its finalisation group, exactly as the sequential loop would.
            for (offset, (loss, render_grads)) in results.iter().enumerate() {
                total_loss += loss;
                grads.accumulate_render(render_grads);
                self.apply_finalized(plan, start + offset, &grads);
            }
            start = end;
        }
        let report = self.finish_batch(plan, &grads, total_loss);
        self.return_gradients(grads);
        report
    }

    /// Trains over the whole dataset once (views grouped into batches in
    /// trajectory order), returning the per-batch reports.
    pub fn train_epoch(&mut self, dataset: &Dataset, targets: &[Image]) -> Vec<BatchReport> {
        assert_eq!(dataset.cameras.len(), targets.len());
        let batch = self.config.batch_size.max(1);
        let mut reports = Vec::new();
        let mut start = 0;
        while start < dataset.cameras.len() {
            let end = (start + batch).min(dataset.cameras.len());
            reports.push(self.train_batch(&dataset.cameras[start..end], &targets[start..end]));
            start = end;
        }
        reports
    }

    /// Mean PSNR of the current model over a set of posed images.
    pub fn evaluate_psnr(&self, cameras: &[Camera], targets: &[Image]) -> f32 {
        assert_eq!(cameras.len(), targets.len());
        let mut total = 0.0;
        for (camera, target) in cameras.iter().zip(targets) {
            let out = render(
                &self.model,
                camera,
                &RenderOptions {
                    background: self.config.background,
                    visible: None,
                    compute_threads: self.config.compute_threads,
                    band_height: self.resolved_band_height(),
                },
            );
            total += psnr(&out.image, target).min(60.0);
        }
        total / cameras.len() as f32
    }
}

/// Renders the ground-truth image of every view in a dataset (the stand-in
/// for the captured photographs).
pub fn ground_truth_images(dataset: &Dataset) -> Vec<Image> {
    dataset
        .cameras
        .iter()
        .map(|cam| {
            render(
                &dataset.ground_truth,
                cam,
                &RenderOptions {
                    background: [0.0; 3],
                    visible: None,
                    ..RenderOptions::default()
                },
            )
            .image
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::gaussian::SH_FLOATS;
    use gs_scene::{
        generate_dataset, init_from_point_cloud, DatasetConfig, InitConfig, SceneKind, SceneSpec,
    };
    use proptest::prelude::*;

    fn tiny_setup() -> (Dataset, Vec<Image>, GaussianModel) {
        let dataset = generate_dataset(&SceneSpec::of(SceneKind::Bicycle), &DatasetConfig::tiny());
        let targets = ground_truth_images(&dataset);
        let init = init_from_point_cloud(
            &dataset.ground_truth,
            &InitConfig {
                num_gaussians: 150,
                ..Default::default()
            },
        );
        (dataset, targets, init)
    }

    fn config(system: SystemKind) -> TrainConfig {
        TrainConfig {
            system,
            batch_size: 4,
            ..Default::default()
        }
    }

    #[test]
    fn clm_matches_enhanced_baseline_bit_for_bit_with_identity_order() {
        // The paper's central correctness claim: offloading, caching and
        // overlapped CPU Adam change *where* data lives and *when* updates
        // run, never the numerics.  With the same micro-batch order the two
        // systems must produce identical parameters.
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..4];
        let tgts = &targets[..4];

        let mut clm = Trainer::new(
            init.clone(),
            TrainConfig {
                system: SystemKind::Clm,
                ordering: OrderingStrategy::Camera,
                ..config(SystemKind::Clm)
            },
        );
        let mut enhanced = Trainer::new(init, config(SystemKind::EnhancedBaseline));

        // Force identical processing order by using the dataset order for
        // both: Camera ordering on an orbit dataset can permute, so instead
        // run CLM with the GPU-only order by disabling reordering through a
        // single-view-per-batch loop.
        for i in 0..4 {
            let r1 = clm.train_batch(&cams[i..i + 1], &tgts[i..i + 1]);
            let r2 = enhanced.train_batch(&cams[i..i + 1], &tgts[i..i + 1]);
            assert!((r1.loss - r2.loss).abs() < 1e-6);
        }
        assert_eq!(clm.model(), enhanced.model());
    }

    #[test]
    fn overlapped_adam_equals_batch_end_adam() {
        // §4.2.2: updating each Gaussian as soon as it is finalised must be
        // identical to updating everything after the batch.
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..4];
        let tgts = &targets[..4];
        let base = TrainConfig {
            system: SystemKind::Clm,
            ordering: OrderingStrategy::Camera,
            ..Default::default()
        };
        let mut overlapped = Trainer::new(
            init.clone(),
            TrainConfig {
                overlapped_adam: true,
                ..base.clone()
            },
        );
        let mut batch_end = Trainer::new(
            init,
            TrainConfig {
                overlapped_adam: false,
                ..base
            },
        );
        overlapped.train_batch(cams, tgts);
        batch_end.train_batch(cams, tgts);
        assert_eq!(overlapped.model(), batch_end.model());
    }

    #[test]
    fn caching_does_not_change_results_only_traffic() {
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..4];
        let tgts = &targets[..4];
        let base = TrainConfig {
            system: SystemKind::Clm,
            ordering: OrderingStrategy::Tsp,
            ..Default::default()
        };
        let mut with_cache = Trainer::new(
            init.clone(),
            TrainConfig {
                gaussian_caching: true,
                ..base.clone()
            },
        );
        let mut without_cache = Trainer::new(
            init,
            TrainConfig {
                gaussian_caching: false,
                ..base
            },
        );
        let r_cache = with_cache.train_batch(cams, tgts);
        let r_plain = without_cache.train_batch(cams, tgts);
        assert_eq!(with_cache.model(), without_cache.model());
        assert!(r_cache.bytes_loaded <= r_plain.bytes_loaded);
    }

    #[test]
    fn clm_moves_far_fewer_bytes_than_naive_offloading() {
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..4];
        let tgts = &targets[..4];
        let mut clm = Trainer::new(init.clone(), config(SystemKind::Clm));
        let mut naive = Trainer::new(init, config(SystemKind::NaiveOffload));
        let r_clm = clm.train_batch(cams, tgts);
        let r_naive = naive.train_batch(cams, tgts);
        assert!(
            r_clm.bytes_loaded < r_naive.bytes_loaded,
            "CLM {} vs naive {}",
            r_clm.bytes_loaded,
            r_naive.bytes_loaded
        );
        // Both strategies follow the same training trajectory.  CLM's TSP
        // ordering changes the floating-point accumulation order, so allow
        // tiny round-off differences.
        for (a, b) in clm
            .model()
            .positions()
            .iter()
            .zip(naive.model().positions())
        {
            assert!((*a - *b).length() < 1e-3, "{a:?} vs {b:?}");
        }
        for (a, b) in clm
            .model()
            .opacity_logits()
            .iter()
            .zip(naive.model().opacity_logits())
        {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn training_reduces_loss_and_improves_psnr() {
        let (dataset, targets, init) = tiny_setup();
        let mut trainer = Trainer::new(
            init,
            TrainConfig {
                batch_size: 6,
                ..config(SystemKind::Clm)
            },
        );
        let before = trainer.evaluate_psnr(&dataset.cameras, &targets);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..6 {
            let reports = trainer.train_epoch(&dataset, &targets);
            let mean: f32 = reports.iter().map(|r| r.loss).sum::<f32>() / reports.len() as f32;
            first_loss.get_or_insert(mean);
            last_loss = mean;
        }
        let after = trainer.evaluate_psnr(&dataset.cameras, &targets);
        assert!(
            last_loss < first_loss.unwrap(),
            "loss did not decrease: {first_loss:?} -> {last_loss}"
        );
        assert!(after > before, "PSNR did not improve: {before} -> {after}");
    }

    #[test]
    fn parallel_compute_never_changes_training() {
        // Both parallelism levels — banded within a view and view-parallel
        // within a batch — are pure scheduling: batch reports and final
        // parameters must equal the serial trainer's bit for bit.
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let base = TrainConfig {
            system: SystemKind::Clm,
            batch_size: 6,
            ..Default::default()
        };
        let mut serial = Trainer::new(init.clone(), base.clone());
        let mut banded = Trainer::new(
            init.clone(),
            TrainConfig {
                compute_threads: 4,
                ..base.clone()
            },
        );
        let mut view_parallel = Trainer::new(
            init,
            TrainConfig {
                compute_threads: 3,
                view_parallel: true,
                ..base
            },
        );
        let r_serial = serial.train_batch(cams, tgts);
        let r_banded = banded.train_batch(cams, tgts);
        let r_views = view_parallel.train_batch(cams, tgts);
        assert_eq!(r_serial, r_banded);
        assert_eq!(r_serial, r_views);
        assert_eq!(serial.model(), banded.model());
        assert_eq!(serial.model(), view_parallel.model());
    }

    #[test]
    fn sharded_device_rounds_never_change_training() {
        // Data-parallel sharding is the third pure-scheduling axis: micro-
        // batches processed in rounds of `num_devices` with the fixed-order
        // reduction must match the 1-device trainer bit for bit.
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let base = TrainConfig {
            system: SystemKind::Clm,
            batch_size: 6,
            ..Default::default()
        };
        let mut serial = Trainer::new(init.clone(), base.clone());
        let r_serial = serial.train_batch(cams, tgts);
        for devices in [2usize, 3, 4, 8] {
            let mut sharded = Trainer::new(
                init.clone(),
                TrainConfig {
                    num_devices: devices,
                    ..base.clone()
                },
            );
            let r_sharded = sharded.train_batch(cams, tgts);
            assert_eq!(r_serial, r_sharded, "{devices} devices");
            assert_eq!(serial.model(), sharded.model(), "{devices} devices");
        }
    }

    #[test]
    fn batch_report_orders_are_permutations() {
        let (dataset, targets, init) = tiny_setup();
        let mut trainer = Trainer::new(init, config(SystemKind::Clm));
        let report = trainer.train_batch(&dataset.cameras[..5], &targets[..5]);
        let mut order = report.order.clone();
        order.sort_unstable();
        assert_eq!(order, (0..5).collect::<Vec<_>>());
        assert!(report.touched > 0);
        assert_eq!(trainer.batches_trained(), 1);
    }

    fn densify_config(every: usize) -> TrainConfig {
        TrainConfig {
            system: SystemKind::Clm,
            batch_size: 4,
            densify: Some(DensifySchedule {
                every_batches: every,
                config: gs_scene::DensifyConfig {
                    grad_threshold: 1.0e-4,
                    max_gaussians: 200,
                    ..Default::default()
                },
            }),
            ..Default::default()
        }
    }

    #[test]
    fn densify_schedule_resizes_the_model_mid_run() {
        let (dataset, targets, init) = tiny_setup();
        let before = init.len();
        let mut trainer = Trainer::new(init, densify_config(1));
        let cams = &dataset.cameras[..4];
        let tgts = &targets[..4];
        assert!(
            trainer.pending_resize().is_none(),
            "no boundary before batch 0"
        );
        trainer.train_batch(cams, tgts);
        let pending = trainer
            .pending_resize()
            .expect("boundary due after batch 1");
        assert!(
            !pending.is_noop(),
            "trained gradients must trigger densification"
        );
        trainer.train_batch(cams, tgts);
        assert_eq!(trainer.resize_events(), 1);
        assert_ne!(trainer.model().len(), before, "model resized mid-run");
        // Aligned state followed the resize.
        assert_eq!(trainer.optimizer().len(), trainer.model().len());
        assert_eq!(trainer.grad_norm_accum().len(), trainer.model().len());
    }

    #[test]
    fn pending_resize_fires_exactly_once_per_boundary() {
        let (dataset, targets, init) = tiny_setup();
        let mut trainer = Trainer::new(init, densify_config(2));
        let cams = &dataset.cameras[..4];
        let tgts = &targets[..4];
        trainer.train_batch(cams, tgts);
        assert!(trainer.pending_resize().is_none(), "cadence 2: not yet");
        trainer.train_batch(cams, tgts);
        let a = trainer.pending_resize().expect("boundary due");
        let b = trainer.pending_resize().expect("polling is pure");
        assert_eq!(a, b, "repeated polls plan the same event");
        trainer.apply_resize(&a);
        assert!(
            trainer.pending_resize().is_none(),
            "an applied boundary must not fire again"
        );
        assert_eq!(trainer.resize_events(), 1);
    }

    #[test]
    fn densifying_trajectory_is_identical_across_offload_systems() {
        // Densification is planned from the shared gradient trajectory, so
        // systems that are bit-identical without it stay bit-identical with
        // it — resize boundaries included.
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..4];
        let tgts = &targets[..4];
        let with_system = |system: SystemKind| TrainConfig {
            ordering: OrderingStrategy::Camera,
            ..TrainConfig {
                system,
                ..densify_config(1)
            }
        };
        let mut clm = Trainer::new(init.clone(), with_system(SystemKind::Clm));
        let mut enhanced = Trainer::new(init, with_system(SystemKind::EnhancedBaseline));
        for i in 0..4 {
            let r1 = clm.train_batch(&cams[i..i + 1], &tgts[i..i + 1]);
            let r2 = enhanced.train_batch(&cams[i..i + 1], &tgts[i..i + 1]);
            assert_eq!(r1.order, r2.order);
            assert!((r1.loss - r2.loss).abs() < 1e-6);
        }
        assert_eq!(clm.resize_events(), enhanced.resize_events());
        assert!(clm.resize_events() >= 1, "run must actually densify");
        assert_eq!(clm.model(), enhanced.model());
    }

    #[test]
    fn densifying_waves_match_the_serial_trainer() {
        // The pure-scheduling axes (waves, devices) must stay bit-identical
        // when the model resizes mid-run.
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let base = TrainConfig {
            batch_size: 6,
            ..densify_config(1)
        };
        let mut serial = Trainer::new(init.clone(), base.clone());
        let mut sharded = Trainer::new(
            init,
            TrainConfig {
                num_devices: 3,
                ..base
            },
        );
        for _ in 0..3 {
            let a = serial.train_batch(cams, tgts);
            let b = sharded.train_batch(cams, tgts);
            assert_eq!(a, b);
        }
        assert!(serial.resize_events() >= 1);
        assert_eq!(serial.resize_events(), sharded.resize_events());
        assert_eq!(serial.model(), sharded.model());
    }

    #[test]
    fn lent_optimizer_stays_with_the_trainer_when_a_lane_panics() {
        // The runtime's CPU Adam lane holds the optimiser through a split
        // borrow.  A lane that dies mid-batch (here: after stepping one
        // group) must leave the trainer with its full optimiser state —
        // the groups stepped so far included, nothing swapped out.
        let (dataset, targets, init) = tiny_setup();
        let mut trainer = Trainer::new(init, config(SystemKind::Clm));
        trainer.train_batch(&dataset.cameras[..4], &targets[..4]);
        let len = trainer.optimizer().len();
        let steps_before: Vec<u64> = (0..4).map(|i| trainer.optimizer().step_count(i)).collect();

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (view, optimizer) = trainer.lend_optimizer();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let mut back = view.model().clone();
                    optimizer.step_detached(view.model(), &[0, 1], &[], &mut back, 1, true);
                    panic!("lane dies mid-batch");
                });
            });
        }));
        assert!(result.is_err(), "the scope must propagate the lane's panic");
        assert_eq!(trainer.optimizer().len(), len);
        let steps_after: Vec<u64> = (0..4).map(|i| trainer.optimizer().step_count(i)).collect();
        assert_eq!(
            steps_after,
            [
                steps_before[0] + 1,
                steps_before[1] + 1,
                steps_before[2],
                steps_before[3]
            ]
        );
    }

    #[test]
    fn shading_from_the_plan_reads_only_the_reached_rows() {
        // The fetch skip is exact: micro-batch i's render reads the SH of
        // its reached set R_i and of no other row.  Poison every other row's
        // SH with NaN in a clone of the model — image, loss and gradients
        // of shading micro-batch i from the plan's coverage stay bit for bit
        // what the real model gives.
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..4];
        let tgts = &targets[..4];
        let mut trainer = Trainer::new(init, config(SystemKind::Clm));
        trainer.train_batch(cams, tgts);
        let plan = trainer.plan_batch(cams);
        let mut staging = Vec::new();
        let mut skipped = 0;
        for i in 0..plan.num_microbatches() {
            let reached = plan.coverage[i].reached();
            assert!(reached.len() <= plan.ordered_sets[i].len());
            assert_eq!(reached.difference(&plan.ordered_sets[i]).len(), 0);
            skipped += plan.ordered_sets[i].len() - reached.len();
            let mut poisoned = trainer.model().clone();
            for row in (0..poisoned.len() as u32).filter(|&row| !reached.contains(row)) {
                let start = row as usize * SH_FLOATS;
                poisoned.sh_mut()[start..start + SH_FLOATS].fill(f32::NAN);
            }
            let coverage = &plan.coverage[i];
            let background = trainer.config().background;
            let (image, _) = gs_render::shade(trainer.model(), coverage, background);
            let (poisoned_image, _) = gs_render::shade(&poisoned, coverage, background);
            assert_eq!(poisoned_image, image, "micro-batch {i}: image");

            trainer.stage_microbatch(&plan, i, &mut staging);
            let (loss, grads) = trainer.render_microbatch(&plan, i, cams, tgts, &staging);
            let victim = Trainer::new(poisoned, config(SystemKind::Clm));
            let (poisoned_loss, poisoned_grads) =
                victim.render_microbatch(&plan, i, cams, tgts, &staging);
            assert_eq!(
                poisoned_loss.to_bits(),
                loss.to_bits(),
                "micro-batch {i}: loss"
            );
            assert_eq!(poisoned_grads, grads, "micro-batch {i}: gradients");
            assert!(!grads.is_empty());
        }
        assert!(
            skipped > 0,
            "every frustum row was reached: the test is vacuous"
        );
    }

    proptest! {
        #[test]
        fn prop_reached_sets_plan_like_frustum_sets(
            seed in 0u64..1_000_000,
            views in 2usize..6,
            gaussians in 40usize..220,
        ) {
            // The reached sets R_i ⊆ S_i of real coverages drive the same
            // algebra the frustum sets did: the finalisation groups
            // partition the reached union by last access, the cache plans
            // partition every transition, each fetch is the reached rows
            // the device does not hold yet, every reached row's gradient
            // reaches host memory, and F_0 is everything else.
            let dataset = gs_scene::generate_dataset(
                &SceneSpec::of(SceneKind::Rubble),
                &DatasetConfig {
                    num_gaussians: gaussians,
                    num_views: views,
                    width: 24,
                    height: 18,
                    seed,
                },
            );
            let trainer = Trainer::new(dataset.ground_truth.clone(), config(SystemKind::Clm));
            let plan = trainer.plan_batch(&dataset.cameras);
            let reached: Vec<VisibilitySet> =
                plan.coverage.iter().map(|c| c.reached().clone()).collect();
            let mut union = VisibilitySet::new();
            for (r, s) in reached.iter().zip(&plan.ordered_sets) {
                prop_assert_eq!(r.difference(s).len(), 0);
                union = union.union(r);
            }
            prop_assert_eq!(&plan.touched_union, &union);
            prop_assert_eq!(plan.untouched.len() + union.len(), trainer.model().len());
            prop_assert_eq!(plan.untouched.intersection_len(&union), 0);

            let groups = plan.finalization.groups();
            prop_assert_eq!(plan.finalization.total_touched(), union.len());
            for (i, group) in groups.iter().enumerate() {
                prop_assert_eq!(group.intersection_len(&reached[i]), group.len());
                for later in &reached[i + 1..] {
                    prop_assert_eq!(group.intersection_len(later), 0);
                }
            }

            let cache = crate::cache::plan_batch(&reached);
            let mut prev = VisibilitySet::new();
            let mut stored = VisibilitySet::new();
            for i in 0..views {
                prop_assert!(cache[i].is_consistent_with(&prev, &reached[i]));
                prop_assert_eq!(&plan.fetched[i], &reached[i].difference(&prev));
                prop_assert_eq!(&plan.stored[i], &cache[i + 1].grads_to_store);
                stored = stored.union(&plan.stored[i]);
                prev = reached[i].clone();
            }
            prop_assert_eq!(&stored, &union);
        }
    }

    #[test]
    #[should_panic(expected = "one target image per camera")]
    fn mismatched_batch_inputs_panic() {
        let (dataset, targets, init) = tiny_setup();
        let mut trainer = Trainer::new(init, config(SystemKind::Clm));
        let _ = trainer.train_batch(&dataset.cameras[..3], &targets[..2]);
    }
}
