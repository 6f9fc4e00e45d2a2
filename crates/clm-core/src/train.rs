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
use crate::perf::{emit_system, SystemKind, WholeModelCosts};
use crate::schedule::FinalizationPlan;
use gs_core::camera::Camera;
use gs_core::gaussian::{GaussianModel, NON_CRITICAL_FLOATS};
use gs_core::visibility::VisibilitySet;
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_optim::{AdamConfig, GaussianAdam, GradientBuffer};
use gs_render::{
    l1_loss, psnr, render, shade, shade_backward, Coverage, Image, RenderGradients, RenderOptions,
    DEFAULT_BAND_HEIGHT,
};
use gs_scene::{Dataset, DensifyConfig, DensifyReport, GaussianPartition, ResizeEvent};
use sim_device::pipeline::{AdamGroup, ClmShape, CostSource, OpCost};
use sim_device::{Lane, LaneSpans, OpKind, Timeline};
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
    /// This is the one place the render width is set: every executor renders
    /// at it, and no executor config and no host property overrides it.
    pub compute_threads: usize,
    /// Accumulation band height for the banded renderer (clamped to at least
    /// 1, like every count knob).  Unlike `compute_threads` this is **part of
    /// the numeric contract**: it fixes the grouping of floating-point
    /// accumulation, so runs compared bit-for-bit must use the same value on
    /// every backend.  This is the one place it is set: no executor config
    /// and no host property overrides it.
    pub band_height: u32,
    /// Placeholder, never read by the trainer: the frozen benchmark harness
    /// spells `view_parallel` in exhaustive config literals.  Leaves with
    /// ROADMAP item 5(a).
    pub view_parallel: bool,
    /// The synchronous executor's data-parallel device count (1 = single
    /// device): the device lane groups [`Trainer::train_batch`] spreads a
    /// batch's micro-batches across.  Micro-batch `i` runs on device `i mod
    /// num_devices`, each device with its own prefetch window (so up to one
    /// staged micro-batch per device); losses, gradient accumulations and
    /// finalised Adam steps run in the serial micro-batch order — the
    /// fixed-order reduction that keeps the trajectory bit-identical to the
    /// 1-device trainer for every shard count.  Pure scheduling, like
    /// `compute_threads`.  The other executors shard by their own configs'
    /// device counts and never read this one.
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
    /// Rows the optimiser skipped as cold: no gradient received and both
    /// moment rows all `+0.0` bitwise, so their step is the identity and
    /// only their step counters advanced (`gs_optim::adam`, "Cold rows cost
    /// nothing").
    pub adam_rows_skipped: usize,
    /// The densification resize applied at this batch's boundary, if one
    /// was due (`None` for the fixed-size batches in between).
    pub resize: Option<DensifyReport>,
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
/// runtime (`clm-runtime`) share one numeric execution path: both run a
/// [`SerialRun`] over the same plan through the one emitter
/// ([`emit_system`]), so their training trajectories are identical by
/// construction — the runtime merely prices the ops it walks.
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

    /// The Gaussians Adam group `group` updates; `None` is the whole model.
    pub fn adam_group(&self, group: AdamGroup) -> Option<&VisibilitySet> {
        match group {
            AdamGroup::Untouched => Some(&self.untouched),
            AdamGroup::FinalizedBy(i) => Some(self.finalization.finalized_by(i)),
            AdamGroup::Dense => None,
        }
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
            // (A live check wherever staging runs ahead of
            // `apply_finalized`: at a prefetch window above 0 and at more
            // than one device.)
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
    /// Cumulative bytes gathered from pinned host memory — the offload's
    /// traffic counter ([`offloaded`](Self::offloaded)).
    bytes_gathered: u64,
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
        }
    }

    /// Rebuilds a trainer from checkpointed state so training continues
    /// bit-identically to the uninterrupted run.  The model's SH column is
    /// the pinned host store, so the model carries it; the offload's traffic
    /// counter is restored to `bytes_gathered`.
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
        let resize = self.pending_resize();
        if let Some(event) = &resize {
            self.apply_resize(event);
        }
        // A batch that unwound before `finish_batch` left its skip count.
        self.optimizer.take_rows_skipped();
        let mut plan = self.plan_batch(cameras);
        plan.resize = resize;
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
        //    and opacity): the reached sets R_i ⊆ S_i.  The plain baseline
        //    covers the whole model (fused culling), the others the frustum
        //    set.
        let coverage: Vec<Coverage> = order
            .iter()
            .zip(&ordered_sets)
            .map(|(&view, set)| {
                let culled = self.config.system != SystemKind::Baseline;
                let visible = culled.then(|| set.indices().to_vec());
                let options = RenderOptions {
                    background: self.config.background,
                    visible,
                    compute_threads: self.config.compute_threads,
                    band_height: self.config.band_height,
                };
                gs_render::coverage(&self.model, &cameras[view], &options)
            })
            .collect();
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

    /// Bytes of every parameter (or gradient) of the model: what naive
    /// offloading moves each way per batch.
    fn whole_model_bytes(&self) -> u64 {
        (self.model.len() * PARAMS_PER_GAUSSIAN * gs_core::BYTES_PER_PARAM) as u64
    }

    /// Opens a batch.  Under overlapped CPU Adam the Gaussians untouched by
    /// the whole batch (`F_0`) are updated immediately — their gradient is
    /// already final (zero).
    /// `grads` is the batch's (still all-zero) accumulator: no row has
    /// received gradient yet, so `F_0` steps with the zero gradient — except
    /// its cold rows (moments all `+0.0` bitwise, every Gaussian no batch
    /// has reached yet), whose step is the identity: the optimiser only
    /// advances their step counters and counts them
    /// ([`BatchReport::adam_rows_skipped`]).
    pub fn begin_batch(&mut self, plan: &BatchPlan, grads: &GradientBuffer) {
        if self.overlapped() {
            self.step_rows(grads, plan.untouched.indices());
        }
    }

    /// One CPU Adam step over `indices`, in place; returns the rows it
    /// updated: `indices` less the cold rows the kernel skipped, by the
    /// kernel's own count.
    fn step_rows(&mut self, grads: &GradientBuffer, indices: &[u32]) -> u64 {
        let skipped = self.optimizer.rows_skipped();
        self.optimizer.step_subset(&mut self.model, grads, indices);
        (indices.len() - (self.optimizer.rows_skipped() - skipped)) as u64
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
    /// ([`render_microbatch`](Self::render_microbatch) asserts this).
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

    /// Renders micro-batch `micro_idx`'s view (band-parallel on
    /// `self.config.compute_threads` workers) and returns its L1 loss plus
    /// the raw render gradients **without** touching the shared gradient
    /// buffer.  Pure with respect to the trainer, so independent
    /// micro-batches may run concurrently; the caller must still accumulate
    /// the returned gradients in the serial micro-batch order to stay
    /// bit-identical.
    ///
    /// # Panics
    /// Panics (CLM only) if a staged host row disagrees with the model the
    /// renderer sees — that would mean a prefetch raced with an optimiser
    /// update, which the finalisation schedule is supposed to make
    /// impossible.
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
            self.step_rows(grads, plan.finalization.finalized_by(micro_idx).indices());
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
    /// and `F_0` and the groups together write every row that is not cold
    /// (a cold row's step is the identity, so the runtime keeps its back row
    /// equal to the model's), so the swap is bit-identical to the
    /// synchronous [`apply_finalized`](Self::apply_finalized).
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
    /// batch report, which carries the resize the plan applied at this
    /// boundary.
    pub fn finish_batch(
        &mut self,
        plan: &BatchPlan,
        grads: &GradientBuffer,
        total_loss: f32,
    ) -> BatchReport {
        self.close_batch(plan, grads, total_loss, !self.overlapped())
    }

    /// [`finish_batch`](Self::finish_batch), with the batch-end dense step
    /// only if `step_dense`: a [`SerialRun`] of non-overlapped CLM has
    /// already taken it in its `adam(Dense)` hook.
    fn close_batch(
        &mut self,
        plan: &BatchPlan,
        grads: &GradientBuffer,
        total_loss: f32,
        step_dense: bool,
    ) -> BatchReport {
        if step_dense {
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
            adam_rows_skipped: self.optimizer.take_rows_skipped(),
            resize: plan.resize.as_ref().map(ResizeEvent::report),
        }
    }

    /// Trains one batch of posed images.
    ///
    /// This is the synchronous reference path, in three steps:
    /// [`resize_and_plan`](Self::resize_and_plan), the one emitter
    /// ([`emit_system`]) walking a [`SerialRun`] through the batch's op graph
    /// at prefetch window 0 on `num_devices` device lane groups, and
    /// [`finish_batch`](Self::finish_batch).  At one device the emission
    /// order is the serial order — `F_0`, then per micro-batch stage →
    /// render → accumulate → store → finalise; above one device every
    /// device stages its next micro-batch as soon as its previous one ran,
    /// ahead of the other devices' compute.
    /// The simulated engine in `clm-runtime` walks the same `SerialRun` at
    /// its own window and prices the ops, which is why the two are
    /// numerically identical.
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty.
    pub fn train_batch(&mut self, cameras: &[Camera], targets: &[Image]) -> BatchReport {
        self.walk_batch(cameras, targets, None)
    }

    /// [`train_batch`](Self::train_batch) with measured wall-clock span
    /// capture, laid onto `timeline` in batch-relative seconds, so the
    /// synchronous trainer feeds the same trace pipeline the scheduled
    /// backends do.  It is the same walk with every hook timed: each span is
    /// tagged with the op the hook prices — kind, lane, micro-batch, bytes
    /// and rows.  Resize and planning are one scheduler-lane span; the batch
    /// close is another, on the CPU Adam lane when it runs the dense
    /// optimiser step and as host-side `Other` work otherwise.
    ///
    /// # Panics
    /// Panics if `cameras` and `targets` differ in length or are empty.
    pub fn train_batch_spanned(
        &mut self,
        cameras: &[Camera],
        targets: &[Image],
        timeline: &mut Timeline,
    ) -> BatchReport {
        let mut spans = LaneSpans::new(Instant::now());
        let report = self.walk_batch(cameras, targets, Some(&mut spans));
        LaneSpans::merge_onto([spans], timeline);
        report
    }

    /// The one walk behind [`train_batch`](Self::train_batch) and
    /// [`train_batch_spanned`](Self::train_batch_spanned).
    fn walk_batch(
        &mut self,
        cameras: &[Camera],
        targets: &[Image],
        mut spans: Option<&mut LaneSpans>,
    ) -> BatchReport {
        assert_eq!(
            cameras.len(),
            targets.len(),
            "need one target image per camera"
        );
        let plan = self.resize_and_plan(cameras);
        let rows = self.model.len() as u64;
        if let Some(spans) = spans.as_deref_mut() {
            spans.record(OpKind::Scheduling, Lane::CpuScheduler, None, 0, rows, 0.0);
        }
        let system = self.config.system;
        let shape = ClmShape {
            microbatches: plan.num_microbatches(),
            window: 0,
            devices: self.config.num_devices,
            overlapped: self.overlapped(),
        };
        let mut grads = self.take_gradients();
        let mut free = Vec::new();
        let mut run = SerialRun::new(self, &plan, cameras, targets, &mut grads, &mut free);
        let (mut scratch, whole) = (Timeline::new(), WholeModelCosts::default());
        match spans.as_deref_mut() {
            Some(spans) => {
                // Only CLM spreads its ops over the device lane groups.
                let devices = if system == SystemKind::Clm {
                    shape.devices
                } else {
                    1
                };
                let gather = (0.0, OpCost::default());
                let mut timed = TimedHooks {
                    inner: &mut run,
                    spans,
                    devices,
                    gather,
                };
                emit_system(&mut scratch, &[], system, &shape, &whole, &mut timed);
            }
            None => emit_system(&mut scratch, &[], system, &shape, &whole, &mut run),
        }
        // CLM's hooks took every Adam step; the other systems' dense step is
        // the batch close.
        let finish = || run.finish();
        let report = match spans {
            Some(spans) if system == SystemKind::Clm => {
                spans.time(OpKind::Other, Lane::CpuScheduler, None, 0, 0, finish)
            }
            Some(spans) => spans.time(OpKind::CpuAdamUpdate, Lane::CpuAdam, None, 0, rows, finish),
            None => finish(),
        };
        self.return_gradients(grads);
        report
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
                    band_height: self.config.band_height,
                },
            );
            total += psnr(&out.image, target).min(60.0);
        }
        total / cameras.len() as f32
    }
}

/// A staging buffer: one micro-batch's gathered SH rows.
pub type StagingBuffer = Vec<[f32; NON_CRITICAL_FLOATS]>;

/// Where a [`SerialRun`]'s staging buffers come from and go back to.
pub trait StagingSource {
    /// A buffer with room for `rows` staged rows.
    fn acquire(&mut self, rows: usize) -> StagingBuffer;

    /// Takes back a buffer whose micro-batch has run.
    fn release(&mut self, buf: StagingBuffer);
}

/// The synchronous trainer's staging: a free list of recycled vectors.
impl StagingSource for Vec<StagingBuffer> {
    fn acquire(&mut self, _rows: usize) -> StagingBuffer {
        self.pop().unwrap_or_default()
    }

    fn release(&mut self, buf: StagingBuffer) {
        self.push(buf);
    }
}

/// One batch's real work as the emitter's cost source — the one executor of
/// the functional hooks, shared by the synchronous trainer and the
/// simulated engine.  [`emit_system`] calls the hooks in emission order and
/// each does its part of the batch:
///
/// * `staged(i)` gathers micro-batch `i`'s rows into a staging buffer;
/// * `forward(i)` renders micro-batch `i`, keeping its loss and gradients in
///   the micro-batch's slot;
/// * `backward(i)` accumulates them and hands the staging buffer back;
/// * `adam(group)` steps the group's CPU Adam in place, as
///   [`Trainer::begin_batch`] (`F_0`) and [`Trainer::apply_finalized`]
///   (micro-batch `i`'s finalisation group) do, or the whole model at the
///   end of a non-overlapped CLM batch;
/// * [`finish`](Self::finish) closes the batch ([`Trainer::finish_batch`]).
///
/// Every hook returns the plan's unscaled bytes and rows at zero duration,
/// so an executor that prices ops wraps the run and sets the durations.
/// `adam` returns one share per device, each the rows its kernel stepped —
/// the group less the cold rows it skipped (`gs_optim::adam`, "Cold rows
/// cost nothing"): each owner's own share under
/// [`owned_by`](Self::owned_by), the whole group as device 0's otherwise.
pub struct SerialRun<'a, S> {
    trainer: &'a mut Trainer,
    /// Gaussian ownership, when each owner steps its share of a group.
    owners: Option<&'a GaussianPartition>,
    plan: &'a BatchPlan,
    cameras: &'a [Camera],
    targets: &'a [Image],
    grads: &'a mut GradientBuffer,
    staging: &'a mut S,
    /// Staged and not yet consumed buffers, by micro-batch (CLM only).
    staged: Vec<Option<StagingBuffer>>,
    /// Rendered and not yet accumulated micro-batches.
    rendered: Vec<Option<(f32, RenderGradients)>>,
    total_loss: f32,
}

impl<'a, S: StagingSource> SerialRun<'a, S> {
    /// A run of `plan` on `trainer` at its configured device count,
    /// accumulating into `grads` (all-zero) and staging through `staging`.
    pub fn new(
        trainer: &'a mut Trainer,
        plan: &'a BatchPlan,
        cameras: &'a [Camera],
        targets: &'a [Image],
        grads: &'a mut GradientBuffer,
        staging: &'a mut S,
    ) -> Self {
        let m = plan.num_microbatches();
        SerialRun {
            trainer,
            owners: None,
            plan,
            cameras,
            targets,
            grads,
            staging,
            staged: (0..m).map(|_| None).collect(),
            rendered: (0..m).map(|_| None).collect(),
            total_loss: 0.0,
        }
    }

    /// The run with each Adam group stepped owner by owner, in device
    /// order, so `adam` returns each owner's stepped rows.  Each row's
    /// update is independent of the others', so the split changes no bit.
    pub fn owned_by(self, owners: &'a GaussianPartition) -> Self {
        SerialRun {
            owners: Some(owners),
            ..self
        }
    }

    /// The staging source.
    pub fn staging(&mut self) -> &mut S {
        self.staging
    }

    /// Closes the batch ([`Trainer::finish_batch`]) after the emitter has
    /// walked it.  Under CLM the `adam` hooks have taken every step; the
    /// other systems take their dense step here.
    pub fn finish(self) -> BatchReport {
        let dense_left = self.trainer.config.system != SystemKind::Clm;
        let (plan, loss) = (self.plan, self.total_loss);
        self.trainer.close_batch(plan, self.grads, loss, dense_left)
    }

    fn compute(&self, i: usize) -> OpCost {
        OpCost::compute(0.0, self.plan.ordered_sets[i].len() as u64)
    }
}

impl<S: StagingSource> CostSource for SerialRun<'_, S> {
    fn gather(&mut self, i: usize) -> OpCost {
        let rows = self.plan.fetched[i].len() as u64;
        OpCost {
            dur: 0.0,
            bytes: self.plan.fetch_bytes(i),
            rows,
        }
    }

    fn staged(&mut self, _timeline: &mut Timeline, i: usize) {
        let mut buf = self.staging.acquire(self.plan.fetched[i].len());
        self.trainer.stage_microbatch(self.plan, i, &mut buf);
        self.staged[i] = Some(buf);
    }

    fn forward(&mut self, i: usize) -> OpCost {
        // Only CLM stages rows; the other systems render from the resident
        // model.
        let staged = self.staged[i].as_deref().unwrap_or(&[]);
        let (plan, cameras, targets) = (self.plan, self.cameras, self.targets);
        let rendered = self
            .trainer
            .render_microbatch(plan, i, cameras, targets, staged);
        self.rendered[i] = Some(rendered);
        self.compute(i)
    }

    fn backward(&mut self, i: usize) -> OpCost {
        let (loss, render_grads) = self.rendered[i]
            .take()
            .expect("forward rendered this micro-batch");
        self.total_loss += loss;
        self.grads.accumulate_render(&render_grads);
        if let Some(buf) = self.staged[i].take() {
            self.staging.release(buf);
        }
        self.compute(i)
    }

    fn store(&mut self, i: usize) -> OpCost {
        let rows = self.plan.stored[i].len() as u64;
        OpCost {
            dur: 0.0,
            bytes: self.plan.store_bytes(i),
            rows,
        }
    }

    /// One gradient buffer serves every device, reduced in the serial
    /// accumulation order: nothing to exchange.
    fn allreduce(&mut self, _group: AdamGroup) -> OpCost {
        OpCost::default()
    }

    fn adam(&mut self, group: AdamGroup) -> Vec<OpCost> {
        let (trainer, grads) = (&mut *self.trainer, &*self.grads);
        let every_row: Vec<u32>;
        let indices = match self.plan.adam_group(group) {
            Some(set) => set.indices(),
            None => {
                every_row = (0..trainer.model.len() as u32).collect();
                &every_row
            }
        };
        let stepped = |rows| OpCost::compute(0.0, rows);
        match self.owners {
            Some(owners) if owners.num_devices() > 1 => (owners.split_indices(indices).iter())
                .map(|share| stepped(trainer.step_rows(grads, share)))
                .collect(),
            owners => {
                let devices = owners.map_or(trainer.config.num_devices, |o| o.num_devices());
                let mut shares = vec![OpCost::default(); devices];
                shares[0] = stepped(trainer.step_rows(grads, indices));
                shares
            }
        }
    }
}

/// A cost source whose every hook is timed as one measured span, tagged
/// with the op the hook prices: kind, lane, micro-batch, bytes and rows.  A
/// gather's span covers its staging.
struct TimedHooks<'a, C> {
    inner: &'a mut C,
    spans: &'a mut LaneSpans,
    /// Device lane groups the emitted graph spreads over.
    devices: usize,
    /// Start and price of the gather being staged.
    gather: (f64, OpCost),
}

impl<C: CostSource> TimedHooks<'_, C> {
    /// Records the span from `start` to now of `kind`'s op tagged with
    /// micro-batch `mb`.  Per-micro-batch ops run on their micro-batch's
    /// device; an all-reduce chain starts on device 0, and the whole Adam
    /// group is device 0's share.
    fn record(&mut self, kind: OpKind, mb: Option<u32>, cost: OpCost, start: f64) {
        let dev = match (kind, mb) {
            (OpKind::AllReduce | OpKind::CpuAdamUpdate, _) | (_, None) => 0,
            (_, Some(i)) => i as usize % self.devices,
        };
        let lane = match kind {
            OpKind::Forward | OpKind::Backward => Lane::compute_of(dev),
            OpKind::CpuAdamUpdate => Lane::adam_of(dev),
            _ => Lane::comm_of(dev),
        };
        self.spans
            .record(kind, lane, mb, cost.bytes, cost.rows, start);
    }

    fn timed(&mut self, kind: OpKind, i: usize, hook: impl FnOnce(&mut C) -> OpCost) -> OpCost {
        let start = self.spans.now();
        let cost = hook(&mut *self.inner);
        self.record(kind, Some(i as u32), cost, start);
        cost
    }
}

impl<C: CostSource> CostSource for TimedHooks<'_, C> {
    fn gather(&mut self, i: usize) -> OpCost {
        self.gather = (self.spans.now(), self.inner.gather(i));
        self.gather.1
    }

    fn staged(&mut self, timeline: &mut Timeline, i: usize) {
        self.inner.staged(timeline, i);
        let (start, cost) = self.gather;
        self.record(OpKind::LoadParams, Some(i as u32), cost, start);
    }

    fn forward(&mut self, i: usize) -> OpCost {
        self.timed(OpKind::Forward, i, |c| c.forward(i))
    }

    fn backward(&mut self, i: usize) -> OpCost {
        self.timed(OpKind::Backward, i, |c| c.backward(i))
    }

    fn store(&mut self, i: usize) -> OpCost {
        self.timed(OpKind::StoreGrads, i, |c| c.store(i))
    }

    fn allreduce(&mut self, group: AdamGroup) -> OpCost {
        let start = self.spans.now();
        let cost = self.inner.allreduce(group);
        self.record(OpKind::AllReduce, group.microbatch(), cost, start);
        cost
    }

    fn adam(&mut self, group: AdamGroup) -> Vec<OpCost> {
        let start = self.spans.now();
        let shares = self.inner.adam(group);
        let rows = shares.iter().map(|share| share.rows).sum();
        let cost = OpCost::compute(0.0, rows);
        self.record(OpKind::CpuAdamUpdate, group.microbatch(), cost, start);
        shares
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
            let mut losses = Vec::new();
            for (cams, tgts) in dataset.cameras.chunks(6).zip(targets.chunks(6)) {
                losses.push(trainer.train_batch(cams, tgts).loss);
            }
            let mean = losses.iter().sum::<f32>() / losses.len() as f32;
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
        // Banded rendering within a view is pure scheduling: batch reports
        // and final parameters must equal the serial trainer's bit for bit.
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
            init,
            TrainConfig {
                compute_threads: 4,
                ..base
            },
        );
        let r_serial = serial.train_batch(cams, tgts);
        let r_banded = banded.train_batch(cams, tgts);
        assert_eq!(r_serial, r_banded);
        assert_eq!(serial.model(), banded.model());
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
    #[should_panic(expected = "went stale")]
    fn a_staged_row_that_went_stale_trips_the_render() {
        // The walk stages ahead of `apply_finalized` at any window above 0
        // and at more than one device; the render is what catches a staged
        // row that no longer matches the model.
        let (dataset, targets, init) = tiny_setup();
        let (cams, tgts) = (&dataset.cameras[..4], &targets[..4]);
        let mut trainer = Trainer::new(init, config(SystemKind::Clm));
        let plan = trainer.plan_batch(cams);
        let mut staging = Vec::new();
        trainer.stage_microbatch(&plan, 0, &mut staging);
        assert!(!staging.is_empty(), "micro-batch 0 fetches nothing");
        staging[0][0] += 1.0;
        let _ = trainer.render_microbatch(&plan, 0, cams, tgts, &staging);
    }

    #[test]
    #[should_panic(expected = "one target image per camera")]
    fn mismatched_batch_inputs_panic() {
        let (dataset, targets, init) = tiny_setup();
        let mut trainer = Trainer::new(init, config(SystemKind::Clm));
        let _ = trainer.train_batch(&dataset.cameras[..3], &targets[..2]);
    }
}
