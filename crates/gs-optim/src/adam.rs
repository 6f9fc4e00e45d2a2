//! Adam optimiser for Gaussian models.
//!
//! 3DGS training keeps two Adam moment estimates per parameter (the reason a
//! Gaussian's training state is 4× its parameter count, §2.2).  CLM runs the
//! Adam update for offloaded Gaussians on a dedicated CPU thread, and — key
//! to the overlapped-CPU-Adam optimisation (§4.2.2) — is able to update any
//! *subset* of Gaussians as soon as their gradients are final.
//!
//! Every update path funnels through **one lane kernel**
//! ([`adam_update_lanes`]) that processes a fixed-width group of Gaussians
//! parameter-major (`block[param][lane]`): the inner loop touches
//! [`LANE_WIDTH`] consecutive `f32`s of the same parameter, which the
//! autovectoriser lowers to SIMD mul/div/sqrt.  The moment state itself
//! lives in a lane-chunked [`SoaParams`] store, so the dense path streams
//! whole chunks with no transposition at all.  The three drivers are
//! bit-identical by construction — each Gaussian's update is elementwise
//! independent, so grouping rows into lanes is pure scheduling:
//!
//! * [`GaussianAdam::step_dense`] / [`GaussianAdam::step_subset`] — the
//!   in-place path the synchronous trainer uses: indices are staged into
//!   lane blocks in order, updated, and scattered back;
//! * [`GaussianAdam::pack_subset`] → [`compute_packed`] →
//!   [`GaussianAdam::apply_packed`] — the shippable path: work items are
//!   plain `memcpy`able rows, so a dedicated CPU Adam worker thread can run
//!   the expensive math while the main thread keeps rendering, and the
//!   results are merged back with cheap copies;
//! * [`GaussianAdam::step_detached`] — the CPU Adam **lane's** path: a
//!   worker thread that holds the optimiser for a batch reads parameters
//!   from a shared `&GaussianModel`, takes the final gradient rows of the
//!   group's Gaussians that **received** gradient, updates `m`/`v`/`steps`
//!   in place and hands back only the new parameter rows for a deferred
//!   write-back.  Nothing the lane can already see is
//!   copied, and the group fans out across one scoped parallel region by
//!   sharding the moment stores at chunk boundaries.
//!
//! The threaded runtime uses only the first and the last; the packed trio
//! (`pack_subset`, `compute_packed*`, `apply_packed`, [`AdamWorkItem`])
//! stays as library API for the kernel benchmarks and the autotuner's
//! calibration, which time the lane kernel over self-contained rows.
//!
//! The flat 59-float [`param_row`](GaussianModel::param_row) layout remains
//! the compatibility seam: gradient/parameter rows on the lane's wire, work
//! items, checkpoint exports ([`AdamRowState`]) and pinned-row staging are
//! all row-shaped; only the resident moment state and the kernel's working
//! set are lane-chunked.

use crate::gradients::GradientBuffer;
use gs_core::gaussian::{GaussianModel, SH_FLOATS};
use gs_core::soa::{
    gather_chunk_lane, scatter_chunk_lane, zero_lane_block, LaneBlock, SoaParams, LANE_WIDTH,
};
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_render::parallel_for_each;

/// Adam hyper-parameters, with the per-attribute learning rates used by the
/// reference 3DGS implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamConfig {
    /// Learning rate for positions.
    pub lr_position: f32,
    /// Learning rate for log-scales.
    pub lr_scale: f32,
    /// Learning rate for rotations.
    pub lr_rotation: f32,
    /// Learning rate for SH coefficients.
    pub lr_sh: f32,
    /// Learning rate for opacity logits.
    pub lr_opacity: f32,
    /// First-moment decay rate.
    pub beta1: f32,
    /// Second-moment decay rate.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr_position: 1.6e-4,
            lr_scale: 5.0e-3,
            lr_rotation: 1.0e-3,
            lr_sh: 2.5e-3,
            lr_opacity: 5.0e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1.0e-15,
        }
    }
}

impl AdamConfig {
    /// A configuration with a single learning rate for every attribute,
    /// convenient for unit tests and toy problems.
    pub fn uniform(lr: f32) -> Self {
        AdamConfig {
            lr_position: lr,
            lr_scale: lr,
            lr_rotation: lr,
            lr_sh: lr,
            lr_opacity: lr,
            ..Default::default()
        }
    }

    /// Learning rate of flat parameter `k` in the
    /// [`param_row`](GaussianModel::param_row) layout.
    #[inline]
    fn lr_of(&self, k: usize) -> f32 {
        match k {
            0..=2 => self.lr_position,
            3..=5 => self.lr_scale,
            6..=9 => self.lr_rotation,
            k if k < 10 + SH_FLOATS => self.lr_sh,
            _ => self.lr_opacity,
        }
    }

    /// The per-parameter learning rates as one flat table in
    /// [`param_row`](GaussianModel::param_row) layout — the form the lane
    /// kernel consumes (a plain indexed load instead of a branch per
    /// element).
    pub fn lr_table(&self) -> [f32; PARAMS_PER_GAUSSIAN] {
        let mut table = [0.0f32; PARAMS_PER_GAUSSIAN];
        for (k, lr) in table.iter_mut().enumerate() {
            *lr = self.lr_of(k);
        }
        table
    }
}

/// One flat [`param_row`](GaussianModel::param_row)-layout row: the wire
/// format of [`GaussianAdam::step_detached`] (gradient rows in, parameter
/// rows out).
pub type ParamRow = [f32; PARAMS_PER_GAUSSIAN];

/// One Gaussian's exported Adam state — the checkpointable view of a moment
/// row.  Flat [`param_row`](GaussianModel::param_row) layout, so export →
/// restore is a pure copy and restored optimisers continue bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamRowState {
    /// First-moment row, in [`param_row`](GaussianModel::param_row) layout.
    pub m: [f32; PARAMS_PER_GAUSSIAN],
    /// Second-moment row.
    pub v: [f32; PARAMS_PER_GAUSSIAN],
    /// Per-Gaussian step counter.
    pub step: u64,
}

/// One Gaussian's worth of Adam work, fully self-contained so it can be
/// computed on any thread: the parameter row, its gradient, the moment
/// estimates and the step counter (already incremented for this update).
///
/// Produced by [`GaussianAdam::pack_subset`], transformed in place by
/// [`compute_packed`], and merged back by
/// [`GaussianAdam::apply_packed`].
#[derive(Debug, Clone)]
pub struct AdamWorkItem {
    /// Index of the Gaussian this row belongs to.
    pub index: u32,
    /// Step count of this update (1-based, already incremented).
    pub step: u64,
    /// Parameter row (updated in place by the compute pass).
    pub params: [f32; PARAMS_PER_GAUSSIAN],
    /// Accumulated gradient row.
    pub grad: [f32; PARAMS_PER_GAUSSIAN],
    /// First-moment row (updated in place).
    pub m: [f32; PARAMS_PER_GAUSSIAN],
    /// Second-moment row (updated in place).
    pub v: [f32; PARAMS_PER_GAUSSIAN],
}

impl AdamWorkItem {
    /// An all-zero work item at step 1 — the padding-lane value: every Adam
    /// expression over it yields exactly zero (step 1 keeps the bias
    /// corrections non-zero), so padded lanes can run through the full
    /// kernel without affecting anything.
    fn zeroed() -> Self {
        AdamWorkItem {
            index: 0,
            step: 1,
            params: [0.0; PARAMS_PER_GAUSSIAN],
            grad: [0.0; PARAMS_PER_GAUSSIAN],
            m: [0.0; PARAMS_PER_GAUSSIAN],
            v: [0.0; PARAMS_PER_GAUSSIAN],
        }
    }
}

/// The Adam update of one lane group: `L` Gaussians, parameter-major.
/// **Every** optimiser path in this crate runs exactly this function, which
/// is what makes the sequential, packed and chunked drivers bit-identical.
///
/// The per-element math is the textbook Kingma & Ba update with
/// per-attribute learning rates (`lr`, indexed in
/// [`param_row`](GaussianModel::param_row) layout) and a **per-lane** step
/// counter (Gaussians age independently under sparse updates, so each lane
/// carries its own bias correction).  The inner loop walks `L` consecutive
/// floats of one parameter — a fixed-width block the autovectoriser lowers
/// to SIMD mul/div/sqrt; swapping it for `std::simd` later is mechanical.
///
/// Padding lanes must be staged as zeros **with step ≥ 1** (the private
/// `AdamWorkItem::zeroed` value); a zero lane stays exactly zero.
#[inline]
pub fn adam_update_lanes<const L: usize>(
    lr: &[f32; PARAMS_PER_GAUSSIAN],
    beta1: f32,
    beta2: f32,
    eps: f32,
    steps: &[u64; L],
    params: &mut [[f32; L]; PARAMS_PER_GAUSSIAN],
    grads: &[[f32; L]; PARAMS_PER_GAUSSIAN],
    m: &mut [[f32; L]; PARAMS_PER_GAUSSIAN],
    v: &mut [[f32; L]; PARAMS_PER_GAUSSIAN],
) {
    // Bias corrections are per lane (powf stays a scalar libm call), hoisted
    // out of the parameter loop so the hot inner loop is pure mul/div/sqrt.
    let mut bias1 = [0.0f32; L];
    let mut bias2 = [0.0f32; L];
    for l in 0..L {
        let t = steps[l] as f32;
        bias1[l] = 1.0 - beta1.powf(t);
        bias2[l] = 1.0 - beta2.powf(t);
    }
    for k in 0..PARAMS_PER_GAUSSIAN {
        let lr_k = lr[k];
        let (pk, gk) = (&mut params[k], &grads[k]);
        let (mk, vk) = (&mut m[k], &mut v[k]);
        for l in 0..L {
            let g = gk[l];
            mk[l] = beta1 * mk[l] + (1.0 - beta1) * g;
            vk[l] = beta2 * vk[l] + (1.0 - beta2) * g * g;
            let m_hat = mk[l] / bias1[l];
            let v_hat = vk[l] / bias2[l];
            pk[l] -= lr_k * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

/// Runs the lane kernel over packed work items in groups of `L`
/// (single-threaded), staging each group through a parameter-major block.
/// Exposed with a const lane count so tests can sweep `L ∈ {1, 2, 4, 8}`
/// against the scalar reference; production paths use
/// [`compute_packed`] (`L =` [`LANE_WIDTH`]).
pub fn compute_packed_lanes<const L: usize>(config: &AdamConfig, items: &mut [AdamWorkItem]) {
    let lr = config.lr_table();
    let pad = AdamWorkItem::zeroed();
    let mut steps = [1u64; L];
    let mut p = [[0.0f32; L]; PARAMS_PER_GAUSSIAN];
    let mut g = [[0.0f32; L]; PARAMS_PER_GAUSSIAN];
    let mut m = [[0.0f32; L]; PARAMS_PER_GAUSSIAN];
    let mut v = [[0.0f32; L]; PARAMS_PER_GAUSSIAN];
    for group in items.chunks_mut(L) {
        for l in 0..L {
            let item = group.get(l).unwrap_or(&pad);
            steps[l] = item.step;
            for k in 0..PARAMS_PER_GAUSSIAN {
                p[k][l] = item.params[k];
                g[k][l] = item.grad[k];
                m[k][l] = item.m[k];
                v[k][l] = item.v[k];
            }
        }
        adam_update_lanes(
            &lr,
            config.beta1,
            config.beta2,
            config.eps,
            &steps,
            &mut p,
            &g,
            &mut m,
            &mut v,
        );
        for (l, item) in group.iter_mut().enumerate() {
            for k in 0..PARAMS_PER_GAUSSIAN {
                item.params[k] = p[k][l];
                item.m[k] = m[k][l];
                item.v[k] = v[k][l];
            }
        }
    }
}

/// Runs the Adam kernel over every packed work item (single-threaded).
pub fn compute_packed(config: &AdamConfig, items: &mut [AdamWorkItem]) {
    compute_packed_lanes::<LANE_WIDTH>(config, items);
}

/// Bytes one packed [`AdamWorkItem`] occupies — the unit the autotuner's
/// cache-aware chunk sizing reasons in.
pub const WORK_ITEM_BYTES: usize = std::mem::size_of::<AdamWorkItem>();

/// The worker count that keeps each Adam shard at or under
/// `target_chunk_rows` rows without exceeding `max_threads`:
/// small workloads stay on few threads (one cache-resident chunk does not
/// benefit from being split), large workloads fan out until either every
/// chunk fits the target or the thread budget is exhausted.
///
/// Pure scheduling — [`GaussianAdam::step_detached`] is bit-identical for
/// every thread count, so callers may resize freely per batch.
pub fn threads_for_chunk_rows(len: usize, target_chunk_rows: usize, max_threads: usize) -> usize {
    let target = target_chunk_rows.max(1);
    len.div_ceil(target).clamp(1, max_threads.max(1))
}

/// Writes a [`GradientBuffer`] row into a flat
/// [`param_row`](GaussianModel::param_row)-layout buffer.
fn flat_grad_into(grads: &GradientBuffer, index: u32, row: &mut [f32; PARAMS_PER_GAUSSIAN]) {
    let g = grads.row(index);
    row[0..3].copy_from_slice(&g.d_position.to_array());
    row[3..6].copy_from_slice(&g.d_log_scale.to_array());
    row[6..10].copy_from_slice(&g.d_rotation);
    row[10..10 + SH_FLOATS].copy_from_slice(&g.d_sh);
    row[PARAMS_PER_GAUSSIAN - 1] = g.d_opacity_logit;
}

/// Stages a [`GradientBuffer`] row into lane `lane` of a parameter-major
/// block — the transposed twin of [`flat_grad_into`], same values.
fn stage_grad_lane(grads: &GradientBuffer, index: u32, lane: usize, block: &mut LaneBlock) {
    let g = grads.row(index);
    let dp = g.d_position.to_array();
    let ds = g.d_log_scale.to_array();
    for k in 0..3 {
        block[k][lane] = dp[k];
        block[3 + k][lane] = ds[k];
    }
    for k in 0..4 {
        block[6 + k][lane] = g.d_rotation[k];
    }
    for k in 0..SH_FLOATS {
        block[10 + k][lane] = g.d_sh[k];
    }
    block[PARAMS_PER_GAUSSIAN - 1][lane] = g.d_opacity_logit;
}

/// Re-zeroes gradient lane `lane` of a block — what a Gaussian that
/// received no gradient stages (its accumulator row is `+0.0` in every
/// slot).
fn zero_grad_lane(lane: usize, block: &mut LaneBlock) {
    for row in block.iter_mut() {
        row[lane] = 0.0;
    }
}

/// What every shard of one [`GaussianAdam::step_detached`] call shares.
struct DetachedKernel<'a> {
    lr: [f32; PARAMS_PER_GAUSSIAN],
    config: &'a AdamConfig,
    model: &'a GaussianModel,
    commit: bool,
}

/// One shard of a detached step: a run of the group's indices together with
/// the slices of everything addressed by them.  `out` is keyed by position
/// in `indices`; `grads` is the sorted sparse list of the shard's rows that
/// received gradient; `m`/`v`/`steps` are keyed by row and start at row
/// `base` (a multiple of [`LANE_WIDTH`], so the moment slices start at a
/// chunk boundary).
struct DetachedShard<'a> {
    base: usize,
    indices: &'a [u32],
    grads: &'a [(u32, ParamRow)],
    out: &'a mut [ParamRow],
    m: &'a mut [LaneBlock],
    v: &'a mut [LaneBlock],
    steps: &'a mut [u64],
}

impl<'a> DetachedShard<'a> {
    /// Splits into the indices below `row` and the rest; `row` must be a
    /// multiple of [`LANE_WIDTH`] inside the shard's chunks.
    fn split_at_row(self, row: usize) -> (Self, Self) {
        let cut = self.indices.partition_point(|&i| (i as usize) < row);
        let rows = row - self.base;
        let (indices, indices_tail) = self.indices.split_at(cut);
        let (out, out_tail) = self.out.split_at_mut(cut);
        let (m, m_tail) = self.m.split_at_mut(rows / LANE_WIDTH);
        let (v, v_tail) = self.v.split_at_mut(rows / LANE_WIDTH);
        // The last chunk's padding rows have no step counter.
        let (steps, steps_tail) = self.steps.split_at_mut(rows.min(self.steps.len()));
        let grads_cut = self.grads.partition_point(|&(i, _)| (i as usize) < row);
        let (grads, grads_tail) = self.grads.split_at(grads_cut);
        (
            DetachedShard {
                base: self.base,
                indices,
                grads,
                out,
                m,
                v,
                steps,
            },
            DetachedShard {
                base: row,
                indices: indices_tail,
                grads: grads_tail,
                out: out_tail,
                m: m_tail,
                v: v_tail,
                steps: steps_tail,
            },
        )
    }
}

impl DetachedKernel<'_> {
    /// The in-place driver's loop (`GaussianAdam::step_indices`) with the
    /// model read-only: identical staging and kernel call, new parameters
    /// to `out`, moments scattered home only when committing.
    fn run(&self, shard: DetachedShard<'_>) {
        let DetachedShard {
            base,
            indices,
            grads,
            out,
            m: m_rows,
            v: v_rows,
            steps: step_rows,
        } = shard;
        let mut steps = [1u64; LANE_WIDTH];
        let mut p = zero_lane_block();
        // A lane holds a gradient only while a row that received one sits
        // in it; `staged[l]` says lane `l` has to be re-zeroed before a row
        // without one (or padding) can use it.
        let mut g = zero_lane_block();
        let mut staged = [false; LANE_WIDTH];
        let mut received = grads.iter().peekable();
        let mut m = zero_lane_block();
        let mut v = zero_lane_block();
        for (group, out) in indices.chunks(LANE_WIDTH).zip(out.chunks_mut(LANE_WIDTH)) {
            for l in 0..LANE_WIDTH {
                let row = match group.get(l) {
                    Some(&idx) => {
                        let i = idx as usize;
                        steps[l] = step_rows[i - base] + 1;
                        self.model.param_lane_into(i, l, &mut p);
                        gather_chunk_lane(m_rows, i - base, l, &mut m);
                        gather_chunk_lane(v_rows, i - base, l, &mut v);
                        received.next_if(|&&(row, _)| row == idx)
                    }
                    None => {
                        // Re-zero lanes left over from the previous group.
                        steps[l] = 1;
                        for k in 0..PARAMS_PER_GAUSSIAN {
                            p[k][l] = 0.0;
                            m[k][l] = 0.0;
                            v[k][l] = 0.0;
                        }
                        None
                    }
                };
                match row {
                    Some((_, row)) => {
                        for k in 0..PARAMS_PER_GAUSSIAN {
                            g[k][l] = row[k];
                        }
                    }
                    None if staged[l] => zero_grad_lane(l, &mut g),
                    None => {}
                }
                staged[l] = row.is_some();
            }
            adam_update_lanes(
                &self.lr,
                self.config.beta1,
                self.config.beta2,
                self.config.eps,
                &steps,
                &mut p,
                &g,
                &mut m,
                &mut v,
            );
            for (l, (&idx, row)) in group.iter().zip(out).enumerate() {
                for k in 0..PARAMS_PER_GAUSSIAN {
                    row[k] = p[k][l];
                }
                if self.commit {
                    let r = idx as usize - base;
                    step_rows[r] = steps[l];
                    scatter_chunk_lane(m_rows, r, l, &m);
                    scatter_chunk_lane(v_rows, r, l, &v);
                }
            }
        }
        assert!(
            received.next().is_none(),
            "gradient rows must be a strictly increasing subset of the indices"
        );
    }
}

/// Adam optimiser whose state is shaped like a [`GaussianModel`], held in
/// lane-chunked [`SoaParams`] stores so the kernel streams it SIMD-wise.
///
/// The state grows lazily: Gaussians created by densification get fresh
/// moments the first time they are updated.
#[derive(Debug, Clone)]
pub struct GaussianAdam {
    config: AdamConfig,
    m: SoaParams,
    v: SoaParams,
    steps: Vec<u64>,
}

impl GaussianAdam {
    /// Creates an optimiser for a model that currently has `len` Gaussians.
    pub fn new(len: usize, config: AdamConfig) -> Self {
        GaussianAdam {
            config,
            m: SoaParams::zeros(len),
            v: SoaParams::zeros(len),
            steps: vec![0; len],
        }
    }

    /// The hyper-parameters.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// Number of Gaussians with optimiser state.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the optimiser holds no state.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Bytes of optimiser state (two moments per parameter), matching the
    /// paper's accounting.
    pub fn state_bytes(&self) -> usize {
        self.steps.len() * PARAMS_PER_GAUSSIAN * 2 * 4
    }

    /// Ensures state exists for `len` Gaussians (used after densification).
    pub fn resize(&mut self, len: usize) {
        self.m.resize(len);
        self.v.resize(len);
        self.steps.resize(len, 0);
    }

    /// Resizes the optimiser state for a densification boundary, following
    /// the paper's heuristic: pruned rows are dropped, surviving rows keep
    /// their moments and step counts (a clone/split continues the original's
    /// trajectory), and the appended rows start from fresh zero moments —
    /// exactly the state a lazily-grown optimiser would give them.
    ///
    /// `pruned` must be sorted pre-resize indices; `new_len` is the model
    /// size after the resize.
    ///
    /// # Panics
    /// Panics if a pruned index is out of bounds of the current state.
    pub fn apply_resize(&mut self, pruned: &[u32], new_len: usize) {
        if !pruned.is_empty() {
            let mut remove = vec![false; self.steps.len()];
            for &i in pruned {
                let i = i as usize;
                assert!(i < remove.len(), "pruned index {i} out of bounds");
                remove[i] = true;
            }
            let mut flags = remove.iter();
            self.steps.retain(|_| !*flags.next().unwrap());
            self.m.apply_resize(pruned, self.steps.len());
            self.v.apply_resize(pruned, self.steps.len());
        }
        self.resize(new_len);
    }

    /// Applies one Adam step to **every** Gaussian using the gradients in
    /// `grads` (Gaussians without gradients receive a zero gradient, which
    /// still decays their moments — this matches dense GPU Adam).
    pub fn step_dense(&mut self, model: &mut GaussianModel, grads: &GradientBuffer) {
        assert_eq!(model.len(), grads.len(), "gradient buffer size mismatch");
        self.resize(model.len());
        let indices: Vec<u32> = (0..model.len() as u32).collect();
        self.step_indices(model, grads, &indices);
    }

    /// Applies one Adam step only to the Gaussians in `indices`
    /// (the sparse "CPU Adam" path, §5.4).  Other Gaussians are untouched.
    /// A Gaussian of `indices` that received no gradient steps with the
    /// all-zero gradient its accumulator row holds (its moments still
    /// decay) — the batch's untouched `F_0` group is the case where none
    /// did.
    ///
    /// # Panics
    /// Panics if an index is out of bounds or the gradient buffer does not
    /// match the model size.
    pub fn step_subset(
        &mut self,
        model: &mut GaussianModel,
        grads: &GradientBuffer,
        indices: &[u32],
    ) {
        assert_eq!(model.len(), grads.len(), "gradient buffer size mismatch");
        self.resize(model.len());
        self.step_indices(model, grads, indices);
    }

    /// The in-place driver: stages `indices` (in order, groups of
    /// [`LANE_WIDTH`]) into parameter-major lane blocks, runs the shared
    /// lane kernel, and scatters the **active** lanes back.  Padding lanes
    /// stay zero through the kernel and are never written anywhere.  Only a
    /// row that received gradient has its accumulator row staged; every
    /// other lane is the zero gradient, as in
    /// [`step_detached`](Self::step_detached).
    fn step_indices(&mut self, model: &mut GaussianModel, grads: &GradientBuffer, indices: &[u32]) {
        let lr = self.config.lr_table();
        let mut steps = [1u64; LANE_WIDTH];
        let mut p = zero_lane_block();
        // See `DetachedKernel::run`.
        let mut g = zero_lane_block();
        let mut staged = [false; LANE_WIDTH];
        let mut m = zero_lane_block();
        let mut v = zero_lane_block();
        for group in indices.chunks(LANE_WIDTH) {
            for l in 0..LANE_WIDTH {
                match group.get(l) {
                    Some(&idx) => {
                        let i = idx as usize;
                        assert!(i < model.len(), "gaussian index {i} out of bounds");
                        self.steps[i] += 1;
                        steps[l] = self.steps[i];
                        model.param_lane_into(i, l, &mut p);
                        self.m.gather_lane(i, l, &mut m);
                        self.v.gather_lane(i, l, &mut v);
                    }
                    None => {
                        // Re-zero lanes left over from the previous group.
                        steps[l] = 1;
                        for k in 0..PARAMS_PER_GAUSSIAN {
                            p[k][l] = 0.0;
                            m[k][l] = 0.0;
                            v[k][l] = 0.0;
                        }
                    }
                }
                let received = group.get(l).filter(|&&idx| grads.is_touched(idx));
                match received {
                    Some(&idx) => stage_grad_lane(grads, idx, l, &mut g),
                    None if staged[l] => zero_grad_lane(l, &mut g),
                    None => {}
                }
                staged[l] = received.is_some();
            }
            adam_update_lanes(
                &lr,
                self.config.beta1,
                self.config.beta2,
                self.config.eps,
                &steps,
                &mut p,
                &g,
                &mut m,
                &mut v,
            );
            for (l, &idx) in group.iter().enumerate() {
                let i = idx as usize;
                model.set_param_lane(i, l, &p);
                self.m.scatter_lane(i, l, &m);
                self.v.scatter_lane(i, l, &v);
            }
        }
    }

    /// The **detached** step: [`step_subset`](Self::step_subset) for a
    /// caller that owns the optimiser but only *shares* the model — the CPU
    /// Adam lane of a threaded runtime, which holds the optimiser for the
    /// batch while the render lane keeps reading the model.
    ///
    /// For each of `indices` (strictly increasing) the parameters are read
    /// from `model`, the moments and step counter from the optimiser, and
    /// the gradient from `grads` — the sorted `(index, row)` list of the
    /// group's Gaussians that received gradient; a Gaussian without an
    /// entry steps with the all-zero gradient (the batch's untouched `F_0`
    /// group ships an empty list).  The moments and counters are updated
    /// **in place**, and the new parameter row is written to `out[j]`
    /// instead of the model.  The caller applies `out` to the model once nothing reads
    /// the old values any more; until then repeated calls for *disjoint*
    /// groups are independent.  Same staging order, same
    /// [`adam_update_lanes`] call, same inputs as the in-place step, so
    /// `out` and the optimiser state are bit-identical to what `step_subset`
    /// would have left in a mutable model.
    ///
    /// `threads > 1` splits the group across one scoped parallel region
    /// (`gs_render::parallel_for_each`): the index list is cut at
    /// [`LANE_WIDTH`]-aligned **row** boundaries, so each
    /// shard owns whole chunks of the moment stores (`split_at_mut`, no
    /// sharing) — pure scheduling, every row sees the same kernel.
    ///
    /// `commit = false` runs the same math and fills `out` but leaves the
    /// moments and step counters as they were: the retry of a failed attempt
    /// under fault injection.  Like every step, the call first grows the
    /// state to the model's length with fresh zero rows.
    ///
    /// # Panics
    /// Panics if `out` and `indices` differ in length, `indices` is not
    /// strictly increasing and within the model, or `grads` is not a
    /// strictly increasing subset of `indices`.
    pub fn step_detached(
        &mut self,
        model: &GaussianModel,
        indices: &[u32],
        grads: &[(u32, ParamRow)],
        out: &mut [ParamRow],
        threads: usize,
        commit: bool,
    ) {
        assert_eq!(out.len(), indices.len(), "one output row per index");
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "detached step needs strictly increasing indices"
        );
        if let Some(&last) = indices.last() {
            assert!(
                (last as usize) < model.len(),
                "gaussian index {last} out of bounds"
            );
        }
        self.resize(model.len());

        let kernel = DetachedKernel {
            lr: self.config.lr_table(),
            config: &self.config,
            model,
            commit,
        };
        let mut rest = DetachedShard {
            base: 0,
            indices,
            grads,
            out,
            m: self.m.chunks_mut(),
            v: self.v.chunks_mut(),
            steps: &mut self.steps,
        };
        // A shard is at least one lane group: below that there is nothing
        // to split.
        let parts = threads.clamp(1, indices.len().div_ceil(LANE_WIDTH).max(1));
        if parts == 1 {
            kernel.run(rest);
            return;
        }
        let per_shard = indices.len().div_ceil(parts);
        let mut shards = Vec::with_capacity(parts);
        while rest.indices.len() > per_shard {
            // Cut behind the chunk holding the shard's last index.
            let row = (rest.indices[per_shard - 1] as usize / LANE_WIDTH + 1) * LANE_WIDTH;
            let (head, tail) = rest.split_at_row(row);
            shards.push(head);
            rest = tail;
        }
        shards.push(rest);
        parallel_for_each(parts, shards, |shard| kernel.run(shard));
    }

    /// Packs the Adam work of `indices` into self-contained
    /// [`AdamWorkItem`]s without touching the model or the optimiser state —
    /// each field is staged **directly** into the item (model row, gradient
    /// row, lane-chunked moments), with no intermediate row
    /// materialisation.  Gaussians beyond the current state length get
    /// fresh (zero) moments, exactly as the in-place path would create them.
    ///
    /// # Panics
    /// Panics if an index is out of bounds of the model or the gradient
    /// buffer does not match the model size.
    pub fn pack_subset(
        &self,
        model: &GaussianModel,
        grads: &GradientBuffer,
        indices: &[u32],
    ) -> Vec<AdamWorkItem> {
        assert_eq!(model.len(), grads.len(), "gradient buffer size mismatch");
        indices
            .iter()
            .map(|&idx| {
                let i = idx as usize;
                assert!(i < model.len(), "gaussian index {i} out of bounds");
                let mut item = AdamWorkItem {
                    index: idx,
                    step: 1,
                    params: [0.0; PARAMS_PER_GAUSSIAN],
                    grad: [0.0; PARAMS_PER_GAUSSIAN],
                    m: [0.0; PARAMS_PER_GAUSSIAN],
                    v: [0.0; PARAMS_PER_GAUSSIAN],
                };
                model.read_param_row_into(i, &mut item.params);
                flat_grad_into(grads, idx, &mut item.grad);
                if i < self.steps.len() {
                    item.step = self.steps[i] + 1;
                    self.m.read_row_into(i, &mut item.m);
                    self.v.read_row_into(i, &mut item.v);
                }
                item
            })
            .collect()
    }

    /// Merges computed work items back into the model and the optimiser
    /// state (pure copies — all math happened in the compute pass).
    ///
    /// # Panics
    /// Panics if an item's index is out of bounds of the model.
    pub fn apply_packed(&mut self, model: &mut GaussianModel, items: &[AdamWorkItem]) {
        self.resize(model.len());
        for item in items {
            let i = item.index as usize;
            assert!(i < model.len(), "gaussian index {i} out of bounds");
            model.set_param_row(i, &item.params);
            self.m.set_row(i, &item.m);
            self.v.set_row(i, &item.v);
            self.steps[i] = item.step;
        }
    }

    /// Number of Adam steps Gaussian `index` has received so far.
    pub fn step_count(&self, index: u32) -> u64 {
        self.steps.get(index as usize).copied().unwrap_or(0)
    }

    /// Exports every moment row for checkpointing (pure copies through the
    /// row-layout seam).
    pub fn export_rows(&self) -> Vec<AdamRowState> {
        (0..self.steps.len())
            .map(|i| AdamRowState {
                m: self.m.row(i),
                v: self.v.row(i),
                step: self.steps[i],
            })
            .collect()
    }

    /// Rebuilds an optimiser from exported rows; the inverse of
    /// [`export_rows`](Self::export_rows).
    pub fn from_rows(config: AdamConfig, rows: Vec<AdamRowState>) -> Self {
        let mut adam = GaussianAdam::new(rows.len(), config);
        for (i, r) in rows.into_iter().enumerate() {
            adam.m.set_row(i, &r.m);
            adam.v.set_row(i, &r.v);
            adam.steps[i] = r.step;
        }
        adam
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::gaussian::Gaussian;
    use gs_core::math::Vec3;
    use gs_render::GaussianGradients;

    fn model_of(n: usize) -> GaussianModel {
        (0..n)
            .map(|i| Gaussian::isotropic(Vec3::new(i as f32, 0.0, 5.0), 0.3, [0.5; 3], 0.7))
            .collect()
    }

    fn grad_with_position(d: Vec3) -> GaussianGradients {
        GaussianGradients {
            d_position: d,
            ..Default::default()
        }
    }

    /// Reference scalar Adam, transcribed directly from the paper's cited
    /// Adam formulation (Kingma & Ba).
    fn reference_adam(param0: f32, grads: &[f32], lr: f32) -> f32 {
        let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1.0e-15f32);
        let (mut m, mut v, mut p) = (0.0f32, 0.0f32, param0);
        for (t, &g) in grads.iter().enumerate() {
            let t = (t + 1) as f32;
            m = beta1 * m + (1.0 - beta1) * g;
            v = beta2 * v + (1.0 - beta2) * g * g;
            let m_hat = m / (1.0 - beta1.powf(t));
            let v_hat = v / (1.0 - beta2.powf(t));
            p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
        p
    }

    /// A richly-varied gradient buffer touching every attribute group.
    fn varied_grads(n: usize) -> GradientBuffer {
        let mut buf = GradientBuffer::new(n);
        for i in 0..n {
            let f = i as f32 + 1.0;
            let mut d_sh = [0.0f32; SH_FLOATS];
            for (k, c) in d_sh.iter_mut().enumerate() {
                *c = 0.01 * f * (k as f32 - 20.0);
            }
            buf.add(
                i as u32,
                &GaussianGradients {
                    d_position: Vec3::new(0.3 * f, -0.1, 0.2 * f),
                    d_log_scale: Vec3::new(-0.05, 0.02 * f, 0.0),
                    d_rotation: [0.01 * f, -0.02, 0.03, 0.04 * f],
                    d_sh,
                    d_opacity_logit: 0.5 - 0.1 * f,
                },
            );
        }
        buf
    }

    #[test]
    fn dense_step_matches_reference_adam() {
        let mut model = model_of(1);
        let p0 = model.positions()[0].x;
        let mut opt = GaussianAdam::new(1, AdamConfig::uniform(0.01));
        let grad_sequence = [0.5f32, -0.2, 0.8, 0.1];
        for &g in &grad_sequence {
            let mut buf = GradientBuffer::new(1);
            buf.add(0, &grad_with_position(Vec3::new(g, 0.0, 0.0)));
            opt.step_dense(&mut model, &buf);
        }
        let expected = reference_adam(p0, &grad_sequence, 0.01);
        let actual = model.positions()[0].x;
        assert!((actual - expected).abs() < 1e-6, "{actual} vs {expected}");
        assert_eq!(opt.step_count(0), 4);
    }

    #[test]
    fn subset_step_only_touches_listed_gaussians() {
        let mut model = model_of(3);
        let before = model.clone();
        let mut opt = GaussianAdam::new(3, AdamConfig::default());
        let mut buf = GradientBuffer::new(3);
        for i in 0..3 {
            buf.add(i, &grad_with_position(Vec3::new(1.0, 1.0, 1.0)));
        }
        opt.step_subset(&mut model, &buf, &[1]);
        assert_eq!(model.positions()[0], before.positions()[0]);
        assert_ne!(model.positions()[1], before.positions()[1]);
        assert_eq!(model.positions()[2], before.positions()[2]);
        assert_eq!(opt.step_count(0), 0);
        assert_eq!(opt.step_count(1), 1);
    }

    #[test]
    fn disjoint_subset_steps_equal_one_dense_step() {
        // Updating {0,1} and then {2,3} with the same gradient buffer must
        // give exactly the same result as one dense step over all four —
        // this is the invariant overlapped CPU Adam relies on (§4.2.2).
        // With lane grouping this also exercises partial lane blocks.
        let grads = varied_grads(4);

        let mut model_a = model_of(4);
        let mut opt_a = GaussianAdam::new(4, AdamConfig::default());
        opt_a.step_subset(&mut model_a, &grads, &[0, 1]);
        opt_a.step_subset(&mut model_a, &grads, &[2, 3]);

        let mut model_b = model_of(4);
        let mut opt_b = GaussianAdam::new(4, AdamConfig::default());
        opt_b.step_dense(&mut model_b, &grads);

        assert_eq!(model_a, model_b);
    }

    #[test]
    fn rows_without_receipt_step_with_the_zero_gradient() {
        // F_0 under overlapped CPU Adam: the rows' moments are live (they
        // were trained in an earlier batch), no row received gradient.  The
        // in-place step stages no accumulator row at all; the packed path
        // copies every listed row's (+0.0) gradient.  The index list ends in
        // a partial lane block.
        let n = 2 * LANE_WIDTH + 3;
        let subset: Vec<u32> = (0..n as u32).filter(|i| i % 4 != 1).collect();
        let zeros = GradientBuffer::new(n);
        let run = |in_place: bool| {
            let mut model = model_of(n);
            let mut opt = GaussianAdam::new(n, AdamConfig::default());
            opt.step_dense(&mut model, &varied_grads(n));
            if in_place {
                opt.step_subset(&mut model, &zeros, &subset);
            } else {
                let mut items = opt.pack_subset(&model, &zeros, &subset);
                compute_packed(opt.config(), &mut items);
                opt.apply_packed(&mut model, &items);
            }
            (model, opt.export_rows())
        };
        let (model, rows) = run(true);
        let (expected_model, expected_rows) = run(false);
        assert_eq!(rows, expected_rows);
        for i in 0..n {
            let bits = |m: &GaussianModel| m.param_row(i).map(f32::to_bits);
            assert_eq!(bits(&model), bits(&expected_model), "row {i}");
        }
        assert_eq!(rows[0].step, 2);
        assert_eq!(rows[1].step, 1, "row 1 is not in the subset");
    }

    #[test]
    fn packed_path_is_bit_identical_to_in_place_step() {
        // The shippable pack → compute → apply path must be exactly the
        // sequential step: same parameters, same moments, same step counts.
        let grads = varied_grads(6);
        let indices = [0u32, 2, 3, 5];

        let mut model_seq = model_of(6);
        let mut opt_seq = GaussianAdam::new(6, AdamConfig::default());
        // Pre-age two rows so packed steps start from non-zero moments.
        opt_seq.step_subset(&mut model_seq, &grads, &[2, 5]);

        let mut model_packed = model_seq.clone();
        let mut opt_packed = opt_seq.clone();

        opt_seq.step_subset(&mut model_seq, &grads, &indices);

        let mut items = opt_packed.pack_subset(&model_packed, &grads, &indices);
        compute_packed(opt_packed.config(), &mut items);
        opt_packed.apply_packed(&mut model_packed, &items);

        assert_eq!(model_seq, model_packed);
        for idx in indices {
            assert_eq!(opt_seq.step_count(idx), opt_packed.step_count(idx));
        }
        // One more sequential step on both keeps them in lockstep (moments
        // were merged back exactly).
        opt_seq.step_subset(&mut model_seq, &grads, &indices);
        opt_packed.step_subset(&mut model_packed, &grads, &indices);
        assert_eq!(model_seq, model_packed);
    }

    #[test]
    fn chunk_row_targets_map_to_sane_thread_counts() {
        // One cache-resident chunk never fans out…
        assert_eq!(threads_for_chunk_rows(1_000, 4_096, 16), 1);
        // …a big workload fans out until chunks fit the target…
        assert_eq!(threads_for_chunk_rows(100_000, 4_096, 64), 25);
        // …but never past the thread budget.
        assert_eq!(threads_for_chunk_rows(100_000, 4_096, 16), 16);
        // Degenerate inputs stay in range.
        assert_eq!(threads_for_chunk_rows(0, 4_096, 16), 1);
        assert_eq!(threads_for_chunk_rows(100, 0, 16), 16);
        assert_eq!(threads_for_chunk_rows(100, 10, 0), 1);
        // The work-item size the targets are computed from is stable-ish:
        // 59 params x 4 arrays of f32 plus the index/step header.
        const { assert!(WORK_ITEM_BYTES >= 4 * 4 * 59) };
    }

    #[test]
    fn pack_subset_handles_unsized_state_like_resize_would() {
        // Packing rows past the optimiser's current length must behave like
        // the in-place path (which resizes first): fresh zero moments.
        let grads = varied_grads(4);
        let mut model_a = model_of(4);
        let mut opt_a = GaussianAdam::new(2, AdamConfig::default());
        let mut items = opt_a.pack_subset(&model_a, &grads, &[1, 3]);
        compute_packed(opt_a.config(), &mut items);
        opt_a.apply_packed(&mut model_a, &items);

        let mut model_b = model_of(4);
        let mut opt_b = GaussianAdam::new(2, AdamConfig::default());
        opt_b.step_subset(&mut model_b, &grads, &[1, 3]);

        assert_eq!(model_a, model_b);
        assert_eq!(opt_a.step_count(3), 1);
    }

    #[test]
    fn adam_descends_a_simple_quadratic() {
        // Minimise (x - 2)^2 via its gradient 2(x - 2) on the opacity logit.
        let mut model = model_of(1);
        model.opacity_logits_mut()[0] = -3.0;
        let mut opt = GaussianAdam::new(1, AdamConfig::uniform(0.05));
        for _ in 0..800 {
            let x = model.opacity_logits()[0];
            let mut buf = GradientBuffer::new(1);
            buf.add(
                0,
                &GaussianGradients {
                    d_opacity_logit: 2.0 * (x - 2.0),
                    ..Default::default()
                },
            );
            opt.step_dense(&mut model, &buf);
        }
        assert!(
            (model.opacity_logits()[0] - 2.0).abs() < 0.05,
            "converged to {}",
            model.opacity_logits()[0]
        );
    }

    #[test]
    fn apply_resize_compacts_pruned_rows_and_zeroes_new_ones() {
        // Age rows 0..4 by distinct step counts so compaction is observable.
        let mut model = model_of(4);
        let mut opt = GaussianAdam::new(4, AdamConfig::default());
        let grads = varied_grads(4);
        opt.step_dense(&mut model, &grads);
        opt.step_subset(&mut model, &grads, &[2, 3]);
        opt.step_subset(&mut model, &grads, &[3]);
        assert_eq!(
            (0..4).map(|i| opt.step_count(i)).collect::<Vec<_>>(),
            vec![1, 1, 2, 3]
        );

        // Prune rows 0 and 2, then grow to 5: survivors {1, 3} slide to
        // rows {0, 1} with their step counts intact; rows 2..5 are fresh.
        opt.apply_resize(&[0, 2], 5);
        assert_eq!(opt.len(), 5);
        assert_eq!(opt.step_count(0), 1, "old row 1 kept its state");
        assert_eq!(opt.step_count(1), 3, "old row 3 kept its state");
        for i in 2..5 {
            assert_eq!(opt.step_count(i), 0, "appended row {i} starts fresh");
        }
    }

    #[test]
    fn apply_resize_survivors_step_like_never_resized() {
        // A survivor's moments must be byte-identical to an optimiser that
        // never went through a resize: further steps on both must agree.
        let grads = varied_grads(3);
        let mut model_resized = model_of(3);
        let mut opt_resized = GaussianAdam::new(3, AdamConfig::default());
        opt_resized.step_dense(&mut model_resized, &grads);

        // A parallel world that only ever held row 1, fed the same gradient.
        let mut model_plain: GaussianModel = std::iter::once(model_of(3).get(1)).collect();
        let mut opt_plain = GaussianAdam::new(1, AdamConfig::default());
        let mut buf = GradientBuffer::new(1);
        buf.add(0, &grads.row(1));
        opt_plain.step_dense(&mut model_plain, &buf);

        // Prune rows 0 and 2; the survivor slides to row 0.
        opt_resized.apply_resize(&[0, 2], 1);
        let mut model_after: GaussianModel = std::iter::once(model_resized.get(1)).collect();
        assert_eq!(model_after, model_plain);
        opt_resized.step_dense(&mut model_after, &buf);
        opt_plain.step_dense(&mut model_plain, &buf);
        assert_eq!(model_after, model_plain, "survivor state must not drift");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn apply_resize_rejects_out_of_range_prunes() {
        let mut opt = GaussianAdam::new(2, AdamConfig::default());
        opt.apply_resize(&[7], 2);
    }

    #[test]
    fn resize_preserves_existing_state() {
        let mut model = model_of(2);
        let mut opt = GaussianAdam::new(2, AdamConfig::default());
        let mut buf = GradientBuffer::new(2);
        buf.add(0, &grad_with_position(Vec3::X));
        opt.step_dense(&mut model, &buf);
        assert_eq!(opt.step_count(0), 1);
        opt.resize(5);
        assert_eq!(opt.len(), 5);
        assert_eq!(opt.step_count(0), 1, "existing state preserved");
        assert_eq!(opt.step_count(4), 0);
    }

    #[test]
    fn state_bytes_accounting() {
        let opt = GaussianAdam::new(100, AdamConfig::default());
        // Two moments per parameter: 59 * 2 * 4 bytes per Gaussian.
        assert_eq!(opt.state_bytes(), 100 * 472);
    }

    #[test]
    fn export_rows_round_trips_through_from_rows() {
        let grads = varied_grads(11);
        let mut model = model_of(11);
        let mut opt = GaussianAdam::new(11, AdamConfig::default());
        opt.step_dense(&mut model, &grads);
        opt.step_subset(&mut model, &grads, &[3, 7, 9]);

        let restored = GaussianAdam::from_rows(opt.config().clone(), opt.export_rows());
        assert_eq!(restored.len(), opt.len());
        // Restored state must continue bit-identically.
        let mut model_restored = model.clone();
        let mut opt_restored = restored;
        opt.step_dense(&mut model, &grads);
        opt_restored.step_dense(&mut model_restored, &grads);
        assert_eq!(model, model_restored);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_subset_panics() {
        let mut model = model_of(2);
        let mut opt = GaussianAdam::new(2, AdamConfig::default());
        let buf = GradientBuffer::new(2);
        opt.step_subset(&mut model, &buf, &[5]);
    }
}
