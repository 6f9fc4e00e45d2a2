//! Adam optimiser for Gaussian models.
//!
//! 3DGS training keeps two Adam moment estimates per parameter (the reason a
//! Gaussian's training state is 4× its parameter count, §2.2).  CLM runs the
//! Adam update for offloaded Gaussians on a dedicated CPU thread, and — key
//! to the overlapped-CPU-Adam optimisation (§4.2.2) — is able to update any
//! *subset* of Gaussians as soon as their gradients are final.
//!
//! Every update path funnels through **one row kernel**
//! ([`adam_update_row`]): the textbook Kingma & Ba update of one Gaussian,
//! looped over its 59 parameters in the flat
//! [`param_row`](GaussianModel::param_row) layout.  That layout is the
//! optimiser's everywhere — the resident moments (`m`, `v`: one
//! [`ParamRow`] per Gaussian), gradient rows on the CPU Adam lane's wire,
//! work items and checkpoint exports ([`AdamRowState`]) — so
//! a driver hands the kernel the rows it already holds, with no staging.
//! The three drivers:
//!
//! * [`GaussianAdam::step_dense`] / [`GaussianAdam::step_subset`] — the
//!   in-place path the synchronous trainer uses: each index's parameter
//!   row is read from the model, updated against its moment rows in place,
//!   and stored to the same model row;
//! * [`GaussianAdam::pack_subset`] → [`compute_packed`] →
//!   [`GaussianAdam::apply_packed`] — the shippable path: work items are
//!   plain `memcpy`able rows a worker thread can update while the main
//!   thread keeps rendering, merged back with copies;
//! * [`GaussianAdam::step_detached`] — the CPU Adam **lane's** path: a
//!   worker thread that holds the optimiser for a batch reads each
//!   parameter row from a shared `&GaussianModel`, takes the final gradient
//!   rows of the group's Gaussians that **received** gradient, updates
//!   `m`/`v`/`steps` in place and writes the new parameter row to the same
//!   row of a back model, which the runtime swaps in at batch end.  The
//!   group fans out across one scoped parallel region by splitting the
//!   back-model and moment rows at any row boundary.
//!
//! The threaded runtime uses only the first and the last; the packed trio
//! stays as library API for the kernel benchmarks.
//!
//! Each driver computes the bias corrections `(1 − β1^t, 1 − β2^t)` once
//! per run of consecutive rows with the same step count `t` — one run for
//! the whole untouched group `F_0` of a model that has not densified.
//!
//! # Why every driver produces the same bits
//!
//! * Each kernel call performs, per element, the same operations on the
//!   same operands in the same order as the scalar reference: Rust neither
//!   contracts `a * b + c` into a fused multiply-add nor reassociates
//!   floating-point expressions, so vectorising across a row's columns
//!   cannot change a bit, and the update has no cross-column term.
//! * `1 − β^t` is a pure function of `(β, t)`: reusing it for the next row
//!   of the same step count is computing it again.
//! * A row that received no gradient steps with the all-`+0.0` row, which
//!   is exactly what the accumulator reads for it; a retry (`commit = false`)
//!   steps copies of the same moment rows.  No driver pads anything.
//! * A cold row is skipped only where its step is the identity (below), so
//!   skipping it leaves the bits a step would have written.
//!
//! # Cold rows cost nothing
//!
//! A row is **cold** when it received no gradient and every column of its
//! moments `m` and `v` holds the bits `0x0000_0000` (`+0.0`).  The in-place
//! and the detached driver skip a cold row: its step counter still advances
//! (later bias corrections depend on it), and its parameter and moment rows
//! are neither read nor written.  On a model trained from scratch most of
//! `F_0` is cold — every Gaussian no view has reached yet.  The test is on
//! the bits: a `-0.0` moment comes out of a step as `+0.0`, so a value test
//! (`== 0.0`) would skip a row whose bits change.  `m` is tested first, so
//! a row with a live first moment costs one OR over its 59 columns.
//!
//! Stepping a cold row is the identity.  With `g = +0` and `m = v = +0`:
//!
//! * `m′ = β1·(+0) + (1 − β1)·(+0) = +0` and `v′ = +0`, for `β1, β2` in
//!   `[0, 1)`;
//! * `m̂ = +0 / bias1 = +0` and `v̂ = +0`, for `bias1, bias2 > 0`;
//! * the update `lr·(+0) / (√(+0) + ε)` is `+0` for `ε > 0` and a finite
//!   `lr` with its sign bit clear;
//! * `p − (+0)` is `p`, bit for bit, for `±0`, `±inf`, every finite value
//!   and a quiet NaN.  (A signalling NaN, which no arithmetic produces,
//!   would come out of a step quietened.)
//!
//! A driver skips only under those preconditions and steps every row
//! otherwise.  The hyper-parameter half is checked once per call; the bias
//! corrections, which come from the platform's `powf`, once per run of
//! equal step counts, where the driver computes them.  `β` in `[0, 1)`
//! makes every bias correction positive, so whether a configuration skips
//! does not depend on a row's age — the threaded runtime's back model
//! relies on that.  [`AdamConfig::default`] passes.  Each optimiser counts
//! the rows it skipped ([`GaussianAdam::take_rows_skipped`]).

use crate::gradients::GradientBuffer;
use gs_core::gaussian::{GaussianModel, ModelRowsMut, SH_FLOATS};
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
    /// [`param_row`](GaussianModel::param_row) layout — the form the row
    /// kernel consumes (a plain indexed load instead of a branch per
    /// element).
    pub fn lr_table(&self) -> [f32; PARAMS_PER_GAUSSIAN] {
        let mut table = [0.0f32; PARAMS_PER_GAUSSIAN];
        for (k, lr) in table.iter_mut().enumerate() {
            *lr = self.lr_of(k);
        }
        table
    }

    /// The bias corrections `(1 − β1^t, 1 − β2^t)` of step count `step`.
    #[inline]
    fn bias_corrections(&self, step: u64) -> (f32, f32) {
        let t = step as f32;
        (1.0 - self.beta1.powf(t), 1.0 - self.beta2.powf(t))
    }

    /// The hyper-parameter half of the cold-row preconditions (module docs,
    /// "Cold rows cost nothing"): `ε > 0`, `β1` and `β2` in `[0, 1)`, and
    /// every learning rate of `lr` (this config's
    /// [`lr_table`](Self::lr_table)) finite with its sign bit clear.
    fn skips_cold_rows(&self, lr: &ParamRow) -> bool {
        let beta = |b: f32| (0.0..1.0).contains(&b);
        self.eps > 0.0
            && beta(self.beta1)
            && beta(self.beta2)
            && lr.iter().all(|lr| lr.is_finite() && lr.is_sign_positive())
    }
}

/// The per-run half of the cold-row preconditions: both bias corrections
/// positive.
#[inline]
fn bias_is_positive((bias1, bias2): (f32, f32)) -> bool {
    bias1 > 0.0 && bias2 > 0.0
}

/// One flat [`param_row`](GaussianModel::param_row)-layout row: the layout
/// of the moments, of work items and of the gradient rows
/// [`GaussianAdam::step_detached`] is shipped.
pub type ParamRow = [f32; PARAMS_PER_GAUSSIAN];

/// `+0.0` in every slot: fresh moments, and the gradient a row that
/// received none steps with (what the accumulator reads for it).
const ZERO_ROW: ParamRow = [0.0; PARAMS_PER_GAUSSIAN];

/// Whether every column of `row` holds the bits of `+0.0` — one OR over
/// the column bits, so `-0.0` does not pass.
#[inline]
fn is_cold(row: &ParamRow) -> bool {
    row.iter().fold(0, |bits, x| bits | x.to_bits()) == 0
}

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

/// The Adam update of one Gaussian: its parameter row `p`, gradient row `g`
/// and moment rows `m`, `v`, all in
/// [`param_row`](GaussianModel::param_row) layout.  **Every** optimiser path
/// in this crate runs exactly this function, which is what makes the
/// in-place, packed and detached drivers bit-identical.
///
/// The per-element math is the textbook Kingma & Ba update
/// (<https://arxiv.org/abs/1412.6980>) with per-attribute learning rates
/// (`lr`, see [`AdamConfig::lr_table`]).  Gaussians age independently under
/// sparse updates, so the caller passes the row's own bias corrections
/// `bias1 = 1 − β1^t`, `bias2 = 1 − β2^t` for its step count `t`.  The loop
/// walks the row's contiguous columns, which the autovectoriser lowers to
/// SIMD mul/div/sqrt without changing a bit (see the module docs).
#[inline]
pub fn adam_update_row(
    lr: &ParamRow,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
    p: &mut ParamRow,
    g: &ParamRow,
    m: &mut ParamRow,
    v: &mut ParamRow,
) {
    for k in 0..PARAMS_PER_GAUSSIAN {
        let g = g[k];
        m[k] = beta1 * m[k] + (1.0 - beta1) * g;
        v[k] = beta2 * v[k] + (1.0 - beta2) * g * g;
        let m_hat = m[k] / bias1;
        let v_hat = v[k] / bias2;
        p[k] -= lr[k] * m_hat / (v_hat.sqrt() + eps);
    }
}

/// Runs the Adam kernel over every packed work item (single-threaded).
pub fn compute_packed(config: &AdamConfig, items: &mut [AdamWorkItem]) {
    let lr = config.lr_table();
    let (mut run, mut bias) = (0, config.bias_corrections(0));
    for item in items {
        if item.step != run {
            (run, bias) = (item.step, config.bias_corrections(item.step));
        }
        adam_update_row(
            &lr,
            config.beta1,
            config.beta2,
            config.eps,
            bias.0,
            bias.1,
            &mut item.params,
            &item.grad,
            &mut item.m,
            &mut item.v,
        );
    }
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

/// What every shard of one [`GaussianAdam::step_detached`] call shares.
struct DetachedKernel<'a> {
    lr: ParamRow,
    config: &'a AdamConfig,
    /// [`AdamConfig::skips_cold_rows`] of `config`.
    skips_cold_rows: bool,
    model: &'a GaussianModel,
    commit: bool,
}

/// One shard of a detached step: a run of the group's indices together with
/// the rows they address.  `grads` is the sorted sparse list of the shard's
/// rows that received gradient; `back`, `m`, `v` and `steps` hold the rows
/// from `base` up to the next shard's.
struct DetachedShard<'a> {
    base: usize,
    indices: &'a [u32],
    grads: &'a [(u32, ParamRow)],
    back: ModelRowsMut<'a>,
    m: &'a mut [ParamRow],
    v: &'a mut [ParamRow],
    steps: &'a mut [u64],
}

impl<'a> DetachedShard<'a> {
    /// Splits into the indices below `row` and the rest; `row` must lie
    /// inside the shard's rows.
    fn split_at_row(self, row: usize) -> (Self, Self) {
        let cut = self.indices.partition_point(|&i| (i as usize) < row);
        let rows = row - self.base;
        let (indices, indices_tail) = self.indices.split_at(cut);
        let (back, back_tail) = self.back.split_at_row(row);
        let (m, m_tail) = self.m.split_at_mut(rows);
        let (v, v_tail) = self.v.split_at_mut(rows);
        let (steps, steps_tail) = self.steps.split_at_mut(rows);
        let grads_cut = self.grads.partition_point(|&(i, _)| (i as usize) < row);
        let (grads, grads_tail) = self.grads.split_at(grads_cut);
        (
            DetachedShard {
                base: self.base,
                indices,
                grads,
                back,
                m,
                v,
                steps,
            },
            DetachedShard {
                base: row,
                indices: indices_tail,
                grads: grads_tail,
                back: back_tail,
                m: m_tail,
                v: v_tail,
                steps: steps_tail,
            },
        )
    }
}

impl DetachedKernel<'_> {
    /// The in-place driver's loop (`GaussianAdam::step_indices`) with the
    /// model read-only: each parameter row is read from the model, updated
    /// and written to the same row of the back model; the moments and the
    /// step counter are updated in place when committing, and copies of
    /// them otherwise.  A cold row is skipped — its back row is not
    /// written — and counted: the count is returned.
    fn run(&self, shard: DetachedShard<'_>) -> usize {
        let DetachedShard {
            base,
            indices,
            grads,
            mut back,
            m,
            v,
            steps,
        } = shard;
        let config = self.config;
        let mut received = grads.iter().peekable();
        let (mut run, mut bias, mut skip) = (0, config.bias_corrections(0), false);
        let (mut p, mut skipped) = (ZERO_ROW, 0);
        for &idx in indices {
            let r = idx as usize - base;
            let step = steps[r] + 1;
            if step != run {
                (run, bias) = (step, config.bias_corrections(step));
                skip = self.skips_cold_rows && bias_is_positive(bias);
            }
            if self.commit {
                steps[r] = step;
            }
            let g = received.next_if(|&&(row, _)| row == idx);
            if g.is_none() && skip && is_cold(&m[r]) && is_cold(&v[r]) {
                skipped += 1;
                continue;
            }
            self.model.read_param_row_into(idx as usize, &mut p);
            let g = g.map_or(&ZERO_ROW, |(_, row)| row);
            let (mut m_copy, mut v_copy);
            let (m, v) = if self.commit {
                (&mut m[r], &mut v[r])
            } else {
                (m_copy, v_copy) = (m[r], v[r]);
                (&mut m_copy, &mut v_copy)
            };
            adam_update_row(
                &self.lr,
                config.beta1,
                config.beta2,
                config.eps,
                bias.0,
                bias.1,
                &mut p,
                g,
                m,
                v,
            );
            back.set_param_row(idx as usize, &p);
        }
        assert!(
            received.next().is_none(),
            "gradient rows must be a strictly increasing subset of the indices"
        );
        skipped
    }
}

/// Adam optimiser whose state is shaped like a [`GaussianModel`]: one
/// first- and one second-moment [`ParamRow`] and one step counter per
/// Gaussian.
///
/// The state grows lazily: Gaussians created by densification get fresh
/// moments the first time they are updated.
#[derive(Debug, Clone)]
pub struct GaussianAdam {
    config: AdamConfig,
    m: Vec<ParamRow>,
    v: Vec<ParamRow>,
    steps: Vec<u64>,
    /// Cold rows skipped since the last
    /// [`take_rows_skipped`](Self::take_rows_skipped).
    rows_skipped: usize,
}

impl GaussianAdam {
    /// Creates an optimiser for a model that currently has `len` Gaussians.
    pub fn new(len: usize, config: AdamConfig) -> Self {
        GaussianAdam {
            config,
            m: vec![ZERO_ROW; len],
            v: vec![ZERO_ROW; len],
            steps: vec![0; len],
            rows_skipped: 0,
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

    /// Ensures state exists for `len` Gaussians (used after densification).
    pub fn resize(&mut self, len: usize) {
        self.m.resize(len, ZERO_ROW);
        self.v.resize(len, ZERO_ROW);
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
            retain_unflagged(&mut self.m, &remove);
            retain_unflagged(&mut self.v, &remove);
            retain_unflagged(&mut self.steps, &remove);
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
    /// did.  A cold one is skipped: only its step counter advances (module
    /// docs).
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

    /// The in-place driver: for each of `indices`, in order, reads the
    /// parameter row from the model, updates it against the moment rows in
    /// place and writes it back.  Only a row that received gradient has its
    /// accumulator row read; every other row steps with [`ZERO_ROW`], as in
    /// [`step_detached`](Self::step_detached) — or, if it is cold, only
    /// advances its step counter (module docs).
    fn step_indices(&mut self, model: &mut GaussianModel, grads: &GradientBuffer, indices: &[u32]) {
        let lr = self.config.lr_table();
        let skips_cold_rows = self.config.skips_cold_rows(&lr);
        let (mut run, mut bias, mut skip) = (0, self.config.bias_corrections(0), false);
        let (mut p, mut g) = (ZERO_ROW, ZERO_ROW);
        for &idx in indices {
            let i = idx as usize;
            assert!(i < model.len(), "gaussian index {i} out of bounds");
            self.steps[i] += 1;
            let step = self.steps[i];
            if step != run {
                (run, bias) = (step, self.config.bias_corrections(step));
                skip = skips_cold_rows && bias_is_positive(bias);
            }
            let received = grads.is_touched(idx);
            if !received && skip && is_cold(&self.m[i]) && is_cold(&self.v[i]) {
                self.rows_skipped += 1;
                continue;
            }
            model.read_param_row_into(i, &mut p);
            let g = if received {
                grads.read_row_into(idx, &mut g);
                &g
            } else {
                &ZERO_ROW
            };
            adam_update_row(
                &lr,
                self.config.beta1,
                self.config.beta2,
                self.config.eps,
                bias.0,
                bias.1,
                &mut p,
                g,
                &mut self.m[i],
                &mut self.v[i],
            );
            model.set_param_row(i, &p);
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
    /// **in place**, and the new parameter row is written to the same row
    /// of `back`, a second model of the same length; no other row of `back`
    /// is touched.  A cold row (module docs) is skipped like in the
    /// in-place step: its counter advances and its row of `back` is **not**
    /// written, so the caller keeps `back`'s cold rows equal to the
    /// model's.  The caller swaps `back` in once nothing reads the old
    /// values any more; until then repeated calls for *disjoint* groups are
    /// independent.  Same row order, same [`adam_update_row`] call, same
    /// inputs as the in-place step, so `back`'s rows and the optimiser state
    /// are bit-identical to what `step_subset` would have left in a mutable
    /// model.
    ///
    /// `threads > 1` splits the group across one scoped parallel region
    /// (`gs_render::parallel_for_each`): the index list is cut into equal
    /// runs, and the back-model and moment rows behind each run's last
    /// index, so each shard owns its rows (`split_at_mut`, no sharing) —
    /// pure scheduling, every row sees the same kernel.
    ///
    /// `commit = false` runs the same math and writes the same rows to
    /// `back` but leaves the moments, step counters and skip count as they
    /// were: the retry of a failed attempt under fault injection, whose rows
    /// the committed attempt then overwrites with the same values.  Like every
    /// step, the call first grows the state to the model's length with
    /// fresh zero rows.
    ///
    /// # Panics
    /// Panics if `back` and `model` differ in length, `indices` is not
    /// strictly increasing and within the model, or `grads` is not a
    /// strictly increasing subset of `indices`.
    pub fn step_detached(
        &mut self,
        model: &GaussianModel,
        indices: &[u32],
        grads: &[(u32, ParamRow)],
        back: &mut GaussianModel,
        threads: usize,
        commit: bool,
    ) {
        assert_eq!(
            back.len(),
            model.len(),
            "the back model has the model's rows"
        );
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

        let lr = self.config.lr_table();
        let kernel = DetachedKernel {
            skips_cold_rows: self.config.skips_cold_rows(&lr),
            lr,
            config: &self.config,
            model,
            commit,
        };
        let mut rest = DetachedShard {
            base: 0,
            indices,
            grads,
            back: back.rows_mut(),
            m: &mut self.m,
            v: &mut self.v,
            steps: &mut self.steps,
        };
        let parts = threads.clamp(1, indices.len().max(1));
        let skipped = if parts == 1 {
            kernel.run(rest)
        } else {
            let per_shard = indices.len().div_ceil(parts);
            let mut shards = Vec::with_capacity(parts);
            while rest.indices.len() > per_shard {
                // Cut right behind the shard's last index.
                let row = rest.indices[per_shard - 1] as usize + 1;
                let (head, tail) = rest.split_at_row(row);
                shards.push(head);
                rest = tail;
            }
            shards.push(rest);
            let mut skipped = vec![0; shards.len()];
            let jobs: Vec<_> = shards.into_iter().zip(&mut skipped).collect();
            parallel_for_each(parts, jobs, |(shard, skipped)| *skipped = kernel.run(shard));
            skipped.iter().sum()
        };
        if commit {
            self.rows_skipped += skipped;
        }
    }

    /// The number of cold rows (module docs) the in-place steps and the
    /// committed detached steps skipped since the last call; the count
    /// restarts at zero.  `Trainer::finish_batch` drains it into the batch
    /// report.
    pub fn take_rows_skipped(&mut self) -> usize {
        std::mem::take(&mut self.rows_skipped)
    }

    /// Packs the Adam work of `indices` into self-contained
    /// [`AdamWorkItem`]s without touching the model or the optimiser state —
    /// each field is copied **directly** into the item (model row, gradient
    /// row, moment rows).  Gaussians beyond the current state length get
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
                    params: ZERO_ROW,
                    grad: ZERO_ROW,
                    m: ZERO_ROW,
                    v: ZERO_ROW,
                };
                model.read_param_row_into(i, &mut item.params);
                grads.read_row_into(idx, &mut item.grad);
                if i < self.steps.len() {
                    item.step = self.steps[i] + 1;
                    item.m = self.m[i];
                    item.v = self.v[i];
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
            self.m[i] = item.m;
            self.v[i] = item.v;
            self.steps[i] = item.step;
        }
    }

    /// Number of Adam steps Gaussian `index` has received so far.
    pub fn step_count(&self, index: u32) -> u64 {
        self.steps.get(index as usize).copied().unwrap_or(0)
    }

    /// Exports every moment row for checkpointing (pure copies).
    pub fn export_rows(&self) -> Vec<AdamRowState> {
        (self.m.iter().zip(&self.v).zip(&self.steps))
            .map(|((&m, &v), &step)| AdamRowState { m, v, step })
            .collect()
    }

    /// Rebuilds an optimiser from exported rows; the inverse of
    /// [`export_rows`](Self::export_rows).
    pub fn from_rows(config: AdamConfig, rows: Vec<AdamRowState>) -> Self {
        GaussianAdam {
            config,
            m: rows.iter().map(|r| r.m).collect(),
            v: rows.iter().map(|r| r.v).collect(),
            steps: rows.iter().map(|r| r.step).collect(),
            rows_skipped: 0,
        }
    }
}

/// Drops the elements of `rows` whose `remove` flag is set, keeping the
/// order of the rest.
fn retain_unflagged<T>(rows: &mut Vec<T>, remove: &[bool]) {
    let mut flags = remove.iter();
    rows.retain(|_| !*flags.next().unwrap());
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
        // copies every listed row's (+0.0) gradient.
        let n = 19;
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
