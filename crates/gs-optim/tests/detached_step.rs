//! Conformance of the detached and the in-place step against the
//! dense-staged reference.
//!
//! `GaussianAdam::step_detached` is what the threaded runtime's CPU Adam
//! lane runs; `step_subset` is what the synchronous trainer runs.  Both
//! stage a gradient only for the rows that **received** one — the lane gets
//! a sparse `(index, row)` list, the in-place step asks the buffer — and a
//! zero lane for every other row.  The runtime's bit-identity contract
//! needs the two to agree **bit for bit** — parameters, both moments and
//! the step counters — with each other and with a step that stages every
//! row's accumulator row whether it received gradient or not, for every
//! group shape and receipt mask the lane meets.  That dense-staged
//! reference is the packed trio (`pack_subset` copies each listed row's
//! gradient unconditionally).  Raw `f32` bits are compared, so a
//! `-0.0`/`+0.0` or NaN discrepancy cannot hide behind `==`.

use gs_core::camera::{Camera, CameraIntrinsics};
use gs_core::gaussian::{Gaussian, GaussianModel};
use gs_core::math::Vec3;
use gs_core::{LANE_WIDTH, PARAMS_PER_GAUSSIAN};
use gs_optim::{
    compute_packed, threads_for_chunk_rows, AdamConfig, GaussianAdam, GradientBuffer, ParamRow,
};
use gs_render::{l1_loss, render, render_backward, GaussianGradients, Image, RenderOptions};
use proptest::prelude::*;

/// A small cloud in front of the origin camera, every row distinct.
fn model_of(n: usize) -> GaussianModel {
    (0..n)
        .map(|i| {
            let f = i as f32;
            Gaussian::isotropic(
                Vec3::new(
                    (f * 0.37).sin() * 1.5,
                    (f * 0.53).cos() * 1.5,
                    4.0 + 0.01 * f,
                ),
                0.25 + 0.001 * f,
                [0.2 + 0.005 * f, 0.5, 0.8 - 0.004 * f],
                0.6,
            )
        })
        .collect()
}

/// Synthetic gradients touching every attribute group of every row.
fn varied_grads(n: usize) -> GradientBuffer {
    masked_grads(n, |_| true)
}

/// [`varied_grads`] for the rows `receives` selects; the others never
/// receive gradient.
fn masked_grads(n: usize, receives: impl Fn(usize) -> bool) -> GradientBuffer {
    let mut buf = GradientBuffer::new(n);
    for i in (0..n).filter(|&i| receives(i)) {
        let f = i as f32 + 1.0;
        let mut d_sh = [0.0f32; gs_core::gaussian::SH_FLOATS];
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

/// Real gradients: one rendered view of `model` against a flat target.
fn render_grads(model: &GaussianModel) -> GradientBuffer {
    let camera = Camera::look_at(
        Vec3::ZERO,
        Vec3::Z,
        Vec3::Y,
        CameraIntrinsics::simple(24, 24, 60.0_f32.to_radians()),
    )
    .with_clip(0.1, 100.0);
    let out = render(model, &camera, &RenderOptions::default());
    let loss = l1_loss(&out.image, &Image::filled(24, 24, [0.3, 0.3, 0.3]));
    let mut grads = GradientBuffer::for_model(model);
    grads.accumulate_render(&render_backward(model, &camera, &out.aux, &loss.d_image));
    grads
}

fn bits(row: &[f32; PARAMS_PER_GAUSSIAN]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

/// Asserts two optimisers hold the same state bit for bit.
fn assert_same_state(a: &GaussianAdam, b: &GaussianAdam, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: state length");
    for (i, (ra, rb)) in a.export_rows().iter().zip(b.export_rows()).enumerate() {
        assert_eq!(ra.step, rb.step, "{label}: step of row {i}");
        assert_eq!(bits(&ra.m), bits(&rb.m), "{label}: m of row {i}");
        assert_eq!(bits(&ra.v), bits(&rb.v), "{label}: v of row {i}");
    }
}

/// The sparse list the lane is shipped for `indices`.
fn received_rows(grads: &GradientBuffer, indices: &[u32]) -> Vec<(u32, ParamRow)> {
    let mut rows = Vec::new();
    grads.pack_received_into(indices, &mut rows);
    rows
}

fn assert_same_params(a: &GaussianModel, b: &GaussianModel, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: model length");
    for i in 0..a.len() {
        assert_eq!(
            bits(&a.param_row(i)),
            bits(&b.param_row(i)),
            "{label}: params of row {i}"
        );
    }
}

/// Steps `indices` three ways from clones of the same state — the
/// dense-staged packed reference, the in-place `step_subset` and the
/// detached step (shipping only the received rows, writing the returned
/// rows back) — and checks model and optimiser agree bit for bit.
fn check_against_dense_staged(
    model: &GaussianModel,
    opt: &GaussianAdam,
    grads: &GradientBuffer,
    indices: &[u32],
    threads: usize,
    label: &str,
) {
    let (mut model_ref, mut opt_ref) = (model.clone(), opt.clone());
    let mut items = opt_ref.pack_subset(&model_ref, grads, indices);
    compute_packed(opt_ref.config(), &mut items);
    opt_ref.apply_packed(&mut model_ref, &items);

    let (mut model_sub, mut opt_sub) = (model.clone(), opt.clone());
    opt_sub.step_subset(&mut model_sub, grads, indices);
    assert_same_params(&model_sub, &model_ref, &format!("{label}: in place"));
    assert_same_state(&opt_sub, &opt_ref, &format!("{label}: in place"));

    let (mut model_det, mut opt_det) = (model.clone(), opt.clone());
    let grad_rows = received_rows(grads, indices);
    let mut out: Vec<ParamRow> = vec![[f32::NAN; PARAMS_PER_GAUSSIAN]; indices.len()];
    opt_det.step_detached(&model_det, indices, &grad_rows, &mut out, threads, true);
    assert_eq!(model_det, *model, "{label}: the shared model is read-only");
    for (&idx, row) in indices.iter().zip(&out) {
        model_det.set_param_row(idx as usize, row);
    }
    assert_same_params(&model_det, &model_ref, &format!("{label}: detached"));
    assert_same_state(&opt_det, &opt_ref, &format!("{label}: detached"));
}

/// An optimiser whose rows already carry uneven history.
fn aged(model: &mut GaussianModel, grads: &GradientBuffer) -> GaussianAdam {
    let mut opt = GaussianAdam::new(model.len(), AdamConfig::default());
    opt.step_dense(model, grads);
    let every_third: Vec<u32> = (0..model.len() as u32).step_by(3).collect();
    opt.step_subset(model, grads, &every_third);
    opt
}

#[test]
fn a_group_without_receipt_matches_staging_a_zero_buffer() {
    // F_0: no row received gradient, so the lane gets no rows at all and
    // the in-place step stages none; the reference stages the buffer's
    // (+0.0) rows.  Warm moments make the decay observable.
    let mut model = model_of(37);
    let opt = aged(&mut model, &varied_grads(37));
    let untouched: Vec<u32> = (0..37).filter(|i| i % 5 != 0).collect();
    let zeros = GradientBuffer::new(37);
    assert!(received_rows(&zeros, &untouched).is_empty());
    check_against_dense_staged(&model, &opt, &zeros, &untouched, 1, "F_0");
}

#[test]
fn a_lane_that_held_a_gradient_is_rezeroed_for_the_next_row() {
    // Lane l of group c holds a received row, lane l of group c + 1 a row
    // without receipt: the second must not step with the first's gradient.
    let n = 4 * LANE_WIDTH;
    let mut model = model_of(n);
    let opt = aged(&mut model, &varied_grads(n));
    let grads = masked_grads(n, |i| {
        (i / LANE_WIDTH).is_multiple_of(2) || i.is_multiple_of(3)
    });
    let indices: Vec<u32> = (0..n as u32).collect();
    for threads in [1usize, 2] {
        let label = format!("alternating groups, threads {threads}");
        check_against_dense_staged(&model, &opt, &grads, &indices, threads, &label);
    }
}

#[test]
fn touched_groups_with_render_gradients_match() {
    let mut model = model_of(64);
    let grads = render_grads(&model);
    let touched = grads.touched_set();
    assert!(touched.len() >= 16, "the view must see the cloud");
    let opt = aged(&mut model, &grads);
    // The batch's finalisation groups are disjoint slices of the touched
    // set; step them one after another like the lane does.
    let (first, second) = touched.indices().split_at(touched.len() / 3);
    check_against_dense_staged(&model, &opt, &grads, first, 1, "group 0");
    check_against_dense_staged(&model, &opt, &grads, second, 1, "group 1");
    check_against_dense_staged(&model, &opt, &grads, touched.indices(), 2, "whole");
}

#[test]
fn ragged_group_lengths_match() {
    let mut model = model_of(40);
    let grads = varied_grads(40);
    let opt = aged(&mut model, &grads);
    for len in [
        1usize,
        LANE_WIDTH - 1,
        LANE_WIDTH + 1,
        13,
        2 * LANE_WIDTH + 3,
    ] {
        assert_ne!(len % LANE_WIDTH, 0);
        // Stride 2 so a group's rows straddle chunk boundaries unevenly.
        let indices: Vec<u32> = (0..len as u32).map(|j| 1 + 2 * j).collect();
        check_against_dense_staged(&model, &opt, &grads, &indices, 1, &format!("len {len}"));
    }
}

#[test]
fn rows_beyond_the_state_length_start_from_fresh_moments() {
    // Post-densify: the model grew, the optimiser is grown lazily — also
    // when the group is sharded across the rows the state did not have yet.
    let model = model_of(61);
    let grads = varied_grads(61);
    let opt = GaussianAdam::new(11, AdamConfig::default());
    let indices: Vec<u32> = (3..61).filter(|i| i % 4 != 1).collect();
    for threads in [1usize, 3] {
        let label = format!("grown, threads {threads}");
        check_against_dense_staged(&model, &opt, &grads, &indices, threads, &label);
    }
}

#[test]
fn commit_suppressed_retry_leaves_the_state_untouched() {
    let mut model = model_of(33);
    let grads = varied_grads(33);
    let opt = aged(&mut model, &grads);
    let indices: Vec<u32> = (2..31).collect();
    let grad_rows = received_rows(&grads, &indices);

    let mut retried = opt.clone();
    let mut attempt: Vec<ParamRow> = vec![[0.0; PARAMS_PER_GAUSSIAN]; indices.len()];
    for threads in [1usize, 2] {
        retried.step_detached(&model, &indices, &grad_rows, &mut attempt, threads, false);
        assert_same_state(&retried, &opt, "after a suppressed attempt");
    }
    // The attempt ran the real math: the committed run returns the same rows.
    let mut committed: Vec<ParamRow> = vec![[0.0; PARAMS_PER_GAUSSIAN]; indices.len()];
    retried.step_detached(&model, &indices, &grad_rows, &mut committed, 1, true);
    for (a, c) in attempt.iter().zip(&committed) {
        assert_eq!(bits(a), bits(c));
    }
    // …and the retried optimiser ends where one that never failed does.
    let mut clean = opt.clone();
    clean.step_subset(&mut model.clone(), &grads, &indices);
    assert_same_state(&retried, &clean, "retry then commit");
}

#[test]
fn fan_out_is_pure_scheduling() {
    let mut model = model_of(203);
    let grads = varied_grads(203);
    let opt = aged(&mut model, &grads);
    // Dense runs, gaps and a ragged tail in one group.
    let indices: Vec<u32> = (0..203)
        .filter(|i| i % 7 != 3 && !(64..90).contains(i))
        .collect();
    let zeros = GradientBuffer::new(203);
    for threads in [1usize, 2, 3, 8] {
        let label = format!("threads {threads}");
        check_against_dense_staged(&model, &opt, &grads, &indices, threads, &label);
        let label = format!("F_0, threads {threads}");
        check_against_dense_staged(&model, &opt, &zeros, &indices, threads, &label);
        // With a chunk-row target the lane fans out across fewer threads.
        for chunk_rows in [16usize, 50, 4096] {
            let fan_out = threads_for_chunk_rows(indices.len(), chunk_rows, threads);
            let label = format!("threads {threads}, chunk rows {chunk_rows}");
            check_against_dense_staged(&model, &opt, &grads, &indices, fan_out, &label);
        }
    }
}

#[test]
#[should_panic(expected = "strictly increasing")]
fn unsorted_indices_are_rejected() {
    let model = model_of(8);
    let mut opt = GaussianAdam::new(8, AdamConfig::default());
    let mut out = vec![[0.0f32; PARAMS_PER_GAUSSIAN]; 2];
    opt.step_detached(&model, &[4, 2], &[], &mut out, 1, true);
}

#[test]
#[should_panic(expected = "subset of the indices")]
fn gradient_rows_outside_the_group_are_rejected() {
    let model = model_of(8);
    let mut opt = GaussianAdam::new(8, AdamConfig::default());
    let mut out = vec![[0.0f32; PARAMS_PER_GAUSSIAN]; 2];
    let stray = [(3u32, [0.0f32; PARAMS_PER_GAUSSIAN])];
    opt.step_detached(&model, &[2, 4], &stray, &mut out, 1, true);
}

proptest! {
    #[test]
    fn sparse_steps_equal_the_dense_staged_step_for_any_receipt_mask(
        n in 1usize..90,
        // Receipt: a per-row coin, thinned by a per-lane-group and a
        // per-third coin so whole lane groups and whole shards go empty.
        seed in 0u64..u64::MAX,
        density in 0u32..5,
        group_stride in 1usize..4,
        threads in 1usize..4,
        commit in 0u8..2,
    ) {
        let hash = |x: usize| (x as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let receives = |i: usize| {
            hash(i) % 4 < u64::from(density)
                && hash(1000 + i / LANE_WIDTH) % 3 != 0
                && hash(2000 + 3 * i / n) % 3 != 0
        };
        let mut model = model_of(n);
        let opt = aged(&mut model, &varied_grads(n));
        let grads = masked_grads(n, receives);
        let indices: Vec<u32> = (0..n as u32).step_by(group_stride).collect();
        let label = format!("n {n}, seed {seed}, density {density}, threads {threads}");
        if commit == 1 {
            check_against_dense_staged(&model, &opt, &grads, &indices, threads, &label);
        } else {
            // A suppressed attempt returns the committed rows and leaves
            // the state alone.
            let mut reference = opt.clone();
            let mut stepped = model.clone();
            reference.step_subset(&mut stepped, &grads, &indices);
            let mut attempt = opt.clone();
            let mut out: Vec<ParamRow> = vec![[f32::NAN; PARAMS_PER_GAUSSIAN]; indices.len()];
            let rows = received_rows(&grads, &indices);
            attempt.step_detached(&model, &indices, &rows, &mut out, threads, false);
            assert_same_state(&attempt, &opt, &label);
            for (&idx, row) in indices.iter().zip(&out) {
                prop_assert_eq!(bits(row), bits(&stepped.param_row(idx as usize)), "{}", label);
            }
        }
    }
}
