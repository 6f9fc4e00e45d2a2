//! Conformance of the detached step against the in-place step.
//!
//! `GaussianAdam::step_detached` is what the threaded runtime's CPU Adam
//! lane runs; `step_subset` is what the synchronous trainer runs.  The
//! runtime's bit-identity contract needs the two to agree **bit for bit** —
//! parameters, both moments and the step counters — for every group shape
//! the lane meets.  Each test steps a clone through `step_subset` as the
//! reference and compares raw `f32` bits, so a `-0.0`/`+0.0` or NaN
//! discrepancy cannot hide behind `==`.

use gs_core::camera::{Camera, CameraIntrinsics};
use gs_core::gaussian::{Gaussian, GaussianModel};
use gs_core::math::Vec3;
use gs_core::{LANE_WIDTH, PARAMS_PER_GAUSSIAN};
use gs_optim::{threads_for_chunk_rows, AdamConfig, GaussianAdam, GradientBuffer, ParamRow};
use gs_render::{l1_loss, render, render_backward, GaussianGradients, Image, RenderOptions};

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
    let mut buf = GradientBuffer::new(n);
    for i in 0..n {
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

/// Runs the detached step for `indices` (shipping `grads`' rows unless
/// `zero_grads`), writes the returned rows back, and checks model and
/// optimiser against `step_subset` on clones.
fn check_against_in_place(
    model: &GaussianModel,
    opt: &GaussianAdam,
    grads: &GradientBuffer,
    indices: &[u32],
    zero_grads: bool,
    threads: usize,
    label: &str,
) {
    let (mut model_ref, mut opt_ref) = (model.clone(), opt.clone());
    opt_ref.step_subset(&mut model_ref, grads, indices);

    let (mut model_det, mut opt_det) = (model.clone(), opt.clone());
    let mut grad_rows = vec![[0.0f32; PARAMS_PER_GAUSSIAN]; indices.len()];
    grads.read_rows_into(indices, &mut grad_rows);
    let mut out: Vec<ParamRow> = vec![[f32::NAN; PARAMS_PER_GAUSSIAN]; indices.len()];
    opt_det.step_detached(
        &model_det,
        indices,
        (!zero_grads).then_some(&grad_rows[..]),
        &mut out,
        threads,
        true,
    );
    assert_eq!(model_det, *model, "{label}: the shared model is read-only");
    for (&idx, row) in indices.iter().zip(&out) {
        model_det.set_param_row(idx as usize, row);
    }

    for i in 0..model.len() {
        assert_eq!(
            bits(&model_det.param_row(i)),
            bits(&model_ref.param_row(i)),
            "{label}: params of row {i}"
        );
    }
    assert_same_state(&opt_det, &opt_ref, label);
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
fn zero_gradient_group_matches_in_place_step_over_a_zero_buffer() {
    // F_0: the lane gets no gradient rows at all; the in-place path stages
    // the buffer's (+0.0) rows.  Warm moments make the decay observable.
    let mut model = model_of(37);
    let opt = aged(&mut model, &varied_grads(37));
    let untouched: Vec<u32> = (0..37).filter(|i| i % 5 != 0).collect();
    let zeros = GradientBuffer::new(37);
    check_against_in_place(&model, &opt, &zeros, &untouched, true, 1, "F_0");
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
    check_against_in_place(&model, &opt, &grads, first, false, 1, "group 0");
    check_against_in_place(&model, &opt, &grads, second, false, 1, "group 1");
    check_against_in_place(&model, &opt, &grads, touched.indices(), false, 2, "whole");
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
        check_against_in_place(
            &model,
            &opt,
            &grads,
            &indices,
            false,
            1,
            &format!("len {len}"),
        );
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
        check_against_in_place(&model, &opt, &grads, &indices, false, threads, &label);
    }
}

#[test]
fn commit_suppressed_retry_leaves_the_state_untouched() {
    let mut model = model_of(33);
    let grads = varied_grads(33);
    let opt = aged(&mut model, &grads);
    let indices: Vec<u32> = (2..31).collect();
    let mut grad_rows = vec![[0.0f32; PARAMS_PER_GAUSSIAN]; indices.len()];
    grads.read_rows_into(&indices, &mut grad_rows);

    let mut retried = opt.clone();
    let mut attempt: Vec<ParamRow> = vec![[0.0; PARAMS_PER_GAUSSIAN]; indices.len()];
    for threads in [1usize, 2] {
        retried.step_detached(
            &model,
            &indices,
            Some(&grad_rows),
            &mut attempt,
            threads,
            false,
        );
        assert_same_state(&retried, &opt, "after a suppressed attempt");
    }
    // The attempt ran the real math: the committed run returns the same rows.
    let mut committed: Vec<ParamRow> = vec![[0.0; PARAMS_PER_GAUSSIAN]; indices.len()];
    retried.step_detached(&model, &indices, Some(&grad_rows), &mut committed, 1, true);
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
        check_against_in_place(
            &model,
            &opt,
            &grads,
            &indices,
            false,
            threads,
            &format!("threads {threads}"),
        );
        check_against_in_place(
            &model,
            &opt,
            &zeros,
            &indices,
            true,
            threads,
            &format!("F_0, threads {threads}"),
        );
        // With a chunk-row target the lane fans out across fewer threads.
        for chunk_rows in [16usize, 50, 4096] {
            let fan_out = threads_for_chunk_rows(indices.len(), chunk_rows, threads);
            check_against_in_place(
                &model,
                &opt,
                &grads,
                &indices,
                false,
                fan_out,
                &format!("threads {threads}, chunk rows {chunk_rows}"),
            );
        }
    }
}

#[test]
#[should_panic(expected = "strictly increasing")]
fn unsorted_indices_are_rejected() {
    let model = model_of(8);
    let mut opt = GaussianAdam::new(8, AdamConfig::default());
    let mut out = vec![[0.0f32; PARAMS_PER_GAUSSIAN]; 2];
    opt.step_detached(&model, &[4, 2], None, &mut out, 1, true);
}
