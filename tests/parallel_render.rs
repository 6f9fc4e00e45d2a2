//! Integration tests of the tile-parallel compute lane: the banded render
//! forward/backward must be **bit-identical** to the serial path for every
//! thread count — rendered image, loss and per-Gaussian gradients — across
//! band heights and dataset seeds, and the parallelism must compose with
//! the trainers and execution backends without perturbing a single bit.

use clm_repro::clm_core::{ground_truth_images, SystemKind, TrainConfig, Trainer};
use clm_repro::clm_runtime::{ExecutionBackend, ExecutionReport, ThreadedBackend, ThreadedConfig};
use clm_repro::gs_render::{l1_loss, render, render_backward, RenderOptions};
use clm_repro::gs_scene::{
    generate_dataset, init_from_point_cloud, DatasetConfig, InitConfig, SceneKind, SceneSpec,
};

/// Thread counts every configuration is checked against (1 is the
/// reference; the others must reproduce it exactly).
const THREADS: [usize; 3] = [1, 2, 4];

/// Two distinct band geometries: sub-tile bands and whole-tile-row bands.
const BAND_HEIGHTS: [u32; 2] = [8, 16];

const SEEDS: [u64; 3] = [5, 19, 73];

#[test]
fn render_forward_backward_bit_identical_across_thread_counts() {
    for seed in SEEDS {
        let dataset = generate_dataset(
            &SceneSpec::of(SceneKind::Rubble),
            &DatasetConfig {
                num_gaussians: 300,
                num_views: 2,
                width: 64,
                height: 48,
                seed,
            },
        );
        let model = &dataset.ground_truth;
        let cam = &dataset.cameras[0];
        // A structured target (the scene from the *other* camera) so the
        // loss gradient is dense and sign-varied.
        let target = render(model, &dataset.cameras[1], &RenderOptions::default()).image;

        for band_height in BAND_HEIGHTS {
            let opts = |threads: usize| RenderOptions {
                compute_threads: threads,
                band_height,
                ..RenderOptions::default()
            };
            let reference = render(model, cam, &opts(1));
            let ref_loss = l1_loss(&reference.image, &target);
            let ref_grads = render_backward(model, cam, &reference.aux, &ref_loss.d_image);
            assert!(
                !ref_grads.is_empty(),
                "seed {seed}: the scene must produce gradients"
            );

            for threads in THREADS {
                let out = render(model, cam, &opts(threads));
                assert_eq!(
                    out.image, reference.image,
                    "seed {seed}, band {band_height}, threads {threads}: image"
                );
                let loss = l1_loss(&out.image, &target);
                assert_eq!(
                    loss.value.to_bits(),
                    ref_loss.value.to_bits(),
                    "seed {seed}, band {band_height}, threads {threads}: loss"
                );
                let grads = render_backward(model, cam, &out.aux, &loss.d_image);
                assert_eq!(
                    grads, ref_grads,
                    "seed {seed}, band {band_height}, threads {threads}: gradients"
                );
            }
        }
    }
}

#[test]
fn band_geometry_is_thread_count_independent_by_construction() {
    // A non-dividing band height (the image height is not a multiple) with
    // more threads than bands: the ragged tail band and idle workers must
    // change nothing.
    let dataset = generate_dataset(
        &SceneSpec::of(SceneKind::Bicycle),
        &DatasetConfig {
            num_gaussians: 200,
            num_views: 1,
            width: 40,
            height: 30,
            seed: 7,
        },
    );
    let model = &dataset.ground_truth;
    let cam = &dataset.cameras[0];
    let opts = |threads: usize| RenderOptions {
        compute_threads: threads,
        band_height: 13,
        ..RenderOptions::default()
    };
    let reference = render(model, cam, &opts(1));
    let d_image = vec![[0.3f32, -1.1, 0.7]; reference.image.pixel_count()];
    let ref_grads = render_backward(model, cam, &reference.aux, &d_image);
    for threads in [2usize, 8, 32] {
        let out = render(model, cam, &opts(threads));
        assert_eq!(out.image, reference.image, "threads {threads}");
        let grads = render_backward(model, cam, &out.aux, &d_image);
        assert_eq!(grads, ref_grads, "threads {threads}");
    }
}

#[test]
fn training_trajectories_bit_identical_across_compute_threads() {
    // End-to-end across clm-core and the gs-* crates: the full training
    // loop (losses, PSNR, final parameters) must not move by one bit when
    // the compute lane fans out — banded, on its own or inside the threaded
    // backend.
    for seed in SEEDS {
        let dataset = generate_dataset(
            &SceneSpec::of(SceneKind::Rubble),
            &DatasetConfig {
                num_gaussians: 300,
                num_views: 8,
                width: 40,
                height: 30,
                seed,
            },
        );
        let targets = ground_truth_images(&dataset);
        let init = init_from_point_cloud(
            &dataset.ground_truth,
            &InitConfig {
                num_gaussians: 120,
                seed: seed + 1,
                ..Default::default()
            },
        );
        let train = |compute_threads: usize| TrainConfig {
            system: SystemKind::Clm,
            batch_size: 4,
            seed,
            compute_threads,
            ..Default::default()
        };

        let mut reference = Trainer::new(init.clone(), train(1));
        let batches = |r: Vec<ExecutionReport>| r.into_iter().map(|r| r.batch).collect::<Vec<_>>();
        let ref_reports = batches(reference.execute_epoch(&dataset, &targets));
        let ref_psnr = reference.evaluate_psnr(&dataset.cameras, &targets);

        for threads in THREADS {
            let mut banded = Trainer::new(init.clone(), train(threads));
            assert_eq!(
                batches(banded.execute_epoch(&dataset, &targets)),
                ref_reports,
                "seed {seed}, threads {threads}: banded reports"
            );
            assert_eq!(
                banded.model(),
                reference.model(),
                "seed {seed}, threads {threads}: banded model"
            );
            assert_eq!(
                banded.evaluate_psnr(&dataset.cameras, &targets).to_bits(),
                ref_psnr.to_bits(),
                "seed {seed}, threads {threads}: banded PSNR"
            );

            let mut threaded = ThreadedBackend::new(
                init.clone(),
                train(threads),
                ThreadedConfig {
                    prefetch_window: 2,
                    ..Default::default()
                },
            );
            let thr_losses: Vec<f32> = threaded
                .execute_epoch(&dataset, &targets)
                .into_iter()
                .map(|r| r.batch.loss)
                .collect();
            let ref_losses: Vec<f32> = ref_reports.iter().map(|r| r.loss).collect();
            assert_eq!(
                thr_losses, ref_losses,
                "seed {seed}, threads {threads}: threaded losses"
            );
            assert_eq!(
                threaded.trainer().model(),
                reference.model(),
                "seed {seed}, threads {threads}: threaded model"
            );
        }
    }
}
