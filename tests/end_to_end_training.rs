//! End-to-end integration tests: dataset generation → point-cloud
//! initialisation → CLM training → evaluation, spanning every crate in the
//! workspace.

use clm_repro::clm_core::{
    ground_truth_images, OrderingStrategy, SystemKind, TrainConfig, Trainer,
};
use clm_repro::clm_runtime::ExecutionBackend;
use clm_repro::gs_render::psnr;
use clm_repro::gs_scene::{
    densify_and_prune, generate_dataset, init_from_point_cloud, DatasetConfig, DensifyConfig,
    InitConfig, SceneKind, SceneSpec,
};

fn small_dataset(kind: SceneKind) -> clm_repro::gs_scene::Dataset {
    generate_dataset(
        &SceneSpec::of(kind),
        &DatasetConfig {
            num_gaussians: 400,
            num_views: 16,
            width: 40,
            height: 30,
            seed: 21,
        },
    )
}

#[test]
fn clm_training_improves_reconstruction_quality() {
    let dataset = small_dataset(SceneKind::Bicycle);
    let targets = ground_truth_images(&dataset);
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: 160,
            ..Default::default()
        },
    );
    let mut trainer = Trainer::new(
        init,
        TrainConfig {
            system: SystemKind::Clm,
            ordering: OrderingStrategy::Tsp,
            batch_size: 4,
            ..Default::default()
        },
    );
    let before = trainer.evaluate_psnr(&dataset.cameras, &targets);
    for _ in 0..6 {
        trainer.execute_epoch(&dataset, &targets);
    }
    let after = trainer.evaluate_psnr(&dataset.cameras, &targets);
    assert!(
        after > before + 0.5,
        "expected at least +0.5 dB PSNR from training, got {before:.2} -> {after:.2}"
    );
}

#[test]
fn all_four_systems_follow_the_same_training_trajectory() {
    // The offloading strategy must never change the numerics; only the data
    // movement.  Train one batch per system in the same order and compare
    // the resulting renderings.
    let dataset = small_dataset(SceneKind::Rubble);
    let targets = ground_truth_images(&dataset);
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: 120,
            ..Default::default()
        },
    );

    let mut rendered = Vec::new();
    for system in [
        SystemKind::EnhancedBaseline,
        SystemKind::NaiveOffload,
        SystemKind::Clm,
    ] {
        let mut trainer = Trainer::new(
            init.clone(),
            TrainConfig {
                system,
                ordering: OrderingStrategy::Camera,
                batch_size: 1, // identical micro-batch order for all systems
                ..Default::default()
            },
        );
        for i in 0..6 {
            trainer.train_batch(&dataset.cameras[i..i + 1], &targets[i..i + 1]);
        }
        let out = clm_repro::gs_render::render(
            trainer.model(),
            &dataset.cameras[0],
            &clm_repro::gs_render::RenderOptions::default(),
        );
        rendered.push(out.image);
    }
    for other in &rendered[1..] {
        let fidelity = psnr(other, &rendered[0]);
        assert!(
            fidelity > 55.0,
            "systems diverged: PSNR between trained models only {fidelity:.1} dB"
        );
    }
}

#[test]
fn densification_grows_the_model_and_training_continues() {
    let dataset = small_dataset(SceneKind::Alameda);
    let targets = ground_truth_images(&dataset);
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: 80,
            ..Default::default()
        },
    );
    let mut trainer = Trainer::new(
        init,
        TrainConfig {
            system: SystemKind::Clm,
            batch_size: 4,
            ..Default::default()
        },
    );
    trainer.execute_epoch(&dataset, &targets);

    // Densify the trained model using a uniform pseudo-gradient signal,
    // then keep training on the larger model via a fresh trainer.
    let mut model = trainer.model().clone();
    let before = model.len();
    let norms = vec![1.0f32; model.len()];
    let report = densify_and_prune(
        &mut model,
        &norms,
        &DensifyConfig {
            grad_threshold: 0.5,
            max_gaussians: before + 40,
            ..Default::default()
        },
    );
    assert!(report.cloned + report.split > 0);
    assert!(model.len() > before);

    let mut grown = Trainer::new(
        model,
        TrainConfig {
            system: SystemKind::Clm,
            batch_size: 4,
            ..Default::default()
        },
    );
    let reports = grown.execute_epoch(&dataset, &targets);
    assert!(reports.iter().all(|r| r.batch.loss.is_finite()));
}

#[test]
fn every_scene_kind_supports_the_full_pipeline() {
    for kind in SceneKind::ALL {
        let dataset = generate_dataset(
            &SceneSpec::of(kind),
            &DatasetConfig {
                num_gaussians: 250,
                num_views: 8,
                width: 32,
                height: 24,
                seed: 4,
            },
        );
        let targets = ground_truth_images(&dataset);
        let init = init_from_point_cloud(
            &dataset.ground_truth,
            &InitConfig {
                num_gaussians: 60,
                ..Default::default()
            },
        );
        let mut trainer = Trainer::new(
            init,
            TrainConfig {
                system: SystemKind::Clm,
                batch_size: 4,
                ..Default::default()
            },
        );
        let reports = trainer.execute_epoch(&dataset, &targets);
        assert!(!reports.is_empty(), "{kind}: no batches trained");
        assert!(
            reports
                .iter()
                .all(|r| r.batch.loss.is_finite() && r.batch.touched > 0),
            "{kind}: degenerate training batch"
        );
    }
}
