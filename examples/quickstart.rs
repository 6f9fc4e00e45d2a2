//! Quickstart: train a small synthetic scene with CLM's offloading trainer
//! and watch loss, PSNR and PCIe traffic.
//!
//! Run with `cargo run --release --example quickstart`.

use clm_repro::clm_core::{ground_truth_images, SystemKind, TrainConfig, Trainer};
use clm_repro::clm_runtime::ExecutionBackend;
use clm_repro::gs_scene::{
    generate_dataset, init_from_point_cloud, DatasetConfig, InitConfig, SceneKind, SceneSpec,
};

fn main() {
    // 1. Generate a small Bicycle-like synthetic dataset (the stand-in for a
    //    captured posed-image dataset) and render its ground-truth images.
    let spec = SceneSpec::of(SceneKind::Bicycle);
    let dataset = generate_dataset(
        &spec,
        &DatasetConfig {
            num_gaussians: 600,
            num_views: 24,
            width: 48,
            height: 36,
            seed: 1,
        },
    );
    let targets = ground_truth_images(&dataset);
    println!(
        "dataset: {} ground-truth Gaussians, {} views at {}x{}",
        dataset.ground_truth.len(),
        dataset.num_views(),
        dataset.config.width,
        dataset.config.height
    );

    // 2. Initialise a training model from the synthetic point cloud.
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: 200,
            ..Default::default()
        },
    );

    // 3. Train with the full CLM strategy: attribute-wise offload, TSP
    //    micro-batch ordering, Gaussian caching and overlapped CPU Adam.
    let mut trainer = Trainer::new(
        init,
        TrainConfig {
            system: SystemKind::Clm,
            batch_size: 8,
            ..Default::default()
        },
    );

    let initial_psnr = trainer.evaluate_psnr(&dataset.cameras, &targets);
    println!("initial PSNR: {initial_psnr:.2} dB");

    for epoch in 0..8 {
        let reports = trainer.execute_epoch(&dataset, &targets);
        let loss: f32 = reports.iter().map(|r| r.batch.loss).sum::<f32>() / reports.len() as f32;
        let loaded: u64 = reports.iter().map(|r| r.batch.bytes_loaded).sum();
        println!(
            "epoch {epoch}: mean L1 loss {loss:.4}, parameters fetched over PCIe {:.2} MB",
            loaded as f64 / 1e6
        );
    }

    let final_psnr = trainer.evaluate_psnr(&dataset.cameras, &targets);
    println!(
        "final PSNR: {final_psnr:.2} dB (improved by {:.2} dB)",
        final_psnr - initial_psnr
    );
    println!(
        "GPU-resident selection-critical bytes: {} | pinned host bytes: {}",
        trainer.offloaded().gpu_resident_bytes(),
        trainer.offloaded().pinned_bytes()
    );
}
