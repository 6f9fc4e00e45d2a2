//! Cross-commit numerics golden.
//!
//! Every other bit-identity suite in this repository compares two paths of
//! the *same* commit (sync vs. pipelined vs. threaded, 1 vs. N threads), so a
//! change that moves all of them together — a reassociated sum in the
//! projection, a "faster" cull radius — passes them all.  This test pins the
//! trained parameters of a small fixed scene to a constant captured at the
//! parent commit of the first exact-performance PR, so a performance change
//! may call itself *exact* only while this file is unedited.
//!
//! If the constant has to move, the change is a numerics change: say so in
//! CHANGES.md and re-capture it in a commit of its own.

use clm_repro::clm_core::{
    ground_truth_images, DensifySchedule, OrderingStrategy, SystemKind, TrainConfig, Trainer,
};
use clm_repro::gs_core::GaussianModel;
use clm_repro::gs_scene::{
    generate_dataset, init_from_point_cloud, DatasetConfig, DensifyConfig, InitConfig, SceneKind,
    SceneSpec,
};

/// FNV-1a (64-bit) over the model length and the bit pattern of every
/// learnable parameter, row by row in the canonical 59-float layout.
fn model_checksum(model: &GaussianModel) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    };
    eat(&(model.len() as u64).to_le_bytes());
    for i in 0..model.len() {
        for v in model.param_row(i) {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    hash
}

/// Three batches of CLM training (TSP order, Gaussian caching, overlapped
/// CPU Adam) with a densification boundary before batches 1 and 2.
fn train_three_batches() -> Trainer {
    let dataset = generate_dataset(
        &SceneSpec::of(SceneKind::Bicycle),
        &DatasetConfig {
            num_gaussians: 400,
            num_views: 12,
            width: 40,
            height: 30,
            seed: 5,
        },
    );
    let targets = ground_truth_images(&dataset);
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: 180,
            initial_opacity: 0.3,
            seed: 6,
            ..Default::default()
        },
    );
    let mut trainer = Trainer::new(
        init,
        TrainConfig {
            system: SystemKind::Clm,
            ordering: OrderingStrategy::Tsp,
            batch_size: 4,
            gaussian_caching: true,
            overlapped_adam: true,
            seed: 5,
            densify: Some(DensifySchedule {
                every_batches: 1,
                config: DensifyConfig {
                    grad_threshold: 1.0e-4,
                    prune_opacity: 0.305,
                    max_gaussians: 320,
                    seed: 7,
                    ..Default::default()
                },
            }),
            ..Default::default()
        },
    );
    let reports = trainer.train_epoch(&dataset, &targets);
    assert_eq!(reports.len(), 3, "12 views in batches of 4");
    trainer
}

#[test]
fn trained_parameters_match_the_parent_commit_bit_for_bit() {
    let trainer = train_three_batches();
    // The scenario must keep exercising what it pins: both boundaries
    // resize, and the model ends at a different size than it started.
    assert_eq!(trainer.resize_events(), 2, "both boundaries must densify");
    assert_eq!(trainer.model().len(), GOLDEN_LEN);
    assert_eq!(
        model_checksum(trainer.model()),
        GOLDEN_CHECKSUM,
        "the training trajectory moved: some floating-point operation or its \
         order changed (got {:#018x})",
        model_checksum(trainer.model()),
    );
}

/// Captured at commit 5754af5 (the parent of the exact hot-path pass).
const GOLDEN_LEN: usize = 320;
const GOLDEN_CHECKSUM: u64 = 0xd78a_8349_f70e_b2d6;
