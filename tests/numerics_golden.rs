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
use clm_repro::clm_runtime::ExecutionBackend;
use clm_repro::gs_core::GaussianModel;
use clm_repro::gs_optim::AdamRowState;
use clm_repro::gs_render::Image;
use clm_repro::gs_scene::{
    generate_dataset, init_from_point_cloud, Dataset, DatasetConfig, DensifyConfig, InitConfig,
    SceneKind, SceneSpec,
};

/// FNV-1a (64-bit) over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes
        .into_iter()
        .fold(OFFSET, |hash, b| (hash ^ b as u64).wrapping_mul(PRIME))
}

/// FNV-1a over the model length and the bit pattern of every learnable
/// parameter, row by row in the canonical 59-float layout.
fn model_checksum(model: &GaussianModel) -> u64 {
    let params = (0..model.len())
        .flat_map(|i| model.param_row(i))
        .flat_map(|v| v.to_bits().to_le_bytes());
    fnv1a((model.len() as u64).to_le_bytes().into_iter().chain(params))
}

/// FNV-1a over the optimiser's row count and every exported row: the first
/// moments, the second moments, then the step counter.
fn optimizer_checksum(rows: &[AdamRowState]) -> u64 {
    let state = rows.iter().flat_map(|row| {
        row.m
            .iter()
            .chain(&row.v)
            .flat_map(|v| v.to_bits().to_le_bytes())
            .chain(row.step.to_le_bytes())
    });
    fnv1a((rows.len() as u64).to_le_bytes().into_iter().chain(state))
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
    let reports = trainer.execute_epoch(&dataset, &targets);
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

/// Two batches of CLM training on a small street drive (many small Gaussians
/// in front of few pixels, like the `offload_bound` benchmark workload):
/// every pixel's compositing walk ends long before the depth-sorted
/// candidates do.  Each batch's plan is checked for exactly that before the
/// batch trains, so this golden keeps pinning the walk's early exit, which
/// the Bicycle scene above may never reach.
#[test]
fn street_drive_walks_end_early_and_match_the_parent_commit_bit_for_bit() {
    let (dataset, targets, mut trainer) = street_drive(8);
    for (cameras, targets) in dataset.cameras.chunks(4).zip(targets.chunks(4)) {
        let plan = trainer.plan_batch(cameras);
        for (coverage, frustum) in plan.coverage.iter().zip(&plan.ordered_sets) {
            assert_eq!(coverage.open_pixels(), 0, "a walk ran out of candidates");
            assert!(coverage.reached().len() < frustum.len());
        }
        trainer.train_batch(cameras, targets);
    }
    assert_eq!(
        model_checksum(trainer.model()),
        STREET_GOLDEN_CHECKSUM,
        "the street-drive trajectory moved (got {:#018x})",
        model_checksum(trainer.model()),
    );
}

/// Captured at commit 72189b4, the parent of the depth-ordered slab coverage.
const STREET_GOLDEN_CHECKSUM: u64 = 0xfb5d_7333_176a_9e8e;

/// The street-drive scene of `num_views` views, its targets and a CLM
/// trainer over it (TSP order, Gaussian caching, overlapped CPU Adam).
fn street_drive(num_views: usize) -> (Dataset, Vec<Image>, Trainer) {
    let dataset = generate_dataset(
        &SceneSpec::of(SceneKind::Ithaca),
        &DatasetConfig {
            num_gaussians: 12_000,
            num_views,
            width: 32,
            height: 24,
            seed: 11,
        },
    );
    let targets = ground_truth_images(&dataset);
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: 12_000,
            initial_sigma: 2.0,
            initial_opacity: 0.4,
            seed: 12,
            ..Default::default()
        },
    );
    let trainer = Trainer::new(
        init,
        TrainConfig {
            system: SystemKind::Clm,
            ordering: OrderingStrategy::Tsp,
            batch_size: 4,
            gaussian_caching: true,
            overlapped_adam: true,
            seed: 11,
            ..Default::default()
        },
    );
    (dataset, targets, trainer)
}

/// Three CLM batches on the street drive pin the optimiser's state, not
/// only the parameters it produced: every moment bit and every step counter
/// (rows of the untouched group `F_0` step with zero gradient, so their
/// moments and counters move even where the parameters barely do).
#[test]
fn optimizer_state_after_three_street_batches_matches_the_parent_commit() {
    let (dataset, targets, mut trainer) = street_drive(12);
    let reports = trainer.execute_epoch(&dataset, &targets);
    assert_eq!(reports.len(), 3, "12 views in batches of 4");
    let rows = trainer.optimizer().export_rows();
    assert_eq!(rows.len(), trainer.model().len());
    assert_eq!(
        optimizer_checksum(&rows),
        OPTIMIZER_GOLDEN_CHECKSUM,
        "the optimiser state moved (got {:#018x})",
        optimizer_checksum(&rows),
    );
}

/// Captured at commit 204ac97, the parent of the row-major Adam kernel.
const OPTIMIZER_GOLDEN_CHECKSUM: u64 = 0x8587_6dba_8684_f352;
