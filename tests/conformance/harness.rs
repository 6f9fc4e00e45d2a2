//! Shared cross-backend conformance harness for densifying training runs.
//!
//! Every way of executing a batch in this workspace — the synchronous
//! `clm_core::Trainer`, the simulated `PipelinedEngine` at any device count
//! and the `ThreadedBackend` — claims the same contract: scheduling changes *when and where* work runs, never *what* is
//! computed.  Mid-epoch densification is the hardest case of that contract,
//! because the model (whose SH column is the pinned host store), the
//! optimiser state and the pinned staging pool all resize while training is
//! under way.  This module
//! is the one shared definition of the test: a seeded densifying scenario
//! (at least two resize boundaries; net growth and net prune both
//! exercised), a [`Trajectory`] capture, and the bit-identity assertions.
//!
//! It is included via `#[path]` from `tests/conformance/main.rs` (the
//! cross-backend suite CI runs as `cargo test --test conformance`) **and**
//! from each backend's own integration test, so a new backend cannot land
//! without replaying the same lifecycle.

#![allow(dead_code)]

use clm_repro::clm_core::{
    ground_truth_images, BatchReport, DensifyConfig, DensifyReport, DensifySchedule, SystemKind,
    TrainConfig, Trainer,
};
use clm_repro::clm_runtime::ExecutionBackend;
use clm_repro::gs_core::GaussianModel;
use clm_repro::gs_render::Image;
use clm_repro::gs_scene::{
    generate_dataset, init_from_point_cloud, Dataset, DatasetConfig, InitConfig, SceneKind,
    SceneSpec,
};

/// Canonical seed of the acceptance scenario.
pub const SEED: u64 = 7;

/// Epochs the acceptance run trains (enough for two densify boundaries).
pub const EPOCHS: usize = 2;

/// Device counts the cross-backend suite replays the run at, unless the
/// `CONFORMANCE_DEVICES` environment variable (a comma-separated list, set
/// by CI's shard matrix) narrows it.
pub const DEFAULT_DEVICES: [usize; 3] = [1, 2, 4];

/// Gaussians the trained model starts with.
pub const INIT_GAUSSIANS: usize = 150;

/// Hard cap on the model size (keeps the run bounded if the scenario's
/// growth dynamics ever shift).
pub const MAX_GAUSSIANS: usize = INIT_GAUSSIANS + 40;

/// The device counts to run the simulated engine's conformance legs at.
pub fn conformance_devices() -> Vec<usize> {
    std::env::var("CONFORMANCE_DEVICES")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse::<usize>().ok())
                .filter(|&d| d >= 1)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| DEFAULT_DEVICES.to_vec())
}

/// One seeded densifying workload: dataset, ground truth, initial model and
/// the training configuration (densify cadence included).
pub struct Scenario {
    pub dataset: Dataset,
    pub targets: Vec<Image>,
    pub init: GaussianModel,
    pub train: TrainConfig,
}

impl Scenario {
    /// A fresh synchronous trainer at the scenario's start: the reference
    /// executor, and the trainer every other executor wraps.
    pub fn trainer(&self) -> Trainer {
        Trainer::new(self.init.clone(), self.train.clone())
    }
}

/// The acceptance scenario: a Rubble-like scene whose run densifies at two
/// mid-epoch boundaries.  The first boundary is a **net prune**: the splats
/// no view has touched yet sit at their initial opacity, just under the
/// prune threshold, so the prune phase removes far more rows than the
/// densify phase splits.  The second boundary is **net growth**: every
/// survivor has trained its opacity above the threshold, so nothing prunes
/// while the high-gradient splats keep splitting.
pub fn densifying_scenario() -> Scenario {
    scenario_with_cadence(2)
}

/// The acceptance scenario at an explicit densify cadence (per-backend
/// hooks use cadence 1 so a single epoch still crosses two boundaries).
pub fn scenario_with_cadence(every_batches: usize) -> Scenario {
    let (dataset, targets, init) = rubble_scene(SEED);
    let train = TrainConfig {
        system: SystemKind::Clm,
        batch_size: 4,
        seed: SEED,
        densify: Some(DensifySchedule {
            every_batches,
            config: DensifyConfig {
                grad_threshold: GRAD_THRESHOLD,
                prune_opacity: PRUNE_OPACITY,
                max_gaussians: MAX_GAUSSIANS,
                seed: SEED + 2,
                ..Default::default()
            },
        }),
        ..Default::default()
    };
    Scenario {
        dataset,
        targets,
        init,
        train,
    }
}

/// The Rubble-like scene the suites train: 12 views of 40×30 and an
/// initial model of [`INIT_GAUSSIANS`] splats at opacity 0.3, drawn from
/// `seed`.
pub fn rubble_scene(seed: u64) -> (Dataset, Vec<Image>, GaussianModel) {
    let dataset = generate_dataset(
        &SceneSpec::of(SceneKind::Rubble),
        &DatasetConfig {
            num_gaussians: 400,
            num_views: 12,
            width: 40,
            height: 30,
            seed,
        },
    );
    let targets = ground_truth_images(&dataset);
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: INIT_GAUSSIANS,
            initial_opacity: 0.3,
            seed: seed + 1,
            ..Default::default()
        },
    );
    (dataset, targets, init)
}

/// Densification criterion: accumulated positional-gradient norm above which
/// a Gaussian clones/splits (low enough that every touched splat qualifies,
/// so both boundaries densify).
pub const GRAD_THRESHOLD: f32 = 1.0e-5;

/// Opacity below which a Gaussian is pruned.  Set just **above** the
/// initial opacity (0.3): splats still untouched at a boundary sit exactly
/// at the initial value and prune, while trained splats have pushed their
/// opacity upwards and survive — which makes the first boundary a heavy net
/// prune and the second a net growth, deterministically.
pub const PRUNE_OPACITY: f32 = 0.305;

/// Everything a densifying run commits to, captured batch by batch.  Two
/// executors ran the same trajectory iff their captures are equal —
/// `BatchReport` carries the exact loss, order, traffic and boundary resize,
/// `model_sizes` the resize dynamics, and `final_model` every trained
/// parameter bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    pub reports: Vec<BatchReport>,
    pub model_sizes: Vec<usize>,
    pub final_model: GaussianModel,
}

impl Trajectory {
    /// Number of applied resize boundaries.
    pub fn resize_events(&self) -> usize {
        self.reports.iter().filter(|r| r.resize.is_some()).count()
    }
}

/// The view ranges of one epoch, in trajectory order.
pub fn batch_slices(num_views: usize, batch_size: usize) -> Vec<std::ops::Range<usize>> {
    let batch = batch_size.max(1);
    let mut slices = Vec::new();
    let mut start = 0;
    while start < num_views {
        let end = (start + batch).min(num_views);
        slices.push(start..end);
        start = end;
    }
    slices
}

/// Replays the scenario through an executor, batch by batch (so the model
/// size can be captured at every boundary).  The reference trajectory is
/// this run on [`Scenario::trainer`].
pub fn run_backend(
    backend: &mut dyn ExecutionBackend,
    scenario: &Scenario,
    epochs: usize,
) -> Trajectory {
    let mut trajectory = Trajectory {
        reports: Vec::new(),
        model_sizes: Vec::new(),
        final_model: GaussianModel::new(),
    };
    for _ in 0..epochs {
        for range in batch_slices(scenario.dataset.cameras.len(), scenario.train.batch_size) {
            let report = backend.execute_batch(
                &scenario.dataset.cameras[range.clone()],
                &scenario.targets[range],
            );
            trajectory.reports.push(report.batch);
            trajectory.model_sizes.push(backend.trainer().model().len());
        }
    }
    trajectory.final_model = backend.trainer().model().clone();
    trajectory
}

/// Asserts two trajectories are **bit-identical**: same per-batch losses,
/// orders, traffic and resize boundaries, same model sizes after every
/// batch, same final parameters.
pub fn assert_trajectories_match(reference: &Trajectory, other: &Trajectory, label: &str) {
    assert_eq!(
        reference.reports, other.reports,
        "{label}: per-batch reports diverged"
    );
    assert_eq!(
        reference.model_sizes, other.model_sizes,
        "{label}: model-size trajectory diverged"
    );
    assert_eq!(
        &reference.final_model, &other.final_model,
        "{label}: final model parameters diverged"
    );
}

/// Asserts the scenario actually exercised the densification lifecycle the
/// suite exists for: at least two boundaries, with net growth and net prune
/// both represented.
pub fn assert_densification_exercised(trajectory: &Trajectory) {
    let applied: Vec<&DensifyReport> = trajectory
        .reports
        .iter()
        .filter_map(|r| r.resize.as_ref())
        .collect();
    assert!(
        applied.len() >= 2,
        "need at least two densify boundaries, got {}: {applied:?}",
        applied.len()
    );
    assert!(
        applied.iter().any(|r| r.net_growth() > 0),
        "no boundary produced net growth: {applied:?}"
    );
    assert!(
        applied.iter().any(|r| r.net_growth() < 0),
        "no boundary produced net prune: {applied:?}"
    );
    // Model sizes must reflect the boundaries (a resize before batch i shows
    // up as a size change relative to batch i-1).
    let mut size = trajectory.model_sizes[0];
    for (i, (&after, report)) in trajectory
        .model_sizes
        .iter()
        .zip(&trajectory.reports)
        .enumerate()
        .skip(1)
    {
        if let Some(report) = &report.resize {
            assert_eq!(
                after as isize,
                size as isize + report.net_growth(),
                "batch {i}: size change does not match the boundary report"
            );
        } else {
            assert_eq!(after, size, "batch {i}: size changed without a boundary");
        }
        size = after;
    }
}
