//! Integration tests of multi-device sharded training: the `PipelinedEngine`
//! at `num_devices > 1` (and the threaded backend's device rounds, and the
//! trainer's own `num_devices` waves) must reproduce the 1-device trainer's trajectory
//! **bit-for-bit** for device counts {1, 2, 4} across seeds — the shard-count
//! invariance CI's `shard-matrix` job gates at the benchmark level — while
//! the visibility-aware partitioner keeps the per-device footprint load
//! balanced and the per-device lane groups actually share the work.

use clm_repro::clm_core::{ground_truth_images, SystemKind, TrainConfig, Trainer};
use clm_repro::clm_runtime::{
    ExecutionBackend, PipelinedEngine, RuntimeConfig, ThreadedBackend, ThreadedConfig,
};
use clm_repro::gs_scene::{
    generate_dataset, init_from_point_cloud, partition_by_footprint, DatasetConfig, InitConfig,
    SceneKind, SceneSpec,
};
use clm_repro::sim_device::{Lane, OpKind};

const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];
const SEEDS: [u64; 3] = [11, 42, 97];

fn setup(
    seed: u64,
) -> (
    clm_repro::gs_scene::Dataset,
    Vec<clm_repro::gs_render::Image>,
    clm_repro::gs_core::GaussianModel,
) {
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
            num_gaussians: 150,
            seed: seed + 1,
            ..Default::default()
        },
    );
    (dataset, targets, init)
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        system: SystemKind::Clm,
        batch_size: 4,
        seed,
        ..Default::default()
    }
}

#[test]
fn sharded_engine_is_bit_identical_across_device_counts_and_seeds() {
    // The acceptance gate: two epochs per configuration; every per-batch
    // loss, the final parameters and the evaluated PSNR must equal the
    // synchronous 1-device trainer's exactly, for 3 seeds × device counts
    // {1, 2, 4}.
    for seed in SEEDS {
        let (dataset, targets, init) = setup(seed);
        let train = train_config(seed);

        let mut sync = Trainer::new(init.clone(), train.clone());
        let mut reference = Vec::new();
        for _ in 0..2 {
            reference.extend(sync.train_epoch(&dataset, &targets));
        }

        for devices in DEVICE_COUNTS {
            let mut sharded = PipelinedEngine::new(
                init.clone(),
                train.clone(),
                RuntimeConfig {
                    num_devices: devices,
                    ..Default::default()
                },
            )
            .partition_over(&dataset.cameras);
            let mut reports = Vec::new();
            for _ in 0..2 {
                reports.extend(sharded.run_epoch(&dataset, &targets));
            }
            assert_eq!(reference.len(), reports.len());
            for (r, s) in reference.iter().zip(&reports) {
                assert_eq!(
                    r, &s.batch,
                    "seed {seed}, {devices} devices: sharded batch must match the \
                     synchronous trainer"
                );
            }
            assert_eq!(
                sharded.trainer().model(),
                sync.model(),
                "seed {seed}, {devices} devices: final parameters must be identical"
            );
            assert_eq!(
                sharded.evaluate_psnr(&dataset.cameras, &targets),
                sync.evaluate_psnr(&dataset.cameras, &targets),
                "seed {seed}, {devices} devices: PSNR trajectory must be identical"
            );
        }
    }
}

#[test]
fn threaded_device_rounds_are_bit_identical_across_device_counts() {
    for seed in [11u64, 42] {
        let (dataset, targets, init) = setup(seed);
        let train = train_config(seed);
        let mut sync = Trainer::new(init.clone(), train.clone());
        let reference = sync.train_epoch(&dataset, &targets);
        for devices in DEVICE_COUNTS {
            let mut threaded = ThreadedBackend::new(
                init.clone(),
                train.clone(),
                ThreadedConfig {
                    num_devices: devices,
                    ..Default::default()
                },
            );
            let reports = threaded.run_epoch(&dataset, &targets);
            for (r, t) in reference.iter().zip(&reports) {
                assert_eq!(r, &t.batch, "seed {seed}, {devices} devices");
            }
            assert_eq!(
                threaded.trainer().model(),
                sync.model(),
                "seed {seed}, {devices} devices"
            );
        }
    }
}

#[test]
fn trainer_num_devices_waves_are_bit_identical() {
    let (dataset, targets, init) = setup(7);
    let mut serial = Trainer::new(init.clone(), train_config(7));
    let reference = serial.train_epoch(&dataset, &targets);
    for devices in [2usize, 4] {
        let mut sharded = Trainer::new(
            init.clone(),
            TrainConfig {
                num_devices: devices,
                ..train_config(7)
            },
        );
        let reports = sharded.train_epoch(&dataset, &targets);
        assert_eq!(reference, reports, "{devices} devices");
        assert_eq!(serial.model(), sharded.model(), "{devices} devices");
    }
}

#[test]
fn partitioner_balances_projected_footprint_load() {
    // The partition the sharded engine runs on must spread the
    // projected-footprint load: max/min device load bounded, no empty
    // devices, every Gaussian owned exactly once.
    let (dataset, _, init) = setup(42);
    for devices in [2usize, 4] {
        let partition = partition_by_footprint(&init, &dataset.cameras, devices);
        assert_eq!(partition.num_devices(), devices);
        assert_eq!(partition.len(), init.len());
        assert_eq!(partition.device_counts().iter().sum::<usize>(), init.len());
        assert!(
            partition.device_counts().iter().all(|&c| c > 0),
            "{devices} devices: no device may be empty: {:?}",
            partition.device_counts()
        );
        let imbalance = partition.load_imbalance();
        assert!(
            imbalance < 1.5,
            "{devices} devices: footprint imbalance {imbalance} (loads {:?})",
            partition.device_footprints()
        );
    }
}

#[test]
fn sharded_schedule_uses_every_device_lane_group() {
    let (dataset, targets, init) = setup(11);
    let devices = 4;
    let mut sharded = PipelinedEngine::new(
        init,
        TrainConfig {
            batch_size: 8,
            ..train_config(11)
        },
        RuntimeConfig {
            num_devices: devices,
            ..Default::default()
        },
    )
    .partition_over(&dataset.cameras);
    let report = sharded.execute_batch(&dataset.cameras[..8], &targets[..8]);
    assert_eq!(report.device_lanes.len(), devices);
    for (dev, lanes) in report.device_lanes.iter().enumerate() {
        assert!(lanes.compute > 0.0, "device {dev} compute lane idle");
        assert!(lanes.comm > 0.0, "device {dev} comm lane idle");
        assert!(lanes.adam > 0.0, "device {dev} adam lane idle");
    }
    // The summed lanes are exactly the per-device breakdown.
    let total: f64 = report.device_lanes.iter().map(|l| l.compute).sum();
    assert!((report.lanes.compute - total).abs() < 1e-12);
    assert!(report.sim_makespan.is_some());
    assert_eq!(report.views, 8);
}

#[test]
fn sharded_allreduce_and_traffic_accounting_hold() {
    let (dataset, targets, init) = setup(42);
    let mut sharded = PipelinedEngine::new(
        init,
        train_config(42),
        RuntimeConfig {
            num_devices: 2,
            ..Default::default()
        },
    )
    .partition_over(&dataset.cameras);
    let report = sharded.run_batch(&dataset.cameras[..4], &targets[..4]);
    // Parameter/gradient traffic on the timeline still matches the batch
    // accounting (the per-device split never invents or loses bytes)…
    assert_eq!(report.comm_bytes_h2d(), report.batch.bytes_loaded);
    assert_eq!(report.comm_bytes_d2h(), report.batch.bytes_stored);
    // …and the fixed-order reduction actually appears on the comm lanes.
    assert!(report.timeline.bytes_by_kind(OpKind::AllReduce) > 0);
    assert!(report.timeline.time_by_kind(OpKind::AllReduce) > 0.0);
    // With two shards of one scene, some staged rows cross shards.
    assert!(sharded.cross_shard_rows() > 0);
    assert!(sharded.local_rows() > 0);
    let staged = sharded.local_rows() + sharded.cross_shard_rows();
    assert_eq!(
        staged,
        sharded.trainer().offloaded().bytes_gathered()
            / clm_repro::clm_core::NON_CRITICAL_BYTES as u64,
        "every staged row is either local or cross-shard"
    );
}

#[test]
fn sharded_pool_high_water_scales_with_device_lanes() {
    // Each device lane group keeps its own prefetch frontier in the shared
    // pinned pool: with D devices and window W the high-water mark is
    // D × (W + 1) buffers (capped by each device's local sequence length),
    // and everything is returned by batch end.
    let (dataset, targets, init) = setup(97);
    for (devices, window, expected) in [(1usize, 1usize, 2usize), (2, 1, 4), (4, 0, 4)] {
        let mut sharded = PipelinedEngine::new(
            init.clone(),
            TrainConfig {
                batch_size: 8,
                ..train_config(97)
            },
            RuntimeConfig {
                num_devices: devices,
                prefetch_window: window,
                ..Default::default()
            },
        )
        .partition_over(&dataset.cameras);
        sharded.run_batch(&dataset.cameras[..8], &targets[..8]);
        sharded.run_batch(&dataset.cameras[..8], &targets[..8]);
        let stats = sharded.pool_stats();
        assert_eq!(stats.outstanding, 0, "all buffers returned");
        assert_eq!(
            stats.high_water_buffers, expected,
            "{devices} devices, window {window}: {stats:?}"
        );
        assert!(
            stats.recycled >= 8,
            "second batch runs from recycled buffers: {stats:?}"
        );
    }
}

#[test]
fn sharded_engine_runs_the_comparison_systems_on_device_zero() {
    // The no-overlap comparison systems are not sharded; they must still
    // execute (and match the synchronous trainer) under a multi-device
    // config, landing on device 0's classic lanes.
    let (dataset, targets, init) = setup(11);
    for system in [SystemKind::NaiveOffload, SystemKind::EnhancedBaseline] {
        let train = TrainConfig {
            system,
            ..train_config(11)
        };
        let mut sharded = PipelinedEngine::new(
            init.clone(),
            train.clone(),
            RuntimeConfig {
                num_devices: 2,
                ..Default::default()
            },
        )
        .partition_over(&dataset.cameras);
        let mut sync = Trainer::new(init.clone(), train);
        let s = sharded.run_batch(&dataset.cameras[..4], &targets[..4]);
        let r = sync.train_batch(&dataset.cameras[..4], &targets[..4]);
        assert_eq!(s.batch, r, "{system}");
        assert_eq!(sharded.trainer().model(), sync.model(), "{system}");
        assert!(s.timeline.busy_time(Lane::GpuCompute) > 0.0, "{system}");
        assert_eq!(
            s.timeline.busy_time(Lane::DeviceCompute(1)),
            0.0,
            "{system}: baselines stay on device 0"
        );
    }
}

// ---------------------------------------------------------------------------
// Densification conformance: this backend's leg of the shared cross-backend
// harness (`tests/conformance/`).
#[path = "conformance/harness.rs"]
mod harness;

#[test]
fn sharded_engine_passes_the_densifying_conformance_run_at_every_device_count() {
    // Every boundary re-runs the footprint partition over the resized
    // population before the next batch's lanes are laid out.
    let scenario = harness::densifying_scenario();
    let reference = harness::run_reference(&scenario, harness::EPOCHS);
    harness::assert_densification_exercised(&reference);
    for devices in DEVICE_COUNTS {
        let mut sharded = PipelinedEngine::new(
            scenario.init.clone(),
            scenario.train.clone(),
            RuntimeConfig {
                prefetch_window: 2,
                num_devices: devices,
                ..Default::default()
            },
        )
        .partition_over(&scenario.dataset.cameras);
        let trajectory = harness::run_backend(&mut sharded, &scenario, harness::EPOCHS);
        harness::assert_trajectories_match(&reference, &trajectory, &format!("sharded@{devices}"));
        // The post-resize partition stays total and balanced over the new
        // population.
        assert_eq!(sharded.partition().len(), trajectory.final_model.len());
        assert!(sharded.partition().device_counts().iter().all(|&c| c > 0));
    }
}
