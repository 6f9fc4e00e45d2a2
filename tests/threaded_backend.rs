//! Integration tests of the threaded execution backend: worker threads for
//! the gather and CPU Adam lanes must reproduce the synchronous trainer's
//! loss/PSNR trajectory **bit-for-bit** across seeds and prefetch windows,
//! and must survive the tightest possible backpressure configuration —
//! end-to-end across `clm-runtime`, `clm-core`, `gs-optim` and the gs-*
//! crates.

use clm_repro::clm_core::{SystemKind, TrainConfig, Trainer};
use clm_repro::clm_runtime::{
    ExecutionBackend, PipelinedEngine, RuntimeConfig, ThreadedBackend, ThreadedConfig,
};
use clm_repro::sim_device::Lane;

#[test]
fn threaded_backend_is_bit_identical_across_seeds_and_windows() {
    // Two epochs per configuration: every per-batch loss, the final
    // parameters and the evaluated PSNR must equal the synchronous
    // trainer's exactly, for 3 dataset seeds × prefetch windows {0, 1, 2}.
    for seed in [11u64, 42, 97] {
        let (dataset, targets, init) = harness::rubble_scene(seed);
        let train = TrainConfig {
            system: SystemKind::Clm,
            batch_size: 4,
            seed,
            ..Default::default()
        };

        let mut sync = Trainer::new(init.clone(), train.clone());
        let mut reference = Vec::new();
        for _ in 0..2 {
            reference.extend(sync.execute_epoch(&dataset, &targets));
        }

        for window in [0usize, 1, 2] {
            let mut threaded = ThreadedBackend::new(
                init.clone(),
                train.clone(),
                ThreadedConfig {
                    prefetch_window: window,
                    ..Default::default()
                },
            );
            let mut reports = Vec::new();
            for _ in 0..2 {
                reports.extend(threaded.execute_epoch(&dataset, &targets));
            }
            assert_eq!(reference.len(), reports.len());
            for (r, t) in reference.iter().zip(&reports) {
                assert_eq!(
                    r.batch, t.batch,
                    "seed {seed}, window {window}: threaded batch must match the \
                     synchronous trainer"
                );
            }
            assert_eq!(
                threaded.trainer().model(),
                sync.model(),
                "seed {seed}, window {window}: final parameters must be identical"
            );
            assert_eq!(
                threaded.trainer().evaluate_psnr(&dataset.cameras, &targets),
                sync.evaluate_psnr(&dataset.cameras, &targets),
                "seed {seed}, window {window}: PSNR trajectory must be identical"
            );
        }
    }
}

#[test]
fn threaded_backend_survives_single_slot_backpressure() {
    // The tightest legal pool: capacity-1 queues everywhere and a
    // single-threaded CPU Adam lane.  Every handoff between the coordinator
    // and the workers exercises a full queue; the run must neither deadlock
    // nor change numerics, and the staging pool must stay within the
    // window's buffer budget.
    let (dataset, targets, init) = harness::rubble_scene(7);
    let train = TrainConfig {
        system: SystemKind::Clm,
        batch_size: 6,
        ..Default::default()
    };
    let mut sync = Trainer::new(init.clone(), train.clone());
    let mut stressed = ThreadedBackend::new(
        init,
        train,
        ThreadedConfig {
            prefetch_window: 4,
            adam_threads: 1,
            channel_capacity: 1,
            ..Default::default()
        },
    );
    for _ in 0..2 {
        let reference = sync.execute_epoch(&dataset, &targets);
        let reports = stressed.execute_epoch(&dataset, &targets);
        for (r, t) in reference.iter().zip(&reports) {
            assert_eq!(r.batch, t.batch, "backpressure must not change numerics");
        }
    }
    assert_eq!(stressed.trainer().model(), sync.model());
    let stats = stressed.pool_stats();
    assert_eq!(stats.outstanding, 0, "all staging buffers returned");
    assert!(
        stats.high_water_buffers <= 5,
        "window 4 must stay within its 5-buffer budget: {stats:?}"
    );
}

#[test]
fn threaded_staging_pool_accounting_equals_the_engines() {
    // One schedule: the gather lane leases and recycles buffers in the
    // order the emitter issues gathers and retires micro-batches, so the
    // pool ends up exactly where the simulated engine's does — per-device
    // windows included.
    let (dataset, targets, init) = harness::rubble_scene(5);
    let train = TrainConfig {
        system: SystemKind::Clm,
        batch_size: 6,
        ..Default::default()
    };
    for window in [0usize, 1, 2, usize::MAX] {
        for devices in [1usize, 2, 4] {
            let mut engine = PipelinedEngine::new(
                init.clone(),
                train.clone(),
                RuntimeConfig {
                    prefetch_window: window,
                    num_devices: devices,
                    ..Default::default()
                },
            )
            .partition_over(&dataset.cameras);
            let mut threaded = ThreadedBackend::new(
                init.clone(),
                train.clone(),
                ThreadedConfig {
                    prefetch_window: window,
                    num_devices: devices,
                    ..Default::default()
                },
            );
            engine.execute_epoch(&dataset, &targets);
            threaded.execute_epoch(&dataset, &targets);
            let (e, t) = (engine.pool_stats(), threaded.pool_stats());
            let label = format!("window {window}, {devices} devices: {t:?} vs {e:?}");
            assert_eq!(t.outstanding, 0, "{label}");
            assert_eq!(t.acquires, e.acquires, "{label}");
            assert_eq!(t.allocated, e.allocated, "{label}");
            assert_eq!(t.recycled, e.recycled, "{label}");
            assert_eq!(t.high_water_buffers, e.high_water_buffers, "{label}");
        }
    }
}

#[test]
fn a_traced_batch_adds_up_to_its_own_report() {
    // Lane busy seconds are the per-lane sums of the traced timeline's
    // spans and of nothing else — pool releases on the comm lane and
    // gradient-row packing on the Adam lane included.
    let (dataset, targets, init) = harness::rubble_scene(3);
    let train = TrainConfig {
        system: SystemKind::Clm,
        batch_size: 6,
        ..Default::default()
    };
    for devices in [1usize, 2] {
        let config = ThreadedConfig {
            num_devices: devices,
            ..Default::default()
        };
        let mut threaded = ThreadedBackend::new(init.clone(), train.clone(), config);
        for batch in 0..2 {
            let report = threaded.run_batch(&dataset.cameras[..6], &targets[..6]);
            let timeline = &report.timeline;
            let lanes = [
                (Lane::GpuCompute, report.lanes.compute),
                (Lane::GpuComm, report.lanes.comm),
                (Lane::CpuAdam, report.lanes.adam),
                (Lane::CpuScheduler, report.lanes.scheduling),
            ];
            for (lane, busy) in lanes {
                let spans = timeline.ops().iter().filter(|op| op.lane == lane);
                let summed: f64 = spans.map(|op| op.end - op.start).sum();
                assert!(busy > 0.0, "{lane:?} did timed work");
                assert_eq!(summed, busy, "{devices} devices, batch {batch}, {lane:?}");
            }
            assert!(timeline.ops().iter().all(|op| op.deps.is_empty()));
        }
    }
}

// ---------------------------------------------------------------------------
// Densification conformance: this backend's leg of the shared cross-backend
// harness (`tests/conformance/`).
#[path = "conformance/harness.rs"]
mod harness;

#[test]
fn threaded_backend_passes_the_densifying_conformance_run() {
    // The worker lanes respawn against the resized store every batch.
    let scenario = harness::densifying_scenario();
    let reference = harness::run_backend(&mut scenario.trainer(), &scenario, harness::EPOCHS);
    harness::assert_densification_exercised(&reference);
    let mut backend = ThreadedBackend::new(
        scenario.init.clone(),
        scenario.train.clone(),
        ThreadedConfig {
            prefetch_window: 2,
            ..Default::default()
        },
    );
    let trajectory = harness::run_backend(&mut backend, &scenario, harness::EPOCHS);
    harness::assert_trajectories_match(&reference, &trajectory, "threaded");
    assert_eq!(backend.pool_stats().outstanding, 0);
    assert_eq!(
        backend.pool_stats().reprovisions,
        reference.resize_events() as u64
    );
}
