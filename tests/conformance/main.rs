//! Cross-backend conformance suite for densification under the runtime.
//!
//! Replays one seeded densifying run — two resize boundaries, net growth
//! and net prune both exercised — through every executor (`Trainer`,
//! `ThreadedBackend`, `PipelinedEngine` at devices {1, 2, 4}) and asserts
//! trajectory **bit-identity**, pinned-pool accounting and report
//! invariants.  CI runs this as `cargo test --test conformance` in every
//! leg of the shard matrix, with `CONFORMANCE_DEVICES` narrowing the
//! simulated engine's legs to the matrix's device count.

mod chaos;
mod harness;
mod serve;

use clm_repro::clm_core::SystemKind;
use clm_repro::clm_runtime::{
    ExecutionBackend, PipelinedEngine, RuntimeConfig, ThreadedBackend, ThreadedConfig,
};
use clm_repro::sim_device::{Lane, OpKind};
use harness::*;

fn runtime_config(devices: usize) -> RuntimeConfig {
    RuntimeConfig {
        prefetch_window: 2,
        num_devices: devices,
        ..Default::default()
    }
}

fn threaded_config() -> ThreadedConfig {
    ThreadedConfig {
        prefetch_window: 2,
        ..Default::default()
    }
}

#[test]
fn scenario_exercises_growth_and_prune_at_two_boundaries() {
    // The suite is only as strong as its workload: the seeded run must
    // actually cross two densification boundaries, one net-growing and one
    // net-pruning, or every bit-identity assertion below is vacuous.
    let scenario = densifying_scenario();
    let reference = run_reference(&scenario, EPOCHS);
    assert_densification_exercised(&reference);
    assert_eq!(reference.resize_events(), 2);
}

#[test]
fn densifying_run_is_bit_identical_across_all_backends_and_device_counts() {
    // The acceptance criterion: the same seeded densifying run, replayed
    // through every execution backend, produces the same trajectory bit for
    // bit — losses, orders, traffic, model sizes at every boundary and the
    // final parameters.
    let scenario = densifying_scenario();
    let reference = run_reference(&scenario, EPOCHS);
    assert_densification_exercised(&reference);

    let mut threaded = ThreadedBackend::new(
        scenario.init.clone(),
        scenario.train.clone(),
        threaded_config(),
    );
    let t = run_backend(&mut threaded, &scenario, EPOCHS);
    assert_trajectories_match(&reference, &t, "threaded");

    // One engine, every device count (1 is the paper's single-device
    // pipeline and needs no partition views).
    for devices in conformance_devices() {
        let mut engine = PipelinedEngine::new(
            scenario.init.clone(),
            scenario.train.clone(),
            runtime_config(devices),
        );
        if devices > 1 {
            engine = engine.partition_over(&scenario.dataset.cameras);
        }
        let t = run_backend(&mut engine, &scenario, EPOCHS);
        assert_trajectories_match(&reference, &t, &format!("simulated@{devices}"));
        // The boundary repartition covered the resized population: every
        // Gaussian of the final model has exactly one owner.
        assert_eq!(engine.partition().len(), t.final_model.len());
        assert_eq!(
            engine.partition().device_counts().iter().sum::<usize>(),
            t.final_model.len()
        );
    }
}

#[test]
fn pool_accounting_survives_resizes() {
    // The pinned staging pool must come out of a densifying run balanced:
    // no leaked buffers, one re-lease per boundary, and the high-water mark
    // still within the window's buffer budget.
    let scenario = densifying_scenario();

    let mut pipelined = PipelinedEngine::new(
        scenario.init.clone(),
        scenario.train.clone(),
        runtime_config(1),
    );
    let t = run_backend(&mut pipelined, &scenario, EPOCHS);
    let stats = pipelined.pool_stats();
    assert_eq!(stats.outstanding, 0, "pipelined leaked staging buffers");
    assert_eq!(
        stats.reprovisions,
        t.resize_events() as u64,
        "one pool re-lease per densify boundary"
    );
    assert_eq!(
        stats.high_water_buffers,
        2 + 1,
        "window 2 still needs exactly window+1 buffers across resizes"
    );

    let mut threaded = ThreadedBackend::new(
        scenario.init.clone(),
        scenario.train.clone(),
        threaded_config(),
    );
    let t = run_backend(&mut threaded, &scenario, EPOCHS);
    let stats = threaded.pool_stats();
    assert_eq!(stats.outstanding, 0, "threaded leaked staging buffers");
    assert_eq!(stats.reprovisions, t.resize_events() as u64);
    assert!(
        stats.high_water_buffers <= 2 + 1,
        "threaded must stay within the window+1 budget: {stats:?}"
    );
}

#[test]
fn report_invariants_hold_across_resizes() {
    // Per-iteration reports must stay coherent while the model resizes: the
    // timeline's communication volume equals the batch accounting, resize
    // ops appear exactly at boundaries, and the boundary cost lands on the
    // host scheduler lane.
    let scenario = densifying_scenario();
    let mut engine = PipelinedEngine::new(
        scenario.init.clone(),
        scenario.train.clone(),
        runtime_config(1),
    );
    for _ in 0..EPOCHS {
        for range in batch_slices(scenario.dataset.cameras.len(), scenario.train.batch_size) {
            let report = engine.run_batch(
                &scenario.dataset.cameras[range.clone()],
                &scenario.targets[range],
            );
            assert!(report.makespan() > 0.0);
            assert_eq!(report.comm_bytes_h2d(), report.batch.bytes_loaded);
            assert_eq!(report.comm_bytes_d2h(), report.batch.bytes_stored);
            let resize_time = report.timeline.time_by_kind(OpKind::Resize);
            match report.resize {
                Some(r) => {
                    assert!(
                        resize_time > 0.0,
                        "boundary batch must cost a Resize op: {r:?}"
                    );
                    assert!(report.lane(Lane::CpuScheduler).busy >= resize_time);
                }
                None => assert_eq!(resize_time, 0.0, "no Resize op off-boundary"),
            }
        }
    }
    assert_eq!(engine.trainer().resize_events(), 2);
}

#[test]
fn non_clm_systems_densify_identically_too() {
    // Densification is planned from the shared gradient trajectory, so the
    // comparison systems must resize at the same boundaries with the same
    // row sets — through the runtime as well as the synchronous trainer.
    let scenario = densifying_scenario();
    for system in [SystemKind::EnhancedBaseline, SystemKind::NaiveOffload] {
        let mut train = scenario.train.clone();
        train.system = system;
        let sys_scenario = Scenario {
            dataset: scenario.dataset.clone(),
            targets: scenario.targets.clone(),
            init: scenario.init.clone(),
            train,
        };
        let reference = run_reference(&sys_scenario, 1);
        let mut engine = PipelinedEngine::new(
            sys_scenario.init.clone(),
            sys_scenario.train.clone(),
            runtime_config(1),
        );
        let t = run_backend(&mut engine, &sys_scenario, 1);
        assert_trajectories_match(&reference, &t, &format!("{system}"));
        assert!(t.resize_events() >= 1, "{system}: run never densified");
    }
}

#[test]
fn execute_epoch_reports_carry_the_resize_boundaries() {
    // The epoch-level driver (what the benchmark harness uses) must surface
    // the same boundaries the batch-level driver sees.
    let scenario = densifying_scenario();
    let mut threaded = ThreadedBackend::new(
        scenario.init.clone(),
        scenario.train.clone(),
        threaded_config(),
    );
    let mut boundaries = 0;
    for _ in 0..EPOCHS {
        let reports = threaded.execute_epoch(&scenario.dataset, &scenario.targets);
        boundaries += reports.iter().filter(|r| r.resize.is_some()).count();
        for r in &reports {
            assert!(r.wall_seconds > 0.0);
            assert!(r.lanes.compute > 0.0);
        }
    }
    assert_eq!(boundaries, 2);
    assert_eq!(threaded.trainer().resize_events(), 2);
}
