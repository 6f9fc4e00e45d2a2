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

use clm_repro::clm_core::{SystemKind, Trainer, GRADIENT_BYTES};
use clm_repro::clm_runtime::{
    ExecutionBackend, PipelinedEngine, RuntimeConfig, ThreadedBackend, ThreadedConfig,
};
use clm_repro::gs_core::camera::Camera;
use clm_repro::gs_optim::GradientBuffer;
use clm_repro::gs_render::Image;
use clm_repro::sim_device::{Lane, OpKind, Timeline};
use harness::*;
use std::collections::BTreeSet;

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

/// `(micro-batch, rows sent, bytes)` of a timeline's gradient stores.
fn gradient_stores(timeline: &Timeline) -> Vec<(u32, u64, u64)> {
    let mut stores: Vec<_> = timeline
        .ops()
        .iter()
        .filter(|op| op.kind == OpKind::StoreGrads)
        .map(|op| {
            (
                op.microbatch.expect("per-micro-batch op"),
                op.rows,
                op.bytes,
            )
        })
        .collect();
    stores.sort_unstable();
    stores
}

/// Trains one batch through the stepwise API and recounts what its stores
/// must send from first principles — each micro-batch's `RenderGradients`
/// (who received gradient) and the cache plan (who retires when) — without
/// going near the gradient buffer's own bookkeeping.  Returns the expected
/// [`gradient_stores`] and how many distinct Gaussians received gradient.
fn recount_stores(
    trainer: &mut Trainer,
    cameras: &[Camera],
    targets: &[Image],
) -> (Vec<(u32, u64, u64)>, usize) {
    let plan = trainer.resize_and_plan(cameras);
    let mut grads = GradientBuffer::for_model(trainer.model());
    let (mut staging, mut total_loss) = (Vec::new(), 0.0);
    let (mut unsent, mut received) = (BTreeSet::new(), BTreeSet::new());
    let mut expected = Vec::new();
    trainer.begin_batch(&plan, &grads);
    for i in 0..plan.num_microbatches() {
        trainer.stage_microbatch(&plan, i, &mut staging);
        let (loss, render_grads) = trainer.render_microbatch(&plan, i, cameras, targets, &staging);
        total_loss += loss;
        for (index, _) in render_grads.iter() {
            unsent.insert(*index);
            received.insert(*index);
        }
        // A retiring row ships iff it received gradient while resident.
        let retiring = plan.stored[i].indices();
        let sent = retiring.iter().filter(|&row| unsent.remove(row)).count();
        let bytes = (retiring.len() * GRADIENT_BYTES).min(sent * (GRADIENT_BYTES + 4));
        expected.push((i as u32, sent as u64, bytes as u64));
        grads.accumulate_render(&render_grads);
        trainer.apply_finalized(&plan, i, &grads);
    }
    assert!(unsent.is_empty(), "the flush retires every resident row");
    trainer.finish_batch(&plan, &grads, total_loss);
    (expected, received.len())
}

#[test]
fn every_executor_sends_the_recounted_store_payloads() {
    // What a store carries is decided by who received gradient, which only
    // the executed batch knows — so every executor has to reach the same
    // payloads on its own: the synchronous loop, the simulated engine at
    // every device count and the threaded backend must record the same
    // per-micro-batch `StoreGrads` rows and bytes, report their sum as
    // `bytes_stored`, and all of it must equal the independent recount.
    let scenario = densifying_scenario();
    let (init, train) = (&scenario.init, &scenario.train);
    let mut recount = Trainer::new(init.clone(), train.clone());
    let mut synchronous = Trainer::new(init.clone(), train.clone());
    let mut threaded = ThreadedBackend::new(init.clone(), train.clone(), threaded_config());
    let mut engines: Vec<PipelinedEngine> = conformance_devices()
        .into_iter()
        .map(|devices| {
            PipelinedEngine::new(init.clone(), train.clone(), runtime_config(devices))
                .partition_over(&scenario.dataset.cameras)
        })
        .collect();
    let (mut sparse_stores, mut silent_rows) = (0, 0);
    for _ in 0..EPOCHS {
        for range in batch_slices(scenario.dataset.cameras.len(), train.batch_size) {
            let cameras = &scenario.dataset.cameras[range.clone()];
            let targets = &scenario.targets[range];
            let (expected, received) = recount_stores(&mut recount, cameras, targets);
            let bytes_stored: u64 = expected.iter().map(|(_, _, bytes)| bytes).sum();

            let mut timeline = Timeline::new();
            let batch = synchronous.train_batch_spanned(cameras, targets, &mut timeline);
            assert_eq!(gradient_stores(&timeline), expected, "synchronous");
            assert_eq!(batch.bytes_stored, bytes_stored, "synchronous");
            assert_eq!(batch.received, received, "synchronous");

            let (report, timeline) = threaded.run_batch_traced(cameras, targets);
            assert_eq!(gradient_stores(&timeline), expected, "threaded");
            assert_eq!(report.batch, batch, "threaded");
            // Each receiver is finalised once and ships to the Adam lane then.
            assert_eq!(report.adam_rows_shipped, received as u64, "threaded");

            for engine in &mut engines {
                let label = format!("simulated@{}", engine.config().num_devices);
                let report = engine.run_batch(cameras, targets);
                assert_eq!(gradient_stores(&report.timeline), expected, "{label}");
                assert_eq!(report.batch, batch, "{label}");
                assert_eq!(report.comm_bytes_d2h(), bytes_stored, "{label}");
            }

            sparse_stores += expected
                .iter()
                .filter(|(_, rows, bytes)| *bytes == rows * (GRADIENT_BYTES as u64 + 4))
                .count();
            silent_rows += batch.touched - received;
        }
    }
    assert_eq!(synchronous.model(), recount.model());
    // Vacuous otherwise: some frustum-touched rows must go without gradient,
    // and some store must take the sparse form.
    assert!(
        silent_rows > 0 && sparse_stores > 0,
        "{silent_rows}, {sparse_stores}"
    );
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
