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

use clm_repro::clm_core::{
    cache, SystemKind, TrainConfig, Trainer, GRADIENT_BYTES, NON_CRITICAL_BYTES,
};
use clm_repro::clm_runtime::{
    ExecutionBackend, PipelinedEngine, RuntimeConfig, ThreadedBackend, ThreadedConfig,
};
use clm_repro::gs_core::camera::Camera;
use clm_repro::gs_core::{cull_frustum, VisibilitySet};
use clm_repro::gs_optim::GradientBuffer;
use clm_repro::gs_render::{render, Image, RenderOptions};
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
    let reference = run_backend(&mut scenario.trainer(), &scenario, EPOCHS);
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
    let reference = run_backend(&mut scenario.trainer(), &scenario, EPOCHS);
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
            match report.batch.resize {
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
fn every_backend_reports_the_lane_sums_of_its_own_timeline() {
    // Every backend returns one report whose `lanes` are read off its own
    // timeline: compute, comm and Adam summed over the device lane groups,
    // scheduling from the shared scheduler lane.  The device lane groups
    // must cover every device the batch ran on, and nothing may run outside
    // them.
    let scenario = densifying_scenario();
    let (init, train) = (&scenario.init, &scenario.train);
    let threaded = ThreadedBackend::new(init.clone(), train.clone(), threaded_config());
    let mut backends: Vec<(Box<dyn ExecutionBackend>, usize)> =
        vec![(Box::new(scenario.trainer()), 1), (Box::new(threaded), 1)];
    for devices in [1, 2] {
        let engine = PipelinedEngine::new(init.clone(), train.clone(), runtime_config(devices))
            .partition_over(&scenario.dataset.cameras);
        backends.push((Box::new(engine), devices));
    }
    for (backend, devices) in &mut backends {
        let label = format!("{}@{devices}", backend.backend_name());
        for r in backend.execute_epoch(&scenario.dataset, &scenario.targets) {
            let groups: Vec<_> = (0..*devices).map(|d| r.device_lane_group(d)).collect();
            let summed = |k: usize| -> f64 { groups.iter().map(|g| g[k].busy).sum() };
            assert_eq!(r.lanes.compute, summed(0), "{label}");
            assert_eq!(r.lanes.comm, summed(1), "{label}");
            assert_eq!(r.lanes.adam, summed(2), "{label}");
            assert_eq!(
                r.lanes.scheduling,
                r.lane(Lane::CpuScheduler).busy,
                "{label}"
            );
            for (d, group) in groups.iter().enumerate() {
                assert!(group[0].busy > 0.0, "{label}: device {d} computed nothing");
            }
            let outside = r
                .timeline
                .ops()
                .iter()
                .filter(|op| op.lane.device().is_some_and(|d| d >= *devices));
            assert_eq!(outside.count(), 0, "{label}: ops beyond the device groups");
        }
    }
}

/// `(micro-batch, rows, bytes)` of a timeline's ops of one kind.
fn payloads(timeline: &Timeline, kind: OpKind) -> Vec<(u32, u64, u64)> {
    let mut ops: Vec<_> = timeline
        .ops()
        .iter()
        .filter(|op| op.kind == kind)
        .map(|op| {
            (
                op.microbatch.expect("per-micro-batch op"),
                op.rows,
                op.bytes,
            )
        })
        .collect();
    ops.sort_unstable();
    ops
}

/// `(micro-batch, rows sent, bytes)` of a timeline's gradient stores.
fn gradient_stores(timeline: &Timeline) -> Vec<(u32, u64, u64)> {
    payloads(timeline, OpKind::StoreGrads)
}

/// `(micro-batch, rows fetched, bytes)` of a timeline's parameter loads.
fn parameter_loads(timeline: &Timeline) -> Vec<(u32, u64, u64)> {
    payloads(timeline, OpKind::LoadParams)
}

/// What one batch must move, recounted from first principles by
/// [`recount`].
struct Recount {
    /// The expected [`gradient_stores`].
    stores: Vec<(u32, u64, u64)>,
    /// The expected [`parameter_loads`].
    loads: Vec<(u32, u64, u64)>,
    /// Distinct Gaussians that received gradient.
    received: usize,
    /// Distinct Gaussians in some view's frustum.
    frustum: usize,
    /// Rows the optimiser must skip as cold: no gradient received and every
    /// moment bit zero at batch start.
    cold: usize,
}

/// Trains one batch through the stepwise API and recounts what it must move
/// from first principles, without going near the plan's fetch and store
/// sets or the gradient buffer's own bookkeeping: the loads and stores from
/// each view's reached set (a render of its frustum set against the
/// batch-start model) through `cache::plan_batch`, the receivers from each
/// micro-batch's `RenderGradients`, and the cold rows from the optimiser's
/// exported state at batch start and those receivers.
fn recount(trainer: &mut Trainer, cameras: &[Camera], targets: &[Image]) -> Recount {
    let plan = trainer.resize_and_plan(cameras);
    let state = trainer.optimizer().export_rows();
    let zero = |row: &[f32]| row.iter().all(|x| x.to_bits() == 0);
    // Rows past the optimiser's state start from fresh (+0.0) moments.
    let cold_at_start: Vec<u32> = (0..trainer.model().len() as u32)
        .filter(|&i| {
            state
                .get(i as usize)
                .is_none_or(|r| zero(&r.m) && zero(&r.v))
        })
        .collect();
    let frustum_sets: Vec<VisibilitySet> = plan
        .order
        .iter()
        .map(|&view| cull_frustum(trainer.model(), &cameras[view]))
        .collect();
    let reached: Vec<VisibilitySet> = plan
        .order
        .iter()
        .zip(&frustum_sets)
        .map(|(&view, set)| {
            let options = RenderOptions {
                visible: Some(set.indices().to_vec()),
                band_height: trainer.resolved_band_height(),
                ..RenderOptions::default()
            };
            let out = render(trainer.model(), &cameras[view], &options);
            out.aux.coverage().reached().clone()
        })
        .collect();
    // Plan `i` fetches micro-batch `i`'s missing rows; plan `i + 1` (the
    // last one is the flush) retires what micro-batch `i` leaves behind.
    let transitions = cache::plan_batch(&reached);
    let payload = |i: usize, rows: usize, row_bytes: usize| {
        (i as u32, rows as u64, (rows * row_bytes) as u64)
    };
    let loads = (0..reached.len())
        .map(|i| payload(i, transitions[i].fetched.len(), NON_CRITICAL_BYTES))
        .collect();
    let stores = (0..reached.len())
        .map(|i| payload(i, transitions[i + 1].grads_to_store.len(), GRADIENT_BYTES))
        .collect();
    let frustum = frustum_sets
        .iter()
        .fold(VisibilitySet::new(), |union, set| union.union(set))
        .len();
    let mut grads = GradientBuffer::for_model(trainer.model());
    let (mut staging, mut total_loss) = (Vec::new(), 0.0);
    let mut received = BTreeSet::new();
    trainer.begin_batch(&plan, &grads);
    for i in 0..plan.num_microbatches() {
        trainer.stage_microbatch(&plan, i, &mut staging);
        let (loss, render_grads) = trainer.render_microbatch(&plan, i, cameras, targets, &staging);
        total_loss += loss;
        received.extend(render_grads.iter().map(|(index, _)| *index));
        grads.accumulate_render(&render_grads);
        trainer.apply_finalized(&plan, i, &grads);
    }
    trainer.finish_batch(&plan, &grads, total_loss);
    let cold = cold_at_start
        .iter()
        .filter(|i| !received.contains(i))
        .count();
    Recount {
        stores,
        loads,
        received: received.len(),
        frustum,
        cold,
    }
}

#[test]
fn every_executor_sends_the_recounted_store_payloads() {
    // A store carries the dense gradient rows of the reached Gaussians that
    // retire from the device: the synchronous loop, the simulated engine at
    // every device count and the threaded backend must record the same
    // per-micro-batch `StoreGrads` rows and bytes, report their sum as
    // `bytes_stored`, the same receivers and the same count of cold rows the
    // optimiser skipped, and all of it must equal the independent recount.
    let scenario = densifying_scenario();
    let mut recounter = scenario.trainer();
    let mut executors = conformance_executors(&scenario);
    let (mut frustum_rows, mut stored_rows, mut skipped_rows) = (0, 0, 0);
    for _ in 0..EPOCHS {
        for range in batch_slices(scenario.dataset.cameras.len(), scenario.train.batch_size) {
            let cameras = &scenario.dataset.cameras[range.clone()];
            let targets = &scenario.targets[range];
            let Recount {
                stores: expected,
                received,
                frustum,
                cold,
                ..
            } = recount(&mut recounter, cameras, targets);
            let bytes_stored: u64 = expected.iter().map(|(_, _, bytes)| bytes).sum();
            let mut first = None;
            for executor in &mut executors {
                let label = label(executor.as_ref());
                let report = executor.execute_batch(cameras, targets);
                assert_eq!(gradient_stores(&report.timeline), expected, "{label}");
                assert_eq!(report.comm_bytes_d2h(), bytes_stored, "{label}");
                assert_eq!(report.batch.bytes_stored, bytes_stored, "{label}");
                assert_eq!(report.batch.received, received, "{label}");
                assert_eq!(report.batch.adam_rows_skipped, cold, "{label}");
                // Each receiver is finalised once and ships to the threaded
                // Adam lane then; the other executors step inline.
                let shipped = if label.starts_with("threaded") {
                    received
                } else {
                    0
                };
                assert_eq!(report.adam_rows_shipped, shipped as u64, "{label}");
                // Every executor's report equals the first one whole.
                let batch = first.get_or_insert_with(|| report.batch.clone());
                assert_eq!(&report.batch, batch, "{label}");
            }
            skipped_rows += cold;
            frustum_rows += frustum;
            stored_rows += expected
                .iter()
                .map(|(_, rows, _)| *rows as usize)
                .sum::<usize>();
        }
    }
    for executor in &executors {
        assert_eq!(executor.trainer().model(), recounter.model());
    }
    // Vacuous otherwise: the stores must skip frustum rows no pixel reaches
    // (retiring every frustum row stores each row of a batch's frustum
    // union at least once).
    assert!(
        stored_rows > 0 && stored_rows < frustum_rows,
        "{stored_rows} rows stored of {frustum_rows} frustum rows"
    );
    assert!(skipped_rows > 0, "no batch skipped a cold row");
}

/// Every executor on the scenario: the synchronous trainer, the threaded
/// backend and one simulated engine per conformance device count,
/// partitioned over the scenario's views.
fn conformance_executors(scenario: &Scenario) -> Vec<Box<dyn ExecutionBackend>> {
    let mut executors: Vec<Box<dyn ExecutionBackend>> = vec![
        Box::new(scenario.trainer()),
        Box::new(ThreadedBackend::with_trainer(
            scenario.trainer(),
            threaded_config(),
        )),
    ];
    for devices in conformance_devices() {
        let engine = PipelinedEngine::with_trainer(scenario.trainer(), runtime_config(devices));
        executors.push(Box::new(engine.partition_over(&scenario.dataset.cameras)));
    }
    executors
}

/// `name@devices` of an executor, for assertion messages.
fn label(executor: &dyn ExecutionBackend) -> String {
    let devices = executor.trainer().config().num_devices;
    format!("{}@{devices}", executor.backend_name())
}

#[test]
fn every_executor_loads_the_recounted_reached_rows() {
    // A fetch carries the SH rows of the Gaussians its view's compositing
    // walk reaches, less what the previous micro-batch left on the device:
    // every executor must record those `LoadParams` rows and bytes per
    // micro-batch and report their sum as `bytes_loaded`, and all of it must
    // equal the recount from each view's reached set and the cache planner.
    let scenario = densifying_scenario();
    let mut recounter = scenario.trainer();
    let mut executors = conformance_executors(&scenario);
    let (mut frustum_rows, mut fetched_rows) = (0, 0);
    for _ in 0..EPOCHS {
        for range in batch_slices(scenario.dataset.cameras.len(), scenario.train.batch_size) {
            let cameras = &scenario.dataset.cameras[range.clone()];
            let targets = &scenario.targets[range];
            let Recount { loads, frustum, .. } = recount(&mut recounter, cameras, targets);
            let bytes_loaded: u64 = loads.iter().map(|(_, _, bytes)| bytes).sum();
            for executor in &mut executors {
                let label = label(executor.as_ref());
                let report = executor.execute_batch(cameras, targets);
                assert_eq!(parameter_loads(&report.timeline), loads, "{label}");
                assert_eq!(report.batch.bytes_loaded, bytes_loaded, "{label}");
                assert_eq!(report.comm_bytes_h2d(), bytes_loaded, "{label}");
            }
            frustum_rows += frustum;
            fetched_rows += loads
                .iter()
                .map(|(_, rows, _)| *rows as usize)
                .sum::<usize>();
        }
    }
    for executor in &executors {
        assert_eq!(executor.trainer().model(), recounter.model());
    }
    // Vacuous otherwise: the fetch must skip frustum rows no pixel reaches
    // (fetching every frustum row moves each row of a batch's frustum union
    // at least once).
    assert!(
        fetched_rows > 0 && fetched_rows < frustum_rows,
        "{fetched_rows} rows fetched of {frustum_rows} frustum rows"
    );
}

/// The `(kind, micro-batch)` sequence of a timeline's hook ops, in list
/// order (push order when emitted, start order when measured).  Resize,
/// scheduling, all-reduce and `Other` ops are no hooks' work; an Adam group
/// counts once however many device shares it is split into.
fn hook_sequence(timeline: &Timeline) -> Vec<(OpKind, Option<u32>)> {
    use OpKind::{AllReduce, Other, Resize, Scheduling};
    let mut sequence: Vec<_> = timeline
        .ops()
        .iter()
        .filter(|op| !matches!(op.kind, Resize | Scheduling | AllReduce | Other))
        .map(|op| (op.kind, op.microbatch))
        .collect();
    sequence.dedup();
    sequence
}

#[test]
fn every_executor_walks_one_op_sequence() {
    // The synchronous trainer and the simulated engine walk the same
    // emitted graph: at window 0 the trainer's hook-timed spans and the
    // engine's costed ops are the same `(kind, micro-batch)` sequence, batch
    // by batch and across a resize boundary, at one device and two — and
    // the two device counts train the same model.
    let scenario = densifying_scenario();
    let mut models = Vec::new();
    for devices in [1, 2] {
        let train = TrainConfig {
            num_devices: devices,
            ..scenario.train.clone()
        };
        let mut synchronous = Trainer::new(scenario.init.clone(), train.clone());
        let config = RuntimeConfig {
            prefetch_window: 0,
            num_devices: devices,
            ..Default::default()
        };
        let mut engine = PipelinedEngine::new(scenario.init.clone(), train, config)
            .partition_over(&scenario.dataset.cameras);
        for range in batch_slices(scenario.dataset.cameras.len(), scenario.train.batch_size) {
            let cameras = &scenario.dataset.cameras[range.clone()];
            let targets = &scenario.targets[range];
            let walk = synchronous.execute_batch(cameras, targets);
            let report = engine.run_batch(cameras, targets);
            assert_eq!(report.batch, walk.batch, "{devices} devices");
            let walked = hook_sequence(&walk.timeline);
            assert_eq!(walked, hook_sequence(&report.timeline), "{devices} devices");
            assert!(walked.len() > 5 * cameras.len(), "{walked:?}");
        }
        assert_eq!(synchronous.resize_events(), 1, "{devices} devices");
        assert_eq!(synchronous.model(), engine.trainer().model());
        models.push(engine.trainer().model().clone());
    }
    assert_eq!(models[0], models[1]);
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
        let reference = run_backend(&mut sys_scenario.trainer(), &sys_scenario, 1);
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
        boundaries += reports.iter().filter(|r| r.batch.resize.is_some()).count();
        for r in &reports {
            assert!(r.wall_seconds > 0.0);
            assert!(r.lanes.compute > 0.0);
        }
    }
    assert_eq!(boundaries, 2);
    assert_eq!(threaded.trainer().resize_events(), 2);
}
