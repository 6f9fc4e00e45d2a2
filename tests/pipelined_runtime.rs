//! Integration tests of the pipelined execution engine: the runtime must
//! reproduce the synchronous CLM trainer's loss/PSNR trajectory **exactly**
//! while keeping the GPU compute lane strictly less idle than the
//! no-overlap schedule — the paper's core performance claim, demonstrated
//! end-to-end across `clm-runtime`, `clm-core`, `sim-device` and the
//! gs-* crates.

use clm_repro::clm_core::{ground_truth_images, SystemKind, TrainConfig, Trainer};
use clm_repro::clm_runtime::{ExecutionBackend, PipelinedEngine, RuntimeConfig};
use clm_repro::gs_scene::{
    generate_dataset, init_from_point_cloud, DatasetConfig, InitConfig, SceneKind, SceneSpec,
};
use clm_repro::sim_device::Lane;

fn setup() -> (
    clm_repro::gs_scene::Dataset,
    Vec<clm_repro::gs_render::Image>,
    clm_repro::gs_core::GaussianModel,
) {
    let dataset = generate_dataset(
        &SceneSpec::of(SceneKind::Rubble),
        &DatasetConfig {
            num_gaussians: 450,
            num_views: 16,
            width: 40,
            height: 30,
            seed: 97,
        },
    );
    let targets = ground_truth_images(&dataset);
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: 170,
            ..Default::default()
        },
    );
    (dataset, targets, init)
}

#[test]
fn pipelined_runtime_reproduces_synchronous_loss_trajectory_exactly() {
    // Train three epochs with the synchronous trainer and with the
    // pipelined engine: every per-batch loss and the final parameters must
    // be bit-identical, and so must the evaluated PSNR.
    let (dataset, targets, init) = setup();
    let train = TrainConfig {
        system: SystemKind::Clm,
        batch_size: 4,
        ..Default::default()
    };
    let mut sync = Trainer::new(init.clone(), train.clone());
    let mut engine = PipelinedEngine::new(
        init,
        train,
        RuntimeConfig {
            prefetch_window: 2,
            ..Default::default()
        },
    );

    for epoch in 0..3 {
        let reference = sync.execute_epoch(&dataset, &targets);
        let piped = engine.execute_epoch(&dataset, &targets);
        assert_eq!(reference.len(), piped.len());
        for (r, p) in reference.iter().zip(&piped) {
            assert_eq!(
                r.batch, p.batch,
                "epoch {epoch}: pipelined batch must match the synchronous trainer"
            );
        }
    }
    assert_eq!(
        engine.trainer().model(),
        sync.model(),
        "final parameters must be identical"
    );

    let sync_psnr = sync.evaluate_psnr(&dataset.cameras, &targets);
    let piped_psnr = engine.evaluate_psnr(&dataset.cameras, &targets);
    assert_eq!(sync_psnr, piped_psnr, "PSNR trajectory must be identical");
}

#[test]
fn pipelined_schedule_idles_the_gpu_strictly_less_than_no_overlap() {
    // The same batch executed with prefetch lookahead must leave the GPU
    // compute lane strictly less idle than the window-0 (synchronous)
    // schedule, and no slower overall.
    let (dataset, targets, init) = setup();
    let cams = &dataset.cameras[..8];
    let tgts = &targets[..8];
    let run = |window: usize| {
        let mut engine = PipelinedEngine::new(
            init.clone(),
            TrainConfig::default(),
            RuntimeConfig {
                prefetch_window: window,
                ..Default::default()
            },
        );
        engine.run_batch(cams, tgts)
    };
    let no_overlap = run(0);
    let pipelined = run(2);

    assert!(
        pipelined.gpu_idle_fraction() < no_overlap.gpu_idle_fraction(),
        "pipelined idle {} must be strictly below no-overlap idle {}",
        pipelined.gpu_idle_fraction(),
        no_overlap.gpu_idle_fraction()
    );
    assert!(
        pipelined.makespan() < no_overlap.makespan(),
        "hiding gathers must shorten the iteration"
    );
    // Identical numerics despite the different schedules.
    assert_eq!(pipelined.batch, no_overlap.batch);
}

#[test]
fn runtime_reports_cover_all_lanes_and_traffic() {
    let (dataset, targets, init) = setup();
    let mut engine = PipelinedEngine::new(
        init,
        TrainConfig {
            batch_size: 8,
            ..Default::default()
        },
        RuntimeConfig::default(),
    );
    let report = engine.run_batch(&dataset.cameras[..8], &targets[..8]);

    // Per-batch makespan, per-lane busy/idle time and communication
    // volume — the runtime's contract.
    assert!(report.makespan() > 0.0);
    for lane in Lane::ALL.map(|l| report.lane(l)) {
        assert!(lane.busy >= 0.0 && lane.idle >= 0.0);
        assert!((lane.busy + lane.idle - report.makespan()).abs() < 1e-9);
    }
    assert!(report.lane(Lane::GpuCompute).busy > 0.0);
    assert!(report.lane(Lane::GpuComm).busy > 0.0);
    assert!(report.lane(Lane::CpuAdam).busy > 0.0);
    assert_eq!(report.comm_bytes_h2d(), report.batch.bytes_loaded);
    assert_eq!(report.comm_bytes_d2h(), report.batch.bytes_stored);

    // The pinned staging pool recycled across micro-batches and never held
    // more than window+1 buffers.
    let stats = engine.pool_stats();
    assert_eq!(stats.outstanding, 0);
    assert!(stats.high_water_buffers <= engine.config().prefetch_window + 1);
    assert!(stats.acquires > 0);
}

// ---------------------------------------------------------------------------
// Densification conformance: this backend's leg of the shared cross-backend
// harness (`tests/conformance/`).  The full suite replays the same run
// through every backend; this hook keeps the pipelined engine's conformance
// failure local to its own test file.
#[path = "conformance/harness.rs"]
mod harness;

#[test]
fn analytic_model_and_engine_emit_the_same_clm_graph() {
    // One model, checked across crates: `clm_core::simulate_batch` and the
    // engine both get the CLM op graph from `sim_device::pipeline`, so at
    // the analytic model's window (1) and one device they must agree on
    // every op's kind, lane, micro-batch and dependencies once their
    // (different) scheduling preambles are set aside — durations differ by
    // pricing only.
    use clm_repro::clm_core::{microbatch_stats_from_sets, simulate_batch, SceneProfile};
    use clm_repro::sim_device::{DeviceProfile, OpKind, Timeline};

    /// (kind, lane, micro-batch, deps) of every op after the `preamble`
    /// leading ops, dependencies counted from the end of the preamble.
    fn graph(timeline: &Timeline, preamble: usize) -> Vec<(OpKind, Lane, Option<u32>, Vec<isize>)> {
        timeline.ops()[preamble..]
            .iter()
            .map(|op| {
                let deps = op
                    .deps
                    .iter()
                    .map(|d| d.index() as isize - preamble as isize)
                    .collect();
                (op.kind, op.lane, op.microbatch, deps)
            })
            .collect()
    }

    let (dataset, targets, init) = setup();
    let cams = &dataset.cameras[..6];
    let mut engine = PipelinedEngine::new(
        init,
        TrainConfig::default(),
        RuntimeConfig {
            prefetch_window: 1,
            ..Default::default()
        },
    );
    let plan = engine.trainer().plan_batch(cams);
    let n = engine.trainer().model().len() as u64;
    let report = engine.run_batch(cams, &targets[..6]);

    let analytic = simulate_batch(
        SystemKind::Clm,
        &DeviceProfile::rtx4090(),
        &SceneProfile::paper_reference(SceneKind::Rubble),
        n,
        &microbatch_stats_from_sets(&plan.ordered_sets),
    );

    // The engine's preamble is its scheduling op; the analytic model's is
    // GPU culling plus CPU ordering.
    let engine_graph = graph(&report.timeline, 1);
    assert_eq!(engine_graph, graph(&analytic.timeline, 2));
    assert_eq!(engine_graph.len(), 1 + 6 * 5, "F0 Adam + five ops per view");
}

#[test]
fn pipelined_engine_passes_the_densifying_conformance_run() {
    let scenario = harness::densifying_scenario();
    let reference = harness::run_backend(&mut scenario.trainer(), &scenario, harness::EPOCHS);
    harness::assert_densification_exercised(&reference);
    let mut engine = PipelinedEngine::new(
        scenario.init.clone(),
        scenario.train.clone(),
        RuntimeConfig {
            prefetch_window: 2,
            ..Default::default()
        },
    );
    let trajectory = harness::run_backend(&mut engine, &scenario, harness::EPOCHS);
    harness::assert_trajectories_match(&reference, &trajectory, "pipelined");
    assert_eq!(engine.trainer().resize_events(), reference.resize_events());
}
