//! Chaos leg of the cross-backend conformance suite.
//!
//! The fault-injection contract mirrors the scheduling contract the rest of
//! the suite enforces: faults (and the retries, backoff and repartitioning
//! that recover from them) change *when and where* work runs, never *what*
//! is computed.  Three gates, all on the seeded densifying scenario:
//!
//! 1. A seeded [`FaultPlan`] of transient op failures plus a straggling lane,
//!    replayed through every backend, leaves the trajectory bit-identical to
//!    the fault-free reference.
//! 2. A run killed at a batch boundary, snapshotted to the `.clmckpt` byte
//!    format, decoded and restored into a fresh engine finishes the
//!    remaining batches bit-identically — through every backend.
//! 3. A multi-device [`PipelinedEngine`] that permanently loses devices
//!    (4 → 2) mid-run drains at the boundary, repartitions onto the
//!    survivors and finishes bit-identical to the fault-free run (which is
//!    itself device-count invariant).

use clm_repro::clm_core::Trainer;
use clm_repro::clm_runtime::{
    ExecutionBackend, PipelinedEngine, RuntimeConfig, ThreadedBackend, ThreadedConfig,
};
use clm_repro::clm_trace::Checkpoint;
use clm_repro::sim_device::{FaultPlan, FaultSpec, Lane};

use crate::harness::*;

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

/// The seeded chaos schedule the matrix runs: a high transient rate on the
/// injectable op kinds plus a straggling communication lane.  Dialled up far
/// beyond anything realistic so every backend demonstrably recovers.
fn chaos_spec() -> FaultSpec {
    FaultSpec::new(0xC4A05)
        .with_transients(0.5, 32)
        .with_straggler(Lane::GpuComm, 3.0, 6)
}

#[test]
fn injected_faults_never_change_the_trajectory() {
    let scenario = densifying_scenario();
    let reference = run_reference(&scenario, EPOCHS);
    assert_densification_exercised(&reference);

    let plan = FaultPlan::new(chaos_spec());
    let mut threaded = ThreadedBackend::new(
        scenario.init.clone(),
        scenario.train.clone(),
        threaded_config(),
    );
    threaded.install_fault_plan(plan.clone());
    let t = run_backend(&mut threaded, &scenario, EPOCHS);
    assert_trajectories_match(&reference, &t, "threaded+faults");
    let stats = plan.stats();
    assert!(stats.transients > 0, "plan injected nothing: {stats:?}");
    assert_eq!(stats.aborts, 0, "recovery must not abort: {stats:?}");

    for devices in conformance_devices() {
        let plan = FaultPlan::new(chaos_spec());
        let mut engine = PipelinedEngine::new(
            scenario.init.clone(),
            scenario.train.clone(),
            runtime_config(devices),
        )
        .partition_over(&scenario.dataset.cameras);
        engine.install_fault_plan(plan.clone());
        let t = run_backend(&mut engine, &scenario, EPOCHS);
        assert_trajectories_match(&reference, &t, &format!("simulated@{devices}+faults"));
        let stats = plan.stats();
        assert!(stats.transients > 0, "plan injected nothing: {stats:?}");
        assert!(stats.straggled_ops > 0, "straggler never fired: {stats:?}");
        assert_eq!(stats.aborts, 0, "recovery must not abort: {stats:?}");
    }
}

/// Runs `backend` over `slices[from..to]` (one flattened multi-epoch batch
/// sequence) and extends the trajectory capture in place.
fn run_slice_range(
    backend: &mut dyn ExecutionBackend,
    scenario: &Scenario,
    slices: &[std::ops::Range<usize>],
    from: usize,
    to: usize,
    trajectory: &mut Trajectory,
) {
    for range in &slices[from..to] {
        let report = backend.execute_batch(
            &scenario.dataset.cameras[range.clone()],
            &scenario.targets[range.clone()],
        );
        trajectory.resizes.push(report.resize);
        trajectory.reports.push(report.batch);
        trajectory.model_sizes.push(backend.trainer().model().len());
    }
}

/// All batch slices of the full acceptance run, in trajectory order.
fn all_slices(scenario: &Scenario) -> Vec<std::ops::Range<usize>> {
    let per_epoch = batch_slices(scenario.dataset.cameras.len(), scenario.train.batch_size);
    let mut slices = Vec::new();
    for _ in 0..EPOCHS {
        slices.extend(per_epoch.iter().cloned());
    }
    slices
}

#[test]
fn kill_and_restore_from_checkpoint_is_bit_identical() {
    let scenario = densifying_scenario();
    let reference = run_reference(&scenario, EPOCHS);
    assert_densification_exercised(&reference);
    let slices = all_slices(&scenario);
    // Kill past the first densify boundary so the snapshot carries a
    // non-trivial cursor, accumulated gradient norms and resize history.
    let kill_at = slices.len() / 2 + 1;
    assert!(
        kill_at < slices.len(),
        "the kill must leave batches to replay"
    );

    // One protocol for every backend kind (the checkpoint is
    // backend-agnostic trainer state): train to the kill point, snapshot
    // through the full byte round-trip, restore into a fresh backend of the
    // same kind and finish.  The last row writes the snapshot with the
    // legacy warm-start flag set, which no current writer does: such a file
    // must decode, restore and train on to the same bits as one without.
    type Build<'a> = Box<dyn Fn(Trainer) -> Box<dyn ExecutionBackend> + 'a>;
    let simulated = |devices: usize| -> Build<'_> {
        let cameras = &scenario.dataset.cameras;
        Box::new(move |trainer| {
            let engine = PipelinedEngine::with_trainer(trainer, runtime_config(devices));
            Box::new(engine.partition_over(cameras))
        })
    };
    let threaded: Build<'_> =
        Box::new(|trainer| Box::new(ThreadedBackend::with_trainer(trainer, threaded_config())));
    for (label, build, legacy_ratio) in [
        ("simulated@1", simulated(1), None),
        ("threaded", threaded, None),
        ("simulated@2", simulated(2), None),
        ("simulated@1 legacy warm flag", simulated(1), Some(0.125)),
    ] {
        let fresh = Trainer::new(scenario.init.clone(), scenario.train.clone());
        let mut first = build(fresh);
        let mut trajectory = Trajectory {
            reports: Vec::new(),
            model_sizes: Vec::new(),
            resizes: Vec::new(),
            final_model: clm_repro::gs_core::GaussianModel::new(),
        };
        run_slice_range(
            first.as_mut(),
            &scenario,
            &slices,
            0,
            kill_at,
            &mut trajectory,
        );
        let bytes = Checkpoint::capture(first.trainer(), legacy_ratio).encode();
        drop(first); // the "kill": nothing survives but the checkpoint bytes

        let decoded = Checkpoint::decode(&bytes).expect("checkpoint bytes round-trip");
        assert_eq!(decoded.batches_trained, kill_at as u64, "{label}");
        assert_eq!(decoded.warm_start_ratio, legacy_ratio, "{label}");
        let trainer = decoded
            .restore(scenario.train.clone())
            .expect("checkpoint restores against the run's config");
        let mut resumed = build(trainer);
        run_slice_range(
            resumed.as_mut(),
            &scenario,
            &slices,
            kill_at,
            slices.len(),
            &mut trajectory,
        );
        trajectory.final_model = resumed.trainer().model().clone();
        assert_trajectories_match(&reference, &trajectory, &format!("{label} kill+restore"));
    }
}

#[test]
fn device_loss_mid_run_finishes_bit_identically() {
    let scenario = densifying_scenario();
    let reference = run_reference(&scenario, EPOCHS);
    assert_densification_exercised(&reference);

    // Lose half the devices after the second batch; the survivors must
    // carry the run to the same final bits as the fault-free reference
    // (the trajectory is device-count invariant, so "same as D=2" and
    // "same as the reference" are the same gate).
    let plan = FaultPlan::new(FaultSpec::new(0xDEAD).with_device_loss(2, 2));
    let mut sharded = PipelinedEngine::new(
        scenario.init.clone(),
        scenario.train.clone(),
        runtime_config(4),
    )
    .partition_over(&scenario.dataset.cameras);
    sharded.install_fault_plan(plan.clone());
    let t = run_backend(&mut sharded, &scenario, EPOCHS);
    assert_trajectories_match(&reference, &t, "sharded device-loss 4->2");
    assert_eq!(plan.stats().device_losses, 1, "the loss fires exactly once");
    assert_eq!(sharded.config().num_devices, 2);
    assert_eq!(sharded.partition().device_counts().len(), 2);
    assert_eq!(
        sharded.partition().device_counts().iter().sum::<usize>(),
        t.final_model.len(),
        "the post-loss repartition must cover the whole model"
    );
}
