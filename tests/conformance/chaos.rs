//! Chaos leg of the cross-backend conformance suite, and the repo's one
//! fault-recovery gate.
//!
//! The fault-injection contract mirrors the scheduling contract the rest of
//! the suite enforces: faults (and the retries, backoff and repartitioning
//! that recover from them) change *when and where* work runs, never *what*
//! is computed.  Three gates, all on the seeded densifying scenario:
//!
//! 1. A seeded [`FaultPlan`] of transient op failures, a straggling lane and
//!    a burst of staging-pool denials, replayed through every backend,
//!    leaves the trajectory bit-identical to the fault-free reference.
//! 2. A run killed at a batch boundary, snapshotted to the `.clmckpt` byte
//!    format, decoded and restored into a fresh engine finishes the
//!    remaining batches bit-identically — through every backend.
//! 3. A multi-device [`PipelinedEngine`] that permanently loses devices
//!    (4 → 2) mid-run drains at the boundary, repartitions onto the
//!    survivors and finishes bit-identical to the fault-free run (which is
//!    itself device-count invariant).
//!
//! Bit-identity within one build would not catch a change that moves every
//! leg together, so the fault counters of gate 1 and the snapshot of gate 2
//! are also pinned across commits ([`FAULT_GOLDEN`], [`CHECKPOINT_BYTES`],
//! [`CHECKPOINT_FNV1A`]): both are functions of the scenario and the leg
//! only.  A change meant to move them re-pins them in a commit of its own.

use clm_repro::clm_core::Trainer;
use clm_repro::clm_runtime::{
    ExecutionBackend, PipelinedEngine, RuntimeConfig, ThreadedBackend, ThreadedConfig,
};
use clm_repro::clm_trace::Checkpoint;
use clm_repro::sim_device::{FaultPlan, FaultSpec, FaultStats, Lane};

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

/// The seeded chaos schedule the matrix runs: a transient failure on half
/// of the injectable ops, a straggling communication lane and two denied
/// staging-pool acquisitions.  Dialled up far beyond anything realistic so
/// every backend demonstrably recovers.
fn chaos_spec() -> FaultSpec {
    FaultSpec::new(0xC4A05)
        .with_transients(0.5, 48)
        .with_straggler(Lane::GpuComm, 3.0, 8)
        .with_staging_exhaustion(2, 2)
}

/// What [`chaos_spec`] injects on each fault leg, counter for counter.  A
/// simulated row applies only when `CONFORMANCE_DEVICES` selects its device
/// count.  The threaded backend straggles real spans, which carry no
/// pre-known duration, so it accounts no straggle seconds.
const FAULT_GOLDEN: [(&str, FaultStats); 4] = [
    (
        "simulated@1",
        injected(16, 36, 0x3f7d7dbf487fcb94, 0x3f25030c9be50e66),
    ),
    ("threaded", injected(22, 47, 0x3f82d77318fc5047, 0x0)),
    (
        "simulated@2",
        injected(34, 73, 0x3f8cac083126e978, 0x3f27a292a058e0fa),
    ),
    (
        "simulated@4",
        injected(48, 103, 0x3f94467381d7dbf3, 0x3f2ce604f92e6aa5),
    ),
];

/// One [`FAULT_GOLDEN`] row: every leg straggles 8 ops, is denied 2
/// acquisitions and recovers without a timeout or an abort.  The seconds
/// are given as bits.
const fn injected(transients: u64, retries: u64, backoff: u64, straggle: u64) -> FaultStats {
    FaultStats {
        transients,
        retries,
        backoff_seconds: f64::from_bits(backoff),
        straggled_ops: 8,
        straggle_seconds: f64::from_bits(straggle),
        exhaustion_denials: 2,
        device_losses: 0,
        timeouts: 0,
        aborts: 0,
    }
}

/// Asserts one fault leg recovered and, where [`FAULT_GOLDEN`] has its row,
/// injected exactly the pinned faults.
fn assert_faults(leg: &str, stats: FaultStats) {
    assert!(stats.transients > 0, "{leg}: {stats:?}");
    assert!(stats.straggled_ops > 0, "{leg}: {stats:?}");
    assert_eq!(stats.exhaustion_denials, 2, "{leg}: {stats:?}");
    assert_eq!(stats.aborts, 0, "{leg}: {stats:?}");
    let Some((_, golden)) = FAULT_GOLDEN.iter().find(|(name, _)| *name == leg) else {
        return;
    };
    assert_eq!(stats, *golden, "{leg}: fault counters moved");
    // `==` would let -0.0 stand for +0.0; the seconds are pinned as bits.
    let bits = |s: &FaultStats| (s.backoff_seconds.to_bits(), s.straggle_seconds.to_bits());
    assert_eq!(bits(&stats), bits(golden), "{leg}: fault seconds moved");
}

/// Length of the `.clmckpt` snapshot the kill/restore legs take.
const CHECKPOINT_BYTES: usize = 31_402;

/// FNV-1a 64 of that snapshot: the trainer state is backend-agnostic, so
/// every backend writes the same bytes.
const CHECKPOINT_FNV1A: u64 = 0xf51ee40c0f8a2159;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

#[test]
fn injected_faults_never_change_the_trajectory() {
    let scenario = densifying_scenario();
    let reference = run_backend(&mut scenario.trainer(), &scenario, EPOCHS);
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
    assert_faults("threaded", plan.stats());

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
        let leg = format!("simulated@{devices}");
        assert_trajectories_match(&reference, &t, &format!("{leg}+faults"));
        assert_faults(&leg, plan.stats());
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
    let reference = run_backend(&mut scenario.trainer(), &scenario, EPOCHS);
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
    let synchronous: Build<'_> = Box::new(|trainer| Box::new(trainer));
    let threaded: Build<'_> =
        Box::new(|trainer| Box::new(ThreadedBackend::with_trainer(trainer, threaded_config())));
    for (label, build, legacy_ratio) in [
        ("synchronous", synchronous, None),
        ("simulated@1", simulated(1), None),
        ("threaded", threaded, None),
        ("simulated@2", simulated(2), None),
        ("simulated@1 legacy warm flag", simulated(1), Some(0.125)),
    ] {
        let mut first = build(scenario.trainer());
        let mut trajectory = Trajectory {
            reports: Vec::new(),
            model_sizes: Vec::new(),
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
        if legacy_ratio.is_none() {
            assert_eq!(bytes.len(), CHECKPOINT_BYTES, "{label}");
            assert_eq!(fnv1a(&bytes), CHECKPOINT_FNV1A, "{label}");
        }

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
    let reference = run_backend(&mut scenario.trainer(), &scenario, EPOCHS);
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
