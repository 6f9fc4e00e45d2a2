//! Fault-recovery benchmark: the chaos matrix behind `chaos_bench` and the
//! CI `chaos-smoke` job.
//!
//! Replays one seeded densifying run through every execution backend while a
//! seeded [`FaultPlan`] injects the fault taxonomy — transient op failures,
//! a straggling communication lane, pinned-staging exhaustion, permanent
//! device loss — and once more through the kill → `.clmckpt` snapshot →
//! restore protocol.  Every leg is gated on **bit-identity** against the
//! fault-free synchronous reference: recovery may stretch the schedule, it
//! must never touch the numerics.  The measurements (faults injected,
//! retries paid, backoff seconds, checkpoint size) are emitted as a
//! single-line `clm_chaos_bench_v1` JSON artefact.

use clm_core::{
    ground_truth_images, BatchReport, DensifyConfig, DensifySchedule, SystemKind, TrainConfig,
    Trainer,
};
use clm_runtime::{
    ExecutionBackend, PipelinedEngine, RuntimeConfig, ThreadedBackend, ThreadedConfig,
};
use clm_trace::Checkpoint;
use gs_core::GaussianModel;
use gs_render::Image;
use gs_scene::{
    generate_dataset, init_from_point_cloud, Dataset, DatasetConfig, InitConfig, SceneKind,
    SceneSpec,
};
use sim_device::{FaultPlan, FaultSpec, FaultStats, Lane, RetryPolicy};

/// Workload size of one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosScale {
    /// Gaussians in the synthetic scene the dataset renders.
    pub scene_gaussians: usize,
    /// Camera views (trajectory length = views / batch × epochs).
    pub views: usize,
    /// Render width/height in pixels.
    pub width: u32,
    pub height: u32,
    /// Gaussians the trained model starts with.
    pub init_gaussians: usize,
    /// Views per batch.
    pub batch_size: usize,
    /// Epochs trained.
    pub epochs: usize,
    /// Densify cadence in batches (the run must cross resize boundaries,
    /// otherwise the chaos matrix never proves recovery across one).
    pub densify_every: usize,
    /// Workload seed.
    pub seed: u64,
}

impl ChaosScale {
    /// The CI configuration: small enough for seconds, large enough that
    /// the run crosses densification boundaries and every fault fires.
    pub fn smoke() -> Self {
        ChaosScale {
            scene_gaussians: 400,
            views: 12,
            width: 40,
            height: 30,
            init_gaussians: 150,
            batch_size: 4,
            epochs: 2,
            densify_every: 2,
            seed: 7,
        }
    }
}

/// Seed of the splitmix64 stream the injected fault schedule draws from.
pub const CHAOS_FAULT_SEED: u64 = 0xC4A05;

/// The injected fault schedule: a transient failure on half of the
/// injectable ops plus a 3× straggler on the communication lane and a burst
/// of staging-pool denials — far beyond any realistic fault rate, so the
/// recovery paths are exercised constantly rather than occasionally.
pub fn chaos_fault_spec() -> FaultSpec {
    FaultSpec::new(CHAOS_FAULT_SEED)
        .with_transients(0.5, 48)
        .with_straggler(Lane::GpuComm, 3.0, 8)
        .with_staging_exhaustion(2, 2)
        .with_retry(RetryPolicy::default())
}

/// One leg of the chaos matrix: a backend run under one fault schedule (or
/// the kill/restore protocol), gated on bit-identity.
#[derive(Debug, Clone)]
pub struct ChaosLeg {
    /// Leg name, e.g. `pipelined_faults` or `sharded_device_loss_4to2`.
    pub name: &'static str,
    /// Whether the leg's trajectory matched the fault-free reference bit
    /// for bit (per-batch reports and the final model).
    pub bit_identical: bool,
    /// Faults injected and recovered from during the leg.
    pub stats: FaultStats,
}

/// The chaos matrix outcome plus the artefacts the binary writes.
#[derive(Debug, Clone)]
pub struct ChaosBench {
    /// The workload the matrix ran.
    pub scale: ChaosScale,
    /// Batches per full run.
    pub batches: usize,
    /// Densification boundaries the reference run crossed.
    pub resize_events: usize,
    /// Every leg of the matrix.
    pub legs: Vec<ChaosLeg>,
    /// Encoded `.clmckpt` snapshot taken at the kill boundary (written as
    /// the CI artefact).
    pub checkpoint: Vec<u8>,
    /// Batch index the kill/restore legs snapshot at.
    pub kill_at: usize,
}

impl ChaosBench {
    /// Whether every leg of the matrix stayed bit-identical.
    pub fn all_bit_identical(&self) -> bool {
        self.legs.iter().all(|l| l.bit_identical)
    }

    /// Whether any leg aborted instead of recovering.
    pub fn any_aborts(&self) -> bool {
        self.legs.iter().any(|l| l.stats.aborts > 0)
    }

    /// Total transient failures injected across the matrix — zero means
    /// the matrix was vacuous and the gate must fail.
    pub fn total_transients(&self) -> u64 {
        self.legs.iter().map(|l| l.stats.transients).sum()
    }

    /// Single-line JSON artefact (`clm_chaos_bench_v1`).
    pub fn to_json(&self) -> String {
        let mut legs = String::new();
        for (i, leg) in self.legs.iter().enumerate() {
            if i > 0 {
                legs.push(',');
            }
            let s = &leg.stats;
            legs.push_str(&format!(
                "{{\"name\":\"{}\",\"bit_identical\":{},\"transients\":{},\
                 \"retries\":{},\"backoff_s\":{:.9},\"straggled_ops\":{},\
                 \"straggle_s\":{:.9},\"exhaustion_denials\":{},\
                 \"device_losses\":{},\"timeouts\":{},\"aborts\":{}}}",
                leg.name,
                leg.bit_identical,
                s.transients,
                s.retries,
                s.backoff_seconds,
                s.straggled_ops,
                s.straggle_seconds,
                s.exhaustion_denials,
                s.device_losses,
                s.timeouts,
                s.aborts,
            ));
        }
        format!(
            "{{\"schema\":\"clm_chaos_bench_v1\",\"seed\":{},\"fault_seed\":{},\
             \"batches\":{},\"resize_events\":{},\"kill_at_batch\":{},\
             \"checkpoint_bytes\":{},\"all_bit_identical\":{},\"legs\":[{legs}]}}",
            self.scale.seed,
            CHAOS_FAULT_SEED,
            self.batches,
            self.resize_events,
            self.kill_at,
            self.checkpoint.len(),
            self.all_bit_identical(),
        )
    }
}

/// Shape check for the written artefact (CI re-reads the file through this
/// before trusting the gate).
pub fn looks_like_chaos_json(s: &str) -> bool {
    let t = s.trim();
    t.starts_with('{')
        && t.ends_with('}')
        && t.lines().count() == 1
        && t.contains("\"schema\":\"clm_chaos_bench_v1\"")
        && t.contains("\"legs\":[")
        && t.contains("\"all_bit_identical\":")
}

struct Workload {
    dataset: Dataset,
    targets: Vec<Image>,
    init: GaussianModel,
    train: TrainConfig,
    slices: Vec<std::ops::Range<usize>>,
}

fn build_workload(scale: &ChaosScale) -> Workload {
    let dataset = generate_dataset(
        &SceneSpec::of(SceneKind::Rubble),
        &DatasetConfig {
            num_gaussians: scale.scene_gaussians,
            num_views: scale.views,
            width: scale.width,
            height: scale.height,
            seed: scale.seed,
        },
    );
    let targets = ground_truth_images(&dataset);
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: scale.init_gaussians,
            initial_opacity: 0.3,
            seed: scale.seed + 1,
            ..Default::default()
        },
    );
    let train = TrainConfig {
        system: SystemKind::Clm,
        batch_size: scale.batch_size,
        seed: scale.seed,
        densify: Some(DensifySchedule {
            every_batches: scale.densify_every,
            config: DensifyConfig {
                grad_threshold: 1.0e-5,
                prune_opacity: 0.305,
                max_gaussians: scale.init_gaussians + 40,
                seed: scale.seed + 2,
                ..Default::default()
            },
        }),
        ..Default::default()
    };
    let per_epoch = {
        let mut slices = Vec::new();
        let mut start = 0;
        while start < scale.views {
            let end = (start + scale.batch_size).min(scale.views);
            slices.push(start..end);
            start = end;
        }
        slices
    };
    let mut slices = Vec::new();
    for _ in 0..scale.epochs {
        slices.extend(per_epoch.iter().cloned());
    }
    Workload {
        dataset,
        targets,
        init,
        train,
        slices,
    }
}

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

struct Reference {
    reports: Vec<BatchReport>,
    final_model: GaussianModel,
    resize_events: usize,
}

fn run_reference(w: &Workload) -> Reference {
    let mut trainer = Trainer::new(w.init.clone(), w.train.clone());
    let mut reports = Vec::new();
    for range in &w.slices {
        reports.push(
            trainer.train_batch(&w.dataset.cameras[range.clone()], &w.targets[range.clone()]),
        );
    }
    Reference {
        reports,
        final_model: trainer.model().clone(),
        resize_events: trainer.resize_events(),
    }
}

fn run_range(
    backend: &mut dyn ExecutionBackend,
    w: &Workload,
    from: usize,
    to: usize,
    reports: &mut Vec<BatchReport>,
) {
    for range in &w.slices[from..to] {
        let report =
            backend.execute_batch(&w.dataset.cameras[range.clone()], &w.targets[range.clone()]);
        reports.push(report.batch);
    }
}

fn matches_reference(
    backend: &dyn ExecutionBackend,
    reports: &[BatchReport],
    reference: &Reference,
) -> bool {
    reports == reference.reports.as_slice() && backend.trainer().model() == &reference.final_model
}

/// The backend a leg runs on: the simulated engine at a device count, or
/// the threaded backend.
#[derive(Clone, Copy)]
enum LegBackend {
    Simulated(usize),
    Threaded,
}

impl LegBackend {
    /// Builds the backend around a fresh model, or around a trainer
    /// restored from a checkpoint.
    fn build(self, w: &Workload, restored: Option<Trainer>) -> Box<dyn ExecutionBackend> {
        let trainer = restored.unwrap_or_else(|| Trainer::new(w.init.clone(), w.train.clone()));
        match self {
            LegBackend::Simulated(devices) => Box::new(
                PipelinedEngine::with_trainer(trainer, runtime_config(devices))
                    .partition_over(&w.dataset.cameras),
            ),
            LegBackend::Threaded => {
                Box::new(ThreadedBackend::with_trainer(trainer, threaded_config()))
            }
        }
    }
}

/// Runs one full leg under `spec`'s fault schedule.
fn faulted_leg(
    name: &'static str,
    reference: &Reference,
    w: &Workload,
    on: LegBackend,
    spec: FaultSpec,
) -> (ChaosLeg, Box<dyn ExecutionBackend>) {
    let plan = FaultPlan::new(spec);
    let mut backend = on.build(w, None);
    backend.install_fault_plan(plan.clone());
    let mut reports = Vec::new();
    run_range(backend.as_mut(), w, 0, w.slices.len(), &mut reports);
    let leg = ChaosLeg {
        name,
        bit_identical: matches_reference(backend.as_ref(), &reports, reference),
        stats: plan.stats(),
    };
    (leg, backend)
}

fn kill_restore_leg(
    name: &'static str,
    reference: &Reference,
    w: &Workload,
    kill_at: usize,
    on: LegBackend,
) -> (ChaosLeg, Vec<u8>) {
    let mut first = on.build(w, None);
    let mut reports = Vec::new();
    run_range(first.as_mut(), w, 0, kill_at, &mut reports);
    let bytes = Checkpoint::capture(first.trainer(), None).encode();
    drop(first); // the "kill": only the checkpoint bytes survive

    let restored = Checkpoint::decode(&bytes)
        .expect("checkpoint bytes round-trip")
        .restore(w.train.clone())
        .expect("checkpoint restores against the run's config");
    let mut resumed = on.build(w, Some(restored));
    run_range(resumed.as_mut(), w, kill_at, w.slices.len(), &mut reports);
    let leg = ChaosLeg {
        name,
        bit_identical: matches_reference(resumed.as_ref(), &reports, reference),
        stats: FaultStats::default(),
    };
    (leg, bytes)
}

/// Runs the full chaos matrix at one scale.
pub fn run_chaos_bench(scale: ChaosScale) -> ChaosBench {
    let w = build_workload(&scale);
    let reference = run_reference(&w);
    // Kill past the midpoint so the snapshot carries a non-trivial batch
    // cursor, accumulated gradient norms and resize history.
    let kill_at = w.slices.len() / 2 + 1;
    let mut legs = Vec::new();

    // Fault legs: transients + straggler + staging exhaustion per backend.
    for (name, on) in [
        ("pipelined_faults", LegBackend::Simulated(1)),
        ("threaded_faults", LegBackend::Threaded),
        ("sharded4_faults", LegBackend::Simulated(4)),
    ] {
        legs.push(faulted_leg(name, &reference, &w, on, chaos_fault_spec()).0);
    }

    // Device loss: D=4 loses two devices at the second batch boundary and
    // finishes on the survivors (the trainer mirrors the engine's device
    // count, so the survivor count is visible through the trait).
    let (mut leg, survivor) = faulted_leg(
        "sharded_device_loss_4to2",
        &reference,
        &w,
        LegBackend::Simulated(4),
        FaultSpec::new(CHAOS_FAULT_SEED).with_device_loss(2, 2),
    );
    leg.bit_identical &= survivor.trainer().config().num_devices == 2;
    legs.push(leg);

    // Kill → checkpoint → restore per backend.  The pipelined leg's bytes
    // become the published `.clmckpt` artefact.
    let (leg, checkpoint) = kill_restore_leg(
        "pipelined_kill_restore",
        &reference,
        &w,
        kill_at,
        LegBackend::Simulated(1),
    );
    legs.push(leg);
    for (name, on) in [
        ("threaded_kill_restore", LegBackend::Threaded),
        ("sharded2_kill_restore", LegBackend::Simulated(2)),
    ] {
        legs.push(kill_restore_leg(name, &reference, &w, kill_at, on).0);
    }

    ChaosBench {
        scale,
        batches: w.slices.len(),
        resize_events: reference.resize_events,
        legs,
        checkpoint,
        kill_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_recovers_bit_identically_everywhere() {
        let bench = run_chaos_bench(ChaosScale::smoke());
        for leg in &bench.legs {
            assert!(leg.bit_identical, "{} diverged: {leg:?}", leg.name);
            assert_eq!(leg.stats.aborts, 0, "{} aborted: {leg:?}", leg.name);
        }
        assert!(bench.total_transients() > 0, "the fault matrix was vacuous");
        assert!(
            bench.resize_events >= 2,
            "the chaos workload must densify: {bench:?}"
        );
        assert!(!bench.checkpoint.is_empty());
        let decoded = Checkpoint::decode(&bench.checkpoint).expect("artefact decodes");
        assert_eq!(decoded.batches_trained, bench.kill_at as u64);
    }

    #[test]
    fn json_artefact_is_well_formed() {
        let bench = run_chaos_bench(ChaosScale::smoke());
        let json = bench.to_json();
        assert!(looks_like_chaos_json(&json), "malformed: {json}");
        assert!(json.contains("\"name\":\"sharded_device_loss_4to2\""));
        assert!(json.contains("\"name\":\"pipelined_kill_restore\""));
        assert!(!looks_like_chaos_json("{}"));
        assert!(!looks_like_chaos_json("not json"));
    }
}
