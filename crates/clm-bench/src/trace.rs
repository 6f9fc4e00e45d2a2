//! Op-trace recording harness: trains one seeded scene on a chosen execution
//! backend and captures every operation into a [`clm_trace::Trace`].
//!
//! This is the producer end of the trace pipeline; the `trace_record`,
//! `trace_replay` and `trace_report` binaries are thin wrappers.  Two kinds
//! of trace come out depending on the backend:
//!
//! * **Simulated schedules** (`simulated`, `sharded`) — flushed straight
//!   from the discrete-event [`Timeline`] each batch executes on, complete
//!   with dependency edges and exact scheduled durations.  These replay
//!   deterministically offline (`clm_trace::verify_exact`) and support
//!   what-if knob replays (prefetch window, device count, cost scaling).
//! * **Measured spans** (`synchronous`, `threaded`) — wall-clock intervals
//!   bracketing the real phases (gathers, render, CPU Adam), with no
//!   dependency structure.  These feed the report/Chrome-trace pipeline but
//!   refuse exact replay (there is no schedule to re-simulate).
//!
//! The workload is a [`TraceScale`]: a fixed-seed Rubble scene that
//! densifies mid-epoch, priced at paper scale on the simulated backends, so
//! a recording is an exact function of `(backend, scale)`.

use crate::runtime_reports::{PAPER_SCALE_GAUSSIANS, PAPER_SCALE_PIXELS};
use clm_core::{
    ground_truth_images, DensifyConfig, DensifySchedule, SystemKind, TrainConfig, Trainer,
    GRADIENT_BYTES,
};
use clm_runtime::{
    PipelinedEngine, RuntimeConfig, ThreadedBackend, ThreadedConfig, PEER_HOP_FACTOR,
};
use clm_trace::{CostParams, Trace, TraceMeta, TraceWriter};
use gs_core::gaussian::GaussianModel;
use gs_render::Image;
use gs_scene::{
    generate_dataset, init_from_point_cloud, Dataset, DatasetConfig, InitConfig, SceneKind,
    SceneSpec,
};
use sim_device::{DeviceProfile, HostTopology, Timeline};

/// Seed of the generated dataset, recorded in every trace header.
pub const DATASET_SEED: u64 = 29;

/// Workload of one recorded run.
#[derive(Debug, Clone)]
pub struct TraceScale {
    /// Label in the trace header's scene name (`"smoke"`, `"full"`, …).
    pub label: &'static str,
    /// Gaussians in the synthetic ground-truth scene.
    pub scene_gaussians: usize,
    /// Gaussians in the trained model.
    pub model_gaussians: usize,
    /// Number of posed views (each epoch trains all of them once).
    pub views: usize,
    /// Render resolution.
    pub width: u32,
    /// Render resolution.
    pub height: u32,
    /// Views per batch.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Prefetch lookahead window.
    pub prefetch_window: usize,
    /// Simulated devices for the `sharded` backend.
    pub devices: usize,
    /// Densify every this many batches (0 = fixed-size model), so recorded
    /// schedules cross resize boundaries.
    pub densify_every: usize,
}

impl TraceScale {
    /// Tiny configuration for CI smoke runs (a few seconds on one core).
    pub fn smoke() -> Self {
        TraceScale {
            label: "smoke",
            scene_gaussians: 1_000,
            model_gaussians: 420,
            views: 16,
            width: 80,
            height: 64,
            batch_size: 8,
            epochs: 3,
            prefetch_window: 2,
            devices: 1,
            densify_every: 2,
        }
    }

    /// A longer run at a larger resolution.
    pub fn full() -> Self {
        TraceScale {
            label: "full",
            scene_gaussians: 1_600,
            model_gaussians: 700,
            views: 24,
            width: 96,
            height: 80,
            batch_size: 8,
            epochs: 4,
            prefetch_window: 2,
            devices: 1,
            densify_every: 2,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn test() -> Self {
        TraceScale {
            label: "test",
            scene_gaussians: 200,
            model_gaussians: 90,
            views: 8,
            width: 32,
            height: 24,
            batch_size: 4,
            epochs: 1,
            prefetch_window: 1,
            devices: 2,
            densify_every: 1,
        }
    }

    /// The dataset, its ground-truth images and the initial model.
    fn scene(&self) -> (Dataset, Vec<Image>, GaussianModel) {
        let spec = SceneSpec::of(SceneKind::Rubble);
        let dataset = generate_dataset(
            &spec,
            &DatasetConfig {
                num_gaussians: self.scene_gaussians,
                num_views: self.views,
                width: self.width,
                height: self.height,
                seed: DATASET_SEED,
            },
        );
        let targets = ground_truth_images(&dataset);
        let init = init_from_point_cloud(
            &dataset.ground_truth,
            &InitConfig {
                num_gaussians: self.model_gaussians,
                initial_sigma: spec.extent * 0.03,
                initial_opacity: 0.4,
                seed: 3,
                ..Default::default()
            },
        );
        (dataset, targets, init)
    }

    fn train_config(&self) -> TrainConfig {
        TrainConfig {
            system: SystemKind::Clm,
            batch_size: self.batch_size,
            densify: (self.densify_every > 0).then(|| DensifySchedule {
                every_batches: self.densify_every,
                config: DensifyConfig {
                    // Low gradient threshold so the model grows towards its
                    // cap at the first boundary and the trace carries real
                    // resize ops.
                    grad_threshold: 1.0e-5,
                    max_gaussians: self.model_gaussians + self.model_gaussians / 8,
                    ..Default::default()
                },
            }),
            ..Default::default()
        }
    }

    /// Paper-scale costing of the simulated engine at `devices` lane groups:
    /// the scene priced as the paper's 45.2 M-Gaussian, 1080p workload, so
    /// recorded schedules stay in the bandwidth-bound regime.
    fn runtime_config(&self, model_len: usize, devices: usize) -> RuntimeConfig {
        RuntimeConfig {
            device: DeviceProfile::rtx4090(),
            prefetch_window: self.prefetch_window,
            cost_scale: PAPER_SCALE_GAUSSIANS / model_len as f64,
            pixel_cost_scale: PAPER_SCALE_PIXELS / (self.width as f64 * self.height as f64),
            compute_threads: 0,
            band_height: 0,
            num_devices: devices,
            ..Default::default()
        }
    }
}

/// Backends the recorder knows how to trace, in documentation order.
pub const TRACE_BACKENDS: [&str; 4] = ["synchronous", "simulated", "threaded", "sharded"];

/// Records one full training run of `backend` at `scale` into a trace.
///
/// `backend` must be one of [`TRACE_BACKENDS`]; the sharded entry honours
/// `scale.devices`, everything else runs single-device.
pub fn record_trace(backend: &str, scale: &TraceScale) -> Result<Trace, String> {
    let (dataset, targets, init) = scale.scene();
    let model_len = init.len();
    let devices = if backend == "sharded" {
        scale.devices.max(1)
    } else {
        1
    };
    let mut writer = TraceWriter::new(trace_meta(backend, scale, model_len, devices));
    match backend {
        "synchronous" => record_synchronous(&mut writer, scale, &dataset, &targets, init),
        "simulated" | "sharded" => {
            record_simulated(&mut writer, scale, &dataset, &targets, init, devices)
        }
        "threaded" => record_threaded(&mut writer, scale, &dataset, &targets, init),
        other => {
            return Err(format!(
                "unknown backend {other:?} (expected one of {TRACE_BACKENDS:?})"
            ))
        }
    }
    Ok(writer.finish())
}

/// The trace header for one recorded run: workload identity plus the
/// cost-model constants device-count replays re-price communication with.
fn trace_meta(backend: &str, scale: &TraceScale, model_len: usize, devices: usize) -> TraceMeta {
    let profile = DeviceProfile::rtx4090();
    TraceMeta {
        backend: backend.to_string(),
        scene: format!("rubble-{}", scale.label),
        devices: devices as u32,
        prefetch_window: scale.prefetch_window as u32,
        seed: DATASET_SEED,
        cost: CostParams {
            pcie_latency_s: profile.pcie_latency,
            pcie_bandwidth: profile.pcie_bandwidth,
            cost_scale: PAPER_SCALE_GAUSSIANS / model_len as f64,
            peer_hop_factor: PEER_HOP_FACTOR,
            gradient_bytes: GRADIENT_BYTES as u64,
        },
    }
}

/// Iterates the run's batches in the order every backend trains them:
/// `(epoch, batch-within-epoch, view range)`.
fn batch_ranges(scale: &TraceScale, views: usize) -> Vec<(u64, u64, usize, usize)> {
    let batch = scale.batch_size.max(1);
    let mut out = Vec::new();
    for epoch in 0..scale.epochs {
        let mut view = 0;
        let mut b = 0u64;
        while view < views {
            let end = (view + batch).min(views);
            out.push((epoch as u64, b, view, end));
            view = end;
            b += 1;
        }
    }
    out
}

fn record_synchronous(
    writer: &mut TraceWriter,
    scale: &TraceScale,
    dataset: &Dataset,
    targets: &[Image],
    init: GaussianModel,
) {
    let mut trainer = Trainer::new(init, scale.train_config());
    for (epoch, b, lo, hi) in batch_ranges(scale, dataset.cameras.len()) {
        let mut timeline = Timeline::new();
        trainer.train_batch_spanned(&dataset.cameras[lo..hi], &targets[lo..hi], &mut timeline);
        writer.record_timeline(epoch, b, &timeline);
    }
}

fn record_simulated(
    writer: &mut TraceWriter,
    scale: &TraceScale,
    dataset: &Dataset,
    targets: &[Image],
    init: GaussianModel,
    devices: usize,
) {
    let config = scale.runtime_config(init.len(), devices);
    let mut engine =
        PipelinedEngine::new(init, scale.train_config(), config).partition_over(&dataset.cameras);
    for (epoch, b, lo, hi) in batch_ranges(scale, dataset.cameras.len()) {
        let report = engine.run_batch(&dataset.cameras[lo..hi], &targets[lo..hi]);
        writer.record_timeline(epoch, b, &report.timeline);
    }
}

fn record_threaded(
    writer: &mut TraceWriter,
    scale: &TraceScale,
    dataset: &Dataset,
    targets: &[Image],
    init: GaussianModel,
) {
    let mut backend = ThreadedBackend::new(
        init,
        scale.train_config(),
        ThreadedConfig {
            prefetch_window: scale.prefetch_window,
            ..Default::default()
        },
    );
    for (epoch, b, lo, hi) in batch_ranges(scale, dataset.cameras.len()) {
        let (_report, timeline) =
            backend.run_batch_traced(&dataset.cameras[lo..hi], &targets[lo..hi]);
        writer.record_timeline(epoch, b, &timeline);
    }
}

/// One line of run context for the binaries' stderr chatter.
pub fn describe(trace: &Trace) -> String {
    format!(
        "backend={} scene={} devices={} window={} events={} batches={} deps={}",
        trace.meta.backend,
        trace.meta.scene,
        trace.meta.devices,
        trace.meta.prefetch_window,
        trace.events.len(),
        trace.batches().len(),
        if trace.has_deps() {
            "scheduled"
        } else {
            "measured"
        },
    )
}

/// Host-cores note for measured-span traces: on a single core the spans
/// time-slice, so overlap in the trace under-represents a multi-core run.
pub fn span_capture_note() -> Option<String> {
    let cores = HostTopology::cached().effective_cores();
    (cores == 1).then(|| {
        format!(
            "warning: recorded on {cores} core — measured spans time-slice \
             instead of overlapping"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clm_trace::{replay_exact, verify_exact, TraceReport};

    /// Record → encode → decode round-trips bit-exactly for every backend,
    /// and each trace is non-trivial (covers the whole run's batches).
    #[test]
    fn all_four_backends_record_and_round_trip() {
        let scale = TraceScale::test();
        let expected_batches = batch_ranges(&scale, scale.views).len();
        for backend in TRACE_BACKENDS {
            let trace = record_trace(backend, &scale).unwrap();
            assert_eq!(trace.meta.backend, backend);
            assert!(!trace.events.is_empty(), "{backend}: empty trace");
            assert_eq!(
                trace.batches().len(),
                expected_batches,
                "{backend}: missing batches"
            );
            let decoded = Trace::decode(&trace.encode()).unwrap();
            assert_eq!(decoded, trace, "{backend}: decode diverged");
            assert_eq!(
                decoded.encode(),
                trace.encode(),
                "{backend}: non-canonical encoding"
            );
            // Simulated schedules carry dependency edges; measured spans
            // never do.
            let scheduled = backend == "simulated" || backend == "sharded";
            assert_eq!(trace.has_deps(), scheduled, "{backend}");
            // Every trace reports, whichever kind it is.
            let report = TraceReport::build(&trace);
            assert!(report.total_makespan_s > 0.0, "{backend}");
            assert_eq!(report.critical.is_some(), scheduled, "{backend}");
        }
    }

    /// Replaying a scheduled trace with unchanged knobs reproduces the
    /// recorded critical path and per-lane busy totals bit for bit — the
    /// acceptance bar the CI trace-smoke job holds release builds to.
    #[test]
    fn unchanged_replay_is_bit_identical() {
        let scale = TraceScale::test();
        let trace = record_trace("simulated", &scale).unwrap();
        let replays = verify_exact(&trace).unwrap();
        assert_eq!(replays.len(), trace.batches().len());
        for (replay, (_, _, events)) in replays.iter().zip(trace.batches()) {
            let recorded_end = events.iter().map(|e| e.end().to_bits()).max();
            let replayed_end = replay.timeline.ops().iter().map(|o| o.end.to_bits()).max();
            assert_eq!(recorded_end, replayed_end);
        }
    }

    /// What-if window replays of a real single-device recording through
    /// the one rebuild path, against fingerprints captured from the
    /// dedicated single-device rebuild (and the re-sharding rebuild) before
    /// they were merged: at `devices = 1` every recorded duration survives
    /// — resize ops and un-round real costs included — even with the cost
    /// header wiped.
    #[test]
    fn window_replays_of_a_real_recording_match_the_pre_merge_rebuilds() {
        use clm_trace::{replay_with_knobs, CostParams, ReplayKnobs};
        let mut trace = record_trace("simulated", &TraceScale::test()).unwrap();
        assert_eq!(trace.meta.prefetch_window, 1);
        let fingerprint = |trace: &Trace, window: usize, devices: usize| {
            let knobs = ReplayKnobs {
                window: Some(window),
                devices: Some(devices),
                ..Default::default()
            };
            replay_with_knobs(trace, &knobs)
                .unwrap()
                .iter()
                .fold(0u64, |acc, r| acc.rotate_left(7) ^ r.timeline.fingerprint())
        };
        let resharded = [fingerprint(&trace, 0, 2), fingerprint(&trace, 2, 2)];
        trace.meta.cost = CostParams::default();
        let single = [0, 2, 3].map(|window| fingerprint(&trace, window, 1));
        // Re-pinned once since, with the engine's schedule goldens: the
        // recording's `StoreGrads` ops carry only the rows that received
        // gradient (old and new values in CHANGES.md).
        assert_eq!(resharded, [0x3816_2a0c_cec7_321b, 0xbc02_59cf_c98a_c090]);
        assert_eq!(
            single,
            [
                0x1406_c528_d9a8_0ca4,
                0x14f0_3d00_803b_3972,
                0xf58d_523f_66cc_0b04
            ]
        );
    }

    /// Recording the same seeded workload twice yields byte-identical
    /// traces: the pipeline is deterministic end to end.
    #[test]
    fn seeded_recordings_are_reproducible() {
        let scale = TraceScale::test();
        let a = record_trace("simulated", &scale).unwrap();
        let b = record_trace("simulated", &scale).unwrap();
        assert_eq!(a.encode(), b.encode());
        let sa = record_trace("sharded", &scale).unwrap();
        let sb = record_trace("sharded", &scale).unwrap();
        assert_eq!(sa.encode(), sb.encode());
    }

    /// The sharded recording schedules onto every device's lane group.
    #[test]
    fn sharded_recording_covers_every_device() {
        let scale = TraceScale::test();
        let trace = record_trace("sharded", &scale).unwrap();
        assert_eq!(trace.meta.devices, scale.devices as u32);
        let max_device = trace
            .events
            .iter()
            .filter_map(|e| e.lane.device())
            .max()
            .unwrap();
        assert_eq!(max_device, scale.devices - 1);
        let replays = replay_exact(&trace).unwrap();
        assert!(!replays.is_empty());
    }

    /// A version bump in the header refuses to decode — stale tooling can
    /// never misread a future trace.
    #[test]
    fn recorded_trace_rejects_a_corrupted_schema_version() {
        let scale = TraceScale::test();
        let mut bytes = record_trace("simulated", &scale).unwrap().encode();
        bytes[8..12].copy_from_slice(&(clm_trace::FORMAT_VERSION + 7).to_le_bytes());
        assert!(matches!(
            Trace::decode(&bytes),
            Err(clm_trace::TraceError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn unknown_backend_is_refused() {
        assert!(record_trace("quantum", &TraceScale::test()).is_err());
    }
}
