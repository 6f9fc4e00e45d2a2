//! Op-trace recording harness: trains one seeded scene on a chosen execution
//! backend and captures every operation into a [`clm_trace::Trace`].
//!
//! This is the producer end of the trace pipeline; the `trace_record`,
//! `trace_replay` and `trace_report` binaries are thin wrappers.  Every
//! [`ExecutionBackend`] is recorded the same way: each batch's
//! [`ExecutionReport::timeline`](clm_runtime::ExecutionReport::timeline) is
//! moved into the trace.  Two kinds of trace come out depending on what
//! that timeline is:
//!
//! * **Simulated schedules** (`simulated`, `sharded`) — the discrete-event
//!   schedule each batch was costed on, complete with dependency edges and
//!   exact scheduled durations.  These replay deterministically offline
//!   (`clm_trace::verify_exact`) and support what-if knob replays (prefetch
//!   window, device count, cost scaling).
//! * **Measured spans** (`threaded`, and `synchronous`, the numerics
//!   oracle) — wall-clock intervals bracketing the real phases (gathers,
//!   render, CPU Adam), with no dependency structure.  These feed the
//!   report/Chrome-trace pipeline but refuse exact replay (there is no
//!   schedule to re-simulate).
//!
//! The workload is a [`TraceScale`]: a fixed-seed Rubble scene that
//! densifies mid-epoch, priced at paper scale on the simulated backends, so
//! a recording is an exact function of `(backend, scale)`.

use crate::runtime_reports::paper_scale_config;
use clm_core::{
    ground_truth_images, DensifyConfig, DensifySchedule, SystemKind, TrainConfig, Trainer,
};
use clm_runtime::{
    ExecutionBackend, PipelinedEngine, RuntimeConfig, ThreadedBackend, ThreadedConfig,
};
use clm_trace::{CostParams, Trace, TraceMeta};
use gs_core::gaussian::GaussianModel;
use gs_render::Image;
use gs_scene::{
    generate_dataset, init_from_point_cloud, Dataset, DatasetConfig, InitConfig, SceneKind,
    SceneSpec,
};
use sim_device::HostTopology;

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

    /// Paper-scale costing of the simulated engine at `devices` lane groups.
    fn runtime_config(&self, model_len: usize, devices: usize) -> RuntimeConfig {
        RuntimeConfig {
            prefetch_window: self.prefetch_window,
            num_devices: devices,
            ..paper_scale_config(model_len, self.width, self.height)
        }
    }
}

/// Backends the recorder knows how to trace, in documentation order.
pub const TRACE_BACKENDS: [&str; 4] = ["synchronous", "simulated", "threaded", "sharded"];

/// Records one full training run of `backend` at `scale` into a trace.
///
/// `backend` must be one of [`TRACE_BACKENDS`]; the sharded entry honours
/// `scale.devices`, everything else runs single-device.  The synchronous
/// trainer runs at window 0, the others at `scale.prefetch_window`.
pub fn record_trace(backend: &str, scale: &TraceScale) -> Result<Trace, String> {
    let (dataset, targets, init) = scale.scene();
    let devices = if backend == "sharded" {
        scale.devices.max(1)
    } else {
        1
    };
    // The engine's config, whose price list the header records whichever
    // backend runs.
    let config = scale.runtime_config(init.len(), devices);
    let cost = CostParams::from(&config.price_list());
    let train = scale.train_config();
    let (window, mut executor): (usize, Box<dyn ExecutionBackend>) = match backend {
        "synchronous" => (0, Box::new(Trainer::new(init, train))),
        "simulated" | "sharded" => (
            config.prefetch_window,
            Box::new(PipelinedEngine::new(init, train, config).partition_over(&dataset.cameras)),
        ),
        "threaded" => {
            let config = ThreadedConfig {
                prefetch_window: scale.prefetch_window,
                ..Default::default()
            };
            (
                config.prefetch_window,
                Box::new(ThreadedBackend::new(init, train, config)),
            )
        }
        other => {
            return Err(format!(
                "unknown backend {other:?} (expected one of {TRACE_BACKENDS:?})"
            ))
        }
    };
    let mut trace = Trace::new(TraceMeta {
        backend: backend.to_string(),
        scene: format!("rubble-{}", scale.label),
        devices: devices as u32,
        prefetch_window: window as u32,
        seed: DATASET_SEED,
        // The transfer half of the engine's price list, which device-count
        // replays re-price communication with.
        cost,
    });
    for epoch in 0..scale.epochs as u64 {
        let reports = executor.execute_epoch(&dataset, &targets);
        for (b, report) in reports.into_iter().enumerate() {
            trace.record(epoch, b as u64, report.timeline);
        }
    }
    Ok(trace)
}

/// One line of run context for the binaries' stderr chatter.
pub fn describe(trace: &Trace) -> String {
    format!(
        "backend={} scene={} devices={} window={} events={} batches={} deps={}",
        trace.meta.backend,
        trace.meta.scene,
        trace.meta.devices,
        trace.meta.prefetch_window,
        trace.ops().count(),
        trace.batches.len(),
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
        let expected_batches = scale.epochs * scale.views.div_ceil(scale.batch_size);
        for backend in TRACE_BACKENDS {
            let trace = record_trace(backend, &scale).unwrap();
            assert_eq!(trace.meta.backend, backend);
            assert!(trace.ops().next().is_some(), "{backend}: empty trace");
            assert_eq!(
                trace.batches.len(),
                expected_batches,
                "{backend}: missing batches"
            );
            // Each header records the window its executor ran at.
            let window = match backend {
                "synchronous" => 0,
                _ => scale.prefetch_window as u32,
            };
            assert_eq!(trace.meta.prefetch_window, window, "{backend}");
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
        assert_eq!(replays.len(), trace.batches.len());
        for (replay, recorded) in replays.iter().zip(&trace.batches) {
            assert_eq!(
                replay.timeline.makespan().to_bits(),
                recorded.timeline.makespan().to_bits()
            );
        }
    }

    /// The report reads the recorded timelines; a scheduled recording's
    /// report is the report of its exact replay, to the byte.
    #[test]
    fn a_scheduled_recording_reports_like_its_replay() {
        for backend in ["simulated", "sharded"] {
            let trace = record_trace(backend, &TraceScale::test()).unwrap();
            let replayed = Trace {
                batches: verify_exact(&trace).unwrap(),
                ..trace.clone()
            };
            assert_eq!(
                TraceReport::build(&trace).to_json(),
                TraceReport::build(&replayed).to_json(),
                "{backend}"
            );
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
        // Re-pinned three times since, with the engine's schedule goldens:
        // the recording's `StoreGrads` ops carry only the rows that received
        // gradient, then its fetches, stores and Adam groups follow the
        // reached sets, then its CPU Adam ops carry and are priced on the
        // rows their kernel stepped (old and new values in CHANGES.md).
        assert_eq!(resharded, [0x4d83_b8a6_2bda_f321, 0x731f_0908_26a0_8f4d]);
        assert_eq!(
            single,
            [
                0xc5ad_257f_24f6_4040,
                0xbbaf_78c7_2d38_e3aa,
                0xcf7b_8785_8784_a28f
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
        let max_device = trace.ops().filter_map(|op| op.lane.device()).max().unwrap();
        assert_eq!(max_device, scale.devices - 1);
        let replays = replay_exact(&trace).unwrap();
        assert!(!replays.is_empty());
    }

    #[test]
    fn unknown_backend_is_refused() {
        assert!(record_trace("quantum", &TraceScale::test()).is_err());
    }
}
