//! Pipelined execution engine for the CLM trainers.
//!
//! The seed reproduction kept two worlds apart: `clm_core::train` ran the
//! functional trainers fully synchronously, while `sim_device::Timeline`
//! modelled concurrent lanes nobody drove with real training.  This crate
//! bridges them: [`PipelinedEngine`] executes the four trainers as
//! discrete-event pipelines — prefetched parameter gathers on the `GpuComm`
//! lane ([`PrefetchWindow`]), forward/backward on `GpuCompute`, per-
//! transition gradient stores, and early-finalised CPU Adam on the
//! `CpuAdam` lane driven by `clm_core::FinalizationPlan` — while producing
//! exactly the synchronous trainer's numbers.
//!
//! * [`PinnedBufferPool`] — recycling pinned host staging buffers with
//!   high-water accounting (one buffer per prefetch slot);
//! * [`PrefetchWindow`] — the lookahead window (0 = synchronous, 1 = double
//!   buffering, ≥ batch size = unconstrained), fixed per run by the
//!   config's `prefetch_window`;
//! * [`PipelinedEngine`] / [`RuntimeConfig`] — the simulated backend, one
//!   schedule for any `num_devices`: N per-device lane groups (gather /
//!   compute / CPU Adam) on one shared timeline, data-parallel
//!   micro-batches, `gs_scene`'s visibility-aware Gaussian partitioner and
//!   a fixed-device-order gradient all-reduce above one device — the
//!   trajectory is bit-identical to the 1-device trainer for any count;
//! * [`ThreadedBackend`] / [`ThreadedConfig`] — the threaded backend: the
//!   gather and CPU Adam lanes run on dedicated worker threads
//!   ([`workers`]), so the overlap is real and wall-clock measurable;
//! * [`ExecutionBackend`] — the common abstraction the trace recorder and
//!   the conformance suite loop over every executor through; the engine,
//!   the threaded backend and the synchronous `clm_core::Trainer` (the
//!   numerics oracle) implement it;
//! * [`ExecutionReport`] — the one batch report every executor returns:
//!   the numeric outcome plus the batch's timeline (costed or measured),
//!   from which makespan, per-lane busy/idle time and communication volume
//!   are read (Figures 11–15, Table 7);
//! * [`autotune`] — the scheduling knobs as a pure function of the probed
//!   host topology ([`tuned`]); `ThreadedConfig::default()` adopts its CPU
//!   Adam lane fan-out and chunk size.
//!
//! # Numerical equivalence
//!
//! The engine executes a batch through the same functional walk the
//! synchronous `Trainer::train_batch` uses — `clm_core::SerialRun` driven
//! by `clm_core::emit_system` — and only adds prices, so the loss/PSNR
//! trajectory is identical by construction: the paper's core claim that
//! overlap changes *when* work runs, never *what* it computes.
//! `Trainer::render_microbatch` additionally asserts that prefetched rows
//! never go stale, validating the finalisation schedule's non-interference
//! guarantee.
//!
//! # Example
//!
//! ```
//! use clm_core::TrainConfig;
//! use clm_runtime::{PipelinedEngine, RuntimeConfig};
//! use gs_scene::{generate_dataset, init_from_point_cloud, DatasetConfig, InitConfig,
//!                SceneKind, SceneSpec};
//! use sim_device::Lane;
//!
//! let dataset = generate_dataset(&SceneSpec::of(SceneKind::Bicycle), &DatasetConfig::tiny());
//! let targets = clm_core::ground_truth_images(&dataset);
//! let init = init_from_point_cloud(
//!     &dataset.ground_truth,
//!     &InitConfig { num_gaussians: 100, ..Default::default() },
//! );
//! let mut engine = PipelinedEngine::new(init, TrainConfig::default(), RuntimeConfig::default());
//! let report = engine.run_batch(&dataset.cameras[..4], &targets[..4]);
//! assert!(report.makespan() > 0.0);
//! assert!(report.lane(Lane::GpuCompute).busy > 0.0);
//! ```
#![forbid(unsafe_code)]

pub mod autotune;
pub mod backend;
pub mod engine;
pub mod pool;
pub mod report;
pub mod threaded;
pub mod workers;

pub use autotune::{derive_knobs, tuned, Autotune, Calibration, TunedKnobs};
pub use backend::ExecutionBackend;
pub use engine::{PipelinedEngine, PrefetchPolicy, RuntimeConfig};
pub use pool::{PinnedBufferPool, PoolStats, StagingBuffer};
pub use report::{ExecutionReport, LaneBusy, LaneReport};
pub use sim_device::PrefetchWindow;
pub use threaded::{ThreadedBackend, ThreadedConfig};
pub use workers::{spawn_lane, WorkerLane};

#[cfg(test)]
mod tests {
    use super::*;
    use clm_core::{SystemKind, TrainConfig, Trainer};
    use gs_core::gaussian::GaussianModel;
    use gs_render::Image;
    use gs_scene::{
        generate_dataset, init_from_point_cloud, Dataset, DatasetConfig, InitConfig, SceneKind,
        SceneSpec,
    };
    use sim_device::Lane;

    pub(crate) fn tiny_setup() -> (Dataset, Vec<Image>, GaussianModel) {
        let dataset = generate_dataset(&SceneSpec::of(SceneKind::Bicycle), &DatasetConfig::tiny());
        let targets = clm_core::ground_truth_images(&dataset);
        let init = init_from_point_cloud(
            &dataset.ground_truth,
            &InitConfig {
                num_gaussians: 150,
                ..Default::default()
            },
        );
        (dataset, targets, init)
    }

    fn runtime_config(window: usize) -> RuntimeConfig {
        RuntimeConfig {
            prefetch_window: window,
            ..Default::default()
        }
    }

    #[test]
    fn prefetch_window_never_changes_numerics() {
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let mut reference: Option<(clm_core::BatchReport, GaussianModel)> = None;
        for window in [0usize, 1, 3, 64] {
            let mut engine =
                PipelinedEngine::new(init.clone(), TrainConfig::default(), runtime_config(window));
            let report = engine.run_batch(cams, tgts);
            match &reference {
                None => reference = Some((report.batch, engine.trainer().model().clone())),
                Some((batch, model)) => {
                    assert_eq!(&report.batch, batch, "window {window}");
                    assert_eq!(engine.trainer().model(), model, "window {window}");
                }
            }
        }
    }

    #[test]
    fn wider_windows_reduce_gpu_compute_idle() {
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let idle_of = |window: usize| {
            let mut engine =
                PipelinedEngine::new(init.clone(), TrainConfig::default(), runtime_config(window));
            engine.run_batch(cams, tgts).gpu_idle_fraction()
        };
        let synchronous = idle_of(0);
        let double_buffered = idle_of(1);
        let unconstrained = idle_of(64);
        assert!(
            double_buffered < synchronous,
            "double buffering must hide gathers: {double_buffered} vs {synchronous}"
        );
        assert!(
            unconstrained <= double_buffered + 1e-12,
            "wider windows never hurt: {unconstrained} vs {double_buffered}"
        );
    }

    #[test]
    fn pipelined_makespan_beats_synchronous_schedule() {
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let makespan_of = |window: usize| {
            let mut engine =
                PipelinedEngine::new(init.clone(), TrainConfig::default(), runtime_config(window));
            engine.run_batch(cams, tgts).makespan()
        };
        assert!(makespan_of(2) < makespan_of(0));
    }

    #[test]
    fn staging_pool_recycles_and_respects_window_high_water() {
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        for window in [0usize, 1, 2] {
            let mut engine =
                PipelinedEngine::new(init.clone(), TrainConfig::default(), runtime_config(window));
            engine.run_batch(cams, tgts);
            engine.run_batch(cams, tgts);
            let stats = engine.pool_stats();
            assert_eq!(stats.outstanding, 0, "all buffers returned");
            assert_eq!(stats.acquires, 12, "one gather per micro-batch");
            assert_eq!(
                stats.high_water_buffers,
                window + 1,
                "window {window} needs window+1 staging buffers"
            );
            // The second batch runs entirely from recycled buffers, and the
            // staging paths make zero extra copies: fresh allocations only
            // ever extended the live frontier.
            assert!(stats.recycled >= 6, "window {window}: {stats:?}");
            assert_eq!(
                stats.allocated, stats.high_water_buffers as u64,
                "window {window} allocated beyond the frontier: {stats:?}"
            );
        }
    }

    #[test]
    fn all_four_systems_execute_and_report() {
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..4];
        let tgts = &targets[..4];
        for system in SystemKind::ALL {
            let mut engine = PipelinedEngine::new(
                init.clone(),
                TrainConfig {
                    system,
                    ..Default::default()
                },
                RuntimeConfig::default(),
            );
            let report = engine.run_batch(cams, tgts);
            assert!(report.makespan() > 0.0, "{system}");
            assert!(report.lane(Lane::GpuCompute).busy > 0.0, "{system}");
            match system {
                SystemKind::Baseline | SystemKind::EnhancedBaseline => {
                    assert_eq!(report.comm_bytes_h2d(), 0, "{system}");
                    assert_eq!(report.batch.bytes_loaded, 0, "{system}");
                }
                SystemKind::NaiveOffload | SystemKind::Clm => {
                    assert!(report.comm_bytes_h2d() > 0, "{system}");
                    assert!(report.lane(Lane::CpuAdam).busy > 0.0, "{system}");
                }
            }
        }
    }

    #[test]
    fn runtime_systems_match_their_synchronous_counterparts() {
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..4];
        let tgts = &targets[..4];
        for system in SystemKind::ALL {
            let train = TrainConfig {
                system,
                ..Default::default()
            };
            let mut sync = Trainer::new(init.clone(), train.clone());
            let reference = sync.train_batch(cams, tgts);
            let engine =
                PipelinedEngine::new(init.clone(), train.clone(), RuntimeConfig::default());
            let threaded = ThreadedBackend::new(init.clone(), train, ThreadedConfig::default());
            let backends: [Box<dyn ExecutionBackend>; 2] = [Box::new(engine), Box::new(threaded)];
            for mut backend in backends {
                let report = backend.execute_batch(cams, tgts);
                let label = format!("{system} {}", backend.backend_name());
                assert_eq!(report.batch, reference, "{label}");
                assert_eq!(backend.trainer().model(), sync.model(), "{label}");
            }
        }
    }

    #[test]
    fn clm_timeline_traffic_matches_batch_accounting_at_unit_scale() {
        let (dataset, targets, init) = tiny_setup();
        let mut engine = PipelinedEngine::new(init, TrainConfig::default(), runtime_config(2));
        let report = engine.run_batch(&dataset.cameras[..5], &targets[..5]);
        assert_eq!(report.comm_bytes_h2d(), report.batch.bytes_loaded);
        assert_eq!(report.comm_bytes_d2h(), report.batch.bytes_stored);
    }

    #[test]
    fn cost_scale_changes_schedule_but_not_numerics() {
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..4];
        let tgts = &targets[..4];
        let run = |cost_scale: f64| {
            let mut engine = PipelinedEngine::new(
                init.clone(),
                TrainConfig::default(),
                RuntimeConfig {
                    cost_scale,
                    ..runtime_config(2)
                },
            );
            let report = engine.run_batch(cams, tgts);
            (
                report.makespan(),
                report.batch,
                engine.trainer().model().clone(),
            )
        };
        let (makespan_1x, batch_1x, model_1x) = run(1.0);
        let (makespan_1000x, batch_1000x, model_1000x) = run(1000.0);
        assert!(makespan_1000x > makespan_1x * 100.0);
        assert_eq!(batch_1x, batch_1000x);
        assert_eq!(model_1x, model_1000x);
    }

    #[test]
    fn execute_epoch_covers_every_view() {
        let (dataset, targets, init) = tiny_setup();
        let mut engine = PipelinedEngine::new(
            init,
            TrainConfig {
                batch_size: 4,
                ..Default::default()
            },
            RuntimeConfig::default(),
        );
        let reports = engine.execute_epoch(&dataset, &targets);
        let views: usize = reports.iter().map(|r| r.batch.order.len()).sum();
        assert_eq!(views, dataset.cameras.len());
        assert!(reports.iter().all(|r| r.makespan() > 0.0));
    }

    #[test]
    fn threaded_backend_matches_simulated_engine_exactly() {
        // The threaded backend's whole reason to exist is that it changes
        // *where* work runs (worker threads) without changing *what* is
        // computed: batch reports and final models must equal both the
        // simulated engine's and (transitively) the synchronous trainer's.
        let (dataset, targets, init) = tiny_setup();
        let train = TrainConfig::default();
        let mut threaded = ThreadedBackend::new(
            init.clone(),
            train.clone(),
            ThreadedConfig {
                prefetch_window: 2,
                ..Default::default()
            },
        );
        let mut engine = PipelinedEngine::new(init, train, runtime_config(2));
        for start in [0usize, 4] {
            let cams = &dataset.cameras[start..start + 4];
            let tgts = &targets[start..start + 4];
            let t = threaded.run_batch(cams, tgts);
            let s = engine.run_batch(cams, tgts);
            assert_eq!(t.batch, s.batch);
            assert!(t.wall_seconds > 0.0);
        }
        assert_eq!(threaded.trainer().model(), engine.trainer().model());
        // Both backends account identical PCIe traffic for the batch.
        assert_eq!(
            threaded.trainer().offloaded().bytes_gathered(),
            engine.trainer().offloaded().bytes_gathered()
        );
    }

    #[test]
    fn threaded_pool_recycles_within_the_window_budget() {
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        for window in [0usize, 1, 2] {
            let mut threaded = ThreadedBackend::new(
                init.clone(),
                TrainConfig::default(),
                ThreadedConfig {
                    prefetch_window: window,
                    ..Default::default()
                },
            );
            threaded.run_batch(cams, tgts);
            threaded.run_batch(cams, tgts);
            let stats = threaded.pool_stats();
            assert_eq!(stats.outstanding, 0, "all buffers returned");
            assert_eq!(stats.acquires, 12, "one gather per micro-batch");
            assert!(
                stats.high_water_buffers <= window + 1,
                "window {window} must stay within its buffer budget: {stats:?}"
            );
            assert!(stats.recycled >= 6, "window {window}: {stats:?}");
            // Gathers stage straight from the host store into pool buffers
            // — zero extra copies, so no acquire may allocate once the
            // frontier is provisioned.
            assert_eq!(
                stats.allocated, stats.high_water_buffers as u64,
                "window {window} allocated beyond the frontier: {stats:?}"
            );
        }
    }

    #[test]
    fn parallel_compute_threads_keep_backends_bit_identical() {
        // The banded compute lane is pure scheduling in every backend: the
        // threaded backend at 4 band threads, the simulated engine at 3 and
        // the threaded backend with every lane at width 2 must match the
        // serial threaded backend bit for bit.
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let train = TrainConfig::default();
        let mut serial = ThreadedBackend::new(
            init.clone(),
            train.clone(),
            ThreadedConfig {
                prefetch_window: 2,
                ..Default::default()
            },
        );
        let width = |compute_threads| TrainConfig {
            compute_threads,
            ..train.clone()
        };
        let mut parallel = ThreadedBackend::new(
            init.clone(),
            width(4),
            ThreadedConfig {
                prefetch_window: 2,
                ..Default::default()
            },
        );
        // Every lane wide at once: two device rounds rendering in one
        // region while the Adam lane fans each group out in another.
        let mut all_wide = ThreadedBackend::new(
            init.clone(),
            width(2),
            ThreadedConfig {
                prefetch_window: 2,
                adam_threads: 2,
                adam_chunk_rows: 0,
                num_devices: 2,
                ..Default::default()
            },
        );
        let mut sim_parallel = PipelinedEngine::new(init, width(3), runtime_config(2));
        for _ in 0..2 {
            let a = serial.run_batch(cams, tgts);
            let b = parallel.run_batch(cams, tgts);
            let c = sim_parallel.run_batch(cams, tgts);
            let d = all_wide.run_batch(cams, tgts);
            assert_eq!(a.batch, b.batch);
            assert_eq!(a.batch, c.batch);
            assert_eq!(a.batch, d.batch);
        }
        assert_eq!(serial.trainer().model(), parallel.trainer().model());
        assert_eq!(serial.trainer().model(), sim_parallel.trainer().model());
        assert_eq!(serial.trainer().model(), all_wide.trainer().model());
    }

    #[test]
    fn execution_backend_trait_drives_every_executor() {
        let (dataset, targets, init) = tiny_setup();
        let train = TrainConfig {
            batch_size: 4,
            ..Default::default()
        };
        let mut backends: Vec<Box<dyn ExecutionBackend>> = vec![
            Box::new(Trainer::new(init.clone(), train.clone())),
            Box::new(PipelinedEngine::new(
                init.clone(),
                train.clone(),
                RuntimeConfig::default(),
            )),
            Box::new(ThreadedBackend::new(init, train, ThreadedConfig::default())),
        ];
        let mut models = Vec::new();
        for backend in &mut backends {
            let reports = backend.execute_epoch(&dataset, &targets);
            let views: usize = reports.iter().map(|r| r.batch.order.len()).sum();
            assert_eq!(views, dataset.cameras.len(), "{}", backend.backend_name());
            for r in &reports {
                assert!(r.wall_seconds > 0.0);
                assert!(r.lanes.compute > 0.0, "{}", backend.backend_name());
            }
            models.push(backend.trainer().model().clone());
        }
        assert_eq!(models[0], models[1], "executors agree on the numerics");
        assert_eq!(models[0], models[2], "executors agree on the numerics");
        let names: Vec<_> = backends.iter().map(|b| b.backend_name()).collect();
        assert_eq!(names, ["synchronous", "simulated", "threaded"]);
    }

    /// Two batches' [`Timeline::fingerprint`](sim_device::Timeline::fingerprint)
    /// folded with the engine's final [`PoolStats`] — the recipe every
    /// schedule golden below pins.  Returns the fold and how many of the
    /// batches crossed a densification boundary.
    fn schedule_fingerprint(
        engine: &mut PipelinedEngine,
        dataset: &Dataset,
        targets: &[Image],
    ) -> (u64, usize) {
        let mut fold = 0u64;
        let mut resizes = 0;
        for range in [0..6, 4..10] {
            let report = engine.run_batch(&dataset.cameras[range.clone()], &targets[range]);
            fold = fold.rotate_left(7) ^ report.timeline.fingerprint();
            resizes += usize::from(report.batch.resize.is_some());
        }
        let p = engine.pool_stats();
        let fold = [
            p.outstanding as u64,
            p.high_water_buffers as u64,
            p.high_water_bytes,
            p.acquires,
            p.recycled,
            p.allocated,
            p.reprovisions,
            p.denied,
        ]
        .iter()
        .fold(fold, |acc, v| acc.rotate_left(7) ^ v);
        (fold, resizes)
    }

    /// One fingerprint per pinned D = 1 scenario.
    fn single_device_schedule_fingerprints() -> Vec<u64> {
        use sim_device::{FaultPlan, FaultSpec};
        let (dataset, targets, init) = tiny_setup();
        let run = |window: usize, train: TrainConfig, faults: Option<FaultSpec>| {
            let mut engine = PipelinedEngine::new(init.clone(), train, runtime_config(window));
            if let Some(spec) = faults {
                engine.install_fault_plan(FaultPlan::new(spec));
            }
            schedule_fingerprint(&mut engine, &dataset, &targets).0
        };
        let mut out = Vec::new();
        for window in [0usize, 2] {
            out.push(run(window, TrainConfig::default(), None));
            out.push(run(
                window,
                TrainConfig {
                    overlapped_adam: false,
                    ..Default::default()
                },
                None,
            ));
            out.push(run(
                window,
                TrainConfig {
                    system: SystemKind::NaiveOffload,
                    ..Default::default()
                },
                None,
            ));
        }
        out.push(run(
            2,
            TrainConfig::default(),
            Some(FaultSpec::new(0).with_staging_exhaustion(1, 2)),
        ));
        out
    }

    #[test]
    fn single_device_schedule_matches_the_pre_merge_golden() {
        // Captured at the last commit that still had a separate
        // single-device engine, from that engine: op stream (kind, lane,
        // duration and start bits, bytes, rows, micro-batch, deps) and pool
        // accounting for windows {0, 2} x {overlapped CLM, non-overlapped
        // CLM, NaiveOffload}, then window 2 under staging denials.  The
        // merged engine must emit exactly that at D = 1, with no partition
        // views supplied.
        //
        // The CLM rows were re-pinned three times since, each time captured
        // at the parent (equal to the old pins), then at the change, all
        // recorded in CHANGES.md: when gradient stores started to carry only
        // the rows that received gradient (the fingerprint folds each
        // `StoreGrads` op's bytes, rows and duration), when fetches, stores
        // and Adam groups moved from the frustum sets to the reached sets
        // (fewer, 192-byte `LoadParams` rows; smaller staging buffers in the
        // pool accounting; stores dense again, as every retiring reached row
        // received gradient here), and when CPU Adam ops started to carry
        // and be priced on the rows their kernel stepped (a cold row costs
        // nothing).  The NaiveOffload rows (whole-model transfers and a
        // dense Adam) did not move any time.
        assert_eq!(
            single_device_schedule_fingerprints(),
            [
                0xb84b_2e18_82e8_0f95,
                0xb21b_9626_580d_1cbd,
                0xd77f_c7d6_be32_762a,
                0x3d02_807b_fa3b_3a9c,
                0x57eb_aae2_f3d8_02f4,
                0xd77f_c7d6_be32_762a,
                0x1f01_4bfc_ce4d_9a25,
            ]
        );
    }

    #[test]
    fn sharded_baseline_densify_and_fault_schedules_match_the_pre_emitter_golden() {
        // Captured at the last commit whose engine still wired the op graph
        // itself (before `sim_device::pipeline`), same recipe as the D = 1
        // golden above: the schedules the shared emitter must reproduce bit
        // for bit beyond one device and beyond CLM.  Re-pinned with it,
        // three times: the CLM rows moved with the sparse gradient stores
        // (and, above one device, the all-reduce of received rows only),
        // then with the reached-set fetches, stores and Adam groups — when
        // stores and the all-reduce went back to dense rows, which also
        // moved the non-overlapped rows' whole-model all-reduce — then with
        // CPU Adam priced on each owner's stepped rows; the Baseline and
        // EnhancedBaseline rows moved no time.
        use clm_core::{DensifyConfig, DensifySchedule};
        use sim_device::{FaultPlan, FaultSpec};
        let (dataset, targets, init) = tiny_setup();
        let run = |devices: usize, train: TrainConfig, faults: Option<FaultSpec>| {
            let config = RuntimeConfig {
                num_devices: devices,
                ..runtime_config(2)
            };
            let mut engine =
                PipelinedEngine::new(init.clone(), train, config).partition_over(&dataset.cameras);
            if let Some(spec) = faults {
                engine.install_fault_plan(FaultPlan::new(spec));
            }
            schedule_fingerprint(&mut engine, &dataset, &targets)
        };
        let with_system = |system: SystemKind| TrainConfig {
            system,
            ..Default::default()
        };
        let non_overlapped = TrainConfig {
            overlapped_adam: false,
            ..Default::default()
        };
        let faults =
            FaultSpec::new(11)
                .with_transients(0.5, 16)
                .with_straggler(Lane::GpuComm, 3.0, 4);
        let mut fingerprints = Vec::new();
        for devices in [2usize, 4] {
            fingerprints.push(run(devices, TrainConfig::default(), None).0);
            fingerprints.push(run(devices, non_overlapped.clone(), None).0);
        }
        fingerprints.push(run(1, with_system(SystemKind::Baseline), None).0);
        fingerprints.push(run(1, with_system(SystemKind::EnhancedBaseline), None).0);
        // The second batch sits behind a densification boundary: a `Resize`
        // op heads its timeline, the pool is re-provisioned and (at D = 2)
        // ownership is repartitioned.
        let densifying = TrainConfig {
            densify: Some(DensifySchedule {
                every_batches: 1,
                config: DensifyConfig {
                    grad_threshold: 1.0e-5,
                    ..Default::default()
                },
            }),
            ..Default::default()
        };
        for devices in [1usize, 2] {
            let (fingerprint, resizes) = run(devices, densifying.clone(), None);
            assert_eq!(resizes, 1, "the second batch must cross a boundary");
            fingerprints.push(fingerprint);
        }
        for devices in [1usize, 2] {
            fingerprints.push(run(devices, TrainConfig::default(), Some(faults)).0);
        }
        assert_eq!(
            fingerprints,
            [
                0x81f0_4d92_37bb_397c,
                0x1589_8085_2e4f_2e9f,
                0x14d9_12c5_d33a_dcf8,
                0x3b20_2399_691d_e2f7,
                0x860e_878f_056f_f9bf,
                0xa2ce_8b0e_5869_1fa2,
                0x0722_0127_744a_79c7,
                0xd07e_6aef_37f7_c8d4,
                0x9666_f459_9f10_fcee,
                0x8850_f9ab_f05f_1a51,
            ]
        );
    }

    #[test]
    fn one_device_needs_no_partition_views_and_owns_every_row() {
        let (dataset, targets, init) = tiny_setup();
        let rows = init.len();
        let mut engine = PipelinedEngine::new(init, TrainConfig::default(), runtime_config(2));
        let report = engine.execute_batch(&dataset.cameras[..6], &targets[..6]);
        assert_eq!(engine.backend_name(), "simulated");
        assert_eq!(report.device_lane_group(0)[0].busy, report.lanes.compute);
        assert_eq!(engine.partition().device_counts(), [rows]);
        assert_eq!(engine.cross_shard_rows(), 0, "one device owns everything");
        assert!(engine.local_rows() > 0);
    }

    #[test]
    fn executor_configs_never_reach_the_trainer() {
        // Every knob has one home.  The render width and the band height
        // live in `TrainConfig` (the executor configs' fields are unread
        // placeholders), and an executor's device count lives in its own
        // config, never mirrored into the trainer's.  So every executor (at
        // every device count, on the fresh-model and the restored-trainer
        // path, simulated and threaded) keeps the trainer's config whole and
        // trains the default trainer's bits whatever its own config holds.
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let train = TrainConfig::default();
        let (threads, band) = (3, 4);
        assert_ne!(train.compute_threads, threads);
        assert_ne!(train.band_height, band);
        let mut oracle = Trainer::new(init.clone(), train.clone());
        let mut other_band = Trainer::new(
            init.clone(),
            TrainConfig {
                band_height: band,
                ..train.clone()
            },
        );
        for _ in 0..2 {
            oracle.train_batch(cams, tgts);
            other_band.train_batch(cams, tgts);
        }
        assert_ne!(
            oracle.model(),
            other_band.model(),
            "the band height must matter on this scene"
        );

        let mut backends: Vec<Box<dyn ExecutionBackend>> = Vec::new();
        for devices in [1usize, 2] {
            let config = RuntimeConfig {
                compute_threads: threads,
                band_height: band,
                num_devices: devices,
                ..runtime_config(2)
            };
            backends.push(Box::new(
                PipelinedEngine::new(init.clone(), train.clone(), config.clone())
                    .partition_over(&dataset.cameras),
            ));
            backends.push(Box::new(
                PipelinedEngine::with_trainer(Trainer::new(init.clone(), train.clone()), config)
                    .partition_over(&dataset.cameras),
            ));
        }
        let threaded = ThreadedConfig {
            compute_threads: threads,
            band_height: band,
            ..Default::default()
        };
        backends.push(Box::new(ThreadedBackend::new(
            init.clone(),
            train.clone(),
            threaded.clone(),
        )));
        backends.push(Box::new(ThreadedBackend::with_trainer(
            Trainer::new(init.clone(), train.clone()),
            threaded,
        )));
        for backend in &mut backends {
            let name = backend.backend_name();
            for _ in 0..2 {
                backend.execute_batch(cams, tgts);
            }
            let config = backend.trainer().config();
            assert_eq!(config.compute_threads, train.compute_threads, "{name}");
            assert_eq!(config.band_height, train.band_height, "{name}");
            assert_eq!(config.num_devices, train.num_devices, "{name}");
            assert_eq!(backend.trainer().model(), oracle.model(), "{name}");
        }
    }

    #[test]
    fn sharded_devices_overlap_compute_across_lane_groups() {
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let makespan_of = |devices: usize| {
            let mut engine = PipelinedEngine::new(
                init.clone(),
                TrainConfig::default(),
                RuntimeConfig {
                    num_devices: devices,
                    // Paper-scale costing so the schedule is dominated by
                    // simulated device time, not constant offsets.
                    cost_scale: 1000.0,
                    ..runtime_config(2)
                },
            )
            .partition_over(&dataset.cameras);
            engine.run_batch(cams, tgts).makespan()
        };
        let one = makespan_of(1);
        let two = makespan_of(2);
        assert!(
            two < one,
            "two device lane groups must shorten the schedule: {two} vs {one}"
        );
    }

    #[test]
    fn threaded_sharded_rounds_match_the_serial_backend() {
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let train = TrainConfig::default();
        let mut serial =
            ThreadedBackend::new(init.clone(), train.clone(), ThreadedConfig::default());
        let mut sharded = ThreadedBackend::new(
            init.clone(),
            train,
            ThreadedConfig {
                num_devices: 3,
                ..Default::default()
            },
        );
        for _ in 0..2 {
            let a = serial.run_batch(cams, tgts);
            let b = sharded.run_batch(cams, tgts);
            assert_eq!(a.batch, b.batch);
        }
        assert_eq!(serial.trainer().model(), sharded.trainer().model());
    }

    #[test]
    fn fault_injection_changes_schedule_never_numerics() {
        use sim_device::{FaultPlan, FaultSpec};
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let mut clean =
            PipelinedEngine::new(init.clone(), TrainConfig::default(), runtime_config(2));
        let mut faulted =
            PipelinedEngine::new(init.clone(), TrainConfig::default(), runtime_config(2));
        faulted.install_fault_plan(FaultPlan::new(
            FaultSpec::new(11)
                .with_transients(0.5, 16)
                .with_straggler(Lane::GpuComm, 3.0, 4),
        ));
        for _ in 0..2 {
            let c = clean.run_batch(cams, tgts);
            let f = faulted.run_batch(cams, tgts);
            assert_eq!(c.batch, f.batch, "faults must never touch numerics");
            assert!(
                f.makespan() > c.makespan(),
                "retries and straggles must cost schedule time"
            );
        }
        assert_eq!(clean.trainer().model(), faulted.trainer().model());
        let stats = faulted.fault_plan().unwrap().stats();
        assert!(stats.transients > 0, "rate 0.5 must have struck: {stats:?}");
        assert!(stats.straggled_ops > 0, "straggler must have fired");
        assert!(stats.backoff_seconds > 0.0);
    }

    #[test]
    fn staging_exhaustion_denials_surface_in_pool_and_report() {
        use sim_device::{FaultPlan, FaultSpec};
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let mut clean =
            PipelinedEngine::new(init.clone(), TrainConfig::default(), runtime_config(2));
        let mut starved =
            PipelinedEngine::new(init.clone(), TrainConfig::default(), runtime_config(2));
        starved.install_fault_plan(FaultPlan::new(
            FaultSpec::new(0).with_staging_exhaustion(1, 2),
        ));
        let c = clean.run_batch(cams, tgts);
        let s = starved.run_batch(cams, tgts);
        assert_eq!(
            c.batch, s.batch,
            "denied leases retry, content is identical"
        );
        assert_eq!(s.faults.exhaustion_denials, 2);
        assert_eq!(starved.pool_stats().denied, 2);
        assert_eq!(clean.pool_stats().denied, 0);
        assert!(
            s.makespan() > c.makespan(),
            "each denial stalls one backoff interval"
        );
        assert_eq!(clean.trainer().model(), starved.trainer().model());
    }

    #[test]
    fn threaded_faults_recover_bit_identically() {
        use sim_device::{FaultPlan, FaultSpec};
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let train = TrainConfig::default();
        let mut clean =
            ThreadedBackend::new(init.clone(), train.clone(), ThreadedConfig::default());
        let mut faulted = ThreadedBackend::new(init.clone(), train, ThreadedConfig::default());
        faulted.install_fault_plan(FaultPlan::new(
            FaultSpec::new(23)
                .with_transients(0.5, 16)
                .with_straggler(Lane::GpuComm, 2.0, 3)
                .with_staging_exhaustion(2, 1),
        ));
        for _ in 0..2 {
            let c = clean.run_batch(cams, tgts);
            let f = faulted.run_batch(cams, tgts);
            assert_eq!(c.batch, f.batch, "real re-execution must be pure");
        }
        assert_eq!(clean.trainer().model(), faulted.trainer().model());
        let stats = faulted.fault_plan().unwrap().stats();
        assert!(stats.transients > 0, "rate 0.5 must have struck: {stats:?}");
        assert!(stats.straggled_ops > 0);
        assert_eq!(stats.exhaustion_denials, 1);
        assert_eq!(faulted.pool_stats().denied, 1);
        assert_eq!(stats.aborts, 0, "no lane may have aborted");
    }

    #[test]
    fn sharded_device_loss_drains_repartitions_and_stays_bit_identical() {
        use sim_device::{FaultPlan, FaultSpec};
        let (dataset, targets, init) = tiny_setup();
        let cams = &dataset.cameras[..6];
        let tgts = &targets[..6];
        let train = TrainConfig::default();
        // Loses 2 of 4 devices at the boundary before batch 1.
        let mut doomed = PipelinedEngine::new(
            init.clone(),
            train.clone(),
            RuntimeConfig {
                num_devices: 4,
                ..runtime_config(2)
            },
        )
        .partition_over(&dataset.cameras);
        doomed.install_fault_plan(FaultPlan::new(FaultSpec::new(0).with_device_loss(1, 2)));
        // The reference trains at the survivor count throughout — the
        // trajectory is device-count-invariant, so the post-loss run must
        // land on exactly this model.
        let mut survivor = PipelinedEngine::new(
            init.clone(),
            train,
            RuntimeConfig {
                num_devices: 2,
                ..runtime_config(2)
            },
        )
        .partition_over(&dataset.cameras);
        let mut losses = 0;
        for _ in 0..3 {
            let d = doomed.run_batch(cams, tgts);
            let s = survivor.run_batch(cams, tgts);
            assert_eq!(d.batch, s.batch, "loss boundary must not disturb numerics");
            losses += d.faults.device_losses;
        }
        assert_eq!(losses, 1, "the loss fires exactly once");
        assert_eq!(doomed.config().num_devices, 2, "survivors only");
        assert_eq!(doomed.trainer().model(), survivor.trainer().model());
        assert_eq!(
            doomed.partition().device_counts().len(),
            2,
            "ownership repartitioned onto the survivors"
        );
    }

    #[test]
    #[should_panic(expected = "at least one survivor")]
    fn losing_every_device_panics() {
        let (dataset, _, init) = tiny_setup();
        let mut engine = PipelinedEngine::new(
            init,
            TrainConfig::default(),
            RuntimeConfig {
                num_devices: 2,
                ..Default::default()
            },
        )
        .partition_over(&dataset.cameras);
        engine.lose_devices(2);
    }

    #[test]
    #[should_panic(expected = "call partition_over(cameras)")]
    fn multi_device_engine_without_partition_views_refuses_to_run() {
        // The same type constructs at any device count; what D > 1 needs on
        // top is the ownership partition, and forgetting it is a clear
        // panic at the first batch, not a silently unbalanced schedule.
        let (dataset, targets, init) = tiny_setup();
        let mut engine = PipelinedEngine::new(
            init,
            TrainConfig::default(),
            RuntimeConfig {
                num_devices: 2,
                ..Default::default()
            },
        );
        assert_eq!(engine.backend_name(), "sharded");
        engine.run_batch(&dataset.cameras[..4], &targets[..4]);
    }

    #[test]
    #[should_panic(expected = "cost_scale must be positive")]
    fn invalid_cost_scale_panics() {
        let (_, _, init) = tiny_setup();
        let _ = PipelinedEngine::new(
            init,
            TrainConfig::default(),
            RuntimeConfig {
                cost_scale: 0.0,
                ..Default::default()
            },
        );
    }
}
