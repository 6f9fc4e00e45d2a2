//! Wall-clock runtime benchmark: synchronous vs simulated vs threaded vs
//! sharded, with a serial-vs-parallel **compute dimension** on top.
//!
//! Every other artefact in this crate reports *simulated* device time; this
//! module is the repo's **measured** performance baseline.  It trains the
//! same scene from the same initial model with five execution strategies —
//!
//! 1. `synchronous` — `clm_core::Trainer::train_epoch`, every lane inline;
//! 2. `simulated` — `clm_runtime::PipelinedEngine` at one device, lanes
//!    inline plus discrete-event costing;
//! 3. `threaded` — `clm_runtime::ThreadedBackend`, gathers and CPU Adam on
//!    real worker threads, render compute serial (`compute_threads = 1`);
//! 4. `threaded_parallel` — the same backend with the banded render
//!    compute fanned out over `compute_threads` workers;
//! 5. `sharded` — the same engine with `WallclockScale::devices`
//!    per-device lane groups on the shared simulated timeline (per-device
//!    lane-busy breakdown in the artefact);
//!
//! — verifies all five final models are **bit-identical** (thread counts
//! and shard counts are pure scheduling; `sharded_bit_identical` is the
//! flag CI's `shard-matrix` job gates on at devices ∈ {1, 2, 4}), and
//! reports wall-clock throughput, speedups, per-lane busy fractions and the
//! compute-lane serial/parallel speedup as a single-line JSON object
//! (written to `BENCH_runtime.json` by the `bench_runtime` binary).  On a
//! multi-core host the threaded backend should strictly out-run the single-threaded
//! strategies and the parallel compute lane should shrink with cores; on a
//! single core both degrade to roughly synchronous speed, which is why the
//! CI smoke gate is core-count-conditional (a strict `> 1×` win on ≥ 2
//! cores, a 0.9× coordination-overhead floor on one).

use clm_core::{
    ground_truth_images, DensifyConfig, DensifySchedule, SystemKind, TrainConfig, Trainer,
};
use clm_runtime::{
    ExecutionBackend, LaneBusy, PipelinedEngine, PrefetchPolicy, RuntimeConfig, ThreadedBackend,
    ThreadedConfig,
};
use gs_core::gaussian::GaussianModel;
use gs_render::Image;
use gs_scene::{
    generate_dataset, init_from_point_cloud, Dataset, DatasetConfig, InitConfig, SceneKind,
    SceneSpec,
};
use sim_device::DeviceProfile;
use std::time::Instant;

/// Workload of one benchmark run.
#[derive(Debug, Clone)]
pub struct WallclockScale {
    /// Label reported in the JSON (`"smoke"`, `"full"`, …).
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
    /// Training epochs per backend.
    pub epochs: usize,
    /// Prefetch lookahead window.
    pub prefetch_window: usize,
    /// Band workers for the `threaded_parallel` compute dimension
    /// (0 = the host's autotuned, cgroup-aware parallelism).
    pub compute_threads: usize,
    /// Simulated devices for the `sharded` entry (CI's shard matrix runs
    /// 1, 2 and 4).
    pub devices: usize,
    /// Densify every this many batches (0 = fixed-size model).  The
    /// schedule is part of the trained trajectory, so every backend crosses
    /// the same boundaries — and the artefact records what the resizes cost
    /// each of them.
    pub densify_every: usize,
}

impl WallclockScale {
    /// Tiny configuration for CI smoke runs (a few seconds on one core).
    /// The 64-row height splits into four equal 16-pixel bands, so four
    /// compute workers get balanced work.
    pub fn smoke() -> Self {
        WallclockScale {
            label: "smoke",
            scene_gaussians: 1_000,
            model_gaussians: 420,
            views: 16,
            width: 80,
            height: 64,
            batch_size: 8,
            epochs: 3,
            prefetch_window: 2,
            compute_threads: 0,
            devices: 1,
            densify_every: 2,
        }
    }

    /// The default benchmark configuration.
    pub fn full() -> Self {
        WallclockScale {
            label: "full",
            scene_gaussians: 1_600,
            model_gaussians: 700,
            views: 24,
            width: 96,
            height: 80,
            batch_size: 8,
            epochs: 4,
            prefetch_window: 2,
            compute_threads: 0,
            devices: 1,
            densify_every: 2,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn test() -> Self {
        WallclockScale {
            label: "test",
            scene_gaussians: 200,
            model_gaussians: 90,
            views: 8,
            width: 32,
            height: 24,
            batch_size: 4,
            epochs: 1,
            prefetch_window: 1,
            compute_threads: 2,
            devices: 2,
            densify_every: 1,
        }
    }

    /// The band-worker count the `threaded_parallel` run actually uses:
    /// the configured `compute_threads`, or the autotuned (cgroup-aware)
    /// default when 0.
    pub fn effective_compute_threads(&self) -> usize {
        if self.compute_threads > 0 {
            self.compute_threads
        } else {
            clm_runtime::tuned().knobs.compute_threads
        }
    }
}

/// One backend's measured run.
#[derive(Debug, Clone)]
pub struct BackendMeasurement {
    /// Backend identifier (`synchronous` / `simulated` / `threaded`).
    pub name: &'static str,
    /// Measured wall-clock seconds for the whole run.
    pub wall_seconds: f64,
    /// Images trained per wall-clock second.
    pub images_per_s: f64,
    /// Communication-lane busy seconds (measured for `threaded`, simulated
    /// device seconds for `simulated`, 0 for `synchronous`).
    pub comm_busy_s: f64,
    /// CPU-Adam-lane busy seconds (same conventions).
    pub adam_busy_s: f64,
    /// Compute-lane busy seconds (same conventions).
    pub compute_busy_s: f64,
    /// Denominator the lane busy *fractions* are reported against: the
    /// measured wall clock for `threaded`, the total **simulated makespan**
    /// for `simulated` (its lane times are simulated device seconds — they
    /// are not commensurable with host wall time), and 0 for `synchronous`
    /// (no lane accounting at all).
    pub lane_denominator_s: f64,
    /// Band workers driving the render compute lane (1 = serial).
    pub compute_threads: usize,
    /// Host cores detected when this entry ran (recorded per entry so
    /// artefacts aggregated across runners stay interpretable).
    pub host_cores: usize,
    /// Prefetch window used on each batch (empty when not applicable).
    pub windows: Vec<usize>,
    /// Per-device lane busy seconds summed over the run, indexed by device:
    /// one entry per simulated device for the `simulated` (always one) and
    /// `sharded` entries, empty for the measured backends.  `scheduling` is
    /// 0 per device — the host scheduler is shared.
    pub device_lanes: Vec<LaneBusy>,
    /// Densification resize boundaries this backend crossed during the run.
    pub resize_events: u64,
    /// Post-resize wall-clock throughput over pre-resize throughput
    /// (images/s after the first boundary ÷ images/s before it; 0 when the
    /// run never resized or per-batch timings are unavailable).  Values
    /// below 1 are the cost of training the densified, larger model.
    pub post_resize_delta: f64,
}

impl BackendMeasurement {
    fn from_reports(
        name: &'static str,
        wall_seconds: f64,
        views: usize,
        lane_denominator_s: f64,
        compute_threads: usize,
        reports: &[clm_runtime::ExecutionReport],
    ) -> Self {
        let devices = reports
            .iter()
            .map(|r| r.device_lanes.len())
            .max()
            .unwrap_or(0);
        let mut device_lanes = vec![LaneBusy::default(); devices];
        for r in reports {
            for (dev, lanes) in r.device_lanes.iter().enumerate() {
                device_lanes[dev].compute += lanes.compute;
                device_lanes[dev].comm += lanes.comm;
                device_lanes[dev].adam += lanes.adam;
            }
        }
        let batch_walls: Vec<f64> = reports.iter().map(|r| r.wall_seconds).collect();
        let batch_views: Vec<usize> = reports.iter().map(|r| r.views).collect();
        let resized: Vec<bool> = reports.iter().map(|r| r.resize.is_some()).collect();
        let (resize_events, post_resize_delta) =
            resize_trajectory(&batch_walls, &batch_views, &resized);
        BackendMeasurement {
            name,
            wall_seconds,
            images_per_s: if wall_seconds > 0.0 {
                views as f64 / wall_seconds
            } else {
                0.0
            },
            comm_busy_s: reports.iter().map(|r| r.lanes.comm).sum(),
            adam_busy_s: reports.iter().map(|r| r.lanes.adam).sum(),
            compute_busy_s: reports.iter().map(|r| r.lanes.compute).sum(),
            lane_denominator_s,
            compute_threads,
            host_cores: detect_host_cores(),
            windows: reports.iter().map(|r| r.prefetch_window).collect(),
            device_lanes,
            resize_events,
            post_resize_delta,
        }
    }

    fn json(&self) -> String {
        let windows = self
            .windows
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let device_lanes = self
            .device_lanes
            .iter()
            .enumerate()
            .map(|(dev, l)| {
                format!(
                    "{{\"device\":{dev},\"compute_busy_s\":{:.6},\
                     \"comm_busy_s\":{:.6},\"adam_busy_s\":{:.6}}}",
                    l.compute, l.comm, l.adam,
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        // Six decimals on the lane seconds/fractions: the comm and Adam
        // lanes are microseconds-per-batch at bench scale, and three
        // decimals used to flatten them to a misleading 0.000.
        format!(
            "{{\"name\":\"{}\",\"wall_s\":{:.4},\"images_per_s\":{:.3},\
             \"comm_busy_s\":{:.6},\"adam_busy_s\":{:.6},\"compute_busy_s\":{:.6},\
             \"lane_denominator_s\":{:.4},\
             \"compute_threads\":{},\"host_cores\":{},\
             \"busy_fractions\":{{\"comm\":{:.6},\"adam\":{:.6},\"compute\":{:.6}}},\
             \"resize_events\":{},\"post_resize_throughput_delta\":{:.3},\
             \"windows\":[{}],\"device_lanes\":[{}]}}",
            self.name,
            self.wall_seconds,
            self.images_per_s,
            self.comm_busy_s,
            self.adam_busy_s,
            self.compute_busy_s,
            self.lane_denominator_s,
            self.compute_threads,
            self.host_cores,
            self.busy_fraction(self.comm_busy_s),
            self.busy_fraction(self.adam_busy_s),
            self.busy_fraction(self.compute_busy_s),
            self.resize_events,
            self.post_resize_delta,
            windows,
            device_lanes,
        )
    }

    fn busy_fraction(&self, lane_seconds: f64) -> f64 {
        if self.lane_denominator_s <= 0.0 {
            return 0.0;
        }
        // A sharded entry sums each lane class across its devices while the
        // denominator stays the one shared makespan, so the raw quotient
        // can exceed 1 (it used to report 1.32 at 2 devices).  Normalise to
        // the per-device mean so the fraction is a utilisation again.
        let devices = self.device_lanes.len().max(1) as f64;
        let fraction = lane_seconds / (self.lane_denominator_s * devices);
        debug_assert!(
            fraction <= 1.0 + 1e-9,
            "{}: busy fraction {fraction} exceeds 1 (lane {lane_seconds}s over {}s x {devices} devices)",
            self.name,
            self.lane_denominator_s,
        );
        fraction
    }
}

/// Complete result of one wall-clock benchmark run.
#[derive(Debug, Clone)]
pub struct WallclockBench {
    /// The workload that ran.
    pub scale: WallclockScale,
    /// Host cores available to the threaded backend (cgroup-effective).
    pub host_cores: usize,
    /// The probed host topology the run tuned itself to (the artefact's
    /// `host_topo` section).
    pub host_topo: sim_device::HostTopology,
    /// The startup calibration and the knob defaults it derived (the
    /// artefact's `autotune` section).  The run's actual knobs may differ
    /// where the scale overrides them.
    pub autotune: clm_runtime::Autotune,
    /// Band workers the `threaded_parallel` entry ran with.
    pub compute_threads: usize,
    /// Simulated devices the `sharded` entry ran with.
    pub devices: usize,
    /// Measurements in `[synchronous, simulated, threaded,
    /// threaded_parallel, sharded]` order.
    pub backends: Vec<BackendMeasurement>,
    /// Per-kernel throughput microbenchmarks (`adam_step`,
    /// `raster_forward`, `raster_backward`, `projection`), embedded so one
    /// artefact carries both end-to-end and per-kernel numbers.
    pub kernels: crate::kernels::KernelBench,
    /// Whether all five final models were bit-identical.
    pub numerics_match: bool,
    /// The shard-count invariance gate: whether the `sharded` entry's final
    /// model equalled the synchronous trainer's bit for bit at this device
    /// count.
    pub sharded_bit_identical: bool,
}

impl WallclockBench {
    /// The measurement of one backend by name.
    pub fn backend(&self, name: &str) -> &BackendMeasurement {
        self.backends
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("no backend named {name}"))
    }

    /// Threaded wall-clock throughput over synchronous throughput.
    pub fn speedup_threaded_vs_sync(&self) -> f64 {
        ratio(
            self.backend("threaded").images_per_s,
            self.backend("synchronous").images_per_s,
        )
    }

    /// Threaded wall-clock throughput over the simulated engine's.
    pub fn speedup_threaded_vs_simulated(&self) -> f64 {
        ratio(
            self.backend("threaded").images_per_s,
            self.backend("simulated").images_per_s,
        )
    }

    /// Compute-lane throughput of the parallel run over the serial run:
    /// both trained the same images, so the ratio of their compute-lane
    /// busy seconds *is* the lane's throughput speedup.  This is the
    /// serial-vs-parallel compute dimension of the artefact.
    pub fn compute_speedup_parallel_vs_serial(&self) -> f64 {
        ratio(
            self.backend("threaded").compute_busy_s,
            self.backend("threaded_parallel").compute_busy_s,
        )
    }

    /// Parallel-compute wall-clock throughput over synchronous throughput.
    pub fn speedup_parallel_vs_sync(&self) -> f64 {
        ratio(
            self.backend("threaded_parallel").images_per_s,
            self.backend("synchronous").images_per_s,
        )
    }

    /// Caveat attached to the artefact when the host cannot actually
    /// deliver the run's parallelism: on one core the threaded entries
    /// time-slice, and under a cgroup quota smaller than the configured
    /// `compute_threads` the band workers oversubscribe.  `None` when the
    /// host backs the configuration (see [`perf_note_for`]).
    pub fn perf_note(&self) -> Option<String> {
        perf_note_for(self.host_cores, self.compute_threads)
    }

    /// Serialises the result as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let backends = self
            .backends
            .iter()
            .map(BackendMeasurement::json)
            .collect::<Vec<_>>()
            .join(",");
        let perf_note = match self.perf_note() {
            Some(note) => format!("\"{note}\""),
            None => "null".to_string(),
        };
        format!(
            "{{\"bench\":\"runtime_wallclock\",\"scale\":\"{}\",\"host_cores\":{},\
             \"perf_note\":{perf_note},\
             \"host_topo\":{},\"autotune\":{},\
             \"compute_threads\":{},\"devices\":{},\"densify_every\":{},\
             \"views_per_epoch\":{},\"epochs\":{},\"batch_size\":{},\"prefetch_window\":{},\
             \"model_gaussians\":{},\"resolution\":\"{}x{}\",\
             \"backends\":[{}],\
             \"kernels\":{},\
             \"speedup_threaded_vs_sync\":{:.3},\"speedup_threaded_vs_simulated\":{:.3},\
             \"speedup_parallel_vs_sync\":{:.3},\
             \"compute_speedup_parallel_vs_serial\":{:.3},\
             \"numerics_match\":{},\"sharded_bit_identical\":{}}}",
            self.scale.label,
            self.host_cores,
            self.host_topo.to_json(),
            self.autotune.to_json(),
            self.compute_threads,
            self.devices,
            self.scale.densify_every,
            self.scale.views,
            self.scale.epochs,
            self.scale.batch_size,
            self.scale.prefetch_window,
            self.scale.model_gaussians,
            self.scale.width,
            self.scale.height,
            backends,
            self.kernels.section_json(),
            self.speedup_threaded_vs_sync(),
            self.speedup_threaded_vs_simulated(),
            self.speedup_parallel_vs_sync(),
            self.compute_speedup_parallel_vs_serial(),
            self.numerics_match,
            self.sharded_bit_identical,
        )
    }
}

/// Detected host parallelism the bench sizes its worker lanes by: the
/// cgroup-effective core count, never below 1.
///
/// This used to read raw `available_parallelism()`, which ignores cgroup
/// CPU quotas — in a container limited to 2 CPUs on a 64-core runner the
/// bench spawned 64 band workers that time-sliced against each other and
/// the artefact recorded `host_cores: 64` for a 2-core budget.  Routing
/// through [`sim_device::HostTopology`] caps the count by the quota.
pub fn detect_host_cores() -> usize {
    sim_device::HostTopology::cached().effective_cores()
}

/// The perf caveat for a host that cannot deliver the parallelism a run
/// asked for, as a pure function so tests can feed mocked core counts.
///
/// Fires in two situations:
///
/// * `effective_cores == 1` — the threaded lanes time-slice instead of
///   overlapping, so every measured speedup under-represents multi-core
///   hardware;
/// * `compute_threads > effective_cores` — the run was configured (or a
///   stale cached knob asked) for more band workers than the cgroup quota
///   actually grants, so the parallel-compute lane oversubscribes.
///
/// `None` when the host can genuinely back the configured parallelism.
pub fn perf_note_for(effective_cores: usize, compute_threads: usize) -> Option<String> {
    if effective_cores == 1 {
        return Some(
            "single-core host: threaded lanes time-slice instead of overlapping; \
             measured speedups under-represent multi-core hardware"
                .to_string(),
        );
    }
    if compute_threads > effective_cores {
        return Some(format!(
            "cpu quota grants only {effective_cores} effective cores but \
             compute_threads={compute_threads}: oversubscribed band workers time-slice; \
             measured parallel-compute speedup under-represents an unthrottled host"
        ));
    }
    None
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Summarises a run's densification trajectory from per-batch wall times:
/// how many resize boundaries were crossed, and post-resize throughput over
/// pre-resize throughput (split at the first boundary; 0 when either side
/// is empty).
fn resize_trajectory(walls: &[f64], views: &[usize], resized: &[bool]) -> (u64, f64) {
    let events = resized.iter().filter(|&&r| r).count() as u64;
    let delta = match resized.iter().position(|&r| r) {
        Some(k) if k > 0 && k < walls.len() => {
            let pre = ratio(
                views[..k].iter().sum::<usize>() as f64,
                walls[..k].iter().sum(),
            );
            let post = ratio(
                views[k..].iter().sum::<usize>() as f64,
                walls[k..].iter().sum(),
            );
            ratio(post, pre)
        }
        _ => 0.0,
    };
    (events, delta)
}

pub(crate) fn bench_scene(scale: &WallclockScale) -> (Dataset, Vec<Image>, GaussianModel) {
    let spec = SceneSpec::of(SceneKind::Rubble);
    let dataset = generate_dataset(
        &spec,
        &DatasetConfig {
            num_gaussians: scale.scene_gaussians,
            num_views: scale.views,
            width: scale.width,
            height: scale.height,
            seed: 29,
        },
    );
    let targets = ground_truth_images(&dataset);
    let init = init_from_point_cloud(
        &dataset.ground_truth,
        &InitConfig {
            num_gaussians: scale.model_gaussians,
            initial_sigma: spec.extent * 0.03,
            initial_opacity: 0.4,
            seed: 3,
            ..Default::default()
        },
    );
    (dataset, targets, init)
}

pub(crate) fn train_config(scale: &WallclockScale) -> TrainConfig {
    TrainConfig {
        system: SystemKind::Clm,
        batch_size: scale.batch_size,
        densify: (scale.densify_every > 0).then(|| DensifySchedule {
            every_batches: scale.densify_every,
            config: DensifyConfig {
                // Low gradient threshold so the model grows towards its cap
                // at the first boundary: densification cost shows up as a
                // measurable post-resize throughput delta.
                grad_threshold: 1.0e-5,
                max_gaussians: scale.model_gaussians + scale.model_gaussians / 8,
                ..Default::default()
            },
        }),
        ..Default::default()
    }
}

/// Paper-scale costing of the simulated engine at `devices` lane groups:
/// the bench scene priced as the paper's 45.2 M-Gaussian, 1080p workload, so
/// the *simulated* metrics stay in the bandwidth-bound regime.  Shared with
/// the trace recorder, so traces and `BENCH_runtime.json` describe the same
/// schedules.
pub(crate) fn paper_scale_config(
    scale: &WallclockScale,
    model_len: usize,
    devices: usize,
) -> RuntimeConfig {
    RuntimeConfig {
        device: DeviceProfile::rtx4090(),
        prefetch_window: scale.prefetch_window,
        policy: PrefetchPolicy::Fixed,
        cost_scale: 45_200_000.0 / model_len as f64,
        pixel_cost_scale: (1920.0 * 1080.0) / (scale.width as f64 * scale.height as f64),
        compute_threads: 0,
        band_height: 0,
        num_devices: devices,
        warm_start_ratio: None,
    }
}

/// Runs the benchmark at the given scale.
pub fn run_wallclock_bench(scale: WallclockScale) -> WallclockBench {
    let (dataset, targets, init) = bench_scene(&scale);
    let model_len = init.len();
    let total_views = scale.views * scale.epochs;
    let compute_threads = scale.effective_compute_threads();

    // Warmup: one discarded epoch on a throwaway trainer, so first-run
    // costs (page faults, allocator growth, frequency ramp) are not charged
    // to whichever backend happens to be timed first.
    {
        let mut warm = Trainer::new(init.clone(), train_config(&scale));
        warm.train_epoch(&dataset, &targets);
    }

    // 1. Synchronous reference trainer, timed per batch so its resize
    // trajectory (boundary count, post-resize throughput delta) is measured
    // the same way as the runtime backends'.
    let mut sync = Trainer::new(init.clone(), train_config(&scale));
    let batch = scale.batch_size.max(1);
    let mut batch_walls = Vec::new();
    let mut batch_views = Vec::new();
    let mut batch_resized = Vec::new();
    let start = Instant::now();
    for _ in 0..scale.epochs {
        let mut view = 0;
        while view < dataset.cameras.len() {
            let end = (view + batch).min(dataset.cameras.len());
            // Detect the boundary from the counter delta — a usize read —
            // rather than pre-planning the event, which would charge the
            // sync baseline extra planning work the runtime backends'
            // measured regions don't pay.
            let resizes_before = sync.resize_events();
            let t = Instant::now();
            sync.train_batch(&dataset.cameras[view..end], &targets[view..end]);
            batch_walls.push(t.elapsed().as_secs_f64());
            batch_resized.push(sync.resize_events() > resizes_before);
            batch_views.push(end - view);
            view = end;
        }
    }
    let sync_wall = start.elapsed().as_secs_f64();
    let (sync_resizes, sync_delta) = resize_trajectory(&batch_walls, &batch_views, &batch_resized);
    let sync_measure = BackendMeasurement {
        name: "synchronous",
        wall_seconds: sync_wall,
        images_per_s: ratio(total_views as f64, sync_wall),
        comm_busy_s: 0.0,
        adam_busy_s: 0.0,
        compute_busy_s: 0.0,
        lane_denominator_s: 0.0,
        compute_threads: 1,
        host_cores: detect_host_cores(),
        windows: Vec::new(),
        device_lanes: Vec::new(),
        resize_events: sync_resizes,
        post_resize_delta: sync_delta,
    };

    // 2. Simulated (discrete-event) engine at one device — only its
    // wall-clock time matters here.
    let mut simulated = PipelinedEngine::new(
        init.clone(),
        train_config(&scale),
        paper_scale_config(&scale, model_len, 1),
    );
    let (sim_reports, sim_wall) = timed_epochs(&mut simulated, &dataset, &targets, scale.epochs);
    // The simulated backend's lane times are simulated device seconds, so
    // its busy fractions are reported against the simulated makespan.
    let sim_makespan: f64 = sim_reports.iter().filter_map(|r| r.sim_makespan).sum();
    let sim_measure = BackendMeasurement::from_reports(
        "simulated",
        sim_wall,
        total_views,
        sim_makespan,
        1,
        &sim_reports,
    );

    // 3. Threaded backend — real worker threads for comm + CPU Adam, the
    // render compute serial.
    let mut threaded = ThreadedBackend::new(
        init.clone(),
        train_config(&scale),
        ThreadedConfig {
            prefetch_window: scale.prefetch_window,
            ..Default::default()
        },
    );
    let (thr_reports, thr_wall) = timed_epochs(&mut threaded, &dataset, &targets, scale.epochs);
    let thr_measure = BackendMeasurement::from_reports(
        "threaded",
        thr_wall,
        total_views,
        thr_wall,
        1,
        &thr_reports,
    );

    // 4. Threaded backend with the banded compute lane fanned out — the
    // serial-vs-parallel compute dimension.
    let mut parallel = ThreadedBackend::new(
        init.clone(),
        train_config(&scale),
        ThreadedConfig {
            prefetch_window: scale.prefetch_window,
            compute_threads,
            ..Default::default()
        },
    );
    let (par_reports, par_wall) = timed_epochs(&mut parallel, &dataset, &targets, scale.epochs);
    let par_measure = BackendMeasurement::from_reports(
        "threaded_parallel",
        par_wall,
        total_views,
        par_wall,
        compute_threads,
        &par_reports,
    );

    // 5. The same simulated engine with the scene split across `devices`
    // per-device lane groups.  Its final model vs the synchronous trainer's
    // is the shard-count invariance gate CI's shard matrix runs at 1, 2 and
    // 4 devices.
    let devices = scale.devices.max(1);
    let mut sharded = PipelinedEngine::new(
        init,
        train_config(&scale),
        paper_scale_config(&scale, model_len, devices),
    )
    .partition_over(&dataset.cameras);
    let (shard_reports, shard_wall) = timed_epochs(&mut sharded, &dataset, &targets, scale.epochs);
    let shard_makespan: f64 = shard_reports.iter().filter_map(|r| r.sim_makespan).sum();
    let shard_measure = BackendMeasurement::from_reports(
        "sharded",
        shard_wall,
        total_views,
        shard_makespan,
        1,
        &shard_reports,
    );

    let sharded_bit_identical = sync.model() == sharded.trainer().model();
    let numerics_match = sync.model() == simulated.trainer().model()
        && sync.model() == threaded.trainer().model()
        && sync.model() == parallel.trainer().model()
        && sharded_bit_identical;

    // Per-kernel throughput, matched to the end-to-end workload tier.
    let mut kernel_scale = match scale.label {
        "full" => crate::kernels::KernelScale::full(),
        "test" => crate::kernels::KernelScale::test(),
        _ => crate::kernels::KernelScale::smoke(),
    };
    kernel_scale.compute_threads = scale.compute_threads;
    let kernels = crate::kernels::run_kernel_bench(kernel_scale);

    WallclockBench {
        scale,
        host_cores: detect_host_cores(),
        host_topo: sim_device::HostTopology::cached().clone(),
        autotune: clm_runtime::tuned().clone(),
        compute_threads,
        devices,
        backends: vec![
            sync_measure,
            sim_measure,
            thr_measure,
            par_measure,
            shard_measure,
        ],
        kernels,
        numerics_match,
        sharded_bit_identical,
    }
}

fn timed_epochs<B: ExecutionBackend>(
    backend: &mut B,
    dataset: &Dataset,
    targets: &[Image],
    epochs: usize,
) -> (Vec<clm_runtime::ExecutionReport>, f64) {
    let start = Instant::now();
    let mut reports = Vec::new();
    for _ in 0..epochs {
        reports.extend(backend.execute_epoch(dataset, targets));
    }
    (reports, start.elapsed().as_secs_f64())
}

/// Cheap structural check that a benchmark artefact is a plausible
/// single-line JSON object with the keys the CI gate needs.  (The build is
/// dependency-free, so this is deliberately a shape check, not a parser.)
pub fn looks_like_bench_json(s: &str) -> bool {
    let t = s.trim();
    let depth_balanced = {
        let depth = t.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        depth == 0
    };
    !t.contains('\n')
        && t.starts_with('{')
        && t.ends_with('}')
        && depth_balanced
        && t.contains("\"bench\":\"runtime_wallclock\"")
        && t.contains("\"perf_note\":")
        && t.contains("\"host_topo\":{")
        && t.contains("\"autotune\":{\"calibration\":{")
        && t.contains("\"knobs\":{")
        && t.contains("\"fingerprint\":\"")
        && t.contains("\"speedup_threaded_vs_sync\":")
        && t.contains("\"compute_speedup_parallel_vs_serial\":")
        && t.contains("\"numerics_match\":")
        && t.contains("\"devices\":")
        && t.contains("\"name\":\"sharded\"")
        && t.contains("\"sharded_bit_identical\":")
        && t.contains("\"resize_events\":")
        && t.contains("\"post_resize_throughput_delta\":")
        && t.contains("\"kernels\":{")
        && crate::kernels::KERNEL_NAMES
            .iter()
            .all(|name| t.contains(&format!("\"{name}\":{{\"rows\":")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wallclock_bench_runs_and_serialises() {
        let bench = run_wallclock_bench(WallclockScale::test());
        assert!(
            bench.numerics_match,
            "all five backends must train identically"
        );
        assert!(bench.sharded_bit_identical);
        assert_eq!(bench.backends.len(), 5);
        for b in &bench.backends {
            assert!(b.wall_seconds > 0.0, "{}", b.name);
            assert!(b.images_per_s > 0.0, "{}", b.name);
            assert!(b.host_cores >= 1, "{}", b.name);
        }
        assert!(bench.speedup_threaded_vs_sync() > 0.0);
        assert!(bench.compute_speedup_parallel_vs_serial() > 0.0);
        assert_eq!(bench.backend("threaded").compute_threads, 1);
        assert_eq!(bench.backend("threaded_parallel").compute_threads, 2);
        let json = bench.to_json();
        assert!(looks_like_bench_json(&json), "malformed: {json}");
        // The embedded kernel section measured all four kernels.
        assert_eq!(bench.kernels.kernels.len(), 4);
        for name in crate::kernels::KERNEL_NAMES {
            assert!(bench.kernels.kernel(name).rows_per_s > 0.0, "{name}");
        }
        assert!(json.contains(&format!("\"kernels\":{}", bench.kernels.section_json())));
        assert!(json.contains("\"numerics_match\":true"));
        assert!(json.contains("\"sharded_bit_identical\":true"));
        // The single-core caveat is present exactly when the host cannot
        // overlap lanes (the test scale's 2 band workers fit any ≥ 2-core
        // budget, so the quota caveat cannot fire here).
        if bench.host_cores == 1 {
            assert!(json.contains("\"perf_note\":\"single-core host"));
        } else {
            assert!(json.contains("\"perf_note\":null"));
        }
        // The artefact records what the run tuned itself to: the probed
        // topology (with its tuning-record fingerprint) and the startup
        // calibration with its derived knob defaults.
        assert!(json.contains("\"host_topo\":{\"vendor\":"), "{json}");
        assert!(json.contains("\"autotune\":{\"calibration\":{"), "{json}");
        assert!(json.contains("\"fingerprint\":\""), "{json}");
        assert_eq!(bench.host_cores, bench.host_topo.effective_cores());
        assert!(bench.autotune.knobs.compute_threads >= 1);
        assert!(bench.autotune.calibration.adam_rows_per_s > 0.0);
        // Busy fractions are utilisations again — the sharded entry used to
        // report 1.32 by summing device lanes against one shared makespan.
        for b in &bench.backends {
            for lane_s in [b.comm_busy_s, b.adam_busy_s, b.compute_busy_s] {
                let f = b.busy_fraction(lane_s);
                assert!((0.0..=1.0).contains(&f), "{}: fraction {f}", b.name);
            }
        }
        // The threaded backends actually used their gather and Adam lanes
        // (the lane accounting these fields report used to flatline at 0).
        for name in ["threaded", "threaded_parallel"] {
            assert!(bench.backend(name).comm_busy_s > 0.0, "{name}");
            assert!(bench.backend(name).adam_busy_s > 0.0, "{name}");
            assert!(bench.backend(name).compute_busy_s > 0.0, "{name}");
        }
        // The sharded entry carries the per-device lane breakdown at the
        // test scale's 2 devices, and its summed lanes match the totals.
        assert_eq!(bench.devices, 2);
        let sharded = bench.backend("sharded");
        assert_eq!(sharded.device_lanes.len(), 2);
        for (dev, lanes) in sharded.device_lanes.iter().enumerate() {
            assert!(lanes.compute > 0.0, "device {dev}");
            assert!(lanes.comm > 0.0, "device {dev}");
            assert!(lanes.adam > 0.0, "device {dev}");
        }
        let summed: f64 = sharded.device_lanes.iter().map(|l| l.compute).sum();
        assert!((summed - sharded.compute_busy_s).abs() < 1e-9);
        assert!(json.contains("\"device_lanes\":[{\"device\":0,"));
        // One entry per simulated device; measured backends carry none.
        assert_eq!(bench.backend("simulated").device_lanes.len(), 1);
        assert!(bench.backend("threaded").device_lanes.is_empty());
        // The test scale densifies every batch: all five backends cross the
        // same single boundary (2 batches -> resize before batch 2), and the
        // artefact records it.
        for b in &bench.backends {
            assert_eq!(b.resize_events, 1, "{}", b.name);
        }
        assert!(json.contains("\"resize_events\":1"));
        assert!(json.contains("\"densify_every\":1"));
        assert!(json.contains("\"post_resize_throughput_delta\":"));
        // Both sides of the boundary ran, so every backend has a measurable
        // post-resize throughput delta.
        for b in &bench.backends {
            assert!(
                b.post_resize_delta > 0.0,
                "{}: {}",
                b.name,
                b.post_resize_delta
            );
        }
    }

    #[test]
    fn resize_trajectory_splits_at_the_first_boundary() {
        // No boundary, or a boundary on the very first batch, yields no
        // delta (there is no pre-resize side to compare against).
        assert_eq!(
            resize_trajectory(&[1.0, 1.0], &[4, 4], &[false, false]),
            (0, 0.0)
        );
        let (events, delta) = resize_trajectory(&[1.0, 1.0], &[4, 4], &[true, false]);
        assert_eq!(events, 1);
        assert_eq!(delta, 0.0);
        // Two batches at 4 img/s, then two post-resize batches at 2 img/s:
        // the delta is exactly 0.5.
        let (events, delta) = resize_trajectory(
            &[1.0, 1.0, 2.0, 2.0],
            &[4, 4, 4, 4],
            &[false, false, true, false],
        );
        assert_eq!(events, 1);
        assert!((delta - 0.5).abs() < 1e-12, "{delta}");
    }

    #[test]
    fn bench_json_shape_check_rejects_junk() {
        assert!(!looks_like_bench_json(""));
        assert!(!looks_like_bench_json("{\"bench\":\"runtime_wallclock\""));
        assert!(!looks_like_bench_json(
            "{\"bench\":\"runtime_wallclock\"}\n{\"x\":1}"
        ));
        assert!(!looks_like_bench_json("{\"bench\":\"other\"}"));
        // The pre-compute-dimension shape (no serial-vs-parallel key) is
        // rejected too — the CI gate must not pass on stale artefacts.
        assert!(!looks_like_bench_json(
            "{\"bench\":\"runtime_wallclock\",\"speedup_threaded_vs_sync\":1.0,\
             \"numerics_match\":true}"
        ));
        // So is the pre-sharding shape (no devices / sharded entry /
        // invariance flag).
        assert!(!looks_like_bench_json(
            "{\"bench\":\"runtime_wallclock\",\"speedup_threaded_vs_sync\":1.0,\
             \"compute_speedup_parallel_vs_serial\":1.0,\"numerics_match\":true}"
        ));
        // And the pre-kernel-section shape: a current artefact must carry
        // per-kernel throughput for all four kernels.
        let mut no_kernels = run_kernel_free_fixture();
        assert!(!looks_like_bench_json(&no_kernels));
        no_kernels = no_kernels.replace(
            "\"kernels\":{}",
            "\"kernels\":{\"adam_step\":{\"rows\":1,\"wall_s\":0.1,\"rows_per_s\":10.0},\
             \"raster_forward\":{\"rows\":1,\"wall_s\":0.1,\"rows_per_s\":10.0},\
             \"raster_backward\":{\"rows\":1,\"wall_s\":0.1,\"rows_per_s\":10.0},\
             \"projection\":{\"rows\":1,\"wall_s\":0.1,\"rows_per_s\":10.0}}",
        );
        assert!(looks_like_bench_json(&no_kernels));
        // A pre-autotune artefact (no host_topo / autotune sections) is
        // stale: the gate must force it to be regenerated.
        let stale = no_kernels.replace("\"host_topo\":", "\"old_topo\":");
        assert!(!looks_like_bench_json(&stale));
        let stale = no_kernels.replace("\"autotune\":", "\"old_tune\":");
        assert!(!looks_like_bench_json(&stale));
    }

    #[test]
    fn perf_note_flags_single_core_and_quota_oversubscription() {
        // One effective core: the historical single-core caveat, verbatim
        // (downstream tooling greps for the prefix).
        let note = perf_note_for(1, 1).expect("single-core note");
        assert!(note.starts_with("single-core host"), "{note}");
        // A 2-core cgroup quota with 8 configured band workers used to
        // report no caveat at all — the check only looked at cores == 1.
        let note = perf_note_for(2, 8).expect("oversubscription note");
        assert!(note.contains("2 effective cores"), "{note}");
        assert!(note.contains("compute_threads=8"), "{note}");
        // A host that can back the configuration carries no caveat, even
        // with head-room to spare.
        assert_eq!(perf_note_for(4, 4), None);
        assert_eq!(perf_note_for(8, 2), None);
    }

    /// A structurally-complete artefact except for an empty `kernels`
    /// section — the stale shape the gate must reject.
    fn run_kernel_free_fixture() -> String {
        "{\"bench\":\"runtime_wallclock\",\"perf_note\":null,\
         \"host_topo\":{\"vendor\":\"generic\",\"effective_cores\":1,\
         \"fingerprint\":\"generic-1c1t-l2:512k-l3:0k-e1\"},\
         \"autotune\":{\"calibration\":{\"wall_ms\":1.0},\
         \"knobs\":{\"compute_threads\":1}},\"devices\":1,\
         \"speedup_threaded_vs_sync\":1.0,\"compute_speedup_parallel_vs_serial\":1.0,\
         \"numerics_match\":true,\"sharded_bit_identical\":true,\"resize_events\":0,\
         \"post_resize_throughput_delta\":0.0,\"name\":\"sharded\",\"kernels\":{}}"
            .to_string()
    }
}
