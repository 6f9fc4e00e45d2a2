//! Hardware-aware autotuning of the execution knobs.
//!
//! Every knob that decides CLM's overlap quality used to be hand-set:
//! `compute_threads`, `band_height`, the prefetch window and the Adam
//! chunk size all shipped with constants tuned on whatever machine the
//! committed baseline happened to run on (a 1-core container).  This module
//! closes the loop in three stages, SimPoint-style — a few calibrated
//! micro-samples predict full-run behaviour:
//!
//! 1. **Probe** — [`sim_device::HostTopology`] detects vendor, core
//!    topology, cache sizes and the cgroup CPU quota;
//! 2. **Calibrate** — [`Calibration::run`] micro-benches the AoSoA Adam
//!    lane kernel, one rasteriser band pass and a staged-row gather for a
//!    few milliseconds each at startup, fitting per-host throughput the
//!    static [`CostModel`](crate::engine) cannot know;
//! 3. **Derive** — [`derive_knobs`] turns topology + calibration into
//!    [`TunedKnobs`], every field of which the existing config knobs
//!    override (`0`/`None` = autotune, anything else wins).
//!
//! The process-wide [`tuned`] result is computed once, cached, and also
//! installed as `gs_render`'s default compute width so the documented
//! `compute_threads = 0` "inherit" sentinel resolves to the tuned value
//! everywhere.  None of this touches numerics: thread counts, windows
//! and chunk sizes are pure scheduling, and the tuned `band_height` (which
//! *is* part of the numeric contract) is a pure function of the host, so
//! every backend in one process tunes to the same value and stays
//! bit-comparable.

use gs_core::NON_CRITICAL_FLOATS;
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_optim::{compute_packed, AdamConfig, AdamWorkItem, WORK_ITEM_BYTES};
use gs_render::{render, RenderOptions, DEFAULT_BAND_HEIGHT, TILE_SIZE};
use gs_scene::{
    generate_dataset, init_from_point_cloud, DatasetConfig, InitConfig, SceneKind, SceneSpec,
};
use sim_device::{DeviceProfile, HostTopology};
use std::sync::OnceLock;
use std::time::Instant;

/// Gaussians in the calibration model (small enough that the whole pass
/// stays in the tens of milliseconds, large enough to exercise the lane
/// kernels past their ramp-up).
const CALIBRATION_GAUSSIANS: usize = 512;

/// Rows in the Adam and gather calibration workloads.
const CALIBRATION_ROWS: usize = 4096;

/// Render resolution of the calibration band pass.
const CALIBRATION_WIDTH: u32 = 96;
/// Render resolution of the calibration band pass.
const CALIBRATION_HEIGHT: u32 = 64;

/// Minimum timed duration of each micro-bench (seconds).  Three benches at
/// ~4 ms each keeps the whole calibration pass in the tens of
/// milliseconds.
const CALIBRATION_BUDGET_S: f64 = 0.004;

/// Measured per-host throughput of the three calibrated hot paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// AoSoA Adam lane kernel throughput (rows/s; one row = one Gaussian's
    /// 59-parameter update).
    pub adam_rows_per_s: f64,
    /// Banded rasteriser forward throughput (rows/s; one row = one
    /// depth-sorted splat that survived projection).
    pub raster_rows_per_s: f64,
    /// Staged-row gather (pinned-buffer memcpy) throughput (rows/s; one
    /// row = one Gaussian's non-critical floats).
    pub gather_rows_per_s: f64,
    /// Wall-clock milliseconds the whole calibration pass took.
    pub wall_ms: f64,
}

impl Calibration {
    /// Runs the three micro-benches (~tens of milliseconds total).
    ///
    /// Everything is serial (`compute_threads = 1`): the calibration
    /// measures single-core kernel throughput, and the autotuner scales by
    /// the topology's core count separately.
    pub fn run() -> Self {
        let started = Instant::now();

        // 1. Adam lane kernel over self-contained packed work items (the
        // CPU Adam lane itself runs the same kernel through
        // `step_detached`, against the live moment stores).
        let mut items: Vec<AdamWorkItem> = (0..CALIBRATION_ROWS)
            .map(|i| {
                let mut item = AdamWorkItem {
                    index: i as u32,
                    step: 1 + (i % 5) as u64,
                    params: [0.0; PARAMS_PER_GAUSSIAN],
                    grad: [0.0; PARAMS_PER_GAUSSIAN],
                    m: [0.0; PARAMS_PER_GAUSSIAN],
                    v: [0.0; PARAMS_PER_GAUSSIAN],
                };
                for k in 0..PARAMS_PER_GAUSSIAN {
                    let x = (i * PARAMS_PER_GAUSSIAN + k) as f32;
                    item.params[k] = 1.0e-2 * (x * 0.11 - 3.0);
                    item.grad[k] = 1.0e-3 * (x * 0.37 - 11.0);
                    item.m[k] = 1.0e-4 * x;
                    item.v[k] = 1.0e-6 * x;
                }
                item
            })
            .collect();
        let config = AdamConfig::default();
        let adam_rows_per_s = timed_rows(CALIBRATION_ROWS as u64, || {
            compute_packed(&config, &mut items)
        });

        // 2. One serial banded render — the rasteriser's forward band loop
        // over a synthetic scene sized like the kernel bench's smoke tier.
        let dataset = generate_dataset(
            &SceneSpec::of(SceneKind::Bicycle),
            &DatasetConfig {
                num_gaussians: CALIBRATION_GAUSSIANS,
                num_views: 1,
                width: CALIBRATION_WIDTH,
                height: CALIBRATION_HEIGHT,
                seed: 17,
            },
        );
        let model = init_from_point_cloud(
            &dataset.ground_truth,
            &InitConfig {
                num_gaussians: CALIBRATION_GAUSSIANS,
                ..Default::default()
            },
        );
        let camera = &dataset.cameras[0];
        let options = RenderOptions {
            compute_threads: 1,
            ..Default::default()
        };
        let splats = render(&model, camera, &options).aux.projected_count() as u64;
        let raster_rows_per_s = timed_rows(splats.max(1), || {
            std::hint::black_box(render(&model, camera, &options));
        });

        // 3. Staged-row gather: the pinned-buffer copy pattern of the
        // communication lane (indexed rows, not a straight memcpy).
        let store: Vec<[f32; NON_CRITICAL_FLOATS]> = (0..CALIBRATION_ROWS)
            .map(|i| [i as f32 * 0.5; NON_CRITICAL_FLOATS])
            .collect();
        let indices: Vec<u32> = (0..CALIBRATION_ROWS as u32).rev().collect();
        let mut staging = vec![[0.0f32; NON_CRITICAL_FLOATS]; CALIBRATION_ROWS];
        let gather_rows_per_s = timed_rows(CALIBRATION_ROWS as u64, || {
            for (slot, &idx) in staging.iter_mut().zip(&indices) {
                *slot = store[idx as usize];
            }
            std::hint::black_box(&staging);
        });

        Calibration {
            adam_rows_per_s,
            raster_rows_per_s,
            gather_rows_per_s,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// Runs `body` repeatedly until the calibration budget elapses and returns
/// the measured rows/s (one warm-up repetition is untimed).
fn timed_rows<F: FnMut()>(rows_per_rep: u64, mut body: F) -> f64 {
    body();
    let start = Instant::now();
    let mut reps = 0u64;
    while reps < 4 || start.elapsed().as_secs_f64() < CALIBRATION_BUDGET_S {
        body();
        reps += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    if secs > 0.0 {
        (rows_per_rep * reps) as f64 / secs
    } else {
        0.0
    }
}

/// The knob values the autotuner derived for this host.  Every field is a
/// *default*: the corresponding config field overrides it when set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedKnobs {
    /// Banded-render workers (`RuntimeConfig`/`ThreadedConfig`/
    /// `RenderOptions::compute_threads` override; their `0` sentinel means
    /// "use this").  The host's effective (quota-aware) core count.
    pub compute_threads: usize,
    /// CPU Adam lane fan-out (`ThreadedConfig::adam_threads` overrides).
    pub adam_threads: usize,
    /// Target rows per Adam shard so one shard's working set stays
    /// L2-resident (`ThreadedConfig::adam_chunk_rows` overrides; the Adam
    /// lane fans a group out only as far as this target requires).
    pub adam_chunk_rows: usize,
    /// Accumulation band height fitted to the L2 size at a reference image
    /// width (`RenderOptions`/`TrainConfig::band_height` override).  Part
    /// of the numeric contract, so it is a pure function of the host — all
    /// backends in one process tune to the same value.
    pub band_height: u32,
    /// Prefetch window from the measured fetch/compute ratio
    /// (`prefetch_window` configs override).
    pub prefetch_window: usize,
    /// Fitted ratio of the simulated RTX 4090 forward rate to this host's
    /// measured rasteriser rate — the per-host `CostModel` correction
    /// (`RuntimeConfig::cost_scale` stays authoritative; this is the
    /// measured hint).
    pub sim_compute_scale: f64,
}

/// Reference image width (pixels) the band-height fit assumes; per-pixel
/// band state is roughly image + pixel-state + gradient bytes.
const BAND_FIT_WIDTH: u64 = 1024;
/// Approximate per-pixel bytes live while a band accumulates.
const BAND_FIT_BYTES_PER_PIXEL: u64 = 32;

/// Derives the tuned knob values from a probed topology and a calibration.
/// Pure, so tests can feed mocked topologies (e.g. a cgroup-throttled
/// 64-core host).
pub fn derive_knobs(topo: &HostTopology, cal: &Calibration) -> TunedKnobs {
    let cores = topo.effective_cores();

    // Half the L2 for the chunk (the other half keeps the streamed
    // gradients and lane temporaries resident).
    let l2 = topo.l2_bytes.max(64 * 1024);
    let adam_chunk_rows = ((l2 / 2) as usize / WORK_ITEM_BYTES.max(1)).clamp(256, 16_384);

    // Band height: the largest multiple of the tile size whose band state
    // at a reference width stays in half the L2, clamped to [1, 4] tile
    // rows.  16 (the default) on typical 512K-L2 hosts, wider on big-cache
    // parts.
    let fit = (l2 / 2) / (BAND_FIT_WIDTH * BAND_FIT_BYTES_PER_PIXEL);
    let tiles = (fit / TILE_SIZE as u64).clamp(1, 4) as u32;
    let band_height = (tiles * TILE_SIZE).max(DEFAULT_BAND_HEIGHT);

    // Window: the measured per-row fetch/compute ratio.  A micro-batch
    // gathers roughly as many rows as it rasterises splats, so the ratio of
    // the two calibrated rates estimates fetch_time / compute_time.
    let ratio = if cal.gather_rows_per_s > 0.0 {
        cal.raster_rows_per_s / cal.gather_rows_per_s
    } else {
        0.0
    };
    let prefetch_window = (ratio.ceil() as usize).clamp(1, 8);

    // CostModel fit: how many times the simulated device outruns this
    // host's measured single-core rasteriser.
    let device = DeviceProfile::rtx4090();
    let ref_gaussians = 100_000u64;
    let ref_pixels = 1920u64 * 1080;
    let device_rows_per_s =
        ref_gaussians as f64 / device.forward_time(ref_gaussians, ref_pixels).max(1e-12);
    let sim_compute_scale = if cal.raster_rows_per_s > 0.0 {
        device_rows_per_s / cal.raster_rows_per_s
    } else {
        1.0
    };

    TunedKnobs {
        compute_threads: cores.min(64),
        adam_threads: cores.min(64),
        adam_chunk_rows,
        band_height,
        prefetch_window,
        sim_compute_scale,
    }
}

/// The cached per-process autotune result: topology probe, calibration
/// measurements and the derived knobs.
#[derive(Debug, Clone)]
pub struct Autotune {
    /// The probed host topology.
    pub topology: HostTopology,
    /// The startup calibration measurements.
    pub calibration: Calibration,
    /// The derived knob defaults.
    pub knobs: TunedKnobs,
}

/// Probes, calibrates and derives once per process; subsequent calls are
/// free.  Also installs the tuned compute width as `gs_render`'s default,
/// so every `compute_threads = 0` sentinel in the process resolves to it.
pub fn tuned() -> &'static Autotune {
    static TUNED: OnceLock<Autotune> = OnceLock::new();
    TUNED.get_or_init(|| {
        let topology = HostTopology::cached().clone();
        let calibration = Calibration::run();
        let knobs = derive_knobs(&topology, &calibration);
        gs_render::parallel::set_default_compute_threads(knobs.compute_threads);
        Autotune {
            topology,
            calibration,
            knobs,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mock_topology(logical: usize, physical: usize, l2: u64, quota: Option<f64>) -> HostTopology {
        let mut topo = HostTopology::fallback();
        topo.logical_cpus = logical;
        topo.physical_cores = physical;
        topo.smt = logical > physical;
        topo.l2_bytes = l2;
        topo.cpu_quota = quota;
        topo
    }

    fn mock_calibration() -> Calibration {
        Calibration {
            adam_rows_per_s: 2.0e6,
            raster_rows_per_s: 9.0e4,
            gather_rows_per_s: 5.0e7,
            wall_ms: 12.0,
        }
    }

    #[test]
    fn knobs_scale_with_effective_cores_not_raw_parallelism() {
        // The satellite regression at the autotuner level: a 2-core cgroup
        // quota on a 64-thread host must size the worker knobs at 2.
        let throttled = derive_knobs(
            &mock_topology(64, 32, 512 * 1024, Some(2.0)),
            &mock_calibration(),
        );
        assert_eq!(throttled.compute_threads, 2);
        assert_eq!(throttled.adam_threads, 2);
        let unthrottled = derive_knobs(
            &mock_topology(64, 32, 512 * 1024, None),
            &mock_calibration(),
        );
        assert_eq!(unthrottled.compute_threads, 64);
        assert_eq!(unthrottled.adam_threads, 64);
    }

    #[test]
    fn adam_chunks_fit_half_the_l2() {
        let knobs = derive_knobs(&mock_topology(8, 8, 512 * 1024, None), &mock_calibration());
        assert!(knobs.adam_chunk_rows >= 256);
        assert!(knobs.adam_chunk_rows * WORK_ITEM_BYTES <= 512 * 1024 / 2 + WORK_ITEM_BYTES);
        // A tiny (or unreadable) L2 still yields a workable chunk.
        let small = derive_knobs(&mock_topology(8, 8, 0, None), &mock_calibration());
        assert_eq!(small.adam_chunk_rows, 256);
        // A huge L3-class value clamps at the top.
        let big = derive_knobs(
            &mock_topology(8, 8, 64 * 1024 * 1024, None),
            &mock_calibration(),
        );
        assert_eq!(big.adam_chunk_rows, 16_384);
    }

    #[test]
    fn band_height_is_tile_aligned_and_bounded() {
        for l2 in [0u64, 256 * 1024, 512 * 1024, 1 << 21, 1 << 23, 1 << 26] {
            let knobs = derive_knobs(&mock_topology(4, 4, l2, None), &mock_calibration());
            assert_eq!(knobs.band_height % TILE_SIZE, 0, "l2 {l2}");
            assert!(
                (DEFAULT_BAND_HEIGHT..=4 * TILE_SIZE).contains(&knobs.band_height),
                "l2 {l2}: {}",
                knobs.band_height
            );
        }
        // Typical 512K L2 lands on the numeric-contract default, so tuned
        // and untuned runs on commodity hosts stay bit-comparable.
        let typical = derive_knobs(&mock_topology(4, 4, 512 * 1024, None), &mock_calibration());
        assert_eq!(typical.band_height, DEFAULT_BAND_HEIGHT);
    }

    #[test]
    fn window_seed_tracks_the_measured_ratio() {
        // Gathers much faster than compute: minimal lookahead.
        let fast_gather = derive_knobs(&mock_topology(4, 4, 512 * 1024, None), &mock_calibration());
        assert_eq!(fast_gather.prefetch_window, 1);
        // Bandwidth-bound host (gathers 2.3x slower than compute rows):
        // deeper seed, still clamped.
        let mut cal = mock_calibration();
        cal.gather_rows_per_s = cal.raster_rows_per_s / 2.3;
        let bound = derive_knobs(&mock_topology(4, 4, 512 * 1024, None), &cal);
        assert_eq!(bound.prefetch_window, 3);
        cal.gather_rows_per_s = cal.raster_rows_per_s / 100.0;
        let extreme = derive_knobs(&mock_topology(4, 4, 512 * 1024, None), &cal);
        assert_eq!(extreme.prefetch_window, 8);
        cal.gather_rows_per_s = 0.0;
        let degenerate = derive_knobs(&mock_topology(4, 4, 512 * 1024, None), &cal);
        assert_eq!(degenerate.prefetch_window, 1);
    }

    #[test]
    fn calibration_runs_fast_and_measures_every_path() {
        let cal = Calibration::run();
        assert!(cal.adam_rows_per_s > 0.0);
        assert!(cal.raster_rows_per_s > 0.0);
        assert!(cal.gather_rows_per_s > 0.0);
        // "~tens of ms" with generous slack for loaded CI runners.
        assert!(cal.wall_ms < 2_000.0, "calibration took {} ms", cal.wall_ms);
    }

    #[test]
    fn tuned_is_cached_and_installs_the_render_default() {
        let first = tuned();
        // On the real host every derived knob lands in its documented range;
        // in particular a cgroup CPU quota caps the worker counts.
        let k = &first.knobs;
        let effective = first.topology.effective_cores();
        assert!((1..=effective).contains(&k.compute_threads), "{k:?}");
        assert!((1..=effective).contains(&k.adam_threads), "{k:?}");
        assert!((256..=16_384).contains(&k.adam_chunk_rows), "{k:?}");
        assert!(
            k.band_height > 0 && k.band_height.is_multiple_of(TILE_SIZE),
            "{k:?}"
        );
        assert!((1..=8).contains(&k.prefetch_window), "{k:?}");
        assert!(k.sim_compute_scale > 0.0);
        let fingerprint = first.topology.fingerprint();
        assert!(
            fingerprint.ends_with(&format!("-e{effective}")),
            "{fingerprint}"
        );
        let again = tuned();
        assert_eq!(first.knobs, again.knobs, "one calibration per process");
        // The render-side inherit sentinel resolves to the tuned width.
        assert_eq!(
            gs_render::parallel::default_compute_threads(),
            first.knobs.compute_threads
        );
    }
}
