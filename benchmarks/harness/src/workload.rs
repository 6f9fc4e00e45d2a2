//! Workloads are data: `benchmarks/workloads/<name>.json`.  This module
//! turns one file into checked types — input from outside the program is
//! validated here, once — and turns `(workload, seed)` into the generated
//! inputs the passes train on.

use crate::json::Json;
use clm_core::{ground_truth_images, DensifyConfig, DensifySchedule, SystemKind, TrainConfig};
use clm_runtime::{PrefetchPolicy, RuntimeConfig, ThreadedConfig};
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_render::Image;
use gs_scene::{
    generate_dataset, init_from_point_cloud, DatasetConfig, InitConfig, SceneKind, SceneSpec,
};
use sim_device::DeviceProfile;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The four workloads, in the order `run` executes them.  `BENCHMARK.json`
/// names all but the first: the driver's time allows three workloads of runs
/// long enough to repeat (see `benchmarks/README.md`).
pub const WORKLOAD_NAMES: [&str; 4] = [
    "render_bound",
    "offload_bound",
    "densify_growth",
    "serve_mixed",
];

/// Upper bounds on sizes read from a workload file, so a typo cannot ask for
/// a terabyte before anything is checked.
const MAX_GAUSSIANS: usize = 4_000_000;
const MAX_PIXELS_SIDE: usize = 4096;
const MAX_BATCHES: usize = 100_000;

/// Every scheduling knob, pinned.  `autotune::tuned()` is timed but its
/// knobs are never used: a 30 ms calibration on a shared host picks
/// different values from run to run, and `band_height` is part of the
/// numeric contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    pub compute_threads: usize,
    pub adam_threads: usize,
    pub adam_chunk_rows: usize,
    pub channel_capacity: usize,
    pub prefetch_window: usize,
    pub band_height: u32,
    pub num_devices: usize,
    pub view_parallel: bool,
}

impl Knobs {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("compute_threads", self.compute_threads)
            .with("adam_threads", self.adam_threads)
            .with("adam_chunk_rows", self.adam_chunk_rows)
            .with("channel_capacity", self.channel_capacity)
            .with("prefetch_window", self.prefetch_window)
            .with("prefetch_policy", "fixed")
            .with("band_height", u64::from(self.band_height))
            .with("num_devices", self.num_devices)
            .with("view_parallel", self.view_parallel)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct SceneConfig {
    pub kind: SceneKind,
    pub scene_gaussians: usize,
    pub views: usize,
    pub width: u32,
    pub height: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub struct DensifyPlan {
    pub every_batches: usize,
    pub grad_threshold: f32,
    pub max_gaussians: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Training {
    pub scene: SceneConfig,
    pub model_gaussians: usize,
    pub batch_size: usize,
    /// `B`: batches per pass.
    pub batches: usize,
    pub densify: Option<DensifyPlan>,
    /// Initial isotropic scale of every Gaussian, as a share of the scene
    /// extent.  It sets how far culling must inflate each view's frustum,
    /// and with it the share of the model a view touches.
    pub init_sigma_frac: f64,
    /// Multipliers that put the reduced-scale scene into the paper's regime
    /// on the simulated device (numerics are unaffected).
    pub sim_cost_scale: f64,
    pub sim_pixel_cost_scale: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    pub name: String,
    /// Index into [`Serve::scenes`].
    pub scene: usize,
    pub heavy: bool,
    pub weight: f64,
    pub model_gaussians: usize,
    pub init_sigma_frac: f64,
    pub batch_size: usize,
    pub target_batches: usize,
    /// Staging budget in whole worst-case buffers (`None` = uncapped).
    pub staging_buffers: Option<usize>,
    pub cost_scale: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Serve {
    pub scenes: Vec<(String, SceneConfig)>,
    pub tenants: Vec<Tenant>,
    pub max_active: usize,
    pub max_queued: usize,
    /// Step indices at which the active session that has trained the most
    /// batches is evicted.  Resumes follow a fixed rule (see `serve.rs`).
    pub evict_steps: Vec<usize>,
    /// Step index at which device-time shares are compared with weights.
    pub share_snapshot_step: usize,
    /// Staging budget, in bytes, of the one tenant admission must refuse.
    pub rejected_budget_bytes: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    Training(Training),
    Serve(Serve),
}

/// A bound on a metric that must hold for the workload to measure what it
/// claims to measure.
#[derive(Debug, Clone, PartialEq)]
pub struct Invariant {
    pub metric: String,
    pub min: Option<f64>,
    pub max: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
    /// `R`: the fewest timed repetitions of a run (one untimed warm-up
    /// repetition precedes them); `--seconds` adds more.
    pub repetitions: usize,
    pub knobs: Knobs,
    pub kind: Kind,
    pub invariants: Vec<Invariant>,
}

/// Directory of the committed workload files.  The harness is built in the
/// checkout it runs in, so the compile-time path is the run-time path.
pub fn workloads_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../workloads")
}

pub fn load(name: &str) -> Result<Workload, String> {
    if !WORKLOAD_NAMES.contains(&name) {
        return Err(format!(
            "unknown workload {name:?}; the workloads are {WORKLOAD_NAMES:?}"
        ));
    }
    let path = workloads_dir().join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let workload = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if workload.name != name {
        return Err(format!(
            "{}: names itself {:?}",
            path.display(),
            workload.name
        ));
    }
    Ok(workload)
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn string(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

fn number(obj: &Json, key: &str) -> Result<f64, String> {
    field(obj, key)?
        .num()
        .filter(|n| n.is_finite())
        .ok_or_else(|| format!("field {key:?} must be a finite number"))
}

fn positive(obj: &Json, key: &str) -> Result<f64, String> {
    number(obj, key).and_then(|n| {
        if n > 0.0 {
            Ok(n)
        } else {
            Err(format!("field {key:?} must be positive"))
        }
    })
}

fn count(obj: &Json, key: &str, min: usize, max: usize) -> Result<usize, String> {
    let n = number(obj, key)?;
    if n.fract() != 0.0 || n < min as f64 || n > max as f64 {
        return Err(format!(
            "field {key:?} must be a whole number in {min}..={max}, got {n}"
        ));
    }
    Ok(n as usize)
}

fn boolean(obj: &Json, key: &str) -> Result<bool, String> {
    field(obj, key)?
        .bool()
        .ok_or_else(|| format!("field {key:?} must be true or false"))
}

fn array<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(obj, key)?
        .arr()
        .ok_or_else(|| format!("field {key:?} must be an array"))
}

fn scene_kind(name: &str) -> Result<SceneKind, String> {
    SceneKind::ALL
        .into_iter()
        .find(|k| k.to_string() == name)
        .ok_or_else(|| format!("unknown scene kind {name:?}"))
}

fn parse_scene(obj: &Json) -> Result<SceneConfig, String> {
    Ok(SceneConfig {
        kind: scene_kind(&string(obj, "scene")?)?,
        scene_gaussians: count(obj, "scene_gaussians", 1, MAX_GAUSSIANS)?,
        views: count(obj, "views", 1, 4096)?,
        width: count(obj, "width", 8, MAX_PIXELS_SIDE)? as u32,
        height: count(obj, "height", 8, MAX_PIXELS_SIDE)? as u32,
    })
}

fn parse_knobs(obj: &Json) -> Result<Knobs, String> {
    let band_height = match field(obj, "band_height")? {
        Json::Str(s) if s == "default" => gs_render::DEFAULT_BAND_HEIGHT,
        _ => count(obj, "band_height", 1, MAX_PIXELS_SIDE)? as u32,
    };
    if string(obj, "prefetch_policy")? != "fixed" {
        return Err("prefetch_policy must be \"fixed\": an adaptive window \
                    makes the schedule depend on the host's speed"
            .to_string());
    }
    Ok(Knobs {
        compute_threads: count(obj, "compute_threads", 1, 64)?,
        adam_threads: count(obj, "adam_threads", 1, 64)?,
        adam_chunk_rows: count(obj, "adam_chunk_rows", 0, MAX_GAUSSIANS)?,
        channel_capacity: count(obj, "channel_capacity", 1, 64)?,
        prefetch_window: count(obj, "prefetch_window", 0, 64)?,
        band_height,
        num_devices: count(obj, "num_devices", 1, 1)?,
        view_parallel: boolean(obj, "view_parallel")?,
    })
}

fn parse_training(obj: &Json) -> Result<Training, String> {
    let densify = match field(obj, "densify")? {
        Json::Null => None,
        d => Some(DensifyPlan {
            every_batches: count(d, "every_batches", 1, MAX_BATCHES)?,
            grad_threshold: positive(d, "grad_threshold")? as f32,
            max_gaussians: count(d, "max_gaussians", 1, MAX_GAUSSIANS)?,
        }),
    };
    Ok(Training {
        scene: parse_scene(obj)?,
        model_gaussians: count(obj, "model_gaussians", 1, MAX_GAUSSIANS)?,
        batch_size: count(obj, "batch_size", 1, 64)?,
        batches: count(obj, "batches", 1, MAX_BATCHES)?,
        densify,
        init_sigma_frac: positive(obj, "init_sigma_frac")?,
        sim_cost_scale: positive(obj, "sim_cost_scale")?,
        sim_pixel_cost_scale: positive(obj, "sim_pixel_cost_scale")?,
    })
}

fn parse_serve(obj: &Json) -> Result<Serve, String> {
    let scenes = array(obj, "scenes")?
        .iter()
        .map(|s| Ok((string(s, "name")?, parse_scene(s)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let tenants = array(obj, "tenants")?
        .iter()
        .map(|t| {
            let scene_name = string(t, "scene")?;
            let staging_buffers = match field(t, "staging_buffers")? {
                Json::Null => None,
                _ => Some(count(t, "staging_buffers", 1, 64)?),
            };
            Ok(Tenant {
                name: string(t, "tenant")?,
                scene: scenes
                    .iter()
                    .position(|(n, _)| *n == scene_name)
                    .ok_or_else(|| format!("tenant names unknown scene {scene_name:?}"))?,
                heavy: boolean(t, "heavy")?,
                weight: positive(t, "weight")?,
                model_gaussians: count(t, "model_gaussians", 1, MAX_GAUSSIANS)?,
                init_sigma_frac: positive(t, "init_sigma_frac")?,
                batch_size: count(t, "batch_size", 1, 64)?,
                target_batches: count(t, "target_batches", 1, MAX_BATCHES)?,
                staging_buffers,
                cost_scale: positive(t, "cost_scale")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if tenants.is_empty() {
        return Err("a serve workload needs at least one tenant".to_string());
    }
    let steps: usize = tenants.iter().map(|t| t.target_batches).sum();
    let evict_steps = array(obj, "evict_steps")?
        .iter()
        .map(|s| match s.num() {
            Some(n) if n.fract() == 0.0 && n >= 1.0 && (n as usize) < steps => Ok(n as usize),
            _ => Err(format!("evict step must be a whole number in 1..{steps}")),
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Serve {
        scenes,
        tenants,
        max_active: count(obj, "max_active", 1, 64)?,
        max_queued: count(obj, "max_queued", 0, 64)?,
        evict_steps,
        share_snapshot_step: count(obj, "share_snapshot_step", 1, steps)?,
        rejected_budget_bytes: count(obj, "rejected_budget_bytes", 1, 1 << 20)? as u64,
    })
}

pub fn parse(text: &str) -> Result<Workload, String> {
    let doc = Json::parse(text)?;
    let kind = match string(&doc, "kind")?.as_str() {
        "training" => Kind::Training(parse_training(&doc)?),
        "serve" => Kind::Serve(parse_serve(&doc)?),
        other => return Err(format!("unknown workload kind {other:?}")),
    };
    let invariants = array(&doc, "invariants")?
        .iter()
        .map(|i| {
            let bound = |key: &str| match i.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(_) => number(i, key).map(Some),
            };
            Ok(Invariant {
                metric: string(i, "metric")?,
                min: bound("min")?,
                max: bound("max")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Workload {
        name: string(&doc, "name")?,
        why: string(&doc, "why")?,
        repetitions: count(&doc, "repetitions", 1, 99)?,
        knobs: parse_knobs(field(&doc, "knobs")?)?,
        kind,
        invariants,
    })
}

impl Workload {
    /// Shrinks the run to `repetitions` × `batches` over models of at most
    /// `max_rows` Gaussians, for the harness's own tests (which run
    /// unoptimised).  A shrunk run measures nothing worth reporting, so its
    /// invariants are dropped — every correctness check still runs.
    #[cfg(test)]
    pub fn shrunk(mut self, repetitions: usize, batches: usize, max_rows: usize) -> Workload {
        self.repetitions = repetitions;
        self.invariants.clear();
        match &mut self.kind {
            Kind::Training(t) => {
                t.batches = batches;
                t.scene.scene_gaussians = t.scene.scene_gaussians.min(max_rows);
                t.model_gaussians = t.model_gaussians.min(max_rows);
            }
            Kind::Serve(s) => {
                for tenant in &mut s.tenants {
                    tenant.target_batches = batches;
                }
                let steps = batches * s.tenants.len();
                s.evict_steps.retain(|&step| step < steps);
                s.share_snapshot_step = s.share_snapshot_step.min(steps);
            }
        }
        self
    }

    /// Batches (service steps) one pass executes.
    pub fn batches_per_pass(&self) -> usize {
        match &self.kind {
            Kind::Training(t) => t.batches,
            Kind::Serve(s) => s.tenants.iter().map(|t| t.target_batches).sum(),
        }
    }

    pub fn train_config(
        &self,
        batch_size: usize,
        densify: Option<&DensifyPlan>,
        seed: u64,
    ) -> TrainConfig {
        TrainConfig {
            system: SystemKind::Clm,
            batch_size,
            compute_threads: self.knobs.compute_threads,
            band_height: self.knobs.band_height,
            view_parallel: self.knobs.view_parallel,
            num_devices: self.knobs.num_devices,
            densify: densify.map(|d| DensifySchedule {
                every_batches: d.every_batches,
                config: DensifyConfig {
                    grad_threshold: d.grad_threshold,
                    max_gaussians: d.max_gaussians,
                    seed: stream(seed, 4),
                    ..Default::default()
                },
            }),
            seed: stream(seed, 3),
            ..Default::default()
        }
    }

    pub fn threaded_config(&self) -> ThreadedConfig {
        ThreadedConfig {
            prefetch_window: self.knobs.prefetch_window,
            policy: PrefetchPolicy::Fixed,
            adam_threads: self.knobs.adam_threads,
            adam_chunk_rows: self.knobs.adam_chunk_rows,
            channel_capacity: self.knobs.channel_capacity,
            compute_threads: self.knobs.compute_threads,
            band_height: self.knobs.band_height,
            num_devices: self.knobs.num_devices,
            warm_start_ratio: None,
        }
    }

    pub fn runtime_config(&self, cost_scale: f64, pixel_cost_scale: f64) -> RuntimeConfig {
        RuntimeConfig {
            device: DeviceProfile::rtx4090(),
            prefetch_window: self.knobs.prefetch_window,
            policy: PrefetchPolicy::Fixed,
            cost_scale,
            pixel_cost_scale,
            compute_threads: self.knobs.compute_threads,
            band_height: self.knobs.band_height,
            num_devices: self.knobs.num_devices,
            warm_start_ratio: None,
        }
    }
}

/// Independent sub-seed `k` of the run seed (SplitMix64 finaliser), so the
/// scene, the initial model and the batch ordering never share a stream.
pub fn stream(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wall seconds each part of building a scene took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SceneTimes {
    pub dataset_gen_s: f64,
    pub gt_render_s: f64,
}

/// The generated inputs of one scene: cameras, ground-truth images and the
/// point cloud initial models are sampled from.
#[derive(Debug, Clone)]
pub struct Scene {
    pub spec: SceneSpec,
    pub reference: GaussianModel,
    pub cameras: Vec<Camera>,
    pub targets: Vec<Image>,
    pub times: SceneTimes,
}

pub fn dataset_config(config: &SceneConfig, seed: u64) -> DatasetConfig {
    DatasetConfig {
        num_gaussians: config.scene_gaussians,
        num_views: config.views,
        width: config.width,
        height: config.height,
        seed: stream(seed, 1),
    }
}

pub fn build_scene(config: &SceneConfig, seed: u64) -> Scene {
    let spec = SceneSpec::of(config.kind);
    let t = Instant::now();
    let dataset = generate_dataset(&spec, &dataset_config(config, seed));
    let dataset_gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let targets = ground_truth_images(&dataset);
    let gt_render_s = t.elapsed().as_secs_f64();
    Scene {
        spec,
        reference: dataset.ground_truth,
        cameras: dataset.cameras,
        targets,
        times: SceneTimes {
            dataset_gen_s,
            gt_render_s,
        },
    }
}

pub fn init_config(
    spec: &SceneSpec,
    model_gaussians: usize,
    sigma_frac: f64,
    seed: u64,
) -> InitConfig {
    InitConfig {
        num_gaussians: model_gaussians,
        initial_sigma: spec.extent * sigma_frac as f32,
        initial_opacity: 0.4,
        seed: stream(seed, 2),
        ..Default::default()
    }
}

pub fn init_model(scene: &Scene, t: &Training, seed: u64) -> GaussianModel {
    init_from_point_cloud(
        &scene.reference,
        &init_config(&scene.spec, t.model_gaussians, t.init_sigma_frac, seed),
    )
}

/// The fixed trajectory: batch `b` of a pass trains this camera range.  The
/// views are walked in epoch order, `batch_size` at a time, wrapping — the
/// same walk `clm_serve::Session::next_slice` does.
pub fn batch_slice(views: usize, batch_size: usize, b: usize) -> std::ops::Range<usize> {
    let batch = batch_size.clamp(1, views);
    let per_epoch = views.div_ceil(batch);
    let start = (b % per_epoch) * batch;
    start..(start + batch).min(views)
}

/// FNV-1a over every parameter's bit pattern: "byte-equal" as one number.
pub fn model_checksum(model: &GaussianModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: f32| {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for i in 0..model.len() {
        for x in model.param_row(i) {
            eat(x);
        }
    }
    h ^ model.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_workload_parses_and_is_pinned() {
        for name in WORKLOAD_NAMES {
            let w = load(name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(w.name, name);
            assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
            assert_eq!(w.knobs.compute_threads, 1, "{name}");
            assert_eq!(w.knobs.adam_threads, 1, "{name}");
            assert_eq!(w.knobs.adam_chunk_rows, 0, "{name}");
            assert_eq!(w.knobs.channel_capacity, 2, "{name}");
            assert_eq!(w.knobs.prefetch_window, 2, "{name}");
            assert_eq!(
                w.knobs.band_height,
                gs_render::DEFAULT_BAND_HEIGHT,
                "{name}"
            );
            assert!(!w.knobs.view_parallel, "{name}");
            assert!(w.repetitions >= 5, "{name}: shrink B, never R");
            assert!(!w.invariants.is_empty(), "{name}");
        }
    }

    #[test]
    fn malformed_workloads_are_refused_with_the_field_named() {
        let good = std::fs::read_to_string(workloads_dir().join("render_bound.json")).unwrap();
        assert!(parse(&good).is_ok());
        for (from, to, needle) in [
            ("\"Bicycle\"", "\"Atlantis\"", "unknown scene kind"),
            ("\"fixed\"", "\"adaptive\"", "prefetch_policy"),
            ("\"training\"", "\"mystery\"", "unknown workload kind"),
            ("\"batch_size\"", "\"batch_sighs\"", "batch_size"),
        ] {
            assert!(good.contains(from), "fixture lost {from}");
            let err = parse(&good.replacen(from, to, 1)).expect_err(to);
            assert!(err.contains(needle), "{err}");
        }
        let huge = good.replacen(
            "\"model_gaussians\":",
            "\"model_gaussians\": 9e15, \"x\":",
            1,
        );
        assert!(parse(&huge)
            .expect_err("bounded")
            .contains("model_gaussians"));
    }

    #[test]
    fn batch_slices_walk_the_views_and_wrap() {
        let got: Vec<_> = (0..5).map(|b| batch_slice(10, 4, b)).collect();
        assert_eq!(got, vec![0..4, 4..8, 8..10, 0..4, 4..8]);
        assert_eq!(batch_slice(3, 8, 7), 0..3);
    }

    #[test]
    fn sub_seeds_differ_by_stream_and_seed() {
        assert_ne!(stream(1, 1), stream(1, 2));
        assert_ne!(stream(1, 1), stream(2, 1));
        assert_eq!(stream(7, 3), stream(7, 3));
    }
}
