//! Analytic performance and memory model (the "paper-scale" layer).
//!
//! The functional trainer in [`crate::train`] runs real training on
//! reduced-scale synthetic scenes.  The experiments in the paper's
//! evaluation, however, are about *full-scale* behaviour: how many Gaussians
//! fit before OOM (Figure 8), what the GPU memory breakdown looks like
//! (Figure 10), training throughput (Figures 11–12), runtime decomposition
//! (Figure 13), communication volume (Figure 14), idle rate (Figure 15) and
//! hardware utilisation (Table 7).  All of those are functions of
//!
//! * the device capacities/rates ([`sim_device::DeviceProfile`]),
//! * the scene's visibility structure (sparsity ρ, inter-view overlap,
//!   finalisation profile) — measured on the synthetic datasets and
//!   summarised in a [`SceneProfile`], and
//! * the offloading strategy.
//!
//! This module evaluates those functions: it builds the event timeline a
//! training batch would produce under each strategy and derives every
//! quantity the figures report.
//!
//! The timeline's *shape* is not written here: [`simulate_batch`] hands
//! [`sim_device::pipeline`] — the schedule emitter the simulated engine and
//! the trace replay also use — a cost source pricing each op from
//! [`MicrobatchStats`] and the [`DeviceProfile`].  The CLM schedule is
//! therefore the engine's single-device pipeline at the double-buffering
//! window (1): the load for micro-batch `i + 1` overlaps the compute of
//! micro-batch `i`, the overlap the paper's throughput results rest on.

use crate::cache::plan_batch;
use crate::offload::{GRADIENT_BYTES, NON_CRITICAL_BYTES};
use crate::order::{order_batch, OrderingStrategy};
use crate::schedule::FinalizationPlan;
use gs_core::visibility::VisibilitySet;
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_scene::Dataset;
use sim_device::pipeline::{self, AdamGroup, ClmShape, CostSource, OpCost};
use sim_device::{DeviceProfile, Lane, OpKind, Timeline};

/// The four systems compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Grendel-GS single-GPU mode with gsplat kernels (fused culling).
    Baseline,
    /// Baseline plus pre-rendering frustum culling (§5.1).
    EnhancedBaseline,
    /// ZeRO-Offload-style offloading (Figure 3): load everything, compute,
    /// store everything, CPU Adam, sequentially.
    NaiveOffload,
    /// The full CLM system.
    Clm,
}

impl SystemKind {
    /// All systems in the order the paper's figures list them.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::Baseline,
        SystemKind::EnhancedBaseline,
        SystemKind::NaiveOffload,
        SystemKind::Clm,
    ];
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SystemKind::Baseline => "Baseline",
            SystemKind::EnhancedBaseline => "Enhanced Baseline",
            SystemKind::NaiveOffload => "Naive Offloading",
            SystemKind::Clm => "CLM",
        })
    }
}

/// Bytes of model state kept in GPU memory per Gaussian for each system.
///
/// * Baselines keep the full training state (59 params × 4 copies).
/// * Naive offloading keeps parameters + gradients on the GPU during the
///   step (optimiser state lives on the CPU).
/// * CLM keeps only the selection-critical attributes (10 floats) with their
///   training state resident; everything else is offloaded.
pub fn gpu_model_state_bytes_per_gaussian(system: SystemKind) -> u64 {
    match system {
        SystemKind::Baseline | SystemKind::EnhancedBaseline => 59 * 4 * 4,
        SystemKind::NaiveOffload => 59 * 4 * 2,
        SystemKind::Clm => 10 * 4 * 4,
    }
}

/// Activation bytes per Gaussian actually processed by the rasteriser.
pub const ACTIVATION_BYTES_PER_GAUSSIAN: u64 = 250;
/// Activation bytes per output pixel (image, gradients, loss buffers).
pub const ACTIVATION_BYTES_PER_PIXEL: u64 = 350;
/// Fixed GPU overhead (CUDA context, cub workspaces, ...).
pub const FIXED_OVERHEAD_BYTES: u64 = 500 * 1024 * 1024;
/// Per-Gaussian pinned host memory CLM needs (non-critical parameters plus
/// the full gradient row, §6.4 / Table 6).
pub const PINNED_BYTES_PER_GAUSSIAN: u64 = (NON_CRITICAL_BYTES + GRADIENT_BYTES) as u64;

/// Summary of one scene's visibility structure, measured on a synthetic
/// dataset and assumed scale-invariant (sparsity is a geometric property of
/// the trajectory, not of the Gaussian count).
#[derive(Debug, Clone, PartialEq)]
pub struct SceneProfile {
    /// Scene name (for reports).
    pub name: String,
    /// Output resolution (width, height) the paper uses for this scene.
    pub resolution: (u32, u32),
    /// Training batch size (Table 3).
    pub batch_size: usize,
    /// Mean per-view sparsity ρ.
    pub rho_mean: f64,
    /// Maximum per-view sparsity ρ.
    pub rho_max: f64,
    /// Mean fraction of a micro-batch's working set served from the cache
    /// under the chosen ordering (0 disables caching benefits).
    pub cache_hit_rate: f64,
    /// Mean fraction of touched Gaussians finalised before the last
    /// micro-batch (the overlappable CPU Adam share).
    pub overlap_fraction: f64,
}

impl SceneProfile {
    /// Measures a scene profile from a synthetic dataset, batching the views
    /// in trajectory order and ordering each batch with `strategy`.
    pub fn measure(dataset: &Dataset, strategy: OrderingStrategy, seed: u64) -> SceneProfile {
        let sets = dataset.visibility_sets(&dataset.ground_truth);
        let n = dataset.ground_truth.len().max(1);
        let batch_size = dataset.spec.batch_size.min(sets.len()).max(1);

        let rho: Vec<f64> = sets.iter().map(|s| s.len() as f64 / n as f64).collect();
        let rho_mean = rho.iter().sum::<f64>() / rho.len().max(1) as f64;
        let rho_max = rho.iter().cloned().fold(0.0, f64::max);

        let mut hit_rates = Vec::new();
        let mut overlaps = Vec::new();
        for (batch_idx, chunk) in sets.chunks(batch_size).enumerate() {
            if chunk.len() < 2 {
                continue;
            }
            let cameras =
                &dataset.cameras[batch_idx * batch_size..batch_idx * batch_size + chunk.len()];
            let order = order_batch(strategy, cameras, chunk, seed + batch_idx as u64);
            let ordered: Vec<VisibilitySet> = order.iter().map(|&i| chunk[i].clone()).collect();
            let plans = plan_batch(&ordered);
            let fetched: usize = plans.iter().map(|p| p.fetched.len()).sum();
            let total: usize = ordered.iter().map(VisibilitySet::len).sum();
            if total > 0 {
                hit_rates.push(1.0 - fetched as f64 / total as f64);
            }
            overlaps.push(FinalizationPlan::new(&ordered).overlap_fraction());
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        SceneProfile {
            name: dataset.spec.kind.to_string(),
            resolution: dataset.spec.full_resolution,
            batch_size: dataset.spec.batch_size,
            rho_mean,
            rho_max,
            cache_hit_rate: mean(&hit_rates),
            overlap_fraction: mean(&overlaps),
        }
    }

    /// Pixels per rendered image at this scene's resolution.
    pub fn pixels(&self) -> u64 {
        self.resolution.0 as u64 * self.resolution.1 as u64
    }

    /// The scene profile implied by the numbers the paper itself reports:
    /// sparsity from Figure 5 / the Figure 14 communication volumes, cache
    /// hit rates from the Figure 14 "No Cache" vs "TSP" gap, and Table 3's
    /// resolutions and batch sizes.  Use this for paper-scale analytic
    /// experiments; use [`SceneProfile::measure`] to derive the same
    /// quantities from a synthetic dataset instead.
    pub fn paper_reference(kind: gs_scene::SceneKind) -> SceneProfile {
        use gs_scene::SceneKind as K;
        let spec = gs_scene::SceneSpec::of(kind);
        let (rho_mean, rho_max, cache_hit_rate, overlap_fraction) = match kind {
            K::Bicycle => (0.185, 0.30, 0.33, 0.45),
            K::Rubble => (0.099, 0.15, 0.30, 0.50),
            K::Alameda => (0.129, 0.20, 0.31, 0.50),
            K::Ithaca => (0.041, 0.07, 0.42, 0.60),
            K::BigCity => (0.0039, 0.0106, 0.14, 0.60),
        };
        SceneProfile {
            name: kind.to_string(),
            resolution: spec.full_resolution,
            batch_size: spec.batch_size,
            rho_mean,
            rho_max,
            cache_hit_rate,
            overlap_fraction,
        }
    }
}

/// GPU memory estimate for one system/scene/model-size combination,
/// decomposed the way Figure 10 reports it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryEstimate {
    /// Gaussian model state resident in GPU memory.
    pub model_state: u64,
    /// Activation memory of the forward/backward pass.
    pub activation: u64,
    /// Transfer (double) buffers used by offloading systems.
    pub buffers: u64,
    /// Fixed overheads.
    pub other: u64,
}

impl MemoryEstimate {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.model_state + self.activation + self.buffers + self.other
    }

    /// The "others" bar of Figure 10 (everything that is not model state).
    pub fn others(&self) -> u64 {
        self.activation + self.buffers + self.other
    }
}

/// Estimates the GPU memory a system needs to train `n_gaussians` on a
/// scene.
pub fn gpu_memory_required(
    system: SystemKind,
    n_gaussians: u64,
    scene: &SceneProfile,
) -> MemoryEstimate {
    let working_set = (scene.rho_max * n_gaussians as f64).ceil() as u64;
    let processed = match system {
        // Fused culling feeds every Gaussian through the kernels.
        SystemKind::Baseline => n_gaussians,
        _ => working_set,
    };
    let buffers = match system {
        SystemKind::Clm => {
            // Double-buffered working-set parameters plus one gradient
            // buffer (§5.3 controls their coexistence).
            2 * working_set * NON_CRITICAL_BYTES as u64 + working_set * GRADIENT_BYTES as u64
        }
        _ => 0,
    };
    MemoryEstimate {
        model_state: n_gaussians * gpu_model_state_bytes_per_gaussian(system),
        activation: processed * ACTIVATION_BYTES_PER_GAUSSIAN
            + scene.pixels() * ACTIVATION_BYTES_PER_PIXEL,
        buffers,
        other: FIXED_OVERHEAD_BYTES,
    }
}

/// Pinned host memory CLM needs for `n_gaussians` (Table 6).
pub fn pinned_memory_required(n_gaussians: u64) -> u64 {
    n_gaussians * PINNED_BYTES_PER_GAUSSIAN
}

/// Largest model (in Gaussians) a system can train on `profile` without
/// running out of GPU memory, found by binary search over the memory model
/// (Figure 8).  Offloading systems are additionally limited by host memory.
pub fn max_trainable_gaussians(
    system: SystemKind,
    profile: &DeviceProfile,
    scene: &SceneProfile,
) -> u64 {
    let usable = profile.usable_gpu_memory();
    let fits = |n: u64| -> bool {
        if gpu_memory_required(system, n, scene).total() > usable {
            return false;
        }
        match system {
            SystemKind::NaiveOffload | SystemKind::Clm => {
                pinned_memory_required(n) <= profile.host_memory_bytes
            }
            _ => true,
        }
    };
    if !fits(1) {
        return 0;
    }
    let mut lo = 1u64;
    let mut hi = 1u64;
    while fits(hi) {
        hi *= 2;
        if hi > 1 << 40 {
            break;
        }
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Per-micro-batch quantities the pipeline simulator needs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MicrobatchStats {
    /// Gaussians in the micro-batch's working set `|S_i|`.
    pub working_set: u64,
    /// Gaussians fetched from host memory (`|S_i \ S_{i-1}|` with caching).
    pub fetched: u64,
    /// Gaussians whose gradients are stored to host memory after this
    /// micro-batch.
    pub grads_stored: u64,
    /// Gaussians finalised by this micro-batch (their CPU Adam can start).
    pub finalized: u64,
}

/// Derives per-micro-batch stats from actual ordered visibility sets
/// (used when a real dataset is available).
pub fn microbatch_stats_from_sets(ordered_sets: &[VisibilitySet]) -> Vec<MicrobatchStats> {
    let plans = plan_batch(ordered_sets);
    let finalization = FinalizationPlan::new(ordered_sets);
    let mut out = Vec::with_capacity(ordered_sets.len());
    for i in 0..ordered_sets.len() {
        // The gradients of micro-batch i that leave the GPU do so during the
        // *next* transition (plans[i + 1]).
        out.push(MicrobatchStats {
            working_set: ordered_sets[i].len() as u64,
            fetched: plans[i].fetched.len() as u64,
            grads_stored: plans[i + 1].grads_to_store.len() as u64,
            finalized: finalization.finalized_by(i).len() as u64,
        });
    }
    out
}

/// Synthesises per-micro-batch stats for a full-scale model from a scene
/// profile (used when evaluating at paper scale, where enumerating 100 M
/// Gaussians per view is unnecessary).
pub fn synthetic_microbatch_stats(
    scene: &SceneProfile,
    n_gaussians: u64,
    with_cache: bool,
) -> Vec<MicrobatchStats> {
    let b = scene.batch_size.max(1);
    let working_set = (scene.rho_mean * n_gaussians as f64).ceil() as u64;
    let hit = if with_cache {
        scene.cache_hit_rate
    } else {
        0.0
    };
    let total_touched = working_set + (b as u64 - 1) * (working_set as f64 * (1.0 - hit)) as u64;
    let overlappable = (total_touched as f64 * scene.overlap_fraction) as u64;
    let per_early = if b > 1 {
        overlappable / (b as u64 - 1)
    } else {
        0
    };
    let mut stats = Vec::with_capacity(b);
    for i in 0..b {
        let fetched = if i == 0 {
            working_set
        } else {
            (working_set as f64 * (1.0 - hit)).ceil() as u64
        };
        let finalized = if i + 1 == b {
            total_touched.saturating_sub(per_early * (b as u64 - 1))
        } else {
            per_early
        };
        stats.push(MicrobatchStats {
            working_set,
            fetched,
            grads_stored: fetched,
            finalized,
        });
    }
    stats
}

/// Outcome of simulating one training batch.
#[derive(Debug, Clone)]
pub struct BatchSimulation {
    /// Which system was simulated.
    pub system: SystemKind,
    /// The executed timeline.
    pub timeline: Timeline,
    /// Images processed (the batch size).
    pub images: usize,
    /// Training throughput in images per second.
    pub throughput: f64,
    /// Bytes of parameters moved CPU→GPU.
    pub bytes_loaded: u64,
    /// Bytes of gradients moved GPU→CPU.
    pub bytes_stored: u64,
    /// CPU Adam time that could not be hidden behind GPU work (the trailing
    /// time of Table 5b).
    pub adam_trailing_time: f64,
    /// Time spent on scheduling (culling + ordering).
    pub scheduling_time: f64,
}

impl BatchSimulation {
    /// Total communication volume per batch (the Figure 14 metric is the
    /// CPU→GPU direction only; this helper reports both).
    pub fn total_comm_bytes(&self) -> u64 {
        self.bytes_loaded + self.bytes_stored
    }
}

/// The prefetch window the analytic CLM schedule runs at: double buffering
/// (§5.3, Figure 6) — the load for micro-batch `i + 1` overlaps the compute
/// of micro-batch `i` but does not run further ahead.  A constant of the
/// modelled system, not a knob.
const ANALYTIC_PREFETCH_WINDOW: usize = 1;

/// The analytic model as the schedule emitter's cost source: prices every
/// op from the per-micro-batch statistics and the device's rate model.
struct AnalyticCosts<'a> {
    system: SystemKind,
    device: &'a DeviceProfile,
    stats: &'a [MicrobatchStats],
    pixels: u64,
    n_gaussians: u64,
}

impl AnalyticCosts<'_> {
    fn render(&self, i: usize, time: impl Fn(&DeviceProfile, u64, u64) -> f64) -> OpCost {
        // The plain baseline's fused culling feeds every Gaussian through
        // the kernels; the other systems (naive offloading included, §6.1)
        // pre-cull to the working set.
        let processed = if self.system == SystemKind::Baseline {
            self.n_gaussians
        } else {
            self.stats[i].working_set
        };
        OpCost::compute(time(self.device, processed, self.pixels), processed)
    }

    fn cpu_adam(&self, rows: u64) -> OpCost {
        let params = rows * PARAMS_PER_GAUSSIAN as u64;
        OpCost::compute(self.device.cpu_adam_time(params), rows)
    }
}

impl CostSource for AnalyticCosts<'_> {
    /// The PCIe load of the cache misses plus the on-GPU copy of the cached
    /// rows between the double buffers (an order of magnitude faster than
    /// PCIe); the forward pass needs both, so both are the gather.
    fn gather(&mut self, i: usize) -> OpCost {
        let s = &self.stats[i];
        let cached = s.working_set.saturating_sub(s.fetched);
        let load = self
            .device
            .transfer(s.fetched * NON_CRITICAL_BYTES as u64, s.fetched);
        let cache_copy = self
            .device
            .transfer_time(cached * NON_CRITICAL_BYTES as u64)
            / 10.0;
        OpCost {
            dur: load.dur + cache_copy,
            ..load
        }
    }

    fn forward(&mut self, i: usize) -> OpCost {
        self.render(i, DeviceProfile::forward_time)
    }

    fn backward(&mut self, i: usize) -> OpCost {
        self.render(i, DeviceProfile::backward_time)
    }

    fn store(&mut self, i: usize) -> OpCost {
        let stored = self.stats[i].grads_stored;
        self.device.transfer(stored * GRADIENT_BYTES as u64, stored)
    }

    fn allreduce(&mut self, _group: AdamGroup) -> OpCost {
        unreachable!("the analytic model is single-device")
    }

    fn adam(&mut self, group: AdamGroup) -> Vec<OpCost> {
        let rows = match group {
            // The paper's CPU Adam is sparse: Gaussians no view of the
            // batch touched have no gradient and are skipped, so `F_0`
            // updates zero rows.  (The functional trainer steps them with a
            // zero gradient to stay bit-identical with dense Adam, which is
            // why the shared graph has the op at all.)
            AdamGroup::Untouched => 0,
            AdamGroup::FinalizedBy(i) => self.stats[i].finalized,
            AdamGroup::Dense => self.n_gaussians,
        };
        vec![self.cpu_adam(rows)]
    }
}

/// Simulates one training batch of `system` on `device` for a model of
/// `n_gaussians`, using per-micro-batch statistics `stats` (one entry per
/// image in the batch).  The op graph of every system comes from
/// [`sim_device::pipeline`] — the same emitter the simulated engine runs —
/// so the CLM arm is the engine's single-device schedule at the
/// double-buffering window, priced analytically.
///
/// # Panics
/// Panics if `stats` is empty.
pub fn simulate_batch(
    system: SystemKind,
    device: &DeviceProfile,
    scene: &SceneProfile,
    n_gaussians: u64,
    stats: &[MicrobatchStats],
) -> BatchSimulation {
    assert!(!stats.is_empty(), "need at least one micro-batch");
    let mut timeline = Timeline::new();
    let mut costs = AnalyticCosts {
        system,
        device,
        stats,
        pixels: scene.pixels(),
        n_gaussians,
    };
    let all_params = n_gaussians * PARAMS_PER_GAUSSIAN as u64;

    match system {
        SystemKind::Baseline | SystemKind::EnhancedBaseline => {
            // Fused GPU Adam over the whole model at the end of the batch.
            let adam = OpCost::compute(device.gpu_adam_time(all_params), n_gaussians);
            pipeline::emit_gpu_only(&mut timeline, &[], stats.len(), adam, &mut costs);
        }
        SystemKind::NaiveOffload => {
            // Figure 3: load ALL parameters, train the batch (one image at a
            // time with gradient accumulation), store ALL gradients, then
            // run CPU Adam over everything — strictly sequentially.
            let transfer = device.transfer(all_params * 4, n_gaussians);
            let adam = costs.cpu_adam(n_gaussians);
            pipeline::emit_naive(&mut timeline, &[], stats.len(), transfer, adam, &mut costs);
        }
        SystemKind::Clm => {
            // Frustum culling (on the GPU, over selection-critical
            // attributes) plus TSP ordering (on the CPU) before the batch.
            let cull = timeline.push(
                OpKind::Scheduling,
                Lane::GpuCompute,
                device.forward_time(n_gaussians, 0) * 0.05,
                &[],
            );
            let tsp = timeline.push(OpKind::Scheduling, Lane::CpuScheduler, 1.0e-3, &[cull]);
            let shape = ClmShape {
                microbatches: stats.len(),
                window: ANALYTIC_PREFETCH_WINDOW,
                devices: 1,
                overlapped: true,
            };
            pipeline::emit_clm(&mut timeline, &[tsp], &shape, &mut costs);
        }
    }

    let makespan = timeline.makespan();
    let last_store_end = timeline
        .ops()
        .iter()
        .filter(|o| o.kind == OpKind::StoreGrads)
        .map(|o| o.end)
        .fold(0.0f64, f64::max);
    let adam_end = timeline
        .ops()
        .iter()
        .filter(|o| o.kind == OpKind::CpuAdamUpdate)
        .map(|o| o.end)
        .fold(0.0f64, f64::max);
    let adam_trailing_time = (adam_end - last_store_end).max(0.0);
    let scheduling_time = timeline.time_by_kind(OpKind::Scheduling);

    BatchSimulation {
        system,
        images: stats.len(),
        throughput: if makespan > 0.0 {
            stats.len() as f64 / makespan
        } else {
            0.0
        },
        bytes_loaded: timeline.bytes_by_kind(OpKind::LoadParams),
        bytes_stored: timeline.bytes_by_kind(OpKind::StoreGrads),
        adam_trailing_time,
        scheduling_time,
        timeline,
    }
}

/// Error returned by [`check_memory_fit`] when a system's estimated GPU
/// footprint exceeds what the device can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes the system needs ([`MemoryEstimate::total`]).
    pub requested: u64,
    /// Bytes the device can hold ([`DeviceProfile::usable_gpu_memory`]).
    pub available: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GPU out of memory: {} bytes required, {} usable",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Checks that the peak GPU memory a simulated run would need fits the
/// device, returning the estimate for inspection or the OOM error if it
/// exceeds the usable capacity.
pub fn check_memory_fit(
    system: SystemKind,
    device: &DeviceProfile,
    scene: &SceneProfile,
    n_gaussians: u64,
) -> Result<MemoryEstimate, OutOfMemory> {
    let estimate = gpu_memory_required(system, n_gaussians, scene);
    let (requested, available) = (estimate.total(), device.usable_gpu_memory());
    if requested > available {
        return Err(OutOfMemory {
            requested,
            available,
        });
    }
    Ok(estimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_scene::{generate_dataset, DatasetConfig, SceneKind, SceneSpec};

    fn bigcity_profile() -> SceneProfile {
        SceneProfile {
            name: "BigCity".into(),
            resolution: (1920, 1080),
            batch_size: 64,
            rho_mean: 0.0039,
            rho_max: 0.0106,
            cache_hit_rate: 0.15,
            overlap_fraction: 0.6,
        }
    }

    fn bicycle_profile() -> SceneProfile {
        SceneProfile {
            name: "Bicycle".into(),
            resolution: (3840, 2160),
            batch_size: 4,
            rho_mean: 0.35,
            rho_max: 0.6,
            cache_hit_rate: 0.5,
            overlap_fraction: 0.4,
        }
    }

    #[test]
    fn model_state_bytes_ranking() {
        assert_eq!(
            gpu_model_state_bytes_per_gaussian(SystemKind::Baseline),
            944
        );
        assert_eq!(
            gpu_model_state_bytes_per_gaussian(SystemKind::NaiveOffload),
            472
        );
        assert_eq!(gpu_model_state_bytes_per_gaussian(SystemKind::Clm), 160);
    }

    #[test]
    fn max_model_size_ordering_matches_figure8() {
        // Figure 8: CLM > naive offloading > enhanced baseline >= baseline,
        // on both testbeds.
        for device in [DeviceProfile::rtx4090(), DeviceProfile::rtx2080ti()] {
            let scene = bigcity_profile();
            let base = max_trainable_gaussians(SystemKind::Baseline, &device, &scene);
            let enh = max_trainable_gaussians(SystemKind::EnhancedBaseline, &device, &scene);
            let naive = max_trainable_gaussians(SystemKind::NaiveOffload, &device, &scene);
            let clm = max_trainable_gaussians(SystemKind::Clm, &device, &scene);
            assert!(base <= enh, "{}: {base} vs {enh}", device.name);
            assert!(enh < naive, "{}: {enh} vs {naive}", device.name);
            assert!(naive < clm, "{}: {naive} vs {clm}", device.name);
            // CLM's advantage over the enhanced baseline is severalfold
            // (the paper reports up to 6.1x).
            assert!(
                clm as f64 / enh as f64 > 3.0,
                "{}: ratio {}",
                device.name,
                clm as f64 / enh as f64
            );
        }
    }

    #[test]
    fn rtx4090_capacities_are_in_the_paper_ballpark() {
        // Figure 8b (BigCity): baseline ~15M, naive ~46M, CLM ~102M.  The
        // cost-model constants are calibrated, not fitted, so allow wide
        // bands — the point is the order of magnitude and the ratios.
        let device = DeviceProfile::rtx4090();
        let scene = bigcity_profile();
        let base = max_trainable_gaussians(SystemKind::Baseline, &device, &scene);
        let clm = max_trainable_gaussians(SystemKind::Clm, &device, &scene);
        assert!((10_000_000..35_000_000).contains(&base), "baseline {base}");
        assert!((60_000_000..160_000_000).contains(&clm), "clm {clm}");
    }

    #[test]
    fn memory_breakdown_total_is_consistent() {
        let scene = bigcity_profile();
        for system in SystemKind::ALL {
            let est = gpu_memory_required(system, 15_300_000, &scene);
            assert_eq!(est.total(), est.model_state + est.others());
        }
        // CLM uses the least GPU memory at equal model size (Figure 10).
        let clm = gpu_memory_required(SystemKind::Clm, 15_300_000, &scene).total();
        for system in [
            SystemKind::Baseline,
            SystemKind::EnhancedBaseline,
            SystemKind::NaiveOffload,
        ] {
            assert!(
                gpu_memory_required(system, 15_300_000, &scene).total() > clm,
                "{system}"
            );
        }
    }

    #[test]
    fn check_memory_fit_matches_estimate() {
        let device = DeviceProfile::rtx4090();
        let scene = bigcity_profile();
        let n_ok = max_trainable_gaussians(SystemKind::Clm, &device, &scene);
        assert!(check_memory_fit(SystemKind::Clm, &device, &scene, n_ok).is_ok());
        let oom = check_memory_fit(SystemKind::Clm, &device, &scene, n_ok * 2).unwrap_err();
        assert!(oom.requested > oom.available);
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<OutOfMemory>();
    }

    #[test]
    fn clm_is_faster_than_naive_offloading() {
        // Figures 11/13: CLM overlaps communication and CPU Adam with
        // compute, so at equal model size it has strictly higher throughput.
        for device in [DeviceProfile::rtx4090(), DeviceProfile::rtx2080ti()] {
            let scene = bigcity_profile();
            let n = 46_000_000;
            let stats_cached = synthetic_microbatch_stats(&scene, n, true);
            let clm = simulate_batch(SystemKind::Clm, &device, &scene, n, &stats_cached);
            let naive = simulate_batch(SystemKind::NaiveOffload, &device, &scene, n, &stats_cached);
            let speedup = clm.throughput / naive.throughput;
            assert!(
                speedup > 1.2,
                "{}: CLM {} img/s vs naive {} img/s",
                device.name,
                clm.throughput,
                naive.throughput
            );
            // CLM also moves far fewer bytes.
            assert!(clm.bytes_loaded < naive.bytes_loaded / 4);
        }
    }

    #[test]
    fn analytic_clm_prefetches_one_microbatch_ahead() {
        // The overlap the paper is about: at the double-buffering window the
        // load for micro-batch 2 waits for micro-batch 0's compute only, so
        // it is under way while micro-batch 1 still computes.
        let device = DeviceProfile::rtx4090();
        let scene = SceneProfile::paper_reference(SceneKind::Rubble);
        let n = max_trainable_gaussians(SystemKind::NaiveOffload, &device, &scene);
        let stats = synthetic_microbatch_stats(&scene, n, true);
        let clm = simulate_batch(SystemKind::Clm, &device, &scene, n, &stats);
        let op = |kind: OpKind, microbatch: u32| {
            clm.timeline
                .ops()
                .iter()
                .find(|o| o.kind == kind && o.microbatch == Some(microbatch))
                .expect("every micro-batch has the op")
        };
        assert!(op(OpKind::LoadParams, 2).start < op(OpKind::Backward, 1).end);
        assert!(
            op(OpKind::LoadParams, 2).start >= op(OpKind::Backward, 0).end,
            "but no further ahead than one micro-batch"
        );
    }

    #[test]
    fn clm_overhead_vs_enhanced_baseline_is_modest() {
        // Figure 12: CLM achieves a large fraction of the enhanced
        // baseline's throughput, and the fraction is higher on the slower
        // GPU (more time to hide communication behind).
        let scene = bicycle_profile();
        let n = 15_000_000;
        let ratio = |device: &DeviceProfile| {
            let stats = synthetic_microbatch_stats(&scene, n, true);
            let clm = simulate_batch(SystemKind::Clm, device, &scene, n, &stats);
            let enh = simulate_batch(SystemKind::EnhancedBaseline, device, &scene, n, &stats);
            clm.throughput / enh.throughput
        };
        let r4090 = ratio(&DeviceProfile::rtx4090());
        let r2080 = ratio(&DeviceProfile::rtx2080ti());
        assert!(r4090 > 0.4 && r4090 <= 1.05, "4090 ratio {r4090}");
        assert!(r2080 > 0.6 && r2080 <= 1.05, "2080 ratio {r2080}");
        assert!(
            r2080 >= r4090 - 0.05,
            "slower GPU should hide overheads better: {r2080} vs {r4090}"
        );
    }

    #[test]
    fn enhanced_baseline_beats_baseline_on_sparse_scenes() {
        // Figure 12 explanation (§5.1): pre-rendering frustum culling helps
        // most when rho is low.
        let device = DeviceProfile::rtx4090();
        let scene = bigcity_profile();
        let n = 15_300_000;
        let stats = synthetic_microbatch_stats(&scene, n, true);
        let base = simulate_batch(SystemKind::Baseline, &device, &scene, n, &stats);
        let enh = simulate_batch(SystemKind::EnhancedBaseline, &device, &scene, n, &stats);
        assert!(enh.throughput / base.throughput > 2.0);
    }

    #[test]
    fn caching_reduces_loaded_bytes() {
        let device = DeviceProfile::rtx4090();
        let scene = bicycle_profile();
        let n = 20_000_000;
        let cached = simulate_batch(
            SystemKind::Clm,
            &device,
            &scene,
            n,
            &synthetic_microbatch_stats(&scene, n, true),
        );
        let uncached = simulate_batch(
            SystemKind::Clm,
            &device,
            &scene,
            n,
            &synthetic_microbatch_stats(&scene, n, false),
        );
        assert!(cached.bytes_loaded < uncached.bytes_loaded);
    }

    #[test]
    fn microbatch_stats_from_sets_are_consistent() {
        let sets = vec![
            VisibilitySet::from_unsorted(vec![1, 2, 3]),
            VisibilitySet::from_unsorted(vec![2, 3, 4]),
            VisibilitySet::from_unsorted(vec![4, 5]),
        ];
        let stats = microbatch_stats_from_sets(&sets);
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].working_set, 3);
        assert_eq!(stats[0].fetched, 3);
        assert_eq!(stats[1].fetched, 1); // only {4}
        assert_eq!(stats[2].fetched, 1); // only {5}
                                         // Total finalized equals the union size.
        let total: u64 = stats.iter().map(|s| s.finalized).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn scene_profile_measurement_runs_on_synthetic_data() {
        let dataset = generate_dataset(&SceneSpec::of(SceneKind::Rubble), &DatasetConfig::tiny());
        let profile = SceneProfile::measure(&dataset, OrderingStrategy::Tsp, 0);
        assert!(profile.rho_mean > 0.0 && profile.rho_mean <= 1.0);
        assert!(profile.rho_max >= profile.rho_mean);
        assert!((0.0..=1.0).contains(&profile.cache_hit_rate));
        assert!((0.0..=1.0).contains(&profile.overlap_fraction));
        assert_eq!(profile.batch_size, 8);
    }
}
