//! Visibility-aware Gaussian partitioning for multi-device (sharded)
//! training.
//!
//! A sharded runtime keeps each device's slice of the offloaded parameter
//! store in that device's pinned host pool, so *which* device owns a
//! Gaussian decides which communication lane pays for its gathers, gradient
//! stores and CPU Adam updates.  Assigning Gaussians round-robin would
//! balance counts but not work: a handful of large foreground splats can
//! dominate a scene's render and optimiser cost.  [`partition_by_footprint`]
//! therefore balances the **projected-footprint load** — for every Gaussian,
//! the summed screen-space area (in pixels) it covers across the views that
//! actually see it:
//!
//! ```text
//! load(g) = 1 + Σ_{views v with g ∈ cull(v)} min(π · radius(g, v)², pixels(v))
//! ```
//!
//! The `1` floor keeps never-visible Gaussians from having zero load (they
//! still cost Adam updates and host memory), which also bounds the
//! max-to-min device-load ratio the tests gate on; the per-view clamp to
//! the image area keeps near-camera splats — whose 3σ radius can exceed
//! the screen — from dominating the distribution (a splat never rasterises
//! more pixels than the view has).
//!
//! # Invariants
//!
//! * **Deterministic** — the assignment depends only on the model, the
//!   cameras and the device count (greedy LPT with index tie-breaks; no RNG,
//!   no hashing), so every shard-count run of a training job sees the same
//!   partition.
//! * **Total** — every Gaussian gets exactly one owner; the per-device sets
//!   returned by [`GaussianPartition::device_set`] are disjoint and cover
//!   the model.
//! * **Balanced** — greedy longest-processing-time assignment keeps the
//!   heaviest device within `4/3` of the optimum, and with the unit floor
//!   the max/min footprint ratio stays small for any realistic scene (the
//!   sharded runtime's tests bound it).
//! * **Pure scheduling** — ownership never changes what is computed, only
//!   which simulated lane is charged; the sharded engine's training
//!   trajectory is bit-identical to the single-device trainer's for every
//!   device count.

use gs_core::camera::Camera;
use gs_core::cull_frustum;
use gs_core::gaussian::GaussianModel;
use gs_core::VisibilitySet;
use gs_render::project_gaussian;

/// An assignment of every Gaussian in a model to one of `num_devices`
/// simulated devices, produced by [`partition_by_footprint`].
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianPartition {
    /// `owner[g]` = device owning Gaussian `g`.
    owner: Vec<u32>,
    num_devices: usize,
    /// Summed projected-footprint load assigned to each device.
    device_footprint: Vec<f64>,
    /// Number of Gaussians assigned to each device.
    device_counts: Vec<usize>,
}

impl GaussianPartition {
    /// The trivial partition: every Gaussian on device 0 with unit loads.
    pub fn single_device(num_gaussians: usize) -> Self {
        GaussianPartition {
            owner: vec![0; num_gaussians],
            num_devices: 1,
            device_footprint: vec![num_gaussians as f64],
            device_counts: vec![num_gaussians],
        }
    }

    /// Number of devices the partition targets.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Number of Gaussians covered by the partition.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// Whether the partition covers no Gaussians.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// The owning device of Gaussian `g`.
    ///
    /// # Panics
    /// Panics if `g` is out of range.
    pub fn owner_of(&self, g: u32) -> usize {
        self.owner[g as usize] as usize
    }

    /// Per-Gaussian owner table.
    pub fn owners(&self) -> &[u32] {
        &self.owner
    }

    /// Summed projected-footprint load per device.
    pub fn device_footprints(&self) -> &[f64] {
        &self.device_footprint
    }

    /// Number of Gaussians per device.
    pub fn device_counts(&self) -> &[usize] {
        &self.device_counts
    }

    /// The set of Gaussians owned by `device`.
    pub fn device_set(&self, device: usize) -> VisibilitySet {
        VisibilitySet::from_sorted(
            self.owner
                .iter()
                .enumerate()
                .filter(|(_, &d)| d as usize == device)
                .map(|(g, _)| g as u32)
                .collect(),
        )
    }

    /// Splits a sorted index slice into one sorted per-device slice
    /// (ownership order preserved): `split(s)[d]` holds the elements of `s`
    /// owned by device `d`.
    pub fn split_indices(&self, indices: &[u32]) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.num_devices];
        for &g in indices {
            out[self.owner_of(g)].push(g);
        }
        out
    }

    /// Number of elements of `indices` owned by each device.
    pub fn split_counts(&self, indices: &[u32]) -> Vec<usize> {
        if self.num_devices == 1 {
            // One owner: the single-device schedule asks this for every
            // Adam group of every batch and must not pay an owner lookup
            // per row for the answer.
            return vec![indices.len()];
        }
        let mut out = vec![0usize; self.num_devices];
        for &g in indices {
            out[self.owner_of(g)] += 1;
        }
        out
    }

    /// Load balance of the partition as the max/min device-footprint ratio
    /// (1.0 = perfectly balanced; `f64::INFINITY` if a device got zero
    /// load, which the unit footprint floor prevents whenever every device
    /// owns at least one Gaussian).
    pub fn load_imbalance(&self) -> f64 {
        let max = self.device_footprint.iter().cloned().fold(0.0, f64::max);
        let min = self
            .device_footprint
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        if min <= 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }
}

/// Projected-footprint load of every Gaussian:
/// `1 + Σ min(π·radius², view pixels)` over the views whose culling set
/// contains it.  The radius is the rasteriser's own screen-space splat
/// radius, so the load is proportional to the pixel work the renderer will
/// spend on the Gaussian; the per-view clamp bounds near-camera splats by
/// the screen they actually cover.
pub fn projected_footprints(model: &GaussianModel, cameras: &[Camera]) -> Vec<f64> {
    let mut load = vec![1.0f64; model.len()];
    for camera in cameras {
        let view_pixels = camera.intrinsics.pixel_count() as f64;
        // Visibility-aware: only the views that survive frustum culling
        // contribute, mirroring what the trainer will actually render.
        for g in cull_frustum(model, camera).iter() {
            if let Some((projected, _)) = project_gaussian(&model.get(g as usize), g, camera) {
                let r = projected.radius as f64;
                load[g as usize] += (std::f64::consts::PI * r * r).min(view_pixels);
            }
        }
    }
    load
}

/// Partitions a model's Gaussians across `num_devices` simulated devices,
/// balancing the projected-footprint load of [`projected_footprints`].
///
/// Greedy longest-processing-time assignment: Gaussians are visited in
/// decreasing load order (ties broken by index) and each goes to the
/// currently lightest device (ties broken by device id) — deterministic and
/// within 4/3 of the optimal makespan.
///
/// # Panics
/// Panics if `num_devices` is 0 or exceeds the `u8` device-index range (256
/// devices).
pub fn partition_by_footprint(
    model: &GaussianModel,
    cameras: &[Camera],
    num_devices: usize,
) -> GaussianPartition {
    assert!(num_devices >= 1, "num_devices must be at least 1");
    assert!(
        num_devices <= u8::MAX as usize + 1,
        "num_devices must fit a u8 device index"
    );
    let load = projected_footprints(model, cameras);
    if num_devices == 1 {
        return GaussianPartition {
            owner: vec![0; model.len()],
            num_devices: 1,
            device_footprint: vec![load.iter().sum()],
            device_counts: vec![model.len()],
        };
    }

    let mut order: Vec<u32> = (0..model.len() as u32).collect();
    // Decreasing load, index ascending on ties: `sort_by` is stable, so the
    // index order survives equal loads.
    order.sort_by(|&a, &b| {
        load[b as usize]
            .partial_cmp(&load[a as usize])
            .expect("footprint loads are finite")
    });

    let mut owner = vec![0u32; model.len()];
    let mut device_footprint = vec![0.0f64; num_devices];
    let mut device_counts = vec![0usize; num_devices];
    for g in order {
        let lightest = device_footprint
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("loads are finite"))
            .map(|(d, _)| d)
            .expect("at least one device");
        owner[g as usize] = lightest as u32;
        device_footprint[lightest] += load[g as usize];
        device_counts[lightest] += 1;
    }

    GaussianPartition {
        owner,
        num_devices,
        device_footprint,
        device_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_dataset, init_from_point_cloud, DatasetConfig, InitConfig};
    use crate::{SceneKind, SceneSpec};

    fn test_scene() -> (GaussianModel, Vec<Camera>) {
        let dataset = generate_dataset(&SceneSpec::of(SceneKind::Bicycle), &DatasetConfig::tiny());
        let model = init_from_point_cloud(
            &dataset.ground_truth,
            &InitConfig {
                num_gaussians: 200,
                ..Default::default()
            },
        );
        (model, dataset.cameras)
    }

    #[test]
    fn footprints_have_unit_floor_and_visibility_signal() {
        let (model, cameras) = test_scene();
        let load = projected_footprints(&model, &cameras);
        assert_eq!(load.len(), model.len());
        assert!(load.iter().all(|&l| l >= 1.0), "unit floor");
        assert!(
            load.iter().any(|&l| l > 1.0),
            "visible Gaussians must accumulate projected area"
        );
    }

    #[test]
    fn partition_is_total_and_disjoint() {
        let (model, cameras) = test_scene();
        for devices in [1usize, 2, 3, 4] {
            let p = partition_by_footprint(&model, &cameras, devices);
            assert_eq!(p.num_devices(), devices);
            assert_eq!(p.len(), model.len());
            assert_eq!(p.device_counts().iter().sum::<usize>(), model.len());
            let mut covered = 0;
            for d in 0..devices {
                let set = p.device_set(d);
                assert_eq!(set.len(), p.device_counts()[d]);
                for g in set.iter() {
                    assert_eq!(p.owner_of(g), d);
                }
                covered += set.len();
            }
            assert_eq!(covered, model.len());
        }
    }

    #[test]
    fn partition_balances_footprint_load() {
        let (model, cameras) = test_scene();
        for devices in [2usize, 4] {
            let p = partition_by_footprint(&model, &cameras, devices);
            assert!(
                p.load_imbalance() < 1.5,
                "{devices} devices: imbalance {} (loads {:?})",
                p.load_imbalance(),
                p.device_footprints()
            );
            assert!(p.device_counts().iter().all(|&c| c > 0));
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let (model, cameras) = test_scene();
        let a = partition_by_footprint(&model, &cameras, 4);
        let b = partition_by_footprint(&model, &cameras, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn split_helpers_respect_ownership() {
        let (model, cameras) = test_scene();
        let p = partition_by_footprint(&model, &cameras, 2);
        let all: Vec<u32> = (0..model.len() as u32).collect();
        let split = p.split_indices(&all);
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].len() + split[1].len(), all.len());
        assert_eq!(
            p.split_counts(&all),
            vec![split[0].len(), split[1].len()],
            "counts agree with the materialised split"
        );
        for (d, part) in split.iter().enumerate() {
            assert!(part.windows(2).all(|w| w[0] < w[1]), "sorted per device");
            assert!(part.iter().all(|&g| p.owner_of(g) == d));
        }
    }

    #[test]
    fn single_device_partition_is_trivial() {
        let p = GaussianPartition::single_device(5);
        assert_eq!(p.num_devices(), 1);
        assert_eq!(p.owner_of(4), 0);
        assert_eq!(p.load_imbalance(), 1.0);
        assert_eq!(p.device_set(0).len(), 5);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "num_devices must be at least 1")]
    fn zero_devices_panics() {
        let (model, cameras) = test_scene();
        let _ = partition_by_footprint(&model, &cameras, 0);
    }
}
