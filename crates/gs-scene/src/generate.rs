//! Synthetic dataset generation.
//!
//! The paper's datasets (multi-gigabyte captured image sets) are not
//! available in this environment, so each scene is replaced by a synthetic
//! stand-in that reproduces the *structure* CLM's behaviour depends on: how
//! many Gaussians there are relative to the camera frustum volume (sparsity
//! ρ), how views cluster spatially (locality), the camera trajectory
//! topology and the image resolution.  The ground truth for training is the
//! generated Gaussian model itself, rendered with the same renderer the
//! trainer uses — a standard "self-reconstruction" setup that exercises the
//! full training pipeline end to end.

use crate::spec::{SceneSpec, Trajectory};
use gs_core::camera::{Camera, CameraIntrinsics};
use gs_core::gaussian::{Gaussian, GaussianModel};
use gs_core::math::Vec3;
use gs_core::visibility::VisibilitySet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size parameters for a synthetic dataset (the reduced-scale counterpart of
/// the paper's full-scale numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Number of ground-truth Gaussians to generate.
    pub num_gaussians: usize,
    /// Number of training views.
    pub num_views: usize,
    /// Rendered image width in pixels.
    pub width: u32,
    /// Rendered image height in pixels.
    pub height: u32,
    /// RNG seed so datasets are reproducible.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            num_gaussians: 2_000,
            num_views: 32,
            width: 64,
            height: 48,
            seed: 7,
        }
    }
}

impl DatasetConfig {
    /// A very small configuration for fast unit tests.
    pub fn tiny() -> Self {
        DatasetConfig {
            num_gaussians: 300,
            num_views: 12,
            width: 32,
            height: 24,
            seed: 11,
        }
    }
}

/// A synthetic posed-image dataset: the ground-truth scene model plus the
/// training cameras.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The scene this dataset mimics.
    pub spec: SceneSpec,
    /// Generation parameters.
    pub config: DatasetConfig,
    /// Ground-truth Gaussians (what training tries to reconstruct).
    pub ground_truth: GaussianModel,
    /// Training cameras, in trajectory order.
    pub cameras: Vec<Camera>,
}

impl Dataset {
    /// Number of training views.
    pub fn num_views(&self) -> usize {
        self.cameras.len()
    }

    /// Computes the visibility set of every view against `model`.
    pub fn visibility_sets(&self, model: &GaussianModel) -> Vec<VisibilitySet> {
        self.cameras
            .iter()
            .map(|cam| gs_core::cull_frustum(model, cam))
            .collect()
    }

    /// Per-view sparsity ρ_i against the ground-truth model (Figure 5).
    pub fn sparsity_profile(&self) -> Vec<f64> {
        self.cameras
            .iter()
            .map(|cam| gs_core::culling::sparsity(&self.ground_truth, cam))
            .collect()
    }
}

/// Generates a synthetic dataset for `spec` at the size given by `config`.
///
/// # Panics
/// Panics if `config` requests zero Gaussians or zero views.
pub fn generate_dataset(spec: &SceneSpec, config: &DatasetConfig) -> Dataset {
    assert!(config.num_gaussians > 0, "need at least one gaussian");
    assert!(config.num_views > 0, "need at least one view");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let ground_truth = generate_gaussians(spec, config.num_gaussians, &mut rng);
    let cameras = generate_cameras(spec, config, &mut rng);
    Dataset {
        spec: spec.clone(),
        config: *config,
        ground_truth,
        cameras,
    }
}

fn random_color(rng: &mut StdRng) -> [f32; 3] {
    [
        rng.gen_range(0.05..0.95),
        rng.gen_range(0.05..0.95),
        rng.gen_range(0.05..0.95),
    ]
}

fn generate_gaussians(spec: &SceneSpec, count: usize, rng: &mut StdRng) -> GaussianModel {
    let e = spec.extent;
    let sigma = (e / (count as f32).cbrt()) * 0.18 + 0.02;
    let mut model = GaussianModel::with_capacity(count);
    for _ in 0..count {
        let position = match spec.trajectory {
            Trajectory::Orbit => {
                // A compact object cluster plus scattered ground points.
                if rng.gen_bool(0.6) {
                    Vec3::new(
                        rng.gen_range(-e * 0.15..e * 0.15),
                        rng.gen_range(-e * 0.1..e * 0.15),
                        rng.gen_range(-e * 0.15..e * 0.15),
                    )
                } else {
                    Vec3::new(
                        rng.gen_range(-e * 0.5..e * 0.5),
                        rng.gen_range(-e * 0.12..0.0),
                        rng.gen_range(-e * 0.5..e * 0.5),
                    )
                }
            }
            Trajectory::AerialGrid => {
                // Ground plane with building-like height clusters.
                let x = rng.gen_range(-e * 0.5..e * 0.5);
                let z = rng.gen_range(-e * 0.5..e * 0.5);
                let height = if rng.gen_bool(0.3) {
                    rng.gen_range(0.0..e * 0.05)
                } else {
                    rng.gen_range(0.0..e * 0.01)
                };
                Vec3::new(x, height, z)
            }
            Trajectory::IndoorWalk => {
                // Rooms strung along the x axis.
                let room = rng.gen_range(0..8) as f32;
                let room_center = -e * 0.5 + (room + 0.5) * e / 8.0;
                Vec3::new(
                    room_center + rng.gen_range(-e * 0.055..e * 0.055),
                    rng.gen_range(0.0..e * 0.03),
                    rng.gen_range(-e * 0.08..e * 0.08),
                )
            }
            Trajectory::StreetDrive => {
                // A long corridor along x with facades on both sides.
                Vec3::new(
                    rng.gen_range(-e * 0.5..e * 0.5),
                    rng.gen_range(0.0..e * 0.02),
                    rng.gen_range(-e * 0.03..e * 0.03),
                )
            }
        };
        let mut g = Gaussian::isotropic(
            position,
            sigma * rng.gen_range(0.5..1.8),
            random_color(rng),
            rng.gen_range(0.4..0.95),
        );
        // Mild anisotropy so covariance gradients are exercised.
        g.log_scale.x += rng.gen_range(-0.4..0.4);
        g.log_scale.z += rng.gen_range(-0.4..0.4);
        model.push(g);
    }
    model
}

fn generate_cameras(spec: &SceneSpec, config: &DatasetConfig, rng: &mut StdRng) -> Vec<Camera> {
    let e = spec.extent;
    let intrinsics = CameraIntrinsics::simple(config.width, config.height, 70.0_f32.to_radians());
    // Effective visibility range per trajectory type.  Indoor and street
    // captures are occlusion-limited (walls, facades) so a view only
    // reaches a short way down the corridor; this is what makes the real
    // Alameda / Ithaca datasets so sparse (Figure 5).
    let far_factor = match spec.trajectory {
        Trajectory::Orbit | Trajectory::AerialGrid => 2.0,
        Trajectory::IndoorWalk => 0.15,
        Trajectory::StreetDrive => 0.12,
    };
    let far = e * far_factor;
    let mut cameras = Vec::with_capacity(config.num_views);
    for i in 0..config.num_views {
        let t = i as f32 / config.num_views as f32;
        let camera = match spec.trajectory {
            Trajectory::Orbit => {
                let angle = t * std::f32::consts::TAU;
                let radius = e * 0.35;
                let eye = Vec3::new(
                    radius * angle.cos(),
                    e * 0.08 + rng.gen_range(-0.02..0.02) * e,
                    radius * angle.sin(),
                );
                Camera::look_at(eye, Vec3::ZERO, Vec3::Y, intrinsics)
            }
            Trajectory::AerialGrid => {
                // Boustrophedon (lawn-mower) grid over the scene.  The
                // flight altitude is capped so that city-scale captures see
                // a much smaller fraction of the scene than smaller aerial
                // captures, as in the real datasets.
                let cols = (config.num_views as f32).sqrt().ceil() as usize;
                let row = i / cols;
                let col = if row.is_multiple_of(2) {
                    i % cols
                } else {
                    cols - 1 - (i % cols)
                };
                let x = -e * 0.45 + (col as f32 + 0.5) * e * 0.9 / cols as f32;
                let z = -e * 0.45 + (row as f32 + 0.5) * e * 0.9 / cols as f32;
                let altitude = (e * 0.10).min(35.0);
                let eye = Vec3::new(x, altitude, z);
                let target = Vec3::new(x + rng.gen_range(-0.02..0.02) * e, 0.0, z + e * 0.04);
                Camera::look_at(eye, target, Vec3::Y, intrinsics)
            }
            Trajectory::IndoorWalk => {
                let x = -e * 0.45 + t * e * 0.9;
                let eye = Vec3::new(x, e * 0.012, rng.gen_range(-0.01..0.01) * e);
                // Look ahead, alternating a little to the sides.
                let side = if i % 3 == 0 { e * 0.05 } else { -e * 0.03 };
                let target = Vec3::new(x + e * 0.08, e * 0.012, side);
                Camera::look_at(eye, target, Vec3::Y, intrinsics)
            }
            Trajectory::StreetDrive => {
                let x = -e * 0.48 + t * e * 0.96;
                let eye = Vec3::new(x, e * 0.006, 0.0);
                let target = Vec3::new(x + e * 0.05, e * 0.005, 0.0);
                Camera::look_at(eye, target, Vec3::Y, intrinsics)
            }
        };
        cameras.push(camera.with_clip(0.05, far));
    }
    cameras
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SceneKind;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = SceneSpec::of(SceneKind::Bicycle);
        let cfg = DatasetConfig::tiny();
        let a = generate_dataset(&spec, &cfg);
        let b = generate_dataset(&spec, &cfg);
        assert_eq!(a.ground_truth, b.ground_truth);
        assert_eq!(a.cameras.len(), b.cameras.len());
        let different = generate_dataset(&spec, &DatasetConfig { seed: 99, ..cfg });
        assert_ne!(a.ground_truth, different.ground_truth);
    }

    #[test]
    fn dataset_has_requested_size() {
        let spec = SceneSpec::of(SceneKind::Rubble);
        let cfg = DatasetConfig {
            num_gaussians: 500,
            num_views: 20,
            width: 40,
            height: 30,
            seed: 3,
        };
        let ds = generate_dataset(&spec, &cfg);
        assert_eq!(ds.ground_truth.len(), 500);
        assert_eq!(ds.num_views(), 20);
        assert_eq!(ds.cameras[0].intrinsics.width, 40);
    }

    #[test]
    fn every_view_sees_at_least_one_gaussian() {
        for kind in SceneKind::ALL {
            let spec = SceneSpec::of(kind);
            let ds = generate_dataset(&spec, &DatasetConfig::tiny());
            let sets = ds.visibility_sets(&ds.ground_truth);
            for (i, set) in sets.iter().enumerate() {
                assert!(
                    !set.is_empty(),
                    "{kind}: view {i} sees nothing — generator produced a useless view"
                );
            }
        }
    }

    #[test]
    fn larger_scenes_are_sparser() {
        // Figure 5's key property: the city-scale aerial scene has much
        // lower per-view sparsity than the compact yard scene.
        let cfg = DatasetConfig {
            num_gaussians: 3000,
            num_views: 24,
            width: 32,
            height: 24,
            seed: 5,
        };
        let mean = |kind: SceneKind| {
            let ds = generate_dataset(&SceneSpec::of(kind), &cfg);
            let profile = ds.sparsity_profile();
            profile.iter().sum::<f64>() / profile.len() as f64
        };
        let bicycle = mean(SceneKind::Bicycle);
        let bigcity = mean(SceneKind::BigCity);
        assert!(
            bicycle > 2.0 * bigcity,
            "expected Bicycle (rho={bicycle:.3}) to be much denser than BigCity (rho={bigcity:.3})"
        );
    }

    #[test]
    fn consecutive_views_share_gaussians() {
        // Spatial locality (§3): adjacent views on the trajectory must have
        // overlapping visibility sets, otherwise caching and TSP ordering
        // would be pointless.
        for kind in [SceneKind::Rubble, SceneKind::Ithaca, SceneKind::Alameda] {
            let ds = generate_dataset(&SceneSpec::of(kind), &DatasetConfig::default());
            let sets = ds.visibility_sets(&ds.ground_truth);
            let mut overlaps = 0usize;
            let mut pairs = 0usize;
            for w in sets.windows(2) {
                if !w[0].is_empty() && !w[1].is_empty() {
                    pairs += 1;
                    if w[0].intersection_len(&w[1]) > 0 {
                        overlaps += 1;
                    }
                }
            }
            assert!(
                overlaps as f64 >= 0.5 * pairs as f64,
                "{kind}: only {overlaps}/{pairs} consecutive view pairs overlap"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one gaussian")]
    fn zero_gaussians_rejected() {
        let spec = SceneSpec::of(SceneKind::Bicycle);
        let _ = generate_dataset(
            &spec,
            &DatasetConfig {
                num_gaussians: 0,
                ..DatasetConfig::tiny()
            },
        );
    }
}
