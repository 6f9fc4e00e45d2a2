//! Training-model initialisation.
//!
//! Real 3DGS pipelines initialise the Gaussians from a COLMAP
//! structure-from-motion point cloud (§2.1).  COLMAP and the captured images
//! are not available here, so [`init_from_point_cloud`] plays that role: it
//! subsamples / oversamples the ground-truth positions with noise (a stand-in
//! for a sparse SfM reconstruction of the scene geometry) and assigns neutral
//! colours and opacities, which training must then refine.

use gs_core::gaussian::{Gaussian, GaussianModel};
use gs_core::math::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic point-cloud initialisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InitConfig {
    /// Number of Gaussians the training model starts with.
    pub num_gaussians: usize,
    /// Standard deviation of the positional noise added to sampled points,
    /// as a fraction of the scene extent.
    pub position_noise: f32,
    /// Initial isotropic scale of every Gaussian.
    pub initial_sigma: f32,
    /// Initial opacity of every Gaussian.
    pub initial_opacity: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for InitConfig {
    fn default() -> Self {
        InitConfig {
            num_gaussians: 1_000,
            position_noise: 0.01,
            initial_sigma: 0.2,
            initial_opacity: 0.3,
            seed: 42,
        }
    }
}

/// Builds an initial training model by sampling (with replacement) from the
/// positions of `reference` — the stand-in for a COLMAP point cloud — and
/// perturbing them.
///
/// # Panics
/// Panics if `reference` is empty or `config.num_gaussians` is zero.
pub fn init_from_point_cloud(reference: &GaussianModel, config: &InitConfig) -> GaussianModel {
    assert!(
        !reference.is_empty(),
        "reference point cloud must not be empty"
    );
    assert!(config.num_gaussians > 0, "need at least one gaussian");
    let (min, max) = reference
        .bounding_box()
        .expect("non-empty model has a bounding box");
    let extent = (max - min).length().max(1e-3);
    let noise = config.position_noise * extent;

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut model = GaussianModel::with_capacity(config.num_gaussians);
    for _ in 0..config.num_gaussians {
        let src = rng.gen_range(0..reference.len());
        let base = reference.positions()[src];
        let position = base
            + Vec3::new(
                rng.gen_range(-noise..noise),
                rng.gen_range(-noise..noise),
                rng.gen_range(-noise..noise),
            );
        // Neutral grey initial colour; training recovers the appearance.
        model.push(Gaussian::isotropic(
            position,
            config.initial_sigma * rng.gen_range(0.7..1.3),
            [0.5, 0.5, 0.5],
            config.initial_opacity,
        ));
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_dataset, DatasetConfig};
    use crate::spec::{SceneKind, SceneSpec};

    fn reference() -> GaussianModel {
        generate_dataset(&SceneSpec::of(SceneKind::Bicycle), &DatasetConfig::tiny()).ground_truth
    }

    #[test]
    fn point_cloud_init_stays_near_reference_geometry() {
        let reference = reference();
        let (min, max) = reference.bounding_box().unwrap();
        let init = init_from_point_cloud(
            &reference,
            &InitConfig {
                num_gaussians: 200,
                ..Default::default()
            },
        );
        assert_eq!(init.len(), 200);
        let slack = (max - min).length() * 0.05;
        for &p in init.positions() {
            assert!(p.x >= min.x - slack && p.x <= max.x + slack);
            assert!(p.y >= min.y - slack && p.y <= max.y + slack);
            assert!(p.z >= min.z - slack && p.z <= max.z + slack);
        }
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let reference = reference();
        let cfg = InitConfig::default();
        assert_eq!(
            init_from_point_cloud(&reference, &cfg),
            init_from_point_cloud(&reference, &cfg)
        );
        let other = InitConfig { seed: 1, ..cfg };
        assert_ne!(
            init_from_point_cloud(&reference, &cfg),
            init_from_point_cloud(&reference, &other)
        );
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_reference_rejected() {
        let _ = init_from_point_cloud(&GaussianModel::new(), &InitConfig::default());
    }
}
