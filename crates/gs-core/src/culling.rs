//! Frustum culling: computing the visibility set `S_i` of a view.
//!
//! The paper's key observation (§3) is that 3DGS computation is *sparse*:
//! rendering one view only touches the Gaussians whose 3σ ellipsoid
//! intersects the camera frustum, which for large scenes is well under 1% of
//! the model.  Crucially, the test only needs the *selection-critical*
//! attributes (position, scale, rotation), which is what makes CLM's
//! attribute-wise offload possible: culling runs entirely against GPU-resident
//! data, and the result tells the loader exactly which non-critical rows to
//! fetch from CPU memory.

use crate::camera::{Camera, Frustum};
use crate::gaussian::GaussianModel;
use crate::math::Vec3;
use crate::visibility::VisibilitySet;

/// Number of standard deviations used for the ellipsoid-frustum
/// intersection test, matching standard 3DGS practice (§4.1).
pub const CULL_SIGMA: f32 = 3.0;

/// Field-of-view widening applied to the culling frustum so that splats
/// whose screen footprint is slightly inflated by the rasteriser's low-pass
/// filter are never culled away (the reference implementation applies the
/// same kind of conservative margin).
pub const CULL_FOV_MARGIN: f32 = 1.15;

/// Extra standard deviations added to [`CULL_SIGMA`] for the bounding-sphere
/// radius.  The rasteriser only drops a splat's contribution once its alpha
/// falls below 1/255, which for a fully opaque Gaussian happens at
/// `sqrt(2·ln 255) ≈ 3.33σ`; the slack keeps culling strictly conservative
/// with respect to the renderer.
pub const CULL_SIGMA_SLACK: f32 = 0.5;

/// Summary statistics of one culling pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CullStats {
    /// Total Gaussians tested.
    pub total: usize,
    /// Gaussians found in-frustum.
    pub in_frustum: usize,
}

impl CullStats {
    /// Sparsity ρ = in_frustum / total (0 when the model is empty).
    pub fn sparsity(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.in_frustum as f64 / self.total as f64
        }
    }
}

/// Computes the set of in-frustum Gaussians for `camera`.
///
/// A Gaussian is kept when a sphere of radius `3σ_max` around its centre
/// intersects the view frustum.  Bounding the anisotropic ellipsoid by a
/// sphere makes the test conservative: no Gaussian that could contribute to
/// the rendered image is ever culled.
///
/// ```
/// use gs_core::{GaussianModel, Gaussian, Camera, CameraIntrinsics, cull_frustum};
/// use gs_core::math::Vec3;
/// let mut model = GaussianModel::new();
/// model.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 5.0), 0.2, [0.5; 3], 0.9));
/// let cam = Camera::look_at(Vec3::ZERO, Vec3::Z, Vec3::Y,
///                           CameraIntrinsics::simple(32, 32, 1.0));
/// assert_eq!(cull_frustum(&model, &cam).len(), 1);
/// ```
pub fn cull_frustum(model: &GaussianModel, camera: &Camera) -> VisibilitySet {
    VisibilitySet::from_sorted(cull_frustum_indices(model, camera))
}

/// Radius of the bounding sphere the culling test puts around a Gaussian
/// with the given log-scale.  The single-view and the batch cull share this
/// one expression, which is what makes their sets identical.
#[inline]
fn cull_radius(log_scale: Vec3) -> f32 {
    (CULL_SIGMA + CULL_SIGMA_SLACK) * log_scale.map(f32::exp).max_component()
}

/// Like [`cull_frustum`] but returns the raw sorted index vector.
pub fn cull_frustum_indices(model: &GaussianModel, camera: &Camera) -> Vec<u32> {
    let frustum = camera.frustum_with_margin(CULL_FOV_MARGIN);
    let positions = model.positions();
    let scales = model.log_scales();
    let mut indices = Vec::new();
    for i in 0..model.len() {
        if frustum.intersects_sphere(positions[i], cull_radius(scales[i])) {
            indices.push(i as u32);
        }
    }
    indices
}

/// Computes [`CullStats`] (total vs. in-frustum counts) for one view.
pub fn cull_stats(model: &GaussianModel, camera: &Camera) -> CullStats {
    CullStats {
        total: model.len(),
        in_frustum: cull_frustum_indices(model, camera).len(),
    }
}

/// Sparsity ρ_i = |S_i| / N for one view, the quantity plotted in Figure 5.
pub fn sparsity(model: &GaussianModel, camera: &Camera) -> f64 {
    cull_stats(model, camera).sparsity()
}

/// Computes visibility sets for a whole batch of views in **one pass** over
/// the model: each row's bounding radius (three `exp`) is evaluated once and
/// tested against every view's frustum.  `cull_batch(model, cameras)[k]`
/// equals `cull_frustum(model, &cameras[k])` by construction — same radius
/// expression, same frustum, same sphere test.
pub fn cull_batch(model: &GaussianModel, cameras: &[Camera]) -> Vec<VisibilitySet> {
    let frusta: Vec<Frustum> = cameras
        .iter()
        .map(|cam| cam.frustum_with_margin(CULL_FOV_MARGIN))
        .collect();
    let positions = model.positions();
    let scales = model.log_scales();
    let mut indices: Vec<Vec<u32>> = vec![Vec::new(); cameras.len()];
    for i in 0..model.len() {
        let radius = cull_radius(scales[i]);
        for (frustum, visible) in frusta.iter().zip(&mut indices) {
            if frustum.intersects_sphere(positions[i], radius) {
                visible.push(i as u32);
            }
        }
    }
    indices
        .into_iter()
        .map(VisibilitySet::from_sorted)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::CameraIntrinsics;
    use crate::gaussian::Gaussian;

    fn forward_camera() -> Camera {
        Camera::look_at(
            Vec3::ZERO,
            Vec3::Z,
            Vec3::Y,
            CameraIntrinsics::simple(64, 64, 60.0_f32.to_radians()),
        )
        .with_clip(0.1, 100.0)
    }

    #[test]
    fn gaussian_in_front_is_visible_behind_is_not() {
        let mut model = GaussianModel::new();
        model.push(Gaussian::isotropic(
            Vec3::new(0.0, 0.0, 10.0),
            0.1,
            [0.5; 3],
            0.9,
        ));
        model.push(Gaussian::isotropic(
            Vec3::new(0.0, 0.0, -10.0),
            0.1,
            [0.5; 3],
            0.9,
        ));
        let set = cull_frustum(&model, &forward_camera());
        assert_eq!(set.indices(), &[0]);
    }

    #[test]
    fn large_gaussian_near_edge_is_kept() {
        let mut model = GaussianModel::new();
        // Centre outside the frustum, but its 3-sigma sphere crosses the edge.
        model.push(Gaussian::isotropic(
            Vec3::new(7.0, 0.0, 10.0),
            1.0,
            [0.5; 3],
            0.9,
        ));
        // Small Gaussian at the same centre is culled.
        model.push(Gaussian::isotropic(
            Vec3::new(7.0, 0.0, 10.0),
            0.01,
            [0.5; 3],
            0.9,
        ));
        let set = cull_frustum(&model, &forward_camera());
        assert!(set.contains(0));
        assert!(!set.contains(1));
    }

    #[test]
    fn beyond_far_plane_is_culled() {
        let mut model = GaussianModel::new();
        model.push(Gaussian::isotropic(
            Vec3::new(0.0, 0.0, 500.0),
            0.1,
            [0.5; 3],
            0.9,
        ));
        assert!(cull_frustum(&model, &forward_camera()).is_empty());
    }

    #[test]
    fn sparsity_decreases_with_scene_extent() {
        // Gaussians concentrated in front of the camera => high rho;
        // Gaussians spread over a huge volume => low rho.
        let cam = forward_camera();
        let make_scene = |extent: f32| -> GaussianModel {
            let mut model = GaussianModel::new();
            let n = 20;
            for i in 0..n {
                for j in 0..n {
                    let x = (i as f32 / n as f32 - 0.5) * extent;
                    let y = (j as f32 / n as f32 - 0.5) * extent;
                    model.push(Gaussian::isotropic(
                        Vec3::new(x, y, 10.0),
                        0.05,
                        [0.5; 3],
                        0.9,
                    ));
                }
            }
            model
        };
        let dense = sparsity(&make_scene(5.0), &cam);
        let sparse = sparsity(&make_scene(500.0), &cam);
        assert!(
            dense > 0.9,
            "dense scene should be almost fully visible, rho={dense}"
        );
        assert!(sparse < 0.05, "huge scene should be sparse, rho={sparse}");
    }

    #[test]
    fn cull_stats_consistency() {
        let mut model = GaussianModel::new();
        for i in 0..10 {
            model.push(Gaussian::isotropic(
                Vec3::new(0.0, 0.0, 5.0 + i as f32),
                0.1,
                [0.5; 3],
                0.9,
            ));
        }
        let cam = forward_camera();
        let stats = cull_stats(&model, &cam);
        assert_eq!(stats.total, 10);
        assert_eq!(stats.in_frustum, cull_frustum(&model, &cam).len());
        assert!((stats.sparsity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cull_batch_matches_per_view_culling() {
        let mut model = GaussianModel::new();
        for i in 0..50 {
            let angle = i as f32 * 0.3;
            model.push(Gaussian::isotropic(
                Vec3::new(10.0 * angle.cos(), 0.0, 10.0 * angle.sin()),
                0.2,
                [0.5; 3],
                0.9,
            ));
        }
        let cams: Vec<Camera> = (0..4)
            .map(|i| {
                let angle = i as f32 * std::f32::consts::FRAC_PI_2;
                Camera::look_at(
                    Vec3::ZERO,
                    Vec3::new(angle.cos(), 0.0, angle.sin()),
                    Vec3::Y,
                    CameraIntrinsics::simple(32, 32, 1.0),
                )
            })
            .collect();
        let batch = cull_batch(&model, &cams);
        assert_eq!(batch.len(), 4);
        for (cam, set) in cams.iter().zip(&batch) {
            assert_eq!(set, &cull_frustum(&model, cam));
        }
        // Different viewing directions see different subsets.
        assert_ne!(batch[0], batch[2]);
    }

    proptest::proptest! {
        /// The fused pass must select exactly what B separate culls select —
        /// for any batch size, any mix of scales and camera poses, and the
        /// empty model.
        #[test]
        fn prop_cull_batch_equals_per_view_cull(
            rows in proptest::collection::vec(
                (
                    (-30.0f32..30.0, -30.0f32..30.0, -30.0f32..30.0),
                    (-5.0f32..1.5, -5.0f32..1.5, -5.0f32..1.5),
                ),
                0..120,
            ),
            views in proptest::collection::vec(
                (
                    (-20.0f32..20.0, -5.0f32..5.0, -20.0f32..20.0),
                    (0.0f32..std::f32::consts::TAU, -0.3f32..0.3, 0.4f32..2.2),
                    (0.05f32..1.0, 5.0f32..80.0, 16u32..96),
                ),
                7..8,
            ),
        ) {
            let mut model = GaussianModel::new();
            for ((x, y, z), (sx, sy, sz)) in rows {
                let mut g = Gaussian::isotropic(Vec3::new(x, y, z), 0.1, [0.5; 3], 0.9);
                g.log_scale = Vec3::new(sx, sy, sz);
                model.push(g);
            }
            let cams: Vec<Camera> = views
                .into_iter()
                .map(|((ex, ey, ez), (yaw, pitch, fov), (near, far, size))| {
                    let eye = Vec3::new(ex, ey, ez);
                    Camera::look_at(
                        eye,
                        eye + Vec3::new(yaw.cos(), pitch, yaw.sin()),
                        Vec3::Y,
                        CameraIntrinsics::simple(size, size / 2 + 8, fov),
                    )
                    .with_clip(near, far)
                })
                .collect();
            for batch in [1usize, 2, 4, 7] {
                let fused = cull_batch(&model, &cams[..batch]);
                proptest::prop_assert_eq!(fused.len(), batch);
                for (cam, set) in cams.iter().zip(&fused) {
                    proptest::prop_assert_eq!(set, &cull_frustum(&model, cam));
                }
            }
        }
    }

    #[test]
    fn empty_model_has_zero_sparsity() {
        let model = GaussianModel::new();
        let cam = forward_camera();
        assert_eq!(sparsity(&model, &cam), 0.0);
        assert!(cull_frustum(&model, &cam).is_empty());
        assert_eq!(
            cull_batch(&model, &[cam.clone(), cam]),
            vec![VisibilitySet::new(); 2]
        );
    }
}
