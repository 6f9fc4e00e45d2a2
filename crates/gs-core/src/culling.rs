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
use crate::LANE_WIDTH;

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

/// Computes the set of in-frustum Gaussians for `camera`: [`cull_batch`] of
/// the one view.
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
    let mut views = cull_rows(model, std::slice::from_ref(camera));
    VisibilitySet::from_sorted(views.pop().expect("one view in, one index list out"))
}

/// Radius of the bounding sphere the culling test puts around a Gaussian
/// with the given log-scale.
#[inline]
fn cull_radius(log_scale: Vec3) -> f32 {
    (CULL_SIGMA + CULL_SIGMA_SLACK) * log_scale.map(f32::exp).max_component()
}

/// Sparsity ρ_i = |S_i| / N for one view, the quantity plotted in Figure 5.
pub fn sparsity(model: &GaussianModel, camera: &Camera) -> f64 {
    cull_frustum(model, camera).sparsity(model.len())
}

/// Computes visibility sets for a whole batch of views in **one pass** over
/// the model.  `cull_batch(model, cameras)[k]` holds exactly the rows whose
/// bounding sphere intersects view `k`'s widened frustum by
/// [`Frustum::intersects_sphere`].
pub fn cull_batch(model: &GaussianModel, cameras: &[Camera]) -> Vec<VisibilitySet> {
    cull_rows(model, cameras)
        .into_iter()
        .map(VisibilitySet::from_sorted)
        .collect()
}

/// An upper bound on [`cull_radius`] of every row whose log-scales are at
/// most `max_log_scale`, with no `exp`: with `t = L·log₂e = k + f`
/// (`k = ⌊t⌋`), `2^k·(1 + f) ≥ 2^t = e^L` because `2^f` is convex, and the
/// factor 1.01 covers the rounding of `t`, of `f` and of `expf` itself
/// (any `expf` within 1 % of `e^x`).  `+inf` once `e^L` may overflow, and
/// `2^-126·…` below that range, still above `e^L`.  `f32::max` skipped a NaN
/// log-scale as [`cull_radius`] skips its NaN `exp`.
#[inline]
fn cull_radius_bound(max_log_scale: f32) -> f32 {
    let t = max_log_scale * std::f32::consts::LOG2_E;
    if t.is_nan() || t >= 127.0 {
        return f32::INFINITY;
    }
    let t = t.max(-126.0);
    let k = t as i32 - i32::from(t < (t as i32) as f32);
    let f = t - k as f32;
    f32::from_bits(((k + 127) as u32) << 23) * (1.0 + f) * ((CULL_SIGMA + CULL_SIGMA_SLACK) * 1.01)
}

/// The one culling kernel, over [`LANE_WIDTH`]-row blocks.  It decides
/// [`Frustum::intersects_sphere`]'s verdict — every plane's
/// [`Plane::signed_distance`] `>= -radius` — without its short-circuit, and
/// evaluates a row's radius (three `exp`) only where nothing cheaper
/// decides:
///
/// * every frustum computes, branch-free over the block, each row's six
///   distances (the scalar test's expression, in its order), their minimum
///   and whether one is NaN;
/// * a NaN distance fails the scalar test whatever the radius;
/// * if every distance is `>= 0`, the test holds for any radius `>= 0`, and
///   the radius is either that or NaN — NaN exactly when all three
///   log-scales are (`max` skips a NaN `exp` otherwise);
/// * otherwise the test holds iff the smallest distance is `>= -radius`:
///   false where the block's [`cull_radius_bound`] is already below the
///   negated minimum, and else decided by the row's radius, evaluated once
///   for whichever frustum needs it first.
///
/// So each verdict is the scalar test's bit for bit (NaN and infinite
/// positions and log-scales included), and only rows near some frustum's
/// boundary pay for an `exp`.  The lanes past a short last block are never
/// reported.
///
/// [`Plane::signed_distance`]: crate::camera::Plane::signed_distance
fn cull_rows(model: &GaussianModel, cameras: &[Camera]) -> Vec<Vec<u32>> {
    let frusta: Vec<Frustum> = cameras
        .iter()
        .map(|cam| cam.frustum_with_margin(CULL_FOV_MARGIN))
        .collect();
    let mut indices: Vec<Vec<u32>> = vec![Vec::new(); cameras.len()];
    let blocks = (model.positions().chunks(LANE_WIDTH)).zip(model.log_scales().chunks(LANE_WIDTH));
    for (block, (positions, scales)) in blocks.enumerate() {
        let mut x = [0.0f32; LANE_WIDTH];
        let mut y = [0.0f32; LANE_WIDTH];
        let mut z = [0.0f32; LANE_WIDTH];
        let mut nan_radius = [false; LANE_WIDTH];
        let mut max_log_scale = f32::NEG_INFINITY;
        for (r, (p, s)) in positions.iter().zip(scales).enumerate() {
            (x[r], y[r], z[r]) = (p.x, p.y, p.z);
            nan_radius[r] = s.x.is_nan() && s.y.is_nan() && s.z.is_nan();
            max_log_scale = max_log_scale.max(s.max_component());
        }
        let neg_bound = -cull_radius_bound(max_log_scale);
        let rows = (1u32 << positions.len()) - 1;
        // Exact negated radii, evaluated the first time a frustum needs one.
        let mut neg_radius: [Option<f32>; LANE_WIDTH] = [None; LANE_WIDTH];
        let base = (block * LANE_WIDTH) as u32;
        for (frustum, visible) in frusta.iter().zip(&mut indices) {
            let mut min_dist = [f32::INFINITY; LANE_WIDTH];
            let mut nan = [false; LANE_WIDTH];
            for plane in frustum.planes() {
                let (n, d) = (plane.normal, plane.d);
                for r in 0..LANE_WIDTH {
                    let dist = n.x * x[r] + n.y * y[r] + n.z * z[r] + d;
                    nan[r] |= dist.is_nan();
                    // Any minimum will do once NaN is flagged apart.
                    min_dist[r] = if dist < min_dist[r] {
                        dist
                    } else {
                        min_dist[r]
                    };
                }
            }
            // Bit `r` of each mask is row `r`'s verdict, or its need of one.
            let (mut inside, mut undecided) = (0u32, 0u32);
            for r in 0..LANE_WIDTH {
                let outside = min_dist[r] < 0.0;
                inside |= u32::from(!nan[r] & !outside & !nan_radius[r]) << r;
                undecided |= u32::from(!nan[r] & outside & (min_dist[r] >= neg_bound)) << r;
            }
            let mut undecided = undecided & rows;
            while undecided != 0 {
                let r = undecided.trailing_zeros() as usize;
                undecided &= undecided - 1;
                let neg_radius = *neg_radius[r].get_or_insert_with(|| -cull_radius(scales[r]));
                inside |= u32::from(min_dist[r] >= neg_radius) << r;
            }
            let mut inside = inside & rows;
            while inside != 0 {
                visible.push(base + inside.trailing_zeros());
                inside &= inside - 1;
            }
        }
    }
    indices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::CameraIntrinsics;
    use crate::gaussian::Gaussian;

    /// The scalar oracle the lane-blocked kernel must reproduce: one row at
    /// a time, [`Frustum::intersects_sphere`] with its short-circuit.
    fn scalar_cull(model: &GaussianModel, camera: &Camera) -> VisibilitySet {
        let frustum = camera.frustum_with_margin(CULL_FOV_MARGIN);
        let (positions, scales) = (model.positions(), model.log_scales());
        (0..model.len() as u32)
            .filter(|&i| {
                let i = i as usize;
                frustum.intersects_sphere(positions[i], cull_radius(scales[i]))
            })
            .collect()
    }

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
    fn cull_batch_matches_the_scalar_oracle_per_view() {
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
            assert_eq!(set, &scalar_cull(&model, cam));
            assert_eq!(set, &cull_frustum(&model, cam));
        }
        // Different viewing directions see different subsets.
        assert_ne!(batch[0], batch[2]);
    }

    #[test]
    fn blocked_cull_matches_the_oracle_on_non_finite_rows_and_short_blocks() {
        // Rows with NaN or infinite coordinates and log-scales, in models
        // whose length is every residue mod 8: a NaN distance or radius
        // fails the test in both kernels, and the padded lanes of a short
        // last block are never reported.
        let nan = f32::NAN;
        let rows = [
            (Vec3::new(0.0, 0.0, 10.0), Vec3::new(-2.0, -2.0, -2.0)),
            (Vec3::new(nan, 0.0, 10.0), Vec3::new(-2.0, -2.0, -2.0)),
            (Vec3::new(0.0, 0.0, 10.0), Vec3::new(nan, nan, nan)),
            (Vec3::new(0.0, 0.0, 10.0), Vec3::new(nan, -2.0, nan)),
            (
                Vec3::new(40.0, 0.0, 10.0),
                Vec3::new(f32::INFINITY, -2.0, -2.0),
            ),
            (
                Vec3::new(0.0, 0.0, -500.0),
                Vec3::new(-2.0, f32::INFINITY, -2.0),
            ),
            (
                Vec3::new(f32::INFINITY, 0.0, 10.0),
                Vec3::new(-2.0, -2.0, -2.0),
            ),
            (
                Vec3::new(f32::INFINITY, 0.0, 10.0),
                Vec3::new(f32::INFINITY, 0.0, 0.0),
            ),
            (
                Vec3::new(7.0, 0.0, 10.0),
                Vec3::new(0.0, f32::NEG_INFINITY, 0.0),
            ),
            (
                Vec3::new(0.0, 0.0, 10.0),
                Vec3::new(f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY),
            ),
            (Vec3::new(0.0, 0.0, 200.0), Vec3::new(-2.0, -2.0, -2.0)),
        ];
        let cams = [
            forward_camera(),
            Camera::look_at(
                Vec3::new(3.0, 1.0, 0.0),
                Vec3::new(4.0, 1.0, 9.0),
                Vec3::Y,
                CameraIntrinsics::simple(40, 24, 1.2),
            ),
        ];
        let mut model = GaussianModel::new();
        for len in 0..=27 {
            let fused = cull_batch(&model, &cams);
            for (cam, set) in cams.iter().zip(&fused) {
                assert_eq!(set, &scalar_cull(&model, cam), "model length {len}");
                assert!(set.iter().all(|i| (i as usize) < model.len()));
            }
            let (position, log_scale) = rows[len % rows.len()];
            let mut g = Gaussian::isotropic(position, 0.1, [0.5; 3], 0.9);
            g.log_scale = log_scale;
            model.push(g);
        }
        // Row by row, in the forward view: kept, NaN position, all-NaN
        // log-scale, NaN beside a finite log-scale (`max` skips it), infinite
        // radius off to the side, and behind the camera, infinite position,
        // with infinite radius, a zero and an all-zero scale, beyond far.
        let first = cull_batch(&model, &cams[..1]).remove(0);
        assert_eq!(&first.indices()[..6], &[0, 3, 4, 5, 8, 9]);
    }

    #[test]
    fn the_radius_bound_is_never_below_the_radius() {
        // Across and past the whole range `exp` covers, with the other two
        // log-scales equal, smaller or NaN: the bound never undercuts the
        // radius the scalar test uses, and stays within 10 % of it wherever
        // both are finite, normal and not clamped.
        let mut maxima: Vec<f32> = (-24_000..24_000).map(|k| k as f32 * 0.0097).collect();
        maxima.extend([
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            88.72,
            88.73,
            -87.33,
            -103.3,
            -0.0,
            1.0e-30,
        ]);
        for l in maxima {
            for other in [l, l - 3.0, f32::NAN] {
                let log_scale = Vec3::new(other, l, other);
                let radius = cull_radius(log_scale);
                let bound = cull_radius_bound(log_scale.max_component());
                assert!(
                    radius.is_nan() || bound >= radius,
                    "{l}: {bound} < {radius}"
                );
                if radius > 1.0e-30 && bound.is_finite() {
                    assert!(bound <= radius * 1.1, "{l}: bound {bound}, radius {radius}");
                }
            }
        }
    }

    #[test]
    fn blocked_cull_matches_the_oracle_at_the_plane_boundaries() {
        // Rows whose bounding sphere touches a frustum plane to the ulp:
        // stepping one coordinate an ulp at a time across the point where
        // the scalar verdict flips, every verdict must still match — which a
        // reassociated distance would not.
        // A pose with no axis-aligned plane, so every distance sums three
        // non-zero products.
        let cam = Camera::look_at(
            Vec3::new(0.7, -0.4, 0.2),
            Vec3::new(3.1, 1.9, 8.3),
            Vec3::new(0.2, 1.0, 0.1),
            CameraIntrinsics::simple(64, 48, 1.1),
        )
        .with_clip(0.1, 100.0);
        let frustum = cam.frustum_with_margin(CULL_FOV_MARGIN);
        let log_scale = Vec3::new(-1.0, -1.5, -2.0);
        let radius = cull_radius(log_scale);
        let step = |x: f32, ulps: i32| f32::from_bits((x.to_bits() as i32 + ulps) as u32);
        let mut model = GaussianModel::new();
        for plane in frustum.planes() {
            for base in [
                Vec3::new(3.3, 2.2, 9.0),
                Vec3::new(1.2, 0.4, 4.0),
                Vec3::new(17.0, 12.5, 50.0),
            ] {
                let touching = base - plane.normal * (plane.signed_distance(base) + radius);
                for axis in 0..3 {
                    for ulps in -24..24 {
                        let mut p = [touching.x, touching.y, touching.z];
                        p[axis] = step(p[axis], ulps);
                        let mut g =
                            Gaussian::isotropic(Vec3::new(p[0], p[1], p[2]), 0.1, [0.5; 3], 0.9);
                        g.log_scale = log_scale;
                        model.push(g);
                    }
                }
            }
        }
        let oracle = scalar_cull(&model, &cam);
        assert!(oracle.len() > model.len() / 10 && oracle.len() < model.len() * 9 / 10);
        assert_eq!(cull_batch(&model, &[cam]).remove(0), oracle);
    }

    proptest::proptest! {
        /// The blocked batch pass must select exactly what the scalar oracle
        /// selects per view — for any batch size, any mix of scales and
        /// camera poses, and the empty model.
        #[test]
        fn prop_cull_batch_equals_the_scalar_oracle(
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
                    proptest::prop_assert_eq!(set, &scalar_cull(&model, cam));
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
