//! Projection of 3D Gaussians into screen space (EWA splatting) and the
//! corresponding analytic backward pass.
//!
//! The forward path follows the reference 3DGS / gsplat formulation:
//!
//! 1. transform the centre to camera space, `p_cam = W·p + t`;
//! 2. project to pixel coordinates through the pinhole intrinsics;
//! 3. build the 3D covariance `Σ = R S Sᵀ Rᵀ` from log-scales and the
//!    rotation quaternion;
//! 4. project it with the local affine (Jacobian) approximation,
//!    `Σ' = J W Σ Wᵀ Jᵀ`, add a small low-pass term, and invert to obtain
//!    the *conic*;
//! 5. evaluate the opacity from its logit.
//!
//! Projection is geometry only: the view-dependent colour is evaluated from
//! the SH coefficients later, by [`crate::rasterize::shade`], and only for
//! the splats some pixel's compositing walk reaches — the SH rows are what
//! CLM offloads, so nothing before the shade reads them.
//!
//! The backward path maps gradients with respect to the 2D mean, conic,
//! colour and opacity back onto all 59 learnable parameters.

use gs_core::camera::Camera;
use gs_core::gaussian::{covariance, Gaussian, GaussianModel, SH_FLOATS};
use gs_core::math::{sigmoid, Mat3, Quat, Sym2, Vec2, Vec3};
use gs_core::sh::{eval_sh_color, eval_sh_color_backward};

/// Low-pass filter added to the diagonal of the projected 2D covariance so
/// every splat covers at least ~1 pixel (same constant as the reference
/// implementation).
pub const COV2D_LOW_PASS: f32 = 0.3;

/// Opacity values below this threshold are treated as fully transparent.
pub const MIN_ALPHA: f32 = 1.0 / 255.0;

/// Maximum alpha a single splat may contribute (matches the reference).
pub const MAX_ALPHA: f32 = 0.99;

/// SH degree used for colour evaluation.
pub const SH_DEGREE: usize = 3;

/// A Gaussian after projection into a specific camera, ready to rasterise.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectedGaussian {
    /// Index of the source Gaussian in the model (global index).
    pub index: u32,
    /// Pixel-space centre.
    pub mean2d: Vec2,
    /// Camera-space depth (used for sorting).
    pub depth: f32,
    /// Inverse of the 2D covariance (the "conic").
    pub conic: Sym2,
    /// Screen-space radius in pixels (3σ of the largest eigenvalue).
    pub radius: f32,
    /// Effective opacity in `[0, 1]`.
    pub opacity: f32,
}

/// Factor by which the camera-space point used for the projection Jacobian
/// may exceed the field of view before being clamped.  Without this clamp a
/// Gaussian far outside the frustum but close to the image plane gets an
/// exploding screen-space covariance that smears it across the whole image
/// (the reference CUDA implementation applies the same 1.3× limit).
pub const JACOBIAN_FOV_CLAMP: f32 = 1.3;

/// Intermediate values saved by the projection that the backward pass
/// needs to avoid recomputation.
#[derive(Debug, Clone)]
pub struct ProjectionContext {
    p_cam: Vec3,
    /// Camera-space point after the field-of-view clamp, used for the
    /// Jacobian (equals `p_cam` for in-frustum Gaussians).
    p_jacobian: Vec3,
    /// Whether the x / y components were clamped (their positional gradient
    /// through the Jacobian is zero in that case).
    clamped: (bool, bool),
    view_dir: Vec3,
    cov2d: Sym2,
    rot_world_to_cam: Mat3,
}

impl ProjectionContext {
    /// The splat's view-dependent colour: its SH coefficients `sh` evaluated
    /// along the view direction the projection saved.
    pub fn color(&self, sh: &[f32]) -> [f32; 3] {
        eval_sh_color(SH_DEGREE, sh, self.view_dir)
    }
}

/// Gradients of the loss with respect to one projected (screen-space)
/// Gaussian, as produced by the rasteriser backward pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScreenGradients {
    /// d loss / d mean2d.
    pub d_mean2d: Vec2,
    /// d loss / d conic (a, b, c parametrisation).
    pub d_conic: Sym2,
    /// d loss / d colour.
    pub d_color: [f32; 3],
    /// d loss / d effective opacity.
    pub d_opacity: f32,
}

impl ScreenGradients {
    /// Returns true when every component is exactly zero.
    pub fn is_zero(&self) -> bool {
        *self == ScreenGradients::default()
    }

    /// Component-wise accumulation of another gradient (used to merge the
    /// rasteriser's per-band accumulators in fixed band order).
    pub fn accumulate(&mut self, other: &ScreenGradients) {
        self.d_mean2d.x += other.d_mean2d.x;
        self.d_mean2d.y += other.d_mean2d.y;
        self.d_conic = Sym2::new(
            self.d_conic.a + other.d_conic.a,
            self.d_conic.b + other.d_conic.b,
            self.d_conic.c + other.d_conic.c,
        );
        for c in 0..3 {
            self.d_color[c] += other.d_color[c];
        }
        self.d_opacity += other.d_opacity;
    }
}

/// Gradients of the loss with respect to one Gaussian's 59 parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianGradients {
    /// d loss / d position.
    pub d_position: Vec3,
    /// d loss / d log-scale.
    pub d_log_scale: Vec3,
    /// d loss / d rotation quaternion (w, x, y, z), already projected onto
    /// the tangent space of the normalisation.
    pub d_rotation: [f32; 4],
    /// d loss / d SH coefficients (48 floats).
    pub d_sh: [f32; SH_FLOATS],
    /// d loss / d opacity logit.
    pub d_opacity_logit: f32,
}

impl Default for GaussianGradients {
    fn default() -> Self {
        GaussianGradients {
            d_position: Vec3::ZERO,
            d_log_scale: Vec3::ZERO,
            d_rotation: [0.0; 4],
            d_sh: [0.0; SH_FLOATS],
            d_opacity_logit: 0.0,
        }
    }
}

impl GaussianGradients {
    /// Adds another gradient into this one.
    pub fn accumulate(&mut self, other: &GaussianGradients) {
        self.d_position += other.d_position;
        self.d_log_scale += other.d_log_scale;
        for k in 0..4 {
            self.d_rotation[k] += other.d_rotation[k];
        }
        for k in 0..SH_FLOATS {
            self.d_sh[k] += other.d_sh[k];
        }
        self.d_opacity_logit += other.d_opacity_logit;
    }
}

/// Everything the projection derives from the camera alone, evaluated once
/// per view instead of once per splat: the Jacobian field-of-view limits
/// (two `atan` + two `tan`), the world-to-camera rotation with its
/// transpose, and the camera centre.  Hoisting them is exact: each is a
/// function of the camera only, so every splat of the view sees the same
/// bits it would compute for itself.
#[derive(Debug, Clone)]
pub struct ProjectionSetup<'a> {
    camera: &'a Camera,
    lim_x: f32,
    lim_y: f32,
    w: Mat3,
    wt: Mat3,
    center: Vec3,
}

impl<'a> ProjectionSetup<'a> {
    /// Builds the per-view set-up for `camera`.
    pub fn new(camera: &'a Camera) -> Self {
        let w = camera.extrinsics.rotation;
        ProjectionSetup {
            camera,
            // Clamp limits for the point used by the Jacobian: slightly
            // beyond the field of view, as the reference implementation
            // does (it, too, takes tan(fov/2) once per view).
            lim_x: JACOBIAN_FOV_CLAMP * (camera.intrinsics.fov_x() * 0.5).tan(),
            lim_y: JACOBIAN_FOV_CLAMP * (camera.intrinsics.fov_y() * 0.5).tan(),
            w,
            wt: w.transpose(),
            center: camera.center(),
        }
    }

    /// Projects Gaussian `index` of `model` into the view, reading its
    /// attributes in place (no 59-float [`Gaussian`] copy).
    ///
    /// Returns `None` when the Gaussian is behind the near plane, projects
    /// to a degenerate covariance, or is effectively transparent — such
    /// splats contribute nothing to the image.
    ///
    /// # Panics
    /// Panics if `index` is outside the model.
    pub fn project(
        &self,
        model: &GaussianModel,
        index: u32,
    ) -> Option<(ProjectedGaussian, ProjectionContext)> {
        let i = index as usize;
        self.project_attributes(
            index,
            model.positions()[i],
            model.log_scales()[i],
            model.rotations()[i],
            model.opacity_logits()[i],
        )
    }

    /// The one projection implementation, over borrowed attributes.
    fn project_attributes(
        &self,
        index: u32,
        position: Vec3,
        log_scale: Vec3,
        rotation: Quat,
        opacity_logit: f32,
    ) -> Option<(ProjectedGaussian, ProjectionContext)> {
        let camera = self.camera;
        let p_cam = camera.world_to_camera(position);
        if p_cam.z < camera.near || p_cam.z > camera.far {
            return None;
        }
        let (mx, my) = camera.project_camera_space(p_cam)?;

        let opacity = sigmoid(opacity_logit);
        if opacity < MIN_ALPHA {
            return None;
        }

        let cov3d = covariance(log_scale, rotation);
        let v = self.w * cov3d * self.wt;

        let (fx, fy) = (camera.intrinsics.fx, camera.intrinsics.fy);
        let z = p_cam.z;
        // Clamp the point used for the Jacobian so that off-frustum
        // Gaussians close to the image plane do not produce a degenerate
        // screen-space covariance.
        let (lim_x, lim_y) = (self.lim_x, self.lim_y);
        let ratio_x = p_cam.x / z;
        let ratio_y = p_cam.y / z;
        let clamped = (ratio_x.abs() > lim_x, ratio_y.abs() > lim_y);
        let x = ratio_x.clamp(-lim_x, lim_x) * z;
        let y = ratio_y.clamp(-lim_y, lim_y) * z;
        let p_jacobian = Vec3::new(x, y, z);
        // Jacobian of the perspective projection at the (clamped) point (2x3).
        let j = [
            [fx / z, 0.0, -fx * x / (z * z)],
            [0.0, fy / z, -fy * y / (z * z)],
        ];
        let cov2d = project_cov(&j, &v);
        let cov2d = Sym2::new(cov2d.a + COV2D_LOW_PASS, cov2d.b, cov2d.c + COV2D_LOW_PASS);
        let conic = cov2d.inverse()?;
        let radius = 3.0 * cov2d.max_eigenvalue().max(0.0).sqrt();
        if radius <= 0.0 {
            return None;
        }

        Some((
            ProjectedGaussian {
                index,
                mean2d: Vec2::new(mx, my),
                depth: z,
                conic,
                radius,
                opacity,
            },
            ProjectionContext {
                p_cam,
                p_jacobian,
                clamped,
                view_dir: position - self.center,
                cov2d,
                rot_world_to_cam: self.w,
            },
        ))
    }
}

/// Projects Gaussian `g` (with global index `index`) into `camera`: the
/// single-splat entry point to [`ProjectionSetup`]'s projection, for
/// callers that hold a [`Gaussian`] rather than a model row.
///
/// Returns `None` when the Gaussian is behind the near plane, projects to a
/// degenerate covariance, or is effectively transparent — such splats
/// contribute nothing to the image.
pub fn project_gaussian(
    g: &Gaussian,
    index: u32,
    camera: &Camera,
) -> Option<(ProjectedGaussian, ProjectionContext)> {
    ProjectionSetup::new(camera).project_attributes(
        index,
        g.position,
        g.log_scale,
        g.rotation,
        g.opacity_logit,
    )
}

/// Backward pass of [`project_gaussian`]: maps screen-space gradients back
/// to the Gaussian's 59 parameters.
pub fn project_gaussian_backward(
    g: &Gaussian,
    camera: &Camera,
    ctx: &ProjectionContext,
    screen: &ScreenGradients,
) -> GaussianGradients {
    let mut out = GaussianGradients::default();
    let (fx, fy) = (camera.intrinsics.fx, camera.intrinsics.fy);
    // The Jacobian (and therefore the covariance chain) uses the clamped
    // camera-space point; the mean2d chain uses the true point.
    let (x, y, z) = (ctx.p_jacobian.x, ctx.p_jacobian.y, ctx.p_jacobian.z);
    let w = ctx.rot_world_to_cam;

    // --- opacity -----------------------------------------------------------
    let o = sigmoid(g.opacity_logit);
    out.d_opacity_logit = screen.d_opacity * o * (1.0 - o);

    // --- colour → SH -------------------------------------------------------
    eval_sh_color_backward(
        SH_DEGREE,
        &g.sh,
        ctx.view_dir,
        screen.d_color,
        &mut out.d_sh,
    );

    // --- mean2d → camera-space position ------------------------------------
    let mut d_p_cam = Vec3::new(
        screen.d_mean2d.x * fx / z,
        screen.d_mean2d.y * fy / z,
        -screen.d_mean2d.x * fx * ctx.p_cam.x / (z * z)
            - screen.d_mean2d.y * fy * ctx.p_cam.y / (z * z),
    );

    // --- conic → 2D covariance ---------------------------------------------
    // conic = cov2d^{-1}; with G = dL/dconic as a full symmetric matrix,
    // dL/dcov2d = -conic * G * conic.
    let conic = ctx.cov2d.inverse().unwrap_or(Sym2::new(0.0, 0.0, 0.0));
    let g_full = [
        [screen.d_conic.a, screen.d_conic.b * 0.5],
        [screen.d_conic.b * 0.5, screen.d_conic.c],
    ];
    let conic_full = [[conic.a, conic.b], [conic.b, conic.c]];
    let tmp = mat2_mul(&conic_full, &g_full);
    let d_cov2d_full = mat2_scale(&mat2_mul(&tmp, &conic_full), -1.0);

    // --- 2D covariance → camera-space 3D covariance and Jacobian -----------
    let j = [
        [fx / z, 0.0, -fx * x / (z * z)],
        [0.0, fy / z, -fy * y / (z * z)],
    ];
    let cov3d = g.covariance();
    let v = w * cov3d * w.transpose();

    // dL/dV = J^T dΣ' J       (3x3, symmetric)
    let mut d_v = Mat3::zero();
    for a in 0..3 {
        for b in 0..3 {
            let mut acc = 0.0;
            for r in 0..2 {
                for c in 0..2 {
                    acc += j[r][a] * d_cov2d_full[r][c] * j[c][b];
                }
            }
            d_v.m[a][b] = acc;
        }
    }

    // dL/dJ = 2 dΣ' J V       (2x3)
    let mut d_j = [[0.0f32; 3]; 2];
    for r in 0..2 {
        for a in 0..3 {
            let mut acc = 0.0;
            for c in 0..2 {
                for b in 0..3 {
                    acc += 2.0 * d_cov2d_full[r][c] * j[c][b] * v.m[b][a];
                }
            }
            d_j[r][a] = acc;
        }
    }

    // dL/dJ → dL/dp_cam (J depends on x, y, z).  When the Jacobian point was
    // clamped the corresponding positional derivative is zero.
    let z2 = z * z;
    let z3 = z2 * z;
    if !ctx.clamped.0 {
        d_p_cam.x += d_j[0][2] * (-fx / z2);
    }
    if !ctx.clamped.1 {
        d_p_cam.y += d_j[1][2] * (-fy / z2);
    }
    d_p_cam.z += d_j[0][0] * (-fx / z2)
        + d_j[1][1] * (-fy / z2)
        + d_j[0][2] * (2.0 * fx * x / z3)
        + d_j[1][2] * (2.0 * fy * y / z3);

    // camera-space position → world-space position.
    out.d_position = w.transpose() * d_p_cam;

    // --- V → world-space 3D covariance --------------------------------------
    // V = W Σ Wᵀ  =>  dL/dΣ = Wᵀ dL/dV W.
    let d_cov3d = w.transpose() * d_v * w;

    // --- Σ = (RS)(RS)ᵀ → scale and rotation ---------------------------------
    let r = g.rotation.to_rotation_matrix();
    let scale = g.scale();
    let s = Mat3::from_diagonal(scale);
    let m = r * s;
    // dL/dM = (dΣ + dΣᵀ) M = 2 sym(dΣ) M; dΣ is already symmetric here.
    let d_sym = Mat3 {
        m: [
            [
                d_cov3d.m[0][0],
                0.5 * (d_cov3d.m[0][1] + d_cov3d.m[1][0]),
                0.5 * (d_cov3d.m[0][2] + d_cov3d.m[2][0]),
            ],
            [
                0.5 * (d_cov3d.m[0][1] + d_cov3d.m[1][0]),
                d_cov3d.m[1][1],
                0.5 * (d_cov3d.m[1][2] + d_cov3d.m[2][1]),
            ],
            [
                0.5 * (d_cov3d.m[0][2] + d_cov3d.m[2][0]),
                0.5 * (d_cov3d.m[1][2] + d_cov3d.m[2][1]),
                d_cov3d.m[2][2],
            ],
        ],
    };
    let d_m = (d_sym * m) * 2.0;

    // dL/dS (diagonal): dS = Rᵀ dM, take the diagonal; chain to log-scale.
    let rt_dm = r.transpose() * d_m;
    out.d_log_scale = Vec3::new(
        rt_dm.m[0][0] * scale.x,
        rt_dm.m[1][1] * scale.y,
        rt_dm.m[2][2] * scale.z,
    );

    // dL/dR = dM Sᵀ = dM S (S diagonal).
    let d_r = d_m * s;
    out.d_rotation = rotation_matrix_backward(g.rotation, &d_r);

    out
}

/// Derivative of the (normalised-quaternion → rotation matrix) map,
/// projected back through the normalisation onto the raw quaternion.
fn rotation_matrix_backward(q_raw: Quat, d_r: &Mat3) -> [f32; 4] {
    let n = q_raw.norm();
    let q = q_raw.normalized();
    let (w, x, y, z) = (q.w, q.x, q.y, q.z);

    // dR/dq for the unit quaternion.
    let dr_dw = Mat3 {
        m: [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]],
    } * 2.0;
    let dr_dx = Mat3 {
        m: [[0.0, y, z], [y, -2.0 * x, -w], [z, w, -2.0 * x]],
    } * 2.0;
    let dr_dy = Mat3 {
        m: [[-2.0 * y, x, w], [x, 0.0, z], [-w, z, -2.0 * y]],
    } * 2.0;
    let dr_dz = Mat3 {
        m: [[-2.0 * z, -w, x], [w, -2.0 * z, y], [x, y, 0.0]],
    } * 2.0;

    let contract = |d: &Mat3| -> f32 {
        let mut acc = 0.0;
        for r in 0..3 {
            for c in 0..3 {
                acc += d_r.m[r][c] * d.m[r][c];
            }
        }
        acc
    };
    let d_unit = [
        contract(&dr_dw),
        contract(&dr_dx),
        contract(&dr_dy),
        contract(&dr_dz),
    ];

    // Backward through normalisation q_unit = q_raw / |q_raw|:
    // dL/dq_raw = (dL/dq_unit - q_unit * <dL/dq_unit, q_unit>) / |q_raw|.
    let q_arr = [w, x, y, z];
    let dot: f32 = d_unit.iter().zip(q_arr.iter()).map(|(a, b)| a * b).sum();
    let denom = if n > 1e-12 { n } else { 1.0 };
    let mut out = [0.0f32; 4];
    for k in 0..4 {
        out[k] = (d_unit[k] - q_arr[k] * dot) / denom;
    }
    out
}

fn project_cov(j: &[[f32; 3]; 2], v: &Mat3) -> Sym2 {
    // Σ' = J V Jᵀ
    let mut jv = [[0.0f32; 3]; 2];
    for r in 0..2 {
        for c in 0..3 {
            let mut acc = 0.0;
            for k in 0..3 {
                acc += j[r][k] * v.m[k][c];
            }
            jv[r][c] = acc;
        }
    }
    let mut out = [[0.0f32; 2]; 2];
    for r in 0..2 {
        for c in 0..2 {
            let mut acc = 0.0;
            for k in 0..3 {
                acc += jv[r][k] * j[c][k];
            }
            out[r][c] = acc;
        }
    }
    Sym2::new(out[0][0], 0.5 * (out[0][1] + out[1][0]), out[1][1])
}

fn mat2_mul(a: &[[f32; 2]; 2], b: &[[f32; 2]; 2]) -> [[f32; 2]; 2] {
    let mut out = [[0.0f32; 2]; 2];
    for r in 0..2 {
        for c in 0..2 {
            out[r][c] = a[r][0] * b[0][c] + a[r][1] * b[1][c];
        }
    }
    out
}

fn mat2_scale(a: &[[f32; 2]; 2], s: f32) -> [[f32; 2]; 2] {
    [[a[0][0] * s, a[0][1] * s], [a[1][0] * s, a[1][1] * s]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::camera::CameraIntrinsics;

    fn test_camera() -> Camera {
        Camera::look_at(
            Vec3::ZERO,
            Vec3::Z,
            Vec3::Y,
            CameraIntrinsics::simple(64, 64, 60.0_f32.to_radians()),
        )
        .with_clip(0.1, 100.0)
    }

    fn test_gaussian() -> Gaussian {
        let mut g = Gaussian::isotropic(Vec3::new(0.4, -0.3, 6.0), 0.3, [0.7, 0.4, 0.2], 0.8);
        g.log_scale = Vec3::new(-1.2, -0.9, -1.5);
        g.rotation = Quat::from_axis_angle(Vec3::new(0.3, 1.0, -0.2), 0.7);
        g
    }

    #[test]
    fn center_gaussian_projects_to_image_center() {
        let cam = test_camera();
        let g = Gaussian::isotropic(Vec3::new(0.0, 0.0, 10.0), 0.2, [0.5; 3], 0.9);
        let (p, _) = project_gaussian(&g, 0, &cam).expect("should project");
        assert!((p.mean2d.x - 32.0).abs() < 1e-3);
        assert!((p.mean2d.y - 32.0).abs() < 1e-3);
        assert!((p.depth - 10.0).abs() < 1e-4);
        assert!(p.radius > 0.0);
        assert!((p.opacity - 0.9).abs() < 1e-5);
    }

    #[test]
    fn gaussian_behind_camera_does_not_project() {
        let cam = test_camera();
        let g = Gaussian::isotropic(Vec3::new(0.0, 0.0, -5.0), 0.2, [0.5; 3], 0.9);
        assert!(project_gaussian(&g, 0, &cam).is_none());
    }

    #[test]
    fn transparent_gaussian_is_skipped() {
        let cam = test_camera();
        let g = Gaussian::isotropic(Vec3::new(0.0, 0.0, 5.0), 0.2, [0.5; 3], 0.001);
        assert!(project_gaussian(&g, 0, &cam).is_none());
    }

    #[test]
    fn closer_gaussian_has_larger_screen_radius() {
        let cam = test_camera();
        let near = Gaussian::isotropic(Vec3::new(0.0, 0.0, 2.0), 0.2, [0.5; 3], 0.9);
        let far = Gaussian::isotropic(Vec3::new(0.0, 0.0, 20.0), 0.2, [0.5; 3], 0.9);
        let (pn, _) = project_gaussian(&near, 0, &cam).unwrap();
        let (pf, _) = project_gaussian(&far, 1, &cam).unwrap();
        assert!(pn.radius > pf.radius);
    }

    /// Scalar objective used for finite-difference checks: a fixed linear
    /// functional of all projected outputs.
    fn objective(g: &Gaussian, cam: &Camera) -> f32 {
        let (p, ctx) = project_gaussian(g, 0, cam).expect("projects");
        let color = ctx.color(&g.sh);
        0.7 * p.mean2d.x - 0.4 * p.mean2d.y + 1.3 * p.conic.a + 0.8 * p.conic.b - 0.6 * p.conic.c
            + 2.0 * color[0]
            - 1.0 * color[1]
            + 0.5 * color[2]
            + 1.7 * p.opacity
    }

    fn analytic_gradients(g: &Gaussian, cam: &Camera) -> GaussianGradients {
        let (_, ctx) = project_gaussian(g, 0, cam).unwrap();
        let screen = ScreenGradients {
            d_mean2d: Vec2::new(0.7, -0.4),
            d_conic: Sym2::new(1.3, 0.8, -0.6),
            d_color: [2.0, -1.0, 0.5],
            d_opacity: 1.7,
        };
        project_gaussian_backward(g, cam, &ctx, &screen)
    }

    fn finite_diff(
        g: &Gaussian,
        cam: &Camera,
        mutate: impl Fn(&mut Gaussian, f32),
        eps: f32,
    ) -> f32 {
        let mut plus = g.clone();
        mutate(&mut plus, eps);
        let mut minus = g.clone();
        mutate(&mut minus, -eps);
        (objective(&plus, cam) - objective(&minus, cam)) / (2.0 * eps)
    }

    fn assert_grad_close(analytic: f32, fd: f32, label: &str) {
        let scale = 1.0_f32.max(analytic.abs()).max(fd.abs());
        assert!(
            (analytic - fd).abs() / scale < 0.05,
            "{label}: analytic {analytic} vs finite-diff {fd}"
        );
    }

    #[test]
    fn position_gradient_matches_finite_difference() {
        let g = test_gaussian();
        let cam = test_camera();
        let grads = analytic_gradients(&g, &cam);
        let eps = 1e-3;
        assert_grad_close(
            grads.d_position.x,
            finite_diff(&g, &cam, |g, e| g.position.x += e, eps),
            "d_position.x",
        );
        assert_grad_close(
            grads.d_position.y,
            finite_diff(&g, &cam, |g, e| g.position.y += e, eps),
            "d_position.y",
        );
        assert_grad_close(
            grads.d_position.z,
            finite_diff(&g, &cam, |g, e| g.position.z += e, eps),
            "d_position.z",
        );
    }

    #[test]
    fn scale_gradient_matches_finite_difference() {
        let g = test_gaussian();
        let cam = test_camera();
        let grads = analytic_gradients(&g, &cam);
        let eps = 1e-3;
        assert_grad_close(
            grads.d_log_scale.x,
            finite_diff(&g, &cam, |g, e| g.log_scale.x += e, eps),
            "d_log_scale.x",
        );
        assert_grad_close(
            grads.d_log_scale.y,
            finite_diff(&g, &cam, |g, e| g.log_scale.y += e, eps),
            "d_log_scale.y",
        );
        assert_grad_close(
            grads.d_log_scale.z,
            finite_diff(&g, &cam, |g, e| g.log_scale.z += e, eps),
            "d_log_scale.z",
        );
    }

    #[test]
    fn rotation_gradient_matches_finite_difference() {
        let g = test_gaussian();
        let cam = test_camera();
        let grads = analytic_gradients(&g, &cam);
        let eps = 1e-3;
        let mutators: [fn(&mut Gaussian, f32); 4] = [
            |g, e| g.rotation.w += e,
            |g, e| g.rotation.x += e,
            |g, e| g.rotation.y += e,
            |g, e| g.rotation.z += e,
        ];
        for (k, mutate) in mutators.iter().enumerate() {
            assert_grad_close(
                grads.d_rotation[k],
                finite_diff(&g, &cam, mutate, eps),
                &format!("d_rotation[{k}]"),
            );
        }
    }

    #[test]
    fn opacity_and_sh_gradients_match_finite_difference() {
        let g = test_gaussian();
        let cam = test_camera();
        let grads = analytic_gradients(&g, &cam);
        let eps = 1e-3;
        assert_grad_close(
            grads.d_opacity_logit,
            finite_diff(&g, &cam, |g, e| g.opacity_logit += e, eps),
            "d_opacity_logit",
        );
        for idx in [0usize, 7, 16, 30, 47] {
            assert_grad_close(
                grads.d_sh[idx],
                finite_diff(&g, &cam, |g, e| g.sh[idx] += e, eps),
                &format!("d_sh[{idx}]"),
            );
        }
    }

    /// The projection exactly as it stood before the per-view set-up was
    /// hoisted (every camera-only quantity re-evaluated per splat, the
    /// attributes read from a [`Gaussian`] copy) — frozen here as the
    /// bit-level oracle.  Do not "tidy" it: its whole value is that it does
    /// not share code with the implementation.  (Its SH colour went with the
    /// projection's when colour moved to the shade; the `view_dir` it was
    /// evaluated along is still compared.)
    fn reference_project_gaussian(
        g: &Gaussian,
        index: u32,
        camera: &Camera,
    ) -> Option<(ProjectedGaussian, ProjectionContext)> {
        let p_cam = camera.world_to_camera(g.position);
        if p_cam.z < camera.near || p_cam.z > camera.far {
            return None;
        }
        let (mx, my) = camera.project_camera_space(p_cam)?;

        let opacity = sigmoid(g.opacity_logit);
        if opacity < MIN_ALPHA {
            return None;
        }

        let w = camera.extrinsics.rotation;
        let cov3d = g.covariance();
        let v = w * cov3d * w.transpose();

        let (fx, fy) = (camera.intrinsics.fx, camera.intrinsics.fy);
        let z = p_cam.z;
        // Clamp the point used for the Jacobian to slightly beyond the field of
        // view, as the reference implementation does, so that off-frustum
        // Gaussians close to the image plane do not produce a degenerate
        // screen-space covariance.
        let lim_x = JACOBIAN_FOV_CLAMP * (camera.intrinsics.fov_x() * 0.5).tan();
        let lim_y = JACOBIAN_FOV_CLAMP * (camera.intrinsics.fov_y() * 0.5).tan();
        let ratio_x = p_cam.x / z;
        let ratio_y = p_cam.y / z;
        let clamped = (ratio_x.abs() > lim_x, ratio_y.abs() > lim_y);
        let x = ratio_x.clamp(-lim_x, lim_x) * z;
        let y = ratio_y.clamp(-lim_y, lim_y) * z;
        let p_jacobian = Vec3::new(x, y, z);
        // Jacobian of the perspective projection at the (clamped) point (2x3).
        let j = [
            [fx / z, 0.0, -fx * x / (z * z)],
            [0.0, fy / z, -fy * y / (z * z)],
        ];
        let cov2d = project_cov(&j, &v);
        let cov2d = Sym2::new(cov2d.a + COV2D_LOW_PASS, cov2d.b, cov2d.c + COV2D_LOW_PASS);
        let conic = cov2d.inverse()?;
        let radius = 3.0 * cov2d.max_eigenvalue().max(0.0).sqrt();
        if radius <= 0.0 {
            return None;
        }

        let view_dir = g.position - camera.center();

        Some((
            ProjectedGaussian {
                index,
                mean2d: Vec2::new(mx, my),
                depth: z,
                conic,
                radius,
                opacity,
            },
            ProjectionContext {
                p_cam,
                p_jacobian,
                clamped,
                view_dir,
                cov2d,
                rot_world_to_cam: w,
            },
        ))
    }

    /// Every output of a projection as raw bits, so two results can be
    /// compared exactly (NaNs included).
    fn bits(r: &Option<(ProjectedGaussian, ProjectionContext)>) -> Option<Vec<u32>> {
        let (p, c) = r.as_ref()?;
        let mut out = vec![p.index];
        let mut f = |v: f32| out.push(v.to_bits());
        for v in [p.mean2d.x, p.mean2d.y, p.depth, p.radius, p.opacity] {
            f(v);
        }
        for v in [
            p.conic.a, p.conic.b, p.conic.c, c.cov2d.a, c.cov2d.b, c.cov2d.c,
        ] {
            f(v);
        }
        for v in [c.p_cam, c.p_jacobian, c.view_dir] {
            v.to_array().iter().for_each(|v| f(*v));
        }
        c.rot_world_to_cam.m.iter().flatten().for_each(|v| f(*v));
        out.push(c.clamped.0 as u32);
        out.push(c.clamped.1 as u32);
        Some(out)
    }

    type Triple = (f32, f32, f32);

    /// A camera somewhere around the origin with a random pose, aspect,
    /// field of view and clip range.
    fn arbitrary_camera((eye, aim, lens): (Triple, Triple, (f32, u32, u32))) -> Camera {
        let eye = Vec3::new(eye.0, eye.1, eye.2);
        let (yaw, pitch, near) = aim;
        let (fov, width, height) = lens;
        Camera::look_at(
            eye,
            eye + Vec3::new(yaw.sin(), pitch, yaw.cos()),
            Vec3::Y,
            CameraIntrinsics::simple(width, height, fov),
        )
        .with_clip(near, near + 18.0)
    }

    /// A Gaussian whose `kind` selects one of the projection's edge cases
    /// (or none): overflowing or vanishing scales, an all-zero quaternion,
    /// an opacity below [`MIN_ALPHA`].
    fn arbitrary_gaussian(
        kind: u32,
        (position, log_scale, (qa, qb, logit)): (Triple, Triple, Triple),
        sh_seed: f32,
    ) -> Gaussian {
        let mut g = Gaussian {
            position: Vec3::new(position.0, position.1, position.2),
            log_scale: Vec3::new(log_scale.0, log_scale.1, log_scale.2),
            rotation: Quat {
                w: qa,
                x: qb,
                y: qa * qb - 0.3,
                z: 0.5 - qb,
            },
            opacity_logit: logit,
            ..Default::default()
        };
        for (k, c) in g.sh.iter_mut().enumerate() {
            *c = ((k as f32 + 1.0) * sh_seed).sin();
        }
        match kind {
            0 => g.log_scale = Vec3::new(48.0, log_scale.1, 52.0),
            1 => g.log_scale = Vec3::splat(-42.0),
            2 => {
                g.rotation = Quat {
                    w: 0.0,
                    x: 0.0,
                    y: 0.0,
                    z: 0.0,
                }
            }
            3 => g.opacity_logit = -6.0 - logit.abs(),
            _ => {}
        }
        g
    }

    /// Asserts that both entry points of the one implementation — the
    /// model-row projection through a shared set-up and the single-splat
    /// wrapper — return exactly what the frozen reference returns.
    fn assert_matches_reference(
        g: &Gaussian,
        cam: &Camera,
    ) -> Option<(ProjectedGaussian, ProjectionContext)> {
        let mut model = GaussianModel::new();
        model.push(Gaussian::default());
        let index = model.push(g.clone()) as u32;
        let expected = reference_project_gaussian(&model.get(index as usize), index, cam);
        let via_setup = ProjectionSetup::new(cam).project(&model, index);
        assert_eq!(
            bits(&via_setup),
            bits(&expected),
            "set-up path: {g:?} {cam:?}"
        );
        let via_wrapper = project_gaussian(g, index, cam);
        assert_eq!(
            bits(&via_wrapper),
            bits(&expected),
            "wrapper: {g:?} {cam:?}"
        );
        expected
    }

    proptest::proptest! {
        #[test]
        fn prop_projection_is_bit_identical_to_the_reference(
            camera in (
                (-6.0f32..6.0, -3.0f32..3.0, -6.0f32..6.0),
                (0.0f32..std::f32::consts::TAU, -0.4f32..0.4, 0.05f32..2.0),
                (0.3f32..2.4, 8u32..120, 8u32..120),
            ),
            splats in proptest::collection::vec(
                (
                    0u32..10,
                    (
                        (-14.0f32..14.0, -8.0f32..8.0, -14.0f32..14.0),
                        (-6.0f32..1.5, -6.0f32..1.5, -6.0f32..1.5),
                        (-1.0f32..1.0, -1.0f32..1.0, -7.0f32..7.0),
                    ),
                    0.1f32..3.0,
                ),
                1..24,
            ),
        ) {
            let cam = arbitrary_camera(camera);
            for (kind, attributes, sh_seed) in splats {
                assert_matches_reference(&arbitrary_gaussian(kind, attributes, sh_seed), &cam);
            }
        }
    }

    #[test]
    fn reference_comparison_reaches_every_branch() {
        // The property above is only as strong as the branches its inputs
        // reach: sweep a fixed grid through the same comparison and count
        // them.
        let cam = test_camera(); // at the origin looking down +Z, clip 0.1–100
        let (mut behind, mut beyond, mut transparent, mut degenerate) = (0, 0, 0, 0);
        let (mut clamp_x, mut clamp_y, mut unclamped) = (0, 0, 0);
        for kind in 0..6u32 {
            for zi in 0..7 {
                for xi in 0..7 {
                    let z: f32 = [-3.0, 0.05, 0.4, 2.0, 9.0, 60.0, 140.0][zi];
                    let x = (xi as f32 - 3.0) * 0.9 * z.max(0.5);
                    let y = (((xi + zi) % 5) as f32 - 2.0) * 0.8 * z.max(0.5);
                    let g = arbitrary_gaussian(
                        kind,
                        ((x, y, z), (-1.5, -2.5, -1.0), (0.9, 0.2, 1.2)),
                        0.7 + kind as f32,
                    );
                    match assert_matches_reference(&g, &cam) {
                        Some((_, ctx)) => {
                            clamp_x += ctx.clamped.0 as usize;
                            clamp_y += ctx.clamped.1 as usize;
                            unclamped += (ctx.clamped == (false, false)) as usize;
                        }
                        None if z < cam.near => behind += 1,
                        None if z > cam.far => beyond += 1,
                        None if kind == 3 => transparent += 1,
                        None => degenerate += 1,
                    }
                }
            }
        }
        for (name, count) in [
            ("behind near", behind),
            ("beyond far", beyond),
            ("below MIN_ALPHA", transparent),
            ("degenerate covariance", degenerate),
            ("x clamp", clamp_x),
            ("y clamp", clamp_y),
            ("no clamp", unclamped),
        ] {
            assert!(count > 0, "the sweep never reached the {name} branch");
        }
    }

    #[test]
    fn gradient_accumulate_and_norm() {
        let mut a = GaussianGradients::default();
        let mut b = GaussianGradients::default();
        a.d_position = Vec3::new(3.0, 0.0, 0.0);
        b.d_position = Vec3::new(0.0, 4.0, 0.0);
        a.accumulate(&b);
        assert_eq!(a.d_position, Vec3::new(3.0, 4.0, 0.0));
    }

    #[test]
    fn screen_gradients_zero_check() {
        assert!(ScreenGradients::default().is_zero());
        let nz = ScreenGradients {
            d_opacity: 0.1,
            ..Default::default()
        };
        assert!(!nz.is_zero());
    }
}
