//! Pinhole cameras, poses and view frusta.
//!
//! Each training image in a 3DGS dataset is a *posed image*: an RGB image
//! plus the intrinsics and extrinsics of the camera that captured it.  The
//! view frustum derived from the pose is what drives frustum culling and
//! therefore CLM's sparsity analysis.

use crate::math::{Mat3, Vec3};

/// Pinhole camera intrinsics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraIntrinsics {
    /// Focal length in pixels along x.
    pub fx: f32,
    /// Focal length in pixels along y.
    pub fy: f32,
    /// Principal point x (pixels).
    pub cx: f32,
    /// Principal point y (pixels).
    pub cy: f32,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
}

impl CameraIntrinsics {
    /// Builds intrinsics for a `width × height` image with the given
    /// horizontal field of view (radians) and a centred principal point.
    ///
    /// # Panics
    /// Panics if `width` or `height` is zero or `fov_x` is not in `(0, π)`.
    pub fn simple(width: u32, height: u32, fov_x: f32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        assert!(
            fov_x > 0.0 && fov_x < std::f32::consts::PI,
            "fov_x must be in (0, pi), got {fov_x}"
        );
        let fx = width as f32 / (2.0 * (fov_x / 2.0).tan());
        CameraIntrinsics {
            fx,
            fy: fx,
            cx: width as f32 / 2.0,
            cy: height as f32 / 2.0,
            width,
            height,
        }
    }

    /// Total number of pixels.
    pub fn pixel_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Horizontal field of view in radians.
    pub fn fov_x(&self) -> f32 {
        2.0 * (self.width as f32 / (2.0 * self.fx)).atan()
    }

    /// Vertical field of view in radians.
    pub fn fov_y(&self) -> f32 {
        2.0 * (self.height as f32 / (2.0 * self.fy)).atan()
    }

    /// Returns a copy scaled by `factor` (e.g. 0.5 halves the resolution),
    /// keeping the field of view constant.
    ///
    /// # Panics
    /// Panics if `factor` is not strictly positive or would produce a
    /// zero-sized image.
    pub fn scaled(&self, factor: f32) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        let width = ((self.width as f32 * factor).round() as u32).max(1);
        let height = ((self.height as f32 * factor).round() as u32).max(1);
        CameraIntrinsics {
            fx: self.fx * factor,
            fy: self.fy * factor,
            cx: self.cx * factor,
            cy: self.cy * factor,
            width,
            height,
        }
    }
}

/// Rigid camera pose: world-to-camera rotation and translation.
///
/// A world point `p` maps to camera space as `R · p + t`; the camera looks
/// down its local +Z axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraExtrinsics {
    /// World-to-camera rotation.
    pub rotation: Mat3,
    /// World-to-camera translation.
    pub translation: Vec3,
}

impl Default for CameraExtrinsics {
    fn default() -> Self {
        CameraExtrinsics {
            rotation: Mat3::identity(),
            translation: Vec3::ZERO,
        }
    }
}

impl CameraExtrinsics {
    /// Builds a pose from a camera position and a look-at target.
    ///
    /// `up` is the approximate world up direction and must not be parallel
    /// to the viewing direction.
    ///
    /// # Panics
    /// Panics if `eye == target` or `up` is parallel to the view direction.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Self {
        let forward = (target - eye).normalized();
        assert!(forward.length() > 0.0, "eye and target must differ");
        let right = forward.cross(up.normalized()).normalized();
        assert!(
            right.length() > 0.0,
            "up direction must not be parallel to the view direction"
        );
        let down = forward.cross(right); // camera +Y points "down" in image space
        let rotation = Mat3::from_rows(right, down, forward);
        let translation = -(rotation * eye);
        CameraExtrinsics {
            rotation,
            translation,
        }
    }

    /// Transforms a world-space point into camera space.
    pub fn world_to_camera(&self, p: Vec3) -> Vec3 {
        self.rotation * p + self.translation
    }

    /// The camera centre in world coordinates (`-Rᵀ t`).
    pub fn camera_center(&self) -> Vec3 {
        -(self.rotation.transpose() * self.translation)
    }
}

/// A plane in Hessian normal form: points `p` with `n·p + d >= 0` are on the
/// "inside" of the plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plane {
    /// Unit normal pointing towards the inside half-space.
    pub normal: Vec3,
    /// Signed offset.
    pub d: f32,
}

impl Plane {
    /// Creates a plane from a (not necessarily unit) normal and offset,
    /// normalising both.
    pub fn new(normal: Vec3, d: f32) -> Self {
        let len = normal.length();
        if len > 0.0 {
            Plane {
                normal: normal / len,
                d: d / len,
            }
        } else {
            Plane { normal: Vec3::Z, d }
        }
    }

    /// Signed distance from `p` to the plane (positive = inside).
    pub fn signed_distance(&self, p: Vec3) -> f32 {
        self.normal.dot(p) + self.d
    }
}

/// A camera view frustum described by five planes (left, right, top, bottom,
/// near) plus a far plane, all pointing inwards.
#[derive(Debug, Clone, PartialEq)]
pub struct Frustum {
    planes: [Plane; 6],
}

impl Frustum {
    /// Creates a frustum from explicit planes.
    pub fn from_planes(planes: [Plane; 6]) -> Self {
        Frustum { planes }
    }

    /// The frustum planes.
    pub fn planes(&self) -> &[Plane; 6] {
        &self.planes
    }

    /// Whether a sphere of radius `radius` centred at `center` intersects
    /// the frustum (conservative sphere-plane test, as used for 3σ culling).
    pub fn intersects_sphere(&self, center: Vec3, radius: f32) -> bool {
        self.planes
            .iter()
            .all(|plane| plane.signed_distance(center) >= -radius)
    }

    /// Whether a point lies inside the frustum.
    pub fn contains_point(&self, p: Vec3) -> bool {
        self.intersects_sphere(p, 0.0)
    }
}

/// A fully posed pinhole camera: intrinsics + extrinsics + clip range.
#[derive(Debug, Clone, PartialEq)]
pub struct Camera {
    /// Pinhole intrinsics.
    pub intrinsics: CameraIntrinsics,
    /// World-to-camera pose.
    pub extrinsics: CameraExtrinsics,
    /// Near clipping distance (camera-space z).
    pub near: f32,
    /// Far clipping distance (camera-space z).
    pub far: f32,
}

impl Camera {
    /// Default near plane distance.
    pub const DEFAULT_NEAR: f32 = 0.05;
    /// Default far plane distance.
    pub const DEFAULT_FAR: f32 = 1.0e4;

    /// Creates a camera from intrinsics and extrinsics with default clip
    /// distances.
    pub fn new(intrinsics: CameraIntrinsics, extrinsics: CameraExtrinsics) -> Self {
        Camera {
            intrinsics,
            extrinsics,
            near: Self::DEFAULT_NEAR,
            far: Self::DEFAULT_FAR,
        }
    }

    /// Convenience constructor: a camera at `eye` looking at `target`.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3, intrinsics: CameraIntrinsics) -> Self {
        Camera::new(intrinsics, CameraExtrinsics::look_at(eye, target, up))
    }

    /// Returns a copy with the given clip distances.
    ///
    /// # Panics
    /// Panics unless `0 < near < far`.
    pub fn with_clip(mut self, near: f32, far: f32) -> Self {
        assert!(near > 0.0 && far > near, "require 0 < near < far");
        self.near = near;
        self.far = far;
        self
    }

    /// The camera centre in world space.
    pub fn center(&self) -> Vec3 {
        self.extrinsics.camera_center()
    }

    /// Transforms a world point to camera space.
    pub fn world_to_camera(&self, p: Vec3) -> Vec3 {
        self.extrinsics.world_to_camera(p)
    }

    /// Projects a camera-space point to pixel coordinates.  Returns `None`
    /// when the point is behind (or extremely close to) the camera.
    pub fn project_camera_space(&self, p_cam: Vec3) -> Option<(f32, f32)> {
        if p_cam.z < 1e-6 {
            return None;
        }
        let x = self.intrinsics.fx * p_cam.x / p_cam.z + self.intrinsics.cx;
        let y = self.intrinsics.fy * p_cam.y / p_cam.z + self.intrinsics.cy;
        Some((x, y))
    }

    /// Projects a world point to pixel coordinates, if it is in front of the
    /// camera.
    pub fn project(&self, p_world: Vec3) -> Option<(f32, f32)> {
        self.project_camera_space(self.world_to_camera(p_world))
    }

    /// Builds the world-space view frustum.
    ///
    /// The four side planes are derived from the field of view; near and far
    /// planes from the clip range.
    pub fn frustum(&self) -> Frustum {
        self.frustum_with_margin(1.0)
    }

    /// Builds a view frustum whose field of view is widened by `margin`
    /// (e.g. `1.15` = 15% wider) and whose clip range is relaxed by the same
    /// factor.  Frustum *culling* uses a widened frustum so that splats whose
    /// screen-space footprint is slightly inflated by the rasteriser's
    /// low-pass filter are never culled away — the same conservative margin
    /// the reference CUDA implementation applies.
    ///
    /// # Panics
    /// Panics if `margin < 1.0` or the widened field of view would reach π.
    pub fn frustum_with_margin(&self, margin: f32) -> Frustum {
        assert!(margin >= 1.0, "culling margin must be >= 1.0, got {margin}");
        let r = &self.extrinsics.rotation;
        let cam_x = r.transpose() * Vec3::X; // world-space camera right
        let cam_y = r.transpose() * Vec3::Y; // world-space camera down
        let cam_z = r.transpose() * Vec3::Z; // world-space viewing direction
        let center = self.center();

        let half_fov_x =
            (self.intrinsics.fov_x() * 0.5 * margin).min(std::f32::consts::FRAC_PI_2 - 1e-3);
        let half_fov_y =
            (self.intrinsics.fov_y() * 0.5 * margin).min(std::f32::consts::FRAC_PI_2 - 1e-3);
        let (sx, cx) = half_fov_x.sin_cos();
        let (sy, cy) = half_fov_y.sin_cos();

        // Side plane normals in world space (pointing inwards).
        let left_n = cam_z * sx + cam_x * cx;
        let right_n = cam_z * sx - cam_x * cx;
        let top_n = cam_z * sy + cam_y * cy;
        let bottom_n = cam_z * sy - cam_y * cy;

        let plane_through_center =
            |n: Vec3| -> Plane { Plane::new(n, -n.normalized().dot(center)) };

        let near_point = center + cam_z * (self.near / margin);
        let far_point = center + cam_z * (self.far * margin);
        let planes = [
            plane_through_center(left_n),
            plane_through_center(right_n),
            plane_through_center(top_n),
            plane_through_center(bottom_n),
            Plane::new(cam_z, -cam_z.dot(near_point)),
            Plane::new(-cam_z, cam_z.dot(far_point)),
        ];
        Frustum::from_planes(planes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn test_intrinsics() -> CameraIntrinsics {
        CameraIntrinsics::simple(128, 96, 60.0_f32.to_radians())
    }

    #[test]
    fn simple_intrinsics_fov_round_trip() {
        let intr = test_intrinsics();
        assert!((intr.fov_x() - 60.0_f32.to_radians()).abs() < 1e-5);
        assert_eq!(intr.pixel_count(), 128 * 96);
        assert_eq!(intr.cx, 64.0);
    }

    #[test]
    fn scaled_intrinsics_preserve_fov() {
        let intr = test_intrinsics();
        let half = intr.scaled(0.5);
        assert_eq!(half.width, 64);
        assert_eq!(half.height, 48);
        assert!((half.fov_x() - intr.fov_x()).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "must be non-zero")]
    fn zero_size_intrinsics_panic() {
        let _ = CameraIntrinsics::simple(0, 10, 1.0);
    }

    #[test]
    fn look_at_camera_center_is_eye() {
        let eye = Vec3::new(3.0, -2.0, 7.0);
        let ext = CameraExtrinsics::look_at(eye, Vec3::ZERO, Vec3::Y);
        assert!((ext.camera_center() - eye).length() < 1e-4);
        assert!(ext.rotation.is_rotation(1e-4));
    }

    #[test]
    fn look_at_target_projects_to_principal_point() {
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::Y,
            test_intrinsics(),
        );
        let (x, y) = cam.project(Vec3::ZERO).expect("target in front of camera");
        assert!((x - cam.intrinsics.cx).abs() < 1e-3);
        assert!((y - cam.intrinsics.cy).abs() < 1e-3);
    }

    #[test]
    fn point_behind_camera_does_not_project() {
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::Y,
            test_intrinsics(),
        );
        assert!(cam.project(Vec3::new(0.0, 0.0, -10.0)).is_none());
    }

    #[test]
    fn frustum_contains_look_at_target() {
        let cam = Camera::look_at(
            Vec3::new(0.0, 1.0, -6.0),
            Vec3::ZERO,
            Vec3::Y,
            test_intrinsics(),
        );
        let frustum = cam.frustum();
        assert!(frustum.contains_point(Vec3::ZERO));
        // A point behind the camera is outside.
        assert!(!frustum.contains_point(Vec3::new(0.0, 1.0, -20.0)));
        // A point far off to the side is outside.
        assert!(!frustum.contains_point(Vec3::new(100.0, 0.0, 0.0)));
    }

    #[test]
    fn frustum_sphere_test_is_conservative_near_edges() {
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::Y,
            test_intrinsics(),
        );
        let frustum = cam.frustum();
        // A point just outside the left edge with a generous radius should
        // still intersect.
        let outside = Vec3::new(-4.0, 0.0, 0.0);
        assert!(!frustum.contains_point(outside));
        assert!(frustum.intersects_sphere(outside, 2.0));
    }

    #[test]
    fn near_plane_culls_points_too_close() {
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::Y,
            test_intrinsics(),
        )
        .with_clip(1.0, 100.0);
        let frustum = cam.frustum();
        // 0.5 units in front of the camera but within the near distance.
        assert!(!frustum.contains_point(Vec3::new(0.0, 0.0, -4.7)));
        assert!(frustum.contains_point(Vec3::new(0.0, 0.0, -3.0)));
    }

    #[test]
    fn far_plane_culls_distant_points() {
        let cam =
            Camera::look_at(Vec3::ZERO, Vec3::Z, Vec3::Y, test_intrinsics()).with_clip(0.1, 50.0);
        let frustum = cam.frustum();
        assert!(frustum.contains_point(Vec3::new(0.0, 0.0, 40.0)));
        assert!(!frustum.contains_point(Vec3::new(0.0, 0.0, 60.0)));
    }

    #[test]
    #[should_panic(expected = "0 < near < far")]
    fn invalid_clip_panics() {
        let _ =
            Camera::look_at(Vec3::ZERO, Vec3::Z, Vec3::Y, test_intrinsics()).with_clip(5.0, 1.0);
    }

    proptest! {
        #[test]
        fn prop_projected_points_inside_frustum_land_in_image(
            px in -20.0f32..20.0, py in -20.0f32..20.0, pz in 1.0f32..80.0
        ) {
            let cam = Camera::look_at(Vec3::ZERO, Vec3::Z, Vec3::Y, test_intrinsics())
                .with_clip(0.1, 100.0);
            let p = Vec3::new(px, py, pz);
            if cam.frustum().contains_point(p) {
                let (x, y) = cam.project(p).expect("in-frustum point must project");
                prop_assert!(x >= -1.0 && x <= cam.intrinsics.width as f32 + 1.0);
                prop_assert!(y >= -1.0 && y <= cam.intrinsics.height as f32 + 1.0);
            }
        }

        #[test]
        fn prop_camera_center_round_trip(ex in -50.0f32..50.0, ey in -50.0f32..50.0,
                                         ez in -50.0f32..50.0) {
            let eye = Vec3::new(ex, ey, ez);
            let target = Vec3::new(0.0, 0.0, 100.0);
            prop_assume!((target - eye).length() > 1e-3);
            let ext = CameraExtrinsics::look_at(eye, target, Vec3::Y);
            prop_assert!((ext.camera_center() - eye).length() < 1e-2);
        }
    }
}
