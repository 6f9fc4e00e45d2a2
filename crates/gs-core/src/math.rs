//! Small fixed-size linear algebra used by the 3DGS pipeline.
//!
//! Only the pieces actually needed by splatting are implemented: 3-vectors,
//! 3×3 matrices, quaternions and a handful of 2×2 helpers used by the EWA
//! projection.  Everything is `f32`, mirroring the precision used by GPU
//! 3DGS implementations.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 3-component single-precision vector.
///
/// ```
/// use gs_core::math::Vec3;
/// let v = Vec3::new(1.0, 2.0, 2.0);
/// assert_eq!(v.length(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit X axis.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit Y axis.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit Z axis.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from its components.
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    pub const fn splat(v: f32) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec3) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean length.
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Returns the vector scaled to unit length.
    ///
    /// Returns [`Vec3::ZERO`] for a zero-length input instead of producing
    /// NaNs so callers do not have to special-case degenerate data.
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        if len > 0.0 {
            self / len
        } else {
            Vec3::ZERO
        }
    }

    /// Component-wise maximum.
    pub fn max_elem(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Component-wise minimum.
    pub fn min_elem(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// The maximum of the three components.
    pub fn max_component(self) -> f32 {
        self.x.max(self.y).max(self.z)
    }

    /// Distance to another point.
    pub fn distance(self, rhs: Vec3) -> f32 {
        (self - rhs).length()
    }

    /// Returns the components as an array `[x, y, z]`.
    pub fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }

    /// Applies `f` to every component, returning the mapped vector.
    pub fn map(self, mut f: impl FnMut(f32) -> f32) -> Vec3 {
        Vec3::new(f(self.x), f(self.y), f(self.z))
    }

    /// Returns `true` when every component is finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl From<[f32; 3]> for Vec3 {
    fn from(a: [f32; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f32 {
    type Output = Vec3;
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f32> for Vec3 {
    type Output = Vec3;
    fn div(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A 2-component single-precision vector used for image-plane coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f32, y: f32) -> Self {
        Vec2 { x, y }
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec2) -> f32 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// Euclidean length.
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f32> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f32) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

/// A row-major 3×3 single-precision matrix.
///
/// ```
/// use gs_core::math::{Mat3, Vec3};
/// let m = Mat3::identity();
/// assert_eq!(m * Vec3::X, Vec3::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Row-major storage: `m[row][col]`.
    pub m: [[f32; 3]; 3],
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::identity()
    }
}

impl Mat3 {
    /// The identity matrix.
    pub fn identity() -> Mat3 {
        Mat3 {
            m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// The zero matrix.
    pub fn zero() -> Mat3 {
        Mat3 { m: [[0.0; 3]; 3] }
    }

    /// Builds a matrix from three rows.
    pub fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Mat3 {
        Mat3 {
            m: [r0.to_array(), r1.to_array(), r2.to_array()],
        }
    }

    /// Builds a diagonal matrix with `d` on the diagonal.
    pub fn from_diagonal(d: Vec3) -> Mat3 {
        Mat3 {
            m: [[d.x, 0.0, 0.0], [0.0, d.y, 0.0], [0.0, 0.0, d.z]],
        }
    }

    /// Returns row `i` as a vector.
    ///
    /// # Panics
    /// Panics if `i >= 3`.
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::new(self.m[i][0], self.m[i][1], self.m[i][2])
    }

    /// Returns column `i` as a vector.
    ///
    /// # Panics
    /// Panics if `i >= 3`.
    pub fn col(&self, i: usize) -> Vec3 {
        Vec3::new(self.m[0][i], self.m[1][i], self.m[2][i])
    }

    /// The matrix transpose.
    pub fn transpose(&self) -> Mat3 {
        Mat3::from_rows(self.col(0), self.col(1), self.col(2))
    }

    /// The matrix determinant.
    pub fn determinant(&self) -> f32 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Matrix trace (sum of the diagonal).
    pub fn trace(&self) -> f32 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// The matrix inverse, or `None` if the matrix is (near) singular.
    pub fn inverse(&self) -> Option<Mat3> {
        let det = self.determinant();
        if det.abs() < 1e-12 {
            return None;
        }
        let inv_det = 1.0 / det;
        let m = &self.m;
        let mut out = Mat3::zero();
        out.m[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_det;
        out.m[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_det;
        out.m[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_det;
        out.m[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_det;
        out.m[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_det;
        out.m[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_det;
        out.m[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_det;
        out.m[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_det;
        out.m[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_det;
        Some(out)
    }

    /// Checks that the matrix is (approximately) a rotation: orthonormal
    /// columns with determinant +1.
    pub fn is_rotation(&self, tol: f32) -> bool {
        let should_be_identity = *self * self.transpose();
        let mut max_err: f32 = 0.0;
        for r in 0..3 {
            for c in 0..3 {
                let expected = if r == c { 1.0 } else { 0.0 };
                max_err = max_err.max((should_be_identity.m[r][c] - expected).abs());
            }
        }
        max_err <= tol && (self.determinant() - 1.0).abs() <= tol
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    fn mul(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.row(0).dot(rhs),
            self.row(1).dot(rhs),
            self.row(2).dot(rhs),
        )
    }
}

impl Mul<Mat3> for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::zero();
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.row(r).dot(rhs.col(c));
            }
        }
        out
    }
}

impl Mul<f32> for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: f32) -> Mat3 {
        let mut out = self;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] *= rhs;
            }
        }
        out
    }
}

impl Add<Mat3> for Mat3 {
    type Output = Mat3;
    fn add(self, rhs: Mat3) -> Mat3 {
        let mut out = self;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] += rhs.m[r][c];
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Mat3 {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.m[r][c]
    }
}

impl IndexMut<(usize, usize)> for Mat3 {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.m[r][c]
    }
}

/// A symmetric 2×2 matrix, stored as `[a, b; b, c]`, used for the projected
/// 2D covariance of a Gaussian.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sym2 {
    /// Element (0, 0).
    pub a: f32,
    /// Element (0, 1) == (1, 0).
    pub b: f32,
    /// Element (1, 1).
    pub c: f32,
}

impl Sym2 {
    /// Creates a symmetric 2×2 matrix.
    pub const fn new(a: f32, b: f32, c: f32) -> Self {
        Sym2 { a, b, c }
    }

    /// The determinant `a·c − b²`.
    pub fn determinant(self) -> f32 {
        self.a * self.c - self.b * self.b
    }

    /// Inverse (the *conic* matrix in splatting terminology), or `None` if
    /// the matrix is singular.
    pub fn inverse(self) -> Option<Sym2> {
        let det = self.determinant();
        if det.abs() < 1e-12 {
            return None;
        }
        Some(Sym2::new(self.c / det, -self.b / det, self.a / det))
    }

    /// Largest eigenvalue (used for the screen-space extent of a splat).
    pub fn max_eigenvalue(self) -> f32 {
        let mid = 0.5 * (self.a + self.c);
        let disc = (mid * mid - self.determinant()).max(0.0).sqrt();
        mid + disc
    }
}

/// A unit quaternion representing a 3D rotation, stored as `(w, x, y, z)`.
///
/// 3DGS stores each Gaussian's orientation as an (unnormalised) quaternion;
/// the renderer normalises before converting to a rotation matrix.
///
/// ```
/// use gs_core::math::{Quat, Vec3};
/// let q = Quat::from_axis_angle(Vec3::Z, std::f32::consts::FRAC_PI_2);
/// let rotated = q.to_rotation_matrix() * Vec3::X;
/// assert!((rotated - Vec3::Y).length() < 1e-5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f32,
    /// X imaginary part.
    pub x: f32,
    /// Y imaginary part.
    pub y: f32,
    /// Z imaginary part.
    pub z: f32,
}

impl Default for Quat {
    fn default() -> Self {
        Quat::IDENTITY
    }
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Quat = Quat {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a quaternion from components.
    pub const fn new(w: f32, x: f32, y: f32, z: f32) -> Self {
        Quat { w, x, y, z }
    }

    /// Creates a rotation of `angle` radians about `axis`.
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Quat {
        let axis = axis.normalized();
        let half = angle * 0.5;
        let s = half.sin();
        Quat::new(half.cos(), axis.x * s, axis.y * s, axis.z * s)
    }

    /// Quaternion norm.
    pub fn norm(self) -> f32 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the normalised (unit) quaternion.  A zero quaternion maps to
    /// the identity so downstream rotation matrices stay well formed.
    pub fn normalized(self) -> Quat {
        let n = self.norm();
        if n > 1e-12 {
            Quat::new(self.w / n, self.x / n, self.y / n, self.z / n)
        } else {
            Quat::IDENTITY
        }
    }

    /// Converts to a 3×3 rotation matrix (normalising first).
    pub fn to_rotation_matrix(self) -> Mat3 {
        let q = self.normalized();
        let (w, x, y, z) = (q.w, q.x, q.y, q.z);
        Mat3 {
            m: [
                [
                    1.0 - 2.0 * (y * y + z * z),
                    2.0 * (x * y - w * z),
                    2.0 * (x * z + w * y),
                ],
                [
                    2.0 * (x * y + w * z),
                    1.0 - 2.0 * (x * x + z * z),
                    2.0 * (y * z - w * x),
                ],
                [
                    2.0 * (x * z - w * y),
                    2.0 * (y * z + w * x),
                    1.0 - 2.0 * (x * x + y * y),
                ],
            ],
        }
    }

    /// Returns the components as `[w, x, y, z]`.
    pub fn to_array(self) -> [f32; 4] {
        [self.w, self.x, self.y, self.z]
    }
}

impl From<[f32; 4]> for Quat {
    fn from(a: [f32; 4]) -> Self {
        Quat::new(a[0], a[1], a[2], a[3])
    }
}

impl From<Quat> for [f32; 4] {
    fn from(q: Quat) -> Self {
        q.to_array()
    }
}

/// Numerically stable sigmoid, used to map opacity logits to `[0, 1]`.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Inverse of [`sigmoid`]; clamps its input away from 0 and 1 to stay finite.
pub fn inverse_sigmoid(y: f32) -> f32 {
    let y = y.clamp(1e-6, 1.0 - 1e-6);
    (y / (1.0 - y)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn vec3_basic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_close(a.dot(b), 32.0, 1e-6);
        assert_eq!(a.cross(b), Vec3::new(-3.0, 6.0, -3.0));
    }

    #[test]
    fn vec3_normalized_zero_is_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn vec3_array_round_trip() {
        let v = Vec3::new(1.5, -2.5, 3.5);
        let a: [f32; 3] = v.into();
        assert_eq!(Vec3::from(a), v);
    }

    #[test]
    fn mat3_identity_and_mul() {
        let id = Mat3::identity();
        let v = Vec3::new(3.0, -1.0, 2.0);
        assert_eq!(id * v, v);
        assert_eq!(id * id, id);
        assert_close(id.determinant(), 1.0, 1e-6);
    }

    #[test]
    fn mat3_inverse_round_trip() {
        let m = Mat3::from_rows(
            Vec3::new(2.0, 1.0, 0.5),
            Vec3::new(0.0, 3.0, 1.0),
            Vec3::new(1.0, 0.0, 2.0),
        );
        let inv = m.inverse().expect("invertible");
        let prod = m * inv;
        for r in 0..3 {
            for c in 0..3 {
                let expected = if r == c { 1.0 } else { 0.0 };
                assert_close(prod.m[r][c], expected, 1e-5);
            }
        }
    }

    #[test]
    fn mat3_singular_has_no_inverse() {
        let m = Mat3::from_rows(Vec3::X, Vec3::X, Vec3::Y);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn mat3_transpose_of_transpose_is_identity_op() {
        let m = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.0, 5.0, 6.0),
            Vec3::new(7.0, 8.0, 9.0),
        );
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn quat_axis_angle_rotates_correctly() {
        let q = Quat::from_axis_angle(Vec3::Z, std::f32::consts::FRAC_PI_2);
        let r = q.to_rotation_matrix();
        let rotated = r * Vec3::X;
        assert!((rotated - Vec3::Y).length() < 1e-5);
        assert!(r.is_rotation(1e-5));
    }

    #[test]
    fn quat_zero_normalizes_to_identity() {
        let q = Quat::new(0.0, 0.0, 0.0, 0.0).normalized();
        assert_eq!(q, Quat::IDENTITY);
    }

    #[test]
    fn sym2_inverse_and_eigenvalue() {
        let m = Sym2::new(4.0, 1.0, 3.0);
        let inv = m.inverse().unwrap();
        // M * M^-1 == I for symmetric 2x2.
        assert_close(m.a * inv.a + m.b * inv.b, 1.0, 1e-5);
        assert_close(m.a * inv.b + m.b * inv.c, 0.0, 1e-5);
        assert_close(m.b * inv.b + m.c * inv.c, 1.0, 1e-5);
        // Eigenvalues of [[4,1],[1,3]] are (7 ± sqrt(5)) / 2.
        assert_close(m.max_eigenvalue(), (7.0 + 5.0_f32.sqrt()) / 2.0, 1e-5);
    }

    #[test]
    fn sigmoid_round_trip() {
        for &x in &[-5.0, -1.0, 0.0, 0.3, 2.0, 6.0] {
            assert_close(inverse_sigmoid(sigmoid(x)), x, 1e-3);
        }
        assert_close(sigmoid(0.0), 0.5, 1e-6);
    }

    proptest! {
        #[test]
        fn prop_quat_to_matrix_is_rotation(w in -1.0f32..1.0, x in -1.0f32..1.0,
                                           y in -1.0f32..1.0, z in -1.0f32..1.0) {
            prop_assume!((w*w + x*x + y*y + z*z) > 1e-3);
            let q = Quat::new(w, x, y, z);
            prop_assert!(q.to_rotation_matrix().is_rotation(1e-3));
        }

        #[test]
        fn prop_rotation_preserves_length(w in -1.0f32..1.0, x in -1.0f32..1.0,
                                          y in -1.0f32..1.0, z in -1.0f32..1.0,
                                          vx in -10.0f32..10.0, vy in -10.0f32..10.0,
                                          vz in -10.0f32..10.0) {
            prop_assume!((w*w + x*x + y*y + z*z) > 1e-3);
            let q = Quat::new(w, x, y, z);
            let v = Vec3::new(vx, vy, vz);
            let rotated = q.to_rotation_matrix() * v;
            prop_assert!((rotated.length() - v.length()).abs() < 1e-2 * (1.0 + v.length()));
        }

        #[test]
        fn prop_mat3_inverse_round_trips(values in proptest::array::uniform9(-5.0f32..5.0)) {
            let m = Mat3 { m: [
                [values[0], values[1], values[2]],
                [values[3], values[4], values[5]],
                [values[6], values[7], values[8]],
            ]};
            prop_assume!(m.determinant().abs() > 1e-2);
            let inv = m.inverse().unwrap();
            let prod = m * inv;
            for r in 0..3 {
                for c in 0..3 {
                    let expected = if r == c { 1.0 } else { 0.0 };
                    prop_assert!((prod.m[r][c] - expected).abs() < 1e-2);
                }
            }
        }

        #[test]
        fn prop_sigmoid_in_unit_interval(x in -50.0f32..50.0) {
            let y = sigmoid(x);
            prop_assert!((0.0..=1.0).contains(&y));
        }
    }
}
