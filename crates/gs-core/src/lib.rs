//! Core data model for 3D Gaussian Splatting (3DGS).
//!
//! This crate provides the scene representation used throughout the CLM
//! reproduction: small linear-algebra types, spherical-harmonics colour
//! evaluation, the structure-of-arrays Gaussian model with its 59 learnable
//! parameters per Gaussian, pinhole cameras with view frusta, frustum
//! culling, and [`VisibilitySet`]s describing which Gaussians each view
//! touches.
//!
//! The split between *selection-critical* attributes (position, scale,
//! rotation and opacity — the 11 floats frustum culling and the renderer's
//! coverage pass need) and *non-critical* attributes (the 48 spherical
//! harmonics floats) is defined here because it is the foundation of CLM's
//! attribute-wise offloading strategy.
//!
//! # Example
//!
//! ```
//! use gs_core::{GaussianModel, Gaussian, Camera, cull_frustum};
//! use gs_core::math::Vec3;
//!
//! let mut model = GaussianModel::new();
//! model.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 5.0), 0.1, [0.8, 0.2, 0.2], 0.9));
//! model.push(Gaussian::isotropic(Vec3::new(100.0, 0.0, 5.0), 0.1, [0.2, 0.8, 0.2], 0.9));
//!
//! let camera = Camera::look_at(
//!     Vec3::new(0.0, 0.0, 0.0),
//!     Vec3::new(0.0, 0.0, 1.0),
//!     Vec3::new(0.0, 1.0, 0.0),
//!     gs_core::CameraIntrinsics::simple(64, 64, 60.0_f32.to_radians()),
//! );
//! let visible = cull_frustum(&model, &camera);
//! assert_eq!(visible.indices(), &[0]);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod camera;
pub mod culling;
pub mod gaussian;
pub mod math;
pub mod sh;
pub mod visibility;

pub use camera::{Camera, CameraExtrinsics, CameraIntrinsics, Frustum, Plane};
pub use culling::{cull_batch, cull_frustum};
pub use gaussian::{
    AttributeKind, Gaussian, GaussianModel, ModelRowsMut, NON_CRITICAL_FLOATS, PARAMS_PER_GAUSSIAN,
    SELECTION_CRITICAL_FLOATS, SH_FLOATS, TRAINING_STATE_COPIES,
};
pub use visibility::VisibilitySet;

/// Rows per lane block of the fixed-width kernels: the batch cull and the
/// rasteriser's alpha walk.  Fixed at 8 rather than derived from the host
/// SIMD width, so every machine runs the same kernel shape; 8 `f32` lanes
/// are one AVX2 register or two NEON/SSE registers.
pub const LANE_WIDTH: usize = 8;

/// Bytes occupied by one `f32` parameter.
pub const BYTES_PER_PARAM: usize = 4;

/// Bytes of *model state* (parameter + gradient + two Adam moments) that one
/// Gaussian occupies during training, as defined in §2.2 of the paper:
/// `59 parameters × 4 copies × 4 bytes`.
pub const fn training_bytes_per_gaussian() -> usize {
    PARAMS_PER_GAUSSIAN * TRAINING_STATE_COPIES * BYTES_PER_PARAM
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_bytes_match_paper() {
        // 59 * 4 * 4 = 944 bytes per Gaussian.
        assert_eq!(training_bytes_per_gaussian(), 944);
    }

    #[test]
    fn rtx4090_capacity_matches_paper_claim() {
        // The paper states a 24 GB RTX 4090 can hold the model state of at
        // most ~26 million Gaussians.  Check the arithmetic used there.
        let capacity = 24usize * 1024 * 1024 * 1024;
        let max_gaussians = capacity / training_bytes_per_gaussian();
        assert!((26_000_000..28_000_000).contains(&max_gaussians));
    }
}
