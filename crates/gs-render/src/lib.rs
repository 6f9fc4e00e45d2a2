//! Differentiable CPU renderer for 3D Gaussian Splatting.
//!
//! This crate is the reproduction's stand-in for the gsplat CUDA kernels
//! used by the CLM paper: a tile-based EWA splatting rasteriser with a full
//! analytic backward pass, plus the losses and image-quality metrics used
//! during training and evaluation.
//!
//! The typical training-step flow is:
//!
//! 1. [`rasterize::render`] an image for one view (optionally restricted to
//!    the in-frustum Gaussians computed by `gs_core::cull_frustum`);
//! 2. compute a loss against the ground-truth image with [`loss::l1_loss`];
//! 3. run [`rasterize::render_backward`] to obtain per-Gaussian gradients;
//! 4. hand the gradients to an optimiser (see the `gs-optim` crate).
//!
//! # Example
//!
//! ```
//! use gs_core::{Camera, CameraIntrinsics, Gaussian, GaussianModel};
//! use gs_core::math::Vec3;
//! use gs_render::{render, render_backward, RenderOptions, l1_loss, psnr};
//!
//! let mut model = GaussianModel::new();
//! model.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 4.0), 0.4, [0.8, 0.1, 0.1], 0.9));
//! let camera = Camera::look_at(Vec3::ZERO, Vec3::Z, Vec3::Y,
//!                              CameraIntrinsics::simple(32, 32, 1.0));
//!
//! let out = render(&model, &camera, &RenderOptions::default());
//! let target = out.image.clone();
//! let loss = l1_loss(&out.image, &target);
//! assert_eq!(loss.value, 0.0);
//! assert!(psnr(&out.image, &target).is_infinite());
//! let grads = render_backward(&model, &camera, &out.aux, &loss.d_image);
//! assert!(grads.is_empty());
//! ```
#![forbid(unsafe_code)]

pub mod image;
pub mod loss;
pub mod parallel;
pub mod projection;
pub mod rasterize;

pub use image::{l1_error, mse, psnr, ssim, Image};
pub use loss::{l1_loss, l2_loss, LossOutput};
pub use parallel::{parallel_for_each, parallel_map};
pub use projection::{
    project_gaussian, project_gaussian_backward, GaussianGradients, ProjectedGaussian,
    ProjectionSetup, ScreenGradients,
};
pub use rasterize::{
    render, render_backward, RenderAux, RenderGradients, RenderOptions, RenderOutput,
    DEFAULT_BAND_HEIGHT, TILE_SIZE,
};
