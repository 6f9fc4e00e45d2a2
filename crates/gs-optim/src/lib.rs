//! Optimisation primitives for 3DGS training.
//!
//! Provides the Adam optimiser in the two flavours the CLM system needs —
//! a dense step (the GPU-only baselines) and a per-subset step (the CPU
//! Adam thread that updates Gaussians as soon as their gradients are
//! finalised, §4.2.2/§5.4) — together with the [`GradientBuffer`] used to
//! accumulate micro-batch gradients over a batch.
//!
//! The buffer stores gradient only for the Gaussians that received it: a
//! 4 B row→slot index over the model points each receiver at one compact
//! 59-float row, so it costs 4 B per Gaussian plus one batch's receivers,
//! not a model-shaped 236 B per Gaussian.  It is exact by construction: a
//! receiver's row starts at `+0.0` and takes the same `+=` per element in
//! the same order a dense store would, and every other row reads `+0.0`
//! ([`gradients`] has the argument).
//!
//! # Example
//!
//! ```
//! use gs_core::{Gaussian, GaussianModel};
//! use gs_core::math::Vec3;
//! use gs_optim::{AdamConfig, GaussianAdam, GradientBuffer};
//! use gs_render::GaussianGradients;
//!
//! let mut model: GaussianModel =
//!     std::iter::repeat_with(|| Gaussian::isotropic(Vec3::ZERO, 0.1, [0.5; 3], 0.5))
//!         .take(4)
//!         .collect();
//! let mut optim = GaussianAdam::new(model.len(), AdamConfig::default());
//! let mut grads = GradientBuffer::for_model(&model);
//! grads.add(2, &GaussianGradients { d_opacity_logit: 0.5, ..Default::default() });
//! // Update only the touched Gaussian, exactly what CLM's CPU Adam does.
//! optim.step_subset(&mut model, &grads, grads.touched_set().indices());
//! assert_eq!(optim.step_count(2), 1);
//! assert_eq!(optim.step_count(0), 0);
//! ```
#![forbid(unsafe_code)]

pub mod adam;
pub mod gradients;

pub use adam::{
    adam_update_row, compute_packed, threads_for_chunk_rows, AdamConfig, AdamRowState,
    AdamWorkItem, GaussianAdam, ParamRow, WORK_ITEM_BYTES,
};
pub use gradients::{GradientBuffer, GRADIENT_ROW_BYTES};
