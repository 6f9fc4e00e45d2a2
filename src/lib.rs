//! Workspace root crate for the CLM reproduction.
//!
//! This crate only re-exports the member crates so that the `examples/` and
//! integration `tests/` at the repository root can reach every subsystem
//! through a single dependency.  The actual functionality lives in:
//!
//! * [`gs_core`] — Gaussian model, cameras, frustum culling, visibility sets.
//! * [`gs_render`] — differentiable CPU rasteriser, losses, PSNR.
//! * [`gs_optim`] — Adam optimiser (dense + sparse) and gradient accumulation.
//! * [`gs_scene`] — synthetic evaluation scenes and densification.
//! * [`sim_device`] — simulated GPU/CPU/PCIe substrate and event timeline.
//! * [`clm_core`] — the CLM offloading system and the baseline trainers.
//! * [`clm_runtime`] — pipelined discrete-event execution engine running the
//!   trainers on the simulated device timeline.
//! * [`clm_trace`] — op-trace capture/replay containers and the `.clmckpt`
//!   checkpoint format.
//! * [`clm_serve`] — the multi-tenant training service: scene registry,
//!   per-session jobs, fairness scheduling, admission control and
//!   checkpoint-based evict/resume.
#![forbid(unsafe_code)]

pub use clm_core;
pub use clm_runtime;
pub use clm_serve;
pub use clm_trace;
pub use gs_core;
pub use gs_optim;
pub use gs_render;
pub use gs_scene;
pub use sim_device;
