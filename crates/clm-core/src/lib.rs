//! CLM: sparsity-guided CPU offloading for 3D Gaussian Splatting training.
//!
//! This crate is the reproduction of the CLM paper's contribution.  It lets
//! 3DGS training scale past GPU memory by keeping only what each micro-batch
//! needs on the GPU:
//!
//! * [`offload`] — attribute-wise offload: selection-critical attributes
//!   (position/scale/rotation, and opacity for the renderer's coverage pass)
//!   stay GPU-resident, the SH coefficients live in pinned host memory —
//!   the model's SH column, their one owner — and are gathered on demand
//!   for the rows some pixel reaches (§4.1, §5.2);
//! * [`cache`] — precise Gaussian caching between consecutive micro-batches
//!   (§4.2.1);
//! * [`order`] / [`tsp`] — pipeline order optimisation: micro-batches are
//!   sequenced by a metric-TSP over symmetric-difference distances to
//!   maximise cache reuse and early finalisation (§4.2.3, Appendix A.1);
//! * [`schedule`] — overlapped CPU Adam: each Gaussian's Adam update runs as
//!   soon as its gradients are final (§4.2.2);
//! * [`perf`] — the analytic performance/memory model that reproduces the
//!   paper-scale experiments (max model size, throughput, communication
//!   volume, memory breakdowns, utilisation) against the simulated device;
//! * [`price`] — the one price list every virtual clock reads: the
//!   simulated engine, the analytic model and the trace replay;
//! * [`train`] — functional trainers that run real (reduced-scale) 3DGS
//!   training under CLM, naive offloading and the two GPU-only baselines,
//!   and demonstrate that the strategies are numerically equivalent.
//!
//! # Example
//!
//! ```
//! use clm_core::{SystemKind, SceneProfile, max_trainable_gaussians};
//! use sim_device::DeviceProfile;
//!
//! // How many Gaussians fit on an RTX 4090 for a BigCity-like scene?
//! let scene = SceneProfile {
//!     name: "BigCity".into(),
//!     resolution: (1920, 1080),
//!     batch_size: 64,
//!     rho_mean: 0.0039,
//!     rho_max: 0.0106,
//!     cache_hit_rate: 0.15,
//!     overlap_fraction: 0.6,
//! };
//! let device = DeviceProfile::rtx4090();
//! let clm = max_trainable_gaussians(SystemKind::Clm, &device, &scene);
//! let baseline = max_trainable_gaussians(SystemKind::Baseline, &device, &scene);
//! assert!(clm > 3 * baseline);
//! ```
#![forbid(unsafe_code)]

pub mod cache;
pub mod offload;
pub mod order;
pub mod perf;
pub mod price;
pub mod schedule;
pub mod train;
pub mod tsp;

pub use cache::{batch_fetch_bytes, batch_fetch_bytes_no_cache, CachePlan};
pub use offload::{
    gather_rows_into, OffloadAccounting, OffloadedModel, GRADIENT_BYTES, NON_CRITICAL_BYTES,
    SELECTION_CRITICAL_BYTES,
};
pub use order::{order_batch, ordered_fetch_bytes, OrderingStrategy};
pub use perf::{
    check_memory_fit, emit_system, gpu_memory_required, max_trainable_gaussians,
    microbatch_stats_from_sets, pinned_memory_required, simulate_batch, synthetic_microbatch_stats,
    BatchSimulation, MemoryEstimate, MicrobatchStats, OutOfMemory, SceneProfile, SystemKind,
    WholeModelCosts,
};
pub use price::{BatchCounts, MicrobatchCounts, PriceList, PEER_HOP_FACTOR};
pub use schedule::FinalizationPlan;
pub use train::{
    ground_truth_images, BatchPlan, BatchReport, DensifySchedule, SerialRun, StagingBuffer,
    StagingSource, TrainConfig, Trainer, TrainerView,
};
// The resize-event vocabulary the trainers speak at densification
// boundaries (planned in `gs_scene`, emitted through `BatchPlan::resize`).
pub use gs_scene::{DensifyConfig, DensifyReport, ResizeAction, ResizeEvent};
pub use tsp::{solve, solve_exact, DistanceMatrix, TspConfig, TspSolution};
