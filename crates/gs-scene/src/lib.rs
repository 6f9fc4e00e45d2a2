//! Synthetic evaluation scenes for the CLM reproduction.
//!
//! The CLM paper evaluates on five captured datasets (Bicycle, Rubble,
//! Alameda, Ithaca365 and MatrixCity BigCity) that are not available in this
//! environment.  This crate generates synthetic stand-ins whose *structure*
//! matches each scene: the relative Gaussian count, image resolution, camera
//! trajectory topology (orbit / aerial grid / indoor walk / street drive),
//! and therefore the sparsity distribution (Figure 5) and spatial locality
//! that CLM's offloading strategy exploits.  It also provides the
//! point-cloud initialisation and adaptive densification / pruning that the
//! training loop needs.
//!
//! # Example
//!
//! ```
//! use gs_scene::{generate_dataset, DatasetConfig, SceneKind, SceneSpec};
//!
//! let spec = SceneSpec::of(SceneKind::BigCity);
//! let dataset = generate_dataset(&spec, &DatasetConfig::tiny());
//! assert_eq!(dataset.ground_truth.len(), DatasetConfig::tiny().num_gaussians);
//! // Per-view sparsity: the fraction of Gaussians each view touches.
//! let rho = dataset.sparsity_profile();
//! assert_eq!(rho.len(), dataset.num_views());
//! ```
#![forbid(unsafe_code)]

pub mod densify;
pub mod generate;
pub mod init;
pub mod partition;
pub mod spec;

pub use densify::{
    apply_resize, densify_and_prune, plan_resize, DensifyConfig, DensifyReport, ResizeAction,
    ResizeEvent,
};
pub use generate::{generate_dataset, Dataset, DatasetConfig};
pub use init::{init_from_point_cloud, InitConfig};
pub use partition::{partition_by_footprint, projected_footprints, GaussianPartition};
pub use spec::{SceneKind, SceneSpec, Trajectory};
