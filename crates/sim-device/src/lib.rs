//! Simulated device substrate for the CLM reproduction.
//!
//! The CLM paper is a *systems* paper: its contribution is a data-placement
//! and scheduling policy for 3DGS training on a GPU whose memory is smaller
//! than the model.  This crate provides the hardware model that policy runs
//! against in the absence of a physical GPU:
//!
//! * [`DeviceProfile`] — capacities and rates of the two paper testbeds
//!   (RTX 4090 / PCIe 4.0 and RTX 2080 Ti / PCIe 3.0) and an analytic cost
//!   model for rendering, transfers and Adam updates (`clm_core::price` is
//!   the one caller of its rate functions);
//! * [`Timeline`] — a discrete-event scheduler over CUDA-stream-like lanes
//!   with cross-lane dependencies, from which makespan, overlap,
//!   utilisation and idle-rate statistics are derived; [`LaneSpans`] is the
//!   one recorder of measured wall-clock spans onto it;
//! * [`pipeline`] — the one schedule emitter: the op graph of a training
//!   batch under each of the four systems, as a function of prefetch window
//!   and device count, priced through a [`CostSource`];
//! * [`metrics`] — the Nsight-style utilisation numbers reported in the
//!   paper's Table 7 and Figure 15;
//! * [`HostTopology`] — the probe of the *real* host the simulation runs
//!   on (cores, caches, cgroup CPU quota), feeding the runtime's
//!   hardware-aware autotuning.
//!
//! # Example
//!
//! ```
//! use sim_device::{Timeline, Lane, OpKind};
//!
//! let mut timeline = Timeline::new();
//! let sched = timeline.push(OpKind::Scheduling, Lane::CpuScheduler, 1.0e-3, &[]);
//! // One MiB over a 25 GB/s link.
//! let load = timeline.push_with_bytes(
//!     OpKind::LoadParams, Lane::GpuComm, 52.0e-6, 1 << 20, &[sched]);
//! assert_eq!(timeline.end_of(load), timeline.makespan());
//! assert!(timeline.utilization(Lane::GpuComm) < 1.0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod fault;
pub mod host;
pub mod metrics;
pub mod pipeline;
pub mod timeline;

pub use device::{DeviceProfile, GIB};
pub use fault::{
    DeviceLossSpec, ExhaustionSpec, FaultPlan, FaultSpec, FaultStats, OpFault, RetryPolicy,
    StragglerSpec,
};
pub use host::{CpuVendor, HostTopology};
pub use metrics::{
    gpu_idle_rate_cdf, hardware_utilization, mean_gpu_utilization, HardwareUtilization,
};
pub use pipeline::{
    emit_clm, emit_gpu_only, emit_naive, AdamGroup, ClmShape, CostSource, OpCost, PrefetchWindow,
};
pub use timeline::{empirical_cdf, Lane, LaneSpans, OpId, OpKind, ScheduledOp, Timeline};
