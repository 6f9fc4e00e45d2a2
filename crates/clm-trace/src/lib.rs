//! Compact op-trace capture, deterministic offline replay and performance
//! reports for the CLM runtime.
//!
//! Every backend in this workspace schedules (or measures) its work through
//! [`sim_device::Timeline`]; this crate turns those schedules into a
//! portable artefact and back:
//!
//! * [`mod@format`] — the `.clmtrace` container: a versioned header carrying
//!   run metadata and the cost-model constants, followed by
//!   delta/varint-encoded events whose f64 times are stored as exact bit
//!   patterns (replay determinism forbids quantisation).  [`TraceWriter`]
//!   copies a batch's [`sim_device::Timeline`] ops, so recording is one
//!   call per batch on any backend.
//! * [`replay`] — reconstructs schedules offline.  Exact replay re-pushes
//!   the recorded graph and reproduces every start/end, per-lane busy
//!   total and the critical path bit for bit; knob replay rebuilds the CLM
//!   pipeline under an altered prefetch window, device count or cost
//!   scaling without re-running any numerics.
//! * [`report`] — aggregates a trace into per-lane utilisation, per-device
//!   rollups, per-kind duration histograms and a critical-path summary;
//!   exports Chrome-trace JSON for Perfetto.
//! * [`mod@checkpoint`] — the `.clmckpt` container: a versioned, checksummed
//!   batch-boundary snapshot of training state (model rows, full Adam
//!   moments, offload counters and the batch cursor)
//!   whose restore continues training bit-identically to the uninterrupted
//!   run.
//!
//! The `clm-bench` binaries `trace_record`, `trace_replay` and
//! `trace_report` drive these modules from the command line.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod format;
pub mod replay;
pub mod report;
pub mod varint;

pub use checkpoint::{Checkpoint, CkptError, CKPT_MAGIC, CKPT_VERSION};
pub use format::{
    CostParams, Trace, TraceError, TraceEvent, TraceMeta, TraceWriter, FORMAT_VERSION,
};
pub use replay::{
    critical_path, replay_exact, replay_with_knobs, verify_exact, BatchReplay, CriticalPath,
    KindScale, ReplayError, ReplayKnobs,
};
pub use report::{chrome_trace_json, lane_label, looks_like_report_json, TraceReport};
