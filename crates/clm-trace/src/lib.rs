//! Compact op-trace capture, deterministic offline replay and performance
//! reports for the CLM runtime.
//!
//! Every backend in this workspace schedules (or measures) its work through
//! [`sim_device::Timeline`]; this crate turns those schedules into a
//! portable artefact and back:
//!
//! * [`frame`] — the envelope both containers share: magic, version, body
//!   length and one checksum over everything after the magic, and the one
//!   [`DecodeError`] of the crate's decoders.
//! * [`mod@format`] — the `.clmtrace` container: a body carrying run
//!   metadata and the cost-model constants, followed by varint-encoded
//!   ops whose f64 times are stored as exact bit patterns (replay
//!   determinism forbids quantisation).  A [`Trace`] is its batches'
//!   [`sim_device::Timeline`]s: [`Trace::record`] moves in the timeline an
//!   executor reported, so recording is one call per batch on any backend.
//! * [`replay`] — reconstructs schedules offline.  Exact replay re-pushes
//!   the recorded graph and reproduces every start/end, per-lane busy
//!   total and the critical path bit for bit; knob replay rebuilds the CLM
//!   pipeline under an altered prefetch window, device count or cost
//!   scaling without re-running any numerics.
//! * [`report`] — aggregates a trace into per-lane utilisation, per-device
//!   rollups, per-kind duration histograms and a critical-path summary;
//!   exports Chrome-trace JSON for Perfetto.
//! * [`mod@checkpoint`] — the `.clmckpt` container: a framed
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
pub mod frame;
pub mod replay;
pub mod report;
pub mod varint;

pub use checkpoint::{Checkpoint, CKPT_MAGIC, CKPT_VERSION};
pub use format::{BatchTimeline, CostParams, Trace, TraceMeta, FORMAT_VERSION};
pub use frame::DecodeError;
pub use replay::{
    critical_path, replay_exact, replay_with_knobs, verify_exact, CriticalPath, KindScale,
    ReplayError, ReplayKnobs,
};
pub use report::{chrome_trace_json, json_escape, lane_label, looks_like_report_json, TraceReport};
