//! Discrete-event execution timeline.
//!
//! The paper's performance results all come from how work is laid out on
//! three concurrent "lanes" — the GPU compute stream, the GPU communication
//! stream and the dedicated CPU Adam thread — and how much of it can be
//! overlapped.  [`Timeline`] reproduces this: operations are submitted to a
//! lane in program order (like a CUDA stream), may depend on operations in
//! other lanes (like CUDA events), and are scheduled as early as those two
//! constraints allow.  From the resulting schedule we derive makespan,
//! per-lane busy time, idle-rate CDFs (Figure 15) and utilisation metrics
//! (Table 7).

use crate::fault::FaultPlan;
use std::collections::HashMap;
use std::time::Instant;

/// An execution resource that serialises the operations submitted to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lane {
    /// The GPU compute stream (stream 0 in Figure 6).
    GpuCompute,
    /// The GPU communication stream (stream 1 in Figure 6).
    GpuComm,
    /// The dedicated CPU Adam thread.
    CpuAdam,
    /// The host Python/scheduling thread (frustum culling, TSP ordering).
    CpuScheduler,
    /// Compute stream of simulated device `d > 0` in a sharded (multi-GPU)
    /// schedule.  Device 0 reuses [`Lane::GpuCompute`]; use
    /// [`Lane::compute_of`] instead of constructing this directly.
    DeviceCompute(u8),
    /// Communication stream of simulated device `d > 0` (see
    /// [`Lane::comm_of`]).
    DeviceComm(u8),
    /// CPU Adam worker serving simulated device `d > 0` (see
    /// [`Lane::adam_of`]).
    DeviceAdam(u8),
}

impl Lane {
    /// The four single-device lanes in display order.  Sharded schedules add
    /// one `Device*` lane triple per extra device on top of these.
    pub const ALL: [Lane; 4] = [
        Lane::GpuCompute,
        Lane::GpuComm,
        Lane::CpuAdam,
        Lane::CpuScheduler,
    ];

    /// Largest device index a sharded schedule may address (the `Device*`
    /// lanes carry the index as a `u8`).
    pub const MAX_DEVICE: usize = u8::MAX as usize;

    /// The compute lane of simulated device `device`.  Device 0 maps to the
    /// classic [`Lane::GpuCompute`], so a 1-device schedule lands on exactly
    /// the paper's four lanes.
    ///
    /// # Panics
    /// Panics if `device` exceeds [`Lane::MAX_DEVICE`].
    pub fn compute_of(device: usize) -> Lane {
        assert!(
            device <= Lane::MAX_DEVICE,
            "device index {device} too large"
        );
        if device == 0 {
            Lane::GpuCompute
        } else {
            Lane::DeviceCompute(device as u8)
        }
    }

    /// The communication lane of simulated device `device` (device 0 maps to
    /// [`Lane::GpuComm`]).
    ///
    /// # Panics
    /// Panics if `device` exceeds [`Lane::MAX_DEVICE`].
    pub fn comm_of(device: usize) -> Lane {
        assert!(
            device <= Lane::MAX_DEVICE,
            "device index {device} too large"
        );
        if device == 0 {
            Lane::GpuComm
        } else {
            Lane::DeviceComm(device as u8)
        }
    }

    /// The CPU Adam lane serving simulated device `device` (device 0 maps to
    /// [`Lane::CpuAdam`]).
    ///
    /// # Panics
    /// Panics if `device` exceeds [`Lane::MAX_DEVICE`].
    pub fn adam_of(device: usize) -> Lane {
        assert!(
            device <= Lane::MAX_DEVICE,
            "device index {device} too large"
        );
        if device == 0 {
            Lane::CpuAdam
        } else {
            Lane::DeviceAdam(device as u8)
        }
    }

    /// The device this lane belongs to: 0 for the classic GPU/Adam lanes,
    /// `d` for the `Device*` lanes, and `None` for the host scheduler (it is
    /// shared by every device).
    pub fn device(self) -> Option<usize> {
        match self {
            Lane::GpuCompute | Lane::GpuComm | Lane::CpuAdam => Some(0),
            Lane::CpuScheduler => None,
            Lane::DeviceCompute(d) | Lane::DeviceComm(d) | Lane::DeviceAdam(d) => Some(d as usize),
        }
    }

    /// Compact wire code for trace serialisation: `4 * device + class` with
    /// class compute = 0 / comm = 1 / adam = 2, and the shared scheduler lane
    /// at the otherwise-unused code 3.  Round-trips through
    /// [`Lane::from_code`].
    pub fn code(self) -> u32 {
        match self {
            Lane::CpuScheduler => 3,
            Lane::GpuCompute => 0,
            Lane::GpuComm => 1,
            Lane::CpuAdam => 2,
            Lane::DeviceCompute(d) => 4 * d as u32,
            Lane::DeviceComm(d) => 4 * d as u32 + 1,
            Lane::DeviceAdam(d) => 4 * d as u32 + 2,
        }
    }

    /// Inverse of [`Lane::code`]; `None` for codes no lane encodes to
    /// (class 3 of a non-zero device).
    pub fn from_code(code: u32) -> Option<Lane> {
        if code == 3 {
            return Some(Lane::CpuScheduler);
        }
        let device = (code / 4) as usize;
        match code % 4 {
            0 => Some(Lane::compute_of(device)),
            1 => Some(Lane::comm_of(device)),
            2 => Some(Lane::adam_of(device)),
            _ => None,
        }
    }
}

/// The kind of work an operation represents; used for run-time breakdowns
/// (Figure 13) and communication-volume accounting (Figure 14, Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Forward rendering pass of one micro-batch.
    Forward,
    /// Backward pass of one micro-batch.
    Backward,
    /// Parameter load from CPU to GPU memory.
    LoadParams,
    /// Gradient store from GPU to CPU memory.
    StoreGrads,
    /// On-GPU copy of cached Gaussians between double buffers.
    CacheCopy,
    /// Cross-device gradient all-reduce step of a sharded (data-parallel)
    /// schedule.
    AllReduce,
    /// Mid-training model resize at a densification boundary: host-side row
    /// compaction/append of the model (SH store included), optimiser state
    /// and pinned staging buffers while every lane is drained.
    Resize,
    /// Adam update executed on the CPU thread.
    CpuAdamUpdate,
    /// Adam update executed on the GPU (GPU-only baselines).
    GpuAdamUpdate,
    /// Frustum culling, ordering and other scheduling work.
    Scheduling,
    /// Anything else.
    Other,
}

impl OpKind {
    /// Every kind, in wire-code order.
    pub const ALL: [OpKind; 11] = [
        OpKind::Forward,
        OpKind::Backward,
        OpKind::LoadParams,
        OpKind::StoreGrads,
        OpKind::CacheCopy,
        OpKind::AllReduce,
        OpKind::Resize,
        OpKind::CpuAdamUpdate,
        OpKind::GpuAdamUpdate,
        OpKind::Scheduling,
        OpKind::Other,
    ];

    /// Compact wire code for trace serialisation (index into
    /// [`OpKind::ALL`]); round-trips through [`OpKind::from_code`].
    pub fn code(self) -> u32 {
        OpKind::ALL.iter().position(|k| *k == self).unwrap() as u32
    }

    /// Inverse of [`OpKind::code`]; `None` for out-of-range codes.
    pub fn from_code(code: u32) -> Option<OpKind> {
        OpKind::ALL.get(code as usize).copied()
    }

    /// Short display name used by reports and Chrome-trace exports.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Forward => "Forward",
            OpKind::Backward => "Backward",
            OpKind::LoadParams => "LoadParams",
            OpKind::StoreGrads => "StoreGrads",
            OpKind::CacheCopy => "CacheCopy",
            OpKind::AllReduce => "AllReduce",
            OpKind::Resize => "Resize",
            OpKind::CpuAdamUpdate => "CpuAdamUpdate",
            OpKind::GpuAdamUpdate => "GpuAdamUpdate",
            OpKind::Scheduling => "Scheduling",
            OpKind::Other => "Other",
        }
    }
}

/// Identifier of a submitted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(usize);

impl OpId {
    /// Position of the operation in its timeline's submission order.
    /// Timelines are per-batch, so this doubles as the within-batch index a
    /// trace encoder can use to express dependencies compactly.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A scheduled operation with its resolved start and end times.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledOp {
    /// Identifier.
    pub id: OpId,
    /// Work classification.
    pub kind: OpKind,
    /// Lane the operation ran on.
    pub lane: Lane,
    /// Start time in seconds.
    pub start: f64,
    /// End time in seconds (`start + dur`, rounded once).
    pub end: f64,
    /// Duration in seconds exactly as submitted.  Kept separately from
    /// `end - start` so a trace replay can re-push the identical value:
    /// recomputing the duration from the rounded `end` could be off by an
    /// ulp and break bit-exact schedule reproduction.
    pub dur: f64,
    /// Bytes moved (zero for pure compute).
    pub bytes: u64,
    /// Gaussian rows the operation touched (zero when not applicable).
    pub rows: u64,
    /// Micro-batch index within the batch, when the operation belongs to
    /// one (`None` for batch-level work such as scheduling or resizes).
    pub microbatch: Option<u32>,
    /// Cross-lane dependencies the operation waited on, as submitted.
    /// Empty for measured (wall-clock) spans, whose ordering is implicit in
    /// their recorded start times.
    pub deps: Vec<OpId>,
}

impl ScheduledOp {
    /// Duration in seconds (the submitted value, see [`ScheduledOp::dur`]).
    pub fn duration(&self) -> f64 {
        self.dur
    }
}

/// An as-early-as-possible scheduler over serialising lanes with
/// cross-lane dependencies.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    ops: Vec<ScheduledOp>,
    lane_available: HashMap<Lane, f64>,
    fault: Option<FaultPlan>,
}

/// Two timelines are equal when they hold the same schedule: the same ops
/// in the same submission order.  Lane clocks and an installed fault plan
/// are how a schedule was made, not part of it.
impl PartialEq for Timeline {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
    }
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a fault plan: every subsequently submitted op is offered to
    /// it and any injected fault is priced into the op's duration before
    /// scheduling (see [`crate::fault`]).  Measured spans are never
    /// re-timed.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Submits an operation of `kind` to `lane` lasting `duration` seconds,
    /// not starting before every operation in `deps` has finished.
    /// Returns the operation id.
    ///
    /// # Panics
    /// Panics if `duration` is negative or a dependency id is unknown.
    pub fn push(&mut self, kind: OpKind, lane: Lane, duration: f64, deps: &[OpId]) -> OpId {
        self.push_with_bytes(kind, lane, duration, 0, deps)
    }

    /// Like [`push`](Self::push) but records `bytes` moved by the operation
    /// (for communication accounting).
    ///
    /// # Panics
    /// Panics if `duration` is negative or a dependency id is unknown.
    pub fn push_with_bytes(
        &mut self,
        kind: OpKind,
        lane: Lane,
        duration: f64,
        bytes: u64,
        deps: &[OpId],
    ) -> OpId {
        self.push_traced(kind, lane, duration, bytes, 0, None, deps)
    }

    /// Like [`push_with_bytes`](Self::push_with_bytes) but also annotates
    /// the op with the Gaussian `rows` it touches and the `microbatch` it
    /// belongs to, so a trace of the schedule carries enough structure to be
    /// replayed under altered pipeline knobs.
    ///
    /// # Panics
    /// Panics if `duration` is negative or a dependency id is unknown.
    pub fn push_traced(
        &mut self,
        kind: OpKind,
        lane: Lane,
        duration: f64,
        bytes: u64,
        rows: u64,
        microbatch: Option<u32>,
        deps: &[OpId],
    ) -> OpId {
        let duration = match &self.fault {
            Some(plan) => plan.on_op(kind, lane, duration).apply(duration),
            None => duration,
        };
        let lane_ready = *self.lane_available.get(&lane).unwrap_or(&0.0);
        let deps_ready = deps
            .iter()
            .map(|d| {
                self.ops
                    .get(d.0)
                    .unwrap_or_else(|| panic!("unknown dependency {d:?}"))
                    .end
            })
            .fold(0.0f64, f64::max);
        let start = lane_ready.max(deps_ready);
        self.push_recorded(kind, lane, start, duration, bytes, rows, microbatch, deps)
    }

    /// Records a *measured* span with an explicit `[start, end]` interval —
    /// the form wall-clock backends (the synchronous trainer and the
    /// threaded backend) use to capture what actually ran, as opposed to
    /// simulated ops whose start the scheduler derives.  It is
    /// [`push_recorded`](Self::push_recorded) of `end - start` with no
    /// dependency edges (ordering is implicit in the measured starts), so
    /// the op's `end` is `start + dur` rounded once, like every other op's.
    ///
    /// # Panics
    /// Panics if `start` is negative or `end < start`.
    pub fn push_span(
        &mut self,
        kind: OpKind,
        lane: Lane,
        start: f64,
        end: f64,
        bytes: u64,
        rows: u64,
        microbatch: Option<u32>,
    ) -> OpId {
        assert!(
            end >= start,
            "span must not end before it starts ({end} < {start})"
        );
        self.push_recorded(kind, lane, start, end - start, bytes, rows, microbatch, &[])
    }

    /// Appends an op whose schedule is already known — a recorded or
    /// measured one — at `start` for `dur` seconds, keeping its `deps`
    /// edges without rescheduling it.  The lane's availability advances to
    /// at least the op's end, so simulated ops pushed after it never travel
    /// back in time.  Fault plans are not consulted.
    ///
    /// # Panics
    /// Panics if `start` or `dur` is negative or NaN, or a dependency id is
    /// unknown.
    #[allow(clippy::too_many_arguments)]
    pub fn push_recorded(
        &mut self,
        kind: OpKind,
        lane: Lane,
        start: f64,
        dur: f64,
        bytes: u64,
        rows: u64,
        microbatch: Option<u32>,
        deps: &[OpId],
    ) -> OpId {
        assert!(start >= 0.0, "span start must be non-negative, got {start}");
        assert!(dur >= 0.0, "duration must be non-negative, got {dur}");
        assert!(
            deps.iter().all(|d| d.0 < self.ops.len()),
            "unknown dependency in {deps:?}"
        );
        let end = start + dur;
        let id = OpId(self.ops.len());
        self.ops.push(ScheduledOp {
            id,
            kind,
            lane,
            start,
            end,
            dur,
            bytes,
            rows,
            microbatch,
            deps: deps.to_vec(),
        });
        let lane_ready = *self.lane_available.get(&lane).unwrap_or(&0.0);
        self.lane_available.insert(lane, lane_ready.max(end));
        id
    }

    /// All scheduled operations in submission order, which is also the
    /// order their [`OpId`] indices count.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// FNV-1a fold of the whole op stream — kind, lane, the bit patterns of
    /// `dur` and `start`, bytes, rows, micro-batch and dependency edges, in
    /// submission order.  Two timelines with equal fingerprints executed the
    /// same schedule; golden tests use it to pin a schedule across a
    /// refactor without committing the op list itself.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |value: u64| {
            for byte in value.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for op in &self.ops {
            fold(u64::from(op.kind.code()));
            fold(u64::from(op.lane.code()));
            fold(op.dur.to_bits());
            fold(op.start.to_bits());
            fold(op.bytes);
            fold(op.rows);
            fold(op.microbatch.map_or(u64::MAX, u64::from));
            fold(op.deps.len() as u64);
            for dep in &op.deps {
                fold(dep.0 as u64);
            }
        }
        hash
    }

    /// End time of operation `id`.
    ///
    /// # Panics
    /// Panics if the id is unknown.
    pub fn end_of(&self, id: OpId) -> f64 {
        self.ops[id.0].end
    }

    /// Completion time of the whole schedule (0 for an empty timeline).
    pub fn makespan(&self) -> f64 {
        self.ops.iter().map(|o| o.end).fold(0.0, f64::max)
    }

    /// Total busy time of a lane.
    pub fn busy_time(&self, lane: Lane) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.lane == lane)
            .map(ScheduledOp::duration)
            .sum()
    }

    /// Total time spent on operations of `kind` (across all lanes).
    pub fn time_by_kind(&self, kind: OpKind) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.kind == kind)
            .map(ScheduledOp::duration)
            .sum()
    }

    /// Total bytes moved by operations of `kind`.
    pub fn bytes_by_kind(&self, kind: OpKind) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.bytes)
            .sum()
    }

    /// Fraction of the makespan a lane was busy (0 for an empty timeline).
    pub fn utilization(&self, lane: Lane) -> f64 {
        let makespan = self.makespan();
        if makespan <= 0.0 {
            0.0
        } else {
            self.busy_time(lane) / makespan
        }
    }

    /// Total time a lane sat idle within the makespan (0 for an empty
    /// timeline).
    pub fn idle_time(&self, lane: Lane) -> f64 {
        (self.makespan() - self.busy_time(lane)).max(0.0)
    }

    /// Fraction of the makespan a lane sat idle — the quantity the paper's
    /// Figure 15 compares between CLM and the no-overlap schedules (0 for an
    /// empty timeline).
    pub fn idle_fraction(&self, lane: Lane) -> f64 {
        let makespan = self.makespan();
        if makespan <= 0.0 {
            0.0
        } else {
            (self.idle_time(lane) / makespan).clamp(0.0, 1.0)
        }
    }

    /// Busy intervals of a lane, sorted by start time.
    pub fn intervals(&self, lane: Lane) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = self
            .ops
            .iter()
            .filter(|o| o.lane == lane && o.duration() > 0.0)
            .map(|o| (o.start, o.end))
            .collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        out
    }

    /// Per-window idle rates of a lane, the quantity whose CDF the paper
    /// plots in Figure 15 (`100 − SMs Active`, sampled over windows of
    /// `window` seconds).  Returns one idle fraction in `[0, 1]` per window
    /// covering `[0, makespan)`.
    ///
    /// # Panics
    /// Panics if `window` is not strictly positive.
    pub fn idle_rates(&self, lane: Lane, window: f64) -> Vec<f64> {
        assert!(window > 0.0, "window must be positive");
        let makespan = self.makespan();
        if makespan <= 0.0 {
            return Vec::new();
        }
        let intervals = self.intervals(lane);
        let num_windows = (makespan / window).ceil() as usize;
        let mut rates = Vec::with_capacity(num_windows);
        for w in 0..num_windows {
            let w_start = w as f64 * window;
            let w_end = (w_start + window).min(makespan);
            let span = w_end - w_start;
            if span <= 0.0 {
                break;
            }
            let mut busy = 0.0;
            for &(s, e) in &intervals {
                let overlap = (e.min(w_end) - s.max(w_start)).max(0.0);
                busy += overlap;
            }
            rates.push(1.0 - (busy / span).min(1.0));
        }
        rates
    }
}

/// The one span recorder: the intervals one thread timed during a batch, as
/// measured spans in the order it timed them, on the clock every list of the
/// batch shares (seconds since the batch's `origin`).
///
/// A thread borrows its own list exclusively for the batch — no lock, no
/// atomics — and [`merge_onto`](Self::merge_onto) lays the batch's lists on one
/// [`Timeline`], so a lane's busy time is that timeline's and a recording
/// always adds up to its own report.
#[derive(Debug)]
pub struct LaneSpans {
    origin: Instant,
    spans: Timeline,
}

impl LaneSpans {
    /// An empty list on the clock that started at `origin`.
    pub fn new(origin: Instant) -> Self {
        LaneSpans {
            origin,
            spans: Timeline::new(),
        }
    }

    /// This moment on the batch clock, in seconds.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records the interval from `start` (seconds on the batch clock) to
    /// this moment.
    pub fn record(
        &mut self,
        kind: OpKind,
        lane: Lane,
        microbatch: Option<u32>,
        bytes: u64,
        rows: u64,
        start: f64,
    ) {
        let end = self.now();
        self.spans
            .push_span(kind, lane, start, end, bytes, rows, microbatch);
    }

    /// Runs `f`, recording its wall-clock interval.
    pub fn time<T>(
        &mut self,
        kind: OpKind,
        lane: Lane,
        microbatch: Option<u32>,
        bytes: u64,
        rows: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        self.record(kind, lane, microbatch, bytes, rows, start);
        out
    }

    /// Lays one batch's lists out on `timeline` after its ops, sorted by
    /// start time; measured spans carry no dependency edges.
    pub fn merge_onto<const N: usize>(lists: [LaneSpans; N], timeline: &mut Timeline) {
        let mut spans: Vec<_> = lists.iter().flat_map(|l| l.spans.ops()).collect();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.end.total_cmp(&b.end)));
        for s in spans {
            timeline.push_recorded(
                s.kind,
                s.lane,
                s.start,
                s.dur,
                s.bytes,
                s.rows,
                s.microbatch,
                &[],
            );
        }
    }
}

/// Empirical CDF of a sample set: returns `(value, cumulative_fraction)`
/// pairs sorted by value.  Useful for reproducing the paper's CDF figures
/// (sparsity in Figure 5, GPU idle rate in Figure 15).
pub fn empirical_cdf(samples: &[f64]) -> Vec<(f64, f64)> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_from_several_threads_merge_onto_one_sorted_timeline() {
        let origin = Instant::now();
        let mut main = LaneSpans::new(origin);
        let mut comm = LaneSpans::new(origin);
        let mut adam = LaneSpans::new(origin);
        std::thread::scope(|scope| {
            let (comm, adam) = (&mut comm, &mut adam);
            scope.spawn(move || {
                comm.time(OpKind::LoadParams, Lane::GpuComm, Some(0), 128, 4, || {
                    std::hint::black_box((0..1000).sum::<u64>())
                });
            });
            scope.spawn(move || {
                adam.time(OpKind::CpuAdamUpdate, Lane::CpuAdam, None, 0, 8, || {
                    std::hint::black_box((0..1000).sum::<u64>())
                });
            });
        });
        main.record(OpKind::Scheduling, Lane::CpuScheduler, None, 0, 2, 0.0);
        let mut timeline = Timeline::new();
        LaneSpans::merge_onto([adam, comm, main], &mut timeline);
        let ops = timeline.ops();
        assert_eq!(ops.len(), 3);
        // Sorted by measured start: the span opened at the origin comes
        // first no matter where its list stood in the merge.
        assert_eq!(ops[0].kind, OpKind::Scheduling);
        assert!(ops.windows(2).all(|w| w[0].start <= w[1].start));
        let load = ops.iter().find(|o| o.kind == OpKind::LoadParams).unwrap();
        assert_eq!((load.bytes, load.rows, load.microbatch), (128, 4, Some(0)));
        assert!(load.deps.is_empty(), "measured spans carry no edges");
    }

    #[test]
    fn device_lane_mapping_reuses_classic_lanes_for_device_zero() {
        assert_eq!(Lane::compute_of(0), Lane::GpuCompute);
        assert_eq!(Lane::comm_of(0), Lane::GpuComm);
        assert_eq!(Lane::adam_of(0), Lane::CpuAdam);
        assert_eq!(Lane::compute_of(3), Lane::DeviceCompute(3));
        assert_eq!(Lane::comm_of(1), Lane::DeviceComm(1));
        assert_eq!(Lane::adam_of(2), Lane::DeviceAdam(2));
        for d in [0usize, 1, 2, 7] {
            assert_eq!(Lane::compute_of(d).device(), Some(d));
            assert_eq!(Lane::comm_of(d).device(), Some(d));
            assert_eq!(Lane::adam_of(d).device(), Some(d));
        }
        assert_eq!(Lane::CpuScheduler.device(), None);
    }

    #[test]
    fn device_lane_groups_serialise_independently_per_device() {
        // Two devices computing concurrently must overlap; the same device's
        // lane still serialises.
        let mut t = Timeline::new();
        t.push(OpKind::Forward, Lane::compute_of(0), 2.0, &[]);
        t.push(OpKind::Forward, Lane::compute_of(1), 2.0, &[]);
        assert_eq!(t.makespan(), 2.0);
        t.push(OpKind::AllReduce, Lane::comm_of(0), 1.0, &[]);
        t.push(OpKind::AllReduce, Lane::comm_of(0), 1.0, &[]);
        assert_eq!(t.busy_time(Lane::comm_of(0)), 2.0);
        assert_eq!(t.time_by_kind(OpKind::AllReduce), 2.0);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_device_index_panics() {
        let _ = Lane::compute_of(Lane::MAX_DEVICE + 1);
    }

    #[test]
    fn single_lane_serializes() {
        let mut t = Timeline::new();
        let a = t.push(OpKind::Forward, Lane::GpuCompute, 2.0, &[]);
        let b = t.push(OpKind::Backward, Lane::GpuCompute, 3.0, &[]);
        assert_eq!(t.end_of(a), 2.0);
        assert_eq!(t.end_of(b), 5.0);
        assert_eq!(t.makespan(), 5.0);
        assert_eq!(t.busy_time(Lane::GpuCompute), 5.0);
        assert_eq!(t.utilization(Lane::GpuCompute), 1.0);
    }

    #[test]
    fn independent_lanes_overlap() {
        let mut t = Timeline::new();
        t.push(OpKind::Forward, Lane::GpuCompute, 4.0, &[]);
        t.push(OpKind::LoadParams, Lane::GpuComm, 3.0, &[]);
        assert_eq!(t.makespan(), 4.0);
        assert!(t.utilization(Lane::GpuComm) < 1.0);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut t = Timeline::new();
        let load = t.push(OpKind::LoadParams, Lane::GpuComm, 2.0, &[]);
        let fwd = t.push(OpKind::Forward, Lane::GpuCompute, 1.0, &[load]);
        assert_eq!(t.ops()[fwd.0].start, 2.0);
        assert_eq!(t.makespan(), 3.0);
    }

    #[test]
    fn pipelined_schedule_overlaps_comm_and_compute() {
        // Two micro-batches: load(i+1) overlaps with compute(i), the
        // structure CLM's micro-batch pipelining produces (Figure 6).
        let mut t = Timeline::new();
        let load1 = t.push(OpKind::LoadParams, Lane::GpuComm, 1.0, &[]);
        let fwd1 = t.push(OpKind::Forward, Lane::GpuCompute, 2.0, &[load1]);
        let load2 = t.push(OpKind::LoadParams, Lane::GpuComm, 1.0, &[]);
        let bwd1 = t.push(OpKind::Backward, Lane::GpuCompute, 2.0, &[fwd1]);
        let fwd2 = t.push(OpKind::Forward, Lane::GpuCompute, 2.0, &[load2, bwd1]);
        let _bwd2 = t.push(OpKind::Backward, Lane::GpuCompute, 2.0, &[fwd2]);
        // Without overlap this would take 2 loads + 4 compute = 10; with
        // overlap the second load hides behind compute.
        assert_eq!(t.makespan(), 9.0);
        assert_eq!(t.busy_time(Lane::GpuComm), 2.0);
        assert_eq!(t.busy_time(Lane::GpuCompute), 8.0);
    }

    #[test]
    fn bytes_and_kind_accounting() {
        let mut t = Timeline::new();
        t.push_with_bytes(OpKind::LoadParams, Lane::GpuComm, 1.0, 1000, &[]);
        t.push_with_bytes(OpKind::LoadParams, Lane::GpuComm, 1.0, 500, &[]);
        t.push_with_bytes(OpKind::StoreGrads, Lane::GpuComm, 1.0, 700, &[]);
        assert_eq!(t.bytes_by_kind(OpKind::LoadParams), 1500);
        assert_eq!(t.bytes_by_kind(OpKind::StoreGrads), 700);
        assert_eq!(t.time_by_kind(OpKind::LoadParams), 2.0);
    }

    #[test]
    fn idle_rates_reflect_gaps() {
        let mut t = Timeline::new();
        let a = t.push(OpKind::Forward, Lane::GpuCompute, 1.0, &[]);
        // Communication creates a 1-second gap on the compute lane.
        let b = t.push(OpKind::LoadParams, Lane::GpuComm, 2.0, &[a]);
        t.push(OpKind::Forward, Lane::GpuCompute, 1.0, &[b]);
        let rates = t.idle_rates(Lane::GpuCompute, 1.0);
        assert_eq!(rates.len(), 4);
        assert_eq!(rates[0], 0.0);
        assert_eq!(rates[1], 1.0);
        assert_eq!(rates[2], 1.0);
        assert_eq!(rates[3], 0.0);
    }

    #[test]
    fn idle_rates_of_fully_busy_lane_are_zero() {
        let mut t = Timeline::new();
        t.push(OpKind::Forward, Lane::GpuCompute, 5.0, &[]);
        let rates = t.idle_rates(Lane::GpuCompute, 0.5);
        assert!(rates.iter().all(|r| *r == 0.0));
    }

    #[test]
    fn empirical_cdf_is_monotone_and_ends_at_one() {
        let cdf = empirical_cdf(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf[0].0, 1.0);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!(empirical_cdf(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let mut t = Timeline::new();
        t.push(OpKind::Other, Lane::GpuCompute, -1.0, &[]);
    }

    #[test]
    fn empty_timeline_metrics() {
        let t = Timeline::new();
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.utilization(Lane::GpuCompute), 0.0);
        assert_eq!(t.idle_time(Lane::GpuCompute), 0.0);
        assert_eq!(t.idle_fraction(Lane::GpuCompute), 0.0);
        assert!(t.idle_rates(Lane::GpuCompute, 1.0).is_empty());
    }

    #[test]
    fn lane_and_kind_wire_codes_round_trip() {
        let mut lanes: Vec<Lane> = Lane::ALL.to_vec();
        for d in [1usize, 2, 7, Lane::MAX_DEVICE] {
            lanes.push(Lane::compute_of(d));
            lanes.push(Lane::comm_of(d));
            lanes.push(Lane::adam_of(d));
        }
        let mut seen = std::collections::HashSet::new();
        for lane in lanes {
            let code = lane.code();
            assert!(seen.insert(code), "duplicate wire code {code} for {lane:?}");
            assert_eq!(Lane::from_code(code), Some(lane));
        }
        assert_eq!(Lane::from_code(7), None, "class 3 of device 1 is unused");
        for kind in OpKind::ALL {
            assert_eq!(OpKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(OpKind::from_code(OpKind::ALL.len() as u32), None);
    }

    #[test]
    fn push_traced_records_rows_microbatch_and_deps() {
        let mut t = Timeline::new();
        let load = t.push_traced(
            OpKind::LoadParams,
            Lane::GpuComm,
            1.0,
            640,
            10,
            Some(0),
            &[],
        );
        let fwd = t.push_traced(
            OpKind::Forward,
            Lane::GpuCompute,
            2.0,
            0,
            10,
            Some(0),
            &[load],
        );
        let op = &t.ops()[fwd.index()];
        assert_eq!(op.rows, 10);
        assert_eq!(op.microbatch, Some(0));
        assert_eq!(op.deps, vec![load]);
        assert_eq!(op.start, 1.0);
        // Plain push routes through the same path with empty annotations.
        let other = t.push(OpKind::Other, Lane::CpuScheduler, 0.5, &[fwd]);
        let op = &t.ops()[other.index()];
        assert_eq!(op.rows, 0);
        assert_eq!(op.microbatch, None);
        assert_eq!(op.deps, vec![fwd]);
    }

    #[test]
    fn push_span_keeps_measured_interval_and_advances_lane() {
        let mut t = Timeline::new();
        t.push_span(OpKind::Forward, Lane::GpuCompute, 1.0, 3.0, 0, 5, Some(0));
        // A measured span that started earlier but is logged later keeps its
        // own interval; the lane clock never moves backwards.
        t.push_span(OpKind::Forward, Lane::GpuCompute, 0.5, 1.0, 0, 5, Some(1));
        assert_eq!(t.ops()[1].start, 0.5);
        assert_eq!(t.ops()[1].end, 1.0);
        assert_eq!(t.makespan(), 3.0);
        // Simulated work pushed after a span starts no earlier than the
        // furthest measured end.
        let next = t.push(OpKind::Backward, Lane::GpuCompute, 1.0, &[]);
        assert_eq!(t.ops()[next.index()].start, 3.0);
    }

    #[test]
    #[should_panic(expected = "end before it starts")]
    fn inverted_span_panics() {
        let mut t = Timeline::new();
        t.push_span(OpKind::Other, Lane::GpuCompute, 2.0, 1.0, 0, 0, None);
    }

    #[test]
    fn idle_time_and_fraction_complement_utilization() {
        let mut t = Timeline::new();
        let a = t.push(OpKind::Forward, Lane::GpuCompute, 1.0, &[]);
        let b = t.push(OpKind::LoadParams, Lane::GpuComm, 3.0, &[a]);
        t.push(OpKind::Forward, Lane::GpuCompute, 1.0, &[b]);
        // Makespan 5, compute busy 2 -> idle 3 (60%).
        assert_eq!(t.makespan(), 5.0);
        assert_eq!(t.idle_time(Lane::GpuCompute), 3.0);
        assert!((t.idle_fraction(Lane::GpuCompute) - 0.6).abs() < 1e-12);
        assert!(
            (t.idle_fraction(Lane::GpuCompute) + t.utilization(Lane::GpuCompute) - 1.0).abs()
                < 1e-12
        );
    }
}
