//! Deterministic offline replay of recorded schedules.
//!
//! Two replay modes, both running entirely through
//! [`sim_device::Timeline`] with **no numerics**:
//!
//! * **Exact replay** ([`replay_exact`] / [`verify_exact`]): every batch's
//!   ops are re-pushed in recorded submission order with their recorded
//!   durations, lanes and dependency edges.  The timeline's ASAP scheduler
//!   is deterministic over f64 `max`/`+`, so the reconstructed schedule —
//!   every start, every end, the per-lane busy totals and the critical
//!   path — matches the recording *bit for bit*.  This is the invariant CI
//!   exercises: a trace is a faithful, re-simulatable record, not a lossy
//!   log.
//! * **Knob replay** ([`replay_with_knobs`]): the CLM pipeline is
//!   re-emitted from the per-micro-batch costs in the trace under altered
//!   knobs — a different prefetch window, a different simulated device
//!   count, or per-kind cost multipliers — through
//!   [`sim_device::pipeline`], the same emitter the runtime engine recorded
//!   it with.  Replaying with the *recorded* knobs reproduces the
//!   recorded schedule exactly; altered knobs answer "what if" questions
//!   (how much overlap does window 0 lose? what does a 4-way shard buy?)
//!   without re-running training.
//!
//! Measured wall-clock traces (the synchronous and threaded backends)
//! carry no dependency edges — their ordering lives in the measured start
//! times — so they support reporting but not replay; both entry points
//! reject them with [`ReplayError::MeasuredTrace`].

use crate::format::{CostParams, Trace, TraceEvent};
use sim_device::pipeline::{self, AdamGroup, ClmShape, CostSource, OpCost};
use sim_device::{Lane, OpId, OpKind, Timeline};

/// Why a trace could not be replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The trace has no dependency edges (measured wall-clock spans).
    MeasuredTrace,
    /// The trace's structure does not support the requested knobs (e.g.
    /// re-sharding a trace that was already recorded multi-device).
    UnsupportedSource(&'static str),
    /// Device-count replay needs the header's cost-model constants, which
    /// this trace does not carry.
    MissingCostModel,
    /// A batch does not look like a CLM pipeline schedule.
    BadStructure(&'static str),
    /// Exact verification found a divergence.
    Mismatch(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::MeasuredTrace => write!(
                f,
                "trace carries measured spans without dependency edges; it can be reported but not replayed"
            ),
            ReplayError::UnsupportedSource(what) => write!(f, "unsupported replay source: {what}"),
            ReplayError::MissingCostModel => {
                write!(f, "device-count replay needs the trace's cost-model header")
            }
            ReplayError::BadStructure(what) => write!(f, "not a CLM pipeline trace: {what}"),
            ReplayError::Mismatch(what) => write!(f, "replay diverged from recording: {what}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// One batch's reconstructed schedule.
#[derive(Debug, Clone)]
pub struct BatchReplay {
    /// Epoch of the recorded batch.
    pub epoch: u64,
    /// Batch index of the recorded batch.
    pub batch: u64,
    /// The reconstructed timeline.
    pub timeline: Timeline,
}

/// Per-kind duration multipliers for what-if cost scaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindScale {
    /// Forward/backward/GPU-Adam (compute-lane) multiplier.
    pub compute: f64,
    /// Load/store/all-reduce/cache-copy (communication) multiplier.
    pub comm: f64,
    /// CPU Adam multiplier.
    pub adam: f64,
    /// Scheduling/resize (host) multiplier.
    pub scheduling: f64,
}

impl Default for KindScale {
    fn default() -> Self {
        KindScale {
            compute: 1.0,
            comm: 1.0,
            adam: 1.0,
            scheduling: 1.0,
        }
    }
}

impl KindScale {
    /// Whether every multiplier is exactly 1 (scaling disabled).
    pub fn is_identity(&self) -> bool {
        *self == KindScale::default()
    }

    /// The multiplier applied to ops of `kind`.
    pub fn for_kind(&self, kind: OpKind) -> f64 {
        match kind {
            OpKind::Forward | OpKind::Backward | OpKind::GpuAdamUpdate => self.compute,
            OpKind::LoadParams | OpKind::StoreGrads | OpKind::AllReduce | OpKind::CacheCopy => {
                self.comm
            }
            OpKind::CpuAdamUpdate => self.adam,
            OpKind::Scheduling | OpKind::Resize => self.scheduling,
            OpKind::Other => 1.0,
        }
    }

    fn apply(&self, kind: OpKind, dur: f64) -> f64 {
        let s = self.for_kind(kind);
        if s == 1.0 {
            dur // exact: never round-trip through a multiply at identity
        } else {
            dur * s
        }
    }
}

/// The replay knobs: leave everything `None`/identity to reproduce the
/// recorded schedule exactly.
#[derive(Debug, Clone, Default)]
pub struct ReplayKnobs {
    /// Override the prefetch window (rebuilds the CLM pipeline).
    pub window: Option<usize>,
    /// Re-shard across this many simulated devices (rebuilds the CLM
    /// pipeline; source must be a single-device trace with cost-model
    /// metadata).
    pub devices: Option<usize>,
    /// Per-kind duration multipliers.
    pub scale: KindScale,
}

/// Re-pushes every batch through a fresh timeline with recorded durations,
/// lanes and dependencies — the bit-exact reconstruction (the structural
/// replay at the identity scale, which never touches a duration).
pub fn replay_exact(trace: &Trace) -> Result<Vec<BatchReplay>, ReplayError> {
    replay_scaled(trace, &KindScale::default())
}

/// Replays the trace exactly and checks, op for op, that every
/// reconstructed start and end matches the recording bit for bit — and
/// therefore that makespans, per-lane busy totals and the critical path do
/// too.
pub fn verify_exact(trace: &Trace) -> Result<Vec<BatchReplay>, ReplayError> {
    let replays = replay_exact(trace)?;
    let batches = trace.batches();
    for (replay, (_, _, events)) in replays.iter().zip(&batches) {
        let ops = replay.timeline.ops();
        if ops.len() != events.len() {
            return Err(ReplayError::Mismatch(format!(
                "batch {}: {} replayed ops vs {} recorded",
                replay.batch,
                ops.len(),
                events.len()
            )));
        }
        for (op, e) in ops.iter().zip(events.iter()) {
            if op.start.to_bits() != e.start.to_bits() || op.end.to_bits() != e.end().to_bits() {
                return Err(ReplayError::Mismatch(format!(
                    "batch {} op {} ({:?} on {:?}): replayed [{}, {}] vs recorded [{}, {}]",
                    replay.batch,
                    op.id.index(),
                    op.kind,
                    op.lane,
                    op.start,
                    op.end,
                    e.start,
                    e.end(),
                )));
            }
        }
    }
    Ok(replays)
}

/// Replays under altered knobs.  With no window/device override this is a
/// structural replay (recorded dependency graph, scaled durations); with
/// one, the CLM pipeline is re-emitted from per-micro-batch costs.
pub fn replay_with_knobs(
    trace: &Trace,
    knobs: &ReplayKnobs,
) -> Result<Vec<BatchReplay>, ReplayError> {
    if knobs.window.is_none() && knobs.devices.is_none() {
        return replay_scaled(trace, &knobs.scale);
    }
    if trace.meta.devices > 1 {
        return Err(ReplayError::UnsupportedSource(
            "window/device replay requires a single-device recording",
        ));
    }
    let devices = knobs.devices.unwrap_or(1).max(1);
    if devices > 1 && !trace.meta.cost.usable() {
        return Err(ReplayError::MissingCostModel);
    }
    if !trace.has_deps() {
        return Err(ReplayError::MeasuredTrace);
    }
    let window = knobs.window.unwrap_or(trace.meta.prefetch_window as usize);
    let mut out = Vec::new();
    for (epoch, batch, events) in trace.batches() {
        let timeline =
            ClmBatch::parse(events)?.rebuild(window, devices, &trace.meta.cost, &knobs.scale);
        out.push(BatchReplay {
            epoch,
            batch,
            timeline,
        });
    }
    Ok(out)
}

/// Structural replay: recorded graph, per-kind scaled durations.
fn replay_scaled(trace: &Trace, scale: &KindScale) -> Result<Vec<BatchReplay>, ReplayError> {
    if !trace.has_deps() {
        return Err(ReplayError::MeasuredTrace);
    }
    let mut out = Vec::new();
    for (epoch, batch, events) in trace.batches() {
        let mut timeline = Timeline::new();
        let mut ids: Vec<OpId> = Vec::with_capacity(events.len());
        for e in events {
            let deps: Vec<OpId> = e.deps.iter().map(|&d| ids[d as usize]).collect();
            ids.push(timeline.push_traced(
                e.kind,
                e.lane,
                scale.apply(e.kind, e.dur),
                e.bytes,
                e.rows,
                e.microbatch,
                &deps,
            ));
        }
        out.push(BatchReplay {
            epoch,
            batch,
            timeline,
        });
    }
    Ok(out)
}

/// The recorded cost of one op.
fn cost_of(e: &TraceEvent) -> OpCost {
    OpCost {
        dur: e.dur,
        bytes: e.bytes,
        rows: e.rows,
    }
}

/// One micro-batch's recorded costs.
#[derive(Debug, Clone, Copy, Default)]
struct MbCost {
    gather: OpCost,
    forward: OpCost,
    backward: OpCost,
    store: OpCost,
    /// Early-finalised CPU Adam (overlapped CLM only).
    adam: Option<OpCost>,
}

/// A recorded single-device CLM batch decomposed into the costs the
/// rebuild re-schedules.
#[derive(Debug, Clone)]
struct ClmBatch {
    /// Early-finalised per-group CPU Adam vs. one dense pass at batch end.
    overlapped: bool,
    resize: Option<OpCost>,
    sched: OpCost,
    /// F0 Adam over the batch-untouched set (overlapped CLM only).
    f0_adam: Option<OpCost>,
    mbs: Vec<MbCost>,
    /// Batch-end dense Adam (non-overlapped CLM only).
    dense_adam: Option<OpCost>,
}

impl ClmBatch {
    fn parse(events: &[TraceEvent]) -> Result<ClmBatch, ReplayError> {
        for e in events {
            if matches!(e.kind, OpKind::AllReduce | OpKind::GpuAdamUpdate) {
                return Err(ReplayError::BadStructure(
                    "contains all-reduce/GPU-Adam ops (not a single-device CLM batch)",
                ));
            }
        }
        let m = events
            .iter()
            .filter_map(|e| e.microbatch)
            .max()
            .map(|mb| mb as usize + 1)
            .ok_or(ReplayError::BadStructure("no per-micro-batch ops"))?;
        let overlapped = events
            .iter()
            .any(|e| e.kind == OpKind::CpuAdamUpdate && e.microbatch.is_some());

        let mut parsed = ClmBatch {
            overlapped,
            resize: None,
            sched: OpCost::default(),
            f0_adam: None,
            mbs: vec![MbCost::default(); m],
            dense_adam: None,
        };
        let mut seen_sched = false;
        let mut seen = vec![[false; 5]; m];
        for e in events {
            match (e.kind, e.microbatch) {
                (OpKind::Resize, None) => parsed.resize = Some(cost_of(e)),
                (OpKind::Scheduling, None) => {
                    parsed.sched = cost_of(e);
                    seen_sched = true;
                }
                (OpKind::CpuAdamUpdate, None) => {
                    // Overlapped batches front-load F0; non-overlapped ones
                    // end with the dense pass.
                    if overlapped {
                        parsed.f0_adam = Some(cost_of(e));
                    } else {
                        parsed.dense_adam = Some(cost_of(e));
                    }
                }
                (kind, Some(mb)) => {
                    let mb = mb as usize;
                    let slot = &mut parsed.mbs[mb];
                    let (field, idx): (&mut OpCost, usize) = match kind {
                        OpKind::LoadParams => (&mut slot.gather, 0),
                        OpKind::Forward => (&mut slot.forward, 1),
                        OpKind::Backward => (&mut slot.backward, 2),
                        OpKind::StoreGrads => (&mut slot.store, 3),
                        OpKind::CpuAdamUpdate => {
                            slot.adam = Some(cost_of(e));
                            seen[mb][4] = true;
                            continue;
                        }
                        _ => {
                            return Err(ReplayError::BadStructure(
                                "unexpected per-micro-batch op kind",
                            ))
                        }
                    };
                    if seen[mb][idx] {
                        return Err(ReplayError::BadStructure("duplicate per-micro-batch op"));
                    }
                    *field = cost_of(e);
                    seen[mb][idx] = true;
                }
                _ => {
                    return Err(ReplayError::BadStructure("unexpected batch-level op kind"));
                }
            }
        }
        if !seen_sched {
            return Err(ReplayError::BadStructure("no scheduling op"));
        }
        let batch_adam = if overlapped {
            parsed.f0_adam
        } else {
            parsed.dense_adam
        };
        if batch_adam.is_none() {
            return Err(ReplayError::BadStructure(
                "no batch-level CPU Adam op (F0 or dense)",
            ));
        }
        for flags in &seen {
            if !flags[..4].iter().all(|&s| s) || (overlapped && !flags[4]) {
                return Err(ReplayError::BadStructure(
                    "micro-batch missing gather/forward/backward/store ops",
                ));
            }
        }
        Ok(parsed)
    }

    /// Re-emits the batch through the shared schedule emitter
    /// ([`sim_device::pipeline::emit_clm`] — the graph the engine recorded
    /// it with) across `devices` simulated lane groups under prefetch
    /// window `window`, priced by [`RecordedCosts`].
    fn rebuild(
        &self,
        window: usize,
        devices: usize,
        cost: &CostParams,
        scale: &KindScale,
    ) -> Timeline {
        let mut costs = RecordedCosts {
            batch: self,
            devices,
            cost,
            scale,
        };
        let mut t = Timeline::new();
        let mut host_op = |kind: OpKind, recorded: OpCost, deps: &[OpId]| {
            let c = costs.scaled(kind, recorded);
            t.push_traced(kind, Lane::CpuScheduler, c.dur, c.bytes, c.rows, None, deps)
        };
        let resize: Vec<OpId> = self
            .resize
            .map(|r| host_op(OpKind::Resize, r, &[]))
            .into_iter()
            .collect();
        let sched = host_op(OpKind::Scheduling, self.sched, &resize);
        let shape = ClmShape {
            microbatches: self.mbs.len(),
            window,
            devices,
            overlapped: self.overlapped,
        };
        pipeline::emit_clm(&mut t, &[sched], &shape, &mut costs);
        t
    }
}

/// The recording as the emitter's cost source.  At one device every op
/// keeps its recorded cost, so the rebuild needs no cost header and the
/// recorded window reproduces the recording exactly.  Re-sharding a
/// single-device recording has no ownership partition to consult, so above
/// one device the costs approximate uniform sharding: `1/D` of every fetch
/// is local, Adam groups split evenly across owners — the cost-model
/// constants from the trace header price the peer hops and all-reduce
/// chains.  [`KindScale`] applies per kind either way.
struct RecordedCosts<'a> {
    batch: &'a ClmBatch,
    devices: usize,
    cost: &'a CostParams,
    scale: &'a KindScale,
}

impl RecordedCosts<'_> {
    fn scaled(&self, kind: OpKind, cost: OpCost) -> OpCost {
        OpCost {
            dur: self.scale.apply(kind, cost.dur),
            ..cost
        }
    }

    /// The recorded CPU Adam op of `group` ([`ClmBatch::parse`] checked it
    /// is there).
    fn recorded_adam(&self, group: AdamGroup) -> OpCost {
        match group {
            AdamGroup::Untouched => self.batch.f0_adam,
            AdamGroup::FinalizedBy(i) => self.batch.mbs[i].adam,
            AdamGroup::Dense => self.batch.dense_adam,
        }
        .expect("parse admits a batch only with every Adam op its schedule needs")
    }
}

impl CostSource for RecordedCosts<'_> {
    fn gather(&mut self, i: usize) -> OpCost {
        let g = self.batch.mbs[i].gather;
        let dur = if self.devices == 1 {
            // Everything is local: keep the recorded duration — it may
            // carry fault-injected retries, and the cost header may be
            // unusable — rather than re-pricing it.
            g.dur
        } else {
            // Uniform-ownership approximation: 1/D of the fetch is local.
            let local_bytes = g.bytes / self.devices as u64;
            let remote_bytes = g.bytes - local_bytes;
            self.cost.transfer_time(local_bytes)
                + self.cost.peer_hop_factor * self.cost.transfer_time(remote_bytes)
        };
        self.scaled(OpKind::LoadParams, OpCost { dur, ..g })
    }

    fn forward(&mut self, i: usize) -> OpCost {
        self.scaled(OpKind::Forward, self.batch.mbs[i].forward)
    }

    fn backward(&mut self, i: usize) -> OpCost {
        self.scaled(OpKind::Backward, self.batch.mbs[i].backward)
    }

    fn store(&mut self, i: usize) -> OpCost {
        self.scaled(OpKind::StoreGrads, self.batch.mbs[i].store)
    }

    fn allreduce(&mut self, group: AdamGroup) -> OpCost {
        let rows = self.recorded_adam(group).rows;
        let total_bytes =
            (rows as f64 * self.cost.gradient_bytes as f64 * self.cost.cost_scale).round() as u64;
        let devices = self.devices as f64;
        let bytes = (total_bytes as f64 * (devices - 1.0) / devices).round() as u64;
        let dur = self.cost.transfer_time(bytes);
        self.scaled(OpKind::AllReduce, OpCost { dur, bytes, rows })
    }

    /// Splits the recorded update evenly across the owners' Adam lanes,
    /// each share prorated by its rows.  A single owner keeps the recorded
    /// op as it is: prorating the whole (`dur * r / r`) is not bit-exact.
    fn adam(&mut self, group: AdamGroup) -> Vec<OpCost> {
        let adam = self.recorded_adam(group);
        if self.devices == 1 {
            return vec![self.scaled(OpKind::CpuAdamUpdate, adam)];
        }
        split_rows(adam.rows, self.devices)
            .into_iter()
            .map(|rows| {
                let dur = prorate(adam.dur, rows, adam.rows);
                self.scaled(OpKind::CpuAdamUpdate, OpCost::compute(dur, rows))
            })
            .collect()
    }
}

/// `rows` split as evenly as possible across `devices` (remainder on the
/// lowest device indices) — the rebuild's stand-in for the footprint
/// partition's `split_counts`.
fn split_rows(rows: u64, devices: usize) -> Vec<u64> {
    let d = devices as u64;
    (0..d).map(|i| rows / d + u64::from(i < rows % d)).collect()
}

/// `dur * part / whole` (0 when the whole is empty).
fn prorate(dur: f64, part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        dur * part as f64 / whole as f64
    }
}

/// The critical path of a schedule: the dependency-or-lane-contiguous
/// chain of ops ending at the makespan, walked backwards through exact
/// end-time equalities (exact f64 comparisons are sound here — every
/// start is a `max` over candidate end times, so the binding predecessor's
/// end *equals* the start bit for bit).
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// End-to-end length in seconds (the makespan).
    pub length_s: f64,
    /// Ops on the path.
    pub ops: usize,
    /// Seconds on the path attributed to each op kind (kind-code order,
    /// zero-kind entries omitted).
    pub time_by_kind: Vec<(OpKind, f64)>,
}

/// Walks the critical path of a reconstructed timeline.  Ties (several
/// predecessors ending exactly at a start) break towards the earliest
/// submitted op, so the walk is deterministic.
pub fn critical_path(timeline: &Timeline) -> CriticalPath {
    let ops = timeline.ops();
    let mut by_kind = [0.0f64; OpKind::ALL.len()];
    let mut count = 0usize;
    let mut cur = ops
        .iter()
        .enumerate()
        .max_by(|(ai, a), (bi, b)| {
            a.end
                .partial_cmp(&b.end)
                .unwrap()
                // On equal ends prefer the *earlier* op deterministically.
                .then(bi.cmp(ai))
        })
        .map(|(i, _)| i);
    while let Some(i) = cur {
        let op = &ops[i];
        by_kind[op.kind.code() as usize] += op.dur;
        count += 1;
        if op.start == 0.0 {
            break;
        }
        // Candidate predecessors: the op's explicit dependencies, plus the
        // previous op on the same lane (the lane-serialisation edge).
        let mut next: Option<usize> = None;
        let mut consider = |j: usize| {
            if ops[j].end.to_bits() == op.start.to_bits() && next.is_none_or(|n| j < n) {
                next = Some(j);
            }
        };
        for d in &op.deps {
            consider(d.index());
        }
        if let Some(prev_on_lane) = ops[..i].iter().rposition(|o| o.lane == op.lane) {
            consider(prev_on_lane);
        }
        cur = next;
        if cur.is_none() {
            // Measured spans can start at arbitrary offsets with no equal
            // predecessor; stop rather than loop.
            break;
        }
    }
    CriticalPath {
        length_s: timeline.makespan(),
        ops: count,
        time_by_kind: OpKind::ALL
            .iter()
            .filter(|k| by_kind[k.code() as usize] > 0.0)
            .map(|&k| (k, by_kind[k.code() as usize]))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{TraceMeta, TraceWriter};

    fn meta(devices: u32, window: u32) -> TraceMeta {
        TraceMeta {
            backend: "simulated".into(),
            scene: "unit".into(),
            devices,
            prefetch_window: window,
            seed: 0,
            cost: CostParams {
                pcie_latency_s: 1.0e-5,
                pcie_bandwidth: 25.0e9,
                cost_scale: 1.0,
                peer_hop_factor: 2.0,
                gradient_bytes: 96,
            },
        }
    }

    /// A hand-built 3-micro-batch overlapped CLM batch, window 1.
    fn clm_timeline() -> Timeline {
        let mut t = Timeline::new();
        let sched = t.push_traced(
            OpKind::Scheduling,
            Lane::CpuScheduler,
            1e-4,
            0,
            100,
            None,
            &[],
        );
        t.push_traced(
            OpKind::CpuAdamUpdate,
            Lane::CpuAdam,
            2e-4,
            0,
            40,
            None,
            &[sched],
        );
        let mut gathers = Vec::new();
        let mut backwards: Vec<OpId> = Vec::new();
        let w = 1usize;
        let m = 3usize;
        for i in 0..(w + 1).min(m) {
            gathers.push(t.push_traced(
                OpKind::LoadParams,
                Lane::GpuComm,
                3e-4,
                6400,
                10,
                Some(i as u32),
                &[sched],
            ));
        }
        for i in 0..m {
            let fwd = t.push_traced(
                OpKind::Forward,
                Lane::GpuCompute,
                4e-4,
                0,
                10,
                Some(i as u32),
                &[gathers[i]],
            );
            let bwd = t.push_traced(
                OpKind::Backward,
                Lane::GpuCompute,
                8e-4,
                0,
                10,
                Some(i as u32),
                &[fwd],
            );
            backwards.push(bwd);
            let store = t.push_traced(
                OpKind::StoreGrads,
                Lane::GpuComm,
                1e-4,
                960,
                5,
                Some(i as u32),
                &[bwd],
            );
            t.push_traced(
                OpKind::CpuAdamUpdate,
                Lane::CpuAdam,
                1.5e-4,
                0,
                5,
                Some(i as u32),
                &[store],
            );
            for j in (i + w + 1).min(m)..(i + w + 2).min(m) {
                let mut deps = vec![sched];
                if let Some(k) = j.checked_sub(w + 1) {
                    deps.push(backwards[k]);
                }
                gathers.push(t.push_traced(
                    OpKind::LoadParams,
                    Lane::GpuComm,
                    3e-4,
                    6400,
                    10,
                    Some(j as u32),
                    &deps,
                ));
            }
        }
        t
    }

    fn clm_trace() -> Trace {
        let mut w = TraceWriter::new(meta(1, 1));
        w.record_timeline(0, 0, &clm_timeline());
        w.finish()
    }

    #[test]
    fn exact_replay_reproduces_the_recording_bit_for_bit() {
        let trace = clm_trace();
        let replays = verify_exact(&trace).unwrap();
        assert_eq!(replays.len(), 1);
        let t = clm_timeline();
        assert_eq!(
            replays[0].timeline.makespan().to_bits(),
            t.makespan().to_bits()
        );
        for lane in Lane::ALL {
            assert_eq!(
                replays[0].timeline.busy_time(lane).to_bits(),
                t.busy_time(lane).to_bits(),
                "{lane:?}"
            );
        }
    }

    #[test]
    fn rebuild_at_recorded_window_is_exact() {
        let trace = clm_trace();
        let knobs = ReplayKnobs {
            window: Some(1),
            ..Default::default()
        };
        let rebuilt = replay_with_knobs(&trace, &knobs).unwrap();
        let recorded = clm_timeline();
        assert_eq!(rebuilt[0].timeline.ops().len(), recorded.ops().len());
        for (a, b) in rebuilt[0].timeline.ops().iter().zip(recorded.ops()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn one_device_window_replay_needs_no_cost_header_and_matches_the_pre_merge_rebuild() {
        // Fingerprints captured from the dedicated single-device rebuild
        // before it was folded into the one `rebuild`: a what-if window at
        // `devices = 1` keeps every recorded duration, so it must succeed
        // with an unusable cost header and reproduce those schedules bit
        // for bit — with and without per-kind scaling.
        let mut trace = clm_trace();
        trace.meta.cost = CostParams::default();
        assert!(!trace.meta.cost.usable());
        let fingerprint = |window: usize, devices: Option<usize>, scale: KindScale| {
            let knobs = ReplayKnobs {
                window: Some(window),
                devices,
                scale,
            };
            replay_with_knobs(&trace, &knobs).unwrap()[0]
                .timeline
                .fingerprint()
        };
        for devices in [None, Some(1)] {
            let identity = KindScale::default();
            assert_eq!(fingerprint(0, devices, identity), 0xf5bd_180e_16c5_86db);
            assert_eq!(fingerprint(2, devices, identity), 0x09b2_e059_afcc_0655);
            assert_eq!(
                fingerprint(1, devices, identity),
                clm_timeline().fingerprint(),
                "the recorded window is the recording"
            );
        }
        let scaled = KindScale {
            comm: 0.5,
            adam: 3.0,
            ..Default::default()
        };
        assert_eq!(fingerprint(0, Some(1), scaled), 0xa8d5_9ba0_995e_f814);
    }

    #[test]
    fn device_replay_is_unchanged_by_the_rebuild_merge() {
        // Same fixture re-sharded, fingerprints captured before the merge.
        let trace = clm_trace();
        let fingerprint = |window: Option<usize>, devices: usize| {
            let knobs = ReplayKnobs {
                window,
                devices: Some(devices),
                ..Default::default()
            };
            replay_with_knobs(&trace, &knobs).unwrap()[0]
                .timeline
                .fingerprint()
        };
        assert_eq!(fingerprint(None, 2), 0x3471_84bc_1ab7_dd49);
        assert_eq!(fingerprint(Some(0), 2), 0x2cf9_c542_a7fb_2b32);
        assert_eq!(fingerprint(None, 3), 0xf7da_0a90_3601_e55d);
    }

    #[test]
    fn window_zero_removes_overlap_and_extends_the_makespan() {
        let trace = clm_trace();
        let w0 = replay_with_knobs(
            &trace,
            &ReplayKnobs {
                window: Some(0),
                ..Default::default()
            },
        )
        .unwrap();
        let recorded = clm_timeline();
        assert!(
            w0[0].timeline.makespan() >= recorded.makespan(),
            "shrinking the window cannot speed the schedule up"
        );
    }

    #[test]
    fn device_replay_spreads_compute_across_lane_groups() {
        let trace = clm_trace();
        let sharded = replay_with_knobs(
            &trace,
            &ReplayKnobs {
                devices: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        let t = &sharded[0].timeline;
        assert!(t.busy_time(Lane::compute_of(0)) > 0.0);
        assert!(t.busy_time(Lane::compute_of(1)) > 0.0);
        assert!(t.time_by_kind(OpKind::AllReduce) > 0.0);
    }

    #[test]
    fn device_replay_without_cost_model_is_refused() {
        let mut trace = clm_trace();
        trace.meta.cost = CostParams::default();
        let err = replay_with_knobs(
            &trace,
            &ReplayKnobs {
                devices: Some(2),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, ReplayError::MissingCostModel);
    }

    #[test]
    fn scaled_replay_stretches_only_the_chosen_kind_class() {
        let trace = clm_trace();
        let scaled = replay_with_knobs(
            &trace,
            &ReplayKnobs {
                scale: KindScale {
                    comm: 2.0,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let recorded = clm_timeline();
        let t = &scaled[0].timeline;
        assert!(
            (t.time_by_kind(OpKind::LoadParams) - 2.0 * recorded.time_by_kind(OpKind::LoadParams))
                .abs()
                < 1e-15
        );
        assert_eq!(
            t.time_by_kind(OpKind::Forward).to_bits(),
            recorded.time_by_kind(OpKind::Forward).to_bits(),
            "identity-scaled kinds must not be perturbed"
        );
    }

    #[test]
    fn measured_traces_are_rejected() {
        let mut t = Timeline::new();
        t.push_span(OpKind::Forward, Lane::GpuCompute, 0.0, 1.0, 0, 1, Some(0));
        let mut w = TraceWriter::new(meta(1, 0));
        w.record_timeline(0, 0, &t);
        let trace = w.finish();
        assert_eq!(
            replay_exact(&trace).unwrap_err(),
            ReplayError::MeasuredTrace
        );
        assert_eq!(
            replay_with_knobs(
                &trace,
                &ReplayKnobs {
                    window: Some(2),
                    ..Default::default()
                }
            )
            .unwrap_err(),
            ReplayError::MeasuredTrace
        );
    }

    #[test]
    fn critical_path_walks_the_binding_chain() {
        let mut t = Timeline::new();
        let load = t.push_traced(OpKind::LoadParams, Lane::GpuComm, 2.0, 0, 0, None, &[]);
        let fwd = t.push_traced(OpKind::Forward, Lane::GpuCompute, 1.0, 0, 0, None, &[load]);
        // A short op on an idle lane that is NOT on the path.
        t.push_traced(OpKind::Scheduling, Lane::CpuScheduler, 0.5, 0, 0, None, &[]);
        t.push_traced(OpKind::Backward, Lane::GpuCompute, 3.0, 0, 0, None, &[fwd]);
        let cp = critical_path(&t);
        assert_eq!(cp.length_s, 6.0);
        assert_eq!(cp.ops, 3);
        let kinds: Vec<OpKind> = cp.time_by_kind.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![OpKind::Forward, OpKind::Backward, OpKind::LoadParams]
        );
        let total: f64 = cp.time_by_kind.iter().map(|(_, s)| s).sum();
        assert_eq!(total, 6.0);
    }

    #[test]
    fn critical_path_of_empty_timeline_is_zero() {
        let cp = critical_path(&Timeline::new());
        assert_eq!(cp.length_s, 0.0);
        assert_eq!(cp.ops, 0);
        assert!(cp.time_by_kind.is_empty());
    }
}
