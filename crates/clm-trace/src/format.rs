//! The `.clmtrace` container: a versioned header, a run-level metadata
//! block, and a delta/varint-packed stream of [`TraceEvent`]s.
//!
//! # Layout
//!
//! ```text
//! magic      8  bytes  b"CLMTRACE"
//! version    4  bytes  u32 LE (currently 1)
//! meta       varint-packed: backend, scene, devices, prefetch window,
//!            seed, and the cost-model constants replay-under-altered-
//!            device-counts needs (PCIe latency/bandwidth, cost scale,
//!            peer-hop factor, gradient bytes)
//! count      varint   number of events
//! checksum   8  bytes  FNV-1a 64 of the event payload, LE
//! events     packed    see below
//! ```
//!
//! Each event packs, in order: epoch, batch, lane code, op-kind code,
//! micro-batch (+1, 0 = none), rows, bytes — all varints — then the start
//! time XOR-predicted against the previous event's start and the duration
//! XOR-predicted against the previous duration *of the same kind* (exact
//! f64 bit patterns either way; see [`crate::varint`]), and finally the
//! dependency list as backward distances within the batch.  Timelines are
//! per-batch, so dependency indices reset at every batch boundary.

use crate::varint;
use clm_core::PriceList;
use sim_device::{DeviceProfile, Lane, OpKind, Timeline};

/// File magic of a `.clmtrace`.
pub const MAGIC: [u8; 8] = *b"CLMTRACE";

/// Current format version; decoding rejects anything else.
pub const FORMAT_VERSION: u32 = 1;

/// Errors decoding (or structurally validating) a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The header's version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The buffer ended mid-field.
    Truncated,
    /// The event payload does not match the header checksum.
    ChecksumMismatch,
    /// A structurally invalid field (unknown lane/kind code, forward
    /// dependency, non-UTF-8 string, …).
    Malformed(&'static str),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a .clmtrace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (expected {FORMAT_VERSION})"
                )
            }
            TraceError::Truncated => write!(f, "trace truncated mid-field"),
            TraceError::ChecksumMismatch => write!(f, "event payload checksum mismatch"),
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// The transfer half of the recorded run's [`PriceList`]: what a replay
/// needs to re-cost communication when the device count is changed
/// (all-reduce chains, peer-hop gathers).  Zeroed when unknown — replays
/// that need it then refuse rather than guess.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostParams {
    /// Fixed per-transfer PCIe latency in seconds.
    pub pcie_latency_s: f64,
    /// PCIe bandwidth in bytes per second (one direction).
    pub pcie_bandwidth: f64,
    /// The run's row/byte cost multiplier.
    pub cost_scale: f64,
    /// Extra-hop multiplier for cross-shard gathers.
    pub peer_hop_factor: f64,
    /// Bytes per Gaussian of all-reduced gradient state.
    pub gradient_bytes: u64,
}

impl From<&PriceList> for CostParams {
    fn from(price: &PriceList) -> Self {
        CostParams {
            pcie_latency_s: price.device.pcie_latency,
            pcie_bandwidth: price.device.pcie_bandwidth,
            cost_scale: price.cost_scale,
            peer_hop_factor: price.peer_hop_factor,
            gradient_bytes: price.gradient_bytes,
        }
    }
}

impl CostParams {
    /// Whether every field is populated enough to re-cost transfers:
    /// bandwidth, cost scale and peer hop finite and positive, latency
    /// finite and non-negative, gradient rows non-empty.
    pub fn usable(&self) -> bool {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        positive(self.pcie_bandwidth)
            && positive(self.cost_scale)
            && positive(self.peer_hop_factor)
            && (0.0..f64::INFINITY).contains(&self.pcie_latency_s)
            && self.gradient_bytes > 0
    }

    /// The price list these parameters spell: the transfer rules the header
    /// records, over the RTX 4090's other rates, which a replay never reads.
    pub fn price_list(&self) -> PriceList {
        let device = DeviceProfile {
            pcie_bandwidth: self.pcie_bandwidth,
            pcie_latency: self.pcie_latency_s,
            ..DeviceProfile::rtx4090()
        };
        PriceList {
            peer_hop_factor: self.peer_hop_factor,
            gradient_bytes: self.gradient_bytes,
            ..PriceList::new(device, self.cost_scale, 1.0)
        }
    }
}

/// Run-level metadata stored in the trace header.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Backend that produced the trace (`synchronous` / `simulated` /
    /// `threaded` / `sharded`).
    pub backend: String,
    /// Scene / workload label.
    pub scene: String,
    /// Devices the recorded run used.
    pub devices: u32,
    /// Configured prefetch window of the recorded run.
    pub prefetch_window: u32,
    /// Workload seed.
    pub seed: u64,
    /// Cost-model constants for device-count replays.
    pub cost: CostParams,
}

/// One recorded operation.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Epoch of the batch the op belongs to.
    pub epoch: u64,
    /// Batch (within the run) the op belongs to.
    pub batch: u64,
    /// Lane the op ran on.
    pub lane: Lane,
    /// Work classification.
    pub kind: OpKind,
    /// Micro-batch within the batch, when the op belongs to one.
    pub microbatch: Option<u32>,
    /// Gaussian rows touched.
    pub rows: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Start time in seconds (batch-relative for simulated schedules,
    /// wall-clock offsets for measured spans).
    pub start: f64,
    /// Duration in seconds, exactly as scheduled/measured.
    pub dur: f64,
    /// Within-batch indices of the ops this one waited on (empty for
    /// measured spans).
    pub deps: Vec<u32>,
}

impl TraceEvent {
    /// End time, rounded exactly as the scheduler rounds it.
    pub fn end(&self) -> f64 {
        self.start + self.dur
    }
}

/// A decoded trace: run metadata plus the full event stream in recorded
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Run-level metadata.
    pub meta: TraceMeta,
    /// Every recorded op, grouped by batch in recording order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Consecutive per-batch runs of the event stream, as
    /// `(epoch, batch, events)`.
    pub fn batches(&self) -> Vec<(u64, u64, &[TraceEvent])> {
        let mut out = Vec::new();
        let mut start = 0;
        for i in 1..=self.events.len() {
            let boundary = i == self.events.len() || {
                let (a, b) = (&self.events[i - 1], &self.events[i]);
                (a.epoch, a.batch) != (b.epoch, b.batch)
            };
            if boundary && i > start {
                let e = &self.events[start];
                out.push((e.epoch, e.batch, &self.events[start..i]));
                start = i;
            }
        }
        out
    }

    /// Whether the trace carries dependency structure (simulated
    /// schedules do; measured wall-clock spans do not).
    pub fn has_deps(&self) -> bool {
        self.events.iter().any(|e| !e.deps.is_empty())
    }

    /// Serialises the trace to the `.clmtrace` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(self.events.len() * 12);
        let mut last_start_bits = 0u64;
        let mut last_dur_bits = [0u64; OpKind::ALL.len()];
        let mut batch_key: Option<(u64, u64)> = None;
        let mut index_in_batch: u64 = 0;
        for e in &self.events {
            if batch_key != Some((e.epoch, e.batch)) {
                batch_key = Some((e.epoch, e.batch));
                index_in_batch = 0;
            }
            varint::write_u64(&mut payload, e.epoch);
            varint::write_u64(&mut payload, e.batch);
            varint::write_u64(&mut payload, u64::from(e.lane.code()));
            varint::write_u64(&mut payload, u64::from(e.kind.code()));
            varint::write_u64(
                &mut payload,
                e.microbatch.map(|m| u64::from(m) + 1).unwrap_or(0),
            );
            varint::write_u64(&mut payload, e.rows);
            varint::write_u64(&mut payload, e.bytes);
            last_start_bits = varint::write_f64_xor(&mut payload, e.start, last_start_bits);
            let slot = e.kind.code() as usize;
            last_dur_bits[slot] = varint::write_f64_xor(&mut payload, e.dur, last_dur_bits[slot]);
            varint::write_u64(&mut payload, e.deps.len() as u64);
            for &d in &e.deps {
                debug_assert!(u64::from(d) < index_in_batch, "forward dependency");
                varint::write_u64(&mut payload, index_in_batch - u64::from(d));
            }
            index_in_batch += 1;
        }

        let mut out = Vec::with_capacity(payload.len() + 64);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        write_str(&mut out, &self.meta.backend);
        write_str(&mut out, &self.meta.scene);
        varint::write_u64(&mut out, u64::from(self.meta.devices));
        varint::write_u64(&mut out, u64::from(self.meta.prefetch_window));
        varint::write_u64(&mut out, self.meta.seed);
        out.extend_from_slice(&self.meta.cost.pcie_latency_s.to_le_bytes());
        out.extend_from_slice(&self.meta.cost.pcie_bandwidth.to_le_bytes());
        out.extend_from_slice(&self.meta.cost.cost_scale.to_le_bytes());
        out.extend_from_slice(&self.meta.cost.peer_hop_factor.to_le_bytes());
        varint::write_u64(&mut out, self.meta.cost.gradient_bytes);
        varint::write_u64(&mut out, self.events.len() as u64);
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a `.clmtrace` byte buffer, validating magic, version and
    /// payload checksum.
    pub fn decode(data: &[u8]) -> Result<Trace, TraceError> {
        if data.len() < MAGIC.len() + 4 {
            return Err(TraceError::Truncated);
        }
        if data[..MAGIC.len()] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut pos = MAGIC.len();
        let version = u32::from_le_bytes(
            data[pos..pos + 4]
                .try_into()
                .map_err(|_| TraceError::Truncated)?,
        );
        pos += 4;
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let backend = read_str(data, &mut pos)?;
        let scene = read_str(data, &mut pos)?;
        let devices = narrow_u32(varint::read_u64(data, &mut pos)?, "devices")?;
        let prefetch_window = narrow_u32(varint::read_u64(data, &mut pos)?, "prefetch window")?;
        let seed = varint::read_u64(data, &mut pos)?;
        let pcie_latency_s = read_f64_le(data, &mut pos)?;
        let pcie_bandwidth = read_f64_le(data, &mut pos)?;
        let cost_scale = read_f64_le(data, &mut pos)?;
        let peer_hop_factor = read_f64_le(data, &mut pos)?;
        let gradient_bytes = varint::read_u64(data, &mut pos)?;
        let count = varint::read_u64(data, &mut pos)? as usize;
        let checksum = u64::from_le_bytes(
            data.get(pos..pos + 8)
                .ok_or(TraceError::Truncated)?
                .try_into()
                .map_err(|_| TraceError::Truncated)?,
        );
        pos += 8;
        let payload = &data[pos..];
        if fnv1a(payload) != checksum {
            return Err(TraceError::ChecksumMismatch);
        }

        let mut events = Vec::with_capacity(count);
        let mut pos = 0usize;
        let mut last_start_bits = 0u64;
        let mut last_dur_bits = [0u64; OpKind::ALL.len()];
        let mut batch_key: Option<(u64, u64)> = None;
        let mut index_in_batch: u64 = 0;
        for _ in 0..count {
            let epoch = varint::read_u64(payload, &mut pos)?;
            let batch = varint::read_u64(payload, &mut pos)?;
            if batch_key != Some((epoch, batch)) {
                batch_key = Some((epoch, batch));
                index_in_batch = 0;
            }
            let lane_code = narrow_u32(varint::read_u64(payload, &mut pos)?, "lane code")?;
            let lane =
                Lane::from_code(lane_code).ok_or(TraceError::Malformed("unknown lane code"))?;
            let kind_code = narrow_u32(varint::read_u64(payload, &mut pos)?, "op-kind code")?;
            let kind = OpKind::from_code(kind_code)
                .ok_or(TraceError::Malformed("unknown op-kind code"))?;
            let mb_raw = varint::read_u64(payload, &mut pos)?;
            let microbatch = if mb_raw == 0 {
                None
            } else {
                Some(narrow_u32(mb_raw - 1, "microbatch")?)
            };
            let rows = varint::read_u64(payload, &mut pos)?;
            let bytes = varint::read_u64(payload, &mut pos)?;
            let (start, sb) = varint::read_f64_xor(payload, &mut pos, last_start_bits)?;
            last_start_bits = sb;
            let slot = kind.code() as usize;
            let (dur, db) = varint::read_f64_xor(payload, &mut pos, last_dur_bits[slot])?;
            last_dur_bits[slot] = db;
            let dep_count = varint::read_u64(payload, &mut pos)? as usize;
            let mut deps = Vec::with_capacity(dep_count);
            for _ in 0..dep_count {
                let back = varint::read_u64(payload, &mut pos)?;
                if back == 0 || back > index_in_batch {
                    return Err(TraceError::Malformed("dependency outside the batch prefix"));
                }
                deps.push(narrow_u32(index_in_batch - back, "dependency index")?);
            }
            events.push(TraceEvent {
                epoch,
                batch,
                lane,
                kind,
                microbatch,
                rows,
                bytes,
                start,
                dur,
                deps,
            });
            index_in_batch += 1;
        }
        if pos != payload.len() {
            return Err(TraceError::Malformed("trailing bytes after last event"));
        }
        Ok(Trace {
            meta: TraceMeta {
                backend,
                scene,
                devices,
                prefetch_window,
                seed,
                cost: CostParams {
                    pcie_latency_s,
                    pcie_bandwidth,
                    cost_scale,
                    peer_hop_factor,
                    gradient_bytes,
                },
            },
            events,
        })
    }
}

/// Collects scheduled ops into a [`Trace`], one batch-scoped timeline at a
/// time; every backend records through it.
#[derive(Debug)]
pub struct TraceWriter {
    meta: TraceMeta,
    events: Vec<TraceEvent>,
}

impl TraceWriter {
    /// Creates a writer for a run described by `meta`.
    pub fn new(meta: TraceMeta) -> Self {
        TraceWriter {
            meta,
            events: Vec::new(),
        }
    }

    /// Appends every op of a batch-scoped timeline, in submission order, to
    /// the trace, attributed to `(epoch, batch)`.
    pub fn record_timeline(&mut self, epoch: u64, batch: u64, timeline: &Timeline) {
        self.events
            .extend(timeline.ops().iter().map(|op| TraceEvent {
                epoch,
                batch,
                lane: op.lane,
                kind: op.kind,
                microbatch: op.microbatch,
                rows: op.rows,
                bytes: op.bytes,
                start: op.start,
                dur: op.dur,
                deps: op.deps.iter().map(|d| d.index() as u32).collect(),
            }));
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finalises the writer into a [`Trace`].
    pub fn finish(self) -> Trace {
        Trace {
            meta: self.meta,
            events: self.events,
        }
    }
}

fn write_str(buf: &mut Vec<u8>, s: &str) {
    varint::write_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn read_str(data: &[u8], pos: &mut usize) -> Result<String, TraceError> {
    let len = varint::read_u64(data, pos)? as usize;
    let bytes = data.get(*pos..*pos + len).ok_or(TraceError::Truncated)?;
    *pos += len;
    String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::Malformed("non-UTF-8 string"))
}

fn read_f64_le(data: &[u8], pos: &mut usize) -> Result<f64, TraceError> {
    let bytes = data.get(*pos..*pos + 8).ok_or(TraceError::Truncated)?;
    *pos += 8;
    Ok(f64::from_le_bytes(bytes.try_into().unwrap()))
}

fn narrow_u32(v: u64, what: &'static str) -> Result<u32, TraceError> {
    u32::try_from(v).map_err(|_| {
        // The field name is reported through the generic message — keeping
        // TraceError allocation-free matters more than per-field detail.
        let _ = what;
        TraceError::Malformed("field exceeds u32 range")
    })
}

/// FNV-1a 64-bit hash.
pub(crate) fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> TraceMeta {
        TraceMeta {
            backend: "simulated".into(),
            scene: "smoke".into(),
            devices: 1,
            prefetch_window: 2,
            seed: 29,
            cost: CostParams {
                pcie_latency_s: 10.0e-6,
                pcie_bandwidth: 25.0e9,
                cost_scale: 107_619.047,
                peer_hop_factor: 2.0,
                gradient_bytes: 96,
            },
        }
    }

    fn sample_trace() -> Trace {
        let mut t = Timeline::new();
        let load = t.push_traced(
            OpKind::LoadParams,
            Lane::GpuComm,
            1.5e-3,
            640,
            10,
            Some(0),
            &[],
        );
        let fwd = t.push_traced(
            OpKind::Forward,
            Lane::GpuCompute,
            2.5e-3,
            0,
            10,
            Some(0),
            &[load],
        );
        t.push_traced(
            OpKind::Backward,
            Lane::GpuCompute,
            5.0e-3,
            0,
            10,
            Some(0),
            &[fwd],
        );
        let mut w = TraceWriter::new(sample_meta());
        w.record_timeline(0, 0, &t);
        let mut t2 = Timeline::new();
        t2.push_traced(
            OpKind::Scheduling,
            Lane::CpuScheduler,
            1.0e-4,
            0,
            90,
            None,
            &[],
        );
        w.record_timeline(0, 1, &t2);
        w.finish()
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let trace = sample_trace();
        let bytes = trace.encode();
        let decoded = Trace::decode(&bytes).unwrap();
        assert_eq!(decoded, trace);
        // Re-encoding the decode is byte-identical (canonical encoding).
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn batches_groups_consecutive_runs() {
        let trace = sample_trace();
        let batches = trace.batches();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].2.len(), 3);
        assert_eq!(batches[1].2.len(), 1);
        assert_eq!((batches[1].0, batches[1].1), (0, 1));
        assert!(trace.has_deps());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_trace().encode();
        bytes[0] ^= 0xff;
        assert_eq!(Trace::decode(&bytes), Err(TraceError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample_trace().encode();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            Trace::decode(&bytes),
            Err(TraceError::UnsupportedVersion(FORMAT_VERSION + 1))
        );
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut bytes = sample_trace().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(Trace::decode(&bytes), Err(TraceError::ChecksumMismatch));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_trace().encode();
        assert!(Trace::decode(&bytes[..4]).is_err());
        // A cut anywhere in the payload breaks the checksum (or truncates).
        assert!(Trace::decode(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn measured_spans_round_trip_without_deps() {
        let mut t = Timeline::new();
        t.push_span(OpKind::Forward, Lane::GpuCompute, 0.25, 0.5, 0, 42, Some(0));
        let mut w = TraceWriter::new(sample_meta());
        w.record_timeline(0, 0, &t);
        let trace = w.finish();
        assert!(!trace.has_deps());
        let decoded = Trace::decode(&trace.encode()).unwrap();
        assert_eq!(decoded.events[0].start, 0.25);
        assert_eq!(decoded.events[0].dur, 0.25);
        assert_eq!(decoded.events[0].rows, 42);
    }
}
