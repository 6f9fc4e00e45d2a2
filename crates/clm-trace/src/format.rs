//! The `.clmtrace` container: a versioned header, a run-level metadata
//! block, and a varint-packed stream of every recorded batch's ops.  A
//! decoded [`Trace`] is the recorded batches' [`Timeline`]s themselves.
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
//! count      varint   number of ops, across every batch
//! checksum   8  bytes  FNV-1a 64 of the op payload, LE
//! ops        packed    see below
//! ```
//!
//! Each op packs, in order: epoch, batch, lane code, op-kind code,
//! micro-batch (+1, 0 = none), rows, bytes — all plain varints — then the
//! start time XOR-predicted against the previous op's start and the
//! duration XOR-predicted against the previous duration *of the same kind*
//! (exact f64 bit patterns either way; see [`crate::varint`]), and finally
//! the dependency list as backward distances within the batch.  A batch
//! ends where the (epoch, batch) pair changes; its ops rebuild one
//! [`Timeline`] through [`Timeline::push_recorded`], which keeps every
//! recorded start, duration and edge.

use crate::varint;
use clm_core::PriceList;
use sim_device::{DeviceProfile, Lane, OpKind, ScheduledOp, Timeline};

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
    /// The op payload does not match the header checksum.
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
            TraceError::ChecksumMismatch => write!(f, "op payload checksum mismatch"),
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

/// One batch's schedule as its executor reported it.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTimeline {
    /// Epoch of the batch.
    pub epoch: u64,
    /// Batch (within the run).
    pub batch: u64,
    /// Every op of the batch in submission order: start times are
    /// batch-relative for simulated schedules and wall-clock offsets for
    /// measured spans, and dependency edges index within the batch (none
    /// for measured spans).
    pub timeline: Timeline,
}

/// A trace: run metadata plus every recorded batch's schedule, in
/// recording order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Run-level metadata.
    pub meta: TraceMeta,
    /// The recorded batches, none of them empty.
    pub batches: Vec<BatchTimeline>,
}

impl Trace {
    /// An empty trace of the run `meta` describes.
    pub fn new(meta: TraceMeta) -> Self {
        Trace {
            meta,
            batches: Vec::new(),
        }
    }

    /// Records one batch's timeline, attributed to `(epoch, batch)`; a
    /// timeline with no ops records nothing.
    ///
    /// # Panics
    /// Panics if `(epoch, batch)` is the previous recorded batch's: the
    /// encoding tells batches apart by that pair changing.
    pub fn record(&mut self, epoch: u64, batch: u64, timeline: Timeline) {
        if timeline.ops().is_empty() {
            return;
        }
        assert!(
            self.batches
                .last()
                .is_none_or(|b| (b.epoch, b.batch) != (epoch, batch)),
            "batch ({epoch}, {batch}) recorded twice in a row"
        );
        self.batches.push(BatchTimeline {
            epoch,
            batch,
            timeline,
        });
    }

    /// Every recorded op, batch after batch.
    pub fn ops(&self) -> impl Iterator<Item = &ScheduledOp> {
        self.batches.iter().flat_map(|b| b.timeline.ops())
    }

    /// Whether the trace carries dependency structure (simulated
    /// schedules do; measured wall-clock spans do not).
    pub fn has_deps(&self) -> bool {
        self.ops().any(|op| !op.deps.is_empty())
    }

    /// Serialises the trace to the `.clmtrace` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        let mut last_start_bits = 0u64;
        let mut last_dur_bits = [0u64; OpKind::ALL.len()];
        for b in &self.batches {
            for op in b.timeline.ops() {
                varint::write_u64(&mut payload, b.epoch);
                varint::write_u64(&mut payload, b.batch);
                varint::write_u64(&mut payload, u64::from(op.lane.code()));
                varint::write_u64(&mut payload, u64::from(op.kind.code()));
                varint::write_u64(&mut payload, op.microbatch.map_or(0, |m| u64::from(m) + 1));
                varint::write_u64(&mut payload, op.rows);
                varint::write_u64(&mut payload, op.bytes);
                last_start_bits = varint::write_f64_xor(&mut payload, op.start, last_start_bits);
                let slot = op.kind.code() as usize;
                last_dur_bits[slot] =
                    varint::write_f64_xor(&mut payload, op.dur, last_dur_bits[slot]);
                varint::write_u64(&mut payload, op.deps.len() as u64);
                for d in &op.deps {
                    varint::write_u64(&mut payload, (op.id.index() - d.index()) as u64);
                }
            }
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
        varint::write_u64(&mut out, self.ops().count() as u64);
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
        let version = u32::from_le_bytes(varint::read_array(data, &mut pos)?);
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let backend = read_str(data, &mut pos)?;
        let scene = read_str(data, &mut pos)?;
        let devices = narrow_u32(
            varint::read_u64(data, &mut pos)?,
            "devices exceeds u32 range",
        )?;
        let prefetch_window = narrow_u32(
            varint::read_u64(data, &mut pos)?,
            "prefetch window exceeds u32 range",
        )?;
        let seed = varint::read_u64(data, &mut pos)?;
        let pcie_latency_s = read_f64_le(data, &mut pos)?;
        let pcie_bandwidth = read_f64_le(data, &mut pos)?;
        let cost_scale = read_f64_le(data, &mut pos)?;
        let peer_hop_factor = read_f64_le(data, &mut pos)?;
        let gradient_bytes = varint::read_u64(data, &mut pos)?;
        let count = varint::read_u64(data, &mut pos)?;
        let checksum = u64::from_le_bytes(varint::read_array(data, &mut pos)?);
        let payload = &data[pos..];
        if fnv1a(payload) != checksum {
            return Err(TraceError::ChecksumMismatch);
        }

        // The count is outside the checksum: every op takes at least one
        // payload byte, so a false count fails `Truncated`, not allocates.
        let mut trace = Trace::new(TraceMeta {
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
        });
        let mut pos = 0usize;
        let mut last_start_bits = 0u64;
        let mut last_dur_bits = [0u64; OpKind::ALL.len()];
        let mut deps = Vec::new();
        // The batch the ops read so far belong to; it joins the trace when
        // an op of another batch, or the end of the payload, closes it.
        let mut open: Option<BatchTimeline> = None;
        for _ in 0..count {
            let epoch = varint::read_u64(payload, &mut pos)?;
            let batch = varint::read_u64(payload, &mut pos)?;
            let current = match open.take() {
                Some(b) if (b.epoch, b.batch) == (epoch, batch) => b,
                closed => {
                    trace.batches.extend(closed);
                    let timeline = Timeline::new();
                    BatchTimeline {
                        epoch,
                        batch,
                        timeline,
                    }
                }
            };
            let timeline = &mut open.insert(current).timeline;
            let lane_code = narrow_u32(
                varint::read_u64(payload, &mut pos)?,
                "lane code exceeds u32 range",
            )?;
            let lane =
                Lane::from_code(lane_code).ok_or(TraceError::Malformed("unknown lane code"))?;
            let kind_code = narrow_u32(
                varint::read_u64(payload, &mut pos)?,
                "op-kind code exceeds u32 range",
            )?;
            let kind = OpKind::from_code(kind_code)
                .ok_or(TraceError::Malformed("unknown op-kind code"))?;
            let mb_raw = varint::read_u64(payload, &mut pos)?;
            let microbatch = if mb_raw == 0 {
                None
            } else {
                Some(narrow_u32(mb_raw - 1, "microbatch exceeds u32 range")?)
            };
            let rows = varint::read_u64(payload, &mut pos)?;
            let bytes = varint::read_u64(payload, &mut pos)?;
            let (start, sb) = varint::read_f64_xor(payload, &mut pos, last_start_bits)?;
            last_start_bits = sb;
            let slot = kind.code() as usize;
            let (dur, db) = varint::read_f64_xor(payload, &mut pos, last_dur_bits[slot])?;
            last_dur_bits[slot] = db;
            // `!(x >= 0)` also refuses NaN.
            if !(start >= 0.0 && dur >= 0.0) {
                return Err(TraceError::Malformed("negative or NaN time"));
            }
            let index_in_batch = timeline.ops().len() as u64;
            let dep_count = varint::read_u64(payload, &mut pos)?;
            deps.clear();
            for _ in 0..dep_count {
                let back = varint::read_u64(payload, &mut pos)?;
                if back == 0 || back > index_in_batch {
                    return Err(TraceError::Malformed("dependency outside the batch prefix"));
                }
                deps.push(timeline.ops()[(index_in_batch - back) as usize].id);
            }
            timeline.push_recorded(kind, lane, start, dur, bytes, rows, microbatch, &deps);
        }
        trace.batches.extend(open);
        if pos != payload.len() {
            return Err(TraceError::Malformed("trailing bytes after last op"));
        }
        Ok(trace)
    }
}

fn write_str(buf: &mut Vec<u8>, s: &str) {
    varint::write_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn read_str(data: &[u8], pos: &mut usize) -> Result<String, TraceError> {
    let len = varint::read_u64(data, pos)? as usize;
    let end = pos.checked_add(len).ok_or(TraceError::Truncated)?;
    let bytes = data.get(*pos..end).ok_or(TraceError::Truncated)?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::Malformed("non-UTF-8 string"))
}

fn read_f64_le(data: &[u8], pos: &mut usize) -> Result<f64, TraceError> {
    Ok(f64::from_le_bytes(varint::read_array(data, pos)?))
}

/// `v` as a `u32`, or `Malformed(what)`: `what` names the field.
fn narrow_u32(v: u64, what: &'static str) -> Result<u32, TraceError> {
    u32::try_from(v).map_err(|_| TraceError::Malformed(what))
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
        let mut trace = Trace::new(sample_meta());
        trace.record(0, 0, t);
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
        trace.record(0, 1, t2);
        trace.record(0, 2, Timeline::new());
        trace
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
    fn decode_splits_the_ops_into_their_batches() {
        let decoded = Trace::decode(&sample_trace().encode()).unwrap();
        // The empty third timeline recorded nothing.
        let batches: Vec<_> = decoded
            .batches
            .iter()
            .map(|b| (b.epoch, b.batch, b.timeline.ops().len()))
            .collect();
        assert_eq!(batches, [(0, 0, 3), (0, 1, 1)]);
        assert_eq!(decoded.ops().count(), 4);
        assert!(decoded.has_deps());
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
        // Every proper prefix is refused without a panic: a cut header
        // fails `Truncated`, a cut payload its checksum.
        let bytes = sample_trace().encode();
        for len in 0..bytes.len() {
            assert!(
                matches!(
                    Trace::decode(&bytes[..len]),
                    Err(TraceError::Truncated | TraceError::ChecksumMismatch)
                ),
                "prefix {len} of {}",
                bytes.len()
            );
        }
    }

    /// An empty trace's header with the op count and payload replaced.
    fn forge(count: u64, payload: &[u8]) -> Vec<u8> {
        let bytes = Trace::new(sample_meta()).encode();
        let count_at = bytes.len() - 9; // then the empty payload's checksum
        assert_eq!(bytes[count_at], 0);
        let mut forged = bytes[..count_at].to_vec();
        varint::write_u64(&mut forged, count);
        forged.extend_from_slice(&fnv1a(payload).to_le_bytes());
        forged.extend_from_slice(payload);
        forged
    }

    #[test]
    fn a_false_event_count_fails_truncated_without_allocating_it() {
        // The count sits outside the payload checksum: an empty trace whose
        // header claims 2^40 ops must fail at the first missing byte.
        assert_eq!(
            Trace::decode(&forge(1 << 40, &[])),
            Err(TraceError::Truncated)
        );
    }

    #[test]
    fn an_overflowing_string_length_fails_truncated() {
        // The header sits outside the checksum: a backend-name length of
        // u64::MAX must not overflow the read position.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        varint::write_u64(&mut bytes, u64::MAX);
        assert_eq!(Trace::decode(&bytes), Err(TraceError::Truncated));
    }

    #[test]
    fn negative_or_nan_times_are_malformed() {
        for (start, dur) in [(-1.0, 0.5), (0.5, -1.0), (f64::NAN, 0.5), (0.5, f64::NAN)] {
            let mut op = Vec::new();
            // epoch, batch, lane, kind, micro-batch, rows, bytes
            let (lane, kind) = (Lane::GpuCompute.code(), OpKind::Forward.code());
            for field in [0, 0, u64::from(lane), u64::from(kind), 0, 0, 0] {
                varint::write_u64(&mut op, field);
            }
            varint::write_f64_xor(&mut op, start, 0);
            varint::write_f64_xor(&mut op, dur, 0);
            varint::write_u64(&mut op, 0); // no dependencies
            assert_eq!(
                Trace::decode(&forge(1, &op)),
                Err(TraceError::Malformed("negative or NaN time")),
                "start {start}, dur {dur}"
            );
        }
    }

    #[test]
    fn measured_spans_round_trip_without_deps() {
        let mut t = Timeline::new();
        t.push_span(OpKind::Forward, Lane::GpuCompute, 0.25, 0.5, 0, 42, Some(0));
        let mut trace = Trace::new(sample_meta());
        trace.record(0, 0, t);
        assert!(!trace.has_deps());
        let decoded = Trace::decode(&trace.encode()).unwrap();
        assert_eq!(decoded, trace);
        let op = &decoded.batches[0].timeline.ops()[0];
        assert_eq!((op.start, op.dur, op.end, op.rows), (0.25, 0.25, 0.5, 42));
    }
}
