//! The `.clmtrace` container: a run-level metadata block and a
//! varint-packed stream of every recorded batch's ops, as the body of a
//! [`crate::frame`] under [`MAGIC`] and [`FORMAT_VERSION`].  A decoded
//! [`Trace`] is the recorded batches' [`Timeline`]s themselves.
//!
//! # Body layout
//!
//! ```text
//! backend    varint length + UTF-8 bytes
//! scene      varint length + UTF-8 bytes
//! devices    varint
//! window     varint   prefetch window
//! seed       varint
//! cost       4 × f64 LE: PCIe latency, PCIe bandwidth, cost scale,
//!            peer-hop factor — then gradient bytes as a varint; what a
//!            replay under an altered device count re-prices with
//! count      varint   number of ops, across every batch
//! ops        packed   see below
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

use crate::frame::{self, DecodeError};
use crate::varint;
use clm_core::PriceList;
use sim_device::{DeviceProfile, Lane, OpKind, ScheduledOp, Timeline};

/// File magic of a `.clmtrace`.
pub const MAGIC: [u8; 8] = *b"CLMTRACE";

/// Current format version; decoding rejects anything else.
pub const FORMAT_VERSION: u32 = 2;

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

/// Run-level metadata: the trace's header, at the head of its body.
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
        let mut body = Vec::new();
        write_str(&mut body, &self.meta.backend);
        write_str(&mut body, &self.meta.scene);
        varint::write_u64(&mut body, u64::from(self.meta.devices));
        varint::write_u64(&mut body, u64::from(self.meta.prefetch_window));
        varint::write_u64(&mut body, self.meta.seed);
        body.extend_from_slice(&self.meta.cost.pcie_latency_s.to_le_bytes());
        body.extend_from_slice(&self.meta.cost.pcie_bandwidth.to_le_bytes());
        body.extend_from_slice(&self.meta.cost.cost_scale.to_le_bytes());
        body.extend_from_slice(&self.meta.cost.peer_hop_factor.to_le_bytes());
        varint::write_u64(&mut body, self.meta.cost.gradient_bytes);
        varint::write_u64(&mut body, self.ops().count() as u64);
        let mut last_start_bits = 0u64;
        let mut last_dur_bits = [0u64; OpKind::ALL.len()];
        for b in &self.batches {
            for op in b.timeline.ops() {
                varint::write_u64(&mut body, b.epoch);
                varint::write_u64(&mut body, b.batch);
                varint::write_u64(&mut body, u64::from(op.lane.code()));
                varint::write_u64(&mut body, u64::from(op.kind.code()));
                varint::write_u64(&mut body, op.microbatch.map_or(0, |m| u64::from(m) + 1));
                varint::write_u64(&mut body, op.rows);
                varint::write_u64(&mut body, op.bytes);
                last_start_bits = varint::write_f64_xor(&mut body, op.start, last_start_bits);
                let slot = op.kind.code() as usize;
                last_dur_bits[slot] = varint::write_f64_xor(&mut body, op.dur, last_dur_bits[slot]);
                varint::write_u64(&mut body, op.deps.len() as u64);
                for d in &op.deps {
                    varint::write_u64(&mut body, (op.id.index() - d.index()) as u64);
                }
            }
        }
        frame::encode(&MAGIC, FORMAT_VERSION, &body)
    }

    /// Decodes a `.clmtrace` byte buffer: the frame's checks first, then
    /// the body's.
    pub fn decode(data: &[u8]) -> Result<Trace, DecodeError> {
        let body = frame::decode(&MAGIC, FORMAT_VERSION, data)?;
        let mut pos = 0;
        let backend = read_str(body, &mut pos)?;
        let scene = read_str(body, &mut pos)?;
        let devices = narrow_u32(
            varint::read_u64(body, &mut pos)?,
            "devices exceeds u32 range",
        )?;
        let prefetch_window = narrow_u32(
            varint::read_u64(body, &mut pos)?,
            "prefetch window exceeds u32 range",
        )?;
        let seed = varint::read_u64(body, &mut pos)?;
        let pcie_latency_s = read_f64_le(body, &mut pos)?;
        let pcie_bandwidth = read_f64_le(body, &mut pos)?;
        let cost_scale = read_f64_le(body, &mut pos)?;
        let peer_hop_factor = read_f64_le(body, &mut pos)?;
        let gradient_bytes = varint::read_u64(body, &mut pos)?;
        let count = varint::read_u64(body, &mut pos)?;

        // Every op takes at least one body byte, so a false count fails
        // `Truncated` rather than allocating.
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
        let mut last_start_bits = 0u64;
        let mut last_dur_bits = [0u64; OpKind::ALL.len()];
        let mut deps = Vec::new();
        // The batch the ops read so far belong to; it joins the trace when
        // an op of another batch, or the end of the body, closes it.
        let mut open: Option<BatchTimeline> = None;
        for _ in 0..count {
            let epoch = varint::read_u64(body, &mut pos)?;
            let batch = varint::read_u64(body, &mut pos)?;
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
                varint::read_u64(body, &mut pos)?,
                "lane code exceeds u32 range",
            )?;
            let lane =
                Lane::from_code(lane_code).ok_or(DecodeError::Malformed("unknown lane code"))?;
            let kind_code = narrow_u32(
                varint::read_u64(body, &mut pos)?,
                "op-kind code exceeds u32 range",
            )?;
            let kind = OpKind::from_code(kind_code)
                .ok_or(DecodeError::Malformed("unknown op-kind code"))?;
            let mb_raw = varint::read_u64(body, &mut pos)?;
            let microbatch = if mb_raw == 0 {
                None
            } else {
                Some(narrow_u32(mb_raw - 1, "microbatch exceeds u32 range")?)
            };
            let rows = varint::read_u64(body, &mut pos)?;
            let bytes = varint::read_u64(body, &mut pos)?;
            let (start, sb) = varint::read_f64_xor(body, &mut pos, last_start_bits)?;
            last_start_bits = sb;
            let slot = kind.code() as usize;
            let (dur, db) = varint::read_f64_xor(body, &mut pos, last_dur_bits[slot])?;
            last_dur_bits[slot] = db;
            // `!(x >= 0)` also refuses NaN.
            if !(start >= 0.0 && dur >= 0.0) {
                return Err(DecodeError::Malformed("negative or NaN time"));
            }
            let index_in_batch = timeline.ops().len() as u64;
            let dep_count = varint::read_u64(body, &mut pos)?;
            deps.clear();
            for _ in 0..dep_count {
                let back = varint::read_u64(body, &mut pos)?;
                if back == 0 || back > index_in_batch {
                    return Err(DecodeError::Malformed(
                        "dependency outside the batch prefix",
                    ));
                }
                deps.push(timeline.ops()[(index_in_batch - back) as usize].id);
            }
            timeline.push_recorded(kind, lane, start, dur, bytes, rows, microbatch, &deps);
        }
        trace.batches.extend(open);
        if pos != body.len() {
            return Err(DecodeError::Malformed("trailing bytes after last op"));
        }
        Ok(trace)
    }
}

fn write_str(buf: &mut Vec<u8>, s: &str) {
    varint::write_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn read_str(data: &[u8], pos: &mut usize) -> Result<String, DecodeError> {
    let len = varint::read_u64(data, pos)? as usize;
    let end = pos.checked_add(len).ok_or(DecodeError::Truncated)?;
    let bytes = data.get(*pos..end).ok_or(DecodeError::Truncated)?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Malformed("non-UTF-8 string"))
}

fn read_f64_le(data: &[u8], pos: &mut usize) -> Result<f64, DecodeError> {
    Ok(f64::from_le_bytes(varint::read_array(data, pos)?))
}

/// `v` as a `u32`, or `Malformed(what)`: `what` names the field.
fn narrow_u32(v: u64, what: &'static str) -> Result<u32, DecodeError> {
    u32::try_from(v).map_err(|_| DecodeError::Malformed(what))
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
    fn a_flipped_header_field_is_refused() {
        // The seed and the cost scale sit in the body, inside the frame's
        // checksum: a flip there must not decode into another run.
        let trace = sample_trace();
        let bytes = trace.encode();
        let mut seed = trace.clone();
        seed.meta.seed += 1;
        let mut scale = trace.clone();
        scale.meta.cost.cost_scale *= 2.0;
        for other in [seed, scale] {
            let other = other.encode();
            let at = (frame::HEADER_BYTES..bytes.len())
                .find(|&i| bytes[i] != other[i])
                .unwrap();
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x01;
            assert_eq!(Trace::decode(&flipped), Err(DecodeError::ChecksumMismatch));
        }
    }

    /// A frame whose body is an empty trace's metadata, then `count` and
    /// `ops`.
    fn forge(count: u64, ops: &[u8]) -> Vec<u8> {
        let bytes = Trace::new(sample_meta()).encode();
        let mut body = frame::decode(&MAGIC, FORMAT_VERSION, &bytes)
            .unwrap()
            .to_vec();
        assert_eq!(body.pop(), Some(0), "the empty trace's op count");
        varint::write_u64(&mut body, count);
        body.extend_from_slice(ops);
        frame::encode(&MAGIC, FORMAT_VERSION, &body)
    }

    #[test]
    fn a_false_event_count_fails_truncated_without_allocating_it() {
        // An empty trace whose body claims 2^40 ops must fail at the first
        // missing byte.
        assert_eq!(
            Trace::decode(&forge(1 << 40, &[])),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn an_overflowing_string_length_fails_truncated() {
        // A backend-name length of u64::MAX must not overflow the read
        // position.
        let mut body = Vec::new();
        varint::write_u64(&mut body, u64::MAX);
        let bytes = frame::encode(&MAGIC, FORMAT_VERSION, &body);
        assert_eq!(Trace::decode(&bytes), Err(DecodeError::Truncated));
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
                Err(DecodeError::Malformed("negative or NaN time")),
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
