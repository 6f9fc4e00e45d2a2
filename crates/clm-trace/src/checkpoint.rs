//! The `.clmckpt` container: a versioned, checksummed snapshot of training
//! state at a batch boundary, and its restore path.
//!
//! # Layout
//!
//! ```text
//! magic      8  bytes  b"CLMCKPT\0"
//! version    4  bytes  u32 LE (currently 1)
//! checksum   8  bytes  FNV-1a 64 of the payload, LE
//! payload:
//!   seed               varint   workload seed (restore sanity check)
//!   batches_trained    varint   the RNG/batch cursor
//!   resize_events      varint
//!   last_resize_batch  varint   0 = none, else value + 1
//!   warm flag          1 byte   0/1; if 1: an f64 LE follows (legacy, unread)
//!   bytes_gathered     varint   offload traffic counter
//!   (legacy)           varint   written as 0, read and dropped
//!   n                  varint   model length
//!   model rows         n × 59 f32 LE (param_row layout)
//!   grad norms         n × f32 LE
//!   adam rows          varint count (≤ n), each 59 f32 m + 59 f32 v,
//!                      both LE, then the step counter as a varint
//! ```
//!
//! Why a batch boundary: every backend drains its lanes there (the same
//! property densification relies on), the threaded backend has swapped its
//! back model in, the pinned host store is the model's SH column (so the
//! model rows carry it), and the only cursors live
//! training state needs are `batches_trained` (all plan/densify seeds
//! derive from it) and the resize boundary marker.  Snapshotting those plus
//! the model rows and the full Adam moment state therefore makes restore +
//! replay of the remaining batches bit-identical to the uninterrupted run —
//! the invariant the conformance suite's chaos leg asserts per backend.

use crate::format::{fnv1a, TraceError};
use crate::varint;
use clm_core::{TrainConfig, Trainer};
use gs_core::math::Vec3;
use gs_core::{Gaussian, GaussianModel, PARAMS_PER_GAUSSIAN};
use gs_optim::{AdamRowState, GaussianAdam};

/// File magic of a `.clmckpt`.
pub const CKPT_MAGIC: [u8; 8] = *b"CLMCKPT\0";

/// Current checkpoint schema version; decoding rejects anything else.
pub const CKPT_VERSION: u32 = 1;

/// Errors decoding or restoring a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum CkptError {
    /// The buffer does not start with [`CKPT_MAGIC`].
    BadMagic,
    /// The header's version is not [`CKPT_VERSION`].
    UnsupportedVersion(u32),
    /// The buffer ended mid-field.
    Truncated,
    /// The payload does not match the header checksum.
    ChecksumMismatch,
    /// A structurally invalid field.
    Malformed(&'static str),
    /// The checkpoint does not belong to the configuration it is being
    /// restored under.
    ConfigMismatch(&'static str),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a .clmckpt file (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (expected {CKPT_VERSION})"
                )
            }
            CkptError::Truncated => write!(f, "checkpoint truncated mid-field"),
            CkptError::ChecksumMismatch => write!(f, "checkpoint payload checksum mismatch"),
            CkptError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CkptError::ConfigMismatch(what) => {
                write!(f, "checkpoint does not match the run config: {what}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

impl From<TraceError> for CkptError {
    fn from(e: TraceError) -> Self {
        match e {
            TraceError::Truncated => CkptError::Truncated,
            TraceError::Malformed(what) => CkptError::Malformed(what),
            // The varint layer only raises the two variants above; anything
            // else would be a header error that cannot reach here.
            TraceError::BadMagic => CkptError::BadMagic,
            TraceError::UnsupportedVersion(v) => CkptError::UnsupportedVersion(v),
            TraceError::ChecksumMismatch => CkptError::ChecksumMismatch,
        }
    }
}

/// A decoded (or freshly captured) training snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Workload seed of the run the snapshot belongs to.
    pub seed: u64,
    /// Batches trained when the snapshot was taken — the cursor every
    /// plan-ordering and densification seed derives from.
    pub batches_trained: u64,
    /// Densification resizes applied so far.
    pub resize_events: u64,
    /// `batches_trained` value of the last applied resize, if any.
    pub last_resize_batch: Option<u64>,
    /// Legacy field of the v1 layout: the fetch/compute ratio a since-
    /// deleted window policy tracked.  Nothing reads it and every current
    /// caller writes `None`; it stays so files that carry it still decode
    /// without a format-version bump.
    pub warm_start_ratio: Option<f64>,
    /// Cumulative CPU→GPU gather traffic of the offload.
    pub bytes_gathered: u64,
    /// The model at the boundary.
    pub model: GaussianModel,
    /// Per-Gaussian positional-gradient norms accumulated since the last
    /// densification boundary.
    pub grad_norms: Vec<f32>,
    /// The optimiser's full moment state.
    pub adam: Vec<AdamRowState>,
}

impl Checkpoint {
    /// Captures the trainer's state at the current batch boundary.
    /// `warm_start_ratio` is the legacy field of that name; pass `None`.
    pub fn capture(trainer: &Trainer, warm_start_ratio: Option<f64>) -> Self {
        Checkpoint {
            seed: trainer.config().seed,
            batches_trained: trainer.batches_trained() as u64,
            resize_events: trainer.resize_events() as u64,
            last_resize_batch: trainer.last_resize_batch().map(|b| b as u64),
            warm_start_ratio,
            bytes_gathered: trainer.offloaded().bytes_gathered(),
            model: trainer.model().clone(),
            grad_norms: trainer.grad_norm_accum().to_vec(),
            adam: trainer.optimizer().export_rows(),
        }
    }

    /// Rebuilds a trainer from the snapshot.  `config` must be the run's
    /// training configuration (a checkpoint carries state, not policy);
    /// its seed is checked against the snapshot's.
    pub fn restore(&self, config: TrainConfig) -> Result<Trainer, CkptError> {
        if config.seed != self.seed {
            return Err(CkptError::ConfigMismatch("workload seed differs"));
        }
        if self.grad_norms.len() != self.model.len() {
            return Err(CkptError::Malformed("gradient norms do not match model"));
        }
        if self.adam.len() > self.model.len() {
            return Err(CkptError::Malformed("more optimiser rows than model rows"));
        }
        let optimizer = GaussianAdam::from_rows(config.adam.clone(), self.adam.clone());
        Ok(Trainer::from_checkpoint(
            self.model.clone(),
            optimizer,
            config,
            self.batches_trained as usize,
            self.grad_norms.clone(),
            self.resize_events as usize,
            self.last_resize_batch.map(|b| b as usize),
            self.bytes_gathered,
        ))
    }

    /// Serialises the snapshot to the `.clmckpt` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let n = self.model.len();
        let mut payload = Vec::with_capacity(n * PARAMS_PER_GAUSSIAN * 4 + 64);
        varint::write_u64(&mut payload, self.seed);
        varint::write_u64(&mut payload, self.batches_trained);
        varint::write_u64(&mut payload, self.resize_events);
        varint::write_u64(
            &mut payload,
            self.last_resize_batch.map(|b| b + 1).unwrap_or(0),
        );
        match self.warm_start_ratio {
            Some(r) => {
                payload.push(1);
                payload.extend_from_slice(&r.to_le_bytes());
            }
            None => payload.push(0),
        }
        varint::write_u64(&mut payload, self.bytes_gathered);
        varint::write_u64(&mut payload, 0);
        varint::write_u64(&mut payload, n as u64);
        for i in 0..n {
            for x in self.model.param_row(i) {
                payload.extend_from_slice(&x.to_le_bytes());
            }
        }
        for &g in &self.grad_norms {
            payload.extend_from_slice(&g.to_le_bytes());
        }
        varint::write_u64(&mut payload, self.adam.len() as u64);
        for row in &self.adam {
            for x in row.m {
                payload.extend_from_slice(&x.to_le_bytes());
            }
            for x in row.v {
                payload.extend_from_slice(&x.to_le_bytes());
            }
            varint::write_u64(&mut payload, row.step);
        }

        let mut out = Vec::with_capacity(payload.len() + 20);
        out.extend_from_slice(&CKPT_MAGIC);
        out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a `.clmckpt` byte buffer, validating magic, version and
    /// payload checksum.
    pub fn decode(data: &[u8]) -> Result<Checkpoint, CkptError> {
        if data.len() < CKPT_MAGIC.len() + 4 + 8 {
            return Err(CkptError::Truncated);
        }
        if data[..CKPT_MAGIC.len()] != CKPT_MAGIC {
            return Err(CkptError::BadMagic);
        }
        let mut pos = CKPT_MAGIC.len();
        let version = u32::from_le_bytes(varint::read_array(data, &mut pos)?);
        if version != CKPT_VERSION {
            return Err(CkptError::UnsupportedVersion(version));
        }
        let checksum = u64::from_le_bytes(varint::read_array(data, &mut pos)?);
        let payload = &data[pos..];
        if fnv1a(payload) != checksum {
            return Err(CkptError::ChecksumMismatch);
        }

        let mut pos = 0usize;
        let seed = varint::read_u64(payload, &mut pos)?;
        let batches_trained = varint::read_u64(payload, &mut pos)?;
        let resize_events = varint::read_u64(payload, &mut pos)?;
        let last_resize_raw = varint::read_u64(payload, &mut pos)?;
        let last_resize_batch = last_resize_raw.checked_sub(1);
        let warm_flag = *payload.get(pos).ok_or(CkptError::Truncated)?;
        pos += 1;
        let warm_start_ratio = match warm_flag {
            0 => None,
            1 => Some(f64::from_le_bytes(varint::read_array(payload, &mut pos)?)),
            _ => return Err(CkptError::Malformed("bad warm-start flag")),
        };
        let bytes_gathered = varint::read_u64(payload, &mut pos)?;
        varint::read_u64(payload, &mut pos)?;
        let n = varint::read_u64(payload, &mut pos)? as usize;
        // Each model row is its parameters plus its gradient norm: refuse a
        // count the bytes left cannot hold before building the model.
        if n > (payload.len() - pos) / ((PARAMS_PER_GAUSSIAN + 1) * 4) {
            return Err(CkptError::Truncated);
        }

        let mut model: GaussianModel = (0..n)
            .map(|_| Gaussian::isotropic(Vec3::ZERO, 0.1, [0.5; 3], 0.5))
            .collect();
        for i in 0..n {
            let mut row = [0.0f32; PARAMS_PER_GAUSSIAN];
            for x in row.iter_mut() {
                *x = read_f32_le(payload, &mut pos)?;
            }
            model.set_param_row(i, &row);
        }
        let mut grad_norms = Vec::with_capacity(n);
        for _ in 0..n {
            grad_norms.push(read_f32_le(payload, &mut pos)?);
        }
        let rows = varint::read_u64(payload, &mut pos)? as usize;
        if rows > n {
            return Err(CkptError::Malformed("more optimiser rows than model rows"));
        }
        let mut adam = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut m = [0.0f32; PARAMS_PER_GAUSSIAN];
            let mut v = [0.0f32; PARAMS_PER_GAUSSIAN];
            for x in m.iter_mut() {
                *x = read_f32_le(payload, &mut pos)?;
            }
            for x in v.iter_mut() {
                *x = read_f32_le(payload, &mut pos)?;
            }
            let step = varint::read_u64(payload, &mut pos)?;
            adam.push(AdamRowState { m, v, step });
        }
        if pos != payload.len() {
            return Err(CkptError::Malformed("trailing bytes after optimiser rows"));
        }
        Ok(Checkpoint {
            seed,
            batches_trained,
            resize_events,
            last_resize_batch,
            warm_start_ratio,
            bytes_gathered,
            model,
            grad_norms,
            adam,
        })
    }
}

fn read_f32_le(data: &[u8], pos: &mut usize) -> Result<f32, CkptError> {
    Ok(f32::from_le_bytes(varint::read_array(data, pos)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::math::Vec3;

    fn sample_trainer() -> Trainer {
        let model: GaussianModel = (0..7)
            .map(|i| {
                Gaussian::isotropic(
                    Vec3::new(i as f32 * 0.37, -(i as f32), 5.0 + i as f32),
                    0.2 + 0.01 * i as f32,
                    [0.2, 0.5, 0.8],
                    0.6,
                )
            })
            .collect();
        let config = TrainConfig {
            seed: 123,
            ..Default::default()
        };
        Trainer::new(model, config)
    }

    fn sample_checkpoint() -> Checkpoint {
        let trainer = sample_trainer();
        let mut ckpt = Checkpoint::capture(&trainer, Some(0.75));
        // Exercise the non-trivial fields.
        ckpt.batches_trained = 42;
        ckpt.resize_events = 2;
        ckpt.last_resize_batch = Some(40);
        ckpt.bytes_gathered = 1 << 33;
        for (i, g) in ckpt.grad_norms.iter_mut().enumerate() {
            *g = i as f32 * 0.125;
        }
        for (i, row) in ckpt.adam.iter_mut().enumerate() {
            row.step = i as u64;
            row.m[0] = 0.5 * i as f32;
            row.v[58] = 0.25;
        }
        ckpt
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.encode();
        let decoded = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(decoded, ckpt);
        // Canonical encoding: re-encoding the decode is byte-identical.
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn capture_restore_rebuilds_the_trainer_state() {
        let trainer = sample_trainer();
        let ckpt = Checkpoint::capture(&trainer, None);
        let restored = ckpt.restore(trainer.config().clone()).unwrap();
        assert_eq!(restored.model(), trainer.model());
        assert_eq!(restored.batches_trained(), trainer.batches_trained());
        assert_eq!(restored.resize_events(), trainer.resize_events());
        assert_eq!(restored.last_resize_batch(), trainer.last_resize_batch());
        assert_eq!(restored.grad_norm_accum(), trainer.grad_norm_accum());
        assert_eq!(
            restored.optimizer().export_rows(),
            trainer.optimizer().export_rows()
        );
        assert_eq!(
            restored.offloaded().bytes_gathered(),
            trainer.offloaded().bytes_gathered()
        );
    }

    #[test]
    fn restore_rejects_a_mismatched_seed() {
        let trainer = sample_trainer();
        let ckpt = Checkpoint::capture(&trainer, None);
        let other = TrainConfig {
            seed: 999,
            ..trainer.config().clone()
        };
        assert_eq!(
            ckpt.restore(other).unwrap_err(),
            CkptError::ConfigMismatch("workload seed differs")
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_checkpoint().encode();
        bytes[0] ^= 0xff;
        assert_eq!(Checkpoint::decode(&bytes), Err(CkptError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample_checkpoint().encode();
        bytes[8..12].copy_from_slice(&(CKPT_VERSION + 1).to_le_bytes());
        assert_eq!(
            Checkpoint::decode(&bytes),
            Err(CkptError::UnsupportedVersion(CKPT_VERSION + 1))
        );
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut bytes = sample_checkpoint().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(Checkpoint::decode(&bytes), Err(CkptError::ChecksumMismatch));
    }

    #[test]
    fn truncation_is_detected() {
        // Every proper prefix is refused without a panic: a cut header
        // fails `Truncated`, a cut payload its checksum.
        let bytes = sample_checkpoint().encode();
        for len in 0..bytes.len() {
            assert!(
                matches!(
                    Checkpoint::decode(&bytes[..len]),
                    Err(CkptError::Truncated | CkptError::ChecksumMismatch)
                ),
                "prefix {len} of {}",
                bytes.len()
            );
        }
    }

    #[test]
    fn a_row_count_the_bytes_cannot_hold_fails_truncated() {
        // A checksummed payload that claims 2^40 model rows and holds none
        // is refused before the model is built: seed, counters, warm-start
        // flag and traffic are zero, then the row count.
        let mut payload = vec![0u8; 7];
        varint::write_u64(&mut payload, 1 << 40);
        let mut bytes = CKPT_MAGIC.to_vec();
        bytes.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert_eq!(bytes.len(), 33);
        assert_eq!(Checkpoint::decode(&bytes), Err(CkptError::Truncated));
    }

    #[test]
    fn warm_start_flag_round_trips_both_ways() {
        let mut ckpt = sample_checkpoint();
        ckpt.warm_start_ratio = None;
        let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded.warm_start_ratio, None);
        ckpt.warm_start_ratio = Some(0.125);
        let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded.warm_start_ratio, Some(0.125));
    }
}
