//! The `.clmckpt` container: a snapshot of training state at a batch
//! boundary, as the body of a [`crate::frame`] under [`CKPT_MAGIC`] and
//! [`CKPT_VERSION`], and its restore path.
//!
//! # Body layout
//!
//! ```text
//! seed               varint   workload seed (restore sanity check)
//! batches_trained    varint   the RNG/batch cursor
//! resize_events      varint
//! last_resize_batch  varint   0 = none, else value + 1
//! bytes_gathered     varint   offload traffic counter
//! n                  varint   model length
//! model rows         n × 59 f32 LE (param_row layout)
//! grad norms         n × f32 LE
//! adam rows          varint count (≤ n), each 59 f32 m + 59 f32 v,
//!                    both LE, then the step counter as a varint
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

use crate::frame::{self, DecodeError};
use crate::varint;
use clm_core::{TrainConfig, Trainer};
use gs_core::{GaussianModel, PARAMS_PER_GAUSSIAN};
use gs_optim::{AdamRowState, GaussianAdam};

/// File magic of a `.clmckpt`.
pub const CKPT_MAGIC: [u8; 8] = *b"CLMCKPT\0";

/// Current checkpoint schema version; decoding rejects anything else.
pub const CKPT_VERSION: u32 = 2;

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
    /// Captures the trainer's state at the current batch boundary.  The
    /// second argument is a placeholder, always `None` (the payload type is
    /// uninhabited): the frozen benchmark harness calls
    /// `capture(&trainer, None)`.  Leaves with ROADMAP item 5(a).
    pub fn capture(trainer: &Trainer, _: Option<std::convert::Infallible>) -> Self {
        Checkpoint {
            seed: trainer.config().seed,
            batches_trained: trainer.batches_trained() as u64,
            resize_events: trainer.resize_events() as u64,
            last_resize_batch: trainer.last_resize_batch().map(|b| b as u64),
            bytes_gathered: trainer.offloaded().bytes_gathered(),
            model: trainer.model().clone(),
            grad_norms: trainer.grad_norm_accum().to_vec(),
            adam: trainer.optimizer().export_rows(),
        }
    }

    /// Rebuilds a trainer from the snapshot, moving its model and moment
    /// rows in.  `config` must be the run's training configuration (a
    /// checkpoint carries state, not policy); its seed is checked against
    /// the snapshot's.
    pub fn restore(self, config: TrainConfig) -> Result<Trainer, DecodeError> {
        if config.seed != self.seed {
            return Err(DecodeError::ConfigMismatch("workload seed differs"));
        }
        if self.grad_norms.len() != self.model.len() {
            return Err(DecodeError::Malformed("gradient norms do not match model"));
        }
        if self.adam.len() > self.model.len() {
            return Err(DecodeError::Malformed(
                "more optimiser rows than model rows",
            ));
        }
        let optimizer = GaussianAdam::from_rows(config.adam.clone(), self.adam);
        Ok(Trainer::from_checkpoint(
            self.model,
            optimizer,
            config,
            self.batches_trained as usize,
            self.grad_norms,
            self.resize_events as usize,
            self.last_resize_batch.map(|b| b as usize),
            self.bytes_gathered,
        ))
    }

    /// Serialises the snapshot to the `.clmckpt` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let n = self.model.len();
        // Parameters and a gradient norm per model row, two moment vectors
        // and a step varint per optimiser row: the body never reallocates.
        let model_row = (PARAMS_PER_GAUSSIAN + 1) * 4;
        let moment_row = 2 * PARAMS_PER_GAUSSIAN * 4 + 10;
        let mut body = Vec::with_capacity(n * model_row + self.adam.len() * moment_row + 64);
        varint::write_u64(&mut body, self.seed);
        varint::write_u64(&mut body, self.batches_trained);
        varint::write_u64(&mut body, self.resize_events);
        varint::write_u64(&mut body, self.last_resize_batch.map_or(0, |b| b + 1));
        varint::write_u64(&mut body, self.bytes_gathered);
        varint::write_u64(&mut body, n as u64);
        for i in 0..n {
            for x in self.model.param_row(i) {
                body.extend_from_slice(&x.to_le_bytes());
            }
        }
        for &g in &self.grad_norms {
            body.extend_from_slice(&g.to_le_bytes());
        }
        varint::write_u64(&mut body, self.adam.len() as u64);
        for row in &self.adam {
            for x in row.m {
                body.extend_from_slice(&x.to_le_bytes());
            }
            for x in row.v {
                body.extend_from_slice(&x.to_le_bytes());
            }
            varint::write_u64(&mut body, row.step);
        }
        frame::encode(&CKPT_MAGIC, CKPT_VERSION, &body)
    }

    /// Decodes a `.clmckpt` byte buffer: the frame's checks first, then
    /// the body's.
    pub fn decode(data: &[u8]) -> Result<Checkpoint, DecodeError> {
        let body = frame::decode(&CKPT_MAGIC, CKPT_VERSION, data)?;
        let mut pos = 0;
        let seed = varint::read_u64(body, &mut pos)?;
        let batches_trained = varint::read_u64(body, &mut pos)?;
        let resize_events = varint::read_u64(body, &mut pos)?;
        let last_resize_raw = varint::read_u64(body, &mut pos)?;
        let last_resize_batch = last_resize_raw.checked_sub(1);
        let bytes_gathered = varint::read_u64(body, &mut pos)?;
        let n = varint::read_u64(body, &mut pos)? as usize;
        // Each model row is its parameters plus its gradient norm: refuse a
        // count the bytes left cannot hold before building the model.
        if n > (body.len() - pos) / ((PARAMS_PER_GAUSSIAN + 1) * 4) {
            return Err(DecodeError::Truncated);
        }

        // Exactly `n` rows of capacity: `restore` moves these columns into
        // the trainer, so they must be sized like a clone's, not grown by
        // doubling (slack that also tips a column over malloc's mmap
        // threshold and makes each resume's layout differ).
        let mut model = GaussianModel::with_capacity(n);
        for _ in 0..n {
            model.push_param_row(&read_row(body, &mut pos)?);
        }
        let mut grad_norms = Vec::with_capacity(n);
        for _ in 0..n {
            grad_norms.push(read_f32_le(body, &mut pos)?);
        }
        let rows = varint::read_u64(body, &mut pos)? as usize;
        if rows > n {
            return Err(DecodeError::Malformed(
                "more optimiser rows than model rows",
            ));
        }
        let mut adam = Vec::with_capacity(rows);
        for _ in 0..rows {
            let m = read_row(body, &mut pos)?;
            let v = read_row(body, &mut pos)?;
            let step = varint::read_u64(body, &mut pos)?;
            adam.push(AdamRowState { m, v, step });
        }
        if pos != body.len() {
            return Err(DecodeError::Malformed(
                "trailing bytes after optimiser rows",
            ));
        }
        Ok(Checkpoint {
            seed,
            batches_trained,
            resize_events,
            last_resize_batch,
            bytes_gathered,
            model,
            grad_norms,
            adam,
        })
    }
}

fn read_f32_le(data: &[u8], pos: &mut usize) -> Result<f32, DecodeError> {
    Ok(f32::from_le_bytes(varint::read_array(data, pos)?))
}

/// Reads one row of [`PARAMS_PER_GAUSSIAN`] little-endian `f32`s in one
/// bounds-checked read.
fn read_row(data: &[u8], pos: &mut usize) -> Result<[f32; PARAMS_PER_GAUSSIAN], DecodeError> {
    let bytes: [u8; PARAMS_PER_GAUSSIAN * 4] = varint::read_array(data, pos)?;
    Ok(std::array::from_fn(|k| {
        f32::from_le_bytes([
            bytes[4 * k],
            bytes[4 * k + 1],
            bytes[4 * k + 2],
            bytes[4 * k + 3],
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::math::Vec3;
    use gs_core::Gaussian;

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
        let mut ckpt = Checkpoint::capture(&trainer, None);
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
            DecodeError::ConfigMismatch("workload seed differs")
        );
    }

    #[test]
    fn a_row_count_the_bytes_cannot_hold_fails_truncated() {
        // A framed body that claims 2^40 model rows and holds none is
        // refused before the model is built: seed, counters and traffic
        // are zero, then the row count.
        let mut body = vec![0u8; 5];
        varint::write_u64(&mut body, 1 << 40);
        let bytes = frame::encode(&CKPT_MAGIC, CKPT_VERSION, &body);
        assert_eq!(Checkpoint::decode(&bytes), Err(DecodeError::Truncated));
    }
}
