//! Property tests for the `.clmckpt` body: arbitrary snapshots must
//! round-trip encode→decode bit-identically and re-encode canonically.
//! The envelope's checks (magic, version, length, checksum) are tested once,
//! on the frame.

use clm_trace::Checkpoint;
use gs_core::math::Vec3;
use gs_core::{Gaussian, GaussianModel, PARAMS_PER_GAUSSIAN};
use gs_optim::AdamRowState;
use proptest::prelude::*;

/// Builds a checkpoint from sampled raw material: `rows` become the model's
/// parameter rows (and, transformed, the gradient norms and Adam moments),
/// so every byte of the container varies across cases.
fn checkpoint_from(seed: u64, batches: u64, rows: &[Vec<f32>], adam_rows: usize) -> Checkpoint {
    let n = rows.len();
    let mut model: GaussianModel = (0..n)
        .map(|_| Gaussian::isotropic(Vec3::ZERO, 0.1, [0.5; 3], 0.5))
        .collect();
    for (i, row) in rows.iter().enumerate() {
        let mut arr = [0.0f32; PARAMS_PER_GAUSSIAN];
        arr.copy_from_slice(row);
        model.set_param_row(i, &arr);
    }
    let grad_norms: Vec<f32> = rows.iter().map(|r| r[1].abs()).collect();
    let adam: Vec<AdamRowState> = rows
        .iter()
        .take(adam_rows.min(n))
        .enumerate()
        .map(|(i, r)| {
            let mut m = [0.0f32; PARAMS_PER_GAUSSIAN];
            let mut v = [0.0f32; PARAMS_PER_GAUSSIAN];
            m.copy_from_slice(r);
            for (k, x) in v.iter_mut().enumerate() {
                *x = r[PARAMS_PER_GAUSSIAN - 1 - k] * r[PARAMS_PER_GAUSSIAN - 1 - k];
            }
            AdamRowState {
                m,
                v,
                step: i as u64 * 3 + 1,
            }
        })
        .collect();
    Checkpoint {
        seed,
        batches_trained: batches,
        resize_events: batches / 10,
        last_resize_batch: if batches > 0 { Some(batches - 1) } else { None },
        bytes_gathered: batches.wrapping_mul(59 * 4),
        model,
        grad_norms,
        adam,
    }
}

proptest! {
    #[test]
    fn encode_decode_round_trips_bit_exactly(
        seed in 0u64..u64::MAX,
        batches in 0u64..100_000,
        rows in proptest::collection::vec(
            proptest::collection::vec(-8.0f32..8.0, PARAMS_PER_GAUSSIAN..PARAMS_PER_GAUSSIAN + 1),
            0..10,
        ),
        adam_rows in 0usize..10,
    ) {
        let ckpt = checkpoint_from(seed, batches, &rows, adam_rows);
        let bytes = ckpt.encode();
        let decoded = Checkpoint::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &ckpt);
        // Canonical: the decode re-encodes to the identical byte string.
        prop_assert_eq!(decoded.encode(), bytes);
    }
}
