//! Property tests for the `.clmckpt` container, mirroring the `.clmtrace`
//! format tests: arbitrary snapshots must round-trip encode→decode
//! bit-identically, re-encode canonically, and reject schema-version or
//! checksum tampering.

use clm_trace::{Checkpoint, CkptError, CKPT_VERSION};
use gs_core::math::Vec3;
use gs_core::{Gaussian, GaussianModel, PARAMS_PER_GAUSSIAN};
use gs_optim::AdamRowState;
use proptest::prelude::*;

/// Builds a checkpoint from sampled raw material: `rows` become the model's
/// parameter rows (and, transformed, the gradient norms and Adam moments),
/// so every byte of the container varies across cases.
fn checkpoint_from(
    seed: u64,
    batches: u64,
    warm: Option<f64>,
    rows: &[Vec<f32>],
    adam_rows: usize,
) -> Checkpoint {
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
        warm_start_ratio: warm,
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
        warm_raw in 0.0f64..1.0,
        rows in proptest::collection::vec(
            proptest::collection::vec(-8.0f32..8.0, PARAMS_PER_GAUSSIAN..PARAMS_PER_GAUSSIAN + 1),
            0..10,
        ),
        adam_rows in 0usize..10,
        with_warm in 0u8..2,
    ) {
        let warm = (with_warm == 1).then_some(warm_raw);
        let ckpt = checkpoint_from(seed, batches, warm, &rows, adam_rows);
        let bytes = ckpt.encode();
        let decoded = Checkpoint::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &ckpt);
        // Canonical: the decode re-encodes to the identical byte string.
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn foreign_schema_versions_are_rejected(
        version in 0u32..1000,
        rows in proptest::collection::vec(
            proptest::collection::vec(-1.0f32..1.0, PARAMS_PER_GAUSSIAN..PARAMS_PER_GAUSSIAN + 1),
            1..4,
        ),
    ) {
        prop_assume!(version != CKPT_VERSION);
        let mut bytes = checkpoint_from(7, 3, None, &rows, 1).encode();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            Checkpoint::decode(&bytes),
            Err(CkptError::UnsupportedVersion(version))
        );
    }

    #[test]
    fn payload_bit_flips_never_decode_silently(
        flip in 20usize..4096,
        rows in proptest::collection::vec(
            proptest::collection::vec(-2.0f32..2.0, PARAMS_PER_GAUSSIAN..PARAMS_PER_GAUSSIAN + 1),
            1..6,
        ),
    ) {
        let ckpt = checkpoint_from(11, 9, Some(0.5), &rows, 2);
        let mut bytes = ckpt.encode();
        let idx = 20 + flip % (bytes.len() - 20);
        bytes[idx] ^= 0x40;
        // A flipped payload byte must fail the checksum; it must never
        // produce a "successfully decoded" different checkpoint.
        prop_assert_eq!(Checkpoint::decode(&bytes), Err(CkptError::ChecksumMismatch));
    }

    #[test]
    fn truncation_at_any_point_errors(
        cut in 0usize..4096,
        rows in proptest::collection::vec(
            proptest::collection::vec(-2.0f32..2.0, PARAMS_PER_GAUSSIAN..PARAMS_PER_GAUSSIAN + 1),
            1..5,
        ),
    ) {
        let bytes = checkpoint_from(3, 5, None, &rows, 1).encode();
        let cut = cut % bytes.len();
        prop_assert!(Checkpoint::decode(&bytes[..cut]).is_err());
    }
}
