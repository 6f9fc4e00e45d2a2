//! LEB128 variable-length integers, the f64 packing and the fixed-width
//! field reader the trace and checkpoint formats are built on.
//!
//! Integer fields (epoch, batch, counts, codes, byte volumes, dependency
//! distances) are plain unsigned varints.  Times are exact f64 **bit
//! patterns** — never quantised ticks, since deterministic replay requires
//! re-pushing the very same durations — XORed against a running predictor
//! so repeated values (identical per-micro-batch costs, zero-length ops)
//! collapse to one byte.
//! The XOR residue is byte-swapped before the varint so the frequently-zero
//! low mantissa bytes land in the varint's high positions and drop off.

use crate::frame::DecodeError;

/// Appends `v` to `buf` as an unsigned LEB128 varint.
pub fn write_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint from `data` at `*pos`, advancing it.
pub fn read_u64(data: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        // The tenth byte holds bit 63 alone: anything above 1 would shift
        // out of the u64.
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(DecodeError::Malformed("varint longer than 64 bits"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends an f64 as `swap_bytes(bits ^ prev)` varint and returns its bits
/// as the next predictor value.
pub fn write_f64_xor(buf: &mut Vec<u8>, v: f64, prev_bits: u64) -> u64 {
    let bits = v.to_bits();
    write_u64(buf, (bits ^ prev_bits).swap_bytes());
    bits
}

/// Inverse of [`write_f64_xor`]: reads the residue, unswaps, XORs against
/// the predictor and returns `(value, bits)`.
pub fn read_f64_xor(
    data: &[u8],
    pos: &mut usize,
    prev_bits: u64,
) -> Result<(f64, u64), DecodeError> {
    let residue = read_u64(data, pos)?.swap_bytes();
    let bits = residue ^ prev_bits;
    Ok((f64::from_bits(bits), bits))
}

/// Reads the `N` bytes at `*pos` (a fixed-width little-endian field),
/// advancing past them; fails `Truncated` when fewer remain.
pub fn read_array<const N: usize>(data: &[u8], pos: &mut usize) -> Result<[u8; N], DecodeError> {
    let end = pos.checked_add(N).ok_or(DecodeError::Truncated)?;
    let bytes = data.get(*pos..end).ok_or(DecodeError::Truncated)?;
    *pos = end;
    let mut field = [0u8; N];
    field.copy_from_slice(bytes);
    Ok(field)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_at_the_boundaries() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in values {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for v in values {
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 42);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_varint_errors() {
        let mut pos = 0;
        assert!(matches!(
            read_u64(&[0x80], &mut pos),
            Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn overlong_varint_errors() {
        let mut over_wide = [0xffu8; 10];
        over_wide[9] = 0x02;
        let too_long = DecodeError::Malformed("varint longer than 64 bits");
        for data in [&[0x80u8; 11][..], &over_wide] {
            let mut pos = 0;
            assert_eq!(read_u64(data, &mut pos), Err(too_long.clone()));
            // Framed, as a checkpoint's leading seed: the body parser
            // meets it behind a valid envelope.
            let bytes = crate::frame::encode(&crate::CKPT_MAGIC, crate::CKPT_VERSION, data);
            assert_eq!(crate::Checkpoint::decode(&bytes), Err(too_long.clone()));
        }
    }

    #[test]
    fn f64_xor_round_trips_bit_exactly() {
        let values = [
            0.0,
            1.0,
            -1.5,
            1.0e-12,
            std::f64::consts::PI,
            f64::MAX,
            f64::MIN_POSITIVE,
            0.1 + 0.2,
        ];
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for v in values {
            prev = write_f64_xor(&mut buf, v, prev);
        }
        let mut pos = 0;
        let mut prev = 0u64;
        for v in values {
            let (got, bits) = read_f64_xor(&buf, &mut pos, prev).unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
            prev = bits;
        }
    }

    #[test]
    fn repeated_f64_collapses_to_one_byte() {
        let mut buf = Vec::new();
        let prev = write_f64_xor(&mut buf, 0.123456789, 0);
        let before = buf.len();
        write_f64_xor(&mut buf, 0.123456789, prev);
        assert_eq!(buf.len() - before, 1, "XOR predictor must cancel");
    }
}
