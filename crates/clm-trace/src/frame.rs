//! The envelope every file format of this crate shares: a magic, a version,
//! the body's length and one checksum over everything after the magic.
//! `.clmtrace` ([`mod@crate::format`]) and `.clmckpt`
//! ([`mod@crate::checkpoint`]) each lay out only their body; neither reads an
//! envelope byte of its own.
//!
//! # Layout
//!
//! ```text
//! magic      8  bytes  the format's own, e.g. b"CLMTRACE"
//! version    4  bytes  u32 LE
//! length     8  bytes  u64 LE, the body's length in bytes
//! checksum   8  bytes  u64 LE, [`checksum`] of the version and the body
//!                      (the body's length is folded into it too)
//! body       `length` bytes, laid out by the format
//! ```
//!
//! [`decode`] checks, in this order: the magic ([`DecodeError::BadMagic`]),
//! the version ([`DecodeError::UnsupportedVersion`], so a newer file is
//! named as such rather than as corrupt), the length against the buffer
//! ([`DecodeError::Truncated`] when the buffer is short,
//! [`DecodeError::Malformed`] when bytes trail the body), then the checksum
//! ([`DecodeError::ChecksumMismatch`]).  It returns the body borrowed from
//! the buffer.

use crate::varint::read_array;

/// FNV-1a's 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Bytes before the body: magic, version, length, checksum.
pub(crate) const HEADER_BYTES: usize = 8 + 4 + 8 + 8;

/// Errors decoding a `.clmtrace` or `.clmckpt` buffer, or restoring a
/// checkpoint: the frame's, the varint reader's and both bodies' in one
/// type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the format's magic.
    BadMagic,
    /// The header's version is not the one this build reads.
    UnsupportedVersion(u32),
    /// The buffer ended mid-field.
    Truncated,
    /// The header and body do not match the header checksum.
    ChecksumMismatch,
    /// A structurally invalid field (unknown lane/kind code, forward
    /// dependency, non-UTF-8 string, trailing bytes, …).
    Malformed(&'static str),
    /// A checkpoint does not belong to the configuration it is being
    /// restored under.
    ConfigMismatch(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic: not a file of this format"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Truncated => write!(f, "truncated mid-field"),
            DecodeError::ChecksumMismatch => write!(f, "checksum mismatch"),
            DecodeError::Malformed(what) => write!(f, "malformed: {what}"),
            DecodeError::ConfigMismatch(what) => {
                write!(f, "checkpoint does not match the run config: {what}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// One [`checksum`] step: FNV-1a over a whole word, then `h ^= h >> 32`.  Plain
/// word-wise FNV never moves a difference downwards, so two flips of a
/// word's top bit in one lane would cancel; the shift folds the high half
/// back into the bits the next multiply spreads.  Each part is a bijection
/// of the state, so a change confined to one word always changes the lane.
fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(FNV_PRIME);
    h ^ (h >> 32)
}

/// The frame checksum of `version` and `body`.  One step mixes a u64 `x`
/// into a state `h` as `h = (h ^ x) * P` (wrapping, `P` the FNV-1a 64-bit
/// prime) then `h ^= h >> 32`.  In this order:
/// 1. four lanes start at the FNV-1a offset basis; the body's whole
///    little-endian u64 words go to them in turn (word `i` to lane
///    `i % 4`), one step each;
/// 2. the result starts at the offset basis and steps in lanes 0 to 3,
///    then each byte after the last whole word, then the version, then
///    the body's length.
pub fn checksum(version: u32, body: &[u8]) -> u64 {
    let (words, tail) = body.as_chunks::<8>();
    let mut lanes = [FNV_OFFSET; 4];
    let mut rounds = words.chunks_exact(4);
    for round in rounds.by_ref() {
        for (lane, word) in lanes.iter_mut().zip(round) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(rounds.remainder()) {
        *lane = mix(*lane, u64::from_le_bytes(*word));
    }
    let h = lanes.into_iter().fold(FNV_OFFSET, mix);
    let h = tail.iter().fold(h, |h, &byte| mix(h, u64::from(byte)));
    mix(mix(h, u64::from(version)), body.len() as u64)
}

/// Frames `body` under `magic` and `version`.
pub fn encode(magic: &[u8; 8], version: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + body.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(version, body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// The body of a frame written by [`encode`] under `magic` and `version`,
/// borrowed from `bytes`; see the module docs for the checks and their
/// order.
pub fn decode<'a>(magic: &[u8; 8], version: u32, bytes: &'a [u8]) -> Result<&'a [u8], DecodeError> {
    let mut pos = 0;
    if read_array::<8>(bytes, &mut pos)? != *magic {
        return Err(DecodeError::BadMagic);
    }
    let found = u32::from_le_bytes(read_array(bytes, &mut pos)?);
    if found != version {
        return Err(DecodeError::UnsupportedVersion(found));
    }
    let length = u64::from_le_bytes(read_array(bytes, &mut pos)?);
    let sum = u64::from_le_bytes(read_array(bytes, &mut pos)?);
    let body = &bytes[pos..];
    let held = body.len() as u64;
    if length > held {
        return Err(DecodeError::Truncated);
    }
    if length < held {
        return Err(DecodeError::Malformed("trailing bytes after the body"));
    }
    if checksum(version, body) != sum {
        return Err(DecodeError::ChecksumMismatch);
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"TESTFRAM";
    const VERSION: u32 = 2;

    /// A body long enough for whole four-word rounds, a partial round and
    /// tail bytes.
    fn body() -> Vec<u8> {
        (0..77u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect()
    }

    #[test]
    fn encode_decode_round_trips_the_body_borrowed() {
        for body in [Vec::new(), body()] {
            let bytes = encode(&MAGIC, VERSION, &body);
            assert_eq!(bytes.len(), HEADER_BYTES + body.len());
            let decoded = decode(&MAGIC, VERSION, &bytes).unwrap();
            assert_eq!(decoded, &body[..]);
            assert!(std::ptr::eq(
                decoded.as_ptr(),
                bytes[HEADER_BYTES..].as_ptr()
            ));
        }
    }

    #[test]
    fn the_checksum_is_the_written_down_one() {
        // Pinned from an independent reimplementation of the steps in
        // `checksum`'s docs: a change to the word order, the lanes, the
        // tail or the fold order moves it.
        assert_eq!(checksum(VERSION, &body()), 0x8476_75ee_afaf_b599);
        assert_eq!(checksum(VERSION, &[]), 0xaa06_5cd1_0fc6_81ad);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&MAGIC, VERSION, &body());
        bytes[0] ^= 0xff;
        assert_eq!(decode(&MAGIC, VERSION, &bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn a_future_version_is_reported_before_the_checksum() {
        let mut bytes = encode(&MAGIC, VERSION, &body());
        bytes[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert_eq!(
            decode(&MAGIC, VERSION, &bytes),
            Err(DecodeError::UnsupportedVersion(VERSION + 1))
        );
    }

    #[test]
    fn a_flip_in_any_byte_after_the_magic_is_refused() {
        let bytes = encode(&MAGIC, VERSION, &body());
        for at in MAGIC.len()..bytes.len() {
            for bit in [0x01, 0x80] {
                let mut flipped = bytes.clone();
                flipped[at] ^= bit;
                let got = decode(&MAGIC, VERSION, &flipped);
                assert!(got.is_err(), "byte {at} bit {bit:#x}");
                if at >= 20 {
                    assert_eq!(got, Err(DecodeError::ChecksumMismatch), "byte {at}");
                }
            }
        }
    }

    #[test]
    fn top_bit_flips_in_one_lane_do_not_cancel() {
        // Words 0 and 4 both feed lane 0: without the shift in `mix`, a
        // difference in bit 63 would ride through both multiplies and the
        // second flip would undo the first.
        let body = body();
        let mut flipped = body.clone();
        flipped[7] ^= 0x80;
        flipped[39] ^= 0x80;
        assert_ne!(checksum(VERSION, &flipped), checksum(VERSION, &body));
    }

    #[test]
    fn every_truncation_fails_truncated() {
        let bytes = encode(&MAGIC, VERSION, &body());
        for len in 0..bytes.len() {
            assert_eq!(
                decode(&MAGIC, VERSION, &bytes[..len]),
                Err(DecodeError::Truncated),
                "prefix {len} of {}",
                bytes.len()
            );
        }
    }

    #[test]
    fn a_forged_length_is_refused_without_reading_past_the_buffer() {
        // The length is replaced and the checksum recomputed over the body
        // that length would claim, as far as the buffer holds it.
        let body = body();
        let n = body.len() as u64;
        for length in [0, 1, n - 1, n + 1, 1 << 32, 1 << 40, u64::MAX] {
            let mut forged = encode(&MAGIC, VERSION, &body);
            forged[12..20].copy_from_slice(&length.to_le_bytes());
            let claimed = &body[..length.min(n) as usize];
            forged[20..28].copy_from_slice(&checksum(VERSION, claimed).to_le_bytes());
            let want = if length > n {
                DecodeError::Truncated
            } else {
                DecodeError::Malformed("trailing bytes after the body")
            };
            assert_eq!(
                decode(&MAGIC, VERSION, &forged),
                Err(want),
                "length {length}"
            );
        }
    }
}
