//! An LZ77-style sliding-window codec.
//!
//! Payload format: a stream of *sequences*, each a token byte whose high
//! nibble is the literal-run length and low nibble the match length minus
//! `MIN_MATCH` (nibble 15 extends with continuation bytes — 255 adds
//! another byte — exactly once for matches, whose lengths are capped at
//! `MAX_MATCH`). The token is followed by the literal bytes, then a 16-bit
//! little-endian back-distance (`1..=WINDOW`) and the optional match-length
//! extension. A payload may end after a sequence's literals, in which case
//! that final sequence carries no match.
//!
//! The byte-aligned sequence layout means literal runs move with bulk copies
//! on both sides instead of per-byte control-bit bookkeeping — on the
//! offload path the encoder is charged to the simulated device's host loop,
//! so its cost is the paper's "performance overhead" story, not a hidden
//! constant.
//!
//! The encoder is a greedy single-candidate matcher over a 4-byte hash
//! table — the trade-off a firmware compressor makes: bounded memory, a
//! single pass, no chain walks. Incompressible stretches are strided over
//! with LZ4-style skip acceleration so embedded ciphertext pages cost
//! `O(sqrt(n))` searches rather than one per byte.

use crate::DecompressError;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255;
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
// Skip acceleration: after 2^SKIP_SHIFT consecutive failed searches the
// encoder starts striding over the input, folding the skipped bytes into
// the pending literal run without searching them. Match-rich data resets
// the streak and never strides.
const SKIP_SHIFT: u32 = 6;
const MAX_STEP: usize = 32;
// Nibble value signalling an extended length.
const NIB_EXT: usize = 15;

/// Unaligned little-endian 32-bit read.
///
/// # Safety
///
/// `pos + 4 <= data.len()`.
#[inline]
unsafe fn read_u32(data: &[u8], pos: usize) -> u32 {
    debug_assert!(pos + 4 <= data.len());
    u32::from_le(std::ptr::read_unaligned(data.as_ptr().add(pos).cast()))
}

/// Unaligned little-endian 64-bit read.
///
/// # Safety
///
/// `pos + 8 <= data.len()`.
#[inline]
unsafe fn read_u64(data: &[u8], pos: usize) -> u64 {
    debug_assert!(pos + 8 <= data.len());
    u64::from_le(std::ptr::read_unaligned(data.as_ptr().add(pos).cast()))
}

#[inline]
fn hash_word(v: u32) -> usize {
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Longest common prefix of `data[a..]` and `data[b..]`, capped at `limit`.
///
/// Compares eight bytes per step (XOR + trailing-zero count) instead of one;
/// the result is exactly the byte-wise prefix length. Callers guarantee
/// `a < b` and `b + limit <= data.len()`.
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut len = 0usize;
    while len + 8 <= limit {
        // SAFETY: len + 8 <= limit and b + limit <= data.len(), a < b.
        let diff = unsafe { read_u64(data, a + len) ^ read_u64(data, b + len) };
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// Copies `len` bytes in eight-byte steps, overstoring up to seven bytes
/// past `dst + len`.
///
/// # Safety
///
/// `src..src+len+7` must be readable and `dst..dst+len+7` writable, and the
/// regions must not overlap.
#[inline]
unsafe fn wild_copy(dst: *mut u8, src: *const u8, len: usize) {
    let mut i = 0usize;
    while i < len {
        std::ptr::copy_nonoverlapping(src.add(i), dst.add(i), 8);
        i += 8;
    }
}

/// Appends the payload-terminating literal-only sequence.
fn emit_terminal(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_len = literals.len();
    let lit_nib = lit_len.min(NIB_EXT);
    out.push((lit_nib as u8) << 4);
    if lit_nib == NIB_EXT {
        let mut rem = lit_len - NIB_EXT;
        while rem >= 255 {
            out.push(255);
            rem -= 255;
        }
        out.push(rem as u8);
    }
    out.extend_from_slice(literals);
}

/// Writes one match-carrying sequence at `base + op` with an extended
/// literal run or an extended match length; returns the new write offset.
///
/// # Safety
///
/// The caller must have reserved capacity for the sequence at `base + op`
/// (see the worst-case bound in [`encode`]).
unsafe fn emit_long(
    base: *mut u8,
    mut op: usize,
    literals: &[u8],
    dist: usize,
    len: usize,
) -> usize {
    let lit_len = literals.len();
    let lit_nib = lit_len.min(NIB_EXT);
    let match_nib = (len - MIN_MATCH).min(NIB_EXT);
    *base.add(op) = ((lit_nib as u8) << 4) | match_nib as u8;
    op += 1;
    if lit_nib == NIB_EXT {
        let mut rem = lit_len - NIB_EXT;
        while rem >= 255 {
            *base.add(op) = 255;
            op += 1;
            rem -= 255;
        }
        *base.add(op) = rem as u8;
        op += 1;
    }
    std::ptr::copy_nonoverlapping(literals.as_ptr(), base.add(op), lit_len);
    op += lit_len;
    let d = (dist as u16).to_le_bytes();
    *base.add(op) = d[0];
    *base.add(op + 1) = d[1];
    op += 2;
    if match_nib == NIB_EXT {
        *base.add(op) = (len - MIN_MATCH - NIB_EXT) as u8;
        op += 1;
    }
    op
}

/// LZ77-encodes `data`.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(data, &mut out);
    out
}

/// LZ77-encodes `data`, appending the payload to `out`. Existing contents
/// are left untouched — this is how the offload engine compresses directly
/// into the envelope's wire buffer after the header.
pub fn encode_into(data: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    // Worst-case payload bound: a sequence's overhead beyond its literals is
    // token (1) + literal-length extension (1 + L/255, only when L >= 15) +
    // distance (2) + match-length extension (<= 1), while its match covers at
    // least MIN_MATCH = 4 input bytes. Per sequence the payload therefore
    // exceeds the input it covers by at most 1 + L/255 bytes, and sequences
    // with that excess carry >= 15 literals, so the total overshoot is under
    // n/16. The extra 64 covers the terminating sequence and wild-copy
    // overstores.
    let cap = data.len() + data.len() / 16 + 64;
    out.reserve(cap);
    // head[h]: most recent position whose 4-byte prefix hashed to h (+1,
    // 0 = none). A single candidate per bucket: any match of length >= 4
    // shares its first four bytes with the candidate, so one well-hashed
    // slot finds the recent repeats that matter without chain walks.
    let mut head = vec![0u32; HASH_SIZE];

    let mut pos = 0usize;
    let mut lit_start = 0usize;
    let mut miss_streak = 0usize;

    // The hot loop emits through a raw pointer: `out` never reallocates
    // (capacity is the worst-case bound above, reserved after any existing
    // contents), so `base` stays valid and `start + op` tracks the logical
    // length until the final set_len.
    // SAFETY: `start <= out.capacity()` after the reserve.
    let base = unsafe { out.as_mut_ptr().add(start) };
    let mut op = 0usize;

    while pos + MIN_MATCH <= data.len() {
        // SAFETY: the loop condition guarantees four readable bytes at `pos`;
        // `hash_word` output is below HASH_SIZE by construction; a stored
        // candidate is an earlier loop position, so it also has four
        // readable bytes.
        let (candidate, here) = unsafe {
            let here = read_u32(data, pos);
            let h = hash_word(here);
            let slot = head.get_unchecked_mut(h);
            let candidate = *slot as usize;
            *slot = (pos + 1) as u32;
            (candidate, here)
        };

        let mut matched = false;
        if candidate > 0 {
            let cand_pos = candidate - 1;
            let dist = pos - cand_pos;
            // SAFETY: cand_pos was a previous value of `pos`, so
            // cand_pos + 4 <= data.len().
            if dist <= WINDOW && unsafe { read_u32(data, cand_pos) } == here {
                let limit = (data.len() - pos).min(MAX_MATCH);
                let len = common_prefix(data, cand_pos, pos, limit);
                if len >= MIN_MATCH {
                    let lit_len = pos - lit_start;
                    // SAFETY: capacity was reserved for the worst case; the
                    // wild copy's 7-byte overstore stays inside the slack,
                    // and its source overread needs 8 readable bytes from
                    // `lit_start + lit_len - len.min(8)`… gated below on
                    // `pos + 8 <= data.len()` (literals end at `pos`).
                    unsafe {
                        if lit_len < NIB_EXT && len - MIN_MATCH < NIB_EXT && pos + 8 <= data.len() {
                            *base.add(op) = ((lit_len as u8) << 4) | (len - MIN_MATCH) as u8;
                            wild_copy(base.add(op + 1), data.as_ptr().add(lit_start), lit_len);
                            op += 1 + lit_len;
                            let d = (dist as u16).to_le_bytes();
                            *base.add(op) = d[0];
                            *base.add(op + 1) = d[1];
                            op += 2;
                        } else {
                            op = emit_long(base, op, &data[lit_start..pos], dist, len);
                        }
                    }
                    // Positions covered by the match are not inserted: the
                    // head slot for the match's own prefix was just updated,
                    // which is what the next occurrence will look up.
                    pos += len;
                    lit_start = pos;
                    miss_streak = 0;
                    matched = true;
                }
            }
        }
        if !matched {
            let step = (1 + (miss_streak >> SKIP_SHIFT)).min(MAX_STEP);
            miss_streak += 1;
            pos += step;
        }
    }
    // SAFETY: `op` counts bytes written within the reserved capacity.
    unsafe {
        out.set_len(start + op);
    }
    if lit_start < data.len() {
        emit_terminal(out, &data[lit_start..]);
    }
}

/// Longest match one sequence can encode: `MIN_MATCH` plus a full nibble
/// plus one extension byte.
const MAX_DECODED_MATCH: usize = MIN_MATCH + NIB_EXT + 255;

/// Upper bound on the bytes any `payload_len`-byte payload decodes to. The
/// densest sequence is a 4-byte token + distance + extension producing a
/// `MAX_DECODED_MATCH` copy (68.5 bytes out per byte in); literals produce
/// one byte per byte.
fn max_decoded_len(payload_len: usize) -> usize {
    payload_len.saturating_mul(MAX_DECODED_MATCH.div_ceil(4))
}

/// Decodes an LZ77 payload produced by [`encode`].
///
/// # Errors
///
/// Returns [`DecompressError::Corrupt`] on truncated sequences, zero
/// distances, or back-references past the start of the output.
pub fn decode(payload: &[u8]) -> Result<Vec<u8>, DecompressError> {
    decode_sized(payload, payload.len().saturating_mul(2))
}

/// [`decode`] with the output presized for `declared_len` bytes — the
/// length a frame header promises. The header is untrusted, so the
/// reservation is capped at [`max_decoded_len`] of the payload: a frame
/// claiming `u32::MAX` bytes over a short payload cannot make the decoder
/// allocate that much. An honest frame decodes without reallocating.
pub(crate) fn decode_sized(
    payload: &[u8],
    declared_len: usize,
) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(declared_len.min(max_decoded_len(payload.len())));
    let mut i = 0usize;
    while i < payload.len() {
        let token = payload[i];
        i += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == NIB_EXT {
            loop {
                let b = *payload
                    .get(i)
                    .ok_or(DecompressError::Corrupt("truncated literal length"))?;
                i += 1;
                lit_len += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        if i + lit_len > payload.len() {
            return Err(DecompressError::Corrupt("truncated literal run"));
        }
        out.extend_from_slice(&payload[i..i + lit_len]);
        i += lit_len;
        if i == payload.len() {
            // Terminating sequence: literals only.
            break;
        }
        if i + 2 > payload.len() {
            return Err(DecompressError::Corrupt("truncated match token"));
        }
        let dist = u16::from_le_bytes([payload[i], payload[i + 1]]) as usize;
        i += 2;
        let mut len = (token & 0x0F) as usize + MIN_MATCH;
        if token & 0x0F == NIB_EXT as u8 {
            let b = *payload
                .get(i)
                .ok_or(DecompressError::Corrupt("truncated match length"))?;
            i += 1;
            len += b as usize;
        }
        if dist == 0 {
            return Err(DecompressError::Corrupt("match distance of zero"));
        }
        if dist > out.len() {
            return Err(DecompressError::Corrupt("match distance before start"));
        }
        let start = out.len() - dist;
        if dist >= len {
            out.extend_from_within(start..start + len);
        } else {
            // Overlapping copy, the LZ idiom for runs: byte k of the match
            // repeats byte k - dist, so `out[start..]` is periodic with
            // period `dist`. Copying the whole periodic stretch so far
            // keeps that phase (each chunk length is a multiple of `dist`
            // until the last), so the chunks double: log2(len / dist)
            // bulk copies instead of `len` single-byte pushes.
            let mut copied = 0usize;
            while copied < len {
                let chunk = (dist + copied).min(len - copied);
                out.extend_from_within(start..start + chunk);
                copied += chunk;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_round_trip() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn short_literals_round_trip() {
        let data = b"abc";
        assert_eq!(decode(&encode(data)).unwrap(), data);
    }

    #[test]
    fn repetitive_round_trip_and_shrinks() {
        let data = b"abcdabcdabcdabcdabcdabcdabcdabcd".repeat(16);
        let enc = encode(&data);
        assert!(enc.len() < data.len() / 4, "encoded {} bytes", enc.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn overlapping_match_run() {
        // "aaaa..." forces dist=1, len>1 overlapping copies.
        let data = vec![b'a'; 1000];
        let enc = encode(&data);
        assert!(enc.len() < 32);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn long_literal_run_round_trips() {
        // An incompressible stretch longer than a nibble plus several
        // continuation bytes exercises the extended literal length.
        let data: Vec<u8> = (0..2000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn long_input_crossing_window() {
        let unit: Vec<u8> = (0..97u8).collect();
        let data: Vec<u8> = unit.iter().cycle().take(100_000).copied().collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn structured_records_compress_well() {
        // The offload segments' dominant shape: small integers with long
        // zero runs (see PayloadKind::Binary). The single-candidate matcher
        // must still find the zero runs and the repeated structure.
        let mut data = Vec::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        while data.len() < 64 * 1024 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.extend_from_slice(&(x as u32).to_le_bytes());
            data.extend_from_slice(&[0u8; 12]);
        }
        let enc = encode(&data);
        assert!(
            enc.len() < data.len() / 2,
            "record-structured data must at least halve, got {} of {}",
            enc.len(),
            data.len()
        );
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn max_length_matches_round_trip() {
        // Long runs produce MAX_MATCH-length matches with the extension byte.
        let data = vec![0xAAu8; 5000];
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn decode_rejects_zero_distance() {
        // token: no literals, match len 4; distance 0.
        let payload = [0x00u8, 0, 0];
        assert!(decode(&payload).is_err());
    }

    #[test]
    fn decode_rejects_distance_past_start() {
        let payload = [0x00u8, 5, 0];
        assert!(decode(&payload).is_err());
    }

    #[test]
    fn decode_rejects_truncated_match() {
        let payload = [0x00u8, 1];
        assert!(decode(&payload).is_err());
    }

    #[test]
    fn encode_into_appends_and_matches_encode() {
        let data = b"abcdabcdabcdabcd some literals then abcdabcd".repeat(8);
        let mut out = b"PREFIX".to_vec();
        encode_into(&data, &mut out);
        assert_eq!(&out[..6], b"PREFIX");
        assert_eq!(&out[6..], &encode(&data)[..]);
    }

    #[test]
    fn decode_rejects_truncated_literals() {
        // token promises 3 literals, payload has 1.
        let payload = [0x30u8, 7];
        assert!(decode(&payload).is_err());
    }
}
