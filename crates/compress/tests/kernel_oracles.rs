//! Oracles for the byte kernels: the table-driven Shannon entropy and the
//! presized, chunk-copying LZ decoder. Each is pinned against the
//! straightforward algorithm it replaced, kept here verbatim as the
//! reference.
//!
//! Entropy must match to the bit, not to a tolerance: the device hashes
//! `entropy_mil = (shannon_entropy(page) * 1000.0) as u16` into the
//! evidence chain, so one differing ulp could fork every chain after it.

use proptest::prelude::*;
use rssd_compress::{compress, decompress, lz, shannon_entropy, Codec, DecompressError};
use rssd_trace::{synthesize_page, PayloadKind};

/// The old kernel: a `u64` histogram, then one `log2` per non-zero count,
/// subtracted in byte-value order.
fn reference_entropy(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut counts = [0u64; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    let n = data.len() as f64;
    let mut entropy = 0.0;
    for &c in &counts {
        if c > 0 {
            let p = c as f64 / n;
            entropy -= p * p.log2();
        }
    }
    entropy
}

/// The old decoder: output presized at twice the payload, overlapping
/// matches copied one byte at a time.
fn reference_decode(payload: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(payload.len() * 2);
    let mut i = 0usize;
    while i < payload.len() {
        let token = payload[i];
        i += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
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
            break;
        }
        if i + 2 > payload.len() {
            return Err(DecompressError::Corrupt("truncated match token"));
        }
        let dist = u16::from_le_bytes([payload[i], payload[i + 1]]) as usize;
        i += 2;
        let mut len = (token & 0x0F) as usize + 4;
        if token & 0x0F == 15 {
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
        for k in 0..len {
            let b = out[start + k];
            out.push(b);
        }
    }
    Ok(out)
}

fn assert_entropy_bits(data: &[u8]) -> Result<(), TestCaseError> {
    let expected = reference_entropy(data);
    prop_assert_eq!(
        shannon_entropy(data).to_bits(),
        expected.to_bits(),
        "len {}",
        data.len()
    );
    // A second call is served from the memoised terms.
    prop_assert_eq!(shannon_entropy(data).to_bits(), expected.to_bits());
    Ok(())
}

#[test]
fn entropy_is_bit_identical_on_every_payload_kind() {
    for kind in [
        PayloadKind::Zero,
        PayloadKind::Text,
        PayloadKind::Binary,
        PayloadKind::Random,
    ] {
        for seed in 0..64 {
            for page_size in [4096, 512, 16384] {
                let page = synthesize_page(kind, seed, page_size);
                assert_entropy_bits(&page).unwrap();
                // The value the write path hashes into the chain.
                assert_eq!(
                    (shannon_entropy(&page) * 1000.0) as u16,
                    (reference_entropy(&page) * 1000.0) as u16
                );
            }
        }
    }
}

#[test]
fn entropy_is_bit_identical_past_the_term_table() {
    // Longer than the memoised table: the terms are computed directly.
    for len in [65_535, 65_536, 65_537, 200_003] {
        let data: Vec<u8> = (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 27) as u8)
            .collect();
        assert_entropy_bits(&data).unwrap();
    }
}

/// Arbitrary bytes folded onto an alphabet of `k` symbols, so histograms
/// range from one spike to near-uniform.
fn skewed_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(any::<u8>(), 0..max_len + 1),
        1u16..257,
    )
        .prop_map(|(bytes, k)| bytes.iter().map(|&b| (u16::from(b) % k) as u8).collect())
}

/// One hand-built LZ sequence: literal bytes, then a match of `len` bytes
/// at back-distance `dist` (clamped to the output so far).
fn sequences() -> impl Strategy<Value = Vec<(Vec<u8>, u16, u16)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(any::<u8>(), 0..40),
            1u16..24,
            4u16..275,
        ),
        1..24,
    )
}

/// Encodes `seqs` in the payload format, with distances clamped so every
/// match is valid; most matches overlap their own output (`dist < len`).
fn build_payload(seqs: &[(Vec<u8>, u16, u16)]) -> Vec<u8> {
    let mut payload = Vec::new();
    let mut produced = 0usize;
    for (lits, dist, len) in seqs {
        let lits = if produced + lits.len() == 0 {
            &[0xEEu8][..]
        } else {
            &lits[..]
        };
        let len = usize::from(*len);
        let lit_nib = lits.len().min(15);
        let match_nib = (len - 4).min(15);
        payload.push(((lit_nib as u8) << 4) | match_nib as u8);
        if lit_nib == 15 {
            let mut rem = lits.len() - 15;
            while rem >= 255 {
                payload.push(255);
                rem -= 255;
            }
            payload.push(rem as u8);
        }
        payload.extend_from_slice(lits);
        produced += lits.len();
        let dist = usize::from(*dist).min(produced);
        payload.extend_from_slice(&(dist as u16).to_le_bytes());
        if match_nib == 15 {
            payload.push((len - 4 - 15) as u8);
        }
        produced += len;
    }
    payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn entropy_is_bit_identical_on_arbitrary_bytes(data in skewed_bytes(16384)) {
        assert_entropy_bits(&data)?;
    }

    #[test]
    fn lz_decode_matches_bytewise_decoder_on_encoder_output(data in skewed_bytes(8192)) {
        let payload = lz::encode(&data);
        let decoded = lz::decode(&payload);
        prop_assert_eq!(&decoded, &reference_decode(&payload));
        prop_assert_eq!(decoded.unwrap(), data.clone());
        let frame = compress(Codec::Lz77, &data);
        prop_assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn lz_decode_matches_bytewise_decoder_on_overlapping_matches(seqs in sequences()) {
        let payload = build_payload(&seqs);
        let expected = reference_decode(&payload);
        prop_assert!(expected.is_ok(), "hand-built payload must be valid");
        prop_assert_eq!(lz::decode(&payload), expected.clone());
        // Framed with its true length, the presized path agrees too.
        let expected = expected.unwrap();
        let mut frame = vec![2u8];
        frame.extend_from_slice(&(expected.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        prop_assert_eq!(decompress(&frame).unwrap(), expected);
    }

    #[test]
    fn lz_decode_matches_bytewise_decoder_on_arbitrary_bytes(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        prop_assert_eq!(lz::decode(&payload), reference_decode(&payload));
    }
}
