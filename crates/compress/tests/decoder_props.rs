//! Decoder totality: every decoder in the crate answers `Ok` or `Err` on
//! any input and never panics — on arbitrary bytes, and on valid frames
//! with a bit flipped or the tail cut off (the corruptions a torn flash
//! page or a damaged transfer produce). A torn frame is always rejected.

use proptest::prelude::*;
use rssd_compress::{compress, decompress, lz, rle, Codec};

/// Compressible content: short runs over a small alphabet, so both RLE and
/// LZ77 produce real encoded payloads rather than falling back to store.
fn runs() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u8..4, 1usize..40), 1..64).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(byte, len)| std::iter::repeat(byte).take(len))
            .collect()
    })
}

fn codecs() -> impl Strategy<Value = Codec> {
    prop_oneof![Just(Codec::Store), Just(Codec::Rle), Just(Codec::Lz77)]
}

/// `bytes` with one bit flipped at `at` (taken modulo the length).
fn flip(mut bytes: Vec<u8>, at: usize, bit: u8) -> Vec<u8> {
    if !bytes.is_empty() {
        let i = at % bytes.len();
        bytes[i] ^= 1 << (bit % 8);
    }
    bytes
}

/// `bytes` cut to a strict prefix at `at` (taken modulo the length).
fn cut(mut bytes: Vec<u8>, at: usize) -> Vec<u8> {
    if !bytes.is_empty() {
        bytes.truncate(at % bytes.len());
    }
    bytes
}

proptest! {
    #[test]
    fn decompress_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decompress(&bytes);
    }

    #[test]
    fn lz_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = lz::decode(&bytes);
    }

    #[test]
    fn rle_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = rle::decode(&bytes);
    }

    #[test]
    fn corrupted_frames_decode_or_fail_cleanly(
        data in runs(),
        codec in codecs(),
        at in any::<usize>(),
        bit in any::<u8>(),
    ) {
        let frame = compress(codec, &data);
        prop_assert_eq!(decompress(&frame).unwrap(), data);
        // A flipped bit may still decode (frames carry no checksum; the
        // sealed session's MAC is what catches tampering) — but never panic.
        let _ = decompress(&flip(frame.clone(), at, bit));
        prop_assert!(
            decompress(&cut(frame, at)).is_err(),
            "a torn frame must never pass as the whole page"
        );
    }

    #[test]
    fn corrupted_payloads_decode_or_fail_cleanly(
        data in runs(),
        at in any::<usize>(),
        bit in any::<u8>(),
    ) {
        let lz_payload = lz::encode(&data);
        prop_assert_eq!(lz::decode(&lz_payload).unwrap(), data.clone());
        let _ = lz::decode(&flip(lz_payload.clone(), at, bit));
        let _ = lz::decode(&cut(lz_payload, at));

        let rle_payload = rle::encode(&data);
        prop_assert_eq!(rle::decode(&rle_payload).unwrap(), data.clone());
        let _ = rle::decode(&flip(rle_payload.clone(), at, bit));
        let _ = rle::decode(&cut(rle_payload, at));
    }
}
