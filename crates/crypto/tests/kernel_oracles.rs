//! Oracles for the hashing kernels under the evidence chain.
//!
//! `Sha256::finalize` builds its padding tail in one step and `HashChain`
//! clones one HMAC keyed state per link instead of re-keying from the raw
//! key. Both are pinned here against a textbook reference kept in this
//! file: FIPS 180-4 SHA-256 that pads byte by byte, and RFC 2104 HMAC
//! rebuilt from the key on every message (the chain's old link algorithm).

use proptest::prelude::*;
use rssd_crypto::{ChainLink, ChainVerifyError, Digest, HashChain, HmacSha256, Sha256};

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Textbook SHA-256: append 0x80, then zero bytes one at a time until the
/// length is 56 mod 64, then the 64-bit big-endian bit length; compress
/// block by block with the plain round loop.
fn reference_sha256(msg: &[u8]) -> [u8; 32] {
    let mut padded = msg.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&((msg.len() as u64) * 8).to_be_bytes());
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    for block in padded.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let mut v = h;
        for i in 0..64 {
            let s1 = v[4].rotate_right(6) ^ v[4].rotate_right(11) ^ v[4].rotate_right(25);
            let ch = (v[4] & v[5]) ^ (!v[4] & v[6]);
            let t1 = v[7]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = v[0].rotate_right(2) ^ v[0].rotate_right(13) ^ v[0].rotate_right(22);
            let maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
            let t2 = s0.wrapping_add(maj);
            v = [
                t1.wrapping_add(t2),
                v[0],
                v[1],
                v[2],
                v[3].wrapping_add(t1),
                v[4],
                v[5],
                v[6],
            ];
        }
        for (state, add) in h.iter_mut().zip(v) {
            *state = state.wrapping_add(add);
        }
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// RFC 2104 HMAC over the reference hash, keyed afresh for every message.
fn reference_hmac(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block[..32].copy_from_slice(&reference_sha256(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
    inner.extend_from_slice(msg);
    let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
    outer.extend_from_slice(&reference_sha256(&inner));
    reference_sha256(&outer)
}

/// Deterministic filler bytes.
fn bytes(len: usize, salt: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761).wrapping_add(salt) >> 13) as u8)
        .collect()
}

#[test]
fn sha256_matches_the_reference_at_every_length_up_to_300() {
    for len in 0..=300 {
        let msg = bytes(len, len as u32);
        let expected = reference_sha256(&msg);
        assert_eq!(Sha256::digest(&msg).as_bytes(), &expected, "len {len}");
        // Split updates leave a different buffered tail for finalize.
        for split in [0, 1, len / 2, len.saturating_sub(1)] {
            let split = split.min(len);
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(
                h.finalize().as_bytes(),
                &expected,
                "len {len} split {split}"
            );
        }
    }
}

#[test]
fn hmac_matches_the_reference_for_keys_up_to_200_bytes() {
    for key_len in 0..=200 {
        let key = bytes(key_len, 7);
        for msg_len in [0, 1, 31, 55, 56, 64, 68, 119, 200] {
            let msg = bytes(msg_len, key_len as u32);
            assert_eq!(
                HmacSha256::mac(&key, &msg).as_bytes(),
                &reference_hmac(&key, &msg),
                "key {key_len} msg {msg_len}"
            );
        }
    }
}

/// Builds a chain over `records`, asserting every link against the old
/// per-record algorithm: `HMAC(k, prev || record)` keyed afresh.
fn check_chain(key: &[u8], records: &[Vec<u8>]) -> Result<Vec<ChainLink>, TestCaseError> {
    let mut chain = HashChain::new(key);
    let mut prev = Digest::ZERO;
    let mut links = Vec::new();
    for (seq, record) in records.iter().enumerate() {
        let link = chain.append(record);
        let mut msg = prev.as_bytes().to_vec();
        msg.extend_from_slice(record);
        prop_assert_eq!(link.seq, seq as u64);
        prop_assert_eq!(link.tag, HmacSha256::mac(key, &msg));
        prop_assert_eq!(*link.tag.as_bytes(), reference_hmac(key, &msg));
        prop_assert_eq!(
            HashChain::link_tag(&HmacSha256::new(key), &prev, record),
            link.tag
        );
        prev = link.tag;
        links.push(link);
    }
    prop_assert_eq!(chain.head(), prev);
    Ok(links)
}

#[test]
fn chain_links_match_fresh_hmac_for_every_key_length_up_to_200() {
    // 36 bytes is the evidence log's record size (`LogRecord::chain_bytes`).
    let records: Vec<Vec<u8>> = (0..4).map(|i| bytes(36, i)).collect();
    for key_len in 0..=200 {
        check_chain(&bytes(key_len, 3), &records).unwrap();
    }
}

proptest! {
    #[test]
    fn chain_links_match_fresh_hmac(
        key in proptest::collection::vec(any::<u8>(), 0..201),
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..160), 1..12),
        cut in 0usize..12,
    ) {
        let links = check_chain(&key, &records)?;
        // A continuation verifies from any prior head with one keyed state,
        // and a flipped record is caught at its own sequence number.
        let keyed = HmacSha256::new(&key);
        let cut = cut % records.len();
        let head = if cut == 0 { Digest::ZERO } else { links[cut - 1].tag };
        prop_assert!(HashChain::verify_from(&keyed, head, &records[cut..], &links[cut..]).is_ok());
        let mut forged = records.clone();
        forged[cut].push(0);
        prop_assert_eq!(
            HashChain::verify_sequence(&key, &forged, &links),
            Err(ChainVerifyError::TagMismatch { seq: cut as u64 })
        );
    }

    #[test]
    fn sha256_matches_the_reference_on_arbitrary_input(
        msg in proptest::collection::vec(any::<u8>(), 0..1000),
    ) {
        let digest = Sha256::digest(&msg);
        prop_assert_eq!(digest.as_bytes(), &reference_sha256(&msg));
    }
}
