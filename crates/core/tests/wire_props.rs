//! Property tests for the log wire formats and the offload round trip.

use proptest::prelude::*;
use rssd_core::{LogOp, LogRecord, Segment, SegmentEnvelope};
use rssd_crypto::{ChainLink, DeviceKeys, Digest, HashChain};
use rssd_net::SecureSession;

fn arb_record() -> impl Strategy<Value = LogRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        prop_oneof![Just(LogOp::Write), Just(LogOp::Trim), Just(LogOp::Read)],
        any::<u64>(),
        proptest::option::of(any::<u64>().prop_map(|v| v % (u64::MAX - 1))),
        any::<u16>(),
        any::<bool>(),
        proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
    )
        .prop_map(
            |(seq, at_ns, op, lpa, old_page_index, entropy_mil, read_before, old_data)| LogRecord {
                seq,
                at_ns,
                op,
                lpa,
                old_page_index,
                entropy_mil,
                read_before,
                old_data,
            },
        )
}

proptest! {
    #[test]
    fn record_round_trip(record in arb_record()) {
        let bytes = record.to_bytes();
        let (decoded, used) = LogRecord::from_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded, record);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn record_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = LogRecord::from_bytes(&bytes);
    }

    #[test]
    fn segment_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let _ = Segment::from_bytes(&bytes);
    }

    #[test]
    fn segment_round_trip_with_verified_links(records in proptest::collection::vec(arb_record(), 0..20)) {
        let mut chain = HashChain::new(b"prop-key");
        let links: Vec<ChainLink> = records.iter().map(|r| chain.append(&r.chain_bytes())).collect();
        let seg = Segment { segment_seq: 7, records, links };
        let decoded = Segment::from_bytes(&seg.to_bytes()).unwrap();
        prop_assert_eq!(&decoded, &seg);

        let inputs: Vec<Vec<u8>> = decoded.records.iter().map(|r| r.chain_bytes()).collect();
        prop_assert!(HashChain::verify_sequence(b"prop-key", &inputs, &decoded.links).is_ok());
    }

    #[test]
    fn chain_bytes_independent_of_old_data(record in arb_record(), data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut with = record.clone();
        with.old_data = Some(data);
        let mut without = record;
        without.old_data = None;
        prop_assert_eq!(with.chain_bytes(), without.chain_bytes());
    }

    /// The zero-copy offload pipeline (header written first, payload
    /// compressed into the same buffer, sealed in place, buffer adopted as
    /// the envelope's wire image) must be byte-identical to the naive
    /// compose path (serialize, compress, seal, copy into an envelope) —
    /// same sealed bytes, same wire image, same decoded envelope, and the
    /// same records back out.
    #[test]
    fn zero_copy_assembly_is_byte_identical_to_naive_compose(
        records in proptest::collection::vec(arb_record(), 0..12),
        seed in any::<u64>(),
        segment_seq in any::<u64>(),
        device_id in any::<u64>(),
        prev_byte in any::<u8>(),
        head_byte in any::<u8>(),
    ) {
        let keys = DeviceKeys::for_simulation(seed);
        let session = SecureSession::new(&keys, 0);
        let mut chain = HashChain::new(b"prop-key");
        let links: Vec<ChainLink> =
            records.iter().map(|r| chain.append(&r.chain_bytes())).collect();
        let record_count = records.len() as u32;
        let segment = Segment { segment_seq, records, links };
        let raw = segment.to_bytes();
        let prev = Digest::from_bytes([prev_byte; 32]);
        let head = Digest::from_bytes([head_byte; 32]);

        // Naive compose: each stage allocates and copies.
        let compressed = rssd_compress::compress_adaptive(&raw);
        let sealed = session.seal(segment_seq, &compressed);
        let naive =
            SegmentEnvelope::new(device_id, segment_seq, prev, head, record_count, &sealed);

        // Zero-copy: one buffer from header to sealed payload.
        let mut wire = Vec::new();
        SegmentEnvelope::write_wire_header(
            &mut wire, device_id, segment_seq, &prev, &head, record_count,
        );
        rssd_compress::compress_adaptive_into(&raw, &mut wire);
        session.seal_in_place(segment_seq, &mut wire, SegmentEnvelope::WIRE_HEADER);
        let zero_copy = SegmentEnvelope::from_wire_image(wire).unwrap();

        prop_assert_eq!(zero_copy.sealed_payload(), naive.sealed_payload());
        prop_assert_eq!(&zero_copy.to_wire_bytes(), &naive.to_wire_bytes());
        prop_assert_eq!(&zero_copy, &naive);

        // The sealed image opens back to the exact records that went in.
        let opened = session
            .open(segment_seq, zero_copy.sealed_payload())
            .expect("self-sealed payload opens");
        let decompressed = rssd_compress::decompress(&opened).expect("valid frame");
        prop_assert_eq!(Segment::from_bytes(&decompressed).unwrap(), segment);
    }

    /// The receive path is total: any bytes adopted as an envelope either
    /// fail to decode, fail to open, or open to a segment — never panic.
    #[test]
    fn envelope_receive_path_is_total(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        seed in any::<u64>(),
    ) {
        let session = SecureSession::new(&DeviceKeys::for_simulation(seed), 0);
        let _ = receive(&session, bytes);
    }

    /// A sealed envelope with one bit flipped or its tail cut off never
    /// opens to different records: payload, tag and sequence-number damage
    /// fail the MAC, a cut header fails the decode, and the only flips
    /// that still open are in routing fields the records do not depend on.
    #[test]
    fn corrupted_envelopes_never_open_to_different_records(
        records in proptest::collection::vec(arb_record(), 0..8),
        seed in any::<u64>(),
        at in any::<usize>(),
        bit in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let session = SecureSession::new(&DeviceKeys::for_simulation(seed), 0);
        let mut chain = HashChain::new(b"prop-key");
        let links: Vec<ChainLink> =
            records.iter().map(|r| chain.append(&r.chain_bytes())).collect();
        let record_count = records.len() as u32;
        let segment = Segment { segment_seq: 3, records, links };
        let compressed = rssd_compress::compress_adaptive(&segment.to_bytes());
        let sealed = session.seal(3, &compressed);
        let envelope =
            SegmentEnvelope::new(9, 3, Digest::ZERO, chain.head(), record_count, &sealed);
        let mut wire = envelope.to_wire_bytes().to_vec();
        prop_assert_eq!(receive(&session, wire.clone()), Some(segment.clone()));

        let at = at % wire.len();
        if truncate {
            wire.truncate(at);
            prop_assert_eq!(receive(&session, wire), None, "a torn envelope opened");
        } else {
            wire[at] ^= 1 << (bit % 8);
            if let Some(opened) = receive(&session, wire) {
                prop_assert_eq!(opened, segment, "a flipped bit changed the records");
            }
        }
    }

    #[test]
    fn truncated_records_always_rejected(record in arb_record()) {
        let bytes = record.to_bytes();
        // Any strict prefix must fail cleanly (never decode to a different
        // record of the same length).
        for cut in 0..bytes.len() {
            prop_assert!(LogRecord::from_bytes(&bytes[..cut]).is_err() ||
                // A prefix may decode if the record has trailing old_data
                // bytes the prefix drops — but then the consumed length must
                // differ from the original.
                LogRecord::from_bytes(&bytes[..cut]).unwrap().1 < bytes.len());
        }
    }
}

/// The device's receive path for one fetched envelope: adopt the wire
/// image, read its routing header, open the sealed payload, decompress and
/// decode the segment.
fn receive(session: &SecureSession, wire: Vec<u8>) -> Option<Segment> {
    let envelope = SegmentEnvelope::from_wire_image(wire)?;
    let _ = (
        envelope.device_id(),
        envelope.prev_chain_head(),
        envelope.chain_head(),
        envelope.record_count(),
    );
    let opened = session
        .open(envelope.segment_seq(), envelope.sealed_payload())
        .ok()?;
    let raw = rssd_compress::decompress(&opened).ok()?;
    Segment::from_bytes(&raw).ok()
}

#[test]
fn chain_head_commits_to_every_prior_record() {
    let mut a = HashChain::new(b"k");
    let mut b = HashChain::new(b"k");
    for i in 0..10u64 {
        a.append(&i.to_le_bytes());
        // b diverges at record 5.
        let v = if i == 5 { 99 } else { i };
        b.append(&v.to_le_bytes());
    }
    assert_ne!(a.head(), b.head());
}

#[test]
fn digest_zero_is_distinct_from_any_real_tag() {
    let mut chain = HashChain::new(b"k");
    let link = chain.append(b"x");
    assert_ne!(link.tag, Digest::ZERO);
}
