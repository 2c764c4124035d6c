//! The hardware-assisted log: records, segments, and their wire format.
//!
//! Every host-visible operation becomes a [`LogRecord`]. Records are chained
//! (HMAC over the previous tag and the record's canonical bytes) as they are
//! appended, then packed into [`Segment`]s for offload. A [`SegmentEnvelope`]
//! is what actually crosses the NVMe-oE wire: plaintext routing metadata
//! (sequence numbers, chain heads for continuity verification) around a
//! compressed, encrypted, MAC'd payload.
//!
//! Serialization is a hand-rolled binary format (no serde data format crate
//! is used in this workspace); every decoder is total — malformed input
//! yields [`WireError`], never a panic.

use bytes::Bytes;
use rssd_crypto::{ChainLink, Digest};
use serde::{Deserialize, Serialize};

/// Operation class of a log record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LogOp {
    /// Host write that created a page version (may have invalidated an
    /// older one, in which case the old version is retained).
    Write,
    /// Host trim; the trimmed (old) version is retained.
    Trim,
    /// Host read (metadata only; evidence of read-before-encrypt).
    Read,
}

impl LogOp {
    fn id(self) -> u8 {
        match self {
            LogOp::Write => 1,
            LogOp::Trim => 2,
            LogOp::Read => 3,
        }
    }

    fn from_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(LogOp::Write),
            2 => Some(LogOp::Trim),
            3 => Some(LogOp::Read),
            _ => None,
        }
    }
}

/// One entry of the hardware-assisted log.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Evidence-chain sequence number (total order of operations).
    pub seq: u64,
    /// Simulated time the operation was processed.
    pub at_ns: u64,
    /// Operation class.
    pub op: LogOp,
    /// Logical page touched.
    pub lpa: u64,
    /// Global page index of the invalidated (old) physical page, if any.
    pub old_page_index: Option<u64>,
    /// Entropy of the newly written payload, millibits/byte (writes only).
    pub entropy_mil: u16,
    /// Was this LPA read within the correlation window before the write?
    pub read_before: bool,
    /// Retained content of the old page version. Absent in the in-device
    /// chain (integrity of content is protected by the segment MAC instead);
    /// attached when the record is packed for offload.
    pub old_data: Option<Vec<u8>>,
}

impl LogRecord {
    /// Entropy in bits/byte.
    pub fn entropy_bits(&self) -> f64 {
        f64::from(self.entropy_mil) / 1000.0
    }

    /// Canonical bytes covered by the evidence chain MAC. Excludes
    /// `old_data` (see field docs) so the tag is stable whether or not the
    /// content has been attached yet.
    pub fn chain_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40);
        out.push(self.op.id());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.at_ns.to_le_bytes());
        out.extend_from_slice(&self.lpa.to_le_bytes());
        out.extend_from_slice(&self.old_page_index.unwrap_or(u64::MAX).to_le_bytes());
        out.extend_from_slice(&self.entropy_mil.to_le_bytes());
        out.push(u8::from(self.read_before));
        out
    }

    /// Full wire encoding (chain bytes + optional content).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.chain_bytes();
        match &self.old_data {
            None => out.extend_from_slice(&u32::MAX.to_le_bytes()),
            Some(data) => {
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
        }
        out
    }

    /// Decodes one record from the front of `data`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or unknown fields.
    pub fn from_bytes(data: &[u8]) -> Result<(Self, usize), WireError> {
        const FIXED: usize = 1 + 8 + 8 + 8 + 8 + 2 + 1 + 4;
        if data.len() < FIXED {
            return Err(WireError::Truncated);
        }
        let op = LogOp::from_id(data[0]).ok_or(WireError::UnknownOp(data[0]))?;
        let seq = u64::from_le_bytes(data[1..9].try_into().expect("8"));
        let at_ns = u64::from_le_bytes(data[9..17].try_into().expect("8"));
        let lpa = u64::from_le_bytes(data[17..25].try_into().expect("8"));
        let old_raw = u64::from_le_bytes(data[25..33].try_into().expect("8"));
        let entropy_mil = u16::from_le_bytes(data[33..35].try_into().expect("2"));
        let read_before = data[35] != 0;
        let len_raw = u32::from_le_bytes(data[36..40].try_into().expect("4"));
        let (old_data, consumed) = if len_raw == u32::MAX {
            (None, FIXED)
        } else {
            let len = len_raw as usize;
            if data.len() < FIXED + len {
                return Err(WireError::Truncated);
            }
            (Some(data[FIXED..FIXED + len].to_vec()), FIXED + len)
        };
        Ok((
            LogRecord {
                seq,
                at_ns,
                op,
                lpa,
                old_page_index: (old_raw != u64::MAX).then_some(old_raw),
                entropy_mil,
                read_before,
                old_data,
            },
            consumed,
        ))
    }
}

/// Wire decoding errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than the encoding requires.
    Truncated,
    /// Unknown [`LogOp`] id.
    UnknownOp(u8),
    /// Segment payload failed to decompress or decrypt.
    BadPayload,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated log encoding"),
            WireError::UnknownOp(id) => write!(f, "unknown log op id {id}"),
            WireError::BadPayload => write!(f, "segment payload undecodable"),
        }
    }
}

impl std::error::Error for WireError {}

/// A batch of consecutive log records plus their chain links, as packed for
/// offload.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// Monotone per-device segment number.
    pub segment_seq: u64,
    /// Records in chain order.
    pub records: Vec<LogRecord>,
    /// Chain links, one per record.
    pub links: Vec<ChainLink>,
}

impl Segment {
    /// Serializes records + links (the plaintext that gets compressed,
    /// sealed and shipped).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.segment_seq.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for r in &self.records {
            out.extend_from_slice(&r.to_bytes());
        }
        for l in &self.links {
            out.extend_from_slice(&l.seq.to_le_bytes());
            out.extend_from_slice(l.tag.as_bytes());
        }
        out
    }

    /// Decodes a segment.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed input.
    pub fn from_bytes(data: &[u8]) -> Result<Self, WireError> {
        if data.len() < 12 {
            return Err(WireError::Truncated);
        }
        let segment_seq = u64::from_le_bytes(data[..8].try_into().expect("8"));
        let count = u32::from_le_bytes(data[8..12].try_into().expect("4")) as usize;
        // Every record is at least 40 bytes and every link exactly 40, so a
        // count the remaining bytes cannot possibly hold is malformed input
        // (and must not drive preallocation).
        if count > data.len().saturating_sub(12) / 80 {
            return Err(WireError::Truncated);
        }
        let mut offset = 12;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let (rec, used) = LogRecord::from_bytes(&data[offset..])?;
            records.push(rec);
            offset += used;
        }
        let mut links = Vec::with_capacity(count);
        for _ in 0..count {
            if data.len() < offset + 40 {
                return Err(WireError::Truncated);
            }
            let seq = u64::from_le_bytes(data[offset..offset + 8].try_into().expect("8"));
            let tag: [u8; 32] = data[offset + 8..offset + 40].try_into().expect("32");
            links.push(ChainLink {
                seq,
                tag: Digest::from_bytes(tag),
            });
            offset += 40;
        }
        Ok(Segment {
            segment_seq,
            records,
            links,
        })
    }
}

/// What crosses the wire: plaintext routing/continuity metadata around the
/// sealed payload.
///
/// Backed by its own canonical wire image — one reference-counted buffer
/// `[84-byte header | sealed payload]` built exactly once at seal time.
/// Construction *is* serialization: [`SegmentEnvelope::to_wire_bytes`] and
/// `clone()` are refcount bumps, and [`SegmentEnvelope::from_wire_image`]
/// adopts a received buffer without copying. Field reads decode from the
/// header in place (a few little-endian loads).
#[derive(Clone, PartialEq, Eq)]
pub struct SegmentEnvelope {
    /// The canonical wire encoding. Invariant: at least
    /// [`SegmentEnvelope::WIRE_HEADER`] bytes long.
    wire: Bytes,
}

impl SegmentEnvelope {
    /// Fixed header size of the canonical wire encoding:
    /// `device_id (8) + segment_seq (8) + prev_chain_head (32) +
    /// chain_head (32) + record_count (4)`.
    pub const WIRE_HEADER: usize = 8 + 8 + 32 + 32 + 4;

    /// Builds an envelope from its parts, serializing header + payload into
    /// one buffer. For the zero-copy path, assemble the buffer yourself with
    /// [`SegmentEnvelope::write_wire_header`] and adopt it via
    /// [`SegmentEnvelope::from_wire_image`].
    pub fn new(
        device_id: u64,
        segment_seq: u64,
        prev_chain_head: Digest,
        chain_head: Digest,
        record_count: u32,
        sealed_payload: &[u8],
    ) -> SegmentEnvelope {
        let mut out = Vec::with_capacity(Self::WIRE_HEADER + sealed_payload.len());
        Self::write_wire_header(
            &mut out,
            device_id,
            segment_seq,
            &prev_chain_head,
            &chain_head,
            record_count,
        );
        out.extend_from_slice(sealed_payload);
        SegmentEnvelope {
            wire: Bytes::from(out),
        }
    }

    /// Appends the canonical 84-byte envelope header to `out`. The offload
    /// engine writes this first, compresses and seals the payload in place
    /// after it, then adopts the finished buffer with
    /// [`SegmentEnvelope::from_wire_image`] — the single serialization point
    /// of the whole offload path.
    pub fn write_wire_header(
        out: &mut Vec<u8>,
        device_id: u64,
        segment_seq: u64,
        prev_chain_head: &Digest,
        chain_head: &Digest,
        record_count: u32,
    ) {
        out.reserve(Self::WIRE_HEADER);
        out.extend_from_slice(&device_id.to_le_bytes());
        out.extend_from_slice(&segment_seq.to_le_bytes());
        out.extend_from_slice(prev_chain_head.as_bytes());
        out.extend_from_slice(chain_head.as_bytes());
        out.extend_from_slice(&record_count.to_le_bytes());
    }

    /// Adopts a fully assembled wire image (header + sealed payload) without
    /// copying — the one decoder for both the seal path and the receive
    /// path. Returns `None` if shorter than
    /// [`SegmentEnvelope::WIRE_HEADER`]. The sealed payload is *not*
    /// authenticated here — tampering is caught by the secure session's MAC
    /// when the payload is opened.
    pub fn from_wire_image(wire: impl Into<Bytes>) -> Option<SegmentEnvelope> {
        let wire = wire.into();
        (wire.len() >= Self::WIRE_HEADER).then_some(SegmentEnvelope { wire })
    }

    /// Originating device.
    pub fn device_id(&self) -> u64 {
        u64::from_le_bytes(self.wire[..8].try_into().expect("8"))
    }

    /// Segment number (also the seal nonce input).
    pub fn segment_seq(&self) -> u64 {
        u64::from_le_bytes(self.wire[8..16].try_into().expect("8"))
    }

    /// Evidence-chain head *before* this segment's first record.
    pub fn prev_chain_head(&self) -> Digest {
        Digest::from_bytes(self.wire[16..48].try_into().expect("32"))
    }

    /// Evidence-chain head after this segment's last record.
    pub fn chain_head(&self) -> Digest {
        Digest::from_bytes(self.wire[48..80].try_into().expect("32"))
    }

    /// Number of records inside.
    pub fn record_count(&self) -> u32 {
        u32::from_le_bytes(self.wire[80..84].try_into().expect("4"))
    }

    /// compress → encrypt → MAC output.
    pub fn sealed_payload(&self) -> &[u8] {
        &self.wire[Self::WIRE_HEADER..]
    }

    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.wire.len()
    }

    /// Canonical wire encoding: the [`SegmentEnvelope::WIRE_HEADER`] fields
    /// little-endian, followed by the sealed payload. This is the byte
    /// stream that NVMe-oE capsules fragment and carry — both `WireRemote`
    /// on the device side and the remote log server speak exactly this.
    /// A refcount bump: the envelope *is* its wire image.
    pub fn to_wire_bytes(&self) -> Bytes {
        self.wire.clone()
    }

    /// Borrows the wire image.
    pub fn wire(&self) -> &Bytes {
        &self.wire
    }
}

impl std::fmt::Debug for SegmentEnvelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentEnvelope")
            .field("device_id", &self.device_id())
            .field("segment_seq", &self.segment_seq())
            .field("prev_chain_head", &self.prev_chain_head())
            .field("chain_head", &self.chain_head())
            .field("record_count", &self.record_count())
            .field("sealed_len", &self.sealed_payload().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_crypto::HashChain;

    fn record(seq: u64, with_data: bool) -> LogRecord {
        LogRecord {
            seq,
            at_ns: 123_456 + seq,
            op: LogOp::Write,
            lpa: 42 + seq,
            old_page_index: Some(7),
            entropy_mil: 7900,
            read_before: true,
            old_data: with_data.then(|| vec![0xAB; 64]),
        }
    }

    #[test]
    fn record_round_trip_with_and_without_data() {
        for with_data in [false, true] {
            let r = record(5, with_data);
            let bytes = r.to_bytes();
            let (decoded, used) = LogRecord::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, r);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn chain_bytes_stable_under_data_attachment() {
        let bare = record(5, false);
        let full = record(5, true);
        assert_eq!(bare.chain_bytes(), full.chain_bytes());
    }

    #[test]
    fn record_rejects_truncation() {
        let bytes = record(5, true).to_bytes();
        for cut in [0, 10, 39, bytes.len() - 1] {
            assert_eq!(
                LogRecord::from_bytes(&bytes[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn record_rejects_unknown_op() {
        let mut bytes = record(5, false).to_bytes();
        bytes[0] = 77;
        assert_eq!(LogRecord::from_bytes(&bytes), Err(WireError::UnknownOp(77)));
    }

    #[test]
    fn entropy_scaling() {
        assert!((record(0, false).entropy_bits() - 7.9).abs() < 1e-9);
    }

    #[test]
    fn segment_round_trip() {
        let mut chain = HashChain::new(b"k");
        let records: Vec<LogRecord> = (0..5).map(|i| record(i, i % 2 == 0)).collect();
        let links: Vec<ChainLink> = records
            .iter()
            .map(|r| chain.append(&r.chain_bytes()))
            .collect();
        let seg = Segment {
            segment_seq: 9,
            records,
            links,
        };
        let decoded = Segment::from_bytes(&seg.to_bytes()).unwrap();
        assert_eq!(decoded, seg);
    }

    #[test]
    fn segment_rejects_truncation() {
        let seg = Segment {
            segment_seq: 1,
            records: vec![record(0, true)],
            links: vec![ChainLink {
                seq: 0,
                tag: Digest::ZERO,
            }],
        };
        let bytes = seg.to_bytes();
        assert_eq!(
            Segment::from_bytes(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated)
        );
        assert_eq!(Segment::from_bytes(&[1, 2]), Err(WireError::Truncated));
    }

    #[test]
    fn decoded_links_verify_against_records() {
        let mut chain = HashChain::new(b"k");
        let records: Vec<LogRecord> = (0..4).map(|i| record(i, true)).collect();
        let links: Vec<ChainLink> = records
            .iter()
            .map(|r| chain.append(&r.chain_bytes()))
            .collect();
        let seg = Segment {
            segment_seq: 0,
            records,
            links,
        };
        let decoded = Segment::from_bytes(&seg.to_bytes()).unwrap();
        let chain_inputs: Vec<Vec<u8>> = decoded.records.iter().map(|r| r.chain_bytes()).collect();
        HashChain::verify_sequence(b"k", &chain_inputs, &decoded.links).unwrap();
    }

    #[test]
    fn envelope_wire_round_trip() {
        let envelope = SegmentEnvelope::new(
            7,
            42,
            Digest::from_bytes([0xAA; 32]),
            Digest::from_bytes([0xBB; 32]),
            9,
            &[1, 2, 3, 4, 5],
        );
        assert_eq!(envelope.device_id(), 7);
        assert_eq!(envelope.segment_seq(), 42);
        assert_eq!(envelope.prev_chain_head(), Digest::from_bytes([0xAA; 32]));
        assert_eq!(envelope.chain_head(), Digest::from_bytes([0xBB; 32]));
        assert_eq!(envelope.record_count(), 9);
        assert_eq!(envelope.sealed_payload(), &[1, 2, 3, 4, 5]);
        let wire = envelope.to_wire_bytes();
        assert_eq!(wire.len(), envelope.wire_bytes());
        assert_eq!(SegmentEnvelope::from_wire_image(wire).unwrap(), envelope);
    }

    #[test]
    fn envelope_clone_and_wire_share_the_image() {
        let envelope = SegmentEnvelope::new(1, 2, Digest::ZERO, Digest::ZERO, 3, &[9; 100]);
        let wire = envelope.to_wire_bytes();
        assert_eq!(
            wire.as_ref().as_ptr(),
            envelope.wire().as_ref().as_ptr(),
            "to_wire_bytes must be a refcount bump, not a copy"
        );
        let clone = envelope.clone();
        assert_eq!(
            clone.wire().as_ref().as_ptr(),
            envelope.wire().as_ref().as_ptr(),
            "clone must share the wire image"
        );
    }

    #[test]
    fn envelope_zero_copy_assembly_matches_new() {
        let payload = [7u8; 33];
        let built = SegmentEnvelope::new(
            5,
            6,
            Digest::from_bytes([1; 32]),
            Digest::from_bytes([2; 32]),
            4,
            &payload,
        );
        let mut wire = Vec::new();
        SegmentEnvelope::write_wire_header(
            &mut wire,
            5,
            6,
            &Digest::from_bytes([1; 32]),
            &Digest::from_bytes([2; 32]),
            4,
        );
        assert_eq!(wire.len(), SegmentEnvelope::WIRE_HEADER);
        wire.extend_from_slice(&payload);
        let adopted = SegmentEnvelope::from_wire_image(wire).unwrap();
        assert_eq!(adopted, built);
    }

    #[test]
    fn envelope_wire_rejects_short_input() {
        assert!(
            SegmentEnvelope::from_wire_image(&[0u8; SegmentEnvelope::WIRE_HEADER - 1][..])
                .is_none()
        );
        let empty = SegmentEnvelope::new(
            0,
            0,
            Digest::from_bytes([0; 32]),
            Digest::from_bytes([0; 32]),
            0,
            &[],
        );
        // A header with no payload is the minimum valid envelope.
        let decoded = SegmentEnvelope::from_wire_image(empty.to_wire_bytes()).unwrap();
        assert!(decoded.sealed_payload().is_empty());
    }
}
