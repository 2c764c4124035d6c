//! The remote half of the fault matrix: partition modes and the
//! permissive collector.
//!
//! Network faults happen on the NVMe-oE link, so the only fault-capable
//! remote is [`WireRemote`](rssd_core::WireRemote); each [`PartitionMode`]
//! is a link condition there (see the
//! [`FaultRemote`](crate::FaultRemote) impl):
//!
//! * [`Refuse`](PartitionMode::Refuse) — offloads fail visibly
//!   (`RemoteError::Unreachable`); the device keeps data pinned locally.
//!   This is the conservative fallback the device already handles.
//! * [`QueueForReplay`](PartitionMode::QueueForReplay) — a store-and-
//!   forward edge relay: offloads are acknowledged and buffered device-side,
//!   then replayed *in order* into the real store when the link heals.
//! * [`DropSilently`](PartitionMode::DropSilently) — the worst case: the
//!   collector acknowledges and then loses the segment. The device unpins
//!   data it believes durable. The defense is that the loss can never be
//!   *silent* downstream — the evidence chain has a gap that
//!   `verified_history`, `audit_history` and `RebuildImage::harvest` all
//!   refuse to paper over.
//!
//! [`PermissiveTarget`] is a store that skips the chain-continuity ingest
//! check (a naive or compromised collector). Pairing it with a
//! `DropSilently` window is how the gap-detection property is tested: the
//! store accepts the post-gap segments, and verification — not ingest — is
//! what catches the hole.

use rssd_core::{RemoteError, RemoteTarget, SegmentEnvelope, StoreAck};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What happens to offloads attempted during a partition window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionMode {
    /// Offloads fail with `Unreachable`; data stays pinned on-device.
    Refuse,
    /// Offloads are acked and buffered, then replayed in order on heal.
    QueueForReplay,
    /// Offloads are acked and lost — the chain-gap case. The ack looks
    /// genuine, so the drop is **not** detectable at offload time: it
    /// surfaces only when `verified_history`/`audit_history`/harvest walk
    /// the evidence chain and refuse the gap (DESIGN.md §6).
    DropSilently,
}

/// A remote store **without** the chain-continuity ingest check — a naive
/// collector that accepts whatever arrives. Gaps and forks are caught at
/// verification time (`verified_history` / `RebuildImage::harvest`), which
/// is exactly the property the drop-window scenarios prove.
#[derive(Clone, Debug, Default)]
pub struct PermissiveTarget {
    segments: BTreeMap<u64, SegmentEnvelope>,
}

impl PermissiveTarget {
    /// Creates an empty store.
    pub fn new() -> Self {
        PermissiveTarget::default()
    }
}

impl RemoteTarget for PermissiveTarget {
    fn store_segment(
        &mut self,
        envelope: SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError> {
        let ack = StoreAck {
            segment_seq: envelope.segment_seq(),
            durable_at_ns: now_ns,
        };
        self.segments.insert(envelope.segment_seq(), envelope);
        Ok(ack)
    }

    fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError> {
        self.segments
            .get(&segment_seq)
            .cloned()
            .ok_or(RemoteError::NoSuchSegment(segment_seq))
    }

    fn stored_segments(&self) -> Vec<u64> {
        self.segments.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_crypto::Digest;

    fn envelope(seq: u64, prev: u8, head: u8) -> SegmentEnvelope {
        let prev = if prev == 0 {
            Digest::ZERO
        } else {
            Digest::from_bytes([prev; 32])
        };
        SegmentEnvelope::new(
            1,
            seq,
            prev,
            Digest::from_bytes([head; 32]),
            0,
            &[seq as u8; 4],
        )
    }

    #[test]
    fn permissive_store_accepts_discontinuity() {
        let mut p = PermissiveTarget::new();
        p.store_segment(envelope(0, 0, 1), 0).unwrap();
        // A gap the LoopbackTarget would refuse.
        p.store_segment(envelope(5, 9, 10), 0).unwrap();
        assert_eq!(p.stored_segments(), vec![0, 5]);
    }
}
