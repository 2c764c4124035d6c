//! The remote log server.
//!
//! Receives segment envelopes over the simulated NVMe-oE fabric, enforces
//! evidence-chain continuity (a device — or an attacker spoofing one —
//! cannot silently rewind or skip history), stores the sealed payloads in
//! the object store, and runs the offloaded detection ensemble over the
//! decrypted records.

use rssd_core::{LogOp, PostAttackAnalyzer, RemoteError, RemoteTarget, SegmentEnvelope, StoreAck};
use rssd_crypto::{DeviceKeys, Digest};
use rssd_detect::{Ensemble, Verdict};
use rssd_net::{LinkConfig, NvmeOeEndpoint, SecureSession, TransferStats};
use serde::{Deserialize, Serialize};

use crate::object_store::{ObjectStore, ObjectStoreConfig};

/// Aggregated server-side observations (the operator's dashboard).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct ServerReport {
    /// Segments accepted and stored.
    pub segments_stored: u64,
    /// Segments rejected for chain discontinuity.
    pub segments_rejected: u64,
    /// Records fed to the detection ensemble.
    pub records_analyzed: u64,
    /// Current detection verdict.
    pub verdict: Verdict,
    /// Combined detection score.
    pub score: f64,
    /// Time (ns) spent receiving + storing, summed.
    pub ingest_time_ns: u64,
}

/// The remote log/detection server. Implements [`RemoteTarget`] so it plugs
/// directly under an `RssdDevice`.
#[derive(Debug)]
pub struct RemoteLogServer {
    fabric: NvmeOeEndpoint,
    store: ObjectStore,
    session: SecureSession,
    ensemble: Ensemble,
    last_head: Option<Digest>,
    segment_index: Vec<u64>,
    report: ServerReport,
    reachable: bool,
    external_fabric: bool,
}

impl RemoteLogServer {
    /// Builds a server reachable over `link`, storing into an object store
    /// with `store_config`, holding the operator-provisioned offload keys
    /// derived from `keys`.
    pub fn new(link: LinkConfig, store_config: ObjectStoreConfig, keys: &DeviceKeys) -> Self {
        RemoteLogServer {
            fabric: NvmeOeEndpoint::new(link),
            store: ObjectStore::new(store_config),
            session: SecureSession::new(keys, 0),
            ensemble: Ensemble::new(),
            last_head: None,
            segment_index: Vec::new(),
            report: ServerReport::default(),
            reachable: true,
            external_fabric: false,
        }
    }

    /// Convenience: datacenter link + local storage server.
    pub fn datacenter(keys: &DeviceKeys) -> Self {
        Self::new(
            LinkConfig::datacenter_10g(),
            ObjectStoreConfig::local_server(),
            keys,
        )
    }

    /// Convenience: WAN link + cloud object storage.
    pub fn cloud(keys: &DeviceKeys) -> Self {
        Self::new(LinkConfig::wan_cloud(), ObjectStoreConfig::cloud(), keys)
    }

    /// Simulates a network partition.
    pub fn set_reachable(&mut self, reachable: bool) {
        self.reachable = reachable;
    }

    /// Tells the server its envelopes already crossed a modeled wire
    /// upstream — the device wrapped this server in
    /// `rssd_core::WireRemote`, which charged the NVMe-oE transfer to the
    /// simulated clock. Ingest then happens at `now_ns` without a second
    /// fabric hop.
    pub fn set_external_fabric(&mut self, external: bool) {
        self.external_fabric = external;
    }

    /// Current dashboard.
    pub fn report(&self) -> ServerReport {
        self.report.clone()
    }

    /// NVMe-oE transfer statistics.
    pub fn transfer_stats(&self) -> TransferStats {
        self.fabric.stats()
    }

    /// Object-store statistics.
    pub fn store_stats(&self) -> crate::object_store::ObjectStoreStats {
        self.store.stats()
    }

    /// Current offloaded-detection verdict.
    pub fn verdict(&self) -> Verdict {
        self.ensemble.verdict()
    }

    fn segment_key(seq: u64) -> String {
        format!("segments/{seq:016x}")
    }

    /// Feeds the decrypted records of a stored segment to the detection
    /// ensemble.
    fn analyze_segment(&mut self, envelope: &SegmentEnvelope) {
        let Ok(compressed) = self
            .session
            .open(envelope.segment_seq(), envelope.sealed_payload())
        else {
            return;
        };
        let Ok(raw) = rssd_compress::decompress(&compressed) else {
            return;
        };
        let Ok(segment) = rssd_core::Segment::from_bytes(&raw) else {
            return;
        };
        for record in &segment.records {
            if record.op == LogOp::Read {
                continue;
            }
            self.ensemble
                .observe(&PostAttackAnalyzer::observation(record));
            self.report.records_analyzed += 1;
        }
        self.report.verdict = self.ensemble.verdict();
        self.report.score = self.ensemble.score();
    }
}

impl RemoteTarget for RemoteLogServer {
    fn store_segment(
        &mut self,
        envelope: SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError> {
        if !self.reachable {
            return Err(RemoteError::Unreachable);
        }
        if let Some(expected) = self.last_head {
            if envelope.prev_chain_head() != expected {
                self.report.segments_rejected += 1;
                return Err(RemoteError::ChainDiscontinuity {
                    expected,
                    got: envelope.prev_chain_head(),
                });
            }
        }
        // Transfer over the fabric (unless the wire was modeled upstream),
        // then persist. The envelope, the fabric payload, and the stored
        // object all share one refcounted wire image.
        let wire = envelope.to_wire_bytes();
        let (arrival_ns, wire) = if self.external_fabric {
            (now_ns, wire)
        } else {
            let (arrival_ns, delivered) =
                self.fabric
                    .transfer_segment(envelope.segment_seq(), wire.clone(), now_ns);
            debug_assert_eq!(delivered, wire, "fabric must deliver intact");
            (arrival_ns, delivered)
        };
        let durable_at_ns =
            self.store
                .put(&Self::segment_key(envelope.segment_seq()), wire, arrival_ns);

        self.last_head = Some(envelope.chain_head());
        self.segment_index.push(envelope.segment_seq());
        self.report.segments_stored += 1;
        self.report.ingest_time_ns += durable_at_ns.saturating_sub(now_ns);
        self.analyze_segment(&envelope);
        Ok(StoreAck {
            segment_seq: envelope.segment_seq(),
            durable_at_ns,
        })
    }

    fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError> {
        if !self.reachable {
            return Err(RemoteError::Unreachable);
        }
        let (bytes, _) = self
            .store
            .get(&Self::segment_key(segment_seq), 0)
            .ok_or(RemoteError::NoSuchSegment(segment_seq))?;
        SegmentEnvelope::from_wire_image(bytes).ok_or(RemoteError::NoSuchSegment(segment_seq))
    }

    fn stored_segments(&self) -> Vec<u64> {
        self.segment_index.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_core::{LoopbackTarget, RssdConfig, RssdDevice};
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};
    use rssd_ssd::BlockDevice;

    fn keys() -> DeviceKeys {
        DeviceKeys::for_simulation(RssdConfig::default().key_seed)
    }

    fn device_over_server() -> RssdDevice<RemoteLogServer> {
        RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 8,
                ..RssdConfig::default()
            },
            RemoteLogServer::datacenter(&keys()),
        )
    }

    #[test]
    fn device_offloads_through_real_server() {
        let mut d = device_over_server();
        for i in 0..40u64 {
            d.write_page(i % 4, vec![(i % 7) as u8; 4096]).unwrap();
        }
        d.flush_log().unwrap();
        let report = d.remote().report();
        assert!(report.segments_stored > 0);
        assert_eq!(report.segments_rejected, 0);
        assert!(report.records_analyzed > 0);
        assert!(d.remote().transfer_stats().payload_bytes > 0);
        assert!(d.remote().store_stats().stored_bytes > 0);
    }

    #[test]
    fn recovery_through_real_server() {
        let mut d = device_over_server();
        d.write_page(3, vec![1; 4096]).unwrap();
        d.write_page(3, vec![2; 4096]).unwrap();
        d.flush_log().unwrap();
        assert_eq!(d.recover_page(3).unwrap(), vec![1; 4096]);
    }

    #[test]
    fn wire_remote_carries_segments_to_real_server_on_one_wire() {
        // The full codesign path: offload engine → WireRemote (the modeled
        // NVMe-oE wire) → log server ingesting without a second fabric hop.
        let mut server = RemoteLogServer::datacenter(&keys());
        server.set_external_fabric(true);
        let mut d = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 8,
                ..RssdConfig::default()
            },
            rssd_core::WireRemote::new(server, rssd_net::LinkConfig::datacenter_10g()),
        );
        d.write_page(3, vec![1; 4096]).unwrap();
        d.write_page(3, vec![2; 4096]).unwrap();
        d.flush_log().unwrap();
        assert!(d.remote().inner().report().segments_stored > 0);
        assert_eq!(d.remote().inner().report().segments_rejected, 0);
        // Exactly one wire: WireRemote's fabric carried capsules, the
        // server's internal fabric stayed idle.
        assert!(d.remote().transfer_stats().payload_bytes > 0);
        assert_eq!(d.remote().inner().transfer_stats().payload_bytes, 0);
        assert_eq!(d.recover_page(3).unwrap(), vec![1; 4096]);
    }

    #[test]
    fn server_detects_classic_ransomware_in_offloaded_log() {
        let mut d = device_over_server();
        // Victim data.
        for lpa in 0..100u64 {
            d.write_page(lpa, rssd_trace_page(lpa)).unwrap();
        }
        // Read-encrypt-overwrite everything with high-entropy data.
        for lpa in 0..100u64 {
            d.read_page(lpa).unwrap();
            d.write_page(lpa, cipher_page(lpa)).unwrap();
        }
        d.flush_log().unwrap();
        assert_eq!(
            d.remote().verdict(),
            Verdict::Ransomware,
            "report: {:?}",
            d.remote().report()
        );
    }

    // Low-entropy, text-like page.
    fn rssd_trace_page(seed: u64) -> Vec<u8> {
        let mut p = vec![b'a'; 4096];
        p[0] = seed as u8;
        p
    }

    // High-entropy pseudo-ciphertext page.
    fn cipher_page(seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        let mut x = seed.wrapping_add(0x9E3779B97F4A7C15);
        while out.len() < 4096 {
            let mut z = x;
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out
    }

    #[test]
    fn chain_discontinuity_rejected() {
        let mut server = RemoteLogServer::datacenter(&keys());
        let env = |seq: u64, prev: Digest, head: Digest| {
            SegmentEnvelope::new(1, seq, prev, head, 0, &[0; 40])
        };
        let d1 = Digest::from_bytes([1; 32]);
        server.store_segment(env(0, Digest::ZERO, d1), 0).unwrap();
        let err = server
            .store_segment(env(1, Digest::from_bytes([9; 32]), d1), 0)
            .unwrap_err();
        assert!(matches!(err, RemoteError::ChainDiscontinuity { .. }));
        assert_eq!(server.report().segments_rejected, 1);
    }

    #[test]
    fn fetch_round_trips_envelope() {
        let mut server = RemoteLogServer::datacenter(&keys());
        let envelope = SegmentEnvelope::new(
            7,
            3,
            Digest::ZERO,
            Digest::from_bytes([2; 32]),
            5,
            &[9; 100],
        );
        server.store_segment(envelope.clone(), 0).unwrap();
        assert_eq!(server.fetch_segment(3).unwrap(), envelope);
        assert_eq!(server.stored_segments(), vec![3]);
        assert!(matches!(
            server.fetch_segment(99),
            Err(RemoteError::NoSuchSegment(99))
        ));
    }

    #[test]
    fn partition_returns_unreachable() {
        let mut server = RemoteLogServer::datacenter(&keys());
        server.set_reachable(false);
        let envelope = SegmentEnvelope::new(1, 0, Digest::ZERO, Digest::ZERO, 0, &[]);
        assert_eq!(
            server.store_segment(envelope, 0),
            Err(RemoteError::Unreachable)
        );
    }

    #[test]
    fn loopback_and_server_agree_on_interface() {
        // Both targets drive the same device code path.
        let mut a = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig::default(),
            LoopbackTarget::new(),
        );
        let mut b = device_over_server();
        for i in 0..20u64 {
            a.write_page(i % 3, vec![i as u8; 4096]).unwrap();
            b.write_page(i % 3, vec![i as u8; 4096]).unwrap();
        }
        a.flush_log().unwrap();
        b.flush_log().unwrap();
        assert_eq!(a.recover_page(0).unwrap(), b.recover_page(0).unwrap());
    }
}
