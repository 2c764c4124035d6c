//! One fleet member: device construction, tenant workload, attack overlay,
//! replay, and per-member scoring.
//!
//! A member is fully share-nothing: it owns its simulated clock, its NVMe-oE
//! uplink, its fault injector, and its RNG stream, all derived from
//! `(fleet seed, member id)` via [`member_seed`]. Running a member touches
//! no shared state, which is what lets the fleet execute members on any
//! worker thread in any order and still merge to a byte-identical report.

use crate::config::{member_seed, FleetConfig, MemberKind};
use rssd_array::RssdArray;
use rssd_compress::shannon_entropy;
use rssd_core::{OffloadStats, PostAttackAnalyzer, WireRemote};
use rssd_detect::{Verdict, WriteObservation};
use rssd_faults::{
    scenario_member, FaultEvent, FaultInjector, FaultSchedule, FaultTarget, PartitionMode,
    PermissiveTarget,
};
use rssd_flash::{NandStats, SimClock};
use rssd_ftl::FtlStats;
use rssd_obs::{MetricsRegistry, ProfileBreakdown, ProfilerHandle, SinkHandle, TraceEvent};
use rssd_ssd::{BlockDevice, DeviceError, LatencyStats, NvmeController, QueueId, QueuePairStats};
use rssd_trace::{
    replay_fanout, synthesize_page, DiurnalLoad, IoOp, IoRecord, PayloadKind, ReplayOutcome,
    ReplayStats, TraceProfile, Zipf,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Hostage corpus pages every member writes after its benign prefix. Sized
/// like the scenario harness's victim set: well clear of the long-horizon
/// profiler's 64-page noise floor and of its coverage saturation point, so
/// detection does not hinge on workload-seed luck.
const CORPUS_PAGES: u64 = 128;
/// Simulated gap between workload phases.
const PHASE_GAP_NS: u64 = 1_000_000_000;
/// Attack cadence: one victim page read-encrypt-overwritten per tick.
const ATTACK_TICK_NS: u64 = 2_000_000;
/// Queue pairs each member's host drives.
const QUEUES: usize = 2;
/// Depth of each queue pair.
const QUEUE_DEPTH: usize = 8;
/// Read-before-overwrite correlation window for the host-side monitor.
const READ_WINDOW_NS: u64 = 600 * 1_000_000_000;
/// Device ids leave room for array shards: member m's shard s gets
/// `m * DEVICE_ID_STRIDE + s`.
const DEVICE_ID_STRIDE: u64 = 16;
/// Interruptions that issue no record, tolerated before a member run is
/// declared stuck. An interruption that issues records moves the replay
/// forward, so it never counts: a dead array shard refuses every later
/// record aimed at it, one interruption each.
const MAX_INTERRUPTIONS: u64 = 32;

/// A member run failed in a way the harness cannot absorb.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetError {
    /// Member that failed.
    pub member: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fleet member {} failed: {}", self.member, self.detail)
    }
}

impl std::error::Error for FleetError {}

/// Per-member verdict and accounting, one row of the fleet scoreboard.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemberScorecard {
    /// Member id within the fleet.
    pub member: usize,
    /// Device kind label ("bare", "array3", ...).
    pub kind: String,
    /// Tenant this member serves.
    pub tenant: usize,
    /// Trace profile the tenant runs.
    pub profile: String,
    /// Ground truth: did this member run the ransomware actor?
    pub compromised: bool,
    /// Whether this member ran under a seeded fault schedule.
    pub faulted: bool,
    /// Whether this member rode a sustained uplink outage on spill-enabled
    /// hardware.
    pub degraded: bool,
    /// Chain-derived post-attack verdict.
    pub verdict: Verdict,
    /// Ensemble detection score behind the verdict.
    pub detection_score: f64,
    /// Attack classification label.
    pub attack_class: String,
    /// Did the evidence chain verify end to end?
    pub chain_verified: bool,
    /// Records in the audited history.
    pub records_audited: u64,
    /// Workload records issued to the member.
    pub ops: u64,
    /// Member-local simulated completion time.
    pub sim_end_ns: u64,
    /// Power cuts the member absorbed.
    pub power_cuts: u64,
    /// Replay interruptions (power cuts, dead-shard refusals) absorbed.
    pub interruptions: u64,
}

/// Everything one member run produces, before the fleet merge.
#[derive(Clone, Debug, PartialEq)]
pub struct MemberOutcome {
    /// The member's scoreboard row.
    pub scorecard: MemberScorecard,
    /// NAND counters, merged across array shards.
    pub nand: NandStats,
    /// FTL counters, merged across array shards.
    pub ftl: FtlStats,
    /// Evidence-offload counters.
    pub offload: OffloadStats,
    /// Device-side service latency distribution.
    pub latency: LatencyStats,
    /// Host-side queue-pair accounting, merged over the member's pairs.
    pub queues: QueuePairStats,
    /// Replay accounting (stitched across fault interruptions).
    pub replay: ReplayStats,
    /// Typed metrics derived from the member's simulated run. Every value
    /// is a deterministic function of simulated state (never wall clock),
    /// so the registry folds into [`FleetReport`](crate::FleetReport)
    /// without weakening its byte-identical determinism contract.
    pub metrics: MetricsRegistry,
    /// Host-side detector observations, in issue order.
    pub observations: Vec<WriteObservation>,
}

/// What to collect alongside a member (or fleet) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsOptions {
    /// Record dual-timeline trace events into a per-member recording sink.
    pub trace: bool,
    /// Profile the host-side replay hot loop's phase breakdown.
    pub profile: bool,
}

impl ObsOptions {
    /// Collect everything.
    #[must_use]
    pub fn all() -> Self {
        ObsOptions {
            trace: true,
            profile: true,
        }
    }
}

/// Host-side observability by-products of one member run: these live
/// *outside* [`MemberOutcome`] because they are functions of the host
/// (wall-clock phase times) or of the observer (trace buffers), not of the
/// simulated member, and must never enter the determinism contract.
#[derive(Clone, Debug, Default)]
pub struct MemberObs {
    /// Host wall-clock phase breakdown of the member's replay.
    pub profile: ProfileBreakdown,
    /// Trace events recorded during the run, tracks prefixed `m{id}/`.
    pub events: Vec<TraceEvent>,
}

/// Runs fleet member `member` of `config` to completion.
///
/// The run is a pure function of `(config minus workers, member)`: build
/// the device, synthesize the tenant's stream (benign prefix, hostage
/// corpus, optional ransomware overlay), replay it through the NVMe queue
/// layer under the member's fault schedule, then audit the evidence chain
/// and score the member.
///
/// # Errors
///
/// [`FleetError`] when the member's replay aborts on an error the fault
/// harness cannot absorb (anything but power loss and dead-shard refusals).
pub fn run_member(config: &FleetConfig, member: usize) -> Result<MemberOutcome, FleetError> {
    run_member_instrumented(config, member, ObsOptions::default()).map(|(outcome, _)| outcome)
}

/// [`run_member`] with observability attached: when `obs.trace` is set a
/// recording sink (tracks prefixed `m{member}/`) captures the member's
/// dual-timeline events, and when `obs.profile` is set a phase profiler
/// brackets the replay hot loop. The simulated outcome is byte-identical
/// to [`run_member`]'s either way — observers never feed back into the
/// simulation; the fleet's property tests pin this.
///
/// # Errors
///
/// Same failure surface as [`run_member`].
pub fn run_member_instrumented(
    config: &FleetConfig,
    member: usize,
    obs: ObsOptions,
) -> Result<(MemberOutcome, MemberObs), FleetError> {
    let mseed = member_seed(config.seed, member);
    let kind = config.member_kind(member);
    let compromised = config.member_compromised(member);
    let faulted = config.member_faulted(member);
    let degraded = config.member_degraded(member);
    let build = |device_id: u64| {
        scenario_member(
            device_id,
            WireRemote::new(PermissiveTarget::new(), config.link),
            degraded,
        )
    };
    let sink = if obs.trace {
        SinkHandle::recording().with_track_prefix(&format!("m{member}/"))
    } else {
        SinkHandle::disabled()
    };
    let profiler = if obs.profile {
        ProfilerHandle::enabled()
    } else {
        ProfilerHandle::disabled()
    };

    let outcome = match kind {
        MemberKind::Bare => {
            let device = build(member as u64 * DEVICE_ID_STRIDE);
            run_on(
                config,
                member,
                mseed,
                kind,
                compromised,
                faulted,
                degraded,
                device,
                1,
                &sink,
                &profiler,
            )
        }
        MemberKind::Array {
            shards,
            stripe_pages,
        } => {
            let members = (0..shards)
                .map(|s| build(member as u64 * DEVICE_ID_STRIDE + s as u64))
                .collect();
            let array = RssdArray::new(members, stripe_pages, SimClock::new());
            run_on(
                config,
                member,
                mseed,
                kind,
                compromised,
                faulted,
                degraded,
                array,
                shards,
                &sink,
                &profiler,
            )
        }
    }?;

    Ok((
        outcome,
        MemberObs {
            profile: profiler.finish(),
            events: sink.take_events(),
        },
    ))
}

/// The kind-generic member body: workload synthesis, fault-resilient
/// replay, audit, scoring.
#[allow(clippy::too_many_arguments)]
fn run_on<D: FaultTarget>(
    config: &FleetConfig,
    member: usize,
    mseed: u64,
    kind: MemberKind,
    compromised: bool,
    faulted: bool,
    degraded: bool,
    device: D,
    shards: usize,
    sink: &SinkHandle,
    profiler: &ProfilerHandle,
) -> Result<MemberOutcome, FleetError> {
    let (tenant, profile) = assign_tenant(config, mseed);
    profiler.enter("synthesis");
    let records = synthesize_stream(
        config,
        mseed,
        tenant,
        &profile,
        compromised,
        device.logical_pages(),
        device.page_size(),
    );
    profiler.exit();
    let mut schedule = if faulted {
        FaultSchedule::seeded(mseed, records.len() as u64, shards)
    } else {
        FaultSchedule::none()
    };
    if degraded {
        // The sustained outage: the uplink blacks out (refused offloads,
        // no relay) for the middle ~30 % of the replay. Sealed segments
        // ride the spill region; the health machine degrades and recovers.
        let total = records.len() as u64;
        let mut events = schedule.events().to_vec();
        events.push(FaultEvent::PartitionStart {
            at_op: 7 * total / 20,
            mode: PartitionMode::Refuse,
        });
        events.push(FaultEvent::PartitionHeal {
            at_op: 13 * total / 20,
        });
        schedule = FaultSchedule::new("degraded", events);
    }
    profiler.enter("detect");
    let observations = observe_stream(&records, device.page_size());
    profiler.exit();
    let mut device = FaultInjector::new(device, &schedule);
    device.set_trace_sink(sink.clone());
    if sink.is_enabled() {
        sink.instant(
            "member",
            "member_start",
            device.clock().now_ns(),
            &[
                ("kind", kind.label()),
                ("tenant", tenant.to_string()),
                ("profile", profile.name.to_string()),
                ("compromised", compromised.to_string()),
                ("faulted", faulted.to_string()),
                ("degraded", degraded.to_string()),
                ("records", records.len().to_string()),
            ],
        );
    }

    let mut replay = ReplayStats::default();
    let mut queues = QueuePairStats::default();
    let mut interruptions = 0u64;
    let mut no_progress = 0u64;
    let mut remaining = records;
    loop {
        let outcome = {
            let mut controller = NvmeController::new(&mut device);
            controller.set_profiler(profiler.clone());
            controller.set_trace_sink(sink.clone());
            let qids: Vec<QueueId> = (0..QUEUES)
                .map(|_| controller.create_queue_pair(QUEUE_DEPTH))
                .collect();
            let outcome = replay_fanout(&mut controller, &qids, remaining.clone());
            for qid in &qids {
                queues.merge(controller.stats(*qid));
            }
            outcome
        };
        replay.merge(&outcome.stats());
        match outcome {
            ReplayOutcome::Completed(_) => break,
            ref aborted @ ReplayOutcome::Aborted { ref error, .. } => {
                interruptions += 1;
                if sink.is_enabled() {
                    sink.instant(
                        "member",
                        "replay_interrupted",
                        device.clock().now_ns(),
                        &[
                            ("error", error.to_string()),
                            ("interruption", interruptions.to_string()),
                        ],
                    );
                }
                if aborted.resume_index() == 0 {
                    no_progress += 1;
                }
                if no_progress > MAX_INTERRUPTIONS {
                    return Err(FleetError {
                        member,
                        detail: format!("stuck after {no_progress} interruptions without progress"),
                    });
                }
                match error {
                    DeviceError::PowerLoss => {
                        if !restore_power(&mut device) {
                            // Unrecoverable: the schedule silently dropped
                            // acknowledged offloads and then cut power, so
                            // recovery refuses the holed history. The member
                            // stays down; the audit below flags the gap.
                            remaining.clear();
                        }
                    }
                    // A record aimed at a dead shard while the array runs
                    // short-handed: skip it, like a stalled write.
                    DeviceError::ShardFailed { .. } => {}
                    // Admission refusal under a saturated outage backlog:
                    // the device protected its evidence by refusing the
                    // write. Skip the record; the refusal is the measured
                    // cost of the outage, not a harness failure.
                    DeviceError::Stalled => {}
                    other => {
                        return Err(FleetError {
                            member,
                            detail: format!("replay aborted: {other}"),
                        })
                    }
                }
                let issued = aborted.resume_index().min(remaining.len());
                remaining = remaining.split_off(issued);
                if remaining.is_empty() {
                    break;
                }
            }
        }
    }

    // Settle: disarm whatever the schedule still holds, heal partitions,
    // flush the log, rebuild any member the schedule killed.
    let _ = device.arm_schedule(&FaultSchedule::none());
    device.heal_partition();
    if device.flush().is_err() && restore_power(&mut device) {
        let _ = device.flush();
    }
    let revived = device.revive_dead_shards(None).map_err(|e| FleetError {
        member,
        detail: format!("revive failed: {e}"),
    })?;
    let _ = revived;

    profiler.enter("detect");
    let audit = device.history_audit();
    let analysis = PostAttackAnalyzer::new().analyze(&audit.records, audit.verified);
    profiler.exit();
    let sim_end_ns = device.clock().now_ns();
    if sink.is_enabled() {
        sink.instant(
            "member",
            "member_done",
            sim_end_ns,
            &[
                ("verdict", format!("{:?}", analysis.verdict)),
                ("score", format!("{:.3}", analysis.score)),
                ("ops", replay.records.to_string()),
                ("interruptions", interruptions.to_string()),
                ("chain_verified", audit.verified.to_string()),
            ],
        );
    }

    // Sim-derived metrics only: wall clock must never enter the registry,
    // because the registry rides inside the deterministic outcome.
    let offload = device.offload_totals();
    let mut metrics = MetricsRegistry::new();
    metrics.counter_add("member.runs", 1);
    metrics.counter_add("member.ops", replay.records);
    metrics.counter_add("member.interruptions", interruptions);
    metrics.counter_add("member.power_cuts", device.power_cut_count());
    metrics.counter_add("member.compromised", u64::from(compromised));
    metrics.counter_add("member.degraded", u64::from(degraded));
    metrics.counter_add(
        "member.flagged",
        u64::from(analysis.verdict != Verdict::Benign),
    );
    metrics.gauge_max("detect.score.max", analysis.score);
    // The offload health surface: how far the fleet's worst member
    // degraded, and what the outage cost in durable staging and admission
    // control. All sim-derived, so the determinism contract holds.
    metrics.gauge_max(
        "offload.health.max",
        f64::from(offload.health_peak.severity()),
    );
    metrics.counter_add("offload.failures", offload.offload_failures);
    metrics.counter_add("offload.segments_spilled", offload.segments_spilled);
    metrics.counter_add("offload.spill_replayed", offload.spill_replayed);
    metrics.counter_add("offload.throttled_writes", offload.throttled_writes);
    metrics.counter_add("offload.throttle_penalty_ns", offload.throttle_penalty_ns);
    metrics.histogram_record("member.sim_end_ns", sim_end_ns);
    metrics.histogram_record("member.records_audited", audit.records.len() as u64);

    Ok(MemberOutcome {
        scorecard: MemberScorecard {
            member,
            kind: kind.label(),
            tenant,
            profile: profile.name.to_string(),
            compromised,
            faulted,
            degraded,
            verdict: analysis.verdict,
            detection_score: analysis.score,
            attack_class: analysis.attack_class.to_string(),
            chain_verified: audit.verified,
            records_audited: audit.records.len() as u64,
            ops: replay.records,
            sim_end_ns,
            power_cuts: device.power_cut_count(),
            interruptions,
        },
        nand: device.nand_totals(),
        ftl: device.ftl_totals(),
        offload,
        latency: device.latency_totals(),
        queues,
        replay,
        metrics,
        observations,
    })
}

/// Zipf-samples the member's tenant and resolves the tenant's profile.
fn assign_tenant(config: &FleetConfig, mseed: u64) -> (usize, TraceProfile) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let tenants = config.tenants.max(1);
    let mut rng = StdRng::seed_from_u64(mseed);
    let tenant = Zipf::new(tenants, config.zipf_theta).sample(&mut rng);
    let all = TraceProfile::all();
    let profile = all[tenant % all.len()].clone();
    (tenant, profile)
}

/// Builds the member's full record stream: benign prefix from the tenant's
/// calibrated profile (with diurnal pacing when enabled), the hostage
/// corpus, and — on compromised members — a classic read-encrypt-overwrite
/// pass over the corpus followed by a trim sweep of the scratch tail.
fn synthesize_stream(
    config: &FleetConfig,
    mseed: u64,
    tenant: usize,
    profile: &TraceProfile,
    compromised: bool,
    logical_pages: u64,
    page_size: usize,
) -> Vec<IoRecord> {
    let tenants = config.tenants.max(1);
    let mut builder = profile.workload_builder(logical_pages, page_size, mseed);
    if config.diurnal {
        let curve =
            DiurnalLoad::seeded(config.seed).with_phase_fraction(tenant as f64 / tenants as f64);
        builder = builder.diurnal(curve);
    }
    let mut records: Vec<IoRecord> = builder.build().take(config.ops_per_member).collect();
    let benign_end = records.last().map_or(0, |r| r.at_ns);

    // The hostage corpus: known content in the hot region, journal-flushed.
    let corpus_pages = CORPUS_PAGES.min(logical_pages / 4).max(1);
    let mut at = benign_end + PHASE_GAP_NS;
    for lpa in 0..corpus_pages {
        records.push(IoRecord::write(at, lpa, PayloadKind::Text, mseed ^ lpa));
        at += 1_000_000;
    }

    if compromised {
        // Classic ransomware: read each hostage page, overwrite it with an
        // incompressible ciphertext, then trim-sweep the next stripe of
        // pages — fast cadence, the Figure-6 "classic" actor shape.
        at += PHASE_GAP_NS;
        for lpa in 0..corpus_pages {
            records.push(IoRecord::read(at, lpa));
            records.push(IoRecord::write(
                at + ATTACK_TICK_NS / 4,
                lpa,
                PayloadKind::Random,
                mseed ^ lpa ^ 0xdead,
            ));
            at += ATTACK_TICK_NS;
        }
        for lpa in corpus_pages..(corpus_pages * 2).min(logical_pages) {
            records.push(IoRecord::trim(at, lpa));
            at += ATTACK_TICK_NS / 2;
        }
    }
    records
}

/// Reconstructs the detector observations a log-backed host monitor would
/// derive from the member's submitted stream: entropy of each written
/// payload, overwrite-of-valid tracking, read-before-overwrite correlation
/// within [`READ_WINDOW_NS`], and trims of valid pages.
fn observe_stream(records: &[IoRecord], page_size: usize) -> Vec<WriteObservation> {
    let mut valid: HashSet<u64> = HashSet::new();
    let mut recent_reads: HashMap<u64, u64> = HashMap::new();
    let mut out = Vec::new();
    for record in records {
        match record.op {
            IoOp::Read => {
                recent_reads.insert(record.lpa, record.at_ns);
            }
            IoOp::Write => {
                let entropy = shannon_entropy(&synthesize_page(
                    record.payload,
                    record.payload_seed,
                    page_size,
                ));
                for page in 0..u64::from(record.pages) {
                    let lpa = record.lpa + page;
                    let read_before = recent_reads
                        .get(&lpa)
                        .is_some_and(|&t| record.at_ns.saturating_sub(t) <= READ_WINDOW_NS);
                    out.push(if valid.contains(&lpa) {
                        WriteObservation::overwrite(record.at_ns, lpa, entropy, read_before)
                    } else {
                        WriteObservation::fresh_write(record.at_ns, lpa, entropy)
                    });
                    valid.insert(lpa);
                }
            }
            IoOp::Trim => {
                for page in 0..u64::from(record.pages) {
                    let lpa = record.lpa + page;
                    if valid.remove(&lpa) {
                        out.push(WriteObservation::trim(record.at_ns, lpa));
                    }
                }
            }
        }
    }
    out
}

/// Power restore with the link-heal fallback: a restore that fails because
/// the uplink is partitioned heals the partition and retries once. Returns
/// `false` when the member cannot come back at all — recovery refuses a
/// holed history after a silent-drop partition lost acknowledged offloads.
fn restore_power<D: FaultTarget>(device: &mut D) -> bool {
    if device.power_restore().is_ok() {
        return true;
    }
    device.heal_partition();
    device.power_restore().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FleetConfig {
        FleetConfig {
            members: 8,
            ops_per_member: 60,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn member_run_is_deterministic() {
        let cfg = small_config();
        let a = run_member(&cfg, 0).unwrap();
        let b = run_member(&cfg, 0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_members_differ() {
        let cfg = small_config();
        let a = run_member(&cfg, 0).unwrap();
        let b = run_member(&cfg, 1).unwrap();
        assert_ne!(a.scorecard.sim_end_ns, 0);
        assert_ne!(a.replay, b.replay);
    }

    #[test]
    fn compromised_member_is_detected_benign_member_is_not() {
        let cfg = FleetConfig {
            members: 64,
            ops_per_member: 80,
            ..FleetConfig::default()
        };
        let attacked = (0..cfg.members).find(|&m| cfg.member_compromised(m));
        let clean = (0..cfg.members).find(|&m| !cfg.member_compromised(m));
        let attacked = run_member(&cfg, attacked.expect("some member compromised")).unwrap();
        let clean = run_member(&cfg, clean.expect("some member clean")).unwrap();
        assert_ne!(
            attacked.scorecard.verdict,
            Verdict::Benign,
            "ransomware member must be flagged: {:?}",
            attacked.scorecard
        );
        assert_eq!(
            clean.scorecard.verdict,
            Verdict::Benign,
            "benign member must stay clean: {:?}",
            clean.scorecard
        );
    }

    #[test]
    fn array_member_merges_shard_stats() {
        let cfg = small_config();
        let id = (0..cfg.members)
            .find(|&m| matches!(cfg.member_kind(m), MemberKind::Array { .. }))
            .expect("mix rule yields an array member");
        let outcome = run_member(&cfg, id).unwrap();
        assert_eq!(outcome.scorecard.kind, "array3");
        assert!(outcome.nand.programs() > 0);
        assert!(outcome.offload.segments_offloaded > 0);
    }

    #[test]
    fn degraded_member_spills_through_the_outage_and_recovers() {
        let cfg = FleetConfig {
            members: 8,
            ops_per_member: 80,
            outage_fraction: 1.0,
            ..FleetConfig::default()
        };
        let id = (0..cfg.members)
            .find(|&m| cfg.member_compromised(m) && cfg.member_kind(m) == MemberKind::Bare)
            .expect("some bare member compromised");
        assert!(cfg.member_degraded(id), "outage_fraction 1.0 degrades all");
        let outcome = run_member(&cfg, id).unwrap();
        assert!(outcome.scorecard.degraded);
        assert!(
            outcome.offload.offload_failures > 0,
            "the blackout refused offload traffic: {:?}",
            outcome.offload
        );
        assert!(
            outcome.offload.segments_spilled > 0,
            "sealed evidence staged durably during the outage: {:?}",
            outcome.offload
        );
        assert_eq!(
            outcome.offload.segments_offloaded, outcome.offload.segments_sealed,
            "the backlog fully drained after heal"
        );
        assert!(outcome.scorecard.chain_verified, "outage must not fork");
        assert_ne!(
            outcome.scorecard.verdict,
            Verdict::Benign,
            "detection survives the degraded run"
        );
        assert!(
            outcome.metrics.gauge("offload.health.max").unwrap_or(0.0) > 0.0,
            "the health machine left Healthy during the blackout"
        );
    }

    #[test]
    fn degraded_members_leave_clean_members_untouched() {
        // outage_fraction 0 must reproduce the exact pre-outage fleet
        // behavior: same devices, same schedules, same bytes.
        let cfg = small_config();
        assert!((0..cfg.members).all(|m| !cfg.member_degraded(m)));
        let a = run_member(&cfg, 0).unwrap();
        let b = run_member(&cfg, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.offload.segments_spilled, 0);
        // A healthy wire never degrades past Buffering (transient staging
        // between seal and ack).
        assert!(a.metrics.gauge("offload.health.max").unwrap() <= 1.0);
    }

    #[test]
    fn faulted_array_member_rides_out_a_dead_shard() {
        // Once the schedule kills a shard, every later record aimed at it
        // aborts the replay. Each abort issues records, so none of them
        // may count toward the stuck guard.
        let cfg = FleetConfig {
            members: 32,
            seed: 4,
            array_every: 8,
            array_shards: 3,
            fault_fraction: 0.1,
            compromised_fraction: 0.25,
            outage_fraction: 0.1,
            link: rssd_net::LinkConfig::datacenter_10g(),
            ..FleetConfig::default()
        };
        let id = 15;
        assert!(matches!(cfg.member_kind(id), MemberKind::Array { .. }));
        assert!(cfg.member_faulted(id));
        let outcome = run_member(&cfg, id).expect("a dead shard must not stall the member");
        assert!(
            outcome.scorecard.interruptions > MAX_INTERRUPTIONS,
            "every refusal is still reported: {}",
            outcome.scorecard.interruptions
        );
    }

    #[test]
    fn degraded_array_member_revives_its_spill_enabled_shards() {
        // Outage members run on spill-enabled (larger) shards; a dead one
        // must be rebuilt onto a replacement that exports as many pages.
        let cfg = FleetConfig {
            members: 32,
            seed: 4,
            array_every: 4,
            array_shards: 3,
            fault_fraction: 1.0,
            outage_fraction: 1.0,
            compromised_fraction: 0.5,
            link: rssd_net::LinkConfig::datacenter_10g(),
            ..FleetConfig::default()
        };
        let id = 3;
        assert!(matches!(cfg.member_kind(id), MemberKind::Array { .. }));
        assert!(cfg.member_degraded(id));
        let outcome = run_member(&cfg, id).expect("a durable shard must be revivable");
        assert!(outcome.scorecard.interruptions > 0, "the shard death fired");
    }

    #[test]
    fn observe_stream_tracks_validity_and_reads() {
        let records = vec![
            IoRecord::write(0, 5, PayloadKind::Text, 1),
            IoRecord::read(10, 5),
            IoRecord::write(20, 5, PayloadKind::Random, 2),
            IoRecord::trim(30, 5),
            IoRecord::trim(40, 6), // never valid: no observation
        ];
        let obs = observe_stream(&records, 4096);
        assert_eq!(obs.len(), 3);
        assert!(!obs[0].overwrote_valid);
        assert!(obs[1].overwrote_valid && obs[1].read_before_overwrite);
        assert!(obs[2].is_trim);
    }
}
