//! The scenario matrix: workload profile × attack actor × fault schedule ×
//! topology, every cell scored.
//!
//! A [`Scenario`] names one cell. Running it is fully deterministic: the
//! workload generator, the attack actors, the simulated clock and the
//! [`FaultSchedule`] are all seeded, so a cell id plus a seed reproduces
//! the exact same torn batch and the exact same scorecard, on every
//! machine, every run.
//!
//! Each cell executes the same four phases:
//!
//! 1. **Benign prefix** — the cell's [`TraceProfile`] replayed through the
//!    NVMe queue layer (queue shape per [`Topology`]).
//! 2. **Corpus** — a [`FileTable`] of known content, the hostages.
//! 3. **Attack under faults** — the cell's fault plan is anchored to the
//!    attack's op window and armed on the [`FaultInjector`]; the actor
//!    runs against the injector. Power cuts interrupt the actor (it
//!    restarts after power returns — malware persists); shard deaths make
//!    it fail onto survivors until the harness revives the dead member.
//! 4. **Audit & scoring** — partitions heal, logs flush, dead shards are
//!    rebuilt to the pre-attack point, and the [`Scorecard`] is computed:
//!    detection (from the chain-derived history), point-in-time recovery
//!    of every victim page, data-loss accounting, and the evidence-chain
//!    verdict.
//!
//! Cells run on the NVMe-oE wire ([`Scenario::run_on`]): every member
//! offloads through a [`WireRemote`]<[`PermissiveTarget`]>, so the cell's
//! partition plan is a link blackout or a collector drop, never an
//! injected result. The same generic runner also drives an injector-free
//! device over plain [`LoopbackTarget`]s
//! ([`run_direct`](Scenario::run_direct)) — the pre-existing happy path —
//! which is what pins the harness: a `none` schedule must produce a
//! byte-identical scorecard in both pipelines.

use crate::injector::FaultInjector;
use crate::remote::{PartitionMode, PermissiveTarget};
use crate::schedule::{FaultEvent, FaultSchedule};
use crate::target::{scenario_member, FaultError, FaultTarget};
use rssd_array::RssdArray;
use rssd_attacks::{ClassicRansomware, FileTable, GcAttack, TimingAttack, TrimAttack};
use rssd_bench::BenchRow;
use rssd_core::{LoopbackTarget, PostAttackAnalyzer, WireRemote};
use rssd_detect::Verdict;
use rssd_flash::SimClock;
use rssd_net::{LinkConfig, SharedLink};
use rssd_obs::SinkHandle;
use rssd_ssd::{DeviceError, NvmeController, QueueId};
use rssd_trace::{replay_fanout, IoRecord, ReplayOutcome, TraceProfile};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Files in the hostage corpus. Sized so the victim set (files × pages)
/// sits well clear of the long-horizon profiler's 64-page noise floor and
/// of its 10 % coverage saturation point — detection must not hinge on
/// workload-seed luck.
const CORPUS_FILES: usize = 16;
/// Pages per hostage file (victim pages = files × pages).
const PAGES_PER_FILE: u64 = 8;
/// Benign workload records replayed before the corpus lands.
const BENIGN_RECORDS: usize = 240;
/// Simulated gap between phases, so phase boundaries have distinct
/// timestamps even under instant NAND timing.
const PHASE_GAP_NS: u64 = 1_000_000_000;
/// Attack attempts before the harness declares the cell stuck.
const MAX_ATTACK_ATTEMPTS: u32 = 4;

/// How the host drives the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// One device, one depth-1 queue pair (the scalar-compatible path).
    Bare,
    /// One device, several deep queue pairs fanned out round-robin.
    MultiQueue {
        /// Queue pairs.
        queues: usize,
        /// Depth of each pair.
        depth: usize,
    },
    /// A striped array of RSSD members behind the controller.
    Array {
        /// Member count.
        shards: usize,
        /// Stripe width in pages.
        stripe_pages: u64,
    },
    /// A striped array whose members all offload through **one shared
    /// NVMe-oE uplink** to a common remote: N devices funnel into a single
    /// wire, so concurrent offloads queue behind each other's serialization
    /// time. Not runnable through [`Scenario::run_direct`], which has no
    /// wire.
    SharedUplink {
        /// Member count.
        shards: usize,
        /// Stripe width in pages.
        stripe_pages: u64,
    },
}

impl Topology {
    /// The topology axis label of a cell id.
    pub fn label(&self) -> String {
        match self {
            Topology::Bare => "bare".to_string(),
            Topology::MultiQueue { queues, depth } => format!("mq{queues}x{depth}"),
            Topology::Array { shards, .. } => format!("array{shards}"),
            Topology::SharedUplink { shards, .. } => format!("uplink{shards}"),
        }
    }

    fn queue_shape(&self) -> (usize, usize) {
        match self {
            Topology::Bare => (1, 1),
            Topology::MultiQueue { queues, depth } => (*queues, *depth),
            Topology::Array { .. } | Topology::SharedUplink { .. } => (2, 8),
        }
    }

    fn shards(&self) -> usize {
        match self {
            Topology::Array { shards, .. } | Topology::SharedUplink { shards, .. } => *shards,
            _ => 1,
        }
    }

    /// The link [`Scenario::run`] gives this topology's uplinks: a shared
    /// uplink is a real 10 GbE wire (contention is what it measures);
    /// every other topology offloads over an ideal, zero-time link.
    pub fn link(&self) -> LinkConfig {
        match self {
            Topology::SharedUplink { .. } => LinkConfig::datacenter_10g(),
            _ => LinkConfig::ideal(),
        }
    }
}

/// The attack axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActorKind {
    /// No attack: the false-positive baseline.
    None,
    /// Fast read-encrypt-overwrite.
    Classic,
    /// Encrypt, then flood free space to force GC.
    GcFlood,
    /// Rate-limited encryption spread over hours.
    Timing,
    /// Encrypt-to-copy then trim the originals.
    Trim,
}

impl ActorKind {
    /// The actor axis label of a cell id.
    pub fn label(&self) -> &'static str {
        match self {
            ActorKind::None => "none",
            ActorKind::Classic => "classic",
            ActorKind::GcFlood => "gc_flood",
            ActorKind::Timing => "timing",
            ActorKind::Trim => "trim",
        }
    }

    /// Rough command count of one attack run — used only to anchor fault
    /// plans inside the attack window, so precision is not required.
    fn ops_estimate(&self, victim_pages: u64, logical_pages: u64) -> u64 {
        match self {
            ActorKind::None => 0,
            ActorKind::Classic | ActorKind::Timing => 2 * victim_pages,
            ActorKind::GcFlood => 2 * victim_pages + 2 * logical_pages.saturating_sub(victim_pages),
            ActorKind::Trim => victim_pages,
        }
    }
}

/// The fault axis: a phase-relative plan, resolved into an absolute
/// [`FaultSchedule`] once the attack's op window is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultPlan {
    /// No faults.
    None,
    /// Power dies halfway through the attack (torn batch, crash, recover).
    PowerCutMidAttack,
    /// The remote link partitions for the middle half of the attack;
    /// offloads are queued and replayed in order on heal.
    PartitionQueue,
    /// The remote link partitions late in the attack; offloads are acked
    /// and silently dropped — the chain-gap case.
    PartitionDrop,
    /// A sustained uplink blackout (refused offloads, no relay) covering
    /// the middle 30 % of the attack, with a power cut landing *inside*
    /// the blackout. The compound case the durable evidence spill exists
    /// for: sealed segments cannot leave the device and then the
    /// controller RAM dies — only the FTL spill region carries the staged
    /// evidence across the cut. Cells with this plan run on spill-enabled
    /// members ([`FaultPlan::needs_spill`]).
    BlackoutCut,
    /// One array member dies mid-attack.
    ShardDeath {
        /// The member to kill.
        shard: usize,
    },
    /// Two members die at different points of the attack.
    DoubleFault {
        /// First casualty.
        first: usize,
        /// Second casualty.
        second: usize,
    },
    /// A seeded pseudo-random mixture over the attack window.
    Seeded {
        /// Schedule seed.
        seed: u64,
    },
}

impl FaultPlan {
    /// The fault axis label of a cell id.
    pub fn label(&self) -> String {
        match self {
            FaultPlan::None => "none".to_string(),
            FaultPlan::PowerCutMidAttack => "power_cut".to_string(),
            FaultPlan::PartitionQueue => "partition_queue".to_string(),
            FaultPlan::PartitionDrop => "partition_drop".to_string(),
            FaultPlan::BlackoutCut => "blackout_cut".to_string(),
            FaultPlan::ShardDeath { .. } => "shard_death".to_string(),
            FaultPlan::DoubleFault { .. } => "double_fault".to_string(),
            FaultPlan::Seeded { seed } => format!("seeded_{seed}"),
        }
    }

    /// Resolves the plan against the attack window `[base, base + est)`.
    fn resolve(&self, base: u64, est: u64, shards: usize) -> FaultSchedule {
        let est = est.max(8);
        match self {
            FaultPlan::None => FaultSchedule::none(),
            FaultPlan::PowerCutMidAttack => FaultSchedule::power_cut(base + est / 2),
            FaultPlan::PartitionQueue => FaultSchedule::partition(
                PartitionMode::QueueForReplay,
                base + est / 4,
                base + 3 * est / 4,
            ),
            FaultPlan::PartitionDrop => FaultSchedule::partition(
                PartitionMode::DropSilently,
                base + est / 2,
                base + 3 * est / 4,
            ),
            // Blackout over the middle 30 % of the attack; the cut fires at
            // the same halfway op as `PowerCutMidAttack`, but here recovery
            // has to walk the spill region because the segments sealed
            // since 35 % never reached the remote.
            FaultPlan::BlackoutCut => FaultSchedule::new(
                "blackout_cut",
                vec![
                    FaultEvent::PartitionStart {
                        at_op: base + 7 * est / 20,
                        mode: PartitionMode::Refuse,
                    },
                    FaultEvent::PowerCut {
                        at_op: base + est / 2,
                    },
                    FaultEvent::PartitionHeal {
                        at_op: base + 13 * est / 20,
                    },
                ],
            ),
            // Deaths land late in the attack: retention guards *destroyed*
            // data, so a striped (parity-less) shard death forfeits whatever
            // live data the attack had not yet touched — the later the
            // death, the more the evidence chain covers. The residual loss
            // is the measured cost of striping without redundancy.
            FaultPlan::ShardDeath { shard } => {
                FaultSchedule::shard_death(*shard, base + 3 * est / 4)
            }
            FaultPlan::DoubleFault { first, second } => FaultSchedule::double_fault(
                *first,
                base + 7 * est / 12,
                *second,
                base + 5 * est / 6,
            ),
            FaultPlan::Seeded { seed } => FaultSchedule::seeded(*seed, est, shards).offset(base),
        }
    }

    /// Whether cells with this plan run on spill-enabled (durable) members.
    /// Only plans that combine an offload outage with a power cut need the
    /// FTL spill region; everything else runs on the baseline geometry so
    /// established cell scorecards stay byte-identical.
    #[must_use]
    pub fn needs_spill(&self) -> bool {
        matches!(self, FaultPlan::BlackoutCut)
    }
}

/// One cell of the scenario matrix.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Trace profile name (Figure 2 axis), e.g. `"hm"`.
    pub profile: &'static str,
    /// The attack actor.
    pub actor: ActorKind,
    /// The fault plan.
    pub plan: FaultPlan,
    /// The host/device topology.
    pub topology: Topology,
    /// Master seed (workload, actor keys, corpus content).
    pub seed: u64,
}

impl Scenario {
    /// The cell id: `profile/actor/fault/topology`.
    pub fn cell_id(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.profile,
            self.actor.label(),
            self.plan.label(),
            self.topology.label()
        )
    }

    /// Runs the cell on its topology's [`link`](Topology::link), untraced.
    ///
    /// # Errors
    ///
    /// [`FaultError`] when the harness itself cannot proceed (never for a
    /// fault the schedule injected — those are scored, not errored).
    pub fn run(&self) -> Result<Scorecard, FaultError> {
        self.run_on(self.topology.link(), SinkHandle::disabled())
    }

    /// Runs the cell through the fault pipeline over `link`: members over
    /// [`WireRemote`]<[`PermissiveTarget`]> wrapped in a [`FaultInjector`],
    /// so every offloaded segment crosses the simulated NVMe-oE fabric with
    /// `link`'s bandwidth/propagation/loss, and the cell's partition plan
    /// becomes link blackouts and collector drops. [`Topology::SharedUplink`]
    /// members offload through clones of one [`SharedLink`]; other
    /// topologies get private uplinks.
    ///
    /// `sink` is installed across the whole cell stack (NAND, FTL, offload
    /// engine, wire, fault injector, detection verdict). A recording sink
    /// leaves the scorecard byte-identical — sink identity is not
    /// simulation state, which the determinism proptests pin.
    ///
    /// # Errors
    ///
    /// [`FaultError`] when the harness itself cannot proceed (never for a
    /// fault the schedule injected — those are scored, not errored).
    pub fn run_on(&self, link: LinkConfig, sink: SinkHandle) -> Result<Scorecard, FaultError> {
        let durable = self.plan.needs_spill();
        let shared =
            matches!(self.topology, Topology::SharedUplink { .. }).then(|| SharedLink::new(link));
        let member = |id: u64| {
            let remote = match &shared {
                Some(uplink) => {
                    WireRemote::with_uplink(PermissiveTarget::new(), uplink.clone(), link)
                }
                None => WireRemote::new(PermissiveTarget::new(), link),
            };
            scenario_member(id, remote, durable)
        };
        match self.topology {
            Topology::Bare | Topology::MultiQueue { .. } => run_cell(
                FaultInjector::new(member(1), &FaultSchedule::none()),
                self,
                sink,
            ),
            Topology::Array {
                shards,
                stripe_pages,
            }
            | Topology::SharedUplink {
                shards,
                stripe_pages,
            } => {
                let members = (0..shards as u64).map(member).collect();
                let array = RssdArray::new(members, stripe_pages, SimClock::new());
                run_cell(
                    FaultInjector::new(array, &FaultSchedule::none()),
                    self,
                    sink,
                )
            }
        }
    }

    /// Runs the cell through the pre-existing direct pipeline: plain
    /// [`LoopbackTarget`] remotes, no injector, no wrappers. Only valid for
    /// [`FaultPlan::None`] — this is the differential baseline that pins
    /// the harness against the repo's established behavior.
    ///
    /// # Errors
    ///
    /// [`FaultError::Scenario`] when the cell has a fault plan, or any
    /// harness failure.
    pub fn run_direct(&self) -> Result<Scorecard, FaultError> {
        let direct_member = |id| scenario_member(id, LoopbackTarget::new(), false);
        match self.topology {
            _ if self.plan != FaultPlan::None => Err(FaultError::Scenario(
                "the direct pipeline cannot inject faults; use run()".to_string(),
            )),
            Topology::Bare | Topology::MultiQueue { .. } => {
                run_cell(direct_member(1), self, SinkHandle::disabled())
            }
            Topology::Array {
                shards,
                stripe_pages,
            } => {
                let members = (0..shards as u64).map(direct_member).collect();
                let array = RssdArray::new(members, stripe_pages, SimClock::new());
                run_cell(array, self, SinkHandle::disabled())
            }
            Topology::SharedUplink { .. } => Err(FaultError::Scenario(
                "a shared uplink only exists on the wire; use run()".to_string(),
            )),
        }
    }
}

/// The measured outcome of one scenario cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct Scorecard {
    /// Cell id (`profile/actor/fault/topology`).
    pub cell: String,
    /// Master seed the cell ran under.
    pub seed: u64,
    /// Ensemble verdict over the chain-derived history.
    pub verdict: Verdict,
    /// Combined suspicion score.
    pub detection_score: f64,
    /// Attack classification string.
    pub attack_class: String,
    /// Attack cell flagged (verdict above benign).
    pub true_positive: bool,
    /// Benign cell flagged (false alarm).
    pub false_positive: bool,
    /// Distinct pages the attack destroyed.
    pub victim_pages: u64,
    /// Victim pages whose pre-attack content the defender can produce
    /// (point-in-time recovery or already-restored content).
    pub recovered_pages: u64,
    /// `recovered / victims` (1.0 when nothing was attacked).
    pub recovery_fraction: f64,
    /// Bytes of victim data the defender cannot produce.
    pub data_loss_bytes: u64,
    /// Evidence chain verified end to end with every record accounted for.
    pub chain_verified: bool,
    /// A chain gap or tamper was *detected* (never silent).
    pub chain_gap_detected: bool,
    /// Records the audit examined.
    pub records_audited: u64,
    /// Power cuts the schedule fired.
    pub power_cuts: u64,
    /// Batches torn mid-execution by a cut.
    pub torn_batches: u64,
    /// Times the attack was interrupted (cut or dead shard) and resumed.
    pub attack_interruptions: u64,
    /// Array members revived by rebuild during the cell.
    pub shards_revived: u64,
    /// Segments the device believes durably offloaded.
    pub segments_offloaded: u64,
    /// Offload attempts that failed visibly.
    pub offload_failures: u64,
    /// Sealed segments staged durably in the FTL spill region while the
    /// remote was unreachable.
    pub segments_spilled: u64,
    /// Spilled segments replayed back into the staged queue by post-cut
    /// recovery.
    pub spill_replayed: u64,
    /// Offloads buffered during queue-mode partitions.
    pub offloads_queued: u64,
    /// Buffered offloads replayed in order on heal.
    pub offloads_replayed: u64,
    /// Offloads acked and destroyed by drop-mode partitions.
    pub offloads_dropped: u64,
    /// Scheduled events inapplicable to the topology (should be 0 in a
    /// well-formed matrix).
    pub skipped_events: u64,
}

impl Scorecard {
    /// Deterministic JSON rendering (fixed key order, fixed float format) —
    /// the byte-identity the differential tests compare.
    pub fn to_json(&self) -> String {
        let verdict = match self.verdict {
            Verdict::Benign => "benign",
            Verdict::Suspicious => "suspicious",
            Verdict::Ransomware => "ransomware",
        };
        format!(
            "{{\"cell\": \"{}\", \"seed\": {}, \"verdict\": \"{}\", \
             \"detection_score\": {:.6}, \"attack_class\": \"{}\", \
             \"true_positive\": {}, \"false_positive\": {}, \
             \"victim_pages\": {}, \"recovered_pages\": {}, \
             \"recovery_fraction\": {:.6}, \"data_loss_bytes\": {}, \
             \"chain_verified\": {}, \"chain_gap_detected\": {}, \
             \"records_audited\": {}, \"power_cuts\": {}, \
             \"torn_batches\": {}, \"attack_interruptions\": {}, \
             \"shards_revived\": {}, \"segments_offloaded\": {}, \
             \"offload_failures\": {}, \"segments_spilled\": {}, \
             \"spill_replayed\": {}, \"offloads_queued\": {}, \
             \"offloads_replayed\": {}, \"offloads_dropped\": {}, \
             \"skipped_events\": {}}}",
            self.cell,
            self.seed,
            verdict,
            self.detection_score,
            self.attack_class,
            self.true_positive,
            self.false_positive,
            self.victim_pages,
            self.recovered_pages,
            self.recovery_fraction,
            self.data_loss_bytes,
            self.chain_verified,
            self.chain_gap_detected,
            self.records_audited,
            self.power_cuts,
            self.torn_batches,
            self.attack_interruptions,
            self.shards_revived,
            self.segments_offloaded,
            self.offload_failures,
            self.segments_spilled,
            self.spill_replayed,
            self.offloads_queued,
            self.offloads_replayed,
            self.offloads_dropped,
            self.skipped_events,
        )
    }

    /// The scorecard as a bench row for `BENCH_scenarios.json`.
    pub fn bench_row(&self) -> BenchRow {
        BenchRow {
            config: self.cell.clone(),
            metrics: vec![
                ("true_positive", if self.true_positive { 1.0 } else { 0.0 }),
                (
                    "false_positive",
                    if self.false_positive { 1.0 } else { 0.0 },
                ),
                ("detection_score", self.detection_score),
                ("victim_pages", self.victim_pages as f64),
                ("recovered_pages", self.recovered_pages as f64),
                ("recovery_fraction", self.recovery_fraction),
                ("data_loss_bytes", self.data_loss_bytes as f64),
                (
                    "chain_verified",
                    if self.chain_verified { 1.0 } else { 0.0 },
                ),
                (
                    "chain_gap_detected",
                    if self.chain_gap_detected { 1.0 } else { 0.0 },
                ),
                ("power_cuts", self.power_cuts as f64),
                ("torn_batches", self.torn_batches as f64),
                ("attack_interruptions", self.attack_interruptions as f64),
                ("shards_revived", self.shards_revived as f64),
                ("segments_spilled", self.segments_spilled as f64),
                ("spill_replayed", self.spill_replayed as f64),
                ("offloads_dropped", self.offloads_dropped as f64),
            ],
        }
    }
}

/// The scenario matrix: a named set of cells run under one roof.
#[derive(Clone, Debug)]
pub struct ScenarioMatrix {
    /// The cells.
    pub cells: Vec<Scenario>,
}

impl ScenarioMatrix {
    /// The curated CI matrix: 12 cells spanning 3 topologies, 5 fault
    /// schedules and 5 actors (incl. the benign false-positive baselines),
    /// all seeded, all finishing in seconds. This is the grid the tier-1
    /// test asserts cell by cell.
    pub fn curated() -> Self {
        let array = Topology::Array {
            shards: 3,
            stripe_pages: 4,
        };
        let mq = Topology::MultiQueue {
            queues: 4,
            depth: 8,
        };
        let cell = |profile, actor, plan, topology, seed| Scenario {
            profile,
            actor,
            plan,
            topology,
            seed,
        };
        ScenarioMatrix {
            cells: vec![
                cell("hm", ActorKind::None, FaultPlan::None, Topology::Bare, 11),
                cell(
                    "hm",
                    ActorKind::Classic,
                    FaultPlan::None,
                    Topology::Bare,
                    12,
                ),
                cell(
                    "hm",
                    ActorKind::Classic,
                    FaultPlan::PowerCutMidAttack,
                    Topology::Bare,
                    13,
                ),
                cell(
                    "hm",
                    ActorKind::Classic,
                    FaultPlan::PartitionQueue,
                    Topology::Bare,
                    14,
                ),
                cell(
                    "hm",
                    ActorKind::Trim,
                    FaultPlan::PartitionDrop,
                    Topology::Bare,
                    15,
                ),
                cell("src", ActorKind::GcFlood, FaultPlan::None, mq, 16),
                cell(
                    "src",
                    ActorKind::Timing,
                    FaultPlan::PowerCutMidAttack,
                    mq,
                    17,
                ),
                cell("src", ActorKind::Trim, FaultPlan::None, mq, 18),
                cell("mail", ActorKind::None, FaultPlan::None, array, 19),
                cell("mail", ActorKind::Classic, FaultPlan::None, array, 20),
                cell(
                    "mail",
                    ActorKind::Classic,
                    FaultPlan::ShardDeath { shard: 1 },
                    array,
                    21,
                ),
                cell(
                    "mail",
                    ActorKind::Trim,
                    FaultPlan::DoubleFault {
                        first: 0,
                        second: 2,
                    },
                    array,
                    22,
                ),
                // The degradation acceptance cells: a sustained uplink
                // blackout with a power cut inside it, on spill-enabled
                // members. Appended after the original grid so the
                // determinism tests' positional cell references stay valid.
                cell(
                    "hm",
                    ActorKind::Classic,
                    FaultPlan::BlackoutCut,
                    Topology::Bare,
                    23,
                ),
                cell("src", ActorKind::Timing, FaultPlan::BlackoutCut, mq, 24),
            ],
        }
    }

    /// Runs every cell, in order.
    ///
    /// # Errors
    ///
    /// Propagates the first harness failure (injected faults never error —
    /// they are scored).
    pub fn run(&self) -> Result<Vec<Scorecard>, FaultError> {
        self.cells.iter().map(Scenario::run).collect()
    }

    /// Bench rows for [`rssd_bench::write_bench_json`].
    pub fn bench_rows(cards: &[Scorecard]) -> Vec<BenchRow> {
        cards.iter().map(Scorecard::bench_row).collect()
    }
}

/// Aggregate rollup over a set of scenario [`Scorecard`]s — the matrix's
/// merge API, so examples and harnesses fold cell results through one
/// audited path instead of hand-summing fields (which drifts the moment a
/// counter is added).
///
/// [`MatrixSummary::absorb`] folds one card in; [`MatrixSummary::merge`]
/// combines two summaries. Both are associative with
/// `MatrixSummary::default()` as identity, so a summary built per-shard,
/// per-thread, or per-cell folds to the same totals in any grouping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[must_use]
pub struct MatrixSummary {
    /// Cards absorbed.
    pub cells: u64,
    /// Cards whose cell ran an attack actor.
    pub attacked_cells: u64,
    /// Attacked cards flagged above benign.
    pub true_positives: u64,
    /// Benign cards flagged (false alarms).
    pub false_positives: u64,
    /// Victim pages across all cards.
    pub victim_pages: u64,
    /// Recovered victim pages across all cards.
    pub recovered_pages: u64,
    /// Bytes of victim data no card's defender could produce.
    pub data_loss_bytes: u64,
    /// Power cuts fired across all cards.
    pub power_cuts: u64,
    /// Batches torn mid-execution across all cards.
    pub torn_batches: u64,
    /// Attack interruptions absorbed across all cards.
    pub attack_interruptions: u64,
    /// Array members revived across all cards.
    pub shards_revived: u64,
    /// Segments durably offloaded across all cards.
    pub segments_offloaded: u64,
    /// Offloads dropped by silent partitions across all cards.
    pub offloads_dropped: u64,
    /// Cards whose chain had a *detected* gap.
    pub chain_gaps_detected: u64,
    /// Cards whose chain neither verified nor flagged a gap — must stay 0
    /// (the "no silent gaps" invariant).
    pub silent_chain_gaps: u64,
    /// Fault-free attacked cards (the 100%-recovery obligation set).
    pub fault_free_attacked: u64,
    /// Fault-free attacked cards that recovered every victim page.
    pub fault_free_recovered: u64,
}

impl MatrixSummary {
    /// Folds one cell's scorecard into the summary.
    pub fn absorb(&mut self, card: &Scorecard) {
        self.cells += 1;
        if card.victim_pages > 0 || card.true_positive {
            self.attacked_cells += 1;
        }
        self.true_positives += u64::from(card.true_positive);
        self.false_positives += u64::from(card.false_positive);
        self.victim_pages += card.victim_pages;
        self.recovered_pages += card.recovered_pages;
        self.data_loss_bytes += card.data_loss_bytes;
        self.power_cuts += card.power_cuts;
        self.torn_batches += card.torn_batches;
        self.attack_interruptions += card.attack_interruptions;
        self.shards_revived += card.shards_revived;
        self.segments_offloaded += card.segments_offloaded;
        self.offloads_dropped += card.offloads_dropped;
        self.chain_gaps_detected += u64::from(card.chain_gap_detected);
        self.silent_chain_gaps += u64::from(card.chain_verified == card.chain_gap_detected);
        let fault_free = card.cell.contains("/none/");
        if fault_free && card.victim_pages > 0 {
            self.fault_free_attacked += 1;
            self.fault_free_recovered += u64::from(card.recovery_fraction == 1.0);
        }
    }

    /// Combines another summary into this one (fleet-of-matrices rollup).
    pub fn merge(&mut self, other: &MatrixSummary) {
        self.cells += other.cells;
        self.attacked_cells += other.attacked_cells;
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.victim_pages += other.victim_pages;
        self.recovered_pages += other.recovered_pages;
        self.data_loss_bytes += other.data_loss_bytes;
        self.power_cuts += other.power_cuts;
        self.torn_batches += other.torn_batches;
        self.attack_interruptions += other.attack_interruptions;
        self.shards_revived += other.shards_revived;
        self.segments_offloaded += other.segments_offloaded;
        self.offloads_dropped += other.offloads_dropped;
        self.chain_gaps_detected += other.chain_gaps_detected;
        self.silent_chain_gaps += other.silent_chain_gaps;
        self.fault_free_attacked += other.fault_free_attacked;
        self.fault_free_recovered += other.fault_free_recovered;
    }

    /// Merged recovery fraction over every victim page (1.0 when no card
    /// had victims) — page-weighted, like the fleet WAF.
    #[must_use]
    pub fn recovery_fraction(&self) -> f64 {
        if self.victim_pages == 0 {
            return 1.0;
        }
        self.recovered_pages as f64 / self.victim_pages as f64
    }

    /// The CI invariants, evaluated on merged counters: fault-free attacked
    /// cells all recovered fully, no benign cell false-positived, and no
    /// chain gap went unflagged.
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        self.fault_free_recovered == self.fault_free_attacked
            && self.false_positives == 0
            && self.silent_chain_gaps == 0
    }
}

/// Brings a cut device back. Recovery walks the remote evidence chain, so
/// if the cut landed inside an open partition window the first attempt
/// fails on the unreachable store — a real operator restores the network
/// before power-cycling the array, so the helper heals the link and
/// retries once. (A schedule that *dropped* offloads and crashed after
/// post-gap segments landed leaves the device unrecoverable by policy —
/// recovery refuses to resume over a holed chain — and the error
/// propagates.)
fn restore_power_with_link<D: FaultTarget>(device: &mut D) -> Result<(), FaultError> {
    if device.power_restore().is_err() {
        device.heal_partition();
        let _ = device.power_restore()?;
    }
    Ok(())
}

/// Replays `records` with resume-across-power-cuts: an abort caused by a
/// scheduled cut restores power and continues from the next record; any
/// other abort is a harness failure.
fn replay_resilient<D: FaultTarget>(
    device: &mut D,
    records: Vec<IoRecord>,
    queues: usize,
    depth: usize,
    interruptions: &mut u64,
) -> Result<(), FaultError> {
    let mut remaining = records;
    loop {
        let outcome = {
            let mut controller = NvmeController::new(&mut *device);
            let qids: Vec<QueueId> = (0..queues)
                .map(|_| controller.create_queue_pair(depth))
                .collect();
            replay_fanout(&mut controller, &qids, remaining.clone())
        };
        match outcome {
            ReplayOutcome::Completed(_) => return Ok(()),
            ref aborted @ ReplayOutcome::Aborted { ref error, .. } => {
                match error {
                    DeviceError::PowerLoss => {
                        restore_power_with_link(device)?;
                        *interruptions += 1;
                    }
                    // Writes aimed at a dead member while the benign phase
                    // runs degraded: skip the record, like a stalled write.
                    DeviceError::ShardFailed { .. } => *interruptions += 1,
                    other => {
                        return Err(FaultError::Scenario(format!(
                            "benign replay aborted on unexplained error: {other}"
                        )))
                    }
                }
                let issued = aborted.resume_index().min(remaining.len());
                remaining = remaining.split_off(issued);
                if remaining.is_empty() {
                    return Ok(());
                }
            }
        }
    }
}

/// Runs one attack attempt, returning the destroyed pages on success.
fn attack_once<D: FaultTarget>(
    device: &mut D,
    actor: ActorKind,
    victims: &FileTable,
    seed: u64,
) -> Result<Vec<u64>, DeviceError> {
    let outcome = match actor {
        ActorKind::None => return Ok(Vec::new()),
        ActorKind::Classic => ClassicRansomware::new(seed).execute(device, victims)?,
        ActorKind::GcFlood => GcAttack::new(seed, 2).execute(device, victims)?,
        ActorKind::Timing => {
            TimingAttack::new(seed, 8, 30 * 60 * 1_000_000_000)
                .execute(device, victims, |_| Ok(()))?
        }
        ActorKind::Trim => TrimAttack::new(seed, false).execute(device, victims)?,
    };
    Ok(outcome.victim_lpas)
}

/// The generic cell runner — same code for the faulted and direct
/// pipelines; only the device type differs. `sink` is installed on the
/// device stack before the first command.
fn run_cell<D: FaultTarget>(
    mut device: D,
    scenario: &Scenario,
    sink: SinkHandle,
) -> Result<Scorecard, FaultError> {
    device.set_trace_sink(sink.clone());
    let profile = TraceProfile::by_name(scenario.profile)
        .ok_or_else(|| FaultError::Scenario(format!("unknown profile {}", scenario.profile)))?;
    let logical_pages = device.logical_pages();
    let page_size = device.page_size();
    let (queues, depth) = scenario.topology.queue_shape();
    let mut interruptions = 0u64;

    // Phase 1: benign prefix through the queue layer.
    let records: Vec<IoRecord> = profile
        .workload(logical_pages, page_size, scenario.seed)
        .take(BENIGN_RECORDS)
        .collect();
    replay_resilient(&mut device, records, queues, depth, &mut interruptions)?;
    device.clock().advance(PHASE_GAP_NS);

    // Phase 2: the hostage corpus.
    let victims = FileTable::populate(&mut device, CORPUS_FILES, PAGES_PER_FILE, scenario.seed)
        .map_err(|e| FaultError::Scenario(format!("corpus population failed: {e}")))?;
    device.clock().advance(PHASE_GAP_NS);
    let attack_start = device.clock().now_ns();

    // Phase 3: arm the fault plan against the attack window and attack.
    let est = scenario
        .actor
        .ops_estimate(victims.total_pages(), logical_pages);
    let schedule = scenario
        .plan
        .resolve(device.ops_count(), est, scenario.topology.shards());
    let armed = device.arm_schedule(&schedule);
    if !armed && !schedule.is_none() {
        return Err(FaultError::Scenario(
            "cell has a fault plan but the device cannot arm schedules".to_string(),
        ));
    }

    let victim_lpas: Vec<u64>;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match attack_once(&mut device, scenario.actor, &victims, scenario.seed) {
            Ok(lpas) => {
                victim_lpas = lpas;
                break;
            }
            Err(DeviceError::PowerLoss) if attempts < MAX_ATTACK_ATTEMPTS => {
                restore_power_with_link(&mut device)?;
                interruptions += 1;
            }
            Err(DeviceError::ShardFailed { .. }) if attempts < MAX_ATTACK_ATTEMPTS => {
                // The defender rebuilds the dead member to the pre-attack
                // point; the attacker (persistent malware) retries.
                device.revive_dead_shards(Some(attack_start))?;
                interruptions += 1;
            }
            Err(e) => {
                return Err(FaultError::Scenario(format!(
                    "attack aborted on unexplained error after {attempts} attempts: {e}"
                )))
            }
        }
    }

    // Phase 4: heal, settle, revive, audit, score. Scoring drives reads
    // through the same device, so whatever the schedule still holds (a cut
    // past the attack's actual op count — the estimate is rough) must not
    // fire mid-measurement: disarm first.
    let _ = device.arm_schedule(&FaultSchedule::none());
    device.heal_partition();
    if device.flush().is_err() {
        // flush only fails with PowerLoss here, when a cut fired right at
        // the attack's last op; restore and retry once.
        restore_power_with_link(&mut device)?;
        interruptions += 1;
        let _ = device.flush();
    }
    let revived = device.revive_dead_shards(if scenario.actor == ActorKind::None {
        None
    } else {
        Some(attack_start)
    })? as u64;

    let audit = device.history_audit();
    let analysis = PostAttackAnalyzer::new().analyze(&audit.records, audit.verified);
    if sink.is_enabled() {
        sink.instant(
            "detect",
            "verdict",
            device.clock().now_ns(),
            &[
                ("verdict", format!("{:?}", analysis.verdict)),
                ("score", format!("{:.3}", analysis.score)),
                ("attack_class", analysis.attack_class.to_string()),
            ],
        );
    }

    // Recovery scoring: can the defender produce every victim page's
    // pre-attack content — via point-in-time recovery, or because a rebuild
    // already put it back?
    let mut expected: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
    for (fi, file) in victims.files().iter().enumerate() {
        for (pi, lpa) in file.lpas().enumerate() {
            expected.insert(lpa, (fi, pi as u64));
        }
    }
    let mut distinct_victims: Vec<u64> = victim_lpas
        .iter()
        .copied()
        .filter(|l| expected.contains_key(l))
        .collect();
    distinct_victims.sort_unstable();
    distinct_victims.dedup();
    let mut recovered = 0u64;
    for &lpa in &distinct_victims {
        let (fi, pi) = expected[&lpa];
        let want = victims.files()[fi].expected_page(pi, page_size);
        let via_recovery = device
            .recover_as_of(lpa, attack_start)
            .is_some_and(|data| data == want);
        let via_content = via_recovery || device.read_page(lpa).is_ok_and(|data| data == want);
        if via_content {
            recovered += 1;
        }
    }
    let victim_count = distinct_victims.len() as u64;
    let recovery_fraction = if victim_count == 0 {
        1.0
    } else {
        recovered as f64 / victim_count as f64
    };

    let offload = device.offload_totals();
    let wire = device.wire_totals();
    let attacked = scenario.actor != ActorKind::None;
    Ok(Scorecard {
        cell: scenario.cell_id(),
        seed: scenario.seed,
        verdict: analysis.verdict,
        detection_score: analysis.score,
        attack_class: analysis.attack_class.to_string(),
        true_positive: attacked && analysis.verdict != Verdict::Benign,
        false_positive: !attacked && analysis.verdict != Verdict::Benign,
        victim_pages: victim_count,
        recovered_pages: recovered,
        recovery_fraction,
        data_loss_bytes: (victim_count - recovered) * page_size as u64,
        chain_verified: audit.verified,
        chain_gap_detected: !audit.verified,
        records_audited: audit.records.len() as u64,
        power_cuts: device.power_cut_count(),
        torn_batches: device.torn_batch_count(),
        attack_interruptions: interruptions,
        shards_revived: revived,
        segments_offloaded: offload.segments_offloaded,
        offload_failures: offload.offload_failures,
        segments_spilled: offload.segments_spilled,
        spill_replayed: offload.spill_replayed,
        offloads_queued: wire.relay_acked,
        offloads_replayed: wire.relay_replayed,
        offloads_dropped: wire.ingest_dropped,
        skipped_events: device.skipped_event_count(),
    })
}

#[cfg(test)]
mod summary_tests {
    use super::*;

    fn card(cell: &str, victims: u64, recovered: u64, verified: bool, gap: bool) -> Scorecard {
        Scorecard {
            cell: cell.to_string(),
            seed: 1,
            verdict: if victims > 0 {
                Verdict::Ransomware
            } else {
                Verdict::Benign
            },
            detection_score: 0.0,
            attack_class: String::new(),
            true_positive: victims > 0,
            false_positive: false,
            victim_pages: victims,
            recovered_pages: recovered,
            recovery_fraction: if victims == 0 {
                1.0
            } else {
                recovered as f64 / victims as f64
            },
            data_loss_bytes: (victims - recovered) * 4096,
            chain_verified: verified,
            chain_gap_detected: gap,
            records_audited: 10,
            power_cuts: 1,
            torn_batches: 0,
            attack_interruptions: 2,
            shards_revived: 0,
            segments_offloaded: 3,
            offload_failures: 0,
            segments_spilled: 0,
            spill_replayed: 0,
            offloads_queued: 0,
            offloads_replayed: 0,
            offloads_dropped: 1,
            skipped_events: 0,
        }
    }

    #[test]
    fn default_is_identity_for_merge() {
        let mut s = MatrixSummary::default();
        s.absorb(&card("text/none/none/bare", 8, 8, true, false));
        let mut left = s;
        left.merge(&MatrixSummary::default());
        let mut right = MatrixSummary::default();
        right.merge(&s);
        assert_eq!(left, s);
        assert_eq!(right, s);
    }

    #[test]
    fn merge_is_associative_and_matches_absorb_order() {
        let cards = [
            card("text/overwrite/none/bare", 8, 8, true, false),
            card("media/none/cuts/array", 0, 0, true, false),
            card("sql/trim/drop/array", 6, 4, false, true),
        ];
        // One summary absorbing everything...
        let mut whole = MatrixSummary::default();
        for c in &cards {
            whole.absorb(c);
        }
        // ...equals per-card summaries merged in either grouping.
        let parts: Vec<MatrixSummary> = cards
            .iter()
            .map(|c| {
                let mut s = MatrixSummary::default();
                s.absorb(c);
                s
            })
            .collect();
        let mut left = parts[0];
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut tail = parts[1];
        tail.merge(&parts[2]);
        let mut right = parts[0];
        right.merge(&tail);
        assert_eq!(left, whole);
        assert_eq!(right, whole);
    }

    #[test]
    fn invariants_catch_silent_gap_and_lossy_fault_free_cell() {
        let mut clean = MatrixSummary::default();
        clean.absorb(&card("text/overwrite/none/bare", 8, 8, true, false));
        assert!(clean.invariants_hold());
        assert_eq!(clean.fault_free_attacked, 1);
        assert_eq!(clean.recovery_fraction(), 1.0);

        // Chain neither verified nor flagged: silent gap, invariant fails.
        let mut silent = MatrixSummary::default();
        silent.absorb(&card("sql/trim/drop/array", 6, 6, false, false));
        assert!(!silent.invariants_hold());

        // Fault-free cell that lost pages: recovery obligation fails.
        let mut lossy = MatrixSummary::default();
        lossy.absorb(&card("media/random/none/bare", 8, 5, true, false));
        assert!(!lossy.invariants_hold());
        assert!(lossy.recovery_fraction() < 1.0);
    }
}
