//! `fleet`: 32 share-nothing members on a worker pool, then the
//! fleet-wide investigation: the fused detection pass over every member's
//! observation stream.

use crate::probe::time_ms;
use crate::{digest, median, Sample};
use rssd_detect::{merge_time_ordered, Ensemble, Verdict, WriteObservation};
use rssd_fleet::{run_member, Fleet, FleetConfig, FleetReport, MemberOutcome, ObsOptions};
use rssd_net::LinkConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const MEMBERS: usize = 96;
/// Repeats of the fused detection pass per iteration; the median is kept.
const FUSED_REPEATS: usize = 5;
/// Namespace stride of member pages in the fused stream, as the fleet
/// merge uses it.
const LPA_STRIDE: u64 = 1 << 32;
/// Page size of every fleet member.
const PAGE_SIZE: u64 = 4096;

/// Pool size: two workers, never more than the host's cores.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn config(seed: u64, workers: usize) -> FleetConfig {
    FleetConfig {
        members: MEMBERS,
        workers,
        seed,
        link: LinkConfig::datacenter_10g(),
        compromised_fraction: 0.25,
        fault_fraction: 0.1,
        outage_fraction: 0.1,
        // Every member is a bare RSSD: a faulted array member can abort the
        // fleet run ("stuck after 33 interruptions"), so arrays stay out
        // until that is fixed.
        array_every: 0,
        ..FleetConfig::default()
    }
}

/// Every member through `run_member` on `workers` threads, in member-id
/// order, with the host milliseconds each member took.
fn run_members(config: &FleetConfig, workers: usize) -> Vec<(MemberOutcome, f64)> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(MEMBERS));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let id = next.fetch_add(1, Ordering::Relaxed);
                if id >= MEMBERS {
                    break;
                }
                let (outcome, ms) = time_ms(|| run_member(config, id));
                let outcome = outcome.unwrap_or_else(|e| panic!("fleet member failed: {e:?}"));
                done.lock()
                    .expect("a member worker panicked")
                    .push((id, outcome, ms));
            });
        }
    });
    let mut done = done.into_inner().expect("a member worker panicked");
    done.sort_by_key(|(id, _, _)| *id);
    done.into_iter().map(|(_, o, ms)| (o, ms)).collect()
}

/// The fleet-wide detection pass over the members' observation streams.
fn fused_verdict(outcomes: &[(MemberOutcome, f64)]) -> (Verdict, usize) {
    let streams: Vec<Vec<WriteObservation>> = outcomes
        .iter()
        .map(|(o, _)| {
            let base = o.scorecard.member as u64 * LPA_STRIDE;
            o.observations
                .iter()
                .map(|obs| WriteObservation {
                    lpa: obs.lpa + base,
                    ..*obs
                })
                .collect()
        })
        .collect();
    let fused = merge_time_ordered(&streams);
    let mut ensemble = Ensemble::new();
    ensemble.observe_all(fused.iter());
    (ensemble.verdict(), fused.len())
}

fn check_report(sample: &mut Sample, report: &FleetReport, outcomes: &[(MemberOutcome, f64)]) {
    let cards: Vec<_> = outcomes.iter().map(|(o, _)| o.scorecard.clone()).collect();
    sample.check(cards == report.scorecards, || {
        "run_member scorecards differ from the fleet report's".into()
    });
    // A member under a fault schedule may lose evidence detectably (a
    // silent drop or a power cut leaves a chain gap); every other member's
    // chain must verify.
    for card in &report.scorecards {
        sample.check(card.chain_verified || card.faulted, || {
            format!(
                "member {} ran without faults yet its chain did not verify",
                card.member
            )
        });
    }
}

pub fn iteration(seed: u64, traced: bool) -> Sample {
    let mut sample = Sample::default();
    let pool = workers();
    // The traced run uses one worker; its report must equal the pool's.
    let run_workers = if traced { 1 } else { pool };

    // Set-up: every member's outcome, whose observation streams feed the
    // fleet-wide investigation.
    let setup = Instant::now();
    let outcomes = run_members(&config(seed, run_workers), run_workers);
    sample.setup_s = setup.elapsed().as_secs_f64();

    // Timed phase: the fleet run.
    let fleet = Fleet::new(config(seed, run_workers));
    let timed = Instant::now();
    let (report, obs) = if traced {
        let options = ObsOptions {
            trace: false,
            profile: true,
        };
        fleet.run_instrumented(options)
    } else {
        fleet.run().map(|r| (r, Default::default()))
    }
    .unwrap_or_else(|e| panic!("fleet run failed: {e:?}"));
    sample.wall_s = timed.elapsed().as_secs_f64();
    sample.ops = report.queues.completed;
    sample.injected_refusals = report.replay.stalls + report.replay.errors;

    // Investigation: the fused detection pass.
    let runs: Vec<_> = (0..FUSED_REPEATS)
        .map(|_| time_ms(|| fused_verdict(&outcomes)))
        .collect();
    let (verdict, fused_len) = runs[0].0;
    let investigate_ms = median(runs.iter().map(|(_, ms)| *ms).collect());
    sample.set("investigate_host_ms", investigate_ms);
    sample.check(verdict == report.fleet_verdict, || {
        format!(
            "fused verdict {verdict:?} differs from the report's {:?}",
            report.fleet_verdict
        )
    });
    sample.check(fused_len as u64 == report.observations, || {
        format!(
            "fused {fused_len} observations, report counts {}",
            report.observations
        )
    });
    check_report(&mut sample, &report, &outcomes);

    let verified = report
        .scorecards
        .iter()
        .filter(|c| c.chain_verified)
        .count();
    sample.set("ssd.sim_kiops", report.simulated_iops() / 1e3);
    sample.set(
        "ssd.sim_p50_us",
        report.latency.percentile_ns(50.0) as f64 / 1e3,
    );
    sample.set(
        "ssd.sim_p99_us",
        report.latency.percentile_ns(99.0) as f64 / 1e3,
    );
    sample.set("waf", report.ftl.write_amplification());
    sample.set(
        "wire_bytes_per_user_byte",
        report.offload.sealed_bytes as f64
            / (report.ftl.host_pages_written as f64 * PAGE_SIZE as f64),
    );
    sample.set("recovery_fraction", verified as f64 / MEMBERS as f64);
    sample.set("detection_recall", report.detection_recall());
    sample.set("true_negative_rate", 1.0 - report.false_positive_rate());
    sample.digest = digest(&format!("fleet seed={seed} {report:?}"));

    if traced {
        let member_ms: Vec<f64> = outcomes.iter().map(|(_, ms)| *ms).collect();
        let sum: f64 = member_ms.iter().sum();
        sample.set("fleet.member_ms_p50", median(member_ms.clone()));
        sample.set(
            "fleet.member_ms_max",
            member_ms.iter().copied().fold(0.0, f64::max),
        );
        sample.set("fleet.member_ms_sum", sum);
        // The traced run is single-worker, so its overhead is measured
        // against the same members run untraced one after another.
        sample.set(
            "obs.trace_overhead_pct",
            100.0 * (sample.wall_s * 1e3 - sum) / sum,
        );
        // Pool efficiency: member work over the pool's capacity during an
        // untraced run on the full pool.
        let (pooled, pool_ms) = time_ms(|| Fleet::new(config(seed, pool)).run());
        sample.check(pooled.as_ref() == Ok(&report), || {
            format!("the {pool}-worker report differs from the 1-worker report")
        });
        sample.set("fleet.pool_efficiency", sum / (pool as f64 * pool_ms));
        sample.set_profile(&obs.profile);
        sample.set("ssd.completed", report.queues.completed as f64);
        sample.set("ssd.errors", report.queues.errors as f64);
        // Member chains are not reachable from outside: core.chain_len reads 0.
        sample.set_offload(0, &report.offload);
        sample.set_ftl_flash(&report.ftl, &report.nand, report.sim_end_ns);
        sample.set("detect.analyze_ms", investigate_ms);
        sample.set("detect.records_analyzed", fused_len as f64);
        sample.set("detect.flagged", report.detected_members.len() as f64);
    }
    sample
}
