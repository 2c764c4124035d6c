//! `qd32_mixed`: a QD32 open-loop replay of a mixed 1-page trace against
//! one RSSD behind the NVMe controller, with a plain-SSD twin for the
//! simulated overhead and an investigation of the replayed device.

use crate::probe::{time_ms, Meter, TimedDevice, TimedRemote};
use crate::{digest, Sample};
use rssd_core::{LoopbackTarget, PostAttackAnalyzer, RssdConfig, RssdDevice};
use rssd_detect::Verdict;
use rssd_flash::{FlashGeometry, NandTiming, SimClock};
use rssd_obs::ProfilerHandle;
use rssd_ssd::{BlockDevice, NvmeController, PlainSsd};
use rssd_trace::{
    replay_queued, synthesize_page, IoOp, IoRecord, PayloadKind, ReplayStats, WorkloadBuilder,
};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Queue depth, and the controller's arbitration burst.
const DEPTH: usize = 32;
/// Binary pages written during set-up, before the timed replay.
const PREWRITE_PAGES: u64 = 2048;
/// Records replayed in the timed phase: enough for FTL GC to run.
const RECORDS: usize = 40_000;
/// Overwritten pages the investigation recovers.
const RECOVER_PAGES: usize = 256;

type Rssd = RssdDevice<TimedRemote<LoopbackTarget>>;

/// The device geometry shared by `qd32_mixed` and `gc_attack`: 32 MiB,
/// 4 channels, 4 KiB pages.
pub fn geometry() -> FlashGeometry {
    FlashGeometry::with_capacity(32 * 1024 * 1024)
}

/// The RSSD configuration shared by `qd32_mixed` and `gc_attack`.
pub fn rssd_config() -> RssdConfig {
    RssdConfig {
        segment_pages: 32,
        ..RssdConfig::default()
    }
}

fn trace(seed: u64, logical_pages: u64, start_ns: u64) -> Vec<IoRecord> {
    WorkloadBuilder::new(logical_pages)
        .seed(seed)
        .start_ns(start_ns)
        .ops_per_second(20_000.0)
        .mean_request_pages(1)
        .read_fraction(0.4)
        .sequential_fraction(0.2)
        .build()
        .take(RECORDS)
        .collect()
}

fn prewrite<D: BlockDevice>(device: &mut D) {
    let page_size = device.page_size();
    for lpa in 0..PREWRITE_PAGES.min(device.logical_pages()) {
        device
            .write_page(lpa, synthesize_page(PayloadKind::Binary, lpa, page_size))
            .expect("set-up write to a fresh device");
    }
}

/// Every written version of every page, oldest first: `(kind, seed)` per
/// version, as the replay synthesizes it.
fn versions(records: &[IoRecord], logical_pages: u64) -> HashMap<u64, Vec<(PayloadKind, u64)>> {
    let mut out: HashMap<u64, Vec<(PayloadKind, u64)>> = HashMap::new();
    for lpa in 0..PREWRITE_PAGES.min(logical_pages) {
        out.entry(lpa).or_default().push((PayloadKind::Binary, lpa));
    }
    for record in records {
        match record.op {
            IoOp::Write => {
                for i in 0..u64::from(record.pages) {
                    let lpa = record.lpa + i;
                    if lpa < logical_pages {
                        out.entry(lpa)
                            .or_default()
                            .push((record.payload, record.payload_seed ^ i));
                    }
                }
            }
            IoOp::Trim => {
                for i in 0..u64::from(record.pages) {
                    out.entry(record.lpa + i)
                        .or_default()
                        .push((PayloadKind::Zero, 0));
                }
            }
            IoOp::Read => {}
        }
    }
    out
}

/// Simulated mean command latency of the same set-up and replay on a plain
/// SSD, in ns.
fn plain_twin_mean_ns(seed: u64) -> f64 {
    let mut device = PlainSsd::new(geometry(), NandTiming::mlc_default(), SimClock::new());
    prewrite(&mut device);
    let records = trace(seed, device.logical_pages(), device.clock().now_ns());
    let mut controller = NvmeController::with_arbitration_burst(device, DEPTH);
    let queue = controller.create_queue_pair(DEPTH);
    let _ = replay_queued(&mut controller, queue, records).stats();
    controller.stats(queue).latency.mean_ns()
}

/// The plain twin is simulated once per process: the seed is fixed.
static PLAIN_MEAN_NS: OnceLock<f64> = OnceLock::new();

pub fn iteration(seed: u64, traced: bool) -> Sample {
    let mut sample = Sample::default();
    let device_meter = if traced { Meter::on() } else { Meter::off() };
    let store_meter = if traced { Meter::on() } else { Meter::off() };
    let fetch_meter = if traced { Meter::on() } else { Meter::off() };
    let profiler = if traced {
        ProfilerHandle::enabled()
    } else {
        ProfilerHandle::disabled()
    };

    // Set-up: device, pre-written pages, controller, and the trace.
    let setup = Instant::now();
    let mut rssd: Rssd = RssdDevice::new(
        geometry(),
        NandTiming::mlc_default(),
        SimClock::new(),
        rssd_config(),
        TimedRemote::new(
            LoopbackTarget::new(),
            store_meter.clone(),
            fetch_meter.clone(),
        ),
    );
    prewrite(&mut rssd);
    let start_ns = rssd.clock().now_ns();
    let logical_pages = rssd.logical_pages();
    let records = trace(seed, logical_pages, start_ns);
    let expected = versions(&records, logical_pages);
    rssd.set_profiler(profiler.clone());
    let mut controller =
        NvmeController::with_arbitration_burst(TimedDevice::new(rssd, device_meter.clone()), DEPTH);
    controller.set_profiler(profiler.clone());
    let queue = controller.create_queue_pair(DEPTH);
    sample.setup_s = setup.elapsed().as_secs_f64();

    // Timed phase: the replay.
    let timed = Instant::now();
    let outcome = replay_queued(&mut controller, queue, records);
    sample.wall_s = timed.elapsed().as_secs_f64();
    let profile = profiler.finish();
    let replay_busy_ms = device_meter.ms();
    let stats: ReplayStats = outcome.stats();
    sample.ops = controller.stats(queue).completed;
    sample.failed += stats.stalls + stats.errors;
    sample.check(stats.stalls + stats.errors == 0, || {
        format!("replay: {} stalls, {} errors", stats.stalls, stats.errors)
    });

    let qstats = controller.stats(queue).clone();
    let mut device = controller.into_device();
    let rssd = device.inner_mut();
    let end_ns = rssd.clock().now_ns();
    let sim_s = (end_ns - start_ns) as f64 / 1e9;
    let ftl = *rssd.ftl_stats();
    let nand = rssd.nand_stats().clone();
    let offload = rssd.offload_stats();
    let page_size = rssd.page_size() as f64;

    let plain_mean_ns = *PLAIN_MEAN_NS.get_or_init(|| plain_twin_mean_ns(seed));
    let rssd_mean_ns = qstats.latency.mean_ns();

    sample.set("ssd.sim_kiops", qstats.completed as f64 / sim_s / 1e3);
    sample.set(
        "ssd.sim_p50_us",
        qstats.latency.percentile_ns(50.0) as f64 / 1e3,
    );
    sample.set(
        "ssd.sim_p99_us",
        qstats.latency.percentile_ns(99.0) as f64 / 1e3,
    );
    sample.set("waf", ftl.write_amplification());
    sample.set(
        "wire_bytes_per_user_byte",
        offload.sealed_bytes as f64 / (ftl.host_pages_written as f64 * page_size),
    );
    sample.set(
        "core.sim_overhead_vs_plain_pct",
        100.0 * (rssd_mean_ns - plain_mean_ns) / plain_mean_ns,
    );
    let sim_text = format!(
        "qd32_mixed seed={seed} end_ns={end_ns} start_ns={start_ns} queue={qstats:?} \
         ftl={ftl:?} nand={nand:?} offload={offload:?} chain_len={} chain_head={} \
         plain_mean_ns={plain_mean_ns}",
        rssd.chain_len(),
        rssd.chain_head()
    );

    // Investigation: flush the log, read the verified history, analyse it
    // and recover the previous version of a fixed sample of overwritten
    // pages.
    let mut overwritten: Vec<u64> = expected
        .iter()
        .filter(|(_, v)| v.len() >= 2)
        .map(|(&lpa, _)| lpa)
        .collect();
    overwritten.sort_unstable();
    let stride = (overwritten.len() / RECOVER_PAGES).max(1);
    let recover_set: Vec<u64> = overwritten
        .iter()
        .copied()
        .step_by(stride)
        .take(RECOVER_PAGES)
        .collect();
    let investigate = Instant::now();
    let (flushed, flush_ms) = time_ms(|| rssd.flush_log());
    let (history, history_ms) = time_ms(|| rssd.verified_history());
    let chain_verified = history.is_ok();
    let history = history.unwrap_or_default();
    let (report, analyze_ms) =
        time_ms(|| PostAttackAnalyzer::new().analyze(&history, chain_verified));
    let fetches_before = fetch_meter.calls();
    let (recovered, recover_ms) = time_ms(|| {
        recover_set
            .iter()
            .map(|&lpa| rssd.recover_page(lpa))
            .collect::<Vec<_>>()
    });
    sample.set(
        "investigate_host_ms",
        investigate.elapsed().as_secs_f64() * 1e3,
    );

    sample.check(flushed.is_ok(), || format!("flush_log: {flushed:?}"));
    sample.check(chain_verified, || "evidence chain did not verify".into());
    let offload = rssd.offload_stats();
    sample.check(
        offload.segments_sealed == offload.segments_offloaded,
        || {
            format!(
                "after flush_log {} segments sealed but {} offloaded",
                offload.segments_sealed, offload.segments_offloaded
            )
        },
    );
    let size = rssd.page_size();
    let mut good = 0u64;
    for (&lpa, got) in recover_set.iter().zip(&recovered) {
        let v = &expected[&lpa];
        let (kind, seed) = v[v.len() - 2];
        if got.as_deref() == Some(&synthesize_page(kind, seed, size)[..]) {
            good += 1;
        }
    }
    let recovery_fraction = good as f64 / recover_set.len().max(1) as f64;
    sample.check(good == recover_set.len() as u64, || {
        format!(
            "recovered {good} of {} overwritten pages",
            recover_set.len()
        )
    });
    // A benign trace: there is no attack to recall, and every page the
    // analyzer names as a victim is a false positive. The verdict is
    // recorded as measured.
    let flagged = u64::from(report.verdict != Verdict::Benign);
    let true_negative_rate =
        1.0 - report.victim_lpas.len() as f64 / overwritten.len().max(1) as f64;
    sample.set("recovery_fraction", recovery_fraction);
    sample.set("detection_recall", 1.0);
    sample.set("true_negative_rate", true_negative_rate);

    let chain_len = rssd.chain_len();
    let offload_after = rssd.offload_stats();

    // Read back every touched page after the simulated outputs are taken:
    // host reads are logged, so they would move the chain head.
    let mut mismatched = 0u64;
    for (&lpa, v) in &expected {
        let (kind, seed) = v[v.len() - 1];
        match device.read_page(lpa) {
            Ok(data) if data == synthesize_page(kind, seed, size) => {}
            _ => mismatched += 1,
        }
    }
    sample.check(mismatched == 0, || {
        format!("{mismatched} of {} pages read back wrong", expected.len())
    });

    sample.digest = digest(&format!(
        "{sim_text} verdict={:?} victims={} records={} recovered={good}",
        report.verdict,
        report.victim_lpas.len(),
        report.records_examined
    ));

    if traced {
        sample.set("core.device_busy_ms", replay_busy_ms);
        sample.set(
            "core.device_ns_per_op",
            replay_busy_ms * 1e6 / qstats.completed.max(1) as f64,
        );
        sample.set_offload(chain_len, &offload_after);
        sample.set("core.flush_log_ms", flush_ms);
        sample.set("core.verified_history_ms", history_ms);
        sample.set(
            "core.recover_ms_per_page",
            recover_ms / recover_set.len().max(1) as f64,
        );
        sample.set_profile(&profile);
        sample.set(
            "ssd.controller_self_ms",
            sample.wall_s * 1e3 - replay_busy_ms,
        );
        sample.set("ssd.completed", qstats.completed as f64);
        sample.set("ssd.errors", qstats.errors as f64);
        sample.set_ftl_flash(&ftl, &nand, end_ns);
        sample.set("remote.store_calls", store_meter.calls() as f64);
        sample.set("remote.store_busy_ms", store_meter.ms());
        sample.set("remote.fetch_calls", fetch_meter.calls() as f64);
        sample.set(
            "remote.fetches_per_recovered_page",
            (fetch_meter.calls() - fetches_before) as f64 / good.max(1) as f64,
        );
        sample.set("detect.analyze_ms", analyze_ms);
        sample.set("detect.records_analyzed", report.records_examined as f64);
        sample.set("detect.flagged", flagged as f64);
    }
    sample
}
