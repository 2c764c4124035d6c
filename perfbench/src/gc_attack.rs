//! `gc_attack`: the paper's GC attack against one RSSD whose evidence
//! crosses a simulated 10 GbE NVMe-oE wire, then the post-attack
//! investigation: verified history, analysis, and recovery of every
//! victim page.

use crate::probe::{time_ms, Meter, TimedDevice, TimedRemote};
use crate::qd32::{geometry, rssd_config};
use crate::{digest, Sample};
use rssd_attacks::FileTable;
use rssd_core::{LoopbackTarget, PostAttackAnalyzer, RssdDevice, WireRemote};
use rssd_crypto::ChaCha20;
use rssd_detect::Verdict;
use rssd_flash::{NandTiming, SimClock};
use rssd_net::LinkConfig;
use rssd_obs::ProfilerHandle;
use rssd_ssd::{BlockDevice, PlainSsd};
use rssd_trace::{synthesize_page, PayloadKind};
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;
use std::time::Instant;

/// Victim corpus: files of `PAGES_PER_FILE` pages, sized for recovery
/// load (never to steer the analyzer's verdict).
const FILES: usize = 64;
const PAGES_PER_FILE: u64 = 32;
/// Times the flood overwrites the rest of the logical space.
const FLOOD_ROUNDS: u64 = 3;

type Wire = WireRemote<TimedRemote<LoopbackTarget>>;
type Rssd = RssdDevice<TimedRemote<Wire>>;

/// The attacker's key, built the way `rssd_attacks::ClassicRansomware`
/// builds it.
fn attacker_key(seed: u64) -> [u8; 32] {
    let mut key = [0u8; 32];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key[8] = 0xA7;
    key
}

/// What the attack writes, made before the timed region.
struct AttackInputs {
    /// `(lpa, original, ciphertext)` per victim page, in file order.
    victims: Vec<(u64, Vec<u8>, Vec<u8>)>,
    /// `(lpa, page)` per flood write, round by round.
    flood: Vec<(u64, Vec<u8>)>,
}

fn inputs(seed: u64, table: &FileTable, logical_pages: u64, page_size: usize) -> AttackInputs {
    let key = attacker_key(seed);
    let mut victims = Vec::with_capacity(table.total_pages() as usize);
    for file in table.files() {
        for (i, lpa) in file.lpas().enumerate() {
            let original = file.expected_page(i as u64, page_size);
            let mut nonce = [0u8; 12];
            nonce[..8].copy_from_slice(&lpa.to_le_bytes());
            let ciphertext = ChaCha20::encrypt(&key, &nonce, &original);
            victims.push((lpa, original, ciphertext));
        }
    }
    let mut flood = Vec::new();
    for round in 0..FLOOD_ROUNDS {
        for lpa in table.next_lpa()..logical_pages {
            let page_seed = seed.rotate_left(17) ^ (round << 32 | lpa);
            flood.push((
                lpa,
                synthesize_page(PayloadKind::Binary, page_seed, page_size),
            ));
        }
    }
    AttackInputs { victims, flood }
}

/// What the attack did, seen from the host.
struct Attack {
    ops: u64,
    refused: u64,
    wrong_reads: u64,
    /// Simulated latency of every attack call, in ns.
    latencies: Vec<u64>,
    start_ns: u64,
    end_ns: u64,
}

impl Attack {
    fn record(&mut self, before_ns: u64, after_ns: u64, ok: bool) {
        self.latencies.push(after_ns - before_ns);
        self.ops += 1;
        self.refused += u64::from(!ok);
    }
}

/// The GC attack as `rssd_attacks::GcAttack` defines it: read and
/// overwrite each victim with ciphertext, then flood the remaining logical
/// space round by round with depth-1 writes.
fn attack<D: BlockDevice>(device: &mut D, inputs: AttackInputs) -> Attack {
    let start_ns = device.clock().now_ns();
    let mut out = Attack {
        ops: 0,
        refused: 0,
        wrong_reads: 0,
        latencies: Vec::with_capacity(2 * inputs.victims.len() + inputs.flood.len()),
        start_ns,
        end_ns: start_ns,
    };
    for (lpa, original, ciphertext) in inputs.victims {
        let before = device.clock().now_ns();
        let read = device.read_page(lpa);
        out.wrong_reads += u64::from(matches!(&read, Ok(data) if *data != original));
        out.record(before, device.clock().now_ns(), read.is_ok());
        let before = device.clock().now_ns();
        let ok = device.write_page(lpa, ciphertext).is_ok();
        out.record(before, device.clock().now_ns(), ok);
    }
    for (lpa, page) in inputs.flood {
        let before = device.clock().now_ns();
        let ok = device.write_page(lpa, page).is_ok();
        out.record(before, device.clock().now_ns(), ok);
    }
    out.end_ns = device.clock().now_ns();
    out
}

/// Simulated mean call latency of the same corpus and attack on a plain
/// SSD, in ns.
fn plain_twin_mean_ns(seed: u64) -> f64 {
    let mut device = PlainSsd::new(geometry(), NandTiming::mlc_default(), SimClock::new());
    let table = FileTable::populate(&mut device, FILES, PAGES_PER_FILE, seed)
        .expect("corpus fits a fresh device");
    let inputs = inputs(seed, &table, device.logical_pages(), device.page_size());
    let result = attack(&mut device, inputs);
    result.latencies.iter().sum::<u64>() as f64 / result.latencies.len().max(1) as f64
}

/// The plain twin is simulated once per process: the seed is fixed.
static PLAIN_MEAN_NS: OnceLock<f64> = OnceLock::new();

/// Exact percentile (nearest rank) of an unsorted sample.
fn percentile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn iteration(seed: u64, traced: bool) -> Sample {
    let mut sample = Sample::default();
    let meter = || if traced { Meter::on() } else { Meter::off() };
    let (device_meter, wire_stores, store_meter, fetch_meter) =
        (meter(), meter(), meter(), meter());

    // Set-up: device on the wire, the victim corpus, and every page the
    // attack will write.
    let setup = Instant::now();
    let store = TimedRemote::new(
        LoopbackTarget::new(),
        store_meter.clone(),
        fetch_meter.clone(),
    );
    let wire = WireRemote::new(store, LinkConfig::datacenter_10g());
    let rssd: Rssd = RssdDevice::new(
        geometry(),
        NandTiming::mlc_default(),
        SimClock::new(),
        rssd_config(),
        TimedRemote::new(wire, wire_stores.clone(), Meter::off()),
    );
    let mut device = TimedDevice::new(rssd, device_meter.clone());
    let profiler = if traced {
        ProfilerHandle::enabled()
    } else {
        ProfilerHandle::disabled()
    };
    let table = FileTable::populate(device.inner_mut(), FILES, PAGES_PER_FILE, seed)
        .expect("corpus fits a fresh device");
    let logical_pages = device.logical_pages();
    let page_size = device.page_size();
    let attack_inputs = inputs(seed, &table, logical_pages, page_size);
    let originals: HashMap<u64, Vec<u8>> = attack_inputs
        .victims
        .iter()
        .map(|(lpa, original, _)| (*lpa, original.clone()))
        .collect();
    device.inner_mut().set_profiler(profiler.clone());
    sample.setup_s = setup.elapsed().as_secs_f64();

    // Timed phase: the attack.
    let timed = Instant::now();
    let mut result = attack(&mut device, attack_inputs);
    sample.wall_s = timed.elapsed().as_secs_f64();
    let profile = profiler.finish();
    let attack_busy_ms = device_meter.ms();
    sample.ops = result.ops;
    sample.failed += result.refused;
    sample.check(result.refused == 0 && result.wrong_reads == 0, || {
        format!(
            "attack: {} refused calls, {} victim reads returned wrong data",
            result.refused, result.wrong_reads
        )
    });

    let rssd = device.inner_mut();
    let span_ns = result.end_ns - result.start_ns;
    let ftl = *rssd.ftl_stats();
    let nand = rssd.nand_stats().clone();
    let offload = rssd.offload_stats();
    let transfer = rssd.remote().inner().transfer_stats();
    let plain_mean_ns = *PLAIN_MEAN_NS.get_or_init(|| plain_twin_mean_ns(seed));
    let rssd_mean_ns =
        result.latencies.iter().sum::<u64>() as f64 / result.latencies.len().max(1) as f64;
    let p50 = percentile(&mut result.latencies, 50.0);
    let p99 = percentile(&mut result.latencies, 99.0);
    sample.set(
        "ssd.sim_kiops",
        result.ops as f64 / (span_ns as f64 / 1e9) / 1e3,
    );
    sample.set("ssd.sim_p50_us", p50 as f64 / 1e3);
    sample.set("ssd.sim_p99_us", p99 as f64 / 1e3);
    sample.set("waf", ftl.write_amplification());
    sample.set(
        "wire_bytes_per_user_byte",
        offload.sealed_bytes as f64 / (ftl.host_pages_written as f64 * page_size as f64),
    );
    sample.set(
        "core.sim_overhead_vs_plain_pct",
        100.0 * (rssd_mean_ns - plain_mean_ns) / plain_mean_ns,
    );
    let sim_text = format!(
        "gc_attack seed={seed} start_ns={} end_ns={} p50={p50} p99={p99} \
         ftl={ftl:?} nand={nand:?} offload={offload:?} transfer={transfer:?} \
         chain_len={} chain_head={} plain_mean_ns={plain_mean_ns}",
        result.start_ns,
        result.end_ns,
        rssd.chain_len(),
        rssd.chain_head()
    );

    // Investigation: flush, verified history, analysis, and recovery of
    // every victim page.
    let investigate = Instant::now();
    let (flushed, flush_ms) = time_ms(|| rssd.flush_log());
    let (history, history_ms) = time_ms(|| rssd.verified_history());
    let chain_verified = history.is_ok();
    let history = history.unwrap_or_default();
    let (report, analyze_ms) =
        time_ms(|| PostAttackAnalyzer::new().analyze(&history, chain_verified));
    let fetches_before = fetch_meter.calls();
    let victims: Vec<u64> = table.all_lpas();
    let (recovered, recover_ms) = time_ms(|| {
        victims
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
    let offload_after = rssd.offload_stats();
    sample.check(
        offload_after.segments_sealed == offload_after.segments_offloaded,
        || {
            format!(
                "after flush_log {} segments sealed but {} offloaded",
                offload_after.segments_sealed, offload_after.segments_offloaded
            )
        },
    );
    let good = victims
        .iter()
        .zip(&recovered)
        .filter(|(lpa, got)| got.as_ref() == Some(&originals[lpa]))
        .count() as u64;
    let recovery_fraction = good as f64 / victims.len() as f64;
    sample.check(good == victims.len() as u64, || {
        format!("recovered {good} of {} victim pages", victims.len())
    });
    // Page-level detection: victims the analyzer named, and flood pages it
    // did not.
    let true_victims: BTreeSet<u64> = victims.iter().copied().collect();
    let named: BTreeSet<u64> = report.victim_lpas.iter().copied().collect();
    let hits = named.intersection(&true_victims).count();
    let flood_pages = logical_pages - table.next_lpa();
    let false_named = named.len() - hits;
    sample.set("recovery_fraction", recovery_fraction);
    sample.set("detection_recall", hits as f64 / true_victims.len() as f64);
    sample.set(
        "true_negative_rate",
        1.0 - false_named as f64 / flood_pages.max(1) as f64,
    );
    let flagged = u64::from(report.verdict != Verdict::Benign);

    sample.digest = digest(&format!(
        "{sim_text} verdict={:?} class={:?} victims_named={} records={} recovered={good}",
        report.verdict,
        report.attack_class,
        report.victim_lpas.len(),
        report.records_examined
    ));

    if traced {
        sample.set("core.device_busy_ms", attack_busy_ms);
        sample.set(
            "core.device_ns_per_op",
            attack_busy_ms * 1e6 / result.ops.max(1) as f64,
        );
        sample.set_offload(rssd.chain_len(), &offload_after);
        sample.set("core.flush_log_ms", flush_ms);
        sample.set("core.verified_history_ms", history_ms);
        sample.set(
            "core.recover_ms_per_page",
            recover_ms / victims.len() as f64,
        );
        sample.set(
            "ssd.controller_self_ms",
            sample.wall_s * 1e3 - attack_busy_ms,
        );
        sample.set_profile(&profile);
        sample.set_ftl_flash(&ftl, &nand, result.end_ns);
        sample.set("net.busy_ms", wire_stores.ms() - store_meter.ms());
        sample.set("net.capsules_sent", transfer.capsules_sent as f64);
        sample.set("net.retransmissions", transfer.retransmissions as f64);
        sample.set("net.payload_bytes", transfer.payload_bytes as f64);
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
