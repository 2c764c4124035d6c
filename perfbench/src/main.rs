//! The RSSD benchmark: one command, three workloads, end-to-end metrics
//! with tracing off and per-layer metrics from a separate traced run.
//!
//! ```text
//! rssd-perfbench --workload <qd32_mixed|gc_attack|fleet> --seed <n> \
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats the workload's iteration (set-up, timed phase,
//! investigation, correctness checks) until `--seconds` have passed, after
//! one untimed warm-up iteration, and reports medians. With `--trace 1`
//! untraced and traced iterations alternate: the traced ones give the
//! per-layer metrics, and both must produce the same simulated digest.
//! The last line of standard output is one JSON object.

mod fleet;
mod gc_attack;
mod probe;
mod qd32;

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0`: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_host_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_frac", "ratio"),
    ("waf", "ratio"),
    ("wire_bytes_per_user_byte", "ratio"),
    ("investigate_host_ms", "ms"),
    ("recovery_fraction", "ratio"),
    ("detection_recall", "ratio"),
    ("true_negative_rate", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`: name and unit. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.device_busy_ms", "ms"),
    ("core.device_ns_per_op", "ns"),
    ("core.segments_sealed", "count"),
    ("core.segments_offloaded", "count"),
    ("core.sync_offloads", "count"),
    ("core.chain_len", "count"),
    ("core.compression_ratio", "ratio"),
    ("core.health_peak", "level"),
    ("core.flush_log_ms", "ms"),
    ("core.verified_history_ms", "ms"),
    ("core.recover_ms_per_page", "ms"),
    ("core.sim_overhead_vs_plain_pct", "%"),
    ("profile.compress_pct", "%"),
    ("profile.wire_pct", "%"),
    ("profile.nand_timing_pct", "%"),
    ("profile.arbitration_pct", "%"),
    ("profile.completion_sort_pct", "%"),
    ("profile.stats_pct", "%"),
    ("profile.detect_pct", "%"),
    ("profile.synthesis_pct", "%"),
    ("profile.other_pct", "%"),
    ("ssd.controller_self_ms", "ms"),
    ("ssd.sim_kiops", "kIOPS"),
    ("ssd.sim_p50_us", "us"),
    ("ssd.sim_p99_us", "us"),
    ("ssd.completed", "count"),
    ("ssd.errors", "count"),
    ("ftl.gc_invocations", "count"),
    ("ftl.gc_pages_migrated", "count"),
    ("ftl.write_stalls", "count"),
    ("ftl.host_pages_written", "count"),
    ("flash.reads", "count"),
    ("flash.programs", "count"),
    ("flash.erases", "count"),
    ("flash.background_reads", "count"),
    ("flash.chan_util_avg", "ratio"),
    ("net.busy_ms", "ms"),
    ("net.capsules_sent", "count"),
    ("net.retransmissions", "count"),
    ("net.payload_bytes", "bytes"),
    ("remote.store_calls", "count"),
    ("remote.store_busy_ms", "ms"),
    ("remote.fetch_calls", "count"),
    ("remote.fetches_per_recovered_page", "ratio"),
    ("detect.analyze_ms", "ms"),
    ("detect.records_analyzed", "count"),
    ("detect.flagged", "count"),
    ("fleet.member_ms_p50", "ms"),
    ("fleet.member_ms_max", "ms"),
    ("fleet.member_ms_sum", "ms"),
    ("fleet.pool_efficiency", "ratio"),
    ("obs.trace_overhead_pct", "%"),
];

/// The phases the program's `ProfilerHandle` records, as `profile.*`
/// metrics. `nand_timing` brackets the whole device submit minus the
/// nested phases; it is not NAND time.
const PROFILE_PHASES: &[(&str, &str)] = &[
    ("compress", "profile.compress_pct"),
    ("wire", "profile.wire_pct"),
    ("nand_timing", "profile.nand_timing_pct"),
    ("arbitration", "profile.arbitration_pct"),
    ("completion_sort", "profile.completion_sort_pct"),
    ("stats", "profile.stats_pct"),
    ("detect", "profile.detect_pct"),
    ("synthesis", "profile.synthesis_pct"),
    ("other", "profile.other_pct"),
];

/// What one iteration of a workload produced.
#[derive(Debug, Default)]
pub struct Sample {
    /// Host seconds spent building the iteration's device and inputs.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub wall_s: f64,
    /// Operations the timed phase issued.
    pub ops: u64,
    /// Operations that failed (errors, stalls, refusals) plus failed
    /// correctness checks: each fails the run.
    pub failed: u64,
    /// Refusals the workload injects on purpose (the fleet's faults and
    /// outages). They count against `ok_ops_frac` but do not fail the run.
    pub injected_refusals: u64,
    /// One line per failed correctness check.
    pub failures: Vec<String>,
    /// Simulated and per-layer values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// SHA-256 over every simulated output of the iteration.
    pub digest: String,
}

impl Sample {
    /// Records `ok` as a check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The RSSD's offload and chain counters.
    pub fn set_offload(&mut self, chain_len: u64, offload: &rssd_core::OffloadStats) {
        self.set("core.segments_sealed", offload.segments_sealed as f64);
        self.set("core.segments_offloaded", offload.segments_offloaded as f64);
        self.set("core.sync_offloads", offload.sync_offloads as f64);
        self.set("core.chain_len", chain_len as f64);
        self.set("core.compression_ratio", offload.compression_ratio());
        self.set(
            "core.health_peak",
            f64::from(offload.health_peak.severity()),
        );
    }

    /// FTL and NAND counters; channel utilisation is busy time over the
    /// simulated span.
    pub fn set_ftl_flash(
        &mut self,
        ftl: &rssd_ftl::FtlStats,
        nand: &rssd_flash::NandStats,
        span_ns: u64,
    ) {
        self.set("ftl.gc_invocations", ftl.gc_invocations as f64);
        self.set("ftl.gc_pages_migrated", ftl.gc_pages_migrated as f64);
        self.set("ftl.write_stalls", ftl.write_stalls as f64);
        self.set("ftl.host_pages_written", ftl.host_pages_written as f64);
        self.set("flash.reads", nand.reads() as f64);
        self.set("flash.programs", nand.programs() as f64);
        self.set("flash.erases", nand.erases() as f64);
        self.set("flash.background_reads", nand.background_reads() as f64);
        let busy = nand.channel_busy_ns();
        let util = busy.iter().map(|&b| b as f64).sum::<f64>()
            / (busy.len().max(1) as f64 * span_ns.max(1) as f64);
        self.set("flash.chan_util_avg", util);
    }

    /// The program's own profiler phases, as shares of the profiled span.
    pub fn set_profile(&mut self, profile: &rssd_obs::ProfileBreakdown) {
        for (phase, name) in PROFILE_PHASES {
            self.set(name, profile.phase_pct(phase));
        }
    }
}

/// Runs one iteration of `workload` with the given seed; `traced` turns the
/// probes and the profiler on.
fn iterate(workload: &str, seed: u64, traced: bool) -> Sample {
    match workload {
        "qd32_mixed" => qd32::iteration(seed, traced),
        "gc_attack" => gc_attack::iteration(seed, traced),
        "fleet" => fleet::iteration(seed, traced),
        other => unreachable!("workload {other} validated in main"),
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// SHA-256 of a canonical text rendering of simulated outputs.
pub fn digest(text: &str) -> String {
    rssd_crypto::Sha256::digest(text.as_bytes()).to_string()
}

/// The process's peak resident set, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Operations attempted and failed over every iteration of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, sample: &Sample) {
        self.attempted += sample.ops;
        self.failed += sample.failed;
        self.failures.extend(sample.failures.iter().cloned());
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["qd32_mixed", "gc_attack", "fleet"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rssd-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let deadline = args.seconds;
    let mut tally = Tally::default();

    // Warm-up: caches, allocator and lazy set-up settle before timing. Its
    // checks still count.
    let warm = iterate(&args.workload, args.seed, false);
    tally.absorb(&warm);
    let reference = warm.digest.clone();
    let measure_from = Instant::now();

    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    loop {
        let want_traced = args.trace && traced.len() < untraced.len();
        let sample = iterate(&args.workload, args.seed, want_traced);
        tally.absorb(&sample);
        if sample.digest != reference {
            tally.fail(format!(
                "{} iteration changed the simulated digest: {} vs {reference}",
                if want_traced { "traced" } else { "untraced" },
                sample.digest
            ));
        }
        if want_traced {
            traced.push(sample);
        } else {
            untraced.push(sample);
        }
        let enough = untraced.len() >= 3 && (!args.trace || traced.len() >= 3);
        if enough && measure_from.elapsed().as_secs_f64() >= deadline {
            break;
        }
    }

    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    let median_of =
        |samples: &[Sample], f: &dyn Fn(&Sample) -> f64| median(samples.iter().map(f).collect());
    if args.trace {
        let names: Vec<&'static str> = traced[0].values.keys().copied().collect();
        for name in names {
            metrics.insert(
                name,
                median_of(&traced, &|s| s.values.get(name).copied().unwrap_or(0.0)),
            );
        }
        let plain_wall = median_of(&untraced, &|s| s.wall_s);
        let traced_wall = median_of(&traced, &|s| s.wall_s);
        metrics
            .entry("obs.trace_overhead_pct")
            .or_insert(100.0 * (traced_wall - plain_wall) / plain_wall);
    } else {
        for (name, _) in END_TO_END {
            if untraced[0].values.contains_key(name) {
                metrics.insert(name, median_of(&untraced, &|s| s.values[name]));
            }
        }
        metrics.insert(
            "ops_per_host_s",
            median_of(&untraced, &|s| s.ops as f64 / s.wall_s),
        );
        metrics.insert("setup_s", median_of(&untraced, &|s| s.setup_s));
        metrics.insert(
            "ok_ops_frac",
            median_of(&untraced, &|s| {
                1.0 - (s.failed + s.injected_refusals) as f64 / s.ops.max(1) as f64
            }),
        );
        metrics.insert("peak_rss_mb", peak_rss_mb());
    }
    let attempted = tally.attempted.max(1);

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for failure in &tally.failures {
        println!("check failed: {failure}");
    }
    println!(
        "workload {} seed {} trace {}: {} untraced + {} traced iterations in {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        untraced.len(),
        traced.len(),
        started.elapsed().as_secs_f64()
    );
    println!(
        "sim_digest {} seed {} {reference}",
        args.workload, args.seed
    );
    let mut body = Vec::new();
    for (name, unit) in table {
        let value = match metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        println!("{name:<36} {value:>16.6} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = tally.failures.is_empty() && tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
