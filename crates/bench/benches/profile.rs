//! Where does the simulator's own wall-clock go? The replay hot loop,
//! profiled phase by phase.
//!
//! Replays the qd_sweep mixed workload against RSSD at QD32 with a
//! [`ProfilerHandle`] threaded through the NVMe controller and the device
//! (phases: `arbitration`, `nand_timing`, `completion_sort`, `stats`,
//! `wire` with `compress` split out as its own self-time phase, the write
//! path's per-page kernels `entropy` and `chain_hmac` nested inside
//! `nand_timing`, remainder in `other`) and a recording trace sink
//! attached, then
//! writes the breakdown to `BENCH_profile.json`. Because the profiler does
//! **self-time** accounting, the per-phase percentages sum to exactly 100 —
//! asserted here and re-checked from the JSON by the CI regression gate.
//!
//! The run also doubles as the zero-perturbation check: the traced+profiled
//! replay must land on the same simulated completion time and NAND counters
//! as a bare replay of the same workload.

use criterion::{criterion_group, Criterion};
use rssd_bench::{bench_geometry, mk_rssd, rule, write_bench_json_with_profile, BenchRow};
use rssd_flash::{NandStats, NandTiming, SimClock};
use rssd_obs::{ProfileBreakdown, ProfilerHandle, SinkHandle, TraceEvent};
use rssd_ssd::{BlockDevice, NvmeController};
use rssd_trace::{replay_queued, IoRecord, PayloadKind, WorkloadBuilder};

const OPS: usize = 4_000;
const DEPTH: usize = 32;

fn workload(logical_pages: u64) -> Vec<IoRecord> {
    let mut records: Vec<IoRecord> = (0..logical_pages.min(2048))
        .map(|lpa| IoRecord::write(0, lpa, PayloadKind::Binary, lpa))
        .collect();
    records.extend(
        WorkloadBuilder::new(logical_pages)
            .seed(23)
            .ops_per_second(20_000.0)
            .mean_request_pages(1)
            .read_fraction(0.4)
            .sequential_fraction(0.2)
            .build()
            .take(OPS),
    );
    records
}

struct ProfiledRun {
    end_ns: u64,
    nand: NandStats,
    profile: ProfileBreakdown,
    events: Vec<TraceEvent>,
}

/// One QD32 replay. With `instrument` the profiler and a recording sink
/// ride along; without, both are disabled handles — the same code path the
/// zero-cost claim covers.
fn run_replay(instrument: bool) -> ProfiledRun {
    let profiler = if instrument {
        ProfilerHandle::enabled()
    } else {
        ProfilerHandle::disabled()
    };
    let sink = if instrument {
        SinkHandle::recording()
    } else {
        SinkHandle::disabled()
    };
    let mut device = mk_rssd(bench_geometry(), NandTiming::mlc_default(), SimClock::new());
    device.set_profiler(profiler.clone());
    device.set_trace_sink(sink.clone());
    let mut controller = NvmeController::with_arbitration_burst(device, DEPTH);
    controller.set_profiler(profiler.clone());
    controller.set_trace_sink(sink.clone());
    let queue = controller.create_queue_pair(DEPTH);
    let records = workload(controller.device().logical_pages());
    let _ = replay_queued(&mut controller, queue, records);
    ProfiledRun {
        end_ns: controller.device().clock().now_ns(),
        nand: controller.device().nand_stats().clone(),
        profile: profiler.finish(),
        events: sink.take_events(),
    }
}

fn print_profile() {
    println!("\n=== profile: host wall-clock phase breakdown of the QD32 RSSD replay ===");
    let bare = run_replay(false);
    let traced = run_replay(true);

    // Observers must not perturb the simulation: same simulated end, same
    // NAND counters, with tracing and profiling attached.
    assert_eq!(
        bare.end_ns, traced.end_ns,
        "tracing/profiling changed the simulated completion time"
    );
    assert_eq!(
        bare.nand, traced.nand,
        "tracing/profiling changed the NAND counters"
    );
    assert!(bare.events.is_empty(), "disabled sink must record nothing");
    assert!(
        !traced.events.is_empty(),
        "recording sink saw no events from a full replay"
    );

    let profile = &traced.profile;
    println!(
        "{:<18} {:>12} {:>8}   (replay of {OPS} mixed ops at QD{DEPTH}, {} trace events)",
        "phase",
        "self (ms)",
        "pct",
        traced.events.len()
    );
    println!("{}", rule(60));
    let mut rows = Vec::new();
    for (phase, ns) in profile.iter() {
        println!(
            "{:<18} {:>12.3} {:>7.1}%",
            phase,
            ns as f64 / 1e6,
            profile.phase_pct(phase)
        );
        rows.push(BenchRow {
            config: phase.to_string(),
            metrics: vec![
                ("self_ms", ns as f64 / 1e6),
                ("pct", profile.phase_pct(phase)),
            ],
        });
    }
    println!("{}", rule(60));
    println!(
        "{:<18} {:>12.3} {:>7.1}%",
        "total",
        profile.total_ns as f64 / 1e6,
        100.0
    );

    // The structural identity the self-time accounting guarantees.
    let pct_sum: f64 = profile
        .iter()
        .map(|(phase, _)| profile.phase_pct(phase))
        .sum();
    assert!(
        (pct_sum - 100.0).abs() < 1e-6,
        "phase percentages must sum to 100, got {pct_sum}"
    );
    for phase in [
        "arbitration",
        "nand_timing",
        "completion_sort",
        "stats",
        "wire",
        "compress",
        "entropy",
        "chain_hmac",
    ] {
        assert!(
            profile.phase_ns(phase) > 0,
            "phase {phase} never accrued — instrumentation hole in the hot loop"
        );
    }

    match write_bench_json_with_profile("profile", &rows, profile) {
        Ok(path) => println!("(summary written to {})", path.display()),
        Err(e) => eprintln!("(could not write BENCH_profile.json: {e})"),
    }
}

fn bench_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile");
    group.sample_size(10);
    group.bench_function("replay_qd32_bare", |b| b.iter(|| run_replay(false)));
    group.bench_function("replay_qd32_instrumented", |b| b.iter(|| run_replay(true)));
    group.finish();
}

criterion_group!(benches, bench_profile);

fn main() {
    print_profile();
    benches();
    criterion::Criterion::default().final_summary();
}
