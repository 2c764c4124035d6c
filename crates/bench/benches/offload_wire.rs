//! **offload_wire** — the offload path on the wire: link bandwidth × loss
//! rate swept against offload throughput and recovery-window integrity.
//!
//! Each configuration runs the *same* write/overwrite workload on an RSSD
//! device whose evidence offload travels through the full simulated
//! NVMe-oE stack ([`WireRemote`]) over a different link. Because the
//! device's clock absorbs every acknowledged transfer's wire time,
//! throughput differences between rows are the link model itself —
//! serialization, propagation, and go-back-N retransmission on lossy
//! links — not harness noise.
//!
//! Recovery-window integrity is scored against a golden direct-path
//! device running the identical workload: `recovery_ok` is 1.0 iff the
//! evidence chain verifies end-to-end, every per-page recovery answer is
//! byte-identical to the direct path, and a full [`RebuildImage`] harvest
//! through the wire reproduces the direct harvest. A lossy link must pay
//! in retransmissions and nanoseconds, never in evidence.

use criterion::{criterion_group, Criterion};
use rssd_bench::{bench_geometry, mk_rssd, rule, write_bench_json, BenchRow};
use rssd_core::{LoopbackTarget, RebuildImage, RssdConfig, RssdDevice, WireRemote};
use rssd_flash::{NandTiming, SimClock};
use rssd_net::LinkConfig;
use rssd_ssd::BlockDevice;

/// Pages written in phase one and overwritten in phase two. Overwrites are
/// what generate retention traffic, so this fixes the offloaded byte count
/// across every link configuration.
const WORKLOAD_PAGES: u64 = 1024;

fn wired_device(link: LinkConfig) -> RssdDevice<WireRemote<LoopbackTarget>> {
    RssdDevice::new(
        bench_geometry(),
        NandTiming::default(),
        SimClock::new(),
        RssdConfig {
            segment_pages: 32,
            ..RssdConfig::default()
        },
        WireRemote::new(LoopbackTarget::new(), link),
    )
}

/// Deterministic incompressible page contents (an LCG stream), so sealed
/// segments stay near raw size and each one spans many wire capsules —
/// a compressible fill would collapse every segment into a single frame
/// and starve the loss model of anything to drop.
fn page_fill(seed: u64, page_size: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(page_size);
    while out.len() < page_size {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(page_size);
    out
}

/// Runs the fixed workload on `device`: write every page, overwrite every
/// page with distinct contents, then drain the retention log.
fn run_workload<D: BlockDevice>(device: &mut D) {
    let page_size = device.page_size();
    for lpa in 0..WORKLOAD_PAGES {
        device
            .write_page(lpa, page_fill(lpa + 1, page_size))
            .expect("phase-one write");
    }
    for lpa in 0..WORKLOAD_PAGES {
        device
            .write_page(lpa, page_fill(lpa + 1 + WORKLOAD_PAGES, page_size))
            .expect("phase-two overwrite");
    }
}

struct WireRun {
    offload_mbps: f64,
    host_kiops: f64,
    sim_end_ms: f64,
    segments: f64,
    retransmissions: f64,
    recovery_ok: f64,
}

/// Runs the workload over `link` and scores it against `golden`, the
/// direct-path device that ran the same workload.
fn wire_run(link: LinkConfig, golden: &mut RssdDevice<LoopbackTarget>) -> WireRun {
    let mut device = wired_device(link);
    run_workload(&mut device);
    device.flush_log().expect("flush retention log");

    let sim_end_ns = device.clock().now_ns();
    let xfer = device.remote().transfer_stats();
    let ops = 2 * WORKLOAD_PAGES;

    // Integrity: chain verifies, and recovery through the wire is
    // byte-identical to the direct path.
    let mut ok = device.verified_history().is_ok();
    for lpa in 0..WORKLOAD_PAGES {
        ok &= device.recover_page(lpa) == golden.recover_page(lpa);
    }
    let keys = device.escrow_keys();
    match (
        RebuildImage::harvest(&keys, device.remote_mut()),
        RebuildImage::harvest(&golden.escrow_keys(), golden.remote_mut()),
    ) {
        (Ok(wired), Ok(direct)) => {
            for lpa in 0..WORKLOAD_PAGES {
                ok &= wired.newest(lpa) == direct.newest(lpa);
            }
        }
        _ => ok = false,
    }

    let sim_s = sim_end_ns as f64 / 1e9;
    WireRun {
        offload_mbps: xfer.payload_bytes as f64 / 1e6 / sim_s,
        host_kiops: ops as f64 / sim_s / 1e3,
        sim_end_ms: sim_end_ns as f64 / 1e6,
        segments: xfer.segments as f64,
        retransmissions: xfer.retransmissions as f64,
        recovery_ok: if ok { 1.0 } else { 0.0 },
    }
}

fn print_sweep() {
    // Bandwidth × loss grid: the two link classes from DESIGN.md §8, each
    // clean and with a deterministic 2% frame-loss pattern, plus the
    // ideal-link differential baseline and a heavy-loss datacenter point.
    let configs: Vec<(&str, LinkConfig)> = vec![
        ("ideal", LinkConfig::ideal()),
        ("dc_10g", LinkConfig::datacenter_10g()),
        ("dc_10g_loss2", LinkConfig::lossy(50)),
        ("dc_10g_loss20", LinkConfig::lossy(5)),
        ("wan_cloud", LinkConfig::wan_cloud()),
        (
            "wan_loss2",
            LinkConfig {
                loss_period: 50,
                ..LinkConfig::wan_cloud()
            },
        ),
    ];

    // One golden direct-path run scores every wire row.
    let mut golden = mk_rssd(bench_geometry(), NandTiming::default(), SimClock::new());
    run_workload(&mut golden);
    golden.flush_log().expect("flush golden log");

    println!("\n=== offload_wire: link bandwidth x loss vs offload path ===");
    println!(
        "{:<14} {:>12} {:>10} {:>11} {:>9} {:>8} {:>9}",
        "Link", "offload MB/s", "host kIOPS", "sim end ms", "segments", "retrans", "recovery"
    );
    println!("{}", rule(78));

    let mut rows = Vec::new();
    let mut by_name = std::collections::HashMap::new();
    for (name, link) in configs {
        let run = wire_run(link, &mut golden);
        println!(
            "{:<14} {:>12.1} {:>10.1} {:>11.2} {:>9.0} {:>8.0} {:>9}",
            name,
            run.offload_mbps,
            run.host_kiops,
            run.sim_end_ms,
            run.segments,
            run.retransmissions,
            if run.recovery_ok == 1.0 { "ok" } else { "FAIL" },
        );
        rows.push(BenchRow {
            config: name.to_string(),
            metrics: vec![
                ("offload_mbps", run.offload_mbps),
                ("host_kiops", run.host_kiops),
                ("sim_end_ms", run.sim_end_ms),
                ("segments", run.segments),
                ("retransmissions", run.retransmissions),
                ("recovery_ok", run.recovery_ok),
            ],
        });
        by_name.insert(name, run);
    }
    println!(
        "Slower links cost host-visible nanoseconds and lossy links cost\n\
         retransmissions; neither is allowed to cost evidence.\n"
    );

    // The claims the regression gate pins (tools/check_bench_regression.py).
    assert!(
        by_name["dc_10g"].offload_mbps > by_name["wan_cloud"].offload_mbps,
        "datacenter link must out-run the WAN"
    );
    assert!(
        by_name["dc_10g_loss2"].retransmissions > 0.0
            && by_name["dc_10g_loss20"].retransmissions > 0.0
            && by_name["wan_loss2"].retransmissions > 0.0,
        "lossy links must pay in retransmissions"
    );
    for (name, run) in &by_name {
        assert_eq!(run.recovery_ok, 1.0, "{name}: recovery window corrupted");
    }
    assert!(
        by_name["wan_cloud"].sim_end_ms > by_name["dc_10g"].sim_end_ms,
        "WAN propagation must land on the device timeline"
    );

    match write_bench_json("offload_wire", &rows) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write bench json: {e}"),
    }
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("offload_wire");
    group.sample_size(10);

    group.bench_function("workload_2k_writes_datacenter", |b| {
        b.iter(|| {
            let mut device = wired_device(LinkConfig::datacenter_10g());
            run_workload(&mut device);
            device.flush_log().expect("flush");
            device.clock().now_ns()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_wire);

fn main() {
    print_sweep();
    benches();
    criterion::Criterion::default().final_summary();
}
