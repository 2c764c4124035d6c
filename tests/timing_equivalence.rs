//! Pipelined-vs-serial timing-model equivalence.
//!
//! The device-internal parallelism refactor changed *when* operations
//! complete, and nothing else: the pipelined batch paths (`submit_batch` /
//! `submit_batch_timed`) must return byte-identical data and leave
//! byte-identical durable state to the serial model — the scalar methods,
//! which block on every command — on real (MLC) NAND timing, where the two
//! schedules genuinely diverge. Only timestamps and latencies may differ,
//! so the comparison covers per-command results, logical contents,
//! retained (recoverable) versions, and the evidence-chain records modulo
//! their `at_ns` stamps — and, behind a `FaultInjector`, that power cuts
//! tear batches at the same prefix.

use proptest::prelude::*;
use rssd_repro::core::{LogRecord, LoopbackTarget, RssdConfig, RssdDevice, WireRemote};
use rssd_repro::faults::{FaultInjector, FaultSchedule, FaultTarget};
use rssd_repro::flash::{FlashGeometry, NandTiming, SimClock};
use rssd_repro::net::LinkConfig;
use rssd_repro::ssd::{BlockDevice, CommandResult, IoCommand, PlainSsd};

const LPAS: u64 = 16;

#[derive(Clone, Debug)]
enum Op {
    Write(u64, u8),
    Read(u64),
    Trim(u64),
    Flush,
}

impl Op {
    fn command(&self, page_size: usize) -> IoCommand {
        match *self {
            Op::Write(lpa, byte) => IoCommand::Write {
                lpa,
                data: vec![byte; page_size],
            },
            Op::Read(lpa) => IoCommand::Read { lpa },
            Op::Trim(lpa) => IoCommand::Trim { lpa },
            Op::Flush => IoCommand::Flush,
        }
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (0..LPAS, any::<u8>()).prop_map(|(l, b)| Op::Write(l, b)),
            3 => (0..LPAS).prop_map(Op::Read),
            1 => (0..LPAS).prop_map(Op::Trim),
            1 => proptest::strategy::Just(Op::Flush),
        ],
        1..160,
    )
}

fn mk_rssd() -> RssdDevice<LoopbackTarget> {
    RssdDevice::new(
        FlashGeometry::small_test(),
        NandTiming::mlc_default(),
        SimClock::new(),
        RssdConfig {
            // Small segments so background offloads actually trigger inside
            // the generated op sequences.
            segment_pages: 4,
            ..RssdConfig::default()
        },
        LoopbackTarget::new(),
    )
}

fn mk_plain() -> PlainSsd {
    PlainSsd::new(
        FlashGeometry::small_test(),
        NandTiming::mlc_default(),
        SimClock::new(),
    )
}

/// The serial model: every command blocks before the next is issued.
fn run_serial<D: BlockDevice>(device: &mut D, ops: &[Op]) -> Vec<CommandResult> {
    let page_size = device.page_size();
    ops.iter()
        .map(|op| device.execute(op.command(page_size)))
        .collect()
}

/// The pipelined model: commands dispatched in `chunk`-sized batches onto
/// the unit pipelines, completing out of order within each batch.
fn run_pipelined<D: BlockDevice>(device: &mut D, ops: &[Op], chunk: usize) -> Vec<CommandResult> {
    let page_size = device.page_size();
    let mut results = Vec::with_capacity(ops.len());
    for batch in ops.chunks(chunk.max(1)) {
        let commands: Vec<IoCommand> = batch.iter().map(|op| op.command(page_size)).collect();
        results.extend(device.submit_batch(commands));
    }
    results
}

/// Everything of a log record except its timestamp (the one field the
/// timing model is allowed to change).
fn record_shape(r: &LogRecord) -> (u64, String, u64, Option<u64>, u16, bool, Option<Vec<u8>>) {
    (
        r.seq,
        format!("{:?}", r.op),
        r.lpa,
        r.old_page_index,
        r.entropy_mil,
        r.read_before,
        r.old_data.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// RSSD under MLC timing: the pipelined batch path must be
    /// indistinguishable from the serial model in everything but time —
    /// results, contents, retained versions, and the evidence chain's
    /// records (modulo `at_ns`).
    #[test]
    fn rssd_pipelined_equals_serial((ops, chunk) in (ops(), 1usize..33)) {
        let mut serial_dev = mk_rssd();
        let serial_results = run_serial(&mut serial_dev, &ops);
        let mut piped_dev = mk_rssd();
        let piped_results = run_pipelined(&mut piped_dev, &ops, chunk);

        prop_assert_eq!(serial_results.len(), piped_results.len());
        for (i, (s, q)) in serial_results.iter().zip(&piped_results).enumerate() {
            prop_assert_eq!(s, q, "result diverged at command {} (chunk {})", i, chunk);
        }

        prop_assert_eq!(serial_dev.chain_len(), piped_dev.chain_len());
        // Batch coalescing legitimately changes *when* segments ship (a
        // record can sit pending on one device and be offloaded — with its
        // retained data attached — on the other). Flush both so the
        // histories are compared in the same, fully-durable state.
        serial_dev.flush_log().expect("serial flush");
        piped_dev.flush_log().expect("pipelined flush");
        let serial_history = serial_dev.verified_history().expect("serial history verifies");
        let piped_history = piped_dev.verified_history().expect("pipelined history verifies");
        prop_assert_eq!(serial_history.len(), piped_history.len());
        for (s, q) in serial_history.iter().zip(&piped_history) {
            prop_assert_eq!(record_shape(s), record_shape(q), "log record diverged");
        }

        for lpa in 0..LPAS {
            prop_assert_eq!(
                serial_dev.read_page(lpa).unwrap(),
                piped_dev.read_page(lpa).unwrap(),
                "contents diverged at lpa {}", lpa
            );
            prop_assert_eq!(
                serial_dev.recover_page(lpa),
                piped_dev.recover_page(lpa),
                "retention diverged at lpa {}", lpa
            );
        }
    }

    /// The unprotected baseline under MLC timing: same data, same durable
    /// state, any batch size.
    #[test]
    fn plain_pipelined_equals_serial((ops, chunk) in (ops(), 1usize..33)) {
        let mut serial_dev = mk_plain();
        let serial_results = run_serial(&mut serial_dev, &ops);
        let mut piped_dev = mk_plain();
        let piped_results = run_pipelined(&mut piped_dev, &ops, chunk);
        prop_assert_eq!(&serial_results, &piped_results);
        for lpa in 0..LPAS {
            prop_assert_eq!(
                serial_dev.read_page(lpa).unwrap(),
                piped_dev.read_page(lpa).unwrap(),
                "contents diverged at lpa {}", lpa
            );
        }
    }

    /// Behind a `FaultInjector`, a power cut must tear a pipelined batch at
    /// exactly the same prefix as the serial model: the same commands
    /// succeed, the same fail with `PowerLoss`, and after power restore the
    /// recovered durable state is identical.
    #[test]
    fn power_cuts_tear_pipelined_batches_at_the_serial_prefix(
        (ops, chunk, cut_at) in (ops(), 1usize..33, 0u64..160)
    ) {
        let mk = || {
            FaultInjector::new(
                RssdDevice::new(
                    FlashGeometry::small_test(),
                    NandTiming::mlc_default(),
                    SimClock::new(),
                    RssdConfig { segment_pages: 4, ..RssdConfig::default() },
                    WireRemote::new(LoopbackTarget::new(), LinkConfig::ideal()),
                ),
                &FaultSchedule::power_cut(cut_at),
            )
        };
        let mut serial_dev = mk();
        let serial_results = run_serial(&mut serial_dev, &ops);
        let mut piped_dev = mk();
        let piped_results = run_pipelined(&mut piped_dev, &ops, chunk);

        prop_assert_eq!(serial_results.len(), piped_results.len());
        for (i, (s, q)) in serial_results.iter().zip(&piped_results).enumerate() {
            prop_assert_eq!(s, q, "torn-batch result diverged at command {}", i);
        }

        if serial_dev.powered_off() {
            let _ = serial_dev.power_restore().expect("serial restore");
        }
        if piped_dev.powered_off() {
            let _ = piped_dev.power_restore().expect("pipelined restore");
        }
        // A cut scheduled beyond the workload would otherwise fire during
        // the verification reads below; disarm it — the comparison is about
        // the workload's durable state, not the probe's.
        serial_dev.arm(&FaultSchedule::none());
        piped_dev.arm(&FaultSchedule::none());
        for lpa in 0..LPAS {
            prop_assert_eq!(
                serial_dev.read_page(lpa).unwrap(),
                piped_dev.read_page(lpa).unwrap(),
                "post-restore contents diverged at lpa {}", lpa
            );
        }
    }
}
