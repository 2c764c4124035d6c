//! Crash-consistency property tests.
//!
//! The durability contract under arbitrary power cuts (DESIGN.md §6):
//!
//! 1. **Prefix consistency** — after `crash()` + `recover()`, device
//!    contents equal exactly the state produced by the acknowledged
//!    command prefix: every acked write/trim is durable, the cut command
//!    and everything after it never happened.
//! 2. **No chain fork** — `verified_history()` never errors across a
//!    crash: the chain resumes at the durable head, the lost volatile tail
//!    is truncated, and post-restart appends verify end to end.
//!
//! Both properties are checked for a bare device and a 4-shard array,
//! under random workloads and random cut points.

use proptest::prelude::*;
use rssd_array::RssdArray;
use rssd_core::{RssdDevice, WireRemote};
use rssd_faults::{scenario_member, FaultInjector, FaultSchedule, FaultTarget, PermissiveTarget};
use rssd_flash::SimClock;
use rssd_net::LinkConfig;
use rssd_ssd::{BlockDevice, DeviceError};
use std::collections::HashMap;

type Remote = WireRemote<PermissiveTarget>;

fn member(device_id: u64) -> RssdDevice<Remote> {
    scenario_member(
        device_id,
        WireRemote::new(PermissiveTarget::new(), LinkConfig::ideal()),
        false,
    )
}

fn page(b: u8, size: usize) -> Vec<u8> {
    vec![b; size]
}

/// Applies `ops` until the cut lands, tracking the acknowledged state,
/// then restores power and checks both contract clauses.
fn check_crash_consistency<D: FaultTarget>(
    mut injector: FaultInjector<D>,
    ops: &[(u8, u64, u8)],
    span: u64,
) {
    let page_size = injector.page_size();
    let mut acked: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut cut_seen = false;
    for &(kind, lpa_raw, fill) in ops {
        let lpa = lpa_raw % span;
        let result = match kind % 3 {
            0 | 1 => injector
                .write_page(lpa, page(fill, page_size))
                .map(|()| acked.insert(lpa, page(fill, page_size)))
                .map(|_| ()),
            _ => injector
                .trim_page(lpa)
                .map(|()| acked.insert(lpa, page(0, page_size)))
                .map(|_| ()),
        };
        match result {
            Ok(()) => {}
            Err(DeviceError::PowerLoss) => {
                cut_seen = true;
                break;
            }
            Err(e) => panic!("unexpected device error: {e}"),
        }
    }
    if cut_seen {
        let _ = injector.restore_power().expect("recovery must succeed");
    }
    // The checks below drive I/O through the injector too; a cut that had
    // not yet come due must not fire mid-verification.
    injector.arm(&FaultSchedule::none());
    // Clause 1: contents equal the acknowledged prefix exactly.
    for (lpa, expected) in &acked {
        let got = injector.read_page(*lpa).expect("device is back up");
        assert_eq!(&got, expected, "lpa {lpa} diverged from acked state");
    }
    // Clause 2: the chain verifies — no fork, no silent truncation — and
    // keeps verifying after post-restart traffic.
    let audit = injector.history_audit();
    assert!(audit.verified, "history after crash: {:?}", audit.failure);
    injector
        .write_page(0, page(0xA5, page_size))
        .expect("post-restart write");
    let audit = injector.history_audit();
    assert!(
        audit.verified,
        "history after post-restart append: {:?}",
        audit.failure
    );
}

proptest! {
    #[test]
    fn bare_device_state_is_prefix_consistent_after_power_cut(
        ops in proptest::collection::vec((0u8..3, 0u64..64, 0u8..255), 1..120),
        cut in 0u64..140,
    ) {
        let device = member(1);
        let span = device.logical_pages();
        let injector = FaultInjector::new(device, &FaultSchedule::power_cut(cut));
        check_crash_consistency(injector, &ops, span);
    }

    #[test]
    fn four_shard_array_state_is_prefix_consistent_after_power_cut(
        ops in proptest::collection::vec((0u8..3, 0u64..256, 0u8..255), 1..100),
        cut in 0u64..120,
    ) {
        let members: Vec<RssdDevice<Remote>> = (0..4).map(member).collect();
        let array = RssdArray::new(members, 4, SimClock::new());
        let span = array.logical_pages();
        let injector = FaultInjector::new(array, &FaultSchedule::power_cut(cut));
        check_crash_consistency(injector, &ops, span);
    }

    #[test]
    fn repeated_cuts_never_fork_the_chain(
        ops in proptest::collection::vec((0u8..3, 0u64..48, 0u8..255), 10..80),
        cut1 in 0u64..40,
        cut2 in 0u64..40,
    ) {
        use rssd_faults::FaultEvent;
        let device = member(1);
        let span = device.logical_pages();
        let schedule = FaultSchedule::new(
            "two_cuts",
            vec![
                FaultEvent::PowerCut { at_op: cut1 },
                FaultEvent::PowerCut { at_op: cut1 + 1 + cut2 },
            ],
        );
        let mut injector = FaultInjector::new(device, &schedule);
        let page_size = injector.page_size();
        for &(kind, lpa_raw, fill) in &ops {
            let lpa = lpa_raw % span;
            let result = match kind % 3 {
                0 | 1 => injector.write_page(lpa, page(fill, page_size)),
                _ => injector.trim_page(lpa),
            };
            if matches!(result, Err(DeviceError::PowerLoss)) {
                let _ = injector.restore_power().expect("recovery");
            }
        }
        let audit = injector.history_audit();
        prop_assert!(audit.verified, "after two cuts: {:?}", audit.failure);
    }
}
