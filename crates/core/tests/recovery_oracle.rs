//! Recovery against the harvest oracle: whatever order pages are recovered
//! in, and whatever the device writes between recoveries, the device's
//! newest pre-image of every page equals the one an investigator harvests
//! from the remote store.

use proptest::prelude::*;
use rssd_core::{LoopbackTarget, RebuildImage, RecoveryEngine, RssdConfig, RssdDevice};
use rssd_flash::{FlashGeometry, NandTiming, SimClock};
use rssd_ssd::BlockDevice;
use std::collections::BTreeMap;

/// Logical pages the generated histories touch: few enough that most
/// writes are overwrites.
const LPAS: u64 = 24;

#[derive(Clone, Copy, Debug)]
enum Op {
    Write(u64),
    Trim(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..LPAS).prop_map(Op::Write),
        1 => (0..LPAS).prop_map(Op::Trim),
    ]
}

fn device() -> RssdDevice<LoopbackTarget> {
    RssdDevice::new(
        FlashGeometry::small_test(),
        NandTiming::instant(),
        SimClock::new(),
        RssdConfig {
            segment_pages: 4,
            ..RssdConfig::default()
        },
        LoopbackTarget::new(),
    )
}

/// A page unique to op `i`, so a wrong version can never compare equal.
fn content(i: usize, lpa: u64) -> Vec<u8> {
    let mut page = vec![lpa as u8; 4096];
    page[..8].copy_from_slice(&(i as u64).to_le_bytes());
    page
}

/// Replays `ops`, ships the whole log, and harvests the store.
fn run(ops: &[Op]) -> (RssdDevice<LoopbackTarget>, RebuildImage) {
    let mut d = device();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Write(lpa) => d.write_page(lpa, content(i, lpa)).unwrap(),
            Op::Trim(lpa) => d.trim_page(lpa).unwrap(),
        };
    }
    d.flush_log().unwrap();
    let keys = d.escrow_keys();
    let image = RebuildImage::harvest(&keys, d.remote_mut()).unwrap();
    (d, image)
}

/// `0..LPAS` in an order drawn from `seed` (Fisher–Yates over xorshift).
fn shuffled(mut seed: u64) -> Vec<u64> {
    let mut lpas: Vec<u64> = (0..LPAS).collect();
    for i in (1..lpas.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        lpas.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    lpas
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn recovery_in_any_order_matches_the_harvest(
        ops in proptest::collection::vec(arb_op(), 1..160),
        seed in 1..u64::MAX,
    ) {
        let (mut d, image) = run(&ops);
        let mut shuffled_results = BTreeMap::new();
        for lpa in shuffled(seed) {
            let got = d.recover_newest(lpa);
            prop_assert_eq!(got.as_deref(), image.newest(lpa), "lpa {} of {:?}", lpa, ops);
            shuffled_results.insert(lpa, got);
        }
        for lpa in 0..LPAS {
            let got = d.recover_newest(lpa);
            prop_assert_eq!(&got, &shuffled_results[&lpa], "lpa {} sorted vs shuffled", lpa);
        }
    }

    #[test]
    fn restores_between_recoveries_do_not_disturb_them(
        ops in proptest::collection::vec(arb_op(), 1..160),
        seed in 1..u64::MAX,
    ) {
        let (mut d, image) = run(&ops);
        let engine = RecoveryEngine::new();
        // Each restore writes a page back, logging (and eventually
        // shipping) a new pre-image between two recoveries.
        for lpa in shuffled(seed) {
            let expected = image.newest(lpa);
            let got = d.recover_newest(lpa);
            prop_assert_eq!(got.as_deref(), expected, "lpa {}", lpa);
            let report = engine.restore_newest(&mut d, &[lpa]);
            prop_assert_eq!(report.pages_restored, u64::from(expected.is_some()));
            if let Some(expected) = expected {
                let restored = d.read_page(lpa).unwrap();
                prop_assert_eq!(restored.as_slice(), expected, "lpa {}", lpa);
            }
        }
    }
}
