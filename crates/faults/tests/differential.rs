//! Differential pinning: with the `none` fault schedule, the fault
//! pipeline (WireRemote + FaultInjector) must be **byte-identical** to
//! the direct, wrapper-free pipeline the repo already trusted — same
//! detection verdicts, same recovery, same chain state, same scorecard
//! JSON. Only once the wrappers are provably inert can their faults be
//! trusted to measure the faults and nothing else.

use rssd_faults::{ActorKind, FaultPlan, Scenario, Topology};

fn assert_identical(scenario: Scenario) {
    let faulted = scenario.run().expect("fault pipeline");
    let direct = scenario.run_direct().expect("direct pipeline");
    assert_eq!(faulted, direct, "{}", scenario.cell_id());
    assert_eq!(
        faulted.to_json(),
        direct.to_json(),
        "{}: serialized scorecards must be byte-identical",
        scenario.cell_id()
    );
    // The wrappers must leave no fingerprints at all.
    assert_eq!(faulted.power_cuts, 0);
    assert_eq!(faulted.torn_batches, 0);
    assert_eq!(faulted.offloads_queued + faulted.offloads_dropped, 0);
}

#[test]
fn none_schedule_cells_match_direct_replay_bare() {
    for actor in [ActorKind::None, ActorKind::Classic, ActorKind::Trim] {
        assert_identical(Scenario {
            profile: "hm",
            actor,
            plan: FaultPlan::None,
            topology: Topology::Bare,
            seed: 77,
        });
    }
}

#[test]
fn none_schedule_cells_match_direct_replay_multiqueue() {
    assert_identical(Scenario {
        profile: "src",
        actor: ActorKind::Classic,
        plan: FaultPlan::None,
        topology: Topology::MultiQueue {
            queues: 4,
            depth: 8,
        },
        seed: 78,
    });
}

#[test]
fn none_schedule_cells_match_direct_replay_array() {
    for actor in [ActorKind::None, ActorKind::Classic] {
        assert_identical(Scenario {
            profile: "mail",
            actor,
            plan: FaultPlan::None,
            topology: Topology::Array {
                shards: 3,
                stripe_pages: 4,
            },
            seed: 79,
        });
    }
}

#[test]
fn direct_pipeline_refuses_fault_plans() {
    let scenario = Scenario {
        profile: "hm",
        actor: ActorKind::Classic,
        plan: FaultPlan::PowerCutMidAttack,
        topology: Topology::Bare,
        seed: 80,
    };
    assert!(scenario.run_direct().is_err());
}
