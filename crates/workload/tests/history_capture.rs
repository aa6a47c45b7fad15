//! Integration test for the history recorder: enabling recording must not
//! perturb the simulation (bit-identical [`ScenarioMetrics::digest`] on the
//! 16-actor faulty golden scenario).

use aqf_workload::{
    run_scenario, run_scenario_recorded, world_bench_config, HistoryEvent, HistoryHandle, ObsHandle,
};

/// Recording is write-only: the 16-actor faulty golden scenario produces
/// the identical metrics digest whether or not a collector is installed,
/// and the collected history is a well-formed closed-loop log (every
/// completion matches an earlier issue of the same request).
#[test]
fn recording_never_steers_the_golden_scenario() {
    let config = world_bench_config(16, true);
    let baseline = run_scenario(&config);

    let history = HistoryHandle::collecting();
    let recorded = run_scenario_recorded(&config, &ObsHandle::disabled(), &history);
    assert_eq!(
        baseline.digest(),
        recorded.digest(),
        "enabling history recording changed the simulation"
    );

    let events = history.take();
    assert!(!events.is_empty(), "recorded run produced no history");
    let mut outstanding = std::collections::BTreeSet::new();
    let mut completes = 0u64;
    for e in &events {
        match e {
            HistoryEvent::Issue { .. } => {
                assert!(outstanding.insert(e.key()), "request issued twice: {e:?}");
            }
            HistoryEvent::Complete { .. } => {
                assert!(
                    outstanding.remove(&e.key()),
                    "completion without a prior issue: {e:?}"
                );
                completes += 1;
            }
        }
    }
    assert!(completes > 0, "no completions recorded");
}
