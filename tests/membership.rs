//! Integration tests for the membership-robustness layer: the fixed
//! failure timeout under a gray fault, and primary-group replenishment
//! after a sequencer crash.

use aqf::core::{RecoveryPolicy, PRIMARY_GROUP};
use aqf::group::View;
use aqf::sim::{ActorId, SimDuration, SimTime};
use aqf::workload::runner::{BuiltScenario, ScenarioMetrics};
use aqf::workload::{
    build_scenario, run_scenario, FaultEvent, FaultKind, FaultTarget, ReplicaActor, ScenarioConfig,
};

/// A serving primary turns lossy (every message dropped with p = 0.5) for
/// three minutes mid-run: alive, but its heartbeat gaps straddle the fixed
/// 900 ms timeout. The victim is a high-rank primary so its own (equally
/// lossy) false suspicions of lower-ranked members can never assemble a
/// majority sub-view with itself as leader.
fn gray_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.5, 2, seed).with_fast_detection();
    for c in &mut config.clients {
        c.total_requests = 300;
    }
    config.faults = vec![
        FaultEvent {
            at: SimTime::from_secs(60),
            target: FaultTarget::Primary(2),
            kind: FaultKind::Lossy { p: 0.5 },
        },
        FaultEvent {
            at: SimTime::from_secs(240),
            target: FaultTarget::Primary(2),
            kind: FaultKind::RestoreGray,
        },
    ];
    config
}

fn assert_all_completed(m: &ScenarioMetrics) {
    for c in &m.clients {
        assert_eq!(c.record.completed, 300, "client {} finished", c.id);
    }
}

/// The fixed timeout misreads the lossy member as churn (EXT-FAIL's gray
/// grid), but the churn costs neither completion nor convergence.
#[test]
fn fixed_timeout_completes_and_converges_under_a_lossy_primary() {
    for seed in [11, 12] {
        let m = run_scenario(&gray_config(seed));
        assert_all_completed(&m);
        assert_eq!(m.max_applied_divergence(), 0, "seed {seed}");
    }
}

#[test]
fn sequencer_crash_replenishes_primary_group() {
    let mut config = ScenarioConfig::paper_validation(200, 0.5, 2, 13).with_fast_detection();
    for c in &mut config.clients {
        c.total_requests = 300;
    }
    // The primary view starts with 5 members (sequencer + 4 primaries);
    // losing one must trigger a promotion from the secondary group.
    config.min_primary_size = 5;
    config.faults = vec![FaultEvent {
        at: SimTime::from_secs(60),
        target: FaultTarget::Sequencer,
        kind: FaultKind::Crash,
    }];

    let mut built = build_scenario(&config);
    built.run_to_completion(SimDuration::from_secs(3600), SimDuration::from_secs(5));
    let m = built.metrics();

    assert_all_completed(&m);
    assert_eq!(m.max_applied_divergence(), 0);
    let promoted: u64 = m.servers.iter().map(|s| s.stats.promoted).sum();
    assert_eq!(promoted, 1, "exactly one secondary promoted itself");

    // The successor measured its own takeover window.
    let seq = m
        .servers
        .iter()
        .find(|s| s.alive && s.is_sequencer)
        .expect("a live sequencer");
    assert!(seq.stats.recoveries >= 1);
    assert!(
        seq.stats.seq_unavail_us > 0,
        "unavailability window measured"
    );

    // The primary view regained its configured minimum size.
    let actor = built
        .world
        .actor::<ReplicaActor>(seq.id)
        .expect("replica actor type");
    let view = actor
        .endpoint()
        .view(PRIMARY_GROUP)
        .expect("primary view known");
    assert!(
        view.len() >= config.min_primary_size,
        "primary view has {} members, needs {}",
        view.len(),
        config.min_primary_size
    );
    // The promoted member is one of the original secondaries.
    let promotee = m
        .servers
        .iter()
        .find(|s| s.stats.promoted == 1)
        .expect("promoted server");
    assert!(built.secondary_ids.contains(&promotee.id));
    assert!(view.contains(promotee.id));
}

/// The primary view the live sequencer of `built` has installed.
fn sequencer_view(built: &BuiltScenario) -> View {
    let m = built.metrics();
    let seq = m
        .servers
        .iter()
        .find(|s| s.alive && s.is_sequencer)
        .expect("a live sequencer");
    built
        .world
        .actor::<ReplicaActor>(seq.id)
        .and_then(|a| a.endpoint().view(PRIMARY_GROUP))
        .cloned()
        .expect("primary view known")
}

/// Promotions per replica of `built`, by id.
fn promoted(built: &BuiltScenario, id: ActorId) -> u64 {
    let m = built.metrics();
    m.servers
        .iter()
        .find(|s| s.id == id)
        .map_or(0, |s| s.stats.promoted)
}

/// A primary short of 5 with replenishment on, 200 requests per client.
fn replenished(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.5, 2, seed).with_fast_detection();
    for c in &mut config.clients {
        c.total_requests = 200;
    }
    config.min_primary_size = 5;
    config
}

/// The secondary the choice falls on crashes with the primary that
/// opened the deficit: its exclusion hands the choice to the next in
/// rank, which is promoted once, and the group is back at 5.
#[test]
fn chosen_secondary_crashing_with_a_primary_hands_the_choice_on() {
    let mut config = replenished(17);
    let crash = |target| FaultEvent {
        at: SimTime::from_secs(30),
        target,
        kind: FaultKind::Crash,
    };
    config.faults = vec![
        crash(FaultTarget::Primary(1)),
        crash(FaultTarget::Secondary(0)),
    ];
    let mut built = build_scenario(&config);
    built.run_until_with_faults(SimTime::from_secs(120));
    let next = built.secondary_ids[1];
    assert_eq!(promoted(&built, next), 1, "Secondary(1) promoted once");
    let total: u64 = built
        .metrics()
        .servers
        .iter()
        .map(|s| s.stats.promoted)
        .sum();
    assert_eq!(total, 1, "nobody else promoted");
    let view = sequencer_view(&built);
    assert_eq!(view.len(), 5, "{:?}", view.members());
    assert!(view.contains(next));
}

/// The trade of deciding from the views alone: the chosen secondary,
/// cut off from the sequencer only, holds replenishment until the link
/// heals — nobody routes around it — and the group refills after.
#[test]
fn chosen_secondary_cut_from_the_sequencer_refills_after_the_heal() {
    let mut config = replenished(19);
    let chosen = FaultTarget::Secondary(0);
    let link = |secs, kind| FaultEvent {
        at: SimTime::from_secs(secs),
        target: chosen,
        kind,
    };
    let peer = FaultTarget::Sequencer;
    config.faults = vec![
        link(20, FaultKind::CutLink { peer }),
        FaultEvent {
            at: SimTime::from_secs(30),
            target: FaultTarget::Primary(1),
            kind: FaultKind::Crash,
        },
        link(60, FaultKind::HealLink { peer }),
    ];
    let mut built = build_scenario(&config);
    let chosen = built.secondary_ids[0];
    // Reads answered, late and given up, over both clients.
    let reads = |built: &BuiltScenario| {
        let m = built.metrics();
        m.clients.iter().fold((0, 0, 0), |(r, l, g), c| {
            (r + c.reads, l + c.timing_failures, g + c.give_ups)
        })
    };
    built.run_until_with_faults(SimTime::from_secs(31));
    let before = reads(&built);
    built.run_until_with_faults(SimTime::from_secs(59));
    assert_eq!(sequencer_view(&built).len(), 4, "refilled across the cut");
    // The pending promotee is still a secondary to the clients: reads go
    // on while it waits, none late, none given up.
    let during = reads(&built);
    assert!(during.0 > before.0, "{before:?} -> {during:?}");
    assert_eq!(
        (during.1, during.2),
        (before.1, 0),
        "{before:?} -> {during:?}"
    );
    built.run_until_with_faults(SimTime::from_secs(120));
    let view = sequencer_view(&built);
    assert_eq!(view.len(), 5, "{:?}", view.members());
    assert!(view.contains(chosen));
    assert_eq!(promoted(&built, chosen), 1);
    let total: u64 = built
        .metrics()
        .servers
        .iter()
        .map(|s| s.stats.promoted)
        .sum();
    assert_eq!(total, 1, "nobody routed around the chosen one");
}

/// Two primaries short at once, under 10 % loss: each promotee's join used
/// to open a reconciliation round while the group was still one short, so
/// promotion deadlines passed under open rounds — the state in which the
/// watchdog's first version re-armed with zero delay for ever (seed 2
/// stopped short of t = 19.25 s). Every run must reach its end with the
/// group refilled.
#[test]
fn double_deficit_under_loss_is_refilled() {
    for seed in 0..8 {
        let mut config = ScenarioConfig::paper_validation(200, 0.5, 2, seed).with_fast_detection();
        for c in &mut config.clients {
            c.total_requests = 100;
        }
        config.min_primary_size = 5;
        config.loss_probability = 0.10;
        let crash = |target| FaultEvent {
            at: SimTime::from_secs(10),
            target,
            kind: FaultKind::Crash,
        };
        config.faults = vec![
            crash(FaultTarget::Sequencer),
            crash(FaultTarget::Primary(2)),
        ];
        let mut built = build_scenario(&config);
        built.run_until_with_faults(SimTime::from_secs(120));
        let m = built.metrics();
        let promoted: u64 = m.servers.iter().map(|s| s.stats.promoted).sum();
        assert!(promoted >= 2, "seed {seed}: {promoted} promoted");
        let seq = m
            .servers
            .iter()
            .find(|s| s.alive && s.is_sequencer)
            .expect("a live sequencer");
        let view = built
            .world
            .actor::<ReplicaActor>(seq.id)
            .and_then(|a| a.endpoint().view(PRIMARY_GROUP))
            .expect("primary view known");
        assert!(view.len() >= 5, "seed {seed}: {:?}", view.members());
        // A primary falsely excluded under the loss and re-merged after
        // its place was refilled sends a promotee back.
        assert!(view.len() <= 5, "seed {seed}: {:?}", view.members());
    }
}

/// 10 % loss alone, with no crash and no replenishment (the double
/// deficit's setup without its faults). The seed's fire-and-forget client
/// gives up each read whose one copy to the sequencer is lost, about one
/// read in ten. The client's recovery retries such a read, sending the
/// sequencer a copy with each attempt, and each replica a retry reaches
/// without the read's snapshot asks the sequencer for it too: no read gives
/// up, and each client issues every request.
#[test]
fn recovery_retries_reads_lost_on_the_way_to_the_sequencer() {
    let run = |seed, recovery| {
        let mut config = ScenarioConfig::paper_validation(200, 0.5, 2, seed).with_fast_detection();
        for c in &mut config.clients {
            c.total_requests = 100;
        }
        config.loss_probability = 0.10;
        config.recovery = recovery;
        let mut built = build_scenario(&config);
        built.run_until_with_faults(SimTime::from_secs(120));
        built.metrics().clients
    };
    for seed in [6, 11, 14] {
        let off: u64 = run(seed, RecoveryPolicy::disabled())
            .iter()
            .map(|c| c.give_ups)
            .sum();
        assert!(off > 0, "seed {seed}: no read gave up without recovery");
        for c in run(seed, RecoveryPolicy::default()) {
            assert_eq!(c.reads + c.updates, 100, "seed {seed}: client {}", c.id);
            assert_eq!(c.give_ups, 0, "seed {seed}: client {}", c.id);
        }
    }
}

/// What replenishment buys: three permanent crashes (the sequencer at
/// 20 s, then two primaries at 50 s and 80 s) leave 2 of the 5-member
/// roster, a minority that can install no view. Without replenishment the
/// group has no sequencer from then on and 249–252 of the 400 requests give
/// up; with `min_primary_size = 5` each successor promotes a secondary and
/// every request is answered. Asserted per seed over 16 seeds, both ways.
#[test]
fn replenishment_prevents_a_wedge_after_three_primary_crashes() {
    fn give_ups(seed: u64, min_primary_size: usize) -> u64 {
        let mut config = ScenarioConfig::paper_validation(160, 0.9, 2, seed).with_fast_detection();
        for c in &mut config.clients {
            c.total_requests = 200;
        }
        config.min_primary_size = min_primary_size;
        let crash = |secs, target| FaultEvent {
            at: SimTime::from_secs(secs),
            target,
            kind: FaultKind::Crash,
        };
        config.faults = vec![
            crash(20, FaultTarget::Sequencer),
            crash(50, FaultTarget::Primary(0)),
            crash(80, FaultTarget::Primary(1)),
        ];
        let m = run_scenario(&config);
        m.clients.iter().map(|c| c.give_ups).sum()
    }

    for seed in 1..=16 {
        let (without, with) = (give_ups(seed, 0), give_ups(seed, 5));
        assert!(without > 0, "seed {seed}: no wedge without replenishment");
        assert_eq!(
            with, 0,
            "seed {seed}: {without} give-ups without, {with} with"
        );
    }
}
