//! Integration tests for the membership-robustness layer: φ-accrual
//! failure detection vs the fixed timeout under gray faults, flap damping
//! of repeat offenders, and primary-group replenishment after a sequencer
//! crash.

use aqf::core::PRIMARY_GROUP;
use aqf::group::FailureDetector;
use aqf::sim::{SimDuration, SimTime};
use aqf::workload::runner::ScenarioMetrics;
use aqf::workload::{
    build_scenario, run_scenario, FaultEvent, FaultKind, FaultTarget, ReplicaActor, ScenarioConfig,
};

/// A serving primary turns lossy (every message dropped with p = 0.5) for
/// three minutes mid-run: alive, but its heartbeat gaps straddle the fixed
/// 900 ms timeout. The victim is a high-rank primary so its own (equally
/// lossy) false suspicions of lower-ranked members can never assemble a
/// majority sub-view with itself as leader.
fn gray_config(seed: u64, detector: FailureDetector) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.5, 2, seed).with_fast_detection();
    for c in &mut config.clients {
        c.total_requests = 300;
    }
    config.detector = detector;
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

/// Like [`run_scenario`] but with a configurable post-completion drain, so
/// a member still serving a flap-damping hold-down at workload end gets to
/// re-merge and catch up before state is inspected.
fn run_with_drain(config: &ScenarioConfig, drain: SimDuration) -> ScenarioMetrics {
    let mut built = build_scenario(config);
    built.run_to_completion(SimDuration::from_secs(3600), drain);
    built.metrics()
}

fn total_views(m: &ScenarioMetrics) -> u64 {
    m.servers.iter().map(|s| s.group.views_installed).sum()
}

fn total_timing_failures(m: &ScenarioMetrics) -> u64 {
    m.clients.iter().map(|c| c.timing_failures).sum()
}

fn assert_all_completed(m: &ScenarioMetrics) {
    for c in &m.clients {
        assert_eq!(c.record.completed, 300, "client {} finished", c.id);
    }
}

#[test]
fn accrual_detector_installs_fewer_views_under_gray_faults() {
    let fixed = run_scenario(&gray_config(11, FailureDetector::FixedTimeout));
    let accrual = run_scenario(&gray_config(11, FailureDetector::PhiAccrual));

    // The fixed timeout misreads near-threshold loss as churn; the accrual
    // detector widens its effective timeout to the observed jitter.
    assert!(
        total_views(&accrual) < total_views(&fixed),
        "accrual installed {} views vs fixed {}",
        total_views(&accrual),
        total_views(&fixed)
    );
    // Robustness must not cost timeliness or completion.
    assert_all_completed(&fixed);
    assert_all_completed(&accrual);
    assert!(
        total_timing_failures(&accrual) <= total_timing_failures(&fixed),
        "accrual timing failures {} vs fixed {}",
        total_timing_failures(&accrual),
        total_timing_failures(&fixed)
    );
    assert_eq!(accrual.max_applied_divergence(), 0);

    // The two membership defences compose.
    let mut both = gray_config(11, FailureDetector::PhiAccrual);
    both.damping = true;
    let both = run_scenario(&both);
    assert_all_completed(&both);
    assert_eq!(both.max_applied_divergence(), 0);
}

#[test]
fn flap_damping_holds_down_repeat_offenders() {
    let undamped = run_scenario(&gray_config(12, FailureDetector::FixedTimeout));
    let mut damped_config = gray_config(12, FailureDetector::FixedTimeout);
    damped_config.damping = true;
    let damped = run_with_drain(&damped_config, SimDuration::from_secs(120));

    let damped_joins: u64 = damped.servers.iter().map(|s| s.group.joins_damped).sum();
    assert!(
        damped_joins > 0,
        "the lossy member must hit at least one hold-down"
    );
    assert!(
        total_views(&damped) < total_views(&undamped),
        "damping installed {} views vs undamped {}",
        total_views(&damped),
        total_views(&undamped)
    );
    assert_all_completed(&damped);
    assert_eq!(damped.max_applied_divergence(), 0);
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
    let promotions: u64 = m.servers.iter().map(|s| s.stats.promotions).sum();
    assert_eq!(promoted, 1, "exactly one secondary accepted promotion");
    assert!(promotions >= 1, "the new sequencer ran a promotion round");

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

/// Two primaries short at once, under 10 % loss: each promotee's join opens
/// a reconciliation round while the group is still one short, so promotion
/// deadlines pass under open rounds — the state in which the watchdog's
/// first version re-armed with zero delay for ever (seed 2 stopped short of
/// t = 19.25 s). Every run must reach its end with the group refilled.
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
    }
}
