//! Integration tests for the failure handling of §4.1: sequencer recovery,
//! lazy-publisher re-designation, replica restart with state transfer, and
//! the single-failure tolerance of the selected sets (§5.3).

use aqf::core::{OrderingGuarantee, QosSpec, RecoveryPolicy, SelectionPolicy};
use aqf::sim::{SimDuration, SimTime};
use aqf::workload::{
    build_scenario, run_scenario, BuiltScenario, ClientSpec, FaultEvent, FaultKind, FaultTarget,
    ObjectKind, OpPattern, ReplicaActor, ScenarioConfig,
};

fn faulty_config(seed: u64, faults: Vec<FaultEvent>) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.5, 2, seed);
    for c in &mut config.clients {
        c.total_requests = 300;
    }
    config.group_tick = SimDuration::from_millis(250);
    config.failure_timeout = SimDuration::from_millis(900);
    config.faults = faults;
    config
}

fn crash(target: FaultTarget, secs: u64) -> FaultEvent {
    FaultEvent {
        at: SimTime::from_secs(secs),
        target,
        kind: FaultKind::Crash,
    }
}

fn restart(target: FaultTarget, secs: u64) -> FaultEvent {
    FaultEvent {
        at: SimTime::from_secs(secs),
        target,
        kind: FaultKind::Restart,
    }
}

#[test]
fn sequencer_crash_recovers_and_run_completes() {
    let metrics = run_scenario(&faulty_config(1, vec![crash(FaultTarget::Sequencer, 60)]));
    // All requests completed despite the sequencer failure.
    for c in &metrics.clients {
        assert_eq!(c.record.completed, 300, "client {} finished", c.id);
    }
    // Exactly one live replica took over sequencing, with one recovery.
    let sequencers: Vec<_> = metrics
        .servers
        .iter()
        .filter(|s| s.alive && s.is_sequencer)
        .collect();
    assert_eq!(sequencers.len(), 1);
    assert_eq!(sequencers[0].stats.recoveries, 1);
    // No GSN was ever double-assigned.
    assert!(metrics.servers.iter().all(|s| s.stats.gsn_conflicts == 0));
    // Live replicas converged on all committed updates.
    let max_csn = metrics
        .servers
        .iter()
        .filter(|s| s.alive)
        .map(|s| s.csn)
        .max()
        .unwrap();
    assert!(
        metrics
            .servers
            .iter()
            .filter(|s| s.alive)
            .all(|s| s.csn == max_csn),
        "live replicas diverged"
    );
    assert_eq!(metrics.max_applied_divergence(), 0);
}

#[test]
fn publisher_crash_hands_over_lazy_propagation() {
    let metrics = run_scenario(&faulty_config(2, vec![crash(FaultTarget::Publisher, 60)]));
    for c in &metrics.clients {
        assert_eq!(c.record.completed, 300);
    }
    // A live primary holds the publisher role at the end.
    let publishers: Vec<_> = metrics
        .servers
        .iter()
        .filter(|s| s.alive && s.is_publisher)
        .collect();
    assert_eq!(publishers.len(), 1);
    assert!(
        publishers[0].stats.lazy_updates_sent > 0,
        "new publisher propagated"
    );
    // Secondaries kept receiving lazy updates after the handover.
    let applied: u64 = metrics
        .servers
        .iter()
        .filter(|s| s.alive)
        .map(|s| s.stats.lazy_updates_applied)
        .sum();
    assert!(applied > 0);
    assert_eq!(metrics.max_applied_divergence(), 0);
}

#[test]
fn crashed_replica_rejoins_via_state_transfer() {
    let metrics = run_scenario(&faulty_config(
        3,
        vec![
            crash(FaultTarget::Primary(0), 60),
            restart(FaultTarget::Primary(0), 120),
        ],
    ));
    for c in &metrics.clients {
        assert_eq!(c.record.completed, 300);
    }
    // The restarted replica is alive and fully caught up.
    let max_csn = metrics.servers.iter().map(|s| s.csn).max().unwrap();
    for s in &metrics.servers {
        assert!(s.alive, "replica {} alive at end", s.id);
        assert_eq!(s.applied_csn, max_csn, "replica {} caught up", s.id);
    }
    // Someone served it a state transfer.
    let transfers: u64 = metrics
        .servers
        .iter()
        .map(|s| s.stats.state_transfers)
        .sum();
    assert!(transfers >= 1);
}

#[test]
fn serving_replica_crash_keeps_qos_within_budget() {
    // Pc = 0.9 client; one of the replicas it relies on crashes mid-run.
    let mut config = faulty_config(4, vec![crash(FaultTarget::Primary(1), 60)]);
    config.clients[1].qos =
        aqf::core::QosSpec::new(2, SimDuration::from_millis(200), 0.9).expect("valid");
    let metrics = run_scenario(&config);
    let c = metrics.client(1);
    let ci = c.failure_ci.expect("reads resolved");
    // The selected sets tolerate a single replica failure (§5.3), so the
    // observed failure probability stays within the client's budget.
    assert!(
        ci.estimate <= 0.1 + 0.03,
        "failure probability {} blew the budget after a crash",
        ci.estimate
    );
    assert_eq!(c.record.completed, 300);
}

#[test]
fn restarted_publisher_catches_up_past_missed_assignments() {
    // Regression test: assignments broadcast between a replica's restart
    // and its group re-admission are unrecoverable at the group layer; the
    // commit-stall watchdog must request a catch-up state transfer instead
    // of wedging forever (and, as re-designated publisher, freezing the
    // secondaries with stale snapshots).
    let metrics = run_scenario(&faulty_config(
        6,
        vec![
            crash(FaultTarget::Publisher, 60),
            restart(FaultTarget::Publisher, 120),
        ],
    ));
    for c in &metrics.clients {
        assert_eq!(c.record.completed, 300);
    }
    let max_applied = metrics.servers.iter().map(|s| s.applied_csn).max().unwrap();
    for s in &metrics.servers {
        assert!(s.alive);
        assert_eq!(
            s.applied_csn, max_applied,
            "replica {} wedged below the rest",
            s.id
        );
    }
    assert_eq!(metrics.max_applied_divergence(), 0);
    // The failure probability stayed sane (the broken behaviour was ~0.7).
    let ci = metrics.client(1).failure_ci.expect("reads resolved");
    assert!(ci.estimate < 0.1, "failure probability {}", ci.estimate);
}

#[test]
fn double_fault_sequencer_then_publisher() {
    let metrics = run_scenario(&faulty_config(
        5,
        vec![
            crash(FaultTarget::Sequencer, 60),
            crash(FaultTarget::Publisher, 120),
        ],
    ));
    for c in &metrics.clients {
        assert_eq!(c.record.completed, 300);
    }
    let live: Vec<_> = metrics.servers.iter().filter(|s| s.alive).collect();
    assert_eq!(live.len(), metrics.servers.len() - 2);
    assert!(live.iter().any(|s| s.is_sequencer));
    assert!(live.iter().any(|s| s.is_publisher));
    assert_eq!(metrics.max_applied_divergence(), 0);
    assert!(metrics.servers.iter().all(|s| s.stats.gsn_conflicts == 0));
}

/// The sequencer crashes and restarts 600 ms later, inside the failure
/// timeout: its followers must give up on it and take over, and every
/// update must still commit everywhere. The restarted node's knocks used to
/// count as its heartbeats, so nobody excluded it, and it went on
/// sequencing from a wiped counter: every later assignment fell at or below
/// the followers' commit point and was dropped as already committed.
#[test]
fn sequencer_restarted_inside_the_failure_timeout_keeps_sequencing() {
    let mut wedged = Vec::new();
    for seed in 1..=8 {
        // `tests/chaos.rs`' sequential chaos deployment.
        let mut config = ScenarioConfig::paper_validation(250, 0.5, 2, seed);
        for c in &mut config.clients {
            c.total_requests = 250;
            c.qos = QosSpec::new(4, SimDuration::from_millis(250), 0.5).expect("valid qos");
        }
        config.group_tick = SimDuration::from_millis(250);
        config.failure_timeout = SimDuration::from_millis(900);
        config.loss_probability = 0.02;
        config.faults = vec![
            crash(FaultTarget::Sequencer, 100),
            FaultEvent {
                at: SimTime::from_millis(100_600),
                target: FaultTarget::Sequencer,
                kind: FaultKind::Restart,
            },
        ];
        let metrics = run_scenario(&config);
        assert!(metrics.servers.iter().all(|s| s.stats.gsn_conflicts == 0));
        let writes: u64 = metrics.clients.iter().map(|c| c.updates).sum();
        let short: Vec<u64> = metrics
            .servers
            .iter()
            .filter(|s| s.alive && s.applied_csn != writes)
            .map(|s| s.applied_csn)
            .collect();
        if !short.is_empty() {
            wedged.push((seed, writes, short));
        }
    }
    assert!(
        wedged.is_empty(),
        "(seed, writes, live replicas' applied CSNs): {wedged:?}"
    );
}

/// Two damage windows overlap on the sequencer role: it is degraded, then
/// crashed (the role fails over), then restarted and restored in either
/// order. Each heal must repair the process its own damage struck — the
/// initial sequencer — not the successor now holding the role: at the end
/// that process is up and no longer degraded.
#[test]
fn heal_on_a_role_target_repairs_the_process_its_damage_struck() {
    let at = |secs: u64, kind: FaultKind| FaultEvent {
        at: SimTime::from_secs(secs),
        target: FaultTarget::Sequencer,
        kind,
    };
    let degrade = FaultKind::Degrade { factor: 4.0 };
    let schedules = [
        [
            at(10, degrade),
            at(20, FaultKind::Crash),
            at(30, FaultKind::Restart),
            at(40, FaultKind::RestoreGray),
        ],
        [
            at(10, degrade),
            at(20, FaultKind::Crash),
            at(25, FaultKind::RestoreGray),
            at(30, FaultKind::Restart),
        ],
    ];
    let mut wrong = Vec::new();
    for (shape, faults) in schedules.iter().enumerate() {
        for seed in 1..=3 {
            let mut config =
                ScenarioConfig::paper_validation(200, 0.9, 2, seed).with_fast_detection();
            config.run_limit = SimDuration::from_secs(120);
            for c in &mut config.clients {
                c.total_requests = 40;
            }
            config.faults = faults.to_vec();
            config.validate().expect("both schedules are valid");
            let mut built = build_scenario(&config);
            built.run_to_completion(config.run_limit, SimDuration::from_secs(5));
            let struck = built.primary_ids[0];
            let end = (
                built.world.is_alive(struck),
                built.world.net().degrade_factor(struck),
            );
            if end != (true, None) {
                wrong.push((shape, seed, end));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "(schedule, seed, (initial sequencer alive, its degrade factor)): {wrong:?}"
    );
}

/// ROADMAP defect (5): the takeover's reconciliation round collected one
/// `GsnReport` per primary over plain point-to-point sends, and a lost
/// report held sequencing until the stall timeout re-queried it. There is
/// no round any more: with no client traffic at all, the successor takes
/// over within the failure timeout and four group ticks of the crash —
/// detection, the view, and its flush.
#[test]
fn takeover_with_idle_clients_completes_within_detection_plus_four_ticks() {
    let mut config = faulty_config(7, Vec::new());
    for c in &mut config.clients {
        c.start_offset = SimDuration::from_secs(3_600);
    }
    let bound = config.failure_timeout + config.group_tick * 4;
    let mut built = build_scenario(&config);
    let (old, new) = (built.primary_ids[0], built.primary_ids[1]);
    let gateway = |built: &BuiltScenario, id| {
        let actor = built.world.actor::<ReplicaActor>(id).expect("a replica");
        (actor.gateway().is_sequencer(), actor.gateway().stats())
    };
    let crash = SimTime::from_secs(5);
    built.world.schedule_crash(old, crash);
    built.world.run_until(crash + bound);
    let (leads, stats) = gateway(&built, new);
    assert!(leads, "no takeover within {bound} of the crash");
    assert_eq!(stats.recoveries, 1);
}

/// The EXT-DUR cell of `aqf-experiments durability` with the primary
/// view's leader as the crash target: the shared document, two clients
/// alternating writes and reads, the leader down from 100 s to 103 s.
fn leader_restart_cell(ordering: OrderingGuarantee, durable: bool, seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, seed).with_fast_detection();
    config.ordering = ordering;
    config.object = ObjectKind::Document;
    config.recovery = RecoveryPolicy::default();
    config.clients = (0..2)
        .map(|i| ClientSpec {
            qos: QosSpec::new(2, SimDuration::from_millis(200), 0.9).expect("valid qos"),
            request_delay: SimDuration::from_millis(500),
            total_requests: 300,
            pattern: OpPattern::AlternatingWriteRead,
            policy: SelectionPolicy::Probabilistic,
            start_offset: SimDuration::from_millis(250 * i as u64),
        })
        .collect();
    // Without a sequencer the role target resolves to the initial leader,
    // `primary_ids[0]`, and the restart heals the process it struck.
    config.faults = vec![
        crash(FaultTarget::Sequencer, 100),
        restart(FaultTarget::Sequencer, 103),
    ];
    if durable {
        config.with_durability()
    } else {
        config
    }
}

/// ROADMAP defect (3), at the leader. A restarted FIFO or causal replica
/// asked the primary view's leader for its state, and a restarted leader's
/// view names itself: diskless, it stayed unsynced until the stall timeout
/// rotated the request to a peer; durable, it replayed its own log, counted
/// itself synced, and never reconciled with what the group committed while
/// it was down.
#[test]
fn restarted_leader_catches_up_from_a_peer() {
    let stall = aqf::core::shell::COMMIT_STALL_TIMEOUT;
    let mut failures = Vec::new();
    for ordering in [OrderingGuarantee::Fifo, OrderingGuarantee::Causal] {
        let (mut late, mut slowest, mut divergence) = (Vec::new(), 0, Vec::new());
        for seed in 1..=16 {
            let mut built = build_scenario(&leader_restart_cell(ordering, false, seed));
            built.run_until_with_faults(SimTime::from_secs(103) + stall);
            let leader = built.primary_ids[0];
            let gateway = built
                .world
                .actor::<ReplicaActor>(leader)
                .expect("a replica")
                .gateway();
            if gateway.is_synced() {
                slowest = slowest.max(gateway.stats().recovery_us);
            } else {
                late.push(seed);
            }
            let durable = run_scenario(&leader_restart_cell(ordering, true, seed));
            divergence.push(durable.max_applied_divergence());
        }
        let sum: u64 = divergence.iter().sum();
        println!(
            "{ordering}: diskless leader synced within {} ms, unsynced at {stall} at seeds {late:?}; \
             durable leader divergence {divergence:?} (sum {sum})",
            slowest / 1000
        );
        if !late.is_empty() {
            failures.push(format!(
                "{ordering}: diskless leader unsynced at {stall} at seeds {late:?}"
            ));
        }
        // FIFO has no signal for updates delivered while it rejoins, so
        // only causal is held to convergence here.
        if ordering == OrderingGuarantee::Causal && sum > 0 {
            failures.push(format!(
                "{ordering}: durable leader divergence sums to {sum}"
            ));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Fence for the catch-up path: the leader-restart cell at seed 1 under
/// each ordering, diskless and durable.
#[test]
fn leader_restart_digests_unchanged() {
    let orderings = [
        OrderingGuarantee::Sequential,
        OrderingGuarantee::Fifo,
        OrderingGuarantee::Causal,
    ];
    let digests = orderings.map(|ordering| {
        [false, true]
            .map(|durable| run_scenario(&leader_restart_cell(ordering, durable, 1)).digest())
    });
    assert_eq!(digests, LEADER_RESTART_DIGESTS);
}

/// `[diskless, durable]` per ordering: sequential, FIFO, causal. FIFO's
/// and causal's were re-recorded when a restarted leader stopped asking
/// itself for its state, all six when it started rejoining as the most
/// junior member, sequential's when the takeover became the view change's
/// flush, FIFO's and causal's when every departure was flushed, and
/// sequential's when the takeover window stopped counting idle time, and
/// all six when `GroupStats::merges` began counting every admission on a
/// knock (a restarted leader's re-admission among them), and sequential's
/// when a replica a read's retry reaches without its snapshot began asking
/// the sequencer for it.
const LEADER_RESTART_DIGESTS: [[u64; 2]; 3] = [
    [0x3f1f_1341_e567_4bae, 0x84c6_8e9f_fede_5ce4],
    [0x9443_7a96_8abf_69dd, 0xb9ca_c3cf_27be_813d],
    [0xc39f_6def_6c91_aacf, 0xdbc8_aa57_c0c0_237e],
];
