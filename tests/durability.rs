//! Chaos regressions for the durable-storage subsystem: correlated
//! crashes with write-ahead logs, snapshot compaction racing the crash
//! instant, and media faults (torn tails, bit flips) injected at the
//! crash boundary. The assertions are safety floors — no committed
//! prefix lost when replay is on, no GSN double-assignment, live
//! replicas converge, media damage is contained by the drop/fallback
//! ladder rather than panicking — plus the subsystem's two determinism
//! contracts (same seed reproduces the run; disabled storage is inert).

use aqf::core::ObsEvent;
use aqf::sim::{SimDuration, SimTime};
use aqf::workload::{
    build_scenario, run_scenario, run_scenario_observed, ClientSpec, FaultEvent, FaultKind,
    FaultTarget, ObjectKind, ObsHandle, OpPattern, ScenarioConfig, ScenarioMetrics,
};

fn crash_restart(target: FaultTarget, at: u64, gap: u64) -> Vec<FaultEvent> {
    vec![
        FaultEvent {
            at: SimTime::from_secs(at),
            target,
            kind: FaultKind::Crash,
        },
        FaultEvent {
            at: SimTime::from_secs(at + gap),
            target,
            kind: FaultKind::Restart,
        },
    ]
}

/// The base durable scenario: the paper deployment hosting the growing
/// shared document, fast failure detection, client retries on, and the
/// sync-before-ack storage preset.
fn durable_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(250, 0.5, 2, seed)
        .with_fast_detection()
        .with_durability();
    config.object = ObjectKind::Document;
    config.recovery = aqf::core::RecoveryPolicy::default();
    config.clients = (0..2)
        .map(|i| ClientSpec {
            qos: aqf::core::QosSpec::new(2, SimDuration::from_millis(250), 0.5).expect("valid"),
            request_delay: SimDuration::from_millis(500),
            total_requests: 150,
            pattern: OpPattern::AlternatingWriteRead,
            policy: aqf::core::SelectionPolicy::Probabilistic,
            start_offset: SimDuration::from_millis(250 * i as u64),
        })
        .collect();
    config
}

fn assert_safety_floors(m: &ScenarioMetrics, label: &str) {
    assert!(
        m.servers.iter().all(|s| s.stats.gsn_conflicts == 0),
        "{label}: GSN double-assignment"
    );
    let total_writes: u64 = m.clients.iter().map(|c| c.updates).sum();
    let live: Vec<u64> = m
        .servers
        .iter()
        .filter(|s| s.alive)
        .map(|s| s.applied_csn)
        .collect();
    let max_applied = *live.iter().max().expect("live replicas");
    assert!(
        max_applied <= total_writes,
        "{label}: more commits than issued updates (duplicate GSNs)"
    );
    for (i, &applied) in live.iter().enumerate() {
        assert_eq!(
            applied, max_applied,
            "{label}: live replica {i} wedged at {applied}/{max_applied}"
        );
    }
}

/// A whole-cluster crash + restart with log replay loses nothing: every
/// GSN committed before the outage is still applied at the end, the
/// replayed records are the mechanism (not a surviving donor — there is
/// none), and the cluster reconverges without conflicts.
#[test]
fn whole_cluster_restart_recovers_every_committed_gsn() {
    for seed in [7u64, 19] {
        let mut config = durable_config(seed);
        config.faults = crash_restart(FaultTarget::AllServers, 40, 3);
        let mut built = build_scenario(&config);
        built.run_until_with_faults(SimTime::from_secs(39));
        let committed_before: u64 = built
            .metrics()
            .servers
            .iter()
            .map(|s| s.applied_csn)
            .max()
            .unwrap_or(0);
        assert!(committed_before > 0, "seed {seed}: nothing committed yet");

        let chunk = SimDuration::from_secs(10);
        while !built.all_clients_done() {
            let until = built.world.now() + chunk;
            built.run_until_with_faults(until);
            assert!(
                built.world.now() < SimTime::from_secs(1800),
                "seed {seed}: run wedged after the correlated crash"
            );
        }
        built.run_until_with_faults(built.world.now() + SimDuration::from_secs(5));
        let m = built.metrics();
        let committed_after: u64 = m.servers.iter().map(|s| s.applied_csn).max().unwrap_or(0);
        assert!(
            committed_after >= committed_before,
            "seed {seed}: committed prefix lost ({committed_before} -> {committed_after})"
        );
        let replayed: u64 = m.servers.iter().map(|s| s.stats.replayed_records).sum();
        assert!(replayed > 0, "seed {seed}: recovery did not replay");
        let corrupt: u64 = m.servers.iter().map(|s| s.stats.corrupt_logs).sum();
        assert_eq!(corrupt, 0, "seed {seed}: corrupt log without media faults");
        assert_safety_floors(&m, &format!("seed {seed}"));
    }
}

/// Crashing the sequencer while compaction is running hot (a snapshot
/// staged every 4 commits, so the crash instant is always near a
/// snapshot boundary) neither loses nor double-assigns GSNs: replay from
/// the latest durable snapshot plus the WAL tail, delta-repaired from a
/// donor, lands on exactly the committed sequence.
#[test]
fn sequencer_crash_mid_snapshot_leaves_no_holes_or_dupes() {
    for seed in [3u64, 23] {
        let mut config = durable_config(seed);
        config.storage.snapshot_every = 4;
        config.faults = crash_restart(FaultTarget::Sequencer, 40, 3);
        let m = run_scenario(&config);
        let snapshots: u64 = m.servers.iter().map(|s| s.stats.snapshots_taken).sum();
        assert!(snapshots > 0, "seed {seed}: compaction never engaged");
        let replayed: u64 = m.servers.iter().map(|s| s.stats.replayed_records).sum();
        assert!(
            replayed > 0,
            "seed {seed}: restarted sequencer did not replay"
        );
        assert_safety_floors(&m, &format!("seed {seed}"));
    }
}

/// A sequencer that replayed its log asks its donor only for the suffix
/// it missed, so it is shipped fewer bytes than with replay off, where it
/// takes a full state transfer of the grown document. (At the snapshot
/// cadence above, the donor has compacted past that suffix and both arms
/// take the full transfer.)
#[test]
fn log_replay_ships_fewer_transfer_bytes_than_a_full_transfer() {
    let sent = |config: &ScenarioConfig| -> u64 {
        let m = run_scenario(config);
        m.servers.iter().map(|s| s.stats.transfer_bytes_sent).sum()
    };
    for seed in [3u64, 23] {
        let mut config = durable_config(seed);
        config.faults = crash_restart(FaultTarget::Sequencer, 40, 3);
        let replay = sent(&config);
        config.storage.replay = false;
        let full = sent(&config);
        assert!(
            replay < full,
            "seed {seed}: replay shipped {replay} bytes, full transfer {full}"
        );
    }
}

/// Media faults at the crash boundary are contained, never fatal: a torn
/// unsynced tail is dropped (and counted), an interior bit flip
/// quarantines the log and falls back to a full transfer (and is
/// counted), and in both arms the cluster still reconverges with zero
/// conflicts.
#[test]
fn torn_and_bitflip_faults_are_contained() {
    // Group commit (fsync every 8 records) so a crash always has an
    // unsynced tail to tear.
    let torn = |mut c: ScenarioConfig| {
        c.storage.fsync_every = 8;
        c.storage.torn_write_probability = 1.0;
        c
    };
    let flip = |mut c: ScenarioConfig| {
        c.storage.bit_flip_probability = 1.0;
        c
    };
    for (label, tweak) in [
        ("torn", &torn as &dyn Fn(ScenarioConfig) -> ScenarioConfig),
        ("bit-flip", &flip),
    ] {
        let mut config = tweak(durable_config(31));
        config.faults = crash_restart(FaultTarget::AllServers, 40, 3);
        let m = run_scenario(&config);
        let torn_dropped: u64 = m.servers.iter().map(|s| s.stats.torn_tails_dropped).sum();
        let corrupt: u64 = m.servers.iter().map(|s| s.stats.corrupt_logs).sum();
        assert!(
            torn_dropped + corrupt > 0,
            "{label}: media fault at probability 1.0 left no trace across 11 disks"
        );
        assert_safety_floors(&m, label);
    }
}

/// The RNG-driven disks do not break scenario determinism: the same
/// seed replays the same correlated-crash run bit-for-bit (compared via
/// the full Debug rendering, so any divergence diffs readably). Nor does
/// tracing them: a run with a live sink has the same metrics digest, and
/// its trace carries WAL, snapshot and replay events.
#[test]
fn durable_chaos_replays_identically() {
    let mut config = durable_config(13);
    config.storage.fsync_every = 4;
    config.storage.torn_write_probability = 0.5;
    config.storage.bit_flip_probability = 0.25;
    config.faults = crash_restart(FaultTarget::AllServers, 40, 3);
    let first = run_scenario(&config);
    let second = format!("{:#?}", run_scenario(&config));
    assert_eq!(
        format!("{first:#?}"),
        second,
        "durable chaos run is not reproducible"
    );
    let obs = ObsHandle::enabled();
    let traced = run_scenario_observed(&config, &obs);
    assert_eq!(traced.digest(), first.digest(), "tracing steered the run");

    let records = obs.take_report().expect("enabled handle").records;
    let seen = |kind: fn(&ObsEvent) -> bool| records.iter().any(|r| kind(&r.event));
    assert!(seen(|e| matches!(e, ObsEvent::WalAppend { .. })));
    assert!(seen(|e| matches!(e, ObsEvent::Snapshot { .. })));
    assert!(seen(|e| matches!(e, ObsEvent::RecoveryReplay { .. })));
}

/// Disabled storage is inert: a config whose storage knobs are set but
/// whose `enabled` flag is off produces the digest of the pristine
/// diskless scenario, while actually enabling it changes the digest
/// (the subsystem genuinely engages — write latency is accounted).
#[test]
fn disabled_storage_is_bit_identical_to_seed() {
    let pristine = ScenarioConfig::paper_validation(250, 0.5, 2, 5);
    let baseline = run_scenario(&pristine).digest();

    let mut knobs_set = pristine.clone().with_durability();
    knobs_set.storage.enabled = false;
    assert_eq!(
        run_scenario(&knobs_set).digest(),
        baseline,
        "disabled storage must not perturb the seed scenario"
    );

    let durable = pristine.clone().with_durability();
    assert_ne!(
        run_scenario(&durable).digest(),
        baseline,
        "enabled storage must actually engage (latency accounting)"
    );
}
