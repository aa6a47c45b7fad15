//! Golden pins for the server-gateway paths no other digest covers:
//! overload shedding under each ordering guarantee, primary-group
//! replenishment, a durable *secondary* restarting from its persisted lazy
//! installs, and — for one overloaded durable cell per ordering — the
//! observability trace itself, so the order in which a gateway emits
//! events is fenced as well as what it decides.
//!
//! The values were recorded on the three stand-alone gateways
//! (`server.rs` / `fifo.rs` / `causal.rs`) immediately before they were
//! collapsed onto one replica shell; the shell must reproduce them.
//! Re-baseline only for a deliberate protocol change, using the ignored
//! printer test at the bottom.

use aqf::core::{
    ObsEvent, OrderingGuarantee, OverloadConfig, QosSpec, RecoveryPolicy, SelectionPolicy,
};
use aqf::sim::{Digest, SimDuration, SimTime};
use aqf::workload::{
    run_scenario, run_scenario_observed, ClientSpec, FaultEvent, FaultKind, FaultTarget,
    ObjectKind, ObsHandle, OpPattern, ScenarioConfig, ScenarioMetrics,
};

const ORDERINGS: [(&str, OrderingGuarantee, ObjectKind); 3] = [
    (
        "sequential",
        OrderingGuarantee::Sequential,
        ObjectKind::Register,
    ),
    ("causal", OrderingGuarantee::Causal, ObjectKind::Document),
    ("fifo", OrderingGuarantee::Fifo, ObjectKind::Bank),
];

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

/// `OverloadConfig::protective()` against ~4x the paper's offered load:
/// six mixed readers that provoke queue-bound and deadline shedding, plus
/// two burst writers keeping the commit path busy.
fn overload_cell(ordering: OrderingGuarantee, object: ObjectKind, seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, seed).with_fast_detection();
    config.ordering = ordering;
    config.object = object;
    config.overload = OverloadConfig::protective();
    config.recovery = RecoveryPolicy {
        hedge_fraction: None,
        ..RecoveryPolicy::default()
    };
    config.clients = (0..8)
        .map(|i| ClientSpec {
            qos: QosSpec::new(2, SimDuration::from_millis(200), 0.9).expect("valid qos"),
            request_delay: SimDuration::from_millis(250),
            total_requests: 80,
            pattern: if i < 6 {
                OpPattern::ReadFraction(0.8)
            } else {
                OpPattern::WriteBurst(48)
            },
            policy: SelectionPolicy::Probabilistic,
            start_offset: SimDuration::from_millis(50 * i as u64),
        })
        .collect();
    config
}

/// The sequencer's commit-backlog watermark only fills while commits are
/// blocked behind a gap, so this cell restarts the sequencer under the
/// burst writers: the re-leading replica sheds new updates with `Busy`
/// until its backlog drains.
fn watermark_cell() -> ScenarioConfig {
    let mut config = overload_cell(OrderingGuarantee::Sequential, ObjectKind::Register, 102);
    config.faults = crash_restart(FaultTarget::Sequencer, 6, 3);
    config
}

/// A serving primary crashes for good with `min_primary_size` set: the
/// sequencer probes the secondaries and promotes the freshest through the
/// state-transfer path.
fn replenish_cell() -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.5, 2, 31).with_fast_detection();
    for c in &mut config.clients {
        c.total_requests = 160;
    }
    config.min_primary_size = 5;
    config.faults = vec![FaultEvent {
        at: SimTime::from_secs(30),
        target: FaultTarget::Primary(1),
        kind: FaultKind::Crash,
    }];
    config
}

/// A durable secondary crashes and restarts: its state is whatever lazy
/// install it last persisted, recovered through the replay ladder.
fn durable_secondary_cell(
    ordering: OrderingGuarantee,
    object: ObjectKind,
    seed: u64,
) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(250, 0.5, 2, seed)
        .with_fast_detection()
        .with_durability();
    config.ordering = ordering;
    config.object = object;
    for c in &mut config.clients {
        c.total_requests = 120;
    }
    config.faults = crash_restart(FaultTarget::Secondary(0), 30, 6);
    config
}

/// Overload and durability together, with a primary crash/restart so the
/// trace carries shed, WAL, snapshot, recovery and view-change events.
fn traced_cell(ordering: OrderingGuarantee, object: ObjectKind, seed: u64) -> ScenarioConfig {
    let mut config = overload_cell(ordering, object, seed).with_durability();
    for c in &mut config.clients {
        c.total_requests = 60;
    }
    config.faults = crash_restart(FaultTarget::Primary(0), 8, 4);
    config
}

/// Order-sensitive hash of the whole JSONL trace.
fn trace_hash(config: &ScenarioConfig) -> (ScenarioMetrics, u64, usize) {
    let obs = ObsHandle::enabled();
    let metrics = run_scenario_observed(config, &obs);
    let report = obs.take_report().expect("enabled handle has a report");
    let mut d = Digest::new();
    for byte in report.trace_jsonl().bytes() {
        d.mix(u64::from(byte));
    }
    (metrics, d.value(), report.records.len())
}

#[test]
fn overload_digests_unchanged() {
    for (i, (name, ordering, object)) in ORDERINGS.into_iter().enumerate() {
        let m = run_scenario(&overload_cell(ordering, object, 41 + i as u64));
        let shed_reads: u64 = m.servers.iter().map(|s| s.stats.shed_reads).sum();
        let busy: u64 = m.clients.iter().map(|c| c.busy_rejections).sum();
        assert!(shed_reads > 0 && busy > 0, "{name}: no shedding at 4x load");
        assert_eq!(m.digest(), OVERLOAD_DIGESTS[i], "{name} overload cell");
    }
}

#[test]
fn sequencer_watermark_digest_unchanged() {
    let m = run_scenario(&watermark_cell());
    let shed_updates: u64 = m.servers.iter().map(|s| s.stats.shed_updates).sum();
    assert!(shed_updates > 0, "watermark never engaged");
    assert_eq!(m.digest(), WATERMARK_DIGEST);
}

#[test]
fn replenishment_digest_unchanged() {
    let m = run_scenario(&replenish_cell());
    let promoted: u64 = m.servers.iter().map(|s| s.stats.promoted).sum();
    assert_eq!(promoted, 1, "exactly one secondary accepted promotion");
    assert_eq!(m.digest(), REPLENISH_DIGEST);
}

#[test]
fn durable_secondary_restart_digests_unchanged() {
    for (i, (name, ordering, object)) in ORDERINGS.into_iter().enumerate() {
        let config = durable_secondary_cell(ordering, object, 51 + i as u64);
        let obs = ObsHandle::enabled();
        let m = run_scenario_observed(&config, &obs);
        let report = obs.take_report().expect("enabled handle has a report");
        // Servers are listed sequencer, primaries, secondaries.
        let secondary = &m.servers[1 + config.num_primaries];
        assert!(
            secondary.stats.snapshots_taken > 0,
            "{name}: no lazy install persisted"
        );
        assert!(
            report
                .records
                .iter()
                .any(|r| r.actor == secondary.id
                    && matches!(r.event, ObsEvent::RecoveryReplay { .. })),
            "{name}: the restarted secondary did not replay its installs"
        );
        assert_eq!(
            m.digest(),
            DURABLE_SECONDARY_DIGESTS[i],
            "{name} durable cell"
        );
    }
}

#[test]
fn traced_overload_durable_cells_unchanged() {
    for (i, (name, ordering, object)) in ORDERINGS.into_iter().enumerate() {
        let (m, hash, records) = trace_hash(&traced_cell(ordering, object, 61 + i as u64));
        assert!(records > 0, "{name}: empty trace");
        assert_eq!(m.digest(), TRACED_DIGESTS[i], "{name} traced cell metrics");
        assert_eq!(hash, TRACE_HASHES[i], "{name} trace emission order");
    }
}

// --- Recorded on the parent's three stand-alone gateways; re-recorded once
// --- when group liveness became leader-rooted (every run's heartbeat
// --- traffic, and with it the RNG draw order, changed) ---

const OVERLOAD_DIGESTS: [u64; 3] = [
    0xf556_f1de_fd1d_c934,
    0x7d6f_6e1e_e1ca_df66,
    0x008e_b9a8_56d5_e4a2,
];
const WATERMARK_DIGEST: u64 = 0x3f7a_f6cd_cabe_7498;
const REPLENISH_DIGEST: u64 = 0x7aab_7041_9108_2f96;
const DURABLE_SECONDARY_DIGESTS: [u64; 3] = [
    0x4a5d_85ed_5b80_8ce4,
    0x5919_caa8_aab9_1a5c,
    0x2f9c_17ec_4cd6_779a,
];
const TRACED_DIGESTS: [u64; 3] = [
    0xdc16_7d26_53cc_f64f,
    0x20d6_a4fb_ed8a_98f7,
    0x0a34_9952_f924_aa55,
];
const TRACE_HASHES: [u64; 3] = [
    0xfc1f_dd1d_65b3_98e6,
    0x237c_2d40_6b74_b742,
    0xbe36_0b25_0b73_6655,
];

/// Re-baselining tool: prints the values the constants above pin.
/// `cargo test --release -p aqf --test gateway_golden -- --ignored --nocapture`
#[test]
#[ignore = "prints baseline digests for re-pinning after a deliberate protocol change"]
fn print_golden_digests() {
    for (i, (name, ordering, object)) in ORDERINGS.into_iter().enumerate() {
        let i = i as u64;
        let m = run_scenario(&overload_cell(ordering, object, 41 + i));
        println!(
            "{name} overload: {:#018x} (events {})",
            m.digest(),
            m.events
        );
        let m = run_scenario(&durable_secondary_cell(ordering, object, 51 + i));
        println!(
            "{name} durable secondary: {:#018x} (events {})",
            m.digest(),
            m.events
        );
        let (m, hash, records) = trace_hash(&traced_cell(ordering, object, 61 + i));
        println!(
            "{name} traced: {:#018x}, trace {hash:#018x} ({records} records)",
            m.digest()
        );
    }
    let m = run_scenario(&watermark_cell());
    println!("watermark: {:#018x} (events {})", m.digest(), m.events);
    let m = run_scenario(&replenish_cell());
    println!("replenish: {:#018x} (events {})", m.digest(), m.events);
}
