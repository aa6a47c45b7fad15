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
/// until its backlog drains. Whether the backlog reaches the watermark
/// depends on which messages the restart cuts off: over seeds 102..=109
/// it does at 102 and 107 with stream tips advertised to every member, at
/// 107 alone with tips relayed on the leader's announce, which is why the
/// cell runs seed 107 (it ran 102 until then).
fn watermark_cell() -> ScenarioConfig {
    let mut config = overload_cell(OrderingGuarantee::Sequential, ObjectKind::Register, 107);
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
// --- when group liveness became leader-rooted, once when stream tips and
// --- observer announces went from per-tick to on-change, and once when stream
// --- tips moved onto the leader's announce (each time every run's group
// --- traffic, and with it the RNG draw order, changed) ---

const OVERLOAD_DIGESTS: [u64; 3] = [
    0xdf36_613c_6281_376d,
    0xb613_abde_2fa1_fdda,
    0xaa6a_9342_f57e_e788,
];
const WATERMARK_DIGEST: u64 = 0x663a_bc2c_52e2_33ad;
const REPLENISH_DIGEST: u64 = 0x1ad3_f34e_fd1d_2fb8;
const DURABLE_SECONDARY_DIGESTS: [u64; 3] = [
    0x1ea3_1709_c667_0f92,
    0x032b_82ab_4e30_3ade,
    0x7c11_24f5_bda2_7e33,
];
const TRACED_DIGESTS: [u64; 3] = [
    0x9aaa_0d00_5248_7fbf,
    0x5798_8b9b_9f68_89b8,
    0x8b8b_ab88_3b49_afd0,
];
const TRACE_HASHES: [u64; 3] = [
    0xcb3d_cec3_7850_9af4,
    0x38d1_2376_2ec4_84b4,
    0x086f_0d7d_f6fb_aa76,
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
