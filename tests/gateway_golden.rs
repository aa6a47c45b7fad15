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

use aqf::core::{ObsEvent, OrderingGuarantee, QosSpec, RecoveryPolicy, SelectionPolicy};
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

/// Overload protection against ~4x the paper's offered load:
/// six mixed readers that provoke queue-bound and deadline shedding, plus
/// two burst writers keeping the commit path busy.
fn overload_cell(ordering: OrderingGuarantee, object: ObjectKind, seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, seed).with_fast_detection();
    config.ordering = ordering;
    config.object = object;
    config.overload = true;
    config.recovery = RecoveryPolicy::default();
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

/// The sequencer crashes and restarts under the burst writers. It rejoins
/// as the most junior member, and the interim sequencer keeps the role.
fn sequencer_restart_cell() -> ScenarioConfig {
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
fn sequencer_restart_under_overload_digest_unchanged() {
    let m = run_scenario(&sequencer_restart_cell());
    assert!(
        m.servers.iter().any(|s| s.alive && s.is_sequencer),
        "no live sequencer after the restart"
    );
    assert_eq!(m.digest(), SEQUENCER_RESTART_DIGEST);
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
// --- traffic, and with it the RNG draw order, changed); the FIFO overload
// --- cell and the causal and FIFO traced cells, and all three trace hashes,
// --- once more when the response-time model became a count (exact `F^I`
// --- ties no longer flip Algorithm 1's exclusion swap); the overload cells,
// --- the traced cells and the trace hashes once more when `Busy` became a
// --- quarantine strike, the client breakers and the sequencer watermark
// --- went, and client timers began carrying their attempt; the sequential
// --- traced cell once more when a commit stall stopped counting idle time,
// --- and it and its trace hash once more when the staleness estimator began
// --- choosing itself from the observed dispersion ---

const OVERLOAD_DIGESTS: [u64; 3] = [
    0x06bf_7dc9_e463_bd4a,
    0x64e2_5085_8712_d819,
    0x55e4_377b_8142_74b4,
];
const SEQUENCER_RESTART_DIGEST: u64 = 0x132f_dda6_79be_a4eb;
const REPLENISH_DIGEST: u64 = 0x535c_bde8_17da_049c;
const DURABLE_SECONDARY_DIGESTS: [u64; 3] = [
    0xcae1_030e_2693_57c7,
    0x71ab_65d4_0002_9471,
    0x75b7_267f_2c7b_e142,
];
const TRACED_DIGESTS: [u64; 3] = [
    0xce02_270f_212a_a091,
    0xe44e_a7b4_8a29_ff85,
    0x0c88_868e_88f9_5321,
];
const TRACE_HASHES: [u64; 3] = [
    0x72d0_7c1f_ee90_2429,
    0x7761_3710_d7f5_2be0,
    0x3fbd_67a6_7c6b_485f,
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
    let m = run_scenario(&sequencer_restart_cell());
    println!(
        "sequencer restart: {:#018x} (events {})",
        m.digest(),
        m.events
    );
    let m = run_scenario(&replenish_cell());
    println!("replenish: {:#018x} (events {})", m.digest(), m.events);
}
