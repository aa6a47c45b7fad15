//! A/B pins for the zero-copy message plane: the Rc-envelope transport,
//! interned method ids, and reply-buffer reuse must leave every scenario
//! bit-identical to the deep-clone plane they replaced. Each test replays
//! a scenario recorded *before* the message-plane rebuild and asserts
//! [`ScenarioMetrics::digest`] against the value the old plane produced.
//!
//! If one of these digests moves, the message plane changed observable
//! behaviour — event order, RNG draws, or a counter — and the change is a
//! bug regardless of how it benchmarks. Re-baseline only for a deliberate
//! protocol change, using the ignored printer test at the bottom.

use aqf::core::OrderingGuarantee;
use aqf::sim::{SimDuration, SimTime};
use aqf::workload::{
    run_scenario, world_bench_config, FaultEvent, FaultKind, FaultTarget, OpPattern, ScenarioConfig,
};

/// Crash/restart churn over both replication groups: the view-announce,
/// join, and retransmission paths all run, so the digest covers the
/// `Rc<View>` sharing and the send-buffer envelope reuse.
fn churn_scenario(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(250, 0.5, 2, seed);
    for c in &mut config.clients {
        c.total_requests = 60;
    }
    config.group_tick = SimDuration::from_millis(250);
    config.failure_timeout = SimDuration::from_millis(900);
    config.loss_probability = 0.02;
    config.faults = vec![
        FaultEvent {
            at: SimTime::from_secs(20),
            target: FaultTarget::Primary(0),
            kind: FaultKind::Crash,
        },
        FaultEvent {
            at: SimTime::from_secs(35),
            target: FaultTarget::Primary(0),
            kind: FaultKind::Restart,
        },
        FaultEvent {
            at: SimTime::from_secs(50),
            target: FaultTarget::Secondary(0),
            kind: FaultKind::Crash,
        },
        FaultEvent {
            at: SimTime::from_secs(65),
            target: FaultTarget::Secondary(0),
            kind: FaultKind::Restart,
        },
    ];
    config
}

/// Write-burst multicast pressure under loss and duplication: the
/// `SendMany` fan-out, duplicate drop, and nack/retransmission paths all
/// run against shared envelopes.
fn multicast_scenario(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(300, 0.5, 2, seed);
    config.ordering = OrderingGuarantee::Fifo;
    config.object = aqf::workload::ObjectKind::Bank;
    for c in &mut config.clients {
        c.total_requests = 60;
        c.pattern = OpPattern::WriteBurst(4);
    }
    config.loss_probability = 0.05;
    config.duplicate_probability = 0.03;
    config
}

/// The faulty 64-actor golden trace: crash + restart, gray degradation,
/// per-actor loss, global loss and duplication, at the largest benched
/// deployment, with the full metrics digest pinned.
#[test]
fn golden_64actor_faulty_trace_digest_unchanged() {
    let metrics = run_scenario(&world_bench_config(64, true));
    assert_eq!(metrics.events, 89_681, "event history moved");
    assert_eq!(
        metrics.digest(),
        GOLDEN_64ACTOR_FAULTY_DIGEST,
        "zero-copy plane diverged from the recorded deep-clone trace"
    );
}

/// Seed-determined event counts of all six `world_bench_config` worlds: a
/// change to the event core or to group traffic that replays a different
/// history moves one of these before it moves anything timed.
#[test]
fn world_bench_event_counts_unchanged() {
    for (actors, faults, expected) in EVENTS {
        let metrics = run_scenario(&world_bench_config(actors, faults));
        assert_eq!(
            metrics.events, expected,
            "event history moved (actors={actors} faults={faults})"
        );
    }
}

#[test]
fn churn_digests_unchanged() {
    for (seed, expected) in CHURN_DIGESTS {
        let metrics = run_scenario(&churn_scenario(seed));
        assert_eq!(
            metrics.digest(),
            expected,
            "churn seed {seed} diverged from the recorded deep-clone trace"
        );
    }
}

#[test]
fn multicast_digests_unchanged() {
    for (seed, expected) in MULTICAST_DIGESTS {
        let metrics = run_scenario(&multicast_scenario(seed));
        assert_eq!(
            metrics.digest(),
            expected,
            "multicast seed {seed} diverged from the recorded deep-clone trace"
        );
    }
}

/// Same-seed determinism of the zero-copy plane itself: two fresh runs of
/// the churn scenario must agree event-for-event (guards against any
/// accidental address- or refcount-dependent branch).
#[test]
fn zero_copy_plane_is_same_seed_deterministic() {
    let a = run_scenario(&churn_scenario(9001));
    let b = run_scenario(&churn_scenario(9001));
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.events, b.events);
}

// (4, true): the 2-member primary group cannot exclude its crashed primary,
// so after its restart at 8 s the primary is re-admitted by the leader's
// answering announce instead of knocking to the end of the run.
const EVENTS: [(usize, bool, u64); 6] = [
    (4, false, 872),
    (4, true, 973),
    (16, false, 6_186),
    (16, true, 6_559),
    (64, false, 100_355),
    (64, true, 89_681),
];

// --- Recorded digests (deep-clone plane, commit preceding the rebuild;
// --- re-recorded once when group liveness became leader-rooted, once when
// --- stream tips and observer announces went on-change, once when
// --- stream tips moved onto the leader's announce, once when views
// --- ranked members by admission, once when every departure was
// --- flushed, once when a commit stall stopped counting idle time, and
// --- once when the staleness estimator began choosing itself from the
// --- observed dispersion, and the three churn digests and the 64-actor one
// --- once when `GroupStats::merges` began counting every admission on a
// --- knock) ---

const GOLDEN_64ACTOR_FAULTY_DIGEST: u64 = 0x33be_aafc_df27_0e8b;

const CHURN_DIGESTS: [(u64, u64); 3] = [
    (17, 0xa795_f781_fe81_f5f3),
    (29, 0x3fdf_8e3e_8d6f_f3af),
    (43, 0xb84c_8acd_3a73_4917),
];

const MULTICAST_DIGESTS: [(u64, u64); 2] =
    [(5, 0xe11e_1f4a_b20c_e8aa), (61, 0x2587_8c5e_1a8e_541e)];

/// Re-baselining tool: prints the digests the constants above pin.
/// `cargo test --release -p aqf --test msgplane -- --ignored --nocapture`
#[test]
#[ignore = "prints baseline digests for re-pinning after a deliberate protocol change"]
fn print_golden_digests() {
    let m = run_scenario(&world_bench_config(64, true));
    println!(
        "GOLDEN_64ACTOR_FAULTY_DIGEST: {:#018x} (events {})",
        m.digest(),
        m.events
    );
    for (actors, faults, _) in EVENTS {
        let m = run_scenario(&world_bench_config(actors, faults));
        println!("EVENTS ({actors}, {faults}): {}", m.events);
    }
    for seed in [17u64, 29, 43] {
        let m = run_scenario(&churn_scenario(seed));
        println!("CHURN seed {seed}: {:#018x}", m.digest());
    }
    for seed in [5u64, 61] {
        let m = run_scenario(&multicast_scenario(seed));
        println!("MULTICAST seed {seed}: {:#018x}", m.digest());
    }
}
