//! Chaos-style integration tests: randomized (but seeded) fault schedules
//! under message loss. The assertions are the system's safety and
//! liveness floors — every request resolves, live replicas converge, and
//! sequencing never double-assigns — rather than exact QoS numbers.

use aqf::core::{OrderingGuarantee, RecoveryPolicy};
use aqf::sim::{SimDuration, SimTime};
use aqf::workload::{
    run_scenario, ClientOutcome, FaultEvent, FaultKind, FaultTarget, ObjectKind, ScenarioConfig,
    ScenarioMetrics,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a randomized crash/restart schedule: each chosen target crashes
/// once and restarts a few seconds later, staggered across the run.
fn random_faults(seed: u64, primaries: usize, secondaries: usize) -> Vec<FaultEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut faults = Vec::new();
    let mut at = 40u64;
    let add = |target: FaultTarget, at: u64, gap: u64| {
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
    };
    // One primary, one secondary, and (sometimes) the sequencer.
    let p = rng.gen_range(0..primaries);
    faults.extend(add(FaultTarget::Primary(p), at, rng.gen_range(10u64..30)));
    at += rng.gen_range(40u64..80);
    let s = rng.gen_range(0..secondaries);
    faults.extend(add(FaultTarget::Secondary(s), at, rng.gen_range(10u64..30)));
    at += rng.gen_range(40u64..80);
    if rng.gen_bool(0.5) {
        faults.extend(add(FaultTarget::Sequencer, at, rng.gen_range(10u64..30)));
    }
    faults
}

fn chaos_config(seed: u64, ordering: OrderingGuarantee) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(250, 0.5, 2, seed);
    config.ordering = ordering;
    if ordering != OrderingGuarantee::Sequential {
        config.object = ObjectKind::Bank;
    }
    for c in &mut config.clients {
        c.total_requests = 250;
        c.qos = aqf::core::QosSpec::new(4, SimDuration::from_millis(250), 0.5).expect("valid");
    }
    config.group_tick = SimDuration::from_millis(250);
    config.failure_timeout = SimDuration::from_millis(900);
    config.loss_probability = 0.02;
    config.faults = random_faults(seed, config.num_primaries, config.num_secondaries);
    config
}

#[test]
fn sequential_handler_survives_chaos() {
    for seed in [11u64, 22, 33] {
        let metrics = run_scenario(&chaos_config(seed, OrderingGuarantee::Sequential));
        for c in &metrics.clients {
            assert_eq!(
                c.record.completed, 250,
                "seed {seed}: client {} did not resolve all requests",
                c.id
            );
        }
        // Safety: no GSN double-assignment anywhere, ever.
        assert!(
            metrics.servers.iter().all(|s| s.stats.gsn_conflicts == 0),
            "seed {seed}: GSN conflict"
        );
        // Liveness: every update committed (125 writes per client) and
        // every live replica converged after the drain.
        let max_applied = metrics
            .servers
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.applied_csn)
            .max()
            .unwrap();
        let total_writes: u64 = metrics.clients.iter().map(|c| c.updates).sum();
        assert_eq!(
            max_applied, total_writes,
            "seed {seed}: some updates never committed"
        );
        for s in metrics.servers.iter().filter(|s| s.alive) {
            assert_eq!(
                s.applied_csn, max_applied,
                "seed {seed}: replica {} wedged",
                s.id
            );
        }
        // Consistency contract: immediate reads never exceeded thresholds.
        for c in &metrics.clients {
            assert_eq!(c.record.staleness_violations, 0, "seed {seed}");
        }
    }
}

/// Sweep behind ROADMAP defect (6): no sequential chaos run over seeds
/// 1000..3000 may end with an update that no live replica committed, or
/// with a live replica past the updates written (one committed twice).
/// Before members ranked by admission, 12 runs ended short.
/// `cargo test --release --test chaos -- --ignored --nocapture never_committed`
#[test]
#[ignore = "2 000 scenarios; prints the seeds that end short or over"]
fn never_committed_sweep_1000_3000() {
    let (mut short, mut over) = (Vec::new(), Vec::new());
    for seed in 1000u64..3000 {
        let metrics = run_scenario(&chaos_config(seed, OrderingGuarantee::Sequential));
        let live = metrics.servers.iter().filter(|s| s.alive);
        let max_applied = live.map(|s| s.applied_csn).max().unwrap();
        let total_writes: u64 = metrics.clients.iter().map(|c| c.updates).sum();
        if max_applied < total_writes {
            short.push((seed, total_writes - max_applied));
        } else if max_applied > total_writes {
            over.push((seed, max_applied - total_writes));
        }
    }
    println!("short: {short:?}; over: {over:?}");
    assert!(short.is_empty() && over.is_empty());
}

#[test]
fn fifo_handler_survives_chaos() {
    for seed in [44u64, 55] {
        let metrics = run_scenario(&chaos_config(seed, OrderingGuarantee::Fifo));
        for c in &metrics.clients {
            assert_eq!(c.record.completed, 250, "seed {seed}");
        }
        // FIFO restarts may lose the rejoin-window updates (documented), so
        // the floor here is completion plus bounded divergence.
        let live: Vec<u64> = metrics
            .servers
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.applied_csn)
            .collect();
        let spread = live.iter().max().unwrap() - live.iter().min().unwrap();
        assert!(
            spread <= 10,
            "seed {seed}: FIFO divergence {spread} beyond the rejoin-window bound"
        );
    }
}

/// Gray failures — a degraded sequencer and a lossy secondary — keep
/// heartbeats flowing, so group membership never evicts the sick
/// replicas and server-side failure recovery never triggers. The run
/// must still meet the same safety and liveness floors, with client-side
/// recovery as the only defense.
#[test]
fn gray_faults_preserve_safety_and_liveness_floors() {
    for seed in [101u64, 202] {
        let mut config = chaos_config(seed, OrderingGuarantee::Sequential);
        config.recovery = RecoveryPolicy::default();
        config.faults = vec![
            FaultEvent {
                at: SimTime::from_secs(30),
                target: FaultTarget::Sequencer,
                kind: FaultKind::Degrade { factor: 3.0 },
            },
            FaultEvent {
                at: SimTime::from_secs(40),
                target: FaultTarget::Secondary(0),
                kind: FaultKind::Lossy { p: 0.3 },
            },
            FaultEvent {
                at: SimTime::from_secs(120),
                target: FaultTarget::Sequencer,
                kind: FaultKind::RestoreGray,
            },
        ];
        let metrics = run_scenario(&config);
        for c in &metrics.clients {
            assert_eq!(c.record.completed, 250, "seed {seed}: client {}", c.id);
            assert_eq!(c.record.staleness_violations, 0, "seed {seed}");
        }
        assert!(
            metrics.servers.iter().all(|s| s.stats.gsn_conflicts == 0),
            "seed {seed}: GSN conflict under gray faults"
        );
        // Nothing crashed, so every replica must converge.
        let total_writes: u64 = metrics.clients.iter().map(|c| c.updates).sum();
        for s in &metrics.servers {
            assert!(s.alive, "seed {seed}: gray faults must not kill replicas");
            assert_eq!(
                s.applied_csn, total_writes,
                "seed {seed}: replica {} wedged under gray faults",
                s.id
            );
        }
    }
}

/// The sequential chaos deployment under 5% duplicate delivery, its
/// sequencer degraded `factor`-fold from 60 s to 120 s.
fn degraded_sequencer(seed: u64, factor: f64) -> ScenarioConfig {
    let mut config = chaos_config(seed, OrderingGuarantee::Sequential);
    config.duplicate_probability = 0.05;
    config.recovery = RecoveryPolicy::default();
    config.faults = vec![
        FaultEvent {
            at: SimTime::from_secs(60),
            target: FaultTarget::Sequencer,
            kind: FaultKind::Degrade { factor },
        },
        FaultEvent {
            at: SimTime::from_secs(120),
            target: FaultTarget::Sequencer,
            kind: FaultKind::RestoreGray,
        },
    ];
    config
}

/// An at-least-once network (5% duplicate delivery) must never
/// double-apply an update: the reply caches absorb every duplicate and
/// the commit counters stay exact.
#[test]
fn duplicate_delivery_never_double_applies() {
    for seed in [303u64, 404] {
        // The group layer drops network copies of a multicast before they
        // reach a reply cache, so the cache is exercised by genuine update
        // retransmissions. A sequencer degraded 1000x for a minute (links at
        // 0.2-0.8 s a hop, service times stretched alike) holds acks past
        // `UPDATE_RETRY_AFTER`, and the clients retransmit.
        let metrics = run_scenario(&degraded_sequencer(seed, 1000.0));
        for c in &metrics.clients {
            assert_eq!(c.record.completed, 250, "seed {seed}");
            assert_eq!(c.record.staleness_violations, 0, "seed {seed}");
        }
        assert!(
            metrics.servers.iter().all(|s| s.stats.gsn_conflicts == 0),
            "seed {seed}: duplicate delivery caused a GSN conflict"
        );
        let total_writes: u64 = metrics.clients.iter().map(|c| c.updates).sum();
        for s in &metrics.servers {
            assert_eq!(
                s.applied_csn, total_writes,
                "seed {seed}: replica {} double-applied or lost an update",
                s.id
            );
        }
        let retries: u64 = metrics.clients.iter().map(|c| c.retries).sum();
        assert!(
            retries > 0,
            "seed {seed}: acks slower than the retry window"
        );
        let dedup_hits: u64 = metrics.servers.iter().map(|s| s.stats.dedup_hits).sum();
        assert!(
            dedup_hits > 0,
            "seed {seed}: retransmitted updates must exercise the reply caches"
        );
    }
}

/// ROADMAP defect (6): degraded 1500-fold instead, the original sequencer
/// of seed 404 ends the run at CSN 193 of 250 while it still sequences,
/// every other replica at 250. The service it started 0.5 s into the
/// degrade was drawn stretched, 240 s long; it ends at 301 s, 181 s after
/// `RestoreGray`, with ~190 committed updates queued behind it, and the run
/// stops at 315 s, one drain after the clients finish (ROADMAP item 3).
#[test]
#[ignore = "defect (6): a service stretched by a gray fault outlives RestoreGray"]
fn gray_degraded_sequencer_ends_the_run_converged() {
    let config = degraded_sequencer(404, 1500.0);
    let metrics = run_scenario(&config);
    let writes: u64 = metrics.clients.iter().map(|c| c.updates).sum();
    let behind: Vec<_> = (metrics.servers.iter())
        .filter(|s| s.applied_csn != writes)
        .map(|s| (s.id, s.applied_csn))
        .collect();
    assert!(behind.is_empty(), "{writes} writes; behind: {behind:?}");
}

/// One gray-degraded primary (5× latency, heartbeats intact) plus 2% message
/// loss, with and without client-side recovery (retries and quarantine;
/// hedging stays off: it reshuffles server load and would blur the A/B).
/// Recovery removes the give-ups — every request is answered — and leaves
/// the number of *late* answers where it was: over seeds 515..=578 the runs
/// without it give up on 552 requests and miss 552 deadlines, the runs with
/// it give up on none and miss 546. (The test's name predates that
/// measurement: over its first eight seeds the misses read 67 → 63, which
/// was asserted as a reduction; over 64 it is no effect.)
///
/// "Where it was" is a bound taken from the spread of the runs, not chosen
/// to fit: per seed the difference (with − without) has a standard
/// deviation of 4.00 misses on PR 24's code, so the sum over 64 seeds has
/// one of 32, 5.6 % of either count, and any change to group traffic
/// redraws both. The assertion is two standard deviations, 12 %. PR 24's
/// issue asked for ±5 %: that is 0.9 σ — a bound an A/B with no effect at
/// all misses in one redraw out of three — and PR 24's own traffic change
/// reads 567 → 536, −5.5 %, outside it (ROADMAP, "gray-failure A/B").
#[test]
fn recovery_reduces_give_ups_and_timing_failures_under_gray_failure() {
    fn gray_scenario(seed: u64, recovery: RecoveryPolicy) -> ScenarioMetrics {
        let mut config = ScenarioConfig::paper_validation(600, 0.5, 2, seed);
        for c in &mut config.clients {
            c.total_requests = 400;
            c.qos =
                aqf::core::QosSpec::new(4, SimDuration::from_millis(600), 0.5).expect("valid qos");
        }
        config.group_tick = SimDuration::from_millis(250);
        config.loss_probability = 0.02;
        config.recovery = recovery;
        config.faults = vec![FaultEvent {
            at: SimTime::from_secs(20),
            target: FaultTarget::Primary(0),
            kind: FaultKind::Degrade { factor: 5.0 },
        }];
        run_scenario(&config)
    }

    // Summed over 64 seeds: at any single one the margin is a handful of
    // requests, and which way it falls depends on the RNG draw order.
    // Give-ups and timing failures of one run. Recovery must not cost
    // correctness: every run completes everything.
    let tally = |m: &ScenarioMetrics| {
        for c in &m.clients {
            assert_eq!(c.record.completed, 400);
            assert_eq!(c.record.staleness_violations, 0);
        }
        let sum = |f: fn(&ClientOutcome) -> u64| m.clients.iter().map(f).sum::<u64>();
        (sum(|c| c.give_ups), sum(|c| c.timing_failures))
    };
    let (mut base_give_ups, mut base_failures) = (0, 0);
    let (mut with_give_ups, mut with_failures) = (0, 0);
    let (mut retries, mut quarantines) = (0, 0);
    for seed in 515..=578 {
        let (give_ups, failures) = tally(&gray_scenario(seed, RecoveryPolicy::disabled()));
        base_give_ups += give_ups;
        base_failures += failures;
        let with = gray_scenario(
            seed,
            RecoveryPolicy {
                hedge_fraction: None,
                ..RecoveryPolicy::default()
            },
        );
        let (give_ups, failures) = tally(&with);
        with_give_ups += give_ups;
        with_failures += failures;
        retries += with.clients.iter().map(|c| c.retries).sum::<u64>();
        quarantines += with.clients.iter().map(|c| c.quarantines).sum::<u64>();
    }
    println!(
        "give-ups {base_give_ups} -> {with_give_ups}, timing failures {base_failures} -> {with_failures}"
    );
    assert!(retries > 0, "recovery runs must actually retransmit");
    assert!(quarantines > 0, "recovery runs must open quarantines");
    assert!(
        base_give_ups >= 400 && 20 * with_give_ups <= base_give_ups,
        "give-ups must all but vanish with recovery on: {base_give_ups} -> {with_give_ups}"
    );
    assert!(
        25 * with_failures.abs_diff(base_failures) <= 3 * base_failures,
        "timing failures must stay within 12 %: {base_failures} -> {with_failures}"
    );
}

#[test]
fn causal_handler_survives_chaos() {
    for seed in [66u64, 77] {
        let metrics = run_scenario(&chaos_config(seed, OrderingGuarantee::Causal));
        for c in &metrics.clients {
            assert_eq!(c.record.completed, 250, "seed {seed}");
        }
        let live: Vec<u64> = metrics
            .servers
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.applied_csn)
            .collect();
        let spread = live.iter().max().unwrap() - live.iter().min().unwrap();
        assert!(
            spread <= 10,
            "seed {seed}: causal divergence {spread} beyond the rejoin-window bound"
        );
    }
}
