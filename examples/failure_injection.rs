//! Failure injection: crash the sequencer and the lazy publisher in the
//! middle of a run and watch the middleware recover (the §4.1 failure
//! handling the paper relies on, plus the §5.3 single-failure tolerance of
//! the selected sets). A second scenario injects a *gray* failure — a
//! primary that stays in the group but serves 5× slower — and compares
//! fire-and-forget clients against clients with retries and quarantine.
//!
//! ```sh
//! cargo run --release --example failure_injection
//! ```

use aqf::core::{QosSpec, RecoveryPolicy};
use aqf::sim::{SimDuration, SimTime};
use aqf::workload::{
    run_scenario, FaultEvent, FaultKind, FaultTarget, ScenarioConfig, ScenarioMetrics,
};

fn main() {
    crash_faults();
    gray_faults();
}

fn crash_faults() {
    let mut config = ScenarioConfig::paper_validation(160, 0.9, 2, 31);
    // Faster failure detection so recoveries are visible mid-run.
    config.group_tick = aqf::sim::SimDuration::from_millis(250);
    config.failure_timeout = aqf::sim::SimDuration::from_millis(900);
    config.faults = vec![
        // Kill the sequencer a quarter into the run...
        FaultEvent {
            at: SimTime::from_secs(300),
            target: FaultTarget::Sequencer,
            kind: FaultKind::Crash,
        },
        // ...and the lazy publisher halfway through.
        FaultEvent {
            at: SimTime::from_secs(600),
            target: FaultTarget::Publisher,
            kind: FaultKind::Crash,
        },
        // The publisher machine comes back later and rejoins.
        FaultEvent {
            at: SimTime::from_secs(900),
            target: FaultTarget::Publisher,
            kind: FaultKind::Restart,
        },
    ];

    let metrics = run_scenario(&config);

    println!("fault plan: sequencer crash @300s, publisher crash @600s, publisher restart @900s\n");
    for (i, c) in metrics.clients.iter().enumerate() {
        println!(
            "client {i}: {} reads, failure probability {}, give-ups {}",
            c.reads,
            c.failure_ci
                .map(|ci| ci.to_string())
                .unwrap_or_else(|| "n/a".into()),
            c.give_ups,
        );
    }
    println!();
    for s in &metrics.servers {
        println!(
            "replica {}: alive={} sequencer={} publisher={} csn={} recoveries={} state-transfers={} conflicts={}",
            s.id,
            s.alive,
            s.is_sequencer,
            s.is_publisher,
            s.csn,
            s.stats.recoveries,
            s.stats.state_transfers,
            s.stats.gsn_conflicts,
        );
    }
    println!(
        "\nlive-replica divergence at end = {} (sequential consistency held\n\
         through both role failures; a new sequencer recovered the GSN and a\n\
         new lazy publisher was designated deterministically)\n",
        metrics.max_applied_divergence()
    );
}

/// One primary degrades to 5× its normal service latency at t=20s but
/// keeps heartbeating, so the group never evicts it — the membership
/// layer is blind to gray failures. Runs the same seed twice: once with
/// fire-and-forget clients and once with retries + quarantine, and shows
/// the recovery counters doing the rescuing.
fn gray_faults() {
    fn run(recovery: RecoveryPolicy) -> ScenarioMetrics {
        let mut config = ScenarioConfig::paper_validation(600, 0.5, 2, 515);
        for c in &mut config.clients {
            c.total_requests = 400;
            c.qos = QosSpec::new(4, SimDuration::from_millis(600), 0.5).expect("valid qos");
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

    println!("=== gray failure: primary(0) degrades 5x @20s, 2% loss, same seed ===\n");
    let base = run(RecoveryPolicy::disabled());
    let with = run(RecoveryPolicy::default());

    for (label, m) in [("fire-and-forget", &base), ("retry+quarantine", &with)] {
        let sum =
            |f: fn(&aqf::workload::ClientOutcome) -> u64| -> u64 { m.clients.iter().map(f).sum() };
        let dedup: u64 = m.servers.iter().map(|s| s.stats.dedup_hits).sum();
        println!(
            "{label:>16}: give-ups {:>2}  timing-failures {:>2}  retries {:>3}  \
             quarantines {:>2}  dedup-hits {:>3}",
            sum(|c| c.give_ups),
            sum(|c| c.timing_failures),
            sum(|c| c.retries),
            sum(|c| c.quarantines),
            dedup,
        );
    }

    // Where did the reads actually go? Retries re-run selection excluding
    // the replicas already tried, and replicas that keep striking out sit
    // out a quarantine window, so the recovery run spreads its rescue
    // attempts over replicas the fire-and-forget run never reached.
    for (label, m) in [("fire-and-forget", &base), ("retry+quarantine", &with)] {
        let per_replica: Vec<u64> = m
            .servers
            .iter()
            .map(|s| {
                m.clients
                    .iter()
                    .map(|c| c.selection_counts.get(&s.id).copied().unwrap_or(0))
                    .sum()
            })
            .collect();
        println!("\n{label:>16} reads per replica (sequencer first): {per_replica:?}");
    }
    println!(
        "\nthe degraded primary keeps heartbeating, so the group never evicts\n\
         it; client-side recovery is the only defense. Retries erase the\n\
         give-ups and quarantine keeps chronically silent replicas out of\n\
         the selected sets until a timely probe reply clears them."
    );
}
