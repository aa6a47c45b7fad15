//! EXT-FAIL: crash tolerance of the selected sets and of the protocol
//! roles (paper §5.3's single-failure proposal and §4.1's failure
//! handling).
//!
//! Three studies:
//!
//! 1. **Crash grid** — crashes the sequencer, the lazy publisher, and a
//!    serving replica mid-run and reports how the client's QoS held up,
//!    how many recoveries the gateways performed, and whether replicated
//!    state stayed convergent.
//! 2. **Gray-fault grid** — runs the fixed-timeout failure detector
//!    under near-threshold loss and degradation faults, reporting view
//!    churn and the failover SLOs.
//! 3. **Replenishment** — crashes the sequencer, then also two primaries,
//!    with and without `min_primary_size` and reports the promoted
//!    secondaries, the measured sequencer-unavailability window and the
//!    give-ups.

use crate::table::{Output, Table};
use aqf_sim::SimTime;
use aqf_workload::runner::ScenarioMetrics;
use aqf_workload::{run_scenario, FaultEvent, FaultKind, FaultTarget, ScenarioConfig};

struct FaultRun {
    label: &'static str,
    faults: Vec<FaultEvent>,
}

/// Runs the failure-injection suite and prints the comparison.
pub fn run(seed: u64, out: &Output) {
    let runs = [
        FaultRun {
            label: "no faults (baseline)",
            faults: vec![],
        },
        FaultRun {
            label: "serving primary crash @300s",
            faults: vec![FaultEvent {
                at: SimTime::from_secs(300),
                target: FaultTarget::Primary(0),
                kind: FaultKind::Crash,
            }],
        },
        FaultRun {
            label: "secondary crash @300s",
            faults: vec![FaultEvent {
                at: SimTime::from_secs(300),
                target: FaultTarget::Secondary(0),
                kind: FaultKind::Crash,
            }],
        },
        FaultRun {
            label: "sequencer crash @300s",
            faults: vec![FaultEvent {
                at: SimTime::from_secs(300),
                target: FaultTarget::Sequencer,
                kind: FaultKind::Crash,
            }],
        },
        FaultRun {
            label: "publisher crash @300s",
            faults: vec![FaultEvent {
                at: SimTime::from_secs(300),
                target: FaultTarget::Publisher,
                kind: FaultKind::Crash,
            }],
        },
        FaultRun {
            label: "publisher crash @300s + restart @600s",
            faults: vec![
                FaultEvent {
                    at: SimTime::from_secs(300),
                    target: FaultTarget::Publisher,
                    kind: FaultKind::Crash,
                },
                FaultEvent {
                    at: SimTime::from_secs(600),
                    target: FaultTarget::Publisher,
                    kind: FaultKind::Restart,
                },
            ],
        },
    ];

    let mut table = Table::new(
        "EXT-FAIL: QoS under crash faults (d = 160 ms, Pc = 0.9, LUI = 2 s)",
        &[
            "scenario",
            "P(timing failure)",
            "give-ups",
            "recoveries",
            "lazy sent",
            "divergence",
            "done",
        ],
    );
    for run in &runs {
        let mut config = ScenarioConfig::paper_validation(160, 0.9, 2, seed).with_fast_detection();
        config.faults = run.faults.clone();
        let m = run_scenario(&config);
        let c = m.client(1);
        let recoveries: u64 = m.servers.iter().map(|s| s.stats.recoveries).sum();
        let lazy_sent: u64 = m.servers.iter().map(|s| s.stats.lazy_updates_sent).sum();
        let completed: u64 = m.clients.iter().map(|c| c.record.completed).sum();
        let issued: u64 = m.clients.iter().map(|c| c.reads + c.updates).sum();
        table.row(vec![
            run.label.to_string(),
            format!("{:.3}", c.failure_ci.map(|x| x.estimate).unwrap_or(0.0)),
            c.give_ups.to_string(),
            recoveries.to_string(),
            lazy_sent.to_string(),
            m.max_applied_divergence().to_string(),
            format!("{completed}/{issued}"),
        ]);
    }
    out.emit(&table, "ext_failures");
    println!(
        "expected shape: single crashes keep the failure probability within\n\
         the 0.1 budget (the selected sets tolerate one failure). A\n\
         sequencer takeover happens only when leadership moves, so the\n\
         sequencer crash logs one recovery (under its successor) and every\n\
         other crash none, and live replicas always converge (divergence\n\
         0 when every replica is alive)."
    );

    gray_grid(seed, out);
    replenishment(seed, out);
}

/// A gray fault on a high-rank serving primary from 300 s to 600 s: the
/// member stays alive but its heartbeat gaps straddle the fixed timeout.
fn gray_faults(kind: FaultKind) -> Vec<FaultEvent> {
    vec![
        FaultEvent {
            at: SimTime::from_secs(300),
            target: FaultTarget::Primary(2),
            kind,
        },
        FaultEvent {
            at: SimTime::from_secs(600),
            target: FaultTarget::Primary(2),
            kind: FaultKind::RestoreGray,
        },
    ]
}

fn sum_group(m: &ScenarioMetrics, f: impl Fn(&aqf_group::endpoint::GroupStats) -> u64) -> u64 {
    m.servers.iter().map(|s| f(&s.group)).sum()
}

fn max_group(m: &ScenarioMetrics, f: impl Fn(&aqf_group::endpoint::GroupStats) -> u64) -> u64 {
    m.servers.iter().map(|s| f(&s.group)).max().unwrap_or(0)
}

/// EXT-FAIL gray-fault grid: the fixed timeout under near-threshold loss
/// and degradation.
fn gray_grid(seed: u64, out: &Output) {
    let faults: [(&str, FaultKind); 2] = [
        ("lossy p=0.5 @300..600s", FaultKind::Lossy { p: 0.5 }),
        (
            "degrade x2500 @300..600s",
            FaultKind::Degrade { factor: 2500.0 },
        ),
    ];
    let mut table = Table::new(
        "EXT-FAIL: gray faults under the fixed timeout (d = 160 ms, Pc = 0.9, LUI = 2 s)",
        &[
            "fault",
            "views",
            "suspicions",
            "t-suspect (ms)",
            "t-view (ms)",
            "P(timing failure)",
            "done",
        ],
    );
    for (fault_label, kind) in faults {
        let mut config = ScenarioConfig::paper_validation(160, 0.9, 2, seed).with_fast_detection();
        config.faults = gray_faults(kind);
        let m = run_scenario(&config);
        let c = m.client(1);
        let completed: u64 = m.clients.iter().map(|c| c.record.completed).sum();
        let issued: u64 = m.clients.iter().map(|c| c.reads + c.updates).sum();
        table.row(vec![
            fault_label.to_string(),
            sum_group(&m, |g| g.views_installed).to_string(),
            sum_group(&m, |g| g.suspicions).to_string(),
            format!("{}", max_group(&m, |g| g.max_suspect_silence_us) / 1000),
            format!("{}", max_group(&m, |g| g.max_suspect_to_view_us) / 1000),
            format!("{:.3}", c.failure_ci.map(|x| x.estimate).unwrap_or(0.0)),
            format!("{completed}/{issued}"),
        ]);
    }
    out.emit(&table, "ext_failures_gray");
    println!(
        "expected shape: the fixed timeout misreads near-threshold loss as\n\
         churn (many suspicions, many views) and a degraded member less\n\
         often, yet every request completes within the 0.1 budget."
    );
}

/// EXT-FAIL replenishment: a sequencer crash under `min_primary_size`
/// makes the most senior secondary outside the primary view promote
/// itself. Two more primary crashes
/// leave a group without replenishment 2 of its 5-member roster, too few
/// to install a view.
fn replenishment(seed: u64, out: &Output) {
    let crash = |secs, target| FaultEvent {
        at: SimTime::from_secs(secs),
        target,
        kind: FaultKind::Crash,
    };
    let one = vec![crash(300, FaultTarget::Sequencer)];
    let three = vec![
        crash(300, FaultTarget::Sequencer),
        crash(600, FaultTarget::Primary(0)),
        crash(900, FaultTarget::Primary(1)),
    ];
    let mut table = Table::new(
        "EXT-FAIL: primary-group replenishment after primary crashes (min size 5)",
        &[
            "scenario",
            "promoted",
            "primary view",
            "seq unavail (ms)",
            "commit stall (ms)",
            "P(timing failure)",
            "give-ups",
            "divergence",
            "done",
        ],
    );
    for (label, min_primary_size, faults) in [
        ("1 crash: no replenishment", 0, &one),
        ("1 crash: min_primary_size=5", 5, &one),
        ("3 crashes: no replenishment", 0, &three),
        ("3 crashes: min_primary_size=5", 5, &three),
    ] {
        let mut config = ScenarioConfig::paper_validation(160, 0.9, 2, seed).with_fast_detection();
        config.min_primary_size = min_primary_size;
        config.faults = faults.clone();
        let (m, primary_view_len) = run_inspecting_primary_view(&config);
        let c = m.client(1);
        let completed: u64 = m.clients.iter().map(|c| c.record.completed).sum();
        let issued: u64 = m.clients.iter().map(|c| c.reads + c.updates).sum();
        let promoted: u64 = m.servers.iter().map(|s| s.stats.promoted).sum();
        let seq_unavail: u64 = m
            .servers
            .iter()
            .map(|s| s.stats.seq_unavail_us)
            .max()
            .unwrap_or(0);
        let stall: u64 = m
            .servers
            .iter()
            .map(|s| s.stats.commit_stall_us)
            .max()
            .unwrap_or(0);
        table.row(vec![
            label.to_string(),
            promoted.to_string(),
            primary_view_len.to_string(),
            format!("{}", seq_unavail / 1000),
            format!("{}", stall / 1000),
            format!("{:.3}", c.failure_ci.map(|x| x.estimate).unwrap_or(0.0)),
            c.give_ups.to_string(),
            m.max_applied_divergence().to_string(),
            format!("{completed}/{issued}"),
        ]);
    }
    out.emit(&table, "ext_failures_replenish");
    println!(
        "expected shape: without replenishment one crash leaves the primary\n\
         view a member short for the rest of the run, and three leave a\n\
         minority that installs no view, so requests give up from then on;\n\
         with min_primary_size the most senior secondary outside the\n\
         primary view promotes itself after each crash, the view is back\n\
         at 5 and nothing gives up."
    );
}

/// Runs `config` to completion and also reports the size of the primary
/// view as known by the live sequencer at the end of the run.
fn run_inspecting_primary_view(config: &ScenarioConfig) -> (ScenarioMetrics, usize) {
    use aqf_sim::SimDuration;
    use aqf_workload::{build_scenario, ReplicaActor};

    let mut built = build_scenario(config);
    built.run_to_completion(config.run_limit, SimDuration::from_secs(5));
    let m = built.metrics();
    let view_len = m
        .servers
        .iter()
        .find(|s| s.alive && s.is_sequencer)
        .and_then(|s| built.world.actor::<ReplicaActor>(s.id))
        .and_then(|a| a.endpoint().view(aqf_core::PRIMARY_GROUP))
        .map(|v| v.len())
        .unwrap_or(0);
    (m, view_len)
}
