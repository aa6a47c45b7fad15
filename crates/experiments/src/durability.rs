//! EXT-DUR: committed-state survival under correlated crashes, with and
//! without simulated stable storage.
//!
//! Crash-recovery in the paper's deployment leans entirely on live peers:
//! a restarted replica state-transfers from whoever is still up (§4.1).
//! That works for single failures but has nothing to say when the *whole*
//! replication group loses power. This grid measures what durable local
//! logs buy at three crash severities — sequencer only, every primary,
//! every server — each run in three durability modes:
//!
//! - **none** — the diskless seed: recovery is peer transfer or nothing.
//! - **transfer-only** — the WAL is written but ignored at recovery;
//!   restarted replicas always take a full state transfer. This isolates
//!   the *recovery* value of the log. The simulated disk takes no virtual
//!   time, so no mode pays a write latency.
//! - **log-replay** — replicas replay their durable tail before rejoining
//!   and fetch only the missing suffix (a delta) from the donor.
//!
//! The headline observables: how much committed state survives the
//! worst-severity crash (everything with replay, nothing without), and
//! how many transfer bytes replay saves when both modes write the same
//! log.

use crate::table::{Output, Table};
use aqf_core::{QosSpec, RecoveryPolicy, SelectionPolicy};
use aqf_sim::{SimDuration, SimTime};
use aqf_workload::runner::ScenarioMetrics;
use aqf_workload::{
    run_scenario, ClientSpec, FaultEvent, FaultKind, FaultTarget, ObjectKind, OpPattern,
    ScenarioConfig,
};

/// When the correlated crash lands (virtual time).
const CRASH_SECS: u64 = 100;

/// How long the outage lasts before every struck process restarts.
const OUTAGE_SECS: u64 = 3;

/// The three durability modes of the grid.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    None,
    TransferOnly,
    LogReplay,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::None => "none",
            Mode::TransferOnly => "transfer-only",
            Mode::LogReplay => "log-replay",
        }
    }

    fn apply(self, config: ScenarioConfig) -> ScenarioConfig {
        match self {
            Mode::None => config,
            Mode::TransferOnly => {
                let mut c = config.with_durability();
                c.storage.replay = false;
                c
            }
            Mode::LogReplay => config.with_durability(),
        }
    }
}

/// The three crash severities, worst last.
fn severities() -> [(&'static str, FaultTarget); 3] {
    [
        ("sequencer", FaultTarget::Sequencer),
        ("all primaries", FaultTarget::AllPrimaries),
        ("all servers", FaultTarget::AllServers),
    ]
}

/// The grid scenario: the paper's 11-server deployment hosting the
/// shared-document object (whose state grows with every committed edit,
/// so full snapshots cost real bytes while a delta costs only the missed
/// suffix), two closed-loop clients, retries enabled so requests caught
/// in the outage are re-driven rather than abandoned, and a correlated
/// crash + restart pair at the given target.
fn scenario(target: FaultTarget, mode: Mode, seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, seed).with_fast_detection();
    config.object = ObjectKind::Document;
    config.recovery = RecoveryPolicy {
        hedge_fraction: None,
        ..RecoveryPolicy::default()
    };
    config.clients = (0..2)
        .map(|i| ClientSpec {
            qos: QosSpec::new(2, SimDuration::from_millis(200), 0.9).expect("valid dur qos"),
            request_delay: SimDuration::from_millis(500),
            total_requests: 300,
            pattern: OpPattern::AlternatingWriteRead,
            policy: SelectionPolicy::Probabilistic,
            start_offset: SimDuration::from_millis(250 * i as u64),
        })
        .collect();
    config.faults = vec![
        FaultEvent {
            at: SimTime::from_secs(CRASH_SECS),
            target,
            kind: FaultKind::Crash,
        },
        FaultEvent {
            at: SimTime::from_secs(CRASH_SECS + OUTAGE_SECS),
            target,
            kind: FaultKind::Restart,
        },
    ];
    mode.apply(config)
}

/// The observables of one arm of the grid.
struct ArmOutcome {
    committed: u64,
    replayed: u64,
    wal_appends: u64,
    snapshots: u64,
    torn: u64,
    corrupt: u64,
    transfer_sent: u64,
    transfer_saved: u64,
    recoveries: u64,
    divergence: u64,
    completed: u64,
    issued: u64,
}

fn observe(m: &ScenarioMetrics) -> ArmOutcome {
    ArmOutcome {
        committed: m.servers.iter().map(|s| s.applied_csn).max().unwrap_or(0),
        replayed: m.servers.iter().map(|s| s.stats.replayed_records).sum(),
        wal_appends: m.servers.iter().map(|s| s.stats.wal_appends).sum(),
        snapshots: m.servers.iter().map(|s| s.stats.snapshots_taken).sum(),
        torn: m.servers.iter().map(|s| s.stats.torn_tails_dropped).sum(),
        corrupt: m.servers.iter().map(|s| s.stats.corrupt_logs).sum(),
        transfer_sent: m.servers.iter().map(|s| s.stats.transfer_bytes_sent).sum(),
        transfer_saved: m.servers.iter().map(|s| s.stats.transfer_bytes_saved).sum(),
        recoveries: m.servers.iter().map(|s| s.stats.recoveries).sum(),
        divergence: m.max_applied_divergence(),
        completed: m.clients.iter().map(|c| c.record.completed).sum(),
        issued: m.clients.iter().map(|c| c.reads + c.updates).sum(),
    }
}

/// Runs the EXT-DUR grid and prints the comparison.
pub fn run(seed: u64, out: &Output) {
    let mut table = Table::new(
        "EXT-DUR: committed-state survival under correlated crashes \
         (crash @100s, restart @103s, shared-document object)",
        &[
            "crash scope",
            "durability",
            "committed",
            "replayed",
            "wal",
            "snaps",
            "torn",
            "corrupt",
            "xfer bytes",
            "xfer saved",
            "recoveries",
            "divergence",
            "done",
        ],
    );
    for (label, target) in severities() {
        for mode in [Mode::None, Mode::TransferOnly, Mode::LogReplay] {
            let config = scenario(target, mode, seed);
            let m = run_scenario(&config);
            let o = observe(&m);
            table.row(vec![
                label.to_string(),
                mode.label().to_string(),
                o.committed.to_string(),
                o.replayed.to_string(),
                o.wal_appends.to_string(),
                o.snapshots.to_string(),
                o.torn.to_string(),
                o.corrupt.to_string(),
                o.transfer_sent.to_string(),
                o.transfer_saved.to_string(),
                o.recoveries.to_string(),
                o.divergence.to_string(),
                format!("{}/{}", o.completed, o.issued),
            ]);
        }
    }
    out.emit(&table, "ext_durability");
    println!(
        "expected shape: where a live donor exists (sequencer row), both\n\
         durable arms pay the same write path but log-replay ships strictly\n\
         fewer transfer bytes — the replayed replica asks only for the\n\
         suffix it missed instead of the full grown document. At the\n\
         correlated severities the diskless and transfer-only arms have no\n\
         synced donor at all: every commit before the outage is simply\n\
         gone (committed resets to the post-restart residue), while\n\
         log-replay restores the full prefix from local logs, converges,\n\
         and finishes conflict-free."
    );
}
