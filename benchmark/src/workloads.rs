//! The four named workloads. Each is a *cycle*: a fixed, ordered list of
//! scenario configs generated from `--seed`, so every count and every
//! virtual-time statistic of a cycle repeats exactly and only host time is
//! noisy. Sizes are pinned (README "Workloads"); changing one invalidates
//! every recorded baseline.
//!
//! All clients are closed-loop: the next request is issued `request_delay`
//! after the previous one resolves (the paper's §6 client).

use aqf_chaos::{scenario_for_seed, ScheduleBudget};
use aqf_core::{OrderingGuarantee, StorageConfig};
use aqf_sim::{SimDuration, SimTime};
use aqf_workload::{
    ClientSpec, FaultEvent, FaultKind, FaultTarget, ObjectKind, OpPattern, ScenarioConfig,
};

/// How the timed pass executes one run of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `build_scenario` + the harness's copy of the runner loop.
    Harness,
    /// `aqf_chaos::replay_and_judge`: history recording and oracle judging
    /// are part of the timed unit of work.
    Judged,
}

/// A crash or restart the harness schedules itself, on
/// `BuiltScenario::primary_ids[primary]`, after `build_scenario` returns.
/// `ScenarioConfig` cannot express a *static* fault on the initial
/// sequencer (`FaultTarget::Sequencer` is resolved live by
/// `run_until_with_faults`), and a static schedule is what lets the
/// step-traced pass replay the run exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessFault {
    pub at: SimTime,
    pub primary: usize,
    pub restart: bool,
}

/// One scenario run of a cycle.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub config: ScenarioConfig,
    pub harness_faults: Vec<HarnessFault>,
}

impl RunSpec {
    fn plain(config: ScenarioConfig) -> Self {
        Self {
            config,
            harness_faults: Vec::new(),
        }
    }

    /// Requests the run's clients will attempt.
    pub fn attempted(&self) -> u64 {
        self.config.clients.iter().map(|c| c.total_requests).sum()
    }
}

/// A named workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    /// Generates the cycle from the benchmark seed.
    pub cycle: fn(u64) -> Vec<RunSpec>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-fig4",
        driver: Driver::Harness,
        cycle: paper_fig4,
    },
    Workload {
        name: "write-stream",
        driver: Driver::Harness,
        cycle: write_stream,
    },
    Workload {
        name: "bigworld-churn",
        driver: Driver::Harness,
        cycle: bigworld_churn,
    },
    Workload {
        name: "chaos-corpus",
        driver: Driver::Judged,
        cycle: chaos_corpus,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of run `i` of the cycle for benchmark seed `seed` (splitmix64
/// finaliser, so neighbouring benchmark seeds share no run seed).
pub fn run_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's §6 validation grid (Fig. 4a/4b): 8 deadlines x 4 `(Pc, LUI)`
/// series, sequential ordering, 1+4+6 servers, two alternating write/read
/// clients with 1 s think time. Selection-bound: tight-deadline cells select
/// every replica, queues form and Algorithm 1's CDF rebuilds dominate.
fn paper_fig4(seed: u64) -> Vec<RunSpec> {
    const DEADLINES_MS: [u64; 8] = [80, 100, 120, 140, 160, 180, 200, 220];
    const SERIES: [(f64, u64); 4] = [(0.9, 4), (0.5, 4), (0.9, 2), (0.5, 2)];
    const REQUESTS_PER_CLIENT: u64 = 200;
    let mut cycle = Vec::new();
    for d in DEADLINES_MS {
        for (pc, lui) in SERIES {
            let i = cycle.len() as u64;
            let mut config = ScenarioConfig::paper_validation(d, pc, lui, run_seed(seed, i));
            for c in &mut config.clients {
                c.total_requests = REQUESTS_PER_CLIENT;
            }
            cycle.push(RunSpec::plain(config));
        }
    }
    cycle
}

/// Update-only stream through each of the three server gateways with
/// durable storage and one primary crash/restart. Zero reads means zero
/// selection: host time is deliveries, group multicast/ack, the gateways'
/// update/commit/lazy-publish paths, WAL append and WAL replay.
///
/// Eight seeds per ordering and a late crash, because one run's cost depends
/// on the seed in steps, not smoothly: in about half the seeds the sequential
/// gateway answers the crash with a retransmission storm (with the crash at
/// 30 s: 171 k retransmissions against 1 k, 2.3x the events) that lasts to
/// the end of the run. Crashing at 150 s of ~205 s bounds what a storm can
/// cost; see README "Workloads".
fn write_stream(seed: u64) -> Vec<RunSpec> {
    const WRITERS: usize = 4;
    const UPDATES_PER_WRITER: u64 = 500;
    const SEEDS_PER_ORDERING: u64 = 8;
    const ORDERINGS: [(OrderingGuarantee, ObjectKind); 3] = [
        (OrderingGuarantee::Sequential, ObjectKind::Register),
        (OrderingGuarantee::Causal, ObjectKind::Register),
        (OrderingGuarantee::Fifo, ObjectKind::Bank),
    ];
    let mut cycle = Vec::new();
    for (ordering, object) in ORDERINGS {
        for _ in 0..SEEDS_PER_ORDERING {
            let i = cycle.len() as u64;
            let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, run_seed(seed, i))
                .with_fast_detection()
                .with_durability();
            config.ordering = ordering;
            config.object = object;
            let mut writer = ClientSpec::paper_measured_client(200, 0.9);
            writer.qos.staleness_threshold = 10;
            writer.pattern = OpPattern::WriteOnly;
            writer.request_delay = SimDuration::from_millis(20);
            writer.total_requests = UPDATES_PER_WRITER;
            config.clients = (0..WRITERS)
                .map(|k| {
                    let mut w = writer.clone();
                    w.start_offset = SimDuration::from_millis(7 * k as u64);
                    w
                })
                .collect();
            config.faults = vec![
                fault(150, FaultTarget::Primary(1), FaultKind::Crash),
                fault(170, FaultTarget::Primary(1), FaultKind::Restart),
            ];
            cycle.push(RunSpec::plain(config));
        }
    }
    cycle
}

/// The ROADMAP's big-world regime: 64 actors (1+16+41 servers, 6 clients)
/// under loss, duplication, gray faults, a primary crash and a sequencer
/// failover. Group/membership/network-bound; one sparse reader measures the
/// 57-replica read path's share.
///
/// Sixteen seeds, because a run's length depends on the seed in steps: each
/// 10 s give-up a client meets pushes the end of its run past another 10 s
/// chunk of the runner loop (35, 45 or 55 virtual s).
fn bigworld_churn(seed: u64) -> Vec<RunSpec> {
    const SEEDS: u64 = 16;
    (0..SEEDS)
        .map(|i| {
            let mut config = ScenarioConfig::paper_validation(160, 0.9, 2, run_seed(seed, i))
                .with_fast_detection();
            config.num_primaries = 16;
            config.num_secondaries = 41;
            config.loss_probability = 0.02;
            config.duplicate_probability = 0.01;
            let mut writer = ClientSpec::paper_measured_client(160, 0.9);
            writer.pattern = OpPattern::WriteOnly;
            writer.request_delay = SimDuration::from_millis(1000);
            writer.total_requests = 24;
            let mut reader = ClientSpec::paper_measured_client(160, 0.9);
            reader.pattern = OpPattern::ReadOnly;
            reader.request_delay = SimDuration::from_millis(4000);
            reader.total_requests = 7;
            config.clients = (0..5)
                .map(|k| {
                    let mut w = writer.clone();
                    w.start_offset = SimDuration::from_millis(37 * k as u64);
                    w
                })
                .chain([reader])
                .collect();
            config.faults = vec![
                fault(
                    3,
                    FaultTarget::Secondary(0),
                    FaultKind::Degrade { factor: 3.0 },
                ),
                fault(4, FaultTarget::Secondary(1), FaultKind::Lossy { p: 0.15 }),
                fault(5, FaultTarget::Primary(0), FaultKind::Crash),
                fault(12, FaultTarget::Primary(0), FaultKind::Restart),
                fault(16, FaultTarget::Secondary(0), FaultKind::RestoreGray),
                fault(16, FaultTarget::Secondary(1), FaultKind::RestoreGray),
            ];
            RunSpec {
                config,
                // Sequencer failover: primary_ids[0] is the initial sequencer.
                harness_faults: vec![
                    HarnessFault {
                        at: SimTime::from_secs(8),
                        primary: 0,
                        restart: false,
                    },
                    HarnessFault {
                        at: SimTime::from_secs(18),
                        primary: 0,
                        restart: true,
                    },
                ],
            }
        })
        .collect()
}

/// The unit of work of CI's chaos gate: for each of the three profiles of
/// the fixed corpus (`crates/chaos/tests/corpus.rs`, mirrored by
/// `crates/experiments/src/chaos.rs`) a window of 8 consecutive schedule
/// seeds, placed in the profile's corpus block by the benchmark seed. The
/// corpus is pinned clean by the repo's own tests, so an oracle violation
/// here is a regression, not a property of the seed (schedules outside the
/// corpus are not all clean today: see BASELINE.md). The only workload with
/// reads on the causal and FIFO gateways, role-targeted faults, history
/// recording and oracle judging in the timed path.
fn chaos_corpus(seed: u64) -> Vec<RunSpec> {
    const WINDOW: u64 = 8;
    // (base seed, first schedule seed, schedules) of each corpus block.
    const BLOCKS: [(u64, u64, u64); 3] = [(101, 0, 80), (202, 1000, 60), (303, 2000, 60)];
    let budget = ScheduleBudget::quick();
    let mut cycle = Vec::new();
    for (profile, (base_seed, block_start, block_len)) in BLOCKS.into_iter().enumerate() {
        let mut base =
            ScenarioConfig::paper_validation(200, 0.9, 2, base_seed).with_fast_detection();
        base.run_limit = SimDuration::from_secs(250);
        for c in &mut base.clients {
            c.total_requests = 60;
            c.request_delay = SimDuration::from_millis(600);
        }
        match profile {
            0 => {}
            1 => {
                base.ordering = OrderingGuarantee::Causal;
                for c in &mut base.clients {
                    c.qos.staleness_threshold = 10;
                }
            }
            _ => {
                base.ordering = OrderingGuarantee::Fifo;
                base.object = ObjectKind::Bank;
                base.storage = StorageConfig::durable();
            }
        }
        let first = block_start + run_seed(seed, profile as u64) % (block_len - WINDOW + 1);
        for schedule in first..first + WINDOW {
            cycle.push(RunSpec::plain(scenario_for_seed(&base, &budget, schedule)));
        }
    }
    cycle
}

fn fault(at_secs: u64, target: FaultTarget, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        at: SimTime::from_secs(at_secs),
        target,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_are_seeded_and_valid() {
        for w in &WORKLOADS {
            let a = (w.cycle)(7);
            let b = (w.cycle)(7);
            let c = (w.cycle)(8);
            assert!(!a.is_empty());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.config, y.config, "{}: same seed, same inputs", w.name);
                assert!(x.config.validate().is_ok(), "{}", w.name);
            }
            assert!(
                a.iter().zip(&c).any(|(x, y)| x.config != y.config),
                "{}: another seed gives other inputs",
                w.name
            );
        }
    }

    #[test]
    fn write_stream_has_no_reader() {
        for run in write_stream(1) {
            assert!(run
                .config
                .clients
                .iter()
                .all(|c| c.pattern == OpPattern::WriteOnly));
        }
    }
}
