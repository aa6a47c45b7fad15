//! The fixed chaos corpus: three ordering profiles over one deployment,
//! each with its own block of schedule seeds.
//!
//! Every block replays clean on an unmutated build (`tests/corpus.rs`),
//! the mutation canary must catch its bug inside the causal block
//! (`tests/mutation_canary.rs`), and `chaos-search` sweeps the same
//! profiles from a block offset of its own choosing.

use aqf_core::{OrderingGuarantee, StorageConfig};
use aqf_sim::SimDuration;
use aqf_workload::{ObjectKind, ScenarioConfig};

/// One ordering profile of the corpus and its block of schedule seeds.
pub struct Profile {
    /// The profile's name in reports.
    pub name: &'static str,
    /// The scenario every schedule of the block is generated against.
    pub base: ScenarioConfig,
    /// First schedule seed of the block.
    pub first_seed: u64,
    /// Schedules in the block.
    pub schedules: u64,
}

/// The deployment every profile shares: the paper's 11-server layout with
/// fast failure detection and a workload that spans the fault window.
pub fn base(seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::paper_validation(200, 0.9, 2, seed).with_fast_detection();
    c.run_limit = SimDuration::from_secs(250);
    for spec in &mut c.clients {
        spec.total_requests = 60;
        spec.request_delay = SimDuration::from_millis(600);
    }
    c
}

/// [`base`] as a causal register. A generous staleness bound keeps the
/// staleness deferral out of the way, so reads are gated by causal
/// dependencies (the interesting check) rather than by freshness.
pub fn causal_base(seed: u64) -> ScenarioConfig {
    let mut c = base(seed);
    c.ordering = OrderingGuarantee::Causal;
    for spec in &mut c.clients {
        spec.qos.staleness_threshold = 10;
    }
    c
}

/// Sequential register, schedules 0..80.
pub fn sequential() -> Profile {
    Profile {
        name: "sequential",
        base: base(101),
        first_seed: 0,
        schedules: 80,
    }
}

/// Causal register, schedules 1000..1060.
pub fn causal() -> Profile {
    Profile {
        name: "causal",
        base: causal_base(202),
        first_seed: 1000,
        schedules: 60,
    }
}

/// FIFO banking with durable storage on, so generated crashes exercise
/// recovery replay; schedules 2000..2060. [`StorageConfig::durable`]
/// injects no torn writes or bit flips and syncs before every ack, so the
/// WAL is never damaged here (`tests/durability.rs` covers the damage
/// paths).
pub fn fifo_bank() -> Profile {
    let mut c = base(303);
    c.ordering = OrderingGuarantee::Fifo;
    c.object = ObjectKind::Bank;
    c.storage = StorageConfig::durable();
    Profile {
        name: "fifo-bank",
        base: c,
        first_seed: 2000,
        schedules: 60,
    }
}

/// The three profiles, in report order.
pub fn profiles() -> [Profile; 3] {
    [sequential(), causal(), fifo_bank()]
}
