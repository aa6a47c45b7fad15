//! Workload generation and scenario running for the AQF middleware.
//!
//! This crate wires the sans-IO gateways of [`aqf_core`] and the group
//! communication layer of [`aqf_group`] into the [`aqf_sim`] discrete-event
//! simulator, reproducing the paper's experimental setup: a sequencer, a
//! primary group, a secondary group, and clients that issue alternating
//! write/read requests with configurable QoS specifications, request
//! delays, and selection policies.
//!
//! # Example
//!
//! ```
//! use aqf_workload::{run_scenario, ScenarioConfig};
//!
//! // A miniature version of the paper's validation run.
//! let mut config = ScenarioConfig::paper_validation(200, 0.5, 2, 42);
//! for c in &mut config.clients {
//!     c.total_requests = 20;
//! }
//! let metrics = run_scenario(&config);
//! assert_eq!(metrics.clients.len(), 2);
//! assert!(metrics.client(1).reads > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actors;
pub mod bench_scenarios;
pub mod config;
pub mod repro;
pub mod runner;
pub mod synthetic;

pub use actors::{ClientActor, ClientRecord, NetMsg, ReplicaActor};
pub use aqf_core::ObsHandle;
pub use bench_scenarios::{overload_config, world_bench_config, WORLD_BENCH_SIZES};
pub use config::{
    damage_windows, ClientSpec, FaultEvent, FaultKind, FaultTarget, ObjectKind, OpPattern,
    ScenarioConfig,
};
pub use repro::{config_from_json, config_to_json};
pub use runner::{
    build_scenario, run_scenario, run_scenario_observed, BuiltScenario, ClientOutcome,
    ScenarioMetrics, ServerOutcome,
};
pub use synthetic::{
    build_candidates, build_candidates_uncached, candidate_keys, synthetic_repository,
};
