//! Chaos-search harness for the AQF scenario runner.
//!
//! The deterministic simulator makes a classic chaos loop exact rather
//! than statistical: every schedule replays bit-identically, so a failure
//! found once is a failure forever. This crate packages the loop's four
//! pieces:
//!
//! - [`generator`] — seed-driven fault-schedule sampling under a sanity
//!   budget (primary majority alive, every fault heals, quiesced tail),
//!   covering crashes, whole-node isolation, gray degradation/loss, and
//!   pairwise link cuts.
//! - [`oracle`] — consistency and timeliness oracles judging the
//!   per-client operation history a run's trace records: a sequential
//!   oracle (single total order, reads see committed writes), a causal
//!   oracle (vector dominance, no causality inversion), a FIFO oracle
//!   (per-writer monotonicity over the deterministic banking workload),
//!   and a timed oracle (the paper's staleness bound `a` on timely reads,
//!   with an optional Wilson-interval check of the delivered frequency
//!   against `Pc`).
//! - [`mod@shrink`] — delta-debugging minimization of a violating schedule by
//!   deterministic replay (drop events, shorten fault windows, merge
//!   adjacent windows).
//! - [`config_to_json`] / [`config_from_json`] — lossless, deterministic
//!   [`ScenarioConfig`] ⇄ JSON serialization (re-exported from
//!   [`aqf_workload::repro`]) so a minimized repro is a self-contained
//!   artifact.
//!
//! [`mod@search`] ties them together: sweep seeds, judge each run, report; on
//! a failure, [`search::minimize`] produces the minimal repro. [`corpus`]
//! holds the fixed profiles and seed blocks every build must replay clean.
//!
//! [`ScenarioConfig`]: aqf_workload::ScenarioConfig

pub mod corpus;
pub mod generator;
pub mod oracle;
pub mod search;
pub mod shrink;

pub use aqf_workload::{config_from_json, config_to_json};
pub use generator::{generate_faults, ScheduleBudget};
pub use oracle::{check_trace, OracleKind, OracleOptions, Violation};
pub use search::{
    minimize, replay_and_judge, run_seed, scenario_for_seed, search, SearchReport, SeedOutcome,
};
pub use shrink::{shrink, Shrunk};
