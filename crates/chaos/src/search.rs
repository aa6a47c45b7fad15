//! The chaos-search driver: generate → run → judge → (on failure) shrink.
//!
//! [`search`] sweeps a contiguous block of schedule seeds. Each seed
//! deterministically derives one fault schedule (via
//! [`crate::generator::generate_faults`]) and one master RNG seed, replays
//! the scenario traced, and judges the history the trace records with every
//! applicable oracle. Everything is a pure function of `(base config,
//! budget, seed)`, so a violating seed can be re-run — or handed to the
//! shrinker — months later and fail identically.

use aqf_obs::{write_object, ObsHandle};
use aqf_workload::{run_scenario_observed, ScenarioConfig};

use crate::generator::{generate_faults, ScheduleBudget};
use crate::oracle::{check_trace, OracleKind, OracleOptions, Violation};
use crate::shrink::{shrink, Shrunk};

/// Outcome of replaying one seeded schedule.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The schedule seed.
    pub seed: u64,
    /// Digest of the run's metrics (replay fingerprint).
    pub digest: u64,
    /// Number of fault events in the generated schedule.
    pub num_faults: usize,
    /// Oracle violations, empty on a clean run.
    pub violations: Vec<Violation>,
}

/// Aggregate result of a seed sweep.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// First seed swept.
    pub start_seed: u64,
    /// Per-seed outcomes, in seed order.
    pub outcomes: Vec<SeedOutcome>,
}

impl SearchReport {
    /// Outcomes that tripped at least one oracle.
    pub fn failures(&self) -> impl Iterator<Item = &SeedOutcome> {
        self.outcomes.iter().filter(|o| !o.violations.is_empty())
    }

    /// Total violations across the sweep.
    pub fn total_violations(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// Renders the report as one JSON object (deterministic field order).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        write_object(&mut s, |o| {
            o.u64("start_seed", self.start_seed);
            o.u64("seeds", self.outcomes.len() as u64);
            o.u64("failing_seeds", self.failures().count() as u64);
            o.u64("total_violations", self.total_violations() as u64);
            o.objs("outcomes", &self.outcomes, |outcome, o| {
                o.u64("seed", outcome.seed);
                o.u64("digest", outcome.digest);
                o.u64("faults", outcome.num_faults as u64);
                o.objs("violations", &outcome.violations, |v, o| {
                    o.str("oracle", v.oracle.name());
                    o.u64("client", v.client);
                    o.u64("seq", v.seq);
                    o.str("detail", &v.detail);
                });
            });
        });
        s
    }

    /// Renders the report as CSV (`seed,digest,faults,violations,oracles`).
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("seed,digest,faults,violations,oracles\n");
        for o in &self.outcomes {
            let mut oracles: Vec<&str> = o.violations.iter().map(|v| v.oracle.name()).collect();
            oracles.sort_unstable();
            oracles.dedup();
            let _ = writeln!(
                s,
                "{},{},{},{},{}",
                o.seed,
                o.digest,
                o.num_faults,
                o.violations.len(),
                oracles.join("+")
            );
        }
        s
    }
}

/// Installs the schedule derived from `seed` into a copy of `base`.
///
/// The master seed is re-derived from the schedule seed too, so distinct
/// seeds explore distinct delay/loss randomness, not just distinct fault
/// timing.
pub fn scenario_for_seed(
    base: &ScenarioConfig,
    budget: &ScheduleBudget,
    seed: u64,
) -> ScenarioConfig {
    let mut config = base.clone();
    config.seed = base.seed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    config.faults = generate_faults(&config, budget, seed);
    config
}

/// Replays `config` traced and returns the oracle verdict on its trace
/// along with the run digest.
pub fn replay_and_judge(config: &ScenarioConfig, opts: &OracleOptions) -> (u64, Vec<Violation>) {
    let obs = ObsHandle::enabled();
    let metrics = run_scenario_observed(config, &obs);
    let trace = obs.take_report().expect("an enabled handle has a report");
    (metrics.digest(), check_trace(config, &trace.records, opts))
}

/// Runs one seed end to end.
pub fn run_seed(
    base: &ScenarioConfig,
    budget: &ScheduleBudget,
    seed: u64,
    opts: &OracleOptions,
) -> SeedOutcome {
    let config = scenario_for_seed(base, budget, seed);
    let num_faults = config.faults.len();
    let (digest, violations) = replay_and_judge(&config, opts);
    SeedOutcome {
        seed,
        digest,
        num_faults,
        violations,
    }
}

/// Sweeps `count` consecutive seeds starting at `start_seed`.
pub fn search(
    base: &ScenarioConfig,
    budget: &ScheduleBudget,
    start_seed: u64,
    count: u64,
    opts: &OracleOptions,
) -> SearchReport {
    let outcomes = (start_seed..start_seed + count)
        .map(|seed| run_seed(base, budget, seed, opts))
        .collect();
    SearchReport {
        start_seed,
        outcomes,
    }
}

/// Shrinks a violating scenario to a minimal repro.
///
/// When `oracle` is given, only violations from that oracle count as "still
/// failing" (so the shrinker cannot wander to an unrelated failure); with
/// `None` any violation keeps a candidate.
pub fn minimize(
    config: &ScenarioConfig,
    oracle: Option<OracleKind>,
    opts: &OracleOptions,
) -> Shrunk {
    let opts = *opts;
    let mut still_fails = move |candidate: &ScenarioConfig| {
        let (_, violations) = replay_and_judge(candidate, &opts);
        match oracle {
            Some(kind) => violations.iter().any(|v| v.oracle == kind),
            None => !violations.is_empty(),
        }
    };
    shrink(config, &mut still_fails)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqf_sim::SimDuration;

    fn quick_base() -> ScenarioConfig {
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 2, 77).with_fast_detection();
        c.run_limit = SimDuration::from_secs(200);
        for spec in &mut c.clients {
            spec.total_requests = 40;
        }
        c
    }

    #[test]
    fn seeded_runs_replay_bit_identically() {
        let base = quick_base();
        let budget = ScheduleBudget::quick();
        let a = run_seed(&base, &budget, 5, &OracleOptions::default());
        let b = run_seed(&base, &budget, 5, &OracleOptions::default());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.violations.len(), b.violations.len());
    }

    #[test]
    fn report_renders_json_and_csv() {
        let base = quick_base();
        let budget = ScheduleBudget::quick();
        let report = search(&base, &budget, 0, 2, &OracleOptions::default());
        assert_eq!(report.outcomes.len(), 2);
        let json = report.to_json();
        assert!(json.starts_with("{\"start_seed\":0"));
        aqf_obs::parse_json(&json).expect("report JSON parses");
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("seed,digest,faults,violations,oracles"));
    }

    /// The byte fence for the search report, string escaping included.
    #[test]
    fn report_json_matches_the_pinned_document() {
        let report = SearchReport {
            start_seed: 40,
            outcomes: vec![
                SeedOutcome {
                    seed: 40,
                    digest: u64::MAX,
                    num_faults: 0,
                    violations: Vec::new(),
                },
                SeedOutcome {
                    seed: 41,
                    digest: 7,
                    num_faults: 3,
                    violations: vec![
                        Violation {
                            oracle: OracleKind::Sequential,
                            client: 12,
                            seq: 48,
                            detail: "two values at \"v48\": a\\b\nthen\ttab".into(),
                        },
                        Violation {
                            oracle: OracleKind::Timed,
                            client: 13,
                            seq: 0,
                            detail: "plain".into(),
                        },
                    ],
                },
            ],
        };
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"start_seed":40,"seeds":2,"failing_seeds":1,"total_violations":2,"outcomes":["#,
                r#"{"seed":40,"digest":18446744073709551615,"faults":0,"violations":[]},"#,
                r#"{"seed":41,"digest":7,"faults":3,"violations":["#,
                r#"{"oracle":"sequential","client":12,"seq":48,"#,
                r#""detail":"two values at \"v48\": a\\b\nthen\u0009tab"},"#,
                r#"{"oracle":"timed","client":13,"seq":0,"detail":"plain"}]}]}"#
            )
        );
    }
}
