//! The mutation canary: proves the chaos pipeline actually catches bugs.
//!
//! Compiled only under the `mutation` feature, which rebuilds `aqf-core`
//! with the causal read-path dominance checks deliberately skipped (reads
//! are served as if always causally ready). Over the same fixed-seed
//! corpus that replays clean on an unmutated build, the causal oracle
//! must now report a causality inversion — and the delta-debugging
//! shrinker must reduce the violating schedule to a handful of fault
//! events that still reproduces it.

#![cfg(feature = "mutation")]

use aqf_chaos::{
    config_from_json, config_to_json, corpus, minimize, replay_and_judge, scenario_for_seed,
    search, OracleKind, OracleOptions, ScheduleBudget,
};

#[test]
fn causal_oracle_catches_the_mutation_and_shrinker_minimizes_it() {
    let budget = ScheduleBudget::quick();
    let opts = OracleOptions::default();

    // The causal block the unmutated corpus replays clean.
    let c = corpus::causal();
    let report = search(&c.base, &budget, c.first_seed, c.schedules, &opts);
    let caught = report
        .failures()
        .find(|o| o.violations.iter().any(|v| v.oracle == OracleKind::Causal));
    let outcome = caught.unwrap_or_else(|| {
        panic!(
            "mutated build slipped past the causal oracle over the fixed corpus \
             ({} schedules, {} non-causal violations)",
            report.outcomes.len(),
            report.total_violations(),
        )
    });

    // Shrink the violating schedule to a minimal repro.
    let config = scenario_for_seed(&c.base, &budget, outcome.seed);
    let shrunk = minimize(&config, Some(OracleKind::Causal), &opts);
    assert!(
        shrunk.config.faults.len() <= 5,
        "shrinker left {} fault events (budget allows at most 8): {:?}",
        shrunk.config.faults.len(),
        shrunk.config.faults,
    );

    // The minimized repro survives serialization and replays identically.
    let text = config_to_json(&shrunk.config);
    let parsed = config_from_json(&text).expect("repro round-trips");
    assert_eq!(parsed, shrunk.config);
    let (digest_a, viol_a) = replay_and_judge(&parsed, &opts);
    let (digest_b, viol_b) = replay_and_judge(&parsed, &opts);
    assert_eq!(digest_a, digest_b, "minimized repro is not deterministic");
    assert!(
        viol_a.iter().any(|v| v.oracle == OracleKind::Causal),
        "minimized repro no longer trips the causal oracle: {viol_a:?}"
    );
    assert_eq!(viol_a.len(), viol_b.len());
}
