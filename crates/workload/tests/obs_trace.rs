//! Integration tests for the observability layer threaded through the
//! scenario runner: an enabled sink must never steer the simulation
//! (bit-identical metrics digest vs the disabled run), and the captured
//! trace must be schema-valid JSONL from which per-request timelines —
//! including overload recoveries and a degradation-ladder transition —
//! reconstruct without any other source of truth.

use aqf_obs::{parse_json, timelines_from_jsonl, validate_trace_line};
use aqf_workload::{overload_config, run_scenario, run_scenario_observed, ObsHandle};

/// Observation must be pure: running the identical scenario with a live
/// sink yields the identical simulation, checked via the order-sensitive
/// metrics digest (which folds in every counter, summary, and the event
/// count of the run).
#[test]
fn enabled_obs_never_steers() {
    let config = overload_config(8, 60, 7);
    let baseline = run_scenario(&config);

    let obs = ObsHandle::enabled();
    let observed = run_scenario_observed(&config, &obs);

    assert_eq!(
        baseline.digest(),
        observed.digest(),
        "enabled tracing changed the simulation"
    );
    let report = obs.take_report().expect("enabled handle has a report");
    assert!(
        !report.records.is_empty(),
        "overloaded traced run produced no events"
    );
}

/// The captured artifacts stand alone: every trace line validates against
/// the schema, the metrics export parses, and per-request timelines
/// reconstruct from the trace — including at least one request that was
/// shed/rejected/retried and a degradation-ladder move.
#[test]
fn trace_validates_and_reconstructs_timelines() {
    let config = overload_config(8, 60, 7);
    let obs = ObsHandle::enabled();
    let metrics = run_scenario_observed(&config, &obs);
    let report = obs.take_report().expect("enabled handle has a report");

    let jsonl = report.trace_jsonl();
    for line in jsonl.lines() {
        validate_trace_line(line).expect("trace line failed schema validation");
    }
    parse_json(&report.metrics_json()).expect("metrics export is valid JSON");

    let timelines = timelines_from_jsonl(&jsonl).expect("trace parses into timelines");
    assert!(
        !timelines.is_empty(),
        "no per-request timelines reconstructed"
    );
    assert!(
        timelines.values().any(|t| t.recovered_or_shed()),
        "overloaded run should contain at least one shed/busy/retry timeline"
    );
    assert!(
        jsonl.contains("\"type\":\"ladder\""),
        "overloaded run should walk the degradation ladder"
    );

    // Exported end-of-run counters agree with the scenario's own metrics.
    let busy: u64 = metrics.clients.iter().map(|c| c.busy_rejections).sum();
    assert_eq!(
        report.metrics.counter("client.busy_rejections"),
        busy,
        "exported busy counter diverges from scenario metrics"
    );
    assert!(
        busy > 0,
        "protective arm at 4x load should reject some reads"
    );
}
