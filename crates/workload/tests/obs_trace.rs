//! Integration tests for the observability layer threaded through the
//! scenario runner: an enabled sink must never steer the simulation
//! (bit-identical metrics digest vs the disabled run), and the captured
//! trace must be schema-valid JSONL from which per-request timelines —
//! including overload recoveries and a degradation-ladder transition —
//! reconstruct without any other source of truth.

use aqf_obs::{timelines_from_jsonl, validate_trace_line, Event};
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

/// The captured trace stands alone: every line validates against the
/// schema, its shed and busy events match the scenario's counters one for
/// one, and per-request timelines
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

    // Each counter is incremented beside its event's emit, so the trace
    // and the scenario's counters agree.
    let count =
        |pred: fn(&Event) -> bool| report.records.iter().filter(|r| pred(&r.event)).count() as u64;
    let busy: u64 = metrics.clients.iter().map(|c| c.busy_rejections).sum();
    assert_eq!(
        count(|e| matches!(e, Event::BusyReceived { .. })),
        busy,
        "busy_received events diverge from busy_rejections"
    );
    let shed: u64 = metrics.servers.iter().map(|s| s.stats.shed_reads).sum();
    assert_eq!(
        count(|e| matches!(e, Event::ShedRead { .. })),
        shed,
        "shed_read events diverge from shed_reads"
    );
    assert!(
        busy > 0 && shed > 0,
        "protective arm at 4x load should shed and reject some reads"
    );
}
