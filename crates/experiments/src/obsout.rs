//! Trace/metrics artifact capture for the experiment grids, plus the
//! `trace-smoke` CI gate.
//!
//! Every grid command accepts `--trace-out DIR` and `--metrics-out DIR`;
//! when either is given, a representative scenario of that grid is re-run
//! with a live [`ObsHandle`] and the captured artifacts are written as
//! `<dir>/<command>.trace.jsonl` and `<dir>/<command>.metrics.json`. The
//! capture is a *separate* observed run — the grid itself always executes
//! unobserved, so published figures never depend on the tracing path.

use std::fs;
use std::path::PathBuf;

use aqf_core::{QosSpec, RecoveryPolicy, SelectionPolicy};
use aqf_sim::SimDuration;
use aqf_workload::{
    run_scenario, run_scenario_observed, ClientSpec, ObsHandle, OpPattern, ScenarioConfig,
};

/// Where to write captured artifacts; both directories optional.
pub struct ObsOut {
    trace_dir: Option<PathBuf>,
    metrics_dir: Option<PathBuf>,
}

impl ObsOut {
    pub fn new(trace_dir: Option<PathBuf>, metrics_dir: Option<PathBuf>) -> Self {
        Self {
            trace_dir,
            metrics_dir,
        }
    }

    /// True when at least one artifact directory was requested.
    pub fn enabled(&self) -> bool {
        self.trace_dir.is_some() || self.metrics_dir.is_some()
    }

    /// Runs `config` with a live sink and writes the requested artifacts,
    /// named after the grid command that produced them.
    pub fn capture(&self, name: &str, config: &ScenarioConfig) -> Result<(), String> {
        if !self.enabled() {
            return Ok(());
        }
        let obs = ObsHandle::enabled();
        run_scenario_observed(config, &obs);
        let report = obs.take_report().expect("enabled handle has a report");
        if let Some(dir) = &self.trace_dir {
            fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let path = dir.join(format!("{name}.trace.jsonl"));
            fs::write(&path, report.trace_jsonl())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!(
                "[trace: {} ({} events)]",
                path.display(),
                report.records.len()
            );
        }
        if let Some(dir) = &self.metrics_dir {
            fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let path = dir.join(format!("{name}.metrics.json"));
            fs::write(&path, report.metrics_json())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("[metrics: {}]", path.display());
        }
        Ok(())
    }
}

/// A representative scenario for capturing a grid command's artifacts:
/// the paper's 11-server deployment under protective overload machinery
/// at 4× closed-loop load, hot enough that the trace contains the full
/// event vocabulary (sheds, busy rejections, retries, ladder moves)
/// rather than only the happy path.
pub fn traced_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, seed).with_fast_detection();
    config.overload = true;
    config.recovery = RecoveryPolicy {
        hedge_fraction: None,
        ..RecoveryPolicy::default()
    };
    config.clients = (0..8)
        .map(|i| ClientSpec {
            qos: QosSpec::new(2, SimDuration::from_millis(200), 0.9).expect("valid traced qos"),
            request_delay: SimDuration::from_millis(250),
            total_requests: 60,
            pattern: OpPattern::ReadFraction(0.8),
            policy: SelectionPolicy::Probabilistic,
            start_offset: SimDuration::from_millis(50 * i as u64),
        })
        .collect();
    config
}

/// CI smoke for the observability layer.
///
/// Runs [`traced_config`] twice — once unobserved, once with a live sink
/// — and asserts the tracing path is pure and the artifacts stand alone.
///
/// # Panics
///
/// Panics if the observed run diverges from the unobserved digest, if any
/// trace line fails schema validation, if the metrics export is not valid
/// JSON, or if per-request timelines (including at least one shed/retry
/// recovery and one degradation-ladder move) fail to reconstruct from the
/// trace.
pub fn smoke(seed: u64) {
    let config = traced_config(seed);
    let baseline = run_scenario(&config);

    let obs = ObsHandle::enabled();
    let observed = run_scenario_observed(&config, &obs);
    assert_eq!(
        baseline.digest(),
        observed.digest(),
        "trace smoke: enabled tracing changed the simulation"
    );

    let report = obs.take_report().expect("enabled handle has a report");
    let jsonl = report.trace_jsonl();
    let mut lines = 0u64;
    for line in jsonl.lines() {
        aqf_obs::validate_trace_line(line)
            .unwrap_or_else(|e| panic!("trace smoke: invalid line {line:?}: {e}"));
        lines += 1;
    }
    assert!(lines > 0, "trace smoke: empty trace");
    aqf_obs::parse_json(&report.metrics_json()).expect("trace smoke: metrics export parses");

    let steps = aqf_obs::parse_trace(&jsonl).expect("trace smoke: trace parses");
    let ladder_moved = steps.iter().any(|s| s.kind == "ladder");
    let timelines = aqf_obs::build_timelines(steps);
    assert!(!timelines.is_empty(), "trace smoke: no request timelines");
    let recovered = timelines.values().filter(|t| t.recovered_or_shed()).count();
    assert!(
        recovered > 0,
        "trace smoke: no shed/busy/retry timeline at 4x load"
    );
    assert!(
        ladder_moved,
        "trace smoke: no degradation-ladder transition in trace"
    );

    let busy: u64 = observed.clients.iter().map(|c| c.busy_rejections).sum();
    assert_eq!(
        report.metrics.counter("client.busy_rejections"),
        busy,
        "trace smoke: exported counter diverges from scenario metrics"
    );
    println!(
        "trace smoke: ok ({lines} events, {} timelines, {recovered} with recoveries, \
         digest {:#018x})",
        timelines.len(),
        baseline.digest()
    );
}
