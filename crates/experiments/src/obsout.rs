//! Trace capture for the experiment grids.
//!
//! Every grid command accepts `--trace-out DIR`; when given, a
//! representative scenario of that grid is re-run with a live
//! [`ObsHandle`] and the captured trace is written as
//! `<dir>/<command>.trace.jsonl`. The capture is a *separate* observed
//! run — the grid itself always executes unobserved, so published figures
//! never depend on the tracing path.

use std::fs;
use std::path::PathBuf;

use aqf_workload::{overload_config, run_scenario_observed, ObsHandle, ScenarioConfig};

/// Where to write the captured trace, if anywhere.
pub struct ObsOut {
    trace_dir: Option<PathBuf>,
}

impl ObsOut {
    pub fn new(trace_dir: Option<PathBuf>) -> Self {
        Self { trace_dir }
    }

    /// Runs `config` with a live sink and writes its trace, named after
    /// the grid command that produced it; does nothing without a trace
    /// directory.
    pub fn capture(&self, name: &str, config: &ScenarioConfig) -> Result<(), String> {
        let Some(dir) = &self.trace_dir else {
            return Ok(());
        };
        let obs = ObsHandle::enabled();
        run_scenario_observed(config, &obs);
        let report = obs.take_report().expect("enabled handle has a report");
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{name}.trace.jsonl"));
        fs::write(&path, report.trace_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "[trace: {} ({} events)]",
            path.display(),
            report.records.len()
        );
        Ok(())
    }
}

/// A representative scenario for capturing a grid command's artifacts:
/// [`overload_config`] at 4× closed-loop load, hot enough that the trace
/// contains the full event vocabulary (sheds, busy rejections, retries,
/// ladder moves) rather than only the happy path.
pub fn traced_config(seed: u64) -> ScenarioConfig {
    overload_config(8, 60, seed)
}
