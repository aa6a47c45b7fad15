//! The observability handle installed into gateways, and the report
//! drained out of it after a run.
//!
//! [`ObsHandle`] is the only type the instrumented code sees. Disabled
//! (the default) it is a bare `None` — every record call is one branch
//! and returns; event construction is deferred behind a closure so the
//! disabled path allocates nothing. Enabled, it shares one collector
//! between every gateway of a scenario via `Arc<Mutex<..>>` (gateways
//! must stay `Send`; scenario runs drive actors from a single thread, so
//! the mutex is uncontended).

use crate::event::{Event, TraceRecord};
use aqf_sim::{ActorId, SimTime};
use std::sync::{Arc, Mutex};

/// The collected output of one observed run: the ordered trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Every trace record, in emission order (virtual-time order for a
    /// single-threaded scenario run).
    pub records: Vec<TraceRecord>,
}

impl ObsReport {
    /// Renders the trace as JSONL — one schema-valid object per line.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            r.write_json_line(&mut out);
        }
        out
    }
}

/// A cloneable handle to a shared trace collector; the disabled
/// default records nothing at zero cost.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<Mutex<ObsReport>>>,
}

impl ObsHandle {
    /// The disabled handle: every record call is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Creates an enabled handle with an empty collector.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(ObsReport::default()))),
        }
    }

    /// Whether a collector is installed.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a trace event. `make` runs only when enabled, so building
    /// the event (including any `Vec` it carries) costs nothing on the
    /// disabled path, whose one branch is inlined at every call site
    /// however large the event; the append itself stays out of line.
    #[inline(always)]
    pub fn emit(&self, now: SimTime, actor: ActorId, make: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            append(inner, now, actor, make());
        }
    }

    /// Drains the collector, leaving it empty; `None` when disabled.
    pub fn take_report(&self) -> Option<ObsReport> {
        self.inner
            .as_ref()
            .map(|i| std::mem::take(&mut *i.lock().expect("obs collector poisoned")))
    }
}

/// Appends one record to an enabled collector.
fn append(inner: &Mutex<ObsReport>, now: SimTime, actor: ActorId, event: Event) {
    let t_us = now.as_micros();
    let mut report = inner.lock().expect("obs collector poisoned");
    report.records.push(TraceRecord { t_us, actor, event });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReqId;

    #[test]
    fn disabled_handle_never_runs_the_closure() {
        let h = ObsHandle::disabled();
        let mut ran = false;
        h.emit(SimTime::ZERO, ActorId::from_index(0), || {
            ran = true;
            Event::Ladder {
                from_level: 0,
                to_level: 1,
            }
        });
        assert!(!ran);
        assert!(h.take_report().is_none());
        assert!(!h.is_enabled());
    }

    #[test]
    fn clones_share_one_collector() {
        let h = ObsHandle::enabled();
        let h2 = h.clone();
        let req = ReqId::new(ActorId::from_index(3), 1);
        h.emit(SimTime::from_millis(1), req.client, || Event::LocalShed {
            req,
        });
        h2.emit(SimTime::from_millis(2), req.client, || Event::LocalShed {
            req,
        });
        let report = h.take_report().unwrap();
        let times: Vec<u64> = report.records.iter().map(|r| r.t_us).collect();
        assert_eq!(times, [1000, 2000]);
        // Drained: the next report is empty.
        assert_eq!(h2.take_report().unwrap().records.len(), 0);
    }

    #[test]
    fn jsonl_lines_validate_against_schema() {
        let h = ObsHandle::enabled();
        let a = ActorId::from_index(7);
        h.emit(SimTime::from_millis(2), a, || Event::ReplicasSelected {
            req: ReqId::new(a, 9),
            attempt: 1,
            targets: vec![ActorId::from_index(1), ActorId::from_index(4)],
        });
        h.emit(SimTime::from_millis(3), a, || Event::Quarantine {
            replica: ActorId::from_index(1),
            until_us: 5_003_000,
        });
        let report = h.take_report().unwrap();
        let jsonl = report.trace_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            crate::json::validate_trace_line(line).unwrap();
        }
    }
}
