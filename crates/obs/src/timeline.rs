//! Per-request timeline reconstruction from a JSONL trace.
//!
//! Timelines are rebuilt from the serialized artifact, not from in-memory
//! records: the round-trip through [`crate::validate_trace_line`]'s schema
//! is the proof that the trace alone carries the full request lifecycle
//! (issue → selections/retries → replies → deliver/give-up/shed).

use crate::event::{ACTOR, CLIENT, RESOLVING_KINDS, SEQ, T, TYPE};
use crate::json::{parse_json, Fields, Json};
use std::collections::BTreeMap;

/// One step of a request's lifecycle, in trace order.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Virtual time of the step, in microseconds.
    pub t_us: u64,
    /// The actor that emitted the step.
    pub actor: u64,
    /// The event type tag (e.g. `"reply_received"`).
    pub kind: String,
    /// The event's full field set, as parsed JSON.
    pub fields: BTreeMap<String, Json>,
}

/// The reconstructed lifecycle of one request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// The steps of the request, ordered by `(t_us, trace position)`.
    pub steps: Vec<Step>,
}

impl Timeline {
    /// Whether any step has the given type tag.
    pub fn has(&self, kind: &str) -> bool {
        self.steps.iter().any(|s| s.kind == kind)
    }

    /// Virtual time the request was issued, if the trace saw it.
    pub fn issued_us(&self) -> Option<u64> {
        self.steps
            .iter()
            .find(|s| s.kind == "request_issued")
            .map(|s| s.t_us)
    }

    /// Virtual time the request resolved (delivered, gave up or shed
    /// locally: [`RESOLVING_KINDS`]), if it did.
    pub fn resolved_us(&self) -> Option<u64> {
        self.steps
            .iter()
            .find(|s| RESOLVING_KINDS.contains(&s.kind.as_str()))
            .map(|s| s.t_us)
    }

    /// Whether the request experienced a shed, a busy rejection or a retry
    /// anywhere in its lifecycle.
    pub fn recovered_or_shed(&self) -> bool {
        self.has("retry_scheduled")
            || self.has("busy_received")
            || self.has("shed_read")
            || self.has("local_shed")
    }

    /// A compact one-line rendering: `t:kind@actor` hops joined by `->`.
    pub fn render(&self) -> String {
        self.steps
            .iter()
            .map(|s| format!("{}:{}@{}", s.t_us, s.kind, s.actor))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Builds per-request timelines from parsed trace steps. Steps without a
/// `(client, seq)` pair (control-plane events) are skipped. Keys are
/// `(client index, seq)`.
pub fn build_timelines(steps: Vec<Step>) -> BTreeMap<(u64, u64), Timeline> {
    let mut map: BTreeMap<(u64, u64), Timeline> = BTreeMap::new();
    for step in steps {
        let fields = Fields(&step.fields);
        let (Ok(client), Ok(seq)) = (fields.uint(CLIENT), fields.uint(SEQ)) else {
            continue;
        };
        map.entry((client, seq)).or_default().steps.push(step);
    }
    // Emission order within one trace is already time-ordered, but merged
    // traces may interleave; make the ordering explicit and stable.
    for tl in map.values_mut() {
        tl.steps.sort_by_key(|s| s.t_us);
    }
    map
}

/// Parses a JSONL trace into steps, validating each line's envelope.
pub fn parse_trace(jsonl: &str) -> Result<Vec<Step>, String> {
    fn step(line: &str) -> Result<Step, String> {
        let v = parse_json(line)?;
        let fields = Fields::of(&v)?;
        Ok(Step {
            t_us: fields.uint(T)?,
            actor: fields.uint(ACTOR)?,
            kind: fields.str(TYPE)?.to_string(),
            fields: fields.0.clone(),
        })
    }
    jsonl
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| step(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Convenience: parses a JSONL trace and reconstructs every request
/// timeline from it.
pub fn timelines_from_jsonl(jsonl: &str) -> Result<BTreeMap<(u64, u64), Timeline>, String> {
    Ok(build_timelines(parse_trace(jsonl)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::one_of_each;
    use crate::{ObsReport, TraceRecord};

    /// The sample trace is one request's whole lifecycle — `(client 9, seq
    /// 4)`, a step every millisecond from 1 ms — followed by control-plane
    /// noise that must not join its timeline.
    fn timeline_of(records: Vec<TraceRecord>) -> Timeline {
        let report = ObsReport { records };
        let mut timelines = timelines_from_jsonl(&report.trace_jsonl()).unwrap();
        assert_eq!(timelines.len(), 1);
        timelines.remove(&(9, 4)).expect("the sample request")
    }

    #[test]
    fn reconstructs_lifecycle_from_jsonl() {
        let tl = timeline_of(one_of_each());
        assert_eq!(tl.steps.len(), 10);
        assert_eq!(tl.issued_us(), Some(1000));
        assert_eq!(tl.resolved_us(), Some(6000));
        assert!(tl.recovered_or_shed());
        assert!(tl.has("shed_read"));
        assert!(!tl.has("ladder"));
        let rendered = tl.render();
        assert!(rendered.starts_with("1000:request_issued@7"));
        assert!(rendered.ends_with("10000:service_done@7"));
    }

    /// A read the client rejected locally never reaches a replica, yet it
    /// resolves: its completion is the `local_shed` step.
    #[test]
    fn locally_shed_request_resolves() {
        let mut records = one_of_each();
        records.retain(|r| matches!(r.event.kind(), "request_issued" | "local_shed"));
        assert_eq!(timeline_of(records).resolved_us(), Some(8000));
    }

    #[test]
    fn steps_sorted_by_time_even_if_interleaved() {
        let mut records = one_of_each();
        records.reverse();
        let tl = timeline_of(records);
        assert_eq!(tl.steps[0].kind, "request_issued");
        assert_eq!(tl.steps[9].kind, "service_done");
    }
}
