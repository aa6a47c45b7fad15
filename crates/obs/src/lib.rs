//! Deterministic observability for the AQF middleware.
//!
//! Two facilities behind one handle:
//!
//! 1. **Structured event traces** — compact enum events ([`Event`]) stamped
//!    with virtual time and the emitting actor, serialized as JSONL
//!    ([`ObsReport::trace_jsonl`]) and validated against a fixed schema
//!    ([`validate_trace_line`]).
//! 2. **Per-request timelines** — the issue → selection/retry →
//!    reply → deliver/give-up/shed lifecycle of every request, reconstructed
//!    from the trace alone ([`build_timelines`]).
//!
//! # Determinism contract
//!
//! Observability is *passive*: the gateways consult [`ObsHandle`] only to
//! record, never to decide. A disabled handle (the default) is a single
//! `Option` check — no allocation, no locking, no RNG draws — so a run
//! with observability disabled is bit-identical to a run of a build
//! without the subsystem, and an enabled run is bit-identical to a
//! disabled run in every observable of the simulation itself. Events are
//! stamped with virtual time, so a trace captured twice from the same
//! seed is byte-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod sink;
pub mod timeline;

pub use event::{Event, ReqId, TraceRecord, RESOLVING_KINDS};
pub use json::{parse_json, validate_trace_line, write_object, Fields, Json, ObjWriter};
pub use sink::{ObsHandle, ObsReport};
pub use timeline::{build_timelines, parse_trace, timelines_from_jsonl, Step, Timeline};
