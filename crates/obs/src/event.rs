//! The trace event taxonomy and its JSONL encoding.
//!
//! Events are deliberately compact: fixed-size enums of integers and
//! `ActorId`s, no strings or owned buffers except the per-selection target
//! list (allocated only when a sink is installed). Every event serializes
//! to one flat JSON object per line with three envelope fields — `t`
//! (virtual microseconds), `actor` (emitting actor index), `type` — plus
//! the event-specific fields listed in [`crate::json::validate_trace_line`].

use aqf_sim::ActorId;

/// A request identity as carried in the trace: the issuing client's actor
/// index plus the client-local sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId {
    /// The issuing client.
    pub client: ActorId,
    /// Client-local request sequence number.
    pub seq: u64,
}

impl ReqId {
    /// Builds a request id from its parts.
    pub fn new(client: ActorId, seq: u64) -> Self {
        Self { client, seq }
    }
}

/// One structured trace event.
///
/// The lifecycle events (`RequestIssued` … `GaveUp`) all carry a [`ReqId`]
/// so per-request timelines can be reconstructed from the trace alone;
/// control-plane events (breakers, ladder, quarantine, views, QoS alerts)
/// describe the adaptive machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A client accepted a request from the application.
    RequestIssued {
        /// Request identity.
        req: ReqId,
        /// `true` for reads, `false` for updates.
        read: bool,
        /// Advertised deadline in µs (0 = no deadline).
        deadline_us: u64,
    },
    /// The selection algorithm chose the replica set for an attempt.
    ReplicasSelected {
        /// Request identity.
        req: ReqId,
        /// 1-based attempt number (1 = first transmission).
        attempt: u64,
        /// The selected replicas, in selection order.
        targets: Vec<ActorId>,
    },
    /// A retry was scheduled after a deadline expiry.
    RetryScheduled {
        /// Request identity.
        req: ReqId,
        /// 1-based attempt number of the retry being scheduled.
        attempt: u64,
        /// Backoff delay until the retry fires, in µs.
        delay_us: u64,
    },
    /// A hedge (duplicate read) was sent before the deadline expired.
    HedgeSent {
        /// Request identity.
        req: ReqId,
        /// The extra replica the hedge was sent to.
        target: ActorId,
    },
    /// A reply arrived from a replica.
    ReplyReceived {
        /// Request identity.
        req: ReqId,
        /// The replying replica.
        from: ActorId,
        /// Whether the reply met the client's QoS deadline.
        timely: bool,
        /// Whether the replica answered in deferred (queued) mode.
        deferred: bool,
        /// Staleness of the returned value in µs.
        staleness_us: u64,
    },
    /// A replica shed the request and answered `Busy`.
    BusyReceived {
        /// Request identity.
        req: ReqId,
        /// The shedding replica.
        from: ActorId,
    },
    /// The request completed and its result was delivered.
    Delivered {
        /// Request identity.
        req: ReqId,
        /// End-to-end response time in µs.
        response_us: u64,
        /// Whether the response met the deadline.
        timely: bool,
    },
    /// The client exhausted its recovery budget and gave up.
    GaveUp {
        /// Request identity.
        req: ReqId,
        /// Time spent before giving up, in µs.
        response_us: u64,
    },
    /// The client rejected the request locally (deep degradation rung).
    LocalShed {
        /// Request identity.
        req: ReqId,
    },
    /// A server gateway shed a read before service.
    ShedRead {
        /// Request identity.
        req: ReqId,
        /// Service-queue depth at the shed decision.
        queue_depth: u64,
    },
    /// The sequencer shed an update past the commit-backlog watermark.
    ShedUpdate {
        /// Request identity.
        req: ReqId,
        /// Commit backlog at the shed decision.
        backlog: u64,
    },
    /// A server finished servicing a request.
    ServiceDone {
        /// Request identity.
        req: ReqId,
        /// Service time in µs.
        service_us: u64,
    },
    /// A client-side circuit breaker changed state.
    Breaker {
        /// The replica the breaker guards.
        replica: ActorId,
        /// State before the transition (`closed`/`open`/`half_open`).
        from_state: &'static str,
        /// State after the transition.
        to_state: &'static str,
    },
    /// The graceful-degradation ladder moved.
    Ladder {
        /// Rung before the transition (0 = nominal).
        from_level: u64,
        /// Rung after the transition.
        to_level: u64,
    },
    /// The timing-failure detector crossed the alert threshold (§5.4
    /// callback).
    QosAlert {
        /// Observed timing-failure frequency, parts per million.
        observed_ppm: u64,
        /// Requested maximum frequency, parts per million.
        threshold_ppm: u64,
    },
    /// A replica entered quarantine.
    Quarantine {
        /// The quarantined replica.
        replica: ActorId,
        /// Virtual time (µs) the quarantine window ends.
        until_us: u64,
    },
    /// A quarantined replica answered a probe and was cleared.
    QuarantineCleared {
        /// The cleared replica.
        replica: ActorId,
    },
    /// A new group view was installed.
    ViewChange {
        /// Monotonic view identifier.
        view_id: u64,
        /// Member count of the new view.
        members: u64,
    },
    /// A replica appended a committed update to its write-ahead log.
    WalAppend {
        /// The committed global sequence number.
        gsn: u64,
        /// Framed record size in bytes.
        bytes: u64,
    },
    /// A replica staged a durable snapshot (compacting its WAL).
    Snapshot {
        /// Commit sequence number captured by the snapshot.
        csn: u64,
        /// WAL bytes retained after truncation.
        wal_bytes: u64,
    },
    /// A restarted replica replayed its durable log.
    RecoveryReplay {
        /// Valid WAL records replayed.
        records: u64,
        /// Commit sequence number reached by the replay.
        csn: u64,
    },
    /// A restarted replica could not use its durable log and fell back to
    /// a full state transfer.
    RecoveryFallback {
        /// Why the log was unusable (`corrupt-log`, `replay-disabled`).
        reason: &'static str,
    },
}

impl Event {
    /// The snake_case type tag written to the `type` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RequestIssued { .. } => "request_issued",
            Event::ReplicasSelected { .. } => "replicas_selected",
            Event::RetryScheduled { .. } => "retry_scheduled",
            Event::HedgeSent { .. } => "hedge_sent",
            Event::ReplyReceived { .. } => "reply_received",
            Event::BusyReceived { .. } => "busy_received",
            Event::Delivered { .. } => "delivered",
            Event::GaveUp { .. } => "gave_up",
            Event::LocalShed { .. } => "local_shed",
            Event::ShedRead { .. } => "shed_read",
            Event::ShedUpdate { .. } => "shed_update",
            Event::ServiceDone { .. } => "service_done",
            Event::Breaker { .. } => "breaker",
            Event::Ladder { .. } => "ladder",
            Event::QosAlert { .. } => "qos_alert",
            Event::Quarantine { .. } => "quarantine",
            Event::QuarantineCleared { .. } => "quarantine_cleared",
            Event::ViewChange { .. } => "view_change",
            Event::WalAppend { .. } => "wal_append",
            Event::Snapshot { .. } => "snapshot",
            Event::RecoveryReplay { .. } => "recovery_replay",
            Event::RecoveryFallback { .. } => "recovery_fallback",
        }
    }

    /// The request this event belongs to, if it is a lifecycle event.
    pub fn req(&self) -> Option<ReqId> {
        match self {
            Event::RequestIssued { req, .. }
            | Event::ReplicasSelected { req, .. }
            | Event::RetryScheduled { req, .. }
            | Event::HedgeSent { req, .. }
            | Event::ReplyReceived { req, .. }
            | Event::BusyReceived { req, .. }
            | Event::Delivered { req, .. }
            | Event::GaveUp { req, .. }
            | Event::LocalShed { req }
            | Event::ShedRead { req, .. }
            | Event::ShedUpdate { req, .. }
            | Event::ServiceDone { req, .. } => Some(*req),
            _ => None,
        }
    }

    fn write_fields(&self, out: &mut String) {
        use std::fmt::Write;
        let req_fields = |out: &mut String, req: &ReqId| {
            let _ = write!(
                out,
                ",\"client\":{},\"seq\":{}",
                req.client.index(),
                req.seq
            );
        };
        match self {
            Event::RequestIssued {
                req,
                read,
                deadline_us,
            } => {
                req_fields(out, req);
                let _ = write!(out, ",\"read\":{read},\"deadline_us\":{deadline_us}");
            }
            Event::ReplicasSelected {
                req,
                attempt,
                targets,
            } => {
                req_fields(out, req);
                let _ = write!(out, ",\"attempt\":{attempt},\"targets\":[");
                for (i, t) in targets.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}", t.index());
                }
                out.push(']');
            }
            Event::RetryScheduled {
                req,
                attempt,
                delay_us,
            } => {
                req_fields(out, req);
                let _ = write!(out, ",\"attempt\":{attempt},\"delay_us\":{delay_us}");
            }
            Event::HedgeSent { req, target } => {
                req_fields(out, req);
                let _ = write!(out, ",\"target\":{}", target.index());
            }
            Event::ReplyReceived {
                req,
                from,
                timely,
                deferred,
                staleness_us,
            } => {
                req_fields(out, req);
                let _ = write!(
                    out,
                    ",\"from\":{},\"timely\":{timely},\"deferred\":{deferred},\"staleness_us\":{staleness_us}",
                    from.index()
                );
            }
            Event::BusyReceived { req, from } => {
                req_fields(out, req);
                let _ = write!(out, ",\"from\":{}", from.index());
            }
            Event::Delivered {
                req,
                response_us,
                timely,
            } => {
                req_fields(out, req);
                let _ = write!(out, ",\"response_us\":{response_us},\"timely\":{timely}");
            }
            Event::GaveUp { req, response_us } => {
                req_fields(out, req);
                let _ = write!(out, ",\"response_us\":{response_us}");
            }
            Event::LocalShed { req } => req_fields(out, req),
            Event::ShedRead { req, queue_depth } => {
                req_fields(out, req);
                let _ = write!(out, ",\"queue_depth\":{queue_depth}");
            }
            Event::ShedUpdate { req, backlog } => {
                req_fields(out, req);
                let _ = write!(out, ",\"backlog\":{backlog}");
            }
            Event::ServiceDone { req, service_us } => {
                req_fields(out, req);
                let _ = write!(out, ",\"service_us\":{service_us}");
            }
            Event::Breaker {
                replica,
                from_state,
                to_state,
            } => {
                let _ = write!(
                    out,
                    ",\"replica\":{},\"from_state\":\"{from_state}\",\"to_state\":\"{to_state}\"",
                    replica.index()
                );
            }
            Event::Ladder {
                from_level,
                to_level,
            } => {
                let _ = write!(out, ",\"from_level\":{from_level},\"to_level\":{to_level}");
            }
            Event::QosAlert {
                observed_ppm,
                threshold_ppm,
            } => {
                let _ = write!(
                    out,
                    ",\"observed_ppm\":{observed_ppm},\"threshold_ppm\":{threshold_ppm}"
                );
            }
            Event::Quarantine { replica, until_us } => {
                let _ = write!(
                    out,
                    ",\"replica\":{},\"until_us\":{until_us}",
                    replica.index()
                );
            }
            Event::QuarantineCleared { replica } => {
                let _ = write!(out, ",\"replica\":{}", replica.index());
            }
            Event::ViewChange { view_id, members } => {
                let _ = write!(out, ",\"view_id\":{view_id},\"members\":{members}");
            }
            Event::WalAppend { gsn, bytes } => {
                let _ = write!(out, ",\"gsn\":{gsn},\"bytes\":{bytes}");
            }
            Event::Snapshot { csn, wal_bytes } => {
                let _ = write!(out, ",\"csn\":{csn},\"wal_bytes\":{wal_bytes}");
            }
            Event::RecoveryReplay { records, csn } => {
                let _ = write!(out, ",\"records\":{records},\"csn\":{csn}");
            }
            Event::RecoveryFallback { reason } => {
                let _ = write!(out, ",\"reason\":\"{reason}\"");
            }
        }
    }
}

/// One time-stamped trace record: virtual time, emitting actor, event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time of the event, in microseconds.
    pub t_us: u64,
    /// The actor that emitted the event.
    pub actor: ActorId,
    /// The event itself.
    pub event: Event,
}

impl TraceRecord {
    /// Appends the record's JSONL line (including the trailing newline)
    /// to `out`.
    pub fn write_json_line(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"t\":{},\"actor\":{},\"type\":\"{}\"",
            self.t_us,
            self.actor.index(),
            self.event.kind()
        );
        self.event.write_fields(out);
        out.push_str("}\n");
    }

    /// Renders the record as a standalone JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::new();
        self.write_json_line(&mut s);
        s.pop();
        s
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One record of every event kind, in declaration order.
    pub(crate) fn one_of_each() -> Vec<TraceRecord> {
        let a = ActorId::from_index;
        let req = ReqId::new(a(9), 4);
        let events = vec![
            Event::RequestIssued {
                req,
                read: true,
                deadline_us: 200_000,
            },
            Event::ReplicasSelected {
                req,
                attempt: 1,
                targets: vec![a(2), a(5), a(3)],
            },
            Event::RetryScheduled {
                req,
                attempt: 2,
                delay_us: 20_000,
            },
            Event::HedgeSent { req, target: a(6) },
            Event::ReplyReceived {
                req,
                from: a(2),
                timely: true,
                deferred: false,
                staleness_us: 1_500_000,
            },
            Event::BusyReceived { req, from: a(5) },
            Event::Delivered {
                req,
                response_us: 104_250,
                timely: false,
            },
            Event::GaveUp {
                req,
                response_us: 3_000_000,
            },
            Event::LocalShed { req },
            Event::ShedRead {
                req,
                queue_depth: 17,
            },
            Event::ShedUpdate { req, backlog: 64 },
            Event::ServiceDone {
                req,
                service_us: 98_765,
            },
            Event::Breaker {
                replica: a(2),
                from_state: "closed",
                to_state: "half_open",
            },
            Event::Ladder {
                from_level: 0,
                to_level: 2,
            },
            Event::QosAlert {
                observed_ppm: 125_000,
                threshold_ppm: 100_000,
            },
            Event::Quarantine {
                replica: a(3),
                until_us: 65_000_000,
            },
            Event::QuarantineCleared { replica: a(3) },
            Event::ViewChange {
                view_id: 12,
                members: 4,
            },
            Event::WalAppend { gsn: 48, bytes: 57 },
            Event::Snapshot {
                csn: 64,
                wal_bytes: 0,
            },
            Event::RecoveryReplay {
                records: 9,
                csn: u64::MAX,
            },
            Event::RecoveryFallback {
                reason: "corrupt-log",
            },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                t_us: 1000 * (i as u64 + 1),
                actor: a(7),
                event,
            })
            .collect()
    }

    /// The byte fence for the trace format: one literal line per kind.
    const ONE_OF_EACH_JSONL: &str = r#"{"t":1000,"actor":7,"type":"request_issued","client":9,"seq":4,"read":true,"deadline_us":200000}
{"t":2000,"actor":7,"type":"replicas_selected","client":9,"seq":4,"attempt":1,"targets":[2,5,3]}
{"t":3000,"actor":7,"type":"retry_scheduled","client":9,"seq":4,"attempt":2,"delay_us":20000}
{"t":4000,"actor":7,"type":"hedge_sent","client":9,"seq":4,"target":6}
{"t":5000,"actor":7,"type":"reply_received","client":9,"seq":4,"from":2,"timely":true,"deferred":false,"staleness_us":1500000}
{"t":6000,"actor":7,"type":"busy_received","client":9,"seq":4,"from":5}
{"t":7000,"actor":7,"type":"delivered","client":9,"seq":4,"response_us":104250,"timely":false}
{"t":8000,"actor":7,"type":"gave_up","client":9,"seq":4,"response_us":3000000}
{"t":9000,"actor":7,"type":"local_shed","client":9,"seq":4}
{"t":10000,"actor":7,"type":"shed_read","client":9,"seq":4,"queue_depth":17}
{"t":11000,"actor":7,"type":"shed_update","client":9,"seq":4,"backlog":64}
{"t":12000,"actor":7,"type":"service_done","client":9,"seq":4,"service_us":98765}
{"t":13000,"actor":7,"type":"breaker","replica":2,"from_state":"closed","to_state":"half_open"}
{"t":14000,"actor":7,"type":"ladder","from_level":0,"to_level":2}
{"t":15000,"actor":7,"type":"qos_alert","observed_ppm":125000,"threshold_ppm":100000}
{"t":16000,"actor":7,"type":"quarantine","replica":3,"until_us":65000000}
{"t":17000,"actor":7,"type":"quarantine_cleared","replica":3}
{"t":18000,"actor":7,"type":"view_change","view_id":12,"members":4}
{"t":19000,"actor":7,"type":"wal_append","gsn":48,"bytes":57}
{"t":20000,"actor":7,"type":"snapshot","csn":64,"wal_bytes":0}
{"t":21000,"actor":7,"type":"recovery_replay","records":9,"csn":18446744073709551615}
{"t":22000,"actor":7,"type":"recovery_fallback","reason":"corrupt-log"}
"#;

    #[test]
    fn every_kind_renders_its_pinned_line() {
        let records = one_of_each();
        let kinds: std::collections::BTreeSet<_> = records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds.len(), 22, "one sample per event kind");
        let mut jsonl = String::new();
        for r in &records {
            r.write_json_line(&mut jsonl);
        }
        assert_eq!(jsonl, ONE_OF_EACH_JSONL);
    }
}
