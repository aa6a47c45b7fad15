//! The trace event taxonomy and its JSONL encoding.
//!
//! Events are deliberately compact: integers and `ActorId`s, plus the few
//! owned buffers a request's history needs — a selection's targets, an
//! issued request's argument, a delivered reply's result and version
//! vector — built only when a sink is installed. Every event serializes
//! to one flat JSON object per line with three envelope fields — `t`
//! (virtual microseconds), `actor` (emitting actor index), `type` — plus
//! the event-specific fields the `events!` table below declares, which is
//! also what [`crate::json::validate_trace_line`] checks a line against.

use aqf_sim::ActorId;

use crate::json::{write_object, Kind, ObjWriter};

/// Envelope key: virtual time of the event, in microseconds.
pub(crate) const T: &str = "t";
/// Envelope key: index of the emitting actor.
pub(crate) const ACTOR: &str = "actor";
/// Envelope key: the event's [`Event::kind`] tag.
pub(crate) const TYPE: &str = "type";
/// Lifecycle key: the issuing client's actor index ([`ReqId::client`]).
pub(crate) const CLIENT: &str = "client";
/// Lifecycle key: the client-local sequence number ([`ReqId::seq`]).
pub(crate) const SEQ: &str = "seq";

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

/// How an event field's type reads on a trace line: the JSON type the
/// schema demands and the writer call that produces it.
trait TraceField {
    const KIND: Kind;
    fn put(&self, key: &str, o: &mut ObjWriter<'_>);
}

impl TraceField for u64 {
    const KIND: Kind = Kind::UInt;
    fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
        o.u64(key, *self);
    }
}

impl TraceField for bool {
    const KIND: Kind = Kind::Bool;
    fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
        o.bool(key, *self);
    }
}

impl TraceField for &'static str {
    const KIND: Kind = Kind::Str;
    fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
        o.str(key, self);
    }
}

impl TraceField for ActorId {
    const KIND: Kind = Kind::UInt;
    fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
        o.u64(key, self.index() as u64);
    }
}

impl TraceField for Vec<ActorId> {
    const KIND: Kind = Kind::UIntArr;
    fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
        o.u64s(key, self.iter().map(|a| a.index() as u64));
    }
}

/// Opaque bytes (an argument or a result), written as a lowercase hex string.
impl TraceField for Vec<u8> {
    const KIND: Kind = Kind::Str;
    fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
        o.hex(key, self);
    }
}

/// A version vector, written flat: `[actor, counter, actor, counter, …]`.
impl TraceField for Vec<(ActorId, u64)> {
    const KIND: Kind = Kind::UIntArr;
    fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
        o.u64s(key, self.iter().flat_map(|&(a, n)| [a.index() as u64, n]));
    }
}

/// The kinds that resolve a request, one per request: the reply reached
/// the application, the client gave up, or the client shed it locally.
pub const RESOLVING_KINDS: [&str; 3] = ["delivered", "gave_up", "local_shed"];

/// Declares the event taxonomy once. A row — variant, `type` tag, fields —
/// yields the enum variant, its [`Event::kind`] arm, its trace-line writer
/// and its [`SCHEMA`] row: a field's name is its JSON key and its type
/// fixes the JSON type ([`TraceField`]). `lifecycle` rows also carry the
/// request's [`ReqId`], written as `client`, `seq` ahead of the row's own
/// fields, and answer [`Event::req`].
macro_rules! events {
    (
        lifecycle { $(
            $(#[$lmeta:meta])*
            $L:ident = $ltag:literal { $( $(#[$lfmeta:meta])* $lf:ident: $lty:ty, )* }
        )* }
        control { $(
            $(#[$cmeta:meta])*
            $C:ident = $ctag:literal { $( $(#[$cfmeta:meta])* $cf:ident: $cty:ty, )* }
        )* }
    ) => {
        /// One structured trace event.
        ///
        /// The lifecycle events (`RequestIssued` … `ServiceDone`) all carry a
        /// [`ReqId`] so per-request timelines can be reconstructed from the
        /// trace alone; control-plane events (ladder, quarantine,
        /// views, QoS alerts, storage) describe the adaptive machinery.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Event {
            $( $(#[$lmeta])* $L {
                /// Request identity.
                req: ReqId,
                $( $(#[$lfmeta])* $lf: $lty, )*
            }, )*
            $( $(#[$cmeta])* $C { $( $(#[$cfmeta])* $cf: $cty, )* }, )*
        }

        impl Event {
            /// The snake_case type tag written to the `type` field.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$L { .. } => $ltag, )*
                    $( Event::$C { .. } => $ctag, )*
                }
            }

            /// The request this event belongs to, if it is a lifecycle event.
            pub fn req(&self) -> Option<ReqId> {
                match self {
                    $( Event::$L { req, .. } )|* => Some(*req),
                    _ => None,
                }
            }

            fn write_fields(&self, o: &mut ObjWriter<'_>) {
                match self {
                    $( Event::$L { req, $( $lf, )* } => {
                        o.u64(CLIENT, req.client.index() as u64);
                        o.u64(SEQ, req.seq);
                        $( $lf.put(stringify!($lf), o); )*
                    } )*
                    $( Event::$C { $( $cf, )* } => {
                        $( $cf.put(stringify!($cf), o); )*
                    } )*
                }
            }
        }

        /// Per `type` tag, the fields a trace line must carry beyond the
        /// `t`/`actor`/`type` envelope, in line order.
        pub(crate) const SCHEMA: &[(&str, &[(&str, Kind)])] = &[
            $( ($ltag, &[
                (CLIENT, Kind::UInt),
                (SEQ, Kind::UInt),
                $( (stringify!($lf), <$lty as TraceField>::KIND), )*
            ]), )*
            $( ($ctag, &[ $( (stringify!($cf), <$cty as TraceField>::KIND), )* ]), )*
        ];
    };
}

events! {
    lifecycle {
        /// A client accepted a request from the application.
        RequestIssued = "request_issued" {
            /// `true` for reads, `false` for updates.
            read: bool,
            /// Advertised deadline in µs (0 = no deadline).
            deadline_us: u64,
            /// The invoked method (e.g. `set`, `get`, `deposit`).
            method: &'static str,
            /// The argument payload.
            arg: Vec<u8>,
        }
        /// The selection algorithm chose the replica set for an attempt.
        ReplicasSelected = "replicas_selected" {
            /// 1-based attempt number (1 = first transmission).
            attempt: u64,
            /// The selected replicas, in selection order.
            targets: Vec<ActorId>,
        }
        /// A retry was scheduled after a deadline expiry.
        RetryScheduled = "retry_scheduled" {
            /// 1-based attempt number of the retry being scheduled.
            attempt: u64,
            /// Backoff delay until the retry fires, in µs.
            delay_us: u64,
        }
        /// A hedge (duplicate read) was sent before the deadline expired.
        HedgeSent = "hedge_sent" {
            /// The extra replica the hedge was sent to.
            target: ActorId,
        }
        /// A reply arrived from a replica.
        ReplyReceived = "reply_received" {
            /// The replying replica.
            from: ActorId,
            /// Whether the reply met the client's QoS deadline.
            timely: bool,
            /// Whether the replica answered in deferred (queued) mode.
            deferred: bool,
            /// Staleness of the returned value, in versions.
            staleness: u64,
        }
        /// A replica shed the request and answered `Busy`.
        BusyReceived = "busy_received" {
            /// The shedding replica.
            from: ActorId,
        }
        /// The request completed and the winning reply was delivered.
        Delivered = "delivered" {
            /// End-to-end response time in µs.
            response_us: u64,
            /// Whether the response met the deadline.
            timely: bool,
            /// Whether the serving replica answered in deferred mode.
            deferred: bool,
            /// Staleness of the delivered value, in versions.
            staleness: u64,
            /// Whether the read ran under a ladder-widened QoS spec.
            degraded: bool,
            /// Commit/version number on the reply.
            csn: u64,
            /// Version vector on the reply (causal ordering only).
            vector: Vec<(ActorId, u64)>,
            /// The result payload.
            result: Vec<u8>,
        }
        /// The client exhausted its recovery budget and gave up.
        GaveUp = "gave_up" {
            /// Time spent before giving up, in µs.
            response_us: u64,
            /// Whether the read ran under a ladder-widened QoS spec.
            degraded: bool,
        }
        /// The client rejected the request locally (deep degradation rung).
        LocalShed = "local_shed" {}
        /// A server gateway shed a read before service.
        ShedRead = "shed_read" {
            /// Service-queue depth at the shed decision.
            queue_depth: u64,
        }
        /// A server finished servicing a request.
        ServiceDone = "service_done" {
            /// Service time in µs.
            service_us: u64,
        }
    }
    control {
        /// The graceful-degradation ladder moved.
        Ladder = "ladder" {
            /// Rung before the transition (0 = nominal).
            from_level: u64,
            /// Rung after the transition.
            to_level: u64,
        }
        /// The timing-failure detector crossed the alert threshold (§5.4
        /// callback).
        QosAlert = "qos_alert" {
            /// Observed timing-failure frequency, parts per million.
            observed_ppm: u64,
            /// Requested maximum frequency, parts per million.
            threshold_ppm: u64,
        }
        /// A client excluded a replica from selection: it was struck
        /// (silent or `Busy`) as many times as the quarantine threshold, or
        /// once more on probation.
        Quarantine = "quarantine" {
            /// The quarantined replica.
            replica: ActorId,
            /// Virtual time (µs) the quarantine window ends.
            until_us: u64,
        }
        /// A quarantined replica answered a probe and was cleared.
        QuarantineCleared = "quarantine_cleared" {
            /// The cleared replica.
            replica: ActorId,
        }
        /// A new group view was installed.
        ViewChange = "view_change" {
            /// Monotonic view identifier.
            view_id: u64,
            /// Member count of the new view.
            members: u64,
        }
        /// A replica appended a committed update to its write-ahead log.
        WalAppend = "wal_append" {
            /// The committed global sequence number.
            gsn: u64,
            /// Framed record size in bytes.
            bytes: u64,
        }
        /// A replica staged a durable snapshot (compacting its WAL).
        Snapshot = "snapshot" {
            /// Commit sequence number captured by the snapshot.
            csn: u64,
            /// WAL bytes retained after truncation.
            wal_bytes: u64,
        }
        /// A restarted replica replayed its durable log.
        RecoveryReplay = "recovery_replay" {
            /// Valid WAL records replayed.
            records: u64,
            /// Commit sequence number reached by the replay.
            csn: u64,
        }
        /// A restarted replica could not use its durable log and fell back to
        /// a full state transfer.
        RecoveryFallback = "recovery_fallback" {
            /// Why the log was unusable (`corrupt-log`, `replay-disabled`).
            reason: &'static str,
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
        write_object(out, |o| {
            o.u64(T, self.t_us);
            o.u64(ACTOR, self.actor.index() as u64);
            o.str(TYPE, self.event.kind());
            self.event.write_fields(o);
        });
        out.push('\n');
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json::{parse_json, validate_trace_line, Json};

    /// One record of every event kind, in declaration order.
    pub(crate) fn one_of_each() -> Vec<TraceRecord> {
        let a = ActorId::from_index;
        let req = ReqId::new(a(9), 4);
        let events = vec![
            Event::RequestIssued {
                req,
                read: true,
                deadline_us: 200_000,
                method: "get",
                arg: b"acct-9".to_vec(),
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
                staleness: 3,
            },
            Event::BusyReceived { req, from: a(5) },
            Event::Delivered {
                req,
                response_us: 104_250,
                timely: false,
                deferred: true,
                staleness: 1,
                degraded: true,
                csn: 12,
                vector: vec![(a(1), 5), (a(3), 2)],
                result: vec![0, 0x2a, 0xff],
            },
            Event::GaveUp {
                req,
                response_us: 3_000_000,
                degraded: false,
            },
            Event::LocalShed { req },
            Event::ShedRead {
                req,
                queue_depth: 17,
            },
            Event::ServiceDone {
                req,
                service_us: 98_765,
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
    pub(crate) const ONE_OF_EACH_JSONL: &str = r#"{"t":1000,"actor":7,"type":"request_issued","client":9,"seq":4,"read":true,"deadline_us":200000,"method":"get","arg":"616363742d39"}
{"t":2000,"actor":7,"type":"replicas_selected","client":9,"seq":4,"attempt":1,"targets":[2,5,3]}
{"t":3000,"actor":7,"type":"retry_scheduled","client":9,"seq":4,"attempt":2,"delay_us":20000}
{"t":4000,"actor":7,"type":"hedge_sent","client":9,"seq":4,"target":6}
{"t":5000,"actor":7,"type":"reply_received","client":9,"seq":4,"from":2,"timely":true,"deferred":false,"staleness":3}
{"t":6000,"actor":7,"type":"busy_received","client":9,"seq":4,"from":5}
{"t":7000,"actor":7,"type":"delivered","client":9,"seq":4,"response_us":104250,"timely":false,"deferred":true,"staleness":1,"degraded":true,"csn":12,"vector":[1,5,3,2],"result":"002aff"}
{"t":8000,"actor":7,"type":"gave_up","client":9,"seq":4,"response_us":3000000,"degraded":false}
{"t":9000,"actor":7,"type":"local_shed","client":9,"seq":4}
{"t":10000,"actor":7,"type":"shed_read","client":9,"seq":4,"queue_depth":17}
{"t":11000,"actor":7,"type":"service_done","client":9,"seq":4,"service_us":98765}
{"t":12000,"actor":7,"type":"ladder","from_level":0,"to_level":2}
{"t":13000,"actor":7,"type":"qos_alert","observed_ppm":125000,"threshold_ppm":100000}
{"t":14000,"actor":7,"type":"quarantine","replica":3,"until_us":65000000}
{"t":15000,"actor":7,"type":"quarantine_cleared","replica":3}
{"t":16000,"actor":7,"type":"view_change","view_id":12,"members":4}
{"t":17000,"actor":7,"type":"wal_append","gsn":48,"bytes":57}
{"t":18000,"actor":7,"type":"snapshot","csn":64,"wal_bytes":0}
{"t":19000,"actor":7,"type":"recovery_replay","records":9,"csn":18446744073709551615}
{"t":20000,"actor":7,"type":"recovery_fallback","reason":"corrupt-log"}
"#;

    #[test]
    fn every_kind_renders_its_pinned_line() {
        let records = one_of_each();
        let kinds: std::collections::BTreeSet<_> = records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds.len(), 20, "one sample per event kind");
        for kind in RESOLVING_KINDS {
            let lifecycle = |r: &TraceRecord| r.event.kind() == kind && r.event.req().is_some();
            assert!(records.iter().any(lifecycle), "{kind} is a lifecycle kind");
        }
        let mut jsonl = String::new();
        for r in &records {
            r.write_json_line(&mut jsonl);
        }
        assert_eq!(jsonl, ONE_OF_EACH_JSONL);
    }

    /// Both halves fall out of the table: every kind has a schema row, and
    /// the row demands exactly the fields the writer emits.
    #[test]
    fn every_kind_has_a_schema_row_demanding_each_of_its_fields() {
        let records = one_of_each();
        assert_eq!(records.len(), SCHEMA.len());
        for (record, (tag, rows)) in records.iter().zip(SCHEMA) {
            assert_eq!(record.event.kind(), *tag);
            let mut line = String::new();
            record.write_json_line(&mut line);
            validate_trace_line(&line).expect("the written line is schema-valid");
            let Json::Obj(fields) = parse_json(&line).expect("json") else {
                panic!("trace line is not an object");
            };
            assert_eq!(
                fields.len(),
                3 + rows.len(),
                "{tag}: schema row != written fields"
            );
            for dropped in fields.keys() {
                let mut cut = String::new();
                write_object(&mut cut, |o| {
                    for (key, value) in fields.iter().filter(|(key, _)| *key != dropped) {
                        match value {
                            Json::UInt(v) => o.u64(key, *v),
                            Json::Bool(v) => o.bool(key, *v),
                            Json::Str(v) => o.str(key, v),
                            Json::Arr(v) => o.u64s(key, v.iter().filter_map(Json::as_u64)),
                            other => panic!("{tag}.{key}: unexpected {other:?}"),
                        }
                    }
                });
                assert!(
                    validate_trace_line(&cut).is_err(),
                    "{tag} without {dropped}"
                );
            }
        }
    }
}
