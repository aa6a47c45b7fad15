//! Protocol payloads exchanged between client and server gateway handlers.
//!
//! These payloads travel inside [`aqf_group::GroupMsg`] envelopes: requests
//! and sequencer broadcasts as FIFO multicasts, replies and performance
//! broadcasts as direct messages.

use aqf_group::GroupId;
use aqf_sim::{ActorId, SimDuration};
use bytes::Bytes;
use std::fmt;

/// Conventional group id of the primary replication group.
pub const PRIMARY_GROUP: GroupId = GroupId(1);
/// Conventional group id of the secondary replication group.
pub const SECONDARY_GROUP: GroupId = GroupId(2);

/// Uniquely identifies a client request: the issuing client gateway and a
/// per-client sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// The issuing client gateway's actor id.
    pub client: ActorId,
    /// Per-client monotonically increasing counter.
    pub seq: u64,
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.seq)
    }
}

/// A method of one of the four replicated objects of [`crate::object`]:
/// the closed set of operations a client can invoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `VersionedRegister`: overwrite the value.
    Set,
    /// `VersionedRegister`: read the value.
    Get,
    /// `SharedDocument`: append a line.
    Append,
    /// `SharedDocument`: read the whole document.
    Fetch,
    /// `TickerBoard`: publish a symbol's price.
    Quote,
    /// `TickerBoard`: read a symbol's price.
    Price,
    /// `AccountBook`: credit an account.
    Deposit,
    /// `AccountBook`: debit an account, saturating at zero.
    Withdraw,
    /// `AccountBook`: read an account's balance.
    Balance,
}

impl Method {
    /// Every method, in declaration order.
    const ALL: [Method; 9] = [
        Method::Set,
        Method::Get,
        Method::Append,
        Method::Fetch,
        Method::Quote,
        Method::Price,
        Method::Deposit,
        Method::Withdraw,
        Method::Balance,
    ];

    /// The method's name, as traces and the write-ahead log carry it.
    pub const fn as_str(self) -> &'static str {
        match self {
            Method::Set => "set",
            Method::Get => "get",
            Method::Append => "append",
            Method::Fetch => "fetch",
            Method::Quote => "quote",
            Method::Price => "price",
            Method::Deposit => "deposit",
            Method::Withdraw => "withdraw",
            Method::Balance => "balance",
        }
    }

    /// The method called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.as_str() == name)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An application-level invocation on the replicated object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// The method invoked.
    pub method: Method,
    /// Opaque argument payload.
    pub payload: Bytes,
}

impl Operation {
    /// Creates an operation.
    pub fn new(method: Method, payload: impl Into<Bytes>) -> Self {
        Self {
            method,
            payload: payload.into(),
        }
    }
}

/// An update request multicast by a client gateway to the primary group.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRequest {
    /// Request identity.
    pub id: RequestId,
    /// The state-modifying invocation.
    pub op: Operation,
    /// Transmission attempt, starting at 1; retransmissions of the same
    /// `id` carry higher attempts. Identity is `id` alone — servers
    /// deduplicate retried updates regardless of attempt.
    pub attempt: u32,
}

/// A read-only request sent to the sequencer and the selected replica set.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadRequest {
    /// Request identity.
    pub id: RequestId,
    /// The read-only invocation.
    pub op: Operation,
    /// The staleness threshold `a` from the client's QoS specification; the
    /// serving replica compares its own staleness against this.
    pub staleness_threshold: u32,
    /// The end-to-end deadline `d` from the client's QoS specification, in
    /// microseconds. An overloaded replica whose backlog estimate already
    /// exceeds this budget sheds the read with [`Payload::Busy`] instead of
    /// returning a reply that could only arrive late.
    ///
    /// **Zero is a sentinel meaning "no deadline advertised"**, not a
    /// deadline of 0 µs. Every consumer of this field must treat 0 as
    /// "never shed on deadline grounds": all three server gateways guard
    /// their deadline-shedding predicate with `deadline_us > 0`, so a
    /// zero-deadline read can still be shed by the queue bound but never by
    /// the backlog estimate. Clients without a QoS deadline (e.g. updates,
    /// or reads issued before a QoS spec is installed) encode the absence
    /// as 0 on the wire rather than `u64::MAX` so the field stays small in
    /// the common case.
    pub deadline_us: u64,
    /// Transmission attempt, starting at 1; retries of the same `id` carry
    /// higher attempts.
    pub attempt: u32,
    /// What the client had observed when it issued the read (causal
    /// ordering; empty otherwise): the read must not be served from a state
    /// older than this (read-your-writes + monotonic reads).
    pub deps: VersionVector,
}

/// A dependency/version vector: per-client applied-update counts. Used by
/// the causal handler; empty for the other handlers.
pub type VersionVector = Vec<(ActorId, u64)>;

/// A causal update's place in its client's session.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalStamp {
    /// This client's update-only sequence number (0-based): a replica
    /// applies the update only after the client's previous `update_seq`
    /// updates.
    pub update_seq: u64,
    /// Everything else the client had observed: the update may not be
    /// applied before these.
    pub deps: VersionVector,
}

/// A reply from a replica gateway to a client gateway.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The request being answered.
    pub id: RequestId,
    /// Result payload produced by the replicated object.
    pub result: Bytes,
    /// Piggybacked server-side time `t1 = ts + tq + tb` (µs), used by the
    /// client to derive the two-way gateway delay (paper §5.4).
    pub t1_us: u64,
    /// Staleness (in versions) of the serving replica's state at service
    /// time; lets clients audit the consistency of responses.
    pub staleness: u64,
    /// Whether the read was deferred until a lazy update.
    pub deferred: bool,
    /// The commit sequence number reflected by the response.
    pub csn: u64,
    /// The replica's version vector at service time (causal handler only;
    /// empty otherwise). Clients merge this into their observed state so
    /// their next operations carry the right causal dependencies.
    pub vector: VersionVector,
}

/// Performance measurements published by a server gateway to all clients
/// after servicing a read (paper §5.4). The lazy publisher additionally
/// broadcasts on every lazy propagation (with `read` empty) so clients keep
/// fresh staleness inputs even when the publisher serves no reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfBroadcast {
    /// Measurements of the just-completed read, absent for publisher-only
    /// announcements.
    pub read: Option<ReadMeasurement>,
    /// Lazy-publisher bookkeeping, present only when the broadcasting
    /// replica is the lazy publisher.
    pub publisher: Option<PublisherInfo>,
}

/// Server-side timing of one completed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadMeasurement {
    /// Service time `t_s` (µs).
    pub ts_us: u64,
    /// Queueing delay `t_q` (µs), including GSN wait.
    pub tq_us: u64,
    /// Deferred-read buffering time `t_b` (µs); zero for immediate reads.
    pub tb_us: u64,
}

/// The lazy publisher's extra broadcast fields (paper §5.4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublisherInfo {
    /// `n_u`: update requests received since the previous performance
    /// broadcast.
    pub n_u: u64,
    /// `t_u`: duration covered by `n_u`.
    pub t_u: SimDuration,
    /// `n_L`: update requests received since the last lazy update.
    pub n_l: u64,
    /// `t_L`: time elapsed since the last lazy update was propagated.
    pub t_l: SimDuration,
    /// `T_L`: the lazy update interval (periodicity of propagation).
    pub period: SimDuration,
}

/// All gateway-to-gateway payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Client -> primary group: a state-modifying request, stamped with its
    /// session position under causal ordering (`None` otherwise).
    Update(UpdateRequest, Option<CausalStamp>),
    /// Client -> sequencer + selected replicas: a read-only request.
    Read(ReadRequest),
    /// Sequencer -> primary group: GSN assignment for an update.
    GsnAssign {
        /// The update being sequenced.
        req: RequestId,
        /// The assigned global sequence number.
        gsn: u64,
    },
    /// Sequencer -> primary + secondary groups: current GSN snapshot for a
    /// read (the GSN is *not* advanced).
    GsnSnapshot {
        /// The read this snapshot answers.
        req: RequestId,
        /// The current global sequence number.
        gsn: u64,
    },
    /// Replica -> sequencer: re-request a GSN snapshot for a read that was
    /// pending when the sequencer failed.
    GsnRequest {
        /// The orphaned read.
        req: RequestId,
    },
    /// Replica -> client: reply to a read or update.
    Reply(Reply),
    /// Overloaded replica -> client: explicit early rejection of a read
    /// that was shed by the bounded admission queue or the deadline-aware
    /// shedding predicate. The client counts it as one quarantine strike
    /// against the shedder, as it does a replica silent through an attempt.
    Busy {
        /// The request being rejected.
        req: RequestId,
    },
    /// Lazy publisher -> secondary group: state snapshot at `version`,
    /// with what a secondary without a sequencer needs to judge itself by.
    LazyUpdate {
        /// Updates applied by the publisher when the snapshot was taken
        /// (its applied CSN, under sequential ordering).
        version: u64,
        /// The publisher's per-client applied vector (causal ordering;
        /// empty otherwise).
        vector: VersionVector,
        /// Serialized object state.
        snapshot: Bytes,
        /// Publisher-estimated update arrival rate (arrivals/µs), from
        /// which FIFO and causal secondaries bound their expected
        /// staleness; a sequential secondary knows the exact GSN instead.
        rate_per_us: f64,
    },
    /// Server -> clients: performance broadcast.
    Perf(PerfBroadcast),
    /// Rejoining replica -> any primary: request a full state transfer.
    StateRequest,
    /// Primary -> rejoining replica: full state transfer.
    StateResponse {
        /// Commit sequence number of the snapshot.
        csn: u64,
        /// Highest GSN known.
        gsn: u64,
        /// Serialized object state.
        snapshot: Bytes,
    },
    /// Recovering replica -> a primary: request only the committed updates
    /// above `have_csn`. Sent after a local write-ahead-log replay restored
    /// most of the state; the answering primary serves the missing tail
    /// from its in-memory commit mirror instead of shipping a full
    /// snapshot.
    DeltaRequest {
        /// Highest commit sequence number the requester already holds.
        have_csn: u64,
    },
    /// Primary -> recovering replica: the committed updates in
    /// `(from_csn, from_csn + ops.len()]`, in commit order. An empty `ops`
    /// with `from_csn` equal to the requester's CSN means it was already
    /// current.
    DeltaResponse {
        /// The CSN the delta starts after (the requester's `have_csn`).
        from_csn: u64,
        /// The missing committed `(gsn, update)` assignments, dense and in
        /// commit order.
        ops: Vec<(u64, UpdateRequest)>,
    },
}

impl Payload {
    /// Returns the payload with its attempt counter set to `attempt`,
    /// leaving everything else — ids, operations, and in particular an
    /// update's causal stamp — untouched, so a retransmission is
    /// byte-for-byte the same request. Non-request payloads are returned
    /// unchanged.
    pub fn with_attempt(mut self, attempt: u32) -> Payload {
        match &mut self {
            Payload::Update(u, _) => u.attempt = attempt,
            Payload::Read(r) => r.attempt = attempt,
            _ => {}
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(c: usize, seq: u64) -> RequestId {
        RequestId {
            client: ActorId::from_index(c),
            seq,
        }
    }

    #[test]
    fn request_id_ordering_and_display() {
        assert!(rid(0, 1) < rid(0, 2));
        assert!(rid(0, 9) < rid(1, 0));
        assert_eq!(rid(3, 7).to_string(), "actor#3#7");
    }

    #[test]
    fn operation_constructor() {
        let op = Operation::new(Method::Get, vec![1u8, 2]);
        assert_eq!(op.method, Method::Get);
        assert_eq!(op.payload.as_ref(), &[1, 2]);
    }

    #[test]
    fn method_names_look_up_their_variant() {
        for method in Method::ALL {
            assert_eq!(Method::from_name(method.as_str()), Some(method));
            assert_eq!(method.to_string(), method.as_str());
        }
        assert_eq!(Method::from_name("Get"), None);
        assert_eq!(Method::from_name(""), None);
    }
}
