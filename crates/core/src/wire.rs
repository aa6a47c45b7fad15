//! Protocol payloads exchanged between client and server gateway handlers.
//!
//! These payloads travel inside [`aqf_group::GroupMsg`] envelopes: requests
//! and sequencer broadcasts as FIFO multicasts, replies and performance
//! broadcasts as direct messages.

use aqf_group::GroupId;
use aqf_sim::{ActorId, FastMap, SimDuration};
use bytes::Bytes;
use std::cell::RefCell;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::Mutex;

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

/// An interned method name: a `u16` handle into the process-wide method
/// table, in place of a heap `String` per [`Operation`].
///
/// Interning makes every wire message two machine words smaller, makes
/// cloning a request free of string traffic, and turns method comparison
/// into an integer compare. The numeric value is an artifact of interning
/// order (first come, first numbered) and must never be persisted,
/// digested, or compared across processes — only the name is meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodId(u16);

/// A method name table: names in id order and the reverse index. Names are
/// leaked once per unique method — the set of method names in any
/// deployment is tiny and fixed — so lookups hand back `&'static str`
/// without reference counting.
struct MethodTable {
    by_name: FastMap<&'static str, u16>,
    names: Vec<&'static str>,
}

impl MethodTable {
    const fn new() -> Self {
        Self {
            by_name: FastMap::with_hasher(BuildHasherDefault::new()),
            names: Vec::new(),
        }
    }

    /// Appends the names `process` holds beyond this table's: every table
    /// is a prefix of the process-wide one, which only ever grows.
    fn catch_up(&mut self, process: &MethodTable) {
        for &name in &process.names[self.names.len()..] {
            self.by_name.insert(name, self.names.len() as u16);
            self.names.push(name);
        }
    }
}

/// The process-wide table, the one source of ids. Only a thread's first
/// sight of a name or id locks it.
static PROCESS_METHODS: Mutex<MethodTable> = Mutex::new(MethodTable::new());

thread_local! {
    /// This thread's copy of a prefix of [`PROCESS_METHODS`]: the warm path
    /// (every operation built, logged or dispatched) reads it with no lock.
    static THREAD_METHODS: RefCell<MethodTable> = const { RefCell::new(MethodTable::new()) };
}

/// Brings this thread's table up to the process-wide one, after running
/// `intern` on the latter under its lock.
fn sync_methods<T>(intern: impl FnOnce(&mut MethodTable) -> T) -> T {
    let mut process = PROCESS_METHODS.lock().expect("method table poisoned");
    let out = intern(&mut process);
    THREAD_METHODS.with_borrow_mut(|local| local.catch_up(&process));
    out
}

impl MethodId {
    /// Interns `name`, returning its stable in-process handle. Repeated
    /// calls with the same name, from any thread, return the same id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` distinct method names are interned
    /// (a deployment declares a handful).
    pub fn intern(name: &str) -> Self {
        if let Some(id) = THREAD_METHODS.with_borrow(|t| t.by_name.get(name).copied()) {
            return Self(id);
        }
        Self(sync_methods(|process| {
            if let Some(&id) = process.by_name.get(name) {
                return id;
            }
            let id = u16::try_from(process.names.len()).expect("method table overflow");
            let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
            process.names.push(leaked);
            process.by_name.insert(leaked, id);
            id
        }))
    }

    /// The interned method name.
    pub fn as_str(self) -> &'static str {
        let index = self.0 as usize;
        THREAD_METHODS
            .with_borrow(|t| t.names.get(index).copied())
            .unwrap_or_else(|| sync_methods(|process| process.names[index]))
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<str> for MethodId {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for MethodId {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl From<&str> for MethodId {
    fn from(name: &str) -> Self {
        Self::intern(name)
    }
}

/// An application-level invocation on the replicated object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Interned method name (classified by the read-only registry).
    pub method: MethodId,
    /// Opaque argument payload.
    pub payload: Bytes,
}

impl Operation {
    /// Creates an operation, interning the method name.
    pub fn new(method: impl AsRef<str>, payload: impl Into<Bytes>) -> Self {
        Self {
            method: MethodId::intern(method.as_ref()),
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
    /// Transmission attempt, starting at 1; retries and hedges of the same
    /// `id` carry higher attempts (hedges reuse the current attempt).
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
    /// Sequencer -> secondary replicas: freshness probe opening a
    /// primary-group replenishment round.
    PromoteQuery,
    /// Secondary replica -> sequencer: freshness report answering a
    /// [`Payload::PromoteQuery`].
    PromoteReport {
        /// The secondary's commit sequence number (snapshot version).
        csn: u64,
        /// Highest global sequence number the secondary has observed.
        gsn: u64,
    },
    /// Sequencer -> the chosen secondary: promotion into the primary
    /// group. The promotee joins the primary group, leaves the secondary
    /// group, and state-transfers from a current primary.
    Promote,
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
        let op = Operation::new("get", vec![1u8, 2]);
        assert_eq!(op.method, "get");
        assert_eq!(op.payload.as_ref(), &[1, 2]);
    }

    #[test]
    fn method_interning_is_stable_and_copyable() {
        let a = MethodId::intern("wire-test-method");
        let b = MethodId::intern("wire-test-method");
        assert_eq!(a, b, "same name interns to the same id");
        assert_eq!(a.as_str(), "wire-test-method");
        assert_eq!(a.to_string(), "wire-test-method");
        let c = MethodId::intern("wire-test-other");
        assert_ne!(a, c, "distinct names intern to distinct ids");
        // A cloned operation shares the handle; no string is copied.
        let op = Operation::new("wire-test-method", vec![9u8]);
        let cloned = op.clone();
        assert_eq!(cloned.method, op.method);
        assert_eq!(cloned.method, "wire-test-method");
    }

    #[test]
    fn method_ids_are_process_wide_across_threads() {
        let name = "wire-test-cross-thread";
        let id = std::thread::spawn(move || MethodId::intern(name))
            .join()
            .unwrap();
        // A thread that never interned the name reads it back by id.
        let read = std::thread::spawn(move || id.as_str()).join().unwrap();
        assert_eq!(read, name);
        // Re-interning on a third thread finds the same id.
        let again = std::thread::spawn(move || MethodId::intern(name))
            .join()
            .unwrap();
        assert_eq!(again, id);
        assert_eq!(id.as_str(), name);
    }
}
