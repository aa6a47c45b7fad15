//! The causal timed-consistency handler — the third ordering guarantee of
//! the paper's QoS model (§2 lists sequential, causal, and FIFO as the
//! well-known orderings a service can offer; §4's framework hosts them as
//! interchangeable gateway handlers).
//!
//! Causality here is the classic *reads-from + program order* relation:
//!
//! * every client numbers its updates (`update_seq`), and a replica applies
//!   a client's updates in that order (program order, enforced on top of
//!   the group layer's FIFO delivery);
//! * every read reply carries the serving replica's *version vector*
//!   (per-client applied-update counts); the client merges it into its
//!   observed vector;
//! * every update carries the client's observed vector as its dependency
//!   set: no replica applies the update before having applied everything
//!   the issuing client had seen (so a reply to a message can never be
//!   applied before the message itself);
//! * every read carries the observed vector too and is served only from a
//!   state that dominates it — giving read-your-writes and monotonic
//!   reads. A replica that is behind defers the read exactly like the
//!   sequential handler's staleness-based deferred reads; the next lazy
//!   update (or local commit) releases it.
//!
//! Like the FIFO handler there is no sequencer; concurrent (causally
//! unrelated) updates may interleave differently across replicas, so the
//! workload's concurrent operations must commute for byte-identical
//! convergence.
//!
//! This module is the [`Causal`] ordering discipline of the replica shell
//! ([`crate::shell`]): the version vector, the waiting room, and a state
//! blob that carries the vector. Everything else a replica does lives in
//! the shell.

use crate::object::ReplicatedObject;
use crate::qos::OrderingGuarantee;
use crate::shell::{Discipline, PendingRead, Position, Replica, ReplicaRole, ServerAction, Shell};
use crate::wire::{CausalStamp, Payload, UpdateRequest, VersionVector};
use aqf_sim::{ActorId, SimTime};
use std::collections::BTreeMap;

/// Pointwise comparison: does `vector` dominate (cover) every entry of
/// `deps`?
pub fn dominates(vector: &BTreeMap<ActorId, u64>, deps: &VersionVector) -> bool {
    deps.iter()
        .all(|(client, need)| vector.get(client).copied().unwrap_or(0) >= *need)
}

/// Read-path dominance check with the mutation-canary hook.
///
/// Under the test-only `mutation` feature the check is deliberately
/// skipped — every read is treated as causally ready, re-introducing the
/// causality-inversion bug the chaos oracles exist to catch. The feature
/// must never be enabled in a real build; update admission still uses
/// [`dominates`] directly, so only the read path is mutated.
fn read_deps_satisfied(vector: &BTreeMap<ActorId, u64>, deps: &VersionVector) -> bool {
    if cfg!(feature = "mutation") {
        return true;
    }
    dominates(vector, deps)
}

/// Pointwise maximum merge of `incoming` into `vector`.
pub fn merge_into(vector: &mut BTreeMap<ActorId, u64>, incoming: &VersionVector) {
    for (client, count) in incoming {
        let entry = vector.entry(*client).or_insert(0);
        *entry = (*entry).max(*count);
    }
}

/// The client half of the protocol: what one client's session has observed
/// (merged reply vectors + its own updates) and its update-only counter.
#[derive(Debug, Default)]
pub(crate) struct Session {
    observed: BTreeMap<ActorId, u64>,
    updates_issued: u64,
    advanced_at: Option<SimTime>,
}

impl Session {
    /// Numbers the client's next update and attaches everything observed so
    /// far as its dependency set; the client has then (causally) observed
    /// its own write.
    pub(crate) fn stamp_update(&mut self, me: ActorId, now: SimTime) -> CausalStamp {
        let update_seq = self.updates_issued;
        self.updates_issued += 1;
        let deps = self.stamp_read();
        let own = self.observed.entry(me).or_insert(0);
        *own = (*own).max(update_seq + 1);
        self.advanced_at = Some(now);
        CausalStamp { update_seq, deps }
    }

    /// The observed vector a read carries.
    pub(crate) fn stamp_read(&self) -> VersionVector {
        self.observed.iter().map(|(c, n)| (*c, *n)).collect()
    }

    /// Merges the vector a reply carried, so subsequent operations carry
    /// the right dependencies.
    pub(crate) fn observe(&mut self, vector: &VersionVector, now: SimTime) {
        if vector.is_empty() {
            return;
        }
        let before: u64 = self.observed.values().sum();
        merge_into(&mut self.observed, vector);
        if self.observed.values().sum::<u64>() > before {
            self.advanced_at = Some(now);
        }
    }

    /// Whether the observed vector grew after `t`. When `t` is the last
    /// lazy propagation, no secondary can dominate the vector, and every one
    /// of them will defer this client's reads whatever the staleness model
    /// says.
    pub(crate) fn advanced_after(&self, t: SimTime) -> bool {
        self.advanced_at.is_some_and(|at| at > t)
    }
}

/// The causal ordering discipline. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Causal {
    /// Per-client committed (enqueued-for-apply) update counts: the
    /// replica's version vector.
    vector: BTreeMap<ActorId, u64>,
    /// Total updates committed (sum of the vector).
    version: u64,
    /// Updates whose program-order predecessor or dependencies are not yet
    /// committed.
    waiting: Vec<(UpdateRequest, CausalStamp)>,
}

/// The causal-ordering server gateway: the replica shell under [`Causal`].
pub type CausalServerGateway = Replica<Causal>;

impl Replica<Causal> {
    /// Total updates committed by this replica.
    pub fn version(&self) -> u64 {
        self.discipline.version
    }

    /// Snapshot of the replica's version vector as a wire-format list.
    pub fn vector_snapshot(&self) -> VersionVector {
        self.discipline.stamp()
    }
}

impl Causal {
    fn on_update(
        &mut self,
        shell: &mut Shell,
        update: UpdateRequest,
        stamp: CausalStamp,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if shell.role != ReplicaRole::Primary {
            return;
        }
        // Duplicate detection: an already-applied update from this client
        // has `update_seq` below the replica's applied count (admission
        // bumps the vector immediately), and a copy may also still sit in
        // the causal waiting room. Either way, never admit it twice.
        let applied_of_client = self.vector.get(&update.id.client).copied().unwrap_or(0);
        if stamp.update_seq < applied_of_client
            || self.waiting.iter().any(|(w, _)| w.id == update.id)
        {
            return shell.answer_duplicate(update.id, out);
        }
        shell.note_update();
        if self.try_admit_update(shell, &update, &stamp, now, out) {
            self.drain_waiting(shell, now, out);
        } else {
            self.waiting.push((update, stamp));
        }
    }

    /// Commits `update` if its program-order predecessor count and causal
    /// dependencies are satisfied.
    fn try_admit_update(
        &mut self,
        shell: &mut Shell,
        update: &UpdateRequest,
        stamp: &CausalStamp,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) -> bool {
        let client = update.id.client;
        let applied_of_client = self.vector.get(&client).copied().unwrap_or(0);
        if applied_of_client != stamp.update_seq || !dominates(&self.vector, &stamp.deps) {
            return false;
        }
        *self.vector.entry(client).or_insert(0) += 1;
        self.version += 1;
        shell.stats.updates_committed += 1;
        // Admission is the causal commit point (it bumps the vector).
        shell.log_commit(self.version, update, now);
        shell.enqueue_update(update.clone(), 0, now, out);
        true
    }

    /// Re-examines held-back updates and causally blocked reads until a
    /// fixpoint.
    fn drain_waiting(&mut self, shell: &mut Shell, now: SimTime, out: &mut Vec<ServerAction>) {
        loop {
            let mut progressed = false;
            let mut still_waiting = Vec::with_capacity(self.waiting.len());
            for w in std::mem::take(&mut self.waiting) {
                if self.try_admit_update(shell, &w.0, &w.1, now, out) {
                    progressed = true;
                } else {
                    still_waiting.push(w);
                }
            }
            self.waiting = still_waiting;
            if !progressed {
                break;
            }
        }
        shell.release_deferred(self, false, now, out);
    }

    /// Splits a `vector || object snapshot` transfer blob.
    fn decode_vector_blob(blob: &bytes::Bytes) -> (BTreeMap<ActorId, u64>, bytes::Bytes) {
        use bytes::Buf;
        let mut buf = blob.clone();
        assert!(buf.remaining() >= 8, "causal state transfer too short");
        let n = buf.get_u64() as usize;
        let mut vector = BTreeMap::new();
        for _ in 0..n {
            let client = ActorId::from_index(buf.get_u32() as usize);
            let count = buf.get_u64();
            vector.insert(client, count);
        }
        let object = buf.copy_to_bytes(buf.remaining());
        (vector, object)
    }
}

impl Discipline for Causal {
    const ORDERING: OrderingGuarantee = OrderingGuarantee::Causal;

    fn position(&self) -> Position {
        Position {
            csn: self.version,
            applied_csn: self.version,
            gsn: self.version,
        }
    }

    fn on_payload(
        &mut self,
        shell: &mut Shell,
        from: ActorId,
        payload: Payload,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        match payload {
            // An update without a stamp has no place in the causal order.
            Payload::Update(update, Some(stamp)) => self.on_update(shell, update, stamp, now, out),
            Payload::Read(req) => {
                shell.admit_read(self, PendingRead::new(req, from, now), now, out)
            }
            _ => {}
        }
    }

    fn applied(
        &mut self,
        _shell: &mut Shell,
        _update: &UpdateRequest,
        _order: u64,
        _now: SimTime,
    ) -> bool {
        true
    }

    /// A read is served only from a state that dominates what its client
    /// had observed; until then it is deferred like a stale one.
    fn read_ready(&self, deps: &VersionVector) -> bool {
        read_deps_satisfied(&self.vector, deps)
    }

    fn stamp(&self) -> VersionVector {
        self.vector.iter().map(|(c, n)| (*c, *n)).collect()
    }

    /// `vector || object snapshot`, so a joiner (or a replayed replica)
    /// recovers its causal knowledge with the state.
    fn encode_state(&self, object: &dyn ReplicatedObject) -> bytes::Bytes {
        use bytes::BufMut;
        let object = object.snapshot();
        let mut out = bytes::BytesMut::new();
        out.put_u64(self.vector.len() as u64);
        for (client, count) in &self.vector {
            out.put_u32(client.index() as u32);
            out.put_u64(*count);
        }
        out.put_slice(&object);
        out.freeze()
    }

    fn install_state(&mut self, object: &mut dyn ReplicatedObject, blob: &bytes::Bytes) {
        let (vector, state) = Self::decode_vector_blob(blob);
        object.install_snapshot(&state);
        self.vector = vector;
    }

    /// The vector counts admissions, so a snapshot staged while admitted
    /// updates still wait in the service queue would pair its version with
    /// an older object state.
    fn snapshot_ready(&self, shell: &Shell) -> bool {
        !shell.has_queued_updates()
    }

    /// On a replica that replayed its durable log, only a state that
    /// dominates every commit it holds: otherwise acked local updates would
    /// vanish from the installed snapshot. A non-dominating donor is simply
    /// ignored — lazy updates or a later transfer reconcile once the peer
    /// catches up.
    fn accepts_transfer(&self, shell: &Shell, csn: u64, blob: &bytes::Bytes) -> bool {
        csn >= self.version
            && !(shell.synced && shell.durability.is_none())
            && (!shell.synced || dominates(&Self::decode_vector_blob(blob).0, &self.stamp()))
    }

    /// The vector comes with the state blob, or with the lazy update.
    fn adopt(&mut self, csn: u64, _gsn: u64, vector: Option<VersionVector>) {
        self.version = csn;
        if let Some(vector) = vector {
            self.vector = vector.into_iter().collect();
        }
    }

    fn caught_up(
        &mut self,
        shell: &mut Shell,
        _before: Position,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        self.drain_waiting(shell, now, out);
    }

    /// Each logged commit admitted exactly one update of its client, so
    /// the vector is rebuilt by counting the replayed tail.
    fn replay_commit(&mut self, version: u64, update: &UpdateRequest) {
        *self.vector.entry(update.id.client).or_insert(0) += 1;
        self.version = version;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::SharedDocument;
    use crate::protocol::ServerProtocol;
    use crate::shell::conformance::{
        self, a, drain, durable_config, pview, replies, sink, sview, t,
    };
    use crate::shell::ServerConfig;
    use crate::wire::{Method, Operation, ReadRequest, RequestId};

    fn doc(i: usize, config: ServerConfig) -> CausalServerGateway {
        CausalServerGateway::new(
            a(i),
            pview(),
            sview(),
            Box::new(SharedDocument::new()),
            config,
        )
    }

    fn gw(i: usize) -> CausalServerGateway {
        doc(i, conformance::config())
    }

    fn update(client: usize, update_seq: u64, text: &str, deps: VersionVector) -> Payload {
        let update = UpdateRequest {
            id: RequestId {
                client: a(client),
                seq: update_seq * 2,
            },
            op: Operation::new(Method::Append, text.as_bytes().to_vec()),
            attempt: 1,
        };
        Payload::Update(update, Some(CausalStamp { update_seq, deps }))
    }

    fn read(client: usize, seq: u64, deps: VersionVector) -> Payload {
        Payload::Read(ReadRequest {
            id: RequestId {
                client: a(client),
                seq,
            },
            op: Operation::new(Method::Fetch, vec![]),
            staleness_threshold: 1000,
            deadline_us: 0,
            attempt: 1,
            deps,
        })
    }

    fn text(p: &CausalServerGateway) -> Vec<u8> {
        let fetch = Operation::new(Method::Fetch, vec![]);
        p.object().read(&fetch, &mut bytes::BytesMut::new())[8..].to_vec()
    }

    /// The transfer `donor` serves to a state request.
    fn transfer(donor: &mut CausalServerGateway, now: SimTime) -> Payload {
        let reply = sink(|out| donor.on_payload(a(1), Payload::StateRequest, now, out));
        let Some(ServerAction::SendDirect { payload, .. }) = reply.first() else {
            panic!("donor must answer, got {reply:?}");
        };
        payload.clone()
    }

    #[test]
    fn dominates_and_merge() {
        let mut v = BTreeMap::new();
        v.insert(a(1), 3u64);
        assert!(dominates(&v, &vec![(a(1), 3)]));
        assert!(dominates(&v, &vec![(a(1), 2)]));
        assert!(!dominates(&v, &vec![(a(1), 4)]));
        assert!(!dominates(&v, &vec![(a(2), 1)]));
        assert!(dominates(&v, &vec![]));
        merge_into(&mut v, &vec![(a(1), 2), (a(2), 5)]);
        assert_eq!(v[&a(1)], 3);
        assert_eq!(v[&a(2)], 5);
    }

    #[test]
    fn program_order_enforced_per_client() {
        let mut p = gw(1);
        // Second update of client 20 arrives first: must wait.
        let actions = sink(|out| p.on_payload(a(20), update(20, 1, "second", vec![]), t(0), out));
        assert!(actions.is_empty());
        assert_eq!(p.version(), 0);
        assert_eq!(p.discipline.waiting.len(), 1);
        // First update unblocks both.
        let mut actions =
            sink(|out| p.on_payload(a(20), update(20, 0, "first", vec![]), t(1), out));
        assert_eq!(p.version(), 2);
        let _ = drain(&mut p, &mut actions, t(1));
        assert_eq!(text(&p), b"first\nsecond".to_vec());
    }

    #[test]
    fn cross_client_dependency_orders_reply_after_message() {
        let mut p = gw(1);
        // Client 21's "reply" depends on having seen client 20's "message"
        // (it read a state where vector[20] = 1). Deliver the reply first.
        let reply = update(21, 0, "reply", vec![(a(20), 1)]);
        let actions = sink(|out| p.on_payload(a(21), reply, t(0), out));
        assert!(actions.is_empty(), "reply must wait for the message");
        assert_eq!(p.discipline.waiting.len(), 1);
        let mut actions =
            sink(|out| p.on_payload(a(20), update(20, 0, "message", vec![]), t(1), out));
        assert_eq!(p.version(), 2, "message admitted, reply released");
        let _ = drain(&mut p, &mut actions, t(1));
        assert_eq!(text(&p), b"message\nreply".to_vec());
    }

    #[test]
    fn read_waits_for_dominating_state() {
        let mut p = gw(1);
        // Client has observed one update of client 20; this replica has
        // not applied it yet.
        let actions = sink(|out| p.on_payload(a(21), read(21, 0, vec![(a(20), 1)]), t(0), out));
        assert!(actions.is_empty());
        assert_eq!(p.stats().reads_deferred, 1);
        // The missing update arrives: the read is released and served.
        let mut actions = sink(|out| p.on_payload(a(20), update(20, 0, "x", vec![]), t(10), out));
        let _ = drain(&mut p, &mut actions, t(10));
        assert_eq!(p.stats().reads_served, 1);
        let (_, reply) = replies(&actions)
            .find(|(to, _)| *to == a(21))
            .expect("read served");
        assert!(reply.deferred);
        assert_eq!(reply.vector, vec![(a(20), 1)]);
    }

    #[test]
    fn read_with_satisfied_deps_served_immediately() {
        let mut p = gw(1);
        let mut actions = sink(|out| p.on_payload(a(20), update(20, 0, "x", vec![]), t(0), out));
        let _ = drain(&mut p, &mut actions, t(0));
        let mut actions = sink(|out| p.on_payload(a(21), read(21, 0, vec![(a(20), 1)]), t(1), out));
        let _ = drain(&mut p, &mut actions, t(1));
        assert_eq!(p.stats().reads_served, 1);
        assert_eq!(p.stats().reads_deferred, 0);
    }

    /// What a causal publisher multicasts at its lazy tick after one update.
    fn lazy_after_one_update(publisher: &mut CausalServerGateway) -> Payload {
        publisher.on_start(t(0), &mut Vec::new());
        let mut actions =
            sink(|out| publisher.on_payload(a(20), update(20, 0, "m", vec![]), t(10), out));
        let _ = drain(publisher, &mut actions, t(10));
        sink(|out| publisher.on_lazy_timer(t(2000), out))
            .into_iter()
            .find_map(|x| match x {
                ServerAction::MulticastSecondary(p @ Payload::LazyUpdate { .. }) => Some(p),
                _ => None,
            })
            .expect("causal lazy update")
    }

    #[test]
    fn lazy_update_carries_vector_and_releases_reads() {
        let mut publisher = gw(2);
        assert!(publisher.is_publisher());
        let lazy = lazy_after_one_update(&mut publisher);
        let Payload::LazyUpdate {
            version,
            vector,
            rate_per_us,
            ..
        } = &lazy
        else {
            unreachable!()
        };
        assert_eq!(*version, 1);
        assert_eq!(*vector, vec![(a(20), 1)]);
        assert!(*rate_per_us > 0.0);

        // A secondary with a blocked read applies it and serves.
        let mut s = gw(10);
        s.on_start(t(0), &mut Vec::new());
        let held = sink(|out| s.on_payload(a(21), read(21, 0, vec![(a(20), 1)]), t(100), out));
        assert!(held.is_empty());
        let mut actions = sink(|out| s.on_payload(a(2), lazy, t(2001), out));
        let _ = drain(&mut s, &mut actions, t(2001));
        assert_eq!(s.stats().reads_served, 1);
        assert_eq!(s.version(), 1);
    }

    #[test]
    fn concurrent_updates_may_interleave_but_both_apply() {
        // Two causally unrelated updates arrive in different orders at two
        // replicas: both replicas apply both (versions agree), though the
        // document order may differ — causal consistency permits it.
        let mut p1 = gw(1);
        let mut a1 = Vec::new();
        p1.on_payload(a(20), update(20, 0, "a", vec![]), t(0), &mut a1);
        p1.on_payload(a(21), update(21, 0, "b", vec![]), t(1), &mut a1);
        let _ = drain(&mut p1, &mut a1, t(1));

        let mut p2 = gw(2);
        let mut a2 = Vec::new();
        p2.on_payload(a(21), update(21, 0, "b", vec![]), t(0), &mut a2);
        p2.on_payload(a(20), update(20, 0, "a", vec![]), t(1), &mut a2);
        let _ = drain(&mut p2, &mut a2, t(1));

        assert_eq!(p1.version(), 2);
        assert_eq!(p2.version(), 2);
        assert_eq!(p1.vector_snapshot(), p2.vector_snapshot());
    }

    #[test]
    fn state_transfer_round_trip_preserves_vector() {
        let mut donor = gw(1);
        let mut actions =
            sink(|out| donor.on_payload(a(20), update(20, 0, "x", vec![]), t(0), out));
        let _ = drain(&mut donor, &mut actions, t(0));
        let transfer = transfer(&mut donor, t(50));
        let mut joiner = gw(2);
        joiner.on_restart(Box::new(SharedDocument::new()), t(100), &mut Vec::new());
        assert!(!joiner.is_synced());
        joiner.on_payload(a(1), transfer, t(200), &mut Vec::new());
        assert!(joiner.is_synced());
        assert_eq!(joiner.version(), 1);
        assert_eq!(joiner.vector_snapshot(), vec![(a(20), 1)]);
    }

    #[test]
    fn sequential_payloads_ignored() {
        let mut p = gw(1);
        let req = RequestId {
            client: a(20),
            seq: 0,
        };
        let update = UpdateRequest {
            id: req,
            op: Operation::new(Method::Append, b"x".to_vec()),
            attempt: 1,
        };
        let update = Payload::Update(update, None);
        for (from, payload) in [(a(0), Payload::GsnAssign { req, gsn: 1 }), (a(20), update)] {
            assert!(sink(|out| p.on_payload(from, payload, t(0), out)).is_empty());
        }
        assert_eq!(p.version(), 0);
    }

    #[test]
    fn ordering_is_causal() {
        assert_eq!(gw(1).ordering(), OrderingGuarantee::Causal);
        assert!(!gw(1).is_sequencer());
    }

    #[test]
    fn ewma_seeds_with_first_sample() {
        conformance::ewma_seeds_with_first_sample::<Causal>();
    }

    #[test]
    fn zero_deadline_never_sheds_on_deadline_grounds() {
        conformance::zero_deadline_never_sheds_on_deadline_grounds::<Causal>();
    }

    #[test]
    fn without_storage_restart_keeps_seed_semantics() {
        conformance::disabled_storage_has_no_sidecar::<Causal>();
    }

    #[test]
    fn duplicate_update_answered_from_reply_cache() {
        conformance::duplicate_update_answered_from_reply_cache::<Causal>();
    }

    #[test]
    fn stale_secondary_defers_until_lazy_update() {
        conformance::stale_secondary_defers_until_lazy_update::<Causal>();
    }

    #[test]
    fn fresh_secondary_serves_immediately() {
        conformance::fresh_secondary_serves_immediately::<Causal>();
    }

    #[test]
    fn restart_requests_state_transfer() {
        conformance::restart_requests_state_transfer::<Causal>();
    }

    #[test]
    fn restarted_leader_asks_a_peer() {
        conformance::restarted_leader_asks_a_peer::<Causal>();
    }

    #[test]
    fn unsynced_replica_re_requests_from_the_next_donor() {
        conformance::unsynced_replica_re_requests_from_the_next_donor::<Causal>();
    }

    #[test]
    fn stale_lazy_update_still_syncs() {
        conformance::stale_lazy_update_still_syncs::<Causal>();
    }

    #[test]
    fn durable_replay_restores_vector_and_document() {
        let mut p = doc(1, durable_config());
        let mut actions = Vec::new();
        p.on_payload(a(20), update(20, 0, "message", vec![]), t(0), &mut actions);
        let reply = update(21, 0, "reply", vec![(a(20), 1)]);
        p.on_payload(a(21), reply, t(1), &mut actions);
        let now = drain(&mut p, &mut actions, t(1));
        assert_eq!(p.version(), 2);
        assert_eq!(p.stats().wal_appends, 2);
        let doc_before = p.object().snapshot();
        p.crash_storage();
        p.on_restart(Box::new(SharedDocument::new()), now, &mut Vec::new());
        assert_eq!(p.version(), 2, "replay restores the version");
        assert_eq!(
            p.vector_snapshot(),
            vec![(a(20), 1), (a(21), 1)],
            "replay recounts the causal vector from the commit tail"
        );
        assert_eq!(p.object().snapshot(), doc_before);
        assert!(p.is_synced());
        assert!(p.stats().replayed_records > 0);
    }

    #[test]
    fn non_dominating_transfer_rejected_after_replay() {
        let mut p = doc(1, durable_config());
        let mut actions = sink(|out| p.on_payload(a(20), update(20, 0, "x", vec![]), t(0), out));
        let now = drain(&mut p, &mut actions, t(0));
        p.crash_storage();
        p.on_restart(Box::new(SharedDocument::new()), now, &mut Vec::new());
        assert!(p.is_synced());
        // A donor that never saw client 20's update answers the post-replay
        // reconciliation request: its vector does not dominate ours, so
        // installing it would lose an acked commit. It must be ignored.
        let mut behind = gw(2);
        let mut actions =
            sink(|out| behind.on_payload(a(21), update(21, 0, "y", vec![]), t(0), out));
        let _ = drain(&mut behind, &mut actions, t(0));
        let stale = transfer(&mut behind, now);
        p.on_payload(a(2), stale, now, &mut Vec::new());
        assert_eq!(p.vector_snapshot(), vec![(a(20), 1)], "commit kept");
        // A dominating donor (saw both updates) is adopted.
        let mut ahead = gw(2);
        let mut actions = Vec::new();
        ahead.on_payload(a(20), update(20, 0, "x", vec![]), t(0), &mut actions);
        ahead.on_payload(a(21), update(21, 0, "y", vec![]), t(1), &mut actions);
        let _ = drain(&mut ahead, &mut actions, t(1));
        let fresh = transfer(&mut ahead, now);
        p.on_payload(a(2), fresh, now, &mut Vec::new());
        assert_eq!(p.version(), 2);
        assert_eq!(p.vector_snapshot(), vec![(a(20), 1), (a(21), 1)]);
    }

    #[test]
    fn durable_secondary_persists_lazy_installs() {
        let s = conformance::durable_secondary_persists_lazy_installs::<Causal>();
        assert_eq!(s.vector_snapshot(), vec![(a(20), 7)]);
    }

    #[test]
    fn compaction_stages_vector_carrying_snapshots() {
        let p = conformance::compaction_stages_snapshots_under_load::<Causal>();
        assert_eq!(p.vector_snapshot(), vec![(a(20), 10)]);
    }
}
