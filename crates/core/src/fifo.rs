//! The FIFO timed-consistency handler (paper §4, Figure 2, "Service B").
//!
//! The paper implements its sequential handler in detail; this module
//! instantiates the framework's second handler: a service whose ordering
//! guarantee is *per-sender FIFO*. There is no sequencer and no global
//! sequence number:
//!
//! * **Updates** are multicast by clients to the primary group; the group
//!   layer's per-sender FIFO delivery is the ordering guarantee, and every
//!   primary replica applies each client's updates in that client's send
//!   order. Updates of *different* clients may interleave differently at
//!   different replicas, which is sound exactly for the workload class the
//!   paper cites (banking transactions on disjoint accounts — per-account
//!   operations commute).
//! * **Reads** are sent directly to the selected replicas — no GSN
//!   broadcast round. Primary replicas always serve immediately (their
//!   state contains everything they have received). Secondary replicas
//!   *estimate* their staleness: with no sequencer there is no exact global
//!   version, so a secondary bounds the number of updates it is missing by
//!   `rate * (now - last lazy update)`, using the update-arrival rate the
//!   lazy publisher ships with each lazy update (the shell's default
//!   staleness estimate). If the estimate exceeds the client's threshold
//!   the read is deferred until the next lazy update, exactly like the
//!   sequential handler's deferred reads.
//! * **Lazy propagation, monitoring, and failure handling** are the replica
//!   shell's ([`crate::shell`]), under which this module is the [`Fifo`]
//!   ordering discipline: the highest-ranked primary is the publisher,
//!   performance broadcasts feed the client repositories, and restarted
//!   replicas catch up from a peer. Leader failure needs no recovery round
//!   at all — there is no sequencer state to restore.

use crate::dedup::RequestLog;
use crate::qos::OrderingGuarantee;
use crate::shell::{
    Discipline, PendingRead, Position, Replica, ReplicaRole, ServerAction, Shell, COMMITTED_LOG,
};
use crate::wire::{Payload, RequestId, UpdateRequest, VersionVector};
use aqf_sim::{ActorId, SimTime};

/// The FIFO ordering discipline. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Fifo {
    /// Updates applied to the hosted object (the replica's version).
    version: u64,
    /// Per-client applied-update log retained for order audits (bounded).
    applied_log: RequestLog<RequestId>,
}

/// The FIFO-ordering server gateway: the replica shell under [`Fifo`].
pub type FifoServerGateway = Replica<Fifo>;

impl Replica<Fifo> {
    /// The replica's version: updates applied so far.
    pub fn version(&self) -> u64 {
        self.discipline.version
    }

    /// The applied-update log (most recent `committed_log` entries), for
    /// per-client FIFO order audits.
    pub fn applied_log(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.discipline.applied_log.iter()
    }
}

impl Fifo {
    fn on_update(
        &mut self,
        shell: &mut Shell,
        u: UpdateRequest,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if shell.role != ReplicaRole::Primary {
            return;
        }
        // FIFO updates apply as they arrive, so a second copy of one that
        // was applied, is queued or is in service would double-apply.
        if self.applied_log.contains(&u.id) || shell.update_in_flight(u.id) {
            return shell.answer_duplicate(u.id, out);
        }
        shell.note_update();
        shell.stats.updates_committed += 1;
        shell.enqueue_update(u, 0, now, out);
    }
}

impl Discipline for Fifo {
    const ORDERING: OrderingGuarantee = OrderingGuarantee::Fifo;

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
            Payload::Update(u, _) => self.on_update(shell, u, now, out),
            Payload::Read(req) => {
                shell.admit_read(self, PendingRead::new(req, from, now), now, out)
            }
            // Sequencer-protocol traffic has no meaning here.
            _ => {}
        }
    }

    fn applied(
        &mut self,
        shell: &mut Shell,
        update: &UpdateRequest,
        _order: u64,
        now: SimTime,
    ) -> bool {
        self.version += 1;
        self.applied_log.push_bounded(update.id, COMMITTED_LOG);
        // In FIFO mode "commit" is the apply itself.
        shell.log_commit(self.version, update, now);
        true
    }

    fn adopt(&mut self, csn: u64, _gsn: u64, _vector: Option<VersionVector>) {
        self.version = csn;
    }

    fn replay_commit(&mut self, version: u64, update: &UpdateRequest) {
        self.version = version;
        self.applied_log.push_bounded(update.id, COMMITTED_LOG);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{AccountBook, ReplicatedObject, VersionedRegister};
    use crate::protocol::ServerProtocol;
    use crate::shell::conformance::{
        self, a, drain, durable_config, pview, replies, sends_state_request, sink, sview, t,
    };
    use crate::shell::ServerConfig;
    use crate::wire::{Operation, ReadRequest};
    use std::rc::Rc;

    fn bank(i: usize, config: ServerConfig) -> FifoServerGateway {
        FifoServerGateway::new(a(i), pview(), sview(), Box::new(AccountBook::new()), config)
    }

    fn gw(i: usize) -> FifoServerGateway {
        bank(i, conformance::config())
    }

    fn upd(client: usize, seq: u64) -> Payload {
        let update = UpdateRequest {
            id: RequestId {
                client: a(client),
                seq,
            },
            op: Operation::new("deposit", AccountBook::encode_tx("acct", 100)),
            attempt: 1,
        };
        Payload::Update(update, None)
    }

    fn read(seq: u64, staleness: u32) -> Payload {
        Payload::Read(ReadRequest {
            id: RequestId { client: a(20), seq },
            op: Operation::new("balance", b"acct".to_vec()),
            staleness_threshold: staleness,
            deadline_us: 0,
            attempt: 1,
            deps: Vec::new(),
        })
    }

    fn lazy(version: u64, rate_per_us: f64) -> Payload {
        Payload::LazyUpdate {
            version,
            vector: Vec::new(),
            snapshot: AccountBook::new().snapshot(),
            rate_per_us,
        }
    }

    #[test]
    fn roles() {
        assert_eq!(gw(0).role(), ReplicaRole::Primary);
        assert!(gw(2).is_publisher());
        assert!(!gw(0).is_publisher());
        assert!(!gw(0).is_sequencer());
        assert_eq!(gw(0).ordering(), OrderingGuarantee::Fifo);
    }

    #[test]
    fn primary_applies_updates_without_sequencing_round() {
        let mut p = gw(1);
        let mut actions = sink(|out| p.on_payload(a(20), upd(20, 0), t(0), out));
        assert!(
            !actions
                .iter()
                .any(|x| matches!(x, ServerAction::MulticastPrimary(_))),
            "no GSN round in FIFO mode"
        );
        let _ = drain(&mut p, &mut actions, t(0));
        assert_eq!(p.version(), 1);
        // Client got a reply directly from this primary.
        assert!(replies(&actions).next().is_some());
    }

    #[test]
    fn primary_reads_always_immediate() {
        let mut p = gw(1);
        assert_eq!(p.discipline.staleness(&p.shell, t(0)), 0);
        let mut actions = sink(|out| p.on_payload(a(20), read(0, 0), t(0), out));
        let _ = drain(&mut p, &mut actions, t(0));
        assert_eq!(p.stats().reads_served, 1);
        assert_eq!(p.stats().reads_deferred, 0);
    }

    #[test]
    fn secondary_staleness_estimate_grows_with_time() {
        let mut s = gw(10);
        s.on_start(t(0), &mut Vec::new());
        // 1 update/s advertised by the publisher.
        s.on_payload(a(2), lazy(5, 1e-6), t(1000), &mut Vec::new());
        let staleness = |ms| s.discipline.staleness(&s.shell, t(ms));
        assert_eq!(staleness(1000), 0);
        assert_eq!(staleness(1500), 1); // ceil(0.5)
        assert_eq!(staleness(3000), 2);
        assert_eq!(s.version(), 5);
    }

    #[test]
    fn stale_secondary_defers_until_lazy_update() {
        conformance::stale_secondary_defers_until_lazy_update::<Fifo>();
    }

    #[test]
    fn fresh_secondary_serves_immediately() {
        conformance::fresh_secondary_serves_immediately::<Fifo>();
    }

    #[test]
    fn publisher_ships_rate_with_snapshot() {
        let mut p = gw(2);
        p.on_start(t(0), &mut Vec::new());
        let mut actions = Vec::new();
        for i in 0..4 {
            p.on_payload(a(20), upd(20, i), t(i * 100), &mut actions);
        }
        let _ = drain(&mut p, &mut actions, t(400));
        let actions = sink(|out| p.on_lazy_timer(t(2000), out));
        let (version, rate) = actions
            .iter()
            .find_map(|x| match x {
                ServerAction::MulticastSecondary(Payload::LazyUpdate {
                    version,
                    rate_per_us,
                    ..
                }) => Some((*version, *rate_per_us)),
                _ => None,
            })
            .expect("lazy update sent");
        assert_eq!(version, 4);
        // 4 updates over 2 s = 2e-6 per µs.
        assert!((rate - 2e-6).abs() < 1e-9, "rate = {rate}");
        assert!(actions
            .iter()
            .any(|x| matches!(x, ServerAction::ArmLazyTimer { .. })));
    }

    #[test]
    fn per_client_fifo_order_is_preserved() {
        // Interleave two clients' updates; each client's own order must be
        // preserved in the applied log (delivery order is apply order).
        let mut p = gw(1);
        let mut actions = Vec::new();
        for i in 0..5 {
            p.on_payload(a(20), upd(20, i), t(i), &mut actions);
            p.on_payload(a(21), upd(21, i), t(i), &mut actions);
        }
        let _ = drain(&mut p, &mut actions, t(10));
        for client in [a(20), a(21)] {
            let seqs: Vec<u64> = p
                .applied_log()
                .filter(|r| r.client == client)
                .map(|r| r.seq)
                .collect();
            assert_eq!(seqs, vec![0, 1, 2, 3, 4], "client {client} order");
        }
        assert_eq!(p.version(), 10);
    }

    #[test]
    fn restart_requests_state_transfer() {
        conformance::restart_requests_state_transfer::<Fifo>();
    }

    #[test]
    fn restarted_leader_asks_a_peer() {
        conformance::restarted_leader_asks_a_peer::<Fifo>();
    }

    #[test]
    fn unsynced_replica_re_requests_from_the_next_donor() {
        conformance::unsynced_replica_re_requests_from_the_next_donor::<Fifo>();
    }

    #[test]
    fn stale_lazy_update_still_syncs() {
        conformance::stale_lazy_update_still_syncs::<Fifo>();
    }

    #[test]
    fn publisher_failover_rearms_timer() {
        let mut p = gw(1);
        assert!(!p.is_publisher());
        let new_view = pview().successor(&[a(2)], &[]).unwrap();
        let actions = sink(|out| p.on_view(Rc::new(new_view), t(500), out));
        assert!(p.is_publisher());
        assert!(actions
            .iter()
            .any(|x| matches!(x, ServerAction::ArmLazyTimer { .. })));
    }

    #[test]
    fn sequencer_payloads_ignored() {
        let mut p = gw(1);
        let req = RequestId {
            client: a(20),
            seq: 0,
        };
        for payload in [
            Payload::GsnAssign { req, gsn: 1 },
            Payload::GsnSnapshot { req, gsn: 1 },
            Payload::GsnRequest { req },
        ] {
            assert!(sink(|out| p.on_payload(a(0), payload, t(0), out)).is_empty());
        }
        assert_eq!(p.version(), 0);
    }

    #[test]
    fn register_object_also_works() {
        let mut p = FifoServerGateway::new(
            a(1),
            pview(),
            sview(),
            Box::new(VersionedRegister::new()),
            conformance::config(),
        );
        let set = UpdateRequest {
            id: RequestId {
                client: a(20),
                seq: 0,
            },
            op: Operation::new("set", b"x".to_vec()),
            attempt: 1,
        };
        let set = Payload::Update(set, None);
        let mut actions = sink(|out| p.on_payload(a(20), set, t(0), out));
        let _ = drain(&mut p, &mut actions, t(0));
        assert_eq!(p.version(), 1);
    }

    #[test]
    fn ewma_seeds_with_first_sample() {
        conformance::ewma_seeds_with_first_sample::<Fifo>();
    }

    #[test]
    fn zero_deadline_never_sheds_on_deadline_grounds() {
        conformance::zero_deadline_never_sheds_on_deadline_grounds::<Fifo>();
    }

    #[test]
    fn without_storage_restart_keeps_seed_semantics() {
        conformance::disabled_storage_has_no_sidecar::<Fifo>();
    }

    #[test]
    fn duplicate_update_answered_from_reply_cache() {
        conformance::duplicate_update_answered_from_reply_cache::<Fifo>();
    }

    #[test]
    fn durable_replay_restores_applied_state() {
        let mut p = bank(1, durable_config());
        let mut actions = Vec::new();
        for i in 0..5 {
            p.on_payload(a(20), upd(20, i), t(i), &mut actions);
        }
        let now = drain(&mut p, &mut actions, t(10));
        assert_eq!(p.version(), 5);
        assert_eq!(p.stats().wal_appends, 5);
        let state_before = p.object().snapshot();
        p.crash_storage();
        let actions = sink(|out| p.on_restart(Box::new(AccountBook::new()), now, out));
        assert_eq!(p.version(), 5, "durable replay restores the version");
        assert!(p.is_synced(), "replayed replica serves again immediately");
        assert_eq!(p.object().snapshot(), state_before);
        assert!(p.stats().replayed_records > 0);
        // Without a global sequence the replica cannot bound what it
        // missed: reconciliation still runs a full state transfer.
        assert!(sends_state_request(&actions));
    }

    #[test]
    fn reconciling_transfer_lands_on_replayed_replica() {
        let mut p = bank(1, durable_config());
        let mut actions = Vec::new();
        for i in 0..3 {
            p.on_payload(a(20), upd(20, i), t(i), &mut actions);
        }
        let now = drain(&mut p, &mut actions, t(10));
        p.crash_storage();
        p.on_restart(Box::new(AccountBook::new()), now, &mut Vec::new());
        assert!(p.is_synced());
        assert_eq!(p.version(), 3);
        // A peer that saw two further updates answers the transfer; the
        // relaxed guard accepts it even though the replica reports synced.
        let mut donor = gw(0);
        let mut actions = Vec::new();
        for i in 0..5 {
            donor.on_payload(a(20), upd(20, i), t(i), &mut actions);
        }
        let now = drain(&mut donor, &mut actions, now);
        let reply = sink(|out| donor.on_payload(a(1), Payload::StateRequest, now, out));
        let Some(ServerAction::SendDirect { payload, .. }) = reply.first() else {
            panic!("donor must answer the state request, got {reply:?}");
        };
        let snapshots_before = p.stats().snapshots_taken;
        p.on_payload(a(0), payload.clone(), now, &mut Vec::new());
        assert_eq!(p.version(), 5, "transfer reconciles the missed tail");
        assert_eq!(p.object().snapshot(), donor.object().snapshot());
        assert!(
            p.stats().snapshots_taken > snapshots_before,
            "the installed transfer becomes the durable baseline"
        );
    }

    #[test]
    fn durable_secondary_persists_lazy_installs() {
        let _ = conformance::durable_secondary_persists_lazy_installs::<Fifo>();
    }

    #[test]
    fn compaction_stages_snapshots_under_load() {
        let _ = conformance::compaction_stages_snapshots_under_load::<Fifo>();
    }
}
