//! The sequential timed-consistency handler: total order over the
//! two-level replica organization (paper §4).
//!
//! Each replica's gateway maintains `my_GSN` (its view of the global
//! sequence number) and `my_CSN` (its commit sequence number). Update
//! requests are multicast by clients to the primary group; the *sequencer*
//! (the leader of the primary group) assigns each update a GSN and
//! broadcasts the assignment; primary replicas commit updates in GSN order.
//! Read-only requests reach the sequencer and a selected subset of
//! replicas; the sequencer broadcasts the current GSN (without advancing
//! it), each addressed replica measures its staleness `my_GSN - my_CSN`
//! against the client's threshold, and either services the read immediately
//! or defers it until the next lazy update. One primary replica — the *lazy
//! publisher* — propagates its state to the secondary group every `T_L`.
//!
//! This module is the [`Sequential`] ordering discipline of the replica
//! shell ([`crate::shell`]): GSN/CSN bookkeeping, the sequencer, and the
//! failure handling the paper relies on but omits for space (§4.1) —
//! sequencer takeover, primary-group replenishment, catch-up and delta
//! state transfers. Queueing, admission, lazy propagation, durability and
//! everything else a replica does under any ordering live in the shell.
//!
//! The takeover is one step, because the group layer keeps virtual
//! synchrony: every surviving primary delivered the same assignments of
//! the failed sequencer before it hears of the view that removes it
//! (`aqf_group`'s flush). The new sequencer numbers on from the highest
//! GSN it delivered, gives the updates nobody assigned fresh GSNs, and
//! answers the reads that waited on the old one.

use crate::dedup::RequestLog;
use crate::durability::commit_len;
use crate::qos::OrderingGuarantee;
use crate::shell::{
    Discipline, PendingRead, Position, Replica, ReplicaRole, ServerAction, Shell, COMMITTED_LOG,
    COMMIT_STALL_TIMEOUT,
};
use crate::wire::{
    Payload, RequestId, UpdateRequest, VersionVector, PRIMARY_GROUP, SECONDARY_GROUP,
};
use aqf_group::View;
use aqf_sim::{ActorId, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// How many read-GSN snapshot associations a primary retains for reads
/// that have not arrived yet.
const SNAPSHOT_CACHE: usize = 1024;

/// The sequential ordering discipline. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Sequential {
    my_gsn: u64,
    my_csn: u64,
    applied_csn: u64,

    // Sequencer state (leader of the primary group).
    seq_gsn: u64,
    /// Snapshot requests that reached this primary before it took over:
    /// whoever sent them learned of the view naming it sequencer first.
    queued_snapshot_reqs: Vec<RequestId>,

    // Primary commit machinery.
    unassigned_updates: BTreeMap<RequestId, UpdateRequest>,
    gsn_assignments: BTreeMap<RequestId, u64>,
    commit_ready: BTreeMap<u64, UpdateRequest>,
    committed_log: RequestLog<(u64, RequestId)>,

    // Read machinery: a read is admitted once both it and the sequencer's
    // GSN snapshot for it have arrived, in either order.
    read_snapshot_gsn: BTreeMap<RequestId, u64>,
    snapshot_order: VecDeque<RequestId>,
    pending_reads: BTreeMap<RequestId, PendingRead>,

    /// Last CSN advance, or the assignment that put a current replica
    /// behind (commit-stall detection: catch-up after unrecoverable gaps).
    /// A stall is time spent behind, never time spent idle.
    last_progress: SimTime,
    /// Set on restart until a primary view admits this replica: a
    /// restarted sequencer's last view still names it the leader, but its
    /// counter was wiped, and the group gives up on it and takes over.
    rejoining: bool,

    // Primary-group replenishment (sequencer only).
    /// When the current freshness-probe round opened, if one is running.
    promote_round: Option<SimTime>,
    /// Freshness reports collected this round: candidate -> (staleness, csn).
    promote_reports: BTreeMap<ActorId, (u64, u64)>,
    /// An issued promotion we are waiting to see join the primary view.
    promotion_inflight: Option<(ActorId, SimTime)>,
    /// Last time this replica observed the sequencer function working (an
    /// accepted assignment/snapshot, or its own sequencing).
    last_seq_activity: SimTime,
}

/// The sequential server gateway: the replica shell under [`Sequential`].
pub type ServerGateway = Replica<Sequential>;

impl Replica<Sequential> {
    /// The retained committed log as `(GSN, request)` pairs, oldest first
    /// (the most recent `COMMITTED_LOG`, 1024).
    pub fn committed_log(&self) -> impl Iterator<Item = (u64, RequestId)> + '_ {
        self.discipline.committed_log.iter()
    }
}

/// The sequencer tells both groups the GSN a read is ordered at (§4.1.2).
fn gsn_snapshot(req: RequestId, gsn: u64, out: &mut Vec<ServerAction>) {
    out.push(ServerAction::MulticastPrimary(Payload::GsnSnapshot {
        req,
        gsn,
    }));
    out.push(ServerAction::MulticastSecondary(Payload::GsnSnapshot {
        req,
        gsn,
    }));
}

impl Sequential {
    /// Current staleness of this replica: `my_GSN - my_CSN` (paper §4.1.2).
    fn lag(&self) -> u64 {
        self.my_gsn.saturating_sub(self.my_csn)
    }

    /// Commit-stall watchdog: a synced primary whose staleness stays
    /// positive with no CSN progress for longer than the stall timeout
    /// (counted from when it fell behind, if it was current before) has
    /// missed assignments it can never recover (e.g. broadcast during its
    /// rejoin window); it requests a catch-up state transfer. An unsynced
    /// replica asks again through the shell.
    fn check_commit_stall(&mut self, shell: &mut Shell, now: SimTime, out: &mut Vec<ServerAction>) {
        if shell.role != ReplicaRole::Primary || !shell.synced || self.lag() == 0 {
            return;
        }
        let stall = COMMIT_STALL_TIMEOUT;
        if now.saturating_since(self.last_progress) <= stall
            || now.saturating_since(shell.last_transfer_request) <= stall
        {
            return;
        }
        shell.request_transfer(now, out);
    }

    /// How long the sequencer waits for freshness reports, and for an
    /// issued promotion to show up in the primary view, before starting
    /// over.
    fn replenish_timeout(shell: &Shell) -> SimDuration {
        shell.config.lazy_interval.max(SimDuration::from_secs(2))
    }

    /// Whether refilling the primary group is this replica's job right now:
    /// the view is short and it sequences.
    fn replenishing(&self, shell: &Shell) -> bool {
        shell.primary_view.len() < shell.config.min_primary_size && self.is_sequencer(shell)
    }

    /// The earliest expiry among the open rounds `on_watchdog` would act
    /// on at this moment: the freshness probe and the promotion in flight
    /// of a replica that is `replenishing`. A deadline nothing would
    /// expire is not counted — a timer armed for it would find it still
    /// there, and past, each time it fired.
    fn watchdog_deadline(&self, shell: &Shell) -> Option<SimTime> {
        [
            self.promote_round,
            self.promotion_inflight.map(|(_, issued)| issued),
        ]
        .into_iter()
        .flatten()
        .filter(|_| self.replenishing(shell))
        .map(|opened| opened + Self::replenish_timeout(shell))
        .min()
    }

    /// Arms the watchdog for `watchdog_deadline`, replacing whatever the
    /// host had pending. Every open round waits for answers to
    /// point-to-point sends, so none may rely on other traffic to notice
    /// that an answer was lost.
    fn arm_watchdog(&self, shell: &Shell, now: SimTime, out: &mut Vec<ServerAction>) {
        if let Some(due) = self.watchdog_deadline(shell) {
            out.push(ServerAction::ArmWatchdog {
                after: due.saturating_since(now),
            });
        }
    }

    fn on_update(
        &mut self,
        shell: &mut Shell,
        u: UpdateRequest,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if shell.role != ReplicaRole::Primary {
            return; // secondaries never receive updates directly
        }
        if self.committed_log.contains(&u.id)
            || self.commit_ready.values().any(|c| c.id == u.id)
            || self.unassigned_updates.contains_key(&u.id)
        {
            return shell.answer_duplicate(u.id, out);
        }
        shell.note_update();
        // Assign the next GSN and broadcast the assignment (§4.1.1).
        if self.is_sequencer(shell)
            && !self.gsn_assignments.contains_key(&u.id)
            && !self.commit_ready.values().any(|c| c.id == u.id)
        {
            self.seq_gsn += 1;
            let gsn = self.seq_gsn;
            out.push(ServerAction::MulticastPrimary(Payload::GsnAssign {
                req: u.id,
                gsn,
            }));
            self.note_assignment(shell, u.id, gsn, now);
            self.last_seq_activity = now;
        }
        match self.gsn_assignments.remove(&u.id) {
            Some(gsn) => self.stage_commit(shell, gsn, u),
            None => {
                self.unassigned_updates.insert(u.id, u);
            }
        }
        self.try_commit(shell, now, out);
        self.check_commit_stall(shell, now, out);
    }

    /// Files the assignment of `gsn` to `req`. A replica it puts behind,
    /// with nothing pending before, starts its stall clock here: the time
    /// it spent current is idle time, not a stall.
    fn note_assignment(&mut self, shell: &mut Shell, req: RequestId, gsn: u64, now: SimTime) {
        if self.lag() == 0 && gsn > self.my_csn {
            self.last_progress = now;
        }
        self.my_gsn = self.my_gsn.max(gsn);
        let body = self.unassigned_updates.remove(&req);
        if gsn <= self.my_csn {
            // A re-broadcast of what this replica committed, or of what a
            // transfer covered: a record, not work to hold.
            return self.record_commit(gsn, req);
        }
        match body {
            Some(u) => self.stage_commit(shell, gsn, u),
            None => {
                self.gsn_assignments.insert(req, gsn);
            }
        }
    }

    /// Records that `req` committed at `gsn` in the committed log, which
    /// stays in GSN order, unless the log holds that GSN already.
    fn record_commit(&mut self, gsn: u64, req: RequestId) {
        let log = &mut self.committed_log;
        if let Err(at) = log.entries().binary_search_by_key(&gsn, |&(g, _)| g) {
            log.insert_bounded(at, (gsn, req), COMMITTED_LOG);
        }
    }

    fn stage_commit(&mut self, shell: &mut Shell, gsn: u64, u: UpdateRequest) {
        if gsn <= self.my_csn {
            return; // already committed (duplicate assignment replay)
        }
        match self.commit_ready.get(&gsn) {
            Some(existing) if existing.id != u.id => shell.stats.gsn_conflicts += 1,
            Some(_) => {}
            None => {
                self.commit_ready.insert(gsn, u);
            }
        }
    }

    fn on_gsn_assign(
        &mut self,
        shell: &mut Shell,
        from: ActorId,
        req: RequestId,
        gsn: u64,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if shell.role != ReplicaRole::Primary {
            return;
        }
        // Accept assignments only from the current sequencer; an in-flight
        // assignment from a deposed leader must not collide with the new
        // sequencer's numbering.
        if from != shell.primary_view.leader() {
            shell.stats.stale_assigns += 1;
            return;
        }
        self.note_assignment(shell, req, gsn, now);
        self.last_seq_activity = now;
        self.try_commit(shell, now, out);
        self.check_commit_stall(shell, now, out);
    }

    /// Commits every update that is next in the global order (§4.1.1),
    /// delivering it to the service queue, and re-checks deferred reads
    /// whose staleness may now be satisfied.
    fn try_commit(&mut self, shell: &mut Shell, now: SimTime, out: &mut Vec<ServerAction>) {
        while let Some(entry) = self.commit_ready.first_entry() {
            if *entry.key() != self.my_csn + 1 {
                break;
            }
            let (gsn, update) = entry.remove_entry();
            self.my_csn = gsn;
            self.last_progress = now;
            shell.stats.updates_committed += 1;
            self.committed_log
                .push_bounded((gsn, update.id), COMMITTED_LOG);
            shell.log_commit(gsn, &update, now);
            shell.enqueue_update(update, gsn, now, out);
        }
        // A CSN advance may satisfy deferred reads at a primary.
        if shell.role == ReplicaRole::Primary {
            shell.release_deferred(self, false, now, out);
        }
    }

    fn on_read(
        &mut self,
        shell: &mut Shell,
        pending: PendingRead,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if self.is_sequencer(shell) {
            self.sequencer_read(shell, pending, now, out);
            self.check_commit_stall(shell, now, out);
            return;
        }
        match self.read_snapshot_gsn.remove(&pending.req.id) {
            Some(gsn) => self.admit_read(shell, pending, gsn, now, out),
            None => {
                self.pending_reads.insert(pending.req.id, pending);
            }
        }
    }

    /// The sequencer's read handling: broadcast the current GSN without
    /// advancing it (§4.1.2) and do not service the request, unless it is
    /// the only primary replica.
    fn sequencer_read(
        &mut self,
        shell: &mut Shell,
        pending: PendingRead,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        self.last_seq_activity = now;
        gsn_snapshot(pending.req.id, self.seq_gsn, out);
        if shell.primary_view.len() == 1 {
            self.admit_read(shell, pending, self.seq_gsn, now, out);
        }
    }

    fn on_gsn_snapshot(
        &mut self,
        shell: &mut Shell,
        from: ActorId,
        req: RequestId,
        gsn: u64,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if from != shell.primary_view.leader() {
            shell.stats.stale_assigns += 1;
            return;
        }
        self.my_gsn = self.my_gsn.max(gsn);
        self.last_seq_activity = now;
        match self.pending_reads.remove(&req) {
            Some(pending) => self.admit_read(shell, pending, gsn, now, out),
            None => {
                self.read_snapshot_gsn.insert(req, gsn);
                self.snapshot_order.push_back(req);
                while self.snapshot_order.len() > SNAPSHOT_CACHE {
                    if let Some(old) = self.snapshot_order.pop_front() {
                        self.read_snapshot_gsn.remove(&old);
                    }
                }
            }
        }
        self.check_commit_stall(shell, now, out);
    }

    /// A read and its GSN snapshot have met: the staleness check of §4.1.2
    /// runs against `my_GSN` as of that snapshot.
    fn admit_read(
        &mut self,
        shell: &mut Shell,
        pending: PendingRead,
        gsn: u64,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        self.my_gsn = self.my_gsn.max(gsn);
        shell.admit_read(self, pending, now, out);
    }

    fn on_gsn_request(&mut self, shell: &Shell, req: RequestId, out: &mut Vec<ServerAction>) {
        if self.is_sequencer(shell) {
            gsn_snapshot(req, self.seq_gsn, out);
        } else if shell.role == ReplicaRole::Primary {
            self.queued_snapshot_reqs.push(req);
        }
    }

    /// A sequencer takeover (§4.1 failure handling), in one step: the
    /// group's flush delivered this replica every assignment of its
    /// predecessor that any surviving primary got, so it numbers on from
    /// the highest GSN it knows, gives the updates nobody assigned fresh
    /// GSNs in a deterministic order, and answers the reads that waited on
    /// the predecessor's snapshot.
    fn take_over(&mut self, shell: &mut Shell, now: SimTime, out: &mut Vec<ServerAction>) {
        shell.stats.recoveries += 1;
        // SLO: the sequencer function was unavailable from the last
        // sequencing activity this replica observed until now; commits
        // were stalled since the last CSN progress.
        let unavail = now.saturating_since(self.last_seq_activity).as_micros();
        shell.stats.seq_unavail_us = shell.stats.seq_unavail_us.max(unavail);
        if self.lag() > 0 {
            let stall = now.saturating_since(self.last_progress).as_micros();
            shell.stats.commit_stall_us = shell.stats.commit_stall_us.max(stall);
        }
        self.last_seq_activity = now;
        self.seq_gsn = self.seq_gsn.max(self.my_gsn);
        let orphans: Vec<RequestId> = self.unassigned_updates.keys().copied().collect();
        for req in orphans {
            self.seq_gsn += 1;
            let gsn = self.seq_gsn;
            out.push(ServerAction::MulticastPrimary(Payload::GsnAssign {
                req,
                gsn,
            }));
            self.note_assignment(shell, req, gsn, now);
        }
        self.try_commit(shell, now, out);
        for (_, pending) in std::mem::take(&mut self.pending_reads) {
            self.sequencer_read(shell, pending, now, out);
        }
        for req in std::mem::take(&mut self.queued_snapshot_reqs) {
            gsn_snapshot(req, self.seq_gsn, out);
        }
        self.maybe_replenish(shell, now, out);
    }

    /// Sequencer-side primary-group replenishment (§4.1 extension): when
    /// the primary view has shrunk below `min_primary_size`, probe the
    /// secondaries for freshness, promote the freshest one (lowest
    /// `my_GSN − my_CSN`, then highest CSN, then lowest id), and wait for
    /// it to join the primary group via the restart state-transfer path.
    fn maybe_replenish(&mut self, shell: &mut Shell, now: SimTime, out: &mut Vec<ServerAction>) {
        if shell.primary_view.len() >= shell.config.min_primary_size {
            self.promote_round = None;
            self.promote_reports.clear();
            self.promotion_inflight = None;
            return;
        }
        if !self.replenishing(shell) {
            return;
        }
        let timeout = Self::replenish_timeout(shell);
        if let Some((cand, at)) = self.promotion_inflight {
            if shell.primary_view.contains(cand) {
                self.promotion_inflight = None;
            } else if now.saturating_since(at) < timeout {
                return; // give the promotee time to join
            } else {
                self.promotion_inflight = None; // candidate failed; retry
            }
        }
        let candidates: Vec<ActorId> = shell
            .secondary_view
            .members()
            .iter()
            .copied()
            .filter(|m| !shell.primary_view.contains(*m) && *m != shell.me)
            .collect();
        if candidates.is_empty() {
            // Nobody to ask; the next view change looks again.
            self.promote_round = None;
            self.promote_reports.clear();
            return;
        }
        if let Some(opened) = self.promote_round {
            let all_in = candidates
                .iter()
                .all(|c| self.promote_reports.contains_key(c));
            let expired = now.saturating_since(opened) >= timeout;
            if !all_in && !expired {
                return;
            }
            let best = self
                .promote_reports
                .iter()
                .filter(|(c, _)| candidates.contains(c))
                .min_by_key(|(c, &(stale, csn))| (stale, u64::MAX - csn, **c))
                .map(|(c, _)| *c);
            self.promote_round = None;
            self.promote_reports.clear();
            if let Some(best) = best {
                shell.stats.promotions += 1;
                self.promotion_inflight = Some((best, now));
                out.push(ServerAction::SendDirect {
                    to: best,
                    payload: Payload::Promote,
                });
                return;
            }
            // Nobody (still eligible) answered: start over.
        }
        self.promote_round = Some(now);
        for c in &candidates {
            out.push(ServerAction::SendDirect {
                to: *c,
                payload: Payload::PromoteQuery,
            });
        }
    }

    /// A secondary answers the sequencer's freshness probe.
    fn on_promote_query(&mut self, shell: &Shell, from: ActorId, out: &mut Vec<ServerAction>) {
        if shell.role != ReplicaRole::Secondary {
            return;
        }
        out.push(ServerAction::SendDirect {
            to: from,
            payload: Payload::PromoteReport {
                csn: self.my_csn,
                gsn: self.my_gsn,
            },
        });
    }

    /// The sequencer collects freshness reports and closes the round once
    /// every candidate has answered (or the round times out).
    fn on_promote_report(
        &mut self,
        shell: &mut Shell,
        from: ActorId,
        csn: u64,
        gsn: u64,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if self.promote_round.is_none() {
            return;
        }
        self.promote_reports
            .insert(from, (gsn.saturating_sub(csn), csn));
        self.maybe_replenish(shell, now, out);
        self.arm_watchdog(shell, now, out);
    }

    /// A secondary accepts a promotion from the current sequencer: it
    /// flips to the primary role, joins the primary group, leaves the
    /// secondary group, and state-transfers from a current primary (the
    /// same catch-up path a restarted replica uses).
    fn on_promote(
        &mut self,
        shell: &mut Shell,
        from: ActorId,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if shell.role != ReplicaRole::Secondary || from != shell.primary_view.leader() {
            return;
        }
        shell.role = ReplicaRole::Primary;
        shell.stats.promoted += 1;
        shell.synced = false;
        self.last_progress = now;
        shell.last_transfer_request = now;
        out.push(ServerAction::JoinGroup {
            group: PRIMARY_GROUP,
        });
        out.push(ServerAction::LeaveGroup {
            group: SECONDARY_GROUP,
        });
        shell.request_transfer(now, out);
    }

    /// Serves a rejoining replica that replayed its own log and only needs
    /// the committed tail above `have_csn`. Falls back to a full state
    /// transfer when this replica has no durable mirror or already
    /// compacted past the requested range.
    fn on_delta_request(
        &mut self,
        shell: &mut Shell,
        from: ActorId,
        have_csn: u64,
        out: &mut Vec<ServerAction>,
    ) {
        if shell.role != ReplicaRole::Primary || !shell.synced {
            return;
        }
        let delta = shell
            .durability
            .as_ref()
            .and_then(|d| d.serve_delta(have_csn, self.applied_csn));
        let Some(ops) = delta else {
            return shell.on_state_request(self, from, out);
        };
        shell.stats.state_transfers += 1;
        let delta_bytes: u64 = ops.iter().map(|(_, u)| commit_len(u) as u64).sum();
        let full_bytes = shell.object.snapshot().len() as u64;
        shell.stats.transfer_bytes_sent += delta_bytes;
        shell.stats.transfer_bytes_saved += full_bytes.saturating_sub(delta_bytes);
        out.push(ServerAction::SendDirect {
            to: from,
            payload: Payload::DeltaResponse {
                from_csn: have_csn,
                ops,
            },
        });
    }

    /// Applies a delta transfer: the missing committed updates, applied
    /// densely on top of the replayed state (and logged locally, so the
    /// repaired tail is itself durable).
    fn on_delta_response(
        &mut self,
        shell: &mut Shell,
        from_csn: u64,
        ops: Vec<(u64, UpdateRequest)>,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        // Only meaningful on the durable recovery path, and only when it
        // answers our current position with no committed-but-unapplied
        // work racing the install (mirrors the state-transfer guard).
        if shell.durability.is_none() || from_csn != self.my_csn || self.applied_csn != self.my_csn
        {
            return;
        }
        for (gsn, update) in ops {
            if gsn != self.my_csn + 1 {
                break;
            }
            shell.reapply(&update.op);
            self.my_csn = gsn;
            self.applied_csn = gsn;
            self.my_gsn = self.my_gsn.max(gsn);
            shell.stats.updates_committed += 1;
            self.committed_log
                .push_bounded((gsn, update.id), COMMITTED_LOG);
            shell.log_commit(gsn, &update, now);
        }
        self.installed(shell, now, out);
    }

    /// A transfer (full or delta) moved `my_CSN`: the assignments it
    /// covered are commit records now, not pending work (stale low GSNs
    /// would block `first_entry` forever, and a late body would look like
    /// an orphan), and whatever is now next in order commits.
    fn installed(&mut self, shell: &mut Shell, now: SimTime, out: &mut Vec<ServerAction>) {
        let csn = self.my_csn;
        let covered: Vec<(u64, RequestId)> = self
            .commit_ready
            .extract_if(..=csn, |_, _| true)
            .map(|(gsn, u)| (gsn, u.id))
            .chain(
                self.gsn_assignments
                    .extract_if(.., |_, gsn| *gsn <= csn)
                    .map(|(req, gsn)| (gsn, req)),
            )
            .collect();
        for (gsn, req) in covered {
            self.record_commit(gsn, req);
        }
        self.last_progress = now;
        shell.mark_synced(now);
        self.try_commit(shell, now, out);
    }
}

impl Discipline for Sequential {
    const ORDERING: OrderingGuarantee = OrderingGuarantee::Sequential;
    const NAMES_DELTAS: bool = true;

    fn position(&self) -> Position {
        Position {
            csn: self.my_csn,
            applied_csn: self.applied_csn,
            gsn: self.my_gsn,
        }
    }

    /// The sequencer is the leader of the primary group, once admitted.
    fn is_sequencer(&self, shell: &Shell) -> bool {
        shell.leads_primary() && !self.rejoining
    }

    fn started(&mut self, now: SimTime, restarted: bool) {
        self.last_progress = now;
        self.last_seq_activity = now;
        self.rejoining = restarted;
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
            Payload::Read(req) => self.on_read(shell, PendingRead::new(req, from, now), now, out),
            Payload::GsnAssign { req, gsn } => self.on_gsn_assign(shell, from, req, gsn, now, out),
            Payload::GsnSnapshot { req, gsn } => {
                self.on_gsn_snapshot(shell, from, req, gsn, now, out);
            }
            Payload::GsnRequest { req } => self.on_gsn_request(shell, req, out),
            Payload::DeltaRequest { have_csn } => self.on_delta_request(shell, from, have_csn, out),
            Payload::DeltaResponse { from_csn, ops } => {
                self.on_delta_response(shell, from_csn, ops, now, out);
            }
            Payload::PromoteQuery => self.on_promote_query(shell, from, out),
            Payload::PromoteReport { csn, gsn } => {
                self.on_promote_report(shell, from, csn, gsn, now, out);
            }
            Payload::Promote => self.on_promote(shell, from, now, out),
            // Replies and perf broadcasts are client-bound, and the shell
            // took the rest.
            _ => {}
        }
    }

    fn applied(
        &mut self,
        shell: &mut Shell,
        _update: &UpdateRequest,
        gsn: u64,
        _now: SimTime,
    ) -> bool {
        self.applied_csn += 1;
        debug_assert_eq!(self.applied_csn, gsn, "updates must apply in GSN order");
        // The sequencer does not service client requests (§4.1): it
        // applies updates to keep its state current but leaves replying to
        // the other primaries, unless it is alone.
        !self.is_sequencer(shell) || shell.primary_view.len() == 1
    }

    fn staleness(&self, _shell: &Shell, _now: SimTime) -> u64 {
        self.lag()
    }

    /// Acceptable transfers: the initial post-restart sync (anything at or
    /// above our CSN) or a catch-up past a commit stall (strictly ahead).
    /// Catch-up installs must not race committed-but-unapplied work, or
    /// queued updates would apply twice on top of the snapshot; if the
    /// service queue is still draining the transfer is skipped, and a later
    /// request brings another.
    fn accepts_transfer(&self, shell: &Shell, csn: u64, _blob: &bytes::Bytes) -> bool {
        let ahead = if shell.synced {
            csn > self.my_csn
        } else {
            csn >= self.my_csn
        };
        ahead && self.applied_csn == self.my_csn
    }

    /// A lazy update carries no GSN (`gsn` 0): `my_GSN` keeps what the
    /// sequencer last said.
    fn adopt(&mut self, csn: u64, gsn: u64, _vector: Option<VersionVector>) {
        self.my_csn = csn;
        self.applied_csn = csn;
        self.my_gsn = self.my_gsn.max(gsn);
    }

    fn caught_up(
        &mut self,
        shell: &mut Shell,
        before: Position,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if self.my_csn > before.csn {
            // SLO: a catch-up transfer heals however long commits stalled.
            let stall = now.saturating_since(self.last_progress).as_micros();
            shell.stats.commit_stall_us = shell.stats.commit_stall_us.max(stall);
        }
        self.installed(shell, now, out);
    }

    fn replay_commit(&mut self, gsn: u64, update: &UpdateRequest) {
        self.adopt(gsn, gsn, None);
        self.committed_log
            .push_bounded((gsn, update.id), COMMITTED_LOG);
    }

    fn primary_view_changed(
        &mut self,
        shell: &mut Shell,
        old: &View,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        let me = shell.me;
        let was_sequencer = old.leader() == me && self.is_sequencer(shell);
        if !shell.primary_view.contains(me) || shell.role != ReplicaRole::Primary {
            return;
        }
        if old.leader() == me && shell.primary_view.leader() != me && !self.rejoining {
            // A sequencer re-merged after a partition, junior to the one
            // that took over meanwhile: what that one assigned was stable
            // without it, so it catches up by a transfer at the view
            // boundary, long before it could lead again.
            shell.synced = false;
            shell.request_transfer(now, out);
        }
        self.rejoining = false;
        // Sequencer takeover: when leadership moves to this replica, and
        // only then. A member that joins or rejoins ranks below the
        // leader, so a membership change never hands it the counter.
        if !was_sequencer && self.is_sequencer(shell) {
            self.take_over(shell, now, out);
        }
        self.queued_snapshot_reqs.clear();
    }

    fn on_watchdog(&mut self, shell: &mut Shell, now: SimTime, out: &mut Vec<ServerAction>) {
        self.maybe_replenish(shell, now, out);
        // Whatever did not expire just now is still waiting — and expires
        // later than now, or this timer would refire without the clock
        // moving.
        debug_assert!(self.watchdog_deadline(shell).is_none_or(|due| due > now));
        self.arm_watchdog(shell, now, out);
    }

    fn view_installed(
        &mut self,
        shell: &mut Shell,
        old_primary: Option<&View>,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        let new_leader = shell.primary_view.leader();
        if new_leader != shell.me && old_primary.is_some_and(|old| old.leader() != new_leader) {
            // Reads orphaned by the sequencer failure: ask the new
            // sequencer for their GSN snapshots.
            for req in self.pending_reads.keys() {
                out.push(ServerAction::SendDirect {
                    to: new_leader,
                    payload: Payload::GsnRequest { req: *req },
                });
            }
        }
        // Either view changing may open (or close) a replenishment round:
        // the primary view defines the deficit, the secondary view the
        // candidates.
        self.maybe_replenish(shell, now, out);
        // One arm for the replenishment round this view opened, if any.
        self.arm_watchdog(shell, now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{Durability, StorageConfig};
    use crate::object::{ReplicatedObject, VersionedRegister};
    use crate::protocol::ServerProtocol;
    use crate::shell::conformance::{
        self, a, drain, pview, register, replies, request, sends_state_request, sink, sview, t,
    };
    use crate::shell::ServerConfig;
    use crate::wire::{Operation, ReadRequest};
    use std::rc::Rc;

    // Roster: 0 = sequencer, 1, 2 = primaries, 10, 11 = secondaries,
    // 20 = client.
    fn gw(i: usize) -> ServerGateway {
        conformance::gw(i, conformance::config())
    }

    fn upd(seq: u64) -> Payload {
        let update = UpdateRequest {
            id: request(seq),
            op: Operation::new("set", format!("v{seq}").into_bytes()),
            attempt: 1,
        };
        Payload::Update(update, None)
    }

    fn assign(seq: u64, gsn: u64) -> Payload {
        Payload::GsnAssign {
            req: request(seq),
            gsn,
        }
    }

    fn read(seq: u64, staleness: u32) -> Payload {
        Payload::Read(ReadRequest {
            id: request(seq),
            op: Operation::new("get", vec![]),
            staleness_threshold: staleness,
            deadline_us: 0,
            attempt: 1,
            deps: Vec::new(),
        })
    }

    fn snapshot(seq: u64, gsn: u64) -> Payload {
        Payload::GsnSnapshot {
            req: request(seq),
            gsn,
        }
    }

    fn assigns(actions: &[ServerAction], wanted: u64) -> bool {
        actions.iter().any(|x| {
            matches!(
                x,
                ServerAction::MulticastPrimary(Payload::GsnAssign { gsn, .. }) if *gsn == wanted
            )
        })
    }

    /// The primary view after the sequencer (replica 0) crashed.
    fn without_sequencer() -> Rc<View> {
        Rc::new(pview().successor(&[a(0)], &[]).unwrap())
    }

    #[test]
    fn roles_and_designations() {
        assert!(gw(0).is_sequencer());
        assert!(!gw(1).is_sequencer());
        assert_eq!(gw(0).role(), ReplicaRole::Primary);
        assert_eq!(gw(10).role(), ReplicaRole::Secondary);
        // Publisher = highest-ranked primary (not the leader).
        assert!(gw(2).is_publisher());
        assert!(!gw(1).is_publisher());
        assert!(!gw(0).is_publisher());
    }

    #[test]
    #[should_panic(expected = "exactly one replication group")]
    fn outsider_rejected() {
        let _ = gw(30);
    }

    #[test]
    fn sequencer_assigns_gsn_on_update() {
        let mut s = gw(0);
        let actions = sink(|out| s.on_payload(a(20), upd(0), t(0), out));
        assert!(assigns(&actions, 1));
        // Sequencer also commits and enqueues its own copy.
        assert_eq!(s.csn(), 1);
        assert_eq!(s.gsn(), 1);
        assert_eq!(s.shell.queue_depth(), 1);
    }

    #[test]
    fn duplicate_update_not_reassigned() {
        let mut s = gw(0);
        s.on_payload(a(20), upd(0), t(0), &mut Vec::new());
        let actions = sink(|out| s.on_payload(a(20), upd(0), t(1), out));
        assert!(
            !actions
                .iter()
                .any(|x| matches!(x, ServerAction::MulticastPrimary(Payload::GsnAssign { .. }))),
            "duplicate must not get a second GSN"
        );
    }

    #[test]
    fn duplicate_update_answered_from_reply_cache() {
        conformance::duplicate_update_answered_from_reply_cache::<Sequential>();
    }

    #[test]
    fn primary_commits_in_gsn_order() {
        let mut p = gw(1);
        let out = &mut Vec::new();
        // Updates arrive before assignments, out of order.
        p.on_payload(a(20), upd(0), t(0), out);
        p.on_payload(a(20), upd(1), t(0), out);
        assert_eq!(p.csn(), 0);
        // Assignment for the *second* request arrives first: must buffer.
        p.on_payload(a(0), assign(1, 2), t(1), out);
        assert_eq!(p.csn(), 0);
        p.on_payload(a(0), assign(0, 1), t(2), out);
        assert_eq!(p.csn(), 2, "both commit once the gap fills");
        assert_eq!(p.stats().updates_committed, 2);
    }

    #[test]
    fn assignment_before_update_buffers() {
        let mut p = gw(1);
        p.on_payload(a(0), assign(0, 1), t(0), &mut Vec::new());
        assert_eq!(p.csn(), 0);
        p.on_payload(a(20), upd(0), t(1), &mut Vec::new());
        assert_eq!(p.csn(), 1);
    }

    /// Idle time is not a stall: a primary that committed all it was
    /// assigned, heard nothing for longer than the stall timeout, and then
    /// gets an assignment ahead of its body waits for the body.
    #[test]
    fn assignment_after_idle_time_is_not_a_stall() {
        let mut p = gw(1);
        let idle_from = commit_n(&mut p, 1, 0);
        let now = idle_from + SimDuration::from_secs(5);
        let actions = sink(|out| p.on_payload(a(0), assign(1, 2), now, out));
        assert!(
            !sends_state_request(&actions),
            "idle time counted as a stall"
        );
        p.on_payload(a(20), upd(1), now, &mut Vec::new());
        assert_eq!(p.csn(), 2);
    }

    #[test]
    fn stale_sequencer_assignment_rejected() {
        let mut p = gw(1);
        p.on_payload(a(2), assign(0, 1), t(0), &mut Vec::new());
        assert_eq!(p.csn(), 0);
        assert_eq!(p.stats().stale_assigns, 1);
    }

    #[test]
    fn update_applies_and_replies() {
        let mut p = gw(1);
        let mut actions = Vec::new();
        p.on_payload(a(20), upd(0), t(0), &mut actions);
        p.on_payload(a(0), assign(0, 1), t(1), &mut actions);
        let _ = drain(&mut p, &mut actions, t(1));
        let (to, reply) = replies(&actions).next().expect("primary replies to update");
        assert_eq!(to, a(20));
        assert_eq!(reply.csn, 1);
        assert_eq!(p.applied_csn(), 1);
    }

    #[test]
    fn sequencer_does_not_reply_to_updates() {
        let mut s = gw(0);
        let mut actions = sink(|out| s.on_payload(a(20), upd(0), t(0), out));
        let _ = drain(&mut s, &mut actions, t(0));
        assert!(
            replies(&actions).next().is_none(),
            "sequencer must not service client requests"
        );
        assert_eq!(s.applied_csn(), 1, "but it keeps its state current");
    }

    #[test]
    fn sequencer_broadcasts_snapshot_without_advancing() {
        let mut s = gw(0);
        s.on_payload(a(20), upd(0), t(0), &mut Vec::new());
        let actions = sink(|out| s.on_payload(a(20), read(1, 0), t(1), out));
        let snaps: Vec<_> = actions
            .iter()
            .filter(|x| {
                matches!(
                    x,
                    ServerAction::MulticastPrimary(Payload::GsnSnapshot { gsn: 1, .. })
                        | ServerAction::MulticastSecondary(Payload::GsnSnapshot { gsn: 1, .. })
                )
            })
            .collect();
        assert_eq!(snaps.len(), 2, "snapshot goes to both groups");
        assert_eq!(s.gsn(), 1, "GSN not advanced by reads");
    }

    #[test]
    fn fresh_primary_serves_read_immediately() {
        let mut p = gw(1);
        let mut actions = sink(|out| p.on_payload(a(20), read(0, 0), t(0), out));
        assert!(actions.is_empty(), "no snapshot yet: read waits");
        p.on_payload(a(0), snapshot(0, 0), t(1), &mut actions);
        let _ = drain(&mut p, &mut actions, t(1));
        let (_, reply) = replies(&actions).next().expect("read served");
        assert!(!reply.deferred);
        assert_eq!(reply.staleness, 0);
        assert_eq!(p.stats().reads_served, 1);
        // Perf broadcast accompanied the read completion.
        assert!(actions
            .iter()
            .any(|x| matches!(x, ServerAction::SendDirect { to, payload: Payload::Perf(_) } if *to == a(20))));
    }

    #[test]
    fn snapshot_before_read_is_cached() {
        let mut p = gw(1);
        p.on_payload(a(0), snapshot(0, 0), t(0), &mut Vec::new());
        let mut actions = sink(|out| p.on_payload(a(20), read(0, 0), t(1), out));
        let _ = drain(&mut p, &mut actions, t(1));
        assert_eq!(p.stats().reads_served, 1);
    }

    #[test]
    fn stale_secondary_defers_until_lazy_update() {
        conformance::stale_secondary_defers_until_lazy_update::<Sequential>();
    }

    #[test]
    fn fresh_secondary_serves_immediately() {
        conformance::fresh_secondary_serves_immediately::<Sequential>();
    }

    #[test]
    fn stale_lazy_update_ignored_but_releases() {
        let mut s = gw(10);
        let mut obj = VersionedRegister::new();
        obj.apply_update(
            &Operation::new("set", b"x".to_vec()),
            &mut bytes::BytesMut::new(),
        );
        let lazy = Payload::LazyUpdate {
            version: 1,
            vector: Vec::new(),
            snapshot: obj.snapshot(),
            rate_per_us: 0.0,
        };
        s.on_payload(a(2), lazy.clone(), t(0), &mut Vec::new());
        assert_eq!(s.csn(), 1);
        let before = s.stats().lazy_updates_applied;
        s.on_payload(a(2), lazy, t(10), &mut Vec::new());
        assert_eq!(s.stats().lazy_updates_applied, before, "duplicate ignored");
    }

    #[test]
    fn publisher_lazy_tick_broadcasts_state_and_info() {
        let mut p = gw(2);
        assert!(p.is_publisher());
        p.on_start(t(0), &mut Vec::new());
        // Two updates arrive (as counted by a primary).
        p.on_payload(a(20), upd(0), t(100), &mut Vec::new());
        p.on_payload(a(20), upd(1), t(200), &mut Vec::new());
        let actions = sink(|out| p.on_lazy_timer(t(2000), out));
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::MulticastSecondary(Payload::LazyUpdate { .. })
        )));
        assert!(actions
            .iter()
            .any(|x| matches!(x, ServerAction::ArmLazyTimer { .. })));
        let info = actions
            .iter()
            .find_map(|x| match x {
                ServerAction::SendDirect {
                    payload: Payload::Perf(pb),
                    ..
                } => pb.publisher,
                _ => None,
            })
            .expect("publisher info broadcast");
        assert_eq!(info.n_u, 2);
        assert_eq!(info.t_u, SimDuration::from_secs(2));
        assert_eq!(info.n_l, 0, "n_L resets at propagation");
        assert_eq!(info.t_l, SimDuration::ZERO);
        assert_eq!(info.period, SimDuration::from_secs(2));
    }

    #[test]
    fn non_publisher_lazy_timer_is_noop() {
        let mut p = gw(1);
        assert!(sink(|out| p.on_lazy_timer(t(100), out)).is_empty());
    }

    #[test]
    fn sequencer_failover_recovers_gsn() {
        // Primary 1 becomes leader after 0 crashes; it saw GSN up to 2.
        let mut p = gw(1);
        let out = &mut Vec::new();
        p.on_payload(a(20), upd(0), t(0), out);
        p.on_payload(a(20), upd(1), t(0), out);
        p.on_payload(a(0), assign(0, 1), t(1), out);
        p.on_payload(a(0), assign(1, 2), t(1), out);
        // The takeover is the view change itself: nothing is asked of the
        // peers, which delivered the same assignments.
        let actions = sink(|out| p.on_view(without_sequencer(), t(1000), out));
        assert_eq!(p.stats().recoveries, 1);
        assert!(sent_to(&actions, |_| true).is_empty());
        // New update gets GSN 3, not a duplicate.
        let actions = sink(|out| p.on_payload(a(20), upd(2), t(1002), out));
        assert!(assigns(&actions, 3));
    }

    fn armed(actions: &[ServerAction]) -> Option<SimDuration> {
        // The host replaces a pending timer: the last arm is the one that counts.
        actions.iter().rev().find_map(|x| match x {
            ServerAction::ArmWatchdog { after } => Some(*after),
            _ => None,
        })
    }

    fn sent_to(actions: &[ServerAction], wanted: impl Fn(&Payload) -> bool) -> Vec<ActorId> {
        actions
            .iter()
            .filter_map(|x| match x {
                ServerAction::SendDirect { to, payload } if wanted(payload) => Some(*to),
                _ => None,
            })
            .collect()
    }

    /// Replica `i`, told to keep the primary group at `min_primary_size`.
    fn replenisher(i: usize, min_primary_size: usize) -> ServerGateway {
        conformance::gw(
            i,
            ServerConfig {
                min_primary_size,
                ..conformance::config()
            },
        )
    }

    /// The primary view after primary 2 crashed.
    fn without_primary_2() -> View {
        pview().successor(&[a(2)], &[]).unwrap()
    }

    /// The sequencer of a view that lost primary 2, told to keep
    /// `min_primary_size`, its freshness probe open since `t(1001)`.
    fn deficient_sequencer(min_primary_size: usize) -> (ServerGateway, Vec<ServerAction>) {
        let mut s = replenisher(0, min_primary_size);
        let shrunk = Rc::new(without_primary_2());
        let actions = sink(|out| s.on_view(shrunk, t(1001), out));
        (s, actions)
    }

    /// Primary 1, told to keep the primary group at 4, takes over from the
    /// crashed sequencer at `t(1001)` and probes both secondaries.
    fn deficient_successor() -> (ServerGateway, Vec<ServerAction>) {
        let mut p = replenisher(1, 4);
        let actions = sink(|out| p.on_view(without_sequencer(), t(1001), out));
        (p, actions)
    }

    /// Primary 1's view after it was cut off, excluded and re-merged as
    /// the most junior member: primary 2 leads.
    fn deposed() -> Rc<View> {
        let without_1 = without_sequencer().successor(&[a(1)], &[]).unwrap();
        Rc::new(without_1.successor(&[], &[a(1)]).unwrap())
    }

    #[test]
    fn unanswered_freshness_probe_is_reopened_by_the_watchdog() {
        let timeout = SimDuration::from_secs(2);
        let probed =
            |actions: &[ServerAction]| sent_to(actions, |p| matches!(p, Payload::PromoteQuery));
        let (mut s, actions) = deficient_sequencer(3);
        assert_eq!(probed(&actions), [a(10), a(11)]);
        // No report comes back, and no view is re-announced either.
        let actions = sink(|out| s.on_watchdog(t(1001) + timeout, out));
        assert_eq!(probed(&actions), [a(10), a(11)], "a new round opens");
        assert_eq!(armed(&actions), Some(timeout));
        assert_eq!(s.stats().promotions, 0);
    }

    #[test]
    fn lost_promotion_is_retried_by_the_watchdog() {
        let timeout = SimDuration::from_secs(2);
        let promoted =
            |actions: &[ServerAction]| sent_to(actions, |p| matches!(p, Payload::Promote));
        let (mut s, _) = deficient_sequencer(3);
        let fresh = Payload::PromoteReport { csn: 0, gsn: 0 };
        s.on_payload(a(10), fresh.clone(), t(1002), &mut Vec::new());
        let actions = sink(|out| s.on_payload(a(11), fresh.clone(), t(1003), out));
        assert_eq!(promoted(&actions), [a(10)]);
        assert_eq!(armed(&actions), Some(timeout));
        // The promotee never joins: start over with a fresh probe.
        let actions = sink(|out| s.on_watchdog(t(1003) + timeout, out));
        assert_eq!(
            sent_to(&actions, |p| matches!(p, Payload::PromoteQuery)),
            [a(10), a(11)]
        );
        assert_eq!(armed(&actions), Some(timeout));
    }

    #[test]
    fn probe_left_without_candidates_is_dropped() {
        let timeout = SimDuration::from_secs(2);
        let (mut p, actions) = deficient_successor();
        assert_eq!(
            sent_to(&actions, |p| matches!(p, Payload::PromoteQuery)),
            [a(10), a(11)]
        );
        // Secondary 11 leaves its group, and secondary 10 turns up in the
        // primary view (an earlier sequencer promoted it): still one short,
        // and nobody left to probe.
        let only_10 = Rc::new(sview().successor(&[a(11)], &[]).unwrap());
        p.on_view(only_10, t(1100), &mut Vec::new());
        let joined = Rc::new(without_sequencer().successor(&[], &[a(10)]).unwrap());
        let actions = sink(|out| p.on_view(joined, t(1200), out));
        assert_eq!(p.stats().recoveries, 1);
        assert_eq!(armed(&actions), None, "nothing is open any more");
        // Whatever timer the probe left behind finds nothing to wait for.
        assert!(sink(|out| p.on_watchdog(t(1001) + timeout, out)).is_empty());
    }

    #[test]
    fn probe_of_a_deposed_sequencer_is_not_waited_for() {
        let timeout = SimDuration::from_secs(2);
        let (mut p, actions) = deficient_successor();
        assert_eq!(armed(&actions), Some(timeout), "probe open");
        // Primary 2 leads now: the group is still short, but filling it is
        // no longer this replica's job.
        let actions = sink(|out| p.on_view(deposed(), t(1500), out));
        assert_eq!(armed(&actions), None);
        assert!(sink(|out| p.on_watchdog(t(1001) + timeout, out)).is_empty());
    }

    #[test]
    fn recovery_assigns_orphaned_updates() {
        // An update was never assigned by the failed sequencer.
        let mut p = gw(1);
        p.on_payload(a(20), upd(0), t(0), &mut Vec::new());
        assert_eq!(p.csn(), 0);
        let actions = sink(|out| p.on_view(without_sequencer(), t(1000), out));
        assert!(assigns(&actions, 1));
        assert_eq!(p.csn(), 1, "orphan committed under the fresh GSN");
    }

    #[test]
    fn pending_reads_rerequested_after_failover() {
        let mut p = gw(2); // stays non-leader after 0 crashes (1 leads)
        p.on_payload(a(20), read(0, 0), t(0), &mut Vec::new());
        let actions = sink(|out| p.on_view(without_sequencer(), t(1000), out));
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::SendDirect { to, payload: Payload::GsnRequest { .. } } if *to == a(1)
        )));
    }

    #[test]
    fn new_publisher_designated_after_publisher_crash() {
        let mut p = gw(1);
        assert!(!p.is_publisher());
        // Publisher (replica 2) crashes: view becomes {0, 1}; 1 is now the
        // highest-ranked non-leader member.
        let new_view = pview().successor(&[a(2)], &[]).unwrap();
        let actions = sink(|out| p.on_view(Rc::new(new_view), t(1000), out));
        assert!(p.is_publisher());
        assert!(actions
            .iter()
            .any(|x| matches!(x, ServerAction::ArmLazyTimer { .. })));
    }

    /// The transfer `donor` serves to `payload` from replica 2.
    fn served(donor: &mut ServerGateway, payload: Payload, now: SimTime) -> Payload {
        let reply = sink(|out| donor.on_payload(a(2), payload, now, out));
        let [ServerAction::SendDirect { to, payload }] = &reply[..] else {
            panic!("expected one transfer, got {reply:?}");
        };
        assert_eq!(*to, a(2));
        payload.clone()
    }

    #[test]
    fn state_transfer_round_trip() {
        let mut donor = gw(1);
        let _ = commit_n(&mut donor, 1, 0);
        let transfer = served(&mut donor, Payload::StateRequest, t(50));
        assert!(matches!(transfer, Payload::StateResponse { csn: 1, .. }));

        // A restarted replica installs it and becomes synced.
        let mut joiner = gw(2);
        let actions = sink(|out| joiner.on_restart(register(), t(100), out));
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::SendDirect { to, payload: Payload::StateRequest } if *to == a(0)
        )));
        assert!(!joiner.is_synced());
        joiner.on_payload(a(1), transfer, t(200), &mut Vec::new());
        assert!(joiner.is_synced());
        assert_eq!(joiner.csn(), 1);
        assert_eq!(joiner.stats().state_transfers, 0);
        assert_eq!(donor.stats().state_transfers, 1);
    }

    /// A transfer at CSN 1 from a donor that committed request 0 there.
    fn transfer_at_1() -> Payload {
        let mut donor = gw(1);
        let _ = commit_n(&mut donor, 1, 0);
        served(&mut donor, Payload::StateRequest, t(50))
    }

    #[test]
    fn body_of_an_assignment_a_transfer_covered_is_not_resequenced() {
        // Primary 1 learns request 0's GSN but not its body, takes over as
        // sequencer, and catches up past that GSN by a transfer.
        let mut p = gw(1);
        p.on_payload(a(0), assign(0, 1), t(0), &mut Vec::new());
        p.on_view(without_sequencer(), t(1000), &mut Vec::new());
        p.on_payload(a(2), transfer_at_1(), t(1100), &mut Vec::new());
        assert_eq!(p.csn(), 1);
        // The body arrives late: it is committed already, not an orphan.
        let actions = sink(|out| p.on_payload(a(20), upd(0), t(1200), out));
        assert!(!assigns(&actions, 2), "request 0 sequenced twice");
        assert_eq!(p.stats().dedup_hits, 1);
    }

    #[test]
    fn assignment_at_or_below_the_commit_point_is_a_commit_record() {
        let mut p = gw(1);
        p.on_payload(a(2), transfer_at_1(), t(100), &mut Vec::new());
        // A re-broadcast of what the transfer covered is not left pending.
        p.on_payload(a(0), assign(0, 1), t(200), &mut Vec::new());
        assert!(p.discipline.gsn_assignments.is_empty());
        assert_eq!(p.committed_log().collect::<Vec<_>>(), [(1, request(0))]);
        p.on_payload(a(20), upd(0), t(300), &mut Vec::new());
        assert!(p.discipline.unassigned_updates.is_empty());
        assert_eq!(p.stats().dedup_hits, 1);
    }

    #[test]
    fn unsynced_replica_defers_reads() {
        let mut joiner = gw(10);
        joiner.on_restart(register(), t(0), &mut Vec::new());
        joiner.on_payload(a(0), snapshot(0, 0), t(1), &mut Vec::new());
        let actions = sink(|out| joiner.on_payload(a(20), read(0, 100), t(2), out));
        assert!(actions.is_empty(), "read deferred until synced");
        assert_eq!(joiner.stats().reads_deferred, 1);
    }

    #[test]
    fn restarted_leader_asks_a_peer() {
        conformance::restarted_leader_asks_a_peer::<Sequential>();
    }

    #[test]
    fn unsynced_replica_re_requests_from_the_next_donor() {
        conformance::unsynced_replica_re_requests_from_the_next_donor::<Sequential>();
    }

    #[test]
    fn stale_lazy_update_still_syncs() {
        conformance::stale_lazy_update_still_syncs::<Sequential>();
    }

    #[test]
    fn service_queue_is_sequential() {
        conformance::service_queue_is_sequential::<Sequential>();
    }

    #[test]
    fn snapshot_cache_evicts() {
        let mut p: ServerGateway = conformance::gw(1, conformance::config());
        let kept = SNAPSHOT_CACHE as u64;
        for i in 0..kept + 3 {
            p.on_payload(a(0), snapshot(i, 0), t(0), &mut Vec::new());
        }
        let cached = &p.discipline.read_snapshot_gsn;
        assert_eq!(cached.len(), SNAPSHOT_CACHE);
        assert!(!cached.contains_key(&request(2)), "the oldest are evicted");
        assert!(cached.contains_key(&request(3)));
    }

    #[test]
    fn ewma_seeds_with_first_sample() {
        conformance::ewma_seeds_with_first_sample::<Sequential>();
    }

    #[test]
    fn zero_deadline_never_sheds_on_deadline_grounds() {
        conformance::zero_deadline_never_sheds_on_deadline_grounds::<Sequential>();
    }

    /// A gateway whose durable storage is `tune`d away from the
    /// sync-before-ack preset.
    fn durable_with(i: usize, seed: u64, tune: impl FnOnce(&mut StorageConfig)) -> ServerGateway {
        let mut storage = StorageConfig::durable();
        tune(&mut storage);
        let mut s: ServerGateway = conformance::gw(
            i,
            ServerConfig {
                storage: storage.clone(),
                ..conformance::config()
            },
        );
        s.shell.durability = Some(Durability::new(storage, seed));
        s
    }

    fn durable_gw(i: usize) -> ServerGateway {
        conformance::gw(i, conformance::durable_config())
    }

    /// Commits `n` updates synchronously on `s` (assign + service). A
    /// non-sequencer primary additionally receives the sequencer's GSN
    /// assignments.
    fn commit_n(s: &mut ServerGateway, n: u64, from_ms: u64) -> SimTime {
        let mut now = t(from_ms);
        let mut actions = Vec::new();
        for seq in 0..n {
            s.on_payload(a(20), upd(seq), now, &mut actions);
            if !s.is_sequencer() {
                s.on_payload(a(0), assign(seq, seq + 1), now, &mut actions);
            }
            now = drain(s, &mut actions, now);
        }
        now
    }

    #[test]
    fn disabled_storage_has_no_sidecar() {
        conformance::disabled_storage_has_no_sidecar::<Sequential>();
    }

    #[test]
    fn commits_are_write_ahead_logged() {
        let mut s = durable_gw(0);
        let _ = commit_n(&mut s, 3, 0);
        assert_eq!(s.stats().wal_appends, 3);
        let d = s.durability().expect("storage enabled");
        assert_eq!(d.disk_stats().appends, 3);
    }

    #[test]
    fn crash_replay_restores_committed_state_without_transfer() {
        let mut s = durable_gw(0);
        let now = commit_n(&mut s, 5, 0);
        let committed: Vec<(u64, RequestId)> = s.committed_log().collect();
        s.crash_storage();
        let actions = sink(|out| s.on_restart(register(), now, out));
        assert_eq!(s.csn(), 5, "all fsynced commits replayed");
        assert_eq!(s.applied_csn(), 5);
        assert!(s.is_synced(), "replay syncs locally");
        assert_eq!(
            s.committed_log().collect::<Vec<_>>(),
            committed,
            "the committed log survives the crash"
        );
        assert!(s.stats().replayed_records >= 5);
        assert!(
            actions.iter().any(|x| matches!(
                x,
                ServerAction::SendDirect {
                    payload: Payload::DeltaRequest { have_csn: 5 },
                    ..
                }
            )),
            "replayed replica asks for a delta, not a full transfer: {actions:?}"
        );
    }

    #[test]
    fn snapshot_compacts_and_replay_resumes_from_it() {
        let _ = conformance::compaction_stages_snapshots_under_load::<Sequential>();
    }

    #[test]
    fn durable_secondary_persists_lazy_installs() {
        let _ = conformance::durable_secondary_persists_lazy_installs::<Sequential>();
    }

    #[test]
    fn empty_log_restart_falls_back_to_state_transfer() {
        let mut s = durable_gw(1);
        s.crash_storage();
        let actions = sink(|out| s.on_restart(register(), t(1), out));
        assert!(!s.is_synced(), "nothing durable: plain restart semantics");
        assert!(sends_state_request(&actions));
    }

    #[test]
    fn delta_request_served_from_mirror() {
        let mut donor = durable_gw(1);
        let now = commit_n(&mut donor, 6, 0);
        let delta = served(&mut donor, Payload::DeltaRequest { have_csn: 4 }, now);
        let Payload::DeltaResponse { from_csn, ops } = delta else {
            panic!("expected a delta response, got {delta:?}");
        };
        assert_eq!(from_csn, 4);
        assert_eq!(
            ops.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
            vec![5, 6],
            "exactly the missing tail"
        );
        // A register snapshot is smaller than two framed WAL records, so
        // `saved` saturates to zero here; savings for state-heavy objects
        // are exercised by the EXT-DUR experiments. The sent side must
        // still account the delta bytes.
        assert!(donor.stats().transfer_bytes_sent > 0);
    }

    #[test]
    fn delta_response_repairs_tail_and_logs_it() {
        let mut donor = durable_gw(1);
        let now = commit_n(&mut donor, 6, 0);
        let delta = served(&mut donor, Payload::DeltaRequest { have_csn: 4 }, now);
        let mut rec = durable_gw(2);
        let _ = commit_n(&mut rec, 4, 0);
        rec.crash_storage();
        rec.on_restart(register(), now, &mut Vec::new());
        assert_eq!(rec.csn(), 4);
        rec.on_payload(a(1), delta, now, &mut Vec::new());
        assert_eq!(rec.csn(), 6, "delta repairs the unseen tail");
        assert_eq!(rec.applied_csn(), 6);
        assert_eq!(
            rec.object().snapshot(),
            donor.object().snapshot(),
            "recovered state must equal the donor's"
        );
        // The repaired tail is itself durable: crash again and replay.
        rec.crash_storage();
        rec.on_restart(register(), now, &mut Vec::new());
        assert_eq!(rec.csn(), 6, "repaired commits survive a second crash");
    }

    #[test]
    fn group_commit_crash_loses_unsynced_tail_only() {
        let mut s = durable_with(0, 7, |storage| storage.fsync_every = 100);
        let now = commit_n(&mut s, 5, 0);
        // fsync_every = 100 means none of the five appends ever synced:
        // the crash wipes them and the replica must not claim durability.
        s.crash_storage();
        s.on_restart(register(), now, &mut Vec::new());
        assert!(
            s.csn() < 5 || !s.is_synced(),
            "unsynced commits must not replay as if durable (csn={})",
            s.csn()
        );
    }

    #[test]
    fn full_transfer_becomes_durable_baseline() {
        let mut donor = durable_gw(1);
        let now = commit_n(&mut donor, 3, 0);
        let mut rec = durable_gw(2);
        rec.crash_storage();
        rec.on_restart(register(), now, &mut Vec::new());
        assert!(!rec.is_synced(), "empty log: transfer-only path");
        let transfer = served(&mut donor, Payload::StateRequest, now);
        rec.on_payload(a(1), transfer, now, &mut Vec::new());
        assert!(rec.is_synced());
        assert_eq!(rec.csn(), 3);
        assert!(rec.stats().recovery_us < u64::MAX);
        // The installed snapshot is immediately durable.
        rec.crash_storage();
        rec.on_restart(register(), now, &mut Vec::new());
        assert_eq!(rec.csn(), 3, "installed baseline survives a crash");
        assert!(rec.is_synced());
    }

    #[test]
    fn corrupt_log_quarantines_and_falls_back() {
        let mut s = durable_with(0, 11, |storage| storage.bit_flip_probability = 1.0);
        let now = commit_n(&mut s, 8, 0);
        s.crash_storage();
        let actions = sink(|out| s.on_restart(register(), now, out));
        let st = s.stats();
        if st.corrupt_logs > 0 {
            assert!(!s.is_synced(), "quarantined log must not claim sync");
            assert!(sends_state_request(&actions));
        } else {
            // The flip landed in the tail frame: dropped, prefix replayed.
            assert!(st.torn_tails_dropped > 0 || s.csn() == 8);
        }
    }
}
