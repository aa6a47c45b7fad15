//! Golden pins for the client gateway as a state machine: one scripted
//! request history driven straight into [`ClientGateway`] under every
//! ordering guarantee × recovery {off, on} × overload {off, on}, with every
//! action the gateway emits and every trace event it records folded into
//! one hash per cell.
//!
//! The script covers cold and warm reads; timely, late, deferred and
//! duplicate replies; deadline → backoff → retry elsewhere; give-up; `Busy` from every target; `Busy` strikes excluding a replica
//! until its window expires and a timely reply clears it; the degradation
//! ladder walking down to local rejection
//! (with probes) and back up; view changes re-evaluating admission; update
//! retransmission reusing its causal stamp.
//!
//! What is hashed is a *semantic projection* (kind, target, request id,
//! attempt, timer purpose and delay, every `ResponseInfo` field, the causal
//! stamp), not `Debug` of a payload: the values were recorded on a gateway
//! whose callbacks each returned a fresh `Vec<ClientAction>` and whose
//! causal requests travelled as their own payload variants, and the gateway
//! that replaced it (caller-owned sink, one request dialect) must reproduce
//! them. Only the two functions under "calling convention" know either of
//! those things, and only they were edited for it. Re-baseline only
//! for a deliberate protocol change, using the ignored printer at the
//! bottom.
//!
//! A timer armed for one attempt that is still pending when a
//! `Busy`-accelerated retry has already started the next one must not end
//! that next attempt — see [`stale_retry_timer_spares_the_next_update_attempt`]
//! and [`stale_deadline_timer_spares_the_next_read_attempt`].

use aqf_core::client::{ClientAction, ClientConfig, ClientGateway, RecoveryPolicy, TimerPurpose};
use aqf_core::wire::{
    Method, Operation, Payload, PerfBroadcast, PublisherInfo, ReadMeasurement, Reply, RequestId,
    PRIMARY_GROUP, SECONDARY_GROUP,
};
use aqf_core::{ObsHandle, OperationKind, OrderingGuarantee, QosSpec};
use aqf_group::{View, ViewId};
use aqf_sim::{ActorId, Digest, SimDuration, SimTime};
use std::rc::Rc;

// --- calling convention: the only code that knows how the gateway is
// --- called and which payload variant carries a request ---

/// One call into the gateway.
enum Call {
    Read(QosSpec),
    /// The client's `n`-th update.
    Update(u64),
    Timer(RequestId, TimerPurpose, u32),
    Deliver(ActorId, Payload),
    View(View),
}

/// Makes `call` at `now`: the request id a submit allocated, and every
/// action the gateway emitted.
fn acts(c: &mut ClientGateway, call: Call, now: SimTime) -> (Option<RequestId>, Vec<ClientAction>) {
    let mut out = Vec::new();
    let id = match call {
        Call::Read(qos) => {
            Some(c.submit_read(Operation::new(Method::Get, Vec::new()), qos, now, &mut out))
        }
        Call::Update(n) => {
            let op = Operation::new(Method::Set, format!("v{n}").into_bytes());
            Some(c.submit_update(op, now, &mut out))
        }
        Call::Timer(req, purpose, attempt) => {
            c.on_timer(req, purpose, attempt, now, &mut out);
            None
        }
        Call::Deliver(from, payload) => {
            c.on_payload(from, payload, now, &mut out);
            None
        }
        Call::View(view) => {
            c.on_view(Rc::new(view), now, &mut out);
            None
        }
    };
    (id, out)
}

/// What a request payload says, whichever variant carries it.
struct Request<'a> {
    read: bool,
    id: RequestId,
    op: &'a Operation,
    attempt: u32,
    staleness_threshold: u32,
    deadline_us: u64,
    update_seq: Option<u64>,
    deps: &'a [(ActorId, u64)],
}

fn request(payload: &Payload) -> Request<'_> {
    match payload {
        Payload::Read(r) => Request {
            read: true,
            id: r.id,
            op: &r.op,
            attempt: r.attempt,
            staleness_threshold: r.staleness_threshold,
            deadline_us: r.deadline_us,
            update_seq: None,
            deps: &r.deps,
        },
        Payload::Update(u, stamp) => Request {
            read: false,
            id: u.id,
            op: &u.op,
            attempt: u.attempt,
            staleness_threshold: 0,
            deadline_us: 0,
            update_seq: stamp.as_ref().map(|s| s.update_seq),
            deps: stamp.as_ref().map_or(&[], |s| &s.deps),
        },
        other => panic!("a client gateway sends only requests, not {other:?}"),
    }
}

// --- projection ---

fn vector(v: &[(ActorId, u64)]) -> String {
    let entries: Vec<String> = v
        .iter()
        .map(|(c, n)| format!("{}:{n}", c.index()))
        .collect();
    format!("[{}]", entries.join(","))
}

fn purpose_name(purpose: TimerPurpose) -> &'static str {
    match purpose {
        TimerPurpose::Transmit => "transmit",
        TimerPurpose::Deadline => "deadline",
        TimerPurpose::GiveUp => "give-up",
        TimerPurpose::Retry => "retry",
        TimerPurpose::Backoff => "backoff",
    }
}

fn describe_request(payload: &Payload) -> String {
    let r = request(payload);
    format!(
        "{} {} attempt={} op={}/{:?} a={} d={}us seq={:?} deps={}",
        if r.read { "read" } else { "update" },
        r.id,
        r.attempt,
        r.op.method,
        &r.op.payload[..],
        r.staleness_threshold,
        r.deadline_us,
        r.update_seq,
        vector(r.deps),
    )
}

fn describe(action: &ClientAction) -> String {
    match action {
        ClientAction::MulticastPrimary(p) => format!("multicast {}", describe_request(p)),
        ClientAction::SendDirect { to, payload } => {
            format!("send to={} {}", to.index(), describe_request(payload))
        }
        ClientAction::ArmTimer {
            req,
            purpose,
            after,
            ..
        } => format!(
            "timer {req} {} after={}us",
            purpose_name(*purpose),
            after.as_micros()
        ),
        ClientAction::Completed(i) => format!(
            "completed {} {} result={:?} response={}us timely={} deferred={} staleness={} \
             timed_out={} shed={} degraded={} selected={} csn={} vector={}",
            i.req,
            match i.kind {
                OperationKind::ReadOnly => "read",
                OperationKind::Update => "update",
            },
            &i.result[..],
            i.response_time.as_micros(),
            i.timely,
            i.deferred,
            i.staleness,
            i.timed_out,
            i.shed,
            i.degraded,
            i.replicas_selected,
            i.csn,
            vector(&i.vector),
        ),
        ClientAction::QosAlert {
            observed_timely,
            requested,
        } => format!(
            "alert observed={:#018x} requested={:#018x}",
            observed_timely.to_bits(),
            requested.to_bits()
        ),
        ClientAction::Degrade {
            from_level,
            to_level,
        } => format!("degrade {from_level}->{to_level}"),
    }
}

// --- harness: the gateway, a virtual clock and the timers it armed ---

const ME: usize = 20;

fn a(i: usize) -> ActorId {
    ActorId::from_index(i)
}

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

fn primary_view() -> View {
    View::new(PRIMARY_GROUP, ViewId(0), vec![a(0), a(1), a(2)])
}

fn secondary_view() -> View {
    View::new(SECONDARY_GROUP, ViewId(0), vec![a(10), a(11), a(12)])
}

#[derive(Clone, Copy)]
struct Cell {
    ordering: OrderingGuarantee,
    recovery: bool,
    overload: bool,
}

impl Cell {
    fn name(self) -> String {
        format!(
            "{:?}/recovery-{}/overload-{}",
            self.ordering,
            if self.recovery { "on" } else { "off" },
            if self.overload { "on" } else { "off" },
        )
    }
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for ordering in [
        OrderingGuarantee::Sequential,
        OrderingGuarantee::Fifo,
        OrderingGuarantee::Causal,
    ] {
        for recovery in [false, true] {
            for overload in [false, true] {
                cells.push(Cell {
                    ordering,
                    recovery,
                    overload,
                });
            }
        }
    }
    cells
}

/// A timer the gateway armed.
#[derive(Clone, Copy)]
struct Armed {
    at: SimTime,
    due: SimTime,
    req: RequestId,
    purpose: TimerPurpose,
    attempt: u32,
}

struct Run {
    cell: Cell,
    c: ClientGateway,
    obs: ObsHandle,
    now: SimTime,
    /// Timers armed and not yet fired, in arming order.
    timers: Vec<Armed>,
    /// Every timer ever armed.
    armed: Vec<Armed>,
    /// Every direct send: request and recipient.
    sent: Vec<(RequestId, ActorId)>,
    updates: u64,
    lines: Vec<String>,
}

impl Run {
    fn new(cell: Cell) -> Self {
        let config = ClientConfig {
            seed: 7,
            ordering: cell.ordering,
            recovery: if cell.recovery {
                RecoveryPolicy::default()
            } else {
                RecoveryPolicy::disabled()
            },
            overload: cell.overload,
            ..ClientConfig::default()
        };
        let mut c = ClientGateway::new(a(ME), primary_view(), secondary_view(), config);
        let obs = ObsHandle::enabled();
        c.set_obs(obs.clone());
        Self {
            cell,
            c,
            obs,
            now: SimTime::ZERO,
            timers: Vec::new(),
            armed: Vec::new(),
            sent: Vec::new(),
            updates: 0,
            lines: Vec::new(),
        }
    }

    fn call(&mut self, what: String, call: Call) -> Option<RequestId> {
        self.lines.push(format!("@{} {what}", self.now.as_micros()));
        let (id, actions) = acts(&mut self.c, call, self.now);
        for action in &actions {
            match action {
                ClientAction::ArmTimer {
                    req,
                    purpose,
                    attempt,
                    after,
                } => {
                    let armed = Armed {
                        at: self.now,
                        due: self.now + *after,
                        req: *req,
                        purpose: *purpose,
                        attempt: *attempt,
                    };
                    self.timers.push(armed);
                    self.armed.push(armed);
                }
                ClientAction::SendDirect { to, payload } => {
                    self.sent.push((request(payload).id, *to));
                }
                _ => {}
            }
            self.lines.push(format!("  {}", describe(action)));
        }
        id
    }

    /// Advances the clock to `to`, firing every timer that comes due on the
    /// way, earliest first (arming order breaks ties).
    fn at(&mut self, to: SimTime) {
        assert!(to >= self.now, "the script runs forwards");
        while let Some(pos) = self
            .timers
            .iter()
            .enumerate()
            .filter(|(_, t)| t.due <= to)
            .min_by_key(|(i, t)| (t.due, *i))
            .map(|(i, _)| i)
        {
            let t = self.timers.remove(pos);
            self.now = t.due;
            self.call(
                format!("timer {} {}", t.req, purpose_name(t.purpose)),
                Call::Timer(t.req, t.purpose, t.attempt),
            );
        }
        self.now = to;
    }

    fn read(&mut self, qos: QosSpec) -> RequestId {
        self.call("read".into(), Call::Read(qos))
            .expect("a submit allocates an id")
    }

    fn update(&mut self) -> RequestId {
        self.updates += 1;
        self.call(
            format!("update {}", self.updates),
            Call::Update(self.updates),
        )
        .expect("a submit allocates an id")
    }

    /// Every replica `req` was sent to so far, in sending order.
    fn targets(&self, req: RequestId) -> Vec<ActorId> {
        let mut targets = Vec::new();
        for (r, to) in &self.sent {
            if *r == req && !targets.contains(to) {
                targets.push(*to);
            }
        }
        targets
    }

    fn reply(&mut self, req: RequestId, from: ActorId, deferred: bool, csn: u64) {
        // Only a causal replica stamps a vector on its replies.
        let vector = if self.cell.ordering == OrderingGuarantee::Causal {
            vec![(a(ME), self.updates), (a(ME + 1), csn)]
        } else {
            Vec::new()
        };
        let reply = Reply {
            id: req,
            result: bytes::Bytes::from(format!("r{csn}").into_bytes()),
            t1_us: 9_000,
            staleness: u64::from(deferred),
            deferred,
            csn,
            vector,
        };
        self.call(
            format!(
                "reply {req} from={} deferred={deferred} csn={csn}",
                from.index()
            ),
            Call::Deliver(from, Payload::Reply(reply)),
        );
    }

    fn busy(&mut self, req: RequestId, from: ActorId) {
        self.call(
            format!("busy {req} from={}", from.index()),
            Call::Deliver(from, Payload::Busy { req }),
        );
    }

    /// Performance broadcasts from every replica: distinct service times,
    /// deferred-read history at the secondaries, and the publisher's
    /// update-rate bookkeeping.
    fn warm(&mut self) {
        for (k, replica) in [0, 1, 2, 10, 11, 12].into_iter().enumerate() {
            for sample in 0..10u64 {
                let perf = PerfBroadcast {
                    read: Some(ReadMeasurement {
                        ts_us: 8_000 + 1_000 * k as u64 + 100 * sample,
                        tq_us: 500 * (sample % 3),
                        tb_us: if replica >= 10 && sample % 4 == 0 {
                            150_000
                        } else {
                            0
                        },
                    }),
                    publisher: (replica == 2).then_some(PublisherInfo {
                        n_u: 2,
                        t_u: SimDuration::from_millis(500),
                        n_l: 1 + sample % 2,
                        t_l: SimDuration::from_millis(100 * sample),
                        period: SimDuration::from_secs(2),
                    }),
                };
                self.call(
                    format!("perf from={replica}"),
                    Call::Deliver(a(replica), Payload::Perf(perf)),
                );
            }
        }
    }

    fn view(&mut self, view: View) {
        self.call(
            format!(
                "view group={} id={} members={:?}",
                view.group.0,
                view.id.0,
                view.members().iter().map(|m| m.index()).collect::<Vec<_>>()
            ),
            Call::View(view),
        );
    }

    /// The transcript: calls, projected actions, final counters, trace.
    fn finish(mut self) -> Vec<String> {
        let c = &self.c;
        // `ClientStats` as recorded, when it still had `hedges` after
        // `retries` and ended in `breaker_opens`: both slots stay, at 0, so
        // cells no hedge was sent and no breaker ever opened in keep their
        // hashes.
        let stats =
            format!("{:?}", c.stats()).replacen(", quarantines: ", ", hedges: 0, quarantines: ", 1);
        let stats = stats.strip_suffix(" }").expect("a struct's Debug");
        self.lines
            .push(format!("stats {stats}, breaker_opens: 0 }}"));
        self.lines.push(format!(
            "detector total={} failures={} level={} transitions={:?}",
            c.detector().total(),
            c.detector().failures(),
            c.degrade_level(),
            c.degrade_transitions()
        ));
        let mut counts: Vec<(usize, u64)> = c
            .selection_counts()
            .iter()
            .map(|(r, n)| (r.index(), *n))
            .collect();
        counts.sort_unstable();
        self.lines.push(format!(
            "selected {counts:?} mean_predicted={:?}",
            c.mean_predicted().map(f64::to_bits)
        ));
        let report = self.obs.take_report().expect("enabled handle");
        self.lines
            .extend(report.trace_jsonl().lines().map(|l| format!("trace {l}")));
        self.lines
    }
}

fn spec() -> QosSpec {
    QosSpec::new(2, SimDuration::from_millis(200), 0.9).expect("valid qos")
}

/// The scripted history. Times are absolute virtual milliseconds; `at`
/// fires whatever timers the gateway armed as they come due, so every
/// stale timer of every abandoned attempt fires too.
fn script(r: &mut Run) {
    // Cold read: every candidate is selected. The first reply completes
    // it; its duplicate and a second replica's deferred reply only feed
    // the repository.
    let r0 = r.read(spec());
    r.at(ms(1));
    let sent = r.targets(r0);
    r.at(ms(50));
    r.reply(r0, sent[0], false, 0);
    r.at(ms(60));
    r.reply(r0, sent[0], false, 0);
    r.at(ms(70));
    r.reply(r0, sent[1], true, 0);

    // Warm read whose only reply arrives after the deadline: with recovery
    // the backoff and a retry elsewhere happen in between.
    r.at(ms(300));
    r.warm();
    r.at(ms(1_000));
    let r1 = r.read(spec());
    r.at(ms(1_400));
    let last = *r.targets(r1).last().expect("transmitted");
    r.reply(r1, last, true, 0);

    // An acknowledged update, then one nobody acknowledges: every
    // retransmission reuses the request (and its causal stamp) until
    // give-up.
    r.at(ms(2_000));
    let u = r.update();
    r.at(ms(2_010));
    r.reply(u, a(1), false, 1);
    r.at(ms(3_000));
    r.update();
    r.at(ms(14_000));

    // Three reads nobody answers: retries, give-up, quarantine strikes.
    for k in 0..3 {
        r.at(ms(15_000 + 12_000 * k));
        r.read(spec());
    }
    r.at(ms(52_000));

    // `Busy` from every target; the accelerated retry is answered in time.
    r.at(ms(60_000));
    let r5 = r.read(spec());
    r.at(ms(60_001));
    for target in r.targets(r5) {
        r.at(ms(60_002));
        r.busy(r5, target);
    }
    r.at(ms(60_100));
    let last = *r.targets(r5).last().expect("transmitted");
    r.reply(r5, last, false, 1);

    // `Busy` from every target again, but nobody answers attempt 2 before
    // attempt 1's Deadline timer fires (known defect, see the module docs).
    r.at(ms(62_000));
    let r6 = r.read(spec());
    r.at(ms(62_001));
    for target in r.targets(r6) {
        r.at(ms(62_002));
        r.busy(r6, target);
    }
    r.at(ms(62_450));
    let last = *r.targets(r6).last().expect("transmitted");
    r.reply(r6, last, false, 1);

    // An update the sequencer sheds: the submit-time Retry timer outlives
    // the accelerated retry (known defect).
    r.at(ms(64_000));
    let u = r.update();
    r.at(ms(64_005));
    r.busy(u, a(0));
    r.at(ms(65_100));
    r.reply(u, a(1), false, 2);

    // Three straight refusals from replica 1 strike it out of selection;
    // its own timely replies later clear it.
    for k in 0..3 {
        let t0 = 70_000 + 300 * k;
        r.at(ms(t0));
        let id = r.read(spec());
        r.at(ms(t0 + 1));
        r.at(ms(t0 + 2));
        r.busy(id, a(1));
        r.at(ms(t0 + 40));
        r.reply(id, a(2), false, 2);
    }
    for (t0, from) in [(71_000, a(2)), (71_700, a(1)), (72_000, a(1))] {
        r.at(ms(t0));
        let id = r.read(spec());
        r.at(ms(t0 + 40));
        r.reply(id, from, false, 2);
    }

    // Membership changes re-evaluate admission; a replayed old view does
    // not.
    r.at(ms(75_000));
    r.view(primary_view().successor(&[a(2)], &[]).expect("member"));
    r.view(primary_view());
    r.view(secondary_view().successor(&[a(12)], &[]).expect("member"));

    // Ladder: unanswered reads walk it down rung by rung to local
    // rejection, where only sparse probes go out.
    for k in 0..130 {
        r.at(ms(80_000 + 100 * k));
        r.read(spec());
        if k == 40 {
            let view = secondary_view().successor(&[a(12)], &[]).expect("member");
            r.view(view.successor(&[], &[a(12)]).expect("not a member"));
        }
    }
    // Timely replies walk it back up.
    for k in 0..130 {
        let t0 = 93_000 + 100 * k;
        r.at(ms(t0));
        let id = r.read(spec());
        r.at(ms(t0 + 30));
        if let Some(&first) = r.targets(id).first() {
            r.reply(id, first, false, 3);
        }
    }
    // Let every outstanding give-up fire.
    r.at(ms(120_000));
}

fn transcript(cell: Cell) -> Vec<String> {
    let mut r = Run::new(cell);
    script(&mut r);
    let stats = r.c.stats();
    // The script must reach what it claims to pin.
    assert_eq!(stats.updates, 3, "{}", cell.name());
    assert!(
        stats.give_ups > 0 && stats.late_replies == 0,
        "{}",
        cell.name()
    );
    assert_eq!(
        stats.retries > 0 && stats.quarantines > 0,
        cell.recovery,
        "{}: {stats:?}",
        cell.name()
    );
    assert_eq!(
        stats.busy_rejections > 0
            && stats.quarantines > 0
            && stats.local_sheds > 0
            && stats.degrade_transitions >= 6
            && stats.admission_reevals > 0,
        cell.overload,
        "{}: {stats:?}",
        cell.name()
    );
    if cell.overload {
        assert_eq!(r.c.degrade_level(), 0, "{}: recovered", cell.name());
    }
    r.finish()
}

fn hash(lines: &[String]) -> u64 {
    let mut d = Digest::new();
    for line in lines {
        for byte in line.bytes() {
            d.mix(u64::from(byte));
        }
        d.mix(u64::from(b'\n'));
    }
    d.value()
}

#[test]
fn scripted_histories_unchanged() {
    for (cell, expected) in cells().into_iter().zip(HASHES) {
        let lines = transcript(cell);
        assert_eq!(
            hash(&lines),
            expected,
            "{}: {} transcript lines",
            cell.name(),
            lines.len()
        );
    }
}

/// A timer armed for an earlier attempt does not end the current one. An
/// update's submit-time Retry timer (`UPDATE_RETRY_AFTER`) is still armed
/// when a `Busy` starts attempt 2 early; when it fires it is ignored, so
/// attempt 2 runs its whole window and attempt 3 leaves a backoff after it.
#[test]
fn stale_retry_timer_spares_the_next_update_attempt() {
    let mut r = Run::new(Cell {
        ordering: OrderingGuarantee::Sequential,
        recovery: true,
        overload: true,
    });
    let retry_after = aqf_core::client::UPDATE_RETRY_AFTER;
    let u = r.update();
    r.at(ms(5));
    r.busy(u, a(0));
    r.at(ms(900));
    assert_eq!(r.c.stats().retries, 1, "the Busy started attempt 2 early");
    let attempt_2 = *r.armed.last().expect("attempt 2's expiry timer");
    assert!(attempt_2.at < ms(5) + aqf_core::client::BASE_BACKOFF);
    assert_eq!(attempt_2.due, attempt_2.at + retry_after);
    let armed = r.armed.len();
    r.at(SimTime::ZERO + retry_after);
    assert_eq!(r.armed.len(), armed, "the submit-time timer ended nothing");
    r.at(attempt_2.due);
    let backoff = *r.armed.last().expect("attempt 3's backoff");
    assert_eq!(
        (backoff.at, backoff.req, backoff.purpose),
        (attempt_2.due, u, TimerPurpose::Backoff),
        "attempt 2 ended with its own window"
    );
    r.at(backoff.due - SimDuration::from_micros(1));
    assert_eq!(r.c.stats().retries, 1, "attempt 3 waits out its backoff");
    r.at(backoff.due);
    assert_eq!(r.c.stats().retries, 2);
}

/// The same rule on the read path, through attempt 1's `Deadline` timer:
/// after a `Busy`-accelerated retry it fires inside attempt 2's window. The
/// read's deadline has passed, so it records the timing failure, but it
/// neither charges attempt 2's targets nor arms attempt 3's backoff; attempt
/// 2's own window does that.
#[test]
fn stale_deadline_timer_spares_the_next_read_attempt() {
    let mut r = Run::new(Cell {
        ordering: OrderingGuarantee::Sequential,
        recovery: true,
        overload: true,
    });
    let id = r.read(spec());
    r.at(ms(1));
    for target in r.targets(id) {
        r.at(ms(2));
        r.busy(id, target);
    }
    r.at(ms(200));
    assert_eq!(r.c.stats().retries, 1, "the Busy started attempt 2 early");
    let attempt_2 = *r.armed.last().expect("attempt 2's expiry timer");
    assert_eq!(attempt_2.purpose, TimerPurpose::Retry);
    assert_eq!(attempt_2.due, attempt_2.at + spec().deadline);
    let armed = r.armed.len();
    r.at(ms(201));
    assert_eq!(
        r.c.stats().timing_failures,
        1,
        "the read missed its deadline"
    );
    assert_eq!(r.armed.len(), armed, "attempt 1's Deadline ended nothing");
    r.at(attempt_2.due);
    let backoff = *r.armed.last().expect("attempt 3's backoff");
    assert_eq!(
        (backoff.at, backoff.purpose),
        (attempt_2.due, TimerPurpose::Backoff),
        "attempt 2 ended with its own window"
    );
    r.at(backoff.due - SimDuration::from_micros(1));
    assert_eq!(r.c.stats().retries, 1, "attempt 3 waits out its backoff");
    r.at(backoff.due);
    assert_eq!(r.c.stats().retries, 2);
}

// --- Recorded on the gateway described in the module docs; re-recorded
// --- once when `ClientStats`' three CDF-cache counters became
// --- `cdf_evaluations` (the transcripts print the stats; no action or
// --- trace line moved); the six overload cells once more when `Busy`
// --- became a quarantine strike and the breakers went, the three with
// --- recovery on also because timers began carrying their attempt; the six
// --- recovery cells once more when the backoff became its own `backoff`
// --- timer (only that name moved in their transcripts); the six recovery
// --- cells once more when they stopped arming the hedged read (its timers,
// --- `hedge_sent` lines and the replies to its copies went, and a
// --- quarantine it had hastened opened later) ---

/// In [`cells`] order: sequential, FIFO, causal; within each, recovery off
/// then on; within each, overload off then on.
const HASHES: [u64; 12] = [
    0x4177_5df5_9161_cabe,
    0x8ea4_b203_6be5_0917,
    0xd50b_6aab_8ccb_4f10,
    0x2b5d_67bd_9460_947e,
    0xb2e8_eea1_8d60_dcc8,
    0x65d7_a8cf_950d_a6e4,
    0xfff9_c166_818b_855c,
    0xfee7_398d_9418_69bf,
    0x14c5_060f_2cda_c85e,
    0x6d2a_5649_f027_0d52,
    0xbf41_5f30_aec2_d3bc,
    0xdd3b_b88f_6f36_cbf9,
];

/// Re-baselining and diffing tool: prints every cell's hash and transcript.
/// `cargo test -p aqf-core --test client_golden -- --ignored --nocapture`
#[test]
#[ignore = "prints the transcripts behind the pinned hashes"]
fn print_transcripts() {
    for cell in cells() {
        let lines = transcript(cell);
        println!("== {} {:#018x}", cell.name(), hash(&lines));
        for line in &lines {
            println!("{line}");
        }
    }
}
