//! The per-node group communication endpoint.
//!
//! A [`GroupEndpoint`] lives inside a host actor and implements, for every
//! group the node belongs to or observes: leader-rooted liveness,
//! leader-driven view installation, reliable FIFO multicast (holdback + nack
//! retransmission), open-group multicast for non-members, and rejoin with a
//! fresh incarnation after a crash.
//!
//! Liveness is rooted at the leader (DESIGN.md §4.2): every tick the leader
//! announces its view to the members, and every other member sends one
//! heartbeat, to the most senior member it has not given up on. A member
//! judges silence only along the rank chain ahead of it, and the node at
//! the head of its own chain leads.
//!
//! Stream tips ride the leader's per-tick announce: it carries the tip of
//! every stream into the group that the leader knows, and a sender other
//! than the leader advertises its own tip to the leader alone. Facts that
//! only need repeating in case they were lost — a stream's tip at the
//! leader, a view in the eyes of its observers — follow one `Refresh`
//! schedule: re-sent 1, 2, 4, … ticks after they last changed, then once
//! per `failure_timeout`.

use crate::channel::ReceiveChannel;
use crate::detector::{flap_hold, FailureDetector, PhiAccrual, DAMPING_FORGET_AFTER};
use crate::msg::{DataMsg, Envelope, GroupMsg, SharedPayload, StreamTip};
use crate::view::{GroupId, View, ViewId, DENSE_IDS};
use aqf_sim::{ActorId, Context, SimDuration, SimTime, Timer};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

/// Timer kinds at or above this value are reserved for the group layer;
/// host actors must keep their own timer kinds below it.
pub const GROUP_TIMER_KIND_BASE: u32 = 0xFFFF_0000;

/// The single periodic maintenance timer (heartbeat or view announce,
/// failure checks, join retries).
const TICK_TIMER: u32 = GROUP_TIMER_KIND_BASE;

/// How many recently multicast messages a sender retains per group for
/// nack-driven retransmission; a receiver that falls further behind skips
/// the gap ([`GroupMsg::GapSkip`]).
pub const SENT_BUFFER_CAPACITY: usize = 4096;

const _: () = assert!(SENT_BUFFER_CAPACITY > 0);

/// Tuning knobs for a [`GroupEndpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointConfig {
    /// Period of the maintenance tick: the heartbeat (or, on the leader,
    /// the view announce) is sent and failures checked once per tick.
    pub tick_interval: SimDuration,
    /// A monitored member silent for longer than this is suspected: given
    /// up on by its juniors, excluded from the next view by the leader.
    pub failure_timeout: SimDuration,
    /// Failure-detection policy. [`FailureDetector::FixedTimeout`] (the
    /// default) suspects on `failure_timeout` of silence; the φ-accrual
    /// mode adapts the effective timeout to each peer's observed heartbeat
    /// jitter.
    pub detector: FailureDetector,
    /// Leader-side flap damping: an exponentially growing re-admission
    /// hold-down ([`flap_hold`]) for members that are repeatedly suspected
    /// and re-merged. Off (the default) re-admits immediately.
    pub damping: bool,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        Self {
            tick_interval: SimDuration::from_millis(250),
            failure_timeout: SimDuration::from_millis(1000),
            detector: FailureDetector::FixedTimeout,
            damping: false,
        }
    }
}

/// When a fact that has not changed is next re-sent: 1, 2, 4, … ticks after
/// it last changed, the gap doubling until it reaches the endpoint's cap —
/// `failure_timeout / tick_interval` ticks, so a receiver that lost every
/// earlier copy is never staler than the detection time of a failure — and
/// staying there.
#[derive(Debug, Clone, Copy)]
struct Refresh {
    /// Ticks until the next copy goes out.
    due_in: u32,
    /// The gap after that one.
    gap: u32,
}

impl Refresh {
    /// The schedule of a fact that has just changed.
    const FRESH: Self = Self { due_in: 1, gap: 1 };

    /// Counts one tick; whether a copy is due on it.
    fn tick(&mut self, cap: u32) -> bool {
        self.due_in -= 1;
        if self.due_in > 0 {
            return false;
        }
        self.due_in = self.gap;
        self.gap = (self.gap * 2).min(cap);
        true
    }
}

/// Membership declaration for one group at endpoint construction time.
///
/// Every member of a group must be constructed with the same initial view
/// (the deployment roster); views then evolve through failure detection and
/// joins.
#[derive(Debug, Clone)]
pub struct GroupMembership {
    /// The initial view (view id 0) of the group.
    pub view: View,
    /// Non-member actors to whom the leader announces views (e.g. the
    /// clients of a replicated service).
    pub observers: Vec<ActorId>,
}

/// High-level events handed back to the host actor.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupEvent<A> {
    /// A FIFO multicast payload became deliverable.
    Delivered {
        /// Group it was multicast into.
        group: GroupId,
        /// Originating actor.
        sender: ActorId,
        /// Application payload.
        payload: A,
    },
    /// An unordered point-to-point payload arrived.
    Direct {
        /// Originating actor.
        sender: ActorId,
        /// Application payload.
        payload: A,
    },
    /// A new view was installed (members) or observed (non-members).
    ViewChanged {
        /// The newly installed view, shared with the endpoint's own copy
        /// (and, for announced views, with every other recipient's).
        view: Rc<View>,
        /// Whether this node is a member of the new view.
        is_member: bool,
    },
}

/// One instant per actor — when each peer was last heard, or last followed
/// this node — in a table indexed by [`ActorId`]. Ids at or beyond
/// [`DENSE_IDS`] (the `aqf_sim::world::EXTERNAL` sender of an injected
/// message) are kept in a map beside it.
#[derive(Debug, Default)]
struct Clocks {
    dense: Vec<Option<SimTime>>,
    sparse: BTreeMap<ActorId, SimTime>,
}

impl Clocks {
    fn get(&self, m: ActorId) -> Option<SimTime> {
        match self.dense.get(m.index()) {
            Some(t) => *t,
            None if m.index() < DENSE_IDS => None,
            None => self.sparse.get(&m).copied(),
        }
    }

    fn insert(&mut self, m: ActorId, t: SimTime) {
        let i = m.index();
        if i >= DENSE_IDS {
            self.sparse.insert(m, t);
            return;
        }
        if i >= self.dense.len() {
            self.dense.resize(i + 1, None);
        }
        self.dense[i] = Some(t);
    }

    fn clear(&mut self) {
        self.dense.clear();
        self.sparse.clear();
    }

    /// Forgets every actor `keep` rejects.
    fn retain(&mut self, keep: impl Fn(ActorId) -> bool) {
        for (i, t) in self.dense.iter_mut().enumerate() {
            if t.is_some() && !keep(ActorId::from_index(i)) {
                *t = None;
            }
        }
        self.sparse.retain(|m, _| keep(*m));
    }
}

#[derive(Debug)]
struct MemberState<A> {
    view: Rc<View>,
    /// Whether this node currently appears in `view` (false while waiting to
    /// rejoin after a crash).
    in_view: bool,
    /// Size of the group's initial roster. A leader may only install views
    /// retaining a majority of this roster (the primary-partition rule), so
    /// a minority side of a network partition cannot form its own
    /// authoritative views and split the brain.
    roster_size: usize,
    /// No liveness clock of this group starts earlier: the instant this
    /// node started, restarted, began joining or received `view` from
    /// another node — or, for a view it installed itself, began leading.
    /// A peer owes this node no traffic before it.
    since: SimTime,
    last_heard: Clocks,
    /// When each member last sent this node a `Heartbeat` carrying the
    /// current view id, i.e. last declared this node the head of its rank
    /// chain: the positive evidence a leader needs to install a view.
    followers: Clocks,
    /// The control envelope this node's last tick sealed: its `Heartbeat`,
    /// or as the leader its `ViewAnnounce`. A tick whose message would not
    /// differ re-sends this one, a refcount bump (§4.7).
    last_tick: Option<Envelope<A>>,
    /// A reconfiguration is waiting for a majority of followers; the
    /// heartbeat that completes it installs the view without waiting for
    /// the next tick.
    awaiting_followers: bool,
    observers: Vec<ActorId>,
    /// When the observers next get a copy of the view this node leads,
    /// counted from its installation or from this node's first tick as the
    /// head of its chain.
    observer_refresh: Refresh,
    join_requests: BTreeSet<ActorId>,
    /// Arrival histories of the peers this node monitors (φ-accrual mode
    /// only): the rank chain ahead of it up to the member it follows, or
    /// every junior while it leads. Primed when a peer enters that set.
    accrual: BTreeMap<ActorId, PhiAccrual>,
    /// Members that announced a voluntary [`GroupMsg::Leave`]; excluded
    /// from the next view like suspects even though they keep talking.
    departing: BTreeSet<ActorId>,
    /// Monitored members currently past the suspicion threshold (cleared
    /// when the member is heard from again, leaves the monitored set, or is
    /// excluded).
    suspected: BTreeMap<ActorId, Suspicion>,
    /// Leader-side flap history for re-admission hold-down.
    flaps: BTreeMap<ActorId, FlapRecord>,
}

/// One monitored member's current suspicion.
#[derive(Debug, Clone, Copy)]
struct Suspicion {
    /// Onset of the silence that was judged.
    silent_from: SimTime,
    /// When the silence crossed the suspicion threshold. The next member
    /// of the rank chain is judged from this instant on: until then it
    /// owed this node no traffic.
    at: SimTime,
}

impl<A> MemberState<A> {
    fn new(view: Rc<View>, in_view: bool, roster_size: usize, observers: Vec<ActorId>) -> Self {
        Self {
            view,
            in_view,
            roster_size,
            since: SimTime::ZERO,
            last_heard: Clocks::default(),
            followers: Clocks::default(),
            last_tick: None,
            awaiting_followers: false,
            observers,
            observer_refresh: Refresh::FRESH,
            join_requests: BTreeSet::new(),
            accrual: BTreeMap::new(),
            departing: BTreeSet::new(),
            suspected: BTreeMap::new(),
            flaps: BTreeMap::new(),
        }
    }

    /// Starts every liveness clock afresh at `now`.
    fn restart_clocks(&mut self, now: SimTime) {
        self.since = now;
        self.followers.clear();
        self.awaiting_followers = false;
        self.suspected.clear();
        self.observer_refresh = Refresh::FRESH;
    }

    /// Whether this node leads `view` as installed (rank 0, in view).
    fn leads_view(&self, me: ActorId) -> bool {
        self.in_view && self.view.leader() == me
    }

    /// Whether `m`, whose clock started no earlier than `floor`, is suspect
    /// at `now`. Stamps the first crossing of the threshold and forgets it
    /// once the member is heard from again.
    fn judge(
        &mut self,
        config: &EndpointConfig,
        stats: &mut GroupStats,
        m: ActorId,
        floor: SimTime,
        now: SimTime,
    ) -> bool {
        let silent_from = self.last_heard.get(m).map_or(floor, |t| t.max(floor));
        let suspect = match config.detector {
            FailureDetector::FixedTimeout => {
                now.saturating_since(silent_from) > config.failure_timeout
            }
            FailureDetector::PhiAccrual => self
                .accrual
                .entry(m)
                .or_insert_with(|| PhiAccrual::new(config.tick_interval, silent_from))
                .is_suspect(now),
        };
        if !suspect {
            self.suspected.remove(&m);
        } else if let Entry::Vacant(slot) = self.suspected.entry(m) {
            slot.insert(Suspicion {
                silent_from,
                at: now,
            });
            stats.suspicions += 1;
            let silence = now.saturating_since(silent_from).as_micros();
            stats.max_suspect_silence_us = stats.max_suspect_silence_us.max(silence);
        }
        suspect
    }

    /// Walks the rank chain ahead of `me`: the leader is judged from when
    /// it was last heard, each further member only from the instant its
    /// predecessor became suspect. Returns the most senior member not given
    /// up on, or `None` if `me` is the head of its own chain and leads.
    fn chain_head(
        &mut self,
        config: &EndpointConfig,
        stats: &mut GroupStats,
        me: ActorId,
        now: SimTime,
    ) -> Option<ActorId> {
        let view = Rc::clone(&self.view);
        let mut floor = self.since;
        for &m in view.seniors(me) {
            if !self.judge(config, stats, m, floor, now) {
                // Everyone junior to the head owes this node nothing.
                let ahead = view.seniors(m);
                self.suspected.retain(|s, _| ahead.contains(s));
                self.accrual.retain(|s, _| *s == m || ahead.contains(s));
                self.awaiting_followers = false;
                return Some(m);
            }
            floor = floor.max(self.suspected[&m].at);
        }
        None
    }

    /// The instant `me` became the head of its own chain — `since` for the
    /// leader of the view, the moment the last senior was given up on for a
    /// successor — or `None` while some senior is not suspected.
    fn leading_since(&self, me: ActorId) -> Option<SimTime> {
        let mut since = self.since;
        for m in self.view.seniors(me) {
            since = since.max(self.suspected.get(m)?.at);
        }
        Some(since)
    }

    /// This node's heartbeat into `group` under the current view id.
    fn heartbeat(&mut self, group: GroupId) -> Envelope<A> {
        let view_id = self.view.id;
        match &self.last_tick {
            Some(env) if matches!(**env, GroupMsg::Heartbeat { view_id: v, .. } if v == view_id) => {
                Rc::clone(env)
            }
            _ => Rc::clone(
                self.last_tick
                    .insert(GroupMsg::Heartbeat { group, view_id }.seal()),
            ),
        }
    }
}

/// The leader's per-tick announce of `view`, relaying `tips`: the envelope
/// of the `last_tick` again when it announced the same view and tips.
fn tick_announce<A>(
    last_tick: &mut Option<Envelope<A>>,
    view: &Rc<View>,
    tips: impl Iterator<Item = StreamTip> + Clone,
) -> Envelope<A> {
    if let Some(env) = last_tick {
        if let GroupMsg::ViewAnnounce {
            view: sent,
            tips: relayed,
        } = &**env
        {
            if Rc::ptr_eq(sent, view) && relayed.iter().copied().eq(tips.clone()) {
                return Rc::clone(env);
            }
        }
    }
    let env = GroupMsg::ViewAnnounce {
        view: Rc::clone(view),
        tips: tips.collect(),
    }
    .seal();
    Rc::clone(last_tick.insert(env))
}

/// One member's suspect/re-merge history, as tracked by the leader.
#[derive(Debug, Clone, Copy)]
struct FlapRecord {
    count: u32,
    last_flap: SimTime,
    hold_until: SimTime,
}

/// Per-group multicast send state. The retransmission buffer holds the
/// *sealed envelopes* that were originally multicast, so serving a nack is
/// a refcount bump — and byte-identical to the first transmission by
/// construction (the buffer is cleared on restart, so every stored
/// envelope carries the current incarnation).
#[derive(Debug)]
struct SendState<A> {
    next_seq: u64,
    buffer: VecDeque<(u64, Envelope<A>)>,
    /// When the stream's tip is next advertised to the leader, counted from
    /// the last multicast or from the first view naming a new leader.
    advert: Refresh,
}

impl<A> Default for SendState<A> {
    fn default() -> Self {
        Self {
            next_seq: 0,
            buffer: VecDeque::new(),
            advert: Refresh::FRESH,
        }
    }
}

/// Transport-level counters maintained by an endpoint (diagnostics and
/// tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Application payloads multicast by this node.
    pub multicasts_sent: u64,
    /// Payloads delivered to the hosted application in FIFO order.
    pub delivered: u64,
    /// Duplicate or stale data messages dropped.
    pub duplicates_dropped: u64,
    /// Nacks this node sent (gaps it detected).
    pub nacks_sent: u64,
    /// Retransmissions this node served in response to nacks.
    pub retransmissions: u64,
    /// Views this node installed (as member).
    pub views_installed: u64,
    /// Members this node re-merged after partitions/restarts (leader only).
    pub merges: u64,
    /// Monitored members (seniors on this node's rank chain; every junior
    /// while it leads) that newly crossed the suspicion threshold.
    pub suspicions: u64,
    /// Join requests / stray heartbeats ignored because the member was in
    /// a flap-damping hold-down (leader only).
    pub joins_damped: u64,
    /// Longest silence at the moment a monitored member became suspect, in
    /// µs (time-to-suspect SLO).
    pub max_suspect_silence_us: u64,
    /// Longest lag from the start of a suspect member's silence to a view
    /// excluding it being installed, in µs (time-to-new-view SLO; leader
    /// only). Exceeds the time-to-suspect when the primary-partition rule
    /// or damping delays the reconfiguration past the detection.
    pub max_suspect_to_view_us: u64,
}

/// Group communication state machine embedded in a host actor.
///
/// `A` is the application payload type. The host forwards [`Envelope<A>`]s
/// to [`GroupEndpoint::handle_message`] and timers to
/// [`GroupEndpoint::handle_timer`], and reacts to the returned
/// [`GroupEvent`]s. Envelopes are shared, never deep-cloned: fan-out,
/// holdback, and retransmission all reference the sender's single
/// allocation.
#[derive(Debug)]
pub struct GroupEndpoint<A> {
    me: ActorId,
    config: EndpointConfig,
    /// Longest gap of a [`Refresh`] schedule, in ticks.
    refresh_cap: u32,
    incarnation: u64,
    groups: BTreeMap<GroupId, MemberState<A>>,
    observed: BTreeMap<GroupId, Rc<View>>,
    channels: BTreeMap<(GroupId, ActorId), ReceiveChannel<SharedPayload<A>>>,
    sends: BTreeMap<GroupId, SendState<A>>,
    /// After a restart, lazily created receive channels fast-forward to the
    /// first observed sequence number instead of nacking all of history;
    /// application-level state transfer covers the gap.
    fast_forward_new_channels: bool,
    stats: GroupStats,
}

/// The view of `group` held as a member or, failing that, as an observer.
fn view_of<'a, A>(
    groups: &'a BTreeMap<GroupId, MemberState<A>>,
    observed: &'a BTreeMap<GroupId, Rc<View>>,
    group: GroupId,
) -> Option<&'a View> {
    groups
        .get(&group)
        .map(|s| &*s.view)
        .or_else(|| observed.get(&group).map(|v| &**v))
}

/// The stream tips the leader of `group` relays on its per-tick announce:
/// its `own` stream's, and that of every stream it receives from a member
/// of its `view` or one of its `observers` — never from a sender outside
/// that roster, which the members may have no way to reach.
fn relayed_tips<'a, P>(
    group: GroupId,
    own: Option<StreamTip>,
    channels: &'a BTreeMap<(GroupId, ActorId), ReceiveChannel<P>>,
    view: &'a View,
    observers: &'a [ActorId],
) -> impl Iterator<Item = StreamTip> + Clone + 'a {
    let received = channels
        .range((group, ActorId::from_index(0))..)
        .take_while(move |((g, _), _)| *g == group)
        .filter(move |((_, sender), _)| view.contains(*sender) || observers.contains(sender))
        .map(|(&(_, sender), channel)| StreamTip {
            sender,
            incarnation: channel.incarnation(),
            next_seq: channel.tip(),
        });
    own.into_iter().chain(received)
}

/// A new leader of a group has heard none of this node's adverts into it:
/// the stream's tip is news again, and its advert schedule starts afresh.
fn advertise_to_new_leader<A>(sends: &mut BTreeMap<GroupId, SendState<A>>, old: &View, new: &View) {
    if old.leader() != new.leader() {
        if let Some(send) = sends.get_mut(&new.group) {
            send.advert = Refresh::FRESH;
        }
    }
}

/// An announce of `view` that relays no stream tips: every announce but
/// the leader's per-tick one.
fn announce<A>(view: &Rc<View>) -> Envelope<A> {
    GroupMsg::ViewAnnounce {
        view: Rc::clone(view),
        tips: Vec::new(),
    }
    .seal()
}

impl<A: Clone> GroupEndpoint<A> {
    /// Creates an endpoint for node `me` that is a member of `memberships`
    /// and an observer of `observes`.
    ///
    /// # Panics
    ///
    /// Panics if a membership's initial view does not contain `me`, or if
    /// the same group appears twice.
    pub fn new(
        me: ActorId,
        config: EndpointConfig,
        memberships: Vec<GroupMembership>,
        observes: Vec<View>,
    ) -> Self {
        let mut groups = BTreeMap::new();
        for m in memberships {
            assert!(
                m.view.contains(me),
                "initial view of {} does not contain {me}",
                m.view.group
            );
            let view = Rc::new(m.view);
            let roster_size = view.len();
            let prev = groups.insert(
                view.group,
                MemberState::new(view, true, roster_size, m.observers),
            );
            assert!(prev.is_none(), "duplicate membership declaration");
        }
        let mut observed = BTreeMap::new();
        for v in observes {
            assert!(
                !groups.contains_key(&v.group),
                "cannot both belong to and observe {}",
                v.group
            );
            observed.insert(v.group, Rc::new(v));
        }
        let ticks_per_timeout =
            config.failure_timeout.as_micros() / config.tick_interval.as_micros().max(1);
        Self {
            me,
            refresh_cap: u32::try_from(ticks_per_timeout).unwrap_or(u32::MAX).max(1),
            config,
            incarnation: 0,
            groups,
            observed,
            channels: BTreeMap::new(),
            sends: BTreeMap::new(),
            fast_forward_new_channels: false,
            stats: GroupStats::default(),
        }
    }

    /// Transport-level counters.
    pub fn stats(&self) -> GroupStats {
        self.stats
    }

    /// This node's id.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// The current sender incarnation (bumped on every restart).
    ///
    /// Invariant: incarnations are strictly monotonic over a process's
    /// lifetime and must never wrap — receivers discard messages from
    /// lower incarnations as stale, so a wrap-around would silently
    /// blackhole every message the reborn process sends. The counter is
    /// `u64` (not `u32`) so that even correlated-failure soak runs
    /// restarting the whole cluster in a tight loop cannot exhaust it:
    /// at one restart per microsecond, exhaustion takes ~584k years.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The current view of `group`, whether this node is a member or an
    /// observer.
    pub fn view(&self, group: GroupId) -> Option<&View> {
        view_of(&self.groups, &self.observed, group)
    }

    /// The leader of `group`'s current view.
    pub fn leader(&self, group: GroupId) -> Option<ActorId> {
        self.view(group).map(View::leader)
    }

    /// Whether this node leads `group`.
    pub fn is_leader(&self, group: GroupId) -> bool {
        self.groups
            .get(&group)
            .is_some_and(|s| s.leads_view(self.me))
    }

    /// Whether this node is currently a member of `group`'s view.
    pub fn is_member(&self, group: GroupId) -> bool {
        self.groups.get(&group).map(|s| s.in_view).unwrap_or(false)
    }

    /// Must be called from the host's `Actor::on_start`: arms the
    /// maintenance timer and initializes liveness bookkeeping.
    pub fn on_start(&mut self, ctx: &mut Context<'_, Envelope<A>>) {
        let now = ctx.now();
        for state in self.groups.values_mut() {
            state.restart_clocks(now);
        }
        ctx.set_timer(TICK_TIMER, self.config.tick_interval);
    }

    /// Must be called from the host's `Actor::on_restart`: bumps the
    /// incarnation, clears volatile channel state, and begins rejoining all
    /// groups this node belonged to.
    pub fn on_restart(&mut self, ctx: &mut Context<'_, Envelope<A>>) {
        self.incarnation += 1;
        self.channels.clear();
        self.sends.clear();
        self.fast_forward_new_channels = true;
        let now = ctx.now();
        let me = self.me;
        for (group, state) in self.groups.iter_mut() {
            // Assume we were excluded; ask to be let back in. If we were
            // never excluded, the leader answers with the view we hold, and
            // that announce lets us back in (`handle_view`) unless it names
            // us leader.
            state.in_view = false;
            state.join_requests.clear();
            state.last_heard.clear();
            state.accrual.clear();
            state.restart_clocks(now);
            ctx.multicast(
                state.view.members().iter().filter(|m| **m != me),
                GroupMsg::JoinRequest { group: *group }.seal(),
            );
        }
        ctx.set_timer(TICK_TIMER, self.config.tick_interval);
    }

    /// Reliably FIFO-multicasts `payload` into `group`.
    ///
    /// Members multicast to the current view (excluding themselves);
    /// non-members (open-group senders) multicast to the observed view. The
    /// sender does **not** deliver to itself.
    ///
    /// # Panics
    ///
    /// Panics if the group is neither a membership nor observed.
    pub fn multicast(&mut self, group: GroupId, payload: A, ctx: &mut Context<'_, Envelope<A>>) {
        let send = self.sends.entry(group).or_default();
        let seq = send.next_seq;
        send.next_seq += 1;
        send.advert = Refresh::FRESH;
        // Seal once; the retransmission buffer, every fan-out copy, and
        // every receiver's holdback entry all share this one allocation.
        let env = GroupMsg::Data(DataMsg {
            group,
            incarnation: self.incarnation,
            seq,
            payload,
        })
        .seal();
        send.buffer.push_back((seq, env.clone()));
        while send.buffer.len() > SENT_BUFFER_CAPACITY {
            send.buffer.pop_front();
        }
        self.stats.multicasts_sent += 1;
        let view = self
            .view(group)
            .unwrap_or_else(|| panic!("multicast into unknown {group}"));
        ctx.multicast(view.members().iter().filter(|m| **m != self.me), env);
    }

    /// Sends an unordered point-to-point payload (reply, state transfer).
    pub fn send_direct(&mut self, to: ActorId, payload: A, ctx: &mut Context<'_, Envelope<A>>) {
        ctx.send(to, GroupMsg::Direct(payload).seal());
    }

    /// Processes an incoming transport envelope, returning any events for
    /// the host application. The envelope is shared with the sender (and
    /// every other recipient); nothing in here clones its contents —
    /// holdback parks the envelope itself, and the payload is extracted
    /// exactly once, at delivery.
    pub fn handle_message(
        &mut self,
        from: ActorId,
        msg: Envelope<A>,
        ctx: &mut Context<'_, Envelope<A>>,
    ) -> Vec<GroupEvent<A>> {
        if let Some(group) = msg.group() {
            if let Some(state) = self.groups.get_mut(&group) {
                // The leader of our view knocking has restarted: it leads
                // nothing until it is let back in, so its knocks must not
                // keep it from being given up on.
                let knock = matches!(&*msg, GroupMsg::JoinRequest { .. });
                if !(knock && from == state.view.leader()) {
                    let now = ctx.now();
                    state.last_heard.insert(from, now);
                    if let Some(window) = state.accrual.get_mut(&from) {
                        window.heartbeat(now);
                    }
                }
            }
        }
        match &*msg {
            GroupMsg::Data(d) => {
                let (group, incarnation, seq) = (d.group, d.incarnation, d.seq);
                self.handle_data(from, group, incarnation, seq, msg, ctx)
            }
            GroupMsg::Direct(_) => vec![GroupEvent::Direct {
                sender: from,
                payload: SharedPayload::new(msg).into_owned(),
            }],
            GroupMsg::Nack {
                group,
                incarnation,
                from_seq,
                to_seq,
            } => {
                let (group, incarnation, from_seq, to_seq) =
                    (*group, *incarnation, *from_seq, *to_seq);
                self.handle_nack(from, group, incarnation, from_seq, to_seq, ctx);
                Vec::new()
            }
            GroupMsg::Heartbeat { group, view_id } => {
                let (group, view_id) = (*group, *view_id);
                self.handle_heartbeat(from, group, view_id, ctx)
            }
            GroupMsg::ViewAnnounce { view, tips } => {
                // An announce from a stale leader on the minority side of a
                // healed partition: re-merge the sender.
                let view = Rc::clone(view);
                let group = view.group;
                let stale_id = view.id;
                let mut events = self.handle_view(view, ctx.now());
                events.extend(self.merge_strayed(from, group, ctx));
                let Some(state) = self.groups.get(&group) else {
                    // Observers ignore the relayed tips.
                    return events;
                };
                // A stale announce from an ex-leader we have excluded: it
                // does not know the successor view (which omits it, so the
                // new leader never announces to it, and its own announces
                // go only to its stale membership — possibly omitting the
                // new leader). Echo the current view back so it steps down
                // and rejoins; without this, two disjoint-leader views can
                // deadlock forever.
                if state.in_view && stale_id < state.view.id && !state.view.contains(from) {
                    ctx.send(from, announce(&state.view));
                }
                // Each relayed tip is that sender's advert, as if it had
                // come straight from the sender.
                let me = self.me;
                for tip in tips.iter().filter(|t| t.sender != me) {
                    self.handle_stream_status(
                        tip.sender,
                        group,
                        tip.incarnation,
                        tip.next_seq,
                        ctx,
                    );
                }
                events
            }
            GroupMsg::JoinRequest { group } => {
                let group = *group;
                self.handle_join_request(from, group, ctx)
            }
            GroupMsg::Leave { group } => {
                let group = *group;
                self.handle_leave(from, group, ctx)
            }
            GroupMsg::StreamStatus {
                group,
                incarnation,
                next_seq,
            } => {
                let (group, incarnation, next_seq) = (*group, *incarnation, *next_seq);
                self.handle_stream_status(from, group, incarnation, next_seq, ctx);
                Vec::new()
            }
            GroupMsg::GapSkip {
                group,
                incarnation,
                resume_at,
            } => {
                let (group, incarnation, resume_at) = (*group, *incarnation, *resume_at);
                let Some(channel) = self.channels.get_mut(&(group, from)) else {
                    return Vec::new();
                };
                let released = channel.skip_to(incarnation, resume_at);
                self.stats.delivered += released.len() as u64;
                released
                    .into_iter()
                    .map(|payload| GroupEvent::Delivered {
                        group,
                        sender: from,
                        payload: payload.into_owned(),
                    })
                    .collect()
            }
        }
    }

    /// A heartbeat declares this node the head of the sender's rank chain.
    fn handle_heartbeat(
        &mut self,
        from: ActorId,
        group: GroupId,
        view_id: ViewId,
        ctx: &mut Context<'_, Envelope<A>>,
    ) -> Vec<GroupEvent<A>> {
        let (me, now) = (self.me, ctx.now());
        let Some(state) = self.groups.get_mut(&group) else {
            return Vec::new();
        };
        if view_id > state.view.id {
            // A peer with a newer view than ours: ask to be resynced by
            // requesting (re-)membership from it.
            ctx.send(from, GroupMsg::JoinRequest { group }.seal());
            return Vec::new();
        }
        if state.leads_view(me) {
            if !state.view.contains(from) {
                // A node outside our current view is a partitioned member
                // coming back: the leader re-merges it.
                return self.merge_strayed(from, group, ctx);
            }
            // (A member behind our view id gets the next per-tick announce.)
        } else if !state.view.contains(from) || view_id < state.view.id {
            // Redirect: the sender takes us for the head of its chain under
            // a view that has been replaced. Nobody else tells a member cut
            // off from the leader alone that it was excluded — its juniors
            // hear the leader and send it nothing.
            ctx.send(from, announce(&state.view));
            return Vec::new();
        }
        let mut events = Vec::new();
        if state.in_view && view_id == state.view.id {
            state.followers.insert(from, now);
            // The heartbeat that completes a majority installs the pending
            // view without waiting for the next tick.
            if state.awaiting_followers
                && state
                    .chain_head(&self.config, &mut self.stats, me, now)
                    .is_none()
            {
                self.reconfigure(group, ctx, &mut events);
            }
        }
        events
    }

    /// A tip of `sender`'s stream, advertised by the sender itself or
    /// relayed by the leader: nacks whatever this node still misses below
    /// it, straight from the sender.
    fn handle_stream_status(
        &mut self,
        sender: ActorId,
        group: GroupId,
        incarnation: u64,
        next_seq: u64,
        ctx: &mut Context<'_, Envelope<A>>,
    ) {
        let fast_forward = self.fast_forward_new_channels;
        let channel = self.channels.entry((group, sender)).or_insert_with(|| {
            let mut ch = ReceiveChannel::new();
            if fast_forward {
                // Skip the unrecoverable prefix; application-level state
                // transfer covers it.
                ch.fast_forward_to(incarnation, next_seq);
            }
            ch
        });
        if let Some((from_seq, to_seq)) = channel.observe_tip(incarnation, next_seq) {
            ctx.send(
                sender,
                GroupMsg::Nack {
                    group,
                    incarnation,
                    from_seq,
                    to_seq,
                }
                .seal(),
            );
        }
    }

    /// Processes a timer. Returns `None` if the timer does not belong to the
    /// group layer, otherwise any events produced by maintenance work.
    pub fn handle_timer(
        &mut self,
        timer: Timer,
        ctx: &mut Context<'_, Envelope<A>>,
    ) -> Option<Vec<GroupEvent<A>>> {
        if timer.kind != TICK_TIMER {
            return None;
        }
        let mut events = Vec::new();
        self.tick(ctx, &mut events);
        ctx.set_timer(TICK_TIMER, self.config.tick_interval);
        Some(events)
    }

    fn handle_data(
        &mut self,
        from: ActorId,
        group: GroupId,
        incarnation: u64,
        seq: u64,
        env: Envelope<A>,
        ctx: &mut Context<'_, Envelope<A>>,
    ) -> Vec<GroupEvent<A>> {
        let fast_forward = self.fast_forward_new_channels;
        let channel = self.channels.entry((group, from)).or_insert_with(|| {
            let mut ch = ReceiveChannel::new();
            if fast_forward {
                // Skip history we can never recover; state transfer at
                // the application layer covers it.
                ch.fast_forward_to(incarnation, seq);
            }
            ch
        });
        // The envelope itself is parked in the holdback queue: an
        // out-of-order message keeps sharing the sender's allocation
        // until its predecessors arrive.
        let mut events = Vec::new();
        let accepted = channel.accept_with(incarnation, seq, SharedPayload::new(env), |payload| {
            // Most arrivals release exactly one event: room for one, not
            // for the four an empty `Vec`'s first push makes.
            if events.is_empty() {
                events.reserve_exact(1);
            }
            events.push(GroupEvent::Delivered {
                group,
                sender: from,
                payload: payload.into_owned(),
            });
        });
        if let Some((from_seq, to_seq)) = accepted.nack {
            self.stats.nacks_sent += 1;
            ctx.send(
                from,
                GroupMsg::Nack {
                    group,
                    incarnation,
                    from_seq,
                    to_seq,
                }
                .seal(),
            );
        }
        if accepted.duplicate {
            self.stats.duplicates_dropped += 1;
        }
        self.stats.delivered += events.len() as u64;
        events
    }

    fn handle_nack(
        &mut self,
        requester: ActorId,
        group: GroupId,
        incarnation: u64,
        from_seq: u64,
        to_seq: u64,
        ctx: &mut Context<'_, Envelope<A>>,
    ) {
        if incarnation != self.incarnation {
            return; // request concerns a previous life of this process
        }
        let Some(send) = self.sends.get(&group) else {
            return;
        };
        let mut resent = 0;
        for (seq, env) in &send.buffer {
            if *seq >= from_seq && *seq <= to_seq {
                resent += 1;
                // Retransmission is the buffered envelope itself — a
                // refcount bump, bit-identical to the first transmission
                // (the buffer never outlives an incarnation).
                ctx.send(requester, env.clone());
            }
        }
        self.stats.retransmissions += resent;
        // Part of the request fell out of the bounded buffer: tell the
        // receiver to fast-forward instead of waiting forever.
        if let Some(&(oldest, _)) = send.buffer.front() {
            if from_seq < oldest {
                ctx.send(
                    requester,
                    GroupMsg::GapSkip {
                        group,
                        incarnation: self.incarnation,
                        resume_at: oldest,
                    }
                    .seal(),
                );
            }
        }
    }

    fn handle_view(&mut self, view: Rc<View>, now: SimTime) -> Vec<GroupEvent<A>> {
        let group = view.group;
        if let Some(state) = self.groups.get_mut(&group) {
            if view.id <= state.view.id {
                // A restart nobody excluded knocks on the view it still
                // holds; the answering announce of that view lets it back
                // in. A view naming it leader does not: a restarted leader
                // leads nothing until a successor view admits it.
                let readmits = view.id == state.view.id
                    && !state.in_view
                    && view.contains(self.me)
                    && view.leader() != self.me;
                if readmits {
                    state.in_view = true;
                    state.restart_clocks(now);
                }
                return Vec::new();
            }
            let departed = state.view.departed(&view);
            state.join_requests.retain(|j| !view.contains(*j));
            state.in_view = view.contains(self.me);
            // A view this node did not create: whoever it now monitors —
            // the leader, or as the new leader every junior — owes it
            // traffic only from here on. Forget departed members entirely;
            // only an unchanged leader's arrival history still applies.
            state.restart_clocks(now);
            let leader = view.leader();
            state.last_heard.retain(|m| view.contains(m));
            state
                .accrual
                .retain(|m, _| *m == leader && leader != self.me);
            state.departing.retain(|m| view.contains(*m));
            let old = std::mem::replace(&mut state.view, Rc::clone(&view));
            advertise_to_new_leader(&mut self.sends, &old, &view);
            for d in departed {
                if let Some(ch) = self.channels.get_mut(&(group, d)) {
                    ch.abandon_gaps();
                }
            }
            let is_member = state.in_view;
            self.stats.views_installed += 1;
            vec![GroupEvent::ViewChanged { view, is_member }]
        } else {
            // Strictly newer only: a refresh of the view already held is
            // not a change, and the host is told of each view once.
            if self.observed.get(&group).is_some_and(|v| view.id <= v.id) {
                return Vec::new();
            }
            if let Some(old) = self.observed.insert(group, Rc::clone(&view)) {
                advertise_to_new_leader(&mut self.sends, &old, &view);
            }
            vec![GroupEvent::ViewChanged {
                view,
                is_member: false,
            }]
        }
    }

    /// If this node leads `group` and `from` is alive but not in the
    /// current view (a healed partition's minority member, whose own stale
    /// view id never triggers a join), fold it back in. Returns the
    /// resulting view-change event for this node's own host, if any.
    fn merge_strayed(
        &mut self,
        from: ActorId,
        group: GroupId,
        ctx: &mut Context<'_, Envelope<A>>,
    ) -> Vec<GroupEvent<A>> {
        let Some(state) = self.groups.get_mut(&group) else {
            return Vec::new();
        };
        if !state.leads_view(self.me) || state.view.contains(from) {
            return Vec::new();
        }
        if Self::readmission_held(&self.config, state, from, ctx.now()) {
            self.stats.joins_damped += 1;
            return Vec::new();
        }
        state.departing.remove(&from);
        state.join_requests.insert(from);
        match self.install_successor(group, &[], ctx) {
            Some(view) => {
                self.stats.merges += 1;
                let is_member = view.contains(self.me);
                vec![GroupEvent::ViewChanged { view, is_member }]
            }
            None => Vec::new(),
        }
    }

    /// Whether flap damping currently forbids re-admitting `joiner`.
    fn readmission_held(
        config: &EndpointConfig,
        state: &MemberState<A>,
        joiner: ActorId,
        now: SimTime,
    ) -> bool {
        config.damping && state.flaps.get(&joiner).is_some_and(|r| now < r.hold_until)
    }

    fn handle_join_request(
        &mut self,
        joiner: ActorId,
        group: GroupId,
        ctx: &mut Context<'_, Envelope<A>>,
    ) -> Vec<GroupEvent<A>> {
        let Some(state) = self.groups.get_mut(&group) else {
            return Vec::new();
        };
        if !state.leads_view(self.me) {
            // Not the leader: point the joiner at the current view so it can
            // retry against the right node.
            ctx.send(joiner, announce(&state.view));
            return Vec::new();
        }
        if state.view.contains(joiner) {
            // Already in: refresh the joiner's view.
            ctx.send(joiner, announce(&state.view));
            return Vec::new();
        }
        if Self::readmission_held(&self.config, state, joiner, ctx.now()) {
            self.stats.joins_damped += 1;
            return Vec::new();
        }
        state.departing.remove(&joiner);
        state.join_requests.insert(joiner);
        match self.install_successor(group, &[], ctx) {
            Some(view) => {
                let is_member = view.contains(self.me);
                vec![GroupEvent::ViewChanged { view, is_member }]
            }
            None => Vec::new(),
        }
    }

    /// A member announced a voluntary departure: remember it as departing
    /// (the next leader tick excludes it) and, if this node leads, install
    /// the shrunken view immediately.
    fn handle_leave(
        &mut self,
        from: ActorId,
        group: GroupId,
        ctx: &mut Context<'_, Envelope<A>>,
    ) -> Vec<GroupEvent<A>> {
        let Some(state) = self.groups.get_mut(&group) else {
            return Vec::new();
        };
        if !state.view.contains(from) {
            return Vec::new();
        }
        state.departing.insert(from);
        state.join_requests.remove(&from);
        if !state.leads_view(self.me) {
            return Vec::new();
        }
        match self.install_successor(group, &[from], ctx) {
            Some(view) => {
                let is_member = view.contains(self.me);
                vec![GroupEvent::ViewChanged { view, is_member }]
            }
            None => Vec::new(),
        }
    }

    /// Voluntarily departs `group`: announces the departure to the current
    /// members and demotes the membership to an observed view, so
    /// open-group multicast into the group (and this node's existing send
    /// streams) keep working. No-op if this node is not a member.
    pub fn leave(&mut self, group: GroupId, ctx: &mut Context<'_, Envelope<A>>) {
        let Some(state) = self.groups.remove(&group) else {
            return;
        };
        ctx.multicast(
            state.view.members().iter().filter(|m| **m != self.me),
            GroupMsg::Leave { group }.seal(),
        );
        self.observed.insert(group, state.view);
    }

    /// Begins joining `group`, which this node currently observes (e.g. a
    /// secondary promoted into the primary group): converts the observed
    /// view into a not-yet-admitted membership and knocks with a join
    /// request. The leader's answering view announce flips the node to a
    /// full member; until then every tick keeps knocking. `observers` is
    /// the announce list this node will use if it ever leads the group.
    /// No-op if already a member or the group is unknown.
    pub fn begin_join(
        &mut self,
        group: GroupId,
        observers: Vec<ActorId>,
        ctx: &mut Context<'_, Envelope<A>>,
    ) {
        if self.groups.contains_key(&group) {
            return;
        }
        let Some(view) = self.observed.remove(&group) else {
            return;
        };
        let now = ctx.now();
        // Without a shared FIFO history, the first data message observed on
        // each new channel fast-forwards instead of nacking the entire
        // stream prefix; application-level state transfer covers the gap
        // (same contract as a post-crash rejoin).
        self.fast_forward_new_channels = true;
        let roster_size = view.len() + 1;
        let mut state = MemberState::new(view, false, roster_size, observers);
        state.restart_clocks(now);
        ctx.multicast(
            state.view.members().iter().filter(|m| **m != self.me),
            GroupMsg::JoinRequest { group }.seal(),
        );
        self.groups.insert(group, state);
    }

    /// Installs `view.successor(suspects, pending joiners)` for `group` and
    /// announces it to old members, new members, and observers.
    fn install_successor(
        &mut self,
        group: GroupId,
        suspects: &[ActorId],
        ctx: &mut Context<'_, Envelope<A>>,
    ) -> Option<Rc<View>> {
        let me = self.me;
        let state = self.groups.get_mut(&group)?;
        let leading_since = state.leading_since(me)?;
        let added: Vec<ActorId> = state.join_requests.iter().copied().collect();
        let new_view = Rc::new(state.view.successor(suspects, &added)?);
        // Primary-partition rule: only a side retaining a majority of the
        // original roster may install views. A minority (e.g. an isolated
        // node that suspects everyone else) keeps its last view and waits
        // to be re-merged instead of forging ahead.
        if 2 * new_view.len() <= state.roster_size {
            return None;
        }
        // Positive evidence: silence alone proves nothing about members
        // that were never due to write to this node, so a majority of the
        // roster must be following it — heartbeating it as the head of
        // their chain — since it began leading, and recently. A successor
        // cut off from the leader alone never collects one.
        let now = ctx.now();
        let timeout = self.config.failure_timeout;
        let following = new_view
            .members()
            .iter()
            .filter(|m| {
                state
                    .followers
                    .get(**m)
                    .is_some_and(|t| t >= leading_since && now.saturating_since(t) <= timeout)
            })
            .count();
        if 2 * (following + 1) <= state.roster_size {
            state.awaiting_followers = true;
            return None;
        }
        state.awaiting_followers = false;
        // Record the flap history of every *suspected* exclusion (voluntary
        // leavers are not flaps) and the suspect-to-new-view SLO lag.
        for s in suspects {
            if new_view.contains(*s) {
                continue;
            }
            if let Some(suspicion) = state.suspected.remove(s) {
                // Time-to-new-view runs from the onset of silence, not the
                // suspicion threshold: suspicion and exclusion land in the
                // same tick on the leader, so the threshold-to-view gap
                // alone would read zero.
                let lag = now.saturating_since(suspicion.silent_from).as_micros();
                self.stats.max_suspect_to_view_us = self.stats.max_suspect_to_view_us.max(lag);
            }
            if self.config.damping && !state.departing.contains(s) {
                let rec = state.flaps.entry(*s).or_insert(FlapRecord {
                    count: 0,
                    last_flap: SimTime::ZERO,
                    hold_until: SimTime::ZERO,
                });
                if now.saturating_since(rec.last_flap) > DAMPING_FORGET_AFTER {
                    rec.count = 0;
                }
                rec.count += 1;
                rec.last_flap = now;
                rec.hold_until = now + flap_hold(rec.count);
            }
        }
        state.join_requests.clear();
        state.in_view = new_view.contains(me);
        // This node's leadership, and with it the juniors' clocks, carries
        // over into the view it created.
        state.since = leading_since;
        state.last_heard.retain(|m| new_view.contains(m));
        state.followers.retain(|m| new_view.contains(m));
        state.accrual.retain(|m, _| new_view.contains(*m));
        state.suspected.retain(|m, _| new_view.contains(*m));
        state.departing.retain(|m| new_view.contains(*m));
        state.observer_refresh = Refresh::FRESH;
        for &m in new_view.members() {
            if state.last_heard.get(m).is_none() {
                state.last_heard.insert(m, now);
            }
        }
        let old_view = std::mem::replace(&mut state.view, Rc::clone(&new_view));
        for d in old_view.departed(&new_view) {
            if let Some(ch) = self.channels.get_mut(&(group, d)) {
                ch.abandon_gaps();
            }
        }
        // One shared View and one envelope for the whole announce round:
        // every recipient's delivered copy, its installed member state,
        // and this node's own state all reference the same allocation.
        let mut recipients: BTreeSet<ActorId> = old_view.members().iter().copied().collect();
        recipients.extend(new_view.members().iter().copied());
        recipients.extend(state.observers.iter().copied());
        recipients.remove(&me);
        ctx.multicast(&recipients, announce(&new_view));
        Some(new_view)
    }

    /// The leader's failure check for `group`: excludes the seniors this
    /// node gave up on, the juniors that fell silent since it began
    /// leading, and voluntary leavers, and admits pending joiners. The
    /// caller has established that this node is the head of its chain.
    fn reconfigure(
        &mut self,
        group: GroupId,
        ctx: &mut Context<'_, Envelope<A>>,
        events: &mut Vec<GroupEvent<A>>,
    ) {
        let (me, now) = (self.me, ctx.now());
        let state = self.groups.get_mut(&group).expect("group exists");
        let Some(leading_since) = state.leading_since(me) else {
            return;
        };
        let view = Rc::clone(&state.view);
        // The seniors were given up on by the chain walk.
        let seniors = view.seniors(me);
        let mut suspects = seniors.to_vec();
        for &m in view.members()[seniors.len()..].iter().filter(|m| **m != me) {
            // Voluntary leavers are excluded like suspects, however alive
            // their liveness clock looks.
            if state.departing.contains(&m)
                || state.judge(&self.config, &mut self.stats, m, leading_since, now)
            {
                suspects.push(m);
            }
        }
        if suspects.is_empty() && state.join_requests.is_empty() {
            state.awaiting_followers = false;
            return;
        }
        if let Some(new_view) = self.install_successor(group, &suspects, ctx) {
            let is_member = new_view.contains(me);
            events.push(GroupEvent::ViewChanged {
                view: new_view,
                is_member,
            });
        }
    }

    fn tick(&mut self, ctx: &mut Context<'_, Envelope<A>>, events: &mut Vec<GroupEvent<A>>) {
        let (me, now, cap) = (self.me, ctx.now(), self.refresh_cap);
        // Advertise the tip of every multicast stream we originate to the
        // leader, which relays it to the members on its announces, so
        // receivers can detect tail losses and ask again for whatever a
        // nack or a retransmission lost: on the first tick after each
        // multicast, then backing off while the stream stays idle. The
        // leader's own tip rides every one of its announces.
        for (&group, send) in &mut self.sends {
            if !send.advert.tick(cap) {
                continue;
            }
            let Some(view) = view_of(&self.groups, &self.observed, group) else {
                continue;
            };
            if view.leader() != me {
                ctx.send(
                    view.leader(),
                    GroupMsg::StreamStatus {
                        group,
                        incarnation: self.incarnation,
                        next_seq: send.next_seq,
                    }
                    .seal(),
                );
            }
        }
        for i in 0..self.groups.len() {
            let (&group, state) = self.groups.iter_mut().nth(i).expect("index in range");
            if !state.in_view {
                // Keep knocking until a leader lets us back in.
                ctx.multicast(
                    state.view.members().iter().filter(|m| **m != me),
                    GroupMsg::JoinRequest { group }.seal(),
                );
                continue;
            }
            match state.chain_head(&self.config, &mut self.stats, me, now) {
                Some(head) => {
                    state.observer_refresh = Refresh::FRESH;
                    ctx.send(head, state.heartbeat(group));
                }
                None => {
                    // The leader's heartbeat is a full view announce, which
                    // also resynchronizes lagging members and relays every
                    // stream tip it knows. Observers owe the leader no
                    // judgement of its silence, so they get a copy only in
                    // case they lost the one sent at install, and ignore its
                    // tips. One shared envelope for the whole round, and
                    // for the next rounds while the view and tips stand.
                    let own = self.sends.get(&group).map(|send| StreamTip {
                        sender: me,
                        incarnation: self.incarnation,
                        next_seq: send.next_seq,
                    });
                    let tips =
                        relayed_tips(group, own, &self.channels, &state.view, &state.observers);
                    let announce = tick_announce(&mut state.last_tick, &state.view, tips);
                    let observers: &[ActorId] = if state.observer_refresh.tick(cap) {
                        &state.observers
                    } else {
                        &[]
                    };
                    ctx.multicast(
                        state
                            .view
                            .members()
                            .iter()
                            .chain(observers)
                            .filter(|m| **m != me),
                        announce,
                    );
                    self.reconfigure(group, ctx, events);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> ActorId {
        ActorId::from_index(i)
    }

    fn endpoint(me: usize, members: &[usize]) -> GroupEndpoint<u32> {
        let view = View::new(
            GroupId(1),
            crate::view::ViewId(0),
            members.iter().map(|&i| a(i)).collect(),
        );
        GroupEndpoint::new(
            a(me),
            EndpointConfig::default(),
            vec![GroupMembership {
                view,
                observers: vec![],
            }],
            vec![],
        )
    }

    #[test]
    fn accessors() {
        let ep = endpoint(0, &[0, 1, 2]);
        assert_eq!(ep.me(), a(0));
        assert_eq!(ep.leader(GroupId(1)), Some(a(0)));
        assert!(ep.is_leader(GroupId(1)));
        assert!(ep.is_member(GroupId(1)));
        assert_eq!(ep.view(GroupId(1)).unwrap().len(), 3);
        assert_eq!(ep.view(GroupId(9)), None);
        assert!(!ep.is_leader(GroupId(9)));
    }

    #[test]
    fn non_leader_is_not_leader() {
        let ep = endpoint(2, &[0, 1, 2]);
        assert!(!ep.is_leader(GroupId(1)));
        assert_eq!(ep.leader(GroupId(1)), Some(a(0)));
    }

    #[test]
    #[should_panic(expected = "does not contain")]
    fn membership_must_contain_me() {
        let view = View::new(GroupId(1), crate::view::ViewId(0), vec![a(1), a(2)]);
        let _ = GroupEndpoint::<u32>::new(
            a(0),
            EndpointConfig::default(),
            vec![GroupMembership {
                view,
                observers: vec![],
            }],
            vec![],
        );
    }

    #[test]
    #[should_panic(expected = "both belong to and observe")]
    fn member_and_observer_conflict() {
        let view = View::new(GroupId(1), crate::view::ViewId(0), vec![a(0), a(1)]);
        let _ = GroupEndpoint::<u32>::new(
            a(0),
            EndpointConfig::default(),
            vec![GroupMembership {
                view: view.clone(),
                observers: vec![],
            }],
            vec![view],
        );
    }

    #[test]
    fn stale_view_announce_ignored() {
        let mut ep = endpoint(0, &[0, 1, 2]);
        let newer = View::new(GroupId(1), crate::view::ViewId(2), vec![a(0), a(1)]);
        let events = ep.handle_view(Rc::new(newer.clone()), SimTime::ZERO);
        assert_eq!(events.len(), 1);
        assert_eq!(ep.view(GroupId(1)).unwrap().id, crate::view::ViewId(2));
        // Replaying an older view does nothing.
        let older = View::new(GroupId(1), crate::view::ViewId(1), vec![a(0), a(1), a(2)]);
        assert!(ep.handle_view(Rc::new(older), SimTime::ZERO).is_empty());
        assert_eq!(ep.view(GroupId(1)).unwrap(), &newer);
    }

    #[test]
    fn exclusion_flips_in_view() {
        let mut ep = endpoint(2, &[0, 1, 2]);
        let without_me = View::new(GroupId(1), crate::view::ViewId(1), vec![a(0), a(1)]);
        let events = ep.handle_view(Rc::new(without_me), SimTime::ZERO);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            GroupEvent::ViewChanged {
                is_member: false,
                ..
            }
        ));
        assert!(!ep.is_member(GroupId(1)));
        // Rejoin announce flips it back.
        let with_me = View::new(GroupId(1), crate::view::ViewId(2), vec![a(0), a(1), a(2)]);
        let events = ep.handle_view(Rc::new(with_me), SimTime::ZERO);
        assert!(matches!(
            &events[0],
            GroupEvent::ViewChanged {
                is_member: true,
                ..
            }
        ));
        assert!(ep.is_member(GroupId(1)));
    }

    #[test]
    fn roster_size_tracks_initial_view() {
        // The primary-partition rule compares against the *initial* roster:
        // a view that legitimately shrinks (crash) does not lower the bar.
        let ep = endpoint(0, &[0, 1, 2, 3, 4]);
        assert_eq!(ep.view(GroupId(1)).unwrap().len(), 5);
        let mut ep = ep;
        let smaller = View::new(GroupId(1), crate::view::ViewId(1), vec![a(0), a(1), a(2)]);
        let _ = ep.handle_view(Rc::new(smaller), SimTime::ZERO);
        // Majority of the original 5 is 3: the current 3-member view is the
        // smallest view a leader could still have installed.
        assert_eq!(ep.view(GroupId(1)).unwrap().len(), 3);
    }

    #[test]
    fn observer_tracks_views() {
        let view = View::new(GroupId(5), crate::view::ViewId(0), vec![a(1), a(2)]);
        let mut ep = GroupEndpoint::<u32>::new(a(0), EndpointConfig::default(), vec![], vec![view]);
        assert!(!ep.is_member(GroupId(5)));
        assert_eq!(ep.leader(GroupId(5)), Some(a(1)));
        let newer = View::new(GroupId(5), crate::view::ViewId(3), vec![a(2)]);
        let events = ep.handle_view(Rc::new(newer), SimTime::ZERO);
        assert_eq!(events.len(), 1);
        assert_eq!(ep.leader(GroupId(5)), Some(a(2)));
    }
}
