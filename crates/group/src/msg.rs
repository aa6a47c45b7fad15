//! Wire messages exchanged by group endpoints.
//!
//! Messages travel as [`Envelope`]s — `Rc`-shared, immutable once sealed —
//! so multicast fan-out, duplicate delivery, and retransmission buffering
//! all reference one allocation instead of deep-cloning the payload per
//! copy. See DESIGN.md §4.7 for the ownership rules this relies on.

use crate::view::{GroupId, View, ViewId};
use aqf_sim::ActorId;
use std::rc::Rc;

/// The unit the simulator's network plane carries: a sealed, shared,
/// immutable group message. Cloning an envelope is a non-atomic refcount
/// bump (the one `World` that carries it is single-threaded); the
/// payload inside is never copied by the transport, however many
/// recipients, duplicates, or retransmissions the network produces.
pub type Envelope<A> = Rc<GroupMsg<A>>;

/// A FIFO-sequenced application payload multicast into a group.
#[derive(Debug, Clone, PartialEq)]
pub struct DataMsg<A> {
    /// The group this message is addressed to.
    pub group: GroupId,
    /// Sender incarnation; bumped when the sending process restarts so
    /// receivers reset the FIFO channel instead of waiting on sequence
    /// numbers from a previous life.
    pub incarnation: u64,
    /// Per-(sender, group, incarnation) FIFO sequence number, starting at 0.
    pub seq: u64,
    /// The application payload.
    pub payload: A,
}

/// The transport envelope understood by [`crate::GroupEndpoint`]s.
///
/// `A` is the application payload type carried by data messages.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupMsg<A> {
    /// FIFO-sequenced group multicast data (possibly a retransmission).
    Data(DataMsg<A>),
    /// Unordered, unsequenced point-to-point payload (replies, state
    /// transfer). Delivery is subject only to the network model.
    Direct(A),
    /// Receiver-driven retransmission request for sequence numbers
    /// `[from_seq, to_seq]` of `sender`'s stream. A receiver asks the
    /// sender for a missing message once when a later arrival reveals the
    /// gap, and again on every stream tip that finds it still missing: the
    /// sender's [`GroupMsg::StreamStatus`] at the leader, the leader's
    /// relay on its [`GroupMsg::ViewAnnounce`] at every other member. At a
    /// view change it asks a survivor holding a departed sender's messages
    /// below the [`Cut`] instead, on every announce naming the cut.
    Nack {
        /// The group whose channel has the gap.
        group: GroupId,
        /// The stream's sender: the addressee, or a departed member whose
        /// messages the addressee holds.
        sender: ActorId,
        /// Incarnation the receiver is tracking.
        incarnation: u64,
        /// First missing sequence number.
        from_seq: u64,
        /// Last missing sequence number.
        to_seq: u64,
    },
    /// Liveness beacon, also carrying the sender's current view id so peers
    /// can detect that they lag behind, and, while a view change's flush
    /// holds the sender, its report to the leader: the streams it froze.
    Heartbeat {
        /// The group this heartbeat concerns.
        group: GroupId,
        /// The sender's installed view id.
        view_id: ViewId,
        /// For every departed member's stream the sender froze at a view
        /// change and that is still short of its cut, one past the last
        /// message it delivered: its contiguous receive tip. Empty outside
        /// a flush.
        flushing: Vec<StreamTip>,
    },
    /// Announcement (by the leader) of its view: to members, old and new,
    /// and observers when it is installed; to members on every tick after,
    /// as the leader's heartbeat; to observers again 1, 2, 4, … ticks after
    /// the installation and then once per `failure_timeout`, in case they
    /// lost it. The view is `Rc`-shared: one announce
    /// round references a single `View` allocation across every recipient
    /// and every local copy (`observed` maps, member state, host events).
    ViewAnnounce {
        /// The announced view.
        view: Rc<View>,
        /// On the per-tick announce, the tip of every stream into the
        /// group that the leader knows of — its own, and each member's or
        /// observer's it receives — which members treat as a
        /// [`GroupMsg::StreamStatus`] from that sender and observers
        /// ignore. Empty on every other announce.
        tips: Vec<StreamTip>,
        /// While a view change is flushing, the cut of each stream of a
        /// member it removed: on every announce of the view by its leader.
        flush: Vec<Cut>,
    },
    /// A knock: request by a node outside a group's view (a restart, a
    /// newcomer, a member told of its exclusion) to be let in. The sender
    /// knocks on every member of its last view each tick until a view holds
    /// it. The head of its own chain (the leader, or a successor) admits it
    /// unless its flush is open, and keeps no record of it; anyone else
    /// answers with its view.
    JoinRequest {
        /// The group to join.
        group: GroupId,
    },
    /// Voluntary departure: the sender asks to be excluded from the group's
    /// next view (e.g. a promotee sent back from the primary group). It goes
    /// to the leader of the sender's view, and again in answer to every
    /// announce of a view that still names the sender. Unlike a suspicion,
    /// the leader excludes the sender at once even though it is
    /// demonstrably alive; nobody keeps a record of it.
    Leave {
        /// The group being left.
        group: GroupId,
    },
    /// Reply to a nack that can no longer be served: the requested range
    /// fell out of the sender's bounded retransmission buffer, or out of
    /// what a survivor kept of a departed sender's stream. The receiver
    /// fast-forwards its channel to `resume_at`; the skipped prefix is
    /// recovered at the application layer (snapshots / state transfer).
    GapSkip {
        /// The group whose stream has the unfillable gap.
        group: GroupId,
        /// The stream's sender: the replying node, or a departed member
        /// whose messages it no longer keeps.
        sender: ActorId,
        /// Sender incarnation.
        incarnation: u64,
        /// Oldest sequence number the sender can still retransmit.
        resume_at: u64,
    },
    /// A departed sender's message, retransmitted by a survivor that holds
    /// it to one below the view change's [`Cut`].
    Forward {
        /// The departed sender whose stream `data` belongs to.
        sender: ActorId,
        /// The original `Data` envelope.
        data: Envelope<A>,
    },
    /// Advertisement of the sender's multicast stream tip to the leader of
    /// its view of the group, so the leader can detect and nack tail losses
    /// (losses of the last messages of a stream, which no later arrival
    /// would reveal) and ask again for retransmissions that were themselves
    /// lost; the leader relays the tip to every member on its next
    /// announce. Sent 1, 2, 4, … ticks after the stream's last multicast
    /// (or the first view naming a new leader), then once per
    /// `failure_timeout` — by every sender but the leader, whose own tip
    /// rides each of its announces.
    StreamStatus {
        /// The group whose stream is advertised.
        group: GroupId,
        /// Sender incarnation.
        incarnation: u64,
        /// One past the highest sequence number multicast so far.
        next_seq: u64,
    },
}

/// One multicast stream's tip as a leader relays it: everything below
/// `next_seq` of `incarnation` has been multicast by `sender`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTip {
    /// The stream's sender.
    pub sender: ActorId,
    /// Sender incarnation.
    pub incarnation: u64,
    /// One past the highest sequence number known to have been multicast.
    pub next_seq: u64,
}

impl<A> GroupMsg<A> {
    /// Seals this message into a shared, immutable [`Envelope`] — the one
    /// allocation a logical send costs. Every subsequent copy the network
    /// makes (fan-out, duplication, retransmission) shares it.
    pub fn seal(self) -> Envelope<A> {
        Rc::new(self)
    }

    /// The group this message concerns, if any (`Direct` has none).
    pub fn group(&self) -> Option<GroupId> {
        match self {
            GroupMsg::Data(d) => Some(d.group),
            GroupMsg::Direct(_) => None,
            GroupMsg::Nack { group, .. } => Some(*group),
            GroupMsg::Heartbeat { group, .. } => Some(*group),
            GroupMsg::ViewAnnounce { view, .. } => Some(view.group),
            GroupMsg::JoinRequest { group } => Some(*group),
            GroupMsg::Leave { group } => Some(*group),
            GroupMsg::StreamStatus { group, .. } => Some(*group),
            GroupMsg::GapSkip { group, .. } => Some(*group),
            GroupMsg::Forward { data, .. } => match &**data {
                GroupMsg::Data(d) => Some(d.group),
                _ => None,
            },
        }
    }
}

/// Where a view change closes the stream of a member it removed. Every
/// survivor delivers the stream up to `next_seq` before the host hears of
/// the view, and discards whatever it holds past it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// The departed sender.
    pub sender: ActorId,
    /// Its incarnation the cut applies to.
    pub incarnation: u64,
    /// The highest contiguous receive tip any survivor reported from the
    /// new view (0 if none holds the stream), and a survivor holding
    /// everything below it; `None` until every survivor has reported.
    pub at: Option<(u64, ActorId)>,
}

/// An application payload still inside its shared transport envelope.
///
/// The holdback queue stores these instead of owned payloads, so a message
/// waiting for its FIFO predecessors keeps sharing the sender's (and every
/// other recipient's) allocation. [`SharedPayload::into_owned`] extracts
/// the payload at actual delivery time: a move when this was the last
/// reference, a clone otherwise — either way the observable value is
/// identical, so delivery stays deterministic regardless of refcounts.
#[derive(Debug, Clone)]
pub struct SharedPayload<A>(Envelope<A>);

impl<A: Clone> SharedPayload<A> {
    /// Wraps a `Data` or `Direct` envelope.
    ///
    /// # Panics
    ///
    /// Panics if the envelope carries no application payload.
    pub fn new(envelope: Envelope<A>) -> Self {
        assert!(
            matches!(&*envelope, GroupMsg::Data(_) | GroupMsg::Direct(_)),
            "envelope carries no application payload"
        );
        Self(envelope)
    }

    /// The envelope the payload travels in.
    pub fn envelope(&self) -> &Envelope<A> {
        &self.0
    }

    /// Borrows the payload without extracting it.
    pub fn get(&self) -> &A {
        match &*self.0 {
            GroupMsg::Data(d) => &d.payload,
            GroupMsg::Direct(p) => p,
            _ => unreachable!("checked at construction"),
        }
    }

    /// Extracts the payload: moves it out when this was the last reference
    /// to the envelope, clones it otherwise.
    pub fn into_owned(self) -> A {
        match Rc::try_unwrap(self.0) {
            Ok(GroupMsg::Data(d)) => d.payload,
            Ok(GroupMsg::Direct(p)) => p,
            Ok(_) => unreachable!("checked at construction"),
            Err(shared) => match &*shared {
                GroupMsg::Data(d) => d.payload.clone(),
                GroupMsg::Direct(p) => p.clone(),
                _ => unreachable!("checked at construction"),
            },
        }
    }
}

impl<A: Clone + PartialEq> PartialEq for SharedPayload<A> {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewId;

    #[test]
    fn group_accessor() {
        let g = GroupId(4);
        assert_eq!(
            GroupMsg::<u8>::Heartbeat {
                group: g,
                view_id: ViewId(0),
                flushing: Vec::new(),
            }
            .group(),
            Some(g)
        );
        assert_eq!(GroupMsg::Direct(1u8).group(), None);
        let v = View::new(g, ViewId(1), vec![ActorId::from_index(0)]);
        let announce = GroupMsg::<u8>::ViewAnnounce {
            view: Rc::new(v),
            tips: Vec::new(),
            flush: Vec::new(),
        };
        assert_eq!(announce.group(), Some(g));
        assert_eq!(
            GroupMsg::<u8>::Data(DataMsg {
                group: g,
                incarnation: 0,
                seq: 3,
                payload: 9
            })
            .group(),
            Some(g)
        );
        assert_eq!(
            GroupMsg::<u8>::Nack {
                group: g,
                sender: ActorId::from_index(1),
                incarnation: 0,
                from_seq: 0,
                to_seq: 1
            }
            .group(),
            Some(g)
        );
        assert_eq!(GroupMsg::<u8>::JoinRequest { group: g }.group(), Some(g));
        assert_eq!(GroupMsg::<u8>::Leave { group: g }.group(), Some(g));
    }
}
