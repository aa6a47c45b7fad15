//! Group communication substrate for the AQF middleware.
//!
//! The paper's AQuA implementation relies on the Maestro/Ensemble group
//! communication toolkit for "reliable, virtual synchrony, and FIFO messaging
//! guarantees", leader election, and membership-change notification (§3).
//! This crate provides those guarantees from scratch over the [`aqf_sim`]
//! actor runtime:
//!
//! * **Groups and views** — named groups ([`GroupId`]) of actors; membership
//!   changes are captured as monotonically numbered [`View`]s. A view ranks
//!   its members by admission — the founders by id, then each member let in
//!   since — and its leader is rank 0, matching Ensemble's deterministic
//!   ranking: a member that rejoins is the most junior.
//! * **Failure detection** — liveness is rooted at the leader: each member
//!   heartbeats the most senior member it has not given up on, the leader
//!   announces its view to every member every tick and excludes members
//!   silent for longer than a fixed timeout by installing a new view. If the leader itself fails, the next-ranked
//!   member takes over once a majority of the roster follows it.
//! * **Reliable FIFO multicast** — per-sender sequence numbers with a
//!   holdback queue for reordering, nack-driven retransmission for loss
//!   (each gap asked for once, and again on the next tip of the stream the
//!   leader relays on its per-tick announce), and sender incarnation numbers
//!   so a restarted process starts a fresh FIFO channel.
//! * **Open groups** — non-members ("observers", e.g. the clients of a
//!   replicated service) receive view announcements — when a view is
//!   installed, then at a backed-off refresh period — and may multicast into
//!   a group, exactly as AQuA's QoS group lets clients address the replication
//!   groups.
//!
//! * **Virtual synchrony** — a view change flushes the stream of every
//!   member it removes: the survivors report what they delivered of it, the
//!   leader cuts the stream at the highest report (at 0 if nobody holds
//!   it), a survivor short of the cut fetches the rest from one that holds
//!   it, and each host hears of the new view only once it delivered up to
//!   the cut. What lies past the cut is discarded. So the survivors of a
//!   view change delivered the same set of each departed member's messages.
//!   Every receiver keeps a member's latest messages for that fetch, as
//!   many as a sender buffers for retransmission.
//!
//! The guarantees are deliberately scoped to what the paper's protocols
//! consume: FIFO per sender within a group, virtual synchrony, view
//! notifications, and leader election under crash faults; total ordering
//! is built *above* this layer by the sequencer protocol in `aqf-core`,
//! mirroring the paper's design.
//!
//! Host actors embed a [`GroupEndpoint`] and forward their `on_message` /
//! `on_timer` events to it; the endpoint hands back high-level
//! [`GroupEvent`]s (delivery, view change, direct message).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod endpoint;
pub mod msg;
pub mod view;

pub use endpoint::{EndpointConfig, GroupEndpoint, GroupEvent, GroupStats, GROUP_TIMER_KIND_BASE};
pub use msg::{DataMsg, Envelope, GroupMsg, SharedPayload};
pub use view::{GroupId, View, ViewId};
