//! Per-sender FIFO receive channels with holdback and gap detection.

use crate::endpoint::SENT_BUFFER_CAPACITY;
use std::collections::{BTreeMap, VecDeque};

/// What the receive channel wants done after accepting a message.
#[derive(Debug, Clone, PartialEq)]
pub struct Accepted<A> {
    /// Payloads now deliverable to the application, in FIFO order.
    pub deliverable: Vec<A>,
    /// The inclusive range of missing sequence numbers to nack: the part of
    /// the gap in front of this message that has not been requested yet.
    /// `None` for a parked message whose whole gap was already asked for.
    pub nack: Option<(u64, u64)>,
    /// The message was dropped: already delivered, already parked, or from
    /// a previous life of the sender.
    pub duplicate: bool,
}

impl<A> Default for Accepted<A> {
    fn default() -> Self {
        Self {
            deliverable: Vec::new(),
            nack: None,
            duplicate: false,
        }
    }
}

impl<A> Accepted<A> {
    fn duplicate() -> Self {
        Self {
            duplicate: true,
            ..Self::default()
        }
    }
}

/// FIFO receive state for one `(group, sender)` pair.
///
/// Messages are delivered in sequence-number order; out-of-order arrivals
/// wait in a holdback queue. A missing sequence number is asked for once
/// when a later arrival first reveals it, and again by every stream tip
/// ([`ReceiveChannel::observe_tip`]: the sender's advert at the leader, the
/// leader's relay at every other member) that finds it still missing — the
/// tip is the only retry clock. A higher sender incarnation resets the
/// channel (the sender restarted).
///
/// Delivered messages the caller keeps stay, the newest
/// [`SENT_BUFFER_CAPACITY`] of them, for a peer that misses them when the
/// sender leaves the view. A view change that removes the sender freezes
/// the channel: it delivers up to the view's cut and no further.
#[derive(Debug, Clone, Default)]
pub struct ReceiveChannel<A> {
    incarnation: u64,
    /// Next sequence number expected for contiguous delivery.
    expected: u64,
    holdback: BTreeMap<u64, A>,
    /// Every sequence number below this has arrived or been nacked since
    /// the last advert.
    requested: u64,
    /// Delivered messages kept for peers, the newest (`expected - 1`) last.
    kept: VecDeque<A>,
    /// While frozen, nothing at or past this is delivered.
    limit: Option<u64>,
}

impl<A> ReceiveChannel<A> {
    /// Creates a channel expecting sequence number 0 of incarnation 0.
    pub fn new() -> Self {
        Self {
            incarnation: 0,
            expected: 0,
            holdback: BTreeMap::new(),
            requested: 0,
            kept: VecDeque::new(),
            limit: None,
        }
    }

    /// The incarnation currently tracked.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The next sequence number needed for in-order delivery.
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Number of messages parked in the holdback queue.
    pub fn holdback_len(&self) -> usize {
        self.holdback.len()
    }

    /// One past the highest sequence number received, holdback included:
    /// the tip of the sender's stream as far as this channel knows it.
    pub fn tip(&self) -> u64 {
        self.holdback
            .last_key_value()
            .map_or(self.expected, |(&seq, _)| seq + 1)
    }

    /// Tracks `inc`; false if it is a previous life of the sender. A newer
    /// life abandons the old channel state entirely, once any cut of the
    /// old one is reached.
    fn follow(&mut self, inc: u64) -> bool {
        if inc > self.incarnation && !self.frozen() {
            self.fast_forward_to(inc, 0);
        }
        inc == self.incarnation
    }

    /// Accepts a message with sequence number `seq` from incarnation `inc`.
    ///
    /// Returns the payloads that became deliverable (possibly none) and an
    /// optional nack range. Duplicates and messages from stale incarnations
    /// are dropped and reported as such.
    pub fn accept(&mut self, inc: u64, seq: u64, payload: A) -> Accepted<A>
    where
        A: Clone,
    {
        let mut deliverable = Vec::new();
        let Accepted {
            nack, duplicate, ..
        } = self.accept_with(inc, seq, payload, false, |a| deliverable.push(a));
        Accepted {
            deliverable,
            nack,
            duplicate,
        }
    }

    /// [`ReceiveChannel::accept`], handing each payload that became
    /// deliverable to `deliver`, in FIFO order, instead of collecting
    /// them, and keeping a copy of each if `keep`. The returned
    /// [`Accepted::deliverable`] is always empty. A frozen channel nacks
    /// nothing: the cut names whom to ask.
    pub fn accept_with(
        &mut self,
        inc: u64,
        seq: u64,
        payload: A,
        keep: bool,
        mut deliver: impl FnMut(A),
    ) -> Accepted<A>
    where
        A: Clone,
    {
        if !self.follow(inc) || seq < self.expected || self.holdback.contains_key(&seq) {
            return Accepted::duplicate();
        }
        let mut out = Accepted::default();
        if seq == self.expected && !self.frozen() {
            if keep {
                self.keep(payload.clone());
            }
            deliver(payload);
            self.expected += 1;
        } else {
            // Gap: park, and ask for what nobody has asked for yet.
            let unasked = self.expected.max(self.requested);
            if unasked < seq && !self.frozen() {
                out.nack = Some((unasked, seq - 1));
            }
            self.holdback.insert(seq, payload);
        }
        self.requested = self.requested.max(seq + 1);
        self.release(keep, deliver);
        out
    }

    /// Delivers the now-contiguous holdback, up to the limit if frozen.
    fn release(&mut self, keep: bool, mut deliver: impl FnMut(A))
    where
        A: Clone,
    {
        while self.expected < self.limit.unwrap_or(u64::MAX) {
            let Some(entry) = self.holdback.remove(&self.expected) else {
                break;
            };
            if keep {
                self.keep(entry.clone());
            }
            deliver(entry);
            self.expected += 1;
        }
    }

    /// Keeps a copy of the message just delivered, dropping the oldest kept
    /// beyond [`SENT_BUFFER_CAPACITY`]: a peer that missed that much skips
    /// it, as it would the sender's own buffer.
    fn keep(&mut self, copy: A) {
        if self.kept.len() == SENT_BUFFER_CAPACITY {
            self.kept.pop_front();
        }
        self.kept.push_back(copy);
    }

    /// Whether a view change froze the channel.
    pub fn frozen(&self) -> bool {
        self.limit.is_some()
    }

    /// Freezes the channel at what it delivered: a view change removed the
    /// sender, and the cut is not known yet.
    pub fn freeze(&mut self) {
        self.limit = Some(self.expected);
    }

    /// Lets a frozen channel deliver (and keep) up to the cut `at` of life
    /// `inc`; thaws it if it follows a later life, which the cut does not
    /// concern.
    pub fn limit_to(&mut self, inc: u64, at: u64, deliver: impl FnMut(A))
    where
        A: Clone,
    {
        if inc < self.incarnation {
            return self.thaw();
        }
        if inc > self.incarnation {
            self.fast_forward_to(inc, 0);
        }
        self.limit = Some(at);
        self.release(true, deliver);
    }

    /// Whether a frozen channel delivered up to its limit.
    pub fn reached(&self) -> bool {
        self.limit.is_some_and(|at| self.expected >= at)
    }

    /// Unfreezes the channel, discarding what it holds past the cut.
    pub fn thaw(&mut self) {
        self.limit = None;
        self.abandon_gaps();
    }

    /// Drops every kept message: the sender's departure is flushed.
    pub fn drop_kept(&mut self) {
        self.kept.clear();
    }

    /// The oldest sequence number kept (`expected` if none is).
    pub fn kept_from(&self) -> u64 {
        self.expected - self.kept.len() as u64
    }

    /// The kept messages numbered `from..=to` of life `inc`, oldest first.
    pub fn kept(&self, inc: u64, from: u64, to: u64) -> impl Iterator<Item = &A> {
        let first = from.max(self.kept_from());
        let end = if inc == self.incarnation {
            to.saturating_add(1).min(self.expected)
        } else {
            first
        };
        let skip = (first - self.kept_from()) as usize;
        self.kept
            .iter()
            .skip(skip)
            .take(end.saturating_sub(first) as usize)
    }

    /// Compares the channel against an advertised stream tip: the sender
    /// claims to have multicast everything below `next_seq` of `inc`.
    /// Returns the inclusive range to nack if the channel is missing
    /// anything below the tip — whether or not it was asked for before —
    /// or `None` if it is caught up (or the advertisement is stale).
    pub fn observe_tip(&mut self, inc: u64, next_seq: u64) -> Option<(u64, u64)> {
        if !self.follow(inc) || self.expected >= next_seq {
            return None;
        }
        self.requested = self.requested.max(next_seq);
        Some((self.expected, next_seq - 1))
    }

    /// Fast-forwards past an unfillable gap: the sender declared it can no
    /// longer retransmit anything below `resume_at`. Holdback entries at or
    /// above `resume_at` are kept; anything contiguous from `resume_at`
    /// (and below the limit, if frozen) becomes deliverable. Stale or
    /// irrelevant skips are ignored.
    pub fn skip_to(&mut self, inc: u64, resume_at: u64) -> Vec<A>
    where
        A: Clone,
    {
        if inc != self.incarnation || resume_at <= self.expected {
            return Vec::new();
        }
        self.expected = resume_at;
        self.kept.clear();
        self.holdback.retain(|&seq, _| seq >= resume_at);
        let mut out = Vec::new();
        self.release(false, |a| out.push(a));
        out
    }

    /// Positions the channel to start delivering at `(inc, seq)` without
    /// nacking earlier history.
    ///
    /// Used for channels created after this node restarts: the missed prefix
    /// of the sender's stream is unrecoverable and is instead covered by
    /// application-level state transfer.
    pub fn fast_forward_to(&mut self, inc: u64, seq: u64) {
        self.incarnation = inc;
        self.expected = seq;
        self.requested = seq;
        self.holdback.clear();
        self.kept.clear();
    }

    /// Abandons any non-contiguous holdback (used when the sender is removed
    /// from the group and the gap can never be filled). Returns the number
    /// of discarded messages.
    pub fn abandon_gaps(&mut self) -> usize {
        let n = self.holdback.len();
        self.holdback.clear();
        // The discarded messages are missing again.
        self.requested = self.expected;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn in_order_delivery() {
        let mut ch = ReceiveChannel::new();
        for seq in 0..5u64 {
            let acc = ch.accept(0, seq, seq * 10);
            assert_eq!(acc.deliverable, vec![seq * 10]);
            assert_eq!(acc.nack, None);
        }
        assert_eq!(ch.expected(), 5);
    }

    #[test]
    fn gap_parks_and_nacks() {
        let mut ch = ReceiveChannel::new();
        assert_eq!(ch.accept(0, 0, "a").deliverable, vec!["a"]);
        let acc = ch.accept(0, 3, "d");
        assert!(acc.deliverable.is_empty());
        assert_eq!(acc.nack, Some((1, 2)));
        assert_eq!(ch.holdback_len(), 1);
        // Filling the gap releases everything contiguously.
        let acc = ch.accept(0, 1, "b");
        assert_eq!(acc.deliverable, vec!["b"]);
        let acc = ch.accept(0, 2, "c");
        assert_eq!(acc.deliverable, vec!["c", "d"]);
        assert_eq!(ch.expected(), 4);
        assert_eq!(ch.holdback_len(), 0);
    }

    #[test]
    fn duplicates_dropped() {
        let mut ch = ReceiveChannel::new();
        assert_eq!(ch.accept(0, 0, 1).deliverable, vec![1]);
        assert_eq!(ch.accept(0, 0, 1), Accepted::duplicate());
        assert!(!ch.accept(0, 2, 3).duplicate); // parked
        assert_eq!(ch.accept(0, 2, 3), Accepted::duplicate());
        assert_eq!(ch.holdback_len(), 1);
    }

    #[test]
    fn a_gap_is_asked_for_once_until_the_next_advert() {
        let mut ch = ReceiveChannel::new();
        assert_eq!(ch.accept(0, 5, "f").nack, Some((0, 4)));
        // Parked behind a gap that was already requested: nothing new to
        // ask, and not a duplicate either.
        assert_eq!(ch.accept(0, 3, "d"), Accepted::default());
        // Only the part beyond what arrived or was asked for.
        assert_eq!(ch.accept(0, 8, "i").nack, Some((6, 7)));
        assert_eq!(ch.accept(0, 7, "h"), Accepted::default());
        assert_eq!(ch.holdback_len(), 4);
        // The advert is the retry clock: everything still missing, again.
        assert_eq!(ch.observe_tip(0, 10), Some((0, 9)));
        assert_eq!(ch.accept(0, 9, "j"), Accepted::default());
        assert_eq!(ch.accept(0, 11, "l").nack, Some((10, 10)));
        assert_eq!(ch.observe_tip(0, 12), Some((0, 11)));
    }

    #[test]
    fn abandoned_holdback_is_asked_for_again() {
        let mut ch = ReceiveChannel::new();
        assert_eq!(ch.accept(0, 2, "c").nack, Some((0, 1)));
        assert_eq!(ch.abandon_gaps(), 1);
        assert_eq!(ch.accept(0, 3, "d").nack, Some((0, 2)));
    }

    #[test]
    fn new_incarnation_resets() {
        let mut ch = ReceiveChannel::new();
        let _ = ch.accept(0, 0, 1);
        let _ = ch.accept(0, 5, 6); // parked with gap
        let acc = ch.accept(1, 0, 100);
        assert_eq!(acc.deliverable, vec![100]);
        assert_eq!(ch.incarnation(), 1);
        assert_eq!(ch.holdback_len(), 0);
        assert_eq!(ch.expected(), 1);
        // Stale incarnation messages are dropped.
        assert!(ch.accept(0, 1, 2).deliverable.is_empty());
    }

    #[test]
    fn incarnations_beyond_u32_stay_ordered() {
        // The incarnation counter is u64 precisely so long correlated-crash
        // soak runs can never wrap it; ordering must keep working past the
        // old u32 ceiling.
        let mut ch = ReceiveChannel::new();
        let high = u64::from(u32::MAX) + 7;
        assert_eq!(ch.accept(high, 0, 1).deliverable, vec![1]);
        assert_eq!(ch.incarnation(), high);
        // Anything from a lower life — even one that fit in u32 — is stale.
        assert!(ch.accept(u64::from(u32::MAX), 0, 2).deliverable.is_empty());
        assert_eq!(ch.accept(high + 1, 0, 3).deliverable, vec![3]);
        assert_eq!(ch.incarnation(), high + 1);
    }

    #[test]
    fn observe_tip_detects_tail_loss() {
        let mut ch = ReceiveChannel::new();
        let _ = ch.accept(0, 0, "a");
        let _ = ch.accept(0, 1, "b");
        // Sender claims to have sent 5 messages; 2..=4 are missing.
        assert_eq!(ch.observe_tip(0, 5), Some((2, 4)));
        // Caught-up channel: no nack.
        assert_eq!(ch.observe_tip(0, 2), None);
        // Stale advertisement (lower than delivered): no nack.
        assert_eq!(ch.observe_tip(0, 1), None);
    }

    #[test]
    fn observe_tip_handles_incarnations() {
        let mut ch = ReceiveChannel::new();
        let _ = ch.accept(1, 0, "x");
        // Advertisement from a previous life: ignored.
        assert_eq!(ch.observe_tip(0, 99), None);
        // Newer incarnation: reset and nack its full prefix.
        assert_eq!(ch.observe_tip(2, 3), Some((0, 2)));
        assert_eq!(ch.incarnation(), 2);
        assert_eq!(ch.holdback_len(), 0);
    }

    #[test]
    fn skip_to_jumps_unfillable_gaps() {
        let mut ch = ReceiveChannel::new();
        let _ = ch.accept(0, 0, 0u64);
        // Messages 1..=99 were lost and fell out of the sender's buffer;
        // 100 and 101 are parked.
        let _ = ch.accept(0, 100, 100);
        let _ = ch.accept(0, 101, 101);
        assert_eq!(ch.expected(), 1);
        let released = ch.skip_to(0, 100);
        assert_eq!(released, vec![100, 101]);
        assert_eq!(ch.expected(), 102);
        assert_eq!(ch.holdback_len(), 0);
    }

    #[test]
    fn skip_to_ignores_stale_or_backward_skips() {
        let mut ch = ReceiveChannel::new();
        for seq in 0..5u64 {
            let _ = ch.accept(0, seq, seq);
        }
        // Backward skip: no-op.
        assert!(ch.skip_to(0, 3).is_empty());
        assert_eq!(ch.expected(), 5);
        // Wrong incarnation: no-op.
        assert!(ch.skip_to(1, 50).is_empty());
        assert_eq!(ch.expected(), 5);
    }

    #[test]
    fn skip_to_preserves_holdback_above_resume() {
        let mut ch = ReceiveChannel::new();
        let _ = ch.accept(0, 10, "j");
        let _ = ch.accept(0, 12, "l");
        // Skip to 10: delivers 10 (contiguous) but 12 stays parked behind
        // the 11 gap, which is still fillable.
        let released = ch.skip_to(0, 10);
        assert_eq!(released, vec!["j"]);
        assert_eq!(ch.expected(), 11);
        assert_eq!(ch.holdback_len(), 1);
        let acc = ch.accept(0, 11, "k");
        assert_eq!(acc.deliverable, vec!["k", "l"]);
    }

    #[test]
    fn tip_counts_the_holdback() {
        let mut ch = ReceiveChannel::new();
        assert_eq!(ch.tip(), 0);
        let _ = ch.accept(0, 0, "a");
        let _ = ch.accept(0, 1, "b");
        assert_eq!(ch.tip(), 2);
        // 4 and 6 wait behind the gaps at 2..=3 and 5.
        let _ = ch.accept(0, 6, "g");
        let _ = ch.accept(0, 4, "e");
        assert_eq!((ch.expected(), ch.tip()), (2, 7));
        // A relayed tip is what another receiver nacks against.
        let mut behind = ReceiveChannel::<&str>::new();
        assert_eq!(behind.observe_tip(0, ch.tip()), Some((0, 6)));
        // A fast-forwarded channel vouches for what it skipped.
        ch.fast_forward_to(1, 9);
        assert_eq!(ch.tip(), 9);
    }

    #[test]
    fn observe_tip_on_fresh_channel() {
        let mut ch: ReceiveChannel<u32> = ReceiveChannel::new();
        assert_eq!(ch.observe_tip(0, 0), None, "nothing sent, nothing missing");
        assert_eq!(ch.observe_tip(0, 4), Some((0, 3)));
    }

    #[test]
    fn abandon_gaps_discards_holdback() {
        let mut ch = ReceiveChannel::new();
        let _ = ch.accept(0, 2, "c");
        let _ = ch.accept(0, 4, "e");
        assert_eq!(ch.abandon_gaps(), 2);
        assert_eq!(ch.holdback_len(), 0);
    }

    #[test]
    fn kept_up_to_the_cap_frozen_at_the_cut_and_dropped_when_it_departs() {
        let mut ch = ReceiveChannel::new();
        let extra = 2;
        for seq in 0..(SENT_BUFFER_CAPACITY + extra) as u64 {
            let _ = ch.accept_with(0, seq, seq, true, |_| {});
        }
        // The oldest beyond the cap went; a peer asking for them skips them.
        assert_eq!(ch.kept_from(), extra as u64);
        assert_eq!(ch.kept(0, 0, 3).copied().collect::<Vec<_>>(), [2, 3]);
        // Nothing from another life.
        assert_eq!(ch.kept(1, 0, 3).count(), 0);
        let mut ch = ReceiveChannel::new();
        for seq in 0..4u64 {
            let _ = ch.accept_with(0, seq, seq, true, |_| {});
        }
        assert_eq!(ch.kept(0, 1, 2).copied().collect::<Vec<_>>(), [1, 2]);
        // A view change freezes the stream: nothing more is delivered.
        ch.freeze();
        let mut got = Vec::new();
        assert_eq!(ch.accept_with(0, 5, 5, true, |a| got.push(a)).nack, None);
        let _ = ch.accept_with(0, 4, 4, true, |a| got.push(a));
        assert!(got.is_empty());
        // The cut at 5 delivers 4; 5 lies past it and is discarded.
        ch.limit_to(0, 5, |a| got.push(a));
        assert_eq!(got, [4]);
        assert!(ch.reached());
        ch.thaw();
        assert_eq!(
            (ch.frozen(), ch.holdback_len(), ch.expected()),
            (false, 0, 5)
        );
        // Up to the cut, everything is kept for a peer short of it.
        assert_eq!(
            ch.kept(0, 0, 9).copied().collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        // Once the departure is flushed, nobody asks any more.
        ch.drop_kept();
        assert_eq!((ch.kept_from(), ch.kept(0, 0, 9).count()), (5, 0));
    }

    proptest! {
        /// FIFO invariant: regardless of arrival order (a permutation of a
        /// contiguous range), payloads are delivered exactly once, in order.
        #[test]
        fn any_permutation_delivers_in_order(n in 1usize..24, seed in 0u64..1000) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut order: Vec<u64> = (0..n as u64).collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            order.shuffle(&mut rng);

            let mut ch = ReceiveChannel::new();
            let mut delivered = Vec::new();
            for seq in order {
                let acc = ch.accept(0, seq, seq);
                delivered.extend(acc.deliverable);
            }
            prop_assert_eq!(delivered, (0..n as u64).collect::<Vec<_>>());
            prop_assert_eq!(ch.holdback_len(), 0);
        }

        /// Duplicates never cause redelivery.
        #[test]
        fn duplicates_idempotent(seqs in proptest::collection::vec(0u64..16, 1..64)) {
            let mut ch = ReceiveChannel::new();
            let mut delivered = Vec::new();
            for &seq in &seqs {
                delivered.extend(ch.accept(0, seq, seq).deliverable);
            }
            let mut sorted = delivered.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), delivered.len(), "no duplicates delivered");
            prop_assert!(delivered.windows(2).all(|w| w[0] < w[1]), "in order");
        }
    }
}
