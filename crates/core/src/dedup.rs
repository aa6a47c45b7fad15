//! Bounded reply cache for idempotent request handling.
//!
//! Clients retransmit requests that time out (and an at-least-once network
//! may duplicate any message), so every server gateway keeps the replies
//! it produced for its most recent updates, keyed by [`RequestId`]. When a
//! duplicate of an already-processed update arrives, the gateway answers
//! from this cache instead of applying the operation a second time —
//! retried updates are exactly-once at the object layer even though the
//! network is at-least-once.
//!
//! Reads are not cached: they are idempotent by construction and simply
//! served again.
//!
//! The commit logs a gateway suppresses duplicates with are
//! [`RequestLog`]s: bounded logs of recent commits with a hashed count of
//! every request id they hold, so the duplicate check on each update is a
//! lookup, not a scan of the log.

use crate::wire::{Reply, RequestId};
use aqf_sim::FastMap;
use std::collections::VecDeque;

/// A table keyed by request id. [`FastMap`]'s hasher is fixed-keyed, not
/// randomly seeded per process, so a run's table growth — and with it every
/// allocation count — repeats exactly.
type IdMap<V> = FastMap<RequestId, V>;

/// A bounded FIFO cache of the replies sent for recent updates.
#[derive(Debug, Clone)]
pub struct ReplyCache {
    /// The cached replies, in first-insertion order.
    replies: VecDeque<Reply>,
    /// Each cached id's insertion number: `evicted` plus its position in
    /// `replies`. A small value, so the table stays compact.
    index: IdMap<u64>,
    /// Replies evicted so far (the insertion number of `replies[0]`).
    evicted: u64,
    capacity: usize,
}

impl ReplyCache {
    /// Creates a cache retaining up to `capacity` replies (a capacity of
    /// zero disables caching; duplicates are still suppressed by the
    /// gateway's commit log, the client just gets no re-reply).
    pub fn new(capacity: usize) -> Self {
        Self {
            replies: VecDeque::new(),
            index: IdMap::default(),
            evicted: 0,
            capacity,
        }
    }

    /// Records the reply sent for `reply.id`, evicting the oldest entry
    /// when full. Re-inserting an id refreshes the payload but keeps its
    /// original eviction slot.
    pub fn insert(&mut self, reply: Reply) {
        if self.capacity == 0 {
            return;
        }
        match self.index.get(&reply.id) {
            Some(&n) => self.replies[(n - self.evicted) as usize] = reply,
            None => {
                let n = self.evicted + self.replies.len() as u64;
                self.index.insert(reply.id, n);
                self.replies.push_back(reply);
            }
        }
        while self.replies.len() > self.capacity {
            if let Some(old) = self.replies.pop_front() {
                self.index.remove(&old.id);
                self.evicted += 1;
            }
        }
    }

    /// The cached reply for `id`, if still retained.
    pub fn get(&self, id: &RequestId) -> Option<&Reply> {
        let n = *self.index.get(id)?;
        self.replies.get((n - self.evicted) as usize)
    }

    /// Number of cached replies.
    pub fn len(&self) -> usize {
        self.replies.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.replies.is_empty()
    }
}

/// An entry of a [`RequestLog`]: anything that names the request it
/// records.
pub trait LogEntry: Copy {
    /// The request this entry records.
    fn request(&self) -> RequestId;
}

impl LogEntry for RequestId {
    fn request(&self) -> RequestId {
        *self
    }
}

/// A `(position, request)` entry, as the sequential commit log keeps them.
impl LogEntry for (u64, RequestId) {
    fn request(&self) -> RequestId {
        self.1
    }
}

/// A bounded log of committed requests, oldest first, with a hashed
/// multiplicity index: how many entries name each request id. The index
/// is maintained at every insert and every eviction, so
/// [`RequestLog::contains`] answers without scanning, and evicting one of
/// two entries for an id keeps it present.
#[derive(Debug, Clone)]
pub struct RequestLog<T> {
    entries: VecDeque<T>,
    counts: IdMap<u32>,
}

impl<T> Default for RequestLog<T> {
    fn default() -> Self {
        Self {
            entries: VecDeque::new(),
            counts: IdMap::default(),
        }
    }
}

impl<T: LogEntry> RequestLog<T> {
    /// Appends `entry`, then evicts the oldest entries past `cap`.
    pub fn push_bounded(&mut self, entry: T, cap: usize) {
        self.insert_bounded(self.entries.len(), entry, cap);
    }

    /// Inserts `entry` at position `at` (shifting later entries back),
    /// then evicts the oldest entries past `cap` — possibly `entry`
    /// itself, when it went in at the front of a full log.
    ///
    /// # Panics
    ///
    /// Panics if `at` exceeds [`RequestLog::len`].
    pub fn insert_bounded(&mut self, at: usize, entry: T, cap: usize) {
        self.entries.insert(at, entry);
        *self.counts.entry(entry.request()).or_insert(0) += 1;
        while self.entries.len() > cap {
            let Some(old) = self.entries.pop_front() else {
                break;
            };
            let id = old.request();
            match self.counts.get_mut(&id) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    self.counts.remove(&id);
                }
            }
        }
    }

    /// Whether any entry records `id`.
    pub fn contains(&self, id: &RequestId) -> bool {
        self.counts.contains_key(id)
    }

    /// The entries, oldest first.
    pub fn entries(&self) -> &VecDeque<T> {
        &self.entries
    }

    /// The entries, oldest first, by value.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.entries.iter().copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqf_sim::ActorId;
    use bytes::Bytes;

    fn reply(c: usize, seq: u64) -> Reply {
        Reply {
            id: RequestId {
                client: ActorId::from_index(c),
                seq,
            },
            result: Bytes::copy_from_slice(&seq.to_be_bytes()),
            t1_us: 0,
            staleness: 0,
            deferred: false,
            csn: seq,
            vector: Vec::new(),
        }
    }

    #[test]
    fn caches_and_returns_replies() {
        let mut c = ReplyCache::new(4);
        c.insert(reply(0, 1));
        c.insert(reply(0, 2));
        assert_eq!(c.len(), 2);
        let got = c.get(&reply(0, 1).id).expect("cached");
        assert_eq!(got.csn, 1);
        assert!(c.get(&reply(9, 9).id).is_none());
    }

    #[test]
    fn evicts_oldest_at_capacity() {
        let mut c = ReplyCache::new(2);
        c.insert(reply(0, 1));
        c.insert(reply(0, 2));
        c.insert(reply(0, 3));
        assert_eq!(c.len(), 2);
        assert!(c.get(&reply(0, 1).id).is_none(), "oldest evicted");
        assert!(c.get(&reply(0, 3).id).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_slot() {
        let mut c = ReplyCache::new(2);
        c.insert(reply(0, 1));
        c.insert(reply(0, 1));
        c.insert(reply(0, 2));
        assert_eq!(c.len(), 2);
        assert!(c.get(&reply(0, 1).id).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ReplyCache::new(0);
        c.insert(reply(0, 1));
        assert!(c.is_empty());
        assert!(c.get(&reply(0, 1).id).is_none());
    }
}
