//! Properties of [`RequestLog`], the bounded commit log behind Sequential's
//! `committed_log` and FIFO's `applied_log`: its hashed multiplicity index
//! answers `contains` exactly as a linear scan of the retained entries
//! would, through appends with eviction, the mid-log sorted inserts
//! `record_commit` makes, and duplicate ids (evicting one copy of an id
//! keeps the other).
//!
//! Scripts run over a deliberately tiny id space and small capacities, so
//! duplicates and evictions are frequent.

use aqf_core::dedup::{LogEntry, RequestLog};
use aqf_core::wire::RequestId;
use aqf_sim::ActorId;
use proptest::prelude::*;
use std::collections::VecDeque;

fn id(client: usize, seq: u64) -> RequestId {
    RequestId {
        client: ActorId::from_index(client),
        seq,
    }
}

/// Every id a script can name.
fn id_space() -> impl Iterator<Item = RequestId> {
    (0..3).flat_map(|c| (0..4).map(move |s| id(c, s)))
}

/// Checks the log's entries and its `contains` against the reference.
fn agrees<T: LogEntry + PartialEq + std::fmt::Debug>(log: &RequestLog<T>, reference: &VecDeque<T>) {
    assert_eq!(log.entries(), reference);
    assert_eq!(log.len(), reference.len());
    for rid in id_space() {
        let scanned = reference.iter().any(|e| e.request() == rid);
        assert_eq!(log.contains(&rid), scanned, "id {rid}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sequential's `(gsn, request)` log. A step `(sorted, gsn, client,
    /// seq)` with `sorted` inserts at the GSN's sorted position unless the
    /// log holds that GSN (as `record_commit`); otherwise it appends (as
    /// the commit path and replay).
    #[test]
    fn committed_log_index_matches_a_scan(
        cap in 0usize..8,
        script in proptest::collection::vec((any::<bool>(), 0u64..48, 0usize..3, 0u64..4), 0..64),
    ) {
        let mut log = RequestLog::default();
        let mut reference: VecDeque<(u64, RequestId)> = VecDeque::new();
        for (sorted, gsn, client, seq) in script {
            let entry = (gsn, id(client, seq));
            let at = if sorted {
                match reference.binary_search_by_key(&gsn, |&(g, _)| g) {
                    Ok(_) => continue,
                    Err(at) => at,
                }
            } else {
                reference.len()
            };
            reference.insert(at, entry);
            while reference.len() > cap {
                reference.pop_front();
            }
            if sorted {
                log.insert_bounded(at, entry, cap);
            } else {
                log.push_bounded(entry, cap);
            }
            agrees(&log, &reference);
        }
    }

    /// FIFO's request-id log: appends only, ids repeating.
    #[test]
    fn applied_log_index_matches_a_scan(
        cap in 0usize..8,
        script in proptest::collection::vec((0usize..3, 0u64..4), 0..64),
    ) {
        let mut log = RequestLog::default();
        let mut reference: VecDeque<RequestId> = VecDeque::new();
        for (client, seq) in script {
            let rid = id(client, seq);
            reference.push_back(rid);
            while reference.len() > cap {
                reference.pop_front();
            }
            log.push_bounded(rid, cap);
            agrees(&log, &reference);
        }
    }
}

/// Two entries for one id: evicting the older keeps the id present, and
/// evicting both forgets it.
#[test]
fn evicting_one_copy_keeps_the_other() {
    let a = id(0, 1);
    let mut log = RequestLog::default();
    log.push_bounded((1, a), 2);
    log.push_bounded((2, a), 2);
    log.push_bounded((3, id(1, 1)), 2);
    assert!(log.contains(&a), "the copy at GSN 2 is still retained");
    log.push_bounded((4, id(1, 2)), 2);
    assert!(!log.contains(&a), "both copies evicted");
}

/// A sorted insert at the front of a full log is evicted at once, and
/// takes its id's count with it.
#[test]
fn insert_at_the_front_of_a_full_log_is_evicted_at_once() {
    let mut log = RequestLog::default();
    log.push_bounded((5, id(0, 0)), 2);
    log.push_bounded((6, id(0, 1)), 2);
    log.insert_bounded(0, (1, id(2, 3)), 2);
    assert_eq!(log.len(), 2);
    assert!(!log.contains(&id(2, 3)));
    assert!(log.contains(&id(0, 0)));
}
