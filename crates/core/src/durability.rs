//! Durable crash-recovery glue between the server gateways and the
//! simulated storage layer (`aqf-store`).
//!
//! The gateways are sans-IO state machines; this module gives each of them
//! a *durability sidecar*: a [`VirtualDisk`] holding a CRC-framed
//! write-ahead log of committed `(gsn, update)` assignments, compacted by
//! staged snapshots with atomic-rename semantics.
//! Recovery then becomes "replay the local log, then fetch only the delta
//! over the network" instead of a full state transfer:
//!
//! * [`Durability::log_commit`] appends a typed [`WalRecord::Commit`]
//!   *before* the commit is acknowledged (write-ahead discipline; with
//!   `fsync_every = 1` an acked commit is never lost to a crash);
//! * [`Durability::stage_snapshot`] writes the application snapshot and
//!   truncates the covered WAL prefix in one atomic rename at the next
//!   fsync;
//! * [`Durability::replay`] decodes the durable bytes after a crash. A
//!   torn tail (interrupted append) is dropped and counted; interior
//!   corruption quarantines the whole disk — the replica falls back to a
//!   full state transfer rather than trust a rotten log;
//! * [`Durability::serve_delta`] answers a rejoining peer's
//!   "I already have everything up to `have_csn`" with just the missing
//!   committed updates, mirrored in memory for exactly this purpose.
//!
//! Everything here is deterministic: the only randomness lives inside the
//! disk's own seeded RNG (torn-write lengths, bit flips).

use crate::wire::{Method, Operation, RequestId, UpdateRequest};
use aqf_sim::ActorId;
use aqf_store::{
    decode_stream, encode_record_with, frame_len, DiskStats, SnapshotFile, TailStatus, VirtualDisk,
};
use std::collections::VecDeque;

pub use aqf_store::StorageConfig;

/// One typed entry of a gateway's write-ahead log.
///
/// The encoding is length-prefixed little-endian throughout, and methods
/// travel as their names ([`Method::as_str`]), not as variant indices; a
/// name no [`Method`] has makes the record malformed.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed update: the gateway assigned `gsn` (or, for the
    /// handlers without a sequencer, its local version) to `update` and is
    /// about to acknowledge it.
    Commit {
        /// The global sequence number (or local version) committed.
        gsn: u64,
        /// The committed update body.
        update: UpdateRequest,
    },
}

const COMMIT_TAG: u8 = 1;

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let b = self.bytes.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(b)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Appends the body of a [`WalRecord::Commit`] of `update` at `gsn`.
fn encode_commit(gsn: u64, update: &UpdateRequest, out: &mut Vec<u8>) {
    out.push(COMMIT_TAG);
    out.extend_from_slice(&gsn.to_le_bytes());
    out.extend_from_slice(&(update.id.client.index() as u32).to_le_bytes());
    out.extend_from_slice(&update.id.seq.to_le_bytes());
    out.extend_from_slice(&update.attempt.to_le_bytes());
    put_bytes(out, update.op.method.as_str().as_bytes());
    put_bytes(out, &update.op.payload);
}

/// The body length [`encode_commit`] writes for `update`.
pub(crate) fn commit_len(update: &UpdateRequest) -> usize {
    // Tag, gsn, client, seq, attempt, then two length-prefixed strings.
    1 + 8 + 4 + 8 + 4 + (4 + update.op.method.as_str().len()) + (4 + update.op.payload.len())
}

/// Frames a [`WalRecord::Commit`] of `update` at `gsn` onto `out`.
fn frame_commit(gsn: u64, update: &UpdateRequest, out: &mut Vec<u8>) {
    encode_record_with(out, |body| encode_commit(gsn, update, body));
}

impl WalRecord {
    /// Deserializes a record body. Returns `None` on any structural
    /// mismatch — defensive even though the CRC framing already vouches
    /// for the bytes.
    pub fn decode(body: &[u8]) -> Option<WalRecord> {
        let mut c = Cursor {
            bytes: body,
            pos: 0,
        };
        let record = match c.u8()? {
            COMMIT_TAG => {
                let gsn = c.u64()?;
                let client = ActorId::from_index(c.u32()? as usize);
                let seq = c.u64()?;
                let attempt = c.u32()?;
                let method = Method::from_name(std::str::from_utf8(c.bytes()?).ok()?)?;
                let payload = c.bytes()?.to_vec();
                WalRecord::Commit {
                    gsn,
                    update: UpdateRequest {
                        id: RequestId { client, seq },
                        op: Operation::new(method, payload),
                        attempt,
                    },
                }
            }
            _ => return None,
        };
        c.done().then_some(record)
    }
}

/// What [`Durability::replay`] recovered from the durable bytes.
#[derive(Debug, Clone, Default)]
pub struct ReplaySummary {
    /// The committed snapshot, if one survived.
    pub snapshot: Option<SnapshotFile>,
    /// The dense committed tail above the snapshot, in commit order.
    pub commits: Vec<(u64, UpdateRequest)>,
    /// Valid WAL records replayed.
    pub replayed_records: u64,
    /// Torn-tail frames dropped by the CRC check.
    pub torn_records: u64,
    /// `true` when interior corruption quarantined the log: nothing was
    /// recovered and the replica must fall back to a full state transfer.
    pub corrupt: bool,
}

/// A gateway's durability sidecar: the virtual disk plus the in-memory
/// mirror of the committed tail it serves deltas from.
#[derive(Debug)]
pub struct Durability {
    disk: VirtualDisk,
    /// Commit records currently covered by the durable WAL (everything
    /// above `last_snapshot_csn`), kept in memory so delta requests never
    /// re-decode the log.
    mirror: VecDeque<(u64, UpdateRequest)>,
    last_snapshot_csn: u64,
    commits_since_snapshot: u64,
}

impl Durability {
    /// Creates a sidecar over a fresh disk. `seed` should already mix the
    /// scenario seed with the owning replica's identity.
    pub fn new(config: StorageConfig, seed: u64) -> Self {
        Self {
            disk: VirtualDisk::new(config, seed),
            mirror: VecDeque::new(),
            last_snapshot_csn: 0,
            commits_since_snapshot: 0,
        }
    }

    /// The storage configuration.
    pub fn config(&self) -> &StorageConfig {
        self.disk.config()
    }

    /// The disk's counters.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// CSN of the last snapshot staged or recovered.
    pub fn last_snapshot_csn(&self) -> u64 {
        self.last_snapshot_csn
    }

    /// Appends a commit record ahead of the acknowledgement. Returns the
    /// framed size in bytes and whether the append carried an fsync.
    pub fn log_commit(&mut self, gsn: u64, update: &UpdateRequest) -> (u64, bool) {
        let (bytes, synced) = self
            .disk
            .append_with(|pending| frame_commit(gsn, update, pending));
        self.mirror.push_back((gsn, update.clone()));
        self.commits_since_snapshot += 1;
        (bytes as u64, synced)
    }

    /// Whether enough commits accumulated since the last snapshot to be
    /// worth compacting.
    pub fn wants_snapshot(&self) -> bool {
        let every = self.config().snapshot_every;
        every > 0 && self.commits_since_snapshot >= every
    }

    /// Stages a snapshot of the application state at `(csn, gsn)`; the
    /// atomic rename (and the truncation of the WAL prefix the snapshot
    /// covers) commits at the next fsync. Returns the bytes retained in
    /// the truncated WAL.
    pub fn stage_snapshot(&mut self, csn: u64, gsn: u64, data: Vec<u8>) -> u64 {
        let kept = || self.mirror.iter().filter(|(g, _)| *g > csn);
        let mut retained = Vec::with_capacity(kept().map(|(_, u)| frame_len(commit_len(u))).sum());
        for (g, u) in kept() {
            frame_commit(*g, u, &mut retained);
        }
        let retained_len = retained.len() as u64;
        self.disk
            .stage_snapshot(SnapshotFile { csn, gsn, data }, retained);
        self.mirror.retain(|(g, _)| *g > csn);
        self.last_snapshot_csn = csn;
        self.commits_since_snapshot = 0;
        retained_len
    }

    /// Records a full state transfer as the new durable baseline: the
    /// installed snapshot replaces log and mirror wholesale, and is
    /// fsynced immediately so a crash right after the install does not
    /// resurrect the pre-transfer state.
    pub fn persist_install(&mut self, csn: u64, gsn: u64, data: Vec<u8>) {
        self.disk
            .stage_snapshot(SnapshotFile { csn, gsn, data }, Vec::new());
        self.mirror.clear();
        self.last_snapshot_csn = csn;
        self.commits_since_snapshot = 0;
        self.disk.fsync();
    }

    /// Applies crash semantics to the disk (lost pending bytes, possible
    /// torn tail or bit flip, discarded staged snapshot). The in-memory
    /// mirror is *not* touched here — the owning gateway is being reset
    /// and will rebuild it through [`Durability::replay`].
    pub fn crash(&mut self) {
        self.disk.crash();
    }

    /// Decodes the durable bytes after a crash and rebuilds the mirror.
    ///
    /// The damage ladder: a clean log replays wholly; a torn tail drops
    /// the interrupted suffix (counted) and replays the prefix; interior
    /// corruption quarantines the disk and recovers nothing. Commits are
    /// admitted only while dense above the snapshot's CSN, so a gap —
    /// impossible under the write-ahead discipline, but cheap to guard —
    /// stops the replay rather than corrupt the object.
    pub fn replay(&mut self) -> ReplaySummary {
        let mut summary = ReplaySummary::default();
        let decoded = decode_stream(self.disk.durable_wal());
        match decoded.tail {
            TailStatus::Clean => {}
            TailStatus::Torn {
                dropped_records, ..
            } => {
                summary.torn_records = dropped_records.max(1) as u64;
            }
            TailStatus::Corrupt { .. } => {
                self.disk.quarantine();
                self.mirror.clear();
                self.last_snapshot_csn = 0;
                self.commits_since_snapshot = 0;
                summary.corrupt = true;
                return summary;
            }
        }
        summary.snapshot = self.disk.snapshot().cloned();
        let base_csn = summary.snapshot.as_ref().map_or(0, |s| s.csn);
        let mut next = base_csn + 1;
        for body in &decoded.records {
            match WalRecord::decode(body) {
                Some(WalRecord::Commit { gsn, update }) => {
                    summary.replayed_records += 1;
                    if gsn <= base_csn {
                        continue; // covered by the snapshot (crashed rename)
                    }
                    if gsn != next {
                        break; // gap: trust nothing past it
                    }
                    summary.commits.push((gsn, update));
                    next += 1;
                }
                None => break, // CRC-valid but untyped: stop, keep prefix
            }
        }
        self.mirror = summary.commits.iter().cloned().collect();
        self.last_snapshot_csn = base_csn;
        self.commits_since_snapshot = summary.commits.len() as u64;
        summary
    }

    /// Serves a delta to a peer that already holds everything up to
    /// `have_csn`: the committed updates in `(have_csn, applied_csn]`,
    /// or `None` when the mirror no longer covers that range (the peer is
    /// behind the last snapshot and needs a full transfer).
    pub fn serve_delta(
        &self,
        have_csn: u64,
        applied_csn: u64,
    ) -> Option<Vec<(u64, UpdateRequest)>> {
        if have_csn < self.last_snapshot_csn {
            return None;
        }
        Some(
            self.mirror
                .iter()
                .filter(|(g, _)| *g > have_csn && *g <= applied_csn)
                .cloned()
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(seq: u64) -> UpdateRequest {
        UpdateRequest {
            id: RequestId {
                client: ActorId::from_index(20),
                seq,
            },
            op: Operation::new(Method::Append, format!("body-{seq}").into_bytes()),
            attempt: 1,
        }
    }

    fn durable(seed: u64) -> Durability {
        Durability::new(StorageConfig::durable(), seed)
    }

    /// The unframed body of a commit of `update` at `gsn`.
    fn commit_body(gsn: u64, update: &UpdateRequest) -> Vec<u8> {
        let mut out = Vec::new();
        encode_commit(gsn, update, &mut out);
        out
    }

    #[test]
    fn wal_record_round_trip() {
        let mut framed = b"prefix".to_vec();
        frame_commit(42, &upd(7), &mut framed);
        assert_eq!(framed.len() - 6, frame_len(commit_len(&upd(7))));
        let out = decode_stream(&framed[6..]);
        assert_eq!(out.tail, TailStatus::Clean);
        assert_eq!(out.records, vec![commit_body(42, &upd(7))]);
        assert_eq!(
            WalRecord::decode(&out.records[0]),
            Some(WalRecord::Commit {
                gsn: 42,
                update: upd(7)
            })
        );
        assert_eq!(WalRecord::decode(&[]), None);
        assert_eq!(WalRecord::decode(&[9, 1, 2, 3]), None);
    }

    #[test]
    fn method_travels_as_string_not_id() {
        let body = commit_body(1, &upd(0));
        let window = b"append";
        assert!(
            body.windows(window.len()).any(|w| w == window),
            "method name must be persisted as its string"
        );
    }

    /// A method name no [`Method`] has is a malformed body, like any
    /// other structural mismatch.
    #[test]
    fn unknown_method_name_is_malformed() {
        let body = commit_body(1, &upd(0));
        let at = body
            .windows(6)
            .position(|w| w == b"append")
            .expect("the name is in the body");
        let mut renamed = body.clone();
        renamed[at..at + 6].copy_from_slice(b"upsert");
        assert!(WalRecord::decode(&body).is_some());
        assert_eq!(WalRecord::decode(&renamed), None);
    }

    #[test]
    fn crash_and_replay_recovers_committed_tail() {
        let mut d = durable(3);
        for gsn in 1..=5 {
            d.log_commit(gsn, &upd(gsn - 1));
        }
        d.crash();
        let summary = d.replay();
        assert!(!summary.corrupt);
        assert_eq!(summary.commits.len(), 5, "sync-before-ack loses nothing");
        assert_eq!(summary.commits[4].0, 5);
        assert_eq!(summary.torn_records, 0);
    }

    #[test]
    fn group_commit_crash_drops_unsynced_suffix() {
        let mut d = Durability::new(
            StorageConfig {
                fsync_every: 100,
                ..StorageConfig::durable()
            },
            3,
        );
        d.log_commit(1, &upd(0));
        d.disk.fsync();
        d.log_commit(2, &upd(1));
        d.log_commit(3, &upd(2));
        d.crash();
        let summary = d.replay();
        assert!(!summary.corrupt);
        assert_eq!(summary.commits.len(), 1, "unsynced commits are lost");
    }

    #[test]
    fn snapshot_truncates_and_replay_resumes_from_it() {
        let mut d = durable(5);
        for gsn in 1..=6 {
            d.log_commit(gsn, &upd(gsn - 1));
        }
        d.stage_snapshot(4, 6, b"state@4".to_vec());
        d.log_commit(7, &upd(6)); // fsync commits the rename
        d.crash();
        let summary = d.replay();
        let snap = summary.snapshot.expect("snapshot survived");
        assert_eq!(snap.csn, 4);
        assert_eq!(snap.data, b"state@4".to_vec());
        let gsns: Vec<u64> = summary.commits.iter().map(|(g, _)| *g).collect();
        assert_eq!(gsns, vec![5, 6, 7], "only the tail above the snapshot");
    }

    #[test]
    fn crash_during_snapshot_window_replays_old_baseline() {
        let mut d = Durability::new(
            StorageConfig {
                fsync_every: 100,
                ..StorageConfig::durable()
            },
            5,
        );
        for gsn in 1..=3 {
            d.log_commit(gsn, &upd(gsn - 1));
        }
        d.disk.fsync();
        d.stage_snapshot(3, 3, b"state@3".to_vec());
        d.crash(); // rename never committed
        let summary = d.replay();
        assert!(summary.snapshot.is_none());
        assert_eq!(summary.commits.len(), 3, "full WAL still replays");
    }

    #[test]
    fn interior_corruption_quarantines() {
        let mut d = Durability::new(
            StorageConfig {
                bit_flip_probability: 1.0,
                ..StorageConfig::durable()
            },
            11,
        );
        for gsn in 1..=8 {
            d.log_commit(gsn, &upd(gsn - 1));
        }
        d.crash(); // flips one durable bit
        let summary = d.replay();
        if summary.corrupt {
            assert!(summary.commits.is_empty());
            assert_eq!(d.disk.durable_wal().len(), 0, "quarantined");
        } else {
            // The flip landed in the final frame: classified as torn.
            assert!(summary.torn_records > 0 || summary.commits.len() < 8);
        }
    }

    #[test]
    fn serve_delta_covers_tail_above_snapshot() {
        let mut d = durable(7);
        for gsn in 1..=10 {
            d.log_commit(gsn, &upd(gsn - 1));
        }
        d.stage_snapshot(6, 10, b"state@6".to_vec());
        let delta = d.serve_delta(8, 10).expect("mirror covers (6, 10]");
        let gsns: Vec<u64> = delta.iter().map(|(g, _)| *g).collect();
        assert_eq!(gsns, vec![9, 10]);
        assert!(
            d.serve_delta(3, 10).is_none(),
            "below the snapshot: full transfer needed"
        );
    }

    #[test]
    fn persist_install_resets_baseline() {
        let mut d = durable(9);
        for gsn in 1..=4 {
            d.log_commit(gsn, &upd(gsn - 1));
        }
        d.persist_install(20, 20, b"transferred".to_vec());
        assert_eq!(d.last_snapshot_csn(), 20);
        d.crash();
        let summary = d.replay();
        assert_eq!(
            summary.snapshot.expect("installed baseline").csn,
            20,
            "install is durable immediately"
        );
        assert!(summary.commits.is_empty(), "old tail superseded");
    }

    // --- Byte fence ---------------------------------------------------------
    //
    // The exact bytes the commit path leaves on disk: the durable WAL and
    // the committed snapshot of a primary under each discipline, and what
    // a group-commit disk tears and replays. Any change to framing, record
    // encoding, compaction or the pending region that moves one byte moves
    // a digest here.

    use crate::causal::Causal;
    use crate::fifo::Fifo;
    use crate::protocol::ServerProtocol;
    use crate::server::Sequential;
    use crate::shell::conformance::{drain, durable_config, feed, gw, t, Fixture};
    use aqf_sim::Digest;

    /// Folds a byte string, length first, into `d`.
    fn mix_bytes(d: &mut Digest, bytes: &[u8]) {
        d.mix(bytes.len() as u64);
        for &b in bytes {
            d.mix(u64::from(b));
        }
    }

    /// Folds the durable WAL and the committed snapshot into `d`.
    fn mix_disk(d: &mut Digest, durability: &Durability) {
        mix_bytes(d, durability.disk.durable_wal());
        match durability.disk.snapshot() {
            Some(s) => {
                d.mix(s.csn);
                d.mix(s.gsn);
                mix_bytes(d, &s.data);
            }
            None => d.mix(u64::MAX),
        }
    }

    /// A durable primary under `D` after 200 updates, compacting every 64.
    fn gateway_disk_digest<D: Fixture>() -> u64 {
        let mut p = gw::<D>(1, durable_config());
        let mut actions = Vec::new();
        let mut now = t(0);
        for n in 0..200 {
            actions.clear();
            feed(&mut p, D::update(n), now, &mut actions);
            now = drain(&mut p, &mut actions, now);
        }
        assert_eq!(p.stats().wal_appends, 200);
        assert_eq!(p.stats().snapshots_taken, 3);
        let mut d = Digest::new();
        mix_disk(&mut d, p.durability().expect("storage enabled"));
        d.value()
    }

    /// A group-commit disk (`fsync_every` 8, every crash tears) that logs
    /// 150 commits with compaction, crashes with six records in flight and
    /// replays.
    fn group_commit_replay_digest(seed: u64) -> u64 {
        let mut dur = Durability::new(
            StorageConfig {
                fsync_every: 8,
                torn_write_probability: 1.0,
                ..StorageConfig::durable()
            },
            seed,
        );
        for gsn in 1..=150 {
            dur.log_commit(gsn, &upd(gsn - 1));
            if dur.wants_snapshot() {
                dur.stage_snapshot(gsn, gsn, format!("state@{gsn}").into_bytes());
            }
        }
        dur.crash();
        assert_eq!(dur.disk_stats().torn_writes, 1);
        let mut d = Digest::new();
        mix_disk(&mut d, &dur);
        let summary = dur.replay();
        d.mix(summary.replayed_records);
        d.mix(summary.torn_records);
        d.mix(u64::from(summary.corrupt));
        d.mix(summary.commits.len() as u64);
        for (gsn, update) in summary.commits {
            mix_bytes(&mut d, &commit_body(gsn, &update));
        }
        d.value()
    }

    /// Gateways (sequential, causal, FIFO; sequential and FIFO number the
    /// same updates alike, so their disks match), then group-commit
    /// replays at disk seeds 1, 2, 3.
    const WAL_DIGESTS: [u64; 6] = [
        0x604b_79b9_ff8e_34d8,
        0x92e4_4297_1bd8_6f6b,
        0x604b_79b9_ff8e_34d8,
        0x90cc_05f6_514d_d49e,
        0x88f1_84f3_a9a8_c643,
        0xf839_1b36_8b25_6a24,
    ];

    #[test]
    fn wal_bytes_unchanged() {
        let got = [
            gateway_disk_digest::<Sequential>(),
            gateway_disk_digest::<Causal>(),
            gateway_disk_digest::<Fifo>(),
            group_commit_replay_digest(1),
            group_commit_replay_digest(2),
            group_commit_replay_digest(3),
        ];
        assert_eq!(got, WAL_DIGESTS, "{got:#018x?}");
    }
}
