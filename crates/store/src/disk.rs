//! The per-actor virtual disk: durable vs in-flight WAL bytes, staged
//! snapshots with atomic-rename semantics, and the crash fault hook.
//!
//! # Durability model
//!
//! * [`VirtualDisk::append_with`] frames a record straight onto the end
//!   of the *pending* (in-flight) region: one byte buffer holding every
//!   record since the last fsync, plus the length of the first of them.
//!   `fsync` moves pending into the *durable* region with one copy. A
//!   crash loses pending bytes — except, with
//!   [`StorageConfig::torn_write_probability`], a random strict prefix of
//!   the first in-flight record lands on the durable tail (the classic
//!   torn write; the CRC framing of [`crate::wal`] detects and drops it at
//!   replay).
//! * Snapshots follow the write-to-temp + atomic-rename discipline:
//!   [`VirtualDisk::stage_snapshot`] writes the temp file, and the rename
//!   commits at the *next* fsync. A crash inside that window discards the
//!   staged file and keeps the previous snapshot plus the untruncated WAL
//!   — exactly what a crashed rename leaves behind.
//! * With [`StorageConfig::bit_flip_probability`], a crash flips one
//!   random bit somewhere in the durable WAL (latent media corruption
//!   surfacing at the worst moment). Replay's CRC check turns this into
//!   either a dropped torn tail or a quarantined log.
//!
//! # Determinism
//!
//! All randomness (torn-write length, bit position) comes from an
//! internal [`SmallRng`] seeded at construction, so a scenario replays
//! bit-identically. The disk takes no virtual time: no simulator delay or
//! service time includes a write or an fsync, so enabling storage never
//! changes event ordering, which is what keeps the "storage disabled is
//! bit-identical to the seed" and "traced equals untraced" invariants
//! cheap to uphold.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for one replica's simulated storage.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Master switch. `false` (the default) means no disk exists at all:
    /// no logging, no replay, no RNG draws — the seed's behaviour,
    /// bit-identically.
    pub enabled: bool,
    /// Seed material for the disk's private RNG stream. The scenario
    /// runner sets this to the master seed; each replica additionally
    /// mixes in its own actor id.
    pub seed: u64,
    /// Fsync after every `fsync_every` appended records. `1` is
    /// sync-before-ack (a committed record is never lost to a crash);
    /// larger values model group commit, where a crash can lose the
    /// unsynced suffix.
    pub fsync_every: u64,
    /// Snapshot + truncate the WAL every `snapshot_every` committed
    /// updates (`0` disables compaction; the log grows without bound).
    pub snapshot_every: u64,
    /// Probability that a crash leaves a torn prefix of the first
    /// in-flight record on the durable tail.
    pub torn_write_probability: f64,
    /// Probability that a crash flips one random bit in the durable WAL.
    pub bit_flip_probability: f64,
    /// Replay the durable log on restart. `false` is the transfer-only
    /// ablation: the WAL is written but ignored at recovery, so the
    /// replica rebuilds entirely over the network.
    pub replay: bool,
}

impl StorageConfig {
    /// No storage at all — the seed's behaviour.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            seed: 0,
            fsync_every: 1,
            snapshot_every: 0,
            torn_write_probability: 0.0,
            bit_flip_probability: 0.0,
            replay: true,
        }
    }

    /// The durable preset: sync-before-ack, compaction every 64 commits,
    /// no injected faults.
    pub fn durable() -> Self {
        Self {
            enabled: true,
            seed: 0,
            fsync_every: 1,
            snapshot_every: 64,
            torn_write_probability: 0.0,
            bit_flip_probability: 0.0,
            replay: true,
        }
    }

    /// Validates the knobs of an enabled configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated invariant. A disabled
    /// configuration always passes (the seed path carries no knobs).
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.fsync_every == 0 {
            return Err("storage fsync_every must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.torn_write_probability) {
            return Err("storage torn_write_probability must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.bit_flip_probability) {
            return Err("storage bit_flip_probability must be in [0, 1]".into());
        }
        Ok(())
    }
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A committed snapshot file: the application state at `(csn, gsn)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFile {
    /// Commit sequence number the snapshot captures.
    pub csn: u64,
    /// GSN knowledge at the snapshot point.
    pub gsn: u64,
    /// Opaque application snapshot bytes.
    pub data: Vec<u8>,
}

/// Counters maintained by a [`VirtualDisk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Records appended.
    pub appends: u64,
    /// WAL bytes appended (framed size).
    pub appended_bytes: u64,
    /// Fsyncs performed.
    pub fsyncs: u64,
    /// Snapshots committed (atomic renames that completed).
    pub snapshots_committed: u64,
    /// Crashes survived.
    pub crashes: u64,
    /// Crashes that left a torn write on the durable tail.
    pub torn_writes: u64,
    /// Crashes that flipped a bit in the durable WAL.
    pub bit_flips: u64,
}

/// One replica's simulated storage device.
#[derive(Debug)]
pub struct VirtualDisk {
    config: StorageConfig,
    /// WAL bytes that survived an fsync.
    durable: Vec<u8>,
    /// WAL bytes appended since the last fsync: `records_since_sync`
    /// whole records, back to back.
    pending: Vec<u8>,
    /// Framed length of the first record in `pending` (the one a crash
    /// can tear); 0 while nothing is in flight.
    first_pending_len: usize,
    /// The committed snapshot, if any.
    snapshot: Option<SnapshotFile>,
    /// A snapshot written but not yet renamed over the old one, together
    /// with the truncated WAL that becomes durable with it.
    staged: Option<(SnapshotFile, Vec<u8>)>,
    records_since_sync: u64,
    rng: SmallRng,
    stats: DiskStats,
}

impl VirtualDisk {
    /// Creates an empty disk. `seed` should already mix the scenario seed
    /// with the owning replica's identity.
    pub fn new(config: StorageConfig, seed: u64) -> Self {
        Self {
            config,
            durable: Vec::new(),
            pending: Vec::new(),
            first_pending_len: 0,
            snapshot: None,
            staged: None,
            records_since_sync: 0,
            rng: SmallRng::seed_from_u64(seed),
            stats: DiskStats::default(),
        }
    }

    /// The disk's counters.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// The configuration the disk was built with.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// Appends one already-framed WAL record to the in-flight region and
    /// fsyncs if the group-commit threshold is reached. Returns `true`
    /// if this append carried an fsync (i.e. the record is now durable).
    pub fn append_record(&mut self, framed: Vec<u8>) -> bool {
        self.append_with(|pending| pending.extend_from_slice(&framed))
            .1
    }

    /// Appends one WAL record that `write` frames straight onto the end of
    /// the in-flight region (see [`crate::wal::encode_record_with`]), and
    /// fsyncs if the group-commit threshold is reached. Returns the framed
    /// length `write` appended and whether this append carried an fsync.
    pub fn append_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> (usize, bool) {
        let start = self.pending.len();
        write(&mut self.pending);
        let framed_len = self.pending.len() - start;
        if self.records_since_sync == 0 {
            self.first_pending_len = framed_len;
        }
        self.stats.appends += 1;
        self.stats.appended_bytes += framed_len as u64;
        self.records_since_sync += 1;
        let synced = self.records_since_sync >= self.config.fsync_every;
        if synced {
            self.fsync();
        }
        (framed_len, synced)
    }

    /// Drops the in-flight region.
    fn clear_pending(&mut self) {
        self.pending.clear();
        self.first_pending_len = 0;
        self.records_since_sync = 0;
    }

    /// Flushes the in-flight region to durable storage and commits any
    /// staged snapshot rename.
    pub fn fsync(&mut self) {
        self.stats.fsyncs += 1;
        if let Some((file, truncated_wal)) = self.staged.take() {
            // The atomic rename: the new snapshot replaces the old one
            // and the WAL drops everything the snapshot now covers, in
            // one indivisible step. The durable buffer keeps its
            // allocation.
            self.snapshot = Some(file);
            self.durable.clear();
            self.durable.extend_from_slice(&truncated_wal);
            self.stats.snapshots_committed += 1;
        }
        self.durable.extend_from_slice(&self.pending);
        self.clear_pending();
    }

    /// Writes a snapshot to the temp file and schedules its rename (plus
    /// the matching WAL truncation) for the next fsync. A second stage
    /// before that fsync replaces the first — only the latest temp file
    /// can be renamed.
    pub fn stage_snapshot(&mut self, file: SnapshotFile, truncated_wal: Vec<u8>) {
        self.staged = Some((file, truncated_wal));
    }

    /// The committed snapshot, if any.
    pub fn snapshot(&self) -> Option<&SnapshotFile> {
        self.snapshot.as_ref()
    }

    /// The durable WAL bytes (what replay would read).
    pub fn durable_wal(&self) -> &[u8] {
        &self.durable
    }

    /// Applies crash semantics: in-flight bytes are lost (modulo a torn
    /// prefix), the staged-but-unrenamed snapshot is discarded, and latent
    /// corruption may surface in the durable log. Called by the host when
    /// the owning actor restarts after a crash.
    pub fn crash(&mut self) {
        self.stats.crashes += 1;
        // Torn write: a strict prefix of the first in-flight record makes
        // it to the platter before power dies.
        let first = self.first_pending_len;
        if first > 1
            && self.config.torn_write_probability > 0.0
            && self.rng.gen_bool(self.config.torn_write_probability)
        {
            let cut = self.rng.gen_range(1..first);
            self.durable.extend_from_slice(&self.pending[..cut]);
            self.stats.torn_writes += 1;
        }
        self.clear_pending();
        // The crashed rename: the temp file is gone, the old snapshot and
        // the untruncated WAL remain.
        self.staged = None;
        // Latent media corruption surfacing on the durable log.
        if !self.durable.is_empty()
            && self.config.bit_flip_probability > 0.0
            && self.rng.gen_bool(self.config.bit_flip_probability)
        {
            let byte = self.rng.gen_range(0..self.durable.len());
            let bit = self.rng.gen_range(0..8u32);
            self.durable[byte] ^= 1 << bit;
            self.stats.bit_flips += 1;
        }
    }

    /// Erases the WAL and snapshot (quarantine: the log failed its
    /// integrity check and nothing on this disk can be trusted).
    pub fn quarantine(&mut self) {
        self.durable.clear();
        self.clear_pending();
        self.snapshot = None;
        self.staged = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{decode_stream, encode_record, TailStatus};

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(body, &mut out);
        out
    }

    fn disk(config: StorageConfig) -> VirtualDisk {
        VirtualDisk::new(config, 7)
    }

    #[test]
    fn sync_before_ack_survives_crash() {
        let mut d = disk(StorageConfig {
            torn_write_probability: 1.0,
            ..StorageConfig::durable()
        });
        assert!(d.append_record(framed(b"one")));
        assert!(d.append_record(framed(b"two")));
        d.crash();
        let out = decode_stream(d.durable_wal());
        assert_eq!(out.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(out.tail, TailStatus::Clean);
        assert_eq!(d.stats().torn_writes, 0, "nothing was in flight");
    }

    #[test]
    fn group_commit_crash_tears_the_in_flight_record() {
        let mut d = disk(StorageConfig {
            fsync_every: 8,
            torn_write_probability: 1.0,
            ..StorageConfig::durable()
        });
        assert!(!d.append_record(framed(b"durable-record")));
        d.fsync();
        assert!(!d.append_record(framed(b"in-flight-record")));
        d.crash();
        assert_eq!(d.stats().torn_writes, 1);
        let out = decode_stream(d.durable_wal());
        assert_eq!(out.records, vec![b"durable-record".to_vec()]);
        assert!(matches!(out.tail, TailStatus::Torn { .. }));
    }

    #[test]
    fn staged_snapshot_commits_at_next_fsync_not_before() {
        let mut d = disk(StorageConfig::durable());
        d.append_record(framed(b"a"));
        d.stage_snapshot(
            SnapshotFile {
                csn: 1,
                gsn: 1,
                data: b"state@1".to_vec(),
            },
            Vec::new(),
        );
        assert!(d.snapshot().is_none(), "rename has not happened yet");
        d.append_record(framed(b"b")); // carries the fsync (fsync_every = 1)
        let snap = d.snapshot().expect("rename committed");
        assert_eq!(snap.csn, 1);
        // The truncation landed with the rename; only the post-stage
        // record remains in the WAL.
        let out = decode_stream(d.durable_wal());
        assert_eq!(out.records, vec![b"b".to_vec()]);
    }

    #[test]
    fn crash_during_snapshot_window_keeps_old_state() {
        let mut d = disk(StorageConfig {
            fsync_every: 100,
            ..StorageConfig::durable()
        });
        d.append_record(framed(b"a"));
        d.fsync();
        d.stage_snapshot(
            SnapshotFile {
                csn: 1,
                gsn: 1,
                data: b"state@1".to_vec(),
            },
            Vec::new(),
        );
        d.crash();
        assert!(d.snapshot().is_none(), "crashed rename leaves no snapshot");
        let out = decode_stream(d.durable_wal());
        assert_eq!(out.records, vec![b"a".to_vec()], "WAL not truncated");
        assert_eq!(d.stats().snapshots_committed, 0);
    }

    #[test]
    fn bit_flip_corrupts_durable_log() {
        let mut d = disk(StorageConfig {
            bit_flip_probability: 1.0,
            ..StorageConfig::durable()
        });
        for i in 0..4u8 {
            d.append_record(framed(&[i; 16]));
        }
        d.crash();
        assert_eq!(d.stats().bit_flips, 1);
        let out = decode_stream(d.durable_wal());
        assert!(
            out.records.len() < 4 || out.tail != TailStatus::Clean,
            "flip must be CRC-visible"
        );
    }

    #[test]
    fn quarantine_erases_everything() {
        let mut d = disk(StorageConfig::durable());
        d.append_record(framed(b"a"));
        d.stage_snapshot(
            SnapshotFile {
                csn: 1,
                gsn: 1,
                data: vec![1],
            },
            Vec::new(),
        );
        d.quarantine();
        assert!(d.durable_wal().is_empty());
        assert!(d.snapshot().is_none());
    }

    #[test]
    fn config_validation() {
        assert!(StorageConfig::disabled().validate().is_ok());
        assert!(StorageConfig::durable().validate().is_ok());
        let mut c = StorageConfig::durable();
        c.fsync_every = 0;
        assert!(c.validate().unwrap_err().contains("fsync_every"));
        let mut c = StorageConfig::durable();
        c.torn_write_probability = 1.5;
        assert!(c.validate().unwrap_err().contains("torn_write_probability"));
        let mut c = StorageConfig::durable();
        c.bit_flip_probability = -0.1;
        assert!(c.validate().unwrap_err().contains("bit_flip_probability"));
        // Disabled skips knob validation (the seed path).
        let mut c = StorageConfig::disabled();
        c.fsync_every = 0;
        assert!(c.validate().is_ok());
    }
}
