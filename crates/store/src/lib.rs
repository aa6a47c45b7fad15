//! Deterministic simulated replica storage.
//!
//! This crate models the durable half of a replica: a per-actor virtual
//! disk holding a length+CRC-framed append-only write-ahead log and a
//! snapshot file with atomic-rename semantics, plus the crash fault hooks
//! production storage is tested against — torn tail on crash (a prefix of
//! the in-flight record survives) and single-bit corruption of the durable
//! log. Everything is in-memory and driven by a deterministic RNG, so
//! simulation runs stay bit-reproducible; the disk takes no virtual time,
//! so enabling storage never perturbs event ordering.
//!
//! * [`crc32`] / [`crc`] — the hand-rolled CRC-32 (IEEE) used by the frame
//!   codec (the workspace vendors its dependencies offline, so no crc
//!   crate is available).
//! * [`wal`] — the record codec: `[len | crc | body]` frames, an
//!   append-side encoder and a decode ladder that distinguishes a torn
//!   tail (dropped) from interior corruption (quarantines the log).
//! * [`disk`] — [`VirtualDisk`]: durable vs in-flight bytes, staged
//!   snapshots that commit at the next fsync, and the crash hook.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod disk;
pub mod wal;

pub use crc::crc32;
pub use disk::{DiskStats, SnapshotFile, StorageConfig, VirtualDisk};
pub use wal::{
    decode_stream, encode_record, encode_record_with, frame_len, DecodeOutcome, TailStatus,
};
