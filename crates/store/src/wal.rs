//! The write-ahead log record codec.
//!
//! Every record is framed as `[len: u32 LE][crc: u32 LE][body: len bytes]`
//! where `crc` is the CRC-32 of the body alone. The framing is
//! self-delimiting, so a log is decoded front to back; the interesting
//! part is what happens when a frame fails its checksum:
//!
//! * **Torn tail** — the failure is at the effective end of the log (an
//!   incomplete header, an incomplete body, or a CRC mismatch with no
//!   valid frame after it). This is the signature of a crash interrupting
//!   the in-flight write: the damaged suffix is dropped and the preceding
//!   valid prefix is trusted.
//! * **Interior corruption** — a frame fails its checksum but at least one
//!   later frame still decodes. Valid data after the damage means the
//!   damage was not an interrupted append; something rotted inside the
//!   log, so nothing past the first failure can be trusted for replay and
//!   the caller quarantines the whole log.
//!
//! A record body is opaque bytes at this layer; typed encoding lives with
//! the caller.

use crate::crc::crc32;

/// Bytes of framing overhead per record (length + checksum).
pub const HEADER_LEN: usize = 8;

/// Records larger than this are rejected at append time and treated as
/// framing damage at decode time. Generous for the simulated payloads; it
/// mainly stops a corrupted length field from swallowing the rest of the
/// log as one giant phantom frame.
pub const MAX_RECORD_LEN: usize = 1 << 24;

/// The total framed size of a record with `body_len` body bytes.
pub fn frame_len(body_len: usize) -> usize {
    HEADER_LEN + body_len
}

/// Appends one framed record to `out`.
///
/// # Panics
///
/// Panics if `body` exceeds [`MAX_RECORD_LEN`] (a codec misuse, not a
/// runtime condition).
pub fn encode_record(body: &[u8], out: &mut Vec<u8>) {
    encode_record_with(out, |out| out.extend_from_slice(body));
}

/// Appends one framed record to `out` whose body `body` writes in place:
/// the header is reserved, `body` appends the body bytes after it, and the
/// length and CRC are patched over the reservation. No body is staged
/// anywhere else. Returns the framed length.
///
/// # Panics
///
/// Panics if the body exceeds [`MAX_RECORD_LEN`] (a codec misuse, not a
/// runtime condition).
pub fn encode_record_with(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    body(out);
    let body_start = start + HEADER_LEN;
    let len = out.len() - body_start;
    assert!(len <= MAX_RECORD_LEN, "WAL record too large");
    let crc = crc32(&out[body_start..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..body_start].copy_from_slice(&crc.to_le_bytes());
    frame_len(len)
}

/// How the decode of a log ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte decoded into valid records.
    Clean,
    /// The final bytes were a damaged suffix (interrupted append) and were
    /// dropped; `dropped_bytes` of them, containing `dropped_records`
    /// unrecoverable frames (0 when only a partial header survived).
    Torn {
        /// Bytes discarded from the tail.
        dropped_bytes: usize,
        /// Complete-but-invalid frames discarded (at most 1 for a real
        /// torn write; more only under multi-record damage).
        dropped_records: usize,
    },
    /// A frame failed its checksum with valid frames after it: the log is
    /// untrustworthy past `valid_records` and must be quarantined.
    Corrupt {
        /// Byte offset of the first damaged frame.
        at_byte: usize,
    },
}

/// The result of decoding a WAL byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// The valid record bodies, in append order, up to the first damage.
    pub records: Vec<Vec<u8>>,
    /// How the stream ended.
    pub tail: TailStatus,
}

/// Whether a complete, checksum-valid frame starts at `pos`.
fn valid_frame_at(bytes: &[u8], pos: usize) -> Option<usize> {
    let header = bytes.get(pos..pos + HEADER_LEN)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD_LEN {
        return None;
    }
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    let body = bytes.get(pos + HEADER_LEN..pos + HEADER_LEN + len)?;
    (crc32(body) == crc).then_some(pos + HEADER_LEN + len)
}

/// Decodes a WAL byte stream front to back, classifying any damage.
///
/// Never panics, whatever the input: arbitrary corruption either shows up
/// as a dropped torn tail or as [`TailStatus::Corrupt`].
pub fn decode_stream(bytes: &[u8]) -> DecodeOutcome {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match valid_frame_at(bytes, pos) {
            Some(next) => {
                records.push(bytes[pos + HEADER_LEN..next].to_vec());
                pos = next;
            }
            None => {
                // Damage at `pos`. Walk the claimed frame boundaries past
                // the damaged frame: a complete later frame that still
                // validates proves there is real data beyond the damage
                // (interior corruption). If the chain runs out first —
                // an incomplete frame, an implausible length, or nothing
                // but invalid frames to the end — the damage is confined
                // to the tail: an interrupted append, dropped.
                let mut interior = false;
                let mut dropped_records = 0usize;
                let mut p = pos;
                while let Some(h) = bytes.get(p..p + HEADER_LEN) {
                    let len = u32::from_le_bytes(h[..4].try_into().expect("4 bytes")) as usize;
                    if len > MAX_RECORD_LEN || p + HEADER_LEN + len > bytes.len() {
                        break;
                    }
                    if p > pos && valid_frame_at(bytes, p).is_some() {
                        interior = true;
                        break;
                    }
                    dropped_records += 1;
                    p += HEADER_LEN + len;
                }
                let tail = if interior {
                    TailStatus::Corrupt { at_byte: pos }
                } else {
                    TailStatus::Torn {
                        dropped_bytes: bytes.len() - pos,
                        dropped_records,
                    }
                };
                return DecodeOutcome { records, tail };
            }
        }
    }
    DecodeOutcome {
        records,
        tail: TailStatus::Clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(bodies: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for b in bodies {
            encode_record(b, &mut out);
        }
        out
    }

    #[test]
    fn round_trip() {
        let log = log_of(&[b"first", b"", b"third record with more bytes"]);
        let out = decode_stream(&log);
        assert_eq!(out.tail, TailStatus::Clean);
        assert_eq!(
            out.records,
            vec![
                b"first".to_vec(),
                Vec::new(),
                b"third record with more bytes".to_vec()
            ]
        );
    }

    #[test]
    fn framing_in_place_matches_framing_a_copy() {
        let mut copied = b"prefix".to_vec();
        encode_record(b"body bytes", &mut copied);
        let mut in_place = b"prefix".to_vec();
        let framed = encode_record_with(&mut in_place, |out| {
            out.extend_from_slice(b"body ");
            out.extend_from_slice(b"bytes");
        });
        assert_eq!(in_place, copied);
        assert_eq!(framed, frame_len(10));
    }

    #[test]
    fn empty_log_is_clean() {
        let out = decode_stream(&[]);
        assert!(out.records.is_empty());
        assert_eq!(out.tail, TailStatus::Clean);
    }

    #[test]
    fn torn_prefix_of_any_length_keeps_preceding_records() {
        let log = log_of(&[b"alpha", b"beta"]);
        let mut torn = log.clone();
        encode_record(b"gamma-the-in-flight-record", &mut torn);
        // Every strict prefix of the in-flight record decodes to exactly
        // the first two records.
        for cut in log.len() + 1..torn.len() {
            let out = decode_stream(&torn[..cut]);
            assert_eq!(out.records.len(), 2, "cut at {cut}");
            assert!(
                matches!(out.tail, TailStatus::Torn { dropped_bytes, .. }
                    if dropped_bytes == cut - log.len()),
                "cut at {cut}: {:?}",
                out.tail
            );
        }
    }

    #[test]
    fn tail_crc_failure_is_torn_not_corrupt() {
        let mut log = log_of(&[b"alpha", b"beta"]);
        let last = log.len() - 1;
        log[last] ^= 0x01;
        let out = decode_stream(&log);
        assert_eq!(out.records, vec![b"alpha".to_vec()]);
        assert!(matches!(
            out.tail,
            TailStatus::Torn {
                dropped_records: 1,
                ..
            }
        ));
    }

    #[test]
    fn interior_flip_quarantines() {
        let log = log_of(&[b"alpha", b"beta", b"gamma"]);
        // Flip a bit inside the first record's body.
        let mut bad = log.clone();
        bad[HEADER_LEN] ^= 0x80;
        let out = decode_stream(&bad);
        assert!(out.records.is_empty());
        assert_eq!(out.tail, TailStatus::Corrupt { at_byte: 0 });
    }

    #[test]
    fn length_field_damage_never_panics() {
        let log = log_of(&[b"alpha", b"beta"]);
        for byte in 0..log.len() {
            let mut bad = log.clone();
            bad[byte] ^= 0xFF;
            let out = decode_stream(&bad);
            // Either the damage was classified, or (for the final frame's
            // tail) dropped; never a panic, never a silently different
            // record accepted as valid.
            for rec in &out.records {
                assert!(rec == b"alpha" || rec == b"beta");
            }
        }
    }
}
